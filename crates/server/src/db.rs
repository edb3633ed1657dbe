//! The server's signature database.
//!
//! An append-only, index-addressed store: GET(k) returns everything from
//! index k (so clients download incrementally, and GET(0) — the worst
//! case used throughout §IV-A — walks the entire database).
//!
//! # Sharding
//!
//! The store is split into two cooperating structures so that the hot
//! paths never meet on one lock:
//!
//! * **Dedup shards** — the text → index map is partitioned into N
//!   shards keyed by a hash of the signature text. A duplicate probe
//!   takes one shard's *read* lock; only a genuinely new signature takes
//!   that shard's *write* lock. Adds to different shards never contend.
//! * **Append log** — global indices come from a lock-free atomic
//!   sequence, and signature texts live in a segmented append-only log
//!   whose slots are written exactly once. Readers
//!   ([`SignatureDb::get_from`], [`SignatureDb::scan_from`]) walk the
//!   log up to the *committed* watermark without taking any
//!   per-signature lock, so the O(N) GET(0) walk no longer blocks
//!   writers (and vice versa).

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Default number of dedup shards (a modest power of two: enough to
/// spread 8–64 writer threads, small enough that per-shard stats stay
/// readable).
pub const DEFAULT_SHARDS: usize = 16;

const SEG_SHIFT: usize = 10;
/// Signatures per log segment.
const SEG_LEN: usize = 1 << SEG_SHIFT;

/// Per-shard usage counters (see [`Store::shard_stats`](crate::Store::shard_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Signatures whose dedup entry lives in this shard.
    pub sigs: usize,
    /// Total bytes of those signatures' text.
    pub bytes: usize,
}

/// Thread-safe append-only signature store with exact-duplicate
/// suppression.
#[derive(Debug)]
pub(crate) struct SignatureDb {
    shards: Box<[Shard]>,
    hasher: RandomState,
    log: AppendLog,
}

impl SignatureDb {
    /// Creates an empty database with `shards` dedup shards (clamped to
    /// at least 1).
    pub(crate) fn with_shards(shards: usize) -> Self {
        SignatureDb {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            hasher: RandomState::new(),
            log: AppendLog::default(),
        }
    }

    /// Number of dedup shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, sig_text: &str) -> &Shard {
        // Hash the whole text: a prefix/suffix shortcut would let an
        // adversary craft distinct signatures that collapse every dedup
        // probe onto one shard (this server's whole point is surviving
        // hostile senders, §III-C). SipHash over 1.7 KB costs far less
        // than the allocations an accepted add performs anyway.
        &self.shards[(self.hasher.hash_one(sig_text) as usize) % self.shards.len()]
    }

    /// Appends `sig_text` unless an identical signature is already
    /// stored. Returns `(index, newly_added)`.
    pub(crate) fn add(&self, sig_text: &str) -> (usize, bool) {
        let shard = self.shard_of(sig_text);
        // Fast path: read lock for the duplicate probe.
        if let Some(&i) = shard.index.read().get(sig_text) {
            return (i as usize, false);
        }
        let mut index = shard.index.write();
        if let Some(&i) = index.get(sig_text) {
            return (i as usize, false);
        }
        let i = self.log.reserve();
        index.insert(sig_text.to_string(), i);
        shard.count.fetch_add(1, Ordering::AcqRel);
        shard.bytes.fetch_add(sig_text.len(), Ordering::AcqRel);
        // Publish while still holding the shard write lock, so that a
        // racing duplicate add observing the index entry also observes
        // the committed log slot.
        self.log.publish(i, sig_text.to_string());
        (i as usize, true)
    }

    /// Index of `sig_text` if it is already stored. Takes only a shard
    /// *read* lock — this is the server's dedup fast path.
    pub(crate) fn contains(&self, sig_text: &str) -> Option<usize> {
        self.shard_of(sig_text)
            .index
            .read()
            .get(sig_text)
            .map(|&i| i as usize)
    }

    /// All signatures from index `from` (clones; the caller ships them).
    pub(crate) fn get_from(&self, from: usize) -> Vec<String> {
        self.log.collect(from as u64, self.log.committed())
    }

    /// At most `max` signatures from index `from`, plus the current
    /// total — the server-side windowing behind `GET_DELTA`. `max == 0`
    /// means "no client-side cap" (the server still applies its own).
    pub(crate) fn delta(&self, from: usize, max: usize) -> (Vec<String>, usize) {
        let total = self.log.committed();
        let from = (from as u64).min(total);
        let cap = if max == 0 {
            total
        } else {
            from.saturating_add(max as u64)
        };
        (self.log.collect(from, cap.min(total)), total as usize)
    }

    /// Walks the database from index `from` without materializing a
    /// reply, returning `(count, bytes)` of what a GET would ship.
    ///
    /// This is the "iterating through the entire database" computation
    /// Figure 2 measures: the in-process benchmark isolates the server's
    /// CPU work from reply-buffer allocation (the end-to-end path with
    /// real replies is measured separately in Figure 3). The walk runs
    /// over the global append log — one contiguous index space, no
    /// per-shard reassembly — and touches no shard lock.
    pub(crate) fn scan_from(&self, from: usize) -> (usize, usize) {
        self.log.scan(from as u64, self.log.committed())
    }

    /// Per-shard `(count, bytes)` counters. Their sums equal
    /// [`SignatureDb::len`] / [`SignatureDb::stored_bytes`] whenever no
    /// add is mid-flight (counters are bumped inside the shard write
    /// lock, before the log slot is published).
    pub(crate) fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|sh| ShardStats {
                sigs: sh.count.load(Ordering::Acquire),
                bytes: sh.bytes.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Number of stored signatures.
    pub(crate) fn len(&self) -> usize {
        self.log.committed() as usize
    }

    /// Whether the database is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of stored signature text (reporting).
    pub(crate) fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.bytes.load(Ordering::Acquire))
            .sum()
    }

    /// Dedup-map entries at or above log index `from`, sorted by index —
    /// the adds whose dedup insert has happened but whose log slot may
    /// still be below the committed watermark. The durable store's
    /// snapshotter appends these to the committed prefix so that a
    /// signature whose WAL record predates a snapshot cut can never be
    /// dropped by the compaction that follows (its dedup insert strictly
    /// precedes its WAL append).
    pub(crate) fn tail_entries(&self, from: usize) -> Vec<String> {
        let mut tail: Vec<(u64, String)> = Vec::new();
        for shard in self.shards.iter() {
            for (text, &i) in shard.index.read().iter() {
                if i >= from as u64 {
                    tail.push((i, text.clone()));
                }
            }
        }
        tail.sort_by_key(|&(i, _)| i);
        tail.into_iter().map(|(_, text)| text).collect()
    }
}

#[derive(Debug, Default)]
struct Shard {
    /// Signature text → global log index.
    index: RwLock<HashMap<String, u64>>,
    count: AtomicUsize,
    bytes: AtomicUsize,
}

/// A segmented append-only log of signature texts.
///
/// Indices come from the lock-free `next` sequence; each slot is written
/// exactly once (`OnceLock`); the `committed` watermark trails `next`
/// and only covers the contiguous prefix of filled slots, so readers
/// below `committed` never observe an empty slot. The segment directory
/// is behind a `RwLock`, but it is only write-locked when a new 1024-slot
/// segment is allocated — reads share it uncontended.
#[derive(Debug, Default)]
struct AppendLog {
    segments: RwLock<Vec<Arc<[OnceLock<String>]>>>,
    next: AtomicU64,
    committed: AtomicU64,
}

impl AppendLog {
    fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Claims the next global index and ensures its segment exists.
    fn reserve(&self) -> u64 {
        let i = self.next.fetch_add(1, Ordering::AcqRel);
        let seg = (i as usize) >> SEG_SHIFT;
        if seg >= self.segments.read().len() {
            let mut segments = self.segments.write();
            while segments.len() <= seg {
                segments.push((0..SEG_LEN).map(|_| OnceLock::new()).collect());
            }
        }
        i
    }

    /// Fills slot `i` and advances the committed watermark over every
    /// contiguous filled slot. Writers cooperate: whichever writer
    /// observes the frontier slot filled advances it, so a slot finished
    /// out of order is published by the (slower) writer in front of it.
    fn publish(&self, i: u64, text: String) {
        {
            let segments = self.segments.read();
            let slot = &segments[(i as usize) >> SEG_SHIFT][(i as usize) & (SEG_LEN - 1)];
            slot.set(text).expect("log slot is written exactly once");
        }
        loop {
            let c = self.committed.load(Ordering::Acquire);
            if c >= self.next.load(Ordering::Acquire) {
                break;
            }
            let frontier_filled = {
                let segments = self.segments.read();
                segments
                    .get((c as usize) >> SEG_SHIFT)
                    .is_some_and(|seg| seg[(c as usize) & (SEG_LEN - 1)].get().is_some())
            };
            if !frontier_filled {
                break;
            }
            // Losing the CAS just means another writer advanced it;
            // re-read and keep helping.
            let _ = self
                .committed
                .compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Walks the committed slots in `[from, to)` segment by segment
    /// (`to` must be ≤ committed).
    ///
    /// The segment-directory lock is released before the walk: holding
    /// it across an O(N) GET(0) would park any add that needs to grow
    /// the directory — and, through lock fairness, every other reader
    /// behind that waiting writer. Segments are `Arc`s precisely so a
    /// reader can pin them and iterate lock-free.
    fn for_each(&self, from: u64, to: u64, mut f: impl FnMut(&String)) {
        if from >= to {
            return;
        }
        let segments: Vec<Arc<[OnceLock<String>]>> = self.segments.read().clone();
        let mut seg = (from as usize) >> SEG_SHIFT;
        let mut off = (from as usize) & (SEG_LEN - 1);
        let mut remaining = (to - from) as usize;
        while remaining > 0 {
            let take = remaining.min(SEG_LEN - off);
            for slot in &segments[seg][off..off + take] {
                f(slot
                    .get()
                    .expect("slot below the committed watermark is filled"));
            }
            remaining -= take;
            seg += 1;
            off = 0;
        }
    }

    /// Clones the texts in `[from, to)`; `to` must be ≤ committed.
    fn collect(&self, from: u64, to: u64) -> Vec<String> {
        let mut out = Vec::with_capacity(to.saturating_sub(from) as usize);
        self.for_each(from, to, |s| out.push(s.clone()));
        out
    }

    /// `(count, bytes)` over `[from, to)` without cloning.
    fn scan(&self, from: u64, to: u64) -> (usize, usize) {
        let mut bytes = 0;
        self.for_each(from, to, |s| bytes += s.len());
        (to.saturating_sub(from) as usize, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test runs against the default, an odd, and the one-shard
    /// shard count.
    fn both() -> Vec<SignatureDb> {
        [DEFAULT_SHARDS, 3, 1]
            .into_iter()
            .map(SignatureDb::with_shards)
            .collect()
    }

    #[test]
    fn add_and_get() {
        for db in both() {
            assert_eq!(db.add("a"), (0, true));
            assert_eq!(db.add("b"), (1, true));
            assert_eq!(db.get_from(0), vec!["a", "b"]);
            assert_eq!(db.get_from(1), vec!["b"]);
            assert_eq!(db.get_from(2), Vec::<String>::new());
            assert_eq!(db.get_from(99), Vec::<String>::new());
        }
    }

    #[test]
    fn duplicates_suppressed() {
        for db in both() {
            assert_eq!(db.add("a"), (0, true));
            assert_eq!(db.add("a"), (0, false));
            assert_eq!(db.len(), 1);
        }
    }

    #[test]
    fn contains_probes_without_adding() {
        for db in both() {
            assert_eq!(db.contains("a"), None);
            db.add("a");
            assert_eq!(db.contains("a"), Some(0));
            assert_eq!(db.len(), 1);
        }
    }

    #[test]
    fn stored_bytes() {
        for db in both() {
            db.add("abc");
            db.add("de");
            assert_eq!(db.stored_bytes(), 5);
            assert!(!db.is_empty());
        }
    }

    #[test]
    fn scan_matches_get() {
        for db in both() {
            db.add("abc");
            db.add("defg");
            assert_eq!(db.scan_from(0), (2, 7));
            assert_eq!(db.scan_from(1), (1, 4));
            assert_eq!(db.scan_from(2), (0, 0));
            assert_eq!(db.scan_from(99), (0, 0));
        }
    }

    #[test]
    fn delta_windows_in_global_order() {
        for db in both() {
            for i in 0..10 {
                db.add(&format!("sig-{i}"));
            }
            let (sigs, total) = db.delta(3, 4);
            assert_eq!(total, 10);
            assert_eq!(sigs, vec!["sig-3", "sig-4", "sig-5", "sig-6"]);
            // Window past the end clamps.
            let (sigs, total) = db.delta(8, 100);
            assert_eq!((sigs.len(), total), (2, 10));
            // max == 0 means "everything".
            let (sigs, _) = db.delta(0, 0);
            assert_eq!(sigs.len(), 10);
            // from beyond the end is empty, not a panic.
            assert_eq!(db.delta(99, 5).0, Vec::<String>::new());
            // from + max overflowing usize saturates instead of wrapping.
            let (sigs, total) = db.delta(1, usize::MAX);
            assert_eq!((sigs.len(), total), (9, 10));
        }
    }

    #[test]
    fn shard_stats_sum_to_totals() {
        for db in both() {
            for i in 0..50 {
                db.add(&format!("signature-number-{i}"));
            }
            let stats = db.shard_stats();
            assert_eq!(stats.len(), db.shard_count());
            assert_eq!(stats.iter().map(|s| s.sigs).sum::<usize>(), db.len());
            assert_eq!(
                stats.iter().map(|s| s.bytes).sum::<usize>(),
                db.stored_bytes()
            );
            // And both agree with the scan walk (satellite: per-shard
            // stats must stay consistent with the contiguous-index view).
            assert_eq!(db.scan_from(0), (db.len(), db.stored_bytes()));
        }
    }

    #[test]
    fn sharded_spreads_entries() {
        let db = SignatureDb::with_shards(8);
        for i in 0..200 {
            db.add(&format!("sig-{i}"));
        }
        let used = db.shard_stats().iter().filter(|s| s.sigs > 0).count();
        assert!(used > 1, "200 hashed texts must land in more than 1 shard");
    }

    #[test]
    fn log_grows_past_one_segment() {
        let db = SignatureDb::with_shards(4);
        let n = SEG_LEN + 17;
        for i in 0..n {
            db.add(&format!("s{i}"));
        }
        assert_eq!(db.len(), n);
        assert_eq!(db.get_from(SEG_LEN - 1).len(), 18);
        assert_eq!(db.delta(SEG_LEN - 2, 4).0.len(), 4);
    }

    #[test]
    fn concurrent_adds_unique_indices() {
        for db in both() {
            let db = std::sync::Arc::new(db);
            let mut handles = Vec::new();
            for t in 0..8 {
                let db = db.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..100 {
                        db.add(&format!("sig-{t}-{i}"));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(db.len(), 800);
            // Every stored signature is distinct.
            let all = db.get_from(0);
            let mut dedup = all.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), all.len());
        }
    }

    #[test]
    fn concurrent_same_text_added_once() {
        for db in both() {
            let db = std::sync::Arc::new(db);
            let mut handles = Vec::new();
            for _ in 0..8 {
                let db = db.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..100 {
                        db.add("same");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(db.len(), 1);
        }
    }

    #[test]
    fn concurrent_readers_see_contiguous_prefixes() {
        let db = std::sync::Arc::new(SignatureDb::with_shards(DEFAULT_SHARDS));
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..2000 {
                    db.add(&format!("sig-{i}"));
                }
            })
        };
        // Readers poll while the writer races: every observed prefix must
        // be fully materialized (no holes below the committed watermark).
        for _ in 0..50 {
            let n = db.len();
            let got = db.get_from(0);
            assert!(got.len() >= n, "len()={n} but get_from(0)={}", got.len());
            let (count, _) = db.scan_from(0);
            assert!(count >= n);
        }
        writer.join().unwrap();
        assert_eq!(db.len(), 2000);
    }
}
