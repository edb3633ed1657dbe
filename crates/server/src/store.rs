//! Durable signature store: a write-ahead log + snapshots + bounded GC
//! wrapped around the sharded in-memory signature database, behind one
//! unified [`Store`] API.
//!
//! The immunity network is only useful if accumulated signatures survive
//! a server restart (ROADMAP "Durable store"). The recoverable-ADT
//! observation that motivates the design: dedup'd ADDs *commute* — the
//! in-memory [`Store::add`] collapses duplicates — so recovery can
//! replay the snapshot and the WAL tail in any interleaving without a
//! merge step, and a snapshot taken while adds are racing never needs to
//! quiesce writers.
//!
//! # On-disk layout (`DurabilityConfig::dir`)
//!
//! * `wal-{epoch:010}-{seq:010}.log` — WAL segments. Each starts with
//!   the 8-byte magic `CXWAL001` followed by records framed as
//!   `[len: u32 LE][crc32(payload): u32 LE][payload]`, one per accepted
//!   signature, where `payload` is the signature text (UTF-8). Records
//!   are buffered by the OS and fsync'd on a group-commit interval
//!   ([`DurabilityConfig::fsync_interval`]; zero means fsync on every
//!   append). A torn final record — the crash case group commit
//!   tolerates by design — is detected by the length/CRC framing and
//!   dropped on replay.
//! * `snapshot.bin` — the latest snapshot: magic `CXSNAP01`, the epoch
//!   (u64 LE), the signature count (u64 LE), then every signature in log
//!   order using the same CRC framing. Written to `snapshot.tmp`,
//!   fsync'd, then atomically renamed, so a crash mid-snapshot leaves
//!   the previous snapshot intact.
//!
//! # Snapshot / compaction protocol
//!
//! A snapshot cut (triggered once [`DurabilityConfig::snapshot_wal_bytes`]
//! of WAL accumulate) first *rotates* the WAL to a fresh segment, then
//! serializes the store — the committed log prefix plus the dedup-shard
//! tail (`SignatureDb::tail_entries`) — and finally deletes every
//! segment below the cut. Ordering makes the race-free argument local:
//! an add appends to the WAL only *after* its dedup insert, so any
//! record living in a pre-cut segment is visible to the serialization
//! pass; anything added after the cut lands in the surviving segment.
//!
//! # Bounded GC and the epoch rule
//!
//! With [`DurabilityConfig::max_bytes`] set, the store is
//! capacity-bounded: when stored bytes exceed the cap, GC rebuilds the
//! database keeping the *newest* signatures that fit in 3/4 of the cap
//! (oldest evicted first), bumps the **epoch**, persists a snapshot of
//! the survivors, and drops every old-epoch WAL segment. Indices restart
//! from zero in the new epoch, so `GET_DELTA`'s `total` shrinks below a
//! synced client's cursor — that is the wire-visible epoch signal
//! (`total < from`), and `sync_delta` reacts by re-syncing from zero
//! with a dedup merge. No wire tags change.
//!
//! # Recovery
//!
//! [`Store::open`] loads `snapshot.bin` (if any), deletes WAL segments
//! whose filename epoch differs from the snapshot's, replays the
//! remaining segments in sequence order through the dedup'd add path
//! (idempotent, so snapshot/WAL overlap is harmless), stops at the first
//! torn or corrupt record, and opens a fresh segment for new writes. The
//! [`RecoveryReport`] is kept for inspection and mirrored into the
//! `store.*` telemetry counters.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use communix_telemetry::{Counter, Histogram, Registry};
use parking_lot::{Mutex, RwLock};

use crate::db::{ShardStats, SignatureDb};

const WAL_MAGIC: &[u8; 8] = b"CXWAL001";
const SNAP_MAGIC: &[u8; 8] = b"CXSNAP01";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Durability tunables for [`Store::open`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and snapshot (created if
    /// missing). One store per directory.
    pub dir: PathBuf,
    /// Group-commit interval: a background flusher fsyncs the WAL this
    /// often (only when dirty). `Duration::ZERO` fsyncs on every append
    /// instead — full durability, no group-commit window.
    pub fsync_interval: Duration,
    /// WAL segment size: the log rolls to a new segment past this many
    /// bytes (compaction deletes whole segments, never rewrites one).
    pub wal_segment_bytes: u64,
    /// Snapshot + compaction trigger: bytes of WAL accumulated since the
    /// last snapshot.
    pub snapshot_wal_bytes: u64,
    /// Capacity bound on stored signature bytes. Exceeding it triggers
    /// the epoch-bumping GC; `None` leaves the store unbounded.
    pub max_bytes: Option<u64>,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default knobs: 2 ms group
    /// commit, 4 MiB segments, snapshot every 16 MiB of WAL, no byte
    /// cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync_interval: Duration::from_millis(2),
            wal_segment_bytes: 4 << 20,
            snapshot_wal_bytes: 16 << 20,
            max_bytes: None,
        }
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch recovered into (from the snapshot header; 0 when fresh).
    pub epoch: u64,
    /// Signatures loaded from the snapshot.
    pub snapshot_sigs: u64,
    /// Records replayed from WAL segments (before dedup).
    pub wal_records: u64,
    /// Whether replay stopped at a torn/corrupt trailing record.
    pub torn_tail: bool,
    /// Stale-epoch WAL segments deleted instead of replayed.
    pub stale_segments: u64,
}

/// Pre-resolved telemetry handles (same pattern as the server's: resolve
/// once, record lock-free).
#[derive(Debug, Clone)]
struct StoreMetrics {
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    wal_errors: Arc<Counter>,
    wal_replayed: Arc<Counter>,
    wal_torn: Arc<Counter>,
    snapshots: Arc<Counter>,
    snapshot_sigs: Arc<Counter>,
    compacted_segments: Arc<Counter>,
    gc_runs: Arc<Counter>,
    gc_evicted_sigs: Arc<Counter>,
    gc_evicted_bytes: Arc<Counter>,
    fsync_latency: Arc<Histogram>,
}

impl StoreMetrics {
    fn resolve(registry: &Registry) -> Self {
        StoreMetrics {
            wal_appends: registry.counter("store.wal.appends"),
            wal_bytes: registry.counter("store.wal.bytes"),
            wal_fsyncs: registry.counter("store.wal.fsyncs"),
            wal_errors: registry.counter("store.wal.errors"),
            wal_replayed: registry.counter("store.wal.replayed"),
            wal_torn: registry.counter("store.wal.torn_records"),
            snapshots: registry.counter("store.snapshot.taken"),
            snapshot_sigs: registry.counter("store.snapshot.sigs"),
            compacted_segments: registry.counter("store.compaction.segments_deleted"),
            gc_runs: registry.counter("store.gc.runs"),
            gc_evicted_sigs: registry.counter("store.gc.evicted_sigs"),
            gc_evicted_bytes: registry.counter("store.gc.evicted_bytes"),
            fsync_latency: registry.histogram("store.wal.fsync"),
        }
    }
}

struct Flusher {
    stop: mpsc::Sender<()>,
    join: JoinHandle<()>,
}

impl std::fmt::Debug for Flusher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flusher").finish_non_exhaustive()
    }
}

/// The unified signature store: dedup'd append-only adds and
/// index-addressed reads over a sharded in-memory database, with
/// optional durability.
///
/// In-memory ([`Store::in_memory`]) it is a thin veneer over that
/// database. Durable ([`Store::open`]) it journals every accepted
/// add to a write-ahead log, periodically snapshots + compacts, and —
/// with a byte cap — garbage-collects oldest-first under a new epoch.
/// All methods are thread-safe; reads never block on WAL I/O.
#[derive(Debug)]
pub struct Store {
    /// Swapped wholesale by the epoch-bumping GC; adds hold the read
    /// lock across `db.add` + WAL append so a GC cannot strand an add
    /// between the old database and the new WAL epoch.
    inner: RwLock<Arc<SignatureDb>>,
    /// Shard count for rebuilds.
    shards: usize,
    epoch: AtomicU64,
    wal: Option<Arc<Mutex<Wal>>>,
    durability: Option<DurabilityConfig>,
    /// Serializes snapshot and GC passes (try-locked from the add path,
    /// so at most one request thread pays for maintenance).
    maintenance: Mutex<()>,
    /// WAL bytes accumulated since the last snapshot cut.
    wal_since_snapshot: AtomicU64,
    sync_every_append: bool,
    metrics: StoreMetrics,
    recovery: RecoveryReport,
    flusher: Option<Flusher>,
}

impl Store {
    /// An in-memory store with `shards` dedup shards (0 is clamped to
    /// 1), recording into a private registry.
    pub fn in_memory(shards: usize) -> Self {
        Store::in_memory_with(shards, &Registry::new())
    }

    /// [`Store::in_memory`] recording into an existing `registry`.
    pub fn in_memory_with(shards: usize, registry: &Registry) -> Self {
        Store {
            inner: RwLock::new(Arc::new(SignatureDb::with_shards(shards))),
            shards,
            epoch: AtomicU64::new(0),
            wal: None,
            durability: None,
            maintenance: Mutex::new(()),
            wal_since_snapshot: AtomicU64::new(0),
            sync_every_append: false,
            metrics: StoreMetrics::resolve(registry),
            recovery: RecoveryReport::default(),
            flusher: None,
        }
    }

    /// Opens (or creates) a durable store under `config.dir` with
    /// `shards` dedup shards (0 is clamped to 1), recovering
    /// snapshot-then-WAL-tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory, reading a
    /// corrupt snapshot header, or opening the fresh WAL segment. A
    /// torn trailing WAL record is *not* an error — replay stops there
    /// and reports it in [`Store::recovery`].
    pub fn open(shards: usize, config: DurabilityConfig, registry: &Registry) -> io::Result<Self> {
        let metrics = StoreMetrics::resolve(registry);
        let (db, recovery, next_seq, replayed_bytes) = recover(&config.dir, shards)?;
        metrics.wal_replayed.add(recovery.wal_records);
        if recovery.torn_tail {
            metrics.wal_torn.inc();
        }
        let wal = Arc::new(Mutex::new(Wal::open(
            config.dir.clone(),
            recovery.epoch,
            next_seq,
            config.wal_segment_bytes,
        )?));
        let sync_every_append = config.fsync_interval.is_zero();
        let flusher = (!sync_every_append)
            .then(|| spawn_flusher(wal.clone(), config.fsync_interval, metrics.clone()));
        Ok(Store {
            inner: RwLock::new(Arc::new(db)),
            shards,
            epoch: AtomicU64::new(recovery.epoch),
            wal: Some(wal),
            durability: Some(config),
            maintenance: Mutex::new(()),
            // Count the replayed tail toward the next snapshot cut, so a
            // crash-restart loop cannot grow the WAL without bound.
            wal_since_snapshot: AtomicU64::new(replayed_bytes),
            sync_every_append,
            metrics,
            recovery,
            flusher,
        })
    }

    /// The current database epoch (bumped by each GC pass).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether this store journals to disk.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// What [`Store::open`] found on disk (all-zero for in-memory
    /// stores).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The current in-memory database. The `Arc` pins one epoch's
    /// database: reads through it are coherent even across a concurrent
    /// GC swap (they just see the pre-GC epoch).
    pub(crate) fn db(&self) -> Arc<SignatureDb> {
        self.inner.read().clone()
    }

    /// Appends `sig_text` unless already stored; journals genuinely new
    /// signatures to the WAL. Returns `(index, newly_added)`; a
    /// duplicate returns the stored copy's index.
    pub fn add(&self, sig_text: &str) -> (usize, bool) {
        let (i, added, rec_bytes) = {
            let db = self.inner.read();
            let (i, added) = db.add(sig_text);
            let mut rec_bytes = 0u64;
            if added {
                if let Some(wal) = &self.wal {
                    let mut wal = wal.lock();
                    match wal.append(sig_text) {
                        Ok(n) => {
                            rec_bytes = n;
                            self.metrics.wal_appends.inc();
                            self.metrics.wal_bytes.add(n);
                            if self.sync_every_append {
                                let start = Instant::now();
                                match wal.sync() {
                                    Ok(true) => {
                                        self.metrics.wal_fsyncs.inc();
                                        self.metrics.fsync_latency.record_duration(start.elapsed());
                                    }
                                    Ok(false) => {}
                                    Err(e) => self.wal_error("fsync", &e),
                                }
                            }
                        }
                        // A WAL write failure degrades durability, not
                        // availability: the add stays served from memory,
                        // the failure is counted and logged.
                        Err(e) => self.wal_error("append", &e),
                    }
                }
            }
            (i, added, rec_bytes)
        };
        if rec_bytes > 0 {
            let since = self
                .wal_since_snapshot
                .fetch_add(rec_bytes, Ordering::AcqRel)
                + rec_bytes;
            self.maybe_maintain(since);
        }
        (i, added)
    }

    /// Index of `sig_text` if stored (dedup fast path).
    pub fn contains(&self, sig_text: &str) -> Option<usize> {
        self.db().contains(sig_text)
    }

    /// All signatures from index `from`.
    pub fn get_from(&self, from: usize) -> Vec<String> {
        self.db().get_from(from)
    }

    /// At most `max` signatures from `from`, plus the current total —
    /// the windowing behind `GET_DELTA`. After a GC the total shrinks
    /// below old cursors: that is the client's epoch-switch signal.
    pub fn delta(&self, from: usize, max: usize) -> (Vec<String>, usize) {
        self.db().delta(from, max)
    }

    /// `(count, bytes)` a GET from `from` would ship, without cloning.
    pub fn scan_from(&self, from: usize) -> (usize, usize) {
        self.db().scan_from(from)
    }

    /// Number of stored signatures (current epoch).
    pub fn len(&self) -> usize {
        self.db().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.db().is_empty()
    }

    /// Total bytes of stored signature text.
    pub fn stored_bytes(&self) -> usize {
        self.db().stored_bytes()
    }

    /// Per-shard occupancy counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.db().shard_stats()
    }

    /// Number of dedup shards.
    pub fn shard_count(&self) -> usize {
        self.db().shard_count()
    }

    /// Flushes and fsyncs the WAL now (no-op in-memory). Called on drop;
    /// tests call it before simulating a crash that must be durable.
    ///
    /// # Errors
    ///
    /// Propagates the flush/fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        if let Some(wal) = &self.wal {
            let start = Instant::now();
            if wal.lock().sync()? {
                self.metrics.wal_fsyncs.inc();
                self.metrics.fsync_latency.record_duration(start.elapsed());
            }
        }
        Ok(())
    }

    /// Takes a snapshot + compaction pass now (no-op in-memory).
    ///
    /// # Errors
    ///
    /// Propagates snapshot-write failures; the previous snapshot and the
    /// WAL stay intact on error.
    pub fn snapshot(&self) -> io::Result<()> {
        let _guard = self.maintenance.lock();
        self.snapshot_locked()
    }

    fn wal_error(&self, what: &str, e: &io::Error) {
        self.metrics.wal_errors.inc();
        eprintln!("communix store: wal {what} failed: {e}");
    }

    /// Opportunistic maintenance from the add path: at most one thread
    /// enters, everyone else keeps serving.
    fn maybe_maintain(&self, wal_since: u64) {
        let Some(config) = &self.durability else {
            return;
        };
        let over_cap = config
            .max_bytes
            .is_some_and(|cap| self.inner.read().stored_bytes() as u64 > cap);
        if !over_cap && wal_since < config.snapshot_wal_bytes {
            return;
        }
        let Some(_guard) = self.maintenance.try_lock() else {
            return;
        };
        let result = if over_cap {
            self.gc_locked(config)
        } else if self.wal_since_snapshot.load(Ordering::Acquire) >= config.snapshot_wal_bytes {
            self.snapshot_locked()
        } else {
            Ok(())
        };
        if let Err(e) = result {
            self.wal_error("maintenance", &e);
        }
    }

    /// Snapshot + compaction. Caller holds `maintenance`.
    fn snapshot_locked(&self) -> io::Result<()> {
        let (Some(config), Some(wal)) = (&self.durability, &self.wal) else {
            return Ok(());
        };
        let epoch = self.epoch();
        // Rotate first: records framed after this instant live in the
        // surviving segment, records framed before it had already done
        // their dedup insert and are therefore captured below.
        let deletable = wal.lock().rotate(epoch)?;
        let db = self.inner.read().clone();
        let committed = db.len();
        let mut sigs = db.get_from(0);
        sigs.extend(db.tail_entries(committed));
        write_snapshot(&config.dir, epoch, &sigs)?;
        self.metrics.snapshots.inc();
        self.metrics.snapshot_sigs.add(sigs.len() as u64);
        for path in &deletable {
            let _ = fs::remove_file(path);
        }
        self.metrics.compacted_segments.add(deletable.len() as u64);
        self.wal_since_snapshot.store(0, Ordering::Release);
        Ok(())
    }

    /// Epoch-bumping GC: rebuild keeping the newest signatures that fit
    /// in 3/4 of the cap, persist the survivors, drop old-epoch WAL.
    /// Holds the database write lock throughout — a stop-the-world pass,
    /// by design rare (it runs once per cap overshoot, not per add).
    fn gc_locked(&self, config: &DurabilityConfig) -> io::Result<()> {
        let Some(cap) = config.max_bytes else {
            return Ok(());
        };
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut guard = self.inner.write();
        let old = guard.clone();
        let mut all = old.get_from(0);
        all.extend(old.tail_entries(all.len()));
        let total_bytes: u64 = all.iter().map(|s| s.len() as u64).sum();
        if total_bytes <= cap {
            return Ok(()); // racer already collected
        }
        let target = cap.saturating_mul(3) / 4;
        let mut acc = total_bytes;
        let mut first_kept = 0;
        while acc > target && first_kept < all.len() {
            acc -= all[first_kept].len() as u64;
            first_kept += 1;
        }
        let kept = &all[first_kept..];
        let fresh = SignatureDb::with_shards(self.shards);
        for sig in kept {
            fresh.add(sig);
        }
        let new_epoch = self.epoch() + 1;
        // Persist-then-swap: if the snapshot write fails the store keeps
        // serving the old epoch and the old WAL remains authoritative.
        write_snapshot(&config.dir, new_epoch, kept)?;
        let deletable = wal.lock().rotate(new_epoch)?;
        for path in &deletable {
            let _ = fs::remove_file(path);
        }
        *guard = Arc::new(fresh);
        self.epoch.store(new_epoch, Ordering::Release);
        self.wal_since_snapshot.store(0, Ordering::Release);
        self.metrics.gc_runs.inc();
        self.metrics.gc_evicted_sigs.add(first_kept as u64);
        self.metrics
            .gc_evicted_bytes
            .add(total_bytes.saturating_sub(acc));
        self.metrics.snapshots.inc();
        self.metrics.snapshot_sigs.add(kept.len() as u64);
        self.metrics.compacted_segments.add(deletable.len() as u64);
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(flusher) = self.flusher.take() {
            drop(flusher.stop);
            let _ = flusher.join.join();
        }
        if let Some(wal) = &self.wal {
            let _ = wal.lock().sync();
        }
    }
}

fn spawn_flusher(wal: Arc<Mutex<Wal>>, interval: Duration, metrics: StoreMetrics) -> Flusher {
    let (stop, wake) = mpsc::channel::<()>();
    let join = std::thread::Builder::new()
        .name("communix-wal-flush".into())
        .spawn(move || loop {
            let done = !matches!(
                wake.recv_timeout(interval),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            let start = Instant::now();
            match wal.lock().sync() {
                Ok(true) => {
                    metrics.wal_fsyncs.inc();
                    metrics.fsync_latency.record_duration(start.elapsed());
                }
                Ok(false) => {}
                Err(_) => metrics.wal_errors.inc(),
            }
            if done {
                return;
            }
        })
        .expect("spawn wal flusher");
    Flusher { stop, join }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, written from scratch — no external deps)
// ---------------------------------------------------------------------

fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = !0u32;
    for &byte in data {
        crc = table[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------

/// The open write-ahead log: one current segment file, rolled past the
/// size limit, rotated (with the older segments handed back for
/// deletion) at snapshot cuts.
struct Wal {
    dir: PathBuf,
    epoch: u64,
    seq: u64,
    file: File,
    seg_bytes: u64,
    segment_limit: u64,
    dirty: bool,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("epoch", &self.epoch)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, epoch: u64, seq: u64) -> PathBuf {
    dir.join(format!("wal-{epoch:010}-{seq:010}.log"))
}

/// Parses `wal-{epoch}-{seq}.log` back into `(epoch, seq)`.
fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (epoch, seq) = rest.split_once('-')?;
    Some((epoch.parse().ok()?, seq.parse().ok()?))
}

/// Every WAL segment under `dir`, sorted by `(epoch, seq)`.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((epoch, seq)) = name.to_str().and_then(parse_segment_name) {
            segments.push((epoch, seq, entry.path()));
        }
    }
    segments.sort_by_key(|&(epoch, seq, _)| (epoch, seq));
    Ok(segments)
}

fn create_segment(dir: &Path, epoch: u64, seq: u64) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(dir, epoch, seq))?;
    file.write_all(WAL_MAGIC)?;
    Ok(file)
}

impl Wal {
    fn open(dir: PathBuf, epoch: u64, seq: u64, segment_limit: u64) -> io::Result<Self> {
        let file = create_segment(&dir, epoch, seq)?;
        Ok(Wal {
            dir,
            epoch,
            seq,
            file,
            seg_bytes: WAL_MAGIC.len() as u64,
            segment_limit,
            dirty: true, // the magic itself
            scratch: Vec::with_capacity(256),
        })
    }

    /// Frames and writes one record; returns its on-disk size. Rolls to
    /// a new segment first when the current one is full.
    fn append(&mut self, text: &str) -> io::Result<u64> {
        if self.seg_bytes >= self.segment_limit {
            self.roll()?;
        }
        let payload = text.as_bytes();
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.scratch
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.scratch.extend_from_slice(payload);
        self.file.write_all(&self.scratch)?;
        self.seg_bytes += self.scratch.len() as u64;
        self.dirty = true;
        Ok(self.scratch.len() as u64)
    }

    /// Fsyncs if dirty; returns whether a sync happened.
    fn sync(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        self.file.sync_data()?;
        self.dirty = false;
        Ok(true)
    }

    /// Size-triggered roll within the same epoch (old segment kept
    /// until the next snapshot compacts it).
    fn roll(&mut self) -> io::Result<()> {
        self.sync()?;
        self.seq += 1;
        self.file = create_segment(&self.dir, self.epoch, self.seq)?;
        self.seg_bytes = WAL_MAGIC.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Snapshot-cut rotation: fsync, switch to a fresh segment under
    /// `epoch`, and return every older segment for the caller to delete
    /// once the snapshot is durable.
    fn rotate(&mut self, epoch: u64) -> io::Result<Vec<PathBuf>> {
        self.sync()?;
        let old: Vec<PathBuf> = list_segments(&self.dir)?
            .into_iter()
            .map(|(_, _, path)| path)
            .collect();
        self.epoch = epoch;
        self.seq += 1;
        self.file = create_segment(&self.dir, self.epoch, self.seq)?;
        self.seg_bytes = WAL_MAGIC.len() as u64;
        self.dirty = true;
        Ok(old)
    }
}

// ---------------------------------------------------------------------
// Snapshot read/write + recovery
// ---------------------------------------------------------------------

/// Serializes `sigs` to `snapshot.tmp`, fsyncs, atomically renames over
/// `snapshot.bin`, and fsyncs the directory (on Unix) so the rename
/// itself is durable.
fn write_snapshot(dir: &Path, epoch: u64, sigs: &[String]) -> io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut buf = Vec::with_capacity(24 + sigs.iter().map(|s| s.len() + 8).sum::<usize>());
    buf.extend_from_slice(SNAP_MAGIC);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(sigs.len() as u64).to_le_bytes());
    for sig in sigs {
        let payload = sig.as_bytes();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
    }
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Walks `[len][crc][payload]` records in `data`, feeding each valid
/// payload to `sink`; returns `(records, torn)` where `torn` means the
/// walk stopped early on a truncated or corrupt record.
fn replay_records(data: &[u8], mut sink: impl FnMut(&str)) -> (u64, bool) {
    let mut offset = 0usize;
    let mut records = 0u64;
    while offset < data.len() {
        let Some(header) = data.get(offset..offset + 8) else {
            return (records, true);
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let Some(payload) = data.get(offset + 8..offset + 8 + len) else {
            return (records, true);
        };
        if crc32(payload) != crc {
            return (records, true);
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return (records, true);
        };
        sink(text);
        records += 1;
        offset += 8 + len;
    }
    (records, false)
}

/// Loads snapshot + WAL tail from `dir` into a fresh database. Returns
/// the database, the report, the next free WAL sequence number, and the
/// replayed-tail byte count.
fn recover(dir: &Path, shards: usize) -> io::Result<(SignatureDb, RecoveryReport, u64, u64)> {
    fs::create_dir_all(dir)?;
    // An orphaned tmp is a crash mid-snapshot: the rename never
    // happened, the previous snapshot is still authoritative.
    let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));

    let db = SignatureDb::with_shards(shards);
    let mut report = RecoveryReport::default();

    let snap_path = dir.join(SNAPSHOT_FILE);
    if let Ok(data) = fs::read(&snap_path) {
        if data.len() < 24 || &data[..8] != SNAP_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: bad snapshot header", snap_path.display()),
            ));
        }
        report.epoch = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        let (records, torn) = replay_records(&data[24..], |text| {
            db.add(text);
        });
        report.snapshot_sigs = records;
        // The snapshot is written atomically, so a torn record here is
        // media corruption, not a crash artifact — salvage the readable
        // prefix and surface it the same way.
        report.torn_tail |= torn;
    }

    let mut next_seq = 0u64;
    let mut replayed_bytes = 0u64;
    for (epoch, seq, path) in list_segments(dir)? {
        if epoch != report.epoch {
            // A pre-GC epoch (or a segment orphaned by a crash between
            // GC's snapshot rename and its segment sweep): superseded.
            let _ = fs::remove_file(&path);
            report.stale_segments += 1;
            continue;
        }
        next_seq = next_seq.max(seq + 1);
        let data = fs::read(&path)?;
        if data.len() < WAL_MAGIC.len() || &data[..WAL_MAGIC.len()] != WAL_MAGIC {
            report.torn_tail = true;
            continue;
        }
        let (records, torn) = replay_records(&data[WAL_MAGIC.len()..], |text| {
            db.add(text);
        });
        report.wal_records += records;
        report.torn_tail |= torn;
        replayed_bytes += data.len() as u64;
    }
    Ok((db, report, next_seq, replayed_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SHARDS;
    use std::sync::atomic::AtomicUsize;

    static DIRS: AtomicUsize = AtomicUsize::new(0);

    /// A fresh scratch directory (unique per process × test callsite).
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "communix-store-{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Durability config tuned for tests: tiny segments, no background
    /// flusher (fsync per append keeps everything deterministic).
    fn test_config(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            fsync_interval: Duration::ZERO,
            wal_segment_bytes: 256,
            snapshot_wal_bytes: u64::MAX, // only explicit snapshots
            max_bytes: None,
            ..DurabilityConfig::new(dir)
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector plus the empty string.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn in_memory_store_matches_db_semantics() {
        let store = Store::in_memory(4);
        assert_eq!(store.add("a"), (0, true));
        assert_eq!(store.add("a"), (0, false));
        assert_eq!(store.add("b"), (1, true));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get_from(1), vec!["b"]);
        assert_eq!(store.delta(0, 1), (vec!["a".to_string()], 2));
        assert_eq!(store.epoch(), 0);
        assert!(!store.is_durable());
        assert!(store.sync().is_ok());
        assert!(store.snapshot().is_ok());
    }

    #[test]
    fn wal_roundtrip_recovers_all_sigs_in_order() {
        let dir = scratch("roundtrip");
        let registry = Registry::new();
        {
            let store = Store::open(4, test_config(&dir), &registry).unwrap();
            for i in 0..50 {
                store.add(&format!("sig-{i:04}"));
            }
            assert_eq!(store.recovery(), RecoveryReport::default());
        }
        let store = Store::open(4, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.len(), 50);
        let expect: Vec<String> = (0..50).map(|i| format!("sig-{i:04}")).collect();
        assert_eq!(store.get_from(0), expect, "WAL replay preserves order");
        let report = store.recovery();
        assert_eq!(report.wal_records, 50);
        assert!(!report.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn zero_shard_preload_matches_one_shard_and_reopens_in_order() {
        // One writer, a snapshot at nine tenths, the rest in the WAL
        // tail: how a benchmark preloads the store a server boots from.
        let sigs: Vec<String> = (0..200).map(|i| format!("preload-sig-{i:04}")).collect();
        let write = |shards: usize, dir: &Path| {
            let store = Store::open(shards, DurabilityConfig::new(dir), &Registry::new()).unwrap();
            assert_eq!(store.shard_count(), 1);
            for (i, sig) in sigs.iter().enumerate() {
                if i == 180 {
                    store.snapshot().unwrap();
                }
                store.add(sig);
            }
            store.sync().unwrap();
        };
        let (zero, one) = (scratch("preload-0"), scratch("preload-1"));
        write(0, &zero);
        write(1, &one);
        assert_eq!(
            dir_bytes(&zero),
            dir_bytes(&one),
            "same snapshot and WAL bytes"
        );
        let store = Store::open(
            DEFAULT_SHARDS,
            DurabilityConfig::new(&zero),
            &Registry::new(),
        )
        .unwrap();
        assert_eq!(store.shard_count(), DEFAULT_SHARDS);
        assert_eq!(store.recovery().snapshot_sigs, 180);
        assert_eq!(store.recovery().wal_records, 20);
        assert_eq!(store.get_from(0), sigs);
        drop(store);
        let _ = fs::remove_dir_all(&zero);
        let _ = fs::remove_dir_all(&one);
    }

    #[test]
    fn torn_final_record_is_dropped_not_fatal() {
        let dir = scratch("torn");
        {
            let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
            for i in 0..10 {
                store.add(&format!("torn-sig-{i}"));
            }
        }
        // Truncate the tail of the newest segment: a crash mid-write.
        let (_, _, last) = list_segments(&dir).unwrap().pop().expect("a segment");
        let data = fs::read(&last).unwrap();
        fs::write(&last, &data[..data.len() - 5]).unwrap();

        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        let report = store.recovery();
        assert!(report.torn_tail, "truncation must be detected");
        assert_eq!(store.len(), 9, "all records before the torn one survive");
        assert!(store.contains("torn-sig-8").is_some());
        assert!(store.contains("torn-sig-9").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_record_stops_replay_at_the_corruption() {
        let dir = scratch("corrupt");
        {
            let config = DurabilityConfig {
                wal_segment_bytes: 1 << 20, // keep everything in one segment
                ..test_config(&dir)
            };
            let store = Store::open(2, config, &Registry::new()).unwrap();
            for i in 0..10 {
                store.add(&format!("corrupt-sig-{i}"));
            }
        }
        // Flip a payload byte in the middle of the segment: CRC framing
        // must refuse the record and everything after it.
        let (_, _, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&seg, &data).unwrap();

        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        assert!(store.recovery().torn_tail);
        assert!(store.len() < 10, "replay stopped at the corruption");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_wal_and_recovers_alone() {
        let dir = scratch("snapshot");
        {
            let store = Store::open(4, test_config(&dir), &Registry::new()).unwrap();
            for i in 0..40 {
                store.add(&format!("snap-sig-{i:03}"));
            }
            assert!(
                list_segments(&dir).unwrap().len() > 1,
                "tiny segments must have rolled"
            );
            store.snapshot().unwrap();
            assert_eq!(
                list_segments(&dir).unwrap().len(),
                1,
                "compaction leaves only the fresh segment"
            );
            assert!(dir.join(SNAPSHOT_FILE).exists());
            // Adds after the cut land in the surviving segment.
            store.add("post-snapshot");
        }
        let store = Store::open(4, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.len(), 41);
        assert_eq!(store.recovery().snapshot_sigs, 40);
        assert_eq!(store.recovery().wal_records, 1);
        let expect: Vec<String> = (0..40)
            .map(|i| format!("snap-sig-{i:03}"))
            .chain(["post-snapshot".to_string()])
            .collect();
        assert_eq!(store.get_from(0), expect, "snapshot preserves log order");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_overlap_with_wal_is_idempotent() {
        // A snapshot plus a WAL tail that re-covers some of the same
        // signatures (the crash-between-rotate-and-delete window) must
        // dedup on replay, not double-store.
        let dir = scratch("overlap");
        {
            let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
            for i in 0..8 {
                store.add(&format!("ov-{i}"));
            }
            store.snapshot().unwrap();
        }
        // Hand-write a WAL segment duplicating snapshot contents.
        {
            let mut wal = Wal::open(dir.clone(), 0, 9999, 1 << 20).unwrap();
            for i in 0..8 {
                wal.append(&format!("ov-{i}")).unwrap();
            }
            wal.append("ov-fresh").unwrap();
            wal.sync().unwrap();
        }
        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.len(), 9, "duplicates collapse on replay");
        assert!(store.contains("ov-fresh").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_gc_evicts_oldest_and_bumps_epoch() {
        let dir = scratch("gc");
        let config = DurabilityConfig {
            max_bytes: Some(400),
            ..test_config(&dir)
        };
        let registry = Registry::new();
        let store = Store::open(4, config, &registry).unwrap();
        // 10-byte signatures; the cap admits ~40 before GC.
        for i in 0..60 {
            store.add(&format!("gc-sig-{i:03}"));
        }
        assert!(store.epoch() > 0, "cap overshoot must bump the epoch");
        assert!(
            store.stored_bytes() <= 400,
            "store stays under the cap after GC"
        );
        assert!(
            store.contains("gc-sig-000").is_none(),
            "oldest signatures evicted first"
        );
        assert!(
            store.contains("gc-sig-059").is_some(),
            "newest signatures survive"
        );
        // The GC'd state is what a restart recovers.
        let survivors = store.get_from(0);
        let epoch = store.epoch();
        drop(store);
        let config = DurabilityConfig {
            max_bytes: Some(400),
            ..test_config(&dir)
        };
        let reopened = Store::open(4, config, &Registry::new()).unwrap();
        assert_eq!(reopened.epoch(), epoch);
        assert_eq!(reopened.get_from(0), survivors);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_segments_are_dropped_on_recovery() {
        let dir = scratch("stale");
        {
            let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
            store.add("current-epoch-sig");
            store.snapshot().unwrap();
        }
        // Fabricate a leftover pre-GC segment from a different epoch
        // (the crash-between-snapshot-and-sweep window).
        {
            let mut wal = Wal::open(dir.clone(), 7, 0, 1 << 20).unwrap();
            wal.append("ghost-from-another-epoch").unwrap();
            wal.sync().unwrap();
        }
        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.recovery().stale_segments, 1);
        assert!(store.contains("ghost-from-another-epoch").is_none());
        assert!(store.contains("current-epoch-sig").is_some());
        assert!(
            list_segments(&dir)
                .unwrap()
                .iter()
                .all(|&(epoch, _, _)| epoch == 0),
            "stale segment deleted from disk"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_snapshot_tmp_is_ignored() {
        let dir = scratch("tmp");
        {
            let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
            store.add("kept");
            store.snapshot().unwrap();
        }
        fs::write(dir.join(SNAPSHOT_TMP), b"half-written garbage").unwrap();
        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        assert!(store.contains("kept").is_some());
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "orphan cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_flusher_syncs_in_background() {
        let dir = scratch("flush");
        let registry = Registry::new();
        let config = DurabilityConfig {
            fsync_interval: Duration::from_millis(1),
            ..test_config(&dir)
        };
        let store = Store::open(2, config, &registry).unwrap();
        for i in 0..20 {
            store.add(&format!("bg-{i}"));
        }
        let fsyncs = registry.counter("store.wal.fsyncs");
        let deadline = Instant::now() + Duration::from_secs(5);
        while fsyncs.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fsyncs.get() > 0, "background flusher must have fsync'd");
        let snap = registry.snapshot();
        assert!(
            snap.merged_histogram("store.wal.fsync").count() > 0,
            "fsync latency lands in the histogram"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_counters_cover_the_wal() {
        let dir = scratch("telemetry");
        let registry = Registry::new();
        {
            let store = Store::open(2, test_config(&dir), &registry).unwrap();
            for i in 0..5 {
                store.add(&format!("tele-{i}"));
            }
            store.add("tele-0"); // duplicate: not journaled
            assert_eq!(registry.counter("store.wal.appends").get(), 5);
            assert!(registry.counter("store.wal.bytes").get() > 0);
            store.snapshot().unwrap();
            assert_eq!(registry.counter("store.snapshot.taken").get(), 1);
            assert_eq!(registry.counter("store.snapshot.sigs").get(), 5);
        }
        let registry2 = Registry::new();
        let _store = Store::open(2, test_config(&dir), &registry2).unwrap();
        assert_eq!(registry2.counter("store.wal.replayed").get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_adds_survive_restart() {
        let dir = scratch("concurrent");
        {
            let store = Arc::new(Store::open(8, test_config(&dir), &Registry::new()).unwrap());
            let mut handles = Vec::new();
            for t in 0..4 {
                let store = store.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..50 {
                        store.add(&format!("conc-{t}-{i}"));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(store.len(), 200);
        }
        let store = Store::open(8, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.len(), 200, "every concurrently-acked add recovered");
        for t in 0..4 {
            for i in 0..50 {
                assert!(store.contains(&format!("conc-{t}-{i}")).is_some());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(
            parse_segment_name("wal-0000000003-0000000041.log"),
            Some((3, 41))
        );
        assert_eq!(parse_segment_name("wal-3-41.log"), Some((3, 41)));
        assert_eq!(parse_segment_name("snapshot.bin"), None);
        assert_eq!(parse_segment_name("wal-x-1.log"), None);
        let p = segment_path(Path::new("/d"), 3, 41);
        let (e, s) = parse_segment_name(p.file_name().unwrap().to_str().unwrap()).unwrap();
        assert_eq!((e, s), (3, 41));
    }
}
