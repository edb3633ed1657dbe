//! The Communix server: request handling and server-side validation.
//!
//! "The Communix server collects in a database all the deadlock
//! signatures discovered by Java applications running with Dimmunix on
//! arbitrary machines" (§III-B). Before adding an incoming signature it
//! performs the server-side validation of §III-C2:
//!
//! 1. the signature must carry a valid encrypted sender id;
//! 2. the same sender must not have previously sent an *adjacent*
//!    signature (some but not all top frames in common);
//! 3. at most 10 signatures per day are processed per sender (§III-C1).
//!
//! # Throughput structure
//!
//! The request path is built so the common cases never serialize on a
//! single lock:
//!
//! * the database is sharded (see [`Store`]); exact duplicates are
//!   detected with shard *read* locks before the signature is even
//!   parsed, so re-sent signatures never take a write lock or touch
//!   per-user validation state;
//! * per-user rate-limit/adjacency state is sharded by user id the same
//!   way the database is sharded by signature text;
//! * counters live in a lock-free telemetry [`Registry`]
//!   ([`ServerStats`] is a view over it), and every request's latency
//!   is recorded into a per-opcode histogram — one relaxed atomic add
//!   per bucket, never a lock.
//!
//! Batched requests (`ADD_BATCH`, `GET_DELTA`) run the same per-item
//! validation as their single-signature counterparts; `GET_DELTA`
//! windows its reply to [`ServerConfig::delta_window`] signatures.
//!
//! # Observability
//!
//! The server answers [`Request::Stats`] with a JSON rendering of its
//! telemetry snapshot: outcome counters, per-reject-reason counters,
//! dedup fast-path hits, per-opcode latency histograms, and shard
//! occupancy gauges (refreshed at snapshot time, not on the hot path).
//! When served over TCP the transport registers its own connection
//! gauges and counters in the same registry, so one `STATS` round trip
//! observes the whole stack.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use communix_clock::{Clock, Instant, DAY};
use communix_dimmunix::Signature;
use communix_net::{AddResult, EncryptedId, Reply, Request};
use communix_telemetry::{Counter, Histogram, Registry, Snapshot};
use parking_lot::Mutex;

use crate::auth::IdAuthority;
use crate::store::{DurabilityConfig, Store};

/// Why an ADD was rejected (mirrored into the wire reply's reason text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The encrypted id failed verification.
    BadId,
    /// The signature text did not parse.
    Malformed,
    /// The sender already sent an adjacent signature.
    Adjacent,
    /// The sender exhausted its daily budget.
    RateLimited,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::BadId => "invalid encrypted sender id",
            RejectReason::Malformed => "malformed signature",
            RejectReason::Adjacent => "adjacent signature from same sender",
            RejectReason::RateLimited => "daily signature budget exhausted",
        }
    }
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum signatures processed per sender per day (paper: 10).
    pub daily_limit: usize,
    /// Signature-store shards (also shards the per-user validation
    /// state). `0` is clamped to 1.
    pub db_shards: usize,
    /// Maximum signatures per `GET_DELTA` reply, regardless of what the
    /// client asks for (server-side windowing).
    pub delta_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            daily_limit: 10,
            db_shards: crate::db::DEFAULT_SHARDS,
            delta_window: 4096,
        }
    }
}

/// Aggregate server counters — a point-in-time view over the server's
/// telemetry [`Registry`] (the registry owns the live cells; this
/// struct is what [`CommunixServer::stats`] copies out of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// ADDs accepted (newly stored) — batched items count individually.
    pub adds_accepted: u64,
    /// ADDs that were exact duplicates (acked, not re-stored).
    pub adds_duplicate: u64,
    /// ADDs rejected by validation.
    pub adds_rejected: u64,
    /// GET requests served.
    pub gets: u64,
    /// Signature texts shipped in GET / GET_DELTA replies.
    pub sigs_served: u64,
    /// Ids issued.
    pub ids_issued: u64,
    /// ADD_BATCH requests served (items are counted in the `adds_*`).
    pub batches: u64,
    /// GET_DELTA requests served.
    pub deltas: u64,
}

/// Pre-resolved telemetry handles. Registering a metric takes the
/// registry's lock, so the server resolves every series it records on
/// the request path once at construction; recording through the
/// [`Arc`] handles afterwards is lock-free.
#[derive(Debug)]
struct ServerMetrics {
    adds_accepted: Arc<Counter>,
    adds_duplicate: Arc<Counter>,
    adds_rejected: Arc<Counter>,
    gets: Arc<Counter>,
    sigs_served: Arc<Counter>,
    ids_issued: Arc<Counter>,
    batches: Arc<Counter>,
    deltas: Arc<Counter>,
    stats_requests: Arc<Counter>,
    /// ADDs acked off the dedup probe alone (shard read locks, no
    /// parse, no per-user state).
    dedup_fast_path: Arc<Counter>,
    reject_bad_id: Arc<Counter>,
    reject_malformed: Arc<Counter>,
    reject_adjacent: Arc<Counter>,
    reject_rate_limited: Arc<Counter>,
    latency_add: Arc<Histogram>,
    latency_get: Arc<Histogram>,
    latency_issue_id: Arc<Histogram>,
    latency_add_batch: Arc<Histogram>,
    latency_get_delta: Arc<Histogram>,
    latency_stats: Arc<Histogram>,
}

impl ServerMetrics {
    fn resolve(registry: &Registry) -> Self {
        ServerMetrics {
            adds_accepted: registry.counter("server.adds.accepted"),
            adds_duplicate: registry.counter("server.adds.duplicate"),
            adds_rejected: registry.counter("server.adds.rejected"),
            gets: registry.counter("server.gets"),
            sigs_served: registry.counter("server.sigs_served"),
            ids_issued: registry.counter("server.ids_issued"),
            batches: registry.counter("server.batches"),
            deltas: registry.counter("server.deltas"),
            stats_requests: registry.counter("server.stats_requests"),
            dedup_fast_path: registry.counter("server.dedup.fast_path_hits"),
            reject_bad_id: registry.counter("server.reject.bad_id"),
            reject_malformed: registry.counter("server.reject.malformed"),
            reject_adjacent: registry.counter("server.reject.adjacent"),
            reject_rate_limited: registry.counter("server.reject.rate_limited"),
            latency_add: registry.histogram("server.latency.add"),
            latency_get: registry.histogram("server.latency.get"),
            latency_issue_id: registry.histogram("server.latency.issue_id"),
            latency_add_batch: registry.histogram("server.latency.add_batch"),
            latency_get_delta: registry.histogram("server.latency.get_delta"),
            latency_stats: registry.histogram("server.latency.stats"),
        }
    }

    /// The latency histogram for a [`Request::opcode`] name.
    fn latency(&self, opcode: &str) -> &Histogram {
        match opcode {
            "add" => &self.latency_add,
            "get" => &self.latency_get,
            "issue_id" => &self.latency_issue_id,
            "add_batch" => &self.latency_add_batch,
            "get_delta" => &self.latency_get_delta,
            _ => &self.latency_stats,
        }
    }

    fn reject(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::BadId => &self.reject_bad_id,
            RejectReason::Malformed => &self.reject_malformed,
            RejectReason::Adjacent => &self.reject_adjacent,
            RejectReason::RateLimited => &self.reject_rate_limited,
        }
    }
}

/// Outcome of validating + storing one ADD (single or batched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddDecision {
    Accepted,
    Duplicate,
    Rejected(RejectReason),
}

#[derive(Debug, Default)]
struct UserState {
    /// Signatures previously accepted from this sender (for adjacency).
    accepted: Vec<Signature>,
    /// Times of processed ADDs within the trailing day (rate limiting).
    processed: VecDeque<Instant>,
}

/// The Communix server. Thread-safe: [`CommunixServer::handle`] may be
/// called concurrently from any number of threads (Figure 2 does exactly
/// that).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use communix_clock::SystemClock;
/// use communix_net::{Reply, Request};
/// use communix_server::{CommunixServer, IdAuthority, ServerConfig};
///
/// let server = CommunixServer::new(ServerConfig::default(), Arc::new(SystemClock::new()));
/// let id = server.authority().issue(1);
/// match server.handle(Request::Get { from: 0 }) {
///     Reply::Sigs { sigs, .. } => assert!(sigs.is_empty()),
///     other => panic!("unexpected {other:?}"),
/// }
/// # let _ = id;
/// ```
#[derive(Debug)]
pub struct CommunixServer {
    config: ServerConfig,
    store: Store,
    authority: IdAuthority,
    /// Per-user validation state, sharded by user id (index `user %
    /// users.len()`) so concurrent senders rarely share a mutex.
    users: Box<[Mutex<HashMap<u64, UserState>>]>,
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
}

impl CommunixServer {
    /// Creates a server with the default id authority key and a fresh
    /// telemetry registry.
    pub fn new(config: ServerConfig, clock: Arc<dyn Clock>) -> Self {
        Self::with_registry(config, clock, Arc::new(Registry::new()))
    }

    /// Creates a server that records into an existing `registry` — how
    /// the TCP transports share one registry with the request path, so
    /// a single `STATS` reply covers both layers.
    pub fn with_registry(
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<Registry>,
    ) -> Self {
        let store = Store::in_memory_with(config.db_shards, &registry);
        Self::with_store(config, clock, registry, store)
    }

    /// Creates a server whose signature store journals to disk: the
    /// store is recovered (snapshot, then WAL tail) from
    /// `durability.dir` before the server accepts its first request.
    /// See [`Store::open`] for the on-disk layout and
    /// [`CommunixServer::store`]`().recovery()` for what was found.
    ///
    /// # Errors
    ///
    /// Propagates store-recovery I/O failures.
    pub fn open_durable(
        config: ServerConfig,
        durability: DurabilityConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<Registry>,
    ) -> std::io::Result<Self> {
        let store = Store::open(config.db_shards, durability, &registry)?;
        Ok(Self::with_store(config, clock, registry, store))
    }

    fn with_store(
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<Registry>,
        store: Store,
    ) -> Self {
        let user_shards = config.db_shards.max(1);
        let metrics = ServerMetrics::resolve(&registry);
        CommunixServer {
            config,
            store,
            authority: IdAuthority::default(),
            users: (0..user_shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            clock,
            registry,
            metrics,
        }
    }

    /// The id authority (examples use it to mint client ids, standing in
    /// for the paper's assumed issuance service).
    pub fn authority(&self) -> &IdAuthority {
        &self.authority
    }

    /// The signature store: reads (`len`, `get_from`, `delta`,
    /// `contains`, per-shard stats) and durability state (epoch,
    /// recovery report, explicit `sync`/`snapshot`).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Counter snapshot (a view over the telemetry registry).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            adds_accepted: self.metrics.adds_accepted.get(),
            adds_duplicate: self.metrics.adds_duplicate.get(),
            adds_rejected: self.metrics.adds_rejected.get(),
            gets: self.metrics.gets.get(),
            sigs_served: self.metrics.sigs_served.get(),
            ids_issued: self.metrics.ids_issued.get(),
            batches: self.metrics.batches.get(),
            deltas: self.metrics.deltas.get(),
        }
    }

    /// The telemetry registry this server records into. Share it with
    /// the transport (see [`CommunixServer::with_registry`]) to fold
    /// connection metrics into the same `STATS` snapshot.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time telemetry snapshot. Shard occupancy gauges
    /// (`server.shard.<i>.sigs`, `server.db.sigs`, `server.db.bytes`)
    /// are refreshed from the database here, at snapshot time, rather
    /// than maintained on the hot path.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let db = self.store.db();
        for (i, s) in db.shard_stats().iter().enumerate() {
            self.registry
                .gauge(&format!("server.shard.{i}.sigs"))
                .set(s.sigs as u64);
        }
        self.registry.gauge("server.db.sigs").set(db.len() as u64);
        self.registry
            .gauge("server.db.bytes")
            .set(db.stored_bytes() as u64);
        self.registry
            .gauge("server.db.epoch")
            .set(self.store.epoch());
        self.registry.snapshot()
    }

    /// Processes one request — the "request processing routine" Figure 2
    /// invokes from up to 100,000 simultaneous threads. Every request's
    /// wall-clock latency lands in the `server.latency.<opcode>`
    /// histogram.
    pub fn handle(&self, request: Request) -> Reply {
        let opcode = request.opcode();
        let start = std::time::Instant::now();
        let reply = self.dispatch(request);
        self.metrics
            .latency(opcode)
            .record_duration(start.elapsed());
        reply
    }

    fn dispatch(&self, request: Request) -> Reply {
        match request {
            Request::Add { sender, sig_text } => {
                let decision = self.process_add(&sender, &sig_text);
                self.count(decision);
                let (accepted, reason) = Self::verdict(decision);
                Reply::AddAck { accepted, reason }
            }
            Request::AddBatch { adds } => {
                self.metrics.batches.inc();
                let results = adds
                    .iter()
                    .map(|add| {
                        let decision = self.process_add(&add.sender, &add.sig_text);
                        self.count(decision);
                        let (accepted, reason) = Self::verdict(decision);
                        AddResult { accepted, reason }
                    })
                    .collect();
                Reply::BatchAck { results }
            }
            Request::Get { from } => self.handle_get(from),
            Request::GetDelta { from, max } => self.handle_get_delta(from, max),
            Request::IssueId { user } => {
                self.metrics.ids_issued.inc();
                Reply::Id {
                    id: self.authority.issue(user),
                }
            }
            Request::Stats => {
                self.metrics.stats_requests.inc();
                Reply::Stats {
                    json: self.telemetry_snapshot().render_json(),
                }
            }
        }
    }

    /// The shared ADD path: validation (§III-C) plus storage. Batched
    /// and single ADDs go through here item by item.
    ///
    /// The dedup probe runs *first*, before the signature is parsed and
    /// before any per-user state is locked: an exact duplicate of a
    /// stored signature was already validated when it was accepted, so
    /// re-sends are acked off shard read locks alone — they take no
    /// write lock and consume no daily budget.
    fn process_add(&self, sender: &EncryptedId, sig_text: &str) -> AddDecision {
        // Check 1: the encrypted id must verify (§III-C2).
        let Some(user) = self.authority.verify(sender) else {
            return AddDecision::Rejected(RejectReason::BadId);
        };

        // Dedup fast path (read locks only).
        if self.store.contains(sig_text).is_some() {
            self.metrics.dedup_fast_path.inc();
            return AddDecision::Duplicate;
        }

        // The signature must parse (a malformed signature cannot be
        // validated, stored, or served).
        let Ok(sig) = sig_text.parse::<Signature>() else {
            return AddDecision::Rejected(RejectReason::Malformed);
        };

        let now = self.clock.now();
        let mut users = self.user_shard(user).lock();
        let state = users.entry(user).or_default();

        // Check 3 (§III-C1): at most `daily_limit` signatures processed
        // per user per trailing day.
        while let Some(front) = state.processed.front() {
            if now.saturating_duration_since(*front) > DAY {
                state.processed.pop_front();
            } else {
                break;
            }
        }
        if state.processed.len() >= self.config.daily_limit {
            return AddDecision::Rejected(RejectReason::RateLimited);
        }
        state.processed.push_back(now);

        // Check 2 (§III-C2): no adjacent signature from the same sender.
        if state.accepted.iter().any(|s| s.adjacent_to(&sig)) {
            return AddDecision::Rejected(RejectReason::Adjacent);
        }

        let (_, added) = self.store.add(sig_text);
        if added {
            state.accepted.push(sig);
            AddDecision::Accepted
        } else {
            // Lost a race with an identical add that slipped in after
            // the fast-path probe.
            AddDecision::Duplicate
        }
    }

    fn user_shard(&self, user: u64) -> &Mutex<HashMap<u64, UserState>> {
        &self.users[(user as usize) % self.users.len()]
    }

    fn count(&self, decision: AddDecision) {
        match decision {
            AddDecision::Accepted => self.metrics.adds_accepted.inc(),
            AddDecision::Duplicate => self.metrics.adds_duplicate.inc(),
            AddDecision::Rejected(reason) => {
                self.metrics.adds_rejected.inc();
                self.metrics.reject(reason).inc();
            }
        }
    }

    fn verdict(decision: AddDecision) -> (bool, String) {
        match decision {
            AddDecision::Accepted => (true, String::new()),
            AddDecision::Duplicate => (true, "duplicate".into()),
            AddDecision::Rejected(reason) => (false, reason.as_str().into()),
        }
    }

    fn handle_get(&self, from: u64) -> Reply {
        let sigs = self.store.get_from(from as usize);
        self.metrics.gets.inc();
        self.metrics.sigs_served.add(sigs.len() as u64);
        Reply::Sigs { from, sigs }
    }

    fn handle_get_delta(&self, from: u64, max: u32) -> Reply {
        let window = if max == 0 {
            self.config.delta_window
        } else {
            (max as usize).min(self.config.delta_window)
        };
        let (sigs, total) = self.store.delta(from as usize, window);
        self.metrics.deltas.inc();
        self.metrics.sigs_served.add(sigs.len() as u64);
        Reply::Delta {
            from,
            total: total as u64,
            sigs,
        }
    }

    /// Processes a GET as a pure database walk, without materializing a
    /// reply buffer: returns the `(count, bytes)` a real reply would
    /// ship. This isolates the server-side computation Figure 2 measures
    /// ("iterating through the entire database"); the end-to-end path
    /// with materialized replies is what Figure 3 measures. The walk
    /// runs over the global append log, so its totals match what the
    /// per-shard [`Store::shard_stats`] counters sum to.
    pub fn handle_get_scan(&self, from: u64) -> (usize, usize) {
        let r = self.store.scan_from(from as usize);
        self.metrics.gets.inc();
        self.metrics.sigs_served.add(r.0 as u64);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_clock::VirtualClock;
    use communix_dimmunix::{CallStack, Frame, SigEntry};

    fn server() -> (CommunixServer, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        (
            CommunixServer::new(ServerConfig::default(), clock.clone()),
            clock,
        )
    }

    fn cs(frames: &[(&str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    /// A depth-6, two-entry signature parameterized by `tag` (distinct
    /// tags ⇒ fully disjoint top frames).
    fn sig(tag: u32) -> Signature {
        let deep = |base: u32| -> Vec<(String, u32)> {
            (0..6).map(|i| ("f".to_string(), base + i)).collect()
        };
        let mk = |base: u32| -> CallStack {
            deep(base)
                .iter()
                .map(|(m, l)| Frame::new("app.C", m.as_str(), *l))
                .collect()
        };
        Signature::local(vec![
            SigEntry::new(mk(tag * 1000), cs(&[("in1", tag * 1000 + 500)])),
            SigEntry::new(mk(tag * 1000 + 100), cs(&[("in2", tag * 1000 + 600)])),
        ])
    }

    fn add(server: &CommunixServer, user: u64, s: &Signature) -> Reply {
        let id = server.authority().issue(user);
        server.handle(Request::Add {
            sender: id,
            sig_text: s.to_string(),
        })
    }

    #[test]
    fn valid_add_then_get() {
        let (srv, _) = server();
        let r = add(&srv, 1, &sig(1));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: true,
                reason: String::new()
            }
        );
        match srv.handle(Request::Get { from: 0 }) {
            Reply::Sigs { from, sigs } => {
                assert_eq!(from, 0);
                assert_eq!(sigs.len(), 1);
                assert_eq!(sigs[0].parse::<Signature>().unwrap(), sig(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forged_id_rejected() {
        let (srv, _) = server();
        let r = srv.handle(Request::Add {
            sender: [0xAB; 16],
            sig_text: sig(1).to_string(),
        });
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "invalid encrypted sender id".into()
            }
        );
        assert!(srv.store().is_empty());
    }

    #[test]
    fn malformed_signature_rejected() {
        let (srv, _) = server();
        let id = srv.authority().issue(1);
        let r = srv.handle(Request::Add {
            sender: id,
            sig_text: "not a signature".into(),
        });
        assert!(matches!(
            r,
            Reply::AddAck {
                accepted: false,
                ..
            }
        ));
    }

    #[test]
    fn adjacent_from_same_user_rejected() {
        let (srv, _) = server();
        assert!(matches!(
            add(&srv, 1, &sig(1)),
            Reply::AddAck { accepted: true, .. }
        ));
        // Adjacent: shares entry 0's top frames with sig(1), differs in
        // entry 1.
        let adjacent = Signature::local(vec![
            sig(1).entries()[0].clone(),
            SigEntry::new(cs(&[("other", 77)]), cs(&[("otherIn", 78)])),
        ]);
        let r = add(&srv, 1, &adjacent);
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "adjacent signature from same sender".into()
            }
        );
    }

    #[test]
    fn adjacent_from_other_user_accepted() {
        // "the signatures wrongly rejected due to this restriction can be
        // provided by other users."
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let adjacent = Signature::local(vec![
            sig(1).entries()[0].clone(),
            SigEntry::new(cs(&[("other", 77)]), cs(&[("otherIn", 78)])),
        ]);
        let r = add(&srv, 2, &adjacent);
        assert!(matches!(r, Reply::AddAck { accepted: true, .. }));
        assert_eq!(srv.store().len(), 2);
    }

    #[test]
    fn same_bug_resent_is_not_adjacent() {
        // Identical top frames (a deeper manifestation of the same bug)
        // must pass the adjacency check.
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let mut deeper_entries = Vec::new();
        for e in sig(1).entries() {
            let mut outer = e.outer.clone();
            outer
                .frames_mut()
                .insert(0, Frame::new("app.D", "extra", 9999));
            deeper_entries.push(SigEntry::new(outer, e.inner.clone()));
        }
        let deeper = Signature::local(deeper_entries);
        let r = add(&srv, 1, &deeper);
        assert!(matches!(r, Reply::AddAck { accepted: true, .. }));
    }

    #[test]
    fn rate_limit_enforced_per_day() {
        let (srv, clock) = server();
        for i in 0..10 {
            let r = add(&srv, 1, &sig(10 + i));
            assert!(matches!(r, Reply::AddAck { accepted: true, .. }), "i={i}");
        }
        // The 11th within the same day is ignored.
        let r = add(&srv, 1, &sig(99));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "daily signature budget exhausted".into()
            }
        );
        // Another user is unaffected.
        assert!(matches!(
            add(&srv, 2, &sig(98)),
            Reply::AddAck { accepted: true, .. }
        ));
        // After a day passes, the budget refreshes.
        clock.advance(DAY + communix_clock::Duration::from_secs(1));
        assert!(matches!(
            add(&srv, 1, &sig(97)),
            Reply::AddAck { accepted: true, .. }
        ));
    }

    #[test]
    fn rejected_attempts_still_consume_budget() {
        // "The server processes only up to 10 signatures per day" —
        // processing includes validation, so adjacency rejects count.
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let adjacent = Signature::local(vec![
            sig(1).entries()[0].clone(),
            SigEntry::new(cs(&[("other", 77)]), cs(&[("otherIn", 78)])),
        ]);
        for _ in 0..9 {
            add(&srv, 1, &adjacent);
        }
        // Ten ADDs processed; the next is rate-limited even though it is
        // a perfectly valid, fresh signature.
        let r = add(&srv, 1, &sig(50));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "daily signature budget exhausted".into()
            }
        );
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let r = add(&srv, 2, &sig(1));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: true,
                reason: "duplicate".into()
            }
        );
        assert_eq!(srv.store().len(), 1);
    }

    #[test]
    fn incremental_get() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        add(&srv, 1, &sig(2));
        add(&srv, 1, &sig(3));
        match srv.handle(Request::Get { from: 1 }) {
            Reply::Sigs { from, sigs } => {
                assert_eq!(from, 1);
                assert_eq!(sigs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn issue_id_request() {
        let (srv, _) = server();
        match srv.handle(Request::IssueId { user: 5 }) {
            Reply::Id { id } => assert_eq!(srv.authority().verify(&id), Some(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_track_outcomes() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        add(&srv, 2, &sig(1)); // duplicate
        srv.handle(Request::Add {
            sender: [0u8; 16],
            sig_text: sig(2).to_string(),
        }); // bad id
        srv.handle(Request::Get { from: 0 });
        let s = srv.stats();
        assert_eq!(s.adds_accepted, 1);
        assert_eq!(s.adds_duplicate, 1);
        assert_eq!(s.adds_rejected, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.sigs_served, 1);
    }

    #[test]
    fn stats_request_returns_parseable_snapshot() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1)); // accepted
        add(&srv, 2, &sig(1)); // duplicate, via the dedup fast path
        srv.handle(Request::Add {
            sender: [0u8; 16],
            sig_text: sig(2).to_string(),
        }); // rejected: bad id
        let Reply::Stats { json } = srv.handle(Request::Stats) else {
            panic!("expected Stats reply");
        };
        let nums = communix_telemetry::json::flatten_numbers(&json).expect("valid json");
        let find = |path: &str| {
            nums.iter()
                .find(|(p, _)| p == path)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {path} in {json}"))
        };
        assert_eq!(find("counters.server.adds.accepted"), 1.0);
        assert_eq!(find("counters.server.adds.duplicate"), 1.0);
        assert_eq!(find("counters.server.dedup.fast_path_hits"), 1.0);
        assert_eq!(find("counters.server.reject.bad_id"), 1.0);
        assert_eq!(find("counters.server.reject.malformed"), 0.0);
        assert_eq!(find("counters.server.stats_requests"), 1.0);
        // Occupancy gauges are refreshed at snapshot time.
        assert_eq!(find("gauges.server.db.sigs.current"), 1.0);
        // All three ADDs were timed.
        assert_eq!(find("histograms.server.latency.add.count"), 3.0);
    }

    #[test]
    fn latency_histograms_cover_every_opcode() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        srv.handle(Request::Get { from: 0 });
        srv.handle(Request::IssueId { user: 1 });
        srv.handle(Request::AddBatch { adds: vec![] });
        srv.handle(Request::GetDelta { from: 0, max: 0 });
        srv.handle(Request::Stats);
        let snap = srv.telemetry_snapshot();
        for op in ["add", "get", "issue_id", "add_batch", "get_delta", "stats"] {
            let h = snap
                .histogram(&format!("server.latency.{op}"))
                .unwrap_or_else(|| panic!("no histogram for {op}"));
            assert_eq!(h.count(), 1, "opcode {op}");
        }
        // The rollup helper sees all six.
        assert_eq!(snap.merged_histogram("server.latency.").count(), 6);
    }

    #[test]
    fn duplicate_resend_skips_budget_and_write_locks() {
        // The dedup fast path acks re-sent signatures without consuming
        // daily budget: a client replaying its history cannot starve
        // itself out of reporting a genuinely new deadlock.
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        for _ in 0..50 {
            let r = add(&srv, 1, &sig(1));
            assert_eq!(
                r,
                Reply::AddAck {
                    accepted: true,
                    reason: "duplicate".into()
                }
            );
        }
        // Budget only charged for the one processed signature.
        for i in 0..9 {
            assert!(matches!(
                add(&srv, 1, &sig(20 + i)),
                Reply::AddAck { accepted: true, .. }
            ));
        }
        assert_eq!(srv.stats().adds_duplicate, 50);
    }

    #[test]
    fn batch_add_mixed_results() {
        let (srv, _) = server();
        let good_id = srv.authority().issue(1);
        let other_id = srv.authority().issue(2);
        let adds = vec![
            communix_net::BatchAdd {
                sender: good_id,
                sig_text: sig(1).to_string(),
            },
            communix_net::BatchAdd {
                sender: [0xAB; 16], // forged
                sig_text: sig(2).to_string(),
            },
            communix_net::BatchAdd {
                sender: other_id,
                sig_text: "not a signature".into(),
            },
            communix_net::BatchAdd {
                sender: other_id,
                sig_text: sig(1).to_string(), // duplicate of item 0
            },
            communix_net::BatchAdd {
                sender: other_id,
                sig_text: sig(3).to_string(),
            },
        ];
        let Reply::BatchAck { results } = srv.handle(Request::AddBatch { adds }) else {
            panic!("expected BatchAck");
        };
        assert_eq!(results.len(), 5);
        assert!(results[0].accepted && results[0].reason.is_empty());
        assert!(!results[1].accepted);
        assert_eq!(results[1].reason, "invalid encrypted sender id");
        assert!(!results[2].accepted);
        assert!(results[3].accepted);
        assert_eq!(results[3].reason, "duplicate");
        assert!(results[4].accepted);
        // Only the two fresh valid signatures were stored.
        assert_eq!(srv.store().len(), 2);
        let s = srv.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.adds_accepted, 2);
        assert_eq!(s.adds_duplicate, 1);
        assert_eq!(s.adds_rejected, 2);
    }

    #[test]
    fn empty_batch_is_acked_empty() {
        let (srv, _) = server();
        let Reply::BatchAck { results } = srv.handle(Request::AddBatch { adds: vec![] }) else {
            panic!("expected BatchAck");
        };
        assert!(results.is_empty());
        assert_eq!(srv.stats().batches, 1);
        assert_eq!(srv.stats().adds_accepted, 0);
    }

    #[test]
    fn get_delta_windows_and_reports_total() {
        let (srv, _) = server();
        for i in 0..7 {
            add(&srv, 1, &sig(10 + i));
        }
        let Reply::Delta { from, total, sigs } = srv.handle(Request::GetDelta { from: 2, max: 3 })
        else {
            panic!("expected Delta");
        };
        assert_eq!((from, total), (2, 7));
        assert_eq!(sigs.len(), 3);
        assert_eq!(sigs, srv.store().get_from(2)[..3].to_vec());
        // max == 0 defers to the server's window.
        let Reply::Delta { sigs, .. } = srv.handle(Request::GetDelta { from: 0, max: 0 }) else {
            panic!("expected Delta");
        };
        assert_eq!(sigs.len(), 7);
        // Past the end: empty window, same total.
        let Reply::Delta { total, sigs, .. } = srv.handle(Request::GetDelta { from: 99, max: 0 })
        else {
            panic!("expected Delta");
        };
        assert_eq!((total, sigs.len()), (7, 0));
        let s = srv.stats();
        assert_eq!(s.deltas, 3);
        assert_eq!(s.gets, 0, "GET_DELTA is not a GET");
        assert_eq!(s.sigs_served, 10);
    }

    #[test]
    fn delta_window_capped_by_server_config() {
        let clock = Arc::new(VirtualClock::new());
        let srv = CommunixServer::new(
            ServerConfig {
                delta_window: 2,
                ..ServerConfig::default()
            },
            clock,
        );
        for i in 0..5 {
            add(&srv, 1, &sig(30 + i));
        }
        let Reply::Delta { total, sigs, .. } = srv.handle(Request::GetDelta { from: 0, max: 1000 })
        else {
            panic!("expected Delta");
        };
        assert_eq!(total, 5);
        assert_eq!(sigs.len(), 2, "server window caps the client's ask");
    }

    #[test]
    fn zero_db_shards_serves_with_one_shard() {
        let clock = Arc::new(VirtualClock::new());
        let srv = CommunixServer::new(
            ServerConfig {
                db_shards: 0,
                ..ServerConfig::default()
            },
            clock,
        );
        assert_eq!(srv.store().shard_count(), 1);
        assert!(matches!(
            add(&srv, 1, &sig(1)),
            Reply::AddAck { accepted: true, .. }
        ));
        match srv.handle(Request::GetDelta { from: 0, max: 0 }) {
            Reply::Delta { total, sigs, .. } => {
                assert_eq!((total, sigs.len()), (1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_mixed_load() {
        let (srv, _) = server();
        let srv = Arc::new(srv);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let srv = srv.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10u32 {
                    let s = sig(100 + (t as u32) * 10 + i);
                    let id = srv.authority().issue(t);
                    srv.handle(Request::Add {
                        sender: id,
                        sig_text: s.to_string(),
                    });
                    srv.handle(Request::Get { from: 0 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 users × 10 sigs, all within daily budget.
        assert_eq!(srv.store().len(), 80);
    }
}
