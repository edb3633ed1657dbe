//! `server_throughput` — the perf-trajectory benchmark for the sharded
//! server, the batched sync protocol, and the event-driven transport.
//!
//! Three closed-loop scenarios:
//!
//! 1. **`concurrent_mixed_load`** — 8 OS threads hammer one in-process
//!    server with a mixed request stream (a fresh ADD, a full GET(0)
//!    database walk, and duplicate re-sends per iteration), once against
//!    a faithful reproduction of the seed server (single-lock store,
//!    mutex-guarded stats, full parse + validation on every ADD —
//!    duplicates included) and once against the sharded
//!    [`CommunixServer`]. The sharded server's walks run lock-free over
//!    the append log, writers never stall behind O(N) readers, and the
//!    dedup fast path acks re-sends off a shard read-probe without
//!    parsing — this is the speedup the JSON records.
//! 2. **`simnet_batched_sync`** — M simulated clients run R rounds of
//!    batched sync (one `ADD_BATCH` of B signatures + windowed
//!    `GET_DELTA`s until caught up) against the server behind a
//!    1 Gbit/s NIC on the deterministic [`SimNet`]. Because deltas are
//!    incremental, traffic stays linear in the new signatures instead
//!    of Figure 3's quadratic GET(0) collapse.
//! 3. **`connections_vs_throughput`** — the C10K sweep over real
//!    sockets. For each (transport, N) point the server runs in this
//!    process while driver *child processes* (re-invocations of this
//!    binary with `--drive`) each hold up to [`DRIVER_CHILD_CAP`] open
//!    connections; once the server's own stats confirm all N are held
//!    *simultaneously*, the parent broadcasts GO and every driver
//!    round-robins blocking `ISSUE_ID` calls for a fixed wall-clock
//!    window. Children exist because client and server descriptors
//!    would otherwise share one process's fd limit. The event transport
//!    is swept to 2048 connections (10240 in full mode); the
//!    thread-per-connection baseline stops at 512, where a thread per
//!    socket is already the cost being measured. The sweep carries a
//!    **reactors axis**: the contended points re-run with the event
//!    loop sharded across 2 and 4 reactor threads (`event_r{r}_{n}`
//!    series; the unsuffixed `event_{n}` points stay the single-reactor
//!    series the baseline diff tracks).
//! 4. **`pipeline_depth_vs_throughput`** (unix) — per-connection
//!    throughput as the client's in-flight window grows. A handful of
//!    connections drive closed-loop `ISSUE_ID` against the event
//!    transport: once with the blocking `TcpClient` (the pre-pipelining
//!    client, one request on the wire at a time) and once with
//!    `PipelinedClient` at windows 1, 4, 16, and 64. The blocking
//!    client's per-connection rate is capped at `1/RTT`; the windowed
//!    client overlaps requests on the same socket and the sweep records
//!    how throughput scales with depth. `p99 µs` is the blocking
//!    client's per-call stopwatch, or the pipelined client's per-frame
//!    `client.rtt` histogram.
//! 5. **`client_reactor`** (unix) — the same pipelined load (32
//!    connections × window 16) driven once by 32 OS threads (one
//!    connection each) and once by a single thread multiplexing all of
//!    them through `ReactorPool`. The JSON records both series plus the
//!    `efficiency` ratio — the fraction of the thread-per-connection
//!    aggregate one reactor thread retains.
//! 6. **durability series + `recovery`** — the C10K sweep gains a
//!    write-load pair at the contended connection counts: `event_add_{n}`
//!    drives closed-loop `ADD`s of fresh signatures against the
//!    in-memory store and `event_durable_{n}` drives the identical load
//!    against a WAL-journaled store (group commit, default knobs), so
//!    the artifact records the durability tax on the same machine in the
//!    same run (`bench_guard` warns past 2×). The `recovery` scenario
//!    then proves the journal earns its cost: a durable server runs in a
//!    *child process* (`--serve-durable`), the parent bursts batched
//!    ADDs at it through the client facade and SIGKILLs it mid-burst,
//!    restarts it on the same directory, and `sync_delta` must converge
//!    on every pre-crash-acked signature. The JSON records the acked
//!    burst, the recovered total, WAL records replayed, whether the tail
//!    record was torn by the kill, and the store's recovery time.
//!
//! Emits `BENCH_server_throughput.json` (override with `--out`) with
//! ops/sec and p99 latency per scenario, plus the poller backend and fd
//! limits behind the sweep — the artifact the CI bench job uploads and
//! diffs against the committed baseline with `bench_guard`.
//! `--summary-md <path>` additionally writes the pipeline sweep as a
//! markdown table (the CI bench-smoke job puts it in the job summary).
//!
//! Latency is reported from **two vantage points**: the driver's
//! closed-loop stopwatch (`p99_us`, includes the wire) and the server's
//! own telemetry histograms (`server_p50_us`/`server_p90_us`/
//! `server_p99_us`, the `server.latency.*` rollup — pure request-path
//! time as the server saw it). The seed baseline predates telemetry and
//! reports only the driver's view. In `--smoke` mode the final sweep
//! point's full telemetry snapshot is printed to stderr on completion.
//!
//! Run: `cargo run -p communix-bench --release --bin server_throughput
//! [--smoke] [--out path]`

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use communix_bench::{arg_flag, arg_value, banner, fmt_rate, percentile, row, JsonObj};
use communix_client::{
    obtain_id, sync_delta, upload_batch, Connect, LocalRepository, SyncError, TcpConnect,
};
use communix_clock::{Duration as SimDuration, SystemClock};
use communix_net::{
    BatchAdd, Handler, NicConfig, NodeId, Reply, Request, SimNet, TcpClient, TcpServer,
    TcpServerConfig,
};
use communix_server::{CommunixServer, IdAuthority, ServerConfig, DEFAULT_SHARDS};
use communix_workloads::SigGen;

const THREADS: usize = 8;
const SERVER: NodeId = NodeId(0);

/// Server-side request latency `(p50, p90, p99)` in µs, from the
/// `server.latency.*` histograms merged across opcodes.
fn server_latency_us(server: &CommunixServer) -> (f64, f64, f64) {
    let merged = server
        .telemetry_snapshot()
        .merged_histogram("server.latency.");
    (merged.p50() / 1e3, merged.p90() / 1e3, merged.p99() / 1e3)
}

/// The request surface the mixed-load driver needs from either server.
trait LoadTarget: Send + Sync {
    fn authority(&self) -> &IdAuthority;
    fn add(&self, request: Request) -> Reply;
    fn scan0(&self) -> (usize, usize);
    fn stored(&self) -> usize;
    /// Server-side `(p50, p90, p99)` request latency in µs, if the
    /// target has telemetry (the seed baseline predates it).
    fn latency_us(&self) -> Option<(f64, f64, f64)>;
}

impl LoadTarget for CommunixServer {
    fn authority(&self) -> &IdAuthority {
        CommunixServer::authority(self)
    }
    fn add(&self, request: Request) -> Reply {
        self.handle(request)
    }
    fn scan0(&self) -> (usize, usize) {
        self.handle_get_scan(0)
    }
    fn stored(&self) -> usize {
        self.store().len()
    }
    fn latency_us(&self) -> Option<(f64, f64, f64)> {
        Some(server_latency_us(self))
    }
}

/// A faithful reproduction of the seed's request path, kept as the
/// measured "before" of this perf trajectory: single-lock store, one
/// global users mutex, mutex-guarded counters, and — the expensive part
/// — full parse + validation + budget charge on *every* ADD, duplicates
/// included (the seed had no dedup fast path).
mod seed {
    use std::collections::{HashMap, VecDeque};
    use std::sync::{Mutex, RwLock};

    use communix_clock::{Clock, Instant, DAY};
    use communix_dimmunix::Signature;
    use communix_net::{Reply, Request};
    use communix_server::IdAuthority;

    /// The seed's signature store: one `RwLock` around the log and its
    /// dedup index, so the O(N) GET(0) walk and every ADD contend on
    /// the same lock.
    #[derive(Default)]
    pub struct SeedDb(RwLock<(Vec<String>, HashMap<String, usize>)>);

    impl SeedDb {
        /// Appends `sig_text` unless already stored; `true` if added.
        fn add(&self, sig_text: &str) -> bool {
            if self.0.read().expect("unpoisoned").1.contains_key(sig_text) {
                return false;
            }
            let mut guard = self.0.write().expect("unpoisoned");
            let (sigs, index) = &mut *guard;
            if index.contains_key(sig_text) {
                return false;
            }
            index.insert(sig_text.to_string(), sigs.len());
            sigs.push(sig_text.to_string());
            true
        }

        /// `(count, bytes)` of the signatures from index `from`.
        fn scan_from(&self, from: usize) -> (usize, usize) {
            let guard = self.0.read().expect("unpoisoned");
            let tail = guard.0.get(from..).unwrap_or_default();
            (tail.len(), tail.iter().map(String::len).sum())
        }

        pub fn len(&self) -> usize {
            self.0.read().expect("unpoisoned").0.len()
        }
    }

    #[derive(Default)]
    struct UserState {
        accepted: Vec<Signature>,
        processed: VecDeque<Instant>,
    }

    #[derive(Default)]
    struct Stats {
        adds_accepted: u64,
        adds_duplicate: u64,
        adds_rejected: u64,
        gets: u64,
        sigs_served: u64,
    }

    pub struct SeedServer {
        daily_limit: usize,
        db: SeedDb,
        authority: IdAuthority,
        users: Mutex<HashMap<u64, UserState>>,
        clock: std::sync::Arc<dyn Clock>,
        stats: Mutex<Stats>,
    }

    impl SeedServer {
        pub fn new(clock: std::sync::Arc<dyn Clock>) -> Self {
            SeedServer {
                daily_limit: 10,
                db: SeedDb::default(),
                authority: IdAuthority::default(),
                users: Mutex::new(HashMap::new()),
                clock,
                stats: Mutex::new(Stats::default()),
            }
        }

        pub fn authority(&self) -> &IdAuthority {
            &self.authority
        }

        pub fn db(&self) -> &SeedDb {
            &self.db
        }

        pub fn handle_add(&self, sender: &[u8; 16], sig_text: &str) -> Reply {
            let Some(user) = self.authority.verify(sender) else {
                return self.reject("invalid encrypted sender id");
            };
            let Ok(sig) = sig_text.parse::<Signature>() else {
                return self.reject("malformed signature");
            };
            let now = self.clock.now();
            let mut users = self.users.lock().expect("unpoisoned");
            let state = users.entry(user).or_default();
            while let Some(front) = state.processed.front() {
                if now.saturating_duration_since(*front) > DAY {
                    state.processed.pop_front();
                } else {
                    break;
                }
            }
            if state.processed.len() >= self.daily_limit {
                return self.reject("daily signature budget exhausted");
            }
            state.processed.push_back(now);
            if state.accepted.iter().any(|s| s.adjacent_to(&sig)) {
                return self.reject("adjacent signature from same sender");
            }
            let added = self.db.add(sig_text);
            let mut stats = self.stats.lock().expect("unpoisoned");
            if added {
                state.accepted.push(sig);
                stats.adds_accepted += 1;
                Reply::AddAck {
                    accepted: true,
                    reason: String::new(),
                }
            } else {
                stats.adds_duplicate += 1;
                Reply::AddAck {
                    accepted: true,
                    reason: "duplicate".into(),
                }
            }
        }

        pub fn handle(&self, request: Request) -> Reply {
            match request {
                Request::Add { sender, sig_text } => self.handle_add(&sender, &sig_text),
                other => panic!("seed baseline only serves ADD, got {other:?}"),
            }
        }

        pub fn handle_get_scan(&self, from: u64) -> (usize, usize) {
            let r = self.db.scan_from(from as usize);
            let mut stats = self.stats.lock().expect("unpoisoned");
            stats.gets += 1;
            stats.sigs_served += r.0 as u64;
            r
        }

        fn reject(&self, reason: &str) -> Reply {
            self.stats.lock().expect("unpoisoned").adds_rejected += 1;
            Reply::AddAck {
                accepted: false,
                reason: reason.into(),
            }
        }
    }
}

impl LoadTarget for seed::SeedServer {
    fn authority(&self) -> &IdAuthority {
        seed::SeedServer::authority(self)
    }
    fn add(&self, request: Request) -> Reply {
        self.handle(request)
    }
    fn scan0(&self) -> (usize, usize) {
        self.handle_get_scan(0)
    }
    fn stored(&self) -> usize {
        self.db().len()
    }
    fn latency_us(&self) -> Option<(f64, f64, f64)> {
        None
    }
}

/// Duplicate re-sends per iteration: the dedup fast path is cheap and
/// lock-frequent, which is exactly where the single-lock baseline pays
/// for writers parked behind O(N) scans.
const DUPS_PER_ITER: usize = 8;

struct MixedLoadResult {
    ops_per_sec: f64,
    p99_us: f64,
    /// The server's own view of the same run, when it has telemetry.
    server_lat_us: Option<(f64, f64, f64)>,
}

/// One `concurrent_mixed_load` run: `THREADS` threads, each performing
/// `iters` iterations of ADD(fresh) + GET(0) scan + `DUPS_PER_ITER`
/// duplicate re-sends of the signature the thread stored one iteration
/// earlier. Each signature is thus processed 9 times by its sender —
/// inside the seed's 10-per-day budget, so both targets accept every
/// request and do the same protocol-visible work.
fn concurrent_mixed_load<S: LoadTarget>(server: Arc<S>, iters: usize) -> MixedLoadResult {
    // Requests are pre-generated outside the timed region; every ADD
    // uses a distinct user so the daily budget never interferes. Each
    // iteration carries its fresh ADD plus re-sends of a text that is
    // guaranteed already stored when the iteration runs.
    type Iteration = (Request, Vec<Request>);
    let jobs: Vec<Vec<Iteration>> = (0..THREADS)
        .map(|t| {
            let mut gen = SigGen::new(0x5171 ^ t as u64);
            let adds: Vec<Request> = (0..iters)
                .map(|i| {
                    let user = (t * iters + i) as u64;
                    Request::Add {
                        sender: server.authority().issue(user),
                        sig_text: gen.random_signature().to_string(),
                    }
                })
                .collect();
            (0..iters)
                .map(|i| {
                    let dups = if i == 0 {
                        Vec::new()
                    } else {
                        vec![adds[i - 1].clone(); DUPS_PER_ITER]
                    };
                    (adds[i].clone(), dups)
                })
                .collect()
        })
        .collect();

    let start = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for batch in jobs {
            let server = server.clone();
            handles.push(scope.spawn(move || {
                let mut lat = Vec::with_capacity((2 + DUPS_PER_ITER) * batch.len());
                for (add, dups) in batch {
                    let t0 = Instant::now();
                    match server.add(add) {
                        Reply::AddAck { accepted: true, .. } => {}
                        other => panic!("fresh ADD must be accepted, got {other:?}"),
                    }
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);

                    let t0 = Instant::now();
                    let _ = server.scan0();
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);

                    for dup in dups {
                        let t0 = Instant::now();
                        match server.add(dup) {
                            Reply::AddAck { accepted: true, .. } => {}
                            other => panic!("duplicate ADD must be acked, got {other:?}"),
                        }
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                lat
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    assert_eq!(server.stored(), THREADS * iters);
    let all: Vec<f64> = latencies.into_iter().flatten().collect();
    MixedLoadResult {
        ops_per_sec: all.len() as f64 / elapsed.as_secs_f64(),
        p99_us: percentile(&all, 99.0),
        server_lat_us: server.latency_us(),
    }
}

/// Best-of-`reps` runs against fresh servers (noise from the scheduler
/// and CPU frequency scaling is one-sided: it only ever slows a run
/// down).
fn best_mixed_load<S: LoadTarget>(
    make_server: impl Fn() -> Arc<S>,
    iters: usize,
    reps: usize,
) -> MixedLoadResult {
    (0..reps)
        .map(|_| concurrent_mixed_load(make_server(), iters))
        .reduce(|best, r| {
            if r.ops_per_sec > best.ops_per_sec {
                r
            } else {
                best
            }
        })
        .expect("at least one rep")
}

struct SimnetResult {
    ops_per_sec: f64,
    p99_ms: f64,
    server_tx_bytes: u64,
    server_lat_us: (f64, f64, f64),
}

/// M simulated clients each run `rounds` of batched sync against the
/// sharded server through a 1 Gbit/s server NIC.
fn simnet_batched_sync(clients: usize, rounds: usize, batch: usize) -> SimnetResult {
    let mut net = SimNet::new(SimDuration::from_micros(500));
    net.set_nic(
        SERVER,
        NicConfig {
            bandwidth_bps: 125_000_000.0,
        },
    );
    let server = CommunixServer::new(
        ServerConfig {
            // One user per client sends rounds × batch signatures; keep
            // the paper's budget rule out of the throughput measurement.
            daily_limit: rounds * batch + 1,
            ..ServerConfig::default()
        },
        Arc::new(SystemClock::new()),
    );

    // Pre-generate each client's per-round batches.
    let mut queues: Vec<Vec<Vec<BatchAdd>>> = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut gen = SigGen::new(0x517B ^ c as u64);
        let id = server.authority().issue(c as u64);
        queues.push(
            (0..rounds)
                .map(|_| {
                    gen.random_batch_texts(batch)
                        .into_iter()
                        .map(|sig_text| BatchAdd {
                            sender: id,
                            sig_text,
                        })
                        .collect()
                })
                .collect(),
        );
    }

    #[derive(Clone, Copy)]
    struct ClientState {
        rounds_done: usize,
        local_len: u64,
        sent_at: SimDuration,
        finished_at: SimDuration,
    }
    let mut state = vec![
        ClientState {
            rounds_done: 0,
            local_len: 0,
            sent_at: SimDuration::ZERO,
            finished_at: SimDuration::ZERO,
        };
        clients
    ];
    let mut rtts_ms: Vec<f64> = Vec::new();

    let send_batch = |net: &mut SimNet,
                      queues: &mut [Vec<Vec<BatchAdd>>],
                      state: &mut [ClientState],
                      c: usize| {
        let adds = queues[c].pop().expect("round batch available");
        state[c].sent_at = net.now();
        let req = Request::AddBatch { adds };
        net.send(NodeId(c as u64 + 1), SERVER, req.encode().to_vec());
    };

    for c in 0..clients {
        send_batch(&mut net, &mut queues, &mut state, c);
    }

    while let Some(d) = net.next_delivery() {
        if d.to == SERVER {
            let req = Request::decode(d.payload.into()).expect("well-formed request");
            let reply = server.handle(req);
            net.send(SERVER, d.from, reply.encode().to_vec());
            continue;
        }
        let c = (d.to.0 - 1) as usize;
        rtts_ms.push((d.at - state[c].sent_at).as_secs_f64() * 1e3);
        let reply = Reply::decode(d.payload.into()).expect("well-formed reply");
        match reply {
            Reply::BatchAck { results } => {
                assert!(
                    results.iter().all(|r| r.accepted),
                    "client {c}: batched ADDs must be accepted"
                );
                state[c].sent_at = net.now();
                let req = Request::GetDelta {
                    from: state[c].local_len,
                    max: 0,
                };
                net.send(d.to, SERVER, req.encode().to_vec());
            }
            Reply::Delta { from, total, sigs } => {
                assert_eq!(from, state[c].local_len);
                state[c].local_len += sigs.len() as u64;
                if state[c].local_len < total {
                    // The server windowed the delta: fetch the rest.
                    state[c].sent_at = net.now();
                    let req = Request::GetDelta {
                        from: state[c].local_len,
                        max: 0,
                    };
                    net.send(d.to, SERVER, req.encode().to_vec());
                } else {
                    state[c].rounds_done += 1;
                    if state[c].rounds_done == rounds {
                        state[c].finished_at = net.now();
                    } else {
                        send_batch(&mut net, &mut queues, &mut state, c);
                    }
                }
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    let makespan = state
        .iter()
        .map(|s| {
            assert_eq!(s.rounds_done, rounds);
            s.finished_at
        })
        .max()
        .expect("at least one client");
    SimnetResult {
        ops_per_sec: rtts_ms.len() as f64 / makespan.as_secs_f64(),
        p99_ms: percentile(&rtts_ms, 99.0),
        server_tx_bytes: net.sent_bytes(SERVER),
        server_lat_us: server_latency_us(&server),
    }
}

// ---------------------------------------------------------------------
// connections_vs_throughput — the C10K sweep.
// ---------------------------------------------------------------------

/// Open connections held by one driver child process. Bounded so that at
/// the 10240-connection point neither the server process (10240 sockets)
/// nor any driver (≤ `DRIVER_CHILD_CAP` sockets) outgrows a 20k fd
/// limit on its own.
const DRIVER_CHILD_CAP: usize = 2048;

/// Descriptors the server process needs beyond its connections
/// (listener, poller, waker pipe, stdio, the artifact file).
const FD_MARGIN: u64 = 64;

struct SweepPoint {
    /// JSON key: `threaded_{n}`, `event_{n}`, `event_r{r}_{n}`,
    /// `event_add_{n}`, or `event_durable_{n}`.
    name: String,
    transport: String,
    /// Reactor shard threads (0 for the threaded baseline).
    reactors: usize,
    connections: usize,
    /// `issue_id` for the classic sweep; `add` for the durability pair.
    workload: &'static str,
    /// Whether the server journaled every ADD through the WAL.
    durable: bool,
    ops_per_sec: f64,
    p99_us: f64,
    server_lat_us: (f64, f64, f64),
    peak_connections: usize,
    /// Full telemetry text render, captured before shutdown — the
    /// `--smoke` completion report prints the last one to stderr.
    snapshot_text: String,
}

/// Connect with exponential backoff: a burst of simultaneous dials from
/// several children can momentarily overflow the listen backlog.
fn connect_with_retry(addr: std::net::SocketAddr) -> TcpClient {
    let mut delay = Duration::from_millis(1);
    for _ in 0..10 {
        match TcpClient::connect(addr) {
            Ok(c) => return c,
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(250));
            }
        }
    }
    TcpClient::connect(addr).expect("connect to sweep server after retries")
}

/// Child (`--drive`) mode: hold `conns` open connections, print READY,
/// and once the parent answers GO on stdin, round-robin blocking calls
/// for `secs` of wall clock — `ISSUE_ID` by default, or (`--adds`) an
/// `ADD` of a fresh signature per call, the write load the durability
/// series measures. Reports one RESULT line.
fn drive_connections(addr: &str, conns: usize, secs: f64, adds: bool, user_base: u64) {
    let _ = polling::raise_fd_limit();
    let addr: std::net::SocketAddr = addr.parse().expect("server address");
    let mut clients: Vec<TcpClient> = (0..conns).map(|_| connect_with_retry(addr)).collect();

    // The ADD drive sends each connection's signatures under its own
    // sender id (the parent raises the server's daily limit for these
    // points) from its own deterministic signature stream.
    let mut senders: Vec<[u8; 16]> = Vec::new();
    let mut gens: Vec<SigGen> = Vec::new();
    if adds {
        for (i, client) in clients.iter_mut().enumerate() {
            let user = user_base + i as u64;
            match client.call(&Request::IssueId { user }) {
                Ok(Reply::Id { id }) => senders.push(id),
                other => panic!("driver id issuance failed: {other:?}"),
            }
            gens.push(SigGen::new(0xADD5 ^ user));
        }
    }

    println!("READY");
    let mut go = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut go)
        .expect("GO from parent");

    let mut lat_us = Vec::new();
    let mut ops = 0u64;
    let start = Instant::now();
    'drive: loop {
        for (i, client) in clients.iter_mut().enumerate() {
            if start.elapsed().as_secs_f64() >= secs {
                break 'drive;
            }
            let t0 = Instant::now();
            if adds {
                let req = Request::Add {
                    sender: senders[i],
                    sig_text: gens[i].random_signature().to_string(),
                };
                match client.call(&req) {
                    Ok(Reply::AddAck { .. }) => {}
                    other => panic!("driver ADD failed: {other:?}"),
                }
            } else {
                match client.call(&Request::IssueId { user: i as u64 }) {
                    Ok(Reply::Id { .. }) => {}
                    other => panic!("driver call failed: {other:?}"),
                }
            }
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ops += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "RESULT ops={ops} secs={elapsed} p99_us={}",
        percentile(&lat_us, 99.0)
    );
}

/// One sweep point: serve in-process, fan `conns` connections across
/// driver children, confirm via server-side stats that all of them are
/// held at once, then measure a closed-loop drive window. `reactors`
/// shards the event loop (0 only for the threaded baseline); the point
/// is named `event_{n}` at one reactor — the pre-sharding series the
/// baseline diff tracks — and `event_r{r}_{n}` beyond it. `adds`
/// switches the drive from `ISSUE_ID` to fresh-signature `ADD`s
/// (`event_add_{n}`), and `durable` journals that same write load
/// through a WAL-backed store in a scratch directory
/// (`event_durable_{n}`) — the pair whose ratio is the durability tax.
fn connections_point(
    event: bool,
    reactors: usize,
    conns: usize,
    secs: f64,
    adds: bool,
    durable: bool,
) -> SweepPoint {
    // Long idle timeout: connections sit quiet while later children are
    // still dialing, and must not be evicted as slow-loris suspects.
    let cfg = TcpServerConfig {
        idle_timeout: Some(Duration::from_secs(120)),
        reactors,
        ..TcpServerConfig::default()
    };
    let mut builder = communix_server::builder().tcp_config(cfg);
    if !event {
        builder = builder.threaded();
    }
    if adds {
        // Every connection streams signatures under one sender id; the
        // paper's 10-per-day budget is a policy under test elsewhere,
        // not here.
        builder = builder.daily_limit(usize::MAX >> 1);
    }
    let durable_dir = durable.then(|| {
        let dir = std::env::temp_dir().join(format!(
            "communix-bench-durable-{}-{conns}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    if let Some(dir) = &durable_dir {
        builder = builder.durable(dir);
    }
    let (server, mut tcp) = builder.serve("127.0.0.1:0").expect("bind sweep server");
    let transport = tcp.transport().to_string();
    let addr = tcp.addr().to_string();
    let exe = std::env::current_exe().expect("current exe");

    let mut children: Vec<(Child, BufReader<std::process::ChildStdout>)> = Vec::new();
    let mut left = conns;
    let mut ordinal = 0usize;
    while left > 0 {
        let take = left.min(DRIVER_CHILD_CAP);
        left -= take;
        let mut cmd = Command::new(&exe);
        cmd.args(["--drive", &addr])
            .args(["--conns", &take.to_string()])
            .args(["--secs", &format!("{secs}")]);
        if adds {
            cmd.arg("--adds")
                .args(["--user-base", &(ordinal * DRIVER_CHILD_CAP).to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn driver child");
        let out = BufReader::new(child.stdout.take().expect("child stdout"));
        children.push((child, out));
        ordinal += 1;
    }

    for (_, out) in &mut children {
        let mut line = String::new();
        out.read_line(&mut line).expect("driver READY");
        assert_eq!(line.trim(), "READY", "driver handshake");
    }
    // Every driver has connected; the proof of concurrency is the
    // server's own view, not the clients' claims.
    let deadline = Instant::now() + Duration::from_secs(30);
    while tcp.stats().current_connections < conns && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let held = tcp.stats().current_connections;
    assert_eq!(
        held, conns,
        "server never held all {conns} connections simultaneously ({transport})"
    );

    for (child, _) in &mut children {
        child
            .stdin
            .as_mut()
            .expect("child stdin")
            .write_all(b"GO\n")
            .expect("send GO");
    }

    let mut ops_per_sec = 0.0;
    let mut p99_us: f64 = 0.0;
    for (_, out) in &mut children {
        let mut line = String::new();
        out.read_line(&mut line).expect("driver RESULT");
        let (mut ops, mut child_secs) = (0f64, 0f64);
        for tok in line.split_whitespace() {
            if let Some(v) = tok.strip_prefix("ops=") {
                ops = v.parse().expect("ops");
            } else if let Some(v) = tok.strip_prefix("secs=") {
                child_secs = v.parse().expect("secs");
            } else if let Some(v) = tok.strip_prefix("p99_us=") {
                p99_us = p99_us.max(v.parse().expect("p99_us"));
            }
        }
        assert!(child_secs > 0.0, "malformed driver RESULT: {line:?}");
        ops_per_sec += ops / child_secs;
    }
    for (mut child, _) in children {
        let _ = child.wait();
    }
    let peak = tcp.stats().peak_connections;
    // The server's own view of the drive window: request-path latency
    // from its telemetry histograms, plus the transport gauges the
    // shared registry carries. Captured before shutdown tears the
    // connections down.
    let server_lat_us = server_latency_us(&server);
    let snapshot_text = server.telemetry_snapshot().render_text();
    tcp.shutdown();
    drop(server); // final WAL sync before the scratch dir goes away
    if let Some(dir) = &durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let name = match (event, reactors, adds, durable) {
        (false, ..) => format!("threaded_{conns}"),
        (true, _, true, true) => format!("event_durable_{conns}"),
        (true, _, true, false) => format!("event_add_{conns}"),
        (true, 1, ..) => format!("event_{conns}"),
        (true, r, ..) => format!("event_r{r}_{conns}"),
    };
    SweepPoint {
        name,
        transport,
        reactors: if event { reactors } else { 0 },
        connections: conns,
        workload: if adds { "add" } else { "issue_id" },
        durable,
        ops_per_sec,
        p99_us,
        server_lat_us,
        peak_connections: peak,
        snapshot_text,
    }
}

// ---------------------------------------------------------------------
// pipeline_depth_vs_throughput — per-connection pipelining sweep.
// ---------------------------------------------------------------------

/// Windows swept by `pipeline_depth_vs_throughput`.
#[cfg(unix)]
const PIPELINE_WINDOWS: [usize; 4] = [1, 4, 16, 64];

/// One point of the pipelining sweep.
#[cfg(unix)]
struct PipelinePoint {
    /// JSON key: `blocking_w1` or `pipelined_w{window}`.
    name: String,
    /// In-flight window; 0 marks the blocking baseline.
    window: usize,
    ops_per_sec: f64,
    ops_per_sec_per_conn: f64,
    p99_us: f64,
}

/// One blocking connection's closed loop: the pre-pipelining client,
/// strictly one request on the wire at a time.
#[cfg(unix)]
fn drive_blocking_conn(addr: std::net::SocketAddr, secs: f64) -> (f64, f64) {
    let mut client = TcpClient::connect(addr).expect("connect blocking driver");
    let mut lat_us = Vec::new();
    let mut ops = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        match client.call(&Request::IssueId { user: ops }) {
            Ok(Reply::Id { .. }) => {}
            other => panic!("blocking driver call failed: {other:?}"),
        }
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        ops += 1;
    }
    (
        ops as f64 / start.elapsed().as_secs_f64(),
        percentile(&lat_us, 99.0),
    )
}

/// One pipelined connection's closed loop: keep `window` requests in
/// flight, pump, park only when the window is full and no reply has
/// landed. `p99` comes from the client's own `client.rtt` histogram
/// (per wire frame, in ns there; µs here).
#[cfg(unix)]
fn drive_pipelined_conn(addr: std::net::SocketAddr, window: usize, secs: f64) -> (f64, f64) {
    use std::sync::atomic::{AtomicU64, Ordering};

    use communix_client::{PipelineConfig, PipelinedClient};

    let mut client = PipelinedClient::connect(
        addr,
        PipelineConfig {
            window,
            ..PipelineConfig::default()
        },
    )
    .expect("connect pipelined driver");
    let completed = Arc::new(AtomicU64::new(0));
    let mut user = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        while client.pending() < window {
            let completed = completed.clone();
            client.submit(
                Request::IssueId { user },
                Box::new(move |result| {
                    result.expect("pipelined ISSUE_ID");
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            );
            user += 1;
        }
        client.pump().expect("pump pipelined driver");
        if client.pending() >= window {
            let _ = client.wait(Some(Duration::from_millis(1)));
        }
    }
    client
        .drain(Some(Duration::from_secs(30)))
        .expect("drain pipelined driver");
    let elapsed = start.elapsed().as_secs_f64();
    let p99_us = client
        .telemetry()
        .snapshot()
        .histogram("client.rtt")
        .map_or(0.0, |h| h.p99() / 1e3);
    (completed.load(Ordering::Relaxed) as f64 / elapsed, p99_us)
}

/// One sweep point: a fresh event-transport server, `conns` driver
/// threads (`window == 0` means the blocking baseline), summed
/// throughput and worst per-connection p99.
#[cfg(unix)]
fn pipeline_depth_point(window: usize, conns: usize, secs: f64) -> PipelinePoint {
    let (_server, mut tcp) = communix_server::builder()
        .serve("127.0.0.1:0")
        .expect("bind pipeline sweep server");
    let addr = tcp.addr();
    let results: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || {
                    if window == 0 {
                        drive_blocking_conn(addr, secs)
                    } else {
                        drive_pipelined_conn(addr, window, secs)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    tcp.shutdown();
    let ops_per_sec: f64 = results.iter().map(|(r, _)| r).sum();
    PipelinePoint {
        name: if window == 0 {
            "blocking_w1".into()
        } else {
            format!("pipelined_w{window}")
        },
        window,
        ops_per_sec,
        ops_per_sec_per_conn: ops_per_sec / conns as f64,
        p99_us: results.iter().map(|(_, p)| *p).fold(0.0, f64::max),
    }
}

// ---------------------------------------------------------------------
// client_reactor — one thread vs a thread per pipelined connection.
// ---------------------------------------------------------------------

/// One thread driving `conns` pipelined connections through the
/// client-side [`communix_client::ReactorPool`]: every member's window is kept full, one
/// shared poller wait parks the whole pool. `p99` is the pool's merged
/// `client.rtt` histogram (all members share one registry).
#[cfg(unix)]
fn drive_reactor_pool(
    addr: std::net::SocketAddr,
    conns: usize,
    window: usize,
    secs: f64,
) -> (f64, f64) {
    use std::sync::atomic::{AtomicU64, Ordering};

    use communix_client::{PipelineConfig, ReactorPool};

    let mut pool = ReactorPool::connect(
        addr,
        conns,
        PipelineConfig {
            window,
            ..PipelineConfig::default()
        },
    )
    .expect("connect reactor pool");
    let completed = Arc::new(AtomicU64::new(0));
    let mut user = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        for i in 0..pool.len() {
            let pending = pool.client_mut(i).map_or(window, |c| c.pending());
            for _ in pending..window {
                let completed = completed.clone();
                pool.submit(
                    i,
                    Request::IssueId { user },
                    Box::new(move |result| {
                        result.expect("reactor ISSUE_ID");
                        completed.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                user += 1;
            }
        }
        pool.pump().expect("pump reactor pool");
        if pool.pending() >= pool.live() * window {
            let _ = pool.wait(Some(Duration::from_millis(1)));
        }
    }
    pool.drain(Some(Duration::from_secs(30)))
        .expect("drain reactor pool");
    let elapsed = start.elapsed().as_secs_f64();
    let p99_us = pool
        .telemetry()
        .snapshot()
        .histogram("client.rtt")
        .map_or(0.0, |h| h.p99() / 1e3);
    (completed.load(Ordering::Relaxed) as f64 / elapsed, p99_us)
}

#[cfg(unix)]
struct ClientReactorSweep {
    connections: usize,
    window: usize,
    threads_ops: f64,
    threads_p99_us: f64,
    reactor_ops: f64,
    reactor_p99_us: f64,
}

#[cfg(unix)]
impl ClientReactorSweep {
    /// Aggregate throughput of the one-thread reactor relative to the
    /// thread-per-connection baseline at the same window.
    fn efficiency(&self) -> f64 {
        self.reactor_ops / self.threads_ops
    }
}

/// The client-side reactor sweep: the same `conns × window` pipelined
/// load driven twice against fresh event-transport servers — once by
/// `conns` OS threads (one connection each, the pipeline sweep's
/// driver), once by a single thread multiplexing all of them through a
/// [`communix_client::ReactorPool`].
#[cfg(unix)]
fn client_reactor_sweep(conns: usize, window: usize, secs: f64) -> ClientReactorSweep {
    let serve = || {
        communix_server::builder()
            .serve("127.0.0.1:0")
            .expect("bind client_reactor server")
            .1
    };

    let mut tcp = serve();
    let addr = tcp.addr();
    let per_thread: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| scope.spawn(move || drive_pipelined_conn(addr, window, secs)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    tcp.shutdown();

    let mut tcp = serve();
    let (reactor_ops, reactor_p99_us) = drive_reactor_pool(tcp.addr(), conns, window, secs);
    tcp.shutdown();

    ClientReactorSweep {
        connections: conns,
        window,
        threads_ops: per_thread.iter().map(|(r, _)| r).sum(),
        threads_p99_us: per_thread.iter().map(|(_, p)| *p).fold(0.0, f64::max),
        reactor_ops,
        reactor_p99_us,
    }
}

// ---------------------------------------------------------------------
// recovery — SIGKILL a durable server mid-burst, restart, converge.
// ---------------------------------------------------------------------

/// Child (`--serve-durable <dir>`) mode: open (recovering) a durable
/// server on `dir`, bind an ephemeral port, report one line —
///
/// `ADDR <addr> sigs=<n> wal_records=<n> snap_sigs=<n> torn=<0|1> recovery_ms=<f>`
///
/// — and park until the parent kills the process. The recovery numbers
/// are measured around the store open itself, so the parent's figure
/// excludes process spawn and bind time.
fn serve_durable(dir: &str) {
    let t0 = Instant::now();
    let server = communix_server::builder()
        .daily_limit(usize::MAX >> 1)
        .durable(dir)
        .build()
        .expect("open durable store");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let r = server.store().recovery();
    let handler: Handler = {
        let server = server.clone();
        Arc::new(move |req| server.handle(req))
    };
    let config = TcpServerConfig {
        registry: Some(server.telemetry().clone()),
        ..TcpServerConfig::default()
    };
    let tcp = TcpServer::bind_with("127.0.0.1:0", handler, config).expect("bind durable server");
    println!(
        "ADDR {} sigs={} wal_records={} snap_sigs={} torn={} recovery_ms={recovery_ms:.2}",
        tcp.addr(),
        server.store().len(),
        r.wal_records,
        r.snapshot_sigs,
        u8::from(r.torn_tail),
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// What a `--serve-durable` child reported on boot.
struct DurableChild {
    child: Child,
    addr: std::net::SocketAddr,
    wal_records: u64,
    snapshot_sigs: u64,
    torn_tail: bool,
    recovery_ms: f64,
}

fn spawn_durable_child(exe: &Path, dir: &Path) -> DurableChild {
    let mut child = Command::new(exe)
        .args(["--serve-durable", &dir.display().to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn durable server child");
    let mut out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    out.read_line(&mut line).expect("durable child ADDR line");
    let mut tokens = line.split_whitespace();
    assert_eq!(
        tokens.next(),
        Some("ADDR"),
        "durable child handshake: {line:?}"
    );
    let addr = tokens
        .next()
        .expect("address token")
        .parse()
        .expect("durable server address");
    let (mut wal_records, mut snapshot_sigs, mut torn_tail, mut recovery_ms) = (0, 0, false, 0.0);
    for tok in tokens {
        if let Some(v) = tok.strip_prefix("wal_records=") {
            wal_records = v.parse().expect("wal_records");
        } else if let Some(v) = tok.strip_prefix("snap_sigs=") {
            snapshot_sigs = v.parse().expect("snap_sigs");
        } else if let Some(v) = tok.strip_prefix("torn=") {
            torn_tail = v == "1";
        } else if let Some(v) = tok.strip_prefix("recovery_ms=") {
            recovery_ms = v.parse().expect("recovery_ms");
        }
    }
    DurableChild {
        child,
        addr,
        wal_records,
        snapshot_sigs,
        torn_tail,
        recovery_ms,
    }
}

/// Everything the restarted server serves, drained through the session
/// factory the daemon would use (`impl Connect`, dialing fresh).
fn drain_server(connect: &impl Connect) -> LocalRepository {
    let mut session = connect.connect().expect("dial restarted server");
    let mut repo = LocalRepository::in_memory();
    sync_delta(&mut session, &mut repo, 0).expect("sync_delta against restarted server");
    repo
}

struct RecoveryResult {
    burst_acked: usize,
    recovered_total: usize,
    wal_records: u64,
    snapshot_sigs: u64,
    torn_tail: bool,
    recovery_ms: f64,
}

/// The crash-restart scenario: burst batched ADDs at a durable server
/// running in a child process, SIGKILL it mid-burst (armed once
/// `kill_after` signatures are acked, fired while further batches are
/// in flight), restart on the same directory, and prove via `sync_delta`
/// that every acked signature survived. Panics — loudly failing the
/// bench — if any acked signature is missing after recovery.
fn crash_restart_recovery(kill_after: usize) -> RecoveryResult {
    let exe = std::env::current_exe().expect("current exe");
    let dir = std::env::temp_dir().join(format!("communix-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = spawn_durable_child(&exe, &dir);
    assert_eq!(first.wal_records, 0, "scratch dir must start empty");
    let connect = TcpConnect::new(first.addr);
    let mut session = connect.connect().expect("dial durable server");
    let sender = obtain_id(&mut session, 7).expect("issue sender id");

    // The killer fires the moment it is armed; the burst loop below
    // keeps batches in flight until one of them hits the dead socket.
    let (arm_tx, arm_rx) = std::sync::mpsc::channel::<()>();
    let killer = std::thread::spawn(move || {
        let mut child = first.child;
        let _ = arm_rx.recv();
        let _ = child.kill();
        let _ = child.wait();
    });

    let mut gen = SigGen::new(0xD15C);
    let mut acked: Vec<String> = Vec::new();
    let mut armed = false;
    loop {
        let texts: Vec<String> = (0..32)
            .map(|_| gen.random_signature().to_string())
            .collect();
        let adds: Vec<([u8; 16], String)> = texts.iter().map(|t| (sender, t.clone())).collect();
        match upload_batch(&mut session, adds) {
            Ok(results) => {
                for (result, text) in results.iter().zip(texts) {
                    if result.accepted {
                        acked.push(text);
                    }
                }
                if !armed && acked.len() >= kill_after {
                    let _ = arm_tx.send(());
                    armed = true;
                }
            }
            // The expected crash: the socket died under a batch.
            Err(SyncError::Transport(_)) => break,
            Err(other) => panic!("burst failed before the kill: {other}"),
        }
        assert!(
            acked.len() < kill_after.saturating_mul(1000),
            "server survived the kill implausibly long"
        );
    }
    killer.join().expect("killer thread");
    assert!(armed, "burst ended before the kill was armed");
    assert!(
        acked.len() >= kill_after,
        "kill landed before the armed threshold"
    );

    // Restart on the same directory: recovery is snapshot + WAL tail.
    let second = spawn_durable_child(&exe, &dir);
    let repo = drain_server(&TcpConnect::new(second.addr));
    let have: std::collections::HashSet<&str> =
        (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    let missing = acked.iter().filter(|t| !have.contains(t.as_str())).count();
    assert_eq!(
        missing,
        0,
        "{missing} of {} acked signatures lost across the crash",
        acked.len()
    );

    let mut child = second.child;
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryResult {
        burst_acked: acked.len(),
        recovered_total: repo.len(),
        wal_records: second.wal_records,
        snapshot_sigs: second.snapshot_sigs,
        torn_tail: second.torn_tail,
        recovery_ms: second.recovery_ms,
    }
}

fn main() {
    if let Some(dir) = arg_value("--serve-durable") {
        serve_durable(&dir);
        return;
    }
    if let Some(addr) = arg_value("--drive") {
        let conns: usize = arg_value("--conns")
            .expect("--conns")
            .parse()
            .expect("conns count");
        let secs: f64 = arg_value("--secs")
            .expect("--secs")
            .parse()
            .expect("drive seconds");
        let adds = arg_flag("--adds");
        let user_base: u64 = arg_value("--user-base")
            .map(|v| v.parse().expect("user base"))
            .unwrap_or(0);
        drive_connections(&addr, conns, secs, adds, user_base);
        return;
    }

    let smoke = arg_flag("--smoke");
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_server_throughput.json".into());
    let summary_md = arg_value("--summary-md");
    let (iters, reps, clients, rounds, batch) = if smoke {
        (150, 3, 12, 4, 4)
    } else {
        (400, 5, 48, 8, 8)
    };

    banner(
        "server_throughput — sharded store + batched sync, closed loop",
        "perf trajectory artifact; sharded vs. the single-lock baseline of the seed",
    );

    println!(
        "\nconcurrent_mixed_load ({THREADS} threads × {iters} iters of ADD + GET(0) scan + \
         {DUPS_PER_ITER} dup ADDs, best of {reps}):"
    );
    row(&["server", "ops/s", "p99 µs", "srv p99 µs"]);
    let baseline = best_mixed_load(
        || Arc::new(seed::SeedServer::new(Arc::new(SystemClock::new()))),
        iters,
        reps,
    );
    row(&[
        "seed (single-lock)",
        &fmt_rate(baseline.ops_per_sec),
        &format!("{:.1}", baseline.p99_us),
        "-",
    ]);
    let sharded = best_mixed_load(
        || {
            Arc::new(CommunixServer::new(
                ServerConfig::default(),
                Arc::new(SystemClock::new()),
            ))
        },
        iters,
        reps,
    );
    row(&[
        &format!("sharded ({DEFAULT_SHARDS}) + fast path"),
        &fmt_rate(sharded.ops_per_sec),
        &format!("{:.1}", sharded.p99_us),
        &sharded
            .server_lat_us
            .map_or("-".into(), |(_, _, p99)| format!("{p99:.1}")),
    ]);
    let speedup = sharded.ops_per_sec / baseline.ops_per_sec;
    println!(
        "speedup: {speedup:.2}× {}",
        if speedup >= 1.0 {
            "(sharded server beats the single-lock baseline)"
        } else {
            "(WARNING: sharded did not beat the baseline on this run)"
        }
    );

    println!("\nsimnet_batched_sync ({clients} clients × {rounds} rounds, ADD_BATCH of {batch}):");
    let sim = simnet_batched_sync(clients, rounds, batch);
    row(&["requests/s", "p99 ms", "server tx", "srv p99 µs"]);
    row(&[
        &fmt_rate(sim.ops_per_sec),
        &format!("{:.2}", sim.p99_ms),
        &format!("{:.1} MB", sim.server_tx_bytes as f64 / 1e6),
        &format!("{:.1}", sim.server_lat_us.2),
    ]);

    // The C10K sweep. Raise this process's fd soft limit first (CI
    // runners default to 1024, which would cap the sweep below the
    // 512-connection point the artifact must include).
    let _ = polling::raise_fd_limit();
    let (fd_soft, fd_hard) = polling::fd_limit().unwrap_or((0, 0));
    let drive_secs = if smoke { 1.0 } else { 2.0 };
    let event_conns: &[usize] = if smoke {
        &[64, 512, 2048]
    } else {
        &[64, 512, 2048, 10240]
    };
    let threaded_conns: &[usize] = &[64, 512];
    // The reactors axis: the same event sweep re-run with 2 and 4 shard
    // threads at the contended points (sharding cannot help at 64).
    let multi_reactor_conns: &[usize] = if smoke {
        &[512, 2048]
    } else {
        &[512, 2048, 10240]
    };
    // The durability axis: the same event transport under an ADD (write)
    // workload, once purely in memory and once with the WAL fsyncing
    // behind it. Same run, same machine — the pair is bench_guard's
    // 2× WAL-cost check.
    let durable_conns: &[usize] = if smoke { &[512] } else { &[512, 2048] };
    let mut points: Vec<(bool, usize, usize, bool, bool)> = threaded_conns
        .iter()
        .map(|&n| (false, 0, n, false, false))
        .chain(event_conns.iter().map(|&n| (true, 1, n, false, false)))
        .collect();
    for r in [2usize, 4] {
        points.extend(
            multi_reactor_conns
                .iter()
                .map(|&n| (true, r, n, false, false)),
        );
    }
    for &n in durable_conns {
        points.push((true, 1, n, true, false));
        points.push((true, 1, n, true, true));
    }

    println!(
        "\nconnections_vs_throughput ({drive_secs}s closed-loop per point, ISSUE_ID unless \
         noted, drivers in child processes, fd limit {fd_soft}/{fd_hard}):"
    );
    row(&[
        "transport",
        "reactors",
        "conns",
        "workload",
        "durable",
        "ops/s",
        "p99 µs",
        "srv p99 µs",
        "peak conns",
    ]);
    let mut sweep_json = JsonObj::new()
        .num("drive_secs", drive_secs)
        .int("fd_soft_limit", fd_soft)
        .int("fd_hard_limit", fd_hard);
    let mut backend = "unavailable".to_string();
    let mut last_snapshot = None;
    let mut sweep_points: Vec<SweepPoint> = Vec::new();
    for (event, reactors, conns, adds, durable) in points {
        if conns as u64 + FD_MARGIN > fd_soft {
            let label = if event { "event" } else { "threaded" };
            println!("{label}_{conns}: SKIPPED — needs > {fd_soft} fds in the server process");
            continue;
        }
        let mut p = connections_point(event, reactors, conns, drive_secs, adds, durable);
        if event && !adds {
            backend = p.transport.clone();
        }
        row(&[
            &p.transport,
            &(if event {
                reactors.to_string()
            } else {
                "-".into()
            }),
            &p.connections.to_string(),
            p.workload,
            if p.durable { "wal" } else { "-" },
            &fmt_rate(p.ops_per_sec),
            &format!("{:.1}", p.p99_us),
            &format!("{:.1}", p.server_lat_us.2),
            &p.peak_connections.to_string(),
        ]);
        sweep_json = sweep_json.obj(
            &p.name,
            JsonObj::new()
                .str("transport", &p.transport)
                .int("reactors", p.reactors as u64)
                .int("connections", p.connections as u64)
                .str("workload", p.workload)
                .int("durable", u64::from(p.durable))
                .num("ops_per_sec", p.ops_per_sec)
                .num("p99_us", p.p99_us)
                .num("server_p50_us", p.server_lat_us.0)
                .num("server_p90_us", p.server_lat_us.1)
                .num("server_p99_us", p.server_lat_us.2)
                .int("peak_connections", p.peak_connections as u64),
        );
        last_snapshot = Some(std::mem::take(&mut p.snapshot_text));
        sweep_points.push(p);
    }

    // Crash-restart recovery: prove the durable store's promise end to
    // end — SIGKILL mid-burst, restart, converge — and time the restart.
    let kill_after = if smoke { 512 } else { 4096 };
    println!("\nrecovery (SIGKILL durable server mid-burst after {kill_after} acked ADDs):");
    let recovery = crash_restart_recovery(kill_after);
    row(&[
        "acked",
        "recovered",
        "wal replayed",
        "snap sigs",
        "torn tail",
        "recovery ms",
    ]);
    row(&[
        &recovery.burst_acked.to_string(),
        &recovery.recovered_total.to_string(),
        &recovery.wal_records.to_string(),
        &recovery.snapshot_sigs.to_string(),
        if recovery.torn_tail { "yes" } else { "no" },
        &format!("{:.2}", recovery.recovery_ms),
    ]);
    println!("converged: every acked signature present after restart");

    // The pipelining sweep: same closed-loop ISSUE_ID drive, but the
    // variable is the client's in-flight window, not the connection
    // count. Few connections, driven from threads in this process.
    #[cfg(unix)]
    let pipeline_sweep = {
        let conns = if smoke { 2 } else { 4 };
        println!(
            "\npipeline_depth_vs_throughput ({conns} conns × {drive_secs}s closed-loop \
             ISSUE_ID, event transport):"
        );
        row(&[
            "client",
            "window",
            "ops/s",
            "ops/s/conn",
            "p99 µs",
            "vs blk/conn",
        ]);
        let mut points = vec![pipeline_depth_point(0, conns, drive_secs)];
        for window in PIPELINE_WINDOWS {
            points.push(pipeline_depth_point(window, conns, drive_secs));
        }
        let base = points[0].ops_per_sec_per_conn;
        for p in &points {
            row(&[
                &p.name,
                &p.window.max(1).to_string(),
                &fmt_rate(p.ops_per_sec),
                &fmt_rate(p.ops_per_sec_per_conn),
                &format!("{:.1}", p.p99_us),
                &format!("{:.2}×", p.ops_per_sec_per_conn / base),
            ]);
        }
        (conns, points)
    };

    // One thread vs a thread per connection over the same pipelined
    // load: the client reactor earns its keep by holding most of the
    // thread-per-connection aggregate from a single thread.
    #[cfg(unix)]
    let client_reactor = {
        let (conns, window) = (32, 16);
        println!(
            "\nclient_reactor ({conns} pipelined conns × window {window}, {drive_secs}s \
             closed-loop ISSUE_ID, event transport):"
        );
        let s = client_reactor_sweep(conns, window, drive_secs);
        row(&["driver", "threads", "ops/s", "p99 µs", "efficiency"]);
        row(&[
            &format!("threads_{conns}"),
            &conns.to_string(),
            &fmt_rate(s.threads_ops),
            &format!("{:.1}", s.threads_p99_us),
            "1.00×",
        ]);
        row(&[
            &format!("reactor_{conns}"),
            "1",
            &fmt_rate(s.reactor_ops),
            &format!("{:.1}", s.reactor_p99_us),
            &format!("{:.2}×", s.efficiency()),
        ]);
        s
    };

    let json = JsonObj::new()
        .str("bench", "server_throughput")
        .str("mode", if smoke { "smoke" } else { "full" })
        .obj(
            "concurrent_mixed_load",
            JsonObj::new()
                .int("threads", THREADS as u64)
                .int("iters_per_thread", iters as u64)
                .obj(
                    "single_lock_baseline",
                    JsonObj::new()
                        .num("ops_per_sec", baseline.ops_per_sec)
                        .num("p99_us", baseline.p99_us),
                )
                .obj("sharded", {
                    let (p50, p90, p99) = sharded.server_lat_us.expect("sharded has telemetry");
                    JsonObj::new()
                        .int("shards", DEFAULT_SHARDS as u64)
                        .num("ops_per_sec", sharded.ops_per_sec)
                        .num("p99_us", sharded.p99_us)
                        .num("server_p50_us", p50)
                        .num("server_p90_us", p90)
                        .num("server_p99_us", p99)
                })
                .num("speedup", speedup),
        )
        .obj(
            "simnet_batched_sync",
            JsonObj::new()
                .int("clients", clients as u64)
                .int("rounds", rounds as u64)
                .int("batch", batch as u64)
                .num("ops_per_sec", sim.ops_per_sec)
                .num("p99_ms", sim.p99_ms)
                .num("server_p50_us", sim.server_lat_us.0)
                .num("server_p90_us", sim.server_lat_us.1)
                .num("server_p99_us", sim.server_lat_us.2)
                .int("server_tx_bytes", sim.server_tx_bytes),
        )
        .obj(
            "connections_vs_throughput",
            sweep_json.str("poller_backend", &backend),
        )
        .obj(
            "recovery",
            JsonObj::new()
                .int("kill_after_acked", kill_after as u64)
                .int("burst_acked", recovery.burst_acked as u64)
                .int("recovered_total", recovery.recovered_total as u64)
                .int("wal_records_replayed", recovery.wal_records)
                .int("snapshot_sigs", recovery.snapshot_sigs)
                .int("torn_tail", u64::from(recovery.torn_tail))
                .num("recovery_ms", recovery.recovery_ms)
                .int("converged", 1),
        );
    #[cfg(unix)]
    let json = {
        let (conns, points) = &pipeline_sweep;
        let base = points[0].ops_per_sec_per_conn;
        let mut sweep = JsonObj::new()
            .int("connections", *conns as u64)
            .num("drive_secs", drive_secs);
        for p in points {
            sweep = sweep.obj(
                &p.name,
                JsonObj::new()
                    .int("window", p.window.max(1) as u64)
                    .num("ops_per_sec", p.ops_per_sec)
                    .num("ops_per_sec_per_conn", p.ops_per_sec_per_conn)
                    .num("p99_us", p.p99_us)
                    .num("speedup_per_conn", p.ops_per_sec_per_conn / base),
            );
        }
        json.obj("pipeline_depth_vs_throughput", sweep)
    };
    #[cfg(unix)]
    let json = {
        let s = &client_reactor;
        json.obj(
            "client_reactor",
            JsonObj::new()
                .int("connections", s.connections as u64)
                .int("window", s.window as u64)
                .num("drive_secs", drive_secs)
                .obj(
                    &format!("threads_{}", s.connections),
                    JsonObj::new()
                        .int("threads", s.connections as u64)
                        .num("ops_per_sec", s.threads_ops)
                        .num("p99_us", s.threads_p99_us),
                )
                .obj(
                    &format!("reactor_{}", s.connections),
                    JsonObj::new()
                        .int("threads", 1)
                        .num("ops_per_sec", s.reactor_ops)
                        .num("p99_us", s.reactor_p99_us),
                )
                .num("efficiency", s.efficiency()),
        )
    };
    let json = json.render();
    std::fs::write(&out, format!("{json}\n")).expect("write bench artifact");
    println!("\nwrote {out}");

    if let Some(path) = summary_md {
        let mut md =
            String::from("### connections_vs_throughput — throughput by reactor count\n\n");
        md.push_str(&format!(
            "{drive_secs}s closed-loop per point (`issue_id` reads or `add` writes), drivers \
             in child processes (`-` reactors = thread-per-connection baseline; `wal` = \
             durable store fsyncing behind the same load).\n\n\
             | point | transport | reactors | conns | workload | durable | ops/s | p99 µs | \
             srv p99 µs |\n\
             |---|---|---:|---:|---|---|---:|---:|---:|\n"
        ));
        for p in &sweep_points {
            md.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {} | {} | {:.1} | {:.1} |\n",
                p.name,
                p.transport,
                if p.reactors == 0 {
                    "-".into()
                } else {
                    p.reactors.to_string()
                },
                p.connections,
                p.workload,
                if p.durable { "wal" } else { "-" },
                fmt_rate(p.ops_per_sec),
                p.p99_us,
                p.server_lat_us.2,
            ));
        }
        md.push_str(&format!(
            "\n### recovery — crash-restart convergence of the durable store\n\n\
             SIGKILL mid-burst after {kill_after} acked ADDs, restart on the same \
             directory, `sync_delta` until every acked signature reappears.\n\n\
             | acked | recovered | wal replayed | snapshot sigs | torn tail | recovery ms | \
             converged |\n\
             |---:|---:|---:|---:|---|---:|---|\n\
             | {} | {} | {} | {} | {} | {:.2} | yes |\n",
            recovery.burst_acked,
            recovery.recovered_total,
            recovery.wal_records,
            recovery.snapshot_sigs,
            if recovery.torn_tail { "yes" } else { "no" },
            recovery.recovery_ms,
        ));
        #[cfg(unix)]
        {
            let s = &client_reactor;
            md.push_str(&format!(
                "\n### client_reactor — one thread vs a thread per pipelined connection\n\n\
                 {} connections × window {}, {drive_secs}s closed-loop `ISSUE_ID`.\n\n\
                 | driver | threads | ops/s | p99 µs | efficiency |\n\
                 |---|---:|---:|---:|---:|\n\
                 | `threads_{}` | {} | {} | {:.1} | 1.00× |\n\
                 | `reactor_{}` | 1 | {} | {:.1} | {:.2}× |\n",
                s.connections,
                s.window,
                s.connections,
                s.connections,
                fmt_rate(s.threads_ops),
                s.threads_p99_us,
                s.connections,
                fmt_rate(s.reactor_ops),
                s.reactor_p99_us,
                s.efficiency(),
            ));
        }
        md.push_str(
            "\n### pipeline_depth_vs_throughput — ops/s per connection vs in-flight window\n\n",
        );
        #[cfg(unix)]
        {
            let (conns, points) = &pipeline_sweep;
            let base = points[0].ops_per_sec_per_conn;
            md.push_str(&format!(
                "{conns} connections, {drive_secs}s closed-loop `ISSUE_ID` per point, \
                 event transport.\n\n\
                 | client | window | ops/s | ops/s/conn | p99 µs | vs blocking/conn |\n\
                 |---|---:|---:|---:|---:|---:|\n"
            ));
            for p in points {
                md.push_str(&format!(
                    "| `{}` | {} | {} | {} | {:.1} | {:.2}× |\n",
                    p.name,
                    p.window.max(1),
                    fmt_rate(p.ops_per_sec),
                    fmt_rate(p.ops_per_sec_per_conn),
                    p.p99_us,
                    p.ops_per_sec_per_conn / base,
                ));
            }
        }
        #[cfg(not(unix))]
        md.push_str("Skipped: the pipelined client sweep needs unix.\n");
        std::fs::write(&path, md).expect("write markdown summary");
        println!("wrote {path}");
    }

    // Smoke runs double as the CI observability check: dump the final
    // sweep point's full telemetry snapshot to stderr so the log shows
    // what a live server would answer to a STATS request.
    if smoke {
        if let Some(text) = last_snapshot {
            eprintln!("\ntelemetry snapshot (final sweep point, server's own view):");
            eprint!("{text}");
        }
    }
}
