//! One trial: start the durable server, set up both connections, drive
//! the workload from two threads, then check every output and recover
//! the store from disk.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use communix_client::{
    sync_delta, Connector, LocalRepository, PipelineConfig, PipelineError, PipelinedClient,
};
use communix_net::{EncryptedId, Handler, Reply, Request, TcpServer, TcpServerConfig};
use communix_server::{builder, CommunixServer, DurabilityConfig, Store};
use communix_telemetry::{Registry, Snapshot};

use crate::procfs::{self, Group, Usage};
use crate::stats::{late_ms, latency_from_due_ms, now_ns, Schedule};
use crate::trace::{self, ClientKind, ClientSpan, Recorder, TrialSpans};
use crate::workload::{AddPlan, Inputs, Item, Spec, SyncPlan, USER_BLOCK};

/// Name prefix of the benchmark's load-driver threads.
pub const DRIVER_THREAD_PREFIX: &str = "perfbench-drv";

/// Longest sleep of a driver waiting less than the poller's 1 ms tick.
const SLICE: Duration = Duration::from_micros(100);

/// Failure messages kept per trial (the count is always exact).
const KEEP_FAILURES: usize = 8;

/// Where a trial runs and what it sends.
pub struct Env<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    /// Scratch directory of this run (inside the checkout).
    pub work: PathBuf,
    /// The preloaded store each trial starts from.
    pub base: Option<PathBuf>,
}

/// Everything measured in one trial.
#[derive(Debug, Default)]
pub struct Trial {
    pub setup_s: f64,
    /// CPU steal over the timed phase ([`procfs::stolen_share`]).
    pub steal: f64,
    pub timed_s: f64,
    pub add_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub sync_ms: Vec<f64>,
    pub immunity_ms: Vec<f64>,
    pub installed: u64,
    pub acks: u64,
    pub syncs: u64,
    pub calls: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub misplaced: u64,
    pub recovery_s: f64,
    /// Peak RSS of the process during this trial, in MB.
    pub peak_rss_mb: f64,
    pub accepted_bytes: u64,
    pub usage: BTreeMap<Group, Usage>,
    pub tele_before: Option<Snapshot>,
    pub tele_after: Option<Snapshot>,
    pub traced: Option<Traced>,
}

/// What only the traced run records.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: TrialSpans,
    pub allocs_driver: u64,
    pub allocs_server: u64,
    pub captured: trace::Captured,
    pub delta_us_per_sig: f64,
    pub snapshot_ms: f64,
}

impl Trial {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(what);
        }
    }
}

extern "C" {
    fn sync();
}

/// Writes back every filesystem's dirty data and commits its journal,
/// so that I/O left behind by an earlier trial or run (WAL segments and
/// snapshots deleted, client repositories rewritten) is not paid inside
/// this trial's timing.
fn settle_disk() {
    // SAFETY: `sync(2)` takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

/// Copies the files of `from` (one level, as the store lays them out).
fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Writes the store every trial starts from. With `snapshot`, the first
/// nine tenths go into a snapshot and the rest stay in the WAL tail, as
/// a server that ran for a while has it; without, everything stays in
/// the WAL.
pub fn write_preload(dir: &Path, sigs: &[String], snapshot: bool) -> io::Result<()> {
    let registry = Registry::new();
    let store = Store::open(0, DurabilityConfig::new(dir), &registry)?;
    let cut = sigs.len() - sigs.len() / 10;
    for (i, sig) in sigs.iter().enumerate() {
        if snapshot && i == cut {
            store.snapshot()?;
        }
        store.add(sig);
    }
    store.sync()
}

fn start_server(
    dir: &Path,
    rec: Option<&Arc<Recorder>>,
) -> io::Result<(Arc<CommunixServer>, TcpServer)> {
    let Some(rec) = rec else {
        return builder().durable(dir).serve("127.0.0.1:0");
    };
    let server = builder().durable(dir).build()?;
    let handler: Handler = {
        let (server, rec) = (server.clone(), rec.clone());
        Arc::new(move |req| rec.handle(&server, req))
    };
    let config = TcpServerConfig {
        registry: Some(server.telemetry().clone()),
        ..TcpServerConfig::default()
    };
    let tcp = TcpServer::bind_with("127.0.0.1:0", handler, config)?;
    Ok((server, tcp))
}

/// Blocks until `client` has nothing queued or in flight.
fn drain(client: &mut PipelinedClient) -> io::Result<()> {
    client
        .drain(Some(Duration::from_secs(60)))
        .map_err(|e| io::Error::other(e.to_string()))
}

/// Asks the server for an id for every user, pipelined on `client`.
fn issue_ids(
    client: &mut PipelinedClient,
    users: &[u64],
    spans: Option<&Arc<Mutex<Vec<ClientSpan>>>>,
    conn: usize,
) -> io::Result<HashMap<u64, EncryptedId>> {
    let ids = Arc::new(Mutex::new(HashMap::new()));
    for &user in users {
        let (ids, spans, start) = (ids.clone(), spans.cloned(), now_ns());
        client.submit(
            Request::IssueId { user },
            Box::new(move |r| {
                let end = now_ns();
                if let Ok(Reply::Id { id }) = r {
                    ids.lock().expect("id lock poisoned").insert(user, id);
                }
                if let Some(spans) = spans {
                    spans.lock().expect("span lock poisoned").push(ClientSpan {
                        conn,
                        kind: ClientKind::Call,
                        op: "issue_id",
                        start,
                        end,
                    });
                }
            }),
        );
    }
    drain(client)?;
    let ids = std::mem::take(&mut *ids.lock().expect("id lock poisoned"));
    if ids.len() != users.len() {
        return Err(io::Error::other(format!(
            "ISSUE_ID answered {} of {} users",
            ids.len(),
            users.len()
        )));
    }
    Ok(ids)
}

fn connect(addr: std::net::SocketAddr) -> io::Result<PipelinedClient> {
    PipelinedClient::connect(addr, PipelineConfig::default())
}

/// Starts the server on `dir`, connects both clients and issues every
/// sender id: the set-up that `setup_s` times.
struct Live {
    server: Arc<CommunixServer>,
    tcp: TcpServer,
    clients: Vec<PipelinedClient>,
    senders: [Vec<EncryptedId>; 2],
    setup_s: f64,
}

fn set_up(
    env: &Env,
    dir: &Path,
    rec: Option<&Arc<Recorder>>,
    spans: Option<&Arc<Mutex<Vec<ClientSpan>>>>,
) -> io::Result<Live> {
    let start = now_ns();
    let (server, tcp) = start_server(dir, rec)?;
    let mut clients = vec![connect(tcp.addr())?, connect(tcp.addr())?];
    let mut senders: [Vec<EncryptedId>; 2] = Default::default();
    for (c, client) in clients.iter_mut().enumerate() {
        // One more id than the connection's senders need: a connection
        // with no ADDs still asks once, which tells the traced run which
        // reactor thread serves it.
        let mut users = env.inputs.users(c);
        users.push((c as u64 + 2) * USER_BLOCK - 1);
        let ids = issue_ids(client, &users, spans, c)?;
        senders[c] = env.inputs.conns[c].iter().map(|i| ids[&i.user]).collect();
    }
    Ok(Live {
        server,
        tcp,
        clients,
        senders,
        setup_s: (now_ns() - start) as f64 / 1e9,
    })
}

/// Shuts the transport down and drops every handle on the server, so
/// the store flushes and closes.
fn shut_down(live: Live) {
    let Live {
        server,
        mut tcp,
        clients,
        ..
    } = live;
    for client in clients {
        client.shutdown();
    }
    tcp.shutdown();
    drop(tcp);
    drop(server);
}

fn prepare_dir(env: &Env, name: &str) -> io::Result<PathBuf> {
    let dir = env.work.join(name);
    let _ = fs::remove_dir_all(&dir);
    match &env.base {
        Some(base) => copy_dir(base, &dir.join("store"))?,
        None => fs::create_dir_all(dir.join("store"))?,
    }
    Ok(dir)
}

/// A set-up with nothing timed after it: the store copied into place and
/// the heap trimmed, as for a trial. The disk is not settled first: the
/// copy is deleted before writeback would reach it, and forcing it out
/// every round wrote the whole store to disk again and again. Returns
/// the set-up time and the CPU steal it saw.
pub fn setup_only(env: &Env, n: usize, traced: bool) -> io::Result<(f64, f64)> {
    let dir = prepare_dir(env, &format!("setup-{n}"))?;
    crate::alloc::trim();
    let rec = traced.then(|| Arc::new(Recorder::default()));
    let ticks = procfs::cpu_ticks();
    let live = set_up(env, &dir.join("store"), rec.as_ref(), None)?;
    let steal = procfs::stolen_share(ticks, procfs::cpu_ticks());
    let setup_s = live.setup_s;
    shut_down(live);
    fs::remove_dir_all(&dir)?;
    Ok((setup_s, steal))
}

/// The ack of one ADD: item index, time, verdict as expected.
type Ack = (u32, u64, Result<(), String>);

/// One connection's load: its ADD plan, interleaved with every sync
/// call made through it (it is the `Connector` the syncs use).
struct Driver<'a> {
    conn: usize,
    client: PipelinedClient,
    plan: AddPlan,
    items: &'a [Item],
    senders: Vec<EncryptedId>,
    schedule: Option<Schedule>,
    next: usize,
    sent_ns: Vec<u64>,
    acks: Arc<Mutex<Vec<Ack>>>,
    acked_all: Arc<AtomicUsize>,
    calls: u64,
    spans: Option<Vec<ClientSpan>>,
}

impl Driver<'_> {
    fn acked(&self) -> usize {
        self.acks.lock().expect("ack lock poisoned").len()
    }

    fn submit(&mut self, i: usize) {
        let text = self.items[i].text.clone();
        let expect_dup = self.items[i].resend;
        let (acks, all) = (self.acks.clone(), self.acked_all.clone());
        self.sent_ns[i] = now_ns();
        self.client.submit_add(
            self.senders[i],
            text,
            Box::new(move |r| {
                let at = now_ns();
                let verdict = match r {
                    Ok(Reply::AddAck {
                        accepted: true,
                        reason,
                    }) if (reason == "duplicate") == expect_dup => Ok(()),
                    Ok(other) => Err(format!("ADD answered {other:?}")),
                    Err(e) => Err(format!("ADD failed: {e}")),
                };
                acks.lock()
                    .expect("ack lock poisoned")
                    .push((i as u32, at, verdict));
                all.fetch_add(1, Ordering::SeqCst);
            }),
        );
        self.next = i + 1;
    }

    /// Submits every ADD the plan allows now.
    fn feed(&mut self) {
        match self.plan {
            AddPlan::None => {}
            AddPlan::Open { count, .. } => {
                let due = self
                    .schedule
                    .expect("open loop has a schedule")
                    .due_count(now_ns())
                    .min(count);
                while self.next < due {
                    self.submit(self.next);
                }
            }
            AddPlan::Closed { count, cap, .. } => {
                let acked = self.acked();
                while self.next < count && self.next - acked < cap {
                    self.submit(self.next);
                }
            }
        }
    }

    /// Parks until the socket can progress, the next ADD is due, or
    /// `until_ns` (whichever is first).
    fn wait(&mut self, until_ns: Option<u64>) -> Result<(), String> {
        let now = now_ns();
        let mut deadline = until_ns.unwrap_or(now + 10_000_000);
        if let (Some(s), true) = (self.schedule, self.next < self.plan.count()) {
            deadline = deadline.min(s.due_ns(self.next));
        }
        let timeout = Duration::from_nanos(deadline.saturating_sub(now));
        // The poller sleeps in whole milliseconds. Below that, sleep in
        // short slices and let the caller pump between them, so neither
        // the next send nor an arriving ack waits for the rounding.
        if timeout < Duration::from_millis(1) {
            std::thread::sleep(timeout.min(SLICE));
            return Ok(());
        }
        self.client
            .wait(Some(timeout))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn pump(&mut self) -> Result<(), String> {
        self.feed();
        self.client.pump().map_err(|e: PipelineError| e.to_string())
    }

    /// Keeps the ADD plan going until `until_ns`.
    fn idle_until(&mut self, until_ns: u64) -> Result<(), String> {
        loop {
            self.pump()?;
            if now_ns() >= until_ns {
                return Ok(());
            }
            self.wait(Some(until_ns))?;
        }
    }

    /// Runs the ADD plan to completion: every ADD sent and acked.
    fn finish_adds(&mut self) -> Result<(), String> {
        loop {
            self.pump()?;
            if self.next == self.plan.count() && self.acked() == self.plan.count() {
                return Ok(());
            }
            self.wait(None)?;
        }
    }
}

impl Connector for Driver<'_> {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        let op = request.opcode();
        let start = now_ns();
        let slot: Arc<Mutex<Option<Result<Reply, PipelineError>>>> = Arc::default();
        let fill = slot.clone();
        self.client.submit(
            request,
            Box::new(move |r| *fill.lock().expect("slot lock poisoned") = Some(r)),
        );
        let out = loop {
            let pumped = self.pump();
            if let Some(r) = slot.lock().expect("slot lock poisoned").take() {
                break r.map_err(|e| e.to_string());
            }
            if let Err(e) = pumped {
                break Err(e);
            }
            self.wait(None)?;
        };
        self.calls += 1;
        if let Some(spans) = &mut self.spans {
            spans.push(ClientSpan {
                conn: self.conn,
                kind: ClientKind::Call,
                op,
                start,
                end: now_ns(),
            });
        }
        out
    }
}

/// What one driver thread hands back.
#[derive(Default)]
struct ConnOut {
    sent_ns: Vec<u64>,
    acks: Vec<Ack>,
    sync_ms: Vec<f64>,
    installed: u64,
    syncs: u64,
    calls: u64,
    failures: Vec<String>,
    /// Per sync stream (a connection's joiners, or one watcher): when a
    /// sync completed and how many signatures the repository then held.
    streams: Vec<Vec<(u64, usize)>>,
    watchers: Vec<LocalRepository>,
    spans: Vec<ClientSpan>,
}

fn sync_span(d: &mut Driver, start: u64) {
    let conn = d.conn;
    if let Some(spans) = &mut d.spans {
        spans.push(ClientSpan {
            conn,
            kind: ClientKind::Sync,
            op: "sync_delta",
            start,
            end: now_ns(),
        });
    }
}

/// Drives one connection until its ADDs are acked and its sync plan has
/// run one full round that started after every ADD of the trial was
/// acked (so every repository can hold every accepted signature).
fn drive(
    mut d: Driver,
    sync: SyncPlan,
    total_adds: usize,
    server: &CommunixServer,
    nodes: &Path,
    base: usize,
) -> Result<ConnOut, String> {
    crate::alloc::mark_driver();
    let mut out = ConnOut::default();
    match sync {
        SyncPlan::None => {}
        SyncPlan::Joiners => {
            let mut log: Vec<String> = Vec::new();
            let mut stream = Vec::new();
            for n in 0.. {
                let last = d.acked_all.load(Ordering::SeqCst) >= total_adds;
                let dir = nodes.join(format!("node-{}-{n}", d.conn));
                let mut repo = LocalRepository::open(&dir).map_err(|e| e.to_string())?;
                let start = now_ns();
                let got = sync_delta(&mut d, &mut repo, 0);
                let end = now_ns();
                sync_span(&mut d, start);
                out.syncs += 1;
                match got {
                    Ok(n) => {
                        out.installed += n as u64;
                        out.sync_ms.push((end - start) as f64 / 1e6);
                        stream.push((end, repo.len()));
                    }
                    Err(e) => out.failures.push(format!("joiner sync failed: {e}")),
                }
                log.extend(server.store().get_from(log.len()));
                let same = repo.len() <= log.len()
                    && (0..repo.len()).all(|i| repo.sig(i) == Some(log[i].as_str()));
                if !same {
                    out.failures.push(format!(
                        "joiner {n} on connection {} differs from the server log",
                        d.conn
                    ));
                }
                drop(repo);
                fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
                if last {
                    break;
                }
            }
            out.streams.push(stream);
        }
        SyncPlan::Watchers { k, period } => {
            // The clients were in sync with the preloaded store before the
            // server restarted: their cursors start at its end, and their
            // repositories hold only what they download from here on.
            let mut repos = Vec::with_capacity(k);
            for _ in 0..k {
                let mut repo = LocalRepository::in_memory();
                repo.set_sync_cursor(base).map_err(|e| e.to_string())?;
                repos.push(repo);
            }
            let mut streams = vec![Vec::new(); k];
            let mut next_round = now_ns();
            loop {
                d.idle_until(next_round)?;
                next_round = now_ns() + period.as_nanos() as u64;
                let last = d.acked_all.load(Ordering::SeqCst) >= total_adds;
                for (repo, stream) in repos.iter_mut().zip(&mut streams) {
                    let start = now_ns();
                    let got = sync_delta(&mut d, repo, 0);
                    let end = now_ns();
                    sync_span(&mut d, start);
                    out.syncs += 1;
                    match got {
                        Ok(n) => {
                            out.installed += n as u64;
                            out.sync_ms.push((end - start) as f64 / 1e6);
                            if n > 0 {
                                stream.push((end, base + repo.len()));
                            }
                        }
                        Err(e) => out.failures.push(format!("watcher sync failed: {e}")),
                    }
                }
                if last {
                    break;
                }
            }
            out.streams = streams;
            out.watchers = repos;
        }
    }
    d.finish_adds()?;
    out.sent_ns = std::mem::take(&mut d.sent_ns);
    out.acks = std::mem::take(&mut *d.acks.lock().expect("ack lock poisoned"));
    out.calls = d.calls;
    out.spans = d.spans.take().unwrap_or_default();
    d.client.shutdown();
    Ok(out)
}

fn hash(text: &str) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// A hash of every signature in the store's log, in index order, read
/// one server window at a time (the log itself is not copied).
fn log_hashes(store: &Store) -> Vec<u64> {
    let mut out = Vec::with_capacity(store.len());
    loop {
        let (window, total) = store.delta(out.len(), 4096);
        out.extend(window.iter().map(|s| hash(s)));
        if window.is_empty() || out.len() >= total {
            return out;
        }
    }
}

/// First time each stream held more than `index` signatures.
fn held_at(stream: &[(u64, usize)], index: usize) -> Option<u64> {
    let i = stream.partition_point(|&(_, len)| len <= index);
    stream.get(i).map(|&(t, _)| t)
}

/// Runs one trial. `traced` records spans, counts allocations and
/// replays the end state through the codec, db and store layers.
pub fn run_trial(env: &Env, n: usize, traced: bool) -> io::Result<Trial> {
    let mut trial = Trial::default();
    settle_disk();
    crate::alloc::trim();
    procfs::reset_peak_rss();
    let dir = prepare_dir(env, &format!("trial-{n}"))?;
    let store_dir = dir.join("store");
    let nodes = dir.join("nodes");
    fs::create_dir_all(&nodes)?;
    let rec = traced.then(|| Arc::new(Recorder::default()));
    let setup_spans = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let mut live = set_up(env, &store_dir, rec.as_ref(), setup_spans.as_ref())?;
    trial.setup_s = live.setup_s;

    let total_adds: usize = env.spec.conns.iter().map(|c| c.adds.count()).sum();
    let acked_all = Arc::new(AtomicUsize::new(0));
    trial.tele_before = Some(live.server.telemetry_snapshot());
    let proc_before = procfs::sample();
    if traced {
        crate::alloc::start();
    }
    let ticks = procfs::cpu_ticks();
    let start = now_ns();
    let drivers: Vec<Driver> = live
        .clients
        .drain(..)
        .enumerate()
        .map(|(c, client)| {
            let plan = env.spec.conns[c].adds;
            let count = plan.count();
            Driver {
                conn: c,
                client,
                plan,
                items: &env.inputs.conns[c],
                senders: std::mem::take(&mut live.senders[c]),
                schedule: plan.schedule(start),
                next: 0,
                sent_ns: vec![0; count],
                acks: Arc::new(Mutex::new(Vec::with_capacity(count))),
                acked_all: acked_all.clone(),
                calls: 0,
                spans: traced.then(Vec::new),
            }
        })
        .collect();
    let server = &live.server;
    let outs: Vec<(Result<ConnOut, String>, Usage)> = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .into_iter()
            .map(|d| {
                let sync = env.spec.conns[d.conn].sync;
                let nodes = &nodes;
                std::thread::Builder::new()
                    .name(format!("{DRIVER_THREAD_PREFIX}-{}", d.conn))
                    .spawn_scoped(s, move || {
                        let out =
                            drive(d, sync, total_adds, server, nodes, env.inputs.preload.len());
                        // The thread is gone before the trial's closing
                        // sample, so it reports its own counters.
                        (out, procfs::this_thread())
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (Err("driver thread panicked".into()), Usage::default()))
            })
            .collect()
    });
    let end = now_ns();
    trial.steal = procfs::stolen_share(ticks, procfs::cpu_ticks());
    let allocs = traced.then(crate::alloc::stop);
    trial.timed_s = (end - start) as f64 / 1e9;
    trial.usage = procfs::delta(&proc_before, &procfs::sample());
    trial.tele_after = Some(live.server.telemetry_snapshot());

    let mut outs_ok = Vec::new();
    for (c, (out, usage)) in outs.into_iter().enumerate() {
        trial.usage.entry(Group::Driver).or_default().add(usage);
        match out {
            Ok(o) => outs_ok.push(o),
            Err(e) => {
                trial.fail(format!("connection {c}: {e}"));
                outs_ok.push(ConnOut::default());
            }
        }
    }
    let store = live.server.store();
    let log = log_hashes(store);
    let streams: Vec<&Vec<(u64, usize)>> = outs_ok.iter().flat_map(|o| &o.streams).collect();

    let mut acked_fresh: Vec<&str> = Vec::new();
    for (c, out) in outs_ok.iter().enumerate() {
        let items = &env.inputs.conns[c];
        let plan = env.spec.conns[c].adds;
        trial.attempted += items.len() as u64 + out.syncs;
        trial.syncs += out.syncs;
        trial.calls += out.calls;
        trial.installed += out.installed;
        trial.sync_ms.extend(&out.sync_ms);
        for f in &out.failures {
            trial.fail(f.clone());
        }
        let missing_acks = items.len().saturating_sub(out.acks.len());
        for _ in 0..missing_acks {
            trial.fail(format!("connection {c}: ADD never acked"));
        }
        for (i, at, verdict) in &out.acks {
            let i = *i as usize;
            trial.acks += 1;
            if let Err(e) = verdict {
                trial.fail(format!("connection {c} item {i}: {e}"));
                continue;
            }
            // Open loop: from when the ADD was due; closed loop: from submit.
            let origin = match plan.schedule(start) {
                Some(schedule) => {
                    let due = schedule.due_ns(i);
                    trial.late_ms.push(late_ms(due, out.sent_ns[i]));
                    due
                }
                None => out.sent_ns[i],
            };
            trial.add_ms.push(latency_from_due_ms(origin, *at));
            if items[i].resend {
                continue;
            }
            acked_fresh.push(&items[i].text);
            trial.accepted_bytes += items[i].text.len() as u64;
            let Some(idx) = store.contains(&items[i].text) else {
                trial.fail(format!("connection {c} item {i}: acked but not in the log"));
                continue;
            };
            let held: Option<u64> = streams
                .iter()
                .map(|s| held_at(s, idx))
                .try_fold(0u64, |acc, t| t.map(|t| acc.max(t)));
            match held {
                Some(t) if !streams.is_empty() => {
                    trial.immunity_ms.push(latency_from_due_ms(origin, t));
                }
                _ => trial.fail(format!(
                    "connection {c} item {i}: not held by every syncing client"
                )),
            }
        }
        let base = env.inputs.preload.len();
        for (w, repo) in out.watchers.iter().enumerate() {
            let same = (0..(log.len() - base).max(repo.len()))
                .filter(|&i| repo.sig(i).map(hash) != log.get(base + i).copied())
                .count();
            if same > 0 {
                trial.failed += same as u64;
                if trial.failures.len() < KEEP_FAILURES {
                    trial.failures.push(format!(
                        "watcher {w} on connection {c}: {same} signatures differ from the log"
                    ));
                }
            }
        }
    }

    if let Some(rec) = &rec {
        let server_spans = rec.take_spans();
        let mut client_spans: Vec<ClientSpan> = setup_spans
            .as_ref()
            .map(|s| std::mem::take(&mut *s.lock().expect("span lock poisoned")))
            .unwrap_or_default();
        for (c, out) in outs_ok.iter().enumerate() {
            client_spans.extend(&out.spans);
            for (i, at, _) in &out.acks {
                client_spans.push(ClientSpan {
                    conn: c,
                    kind: ClientKind::Add,
                    op: "add",
                    start: out.sent_ns[*i as usize],
                    end: *at,
                });
            }
        }
        let (allocs_driver, allocs_server) = allocs.unwrap_or_default();
        let thread_conn = trace::thread_conns(&server_spans, |u| (u / USER_BLOCK) as usize - 1);
        let mut t = Traced {
            spans: TrialSpans {
                server: server_spans,
                client: client_spans,
                thread_conn,
            },
            allocs_driver,
            allocs_server,
            captured: std::mem::take(&mut *rec.captured.lock().expect("capture lock poisoned")),
            ..Traced::default()
        };
        crate::layers::replay_store(live.server.store(), &mut t);
        trial.traced = Some(t);
    }
    drop(outs_ok);
    shut_down(live);

    // Reopen the store from disk: every acked signature must come back.
    let start = now_ns();
    let reopened = builder().durable(&store_dir).build()?;
    trial.recovery_s = (now_ns() - start) as f64 / 1e9;
    let recovered = log_hashes(reopened.store());
    trial.misplaced = (0..log.len().max(recovered.len()))
        .filter(|&i| log.get(i) != recovered.get(i))
        .count() as u64;
    for text in acked_fresh {
        if reopened.store().contains(text).is_none() {
            trial.fail("acked signature missing after reopening the store".into());
        }
    }
    drop(reopened);
    fs::remove_dir_all(&dir)?;
    trial.peak_rss_mb = procfs::peak_rss_mb();
    Ok(trial)
}
