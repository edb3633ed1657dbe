//! Per-layer numbers of the traced run, each taken from outside the
//! layer: spans around calls into it, the program's telemetry registry,
//! per-thread OS accounting, and replays of captured requests, replies
//! and the end-state store through the layer's public functions.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use communix_net::{deframe, frame_reply_into, frame_request_into, Reply, Request};
use communix_server::Store;
use communix_telemetry::Snapshot;

use crate::harness::{Traced, Trial};
use crate::procfs::{Group, Usage};
use crate::stats::{nearest_rank, self_time};
use crate::trace::{ClientKind, ClientSpan};

/// Minimum wall time of one replay measurement.
const REPLAY_NS: u128 = 30_000_000;

/// Runs `f` until `REPLAY_NS` has passed; returns nanoseconds per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_nanos() < REPLAY_NS || calls == 0 {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Replays the live end-state store: one server window of `Store::delta`
/// from index 0, and one `Store::snapshot`.
pub fn replay_store(store: &Store, t: &mut Traced) {
    let window = store.len().clamp(1, 4096);
    let ns = time_per_call(|| {
        black_box(store.delta(black_box(0), window));
    });
    t.delta_us_per_sig = ns / 1e3 / window as f64;
    let start = Instant::now();
    if store.snapshot().is_ok() {
        t.snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
    }
}

/// Codec replay over the captured DELTA replies and ADD_BATCH requests:
/// `(encode ns/KB, decode ns/KB, request decode ns/item)`.
fn replay_codec(traced: &[&Traced]) -> (f64, f64, f64) {
    let replies: Vec<&Reply> = traced.iter().flat_map(|t| &t.captured.replies).collect();
    let batches: Vec<&Request> = traced.iter().flat_map(|t| &t.captured.batches).collect();
    let mut buf = BytesMut::new();
    let mut reply_bytes = 0usize;
    let mut payloads = Vec::new();
    for r in &replies {
        buf.clear();
        frame_reply_into(r, &mut buf);
        reply_bytes += buf.len();
        if let Ok(Some(p)) = deframe(&mut buf) {
            payloads.push(p);
        }
    }
    let kb = (reply_bytes as f64 / 1024.0).max(f64::MIN_POSITIVE);
    let encode = time_per_call(|| {
        for r in &replies {
            buf.clear();
            frame_reply_into(r, &mut buf);
            black_box(buf.len());
        }
    }) / kb;
    let decode = time_per_call(|| {
        for p in &payloads {
            black_box(Reply::decode(p.clone()).is_ok());
        }
    }) / kb;
    let mut items = 0usize;
    let mut requests = Vec::new();
    for r in &batches {
        if let Request::AddBatch { adds } = r {
            items += adds.len();
        }
        buf.clear();
        frame_request_into(r, &mut buf);
        if let Ok(Some(p)) = deframe(&mut buf) {
            requests.push(p);
        }
    }
    let per_item = if items == 0 {
        0.0
    } else {
        time_per_call(|| {
            for p in &requests {
                black_box(Request::decode(p.clone()).is_ok());
            }
        }) / items as f64
    };
    (encode, decode, per_item)
}

fn counter(s: &Option<Snapshot>, name: &str) -> u64 {
    s.as_ref().and_then(|s| s.counter(name)).unwrap_or(0)
}

/// Counter growth over the timed phases of `trials`.
fn grew(trials: &[Trial], name: &str) -> f64 {
    trials
        .iter()
        .map(|t| counter(&t.tele_after, name).saturating_sub(counter(&t.tele_before, name)))
        .sum::<u64>() as f64
}

/// Growth of every counter whose name starts with `prefix` and ends with
/// `suffix`.
fn grew_matching(trials: &[Trial], prefix: &str, suffix: &str) -> f64 {
    trials
        .iter()
        .map(|t| {
            let names = |s: &Option<Snapshot>| -> u64 {
                s.as_ref().map_or(0, |s| {
                    s.counters
                        .iter()
                        .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
                        .map(|(_, v)| *v)
                        .sum()
                })
            };
            names(&t.tele_after).saturating_sub(names(&t.tele_before))
        })
        .sum::<u64>() as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn pct(v: &[f64], q: f64) -> f64 {
    nearest_rank(v, q).map_or(0.0, |p| p.value)
}

fn usage(trials: &[Trial], groups: &[Group]) -> Usage {
    let mut u = Usage::default();
    for t in trials {
        for g in groups {
            if let Some(x) = t.usage.get(g) {
                u.add(*x);
            }
        }
    }
    u
}

const SERVER_GROUPS: [Group; 4] = [Group::Reactor, Group::Accept, Group::WalFlush, Group::Other];

/// Share of thread time spent runnable but waiting for a CPU, over every
/// thread of the process. Above [`SCHEDULER_BOUND`] the scheduler, not
/// the program, set the run's numbers.
pub fn runqueue_wait_share(trials: &[Trial]) -> f64 {
    let all = usage(
        trials,
        &[
            Group::Reactor,
            Group::Accept,
            Group::WalFlush,
            Group::Driver,
            Group::Other,
        ],
    );
    ratio(all.wait_ns as f64, (all.wait_ns + all.cpu_ns) as f64)
}

pub const SCHEDULER_BOUND: f64 = 0.25;

/// Every per-layer metric as `(name, unit, value)`.
pub fn per_layer(trials: &[Trial]) -> Vec<(String, &'static str, f64)> {
    let traced: Vec<&Traced> = trials.iter().filter_map(|t| t.traced.as_ref()).collect();
    let client: Vec<&ClientSpan> = traced.iter().flat_map(|t| &t.spans.client).collect();
    let spans_of = |kind: ClientKind, op: &str| -> Vec<f64> {
        client
            .iter()
            .filter(|c| c.kind == kind && c.op == op)
            .map(|c| (c.end - c.start) as f64 / 1e3)
            .collect()
    };
    let matched: Vec<_> = traced.iter().flat_map(|t| t.spans.matched()).collect();
    let self_of = |op: &str| -> Vec<f64> {
        matched
            .iter()
            .filter(|m| m.client.op == op)
            .map(|m| {
                let c = (m.client.start, m.client.end);
                self_time(c, &[(m.server.start, m.server.end)]) as f64 / 1e3
            })
            .collect()
    };
    let server = |op: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|t| &t.spans.server)
            .filter(|s| s.op == op)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    };
    let add_item: Vec<f64> = traced
        .iter()
        .flat_map(|t| &t.spans.server)
        .filter(|s| s.op == "add" || s.op == "add_batch")
        .map(|s| (s.end - s.start) as f64 / 1e3 / f64::from(s.items.max(1)))
        .collect();
    let batch_items: Vec<f64> = traced
        .iter()
        .flat_map(|t| &t.spans.server)
        .filter(|s| s.op == "add_batch")
        .map(|s| f64::from(s.items))
        .collect();
    // Sync self time: the sync span minus its Connector::call children.
    let sync_self: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.spans.syncs_with_calls())
        .map(|(s, calls)| {
            let kids: Vec<(u64, u64)> = calls.iter().map(|c| (c.start, c.end)).collect();
            self_time((s.start, s.end), &kids) as f64 / 1e3
        })
        .collect();
    let (encode, decode, req_decode) = replay_codec(&traced);

    let frames = grew_matching(trials, "transport.reactor.", ".frames");
    let reactor = usage(trials, &[Group::Reactor]);
    let server_use = usage(trials, &SERVER_GROUPS);
    let driver = usage(trials, &[Group::Driver]);
    let flusher = usage(trials, &[Group::WalFlush]);
    let accepted = grew(trials, "server.adds.accepted");
    let adds_total =
        accepted + grew(trials, "server.adds.duplicate") + grew(trials, "server.adds.rejected");
    let accepted_bytes: f64 = trials.iter().map(|t| t.accepted_bytes as f64).sum();
    let syncs: f64 = trials.iter().map(|t| t.syncs as f64).sum();
    let calls: f64 = trials.iter().map(|t| t.calls as f64).sum();
    let installed: f64 = trials.iter().map(|t| t.installed as f64).sum();
    let acks: f64 = trials.iter().map(|t| t.acks as f64).sum();
    let allocs_driver: f64 = traced.iter().map(|t| t.allocs_driver as f64).sum();
    let allocs_server: f64 = traced.iter().map(|t| t.allocs_server as f64).sum();
    let mut fsync = communix_telemetry::HistogramSnapshot::empty();
    for t in trials {
        if let Some(h) = t
            .tele_after
            .as_ref()
            .and_then(|s| s.histogram("store.wal.fsync"))
        {
            fsync.merge(h);
        }
    }
    let n = trials.len().max(1) as f64;
    let recovery: Vec<f64> = trials.iter().map(|t| t.recovery_s).collect();
    let late: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.late_ms.iter().copied())
        .collect();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);

    let m = |name: &str, unit: &'static str, value: f64| (name.to_string(), unit, value);
    vec![
        m(
            "transport.rtt_us.get_delta",
            "us",
            pct(&spans_of(ClientKind::Call, "get_delta"), 0.5),
        ),
        m(
            "transport.rtt_us.add",
            "us",
            pct(&spans_of(ClientKind::Add, "add"), 0.5),
        ),
        m(
            "transport.rtt_us.issue_id",
            "us",
            pct(&spans_of(ClientKind::Call, "issue_id"), 0.5),
        ),
        m(
            "transport.self_us.get_delta",
            "us",
            pct(&self_of("get_delta"), 0.5),
        ),
        m("transport.self_us.add", "us", pct(&self_of("add"), 0.5)),
        m(
            "transport.reactor_cpu_us_per_req",
            "us",
            ratio(reactor.cpu_ns as f64 / 1e3, frames),
        ),
        m(
            "transport.syscalls_per_req",
            "count",
            ratio(reactor.syscalls as f64, frames),
        ),
        m(
            "transport.ctx_switches_per_req",
            "count",
            ratio(reactor.switches as f64, frames),
        ),
        m(
            "transport.runqueue_wait_share",
            "fraction",
            runqueue_wait_share(trials),
        ),
        m(
            "transport.backpressure_stalls",
            "count",
            grew(trials, "transport.backpressure_stalls"),
        ),
        m("codec.encode_reply_ns_per_kb", "ns/KB", encode),
        m("codec.decode_reply_ns_per_kb", "ns/KB", decode),
        m("codec.decode_request_ns_per_item", "ns", req_decode),
        m(
            "server.handle_us.get_delta.p50",
            "us",
            pct(&server("get_delta"), 0.5),
        ),
        m(
            "server.handle_us.get_delta.p99",
            "us",
            pct(&server("get_delta"), 0.99),
        ),
        m("server.handle_us.add_item.p50", "us", pct(&add_item, 0.5)),
        m(
            "server.handle_us.add_batch.p99",
            "us",
            pct(&server("add_batch"), 0.99),
        ),
        m(
            "server.dedup_hit_ratio",
            "fraction",
            ratio(grew(trials, "server.dedup.fast_path_hits"), adds_total),
        ),
        m("server.batch_items", "count", mean(&batch_items)),
        m(
            "server.rejects",
            "count",
            grew(trials, "server.adds.rejected"),
        ),
        m(
            "server.allocs_per_req",
            "count",
            ratio(allocs_server, frames),
        ),
        m(
            "db.delta_us_per_sig",
            "us",
            mean(
                &traced
                    .iter()
                    .map(|t| t.delta_us_per_sig)
                    .collect::<Vec<_>>(),
            ),
        ),
        m(
            "store.fsyncs_per_add",
            "count",
            ratio(grew(trials, "store.wal.fsyncs"), accepted),
        ),
        m("store.fsync_p99_us", "us", fsync.p99() / 1e3),
        m(
            "store.wal_bytes_per_byte",
            "B/B",
            ratio(grew(trials, "store.wal.bytes"), accepted_bytes),
        ),
        m(
            "store.disk_bytes_per_byte",
            "B/B",
            ratio(server_use.write_bytes as f64, accepted_bytes),
        ),
        m(
            "store.snapshots",
            "count",
            grew(trials, "store.snapshot.taken") / n,
        ),
        m(
            "store.snapshot_ms",
            "ms",
            mean(&traced.iter().map(|t| t.snapshot_ms).collect::<Vec<_>>()),
        ),
        m(
            "store.flusher_cpu_ms",
            "ms",
            flusher.cpu_ns as f64 / 1e6 / n,
        ),
        m("store.recovery_s", "s", crate::stats::median(&recovery)),
        m(
            "store.recovery_misplaced",
            "count",
            trials.iter().map(|t| t.misplaced as f64).sum(),
        ),
        m("client.sync_self_us", "us", pct(&sync_self, 0.5)),
        m("client.calls_per_sync", "count", ratio(calls, syncs)),
        m(
            "client.repo_write_bytes_per_sig",
            "B",
            ratio(driver.write_bytes as f64, installed),
        ),
        m(
            "client.driver_cpu_us_per_op",
            "us",
            ratio(driver.cpu_ns as f64 / 1e3, syncs + acks),
        ),
        m(
            "client.allocs_per_sync",
            "count",
            ratio(allocs_driver, syncs),
        ),
        m("harness.late_p99_ms", "ms", pct(&late, 0.99)),
    ]
}
