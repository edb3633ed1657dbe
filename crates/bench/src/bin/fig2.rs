//! Figure 2 — the performance of the Communix server.
//!
//! "To evaluate the server's performance, we invoke the request
//! processing routines from 1,000-100,000 simultaneous threads. This test
//! measures the efficiency of the server's computations, i.e., adding new
//! random signatures to the database (including the server-side signature
//! validation) and iterating through the entire database. [...] the
//! server scales well up to 30,000 simultaneous ADD(sig),GET(0) sequences.
//! At its peak, the server processes 9,000 requests per second."
//!
//! Reproduction notes: each of the `N` logical clients performs one
//! `ADD(random sig), GET(0)` sequence against an in-process
//! [`CommunixServer`]. Concurrency scales with `N` (capped at 256 OS
//! threads for sanity — the paper's 100k JVM threads time-share cores
//! exactly the same way). GET(0) runs as a database walk
//! ([`CommunixServer::handle_get_scan`]) matching the paper's description
//! of the measured computation. The expected *shape*: throughput rises
//! with N while added parallelism amortizes fixed costs, then collapses
//! once the O(N) GET(0) walks over the ever-growing database dominate.
//!
//! Run: `cargo run -p communix-bench --release --bin fig2 [--full]`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use communix_bench::{arg_flag, banner, fmt_rate, row};
use communix_clock::SystemClock;
use communix_net::Request;
use communix_server::{CommunixServer, ServerConfig};
use communix_workloads::SigGen;

/// One sweep point: N ADD+GET(0) sequences against a fresh server.
/// Returns requests/second (2 requests per sequence).
fn sweep_point(n: usize) -> f64 {
    let server = Arc::new(CommunixServer::new(
        ServerConfig::default(),
        Arc::new(SystemClock::new()),
    ));

    // Concurrency grows with N, as in the paper's "N simultaneous
    // threads", capped to keep thread spawn overhead out of the way.
    let workers = (n / 100).clamp(8, 256).min(n);

    // Pre-generate signatures and ids outside the timed region: the
    // figure measures the server, not the workload generator.
    let jobs: Vec<Vec<(Request, u64)>> = (0..workers)
        .map(|w| {
            let mut gen = SigGen::new(0xF162 ^ w as u64);
            let lo = n * w / workers;
            let hi = n * (w + 1) / workers;
            (lo..hi)
                .map(|i| {
                    let sig = gen.random_signature();
                    let id = server.authority().issue(i as u64);
                    (
                        Request::Add {
                            sender: id,
                            sig_text: sig.to_string(),
                        },
                        i as u64,
                    )
                })
                .collect()
        })
        .collect();

    let rejected = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for batch in jobs {
            let server = server.clone();
            let rejected = rejected.clone();
            scope.spawn(move || {
                for (add, _user) in batch {
                    match server.handle(add) {
                        communix_net::Reply::AddAck { accepted: true, .. } => {}
                        _ => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // GET(0): walk the whole database.
                    let _ = server.handle_get_scan(0);
                }
            });
        }
    });
    let elapsed = start.elapsed();

    assert_eq!(
        rejected.load(Ordering::Relaxed),
        0,
        "random signatures from distinct users must all be accepted"
    );
    assert_eq!(server.store().len(), n);
    (2 * n) as f64 / elapsed.as_secs_f64()
}

fn main() {
    banner(
        "Figure 2 — Communix server throughput (ADD(sig),GET(0) sequences)",
        "scales to ~30k simultaneous sequences; peak ≈ 9,000 req/s, declining beyond",
    );

    let mut points = vec![1_000, 5_000, 10_000, 20_000, 30_000, 40_000, 50_000];
    if arg_flag("--full") {
        points.extend([75_000, 100_000]);
    }

    row(&["N sequences", "workers", "req/s"]);
    let mut series = Vec::new();
    for &n in &points {
        let rate = sweep_point(n);
        let workers = (n / 100).clamp(8, 256).min(n);
        row(&[&format!("{n}"), &format!("{workers}"), &fmt_rate(rate)]);
        series.push((n, rate));
    }

    // Shape check: the peak is strictly inside the sweep (throughput
    // rises, then the quadratic GET(0) cost wins).
    let peak = series
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");
    let last = series.last().expect("non-empty sweep");
    println!();
    println!(
        "peak: {} at N={} | tail: {} at N={} ({}).",
        fmt_rate(peak.1),
        peak.0,
        fmt_rate(last.1),
        last.0,
        if peak.0 < last.0 {
            "throughput declines past the peak, as in the paper"
        } else {
            "WARNING: no interior peak observed at this scale"
        }
    );
}
