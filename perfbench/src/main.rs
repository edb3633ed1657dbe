//! Communix benchmark: catch-up sync, durable upload and time-to-immunity,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload catchup|upload|propagation --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The server runs in this process on
//! 127.0.0.1, durable in a scratch directory under `.perfbench/`, and is
//! driven by two threads over two connections. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the workload untraced and then
//! traced (half of `--seconds` each) and prints the per-layer metrics,
//! the tracing overhead and writes the first traced trial's span file. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod alloc;
mod harness;
mod layers;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Env, Trial};
use stats::{nearest_rank, now_ns};
use workload::{Inputs, Spec, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up-only rounds per phase; `setup_s` comes from them.
const SETUP_ROUNDS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The trials of one phase and its set-up-only rounds (set-up time and
/// the CPU steal it saw).
struct Phase {
    trials: Vec<Trial>,
    setups: Vec<(f64, f64)>,
}

/// Runs trials, each after a set-up-only round, until `seconds` would be
/// exceeded by one more (at least one), then the rest of the
/// [`SETUP_ROUNDS`].
///
/// `setup_s` comes from the rounds alone: a trial's own set-up follows
/// the previous trial's teardown, and a handful of those jumped between
/// a fast and a slow mode from run to run. The rounds are spread over
/// the run so that they see the same host as the trials do.
fn run_phase(env: &Env, seconds: f64, traced: bool, first: usize) -> io::Result<Phase> {
    let start = now_ns();
    let elapsed = || (now_ns() - start) as f64 / 1e9;
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut setup_time = 0.0;
    let mut trials = Vec::new();
    loop {
        let t0 = now_ns();
        setups.push(harness::setup_only(env, setups.len(), traced)?);
        let t1 = now_ns();
        trials.push(harness::run_trial(env, first + trials.len(), traced)?);
        setup_time += (t1 - t0) as f64 / 1e9;
        let took = (now_ns() - t1) as f64 / 1e9;
        // One more trial costs a round and a trial; stopping here costs
        // the rounds still missing.
        let rounds = SETUP_ROUNDS.saturating_sub(setups.len()).max(1) as f64;
        if elapsed() + took + rounds * setup_time / setups.len() as f64 > seconds {
            break;
        }
    }
    while setups.len() < SETUP_ROUNDS {
        setups.push(harness::setup_only(env, setups.len(), traced)?);
    }
    let tag = if traced { " traced" } else { "" };
    for (i, t) in trials.iter().enumerate() {
        let values: Vec<String> = E2E
            .iter()
            .zip(trial_values(t))
            .map(|((name, _), v)| format!("{name}={v:.4}"))
            .collect();
        println!(
            "trial {}{tag}: {} steal={:.3} ({} ADD samples, {} sync samples, {} immunity samples)",
            first + i,
            values.join(" "),
            t.steal,
            t.add_ms.len(),
            t.sync_ms.len(),
            t.immunity_ms.len(),
        );
    }
    let shown: Vec<String> = setups
        .iter()
        .map(|(s, steal)| format!("{s:.4}/{steal:.2}"))
        .collect();
    println!("set-up rounds{tag} (s/steal): {}", shown.join(" "));
    Ok(Phase { trials, setups })
}

type Metric = (String, &'static str, f64);

/// End-to-end metrics: name and unit.
const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("sync_sigs_per_s", "sigs/s"),
    ("sync_p50_ms", "ms"),
    ("sync_p99_ms", "ms"),
    ("add_acks_per_s", "acks/s"),
    ("add_p50_ms", "ms"),
    ("add_p99_ms", "ms"),
    ("immunity_p50_ms", "ms"),
    ("immunity_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One trial's value of every [`E2E`] metric, in order.
fn trial_values(t: &Trial) -> [f64; 10] {
    let q = |v: &[f64], q: f64| nearest_rank(v, q).map_or(0.0, |p| p.value);
    [
        t.setup_s,
        t.installed as f64 / t.timed_s,
        q(&t.sync_ms, 0.5),
        q(&t.sync_ms, 0.99),
        t.acks as f64 / t.timed_s,
        q(&t.add_ms, 0.5),
        q(&t.add_ms, 0.99),
        q(&t.immunity_ms, 0.5),
        q(&t.immunity_ms, 0.99),
        t.peak_rss_mb,
    ]
}

/// The end-to-end metrics of a phase: each metric's median over the
/// phase's quiet trials ([`stats::quiet`] by CPU steal), and `setup_s`
/// the median over its quiet set-up-only rounds. The first trial warms
/// caches, the allocator and the disk up, and is checked but not
/// measured when there are others.
///
/// On a shared host the hypervisor withholds anywhere from none to half
/// of the CPU time the VM asks for, changing from second to second, and
/// every timing and rate follows it. Steal is counted by the VM's kernel,
/// apart from the program, so choosing trials by it drops the disturbed
/// ones without looking at their results. Percentiles are per trial, not
/// pooled: one trial with a disk stall then moves the median of the
/// trials' p99s by one rank instead of owning the pooled tail.
fn end_to_end(p: &Phase) -> Vec<Metric> {
    let measured = if p.trials.len() > 1 {
        &p.trials[1..]
    } else {
        &p.trials[..]
    };
    let steal: Vec<f64> = measured.iter().map(|t| t.steal).collect();
    let quiet: Vec<[f64; 10]> = stats::quiet(&steal)
        .into_iter()
        .map(|i| trial_values(&measured[i]))
        .collect();
    let (setup_s, setup_steal): (Vec<f64>, Vec<f64>) = p.setups.iter().copied().unzip();
    let setup: Vec<f64> = stats::quiet(&setup_steal)
        .into_iter()
        .map(|i| setup_s[i])
        .collect();
    E2E.iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let v = if name == "setup_s" {
                stats::median(&setup)
            } else {
                stats::median(&quiet.iter().map(|v| v[i]).collect::<Vec<f64>>())
            };
            (name.to_string(), unit, v)
        })
        .collect()
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the outcome of a phase's checks; returns `(attempted, failed)`.
fn report_checks(label: &str, trials: &[Trial]) -> (u64, u64) {
    let attempted: u64 = trials.iter().map(|t| t.attempted).sum();
    let failed: u64 = trials.iter().map(|t| t.failed).sum();
    let misplaced: u64 = trials.iter().map(|t| t.misplaced).sum();
    let syncs: u64 = trials.iter().map(|t| t.syncs).sum();
    let acks: u64 = trials.iter().map(|t| t.acks).sum();
    println!(
        "{label}: {} trials, {acks} ADDs acked, {syncs} syncs; error_rate = {} ({failed}/{attempted}) fraction",
        trials.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    println!(
        "{label}: store.recovery_misplaced = {misplaced} count (log indices that moved across a reopen; shown, not gated)"
    );
    for f in trials.iter().flat_map(|t| &t.failures) {
        println!("{label}: FAILED {f}");
    }
    let share = layers::runqueue_wait_share(trials);
    println!(
        "{label}: runqueue wait share {share:.3}{}",
        if share > layers::SCHEDULER_BOUND {
            " -- SCHEDULER-BOUND: CPU contention, not the program, set these numbers"
        } else {
            ""
        }
    );
    (attempted, failed)
}

fn print_e2e(label: &str, metrics: &[Metric]) {
    for (name, unit, v) in metrics {
        println!("{label}: {name:<16} {v:>14.4} {unit}");
    }
}

fn run(args: &Args, root: &Path) -> io::Result<(bool, u64, u64, Vec<Metric>)> {
    let spec = Spec::of(args.workload);
    let inputs = Inputs::generate(&spec, args.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={} inputs digest={:016x} adds={}+{} preload={} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.digest,
        inputs.conns[0].len(),
        inputs.conns[1].len(),
        inputs.preload.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let work = root.join(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work)?;
    let base = if inputs.preload.is_empty() {
        None
    } else {
        let dir = work.join("base");
        harness::write_preload(&dir, &inputs.preload, spec.preload_snapshot)?;
        Some(dir)
    };
    let env = Env {
        spec: &spec,
        inputs: &inputs,
        work: work.clone(),
        base,
    };
    let secs = args.seconds as f64;
    let result = if !args.trace {
        let phase = run_phase(&env, secs, false, 0)?;
        let e2e = end_to_end(&phase);
        print_e2e("e2e", &e2e);
        let (attempted, failed) = report_checks("e2e", &phase.trials);
        (failed == 0, attempted, failed, e2e)
    } else {
        let plain = run_phase(&env, secs / 2.0, false, 0)?;
        let traced = run_phase(&env, secs / 2.0, true, plain.trials.len())?;
        let (e_plain, e_traced) = (end_to_end(&plain), end_to_end(&traced));
        print_e2e("untraced", &e_plain);
        print_e2e("traced", &e_traced);
        let (a1, f1) = report_checks("untraced", &plain.trials);
        let (a2, f2) = report_checks("traced", &traced.trials);
        let mut metrics = layers::per_layer(&traced.trials);
        for ((name, unit, u), (_, _, t)) in e_plain.iter().zip(&e_traced) {
            metrics.push((format!("harness.tracing_overhead.{name}"), unit, t - u));
        }
        let (attempted, failed) = (a1 + a2, f1 + f2);
        metrics.push((
            "error_rate".to_string(),
            "fraction",
            failed as f64 / attempted.max(1) as f64,
        ));
        for (name, unit, v) in &metrics {
            println!("layer: {name:<40} {v:>14.4} {unit}");
        }
        let path = root.join(".perfbench").join("spans").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Some(tr) = traced.trials.first().and_then(|t| t.traced.as_ref()) {
            tr.spans.write(&path)?;
        }
        println!("spans written to {}", path.display());
        (failed == 0, attempted, failed, metrics)
    };
    fs::remove_dir_all(&work)?;
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &root) {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {}}}"#,
                attempted.max(1),
                json_metrics(&metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::from(1)
        }
    }
}
