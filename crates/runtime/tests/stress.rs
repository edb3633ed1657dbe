//! Stress test for the real-OS-threads runtime: the classic bank-transfer
//! deadlock under genuine concurrency.
//!
//! `transfer(a, b)` locks account `a` then account `b`; concurrent
//! opposite-direction transfers deadlock. After Dimmunix captures one
//! signature, *no transfer ever deadlocks again* — the signature's call
//! stacks match every account pair (lock identity is existential in the
//! instantiation check), so avoidance serializes conflicting transfers.
//! This is also the paper's false-positive trade-off made visible: one
//! signature, learned once, covers (and serializes) the whole transfer
//! path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use communix_dimmunix::{DimmunixConfig, Event, LockId};
use communix_runtime::DlxRuntime;

const ACCOUNTS: usize = 6;
const THREADS: usize = 6;
const TRANSFERS_PER_THREAD: usize = 40;
/// How long a teller holds the debited account before crediting.
const DEBIT_TIME: Duration = Duration::from_micros(200);

/// Runs a randomized transfer workload; returns (completed, aborted,
/// deadlocks detected during this phase).
fn run_phase(rt: &DlxRuntime, seed: u64) -> (u64, u64, usize) {
    let accounts: Vec<LockId> = (0..ACCOUNTS)
        .map(|i| rt.named_lock(&format!("account{i}")))
        .collect();
    let completed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    // Every teller starts each transfer round together, holding no
    // lock, so transfers overlap by construction rather than by
    // scheduler luck.
    let round_start = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let round_start = &round_start;
            let rt = rt.clone();
            let accounts = accounts.clone();
            let completed = completed.clone();
            let aborted = aborted.clone();
            scope.spawn(move || {
                let thread = rt.register_thread();
                // Same entry site for every teller thread: signatures
                // must generalize over thread identity, as in Java where
                // every worker runs the same `run()` line.
                thread.push_frame("bank.Teller", "run", 1);
                let mut state = seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    round_start.wait();
                    let from = next() % ACCOUNTS;
                    let mut to = next() % ACCOUNTS;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    // The deadlock-prone transfer: from-lock, then
                    // to-lock, identical call sites for every pair.
                    thread.push_frame("bank.Teller", "transfer", 10);
                    let first = thread.lock(accounts[from]);
                    match first {
                        Err(_) => {
                            aborted.fetch_add(1, Ordering::Relaxed);
                            thread.pop_frame();
                            continue;
                        }
                        Ok(guard_a) => {
                            // Debit takes a moment: the other tellers,
                            // released by the same barrier, reach their
                            // first lock while this one is held.
                            std::thread::sleep(DEBIT_TIME);
                            thread.push_frame("bank.Teller", "credit", 11);
                            match thread.lock(accounts[to]) {
                                Ok(guard_b) => {
                                    completed.fetch_add(1, Ordering::Relaxed);
                                    drop(guard_b);
                                }
                                Err(_) => {
                                    aborted.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            thread.pop_frame();
                            drop(guard_a);
                        }
                    }
                    thread.pop_frame();
                }
            });
        }
    });

    let deadlocks = rt
        .drain_events()
        .iter()
        .filter(|e| matches!(e, Event::DeadlockDetected { .. }))
        .count();
    (
        completed.load(Ordering::Relaxed),
        aborted.load(Ordering::Relaxed),
        deadlocks,
    )
}

#[test]
fn immunity_accumulates_under_real_concurrency() {
    // Phase 1: detection only — deadlocks happen, victims abort, every
    // thread still terminates (no hangs), signatures accumulate.
    let rt = DlxRuntime::new(DimmunixConfig::detection_only());
    let (done1, aborted1, deadlocks1) = run_phase(&rt, 0xBEEF);
    let total = (THREADS * TRANSFERS_PER_THREAD) as u64;
    assert_eq!(done1 + aborted1, total, "every transfer concludes");
    let history = rt.history();
    assert_eq!(
        aborted1 as usize, deadlocks1,
        "every abort corresponds to a detected deadlock"
    );

    // Phase 2: a fresh runtime armed with phase 1's history. If phase 1
    // saw any deadlock, its signature covers *every* transfer pair, so
    // phase 2 must complete all transfers with zero deadlocks.
    if history.is_empty() {
        // Extremely unlikely scheduling fluke; nothing to verify.
        return;
    }
    let rt2 = DlxRuntime::new(DimmunixConfig::default());
    rt2.set_history(history);
    let (done2, aborted2, deadlocks2) = run_phase(&rt2, 0xF00D);
    assert_eq!(deadlocks2, 0, "immunized run must not deadlock");
    assert_eq!(aborted2, 0, "no victims without deadlocks");
    assert_eq!(done2, total, "all transfers complete (serialized)");
    assert!(
        rt2.stats().suspensions > 0,
        "the protection is avoidance, not luck"
    );
}

#[test]
fn ordered_locking_never_triggers_avoidance() {
    // The fixed program (lock lower-numbered account first) neither
    // deadlocks nor matches the inversion signature's second position —
    // ordered code runs at full speed even with the signature loaded.
    let rt = DlxRuntime::new(DimmunixConfig::detection_only());
    let (_, _, _) = run_phase(&rt, 0xBEEF); // learn the buggy signature
    let history = rt.history();
    if history.is_empty() {
        return;
    }

    let rt2 = DlxRuntime::new(DimmunixConfig::default());
    rt2.set_history(history);
    let accounts: Vec<LockId> = (0..ACCOUNTS)
        .map(|i| rt2.named_lock(&format!("account{i}")))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = rt2.clone();
            let accounts = accounts.clone();
            scope.spawn(move || {
                let thread = rt.register_thread();
                thread.push_frame("bank.Teller", "runOrdered", 2);
                for i in 0..20 {
                    let a = i % ACCOUNTS;
                    let b = (i + 1 + t) % ACCOUNTS;
                    if a == b {
                        continue;
                    }
                    let (lo, hi) = (a.min(b), a.max(b));
                    // Different call sites than the buggy transfer(): the
                    // signature cannot be instantiated by this code.
                    thread.push_frame("bank.Teller", "orderedTransfer", 30);
                    let ga = thread.lock(accounts[lo]).expect("no deadlock");
                    thread.push_frame("bank.Teller", "orderedCredit", 31);
                    let gb = thread.lock(accounts[hi]).expect("no deadlock");
                    drop(gb);
                    thread.pop_frame();
                    drop(ga);
                    thread.pop_frame();
                }
            });
        }
    });
    let stats = rt2.stats();
    assert_eq!(stats.deadlocks_detected, 0);
    assert_eq!(
        stats.suspensions, 0,
        "ordered code's stacks do not match the buggy signature"
    );
}
