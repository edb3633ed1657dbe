//! The three workloads and their seeded inputs.
//!
//! Every run uses two connections, each driven by one thread. A
//! connection carries an ADD plan (open loop on a schedule, or closed
//! loop with a bound on outstanding ADDs) and a sync plan (joining nodes
//! that sync from cursor 0 into fresh disk repositories, or logical
//! clients that sync incrementally into in-memory repositories). All
//! three workloads report every end-to-end metric; they differ in which
//! path dominates:
//!
//! * `catchup` — read path with large replies: both connections run
//!   joining nodes against a recovered store of 5,000 signatures
//!   (≈8.7 MB, above one 4,096-signature server window and several times
//!   a 4 MiB L2). Each connection also uploads a trickle (50/s) so
//!   time-to-immunity through joining nodes is defined.
//! * `upload` — durable write path: both connections keep up to 256
//!   ADDs outstanding until 21,334 each are acked: 16,065 fresh
//!   signatures (32,130 in all, crossing three 16 MiB snapshot cuts) and
//!   5,269 exact re-sends of ADDs already acked. One logical client syncs
//!   every 5 ms beside them.
//! * `propagation` — writes beside reads: the server restarts on 9,000
//!   signatures left in its WAL (just under one 16 MiB snapshot cut), so
//!   a short trial crosses exactly one cut. One connection uploads 3,000
//!   fresh signatures open-loop at 1,000/s, well below saturation; the
//!   other cycles 20 in-memory logical clients, in sync with the store
//!   before the restart, back to back through `sync_delta`.
//!
//! Trials are short and repeated until the run's time is spent, so each
//! percentile pools many trials and each trial sees the same store size.

use std::time::Duration;

use communix_workloads::SigGen;

use crate::stats::Schedule;

/// Fresh signatures per sender id; the server accepts at most 10 per
/// sender per day (§III-C1).
pub const SIGS_PER_SENDER: usize = 8;
/// Sender ids of connection `c` are `(c + 1) * USER_BLOCK + k`.
pub const USER_BLOCK: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Catchup,
    Upload,
    Propagation,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "catchup" => Some(Workload::Catchup),
            "upload" => Some(Workload::Upload),
            "propagation" => Some(Workload::Propagation),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Catchup => "catchup",
            Workload::Upload => "upload",
            Workload::Propagation => "propagation",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum AddPlan {
    None,
    /// `count` ADDs due at `rate` per second from the trial's start.
    Open {
        count: usize,
        rate: f64,
    },
    /// `count` ADDs, at most `cap` outstanding; every `resend_every`-th
    /// one is an exact re-send of an ADD already acked on this connection.
    Closed {
        count: usize,
        cap: usize,
        resend_every: usize,
    },
}

impl AddPlan {
    pub fn count(&self) -> usize {
        match *self {
            AddPlan::None => 0,
            AddPlan::Open { count, .. } | AddPlan::Closed { count, .. } => count,
        }
    }

    /// The send schedule of an open loop started at `start_ns`.
    pub fn schedule(&self, start_ns: u64) -> Option<Schedule> {
        match *self {
            AddPlan::Open { rate, .. } => Some(Schedule {
                start_ns,
                rate_per_s: rate,
            }),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum SyncPlan {
    None,
    /// Back-to-back new nodes, each syncing from cursor 0 into a fresh
    /// disk-backed repository that is checked and deleted.
    Joiners,
    /// `k` in-memory logical clients, cycled through one incremental
    /// sync each, a cycle starting every `period` (zero: back to back).
    Watchers {
        k: usize,
        period: Duration,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct ConnPlan {
    pub adds: AddPlan,
    pub sync: SyncPlan,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    /// Signatures in the durable store the server recovers at set-up.
    pub preload: usize,
    /// Whether most of the preload sits in a snapshot (else all in WAL).
    pub preload_snapshot: bool,
    pub conns: [ConnPlan; 2],
}

impl Spec {
    pub fn of(workload: Workload) -> Spec {
        let trickle = ConnPlan {
            adds: AddPlan::Open {
                count: 150,
                rate: 50.0,
            },
            sync: SyncPlan::Joiners,
        };
        let burst = AddPlan::Closed {
            count: 21_334,
            cap: 256,
            resend_every: 4,
        };
        let conns = match workload {
            Workload::Catchup => [trickle, trickle],
            Workload::Upload => [
                ConnPlan {
                    adds: burst,
                    sync: SyncPlan::None,
                },
                ConnPlan {
                    adds: burst,
                    // Periodic, like a client daemon: back to back, the
                    // syncs that find the connection idle would outnumber
                    // the ones queued behind ADD batches.
                    sync: SyncPlan::Watchers {
                        k: 1,
                        period: Duration::from_millis(5),
                    },
                },
            ],
            Workload::Propagation => [
                ConnPlan {
                    adds: AddPlan::Open {
                        count: 3_000,
                        rate: 1_000.0,
                    },
                    sync: SyncPlan::None,
                },
                ConnPlan {
                    adds: AddPlan::None,
                    sync: SyncPlan::Watchers {
                        k: 20,
                        period: Duration::ZERO,
                    },
                },
            ],
        };
        Spec {
            workload,
            preload: match workload {
                Workload::Catchup => 5_000,
                Workload::Upload => 0,
                Workload::Propagation => 9_000,
            },
            preload_snapshot: workload == Workload::Catchup,
            conns,
        }
    }
}

/// One ADD: who sends it and what.
#[derive(Debug, Clone)]
pub struct Item {
    pub user: u64,
    pub text: String,
    /// An exact re-send of an earlier, already-acked item (expected
    /// verdict: accepted as `duplicate`).
    pub resend: bool,
}

/// Everything a run sends, built from the seed before any timing.
#[derive(Debug)]
pub struct Inputs {
    pub preload: Vec<String>,
    pub conns: [Vec<Item>; 2],
    /// FNV-1a over every text, sender and flag, in order.
    pub digest: u64,
}

/// SplitMix64: a small seeded generator for the re-send choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut gen = SigGen::new(seed);
        let mut pick = seed ^ 0x5EED;
        let preload = gen.random_batch_texts(spec.preload);
        let conns = [0, 1].map(|c| {
            let plan = spec.conns[c].adds;
            let mut items: Vec<Item> = Vec::with_capacity(plan.count());
            let mut fresh = 0usize;
            for p in 0..plan.count() {
                // A re-send targets an item at least `cap + 1` positions
                // back: replies arrive in order on one connection, so that
                // item is acked before this one can be submitted.
                if let AddPlan::Closed {
                    cap, resend_every, ..
                } = plan
                {
                    if p % resend_every == resend_every - 1 && p > cap {
                        let target = loop {
                            let t = (splitmix(&mut pick) % (p - cap) as u64) as usize;
                            if !items[t].resend {
                                break t;
                            }
                        };
                        let again = Item {
                            resend: true,
                            ..items[target].clone()
                        };
                        items.push(again);
                        continue;
                    }
                }
                let user = (c as u64 + 1) * USER_BLOCK + (fresh / SIGS_PER_SENDER) as u64;
                fresh += 1;
                items.push(Item {
                    user,
                    text: gen.random_signature().to_string(),
                    resend: false,
                });
            }
            items
        });
        let mut digest = fnv(0xCBF2_9CE4_8422_2325, spec.workload.name().as_bytes());
        for text in &preload {
            digest = fnv(digest, text.as_bytes());
        }
        for (c, items) in conns.iter().enumerate() {
            for item in items {
                digest = fnv(digest, &[c as u8, u8::from(item.resend)]);
                digest = fnv(digest, &item.user.to_le_bytes());
                digest = fnv(digest, item.text.as_bytes());
            }
        }
        Inputs {
            preload,
            conns,
            digest,
        }
    }

    /// Distinct sender ids of connection `c`, ascending.
    pub fn users(&self, c: usize) -> Vec<u64> {
        let mut users: Vec<u64> = self.conns[c].iter().map(|i| i.user).collect();
        users.sort_unstable();
        users.dedup();
        users
    }
}
