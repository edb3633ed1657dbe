//! §IV-B in-text flood-capacity numbers.
//!
//! "Assuming 100 attackers manage to obtain 5 ids each from the server,
//! and they keep sending fake signatures to the server, the attackers
//! could make the server process and add to its database only up to
//! 100 ∗ 5 ∗ 10 = 5,000 signatures in 1 day. Assuming the worst case,
//! i.e., the 5,000 signatures are sent simultaneously by the 100
//! attackers, the server can process the signatures in 1 second, the
//! Communix client can download them in a few minutes, and the agent can
//! process them in 10-15 seconds."
//!
//! Also §III-C1: "If there are N nested synchronized blocks/methods in a
//! Java application A, an attacker cannot 'provide' more than N
//! signatures that get accepted into A's deadlock history."
//!
//! Run: `cargo run -p communix-bench --release --bin dos_capacity`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use communix_agent::{AgentConfig, CommunixAgent};
use communix_bench::{banner, fmt_dur};
use communix_bytecode::LoweredProgram;
use communix_client::LocalRepository;
use communix_clock::VirtualClock;
use communix_crypto::Digest;
use communix_dimmunix::History;
use communix_net::{Reply, Request};
use communix_server::{CommunixServer, ServerConfig};
use communix_workloads::{AttackerFactory, SigGen, JBOSS};

fn main() {
    banner(
        "§IV-B — flood capacity and containment",
        "100 attackers × 5 ids × 10/day = 5,000 sigs/day max; server ~1 s; agent 10-15 s; history ≤ N nested sites",
    );

    // ------------------------------------------------------------------
    // 1. Server-side containment: 100 attackers, 5 ids each, each id
    //    firing 20 ADDs in one burst (twice its daily budget).
    // ------------------------------------------------------------------
    let clock = Arc::new(VirtualClock::new());
    let server = CommunixServer::new(ServerConfig::default(), clock);
    let factory = AttackerFactory::new();
    let flood = factory.daily_flood(100, 5, 20); // 10,000 attempts
    let ids: HashMap<u64, [u8; 16]> = flood
        .iter()
        .map(|(u, _)| (*u, server.authority().issue(*u)))
        .collect();

    let start = Instant::now();
    let mut accepted = 0usize;
    for (user, sig) in &flood {
        let reply = server.handle(Request::Add {
            sender: ids[user],
            sig_text: sig.to_string(),
        });
        if matches!(reply, Reply::AddAck { accepted: true, .. }) {
            accepted += 1;
        }
    }
    let server_time = start.elapsed();
    println!(
        "\nserver: {} flood ADDs processed in {} — {} accepted (budget caps at {})",
        flood.len(),
        fmt_dur(server_time),
        accepted,
        100 * 5 * 10,
    );
    assert!(accepted <= 100 * 5 * 10);
    assert_eq!(server.store().len(), accepted);

    // ------------------------------------------------------------------
    // 2. Agent-side processing of the day's worth of flood signatures:
    //    5,000 signatures that must all be rejected (their classes are
    //    not loaded by the protected application).
    // ------------------------------------------------------------------
    let profile = JBOSS.scaled(0.25);
    let program = profile.generate();
    let lowered = LoweredProgram::lower(&program);
    let hashes: HashMap<String, Digest> = program
        .hash_index()
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), v))
        .collect();
    let mut agent = CommunixAgent::new(AgentConfig::default());
    agent.run_nesting_analysis(&lowered);

    let mut repo = LocalRepository::in_memory();
    repo.append((0..5_000).map(|k| factory.flood_signature(k / 10, k % 10).to_string()))
        .expect("in-memory");
    let mut history = History::new();
    let report = agent.startup(&hashes, &mut repo, &mut history);
    println!(
        "agent: 5,000 flood signatures inspected in {} — {} rejected, history untouched ({} entries)",
        fmt_dur(report.elapsed),
        report.rejected,
        history.len(),
    );
    assert_eq!(report.rejected, 5_000);
    assert!(history.is_empty());

    // ------------------------------------------------------------------
    // 3. History containment: even signatures crafted to *pass* every
    //    check cannot push the history beyond the number of nested sync
    //    sites (here: bugs = site pairs, each absorbing all its variants
    //    through generalization).
    // ------------------------------------------------------------------
    let nested = agent.nesting().expect("analysis ran").nested().len();
    let mut gen = SigGen::new(0xD05);
    let crafted =
        gen.valid_remote_sig_texts(&program, agent.nesting().expect("analysis ran"), 4 * nested);
    let mut repo = LocalRepository::in_memory();
    repo.append(crafted).expect("in-memory");
    let mut history = History::new();
    let report = agent.startup(&hashes, &mut repo, &mut history);
    println!(
        "history bound: {} crafted-valid signatures generalize into {} history entries (≤ N = {} nested sites)",
        report.inspected,
        history.len(),
        nested,
    );
    assert!(history.len() <= nested);
}
