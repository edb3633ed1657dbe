//! §IV-C, run through the real system: a community of users exercising
//! a multi-bug application in different ways reaches full protection
//! `Nu` times faster than a lone Dimmunix user — not in the abstract
//! Monte-Carlo model (`workloads::protection`), but through the actual
//! plugin → server → client → agent pipeline with daily syncs.

use std::sync::Arc;

use communix::clock::SystemClock;
use communix::net::{Reply, Request};
use communix::server::{CommunixServer, ServerConfig};
use communix::workloads::MultiBugApp;
use communix::{CommunixNode, NodeConfig};

const BUGS: usize = 4;
const USERS: u64 = 4;

fn server() -> Arc<CommunixServer> {
    Arc::new(CommunixServer::new(
        ServerConfig::default(),
        Arc::new(SystemClock::new()),
    ))
}

fn connector(server: &Arc<CommunixServer>) -> impl FnMut(Request) -> Result<Reply, String> {
    let server = server.clone();
    move |req| Ok(server.handle(req))
}

/// How many of the app's bugs a *fresh* node is protected against after
/// syncing the server's current knowledge.
fn bugs_covered(srv: &Arc<CommunixServer>, app: &MultiBugApp) -> usize {
    let mut probe = CommunixNode::new(app.program().clone(), NodeConfig::for_user(999));
    let mut conn = connector(srv);
    probe.sync(&mut conn).expect("probe sync");
    probe.startup();
    probe.shutdown();
    probe.startup();
    (0..BUGS)
        .filter(|&bug| {
            let o = probe.run(&app.deadlock_specs(bug));
            // The probe may learn locally from a deadlock it hits; undo
            // by checking the *first* outcome only (each bug probed once).
            o.deadlocks.is_empty()
        })
        .count()
}

#[test]
fn community_reaches_full_protection_nu_times_faster() {
    let app = MultiBugApp::new(BUGS, 3);

    // ------------------------------------------------------------------
    // Communix: Nu users, each exercising a different feature each day
    // ("users that run A in different ways"). One "day" = everyone runs
    // once, uploads, and the daily client sync lands.
    // ------------------------------------------------------------------
    let srv = server();
    let mut nodes: Vec<CommunixNode> = (0..USERS)
        .map(|u| {
            let mut n = CommunixNode::new(app.program().clone(), NodeConfig::for_user(u));
            let mut conn = connector(&srv);
            n.obtain_id(&mut conn).expect("id");
            n
        })
        .collect();

    let mut communix_days = None;
    for day in 0..BUGS {
        for (u, node) in nodes.iter_mut().enumerate() {
            let mut conn = connector(&srv);
            node.sync(&mut conn).expect("daily sync");
            node.startup();
            let bug = (u + day) % BUGS;
            node.run(&app.deadlock_specs(bug));
            node.upload_pending(&mut conn).expect("upload");
        }
        if bugs_covered(&srv, &app) == BUGS {
            communix_days = Some(day + 1);
            break;
        }
    }
    let communix_days = communix_days.expect("community must converge");
    assert_eq!(
        communix_days, 1,
        "Nu = Nd users running in different ways cover every bug on day one"
    );
    assert_eq!(srv.store().len(), BUGS, "each bug's signature stored once");

    // ------------------------------------------------------------------
    // Dimmunix alone: one user, one feature per day — needs Nd days.
    // ------------------------------------------------------------------
    let mut loner = CommunixNode::new(app.program().clone(), NodeConfig::for_user(50));
    loner.startup();
    let mut dimmunix_days = 0;
    for day in 0..BUGS {
        dimmunix_days = day + 1;
        loner.run(&app.deadlock_specs(day % BUGS));
        if loner.history().len() == BUGS {
            break;
        }
    }
    assert_eq!(
        dimmunix_days, BUGS,
        "a lone user needs one day per manifestation"
    );

    // The paper's estimate: t·Nd vs t·Nd/Nu with Nu = Nd here.
    assert_eq!(dimmunix_days / communix_days, BUGS);
}

#[test]
fn latecomers_are_protected_from_day_one() {
    // A user who installs the app *after* the community converged never
    // experiences any deadlock — the §I promise, measured end to end.
    let app = MultiBugApp::new(BUGS, 3);
    let srv = server();

    for u in 0..USERS {
        let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(u));
        let mut conn = connector(&srv);
        node.obtain_id(&mut conn).expect("id");
        node.startup();
        node.run(&app.deadlock_specs(u as usize % BUGS));
        node.upload_pending(&mut conn).expect("upload");
    }

    let mut late = CommunixNode::new(app.program().clone(), NodeConfig::for_user(77));
    let mut conn = connector(&srv);
    late.sync(&mut conn).expect("sync");
    late.startup();
    late.shutdown();
    late.startup();

    let mut deadlocks_experienced = 0;
    for bug in 0..BUGS {
        deadlocks_experienced += late.run(&app.deadlock_specs(bug)).deadlocks.len();
    }
    assert_eq!(deadlocks_experienced, 0, "the latecomer never deadlocks");
}
