//! End-to-end integration: a deadlock on one node immunizes every other
//! node through the full plugin → server → client → agent → Dimmunix
//! pipeline (Figure 1).

use std::sync::Arc;

use communix::clock::SystemClock;
use communix::net::{Reply, Request};
use communix::server::{CommunixServer, ServerConfig};
use communix::workloads::{DeadlockApp, MultiBugApp};
use communix::{CommunixNode, NodeConfig};

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

#[test]
fn one_victim_immunizes_many_nodes() {
    let srv = server();
    let app = DeadlockApp::new(4);

    // The victim.
    let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    assert_eq!(victim.run(&app.deadlock_specs()).deadlocks.len(), 1);
    assert_eq!(victim.upload_pending(&mut conn).unwrap(), 1);

    // Five fresh nodes, each fully protected after one sync cycle.
    for user in 1..=5 {
        let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(user));
        let mut conn = connector(&srv);
        assert_eq!(node.sync(&mut conn).unwrap(), 1);
        node.startup();
        node.shutdown();
        node.startup();
        assert_eq!(node.history().len(), 1, "user {user}");
        let outcome = node.run(&app.deadlock_specs());
        assert!(outcome.deadlocks.is_empty(), "user {user} must be immune");
        assert!(outcome.all_finished(), "user {user} must make progress");
    }

    // The server saw exactly one signature and five incremental syncs.
    assert_eq!(srv.store().len(), 1);
    let stats = srv.stats();
    assert_eq!(stats.adds_accepted, 1);
    assert_eq!(stats.gets, 5);
}

#[test]
fn immunity_survives_restart_via_persistent_state() {
    // The full persistence story: the repository carries downloaded
    // signatures and the agent's inspection cursor across restarts
    // (§III-B), and Dimmunix's history file carries the validated
    // signatures (§II-A: "stores it in a persistent history").
    let srv = server();
    let app = DeadlockApp::new(4);
    let dir = std::env::temp_dir().join(format!("communix-it-repo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let history_path = dir.join("app.history");
    let config = || NodeConfig::for_user(1).with_history_path(&history_path);

    // Victim uploads.
    let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    victim.run(&app.deadlock_specs());
    victim.upload_pending(&mut conn).unwrap();

    // "Session 1" of the protected machine: sync into a disk-backed
    // repository, validate, persist history at shutdown, exit.
    {
        let repo = communix::client::LocalRepository::open(dir.join("repo")).unwrap();
        let mut node = CommunixNode::with_repo(app.program().clone(), config(), repo);
        let mut conn = connector(&srv);
        assert_eq!(node.sync(&mut conn).unwrap(), 1);
        node.startup();
        let sd = node.shutdown(); // analysis + recheck + history save
        assert_eq!(sd.recheck_accepted, 1);
    }
    assert!(history_path.exists(), "history persisted at shutdown");

    // "Session 2": a brand-new process. The repository remembers the
    // inspection cursor (every signature analyzed exactly once); the
    // history file brings the validated signature straight back.
    {
        let repo = communix::client::LocalRepository::open(dir.join("repo")).unwrap();
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.uninspected_count(), 0, "cursor persisted");
        let mut node = CommunixNode::with_repo(app.program().clone(), config(), repo);
        assert_eq!(node.history().len(), 1, "history loaded from disk");
        let report = node.startup();
        assert_eq!(report.inspected, 0, "nothing re-inspected");
        let outcome = node.run(&app.deadlock_specs());
        assert!(outcome.deadlocks.is_empty(), "immune in the new session");
        assert!(outcome.all_finished());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discoveries_flow_both_ways() {
    // Two nodes, two different bugs: each node discovers one and is
    // protected against the other by its peer.
    let srv = server();
    let app = MultiBugApp::new(2, 3);

    let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let mut conn_a = connector(&srv);
    let mut conn_b = connector(&srv);
    a.obtain_id(&mut conn_a).unwrap();
    b.obtain_id(&mut conn_b).unwrap();

    a.startup();
    b.startup();
    assert_eq!(a.run(&app.deadlock_specs(0)).deadlocks.len(), 1);
    assert_eq!(b.run(&app.deadlock_specs(1)).deadlocks.len(), 1);
    a.upload_pending(&mut conn_a).unwrap();
    b.upload_pending(&mut conn_b).unwrap();
    assert_eq!(srv.store().len(), 2);

    // Cross-pollination.
    a.sync(&mut conn_a).unwrap();
    b.sync(&mut conn_b).unwrap();
    for node in [&mut a, &mut b] {
        node.startup();
        node.shutdown();
        node.startup();
        assert_eq!(node.history().len(), 2);
    }

    // Each node now survives the bug it never saw.
    let oa = a.run(&app.deadlock_specs(1));
    assert!(oa.deadlocks.is_empty() && oa.all_finished());
    let ob = b.run(&app.deadlock_specs(0));
    assert!(ob.deadlocks.is_empty() && ob.all_finished());
}

#[test]
fn plugin_attaches_hashes_on_the_wire() {
    // Every frame of an uploaded signature must carry the bytecode hash
    // of its declaring class — the agent on the other side depends on it.
    let srv = server();
    let app = DeadlockApp::new(4);
    let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    victim.run(&app.deadlock_specs());
    victim.upload_pending(&mut conn).unwrap();

    let stored = srv.store().get_from(0);
    assert_eq!(stored.len(), 1);
    let sig: communix::dimmunix::Signature = stored[0].parse().unwrap();
    let expected = app
        .program()
        .class(DeadlockApp::CLASS)
        .unwrap()
        .bytecode_hash();
    for entry in sig.entries() {
        for frame in entry.outer.frames().iter().chain(entry.inner.frames()) {
            assert_eq!(frame.hash, Some(expected), "frame {frame} lacks its hash");
        }
    }
}

#[test]
fn unrelated_application_rejects_foreign_signatures() {
    // Signatures for app X must not enter app Y's history (hash check).
    let srv = server();
    let app_x = DeadlockApp::new(4);
    let app_y = MultiBugApp::new(1, 4);

    let mut victim = CommunixNode::new(app_x.program().clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    victim.run(&app_x.deadlock_specs());
    victim.upload_pending(&mut conn).unwrap();

    let mut other = CommunixNode::new(app_y.program().clone(), NodeConfig::for_user(1));
    let mut conn = connector(&srv);
    assert_eq!(other.sync(&mut conn).unwrap(), 1);
    other.startup();
    other.shutdown();
    other.startup();
    assert_eq!(
        other.history().len(),
        0,
        "foreign signature must fail hash validation"
    );
}
