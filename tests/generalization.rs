//! Integration: signature generalization (§III-D) across the whole
//! pipeline — many users experience different manifestations of one
//! deadlock bug; their signatures converge to one generalized entry that
//! protects paths nobody ever exercised.

use std::sync::Arc;

use communix::clock::SystemClock;
use communix::net::{Reply, Request};
use communix::server::{CommunixServer, ServerConfig};
use communix::workloads::ManifestationApp;
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
fn community_converges_to_one_signature_covering_all_paths() {
    let srv = server();
    let paths = 4;
    let app = ManifestationApp::new(paths, 3);

    // Users 0..3 each hit the bug through their own path and share it.
    for user in 0..paths {
        let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(user as u64));
        let mut conn = connector(&srv);
        node.obtain_id(&mut conn).unwrap();
        node.startup();
        let outcome = node.run(&app.deadlock_specs(user));
        assert_eq!(outcome.deadlocks.len(), 1, "user {user} hits path {user}");
        assert_eq!(node.upload_pending(&mut conn).unwrap(), 1);
    }
    assert_eq!(srv.store().len(), paths, "four manifestations stored");

    // A fresh node downloads all four; the agent merges them into ONE
    // history entry ("the role of signature generalization is to keep
    // few signatures per deadlock bug").
    let mut fresh = CommunixNode::new(app.program().clone(), NodeConfig::for_user(42));
    let mut conn = connector(&srv);
    assert_eq!(fresh.sync(&mut conn).unwrap(), paths);
    fresh.startup();
    fresh.shutdown();
    fresh.startup();
    assert_eq!(
        fresh.history().len(),
        1,
        "manifestations of one bug generalize into one signature"
    );
    let merged = &fresh.history().signatures()[0];
    assert_eq!(
        merged.min_outer_depth(),
        3 + 2,
        "the merge keeps the shared suffix (and stays ≥ depth 5)"
    );

    // Every path is now avoided — including any the community saw.
    for path in 0..paths {
        let outcome = fresh.run(&app.deadlock_specs(path));
        assert!(
            outcome.deadlocks.is_empty(),
            "path {path} must be covered by the generalized signature"
        );
        assert!(outcome.all_finished());
    }
}

#[test]
fn single_manifestation_leaves_false_negatives() {
    // The §III-D motivation, end to end: with only ONE manifestation
    // shared, other paths still deadlock (false negatives) — this is
    // exactly what community-wide generalization fixes.
    let srv = server();
    let app = ManifestationApp::new(2, 3);

    let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    victim.run(&app.deadlock_specs(0));
    victim.upload_pending(&mut conn).unwrap();

    let mut fresh = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn = connector(&srv);
    fresh.sync(&mut conn).unwrap();
    fresh.startup();
    fresh.shutdown();
    fresh.startup();

    // Path 0 (the shared manifestation): protected.
    let o0 = fresh.run(&app.deadlock_specs(0));
    assert!(o0.deadlocks.is_empty());
    // Path 1: NOT protected yet.
    let o1 = fresh.run(&app.deadlock_specs(1));
    assert_eq!(o1.deadlocks.len(), 1, "unseen manifestation still bites");
}

#[test]
fn local_and_remote_signatures_of_same_bug_merge_in_history() {
    // A node that experienced the bug locally then receives a remote
    // manifestation: the agent merges them (local+remote merge keeps
    // depth ≥ 5).
    let srv = server();
    let app = ManifestationApp::new(2, 3);

    // Remote discovery by user 0 via path 1.
    let mut remote_victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    remote_victim.obtain_id(&mut conn).unwrap();
    remote_victim.startup();
    remote_victim.run(&app.deadlock_specs(1));
    remote_victim.upload_pending(&mut conn).unwrap();

    // Local discovery by user 1 via path 0, then sync + merge.
    let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn = connector(&srv);
    node.startup();
    node.run(&app.deadlock_specs(0));
    assert_eq!(node.history().len(), 1, "local signature recorded");
    node.sync(&mut conn).unwrap();
    node.startup();
    node.shutdown();
    node.startup();
    assert_eq!(
        node.history().len(),
        1,
        "remote manifestation merged into the local entry"
    );

    // The merged entry covers both paths.
    for path in 0..2 {
        let o = node.run(&app.deadlock_specs(path));
        assert!(o.deadlocks.is_empty(), "path {path}");
        assert!(o.all_finished());
    }
}

#[test]
fn same_bug_reuploads_are_deduplicated_server_side() {
    // Two users hitting the SAME manifestation produce byte-identical
    // signatures; the server stores one copy.
    let srv = server();
    let app = ManifestationApp::new(2, 3);
    for user in 0..2 {
        let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(user));
        let mut conn = connector(&srv);
        node.obtain_id(&mut conn).unwrap();
        node.startup();
        node.run(&app.deadlock_specs(0));
        node.upload_pending(&mut conn).unwrap();
    }
    assert_eq!(srv.store().len(), 1, "identical manifestation stored once");
    assert_eq!(srv.stats().adds_duplicate, 1);
}
