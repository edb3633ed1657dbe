//! Integration: version drift (§III-C3's hash checking). Signatures
//! carry the bytecode hashes of the sender's class versions; receivers
//! running different versions must reject or trim them.

use std::sync::Arc;

use communix::bytecode::{ClassFile, Method, Program, Stmt};
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

/// Returns `program` with `class` "patched": an extra method changes the
/// class's bytecode hash without touching existing code.
fn patched(program: &Program, class: &str) -> Program {
    let mut v2 = program.clone();
    let mut cf: ClassFile = program.class(class).expect("class exists").clone();
    cf.methods.push(Method::new(
        "hotfix",
        9_999,
        vec![Stmt::Work {
            ticks: 1,
            line: 10_000,
        }],
    ));
    v2.add_class(cf);
    v2
}

/// Drives a victim on `program` through a deadlock and returns the
/// server holding its uploaded signature.
fn seed_server_with_victim(program: &Program, app: &ManifestationApp) -> Arc<CommunixServer> {
    let srv = server();
    let mut victim = CommunixNode::new(program.clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    assert_eq!(victim.run(&app.deadlock_specs(0)).deadlocks.len(), 1);
    victim.upload_pending(&mut conn).unwrap();
    assert_eq!(srv.store().len(), 1);
    srv
}

#[test]
fn fully_patched_locking_class_rejects_the_signature() {
    // The receiver patched the class containing the lock statements: the
    // top-frame hashes no longer match, the deadlock may well be fixed —
    // the signature must be rejected outright.
    let app = ManifestationApp::new(2, 3);
    let srv = seed_server_with_victim(app.program(), &app);

    let v2 = patched(app.program(), ManifestationApp::CLASS);
    let mut node = CommunixNode::new(v2, NodeConfig::for_user(1));
    let mut conn = connector(&srv);
    assert_eq!(node.sync(&mut conn).unwrap(), 1);
    node.startup();
    node.shutdown();
    node.startup();
    assert_eq!(
        node.history().len(),
        0,
        "signature against the old version must not survive"
    );
}

#[test]
fn patched_caller_class_trims_but_keeps_the_signature() {
    // Only the per-path entry class changed; the shared locking chain is
    // identical. The hash check trims the stale bottom frames and keeps
    // the valid ≥5-deep suffix — protection survives the upgrade.
    let app = ManifestationApp::new(2, 3);
    let srv = seed_server_with_victim(app.program(), &app);

    let v2 = patched(app.program(), ManifestationApp::PATHS_CLASS);
    let mut node = CommunixNode::new(v2, NodeConfig::for_user(1));
    let mut conn = connector(&srv);
    assert_eq!(node.sync(&mut conn).unwrap(), 1);
    node.startup();
    node.shutdown();
    node.startup();
    assert_eq!(node.history().len(), 1, "trimmed signature accepted");
    let sig = &node.history().signatures()[0];
    // The path-entry frame (Paths class) was trimmed away; what remains
    // is the shared chain, fully inside the unpatched Service class.
    for e in sig.entries() {
        for f in e.outer.frames() {
            assert_eq!(
                f.site.class.as_ref(),
                ManifestationApp::CLASS,
                "stale Paths frames must be gone"
            );
        }
    }
    assert!(sig.min_outer_depth() >= 5);

    // And the trimmed signature still avoids the deadlock — through
    // BOTH paths now, since the path-specific frame is gone.
    for path in 0..2 {
        let o = node.run(&app.deadlock_specs(path));
        assert!(o.deadlocks.is_empty(), "path {path} still covered");
        assert!(o.all_finished());
    }
}

#[test]
fn same_version_nodes_are_unaffected_by_upgrades_elsewhere() {
    // Control: a node still on v1 validates and uses the signature even
    // while other nodes upgraded.
    let app = ManifestationApp::new(2, 3);
    let srv = seed_server_with_victim(app.program(), &app);

    let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let mut conn = connector(&srv);
    node.sync(&mut conn).unwrap();
    node.startup();
    node.shutdown();
    node.startup();
    assert_eq!(node.history().len(), 1);
    let o = node.run(&app.deadlock_specs(0));
    assert!(o.deadlocks.is_empty());
}

#[test]
fn upgraded_victim_produces_new_hashes_and_reprotects() {
    // After an upgrade the same deadlock (still unfixed!) produces a new
    // signature with v2 hashes; v2 receivers accept that one.
    let app = ManifestationApp::new(2, 3);
    let v2 = patched(app.program(), ManifestationApp::PATHS_CLASS);

    let srv = server();
    let mut victim = CommunixNode::new(v2.clone(), NodeConfig::for_user(0));
    let mut conn = connector(&srv);
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    assert_eq!(victim.run(&app.deadlock_specs(0)).deadlocks.len(), 1);
    victim.upload_pending(&mut conn).unwrap();

    let mut receiver = CommunixNode::new(v2, NodeConfig::for_user(1));
    let mut conn = connector(&srv);
    receiver.sync(&mut conn).unwrap();
    receiver.startup();
    receiver.shutdown();
    receiver.startup();
    assert_eq!(receiver.history().len(), 1, "v2 signature accepted by v2");
    let o = receiver.run(&app.deadlock_specs(0));
    assert!(o.deadlocks.is_empty());
}
