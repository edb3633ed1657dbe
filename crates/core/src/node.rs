//! A complete Communix node: the five components of Figure 1 wired
//! together around one application.
//!
//! * **Dimmunix** — inside the [`Simulator`]: detects deadlocks, saves
//!   signatures, avoids their reoccurrence;
//! * **Communix plugin** — attaches bytecode hashes and uploads freshly
//!   detected signatures to the server;
//! * **Communix client** — the [`LocalRepository`] plus an incremental
//!   [`CommunixNode::sync`] (the production deployment would run
//!   [`communix_client::ClientDaemon`] instead; the node keeps sync
//!   explicit so simulations control time);
//! * **Communix agent** — validates and generalizes downloaded
//!   signatures into the application's history at start-up, and runs the
//!   nesting analysis at shutdown;
//! * the **Communix server** is the node's counterparty, reached through
//!   any [`Connector`] (in-process, simulated network, or TCP).
//!
//! # Lifecycle
//!
//! ```text
//! sync ─▶ startup ─▶ run … run ─▶ upload_pending ─▶ shutdown
//!            ▲                                          │
//!            └────────── (next application start) ◀─────┘
//! ```
//!
//! The nesting analysis runs at the *first* shutdown and again whenever a
//! run loaded classes no previous run had loaded (§III-C3); signatures
//! that were deferred pending the analysis are re-checked right after it.

use communix_agent::{AgentConfig, CommunixAgent, StartupReport};
use communix_bytecode::{ClassLoader, LoweredProgram, Program};
use communix_client::{obtain_id, sync_delta, sync_once, Connector, LocalRepository, SyncError};
use communix_crypto::Digest;
use communix_dimmunix::{DimmunixConfig, History, Signature};
use communix_net::EncryptedId;
use communix_runtime::{SimConfig, SimOutcome, Simulator, ThreadSpec};

use crate::plugin::CommunixPlugin;

/// Node configuration.
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// The user number this node identifies as (encrypted into its
    /// sender id by the server's authority).
    pub user: u64,
    /// Dimmunix configuration.
    pub dimmunix: DimmunixConfig,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Agent configuration.
    pub agent: AgentConfig,
    /// Where Dimmunix persists the deadlock history ("stores it in a
    /// persistent history", §II-A). Loaded at node construction, saved
    /// at every [`CommunixNode::shutdown`]. `None` keeps the history
    /// in memory only (tests, simulations).
    pub history_path: Option<std::path::PathBuf>,
}

impl NodeConfig {
    /// A config for user `user` with all defaults.
    pub fn for_user(user: u64) -> Self {
        NodeConfig {
            user,
            ..NodeConfig::default()
        }
    }

    /// Persists the deadlock history at `path` across node lifetimes.
    pub fn with_history_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.history_path = Some(path.into());
        self
    }
}

/// What [`CommunixNode::shutdown`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Whether the nesting analysis ran (first shutdown, or new classes
    /// were loaded this run).
    pub analysis_ran: bool,
    /// Duration of the nesting analysis, if it ran.
    pub analysis_time: Option<std::time::Duration>,
    /// Signatures re-checked after the analysis (previously deferred).
    pub rechecked: usize,
    /// Re-checked signatures accepted into the history.
    pub recheck_accepted: usize,
}

/// One machine running one Communix-protected application.
#[derive(Debug)]
pub struct CommunixNode {
    program: Program,
    config: NodeConfig,
    simulator: Simulator,
    agent: CommunixAgent,
    repo: LocalRepository,
    plugin: CommunixPlugin,
    loader: ClassLoader,
    encrypted_id: Option<EncryptedId>,
    pending_uploads: Vec<Signature>,
}

impl CommunixNode {
    /// Creates a node for `program` with an in-memory repository.
    pub fn new(program: Program, config: NodeConfig) -> Self {
        CommunixNode::with_repo(program, config, LocalRepository::in_memory())
    }

    /// Creates a node with an existing (possibly disk-backed) repository.
    ///
    /// If the config names a history path, the persisted deadlock
    /// history is loaded into Dimmunix (a missing file is a first run;
    /// a *corrupt* file is ignored with the same effect — losing the
    /// history costs protection, never correctness).
    pub fn with_repo(program: Program, config: NodeConfig, repo: LocalRepository) -> Self {
        let lowered = LoweredProgram::lower(&program);
        let mut simulator = Simulator::new(lowered, config.dimmunix.clone(), config.sim.clone());
        if let Some(path) = &config.history_path {
            if let Ok(history) = History::load_from_path(path) {
                simulator.set_history(history);
            }
        }
        let plugin = CommunixPlugin::for_program(&program);
        let agent = CommunixAgent::new(config.agent.clone());
        CommunixNode {
            program,
            config,
            simulator,
            agent,
            repo,
            plugin,
            loader: ClassLoader::new(),
            encrypted_id: None,
            pending_uploads: Vec::new(),
        }
    }

    /// The application program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The node's user number.
    pub fn user(&self) -> u64 {
        self.config.user
    }

    /// The current deadlock history.
    pub fn history(&self) -> &History {
        self.simulator.history()
    }

    /// The local signature repository.
    pub fn repo(&self) -> &LocalRepository {
        &self.repo
    }

    /// Mutable repository access (tests seed it directly).
    pub fn repo_mut(&mut self) -> &mut LocalRepository {
        &mut self.repo
    }

    /// The agent.
    pub fn agent(&self) -> &CommunixAgent {
        &self.agent
    }

    /// The plugin.
    pub fn plugin(&self) -> &CommunixPlugin {
        &self.plugin
    }

    /// Signatures detected locally and not yet uploaded.
    pub fn pending_uploads(&self) -> &[Signature] {
        &self.pending_uploads
    }

    /// Requests an encrypted sender id from the server (§III-C2: "each
    /// user has to previously obtain the encrypted id").
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport or protocol failures.
    pub fn obtain_id(&mut self, connector: &mut dyn Connector) -> Result<(), SyncError> {
        let id = obtain_id(connector, self.config.user)?;
        self.encrypted_id = Some(id);
        Ok(())
    }

    /// Whether the node has an encrypted id.
    pub fn has_id(&self) -> bool {
        self.encrypted_id.is_some()
    }

    /// Downloads new signatures from the server into the local
    /// repository (the client's incremental `GET(n)`).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport, protocol or persistence
    /// failures.
    pub fn sync(&mut self, connector: &mut dyn Connector) -> Result<usize, SyncError> {
        sync_once(connector, &mut self.repo)
    }

    /// Like [`CommunixNode::sync`], but through the batched `GET_DELTA`
    /// protocol: one round trip per sync unless the server windows the
    /// reply.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport, protocol or persistence
    /// failures.
    pub fn sync_batched(&mut self, connector: &mut dyn Connector) -> Result<usize, SyncError> {
        sync_delta(connector, &mut self.repo, 0)
    }

    /// Application start: loads the program's classes and runs the
    /// agent's start-up pipeline over the not-yet-inspected repository
    /// signatures, updating the deadlock history.
    pub fn startup(&mut self) -> StartupReport {
        self.loader.load_all(&self.program);
        let hashes = self.loaded_hashes();
        let mut history = self.simulator.history().clone();
        let report = self.agent.startup(&hashes, &mut self.repo, &mut history);
        self.simulator.set_history(history);
        report
    }

    /// Runs a workload. Deadlock signatures detected during the run are
    /// queued for upload (the plugin sends them "right after Dimmunix
    /// produces the signatures" — call [`CommunixNode::upload_pending`]).
    pub fn run(&mut self, specs: &[ThreadSpec]) -> SimOutcome {
        let outcome = self.simulator.run(specs);
        self.pending_uploads
            .extend(outcome.deadlocks.iter().cloned());
        outcome
    }

    /// Uploads every pending signature with the node's encrypted id.
    /// Returns how many the server accepted.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if the node has no id or the transport
    /// fails; signatures not yet sent remain queued.
    pub fn upload_pending(&mut self, connector: &mut dyn Connector) -> Result<usize, SyncError> {
        let Some(id) = self.encrypted_id else {
            return Err(SyncError::Transport(
                "node has no encrypted id (call obtain_id first)".into(),
            ));
        };
        let mut accepted = 0;
        while let Some(sig) = self.pending_uploads.first().cloned() {
            let (ok, _reason) = self.plugin.upload(connector, id, &sig)?;
            self.pending_uploads.remove(0);
            if ok {
                accepted += 1;
            }
        }
        Ok(accepted)
    }

    /// Uploads every pending signature in a single `ADD_BATCH` round
    /// trip. Returns how many the server accepted; all items are
    /// dequeued either way (each received its verdict).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if the node has no id or the transport
    /// fails; on failure the whole batch remains queued (the server
    /// processed none or all of it atomically from the node's view).
    pub fn upload_pending_batched(
        &mut self,
        connector: &mut dyn Connector,
    ) -> Result<usize, SyncError> {
        let Some(id) = self.encrypted_id else {
            return Err(SyncError::Transport(
                "node has no encrypted id (call obtain_id first)".into(),
            ));
        };
        if self.pending_uploads.is_empty() {
            return Ok(0);
        }
        let results = self
            .plugin
            .upload_all(connector, id, &self.pending_uploads)?;
        self.pending_uploads.clear();
        Ok(results.iter().filter(|r| r.accepted).count())
    }

    /// Application shutdown: runs the nesting analysis if this was the
    /// first run or new classes were loaded (§III-C3), re-checks
    /// signatures that had been deferred on the nesting check, and
    /// persists the deadlock history if the node has a history path.
    pub fn shutdown(&mut self) -> ShutdownReport {
        let new_classes = self.loader.end_run();
        let mut report = ShutdownReport::default();
        if self.agent.nesting().is_none() || !new_classes.is_empty() {
            let lowered = LoweredProgram::lower(&self.program);
            let elapsed = self.agent.run_nesting_analysis(&lowered);
            report.analysis_ran = true;
            report.analysis_time = Some(elapsed);

            // Re-check deferred signatures now that nesting is known.
            // Classes are unloaded after shutdown, but their hashes are
            // version identities, not load state — reuse the full index.
            let hashes = self.all_hashes();
            let mut history = self.simulator.history().clone();
            let recheck =
                self.agent
                    .recheck_after_class_load(&hashes, &mut self.repo, &mut history);
            self.simulator.set_history(history);
            report.rechecked = recheck.inspected;
            report.recheck_accepted = recheck.accepted + recheck.merged;
        }
        if let Some(path) = &self.config.history_path {
            // Best-effort persistence: an unwritable history file costs
            // future protection, not this run's correctness.
            let _ = self.simulator.history().save_to_path(path);
        }
        report
    }

    fn loaded_hashes(&self) -> std::collections::HashMap<String, Digest> {
        self.loader
            .loaded_hashes(&self.program)
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v))
            .collect()
    }

    fn all_hashes(&self) -> std::collections::HashMap<String, Digest> {
        self.program
            .hash_index()
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_clock::SystemClock;
    use communix_net::{Reply, Request};
    use communix_server::{CommunixServer, ServerConfig};
    use communix_workloads::DeadlockApp;
    use std::sync::Arc;

    /// An in-process connector to a shared server.
    fn connector(server: Arc<CommunixServer>) -> impl FnMut(Request) -> Result<Reply, String> {
        move |req| Ok(server.handle(req))
    }

    fn server() -> Arc<CommunixServer> {
        Arc::new(CommunixServer::new(
            ServerConfig::default(),
            Arc::new(SystemClock::new()),
        ))
    }

    #[test]
    fn full_collaborative_cycle_protects_second_node() {
        let app = DeadlockApp::new(4);
        let srv = server();

        // Node A encounters the deadlock and shares its signature.
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn_a = connector(srv.clone());
        a.obtain_id(&mut conn_a).unwrap();
        a.startup();
        let outcome = a.run(&app.deadlock_specs());
        assert_eq!(outcome.deadlocks.len(), 1);
        assert_eq!(a.pending_uploads().len(), 1);
        let accepted = a.upload_pending(&mut conn_a).unwrap();
        assert_eq!(accepted, 1);
        assert!(a.pending_uploads().is_empty());
        assert_eq!(srv.store().len(), 1);

        // Node B never deadlocked; it syncs, starts (validation defers on
        // nesting), shuts down (analysis + recheck), then runs protected.
        let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
        let mut conn_b = connector(srv.clone());
        let downloaded = b.sync(&mut conn_b).unwrap();
        assert_eq!(downloaded, 1);
        let report = b.startup();
        assert_eq!(report.inspected, 1);
        assert_eq!(report.deferred, 1, "first run defers on nesting");
        let sd = b.shutdown();
        assert!(sd.analysis_ran);
        assert_eq!(sd.rechecked, 1);
        assert_eq!(sd.recheck_accepted, 1);
        assert_eq!(b.history().len(), 1);

        // Second start: protected.
        b.startup();
        let outcome = b.run(&app.deadlock_specs());
        assert!(outcome.deadlocks.is_empty(), "B must be immune");
        assert!(outcome.all_finished());
    }

    #[test]
    fn batched_cycle_matches_single_signature_cycle() {
        // The same collaborative story as
        // `full_collaborative_cycle_protects_second_node`, but node A
        // uploads its signatures in one ADD_BATCH and node B downloads
        // them in one GET_DELTA — observable outcome identical.
        let app = DeadlockApp::new(4);
        let srv = server();

        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn_a = connector(srv.clone());
        a.obtain_id(&mut conn_a).unwrap();
        a.startup();
        let outcome = a.run(&app.deadlock_specs());
        assert_eq!(outcome.deadlocks.len(), 1);
        let accepted = a.upload_pending_batched(&mut conn_a).unwrap();
        assert_eq!(accepted, 1);
        assert!(a.pending_uploads().is_empty());
        assert_eq!(srv.store().len(), 1);
        assert_eq!(srv.stats().batches, 1);

        let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
        let mut conn_b = connector(srv.clone());
        assert_eq!(b.sync_batched(&mut conn_b).unwrap(), 1);
        assert_eq!(b.sync_batched(&mut conn_b).unwrap(), 0, "nothing new");
        b.startup();
        b.shutdown();
        b.startup();
        let outcome = b.run(&app.deadlock_specs());
        assert!(outcome.deadlocks.is_empty(), "B must be immune");
        assert_eq!(srv.stats().deltas, 2);
        assert_eq!(srv.stats().gets, 0, "batched node never used GET");
    }

    #[test]
    fn batched_upload_without_pending_is_noop() {
        let app = DeadlockApp::new(4);
        let srv = server();
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn = connector(srv.clone());
        a.obtain_id(&mut conn).unwrap();
        assert_eq!(a.upload_pending_batched(&mut conn).unwrap(), 0);
        assert_eq!(srv.stats().batches, 0, "no pending: no round trip");
    }

    #[test]
    fn upload_without_id_fails_cleanly() {
        let app = DeadlockApp::new(4);
        let srv = server();
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        a.startup();
        a.run(&app.deadlock_specs());
        let mut conn = connector(srv);
        let err = a.upload_pending(&mut conn).unwrap_err();
        assert!(matches!(err, SyncError::Transport(_)));
        assert_eq!(a.pending_uploads().len(), 1, "signature stays queued");
    }

    #[test]
    fn second_shutdown_skips_analysis() {
        let app = DeadlockApp::new(4);
        let mut n = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        n.startup();
        let first = n.shutdown();
        assert!(first.analysis_ran);
        n.startup();
        let second = n.shutdown();
        assert!(!second.analysis_ran, "no new classes, no re-analysis");
    }

    #[test]
    fn sync_is_incremental() {
        let app = DeadlockApp::new(4);
        let srv = server();
        // Seed the server with one signature from another node.
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn = connector(srv.clone());
        a.obtain_id(&mut conn).unwrap();
        a.startup();
        a.run(&app.deadlock_specs());
        a.upload_pending(&mut conn).unwrap();

        let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
        let mut conn_b = connector(srv.clone());
        assert_eq!(b.sync(&mut conn_b).unwrap(), 1);
        assert_eq!(b.sync(&mut conn_b).unwrap(), 0, "nothing new");
        assert_eq!(srv.stats().gets, 2);
    }

    #[test]
    fn local_detection_still_works_without_server() {
        // A node with no connectivity behaves exactly like Dimmunix.
        let app = DeadlockApp::new(4);
        let mut n = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        n.startup();
        let o1 = n.run(&app.deadlock_specs());
        assert_eq!(o1.deadlocks.len(), 1);
        let o2 = n.run(&app.deadlock_specs());
        assert!(o2.deadlocks.is_empty(), "local immunity from run 1");
    }
}
