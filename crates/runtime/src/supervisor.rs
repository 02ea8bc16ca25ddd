//! Shard-failure supervision: detect a dead shard, re-place its sessions,
//! re-key their streams.
//!
//! # The failure model
//!
//! A shard [`crate::Scheduler`] dies in one of two ways: a worker panics
//! while holding the engine lock (poisoning it), or an operator/fault
//! injector trips it explicitly ([`crate::Cluster::trip_shard`]).  Either
//! way every session on the shard starts failing submits with
//! [`AsvError::ShardDown`] and its queued frames are dropped — the shard
//! never recovers.
//!
//! # Re-placement and re-keying
//!
//! The [`Supervisor`] owns the reaction.  On the first `ShardDown` a
//! session's submit reports, it
//!
//! 1. asks the cluster for a new home via the *failure-aware* consistent
//!    hash walk ([`crate::Cluster::add_session`]), so re-placement is
//!    deterministic and skips every failed shard;
//! 2. registers the session there with a **fresh** [`IsmState`] from the
//!    supervisor's state factory — the next frame is necessarily a key
//!    frame, so the stream's output re-converges with batch processing from
//!    the re-key point onward (carried temporal state died with the shard
//!    and must not be guessed at);
//! 3. bumps the source shard's `asv_sessions_migrated_total` counter and
//!    appends a [`MigrationRecord`] for the harness to audit;
//! 4. re-delivers the frame whose submit observed the failure, so the
//!    producer never sees the migration: its submit simply succeeds.
//!
//! Frames that were queued on the dead shard are lost (counted in its
//! `asv_frames_dropped_total`); the determinism contract is byte-identical
//! output *from the re-key point*, which `crates/runtime/src/sim.rs` locks
//! down under seeded fault injection.

use crate::cluster::{Cluster, ClusterSessionHandle};
use crate::net::FrameSink;
use crate::scheduler::SessionHandle;
use asv::ism::IsmState;
use asv::AsvError;
use asv_image::Image;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Builds the fresh per-session [`IsmState`] a re-keyed (or brand-new)
/// session starts from; the key is passed so heterogeneous fleets can vary
/// configuration per stream.
pub type StateFactory = Box<dyn Fn(&str) -> IsmState + Send + Sync>;

/// One audited session re-placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The session's routing key.
    pub key: String,
    /// Shard the session left.
    pub from: usize,
    /// Shard now serving the session.
    pub to: usize,
}

/// The shard-failure supervisor: routes frames to their sessions' shards
/// and reacts to [`AsvError::ShardDown`] by re-placing the session on a
/// surviving shard with a fresh (re-keyed) state.
///
/// Frames are submitted straight into the shard schedulers, so
/// backpressure and failure detection are both synchronous (the sim's
/// shard-kill scenarios rely on this).  The supervisor is the
/// natural [`FrameSink`] for a [`crate::FrameServer`]: frames arriving over
/// TCP land on live shards even while shards die.
pub struct Supervisor {
    cluster: Arc<Cluster>,
    make_state: StateFactory,
    sessions: Mutex<HashMap<String, ClusterSessionHandle>>,
    migrations: Mutex<Vec<MigrationRecord>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("cluster", &self.cluster)
            .field("migrations", &self.migrations)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A supervisor over `cluster`, building each session's fresh state with
    /// `make_state`.
    pub fn new(
        cluster: Arc<Cluster>,
        make_state: impl Fn(&str) -> IsmState + Send + Sync + 'static,
    ) -> Self {
        Self {
            cluster,
            make_state: Box::new(make_state),
            sessions: Mutex::new(HashMap::new()),
            migrations: Mutex::new(Vec::new()),
        }
    }

    fn lock_sessions(&self) -> MutexGuard<'_, HashMap<String, ClusterSessionHandle>> {
        self.sessions
            .lock()
            .expect("supervisor session table lock poisoned")
    }

    /// The session's current shard and handle, creating (and placing) the
    /// session on first use.
    ///
    /// # Errors
    ///
    /// [`AsvError::ShardDown`] when a new session cannot be placed because
    /// every shard has failed.
    fn target(&self, key: &str) -> Result<(usize, SessionHandle), AsvError> {
        let mut sessions = self.lock_sessions();
        if !sessions.contains_key(key) {
            let placed = self
                .cluster
                .add_session(key, (self.make_state)(key), None)?;
            sessions.insert(key.to_owned(), placed); // lint: alloc-ok(once per new session)
        }
        let placed = &sessions[key];
        // lint: alloc-ok(SessionHandle clone is an Arc refcount bump, no heap alloc)
        Ok((placed.shard(), placed.handle().clone()))
    }

    /// Re-places `key` away from failed shard `from`: fresh state (re-key),
    /// failure-aware placement, audit trail.  When another thread already
    /// migrated the session off `from`, keeps that placement instead of
    /// migrating twice.
    fn replace(&self, key: &str, from: usize) -> Result<(), AsvError> {
        let mut sessions = self.lock_sessions();
        if sessions
            .get(key)
            .is_some_and(|placed| placed.shard() != from)
        {
            return Ok(());
        }
        let placed = self
            .cluster
            .add_session(key, (self.make_state)(key), None)?;
        let to = placed.shard();
        sessions.insert(key.to_owned(), placed); // lint: alloc-ok(failover re-placement path)
        drop(sessions);
        self.cluster.record_migration(from);
        self.migrations
            .lock()
            .expect("supervisor migration log lock poisoned")
            .push(MigrationRecord {
                key: key.to_owned(), // lint: alloc-ok(failover re-placement path)
                from,
                to,
            });
        Ok(())
    }

    /// Delivers one stereo frame to `key`'s session, creating the session
    /// on first use and migrating it to a surviving shard if its current
    /// shard has failed.  The frame that observes a failure is re-delivered
    /// to the new placement as the first (key) frame of the session's new
    /// incarnation, so no accepted frame is ever lost to a migration.
    ///
    /// # Errors
    ///
    /// [`AsvError::ShardDown`] when every shard has failed; otherwise the
    /// underlying submit error (e.g. [`AsvError::Saturated`] under a
    /// `Reject` shed policy, or a stored per-session failure).
    pub fn submit(&self, key: &str, left: Image, right: Image) -> Result<(), AsvError> {
        let mut frame = (left, right);
        // Each failed attempt removes a shard from the live set, so one
        // attempt per shard (plus the first) always terminates.
        for _ in 0..=self.cluster.shard_count() {
            let (shard, handle) = self.target(key)?;
            let (left, right) = frame;
            match handle.submit_recoverable(left, right) {
                Ok(()) => return Ok(()),
                Err((AsvError::ShardDown { .. }, left, right)) => {
                    frame = (left, right);
                    self.replace(key, shard)?;
                }
                Err((error, _, _)) => return Err(error),
            }
        }
        // lint: alloc-ok(error path; no shard survived)
        Err(AsvError::shard_down(format!(
            "session {key}: no surviving shard accepted the frame"
        )))
    }

    /// The shard currently serving `key`, if the session exists.
    pub fn session_shard(&self, key: &str) -> Option<usize> {
        self.lock_sessions()
            .get(key)
            .map(ClusterSessionHandle::shard)
    }

    /// Every migration performed so far, in order.
    pub fn migrations(&self) -> Vec<MigrationRecord> {
        self.migrations
            .lock()
            .expect("supervisor migration log lock poisoned")
            .clone()
    }

    /// Shuts the supervisor down, dropping all session handles.  Call
    /// before joining the cluster.
    pub fn finish(self) {
        self.lock_sessions().clear();
    }
}

impl FrameSink for Supervisor {
    fn deliver(&self, key: &str, _seq: u64, left: Image, right: Image) -> Result<(), AsvError> {
        self.submit(key, left, right)
    }

    fn recycled_frame(&self, key: &str, width: usize, height: usize) -> Image {
        let handle = self
            .lock_sessions()
            .get(key)
            // lint: alloc-ok(SessionHandle clone is an Arc refcount bump, no heap alloc)
            .map(|placed| placed.handle().clone());
        match handle {
            Some(handle) => handle.recycled_frame(width, height),
            None => Image::zeros(width, height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::scheduler::SchedulerConfig;
    use asv::ism::{IsmConfig, IsmPipeline};
    use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
    use asv_scene::{SceneConfig, StereoSequence};
    use asv_stereo::block_matching::BlockMatchParams;

    fn pipeline() -> IsmPipeline {
        let config = IsmConfig {
            propagation_window: 2,
            refine: BlockMatchParams {
                max_disparity: 16,
                refine_radius: 2,
                ..Default::default()
            },
            surrogate: SurrogateParams {
                max_disparity: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        IsmPipeline::new(
            config,
            SurrogateStereoDnn::new(zoo::dispnet(24, 32), config.surrogate),
        )
    }

    fn small_cluster(shards: usize) -> Arc<Cluster> {
        Arc::new(Cluster::new(
            ClusterConfig::new(shards)
                .with_shard_config(SchedulerConfig::per_core().with_workers(1)),
        ))
    }

    #[test]
    fn first_submit_creates_the_session() {
        let cluster = small_cluster(2);
        let pipeline = pipeline();
        let supervisor = Supervisor::new(Arc::clone(&cluster), move |_| pipeline.state());
        let scene = SceneConfig::scene_flow_like(32, 24).with_seed(7);
        let seq = StereoSequence::generate(&scene, 1);
        let frame = &seq.frames()[0];
        supervisor
            .submit("cam-0", frame.left.clone(), frame.right.clone())
            .expect("submit");
        assert!(supervisor.session_shard("cam-0").is_some());
        assert!(supervisor.migrations().is_empty());
    }

    #[test]
    fn shard_failure_migrates_and_redelivers() {
        let cluster = small_cluster(2);
        let pipeline = pipeline();
        let supervisor = Supervisor::new(Arc::clone(&cluster), move |_| pipeline.state());
        let scene = SceneConfig::scene_flow_like(32, 24).with_seed(11);
        let seq = StereoSequence::generate(&scene, 2);
        let frames = seq.frames();
        supervisor
            .submit("cam-0", frames[0].left.clone(), frames[0].right.clone())
            .expect("first submit");
        let from = supervisor.session_shard("cam-0").expect("placed");
        cluster.trip_shard(from, "test kill");
        supervisor
            .submit("cam-0", frames[1].left.clone(), frames[1].right.clone())
            .expect("submit after kill");
        let to = supervisor.session_shard("cam-0").expect("still placed");
        assert_ne!(from, to, "re-placement must leave the dead shard");
        assert_eq!(
            supervisor.migrations(),
            vec![MigrationRecord {
                key: "cam-0".into(),
                from,
                to
            }]
        );
    }

    #[test]
    fn total_cluster_failure_is_an_error_not_a_hang() {
        let cluster = small_cluster(1);
        let pipeline = pipeline();
        let supervisor = Supervisor::new(Arc::clone(&cluster), move |_| pipeline.state());
        cluster.trip_shard(0, "test kill");
        let scene = SceneConfig::scene_flow_like(32, 24).with_seed(3);
        let seq = StereoSequence::generate(&scene, 1);
        let frame = &seq.frames()[0];
        let error = supervisor
            .submit("cam-0", frame.left.clone(), frame.right.clone())
            .expect_err("no shard can serve");
        assert!(matches!(error, AsvError::ShardDown { .. }), "{error}");
    }
}
