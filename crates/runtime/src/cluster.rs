//! The multi-scheduler cluster: N independent [`Scheduler`] shards behind
//! one placement layer.
//!
//! # Why shard
//!
//! A single [`Scheduler`] multiplexes many sessions over one worker pool and
//! one engine lock.  Past a few dozen busy streams that lock becomes the
//! contention point: every submit, dispatch and commit serializes on it.  A
//! [`Cluster`] runs `N` fully independent schedulers ("shards"), each with
//! its own lock, worker pool and session table, and only decides *placement*
//! — which shard owns a new session.  After placement the shards never talk
//! to each other, so cluster throughput scales with shard count until the
//! machine itself saturates.
//!
//! # Placement
//!
//! Sessions are placed by consistent hashing of their routing key over a
//! ring of virtual nodes ([`ClusterConfig::replicas`] per shard), so the
//! same key always lands on the same shard and adding shards moves only
//! `~1/N` of the keys.  The ring walk skips failed shards, so a key moves
//! deterministically when its shard dies, and placement falls back to the
//! least-loaded surviving shard when the hashed shard is saturated (every
//! inbox full).
//!
//! # Determinism
//!
//! Placement only chooses *where* a session lives; each session's frames
//! still flow through one shard's FIFO machinery.  Per-session results are
//! therefore byte-identical to a single scheduler and to batch
//! [`asv::IsmPipeline::process_sequence`] — the property the simulation
//! harness in [`crate::sim`] locks down.

use crate::export::render_prometheus;
use crate::net::TransportCounters;
use crate::qos::QosConfig;
use crate::scheduler::{
    RuntimeReport, Scheduler, SchedulerConfig, SchedulerObserver, SessionHandle,
};
use crate::session::SessionReport;
use crate::telemetry::AggregateTelemetry;
use asv::ism::IsmState;
use asv::trace::chrome::ChromeTrace;
use asv::AsvError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of scheduler shards (clamped to at least 1).
    pub shards: usize,
    /// Configuration every shard's scheduler is built with.
    pub shard: SchedulerConfig,
    /// Virtual nodes per shard on the consistent-hash ring (clamped to at
    /// least 1).  More replicas smooth the key distribution.
    pub replicas: usize,
}

impl ClusterConfig {
    /// A cluster of `shards` shards with per-core schedulers and 16 virtual
    /// nodes per shard.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            shard: SchedulerConfig::per_core(),
            replicas: 16,
        }
    }

    /// Returns the configuration with a different per-shard scheduler
    /// configuration.
    pub fn with_shard_config(mut self, shard: SchedulerConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Returns the configuration with a different virtual-node count.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::new(2)
    }
}

/// 64-bit FNV-1a with a splitmix64 finalizer — deterministic across runs
/// and platforms, which is what a placement function must be (`std`'s
/// `DefaultHasher` explicitly is not).  Raw FNV-1a mixes the final byte
/// through only one multiply, so short keys differing in their last
/// characters ("cam-1", "cam-2", ...) cluster on the ring; the finalizer
/// restores full avalanche.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// The sharded serving engine: a consistent-hash placement layer over `N`
/// independent [`Scheduler`]s.
///
/// See the module documentation for the placement and determinism model.
#[derive(Debug)]
pub struct Cluster {
    shards: Vec<Scheduler>,
    /// Sorted `(hash, shard)` virtual nodes.
    ring: Vec<(u64, usize)>,
    /// The cluster's own observation handle: live telemetry, the
    /// cluster-level counters and the drain flag, shared with every
    /// observer handed out.
    observer: ClusterObserver,
}

/// Producer-side handle of one cluster session: the shard's
/// [`SessionHandle`] plus where and under which key the session was placed.
#[derive(Debug, Clone)]
pub struct ClusterSessionHandle {
    shard: usize,
    key: String,
    handle: SessionHandle,
}

impl ClusterSessionHandle {
    /// Index of the shard serving this session.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The routing key the session was registered under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The underlying per-shard session handle.
    pub fn handle(&self) -> &SessionHandle {
        &self.handle
    }

    /// Submits one stereo frame to the session's shard; semantics are those
    /// of [`SessionHandle::submit`] under the shard's shed policy.
    ///
    /// # Errors
    ///
    /// Propagates the shard scheduler's error (session failure,
    /// [`AsvError::Shutdown`], or [`AsvError::Saturated`]).
    pub fn submit(&self, left: asv_image::Image, right: asv_image::Image) -> Result<(), AsvError> {
        self.handle.submit(left, right)
    }

    /// Current inbox depth of the session on its shard.
    pub fn queue_depth(&self) -> usize {
        self.handle.queue_depth()
    }
}

/// Everything the cluster produced, returned by [`Cluster::join`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-shard runtime reports, indexed by shard.
    pub shards: Vec<RuntimeReport>,
    /// Cross-shard merge of every shard's aggregate telemetry.
    pub aggregate: AggregateTelemetry,
}

impl ClusterReport {
    /// Looks a session report up by its routing key (label), searching all
    /// shards.
    pub fn session_by_key(&self, key: &str) -> Option<&SessionReport> {
        self.shards.iter().find_map(|shard| {
            shard
                .sessions
                .iter()
                .find(|s| s.label.as_deref() == Some(key))
        })
    }

    /// Renders the final per-shard telemetry in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        let per_shard: Vec<AggregateTelemetry> =
            self.shards.iter().map(|s| s.aggregate.clone()).collect();
        render_prometheus(&per_shard)
    }
}

impl Cluster {
    /// Starts a cluster: `config.shards` independent schedulers, each with
    /// its own worker pool, plus the consistent-hash ring.
    pub fn new(config: ClusterConfig) -> Self {
        let shard_count = config.shards.max(1);
        let replicas = config.replicas.max(1);
        let shards: Vec<Scheduler> = (0..shard_count)
            .map(|_| Scheduler::new(config.shard))
            .collect();
        let mut ring = Vec::with_capacity(shard_count * replicas);
        for shard in 0..shard_count {
            for replica in 0..replicas {
                ring.push((
                    fnv1a(format!("shard-{shard}/vnode-{replica}").as_bytes()),
                    shard,
                ));
            }
        }
        ring.sort_unstable();
        let observer = ClusterObserver {
            shards: shards.iter().map(Scheduler::observer).collect(),
            migrated: Arc::new((0..shard_count).map(|_| AtomicU64::new(0)).collect()),
            transport: Arc::new(TransportCounters::new()),
            draining: Arc::new(AtomicBool::new(false)),
        };
        Self {
            shards,
            ring,
            observer,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Kills one shard (fault injection, or the supervisor reacting to a
    /// detected failure): every session on it dies with
    /// [`AsvError::ShardDown`], queued frames are dropped and counted, and
    /// subsequent placement skips the shard.  See [`Scheduler::trip`].
    pub fn trip_shard(&self, shard: usize, context: impl std::fmt::Display) {
        if let Some(scheduler) = self.shards.get(shard) {
            scheduler.trip(format!("shard {shard}: {context}"));
        }
    }

    /// Number of shards that have not failed.
    pub fn live_shard_count(&self) -> usize {
        self.observer.live_shard_count()
    }

    /// The shard with the lowest instantaneous load among surviving shards.
    ///
    /// # Errors
    ///
    /// [`AsvError::ShardDown`] when every shard has failed.
    fn least_loaded_live_shard(&self) -> Result<usize, AsvError> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_failed())
            .min_by_key(|(_, s)| s.load())
            .map(|(i, _)| i)
            .ok_or_else(|| AsvError::shard_down("every shard in the cluster has failed"))
    }

    /// Failure-aware consistent hashing: walks the ring clockwise from the
    /// key's hash and returns the first virtual node on a surviving shard,
    /// so a key's placement is stable while its shard lives and moves
    /// deterministically when it dies.
    ///
    /// # Errors
    ///
    /// [`AsvError::ShardDown`] when every shard has failed.
    pub fn live_shard_for_key(&self, key: &str) -> Result<usize, AsvError> {
        let hash = fnv1a(key.as_bytes());
        let start = self.ring.partition_point(|&(h, _)| h < hash);
        for k in 0..self.ring.len() {
            let shard = self.ring[(start + k) % self.ring.len()].1;
            if !self.shards[shard].is_failed() {
                return Ok(shard);
            }
        }
        Err(AsvError::shard_down(
            "every shard in the cluster has failed",
        ))
    }

    /// Places a new session on a *surviving* shard and registers it there
    /// under `key` (see [`Scheduler::add_session`] for `qos`): failure-aware
    /// consistent hashing, falling back to the least-loaded surviving shard
    /// when the hashed shard is saturated.  This is also the re-placement
    /// path a supervisor takes when a session's shard dies.  A session under
    /// an SLO exports its degradation level per shard as
    /// `asv_qos_level{shard,session}`.
    ///
    /// # Errors
    ///
    /// [`AsvError::ShardDown`] when every shard has failed.
    pub fn add_session(
        &self,
        key: &str,
        state: IsmState,
        qos: Option<QosConfig>,
    ) -> Result<ClusterSessionHandle, AsvError> {
        let hashed = self.live_shard_for_key(key)?;
        let shard = if self.shards[hashed].is_saturated() {
            self.least_loaded_live_shard()?
        } else {
            hashed
        };
        let handle = self.shards[shard].add_session(state, Some(key.to_owned()), qos); // lint: alloc-ok(session placement, once per stream)
        Ok(ClusterSessionHandle {
            shard,
            key: key.to_owned(), // lint: alloc-ok(session placement, once per stream)
            handle,
        })
    }

    /// Records one session migrated away from `from_shard` (the supervisor
    /// calls this after a successful re-placement); exported as
    /// `asv_sessions_migrated_total{shard}`.
    pub fn record_migration(&self, from_shard: usize) {
        if let Some(counter) = self.observer.migrated.get(from_shard) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The transport error counters folded into this cluster's telemetry;
    /// hand them to [`crate::FrameServer`] / [`crate::FrameClient`] so the
    /// network edge's failures appear in the scrape.
    pub fn transport_counters(&self) -> Arc<TransportCounters> {
        Arc::clone(&self.observer.transport)
    }

    /// Marks the cluster as draining: `/healthz` (via [`ClusterObserver`])
    /// answers 503 from here on, while `/metrics` keeps serving.  Called
    /// automatically at the start of [`Cluster::join`]; call it earlier to
    /// give load balancers a head start.
    pub fn begin_drain(&self) {
        self.observer.draining.store(true, Ordering::Release);
    }

    /// Whether [`Cluster::begin_drain`] (or `join`) has run.
    pub fn is_draining(&self) -> bool {
        self.observer.is_draining()
    }

    /// Live per-shard telemetry snapshots (the scrape path), including the
    /// cluster-level migration and transport-error counters.
    pub fn telemetry(&self) -> Vec<AggregateTelemetry> {
        self.observer.telemetry()
    }

    /// Live cross-shard merge of every shard's telemetry.
    pub fn merged_telemetry(&self) -> AggregateTelemetry {
        let mut merged = AggregateTelemetry::default();
        for shard in self.telemetry() {
            merged.merge(&shard);
        }
        merged
    }

    /// Renders the live per-shard telemetry in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.telemetry())
    }

    /// A detached read-only observation handle over every shard, for the
    /// HTTP metrics endpoint: it can snapshot telemetry and collect frame
    /// traces but cannot place sessions or shut the cluster down.
    pub fn observer(&self) -> ClusterObserver {
        self.observer.clone()
    }

    /// Shuts every shard down (draining its inboxes), joins all worker
    /// pools and returns the per-shard reports plus the cross-shard
    /// telemetry merge.  Flips the drain flag first, so a `/healthz` served
    /// from a still-live observer answers 503 during the drain.
    pub fn join(self) -> ClusterReport {
        self.begin_drain();
        let mut shards: Vec<RuntimeReport> = self.shards.into_iter().map(Scheduler::join).collect();
        fold_cluster_counters(
            shards.iter_mut().map(|report| &mut report.aggregate),
            &self.observer.migrated,
            &self.observer.transport,
        );
        let mut aggregate = AggregateTelemetry::default();
        for shard in &shards {
            aggregate.merge(&shard.aggregate);
        }
        ClusterReport { shards, aggregate }
    }
}

/// Stamps the cluster-level counters onto the per-shard aggregates:
/// migrations are attributed to the shard the sessions left; the transport
/// counters are a cluster-wide edge concern and ride on the first shard's
/// snapshot (the exporter sums across shards and emits them without a
/// `shard` label).
fn fold_cluster_counters<'a>(
    per_shard: impl IntoIterator<Item = &'a mut AggregateTelemetry>,
    migrated: &[AtomicU64],
    transport: &TransportCounters,
) {
    for (shard, (aggregate, counter)) in per_shard.into_iter().zip(migrated).enumerate() {
        aggregate.sessions_migrated = counter.load(Ordering::Relaxed);
        if shard == 0 {
            aggregate.transport_errors = transport.snapshot();
        }
    }
}

/// Read-only cluster-wide observation handle created by
/// [`Cluster::observer`]; cheap to clone and `Send`, so the HTTP endpoint
/// can serve scrapes while the cluster runs.  Snapshots taken after the
/// cluster was joined see empty shards.
#[derive(Debug, Clone)]
pub struct ClusterObserver {
    shards: Vec<SchedulerObserver>,
    /// Sessions re-placed *away* from each shard after it failed
    /// (`asv_sessions_migrated_total{shard}`).
    migrated: Arc<Vec<AtomicU64>>,
    /// Transport error counters of the cluster's network edge
    /// (`asv_transport_errors_total{kind}`); hand
    /// [`Cluster::transport_counters`] to servers/clients so their failures
    /// surface in this cluster's scrape.
    transport: Arc<TransportCounters>,
    /// Flipped by [`Cluster::begin_drain`] (and by `join`): `/healthz`
    /// answers 503 so load balancers stop routing before sessions drain.
    draining: Arc<AtomicBool>,
}

impl ClusterObserver {
    /// Number of shards observed.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether the observed cluster has begun draining (its `join` started
    /// or `begin_drain` ran): the `/healthz` 503 signal.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Number of observed shards that have not failed.
    pub fn live_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| !s.is_failed()).count()
    }

    /// Live per-shard telemetry snapshots, including the cluster-level
    /// migration and transport-error counters.
    pub fn telemetry(&self) -> Vec<AggregateTelemetry> {
        let mut per_shard: Vec<AggregateTelemetry> = self
            .shards
            .iter()
            .map(SchedulerObserver::telemetry_snapshot)
            .collect(); // lint: alloc-ok(telemetry snapshot, off the frame path)
        fold_cluster_counters(&mut per_shard, &self.migrated, &self.transport);
        per_shard
    }

    /// Renders the live per-shard telemetry in Prometheus text format
    /// (the `/metrics` scrape body).
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.telemetry())
    }

    /// Collects every session's captured frame traces into one Chrome
    /// trace-event JSON document (the `/trace` body): one `pid` per shard,
    /// one named `tid` per session.
    pub fn chrome_trace_json(&self) -> String {
        let mut trace = ChromeTrace::new();
        for (pid, shard) in self.shards.iter().enumerate() {
            trace.add_process_name(pid as u32, &format!("shard-{pid}"));
            shard.add_chrome_trace(&mut trace, pid as u32);
        }
        trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_for_key(cluster: &Cluster, key: &str) -> usize {
        cluster
            .live_shard_for_key(key)
            .expect("no shard has failed")
    }

    fn ring_only_cluster(shards: usize) -> Cluster {
        // Zero-worker shards: cheap to build, nothing runs.
        Cluster::new(
            ClusterConfig::new(shards)
                .with_shard_config(SchedulerConfig::per_core().with_workers(0)),
        )
    }

    #[test]
    fn hashing_is_deterministic_and_total() {
        let cluster = ring_only_cluster(4);
        for key in ["cam-0", "cam-1", "warehouse/aisle-7", ""] {
            let shard = shard_for_key(&cluster, key);
            assert!(shard < 4);
            assert_eq!(shard, shard_for_key(&cluster, key), "stable for {key:?}");
        }
    }

    #[test]
    fn keys_spread_over_shards() {
        let cluster = ring_only_cluster(4);
        let mut hit = [0usize; 4];
        for i in 0..256 {
            hit[shard_for_key(&cluster, &format!("camera-{i}"))] += 1;
        }
        assert!(
            hit.iter().all(|&h| h > 0),
            "every shard should own keys: {hit:?}"
        );
    }

    #[test]
    fn adding_a_shard_moves_only_some_keys() {
        let four = ring_only_cluster(4);
        let five = ring_only_cluster(5);
        let moved = (0..512)
            .filter(|i| {
                let key = format!("camera-{i}");
                shard_for_key(&four, &key) != shard_for_key(&five, &key)
            })
            .count();
        // Consistent hashing moves ~1/5 of keys; a modulo scheme moves ~4/5.
        assert!(
            moved < 512 / 2,
            "expected a minority of keys to move, got {moved}/512"
        );
    }
}
