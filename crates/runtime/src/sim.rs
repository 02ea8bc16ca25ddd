//! Deterministic simulation of the serving stack.
//!
//! The runtime's core correctness claim is *determinism*: a frame's
//! disparity map depends only on its session's frame history, never on how
//! many shards, workers, queue hops or retransmissions served it, and after
//! carried state is lost a fresh key frame restarts the stream.  This
//! module turns that claim into an executable experiment:
//!
//! * a **seeded workload generator** ([`generate_streams`]) producing the
//!   same synthetic camera streams for the same [`SimConfig::seed`];
//! * [`run_sim`] — the one scenario driver.  Every session gets a feeder
//!   thread that wire-encodes each frame and pushes it across a seeded
//!   faulty link ([`LinkFaults`]) into the step a [`crate::FrameServer`]
//!   runs per message: [`SequenceGate`] → [`Supervisor`] → [`Cluster`].
//!   Seeded submit jitter perturbs the interleavings (a different one per
//!   shard count, reproducible for a seed), and a [`ShardKill`] trips a
//!   shard once every session has delivered the same number of frames.
//!   Every session's output is compared byte for byte with batch
//!   [`IsmPipeline::process_sequence`], and a migrated session's re-keyed
//!   incarnation with a fresh state run from the kill point;
//! * [`run_overload_sim`] — a virtual-time model of the scheduler that
//!   exercises the QoS control loop over thousands of frames without
//!   running the pipeline.
//!
//! CI runs these through `crates/runtime/tests/{cluster,failover,qos}.rs`.

use crate::cluster::{Cluster, ClusterConfig};
use crate::net::{self, SequenceGate, TransportCounters};
use crate::qos::{nearest_rank, QosAction, QosConfig, QosController, QosKnobs, SessionSlo};
use crate::scheduler::{SchedulerConfig, ShedPolicy};
use crate::session::SessionReport;
use crate::supervisor::{MigrationRecord, Supervisor};
use crate::wire;
use asv::ism::{FrameResult, IsmPipeline, IsmResult, KeyFramePolicy};
use asv::AsvError;
use asv::CostMetric;
use asv_scene::{SceneConfig, StereoSequence};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Parameters of one [`run_sim`] scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed: workload content and injected jitter both derive from
    /// it.
    pub seed: u64,
    /// Concurrent camera sessions.
    pub sessions: usize,
    /// Frames per session.
    pub frames_per_session: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Worker threads per scheduler shard.
    pub workers_per_shard: usize,
    /// Bounded inbox capacity per session.
    pub inbox_capacity: usize,
    /// Upper bound of the injected per-frame submit jitter, microseconds
    /// (0 disables injection).
    pub submit_jitter_us: u64,
    /// Scheduler shards in the cluster.
    pub shards: usize,
    /// Faults of the link between every feeder and the server.
    pub link: LinkFaults,
    /// The shard to kill mid-stream, if any.
    pub kill: Option<ShardKill>,
}

impl SimConfig {
    /// A small configuration that keeps the full determinism sweep fast
    /// enough for CI: one shard, a clean link, no kill.
    pub fn small() -> Self {
        Self {
            seed: 0xA5F,
            sessions: 3,
            frames_per_session: 4,
            width: 48,
            height: 36,
            workers_per_shard: 2,
            inbox_capacity: 2,
            submit_jitter_us: 300,
            shards: 1,
            link: LinkFaults::clean(),
            kill: None,
        }
    }

    /// Returns the configuration with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different session count.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Returns the configuration with a different per-session frame count.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames_per_session = frames;
        self
    }
}

/// Per-mille fault rates of the simulated link, plus the retransmission
/// budget.  Rates are rolled per delivery *attempt*, so a frame can be
/// dropped, corrupted and reordered on successive tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaults {
    /// Seed of the fault roll (independent of the workload seed).
    pub seed: u64,
    /// Per-mille chance a message vanishes in flight.
    pub drop_per_mille: u16,
    /// Per-mille chance a message arrives with one byte flipped.
    pub corrupt_per_mille: u16,
    /// Per-mille chance a message arrives cut off mid-frame (the
    /// half-written-frame-on-disconnect case).
    pub truncate_per_mille: u16,
    /// Per-mille chance a delivered message is delivered twice.
    pub duplicate_per_mille: u16,
    /// Per-mille chance the *next* frame arrives before this one (the
    /// delayed/reordered-link case).
    pub reorder_per_mille: u16,
    /// Delivery attempts per frame before the link declares the session
    /// wedged (the assertion the sim exists to keep false).
    pub max_attempts: usize,
}

impl LinkFaults {
    /// The CI scenario: every fault class well above real-link rates, with
    /// a retransmission budget that makes loss of progress astronomically
    /// unlikely while still bounding the sim.
    pub fn ci() -> Self {
        Self {
            seed: 0xC4_05,
            drop_per_mille: 150,
            corrupt_per_mille: 100,
            truncate_per_mille: 80,
            duplicate_per_mille: 120,
            reorder_per_mille: 120,
            max_attempts: 64,
        }
    }

    /// A lossless link: every fault rate zero.
    pub fn clean() -> Self {
        Self {
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            ..Self::ci()
        }
    }
}

/// A shard killed mid-stream ([`Cluster::trip_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKill {
    /// The shard to kill; `None` kills the shard serving session 0 at the
    /// kill point, which guarantees at least one migration.
    pub victim: Option<usize>,
    /// Frames every session delivers before the kill (raised to at least
    /// 1; a kill at or past the last frame is skipped, since no frame is
    /// left to observe it).
    pub after: usize,
}

/// The routing key of simulated session `index` (shared by the sim and its
/// tests).
pub fn session_key(index: usize) -> String {
    format!("sim-cam-{index}")
}

/// Generates the seeded synthetic camera streams of a simulation.
pub fn generate_streams(config: &SimConfig) -> Vec<StereoSequence> {
    (0..config.sessions)
        .map(|i| {
            let scene = SceneConfig::scene_flow_like(config.width, config.height)
                .with_seed(config.seed.wrapping_mul(1009).wrapping_add(i as u64))
                .with_objects(2);
            StereoSequence::generate(&scene, config.frames_per_session)
        })
        .collect()
}

/// Outcome of one [`run_sim`] scenario.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Frames the server accepted exactly once.
    pub frames_delivered: u64,
    /// Messages the link dropped.
    pub frames_dropped: u64,
    /// Messages delivered with a flipped byte (all must be rejected).
    pub frames_corrupted: u64,
    /// Messages delivered cut off mid-frame (all must be rejected).
    pub frames_truncated: u64,
    /// Accepted messages the link delivered a second time (all must be
    /// deduplicated).
    pub frames_duplicated: u64,
    /// Messages that arrived ahead of order (all must be refused as gaps).
    pub frames_reordered: u64,
    /// Sender retransmissions forced by unacknowledged deliveries.
    pub retransmissions: u64,
    /// Total faults counted by the transport counters (every injected
    /// corruption/truncation/gap must appear here).
    pub transport_errors: u64,
    /// The shard the sim killed (`None` without a kill).
    pub victim: Option<usize>,
    /// Every re-placement the supervisor performed.
    pub migrations: Vec<MigrationRecord>,
    /// Per session: the frame whose delivery moved the session to another
    /// shard, re-delivered there as the first (key) frame of the new
    /// incarnation (`None` for sessions that never moved).
    pub migration_frame: Vec<Option<usize>>,
    /// Frames byte-compared against their references.
    pub frames_compared: u64,
    /// Human-readable descriptions of every divergence and every wedged
    /// session (empty on success).
    pub mismatches: Vec<String>,
    /// The final Prometheus scrape, containing the
    /// `asv_sessions_migrated_total` / `asv_transport_errors_total`
    /// families.
    pub scrape: String,
}

impl SimReport {
    /// Whether every compared frame was byte-identical to its reference
    /// and no session wedged.
    pub fn is_deterministic(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Adds one feeder's link tallies and mismatches.
    fn absorb(&mut self, feeder: SimReport) {
        self.frames_delivered += feeder.frames_delivered;
        self.frames_dropped += feeder.frames_dropped;
        self.frames_corrupted += feeder.frames_corrupted;
        self.frames_truncated += feeder.frames_truncated;
        self.frames_duplicated += feeder.frames_duplicated;
        self.frames_reordered += feeder.frames_reordered;
        self.retransmissions += feeder.retransmissions;
        self.mismatches.extend(feeder.mismatches);
    }

    /// Byte-compares one session incarnation against its reference frames.
    /// A `prefix` incarnation (one that died with its shard) may hold only
    /// the reference's first frames; any other must hold all of them and
    /// no error.
    fn compare(
        &mut self,
        label: &str,
        reference: &[FrameResult],
        actual: Option<&SessionReport>,
        prefix: bool,
    ) {
        let Some(session) = actual else {
            self.mismatches.push(format!("{label}: session missing"));
            return;
        };
        if let (false, Some(error)) = (prefix, &session.error) {
            self.mismatches
                .push(format!("{label}: session failed: {error}"));
        }
        let frames = &session.frames;
        if frames.len() > reference.len() || (!prefix && frames.len() != reference.len()) {
            self.mismatches.push(format!(
                "{label}: {} frames, expected {}",
                frames.len(),
                reference.len()
            ));
            return;
        }
        for (frame, (e, a)) in reference.iter().zip(frames).enumerate() {
            self.frames_compared += 1;
            if e.kind != a.kind {
                self.mismatches.push(format!(
                    "{label} frame {frame}: kind {:?}, expected {:?}",
                    a.kind, e.kind
                ));
            }
            if e.disparity != a.disparity {
                self.mismatches
                    .push(format!("{label} frame {frame}: disparity diverges"));
            }
        }
    }
}

/// The server side of the simulated link: the state one
/// [`crate::FrameServer`] shares across its connections.
struct Server {
    gate: SequenceGate,
    sink: Supervisor,
    counters: Arc<TransportCounters>,
}

impl Server {
    /// Runs one message through the server's own per-message step and
    /// reports whether it was acknowledged as accepted or duplicate (a
    /// rejected message is retransmitted by the sender).
    fn receive(&self, message: &[u8]) -> Option<u8> {
        net::receive_message(
            message,
            &self.sink,
            &self.gate,
            &self.counters,
            wire::MAX_MESSAGE_BYTES,
        )
        .map(|(status, _)| status)
        .filter(|&status| status == net::ACK_ACCEPTED || status == net::ACK_DUPLICATE)
    }
}

/// Runs one seeded scenario down the networked serving path: each session's
/// feeder thread wire-encodes its frames and pushes them across the
/// [`SimConfig::link`] (drop/corrupt/truncate/duplicate/reorder, with
/// at-least-once retransmission until each frame is acknowledged) into the
/// server's per-message step — [`SequenceGate`] → [`Supervisor`] → a
/// [`Cluster`] of [`SimConfig::shards`] lossless shards — under seeded
/// submit jitter.  With a [`SimConfig::kill`], once every session has
/// delivered `after` frames the victim shard is tripped and the supervisor
/// must re-place and re-key its sessions.
///
/// Compared afterwards: an untouched session against batch
/// [`IsmPipeline::process_sequence`]; a migrated session's dead incarnation
/// against the batch prefix it processed, and its re-keyed incarnation
/// against a fresh state run from frame `after`.
///
/// # Errors
///
/// Returns the first [`AsvError`] of encoding or of computing the
/// references (divergences, wedged sessions and rejected frames are
/// recorded in [`SimReport::mismatches`], not returned).
pub fn run_sim(pipeline: &IsmPipeline, config: &SimConfig) -> Result<SimReport, AsvError> {
    let streams = generate_streams(config);
    let batch: Vec<IsmResult> = streams
        .iter()
        .map(|s| pipeline.process_sequence(s))
        .collect::<Result<_, _>>()?;
    let mut messages = Vec::with_capacity(streams.len());
    for (i, stream) in streams.iter().enumerate() {
        let key = session_key(i);
        let mut pending = VecDeque::with_capacity(stream.len());
        for (seq, frame) in stream.frames().iter().enumerate() {
            let mut bytes = Vec::new();
            wire::encode_frame_into(&mut bytes, &key, seq as u64, &frame.left, &frame.right)?;
            pending.push_back((seq, bytes));
        }
        messages.push(pending);
    }

    // The shards run the lossless `Block` policy: determinism requires it.
    let shard_config = SchedulerConfig {
        workers: config.workers_per_shard.max(1),
        inbox_capacity: config.inbox_capacity,
        shed_policy: ShedPolicy::Block,
    };
    let cluster = Arc::new(Cluster::new(
        ClusterConfig::new(config.shards).with_shard_config(shard_config),
    ));
    let state_pipeline = pipeline.clone();
    let server = Server {
        gate: SequenceGate::new(),
        sink: Supervisor::new(Arc::clone(&cluster), move |_| state_pipeline.state()),
        counters: cluster.transport_counters(),
    };
    let frames = config.frames_per_session;
    let kill_at = config
        .kill
        .map(|kill| kill.after.max(1))
        .filter(|&after| after < frames);
    let barrier = Barrier::new(config.sessions + 1);

    let mut report = SimReport::default();
    std::thread::scope(|scope| {
        let feeders: Vec<_> = messages
            .into_iter()
            .enumerate()
            .map(|(i, pending)| {
                let (server, barrier) = (&server, &barrier);
                scope.spawn(move || feed(i, pending, config, kill_at, barrier, server))
            })
            .collect();
        if kill_at.is_some() {
            // Every session has delivered `after` frames.  Placement is
            // lazy and may have taken the saturation fallback, so ask the
            // supervisor where session 0 actually lives.
            barrier.wait();
            let victim = config
                .kill
                .and_then(|kill| kill.victim)
                .or_else(|| server.sink.session_shard(&session_key(0)))
                .unwrap_or(0);
            cluster.trip_shard(victim, "sim kill");
            report.victim = Some(victim);
            barrier.wait();
        }
        for feeder in feeders {
            let (tally, migrated) = feeder.join().expect("sim feeder panicked");
            report.absorb(tally);
            report.migration_frame.push(migrated);
        }
    });

    report.transport_errors = server.counters.total();
    report.migrations = server.sink.migrations();
    server.sink.finish();
    let cluster = Arc::try_unwrap(cluster).expect("supervisor retained a cluster handle");
    let outcome = cluster.join();
    report.scrape = outcome.render_prometheus();

    let rekey = kill_at.unwrap_or(frames);
    for (i, (stream, expected)) in streams.iter().zip(&batch).enumerate() {
        let key = session_key(i);
        let incarnation = |shard: usize| {
            outcome
                .shards
                .get(shard)?
                .sessions
                .iter()
                .find(|s| s.label.as_deref() == Some(&key))
        };
        let Some(moved) = report.migrations.iter().find(|m| m.key == key).cloned() else {
            report.compare(&key, &expected.frames, outcome.session_by_key(&key), false);
            continue;
        };
        // The dead incarnation processed at most the frames delivered
        // before the kill; the re-keyed one starts from a key frame at the
        // kill point.
        report.compare(
            &format!("{key} on dead shard {}", moved.from),
            &expected.frames[..rekey],
            incarnation(moved.from),
            true,
        );
        let mut state = pipeline.state();
        let suffix = stream.frames()[rekey..]
            .iter()
            .map(|frame| state.step(&frame.left, &frame.right))
            .collect::<Result<Vec<_>, _>>()?;
        report.compare(
            &format!("{key} re-keyed on shard {}", moved.to),
            &suffix,
            incarnation(moved.to),
            false,
        );
    }
    Ok(report)
}

/// One session's feeder: sends every message across the faulty link until
/// the server acknowledges it, waiting at the kill rendezvous before frame
/// `kill_at`.  Returns the link tallies and the frame that moved the
/// session to another shard.
fn feed(
    i: usize,
    mut pending: VecDeque<(usize, Vec<u8>)>,
    config: &SimConfig,
    kill_at: Option<usize>,
    barrier: &Barrier,
    server: &Server,
) -> (SimReport, Option<usize>) {
    let key = session_key(i);
    let link = config.link;
    let mut faults =
        SmallRng::seed_from_u64(link.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Distinct per shard count, so each run explores a different (but
    // reproducible) interleaving.
    let mut jitter = SmallRng::seed_from_u64(
        config.seed ^ (config.shards as u64).wrapping_mul(0x9E37) ^ ((i as u64) << 32),
    );
    let drop_at = u32::from(link.drop_per_mille);
    let corrupt_at = drop_at + u32::from(link.corrupt_per_mille);
    let truncate_at = corrupt_at + u32::from(link.truncate_per_mille);
    let reorder_at = truncate_at + u32::from(link.reorder_per_mille);
    let duplicate_at = 1000u32.saturating_sub(u32::from(link.duplicate_per_mille));
    let mut tally = SimReport::default();
    let (mut shard, mut migrated) = (None, None);

    'frames: while let Some((seq, bytes)) = pending.pop_front() {
        if kill_at == Some(seq) {
            barrier.wait(); // every session has delivered `seq` frames...
            barrier.wait(); // ...and the victim is down.
        }
        if config.submit_jitter_us > 0 {
            let us = jitter.gen_range(0..config.submit_jitter_us);
            std::thread::sleep(Duration::from_micros(us));
        }
        for _attempt in 0..link.max_attempts.max(1) {
            let roll: u32 = faults.gen_range(0u32..1000);
            if roll < drop_at {
                tally.frames_dropped += 1;
                tally.retransmissions += 1;
                continue;
            }
            if roll < corrupt_at {
                let mut mangled = bytes.clone();
                let at = faults.gen_range(0..mangled.len());
                mangled[at] ^= 0x41;
                if server.receive(&mangled).is_some() {
                    tally
                        .mismatches
                        .push(format!("{key} seq {seq}: corrupt message was accepted"));
                }
                tally.frames_corrupted += 1;
                tally.retransmissions += 1;
                continue;
            }
            if roll < truncate_at {
                let keep = faults.gen_range(4..bytes.len());
                if server.receive(&bytes[..keep]).is_some() {
                    tally
                        .mismatches
                        .push(format!("{key} seq {seq}: truncated message was accepted"));
                }
                tally.frames_truncated += 1;
                tally.retransmissions += 1;
                continue;
            }
            if roll < reorder_at {
                // The delayed-link case: the next frame overtakes this one.
                // The gate must refuse it (gap), keeping it pending for
                // in-order delivery later.
                if let Some((ahead_seq, ahead)) = pending.front() {
                    if server.receive(ahead).is_some() {
                        tally.mismatches.push(format!(
                            "{key} seq {ahead_seq}: out-of-order message was accepted"
                        ));
                    }
                    tally.frames_reordered += 1;
                }
            }
            match server.receive(&bytes) {
                Some(net::ACK_ACCEPTED) => tally.frames_delivered += 1,
                Some(_) => {}
                None => {
                    tally.retransmissions += 1;
                    continue;
                }
            }
            if roll >= duplicate_at {
                if server.receive(&bytes) == Some(net::ACK_ACCEPTED) {
                    tally
                        .mismatches
                        .push(format!("{key} seq {seq}: duplicate was re-delivered"));
                }
                tally.frames_duplicated += 1;
            }
            // Only this feeder delivers to the session, so a shard change
            // was caused by this frame.
            let now = server.sink.session_shard(&key);
            if shard.is_some() && now != shard {
                migrated.get_or_insert(seq);
            }
            shard = now;
            continue 'frames;
        }
        tally.mismatches.push(format!(
            "{key} seq {seq}: wedged after {} delivery attempts",
            link.max_attempts
        ));
    }
    (tally, migrated)
}

/// Deterministic per-frame service cost as a function of the session's QoS
/// knobs, used by [`run_overload_sim`].  The numbers mirror the real
/// pipeline's shape — census key frames are cheaper than SAD (integer SGM
/// fast path), propagated non-key frames are far cheaper than any key frame
/// — without paying for real kernels, so the control loop can be exercised
/// over thousands of virtual frames in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Service time of a SAD key frame, µs.
    pub key_sad_us: u64,
    /// Service time of a census key frame, µs.
    pub key_census_us: u64,
    /// Service time of a propagated non-key frame, µs.
    pub non_key_us: u64,
}

impl CostModel {
    fn service_us(&self, knobs: &QosKnobs, is_key: bool) -> u64 {
        if !is_key {
            self.non_key_us
        } else if knobs.metric == CostMetric::Census {
            self.key_census_us
        } else {
            self.key_sad_us
        }
    }
}

/// Parameters of one [`run_overload_sim`] experiment: `sessions` symmetric
/// camera streams arrive every `overload_interval_us` for `overload_frames`
/// frames (over worker-pool capacity at full quality), then relax to
/// `relaxed_interval_us` for `relaxed_frames` more frames (under capacity at
/// every level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Master seed of the per-session motion traces.
    pub seed: u64,
    /// Concurrent camera sessions.
    pub sessions: usize,
    /// Simulated worker threads shared by all sessions.
    pub workers: usize,
    /// Frames per session in the overload phase.
    pub overload_frames: usize,
    /// Frames per session in the relaxed phase.
    pub relaxed_frames: usize,
    /// Per-session frame arrival interval during overload, µs.
    pub overload_interval_us: u64,
    /// Per-session frame arrival interval after the load drops, µs.
    pub relaxed_interval_us: u64,
    /// The SLO every session is registered under.
    pub slo: SessionSlo,
    /// The per-frame service-cost model.
    pub cost: CostModel,
}

impl OverloadConfig {
    /// The CI scenario: four streams over the capacity of two workers at
    /// full quality (the ladder's resting level 3 is comfortably under),
    /// then a relaxed phase long enough for the slow hysteresis to walk all
    /// the way back to full quality.
    pub fn ci() -> Self {
        Self {
            seed: 0x0A57,
            sessions: 4,
            workers: 2,
            overload_frames: 140,
            relaxed_frames: 420,
            overload_interval_us: 10_000,
            relaxed_interval_us: 40_000,
            slo: SessionSlo::p95_step_us(40_000),
            cost: CostModel {
                key_sad_us: 18_000,
                key_census_us: 13_000,
                non_key_us: 1_500,
            },
        }
    }

    /// The QoS loop configuration the scenario registers sessions with: an
    /// 8-frame window reacts within a few frames of a violation; the
    /// 150-evaluation recovery streak makes quality probes slower than the
    /// overload phase itself, so the steady state degrades once and holds.
    pub fn qos(&self) -> QosConfig {
        QosConfig::new(self.slo)
            .with_window(8)
            .with_streaks(2, 150)
            .with_recover_margin(0.6)
    }

    /// The full-quality baseline knobs of every simulated session.
    pub fn baseline(&self) -> QosKnobs {
        QosKnobs {
            propagation_window: 2,
            key_frame_policy: KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px: 1.5,
            },
            metric: CostMetric::Sad,
        }
    }

    fn frames_per_session(&self) -> usize {
        self.overload_frames + self.relaxed_frames
    }

    /// Arrival time of `session`'s frame `index` (sessions are phase-offset
    /// by 1 ms so dispatch order is deterministic but not lock-stepped).
    fn arrival_us(&self, session: usize, index: usize) -> u64 {
        let base = if index < self.overload_frames {
            index as u64 * self.overload_interval_us
        } else {
            self.overload_frames as u64 * self.overload_interval_us
                + (index - self.overload_frames) as u64 * self.relaxed_interval_us
        };
        base + session as u64 * 1_000
    }
}

/// What one session experienced in the overload experiment.
#[derive(Debug, Clone)]
pub struct OverloadSessionReport {
    /// The session's routing key.
    pub key: String,
    /// p95 step latency (µs) over the last half of the overload-phase
    /// arrivals — the steady state after the controller settled (or, with
    /// QoS off, after the queue collapse is in full swing).
    pub overload_p95_us: u64,
    /// p95 step latency (µs) over the last half of the relaxed-phase
    /// arrivals.
    pub relaxed_p95_us: u64,
    /// Deepest degradation level the session reached.
    pub max_level: u8,
    /// Degradation level at the end of the run.
    pub final_level: u8,
    /// SLO-violation evaluations counted by the session's controller.
    pub slo_violations: u64,
    /// Total knob actuations (degradations + recoveries).
    pub actuations: u64,
}

/// Outcome of one [`run_overload_sim`] run.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Whether sessions ran QoS controllers.
    pub qos_enabled: bool,
    /// Per-session outcomes, in session order.
    pub sessions: Vec<OverloadSessionReport>,
    /// Actuations across all sessions, indexed by [`QosAction::index`].
    pub total_actuations: [u64; QosAction::COUNT],
}

impl OverloadReport {
    /// Whether every session's steady-state overload p95 met the SLO.
    pub fn all_meet_slo(&self, slo: &SessionSlo) -> bool {
        self.sessions
            .iter()
            .all(|s| s.overload_p95_us <= slo.target_p95_step_us)
    }
}

/// Nearest-rank p95 of the last half of `samples` (arrival order).
fn last_half_p95(samples: &[u64]) -> u64 {
    nearest_rank(&mut samples[samples.len() / 2..].to_vec(), 0.95)
}

/// Runs the deadline-vs-overload experiment in virtual time: a
/// discrete-event model of the scheduler (worker pool + per-session frame
/// serialization + FIFO order) serves the seeded workload, with every
/// session's *real* [`QosController`] in the loop when `qos_enabled` —
/// exactly the code the production scheduler runs, fed from a virtual
/// microsecond timeline instead of `Instant`s.  Key-frame
/// selection mirrors ISM: a key every `propagation_window` frames, plus
/// seeded motion spikes that force re-keys whenever they exceed the
/// session's `AdaptiveMotion` threshold (so relaxing the threshold — the
/// level-3 actuation — visibly cheapens the stream).
///
/// Fully deterministic: same config, same report, no threads, no wall
/// clock.
pub fn run_overload_sim(config: &OverloadConfig, qos_enabled: bool) -> OverloadReport {
    let sessions = config.sessions.max(1);
    let frames = config.frames_per_session();
    let baseline = config.baseline();

    struct SimSession {
        next_frame: usize,
        free_us: u64,
        since_key: usize,
        knobs: QosKnobs,
        controller: Option<QosController>,
        motion: SmallRng,
        steps: Vec<u64>,
        max_level: u8,
    }

    let mut sim: Vec<SimSession> = (0..sessions)
        .map(|i| SimSession {
            next_frame: 0,
            free_us: 0,
            since_key: 0,
            knobs: baseline,
            controller: qos_enabled.then(|| QosController::new(config.qos(), baseline)),
            motion: SmallRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i as u64),
            ),
            steps: Vec::with_capacity(frames),
            max_level: 0,
        })
        .collect();
    let mut workers = vec![0u64; config.workers.max(1)];

    for _ in 0..sessions * frames {
        // Dispatch the frame that can start earliest: FIFO per session, one
        // frame of a session in service at a time — the scheduler's model.
        let (idx, arrival) = sim
            .iter()
            .enumerate()
            .filter(|(_, s)| s.next_frame < frames)
            .map(|(i, s)| (i, config.arrival_us(i, s.next_frame), s.free_us))
            .min_by_key(|&(i, arrival, free)| (arrival.max(free), i))
            .map(|(i, arrival, _)| (i, arrival))
            .expect("frames remain");
        let worker = workers
            .iter_mut()
            .min()
            .expect("sim has at least one worker");
        let session = &mut sim[idx];

        // ISM key-frame selection under the session's current knobs.
        let threshold = match session.knobs.key_frame_policy {
            KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px,
            } => max_median_motion_px,
            KeyFramePolicy::Static => f32::INFINITY,
        };
        let motion: f32 = session.motion.gen_range(0.0..3.0);
        let is_key = session.next_frame == 0
            || session.since_key >= session.knobs.propagation_window
            || motion > threshold;
        session.since_key = if is_key { 1 } else { session.since_key + 1 };

        let start = arrival.max(session.free_us).max(*worker);
        let complete = start + config.cost.service_us(&session.knobs, is_key);
        *worker = complete;
        session.free_us = complete;
        session.next_frame += 1;
        let step_us = complete - arrival;
        session.steps.push(step_us);

        if let Some(controller) = &mut session.controller {
            if controller.observe_step(complete, step_us).is_some() {
                session.knobs = controller.knobs();
            }
            session.max_level = session.max_level.max(controller.level());
        }
    }

    let mut total_actuations = [0u64; QosAction::COUNT];
    let reports = sim
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let telemetry = s
                .controller
                .as_ref()
                .map(QosController::telemetry)
                .unwrap_or_default();
            for (total, &n) in total_actuations.iter_mut().zip(telemetry.actuations.iter()) {
                *total += n;
            }
            OverloadSessionReport {
                key: session_key(i),
                overload_p95_us: last_half_p95(&s.steps[..config.overload_frames]),
                relaxed_p95_us: last_half_p95(&s.steps[config.overload_frames..]),
                max_level: s.max_level,
                final_level: s.controller.as_ref().map_or(0, QosController::level),
                slo_violations: telemetry.slo_violations,
                actuations: telemetry.actuations_total(),
            }
        })
        .collect();

    OverloadReport {
        qos_enabled,
        sessions: reports,
        total_actuations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_seed_stable() {
        let config = SimConfig::small().with_sessions(2).with_frames(2);
        let a = generate_streams(&config);
        let b = generate_streams(&config);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            for (fx, fy) in x.frames().iter().zip(y.frames()) {
                assert_eq!(fx.left, fy.left);
                assert_eq!(fx.right, fy.right);
            }
        }
        let other = generate_streams(&config.with_seed(999));
        assert_ne!(
            a[0].frames()[0].left,
            other[0].frames()[0].left,
            "different seeds must produce different workloads"
        );
    }
}
