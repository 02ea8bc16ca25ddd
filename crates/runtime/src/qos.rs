//! Deadline-aware adaptive QoS: the closed loop between per-session latency
//! telemetry and ASV's own accuracy-vs-compute knobs.
//!
//! # Why a controller
//!
//! The runtime's admission control (`ShedPolicy`) sheds overload *blindly*:
//! it drops or rejects whole frames without regard to what the session could
//! afford to give up instead.  But ASV's entire premise (Sec. 3 of the
//! paper) is that invariant-based motion compensation trades a sliver of
//! accuracy for large compute savings — the propagation window, the adaptive
//! key-frame threshold and the census-vs-SAD cost metric are all
//! runtime-selectable knobs on a live [`IsmState`].  A deadline-driven
//! deployment should therefore degrade *quality* before it degrades
//! *delivery*: serve every frame, just cheaper.
//!
//! # The control loop
//!
//! Each SLO-managed session owns one [`QosController`].  Every completed
//! frame feeds its end-to-end step latency (queue wait + service time) into
//! the controller's sliding window; the controller compares the windowed
//! p95 against the session's [`SessionSlo`] and walks a fixed degradation
//! ladder:
//!
//! | level | actuation (cumulative)                                         |
//! |-------|----------------------------------------------------------------|
//! | 0     | baseline knobs — full quality                                  |
//! | 1     | key frames switch SAD → census (integer SGM fast path)         |
//! | 2     | propagation window widens to 2× baseline                       |
//! | 3     | window widens to 4× baseline, adaptive-motion threshold 4×     |
//!
//! Violations degrade *fast* (a couple of violating evaluations), recovery
//! is *slow and probing*: the controller steps back toward full quality only
//! after a long streak of samples comfortably inside the SLO
//! ([`QosConfig::recover_margin`]), and a failed probe retreats after the
//! next couple of violations.  The asymmetry plus the post-actuation
//! cooldown (the observation window refills before the next decision) is
//! what keeps the loop from oscillating.
//!
//! The controller is a pure state machine over step-latency observations —
//! no clocks, no threads — so the same code runs under the real scheduler
//! (fed from `Instant` measurements) and under the deterministic
//! virtual-time overload simulation in [`crate::sim`], which is how CI
//! proves the closed loop works.

use asv::ism::{IsmState, KeyFramePolicy};
use asv::CostMetric;

/// Highest degradation level of the ladder.
pub const MAX_QOS_LEVEL: u8 = 3;

/// Minimum frames between two actuations, on top of the window refill (the
/// observation window is cleared on every actuation).
const COOLDOWN_FRAMES: u32 = 8;

/// The service-level objective of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSlo {
    /// Target 95th-percentile end-to-end step latency (submit → finished
    /// disparity map) in microseconds, over the controller's sliding window.
    pub target_p95_step_us: u64,
}

impl SessionSlo {
    /// An SLO with a p95 step-latency target.
    pub fn p95_step_us(target_p95_step_us: u64) -> Self {
        Self { target_p95_step_us }
    }
}

/// Tuning knobs of the per-session QoS control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// The objective the controller defends.
    pub slo: SessionSlo,
    /// Sliding-window size in frames over which the p95 is computed
    /// (clamped to at least 4).
    pub window: usize,
    /// Consecutive violating evaluations before the controller degrades one
    /// level (small = react fast).
    pub degrade_after: u32,
    /// Consecutive comfortably-healthy evaluations before the controller
    /// probes one level back toward full quality (large = probe rarely).
    pub recover_after: u32,
    /// "Comfortably healthy" means windowed p95 ≤ `recover_margin` × the
    /// p95 target.  Samples between the margin and the target are the
    /// hysteresis dead band: they reset both streaks and hold the current
    /// level.
    pub recover_margin: f64,
}

impl QosConfig {
    /// A controller defending `slo` with the default loop dynamics:
    /// 16-frame window, degrade after 2 violations, probe recovery after 32
    /// comfortable evaluations at 70% of the target.
    pub fn new(slo: SessionSlo) -> Self {
        Self {
            slo,
            window: 16,
            degrade_after: 2,
            recover_after: 32,
            recover_margin: 0.7,
        }
    }

    /// Returns the configuration with a different sliding-window size.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Returns the configuration with different degrade/recover streak
    /// lengths.
    pub fn with_streaks(mut self, degrade_after: u32, recover_after: u32) -> Self {
        self.degrade_after = degrade_after;
        self.recover_after = recover_after;
        self
    }

    /// Returns the configuration with a different recovery margin.
    pub fn with_recover_margin(mut self, recover_margin: f64) -> Self {
        self.recover_margin = recover_margin;
        self
    }
}

/// The accuracy-vs-compute knobs the controller actuates, snapshotted from a
/// session's [`IsmState`] at registration (the "full quality" baseline) and
/// re-derived per ladder level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosKnobs {
    /// ISM propagation window (frames per key frame).
    pub propagation_window: usize,
    /// Key-frame selection policy.
    pub key_frame_policy: KeyFramePolicy,
    /// Key-frame matching-cost metric.
    pub metric: CostMetric,
}

impl QosKnobs {
    /// Snapshots the baseline knobs of a live session state.
    pub fn from_state(state: &IsmState) -> Self {
        let config = state.config();
        Self {
            propagation_window: config.propagation_window.max(1),
            key_frame_policy: config.key_frame_policy,
            metric: config.surrogate.metric,
        }
    }

    /// The knob values of ladder level `level`, derived from this baseline.
    /// Level 0 is the baseline itself; deeper levels are cumulative (census
    /// metric, then a 2× window, then a 4× window plus a 4× adaptive-motion
    /// threshold).
    pub fn at_level(&self, level: u8) -> QosKnobs {
        let mut knobs = *self;
        if level >= 1 {
            knobs.metric = CostMetric::Census;
        }
        if level >= 2 {
            knobs.propagation_window = self.propagation_window.saturating_mul(2);
        }
        if level >= 3 {
            knobs.propagation_window = self.propagation_window.saturating_mul(4);
            if let KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px,
            } = self.key_frame_policy
            {
                knobs.key_frame_policy = KeyFramePolicy::AdaptiveMotion {
                    max_median_motion_px: max_median_motion_px * 4.0,
                };
            }
        }
        knobs
    }

    /// Applies the knob values to a live session state (takes effect from
    /// the stream's next frame).
    pub fn apply(&self, state: &mut IsmState) {
        state.set_propagation_window(self.propagation_window);
        state.set_key_frame_policy(self.key_frame_policy);
        state.set_cost_metric(self.metric);
    }
}

/// The kind of one controller actuation, exported as the `action` label of
/// `asv_qos_actuations_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosAction {
    /// Degraded to level 1: key frames switched SAD → census.
    CensusMetric,
    /// Degraded to level 2: propagation window widened to 2× baseline.
    WidenWindow,
    /// Degraded to level 3: window to 4×, adaptive-motion threshold relaxed.
    RelaxMotion,
    /// Stepped one level back toward full quality.
    Recover,
}

impl QosAction {
    /// Number of action kinds.
    pub const COUNT: usize = 4;

    /// Every action in stable export order.
    pub const ALL: [QosAction; QosAction::COUNT] = [
        QosAction::CensusMetric,
        QosAction::WidenWindow,
        QosAction::RelaxMotion,
        QosAction::Recover,
    ];

    /// Stable lowercase name (the Prometheus `action` label value).
    pub fn name(self) -> &'static str {
        match self {
            QosAction::CensusMetric => "census_metric",
            QosAction::WidenWindow => "widen_window",
            QosAction::RelaxMotion => "relax_motion",
            QosAction::Recover => "recover",
        }
    }

    /// Dense index of the action (its slot in the actuation counters).
    pub fn index(self) -> usize {
        match self {
            QosAction::CensusMetric => 0,
            QosAction::WidenWindow => 1,
            QosAction::RelaxMotion => 2,
            QosAction::Recover => 3,
        }
    }

    /// The action performed when degrading *to* `level`.
    fn for_degrade_to(level: u8) -> QosAction {
        match level {
            0 | 1 => QosAction::CensusMetric,
            2 => QosAction::WidenWindow,
            _ => QosAction::RelaxMotion,
        }
    }
}

/// Counters and gauges of one session's QoS loop, embedded in
/// [`crate::SessionTelemetry`] and folded into the aggregate for the
/// Prometheus export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosTelemetry {
    /// Whether this session runs a QoS controller at all.
    pub enabled: bool,
    /// Current degradation level (0 = full quality).
    pub level: u8,
    /// Deepest level the controller ever reached.
    pub max_level_reached: u8,
    /// Evaluations that found the SLO violated.
    pub slo_violations: u64,
    /// Actuations performed, indexed by [`QosAction::index`].
    pub actuations: [u64; QosAction::COUNT],
}

impl QosTelemetry {
    /// Total actuations across all action kinds.
    pub fn actuations_total(&self) -> u64 {
        self.actuations.iter().sum()
    }
}

/// What [`QosController::observe_step`] decided for this frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosTransition {
    /// The controller degraded one level; the caller must apply
    /// [`QosController::knobs`] to the session state.
    Degraded {
        /// The new (deeper) level.
        to: u8,
        /// Which knob was turned.
        action: QosAction,
    },
    /// The controller stepped one level back toward full quality; the caller
    /// must apply [`QosController::knobs`].
    Recovered {
        /// The new (shallower) level.
        to: u8,
    },
}

/// The per-session QoS control loop: a pure state machine from step-latency
/// observations to knob-ladder transitions.  See the module documentation
/// for the control model.
#[derive(Debug, Clone)]
pub struct QosController {
    config: QosConfig,
    baseline: QosKnobs,
    level: u8,
    /// Sliding window of recent step latencies in µs (ring buffer).
    samples: Vec<u64>,
    /// Next ring slot to overwrite once the window is full.
    next_slot: usize,
    violation_streak: u32,
    healthy_streak: u32,
    frames_since_actuation: u32,
    /// Scratch reused by the windowed-quantile computation.
    sorted_scratch: Vec<u64>,
    telemetry: QosTelemetry,
}

impl QosController {
    /// Creates a controller defending `config.slo` for a session whose
    /// full-quality knobs are `baseline`.
    pub fn new(config: QosConfig, baseline: QosKnobs) -> Self {
        let window = config.window.max(4);
        Self {
            config: QosConfig { window, ..config },
            baseline,
            level: 0,
            samples: Vec::with_capacity(window),
            next_slot: 0,
            violation_streak: 0,
            healthy_streak: 0,
            // Saturated high: the cooldown only gates *re*-actuation.
            frames_since_actuation: u32::MAX,
            sorted_scratch: Vec::with_capacity(window),
            telemetry: QosTelemetry {
                enabled: true,
                ..QosTelemetry::default()
            },
        }
    }

    /// Creates a controller for a live session, snapshotting its current
    /// knobs as the full-quality baseline.
    pub fn for_state(config: QosConfig, state: &IsmState) -> Self {
        Self::new(config, QosKnobs::from_state(state))
    }

    /// Current degradation level (0 = full quality).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The knob values of the current level.
    pub fn knobs(&self) -> QosKnobs {
        self.baseline.at_level(self.level)
    }

    /// A copy of the controller's telemetry counters.
    pub fn telemetry(&self) -> QosTelemetry {
        self.telemetry
    }

    /// Evaluations need at least half a window of fresh samples; this also
    /// implements the post-actuation cooldown, because every actuation
    /// clears the window.
    fn min_samples(&self) -> usize {
        (self.config.window / 2).max(2)
    }

    /// Feeds one completed frame's step latency (`step_us` = queue wait +
    /// service time) and runs one evaluation.  Returns the ladder transition
    /// the caller must apply to the session's [`IsmState`], if any.
    pub fn observe_step(&mut self, step_us: u64) -> Option<QosTransition> {
        if self.samples.len() < self.config.window {
            self.samples.push(step_us);
        } else {
            self.samples[self.next_slot] = step_us;
            self.next_slot = (self.next_slot + 1) % self.config.window;
        }
        self.frames_since_actuation = self.frames_since_actuation.saturating_add(1);
        if self.samples.len() < self.min_samples() {
            return None;
        }

        let p95 = quantile_of(&mut self.sorted_scratch, &self.samples, 0.95);
        let slo = self.config.slo;
        let violated = p95 > slo.target_p95_step_us;
        // "Comfortably healthy" applies the recovery margin to the latency
        // target; the dead band between margin and target holds the level.
        let margin_target = (slo.target_p95_step_us as f64 * self.config.recover_margin) as u64;
        let comfortable = !violated && p95 <= margin_target;

        if violated {
            self.telemetry.slo_violations += 1;
            self.violation_streak += 1;
            self.healthy_streak = 0;
        } else if comfortable {
            self.healthy_streak += 1;
            self.violation_streak = 0;
        } else {
            self.violation_streak = 0;
            self.healthy_streak = 0;
        }

        let cooled = self.frames_since_actuation >= COOLDOWN_FRAMES;
        if violated && self.violation_streak >= self.config.degrade_after {
            if self.level < MAX_QOS_LEVEL && cooled {
                self.level += 1;
                let action = QosAction::for_degrade_to(self.level);
                self.actuated(action);
                return Some(QosTransition::Degraded {
                    to: self.level,
                    action,
                });
            }
            return None;
        }
        if comfortable
            && self.healthy_streak >= self.config.recover_after
            && self.level > 0
            && cooled
        {
            self.level -= 1;
            self.actuated(QosAction::Recover);
            return Some(QosTransition::Recovered { to: self.level });
        }
        None
    }

    /// Bookkeeping of one actuation: counters, streak reset and window
    /// clear (samples observed under the old knobs must not drive the next
    /// decision).
    fn actuated(&mut self, action: QosAction) {
        self.telemetry.actuations[action.index()] += 1;
        self.telemetry.level = self.level;
        self.telemetry.max_level_reached = self.telemetry.max_level_reached.max(self.level);
        self.violation_streak = 0;
        self.healthy_streak = 0;
        self.frames_since_actuation = 0;
        self.samples.clear();
        self.next_slot = 0;
    }
}

/// The `q`-quantile of the window's step latencies, on a copy kept in
/// `scratch`.
fn quantile_of(scratch: &mut Vec<u64>, samples: &[u64], q: f64) -> u64 {
    scratch.clear();
    scratch.extend_from_slice(samples);
    nearest_rank(scratch, q)
}

/// The nearest-rank `q`-quantile of `values` (rank `ceil(q * n)` clamped to
/// `1..=n`), sorting them in place; 0 when `values` is empty.
pub(crate) fn nearest_rank(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> QosKnobs {
        QosKnobs {
            propagation_window: 2,
            key_frame_policy: KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px: 1.5,
            },
            metric: CostMetric::Sad,
        }
    }

    fn config() -> QosConfig {
        QosConfig::new(SessionSlo::p95_step_us(10_000))
            .with_window(8)
            .with_streaks(2, 6)
    }

    /// Feeds `n` frames of constant latency, returning every transition.
    fn feed(c: &mut QosController, n: usize, step_us: u64) -> Vec<QosTransition> {
        (0..n).filter_map(|_| c.observe_step(step_us)).collect()
    }

    #[test]
    fn healthy_stream_never_actuates() {
        let mut c = QosController::new(config(), baseline());
        let transitions = feed(&mut c, 200, 2_000);
        assert!(transitions.is_empty());
        assert_eq!(c.level(), 0);
        assert_eq!(c.telemetry().slo_violations, 0);
        assert_eq!(c.telemetry().actuations_total(), 0);
        assert_eq!(c.knobs(), baseline());
    }

    #[test]
    fn violations_walk_the_ladder_in_order() {
        // Sustained 5x-over-target latency must walk census -> window ->
        // motion, in that order, one level per (min_samples + degrade_after)
        // evaluations.
        let mut c = QosController::new(config(), baseline());
        let transitions = feed(&mut c, 60, 50_000);
        let actions: Vec<QosAction> = transitions
            .iter()
            .filter_map(|t| match t {
                QosTransition::Degraded { action, .. } => Some(*action),
                QosTransition::Recovered { .. } => None,
            })
            .collect();
        assert_eq!(
            actions,
            vec![
                QosAction::CensusMetric,
                QosAction::WidenWindow,
                QosAction::RelaxMotion
            ]
        );
        assert_eq!(c.level(), MAX_QOS_LEVEL);
        assert!(c.telemetry().slo_violations > 0);

        // The ladder is cumulative.
        let knobs = c.knobs();
        assert_eq!(knobs.metric, CostMetric::Census);
        assert_eq!(knobs.propagation_window, 8);
        match knobs.key_frame_policy {
            KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px,
            } => assert!((max_median_motion_px - 6.0).abs() < 1e-6),
            other => panic!("expected relaxed adaptive policy, got {other:?}"),
        }
    }

    #[test]
    fn intermediate_levels_change_only_their_knobs() {
        let base = baseline();
        let l1 = base.at_level(1);
        assert_eq!(l1.metric, CostMetric::Census);
        assert_eq!(l1.propagation_window, base.propagation_window);
        assert_eq!(l1.key_frame_policy, base.key_frame_policy);
        let l2 = base.at_level(2);
        assert_eq!(l2.metric, CostMetric::Census);
        assert_eq!(l2.propagation_window, base.propagation_window * 2);
        assert_eq!(l2.key_frame_policy, base.key_frame_policy);
        // A static-policy baseline keeps its policy at every level.
        let static_base = QosKnobs {
            key_frame_policy: KeyFramePolicy::Static,
            ..base
        };
        assert_eq!(
            static_base.at_level(3).key_frame_policy,
            KeyFramePolicy::Static
        );
    }

    #[test]
    fn recovery_requires_a_long_comfortable_streak() {
        let mut c = QosController::new(config(), baseline());
        feed(&mut c, 30, 50_000);
        assert!(c.level() > 0);
        let degraded = c.level();

        // Latency inside the dead band (between margin and target) holds the
        // level indefinitely: no recovery, no further degradation.
        let transitions = feed(&mut c, 100, 9_000);
        assert!(transitions.is_empty(), "dead band must hold the level");
        assert_eq!(c.level(), degraded);

        // Comfortable latency (below 70% of target) recovers one level per
        // recover_after-long streak, stepping all the way back to 0.
        let transitions = feed(&mut c, 200, 2_000);
        let recoveries = transitions
            .iter()
            .filter(|t| matches!(t, QosTransition::Recovered { .. }))
            .count();
        assert_eq!(recoveries, degraded as usize);
        assert_eq!(c.level(), 0);
        assert_eq!(c.knobs(), baseline());
        assert_eq!(
            c.telemetry().actuations[QosAction::Recover.index()],
            degraded as u64
        );
        assert_eq!(c.telemetry().max_level_reached, degraded);
    }

    #[test]
    fn hysteresis_prevents_oscillation_on_alternating_load() {
        // Load flapping every 4 frames between great and terrible: the
        // windowed p95 stays violated, so the controller must ratchet down
        // and stay down — never bounce back up between bursts.
        let mut c = QosController::new(config(), baseline());
        let mut level_drops = 0;
        for burst in 0..40 {
            let step = if burst % 2 == 0 { 1_000 } else { 80_000 };
            for t in feed(&mut c, 4, step) {
                if matches!(t, QosTransition::Recovered { .. }) {
                    level_drops += 1;
                }
            }
        }
        assert!(c.level() > 0, "alternating overload must degrade");
        assert_eq!(level_drops, 0, "no recovery while violations keep coming");
    }
}
