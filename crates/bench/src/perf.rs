//! Steady-state streaming performance baseline (the `tab_perf` binary).
//!
//! Measures what the workspace layer (`asv::Workspace`) actually buys on one
//! stream: the same frames are served once through the allocating entry
//! point [`IsmState::step`] (a throwaway workspace per frame — the
//! pre-workspace allocation profile) and once through
//! [`IsmState::step_with`] with a warm per-stream workspace and result-map
//! recycling.  Only the steady-state frames (2..N, after the key-frame and
//! non-key-frame paths have warmed) are timed.
//!
//! The report renders both as a human-readable table and as the
//! machine-readable `BENCH_streaming.json`, giving the repository a recorded
//! perf trajectory: CI regenerates the file on every push and uploads it as
//! an artifact, so regressions show up as a diff of numbers rather than a
//! hunch.
//!
//! Allocation counts come from [`asv_mem::alloc_count`] and are only
//! non-zero when the calling binary installs the counting global allocator
//! (as `tab_perf` does); library callers without it get zeros there and
//! valid timings everywhere else.
//!
//! [`IsmState::step`]: asv::ism::IsmState::step
//! [`IsmState::step_with`]: asv::ism::IsmState::step_with

use asv::ism::{FrameKind, IsmConfig, IsmPipeline};
use asv::trace::{FrameTrace, Stage};
use asv::Workspace;
use asv_dnn::{zoo, CostMetric, SurrogateParams, SurrogateStereoDnn};
use asv_mem::alloc_count;
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Workload description of one steady-state measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Steady-state frames measured (after the two warm-up frames).
    pub frames: usize,
    /// Maximum disparity of both the surrogate and the refinement search.
    pub max_disparity: usize,
    /// Key frame every `propagation_window` frames.
    pub propagation_window: usize,
}

impl PerfConfig {
    /// The qHD streaming workload (960×540, the streaming profile's
    /// 32-disparity search): the repository's recorded baseline.
    pub fn qhd() -> Self {
        Self {
            width: 960,
            height: 540,
            frames: 12,
            max_disparity: 32,
            propagation_window: 4,
        }
    }

    /// A small smoke workload for CI (same shape, seconds instead of
    /// minutes).
    pub fn quick() -> Self {
        Self {
            width: 160,
            height: 120,
            frames: 8,
            max_disparity: 16,
            propagation_window: 4,
        }
    }
}

/// Where one pipeline stage's time goes, split by frame kind.  Means come
/// from the tracer's per-frame span totals; fractions are the stage's share
/// of the measured step latency of frames of that kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePerf {
    /// Stable stage name (`asv::trace::Stage::name`).
    pub stage: String,
    /// Mean time in this stage per key frame, microseconds.
    pub key_mean_us: u64,
    /// Mean time in this stage per non-key frame, microseconds.
    pub nonkey_mean_us: u64,
    /// Share of total key-frame latency spent in this stage (0..=1).
    pub key_fraction: f64,
    /// Share of total non-key-frame latency spent in this stage (0..=1).
    pub nonkey_fraction: f64,
}

/// One side (allocating or workspace) of the measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathReport {
    /// Steady-state frames per second.
    pub fps: f64,
    /// Median steady-state step latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile steady-state step latency, microseconds.
    pub p95_us: u64,
    /// Mean key-frame step latency, microseconds (0 if none measured).
    pub key_mean_us: u64,
    /// Mean non-key-frame step latency, microseconds (0 if none measured).
    pub nonkey_mean_us: u64,
    /// Key frames among the measured steady-state frames.
    pub key_frames: usize,
    /// Non-key frames among the measured steady-state frames.
    pub nonkey_frames: usize,
    /// Heap allocation events per steady-state frame (0 unless the binary
    /// installs the counting allocator).
    pub allocs_per_frame: f64,
    /// Per-stage breakdown, in [`Stage::ALL`] order, stages that never ran
    /// omitted.  Empty for the allocating baseline (its throwaway
    /// workspaces discard their tracer with every frame).
    pub stages: Vec<StagePerf>,
}

/// The full before/after record written to `BENCH_streaming.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// The measured workload.
    pub config: PerfConfig,
    /// SIMD tier the stereo kernels dispatched to (e.g. `avx2`).
    pub simd: String,
    /// The allocating path ([`asv::ism::IsmState::step`]): before.
    pub baseline: PathReport,
    /// The workspace path ([`asv::ism::IsmState::step_with`]): after,
    /// with the SAD cost metric (the recorded reference).
    pub workspace: PathReport,
    /// The workspace path with the census/Hamming cost metric (the integer
    /// SIMD key-frame fast path).
    pub census: PathReport,
    /// `workspace.fps / baseline.fps`.
    pub speedup: f64,
    /// `workspace.key_mean_us / census.key_mean_us`: how much faster census
    /// key frames are than SAD key frames on the same stream.
    pub census_key_speedup: f64,
}

fn perf_pipeline(cfg: &PerfConfig, metric: CostMetric) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: cfg.propagation_window,
        refine: BlockMatchParams {
            max_disparity: cfg.max_disparity,
            refine_radius: 3,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity: cfg.max_disparity,
            occlusion_handling: true,
            metric,
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(cfg.height, cfg.width), config.surrogate),
    )
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the steady-state frames through `step`, collecting per-frame
/// latency, kind, allocation counts and (when the step provides them)
/// per-stage span totals.
fn measure(
    seq: &StereoSequence,
    mut step: impl FnMut(&asv_scene::StereoFrame) -> (FrameKind, Option<[u64; Stage::COUNT]>),
) -> PathReport {
    let steady = &seq.frames()[2..];
    let mut latencies = Vec::with_capacity(steady.len());
    let mut kinds = Vec::with_capacity(steady.len());
    // Summed stage nanoseconds and summed step microseconds, [key, non-key].
    let mut stage_ns = [[0u64; Stage::COUNT]; 2];
    let mut kind_us = [0u64; 2];
    let allocs_before = alloc_count::allocations();
    let started = Instant::now();
    for frame in steady {
        let frame_started = Instant::now();
        let (kind, totals) = step(frame);
        let us = frame_started.elapsed().as_micros() as u64;
        latencies.push(us);
        kinds.push(kind);
        let side = usize::from(kind != FrameKind::KeyFrame);
        kind_us[side] += us;
        if let Some(totals) = totals {
            for (acc, ns) in stage_ns[side].iter_mut().zip(totals) {
                *acc += ns;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let allocs = alloc_count::allocations() - allocs_before;

    let mean_of = |want: FrameKind| -> u64 {
        let (sum, n) = latencies
            .iter()
            .zip(&kinds)
            .filter(|(_, &k)| k == want)
            .fold((0u64, 0u64), |(s, n), (&us, _)| (s + us, n + 1));
        sum.checked_div(n).unwrap_or(0)
    };
    let key_mean_us = mean_of(FrameKind::KeyFrame);
    let nonkey_mean_us = mean_of(FrameKind::NonKeyFrame);
    let key_frames = kinds.iter().filter(|&&k| k == FrameKind::KeyFrame).count();
    let nonkey_frames = kinds.len() - key_frames;

    let stages = Stage::ALL
        .iter()
        .filter(|stage| stage_ns.iter().any(|side| side[stage.index()] > 0))
        .map(|stage| {
            let mean_us = |side: usize, frames: usize| {
                (stage_ns[side][stage.index()] / 1_000) / frames.max(1) as u64
            };
            let fraction = |side: usize| {
                (stage_ns[side][stage.index()] as f64 / 1_000.0) / (kind_us[side] as f64).max(1.0)
            };
            StagePerf {
                stage: stage.name().to_owned(),
                key_mean_us: mean_us(0, key_frames),
                nonkey_mean_us: mean_us(1, nonkey_frames),
                key_fraction: fraction(0),
                nonkey_fraction: fraction(1),
            }
        })
        .collect();

    let mut sorted = latencies;
    sorted.sort_unstable();
    PathReport {
        fps: steady.len() as f64 / elapsed.max(1e-9),
        p50_us: percentile(&sorted, 0.50),
        p95_us: percentile(&sorted, 0.95),
        key_mean_us,
        nonkey_mean_us,
        key_frames,
        nonkey_frames,
        allocs_per_frame: allocs as f64 / (kinds.len().max(1)) as f64,
        stages,
    }
}

/// Runs the before/after steady-state measurement on a synthetic stream of
/// `cfg.frames + 2` frames (two warm-ups, `cfg.frames` measured).
///
/// # Panics
///
/// Panics if the pipeline fails on the synthetic stream (it cannot, barring
/// a bug).
pub fn steady_state_perf(cfg: &PerfConfig) -> PerfReport {
    let scene = SceneConfig::scene_flow_like(cfg.width, cfg.height)
        .with_seed(42)
        .with_objects(3);
    let seq = StereoSequence::generate(&scene, cfg.frames + 2);

    // Before: the allocating entry point (throwaway workspace per frame).
    let pipeline = perf_pipeline(cfg, CostMetric::Sad);
    let mut state = pipeline.state();
    for frame in &seq.frames()[..2] {
        state.step(&frame.left, &frame.right).expect("warm-up step");
    }
    let baseline = measure(&seq, |frame| {
        let kind = state
            .step(&frame.left, &frame.right)
            .expect("baseline step")
            .kind;
        // The allocating path builds and discards a workspace per frame, so
        // its trace (and with it any stage breakdown) is gone by now.
        (kind, None)
    });

    // After: one warm workspace, recycled result maps — once per metric.
    let run_workspace = |metric: CostMetric| {
        let pipeline = perf_pipeline(cfg, metric);
        let mut state = pipeline.state();
        let mut ws = Workspace::new();
        for frame in &seq.frames()[..2] {
            let result = state
                .step_with(&mut ws, &frame.left, &frame.right)
                .expect("warm-up step");
            ws.recycle(result.disparity);
        }
        measure(&seq, |frame| {
            let result = state
                .step_with(&mut ws, &frame.left, &frame.right)
                .expect("workspace step");
            let kind = result.kind;
            ws.recycle(result.disparity);
            let totals = ws.tracer.last_frame().map(FrameTrace::stage_totals);
            (kind, totals)
        })
    };
    let workspace = run_workspace(CostMetric::Sad);
    let census = run_workspace(CostMetric::Census);

    let speedup = workspace.fps / baseline.fps.max(1e-9);
    let census_key_speedup = workspace.key_mean_us as f64 / (census.key_mean_us as f64).max(1e-9);
    PerfReport {
        config: *cfg,
        simd: asv_stereo::active_level().name().to_owned(),
        baseline,
        workspace,
        census,
        speedup,
        census_key_speedup,
    }
}

impl PerfReport {
    /// Renders the human-readable table the `tab_perf` binary prints.
    pub fn render_text(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        out.push_str(&format!(
            "steady-state streaming perf: {}x{} x {} frames, D={}, PW={}\n",
            c.width, c.height, c.frames, c.max_disparity, c.propagation_window
        ));
        let row = |label: &str, p: &PathReport| {
            format!(
                "  {label:<22} {:>8.3} fps   p50 {:>8} us   p95 {:>8} us   key {:>8} us   non-key {:>8} us   {:>8.1} allocs/frame\n",
                p.fps, p.p50_us, p.p95_us, p.key_mean_us, p.nonkey_mean_us, p.allocs_per_frame
            )
        };
        out.push_str(&row("allocating (before)", &self.baseline));
        out.push_str(&row("workspace sad", &self.workspace));
        out.push_str(&row("workspace census", &self.census));
        out.push_str(&format!(
            "  speedup              {:>8.3}x   ({} key / {} non-key frames measured)\n",
            self.speedup, self.workspace.key_frames, self.workspace.nonkey_frames
        ));
        out.push_str(&format!(
            "  census key speedup   {:>8.3}x   (simd: {})\n",
            self.census_key_speedup, self.simd
        ));
        if !self.workspace.stages.is_empty() {
            out.push_str("  stage breakdown (workspace sad):\n");
            for stage in &self.workspace.stages {
                out.push_str(&format!(
                    "    {:<14} key {:>8} us ({:>5.1}%)   non-key {:>8} us ({:>5.1}%)\n",
                    stage.stage,
                    stage.key_mean_us,
                    stage.key_fraction * 100.0,
                    stage.nonkey_mean_us,
                    stage.nonkey_fraction * 100.0
                ));
            }
        }
        out
    }

    /// Renders the machine-readable `BENCH_streaming.json` payload.
    pub fn render_json(&self) -> String {
        let c = &self.config;
        let path = |p: &PathReport| {
            let stages = p
                .stages
                .iter()
                .map(|s| {
                    format!(
                        concat!(
                            "{{\"stage\": \"{}\", \"key_mean_us\": {}, ",
                            "\"nonkey_mean_us\": {}, \"key_fraction\": {:.4}, ",
                            "\"nonkey_fraction\": {:.4}}}"
                        ),
                        s.stage, s.key_mean_us, s.nonkey_mean_us, s.key_fraction, s.nonkey_fraction
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                concat!(
                    "{{\"fps\": {:.3}, \"p50_us\": {}, \"p95_us\": {}, ",
                    "\"key_mean_us\": {}, \"nonkey_mean_us\": {}, ",
                    "\"key_frames\": {}, \"nonkey_frames\": {}, ",
                    "\"allocs_per_frame\": {:.2}, \"stages\": [{}]}}"
                ),
                p.fps,
                p.p50_us,
                p.p95_us,
                p.key_mean_us,
                p.nonkey_mean_us,
                p.key_frames,
                p.nonkey_frames,
                p.allocs_per_frame,
                stages
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"workload\": {{\"width\": {}, \"height\": {}, \"frames\": {}, ",
                "\"max_disparity\": {}, \"propagation_window\": {}, \"simd\": \"{}\"}},\n",
                "  \"baseline\": {},\n",
                "  \"workspace\": {},\n",
                "  \"census\": {},\n",
                "  \"speedup\": {:.3},\n",
                "  \"census_key_speedup\": {:.3}\n",
                "}}\n"
            ),
            c.width,
            c.height,
            c.frames,
            c.max_disparity,
            c.propagation_window,
            self.simd,
            path(&self.baseline),
            path(&self.workspace),
            path(&self.census),
            self.speedup,
            self.census_key_speedup
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workload_reports_consistently() {
        let cfg = PerfConfig {
            width: 48,
            height: 36,
            frames: 5,
            max_disparity: 8,
            propagation_window: 4,
        };
        let report = steady_state_perf(&cfg);
        assert!(report.baseline.fps > 0.0);
        assert!(report.workspace.fps > 0.0);
        assert!(report.census.fps > 0.0);
        assert!(report.speedup > 0.0);
        assert!(report.census_key_speedup > 0.0);
        assert!(!report.simd.is_empty());
        assert_eq!(
            report.workspace.key_frames + report.workspace.nonkey_frames,
            cfg.frames
        );
        // Same schedule on both sides.
        assert_eq!(report.workspace.key_frames, report.baseline.key_frames);
        // The workspace paths carry a stage breakdown; the allocating
        // baseline cannot (its tracer dies with each throwaway workspace).
        assert!(report.baseline.stages.is_empty());
        for path in [&report.workspace, &report.census] {
            assert!(!path.stages.is_empty());
            let dnn = path
                .stages
                .iter()
                .find(|s| s.stage == "dnn_infer")
                .expect("key frames traced the DNN stage");
            assert!(dnn.key_mean_us > 0);
            assert!(dnn.key_fraction > 0.0 && dnn.key_fraction <= 1.0);
            assert_eq!(dnn.nonkey_mean_us, 0);
            let refine = path
                .stages
                .iter()
                .find(|s| s.stage == "refine")
                .expect("non-key frames traced refinement");
            assert!(refine.nonkey_fraction > 0.0 && refine.nonkey_fraction <= 1.0);
        }
        let json = report.render_json();
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"stage\": \"dnn_infer\""));
        assert!(json.contains("\"workload\""));
        assert!(json.contains("\"speedup\""));
        assert!(report.render_text().contains("speedup"));
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.0), 1);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 1.0), 5);
    }
}
