//! Allocation-regression and batch-vs-workspace differential tests.
//!
//! Locked properties:
//! * steady-state `IsmState::step_with` (frames 2..N of a stream, with a
//!   per-stream [`Workspace`] and result-map recycling) performs **zero**
//!   heap allocations, parallel regions included: the persistent worker
//!   pool in the offline rayon shim publishes tasks into static slots, with
//!   no per-region heap traffic (and on one core runs them inline);
//! * the guarantee covers both cost metrics: the SAD separable fill and
//!   the census/Hamming integer path both run entirely out of pooled
//!   workspace buffers;
//! * the allocating entry points ([`IsmState::step`], which builds a
//!   throwaway workspace per call) and the workspace path produce
//!   byte-identical disparity maps under proptest-generated scenes, window
//!   sizes and frame sizes — buffer reuse can never leak one frame's data
//!   into the next.

use asv::ism::{FrameKind, IsmConfig, IsmPipeline};
use asv::Workspace;
use asv_dnn::{zoo, CostMetric, SurrogateParams, SurrogateStereoDnn};
use asv_mem::alloc_count::{self, CountingAllocator};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// The counting allocator sees the whole process, so a test measuring an
/// allocation window must not overlap any other test of this binary: every
/// test holds this lock for its whole body (a property test for each case,
/// whose inputs are drawn without allocating).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failing test poisons the lock; the others must still run.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns once no thread has allocated for 10 ms (giving up after 5 s);
/// call it, holding [`serial`], right before opening a measured window.
/// The harness's own work for the test that last released the lock
/// (reporting its result, spawning the next test thread) runs outside
/// every test body.
fn settle() {
    for _ in 0..500 {
        let before = alloc_count::allocations();
        std::thread::sleep(Duration::from_millis(10));
        if alloc_count::allocations() == before {
            return;
        }
    }
}

fn pipeline(width: usize, height: usize, window: usize, max_disparity: usize) -> IsmPipeline {
    pipeline_with_metric(width, height, window, max_disparity, CostMetric::Sad)
}

fn pipeline_with_metric(
    width: usize,
    height: usize,
    window: usize,
    max_disparity: usize,
    metric: CostMetric,
) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity,
            refine_radius: 3,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity,
            occlusion_handling: true,
            metric,
        },
        ..Default::default()
    };
    let surrogate = SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate);
    IsmPipeline::new(config, surrogate)
}

fn sequence(width: usize, height: usize, frames: usize, seed: u64) -> StereoSequence {
    let scene = SceneConfig::scene_flow_like(width, height)
        .with_seed(seed)
        .with_objects(3);
    StereoSequence::generate(&scene, frames)
}

/// Runs frames 2..N of `seq` through `state`/`ws` (frames 0 and 1 warm the
/// key-frame and non-key-frame paths respectively) and returns the number of
/// allocation events the steady-state frames performed.  Result maps are
/// recycled, as a steady-state streaming consumer would.
fn steady_state_allocations(seq: &StereoSequence, pipe: &IsmPipeline) -> u64 {
    let mut state = pipe.state();
    let mut ws = Workspace::new();
    for frame in &seq.frames()[..2] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    settle();
    let before = alloc_count::allocations();
    for frame in &seq.frames()[2..] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    alloc_count::allocations() - before
}

/// The same steady-state frames through the allocating entry point (a
/// throwaway workspace per call — the pre-workspace allocation profile).
fn steady_state_allocations_baseline(seq: &StereoSequence, pipe: &IsmPipeline) -> u64 {
    let mut state = pipe.state();
    for frame in &seq.frames()[..2] {
        state.step(&frame.left, &frame.right).unwrap();
    }
    let before = alloc_count::allocations();
    for frame in &seq.frames()[2..] {
        state.step(&frame.left, &frame.right).unwrap();
    }
    alloc_count::allocations() - before
}

/// The tentpole guarantee: with a warm per-stream workspace, a steady-state
/// step allocates nothing.  Frames 2..10 of a window-4 stream cover both
/// non-key frames and re-keyed key frames (frames 4 and 8).  This also
/// locks the rayon shim's persistent worker pool: parallel regions publish
/// into static task slots and must not touch the heap.
#[test]
fn steady_state_step_performs_zero_allocations() {
    let _serial = serial();
    let pipe = pipeline(64, 48, 4, 32);
    let seq = sequence(64, 48, 10, 21);
    let allocs = steady_state_allocations(&seq, &pipe);
    assert_eq!(
        allocs, 0,
        "steady-state IsmState::step_with allocated {allocs} times over 8 frames"
    );
}

/// The zero-allocation guarantee also covers the adaptive key-frame
/// policy, whose per-frame median-motion estimate runs through the
/// workspace's selection buffer.
#[test]
fn adaptive_policy_steady_state_is_also_zero_allocation() {
    let _serial = serial();
    let base = pipeline(64, 48, 4, 32);
    let config = IsmConfig {
        key_frame_policy: asv::KeyFramePolicy::AdaptiveMotion {
            max_median_motion_px: 1e6,
        },
        ..*base.config()
    };
    let pipe = IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(48, 64), config.surrogate),
    );
    let seq = sequence(64, 48, 10, 21);
    let allocs = steady_state_allocations(&seq, &pipe);
    assert_eq!(
        allocs, 0,
        "adaptive-policy steady state allocated {allocs} times over 8 frames"
    );
}

/// The census/Hamming key-frame metric runs entirely out of the pooled
/// descriptor grids, u8 cost volume and u16 aggregation scratch — its
/// steady state (including the re-keyed census key frames at frames 4 and
/// 8) allocates nothing either.
#[test]
fn census_metric_steady_state_is_also_zero_allocation() {
    let _serial = serial();
    let pipe = pipeline_with_metric(64, 48, 4, 32, CostMetric::Census);
    let seq = sequence(64, 48, 10, 21);
    let allocs = steady_state_allocations(&seq, &pipe);
    assert_eq!(
        allocs, 0,
        "census-metric steady state allocated {allocs} times over 8 frames"
    );
}

/// Tracing is part of the zero-allocation guarantee: with the tracer
/// explicitly in ring mode — including slow-frame forensics, which copies
/// every frame here (threshold 0) — steady state still allocates nothing,
/// and the spans really were recorded.  The ring and slow buffers are fully
/// sized by the warm-up frames; steady-state recording only rotates them.
#[test]
fn tracing_in_ring_mode_adds_zero_steady_state_allocations() {
    use asv::trace::{TraceConfig, TraceMode};
    let _serial = serial();
    let pipe = pipeline(64, 48, 4, 32);
    let seq = sequence(64, 48, 10, 21);
    let mut state = pipe.state();
    let mut ws = Workspace::with_trace_config(TraceConfig {
        mode: TraceMode::Ring,
        ring_frames: 4,
        slow_threshold_us: Some(0),
        slow_retained: 2,
    });
    for frame in &seq.frames()[..2] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    settle();
    let before = alloc_count::allocations();
    for frame in &seq.frames()[2..] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    let allocs = alloc_count::allocations() - before;
    assert_eq!(
        allocs, 0,
        "ring-mode tracing allocated {allocs} times over 8 steady-state frames"
    );
    assert_eq!(ws.tracer.frames_recorded(), 10);
    assert_eq!(ws.tracer.dropped_spans(), 0);
    let last = ws.tracer.last_frame().expect("a frame was recorded");
    assert!(!last.spans.is_empty(), "frames carry spans");
    assert!(
        ws.tracer.slow_frames().count() > 0,
        "threshold 0 retains slow frames"
    );
}

/// The baseline comparison also holds (and documents the size of the win
/// the regression test protects).
#[test]
fn allocating_path_allocates_and_workspace_path_does_not() {
    let _serial = serial();
    let pipe = pipeline(64, 48, 4, 32);
    let seq = sequence(64, 48, 10, 21);
    let baseline = steady_state_allocations_baseline(&seq, &pipe);
    assert!(
        baseline > 1000,
        "expected the allocating path to allocate heavily, saw {baseline}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity of the allocating and workspace paths: a fresh
    /// workspace per frame (no reuse, `IsmState::step`) against one
    /// workspace carried across the whole stream.  Any under-reset buffer
    /// would leak a previous frame's data and break the equality.
    #[test]
    fn workspace_reuse_is_byte_identical_to_fresh_workspaces(
        seed in 0u64..1_000,
        frames in 3usize..6,
        window in 1usize..4,
        width in 28usize..48,
        height in 20usize..32,
    ) {
        let _serial = serial();
        let pipe = pipeline(width, height, window, 16);
        let seq = sequence(width, height, frames, seed);
        let mut fresh = pipe.state();
        let mut warm = pipe.state();
        let mut ws = Workspace::new();
        for (i, frame) in seq.frames().iter().enumerate() {
            let a = fresh.step(&frame.left, &frame.right).unwrap();
            let b = warm.step_with(&mut ws, &frame.left, &frame.right).unwrap();
            prop_assert_eq!(a.kind, b.kind, "frame {} kind", i);
            prop_assert_eq!(&a.disparity, &b.disparity, "frame {} disparity", i);
            // Recycle so the next checkout exercises a stale pooled buffer.
            ws.recycle(b.disparity);
        }
    }

    /// The batch pipeline (shared internal workspace) equals the streaming
    /// state fed one frame at a time — including under the adaptive
    /// key-frame policy, which exercises the workspace-held left flow.
    #[test]
    fn batch_equals_streaming_with_adaptive_policy(
        seed in 0u64..1_000,
        threshold in 0.0f32..2.0,
    ) {
        let _serial = serial();
        let base = pipeline(40, 28, 3, 16);
        let config = IsmConfig {
            key_frame_policy: asv::KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px: threshold,
            },
            ..*base.config()
        };
        let pipe = IsmPipeline::new(
            config,
            SurrogateStereoDnn::new(zoo::dispnet(28, 40), config.surrogate),
        );
        let seq = sequence(40, 28, 5, seed);
        let batch = pipe.process_sequence(&seq).unwrap();
        let mut state = pipe.state();
        let mut ws = Workspace::new();
        for (i, frame) in seq.frames().iter().enumerate() {
            let r = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
            prop_assert_eq!(r.kind, batch.frames[i].kind, "frame {} kind", i);
            prop_assert_eq!(&r.disparity, &batch.frames[i].disparity, "frame {} disparity", i);
        }
        let _ = batch.frames.iter().filter(|f| f.kind == FrameKind::KeyFrame).count();
    }
}
