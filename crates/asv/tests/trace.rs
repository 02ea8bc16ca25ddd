//! Structural invariants of the span trees `IsmState::step_with` records.
//!
//! Locked properties, under proptest-generated scenes, frame sizes and
//! key-frame windows:
//! * every span lies inside its frame (`end_ns <= total_ns`);
//! * span trees are well-nested: every depth-`d` span (`d >= 2`) is
//!   temporally contained in some depth-`d-1` span of the same frame
//!   (harvested kernel spans may *precede* their parent in recording
//!   order — a kernel stages its sub-spans before the caller stamps the
//!   enclosing stage — so containment is checked against all candidates);
//! * top-level stages are disjoint in time, except the two views' flow
//!   estimations, which may run concurrently: with the flows counted as the
//!   union of their two intervals, top-level durations sum to at most the
//!   frame's total latency, and a frame has at most two top-level flows;
//! * the recorded stages match the frame kind: key frames carry the
//!   surrogate-DNN stages, non-key frames the flow/propagate/refine
//!   stages.

use asv::ism::{IsmConfig, IsmPipeline};
use asv::trace::{FrameTrace, SpanRecord, Stage, TraceConfig, TraceMode};
use asv::Workspace;
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;
use proptest::prelude::*;

fn pipeline(width: usize, height: usize, window: usize) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity: 16,
            refine_radius: 3,
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
        SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate),
    )
}

fn assert_frame_invariants(frame: &FrameTrace) -> Result<(), TestCaseError> {
    prop_assert!(!frame.spans.is_empty(), "a frame records at least one span");
    for span in &frame.spans {
        prop_assert!(span.depth >= 1, "depths are 1-based");
        prop_assert!(
            span.end_ns() <= frame.total_ns,
            "span {:?} [{}, {}] escapes frame total {}",
            span.stage,
            span.start_ns,
            span.end_ns(),
            frame.total_ns
        );
    }
    // Well-nestedness: every nested span fits inside some span one level up.
    for span in frame.spans.iter().filter(|s| s.depth >= 2) {
        let contained = frame.spans.iter().any(|parent| {
            parent.depth == span.depth - 1
                && parent.start_ns <= span.start_ns
                && span.end_ns() <= parent.end_ns()
        });
        prop_assert!(
            contained,
            "depth-{} span {:?} [{}, {}] has no containing depth-{} span in {:?}",
            span.depth,
            span.stage,
            span.start_ns,
            span.end_ns(),
            span.depth - 1,
            frame.spans
        );
    }
    // Top-level stages run one after another, except the two views' flow
    // estimations, which may overlap on the pool.  Counting the flows as the
    // union of their intervals, the durations cannot sum past the frame's
    // wall-clock total.
    let top_level = || frame.spans.iter().filter(|s| s.depth == 1);
    let is_flow = |s: &&SpanRecord| matches!(s.stage, Stage::FlowLeft | Stage::FlowRight);
    let flows: Vec<&SpanRecord> = top_level().filter(is_flow).collect();
    prop_assert!(
        flows.len() <= 2,
        "{} top-level flow spans in {:?}",
        flows.len(),
        frame.spans
    );
    let flow_ns = match flows[..] {
        [a, b] => {
            let overlap = a
                .end_ns()
                .min(b.end_ns())
                .saturating_sub(a.start_ns.max(b.start_ns));
            a.dur_ns + b.dur_ns - overlap
        }
        _ => flows.iter().map(|s| s.dur_ns).sum(),
    };
    let others_ns: u64 = top_level().filter(|s| !is_flow(s)).map(|s| s.dur_ns).sum();
    prop_assert!(
        others_ns + flow_ns <= frame.total_ns,
        "top-level stage durations {} (flows {} as their union) exceed frame total {}",
        others_ns + flow_ns,
        flow_ns,
        frame.total_ns
    );
    // Stage composition follows the frame kind.
    let has = |stage: Stage| frame.spans.iter().any(|s| s.stage == stage);
    if frame.key_frame {
        prop_assert!(has(Stage::DnnInfer), "key frame runs the surrogate DNN");
        prop_assert!(has(Stage::CostFill), "key frame fills the cost volume");
        prop_assert!(has(Stage::SgmAggregate), "key frame aggregates");
        prop_assert!(!has(Stage::Propagate), "key frame does not propagate");
    } else {
        for stage in [
            Stage::FlowLeft,
            Stage::FlowRight,
            Stage::Propagate,
            Stage::Refine,
        ] {
            prop_assert!(has(stage), "non-key frame runs {:?}", stage);
        }
        prop_assert!(!has(Stage::DnnInfer), "non-key frame skips the DNN");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every frame of a generated stream yields a well-formed span tree.
    #[test]
    fn span_trees_are_well_nested_and_bounded_by_the_frame(
        seed in 0u64..1_000,
        frames in 3usize..6,
        window in 2usize..4,
        width in 28usize..48,
        height in 20usize..32,
    ) {
        let pipe = pipeline(width, height, window);
        let scene = SceneConfig::scene_flow_like(width, height)
            .with_seed(seed)
            .with_objects(2);
        let seq = StereoSequence::generate(&scene, frames);
        let mut state = pipe.state();
        let mut ws = Workspace::with_trace_config(TraceConfig {
            mode: TraceMode::Ring,
            ring_frames: frames,
            ..TraceConfig::default()
        });
        for (i, frame) in seq.frames().iter().enumerate() {
            let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
            ws.recycle(result.disparity);
            let trace = ws.tracer.last_frame().expect("frame was recorded");
            prop_assert_eq!(trace.frame_index, i as u64);
            prop_assert_eq!(trace.key_frame, i % window == 0, "frame {} kind", i);
            assert_frame_invariants(trace)?;
        }
        prop_assert_eq!(ws.tracer.frames_recorded(), frames as u64);
        prop_assert_eq!(ws.tracer.dropped_spans(), 0);
        // The whole ring (not just the last frame) holds the invariants.
        for trace in ws.tracer.frames() {
            assert_frame_invariants(trace)?;
        }
    }
}
