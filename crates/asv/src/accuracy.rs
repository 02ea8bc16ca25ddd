//! Accuracy against ground truth, and the seeded gate that an
//! output-changing optimization must pass.
//!
//! [`score_disparity`] is the one way a disparity map is scored: the
//! bad-pixel rates above 1 px and above 3 px (the metrics of the
//! driving-stereo survey in PAPERS.md; the 3 px rate is the paper's error
//! rate), the mean absolute error, and the density the rates were measured
//! on, so an error rate never hides how many pixels it scored.
//!
//! [`score_ism`] runs an ISM pipeline over sequences and scores key and
//! non-key frames separately, plus the left-view flow of every non-key step
//! by end-point error against the scene's ground-truth flow.
//! [`accuracy_gate`] runs it over the committed grid ([`GateSetup::GATE`]):
//! both scene profiles, each with ISM's coarse flow and with full-resolution
//! Farnebäck.  The scenes are seeded and every kernel tier is bit-identical,
//! so the gate's numbers are exact and `tests/accuracy.rs` pins them.

use crate::error::AsvError;
use crate::ism::{FrameKind, IsmConfig, IsmPipeline};
use crate::system::{AsvConfig, AsvSystem};
use crate::workspace::Workspace;
use asv_dnn::CostMetric;
use asv_flow::farneback::FarnebackParams;
use asv_scene::{DatasetProfile, SceneConfig, StereoSequence};
use asv_stereo::DisparityMap;
use serde::{Deserialize, Serialize};

/// Accuracy of one disparity map against its ground truth.  The rates and
/// the error count only pixels valid in both maps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DisparityScore {
    /// Fraction of the scored pixels off by more than 1 px.
    pub bad_1px: f64,
    /// Fraction of the scored pixels off by more than 3 px.
    pub bad_3px: f64,
    /// Mean absolute disparity error of the scored pixels, in pixels.
    pub mean_abs_error: f64,
    /// Fraction of the estimate's pixels that are valid.
    pub density: f64,
}

impl DisparityScore {
    /// Field-by-field mean of `scores` (all zero for none).
    pub fn mean(scores: &[DisparityScore]) -> DisparityScore {
        let n = scores.len().max(1) as f64;
        let sum = |field: fn(&DisparityScore) -> f64| scores.iter().map(field).sum::<f64>() / n;
        DisparityScore {
            bad_1px: sum(|s| s.bad_1px),
            bad_3px: sum(|s| s.bad_3px),
            mean_abs_error: sum(|s| s.mean_abs_error),
            density: sum(|s| s.density),
        }
    }
}

/// Scores a disparity map against its ground truth.
///
/// # Errors
///
/// Returns [`AsvError::Stereo`] when the maps differ in size.
pub fn score_disparity(
    estimate: &DisparityMap,
    truth: &DisparityMap,
) -> Result<DisparityScore, AsvError> {
    Ok(DisparityScore {
        bad_1px: estimate.error_rate(truth, 1.0)?,
        bad_3px: estimate.three_pixel_error(truth)?,
        mean_abs_error: estimate.mean_abs_error(truth)?,
        density: estimate.valid_fraction(),
    })
}

/// Accuracy of an ISM pipeline over a set of sequences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IsmScore {
    /// Mean score of the key frames.
    pub key: DisparityScore,
    /// Mean score of the non-key frames.
    pub non_key: DisparityScore,
    /// Mean end-point error, in pixels, of the left-view flow of every
    /// non-key step whose predecessor frame carries ground-truth flow.
    pub left_flow_epe: f64,
    /// Key frames scored.
    pub key_frames: usize,
    /// Non-key frames scored.
    pub non_key_frames: usize,
}

/// Runs `pipeline` over each sequence from a fresh state and scores every
/// frame against its ground truth, by frame kind.
///
/// # Errors
///
/// Propagates pipeline errors and size mismatches against the ground truth.
pub fn score_ism(
    pipeline: &IsmPipeline,
    sequences: &[StereoSequence],
) -> Result<IsmScore, AsvError> {
    let mut key = Vec::new();
    let mut non_key = Vec::new();
    let mut epe = Vec::new();
    for sequence in sequences {
        let mut state = pipeline.state();
        let mut ws = Workspace::new();
        for (t, frame) in sequence.frames().iter().enumerate() {
            let result = state.step_with(&mut ws, &frame.left, &frame.right)?;
            let score = score_disparity(&result.disparity, &frame.ground_truth)?;
            if result.kind == FrameKind::KeyFrame {
                key.push(score);
            } else {
                non_key.push(score);
                // A non-key step leaves its left-view flow, from the previous
                // frame to this one, in the workspace.
                let truth = t
                    .checked_sub(1)
                    .and_then(|p| sequence.frames()[p].flow_to_next.as_ref());
                if let Some(truth) = truth {
                    epe.push(f64::from(
                        ws.flow_left.flow().average_endpoint_error(truth)?,
                    ));
                }
            }
            ws.recycle(result.disparity);
        }
    }
    Ok(IsmScore {
        key: DisparityScore::mean(&key),
        non_key: DisparityScore::mean(&non_key),
        left_flow_epe: epe.iter().sum::<f64>() / epe.len().max(1) as f64,
        key_frames: key.len(),
        non_key_frames: non_key.len(),
    })
}

/// The scenes and system configuration of the accuracy gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateSetup {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Disparity search range; the scenes' nearest objects stay 4 px
    /// inside it.
    pub max_disparity: usize,
    /// Propagation window of the census-key-frame system under test.
    pub propagation_window: usize,
    /// Scene seeds, one sequence each per profile.
    pub seeds: [u64; 4],
    /// Frames per sequence.
    pub frames: usize,
}

impl GateSetup {
    /// The committed grid behind `tests/accuracy.rs` and
    /// `BENCH_accuracy.json`.
    pub const GATE: GateSetup = GateSetup {
        width: 320,
        height: 180,
        max_disparity: 32,
        propagation_window: 4,
        seeds: [1, 2, 3, 4],
        frames: 8,
    };

    /// The seeded sequences of one scene profile.
    pub fn sequences(&self, profile: DatasetProfile) -> Vec<StereoSequence> {
        self.seeds
            .iter()
            .map(|&seed| {
                let mut scene = match profile {
                    DatasetProfile::SceneFlowLike => {
                        SceneConfig::scene_flow_like(self.width, self.height)
                    }
                    DatasetProfile::KittiLike => SceneConfig::kitti_like(self.width, self.height),
                }
                .with_seed(seed);
                scene.max_disparity = (self.max_disparity - 4) as f32;
                StereoSequence::generate(&scene, self.frames)
            })
            .collect()
    }

    /// The system under test: [`AsvSystem`] with census key frames, running
    /// `flow` for propagation.
    pub fn pipeline(&self, flow: FarnebackParams) -> IsmPipeline {
        let system = AsvSystem::new(AsvConfig {
            propagation_window: self.propagation_window,
            max_disparity: self.max_disparity,
            frame_width: self.width,
            frame_height: self.height,
            network: "DispNet".to_owned(),
            metric: CostMetric::Census,
        })
        .expect("DispNet is in the network zoo");
        system.pipeline().with_config(IsmConfig {
            flow,
            ..*system.pipeline().config()
        })
    }
}

/// One row of the accuracy gate: one scene profile under one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateRow {
    /// Scene profile.
    pub profile: DatasetProfile,
    /// `"ism"` for [`FarnebackParams::ism`], the default, or
    /// `"full_resolution"` for [`FarnebackParams::default`].
    pub flow_name: &'static str,
    /// The flow the row propagated with.
    pub flow: FarnebackParams,
    /// Its accuracy.
    pub score: IsmScore,
}

/// Runs the accuracy gate: for each profile, the system with ISM's coarse
/// flow and with full-resolution Farnebäck, on the same sequences.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn accuracy_gate(setup: &GateSetup) -> Result<Vec<GateRow>, AsvError> {
    let mut rows = Vec::new();
    for profile in [DatasetProfile::SceneFlowLike, DatasetProfile::KittiLike] {
        let sequences = setup.sequences(profile);
        for (flow_name, flow) in [
            ("ism", FarnebackParams::ism()),
            ("full_resolution", FarnebackParams::default()),
        ] {
            let score = score_ism(&setup.pipeline(flow), &sequences)?;
            rows.push(GateRow {
                profile,
                flow_name,
                flow,
                score,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_counts_only_pixels_valid_in_both_maps() {
        let truth = DisparityMap::constant(4, 2, 10.0);
        let mut estimate = DisparityMap::from_fn(4, 2, |x, _| 10.0 + x as f32 * 1.5);
        estimate.invalidate(3, 1);
        let score = score_disparity(&estimate, &truth).unwrap();
        // Errors 0, 1.5, 3, 4.5 on row 0 and 0, 1.5, 3 on row 1.
        assert_eq!(score.bad_1px, 5.0 / 7.0);
        assert_eq!(score.bad_3px, 1.0 / 7.0);
        assert!((score.mean_abs_error - 13.5 / 7.0).abs() < 1e-12);
        assert_eq!(score.density, 7.0 / 8.0);
        assert!(score_disparity(&DisparityMap::invalid(3, 2), &truth).is_err());
    }

    #[test]
    fn mean_of_no_scores_is_zero() {
        assert_eq!(DisparityScore::mean(&[]), DisparityScore::default());
        let one = DisparityScore {
            bad_1px: 0.5,
            bad_3px: 0.25,
            mean_abs_error: 2.0,
            density: 1.0,
        };
        let half = DisparityScore::mean(&[one, DisparityScore::default()]);
        assert_eq!(half.bad_3px, 0.125);
    }
}
