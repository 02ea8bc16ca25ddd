//! Algorithm-level experiments: the accuracy/performance frontier (Fig. 1),
//! the depth-sensitivity analysis (Fig. 4) and the ISM accuracy comparison
//! (Fig. 9).  These experiments run the *functional* implementations on the
//! synthetic dataset substitute.

use asv::accuracy::score_disparity;
use asv::ism::{IsmConfig, IsmPipeline};
use asv::perf::{AsvVariant, SystemPerformanceModel};
use asv_accel::ism::{nonkey_frame_report, NonKeyFrameConfig};
use asv_accel::systolic::SystolicAccelerator;
use asv_dataflow::OptLevel;
use asv_dnn::{zoo, CostMetric, SurrogateParams, SurrogateStereoDnn};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::{block_match, block_match_op_count, BlockMatchParams};
use asv_stereo::sgm::{semi_global_match, sgm_op_count, SgmParams};
use asv_stereo::triangulation::{depth_sensitivity_sweep, CameraRig, DepthSensitivityPoint};
use serde::{Deserialize, Serialize};

/// One point of the Fig. 1 accuracy/performance frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// System name (classic algorithm, DNN on a platform, or ASV).
    pub name: String,
    /// Three-pixel error rate (percent) measured on the synthetic benchmark.
    pub error_rate_pct: f64,
    /// Frames per second at qHD on the modelled platform.
    pub fps: f64,
}

/// Configuration of the functional accuracy experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracySetup {
    /// Frame width of the synthetic sequences.
    pub width: usize,
    /// Frame height of the synthetic sequences.
    pub height: usize,
    /// Frames per sequence.
    pub frames: usize,
    /// Number of sequences (different seeds) per dataset profile.
    pub sequences: usize,
    /// Disparity search range used by every matcher.
    pub max_disparity: usize,
}

impl AccuracySetup {
    /// A setup small enough to run in seconds yet large enough to rank the
    /// algorithms the way the paper does.
    pub fn quick() -> Self {
        Self {
            width: 96,
            height: 64,
            frames: 4,
            sequences: 2,
            max_disparity: 32,
        }
    }
}

fn sequences(profile_kitti: bool, setup: &AccuracySetup) -> Vec<StereoSequence> {
    (0..setup.sequences)
        .map(|i| {
            let base = if profile_kitti {
                SceneConfig::kitti_like(setup.width, setup.height)
            } else {
                SceneConfig::scene_flow_like(setup.width, setup.height)
            };
            StereoSequence::generate(
                &base.with_seed(100 + i as u64).with_objects(4),
                setup.frames,
            )
        })
        .collect()
}

/// Average three-pixel error (fraction) of a per-frame disparity function
/// over a set of sequences.
fn average_error(
    sequences: &[StereoSequence],
    mut estimate: impl FnMut(&asv_scene::StereoFrame) -> asv_stereo::DisparityMap,
) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for seq in sequences {
        for frame in seq.frames() {
            let map = estimate(frame);
            total += score_disparity(&map, &frame.ground_truth).map_or(1.0, |s| s.bad_3px);
            count += 1;
        }
    }
    total / count.max(1) as f64
}

/// Average three-pixel error (fraction) of an ISM pipeline over sequences.
fn ism_error(sequences: &[StereoSequence], pipeline: &IsmPipeline) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for seq in sequences {
        let result = pipeline.process_sequence(seq).expect("pipeline runs");
        for (frame, truth) in result.frames.iter().zip(seq.frames()) {
            total +=
                score_disparity(&frame.disparity, &truth.ground_truth).map_or(1.0, |s| s.bad_3px);
            count += 1;
        }
    }
    total / count.max(1) as f64
}

fn surrogate(setup: &AccuracySetup) -> SurrogateStereoDnn {
    SurrogateStereoDnn::new(
        zoo::dispnet(setup.height, setup.width),
        SurrogateParams {
            max_disparity: setup.max_disparity,
            occlusion_handling: true,
            ..Default::default()
        },
    )
}

fn ism_pipeline(setup: &AccuracySetup, window: usize) -> IsmPipeline {
    ism_pipeline_with_metric(setup, window, CostMetric::Sad)
}

fn ism_pipeline_with_metric(
    setup: &AccuracySetup,
    window: usize,
    metric: CostMetric,
) -> IsmPipeline {
    let params = SurrogateParams {
        max_disparity: setup.max_disparity,
        occlusion_handling: true,
        metric,
    };
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity: setup.max_disparity,
            refine_radius: 3,
            ..Default::default()
        },
        surrogate: params,
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(setup.height, setup.width), params),
    )
}

/// Fig. 1: the accuracy/performance frontier.
///
/// Classic algorithms (block matching, SGM and variants) are measured
/// functionally for accuracy and analytically for qHD frame rate; the stereo
/// DNN points take their accuracy from the surrogate estimator and their
/// frame rate from the accelerator/GPU models; the ASV point combines the ISM
/// accuracy with the full-system performance model.
pub fn figure1_frontier(setup: &AccuracySetup) -> Vec<FrontierPoint> {
    let clean = sequences(false, setup);
    let accel = SystolicAccelerator::asv_default();
    let gpu = asv_accel::baselines::GpuModel::jetson_tx2();
    let mut points = Vec::new();

    // Classic algorithms: block matching and three SGM variants of increasing
    // strength (standing in for GCSF / SGBN / HH / ELAS).
    let bm_params = BlockMatchParams {
        max_disparity: setup.max_disparity,
        subpixel: false,
        ..Default::default()
    };
    let bm_err = average_error(&clean, |f| {
        block_match(&f.left, &f.right, &bm_params).unwrap()
    });
    let bm_ops = block_match_op_count(960, 540, &bm_params);
    points.push(FrontierPoint {
        name: "BM (classic)".into(),
        error_rate_pct: bm_err * 100.0,
        fps: classic_fps(&accel, bm_ops),
    });

    let sgm_variants: [(&str, SgmParams); 3] = [
        (
            "SGM-fast (classic)",
            SgmParams {
                max_disparity: setup.max_disparity,
                p1: 1.0,
                p2: 8.0,
                subpixel: false,
                ..Default::default()
            },
        ),
        (
            "SGBN (classic)",
            SgmParams {
                max_disparity: setup.max_disparity,
                ..Default::default()
            },
        ),
        (
            "SGM-LR (classic)",
            SgmParams {
                max_disparity: setup.max_disparity,
                left_right_check: true,
                ..Default::default()
            },
        ),
    ];
    for (name, params) in sgm_variants {
        let err = average_error(&clean, |f| {
            let mut m = semi_global_match(&f.left, &f.right, &params).unwrap();
            m.fill_invalid_horizontally();
            m
        });
        let ops = sgm_op_count(960, 540, &params);
        points.push(FrontierPoint {
            name: name.into(),
            error_rate_pct: err * 100.0,
            fps: classic_fps(&accel, ops),
        });
    }

    // DNN points: surrogate accuracy; frame rates on the DNN accelerator and
    // on the mobile GPU.
    let dnn = surrogate(setup);
    let dnn_err = average_error(&clean, |f| dnn.infer(&f.left, &f.right).unwrap());
    for net in zoo::suite(
        crate::EVAL_HEIGHT,
        crate::EVAL_WIDTH,
        crate::EVAL_MAX_DISPARITY,
    ) {
        let acc_report = accel.run_network(&net, OptLevel::Baseline);
        points.push(FrontierPoint {
            name: format!("{}-Acc", net.name),
            error_rate_pct: dnn_err * 100.0,
            fps: acc_report.fps(),
        });
        let gpu_report = gpu.run_network(&net);
        points.push(FrontierPoint {
            name: format!("{}-GPU", net.name),
            error_rate_pct: dnn_err * 100.0,
            fps: gpu_report.fps(),
        });
    }

    // The ASV point: ISM accuracy (PW-4) with the full-system frame rate.
    let ism_err_rate = ism_error(&clean, &ism_pipeline(setup, 4));
    let perf = SystemPerformanceModel::new(accel, NonKeyFrameConfig::qhd(), 4);
    let asv_fps = perf
        .per_frame_report(
            &zoo::dispnet(crate::EVAL_HEIGHT, crate::EVAL_WIDTH),
            AsvVariant::IsmDco,
        )
        .fps();
    points.push(FrontierPoint {
        name: "ASV".into(),
        error_rate_pct: ism_err_rate * 100.0,
        fps: asv_fps,
    });
    points
}

fn classic_fps(accel: &SystolicAccelerator, qhd_ops: u64) -> f64 {
    accel.run_op_counts(qhd_ops, 0, 0).fps()
}

/// Fig. 4: depth error vs disparity error for the Bumblebee2 rig.
pub fn figure4_depth_sensitivity() -> Vec<DepthSensitivityPoint> {
    depth_sensitivity_sweep(&CameraRig::bumblebee2(), &[10.0, 15.0, 30.0], 0.2, 11)
}

/// One bar group of Fig. 9: error rates of per-frame DNN processing vs ISM at
/// PW-2 and PW-4 on one dataset profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyRow {
    /// Dataset profile name ("SceneFlow-like" or "KITTI-like").
    pub dataset: String,
    /// Error rate (percent) of running the estimator on every frame.
    pub dnn_error_pct: f64,
    /// Error rate (percent) of ISM with a propagation window of 2.
    pub pw2_error_pct: f64,
    /// Error rate (percent) of ISM with a propagation window of 4.
    pub pw4_error_pct: f64,
    /// Error rate (percent) of per-frame processing with the census/Hamming
    /// key-frame metric (the integer SIMD fast path) instead of SAD.
    pub census_dnn_error_pct: f64,
    /// Error rate (percent) of ISM at PW-4 with the census key-frame metric.
    pub census_pw4_error_pct: f64,
}

/// Fig. 9: ISM accuracy vs per-frame DNN accuracy on both dataset profiles.
pub fn figure9_accuracy(setup: &AccuracySetup) -> Vec<AccuracyRow> {
    let mut rows = Vec::new();
    for (name, kitti) in [("SceneFlow-like", false), ("KITTI-like", true)] {
        let seqs = sequences(kitti, setup);
        let dnn = ism_error(&seqs, &ism_pipeline(setup, 1));
        let pw2 = ism_error(&seqs, &ism_pipeline(setup, 2));
        let pw4 = ism_error(&seqs, &ism_pipeline(setup, 4));
        let census_dnn = ism_error(
            &seqs,
            &ism_pipeline_with_metric(setup, 1, CostMetric::Census),
        );
        let census_pw4 = ism_error(
            &seqs,
            &ism_pipeline_with_metric(setup, 4, CostMetric::Census),
        );
        rows.push(AccuracyRow {
            dataset: name.into(),
            dnn_error_pct: dnn * 100.0,
            pw2_error_pct: pw2 * 100.0,
            pw4_error_pct: pw4 * 100.0,
            census_dnn_error_pct: census_dnn * 100.0,
            census_pw4_error_pct: census_pw4 * 100.0,
        });
    }
    rows
}

/// Sec. 3.3 cost table: non-key-frame operation count vs DNN inference cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NonKeyCostRow {
    /// Workload name.
    pub name: String,
    /// Operations per qHD frame.
    pub ops: u64,
    /// Ratio to the non-key-frame cost (1.0 for the non-key frame itself).
    pub ratio_to_nonkey: f64,
}

/// Sec. 3.3: non-key frame compute vs stereo DNN compute at qHD.
pub fn nonkey_cost_table() -> Vec<NonKeyCostRow> {
    let nonkey = asv_accel::ism::nonkey_frame_ops(&NonKeyFrameConfig::qhd());
    let base = nonkey.total_ops();
    let mut rows = vec![NonKeyCostRow {
        name: "ISM non-key frame".into(),
        ops: base,
        ratio_to_nonkey: 1.0,
    }];
    for net in zoo::suite(540, 960, 192) {
        let ops = net.total_naive_macs();
        rows.push(NonKeyCostRow {
            name: format!("{} inference", net.name),
            ops,
            ratio_to_nonkey: ops as f64 / base as f64,
        });
    }
    rows
}

/// Real-time sanity point used by Fig. 1's 30 FPS line: per-frame latency of
/// the full ASV system on qHD input.
pub fn asv_qhd_fps() -> f64 {
    let perf = SystemPerformanceModel::asv_default();
    let report = perf.per_frame_report(
        &zoo::dispnet(crate::EVAL_HEIGHT, crate::EVAL_WIDTH),
        AsvVariant::IsmDco,
    );
    // The non-key-frame part is qHD already; the key-frame inference cost is
    // evaluated at the reduced analysis resolution, making this an optimistic
    // but consistent operating point.
    let _ = nonkey_frame_report(perf.accelerator(), &NonKeyFrameConfig::qhd());
    report.fps()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setup() -> AccuracySetup {
        AccuracySetup {
            width: 64,
            height: 48,
            frames: 2,
            sequences: 1,
            max_disparity: 32,
        }
    }

    #[test]
    fn frontier_has_classic_dnn_and_asv_points() {
        let points = figure1_frontier(&tiny_setup());
        assert!(points.len() >= 10);
        let names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"ASV"));
        assert!(names.iter().any(|n| n.ends_with("-GPU")));
        assert!(names.iter().any(|n| n.ends_with("-Acc")));
        // The ASV point is both accurate and fast relative to the classic BM
        // point: lower error than BM, higher FPS than the DNN-on-GPU points.
        let asv = points.iter().find(|p| p.name == "ASV").unwrap();
        let bm = points.iter().find(|p| p.name.starts_with("BM")).unwrap();
        assert!(asv.error_rate_pct <= bm.error_rate_pct + 1e-9);
        let slowest_gpu = points
            .iter()
            .filter(|p| p.name.ends_with("-GPU"))
            .map(|p| p.fps)
            .fold(f64::INFINITY, f64::min);
        assert!(asv.fps > slowest_gpu);
    }

    #[test]
    fn depth_sensitivity_matches_paper_shape() {
        let sweep = figure4_depth_sensitivity();
        assert_eq!(sweep.len(), 11);
        let last = sweep.last().unwrap();
        // At 0.2 px error the 30 m depth error is metres-scale.
        assert!(last.depth_errors_m[2] > 2.0);
    }

    #[test]
    fn accuracy_rows_show_small_ism_loss() {
        let rows = figure9_accuracy(&tiny_setup());
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.pw2_error_pct <= row.dnn_error_pct + 5.0, "{row:?}");
            assert!(row.pw4_error_pct <= row.dnn_error_pct + 6.0, "{row:?}");
            // The census metric is a fast path, not an accuracy upgrade: it
            // should stay in the same quality class as SAD on this corpus.
            assert!(
                row.census_dnn_error_pct <= row.dnn_error_pct + 10.0,
                "{row:?}"
            );
            assert!(
                row.census_pw4_error_pct <= row.pw4_error_pct + 10.0,
                "{row:?}"
            );
        }
    }

    #[test]
    fn nonkey_table_shows_orders_of_magnitude_gap() {
        let rows = nonkey_cost_table();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].ratio_to_nonkey, 1.0);
        for row in &rows[1..] {
            assert!(row.ratio_to_nonkey > 20.0, "{row:?}");
        }
    }
}
