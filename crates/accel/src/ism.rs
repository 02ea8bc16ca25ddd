//! Cost model of ISM non-key-frame processing on the ASV hardware.
//!
//! On non-key frames ISM runs no DNN at all (Sec. 3.3): it estimates motion
//! with Farneback optical flow, propagates the key-frame correspondences and
//! refines them with a narrow block-matching search.  The ASV software maps
//! the convolution-like parts (Gaussian blur, SAD block matching) onto the
//! systolic array — whose PEs are extended with an accumulate-absolute-
//! difference mode — and the point-wise parts ("compute flow", "matrix
//! update") onto the scalar unit (Sec. 5.1, Fig. 8).  This module counts those
//! operations and prices them with [`SystolicAccelerator::run_op_counts`].

use crate::report::ExecutionReport;
use crate::systolic::SystolicAccelerator;
use asv_flow::farneback::{farneback_op_breakdown, FarnebackParams};
use asv_stereo::block_matching::{refine_op_count, BlockMatchParams};
use serde::{Deserialize, Serialize};

/// Parameters of the non-key-frame pipeline (motion estimation + refinement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NonKeyFrameConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Optical-flow parameters at frame size; the model prices the pyramid
    /// levels the flow estimates on, the coarsest down to
    /// [`FarnebackParams::finest_level`].
    pub flow: FarnebackParams,
    /// Block-matching refinement parameters (applied at full resolution).
    pub refine: BlockMatchParams,
}

impl NonKeyFrameConfig {
    /// The paper's qHD (960×540) evaluation point, with the flow ISM runs
    /// ([`FarnebackParams::ism`]: half- and quarter-resolution levels).
    pub fn qhd() -> Self {
        Self {
            width: 960,
            height: 540,
            flow: FarnebackParams::ism(),
            refine: BlockMatchParams::default(),
        }
    }

    /// A configuration for an arbitrary resolution.
    pub fn with_resolution(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            ..Self::qhd()
        }
    }
}

/// Operation counts of one non-key frame, split by execution resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NonKeyFrameOps {
    /// Convolution-like operations executed on the systolic array (Gaussian
    /// blur of the optical flow, SAD block matching — both frames).
    pub array_ops: u64,
    /// Point-wise operations executed on the scalar unit (compute-flow,
    /// matrix-update, correspondence reconstruction).
    pub scalar_ops: u64,
    /// DRAM traffic in bytes (current + key frame pixels, motion vectors and
    /// disparity maps, Sec. 5.2).
    pub dram_bytes: u64,
}

impl NonKeyFrameOps {
    /// Total operations of the non-key frame.
    pub fn total_ops(&self) -> u64 {
        self.array_ops + self.scalar_ops
    }
}

/// Counts the work of one non-key frame.
pub fn nonkey_frame_ops(config: &NonKeyFrameConfig) -> NonKeyFrameOps {
    let flow = farneback_op_breakdown(config.width, config.height, &config.flow);
    // Both the left and right frames need motion vectors (the correspondences
    // move in both views, Sec. 3.2 step 3).  The Gaussian-blur moment filters
    // and the per-pixel expansion solve (a 1×1 convolution over 6 channels)
    // run on the systolic array; the matrix-update and compute-flow stages
    // run on the scalar unit.
    let array_flow_ops = 2 * (flow.blur_ops + flow.expansion_solve_ops);
    let pointwise_flow_ops = 2 * (flow.matrix_update_ops + flow.compute_flow_ops);
    // Correspondence refinement: narrow SAD search around the propagated
    // disparity, on the left frame, mapped onto the SAD-extended PE array.
    let refine_ops = refine_op_count(config.width, config.height, &config.refine);
    // Correspondence reconstruction + propagation are one pass over the
    // disparity map each (a handful of scalar operations per pixel).
    let pixels = (config.width * config.height) as u64;
    let reconstruction_ops = 4 * pixels;

    // DRAM traffic: the four frames (current + key, left + right), the motion
    // vectors (2 × 2 components) and the two disparity maps, at 2 bytes per
    // element (Sec. 5.2's minimum-buffer discussion).
    let dram_bytes = pixels * 2 * (4 + 4 + 2);

    NonKeyFrameOps {
        array_ops: array_flow_ops + refine_ops,
        scalar_ops: pointwise_flow_ops + reconstruction_ops,
        dram_bytes,
    }
}

/// Prices one non-key frame on the given accelerator.
pub fn nonkey_frame_report(
    accel: &SystolicAccelerator,
    config: &NonKeyFrameConfig,
) -> ExecutionReport {
    let ops = nonkey_frame_ops(config);
    accel.run_op_counts(ops.array_ops, ops.scalar_ops, ops.dram_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_dataflow::OptLevel;
    use asv_dnn::zoo;

    #[test]
    fn qhd_non_key_frame_costs_tens_of_megaops() {
        // The model's qHD non-key frame, which is the configuration the ISM
        // pipeline runs: two flows (left and right view) at about 102 M ops
        // each, refinement at about 533 M (7 candidates x a 7x7 SAD at every
        // qHD pixel) and reconstruction at about 2 M, about 740 M in all.
        // Sec. 3.3 quotes "about 87 million operations".  Most of the gap is
        // refinement, which this model counts tap by tap (3 ops per tap,
        // every candidate's full block) with no reuse of the sums that
        // neighbouring blocks share; the two flows alone are 204 M.
        let config = NonKeyFrameConfig::qhd();
        let flow = farneback_op_breakdown(config.width, config.height, &config.flow).total();
        let refine = refine_op_count(config.width, config.height, &config.refine);
        assert!((flow as f64 - 102e6).abs() < 1e6, "flow {flow}");
        assert!((refine as f64 - 533e6).abs() < 1e6, "refine {refine}");
        let total = nonkey_frame_ops(&config).total_ops();
        assert_eq!(total, 2 * flow + refine + 4 * 960 * 540);
        assert!(
            (total as f64 - 740e6).abs() <= 0.05 * 740e6,
            "total {total}"
        );
    }

    #[test]
    fn non_key_frame_is_orders_of_magnitude_cheaper_than_dnn() {
        // Sec. 3.3: stereo DNN inference needs 10^2 - 10^4 x more arithmetic.
        let ops = nonkey_frame_ops(&NonKeyFrameConfig::qhd()).total_ops() as f64;
        for net in zoo::suite(540, 960, 192) {
            let ratio = net.total_naive_macs() as f64 / ops;
            assert!(ratio > 20.0, "{}: ratio {ratio}", net.name);
            assert!(ratio < 1e5, "{}: ratio {ratio}", net.name);
        }
    }

    #[test]
    fn non_key_frame_runs_in_real_time_on_asv() {
        let accel = SystolicAccelerator::asv_default();
        let report = nonkey_frame_report(&accel, &NonKeyFrameConfig::qhd());
        // Non-key frames must comfortably exceed 30 FPS for ASV's real-time
        // claim to hold.
        assert!(report.fps() > 30.0, "fps {}", report.fps());
        assert!(report.energy_joules > 0.0);
    }

    #[test]
    fn non_key_frame_is_much_faster_than_key_frame_inference() {
        let accel = SystolicAccelerator::asv_default();
        let nonkey = nonkey_frame_report(&accel, &NonKeyFrameConfig::with_resolution(192, 96));
        let net = zoo::dispnet(96, 192);
        let key = accel.run_network(&net, OptLevel::Ilar);
        assert!(key.seconds / nonkey.seconds > 5.0);
    }

    #[test]
    fn ops_scale_with_resolution() {
        let small = nonkey_frame_ops(&NonKeyFrameConfig::with_resolution(480, 270)).total_ops();
        let large = nonkey_frame_ops(&NonKeyFrameConfig::qhd()).total_ops();
        let ratio = large as f64 / small as f64;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }
}
