//! Classic stereo matching algorithms, disparity maps and depth geometry.
//!
//! "Depth from stereo" (Sec. 2 of the ASV paper) proceeds in two steps: stereo
//! *matching* produces a disparity map, and *triangulation* converts disparity
//! into metric depth.  This crate provides everything on the classic
//! (non-DNN) side of that pipeline:
//!
//! * [`DisparityMap`] — per-pixel disparity with an invalid marker, plus the
//!   three-pixel-error accuracy metric used by the KITTI benchmark and the
//!   paper's evaluation.
//! * [`triangulation`] — the pinhole stereo geometry of Eq. 1 (`D = B·f / Z`)
//!   and the depth-sensitivity analysis of Fig. 4.
//! * [`cost_volume`] — per-pixel, per-disparity matching costs shared by the
//!   matchers.
//! * [`block_matching`] — local winner-take-all block matching with an
//!   optional per-pixel search-window *initialisation*, which is exactly the
//!   refinement primitive the ISM algorithm uses on non-key frames.
//! * [`sgm`] — semi-global matching, the high-accuracy classic baseline
//!   (SGBN/HH in Fig. 1) and the reference "learned-quality" matcher used by
//!   the DNN surrogate.
//! * [`census`] — census transform descriptors and Hamming-distance cost
//!   volumes, the integer fast-path metric (`CostMetric::Census`) behind the
//!   SIMD key-frame kernels.
//! * [`simd`] — runtime-dispatched scalar/SSE4.2/AVX2 kernels shared by the
//!   matchers, with bit-identical scalar fallbacks.
//!
//! # Example
//!
//! ```
//! use asv_stereo::triangulation::CameraRig;
//!
//! // The Bumblebee2 rig used in Fig. 4 of the paper.
//! let rig = CameraRig::bumblebee2();
//! let depth = rig.depth_from_disparity_pixels(10.0);
//! assert!(depth > 0.0);
//! ```

pub mod block_matching;
pub mod census;
pub mod cost_volume;
pub mod disparity;
pub mod sgm;
pub mod simd;
pub mod triangulation;

pub use block_matching::{block_match, refine_with_initial, BlockMatchParams};
pub use census::{CensusCostVolume, CensusDescriptors, Reference};
pub use disparity::{DisparityMap, StereoError};
pub use sgm::{semi_global_match, semi_global_match_with, CostMetric, SgmParams, SgmWorkspace};
pub use simd::{active_level, available_levels, detected_level, SimdLevel};
pub use triangulation::CameraRig;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StereoError>;
