//! ASV: the accelerated stereo vision system (the paper's primary
//! contribution), tying together the ISM algorithm, the deconvolution
//! optimizations and the accelerator models.
//!
//! The crate exposes four layers of API:
//!
//! * [`accuracy`] — scoring disparity maps and flow against ground truth,
//!   and the seeded accuracy gate an output-changing optimization must pass.
//! * [`ism`] — the invariant-based stereo matching pipeline (Sec. 3): DNN
//!   (surrogate) inference on key frames, correspondence reconstruction,
//!   propagation through dense optical flow, and block-matching refinement on
//!   non-key frames.  This is the functional algorithm that produces
//!   disparity maps from stereo video.
//! * [`perf`] — the system performance/energy model (Sec. 7): per-frame
//!   latency and energy of the four system variants the paper compares
//!   (baseline DNN accelerator, +DCO, +ISM, +both), plus the baseline
//!   hardware platforms.
//! * [`system`] — [`AsvSystem`], the top-level object a user instantiates to
//!   run both of the above with one configuration.
//!
//! # Quickstart
//!
//! ```
//! use asv::system::{AsvSystem, AsvConfig};
//! use asv_scene::{SceneConfig, StereoSequence};
//!
//! // A small synthetic stereo sequence (the dataset substitute).
//! let scene = SceneConfig::scene_flow_like(64, 48).with_seed(1);
//! let sequence = StereoSequence::generate(&scene, 4);
//!
//! // ASV with a propagation window of 2 (every other frame is a key frame).
//! let system = AsvSystem::new(AsvConfig { propagation_window: 2, ..AsvConfig::small() }).unwrap();
//! let result = system.process_sequence(&sequence).unwrap();
//! assert_eq!(result.frames.len(), 4);
//!
//! // Accuracy is measured with the three-pixel-error metric of the paper.
//! let accuracy = system.evaluate_accuracy(&sequence).unwrap();
//! assert!(accuracy.ism_error_rate <= 0.5);
//! ```

pub mod accuracy;
pub mod error;
pub mod ism;
pub mod perf;
pub mod system;
pub mod workspace;

pub use asv_dnn::CostMetric;
pub use asv_trace as trace;
pub use error::{AsvError, WireFault};
pub use ism::{
    FrameKind, FrameResult, IsmConfig, IsmPipeline, IsmResult, IsmState, KeyFramePolicy,
};
pub use perf::{AsvVariant, SystemPerformanceModel, VariantReport};
pub use system::{AccuracyReport, AsvConfig, AsvSystem};
pub use workspace::Workspace;
