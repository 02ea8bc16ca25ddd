//! Stereo DNN and GAN workload descriptions plus the key-frame disparity
//! estimator ("DNN surrogate").
//!
//! ASV's performance and energy experiments never need trained weights — they
//! need the *layer shapes* of the stereo networks (FlowNetC, DispNet, GC-Net,
//! PSMNet) and of the GAN generators used in the GANNX comparison, because
//! MAC counts, activation sizes and kernel sizes fully determine what the
//! accelerator models execute.  This crate provides:
//!
//! * [`layer`] — a layer IR ([`LayerSpec`]) covering 2-D/3-D convolution,
//!   deconvolution and point-wise layers, with exact arithmetic and traffic
//!   accounting (including the naive-vs-transformed deconvolution MAC counts
//!   of Sec. 4.1).
//! * [`network`] — a network description ([`NetworkSpec`]) with per-stage
//!   (FE/MO/DR) statistics, reproducing Fig. 3.
//! * [`zoo`] — the four stereo networks of the paper, parameterised by input
//!   resolution.
//! * [`gan`] — the six GAN generators of the GANNX comparison (Fig. 14).
//! * [`surrogate`] — a functional key-frame disparity estimator with
//!   "DNN-like" accuracy built from classic components (SGM + sub-pixel +
//!   consistency checking), standing in for trained stereo DNNs in the
//!   accuracy experiments (its module docs give the argument).
//!
//! # Example
//!
//! ```
//! use asv_dnn::zoo;
//!
//! let net = zoo::flownetc(384, 768);
//! // Deconvolution is a large minority of the network's arithmetic.
//! let share = net.deconv_mac_fraction();
//! assert!(share > 0.05 && share < 0.8);
//! ```

pub mod gan;
pub mod layer;
pub mod network;
pub mod surrogate;
pub mod zoo;

pub use asv_stereo::sgm::CostMetric;
pub use layer::{LayerOp, LayerSpec, Stage};
pub use network::NetworkSpec;
pub use surrogate::{SurrogateParams, SurrogateStereoDnn};
