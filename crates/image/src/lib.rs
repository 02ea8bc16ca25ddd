//! Grayscale image processing substrate for the ASV reproduction.
//!
//! The ISM algorithm (Sec. 3 of the ASV paper) operates on video frames: it
//! blurs them with Gaussian kernels, estimates dense optical flow between
//! consecutive frames and refines correspondences with block matching.  This
//! crate provides the image container and the classic image-processing
//! primitives those steps need:
//!
//! * [`Image`] — a single-channel `f32` image, and [`Bilinear`], the one
//!   bilinear sampling footprint every interpolated read goes through.
//! * [`gaussian`] — separable Gaussian blur (the convolution the ASV hardware
//!   maps onto its systolic array when processing non-key frames).
//! * [`pyramid`] — Gaussian image pyramids used by the coarse-to-fine optical
//!   flow.
//! * [`warp`] — backward warping of an image by a displacement field.
//! * [`cost`] — block matching costs (SAD, SSD, zero-mean SAD) shared by the
//!   classic stereo algorithms and the ISM refinement step.
//!
//! # Example
//!
//! ```
//! use asv_image::{Image, gaussian_blur};
//!
//! let img = Image::from_fn(32, 32, |x, y| if x == 16 && y == 16 { 1.0 } else { 0.0 });
//! let blurred = gaussian_blur(&img, 1.5);
//! assert!(blurred.at(16, 16) < 1.0);          // energy spreads out
//! assert!((blurred.sum() - img.sum()).abs() < 1e-3); // but is preserved
//! ```

pub mod cost;
pub mod gaussian;
pub mod image;
pub mod pyramid;
pub mod warp;

pub use crate::image::{round_index, round_to_usize, Bilinear, BilinearAxis, Image, ImageError};
pub use gaussian::{gaussian_blur, gaussian_kernel};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ImageError>;
