//! Direct dense convolution kernels (2-D and 3-D).
//!
//! These are the "canonical convolutions" that a systolic-array DNN
//! accelerator executes natively.  The software deconvolution transformation of
//! the ASV paper rewrites sparse deconvolution layers into sets of these dense
//! convolutions.

use crate::error::TensorError;
use crate::shape::{Shape4, Shape5};
use crate::tensor::{Tensor4, Tensor5};
use crate::Result;
use rayon::prelude::*;

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added to all four borders.
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Self {
            stride: 1,
            padding: 0,
        }
    }
}

/// Parameters of a 3-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dParams {
    /// Stride in the depth and both spatial dimensions.
    pub stride: usize,
    /// Zero padding added on every face.
    pub padding: usize,
}

impl Default for Conv3dParams {
    fn default() -> Self {
        Self {
            stride: 1,
            padding: 0,
        }
    }
}

/// Output spatial size of a convolution along one dimension.
///
/// Returns `None` when the kernel (with padding) does not fit in the input.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// Output spatial size of a transposed convolution along one dimension.
///
/// Follows the usual convention `out = (in - 1) * stride - 2*padding + kernel`.
pub fn deconv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    if input == 0 || stride == 0 {
        return None;
    }
    let grown = (input - 1) * stride + kernel;
    if grown < 2 * padding {
        return None;
    }
    Some(grown - 2 * padding)
}

/// Runs `fill(n, oc, plane)` over every `(batch, output-channel)` plane of a
/// contiguous NCHW-style buffer. Planes are disjoint, so they are distributed
/// over the rayon pool; each plane's arithmetic does not depend on the
/// schedule.
pub(crate) fn drive_planes(
    data: &mut [f32],
    plane_len: usize,
    planes_per_batch: usize,
    fill: &(impl Fn(usize, usize, &mut [f32]) + Sync),
) {
    if plane_len == 0 || data.is_empty() {
        return;
    }
    data.par_chunks_mut(plane_len)
        .enumerate()
        .for_each(|(p, plane)| fill(p / planes_per_batch, p % planes_per_batch, plane));
}

/// Dense 2-D convolution of `input` (`N×Ci×H×W`) with `kernel`
/// (`Co×Ci×KH×KW`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the channel counts disagree or
/// the kernel does not fit, and [`TensorError::InvalidParameter`] when the
/// stride is zero.
pub fn conv2d(input: &Tensor4, kernel: &Tensor4, params: &Conv2dParams) -> Result<Tensor4> {
    if params.stride == 0 {
        return Err(TensorError::invalid_parameter("stride must be non-zero"));
    }
    let ish = input.shape();
    let ksh = kernel.shape();
    if ish.c != ksh.c {
        return Err(TensorError::shape_mismatch(format!(
            "conv2d: input channels {} vs kernel channels {}",
            ish.c, ksh.c
        )));
    }
    let oh = conv_out_dim(ish.h, ksh.h, params.stride, params.padding).ok_or_else(|| {
        TensorError::shape_mismatch(format!(
            "conv2d: kernel {}x{} does not fit input {}",
            ksh.h, ksh.w, ish
        ))
    })?;
    let ow = conv_out_dim(ish.w, ksh.w, params.stride, params.padding).ok_or_else(|| {
        TensorError::shape_mismatch(format!(
            "conv2d: kernel {}x{} does not fit input {}",
            ksh.h, ksh.w, ish
        ))
    })?;

    let mut out = Tensor4::zeros(Shape4::new(ish.n, ksh.n, oh, ow));
    let pad = params.padding as isize;
    let in_data = input.as_slice();
    let k_data = kernel.as_slice();
    let fill = |n: usize, oc: usize, plane: &mut [f32]| {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ic in 0..ish.c {
                    for ky in 0..ksh.h {
                        let iy = (oy * params.stride + ky) as isize - pad;
                        if iy < 0 || iy >= ish.h as isize {
                            continue;
                        }
                        for kx in 0..ksh.w {
                            let ix = (ox * params.stride + kx) as isize - pad;
                            if ix < 0 || ix >= ish.w as isize {
                                continue;
                            }
                            acc += in_data[ish.index(n, ic, iy as usize, ix as usize)]
                                * k_data[ksh.index(oc, ic, ky, kx)];
                        }
                    }
                }
                plane[oy * ow + ox] = acc;
            }
        }
    };
    drive_planes(out.as_mut_slice(), oh * ow, ksh.n, &fill);
    Ok(out)
}

/// Dense 3-D convolution of `input` (`N×Ci×D×H×W`) with `kernel`
/// (`Co×Ci×KD×KH×KW`).
///
/// # Errors
///
/// Same error conditions as [`conv2d`].
pub fn conv3d(input: &Tensor5, kernel: &Tensor5, params: &Conv3dParams) -> Result<Tensor5> {
    if params.stride == 0 {
        return Err(TensorError::invalid_parameter("stride must be non-zero"));
    }
    let ish = input.shape();
    let ksh = kernel.shape();
    if ish.c != ksh.c {
        return Err(TensorError::shape_mismatch(format!(
            "conv3d: input channels {} vs kernel channels {}",
            ish.c, ksh.c
        )));
    }
    let od = conv_out_dim(ish.d, ksh.d, params.stride, params.padding);
    let oh = conv_out_dim(ish.h, ksh.h, params.stride, params.padding);
    let ow = conv_out_dim(ish.w, ksh.w, params.stride, params.padding);
    let (od, oh, ow) = match (od, oh, ow) {
        (Some(d), Some(h), Some(w)) => (d, h, w),
        _ => {
            return Err(TensorError::shape_mismatch(format!(
                "conv3d: kernel {} does not fit input {}",
                ksh, ish
            )))
        }
    };

    let mut out = Tensor5::zeros(Shape5::new(ish.n, ksh.n, od, oh, ow));
    let pad = params.padding as isize;
    let in_data = input.as_slice();
    let k_data = kernel.as_slice();
    let fill = |n: usize, oc: usize, plane: &mut [f32]| {
        for oz in 0..od {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ic in 0..ish.c {
                        for kz in 0..ksh.d {
                            let iz = (oz * params.stride + kz) as isize - pad;
                            if iz < 0 || iz >= ish.d as isize {
                                continue;
                            }
                            for ky in 0..ksh.h {
                                let iy = (oy * params.stride + ky) as isize - pad;
                                if iy < 0 || iy >= ish.h as isize {
                                    continue;
                                }
                                for kx in 0..ksh.w {
                                    let ix = (ox * params.stride + kx) as isize - pad;
                                    if ix < 0 || ix >= ish.w as isize {
                                        continue;
                                    }
                                    acc += in_data
                                        [ish.index(n, ic, iz as usize, iy as usize, ix as usize)]
                                        * k_data[ksh.index(oc, ic, kz, ky, kx)];
                                }
                            }
                        }
                    }
                    plane[(oz * oh + oy) * ow + ox] = acc;
                }
            }
        }
    };
    drive_planes(out.as_mut_slice(), od * oh * ow, ksh.n, &fill);
    Ok(out)
}

/// Correlation variant of [`conv2d`] that accumulates the sum of absolute
/// differences (SAD) instead of the dot product.
///
/// The ASV hardware extends each systolic PE with an `a ← a + |b − c|` mode so
/// that the block-matching correspondence search of the ISM algorithm can be
/// mapped onto the same array (Sec 3.3 of the paper).  This function is the
/// functional model of that mode.
///
/// # Errors
///
/// Same error conditions as [`conv2d`].
pub fn sad_conv2d(input: &Tensor4, kernel: &Tensor4, params: &Conv2dParams) -> Result<Tensor4> {
    if params.stride == 0 {
        return Err(TensorError::invalid_parameter("stride must be non-zero"));
    }
    let ish = input.shape();
    let ksh = kernel.shape();
    if ish.c != ksh.c {
        return Err(TensorError::shape_mismatch(format!(
            "sad_conv2d: input channels {} vs kernel channels {}",
            ish.c, ksh.c
        )));
    }
    let oh = conv_out_dim(ish.h, ksh.h, params.stride, params.padding)
        .ok_or_else(|| TensorError::shape_mismatch("sad_conv2d: kernel does not fit input"))?;
    let ow = conv_out_dim(ish.w, ksh.w, params.stride, params.padding)
        .ok_or_else(|| TensorError::shape_mismatch("sad_conv2d: kernel does not fit input"))?;

    let mut out = Tensor4::zeros(Shape4::new(ish.n, ksh.n, oh, ow));
    let pad = params.padding as isize;
    let in_data = input.as_slice();
    let k_data = kernel.as_slice();
    let fill = |n: usize, oc: usize, plane: &mut [f32]| {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ic in 0..ish.c {
                    for ky in 0..ksh.h {
                        for kx in 0..ksh.w {
                            let iy = (oy * params.stride + ky) as isize - pad;
                            let ix = (ox * params.stride + kx) as isize - pad;
                            let input_val =
                                if iy < 0 || ix < 0 || iy >= ish.h as isize || ix >= ish.w as isize
                                {
                                    0.0
                                } else {
                                    in_data[ish.index(n, ic, iy as usize, ix as usize)]
                                };
                            acc += (input_val - k_data[ksh.index(oc, ic, ky, kx)]).abs();
                        }
                    }
                }
                plane[oy * ow + ox] = acc;
            }
        }
    };
    drive_planes(out.as_mut_slice(), oh * ow, ksh.n, &fill);
    Ok(out)
}

/// Number of multiply-accumulate operations performed by a dense convolution
/// with the given shapes (used to cross-check the analytical layer statistics
/// in `asv-dnn`).
pub fn conv2d_mac_count(input: Shape4, kernel: Shape4, params: &Conv2dParams) -> u64 {
    let oh = conv_out_dim(input.h, kernel.h, params.stride, params.padding).unwrap_or(0) as u64;
    let ow = conv_out_dim(input.w, kernel.w, params.stride, params.padding).unwrap_or(0) as u64;
    input.n as u64 * kernel.n as u64 * oh * ow * (kernel.c * kernel.h * kernel.w) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_input() -> Tensor4 {
        Tensor4::from_fn(Shape4::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as f32)
    }

    #[test]
    fn out_dim_math() {
        assert_eq!(conv_out_dim(5, 3, 1, 0), Some(3));
        assert_eq!(conv_out_dim(5, 3, 1, 1), Some(5));
        assert_eq!(conv_out_dim(5, 3, 2, 0), Some(2));
        assert_eq!(conv_out_dim(2, 3, 1, 0), None);
        assert_eq!(conv_out_dim(5, 3, 0, 0), None);
        assert_eq!(deconv_out_dim(3, 3, 2, 0), Some(7));
        assert_eq!(deconv_out_dim(3, 3, 2, 1), Some(5));
        assert_eq!(deconv_out_dim(0, 3, 2, 0), None);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = simple_input();
        let mut kernel = Tensor4::zeros(Shape4::new(1, 1, 3, 3));
        kernel.set(0, 0, 1, 1, 1.0);
        let out = conv2d(
            &input,
            &kernel,
            &Conv2dParams {
                stride: 1,
                padding: 1,
            },
        )
        .unwrap();
        assert_eq!(out.shape(), input.shape());
        assert!(out.max_abs_diff(&input).unwrap() < 1e-6);
    }

    #[test]
    fn box_filter_sums_neighbourhood() {
        let input = Tensor4::filled(Shape4::new(1, 1, 4, 4), 1.0);
        let kernel = Tensor4::filled(Shape4::new(1, 1, 3, 3), 1.0);
        let out = conv2d(&input, &kernel, &Conv2dParams::default()).unwrap();
        assert_eq!(out.shape(), Shape4::new(1, 1, 2, 2));
        assert!(out.as_slice().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn stride_two_subsamples() {
        let input = simple_input();
        let mut kernel = Tensor4::zeros(Shape4::new(1, 1, 1, 1));
        kernel.set(0, 0, 0, 0, 1.0);
        let out = conv2d(
            &input,
            &kernel,
            &Conv2dParams {
                stride: 2,
                padding: 0,
            },
        )
        .unwrap();
        assert_eq!(out.shape(), Shape4::new(1, 1, 2, 2));
        assert_eq!(out.at(0, 0, 0, 0), 0.0);
        assert_eq!(out.at(0, 0, 0, 1), 2.0);
        assert_eq!(out.at(0, 0, 1, 0), 8.0);
        assert_eq!(out.at(0, 0, 1, 1), 10.0);
    }

    #[test]
    fn multi_channel_accumulates_over_input_channels() {
        let input = Tensor4::filled(Shape4::new(1, 3, 2, 2), 1.0);
        let kernel = Tensor4::filled(Shape4::new(2, 3, 1, 1), 2.0);
        let out = conv2d(&input, &kernel, &Conv2dParams::default()).unwrap();
        assert_eq!(out.shape(), Shape4::new(1, 2, 2, 2));
        assert!(out.as_slice().iter().all(|&v| (v - 6.0).abs() < 1e-6));
    }

    #[test]
    fn channel_mismatch_is_error() {
        let input = Tensor4::zeros(Shape4::new(1, 2, 4, 4));
        let kernel = Tensor4::zeros(Shape4::new(1, 3, 3, 3));
        assert!(conv2d(&input, &kernel, &Conv2dParams::default()).is_err());
    }

    #[test]
    fn zero_stride_is_error() {
        let input = Tensor4::zeros(Shape4::new(1, 1, 4, 4));
        let kernel = Tensor4::zeros(Shape4::new(1, 1, 3, 3));
        assert!(conv2d(
            &input,
            &kernel,
            &Conv2dParams {
                stride: 0,
                padding: 0
            }
        )
        .is_err());
        assert!(sad_conv2d(
            &input,
            &kernel,
            &Conv2dParams {
                stride: 0,
                padding: 0
            }
        )
        .is_err());
        assert!(conv3d(
            &Tensor5::zeros(Shape5::new(1, 1, 2, 2, 2)),
            &Tensor5::zeros(Shape5::new(1, 1, 1, 1, 1)),
            &Conv3dParams {
                stride: 0,
                padding: 0
            }
        )
        .is_err());
    }

    #[test]
    fn sad_conv_computes_absolute_differences() {
        let input = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let kernel = Tensor4::filled(Shape4::new(1, 1, 2, 2), 2.5);
        let out = sad_conv2d(&input, &kernel, &Conv2dParams::default()).unwrap();
        // |1-2.5| + |2-2.5| + |3-2.5| + |4-2.5| = 1.5 + 0.5 + 0.5 + 1.5 = 4
        assert_eq!(out.shape(), Shape4::new(1, 1, 1, 1));
        assert!((out.at(0, 0, 0, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn sad_conv_is_zero_for_identical_block() {
        let input = Tensor4::from_fn(Shape4::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let kernel = input.clone();
        let out = sad_conv2d(&input, &kernel, &Conv2dParams::default()).unwrap();
        assert!(out.at(0, 0, 0, 0).abs() < 1e-6);
    }

    #[test]
    fn conv3d_identity_kernel() {
        let input = Tensor5::from_fn(Shape5::new(1, 1, 3, 3, 3), |_, _, d, h, w| {
            (d * 9 + h * 3 + w) as f32
        });
        let mut kernel = Tensor5::zeros(Shape5::new(1, 1, 1, 1, 1));
        kernel.set(0, 0, 0, 0, 0, 1.0);
        let out = conv3d(&input, &kernel, &Conv3dParams::default()).unwrap();
        assert!(out.max_abs_diff(&input).unwrap() < 1e-6);
    }

    #[test]
    fn conv3d_box_filter() {
        let input = Tensor5::filled(Shape5::new(1, 1, 3, 3, 3), 1.0);
        let kernel = Tensor5::filled(Shape5::new(1, 1, 2, 2, 2), 1.0);
        let out = conv3d(&input, &kernel, &Conv3dParams::default()).unwrap();
        assert_eq!(out.shape(), Shape5::new(1, 1, 2, 2, 2));
        assert!(out.as_slice().iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }

    #[test]
    fn conv3d_channel_mismatch_is_error() {
        let input = Tensor5::zeros(Shape5::new(1, 2, 3, 3, 3));
        let kernel = Tensor5::zeros(Shape5::new(1, 1, 1, 1, 1));
        assert!(conv3d(&input, &kernel, &Conv3dParams::default()).is_err());
    }

    #[test]
    fn mac_count_matches_loop_structure() {
        let input = Shape4::new(1, 3, 8, 8);
        let kernel = Shape4::new(16, 3, 3, 3);
        let params = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        // 1 * 16 output channels * 8*8 outputs * 3*3*3 per output
        assert_eq!(conv2d_mac_count(input, kernel, &params), 16 * 64 * 27);
    }
}
