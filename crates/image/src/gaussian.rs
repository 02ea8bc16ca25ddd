//! Separable Gaussian blur.
//!
//! The Farneback optical flow used by ISM spends most of its convolution time
//! in Gaussian blurs; the ASV software maps them onto the systolic array as
//! single-output-channel convolution layers (Sec. 5.1, Fig. 8).  This module
//! provides the functional reference for that mapping.

use crate::image::Image;

/// Builds a normalised 1-D Gaussian kernel for standard deviation `sigma`.
///
/// The radius is `ceil(3 sigma)` (covering ≥ 99.7 % of the mass); a
/// non-positive sigma yields the identity kernel `[1.0]`.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    if sigma <= 0.0 {
        return vec![1.0]; // lint: alloc-ok(degenerate-sigma identity kernel)
    }
    let radius = (3.0 * sigma).ceil() as isize;
    let mut kernel = Vec::with_capacity((2 * radius + 1) as usize); // lint: alloc-ok(kernel build, cached by callers)
    let denom = 2.0 * sigma * sigma;
    for i in -radius..=radius {
        kernel.push((-((i * i) as f32) / denom).exp());
    }
    let total: f32 = kernel.iter().sum();
    for v in &mut kernel {
        *v /= total;
    }
    kernel
}

/// Horizontal 1-D convolution with border clamping, writing into a reusable
/// output image.
///
/// The interior of each row (where the window never leaves the image) is
/// computed tap by tap, the way [`convolve_vertical_into`] computes whole
/// rows: it starts at zero and each tap `i` adds `k[i] * src[x - r + i]`
/// across the interior in one contiguous, auto-vectorizable pass.  Only the
/// `radius` pixels at each border read through clamped indices.  Every
/// pixel accumulates its taps in kernel order starting from 0.0, exactly as
/// the naive per-pixel clamped loop does, so the output is bit-identical to
/// it.
fn convolve_horizontal_into(image: &Image, kernel: &[f32], out: &mut Image) {
    let radius = kernel.len() / 2;
    let width = image.width();
    let height = image.height();
    // Every output pixel is assigned below, so the plane needs no fill.
    out.reshape_scratch(width, height);
    let src_all = image.as_slice();
    let dst_all = out.as_mut_slice();
    let clamped = |src: &[f32], x: usize| -> f32 {
        let mut acc = 0.0;
        for (i, &k) in kernel.iter().enumerate() {
            let u = (x + i) as isize - radius as isize;
            acc += k * src[u.clamp(0, width as isize - 1) as usize];
        }
        acc
    };
    // Width of the interior, where the whole window lies inside the row.
    let interior = width.saturating_sub(2 * radius);
    for y in 0..height {
        let src = &src_all[y * width..][..width];
        let dst = &mut dst_all[y * width..][..width];
        if interior == 0 {
            for (x, slot) in dst.iter_mut().enumerate() {
                *slot = clamped(src, x);
            }
            continue;
        }
        for x in (0..radius).chain(width - radius..width) {
            dst[x] = clamped(src, x);
        }
        let inner = &mut dst[radius..][..interior];
        inner.fill(0.0);
        for (i, &k) in kernel.iter().enumerate() {
            for (slot, &value) in inner.iter_mut().zip(&src[i..][..interior]) {
                *slot += k * value;
            }
        }
    }
}

/// Vertical 1-D convolution with border clamping, writing into a reusable
/// output image.
///
/// Implemented as whole-row accumulation: the output row starts at zero and
/// each tap adds `k * source_row`, a contiguous auto-vectorizable pass.  For
/// a fixed pixel the taps accumulate in exactly the reference order
/// (starting from 0.0), so the output is bit-identical to the naive
/// per-pixel loop.
fn convolve_vertical_into(image: &Image, kernel: &[f32], out: &mut Image) {
    let radius = (kernel.len() / 2) as isize;
    let width = image.width();
    let height = image.height();
    out.reset(width, height, 0.0);
    let src_all = image.as_slice();
    let dst_all = out.as_mut_slice();
    for y in 0..height {
        let dst = &mut dst_all[y * width..][..width];
        for (i, &k) in kernel.iter().enumerate() {
            let v = (y as isize + i as isize - radius).clamp(0, height as isize - 1) as usize;
            let src = &src_all[v * width..][..width];
            for (slot, &value) in dst.iter_mut().zip(src) {
                *slot += k * value;
            }
        }
    }
}

/// Applies a separable Gaussian blur with standard deviation `sigma`.
///
/// A non-positive `sigma` returns a copy of the input.
pub fn gaussian_blur(image: &Image, sigma: f32) -> Image {
    let kernel = gaussian_kernel(sigma);
    if kernel.len() == 1 {
        return image.clone();
    }
    separable_filter(image, &kernel, &kernel)
}

/// Applies a separable blur with a precomputed kernel to `image` in place,
/// using `tmp` as the intermediate of the horizontal pass.  Identical output
/// to [`gaussian_blur`] with the kernel's sigma, without any allocation once
/// `tmp` has warmed to the image size.
pub fn blur_in_place(image: &mut Image, kernel: &[f32], tmp: &mut Image) {
    if kernel.len() == 1 {
        return;
    }
    convolve_horizontal_into(image, kernel, tmp);
    convolve_vertical_into(tmp, kernel, image);
}

/// Applies an arbitrary separable kernel (horizontal then vertical pass).
///
/// Used by the Farneback polynomial expansion, which needs Gaussian-weighted
/// moment filters in addition to the plain blur.
pub fn separable_filter(image: &Image, kernel_x: &[f32], kernel_y: &[f32]) -> Image {
    let mut tmp = Image::default();
    let mut out = Image::default();
    separable_filter_into(image, kernel_x, kernel_y, &mut tmp, &mut out);
    out
}

/// [`separable_filter`] writing into a reusable output image, with `tmp` as
/// the intermediate of the horizontal pass.
pub fn separable_filter_into(
    image: &Image,
    kernel_x: &[f32],
    kernel_y: &[f32],
    tmp: &mut Image,
    out: &mut Image,
) {
    convolve_horizontal_into(image, kernel_x, tmp);
    convolve_vertical_into(tmp, kernel_y, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_normalised_and_symmetric() {
        for &sigma in &[0.5, 1.0, 2.5] {
            let k = gaussian_kernel(sigma);
            assert_eq!(k.len() % 2, 1, "kernel must have odd length");
            let sum: f32 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
            }
            // The centre tap is the largest.
            let centre = k[k.len() / 2];
            assert!(k.iter().all(|&v| v <= centre + 1e-9));
        }
    }

    #[test]
    fn non_positive_sigma_is_identity() {
        assert_eq!(gaussian_kernel(0.0), vec![1.0]);
        assert_eq!(gaussian_kernel(-1.0), vec![1.0]);
        let img = Image::from_fn(4, 4, |x, y| (x + y) as f32);
        let out = gaussian_blur(&img, 0.0);
        assert_eq!(out, img);
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = Image::filled(16, 16, 0.7);
        let out = gaussian_blur(&img, 2.0);
        assert!(out.as_slice().iter().all(|&v| (v - 0.7).abs() < 1e-5));
    }

    #[test]
    fn blur_spreads_impulse_but_preserves_mass() {
        let img = Image::from_fn(21, 21, |x, y| if x == 10 && y == 10 { 1.0 } else { 0.0 });
        let out = gaussian_blur(&img, 1.5);
        assert!(out.at(10, 10) < 1.0);
        assert!(out.at(10, 10) > out.at(0, 0));
        assert!((out.sum() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn blur_reduces_variance_of_noise() {
        // A checkerboard has maximal high-frequency energy; blurring must pull
        // every pixel towards the mean.
        let img = Image::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 1.0 } else { 0.0 });
        let out = gaussian_blur(&img, 1.0);
        let var = |im: &Image| {
            let m = im.mean();
            im.as_slice()
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum::<f32>()
                / im.len() as f32
        };
        assert!(var(&out) < 0.2 * var(&img));
    }

    /// The naive per-pixel 1-D convolution: taps in kernel order from 0.0,
    /// every read through a clamped index.  `(dx, dy)` is the axis.
    fn naive_pass(image: &Image, kernel: &[f32], (dx, dy): (isize, isize)) -> Image {
        let radius = (kernel.len() / 2) as isize;
        Image::from_fn(image.width(), image.height(), |x, y| {
            let mut acc = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let t = i as isize - radius;
                acc += k * image.at_clamped(x as isize + t * dx, y as isize + t * dy);
            }
            acc
        })
    }

    fn bits(image: &Image) -> Vec<u32> {
        image.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Gaussian and first-moment (`w(t) · t`, signed, zero centre tap)
    /// kernels of radius 3, 4 and 6.
    fn reference_kernels() -> Vec<Vec<f32>> {
        let mut kernels = Vec::new();
        for sigma in [1.0, 1.2, 2.0] {
            let gauss = gaussian_kernel(sigma);
            let radius = (gauss.len() / 2) as isize;
            let moment = gauss
                .iter()
                .enumerate()
                .map(|(i, &w)| w * (i as isize - radius) as f32)
                .collect();
            kernels.push(gauss);
            kernels.push(moment);
        }
        kernels
    }

    /// Inputs of every size from 1 to `2r + 3` on both axes: irregular
    /// signed values, and an all `-0.0` plane (a pass that seeded each pixel
    /// with its first tap instead of 0.0 would leave `-0.0` there).
    fn reference_inputs(radius: usize) -> Vec<Image> {
        let max = 2 * radius + 3;
        let mut inputs = Vec::new();
        for width in 1..=max {
            for height in 1..=max {
                inputs.push(Image::from_fn(width, height, |x, y| {
                    let k = (x * 7919 + y * 104_729 + width * 31) % 1013;
                    (k as f32 - 506.0) * 0.013_7 + 1.0 / (1.0 + k as f32)
                }));
            }
            inputs.push(Image::filled(width, 2, -0.0));
        }
        inputs
    }

    #[test]
    fn convolution_passes_match_the_naive_clamped_loop_bit_for_bit() {
        let mut tmp = Image::default();
        let mut out = Image::default();
        for kernel in reference_kernels() {
            assert!([3, 4, 6].contains(&(kernel.len() / 2)));
            for image in reference_inputs(kernel.len() / 2) {
                let size = (image.width(), image.height());
                let horizontal = naive_pass(&image, &kernel, (1, 0));
                let both = naive_pass(&horizontal, &kernel, (0, 1));

                convolve_horizontal_into(&image, &kernel, &mut out);
                assert_eq!(bits(&out), bits(&horizontal), "horizontal {size:?}");

                separable_filter_into(&image, &kernel, &kernel, &mut tmp, &mut out);
                assert_eq!(bits(&out), bits(&both), "separable {size:?}");

                let mut in_place = image.clone();
                blur_in_place(&mut in_place, &kernel, &mut tmp);
                assert_eq!(bits(&in_place), bits(&both), "in place {size:?}");
            }
        }
    }

    #[test]
    fn separable_filter_applies_both_axes() {
        let img = Image::from_fn(8, 8, |x, _| x as f32);
        // Central difference in x, identity in y.
        let dx = separable_filter(&img, &[-0.5, 0.0, 0.5], &[1.0]);
        // The interior gradient of a ramp with slope 1 is 1.
        assert!((dx.at(4, 4) - 1.0).abs() < 1e-6);
        // Identity in x, central difference in y on a constant-in-y image is 0.
        let dy = separable_filter(&img, &[1.0], &[-0.5, 0.0, 0.5]);
        assert!(dy.at(4, 4).abs() < 1e-6);
    }
}
