//! Single-channel floating point image container.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error type for image construction and image-pair operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Provided pixel buffer does not match `width * height`.
    DataLength {
        /// Expected number of pixels.
        expected: usize,
        /// Provided number of pixels.
        actual: usize,
    },
    /// Two images that must have identical dimensions do not.
    DimensionMismatch {
        /// Human readable description.
        context: String,
    },
    /// A parameter such as a window size or pyramid depth is invalid.
    InvalidParameter {
        /// Human readable description.
        context: String,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::DataLength { expected, actual } => {
                write!(
                    f,
                    "pixel buffer length {actual} does not match image size {expected}"
                )
            }
            ImageError::DimensionMismatch { context } => write!(f, "dimension mismatch: {context}"),
            ImageError::InvalidParameter { context } => write!(f, "invalid parameter: {context}"),
        }
    }
}

impl Error for ImageError {}

impl ImageError {
    /// Builds a [`ImageError::DimensionMismatch`] from anything displayable.
    pub fn dimension_mismatch(context: impl fmt::Display) -> Self {
        ImageError::DimensionMismatch {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }

    /// Builds a [`ImageError::InvalidParameter`] from anything displayable.
    pub fn invalid_parameter(context: impl fmt::Display) -> Self {
        ImageError::InvalidParameter {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }
}

/// A dense single-channel (grayscale) `f32` image stored row-major.
///
/// Pixel `(x, y)` addresses column `x` and row `y`; `(0, 0)` is the top-left
/// corner, matching the convention of the stereo-matching literature where the
/// disparity search runs along image rows.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Clone for Image {
    fn clone(&self) -> Self {
        Self {
            width: self.width,
            height: self.height,
            data: self.data.clone(), // lint: alloc-ok(deep copy by Clone contract; hot path uses clone_from)
        }
    }

    /// Copies `source` into `self`, reusing the existing pixel buffer when
    /// its capacity suffices (the derived implementation would reallocate).
    /// This is what makes carrying previous-frame state across a stream
    /// allocation-free in the steady state.
    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.height = source.height;
        self.data.clone_from(&source.data);
    }
}

impl Image {
    /// Creates an all-zero image.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; width * height], // lint: alloc-ok(constructor; steady state reuses via clone_from)
        }
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from a row-major pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DataLength`] when `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> crate::Result<Self> {
        if data.len() != width * height {
            return Err(ImageError::DataLength {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image has zero pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major pixel buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Bytes held by the pixel buffer, including spare capacity kept for
    /// reuse.
    pub fn retained_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Consumes the image and returns its row-major pixel buffer, e.g. to
    /// hand the allocation back to a buffer pool.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Re-shapes the image to `width x height` with every pixel set to
    /// `value`, reusing the existing buffer when its capacity suffices.
    /// Equivalent to `*self = Image::filled(width, height, value)` without
    /// the allocation.
    pub fn reset(&mut self, width: usize, height: usize, value: f32) {
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(width * height, value);
    }

    /// Re-shapes the image to `width x height` leaving the pixel contents
    /// *unspecified* (stale data when the size already matches).  For
    /// kernels that overwrite every pixel: skips the full-plane fill that
    /// [`Image::reset`] pays.
    pub fn reshape_scratch(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        if self.data.len() != width * height {
            self.data.clear();
            self.data.resize(width * height, 0.0);
        }
    }

    /// Mutable row-major pixel buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is out of bounds.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = value;
    }

    /// Pixel value with the coordinates clamped to the image border.
    ///
    /// Accepts signed coordinates so callers can index relative neighbourhoods
    /// without bounds checks.
    #[inline]
    pub fn at_clamped(&self, x: isize, y: isize) -> f32 {
        if self.width == 0 || self.height == 0 {
            return 0.0;
        }
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Bilinearly interpolated value at a real-valued coordinate, with border
    /// clamping (see [`Bilinear`]); 0 for an empty image.
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        Bilinear::new(self.width, self.height, x, y).sample(&self.data)
    }

    /// Sum of all pixel values.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Mean pixel value (0 for an empty image).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            (self.sum() / self.data.len() as f64) as f32
        }
    }

    /// Mean absolute difference between two images of identical size.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DimensionMismatch`] when the sizes differ.
    pub fn mean_abs_diff(&self, other: &Image) -> crate::Result<f32> {
        if self.width != other.width || self.height != other.height {
            return Err(ImageError::dimension_mismatch(format!(
                "{}x{} vs {}x{}",
                self.width, self.height, other.width, other.height
            )));
        }
        if self.data.is_empty() {
            return Ok(0.0);
        }
        let total: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs() as f64)
            .sum();
        Ok((total / self.data.len() as f64) as f32)
    }

    /// Applies `f` to every pixel in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Downsamples by a factor of two using 2×2 box averaging.
    pub fn downsample2(&self) -> Image {
        let mut out = Image::default();
        self.downsample2_into(&mut out);
        out
    }

    /// [`Image::downsample2`] writing into a reusable output image.
    pub fn downsample2_into(&self, out: &mut Image) {
        let nw = (self.width / 2).max(1);
        let nh = (self.height / 2).max(1);
        out.reshape_scratch(nw, nh);
        for y in 0..nh {
            for x in 0..nw {
                let x0 = (2 * x).min(self.width.saturating_sub(1));
                let y0 = (2 * y).min(self.height.saturating_sub(1));
                let x1 = (2 * x + 1).min(self.width.saturating_sub(1));
                let y1 = (2 * y + 1).min(self.height.saturating_sub(1));
                let v =
                    0.25 * (self.at(x0, y0) + self.at(x1, y0) + self.at(x0, y1) + self.at(x1, y1));
                out.data[y * nw + x] = v;
            }
        }
    }
}

impl Default for Image {
    fn default() -> Self {
        Image::zeros(0, 0)
    }
}

/// `v.round() as usize`, bit for bit, without the `roundf` call that
/// `f32::round` compiles to on the baseline x86-64 target (no SSE4.1).
///
/// The truncating cast saturates (negative and NaN to 0, `+Inf` and values
/// past `usize::MAX` to `usize::MAX`), and below 2^23 `v - trunc(v)` is
/// exact, so adding one when that fraction reaches 0.5 rounds half away
/// from zero; from 2^23 on every `f32` is an integer and the fraction is 0.
#[inline]
pub fn round_to_usize(v: f32) -> usize {
    let i = v as usize;
    if v - i as f32 >= 0.5 {
        i.saturating_add(1)
    } else {
        i
    }
}

/// The index `v` rounds to on an axis of `len` samples: `Some(v.round() as
/// usize)` when `v.round()` lies in `[0, len)`, `None` otherwise (NaN
/// included).  The containment is tested on the unrounded value, `-0.5 < v
/// < len - 0.5`, which is the same test for every `len` up to 2^23.
#[inline]
pub fn round_index(v: f32, len: usize) -> Option<usize> {
    (-0.5 < v && v < len as f32 - 0.5).then(|| round_to_usize(v))
}

/// One axis of a [`Bilinear`] footprint: the two neighbouring indices of a
/// coordinate clamped to the axis, and its fraction between them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BilinearAxis {
    i0: usize,
    i1: usize,
    frac: f32,
}

impl BilinearAxis {
    /// Footprint of coordinate `t` on an axis of `len` samples (non-zero),
    /// clamped to `[0, len - 1]`; NaN maps to index 0 with a NaN fraction.
    #[inline]
    pub fn new(len: usize, t: f32) -> Self {
        let t = t.clamp(0.0, (len - 1) as f32);
        // After the clamp a coordinate is non-negative, `-0.0` or NaN, and
        // for all three the truncating cast equals `floor` (NaN casts to 0).
        let i0 = t as usize;
        Self {
            i0,
            i1: (i0 + 1).min(len - 1),
            frac: t - i0 as f32,
        }
    }
}

/// The footprint of one bilinear sample in a row-major `width × height`
/// plane: the flat indices of the four neighbouring pixels and the two
/// interpolation fractions.
///
/// Computing the footprint once and applying it to several same-sized
/// planes (the five expansion planes of Farneback's matrix update, the two
/// components of a flow field) does the clamp, truncation and index work
/// once per coordinate instead of once per plane.  Every bilinear read of an
/// image plane goes through a footprint; [`Image::sample_bilinear`] is one
/// applied to a single plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bilinear {
    i00: usize,
    i10: usize,
    i01: usize,
    i11: usize,
    dx: f32,
    dy: f32,
}

impl Bilinear {
    /// Footprint of the sample at `(x, y)`, with the coordinate clamped to
    /// the plane.  `width` and `height` must be non-zero.
    ///
    /// A NaN coordinate maps to column (row) 0 with a NaN fraction, so the
    /// sample is NaN rather than a panic.
    #[inline]
    pub fn new(width: usize, height: usize, x: f32, y: f32) -> Self {
        Self::from_axes(
            width,
            BilinearAxis::new(width, x),
            BilinearAxis::new(height, y),
        )
    }

    /// The footprint in a plane `width` pixels wide whose column and row
    /// are `x` and `y`.  Sampling on a grid, one axis footprint per column
    /// and one per row give every pixel's footprint without redoing the
    /// clamps and truncations; the result equals [`Bilinear::new`]'s.
    #[inline]
    pub fn from_axes(width: usize, x: BilinearAxis, y: BilinearAxis) -> Self {
        let (row0, row1) = (y.i0 * width, y.i1 * width);
        Self {
            i00: row0 + x.i0,
            i10: row0 + x.i1,
            i01: row1 + x.i0,
            i11: row1 + x.i1,
            dx: x.frac,
            dy: y.frac,
        }
    }

    /// The interpolated value of `plane`, a row-major buffer of the size the
    /// footprint was made for, evaluated left to right as
    /// `v00·(1−dx)·(1−dy) + v10·dx·(1−dy) + v01·(1−dx)·dy + v11·dx·dy`.
    ///
    /// # Panics
    ///
    /// Panics when `plane` is smaller than that size.
    #[inline]
    pub fn sample(&self, plane: &[f32]) -> f32 {
        let (dx, dy) = (self.dx, self.dy);
        plane[self.i00] * (1.0 - dx) * (1.0 - dy)
            + plane[self.i10] * dx * (1.0 - dy)
            + plane[self.i01] * (1.0 - dx) * dy
            + plane[self.i11] * dx * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let img = Image::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert_eq!(img.len(), 6);
        assert!(!img.is_empty());
        assert_eq!(img.at(2, 1), 5.0);
        assert_eq!(img.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Image::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Image::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn set_and_map() {
        let mut img = Image::zeros(2, 2);
        img.set(1, 1, 4.0);
        img.map_inplace(|v| v + 1.0);
        assert_eq!(img.at(1, 1), 5.0);
        assert_eq!(img.at(0, 0), 1.0);
        assert_eq!(img.mean(), 2.0);
    }

    #[test]
    fn clamped_access_extends_borders() {
        let img = Image::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.at_clamped(-5, -5), 0.0);
        assert_eq!(img.at_clamped(10, 10), 3.0);
        assert_eq!(img.at_clamped(1, 0), 1.0);
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let img = Image::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.sample_bilinear(0.0, 0.0), 0.0);
        assert_eq!(img.sample_bilinear(1.0, 1.0), 3.0);
        assert!((img.sample_bilinear(0.5, 0.5) - 1.5).abs() < 1e-6);
        // Out of bounds clamps rather than panicking.
        assert_eq!(img.sample_bilinear(-3.0, -3.0), 0.0);
        assert_eq!(img.sample_bilinear(9.0, 9.0), 3.0);
    }

    /// The bilinear formula written out per sample: clamp, `floor`, four
    /// bounds-checked reads, each weighted term evaluated left to right.
    fn four_term_reference(img: &Image, x: f32, y: f32) -> f32 {
        let x = x.clamp(0.0, (img.width() - 1) as f32);
        let y = y.clamp(0.0, (img.height() - 1) as f32);
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(img.width() - 1);
        let y1 = (y0 + 1).min(img.height() - 1);
        let dx = x - x0 as f32;
        let dy = y - y0 as f32;
        img.at(x0, y0) * (1.0 - dx) * (1.0 - dy)
            + img.at(x1, y0) * dx * (1.0 - dy)
            + img.at(x0, y1) * (1.0 - dx) * dy
            + img.at(x1, y1) * dx * dy
    }

    /// Pixel values with a spread of magnitudes and signs, so a reordered
    /// sum or a premultiplied weight would round differently.
    fn irregular(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, y| {
            let k = (x * 7919 + y * 104_729) % 1013;
            (k as f32 - 506.0) * 0.013_7 + 1.0 / (1.0 + k as f32)
        })
    }

    fn assert_same_bits(img: &Image, x: f32, y: f32) {
        let got = img.sample_bilinear(x, y);
        let want = four_term_reference(img, x, y);
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{}x{} at ({x}, {y}): {got} vs {want}",
            img.width(),
            img.height()
        );
    }

    #[test]
    fn bilinear_matches_the_four_term_formula_bit_for_bit() {
        for (width, height) in [(9, 7), (1, 6), (6, 1), (1, 1)] {
            let img = irregular(width, height);
            let (w, h) = ((width - 1) as f32, (height - 1) as f32);
            let mut points = vec![
                // Interior and on-grid points.
                (0.25, 0.75),
                (w * 0.37, h * 0.61),
                (w * 0.5, h * 0.5),
                (1.0, 1.0),
                // The last column and row, and just inside them.
                (w, h),
                (w, h * 0.3),
                (w * 0.3, h),
                (w - 0.001, h - 0.001),
                // Signed zero.
                (-0.0, -0.0),
                (-0.0, h * 0.5),
                (w * 0.5, -0.0),
            ];
            // A sweep of irregular fractions, where a premultiplied or
            // reordered weight would round differently.
            for i in 0..64 {
                let t = i as f32;
                points.push((w * (t * 0.618_034).fract(), h * (t * 0.414_214).fract()));
            }
            // Beyond every edge and corner.
            for dx in [-3.5, -1e-7, 0.0, w + 1e-3, w + 7.25] {
                for dy in [-2.25, -1e-7, 0.0, h + 1e-3, h + 9.5] {
                    points.push((dx, dy));
                }
            }
            points.push((f32::NEG_INFINITY, f32::INFINITY));
            for (x, y) in points {
                assert_same_bits(&img, x, y);
            }
        }
    }

    #[test]
    fn bilinear_at_nan_is_nan_without_panicking() {
        for (width, height) in [(5, 4), (1, 4), (4, 1)] {
            let img = irregular(width, height);
            for (x, y) in [(f32::NAN, 1.5), (1.5, f32::NAN), (f32::NAN, f32::NAN)] {
                assert!(img.sample_bilinear(x, y).is_nan());
                assert_same_bits(&img, x, y);
            }
        }
    }

    #[test]
    fn mean_abs_diff_checks_dimensions() {
        let a = Image::filled(2, 2, 1.0);
        let b = Image::filled(2, 2, 2.0);
        assert_eq!(a.mean_abs_diff(&b).unwrap(), 1.0);
        let c = Image::zeros(3, 2);
        assert!(a.mean_abs_diff(&c).is_err());
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = Image::filled(8, 6, 3.0);
        let half = img.downsample2();
        assert_eq!(half.width(), 4);
        assert_eq!(half.height(), 3);
        assert!(half.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
        // Degenerate 1x1 image stays 1x1.
        let tiny = Image::filled(1, 1, 2.0);
        let d = tiny.downsample2();
        assert_eq!((d.width(), d.height()), (1, 1));
    }

    #[test]
    fn empty_image_is_safe() {
        let img = Image::default();
        assert!(img.is_empty());
        assert_eq!(img.mean(), 0.0);
        assert_eq!(img.at_clamped(3, 3), 0.0);
        assert_eq!(img.sample_bilinear(1.0, 1.0), 0.0);
    }

    #[test]
    fn error_display_messages() {
        let e = ImageError::DataLength {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("does not match"));
        assert!(ImageError::dimension_mismatch("a vs b")
            .to_string()
            .contains("a vs b"));
        assert!(ImageError::invalid_parameter("window")
            .to_string()
            .contains("window"));
    }

    #[test]
    fn rounding_helpers_match_f32_round() {
        let below = |v: f32| f32::from_bits(v.to_bits() - 1);
        let above = |v: f32| f32::from_bits(v.to_bits() + 1);
        for len in [0usize, 1, 2, 7, 640, 1 << 22, 1 << 23] {
            let edge = len as f32 - 0.5;
            let mut values = vec![
                0.0,
                -0.0,
                0.5,
                -0.5,
                0.49999997,
                -0.49999997,
                1.5,
                2.5,
                edge,
                below(edge),
                above(edge),
                len as f32,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1e30,
                -1e30,
            ];
            // 2^23 to 2^24: every f32 there is an integer.
            let mut v = 8_388_608.0f32;
            while v <= 16_777_216.0 {
                values.extend([below(v), v, above(v)]);
                v *= 1.25;
            }
            for v in values {
                assert_eq!(round_to_usize(v), v.round() as usize, "{v:e}");
                let reference = (0.0..len as f32)
                    .contains(&v.round())
                    .then(|| v.round() as usize);
                assert_eq!(round_index(v, len), reference, "{v:e} on {len}");
            }
        }
        assert_eq!(round_to_usize(f32::INFINITY), usize::MAX);
    }
}
