//! Dense displacement fields and their quality metrics.

use asv_image::{Bilinear, BilinearAxis, Image};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error type for flow estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The two input frames do not have the same dimensions.
    FrameMismatch {
        /// Human readable description.
        context: String,
    },
    /// An algorithm parameter is invalid (zero window, empty image, ...).
    InvalidParameter {
        /// Human readable description.
        context: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::FrameMismatch { context } => write!(f, "frame mismatch: {context}"),
            FlowError::InvalidParameter { context } => write!(f, "invalid parameter: {context}"),
        }
    }
}

impl Error for FlowError {}

impl FlowError {
    /// Builds a [`FlowError::FrameMismatch`] from anything displayable.
    pub fn frame_mismatch(context: impl fmt::Display) -> Self {
        FlowError::FrameMismatch {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }

    /// Builds a [`FlowError::InvalidParameter`] from anything displayable.
    pub fn invalid_parameter(context: impl fmt::Display) -> Self {
        FlowError::InvalidParameter {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }
}

/// A dense per-pixel displacement field.
///
/// `u` holds the horizontal and `v` the vertical displacement of each pixel
/// from the first frame to the second frame (i.e. a pixel at `(x, y)` in
/// frame `t` appears at `(x + u, y + v)` in frame `t + 1`).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowField {
    u: Image,
    v: Image,
}

impl Clone for FlowField {
    fn clone(&self) -> Self {
        Self {
            u: self.u.clone(), // lint: alloc-ok(deep copy by Clone contract; hot path uses clone_from)
            v: self.v.clone(), // lint: alloc-ok(deep copy by Clone contract; hot path uses clone_from)
        }
    }

    /// Copies `source` reusing both component buffers (see
    /// [`Image::clone_from`]).
    fn clone_from(&mut self, source: &Self) {
        self.u.clone_from(&source.u);
        self.v.clone_from(&source.v);
    }
}

impl FlowField {
    /// Creates an all-zero flow field.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            u: Image::zeros(width, height),
            v: Image::zeros(width, height),
        }
    }

    /// Re-shapes the field to `width x height` with both components zeroed,
    /// reusing the existing buffers when their capacity suffices.
    pub fn reset_zeros(&mut self, width: usize, height: usize) {
        self.u.reset(width, height, 0.0);
        self.v.reset(width, height, 0.0);
    }

    /// Re-shapes the field leaving its contents *unspecified* (see
    /// [`Image::reshape_scratch`]); for kernels that assign every pixel.
    pub fn reshape_scratch(&mut self, width: usize, height: usize) {
        self.u.reshape_scratch(width, height);
        self.v.reshape_scratch(width, height);
    }

    /// Creates a flow field from its two component images.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::FrameMismatch`] when the components differ in
    /// size.
    pub fn from_components(u: Image, v: Image) -> crate::Result<Self> {
        if u.width() != v.width() || u.height() != v.height() {
            return Err(FlowError::frame_mismatch(format!(
                "u {}x{} vs v {}x{}",
                u.width(),
                u.height(),
                v.width(),
                v.height()
            )));
        }
        Ok(Self { u, v })
    }

    /// Creates a constant (translational) flow field.
    pub fn constant(width: usize, height: usize, u: f32, v: f32) -> Self {
        Self {
            u: Image::filled(width, height, u),
            v: Image::filled(width, height, v),
        }
    }

    /// Field width in pixels.
    pub fn width(&self) -> usize {
        self.u.width()
    }

    /// Field height in pixels.
    pub fn height(&self) -> usize {
        self.u.height()
    }

    /// Horizontal component image.
    pub fn u(&self) -> &Image {
        &self.u
    }

    /// Vertical component image.
    pub fn v(&self) -> &Image {
        &self.v
    }

    /// Mutable horizontal component image.
    pub fn u_mut(&mut self) -> &mut Image {
        &mut self.u
    }

    /// Mutable vertical component image.
    pub fn v_mut(&mut self) -> &mut Image {
        &mut self.v
    }

    /// Displacement at pixel `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> (f32, f32) {
        (self.u.at(x, y), self.v.at(x, y))
    }

    /// Sets the displacement at pixel `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, u: f32, v: f32) {
        self.u.set(x, y, u);
        self.v.set(x, y, v);
    }

    /// The row-major pixel buffers of both components, mutable at once, for
    /// kernels that write `u` and `v` in the same pass.
    pub(crate) fn components_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.u.as_mut_slice(), self.v.as_mut_slice())
    }

    /// Bilinearly sampled displacement at a real-valued coordinate, with
    /// border clamping; one [`Bilinear`] footprint serves both components.
    /// `(0, 0)` for an empty field.
    pub fn sample(&self, x: f32, y: f32) -> (f32, f32) {
        if self.u.is_empty() {
            return (0.0, 0.0);
        }
        let footprint = Bilinear::new(self.width(), self.height(), x, y);
        (
            footprint.sample(self.u.as_slice()),
            footprint.sample(self.v.as_slice()),
        )
    }

    /// Average end-point error against a ground-truth field of the same size.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::FrameMismatch`] when the fields differ in size.
    pub fn average_endpoint_error(&self, truth: &FlowField) -> crate::Result<f32> {
        if self.width() != truth.width() || self.height() != truth.height() {
            return Err(FlowError::frame_mismatch(format!(
                "{}x{} vs {}x{}",
                self.width(),
                self.height(),
                truth.width(),
                truth.height()
            )));
        }
        let n = self.width() * self.height();
        if n == 0 {
            return Ok(0.0);
        }
        let mut total = 0.0f64;
        for y in 0..self.height() {
            for x in 0..self.width() {
                let (u1, v1) = self.at(x, y);
                let (u2, v2) = truth.at(x, y);
                total += (((u1 - u2).powi(2) + (v1 - v2).powi(2)) as f64).sqrt();
            }
        }
        Ok((total / n as f64) as f32)
    }

    /// Median of the horizontal component (robust summary used in tests).
    pub fn median_u(&self) -> f32 {
        let mut scratch = Vec::new();
        self.median_u_with(&mut scratch)
    }

    /// Median of the vertical component.
    pub fn median_v(&self) -> f32 {
        let mut scratch = Vec::new();
        self.median_v_with(&mut scratch)
    }

    /// [`FlowField::median_u`] reusing a caller-owned selection buffer
    /// (allocation-free once the buffer is warm — the adaptive key-frame
    /// policy evaluates this every frame).
    pub fn median_u_with(&self, scratch: &mut Vec<f32>) -> f32 {
        median(self.u.as_slice(), scratch)
    }

    /// [`FlowField::median_v`] reusing a caller-owned selection buffer.
    pub fn median_v_with(&self, scratch: &mut Vec<f32>) -> f32 {
        median(self.v.as_slice(), scratch)
    }

    /// Scales both components (used when up-sampling between pyramid levels).
    pub fn scale(&self, factor: f32) -> FlowField {
        FlowField {
            u: Image::from_fn(self.width(), self.height(), |x, y| self.u.at(x, y) * factor),
            v: Image::from_fn(self.width(), self.height(), |x, y| self.v.at(x, y) * factor),
        }
    }

    /// Resamples the field to a new resolution, scaling the displacement
    /// magnitudes by the resolution ratio.
    pub fn resample(&self, new_width: usize, new_height: usize) -> FlowField {
        let mut out = FlowField::zeros(0, 0);
        self.resample_into(new_width, new_height, &mut out);
        out
    }

    /// [`FlowField::resample`] writing into a reusable output field (which
    /// must be a different object than `self`).
    pub fn resample_into(&self, new_width: usize, new_height: usize, out: &mut FlowField) {
        if self.width() == 0 || self.height() == 0 || new_width == 0 || new_height == 0 {
            out.reset_zeros(new_width, new_height);
            return;
        }
        let (width, height) = (self.width(), self.height());
        let sx = new_width as f32 / width as f32;
        let sy = new_height as f32 / height as f32;
        let (u, v) = (self.u.as_slice(), self.v.as_slice());
        // Every pixel is assigned below, so the planes need no fill.
        out.reshape_scratch(new_width, new_height);
        let (out_u, out_v) = out.components_mut();
        // Pixel (x, y) samples at (x / sx, y / sy): its footprint is that of
        // its column combined with that of its row, each computed once per
        // strip of columns.
        const STRIP: usize = 128;
        let mut columns = [BilinearAxis::default(); STRIP];
        for x0 in (0..new_width).step_by(STRIP) {
            let columns = &mut columns[..STRIP.min(new_width - x0)];
            for (x, column) in (x0..).zip(columns.iter_mut()) {
                *column = BilinearAxis::new(width, x as f32 / sx);
            }
            for y in 0..new_height {
                let row = BilinearAxis::new(height, y as f32 / sy);
                let start = y * new_width + x0;
                let out_u = &mut out_u[start..][..columns.len()];
                let out_v = &mut out_v[start..][..columns.len()];
                for ((column, u_out), v_out) in columns.iter().zip(out_u).zip(out_v) {
                    let footprint = Bilinear::from_axes(width, *column, row);
                    *u_out = footprint.sample(u) * sx;
                    *v_out = footprint.sample(v) * sy;
                }
            }
        }
    }
}

/// Median by `select_nth_unstable` — O(n) instead of the O(n log n) full
/// sort, which matters because the adaptive key-frame policy evaluates it on
/// every frame.  The selected order statistic is identical to
/// `sorted[len / 2]` under the same comparator.  The selection mutates a
/// copy of the values held in the caller's reusable `scratch` buffer.
fn median(values: &[f32], scratch: &mut Vec<f32>) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    scratch.clear();
    scratch.extend_from_slice(values);
    let mid = scratch.len() / 2;
    let (_, nth, _) = scratch.select_nth_unstable_by(mid, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    *nth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let f = FlowField::constant(4, 3, 1.0, -2.0);
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.at(2, 1), (1.0, -2.0));
        assert_eq!(f.median_u(), 1.0);
        assert_eq!(f.median_v(), -2.0);
    }

    #[test]
    fn from_components_validates_sizes() {
        let u = Image::zeros(4, 4);
        let v = Image::zeros(4, 3);
        assert!(FlowField::from_components(u.clone(), v).is_err());
        assert!(FlowField::from_components(u.clone(), u).is_ok());
    }

    #[test]
    fn set_and_sample() {
        let mut f = FlowField::zeros(4, 4);
        f.set(2, 2, 3.0, 4.0);
        assert_eq!(f.at(2, 2), (3.0, 4.0));
        let (u, v) = f.sample(2.0, 2.0);
        assert_eq!((u, v), (3.0, 4.0));
    }

    #[test]
    fn endpoint_error_of_identical_fields_is_zero() {
        let f = FlowField::constant(8, 8, 0.5, -0.5);
        assert_eq!(f.average_endpoint_error(&f).unwrap(), 0.0);
        let g = FlowField::constant(8, 8, 3.5, 3.5);
        let err = f.average_endpoint_error(&g).unwrap();
        assert!((err - 5.0).abs() < 1e-5); // 3-4-5 triangle
        assert!(f.average_endpoint_error(&FlowField::zeros(4, 4)).is_err());
    }

    #[test]
    fn scale_multiplies_components() {
        let f = FlowField::constant(4, 4, 1.0, 2.0);
        let g = f.scale(2.0);
        assert_eq!(g.at(0, 0), (2.0, 4.0));
    }

    #[test]
    fn resample_scales_displacements_with_resolution() {
        let f = FlowField::constant(8, 8, 1.0, 1.0);
        let g = f.resample(16, 16);
        assert_eq!(g.width(), 16);
        assert_eq!(g.at(8, 8), (2.0, 2.0));
        let empty = FlowField::zeros(0, 0).resample(4, 4);
        assert_eq!(empty.at(0, 0), (0.0, 0.0));
    }

    /// The per-pixel bilinear formula, spelled out: clamp, truncate,
    /// interpolate left to right, scale.
    fn resample_per_pixel(f: &FlowField, new_width: usize, new_height: usize) -> Vec<u32> {
        let (w, h) = (f.width(), f.height());
        let (sx, sy) = (new_width as f32 / w as f32, new_height as f32 / h as f32);
        let sample = |plane: &Image, x: f32, y: f32| {
            let x = x.clamp(0.0, (w - 1) as f32);
            let y = y.clamp(0.0, (h - 1) as f32);
            let (x0, y0) = (x as usize, y as usize);
            let (x1, y1) = ((x0 + 1).min(w - 1), (y0 + 1).min(h - 1));
            let (dx, dy) = (x - x0 as f32, y - y0 as f32);
            plane.at(x0, y0) * (1.0 - dx) * (1.0 - dy)
                + plane.at(x1, y0) * dx * (1.0 - dy)
                + plane.at(x0, y1) * (1.0 - dx) * dy
                + plane.at(x1, y1) * dx * dy
        };
        let mut bits = Vec::new();
        for (plane, scale) in [(f.u(), sx), (f.v(), sy)] {
            for y in 0..new_height {
                for x in 0..new_width {
                    let value = sample(plane, x as f32 / sx, y as f32 / sy) * scale;
                    bits.push(value.to_bits());
                }
            }
        }
        bits
    }

    /// The strip-wise resample against the per-pixel formula, bit for bit:
    /// up- and downsampling at non-integer scales, fields 1 px wide or high,
    /// and output wider than one strip of columns.
    #[test]
    fn resample_matches_the_per_pixel_formula() {
        let sizes = [
            ((71, 53), (35, 26)),
            ((35, 26), (71, 53)),
            ((1, 9), (5, 17)),
            ((6, 1), (1, 4)),
            ((1, 1), (3, 2)),
            ((160, 90), (320, 180)),
            ((97, 3), (301, 7)),
        ];
        for ((w, h), (new_w, new_h)) in sizes {
            let mut f = FlowField::zeros(w, h);
            for y in 0..h {
                for x in 0..w {
                    let t = (x * 31 + y * 17) as f32;
                    f.set(x, y, (t * 0.37).sin() * 3.0, (t * 0.11).cos() - 0.5);
                }
            }
            let mut out = FlowField::zeros(0, 0);
            f.resample_into(new_w, new_h, &mut out);
            let got: Vec<u32> = [out.u(), out.v()]
                .iter()
                .flat_map(|plane| plane.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            assert_eq!(
                got,
                resample_per_pixel(&f, new_w, new_h),
                "{w}x{h} -> {new_w}x{new_h}"
            );
        }
    }

    #[test]
    fn median_of_empty_field() {
        let f = FlowField::zeros(0, 0);
        assert_eq!(f.median_u(), 0.0);
    }
}
