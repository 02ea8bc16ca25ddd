//! Disparity maps and stereo accuracy metrics.

use asv_image::Image;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error type for stereo matching operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StereoError {
    /// The left and right images (or a map pair) differ in size.
    DimensionMismatch {
        /// Human readable description.
        context: String,
    },
    /// A matching parameter is invalid.
    InvalidParameter {
        /// Human readable description.
        context: String,
    },
}

impl fmt::Display for StereoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StereoError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            StereoError::InvalidParameter { context } => write!(f, "invalid parameter: {context}"),
        }
    }
}

impl Error for StereoError {}

impl StereoError {
    /// Builds a [`StereoError::DimensionMismatch`] from anything displayable.
    pub fn dimension_mismatch(context: impl fmt::Display) -> Self {
        StereoError::DimensionMismatch {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }

    /// Builds a [`StereoError::InvalidParameter`] from anything displayable.
    pub fn invalid_parameter(context: impl fmt::Display) -> Self {
        StereoError::InvalidParameter {
            context: context.to_string(), // lint: alloc-ok(error path)
        }
    }
}

/// Per-pixel disparity of a rectified stereo pair, registered to the left
/// (reference) image as in Fig. 2b of the paper: pixel `(x, y)` in the left
/// image corresponds to pixel `(x - d, y)` in the right image, where `d` is
/// the stored disparity.
///
/// Invalid pixels (occlusions, failed matches) are stored as negative values
/// and excluded from the accuracy metrics; a NaN counts as invalid too.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct DisparityMap {
    values: Image,
}

impl Clone for DisparityMap {
    fn clone(&self) -> Self {
        Self {
            values: self.values.clone(), // lint: alloc-ok(deep copy by Clone contract; hot path uses clone_from)
        }
    }

    /// Copies `source` reusing the existing buffer (see
    /// [`Image::clone_from`]).
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

/// Marker value for pixels with no valid disparity.
pub const INVALID_DISPARITY: f32 = -1.0;

/// Default correctness threshold of the "three-pixel error" metric used by
/// KITTI and by the paper's accuracy evaluation (Sec. 6.1).
pub const THREE_PIXEL_THRESHOLD: f32 = 3.0;

impl DisparityMap {
    /// Creates a map with every pixel marked invalid.
    pub fn invalid(width: usize, height: usize) -> Self {
        Self {
            values: Image::filled(width, height, INVALID_DISPARITY),
        }
    }

    /// Creates a map filled with a constant disparity.
    pub fn constant(width: usize, height: usize, disparity: f32) -> Self {
        Self {
            values: Image::filled(width, height, disparity),
        }
    }

    /// Creates a map from a raw image of disparities (negative values are
    /// treated as invalid).
    pub fn from_image(values: Image) -> Self {
        Self { values }
    }

    /// Creates a map by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, f: impl FnMut(usize, usize) -> f32) -> Self {
        Self {
            values: Image::from_fn(width, height, f),
        }
    }

    /// Re-shapes the map to `width x height` with every pixel marked
    /// invalid, reusing the existing buffer when its capacity suffices.
    /// Equivalent to `*self = DisparityMap::invalid(width, height)` without
    /// the allocation.
    pub fn reset_invalid(&mut self, width: usize, height: usize) {
        self.values.reset(width, height, INVALID_DISPARITY);
    }

    /// Re-shapes the map leaving its contents *unspecified* (see
    /// [`Image::reshape_scratch`]); for kernels that assign every pixel.
    pub fn reshape_scratch(&mut self, width: usize, height: usize) {
        self.values.reshape_scratch(width, height);
    }

    /// Mutable access to the underlying image of disparity values (negative
    /// values are the invalid marker), for kernels that fill a map row by
    /// row.
    pub fn as_image_mut(&mut self) -> &mut Image {
        &mut self.values
    }

    /// Consumes the map and returns the underlying image.
    pub fn into_image(self) -> Image {
        self.values
    }

    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.values.width()
    }

    /// Map height in pixels.
    pub fn height(&self) -> usize {
        self.values.height()
    }

    /// The underlying image of disparity values.
    pub fn as_image(&self) -> &Image {
        &self.values
    }

    /// Disparity at `(x, y)`, or `None` if the pixel is invalid.  A pixel is
    /// valid when its value is `>= 0.0`, the rule [`DisparityMap::valid_count`]
    /// applies too, so a NaN is invalid everywhere.
    pub fn get(&self, x: usize, y: usize) -> Option<f32> {
        let v = self.values.at(x, y);
        (v >= 0.0).then_some(v)
    }

    /// Raw stored value at `(x, y)` including the invalid marker.
    pub fn raw(&self, x: usize, y: usize) -> f32 {
        self.values.at(x, y)
    }

    /// Sets the disparity at `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, disparity: f32) {
        self.values.set(x, y, disparity);
    }

    /// Marks the pixel at `(x, y)` invalid.
    pub fn invalidate(&mut self, x: usize, y: usize) {
        self.values.set(x, y, INVALID_DISPARITY);
    }

    /// Number of valid pixels.
    pub fn valid_count(&self) -> usize {
        self.values.as_slice().iter().filter(|&&v| v >= 0.0).count()
    }

    /// Fraction of pixels that are valid.
    pub fn valid_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.valid_count() as f64 / self.values.len() as f64
    }

    /// Fraction of valid pixels whose disparity differs from the ground truth
    /// by more than `threshold` pixels — the paper's error-rate metric.
    ///
    /// Pixels invalid in either map are ignored.  Returns 0 when no pixels
    /// are comparable.
    ///
    /// # Errors
    ///
    /// Returns [`StereoError::DimensionMismatch`] when the maps differ in
    /// size.
    pub fn error_rate(&self, truth: &DisparityMap, threshold: f32) -> crate::Result<f64> {
        if self.width() != truth.width() || self.height() != truth.height() {
            return Err(StereoError::dimension_mismatch(format!(
                "{}x{} vs {}x{}",
                self.width(),
                self.height(),
                truth.width(),
                truth.height()
            )));
        }
        let mut bad = 0usize;
        let mut total = 0usize;
        for y in 0..self.height() {
            for x in 0..self.width() {
                let (Some(est), Some(gt)) = (self.get(x, y), truth.get(x, y)) else {
                    continue;
                };
                total += 1;
                if (est - gt).abs() > threshold {
                    bad += 1;
                }
            }
        }
        if total == 0 {
            return Ok(0.0);
        }
        Ok(bad as f64 / total as f64)
    }

    /// Three-pixel error rate (the standard metric of the paper, Sec. 6.1).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`DisparityMap::error_rate`].
    pub fn three_pixel_error(&self, truth: &DisparityMap) -> crate::Result<f64> {
        self.error_rate(truth, THREE_PIXEL_THRESHOLD)
    }

    /// Mean absolute disparity error over pixels valid in both maps.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`DisparityMap::error_rate`].
    pub fn mean_abs_error(&self, truth: &DisparityMap) -> crate::Result<f64> {
        if self.width() != truth.width() || self.height() != truth.height() {
            return Err(StereoError::dimension_mismatch(format!(
                "{}x{} vs {}x{}",
                self.width(),
                self.height(),
                truth.width(),
                truth.height()
            )));
        }
        let mut total = 0.0f64;
        let mut count = 0usize;
        for y in 0..self.height() {
            for x in 0..self.width() {
                let (Some(est), Some(gt)) = (self.get(x, y), truth.get(x, y)) else {
                    continue;
                };
                total += (est - gt).abs() as f64;
                count += 1;
            }
        }
        if count == 0 {
            return Ok(0.0);
        }
        Ok(total / count as f64)
    }

    /// Fills invalid pixels from the nearest valid pixel to the left, then to
    /// the right (the classic background-fill used after left-right checks).
    ///
    /// One walk per row over the raw values (rows in parallel on the rayon
    /// pool): a row's leading invalid run takes its first valid value, every
    /// later invalid pixel the last valid value before it, and a row without
    /// a valid pixel stays as it is.
    pub fn fill_invalid_horizontally(&mut self) {
        let width = self.width();
        if width == 0 {
            return;
        }
        let fill_row = |row: &mut [f32]| {
            let mut last_valid = None;
            for x in 0..row.len() {
                let v = row[x];
                if v >= 0.0 {
                    if last_valid.is_none() {
                        row[..x].fill(v);
                    }
                    last_valid = Some(v);
                } else if let Some(fill) = last_valid {
                    row[x] = fill;
                }
            }
        };
        let values = self.values.as_mut_slice();
        values.par_chunks_mut(width).for_each(fill_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_validity() {
        let m = DisparityMap::invalid(4, 3);
        assert_eq!(m.width(), 4);
        assert_eq!(m.height(), 3);
        assert_eq!(m.valid_count(), 0);
        assert_eq!(m.valid_fraction(), 0.0);
        let c = DisparityMap::constant(4, 3, 2.0);
        assert_eq!(c.valid_count(), 12);
        assert_eq!(c.get(0, 0), Some(2.0));
    }

    #[test]
    fn set_get_invalidate() {
        let mut m = DisparityMap::invalid(2, 2);
        m.set(1, 1, 5.0);
        assert_eq!(m.get(1, 1), Some(5.0));
        m.invalidate(1, 1);
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.raw(1, 1), INVALID_DISPARITY);
    }

    #[test]
    fn nan_disparity_is_invalid_everywhere() {
        let mut est = DisparityMap::constant(4, 1, 10.0);
        est.set(0, 0, f32::NAN);
        est.set(1, 0, 20.0);
        assert_eq!(est.get(0, 0), None);
        assert_eq!(est.valid_count(), 3);
        // The NaN pixel is skipped, not counted as a correct match: one of
        // the three comparable pixels is wrong.
        let truth = DisparityMap::constant(4, 1, 10.0);
        let rate = est.three_pixel_error(&truth).unwrap();
        assert!((rate - 1.0 / 3.0).abs() < 1e-9, "{rate}");
        let mae = est.mean_abs_error(&truth).unwrap();
        assert!((mae - 10.0 / 3.0).abs() < 1e-9, "{mae}");
        // Refinement treats a NaN initial disparity as missing and falls back
        // to the full-range search, as for the invalid marker.
        let right = Image::from_fn(24, 12, |x, y| ((x * 7 + y * 13) % 11) as f32);
        let left = Image::from_fn(24, 12, |x, y| right.at_clamped(x as isize - 3, y as isize));
        let params = crate::BlockMatchParams {
            max_disparity: 8,
            refine_radius: 1,
            ..Default::default()
        };
        let refine = |initial: &DisparityMap| {
            crate::refine_with_initial(&left, &right, initial, &params).unwrap()
        };
        assert_eq!(
            refine(&DisparityMap::constant(24, 12, f32::NAN)),
            refine(&DisparityMap::invalid(24, 12))
        );
    }

    #[test]
    fn error_rate_counts_only_large_errors() {
        let truth = DisparityMap::constant(10, 10, 10.0);
        let mut est = DisparityMap::constant(10, 10, 10.0);
        // 5 pixels off by 5 (bad), 5 pixels off by 1 (fine).
        for x in 0..5 {
            est.set(x, 0, 15.0);
        }
        for x in 5..10 {
            est.set(x, 0, 11.0);
        }
        let rate = est.three_pixel_error(&truth).unwrap();
        assert!((rate - 0.05).abs() < 1e-9);
    }

    #[test]
    fn invalid_pixels_are_excluded_from_metrics() {
        let mut truth = DisparityMap::constant(4, 1, 10.0);
        truth.invalidate(0, 0);
        let mut est = DisparityMap::constant(4, 1, 10.0);
        est.set(0, 0, 100.0); // would be wrong but truth is invalid there
        est.invalidate(1, 0); // estimate invalid: also excluded
        est.set(2, 0, 20.0); // wrong
        let rate = est.three_pixel_error(&truth).unwrap();
        assert!((rate - 0.5).abs() < 1e-9); // 1 wrong of 2 comparable
        assert!((est.mean_abs_error(&truth).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_validate_dimensions() {
        let a = DisparityMap::constant(4, 4, 1.0);
        let b = DisparityMap::constant(5, 4, 1.0);
        assert!(a.three_pixel_error(&b).is_err());
        assert!(a.mean_abs_error(&b).is_err());
    }

    #[test]
    fn empty_comparison_yields_zero() {
        let a = DisparityMap::invalid(4, 4);
        let b = DisparityMap::invalid(4, 4);
        assert_eq!(a.three_pixel_error(&b).unwrap(), 0.0);
        assert_eq!(a.mean_abs_error(&b).unwrap(), 0.0);
    }

    /// Reference fill: per row, one walk from the left and one from the
    /// right, through `get` and `set`.
    fn fill_invalid_horizontally_reference(map: &mut DisparityMap) {
        for y in 0..map.height() {
            let mut last_valid: Option<f32> = None;
            for x in 0..map.width() {
                match map.get(x, y) {
                    Some(v) => last_valid = Some(v),
                    None => {
                        if let Some(v) = last_valid {
                            map.set(x, y, v);
                        }
                    }
                }
            }
            let mut last_valid: Option<f32> = None;
            for x in (0..map.width()).rev() {
                match map.get(x, y) {
                    Some(v) => last_valid = Some(v),
                    None => {
                        if let Some(v) = last_valid {
                            map.set(x, y, v);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn horizontal_fill_matches_the_two_walk_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (width, height) in [(1, 1), (1, 9), (2, 3), (7, 5), (33, 8), (64, 3)] {
            for density in [0, 1, 3, 8] {
                let mut map = DisparityMap::from_fn(width, height, |_, y| {
                    // Every third row is all invalid; otherwise one value in
                    // `density + 1` is valid.
                    let r = next();
                    if y % 3 == 2 || r % (density + 1) != 0 {
                        [INVALID_DISPARITY, f32::NAN, -7.5][(r >> 8) as usize % 3]
                    } else {
                        ((r >> 16) % 640) as f32 * 0.25
                    }
                });
                let mut expected = map.clone();
                fill_invalid_horizontally_reference(&mut expected);
                map.fill_invalid_horizontally();
                let bits = |m: &DisparityMap| -> Vec<u32> {
                    m.as_image()
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(
                    bits(&map),
                    bits(&expected),
                    "{width}x{height} density {density}"
                );
            }
        }
    }

    #[test]
    fn horizontal_fill_propagates_nearest_valid() {
        let mut m = DisparityMap::invalid(5, 1);
        m.set(2, 0, 7.0);
        m.fill_invalid_horizontally();
        for x in 0..5 {
            assert_eq!(m.get(x, 0), Some(7.0));
        }
    }

    #[test]
    fn error_display() {
        assert!(StereoError::dimension_mismatch("x")
            .to_string()
            .contains('x'));
        assert!(StereoError::invalid_parameter("y")
            .to_string()
            .contains('y'));
    }
}
