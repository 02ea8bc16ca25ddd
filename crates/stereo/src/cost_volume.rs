//! Per-pixel, per-disparity matching cost volumes.
//!
//! Both the classic matchers (block matching, SGM) and the DNN surrogate in
//! `asv-dnn` operate on a cost volume `C(x, y, d)`: the dissimilarity between
//! pixel `(x, y)` of the left image and pixel `(x - d, y)` of the right
//! image, aggregated over a square support window.

use crate::disparity::StereoError;
use crate::Result;
use asv_image::cost::BlockSpec;
use asv_image::Image;

/// A dense cost volume with disparities `0..=max_disparity`.
#[derive(Debug, Clone)]
pub struct CostVolume {
    width: usize,
    height: usize,
    max_disparity: usize,
    /// Row-major `[y][x][d]` costs flattened into one vector.
    costs: Vec<f32>,
    /// Per-band working planes of the separable fill, retained across fills
    /// so the steady state of a stream performs no allocation.
    scratch: Vec<f32>,
}

impl CostVolume {
    /// Builds a SAD cost volume from a rectified pair.
    ///
    /// # Errors
    ///
    /// Returns [`StereoError::DimensionMismatch`] when the images differ in
    /// size and [`StereoError::InvalidParameter`] when they are empty.
    pub fn from_pair(
        left: &Image,
        right: &Image,
        max_disparity: usize,
        block: BlockSpec,
    ) -> Result<Self> {
        let mut volume = Self::empty();
        volume.fill_from_pair(left, right, max_disparity, block)?;
        Ok(volume)
    }

    /// An empty volume (no storage); populate with
    /// [`CostVolume::fill_from_pair`].  Useful as a reusable per-stream
    /// workspace slot.
    pub fn empty() -> Self {
        Self {
            width: 0,
            height: 0,
            max_disparity: 0,
            costs: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Rebuilds the volume from a new pair in place, reusing the cost
    /// storage of the previous build when the total size matches (the
    /// steady state of a video stream).  Identical output to
    /// [`CostVolume::from_pair`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CostVolume::from_pair`].
    pub fn fill_from_pair(
        &mut self,
        left: &Image,
        right: &Image,
        max_disparity: usize,
        block: BlockSpec,
    ) -> Result<()> {
        if left.width() != right.width() || left.height() != right.height() {
            // lint: alloc-ok(error path)
            return Err(StereoError::dimension_mismatch(format!(
                "{}x{} vs {}x{}",
                left.width(),
                left.height(),
                right.width(),
                right.height()
            )));
        }
        if left.is_empty() {
            return Err(StereoError::invalid_parameter(
                "cannot build a cost volume from empty images",
            ));
        }
        self.width = left.width();
        self.height = left.height();
        self.max_disparity = max_disparity;
        let levels = max_disparity + 1;
        let cells = self.width * self.height * levels;
        // Every cell is overwritten by the fill, so stale contents need no
        // clearing; `resize` only touches cells beyond the previous size.
        if self.costs.len() != cells {
            self.costs.clear();
            self.costs.resize(cells, 0.0);
        }
        fill_costs_separable(
            left,
            right,
            levels,
            block,
            &mut self.costs,
            &mut self.scratch,
        );
        Ok(())
    }

    /// Volume width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Volume height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Largest disparity hypothesis stored.
    pub fn max_disparity(&self) -> usize {
        self.max_disparity
    }

    /// Number of disparity hypotheses (`max_disparity + 1`).
    pub fn num_disparities(&self) -> usize {
        self.max_disparity + 1
    }

    /// Total number of stored cost cells
    /// (`width * height * num_disparities`, 0 for an empty volume).
    pub fn num_cells(&self) -> usize {
        self.costs.len()
    }

    /// Cost of hypothesis `d` at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates or disparity are out of range.
    #[inline]
    pub fn cost(&self, x: usize, y: usize, d: usize) -> f32 {
        assert!(x < self.width && y < self.height && d <= self.max_disparity);
        self.costs[(y * self.width + x) * self.num_disparities() + d]
    }

    /// Mutable access to the cost of hypothesis `d` at pixel `(x, y)`.
    #[inline]
    pub fn cost_mut(&mut self, x: usize, y: usize, d: usize) -> &mut f32 {
        assert!(x < self.width && y < self.height && d <= self.max_disparity);
        let levels = self.num_disparities();
        &mut self.costs[(y * self.width + x) * levels + d]
    }

    /// Winner-take-all disparity at pixel `(x, y)` with optional parabolic
    /// sub-pixel interpolation around the minimum.
    pub fn winner_take_all(&self, x: usize, y: usize, subpixel: bool) -> f32 {
        let levels = self.num_disparities();
        let mut best_d = 0usize;
        let mut best_cost = f32::INFINITY;
        for d in 0..levels {
            let c = self.cost(x, y, d);
            if c < best_cost {
                best_cost = c;
                best_d = d;
            }
        }
        if !subpixel || best_d == 0 || best_d + 1 >= levels {
            return best_d as f32;
        }
        let c0 = self.cost(x, y, best_d - 1);
        let c1 = best_cost;
        let c2 = self.cost(x, y, best_d + 1);
        let denom = c0 - 2.0 * c1 + c2;
        if denom.abs() < 1e-9 {
            return best_d as f32;
        }
        let offset = 0.5 * (c0 - c2) / denom;
        best_d as f32 + offset.clamp(-0.5, 0.5)
    }
}

/// Disparity-block width of the separable fill: the number of disparity
/// hypotheses whose horizontal-sum planes are kept resident at once.  Large
/// enough that the final scatter writes contiguous runs of the `[y][x][d]`
/// volume, small enough that a block's planes stay cache-resident.
const D_BLOCK: usize = 8;

/// Data-parallel cost filling: the block SAD is separable, so for each
/// disparity the clamped per-pixel absolute differences are box-summed
/// horizontally and then vertically — `O(W·H·D·B)` instead of `O(W·H·D·B²)`,
/// with contiguous row accesses instead of per-tap border clamps. Bands of
/// output rows are independent and run on the rayon pool.
///
/// The loop nest is cache-blocked over [`D_BLOCK`] disparities: the vertical
/// window sums accumulate whole contiguous rows (auto-vectorizable, unlike a
/// per-pixel column walk) into per-disparity accumulator rows, and the final
/// transpose writes each pixel's `D_BLOCK` cost entries contiguously — the
/// disparity loop is innermost over contiguous memory on the store side.
/// Per-cell arithmetic and summation order are identical to the previous
/// per-disparity formulation, so the output is bit-identical.
///
/// The inner row kernels (clamped absolute differences, horizontal window
/// sums, vertical row accumulation) dispatch to the active SIMD tier; all
/// three preserve the scalar per-output summation order exactly.  Band
/// scratch lives in a caller-retained buffer zipped with the output bands, so
/// steady-state fills allocate nothing.
fn fill_costs_separable(
    left: &Image,
    right: &Image,
    levels: usize,
    block: BlockSpec,
    costs: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    use crate::simd;
    use rayon::prelude::*;

    let width = left.width();
    let height = left.height();
    let r = block.radius;
    let window = 2 * r + 1;
    let row_stride = width * levels;
    let level = simd::active_level();
    // A few bands per worker keeps the tail ragged-band imbalance small.
    let bands = (rayon::current_num_threads() * 4).clamp(1, height.max(1));
    let rows_per_band = height.div_ceil(bands);
    let n_bands = height.div_ceil(rows_per_band);
    // Per-band working set: D_BLOCK horizontal-sum planes (sized for the
    // largest band), D_BLOCK vertical accumulator rows, one difference row.
    let span_max = rows_per_band + 2 * r;
    let hsum_cells = D_BLOCK * span_max * width;
    let vacc_cells = D_BLOCK * width;
    let per_band = hsum_cells + vacc_cells + (width + 2 * r);
    if scratch.len() != n_bands * per_band {
        scratch.clear();
        scratch.resize(n_bands * per_band, 0.0);
    }
    let lpix = left.as_slice();
    let rpix = right.as_slice();

    costs
        .par_chunks_mut(rows_per_band * row_stride)
        .zip(scratch.par_chunks_mut(per_band))
        .enumerate()
        .for_each(|(band, (out, scratch))| {
            let y0 = band * rows_per_band;
            let band_rows = out.len() / row_stride;
            // For disparity j of the current block, hsum[j * span + i] holds
            // the horizontal window sums of source row clamp(y0 + i - r); the
            // vertical window of output row y0 + by is rows by .. by + window.
            let span = band_rows + 2 * r;
            let (hsum, rest) = scratch.split_at_mut(hsum_cells);
            let (vacc, diff) = rest.split_at_mut(vacc_cells);
            let mut d0 = 0;
            while d0 < levels {
                let db = D_BLOCK.min(levels - d0);
                for j in 0..db {
                    let d = d0 + j;
                    for (i, hrow) in hsum[j * span * width..][..span * width]
                        .chunks_mut(width)
                        .enumerate()
                    {
                        let v =
                            ((y0 + i) as isize - r as isize).clamp(0, height as isize - 1) as usize;
                        let lrow = &lpix[v * width..][..width];
                        let rrow = &rpix[v * width..][..width];
                        simd::abs_diff_row(level, lrow, rrow, d, r, diff);
                        simd::hwindow_sums(level, diff, window, hrow);
                    }
                }
                for by in 0..band_rows {
                    // Vertical box sums, one contiguous row at a time.
                    for j in 0..db {
                        let row_acc = &mut vacc[j * width..][..width];
                        row_acc.fill(0.0);
                        for vrow in
                            hsum[(j * span + by) * width..][..window * width].chunks_exact(width)
                        {
                            simd::add_assign_rows(level, row_acc, vrow);
                        }
                    }
                    // Transpose-scatter: each pixel's block of disparities is
                    // written contiguously.
                    let out_row = &mut out[by * row_stride..][..row_stride];
                    for x in 0..width {
                        for (j, slot) in out_row[x * levels + d0..][..db].iter_mut().enumerate() {
                            *slot = vacc[j * width + x];
                        }
                    }
                }
                d0 += D_BLOCK;
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_image::cost::block_sad;

    /// Reference cost filling: one [`block_sad`] call per `(x, y, d)` cell,
    /// `O(W·H·D·B²)` with two border clamps per tap; the differential-test
    /// oracle of [`fill_costs_separable`].
    fn fill_costs_naive(
        left: &Image,
        right: &Image,
        levels: usize,
        block: BlockSpec,
        costs: &mut [f32],
    ) {
        let width = left.width();
        let height = left.height();
        for y in 0..height {
            for x in 0..width {
                for d in 0..levels {
                    let cost = block_sad(
                        left,
                        right,
                        x as isize,
                        y as isize,
                        x as isize - d as isize,
                        y as isize,
                        block,
                    );
                    costs[(y * width + x) * levels + d] = cost;
                }
            }
        }
    }

    /// Left image with a constant-disparity shift of 4 between the pair.
    fn shifted_pair(width: usize, height: usize, disparity: usize) -> (Image, Image) {
        let right = Image::from_fn(width, height, |x, y| ((x * 7 + y * 3) % 23) as f32);
        let left = Image::from_fn(width, height, |x, y| {
            right.at_clamped(x as isize - disparity as isize, y as isize)
        });
        (left, right)
    }

    #[test]
    fn volume_dimensions() {
        let (l, r) = shifted_pair(20, 10, 4);
        let v = CostVolume::from_pair(&l, &r, 8, BlockSpec::new(1)).unwrap();
        assert_eq!(v.width(), 20);
        assert_eq!(v.height(), 10);
        assert_eq!(v.max_disparity(), 8);
        assert_eq!(v.num_disparities(), 9);
    }

    #[test]
    fn minimum_cost_is_at_true_disparity() {
        let (l, r) = shifted_pair(32, 16, 4);
        let v = CostVolume::from_pair(&l, &r, 8, BlockSpec::new(2)).unwrap();
        // Check interior pixels (away from the left border where the shift
        // clamps).
        for y in 4..12 {
            for x in 12..28 {
                let wta = v.winner_take_all(x, y, false);
                assert_eq!(wta, 4.0, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn cost_at_truth_is_zero() {
        let (l, r) = shifted_pair(32, 16, 5);
        let v = CostVolume::from_pair(&l, &r, 8, BlockSpec::new(1)).unwrap();
        assert!(v.cost(16, 8, 5) < 1e-6);
        assert!(v.cost(16, 8, 2) > 0.0);
    }

    #[test]
    fn subpixel_interpolation_stays_within_half_pixel() {
        let (l, r) = shifted_pair(32, 16, 4);
        let v = CostVolume::from_pair(&l, &r, 8, BlockSpec::new(2)).unwrap();
        let d = v.winner_take_all(16, 8, true);
        assert!((d - 4.0).abs() <= 0.5);
    }

    #[test]
    fn mismatched_pair_is_error() {
        let a = Image::zeros(8, 8);
        let b = Image::zeros(9, 8);
        assert!(CostVolume::from_pair(&a, &b, 4, BlockSpec::new(1)).is_err());
        assert!(
            CostVolume::from_pair(&Image::default(), &Image::default(), 4, BlockSpec::new(1))
                .is_err()
        );
    }

    /// The separable fill must agree with the per-cell reference on every
    /// shape class: wide/tall images, disparity ranges exceeding the width,
    /// and degenerate zero-radius blocks.
    #[test]
    fn separable_fill_matches_naive_reference() {
        for (w, h, max_d, r) in [(13, 7, 4, 1), (32, 16, 8, 2), (9, 11, 12, 3), (6, 4, 3, 0)] {
            let left = Image::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 23) as f32 * 0.21 - 1.3);
            let right = Image::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 19) as f32 * 0.17);
            let levels = max_d + 1;
            let block = BlockSpec::new(r);
            let mut naive = vec![0.0f32; w * h * levels];
            let mut fast = vec![0.0f32; w * h * levels];
            let mut scratch = Vec::new();
            fill_costs_naive(&left, &right, levels, block, &mut naive);
            fill_costs_separable(&left, &right, levels, block, &mut fast, &mut scratch);
            for (i, (a, b)) in naive.iter().zip(&fast).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                    "{w}x{h} d{max_d} r{r}: cell {i} naive {a} vs separable {b}"
                );
            }
        }
    }

    #[test]
    fn cost_mut_allows_in_place_aggregation() {
        let (l, r) = shifted_pair(8, 8, 2);
        let mut v = CostVolume::from_pair(&l, &r, 4, BlockSpec::new(1)).unwrap();
        *v.cost_mut(3, 3, 2) = 0.125;
        assert_eq!(v.cost(3, 3, 2), 0.125);
    }
}
