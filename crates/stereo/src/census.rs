//! Census transform and Hamming-distance matching costs.
//!
//! The census transform (Zabih & Woodfill) replaces each pixel by a bit
//! string recording, for every neighbour in its 7×7 window, whether that
//! neighbour is darker than the centre: 48 bits in one `u64`. Matching two
//! census descriptors is a Hamming distance — XOR plus popcount — which
//! turns the cost-volume fill into pure integer bitwise arithmetic and
//! shrinks the volume to one byte per cell (4× smaller than the f32 SAD
//! volume). This is the cost metric real-time stereo FPGA systems use and
//! the key-frame fast path behind [`crate::CostMetric::Census`].
//!
//! All kernels dispatch through [`crate::simd`] (scalar / SSE4.2 / AVX2) and
//! are bit-identical across tiers. Buffers are retained in place, so
//! same-sized frames re-use storage and the streaming steady state performs
//! no allocation.

use crate::simd::{self, SimdLevel};
use asv_image::Image;
use rayon::prelude::*;

/// Radius of the census window: a descriptor compares its pixel with the
/// other 48 pixels of the 7×7 window centred on it, one bit each, so it fits
/// a `u64`.
pub(crate) const WINDOW_RADIUS: usize = 3;

/// Side of the census window, and the number of source rows one output row
/// of the transform reads.
pub const WINDOW_SIDE: usize = 2 * WINDOW_RADIUS + 1;

/// Per-pixel census descriptors of one image, retained across refills so
/// the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct CensusDescriptors {
    width: usize,
    height: usize,
    words: Vec<u64>,
}

impl CensusDescriptors {
    /// An empty descriptor plane (no storage until the first fill).
    pub fn new() -> Self {
        Self::default()
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Bytes currently retained by the descriptor storage.
    pub fn retained_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Releases retained storage.
    pub fn trim(&mut self) {
        *self = Self::default();
    }

    /// Row `y` of descriptors.
    pub fn row(&self, y: usize) -> &[u64] {
        &self.words[y * self.width..][..self.width]
    }

    /// Computes the census transform of `img`, reusing storage when the size
    /// matches the previous fill.
    pub fn fill_from(&mut self, img: &Image, level: SimdLevel) {
        let width = img.width();
        let height = img.height();
        self.width = width;
        self.height = height;
        let cells = width * height;
        if self.words.len() != cells {
            self.words.clear();
            self.words.resize(cells, 0);
        }
        if cells == 0 {
            return;
        }
        let pixels = img.as_slice();
        // One output row at a time: gather the (row-clamped) source rows of
        // the window into a stack table, then run the row kernel.
        let fill_row = |y: usize, out: &mut [u64]| {
            let rows: [&[f32]; WINDOW_SIDE] = std::array::from_fn(|i| {
                let v = (y + i).saturating_sub(WINDOW_RADIUS).min(height - 1);
                &pixels[v * width..][..width]
            });
            simd::census_row_u64(level, &rows, out);
        };
        self.words
            .par_chunks_mut(width)
            .enumerate()
            .for_each(|(y, out)| fill_row(y, out));
    }
}

/// The view whose pixels index a [`CensusCostVolume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// `cost(x, y, d)` compares left pixel `x` with right pixel `x - d`,
    /// clamped to the first column: the volume of the left view's map.
    Left,
    /// `cost(x, y, d)` compares right pixel `x` with left pixel `x + d`,
    /// clamped to the last column: the volume of the right view's map,
    /// which the left-right check reads.
    Right,
}

/// A dense Hamming-distance cost volume over census descriptors, one byte
/// per `(x, y, d)` cell in the same `[y][x][d]` layout as
/// [`crate::cost_volume::CostVolume`].
#[derive(Debug, Default)]
pub struct CensusCostVolume {
    width: usize,
    height: usize,
    max_disparity: usize,
    costs: Vec<u8>,
}

impl CensusCostVolume {
    /// An empty volume (no storage until the first fill).
    pub fn new() -> Self {
        Self::default()
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

    /// Total number of stored cost cells.
    pub fn num_cells(&self) -> usize {
        self.costs.len()
    }

    /// Bytes currently retained by the cost storage.
    pub fn retained_bytes(&self) -> usize {
        self.costs.capacity()
    }

    /// Releases retained storage.
    pub fn trim(&mut self) {
        *self = Self::default();
    }

    /// A volume holding raw `costs` in the `[y][x][d]` layout, for tests
    /// that feed the aggregation arbitrary byte costs.
    ///
    /// # Panics
    ///
    /// Panics when `costs` does not have `width * height * (max_disparity +
    /// 1)` cells.
    #[cfg(test)]
    pub(crate) fn from_costs(
        width: usize,
        height: usize,
        max_disparity: usize,
        costs: Vec<u8>,
    ) -> Self {
        assert_eq!(costs.len(), width * height * (max_disparity + 1));
        Self {
            width,
            height,
            max_disparity,
            costs,
        }
    }

    /// Hamming cost of hypothesis `d` at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates or disparity are out of range.
    #[inline]
    pub fn cost(&self, x: usize, y: usize, d: usize) -> u8 {
        assert!(x < self.width && y < self.height && d <= self.max_disparity);
        self.costs[(y * self.width + x) * self.num_disparities() + d]
    }

    /// The `levels`-long cost span of pixel `(x, y)`.
    #[cfg(test)]
    pub(crate) fn span(&self, x: usize, y: usize) -> &[u8] {
        let levels = self.num_disparities();
        &self.costs[(y * self.width + x) * levels..][..levels]
    }

    /// Row `y`'s cost spans, one per pixel.
    #[inline]
    pub(crate) fn row(&self, y: usize) -> &[u8] {
        let stride = self.width * self.num_disparities();
        &self.costs[y * stride..][..stride]
    }

    /// Fills the volume of the `reference` view from a descriptor pair,
    /// reusing storage when sizes match.  Hypotheses that leave the image
    /// clamp to its border column, mirroring the SAD volume's convention.
    ///
    /// # Panics
    ///
    /// Panics when the descriptor planes differ in size.
    pub fn fill_from_descriptors(
        &mut self,
        left: &CensusDescriptors,
        right: &CensusDescriptors,
        max_disparity: usize,
        reference: Reference,
        level: SimdLevel,
    ) {
        assert_eq!(left.width(), right.width(), "descriptor width mismatch");
        assert_eq!(left.height(), right.height(), "descriptor height mismatch");
        let width = left.width();
        let height = left.height();
        self.width = width;
        self.height = height;
        self.max_disparity = max_disparity;
        let levels = max_disparity + 1;
        let cells = width * height * levels;
        if self.costs.len() != cells {
            self.costs.clear();
            self.costs.resize(cells, 0);
        }
        if cells == 0 {
            return;
        }
        let row_stride = width * levels;
        let fill_row = |y: usize, out: &mut [u8]| {
            simd::hamming_row_u64(level, reference, left.row(y), right.row(y), levels, out);
        };
        self.costs
            .par_chunks_mut(row_stride)
            .enumerate()
            .for_each(|(y, out)| fill_row(y, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_geometry() {
        // A bright centre over a dark background sets every comparison bit
        // of its descriptor: the 48 low bits, scanned row by row.
        let img = Image::from_fn(WINDOW_SIDE, WINDOW_SIDE, |x, y| {
            if (x, y) == (WINDOW_RADIUS, WINDOW_RADIUS) {
                1.0
            } else {
                0.0
            }
        });
        for &level in simd::available_levels() {
            let mut desc = CensusDescriptors::new();
            desc.fill_from(&img, level);
            let got = desc.row(WINDOW_RADIUS)[WINDOW_RADIUS];
            assert_eq!(got, (1u64 << 48) - 1, "level {}", level.name());
            assert_eq!(got.count_ones() as usize, WINDOW_SIDE * WINDOW_SIDE - 1);
        }
    }

    /// Every tier's descriptors against the comparisons written out, over
    /// sizes that cover the 3-px borders, the AVX2 tier's 8-pixel body and
    /// its tail, and the row clamping of short images.
    #[test]
    fn descriptor_bits_match_direct_comparison() {
        let r = WINDOW_RADIUS as isize;
        for width in 1..=24usize {
            for height in 1..=8usize {
                let img = Image::from_fn(width, height, |x, y| {
                    ((x * 5 + y * 3 + width) % 13) as f32 - 6.0
                });
                for &level in simd::available_levels() {
                    let mut desc = CensusDescriptors::new();
                    desc.fill_from(&img, level);
                    for y in 0..height {
                        for x in 0..width {
                            let center = img.at(x, y);
                            let mut expect = 0u64;
                            let mut k = 0;
                            for dy in -r..=r {
                                for dx in -r..=r {
                                    if dx == 0 && dy == 0 {
                                        continue;
                                    }
                                    let v = img.at_clamped(x as isize + dx, y as isize + dy);
                                    if v < center {
                                        expect |= 1 << k;
                                    }
                                    k += 1;
                                }
                            }
                            assert_eq!(
                                desc.row(y)[x],
                                expect,
                                "{width}x{height} pixel ({x},{y}) level {}",
                                level.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn identical_images_have_zero_hamming_cost_at_zero_disparity() {
        let img = Image::from_fn(16, 8, |x, y| ((x * 7 + y * 11) % 17) as f32);
        let mut dl = CensusDescriptors::new();
        let mut dr = CensusDescriptors::new();
        dl.fill_from(&img, SimdLevel::Scalar);
        dr.fill_from(&img, SimdLevel::Scalar);
        let mut vol = CensusCostVolume::new();
        vol.fill_from_descriptors(&dl, &dr, 4, Reference::Left, SimdLevel::Scalar);
        for y in 0..8 {
            for x in 0..16 {
                assert_eq!(vol.cost(x, y, 0), 0, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn shifted_pair_minimizes_cost_at_true_disparity() {
        let truth = 3usize;
        let right = Image::from_fn(32, 12, |x, y| ((x * 13 + y * 7) % 23) as f32);
        let left = Image::from_fn(32, 12, |x, y| {
            right.at_clamped(x as isize - truth as isize, y as isize)
        });
        let mut dl = CensusDescriptors::new();
        let mut dr = CensusDescriptors::new();
        dl.fill_from(&left, SimdLevel::Scalar);
        dr.fill_from(&right, SimdLevel::Scalar);
        let mut vol = CensusCostVolume::new();
        vol.fill_from_descriptors(&dl, &dr, 8, Reference::Left, SimdLevel::Scalar);
        // Interior pixels away from borders and the clamp zone.
        for y in 4..8 {
            for x in 12..28 {
                let best = (0..vol.num_disparities())
                    .min_by_key(|&d| vol.cost(x, y, d))
                    .unwrap();
                assert_eq!(best, truth, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn refill_reuses_storage() {
        let img_a = Image::from_fn(12, 6, |x, y| (x + y) as f32);
        let img_b = Image::from_fn(12, 6, |x, y| (x * 2 + y) as f32);
        let mut desc = CensusDescriptors::new();
        desc.fill_from(&img_a, SimdLevel::Scalar);
        let ptr = desc.words.as_ptr();
        desc.fill_from(&img_b, SimdLevel::Scalar);
        assert_eq!(desc.words.as_ptr(), ptr, "storage must be reused");
    }
}
