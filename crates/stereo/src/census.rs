//! Census transform and Hamming-distance matching costs.
//!
//! The census transform (Zabih & Woodfill) replaces each pixel by a bit
//! string recording, for every neighbour in a small window, whether that
//! neighbour is darker than the centre. Matching two census descriptors is a
//! Hamming distance — XOR plus popcount — which turns the cost-volume fill
//! into pure integer bitwise arithmetic and shrinks the volume to one byte
//! per cell (4× smaller than the f32 SAD volume). This is the cost metric
//! real-time stereo FPGA systems use and the key-frame fast path behind
//! [`crate::CostMetric::Census`].
//!
//! All kernels dispatch through [`crate::simd`] (scalar / SSE4.2 / AVX2) and
//! are bit-identical across tiers. Buffers are retained in place, so
//! same-sized frames re-use storage and the streaming steady state performs
//! no allocation.

use crate::simd::{self, SimdLevel};
use asv_image::Image;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Census comparison window. Larger windows give more robust descriptors at
/// the price of a wider border and more transform work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CensusWindow {
    /// 5×5 window, 24 comparison bits, `u32` descriptors.
    W5x5,
    /// 7×7 window, 48 comparison bits, `u64` descriptors (the usual
    /// accuracy/speed sweet spot; default).
    #[default]
    W7x7,
    /// 9×7 window, 62 comparison bits, `u64` descriptors.
    W9x7,
}

impl CensusWindow {
    /// Horizontal comparison radius.
    pub fn rx(self) -> usize {
        match self {
            CensusWindow::W5x5 => 2,
            CensusWindow::W7x7 => 3,
            CensusWindow::W9x7 => 4,
        }
    }

    /// Vertical comparison radius.
    pub fn ry(self) -> usize {
        match self {
            CensusWindow::W5x5 => 2,
            CensusWindow::W7x7 => 3,
            CensusWindow::W9x7 => 3,
        }
    }

    /// Number of comparison bits per descriptor.
    pub fn bits(self) -> usize {
        (2 * self.rx() + 1) * (2 * self.ry() + 1) - 1
    }

    /// Whether descriptors fit a `u32` (≤ 31 bits) or need a `u64`.
    pub fn uses_u32(self) -> bool {
        self.bits() <= 31
    }
}

/// Maximum window height across [`CensusWindow`] variants (stack buffer for
/// the per-row slice table).
const MAX_WINDOW_ROWS: usize = 7;

/// Per-pixel census descriptors of one image.
///
/// Storage lives in whichever of the two word vectors matches the window
/// (`u32` for 5×5, `u64` otherwise); both are retained across refills so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub struct CensusDescriptors {
    width: usize,
    height: usize,
    window: CensusWindow,
    words32: Vec<u32>,
    words64: Vec<u64>,
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

    /// The window the descriptors were computed with.
    pub fn window(&self) -> CensusWindow {
        self.window
    }

    /// Bytes currently retained by the descriptor storage.
    pub fn retained_bytes(&self) -> usize {
        self.words32.capacity() * std::mem::size_of::<u32>()
            + self.words64.capacity() * std::mem::size_of::<u64>()
    }

    /// Releases retained storage.
    pub fn trim(&mut self) {
        *self = Self::default();
    }

    /// Row `y` of `u32` descriptors (5×5 window only).
    pub fn row_u32(&self, y: usize) -> &[u32] {
        &self.words32[y * self.width..][..self.width]
    }

    /// Row `y` of `u64` descriptors (7×7 / 9×7 windows).
    pub fn row_u64(&self, y: usize) -> &[u64] {
        &self.words64[y * self.width..][..self.width]
    }

    /// Computes the census transform of `img`, reusing storage when the size
    /// matches the previous fill.
    pub fn fill_from(&mut self, img: &Image, window: CensusWindow, level: SimdLevel) {
        let width = img.width();
        let height = img.height();
        self.width = width;
        self.height = height;
        self.window = window;
        let cells = width * height;
        if window.uses_u32() {
            if self.words32.len() != cells {
                self.words32.clear();
                self.words32.resize(cells, 0);
            }
        } else if self.words64.len() != cells {
            self.words64.clear();
            self.words64.resize(cells, 0);
        }
        if cells == 0 {
            return;
        }
        let pixels = img.as_slice();
        let rx = window.rx();
        let ry = window.ry();

        // One output row at a time: gather the (row-clamped) source rows of
        // the window into a stack table, then run the row kernel.
        let row_table = |y: usize| -> ([&[f32]; MAX_WINDOW_ROWS], usize) {
            let mut rows: [&[f32]; MAX_WINDOW_ROWS] = [&[]; MAX_WINDOW_ROWS];
            let wh = 2 * ry + 1;
            for (i, slot) in rows.iter_mut().enumerate().take(wh) {
                let v =
                    (y as isize + i as isize - ry as isize).clamp(0, height as isize - 1) as usize;
                *slot = &pixels[v * width..][..width];
            }
            (rows, wh)
        };

        if window.uses_u32() {
            let fill_row = |y: usize, out: &mut [u32]| {
                let (rows, wh) = row_table(y);
                simd::census_row_u32(level, &rows[..wh], rx, out);
            };
            self.words32
                .par_chunks_mut(width)
                .enumerate()
                .for_each(|(y, out)| fill_row(y, out));
        } else {
            let fill_row = |y: usize, out: &mut [u64]| {
                let (rows, wh) = row_table(y);
                simd::census_row_u64(level, &rows[..wh], rx, out);
            };
            self.words64
                .par_chunks_mut(width)
                .enumerate()
                .for_each(|(y, out)| fill_row(y, out));
        }
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
    /// Panics when the descriptor planes differ in size or window.
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
        assert_eq!(left.window(), right.window(), "descriptor window mismatch");
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
        let use32 = left.window().uses_u32();
        let fill_row = |y: usize, out: &mut [u8]| {
            if use32 {
                let (l, r) = (left.row_u32(y), right.row_u32(y));
                simd::hamming_row_u32(level, reference, l, r, levels, out);
            } else {
                let (l, r) = (left.row_u64(y), right.row_u64(y));
                simd::hamming_row_u64(level, reference, l, r, levels, out);
            }
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
        assert_eq!(CensusWindow::W5x5.bits(), 24);
        assert_eq!(CensusWindow::W7x7.bits(), 48);
        assert_eq!(CensusWindow::W9x7.bits(), 62);
        assert!(CensusWindow::W5x5.uses_u32());
        assert!(!CensusWindow::W7x7.uses_u32());
        assert!(!CensusWindow::W9x7.uses_u32());
        assert_eq!(CensusWindow::default(), CensusWindow::W7x7);
    }

    #[test]
    fn descriptor_bits_match_direct_comparison() {
        let img = Image::from_fn(11, 9, |x, y| ((x * 5 + y * 3) % 13) as f32 - 6.0);
        let window = CensusWindow::W7x7;
        let mut desc = CensusDescriptors::new();
        desc.fill_from(&img, window, SimdLevel::Scalar);
        let (rx, ry) = (window.rx() as isize, window.ry() as isize);
        for y in 0..9usize {
            for x in 0..11usize {
                let got = desc.row_u64(y)[x];
                let center = img.at(x, y);
                let mut expect = 0u64;
                let mut k = 0;
                for dy in -ry..=ry {
                    for dx in -rx..=rx {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        if img.at_clamped(x as isize + dx, y as isize + dy) < center {
                            expect |= 1 << k;
                        }
                        k += 1;
                    }
                }
                assert_eq!(got, expect, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn identical_images_have_zero_hamming_cost_at_zero_disparity() {
        let img = Image::from_fn(16, 8, |x, y| ((x * 7 + y * 11) % 17) as f32);
        let mut dl = CensusDescriptors::new();
        let mut dr = CensusDescriptors::new();
        dl.fill_from(&img, CensusWindow::W5x5, SimdLevel::Scalar);
        dr.fill_from(&img, CensusWindow::W5x5, SimdLevel::Scalar);
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
        dl.fill_from(&left, CensusWindow::W7x7, SimdLevel::Scalar);
        dr.fill_from(&right, CensusWindow::W7x7, SimdLevel::Scalar);
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
        desc.fill_from(&img_a, CensusWindow::W7x7, SimdLevel::Scalar);
        let ptr = desc.words64.as_ptr();
        desc.fill_from(&img_b, CensusWindow::W7x7, SimdLevel::Scalar);
        assert_eq!(desc.words64.as_ptr(), ptr, "storage must be reused");
    }
}
