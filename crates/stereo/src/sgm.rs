//! Semi-global matching (SGM).
//!
//! SGM aggregates the local matching costs along several 1-D paths with a
//! smoothness prior, then picks the disparity with the lowest aggregated cost.
//! It is the algorithm behind the "SGBN" and "HH" classic baselines of Fig. 1
//! and — with sub-pixel interpolation and a left-right consistency check — it
//! is also the highest-accuracy classic matcher in this reproduction, which is
//! why the DNN surrogate in `asv-dnn` builds on it.

use crate::census::{CensusCostVolume, CensusDescriptors, Reference};
use crate::cost_volume::CostVolume;
use crate::disparity::{DisparityMap, StereoError, INVALID_DISPARITY};
use crate::simd::{self, SimdLevel, SweepMins, SweepStep};
use crate::Result;
use asv_image::cost::BlockSpec;
use asv_image::{round_index, Image};
use asv_mem::BufferPool;
use asv_trace::{KernelTimings, Stage};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Matching-cost metric used by the semi-global matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CostMetric {
    /// `f32` sum-of-absolute-differences over a square block: the original
    /// metric of this reproduction, the reference for accuracy comparisons.
    #[default]
    Sad,
    /// Census transform + Hamming distance: integer bitwise costs (one byte
    /// per cell) aggregated by an integer SGM — the SIMD-friendly key-frame
    /// fast path used by real-time stereo hardware.
    Census,
}

impl CostMetric {
    /// Stable lowercase name (used in benchmark reports and session config).
    pub fn name(self) -> &'static str {
        match self {
            CostMetric::Sad => "sad",
            CostMetric::Census => "census",
        }
    }
}

/// Parameters of the semi-global matcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgmParams {
    /// Matching block half-width for the unary costs.
    pub block: BlockSpec,
    /// Largest disparity hypothesis.
    pub max_disparity: usize,
    /// Penalty for a one-pixel disparity change between neighbours.  The
    /// census path rounds this to the nearest integer.
    pub p1: f32,
    /// Penalty for a larger disparity change between neighbours.  The census
    /// path rounds this to the nearest integer.
    pub p2: f32,
    /// Enable parabolic sub-pixel refinement.
    pub subpixel: bool,
    /// Enable the left-right consistency check (invalidates inconsistent
    /// pixels, e.g. occlusions).
    pub left_right_check: bool,
    /// Maximum allowed left-right disparity difference when the check is
    /// enabled.
    pub lr_threshold: f32,
    /// Matching-cost metric (SAD block costs or census/Hamming over the 7×7
    /// window of [`crate::census`]).
    pub metric: CostMetric,
}

impl Default for SgmParams {
    fn default() -> Self {
        Self {
            block: BlockSpec::new(2),
            max_disparity: 64,
            p1: 2.0,
            p2: 32.0,
            subpixel: true,
            left_right_check: false,
            lr_threshold: 1.5,
            metric: CostMetric::Sad,
        }
    }
}

/// The four aggregation directions used by this implementation (left, right,
/// up, down).  Diagonals add accuracy but little insight; four paths keep the
/// runtime of the tests reasonable while preserving SGM's behaviour.
const DIRECTIONS: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];

/// Reusable scratch for [`semi_global_match_with`]: the cost volumes, the
/// aggregation buffers (checked out of a size-keyed pool), the census
/// descriptors and one census pass's buffers per reference view, and the
/// right view's map of the left-right check (with the SAD path's mirrored
/// images).
///
/// A fresh workspace performs no allocation; the first match sizes every
/// buffer and subsequent matches on same-sized pairs reuse them.  One
/// workspace serves any number of sequential matches (it is keyed by size,
/// not by content).
#[derive(Debug)]
pub struct SgmWorkspace {
    volume: CostVolume,
    pool: BufferPool,
    census_l: CensusDescriptors,
    census_r: CensusDescriptors,
    /// The census passes of the left and the right reference view.
    passes: [CensusPass; 2],
    mirror_l: Image,
    mirror_r: Image,
    map_r: DisparityMap,
    /// Cost-fill / aggregation timings of the most recent
    /// [`semi_global_match_with`] call, for harvesting into a frame tracer:
    /// one entry each for census (both views' passes together), two per
    /// pass for SAD (a left-right check doubles the passes).
    timings: KernelTimings,
}

impl SgmWorkspace {
    /// Creates an empty workspace (no allocation until first use).
    pub fn new() -> Self {
        Self {
            volume: CostVolume::empty(),
            pool: BufferPool::new(),
            census_l: CensusDescriptors::new(),
            census_r: CensusDescriptors::new(),
            passes: Default::default(),
            mirror_l: Image::default(),
            mirror_r: Image::default(),
            map_r: DisparityMap::invalid(0, 0),
            timings: KernelTimings::new(),
        }
    }

    /// Stage timings recorded by the most recent matching call.
    pub fn timings(&self) -> &KernelTimings {
        &self.timings
    }

    /// Bytes currently retained by the workspace (cost volumes, census
    /// descriptors, pooled aggregation buffers, the census passes' sums and
    /// row scratch, and the right-view map and mirrored pair of the
    /// left-right check), e.g. for capacity planning of many concurrent
    /// sessions.
    pub fn retained_bytes(&self) -> usize {
        self.volume.num_cells() * std::mem::size_of::<f32>()
            + self.pool.retained_bytes()
            + self.census_l.retained_bytes()
            + self.census_r.retained_bytes()
            + self
                .passes
                .iter()
                .map(CensusPass::retained_bytes)
                .sum::<usize>()
            + self.mirror_l.retained_bytes()
            + self.mirror_r.retained_bytes()
            + self.map_r.as_image().retained_bytes()
    }

    /// Releases all retained buffers (e.g. when a stream goes idle).
    pub fn trim(&mut self) {
        self.volume = CostVolume::empty();
        self.pool.trim();
        self.census_l.trim();
        self.census_r.trim();
        self.passes = Default::default();
        self.mirror_l = Image::default();
        self.mirror_r = Image::default();
        self.map_r = DisparityMap::invalid(0, 0);
    }
}

impl Default for SgmWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregates the cost volume along one direction, writing into a reusable
/// buffer (resized to the volume; every cell is overwritten).
fn aggregate_direction_into(
    volume: &CostVolume,
    dir: (isize, isize),
    p1: f32,
    p2: f32,
    agg: &mut Vec<f32>,
) {
    let width = volume.width();
    let height = volume.height();
    let levels = volume.num_disparities();
    let cells = width * height * levels;
    if agg.len() != cells {
        agg.clear();
        agg.resize(cells, 0.0);
    }

    // Traversal order: along the direction, so the predecessor is already
    // computed.  For horizontal paths iterate x innermost; for vertical paths
    // the x order is irrelevant to correctness and mirrors the reference.
    for yi in 0..height {
        let y = if dir.1 > 0 { yi } else { height - 1 - yi };
        for xi in 0..width {
            let x = if dir.0 > 0 { xi } else { width - 1 - xi };
            let px = x as isize - dir.0;
            let py = y as isize - dir.1;
            let base = (y * width + x) * levels;
            if px < 0 || py < 0 || px >= width as isize || py >= height as isize {
                for d in 0..levels {
                    agg[base + d] = volume.cost(x, y, d);
                }
                continue;
            }
            let pbase = (py as usize * width + px as usize) * levels;
            let prev_min = (0..levels)
                .map(|d| agg[pbase + d])
                .fold(f32::INFINITY, f32::min);
            for d in 0..levels {
                let same = agg[pbase + d];
                let minus = if d > 0 {
                    agg[pbase + d - 1] + p1
                } else {
                    f32::INFINITY
                };
                let plus = if d + 1 < levels {
                    agg[pbase + d + 1] + p1
                } else {
                    f32::INFINITY
                };
                let jump = prev_min + p2;
                let best_prev = same.min(minus).min(plus).min(jump);
                agg[base + d] = volume.cost(x, y, d) + best_prev - prev_min;
            }
        }
    }
}

/// Runs SGM over an already-built cost volume, returning the aggregated
/// volume summed over all directions (the buffer is checked out of `pool`;
/// the caller returns it with [`BufferPool::put`] when done).
///
/// The four directional passes are independent; they run concurrently on
/// the rayon pool and are reduced in direction order, so the summation order
/// does not depend on the schedule.
fn aggregate_all_pooled(volume: &CostVolume, p1: f32, p2: f32, pool: &mut BufferPool) -> Vec<f32> {
    let cells = volume.num_cells();
    let mut total = pool.take_zeroed(cells);
    let mut dirs: [Vec<f32>; 4] = std::array::from_fn(|_| pool.take_scratch(cells));

    let [d0, d1, d2, d3] = &mut dirs;
    rayon::join(
        || {
            rayon::join(
                || aggregate_direction_into(volume, DIRECTIONS[0], p1, p2, d0),
                || aggregate_direction_into(volume, DIRECTIONS[1], p1, p2, d1),
            )
        },
        || {
            rayon::join(
                || aggregate_direction_into(volume, DIRECTIONS[2], p1, p2, d2),
                || aggregate_direction_into(volume, DIRECTIONS[3], p1, p2, d3),
            )
        },
    );

    for agg in dirs {
        for (t, a) in total.iter_mut().zip(&agg) {
            *t += a;
        }
        pool.put(agg);
    }
    total
}

/// The buffers of one census pass (one reference view).  They are the
/// pass's own allocations, disjoint from the other view's, so the two
/// passes run concurrently without writing a shared cache line.
#[derive(Debug, Default)]
struct CensusPass {
    costs: CensusCostVolume,
    /// The forward sweep's path sums, one span per pixel.
    sums: Vec<u16>,
    /// The sweeps' row scratch, laid out by [`census_pass`].
    rows: Vec<u16>,
}

impl CensusPass {
    fn retained_bytes(&self) -> usize {
        self.costs.retained_bytes()
            + (self.sums.capacity() + self.rows.capacity()) * std::mem::size_of::<u16>()
    }
}

/// Cells of padding at both ends of a pass's row scratch: 64 bytes, so the
/// cells a sweep writes at every pixel share no cache line with another
/// allocation, such as the concurrent pass's scratch.
const ROW_PAD: usize = 32;

/// One census pass over `pass.costs`, writing the winners into `out`.
///
/// The forward sweep runs the left→right and top→bottom paths and stores
/// their saturating sum per cell.  The backward sweep runs the right→left
/// and bottom→top paths, adds the stored sums and picks each pixel's winner:
/// the first disparity holding the minimum total (the winner of a
/// strict-`<` scan), with the sub-pixel parabola evaluated on exact `f32`
/// conversions of the integer totals.  `u16` saturating addition is
/// `min(sum, u16::MAX)` on non-negative terms, so this total equals every
/// grouping of the four paths'.
///
/// Paths keep only row scratch, in the guarded layout of
/// [`simd::census_sweep_step`]: two spans for the horizontal path, and two
/// rows of per-column spans for the vertical one (neighbouring columns share
/// a guard), with each column's span minimum.
fn census_pass(
    pass: &mut CensusPass,
    p1: u16,
    p2: u16,
    subpixel: bool,
    level: SimdLevel,
    out: &mut DisparityMap,
) {
    let CensusPass { costs, sums, rows } = pass;
    let (width, height) = (costs.width(), costs.height());
    let levels = costs.num_disparities();
    let row_cells = width * levels;
    if sums.len() != costs.num_cells() {
        sums.clear();
        sums.resize(costs.num_cells(), 0);
    }
    let (span, stride) = (levels + 2, levels + 1);
    let v_row = width * stride + 1;
    let len = 2 * ROW_PAD + 2 * span + 2 * v_row + width + levels;
    if rows.len() != len {
        rows.clear();
        rows.resize(len, 0);
    }
    out.reshape_scratch(width, height);
    let map = out.as_image_mut().as_mut_slice();
    for forward in [true, false] {
        let (h, rest) = rows[ROW_PAD..].split_at_mut(2 * span);
        let (mut v_prev, rest) = rest.split_at_mut(v_row);
        let (mut v_cur, rest) = rest.split_at_mut(v_row);
        let (v_mins, rest) = rest.split_at_mut(width);
        let total = &mut rest[..levels];
        // Every path starts from an all-zero span of minimum 0; the guards
        // are `u16::MAX`.
        for v in [&mut *v_prev, &mut *v_cur] {
            v.fill(0);
            for guard in v.iter_mut().step_by(stride) {
                *guard = u16::MAX;
            }
        }
        // The horizontal spans' cells are zeroed or written before they
        // are read, so only their guards need setting.
        h.fill(u16::MAX);
        v_mins.fill(0);
        for yi in 0..height {
            let y = if forward { yi } else { height - 1 - yi };
            let cells = y * row_cells..(y + 1) * row_cells;
            let sink = if forward {
                RowSink::Sums(&mut sums[cells])
            } else {
                RowSink::Winners {
                    forward: &sums[cells],
                    total: &mut *total,
                    subpixel,
                    out: &mut map[y * width..][..width],
                }
            };
            let row = SweepRow {
                costs: costs.row(y),
                levels,
                p1,
                p2,
                h: &mut *h,
                v_prev,
                v_cur: &mut *v_cur,
                v_mins: &mut *v_mins,
                sink,
            };
            simd::census_sweep_row(level, row);
            std::mem::swap(&mut v_prev, &mut v_cur);
        }
    }
}

/// One image row of a census sweep: the unit [`simd::census_sweep_row`]
/// dispatches, so that each tier runs [`sweep_row`] with its step kernel
/// inlined.
pub(crate) struct SweepRow<'a> {
    /// The row's cost spans, one per pixel.
    costs: &'a [u8],
    levels: usize,
    p1: u16,
    p2: u16,
    /// The horizontal path's two guarded spans.
    h: &'a mut [u16],
    /// The previous row's vertical spans, one guarded span per column.
    v_prev: &'a [u16],
    /// Receives this row's vertical spans.
    v_cur: &'a mut [u16],
    /// Each column's `v_prev` span minimum, replaced by its `v_cur` one.
    v_mins: &'a mut [u16],
    sink: RowSink<'a>,
}

impl SweepRow<'_> {
    /// Disparity levels per span.
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }
}

/// Where a sweep row's path sums go.
enum RowSink<'a> {
    /// The forward sweep stores them, one span per pixel.
    Sums(&'a mut [u16]),
    /// The backward sweep adds them to the `forward` sums in a one-span
    /// `total` and writes each pixel's winner into `out`.
    Winners {
        forward: &'a [u16],
        total: &'a mut [u16],
        subpixel: bool,
        out: &'a mut [f32],
    },
}

/// Runs `step` over a sweep row's pixels, left to right for the forward
/// sweep and right to left for the backward one.  Inlined into each tier's
/// row kernel, so the step inlines too.
#[inline(always)]
pub(crate) fn sweep_row(row: SweepRow<'_>, mut step: impl FnMut(&mut SweepStep<'_>) -> SweepMins) {
    let SweepRow {
        costs,
        levels,
        p1,
        p2,
        h,
        v_prev,
        v_cur,
        v_mins,
        mut sink,
    } = row;
    let width = v_mins.len();
    let forward = matches!(sink, RowSink::Sums(_));
    let (span, stride) = (levels + 2, levels + 1);
    // The lengths that give every step's spans exactly `levels` or `levels
    // + 2` cells.
    assert_eq!(costs.len(), width * levels, "cost row length");
    assert_eq!(h.len(), 2 * span, "horizontal spans length");
    for v in [v_prev, &*v_cur] {
        assert_eq!(v.len(), width * stride + 1, "vertical row length");
    }
    match &sink {
        RowSink::Sums(sums) => assert_eq!(sums.len(), width * levels, "sums length"),
        RowSink::Winners {
            forward,
            total,
            out,
            ..
        } => {
            assert_eq!(forward.len(), width * levels, "sums length");
            assert_eq!(
                (total.len(), out.len()),
                (levels, width),
                "total and map row"
            );
        }
    }
    // Local references, swapped per pixel: nothing outside this call's
    // stack frame is written but the spans themselves.
    let (mut h_prev, mut h_out) = h.split_at_mut(span);
    h_prev[1..=levels].fill(0);
    let mut h_min = 0;
    for xi in 0..width {
        let x = if forward { xi } else { width - 1 - xi };
        let (cell, column) = (x * levels, x * stride);
        let (base, sum) = match &mut sink {
            RowSink::Sums(sums) => (None, &mut sums[cell..][..levels]),
            RowSink::Winners { forward, total, .. } => {
                (Some(&forward[cell..][..levels]), &mut **total)
            }
        };
        let mins = step(&mut SweepStep {
            cost: &costs[cell..][..levels],
            p1,
            p2,
            h_prev: &*h_prev,
            h_min,
            v_prev: &v_prev[column..][..span],
            v_min: v_mins[x],
            h_out: &mut *h_out,
            v_out: &mut v_cur[column..][..span],
            base,
            sum,
        });
        h_min = mins.h;
        v_mins[x] = mins.v;
        std::mem::swap(&mut h_prev, &mut h_out);
        if let RowSink::Winners {
            total,
            subpixel,
            out,
            ..
        } = &mut sink
        {
            let best = mins.best;
            out[x] = if !*subpixel || best == 0 || best + 1 >= levels {
                best as f32
            } else {
                parabola(
                    best,
                    f32::from(total[best - 1]),
                    f32::from(total[best]),
                    f32::from(total[best + 1]),
                )
            };
        }
    }
}

/// Sub-pixel disparity of winner `best_d` from a parabola through its cost
/// `c1` and its neighbours' `c0` (at `best_d - 1`) and `c2` (at
/// `best_d + 1`); the winner itself when the three are collinear.
fn parabola(best_d: usize, c0: f32, c1: f32, c2: f32) -> f32 {
    let denom = c0 - 2.0 * c1 + c2;
    if denom.abs() < 1e-9 {
        best_d as f32
    } else {
        best_d as f32 + (0.5 * (c0 - c2) / denom).clamp(-0.5, 0.5)
    }
}

/// Winner-take-all over an aggregated volume, writing into a reusable map.
fn winner_take_all_into(
    total: &[f32],
    width: usize,
    height: usize,
    levels: usize,
    subpixel: bool,
    out: &mut DisparityMap,
) {
    // Every pixel is assigned below, so the plane needs no fill.
    out.reshape_scratch(width, height);
    let dst = out.as_image_mut().as_mut_slice();
    for y in 0..height {
        for x in 0..width {
            let base = (y * width + x) * levels;
            let mut best_d = 0usize;
            let mut best_cost = f32::INFINITY;
            for d in 0..levels {
                if total[base + d] < best_cost {
                    best_cost = total[base + d];
                    best_d = d;
                }
            }
            dst[y * width + x] = if !subpixel || best_d == 0 || best_d + 1 >= levels {
                best_d as f32
            } else {
                parabola(
                    best_d,
                    total[base + best_d - 1],
                    best_cost,
                    total[base + best_d + 1],
                )
            };
        }
    }
}

/// Horizontally mirrors `src` into a reusable output image.
fn mirror_into(src: &Image, out: &mut Image) {
    let width = src.width();
    let height = src.height();
    out.reshape_scratch(width, height);
    let dst = out.as_mut_slice();
    for y in 0..height {
        for x in 0..width {
            dst[y * width + x] = src.at(width - 1 - x, y);
        }
    }
}

/// One SAD-metric matching pass: `f32` cost volume, `f32` aggregation,
/// winner-take-all.
fn sad_pass(
    volume: &mut CostVolume,
    pool: &mut BufferPool,
    timings: &mut KernelTimings,
    left: &Image,
    right: &Image,
    params: &SgmParams,
    out: &mut DisparityMap,
) -> Result<()> {
    let fill_started = Instant::now();
    volume.fill_from_pair(left, right, params.max_disparity, params.block)?;
    timings.record(Stage::CostFill, fill_started, fill_started.elapsed(), 1);
    let levels = volume.num_disparities();
    let aggregate_started = Instant::now();
    let total = aggregate_all_pooled(volume, params.p1, params.p2, pool);
    timings.record(
        Stage::SgmAggregate,
        aggregate_started,
        aggregate_started.elapsed(),
        1,
    );
    winner_take_all_into(
        &total,
        volume.width(),
        volume.height(),
        levels,
        params.subpixel,
        out,
    );
    pool.put(total);
    Ok(())
}

/// The census branch of [`semi_global_match_with`].  Both images are
/// census-transformed once; the left view's Hamming volume and, for the
/// left-right check, the right view's come from that one descriptor pair.
/// Mirroring both images permutes every descriptor's bits alike, so the
/// left-reference volume of the mirrored pair is the right view's volume
/// mirrored; the four-path total and its first-minimum winner do not change
/// under mirroring, so the right view's map is that pair's map mirrored, bit
/// for bit.  The two views' passes run concurrently on the rayon pool.
#[allow(clippy::too_many_arguments)]
fn census_match(
    census_l: &mut CensusDescriptors,
    census_r: &mut CensusDescriptors,
    passes: &mut [CensusPass; 2],
    map_r: &mut DisparityMap,
    timings: &mut KernelTimings,
    left: &Image,
    right: &Image,
    params: &SgmParams,
    out: &mut DisparityMap,
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
    let level = simd::active_level();
    let check = params.left_right_check;
    let [pass_l, pass_r] = passes;
    let fill_started = Instant::now();
    census_l.fill_from(left, level);
    census_r.fill_from(right, level);
    let max_disparity = params.max_disparity;
    pass_l
        .costs
        .fill_from_descriptors(census_l, census_r, max_disparity, Reference::Left, level);
    if check {
        pass_r.costs.fill_from_descriptors(
            census_l,
            census_r,
            max_disparity,
            Reference::Right,
            level,
        );
    }
    timings.record(Stage::CostFill, fill_started, fill_started.elapsed(), 1);
    let p1 = params.p1.round().max(0.0) as u16;
    let p2 = params.p2.round().max(0.0) as u16;
    let subpixel = params.subpixel;
    let aggregate_started = Instant::now();
    if check {
        rayon::join(
            || census_pass(pass_l, p1, p2, subpixel, level, out),
            || census_pass(pass_r, p1, p2, subpixel, level, map_r),
        );
    } else {
        census_pass(pass_l, p1, p2, subpixel, level, out);
    }
    timings.record(
        Stage::SgmAggregate,
        aggregate_started,
        aggregate_started.elapsed(),
        1,
    );
    if check {
        left_right_check(out, map_r, params.lr_threshold);
    }
    Ok(())
}

/// Invalidates each valid pixel of the left view's map `out` whose match in
/// the right view is invalid there or disagrees by more than `threshold`,
/// one row per task on the rayon pool.  `map_r` is the right view's map in
/// its own coordinates.  Left pixel `x` of disparity `d` matches right pixel
/// `x - d`: column `mx` of the mirrored right view, rounded to the nearest,
/// and so column `width - 1 - mx`.
fn left_right_check(out: &mut DisparityMap, map_r: &DisparityMap, threshold: f32) {
    let width = out.width();
    if width == 0 {
        return;
    }
    let right = map_r.as_image().as_slice();
    let check_row = |(y, row): (usize, &mut [f32])| {
        let right = &right[y * width..][..width];
        for (x, value) in row.iter_mut().enumerate() {
            let d = *value;
            // Invalid pixels (negative or NaN) stay as they are.
            if !(0.0..).contains(&d) {
                continue;
            }
            let rx = x as f32 - d;
            let consistent = rx >= 0.0
                && round_index(width as f32 - 1.0 - rx, width).is_some_and(|mx| {
                    let dr = right[width - 1 - mx];
                    dr >= 0.0 && (dr - d).abs() <= threshold
                });
            if !consistent {
                *value = INVALID_DISPARITY;
            }
        }
    };
    let values = out.as_image_mut().as_mut_slice();
    values.par_chunks_mut(width).enumerate().for_each(check_row);
}

/// Semi-global stereo matching of a rectified pair.
///
/// # Errors
///
/// Returns [`StereoError::DimensionMismatch`] for mismatched image sizes and
/// [`StereoError::InvalidParameter`] for empty images or zero disparity
/// range.
pub fn semi_global_match(left: &Image, right: &Image, params: &SgmParams) -> Result<DisparityMap> {
    let mut ws = SgmWorkspace::new();
    let mut out = DisparityMap::invalid(0, 0);
    semi_global_match_with(&mut ws, left, right, params, &mut out)?;
    Ok(out)
}

/// [`semi_global_match`] threading a reusable [`SgmWorkspace`] and writing
/// the disparity map into a reusable output: identical output, zero heap
/// allocations once the workspace is warm (same-sized pairs).
///
/// # Errors
///
/// Same conditions as [`semi_global_match`]; on error the contents of `out`
/// are unspecified.
pub fn semi_global_match_with(
    ws: &mut SgmWorkspace,
    left: &Image,
    right: &Image,
    params: &SgmParams,
    out: &mut DisparityMap,
) -> Result<()> {
    if params.max_disparity == 0 {
        return Err(StereoError::invalid_parameter(
            "max_disparity must be non-zero",
        ));
    }
    // Destructure the workspace so the pass helpers can borrow the pooled
    // state mutably while the mirror images stay borrowable for the check.
    let SgmWorkspace {
        volume,
        pool,
        census_l,
        census_r,
        passes,
        mirror_l,
        mirror_r,
        map_r,
        timings,
    } = ws;
    timings.clear();
    match params.metric {
        CostMetric::Sad => {
            sad_pass(volume, pool, timings, left, right, params, out)?;
            if params.left_right_check {
                // Match in the other direction by mirroring both images
                // horizontally, which converts right-reference matching into
                // left-reference matching; reversing the map's rows puts it
                // back in the right view's coordinates.
                mirror_into(left, mirror_l);
                mirror_into(right, mirror_r);
                sad_pass(volume, pool, timings, mirror_r, mirror_l, params, map_r)?;
                let width = map_r.width();
                for row in map_r.as_image_mut().as_mut_slice().chunks_exact_mut(width) {
                    row.reverse();
                }
                left_right_check(out, map_r, params.lr_threshold);
            }
        }
        CostMetric::Census => census_match(
            census_l, census_r, passes, map_r, timings, left, right, params, out,
        )?,
    }
    Ok(())
}

/// Arithmetic operation count of SGM on a frame of the given size: cost-volume
/// construction plus path aggregation.  Used for the Fig. 1 frontier.
pub fn sgm_op_count(width: usize, height: usize, params: &SgmParams) -> u64 {
    let pixels = width as u64 * height as u64;
    let levels = params.max_disparity as u64 + 1;
    let volume = pixels * levels * asv_image::cost::sad_ops_per_block(params.block);
    // Each direction and disparity level costs ~5 ops (3 mins, 1 add, 1 sub).
    let aggregation = pixels * levels * DIRECTIONS.len() as u64 * 5;
    let factor = if params.left_right_check { 2 } else { 1 };
    (volume + aggregation) * factor
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rectified pair with two fronto-parallel planes: background at disparity
    /// `bg`, a central square at disparity `fg`.
    fn two_plane_pair(
        width: usize,
        height: usize,
        bg: usize,
        fg: usize,
    ) -> (Image, Image, DisparityMap) {
        let texture = |x: isize, y: isize| -> f32 {
            let xf = x as f32;
            let yf = y as f32;
            (xf * 0.61).sin() * (yf * 0.37).cos()
                + ((x.rem_euclid(5) * 3 + y.rem_euclid(7)) as f32) * 0.07
        };
        let truth = DisparityMap::from_fn(width, height, |x, y| {
            let inside = x > width / 3 && x < 2 * width / 3 && y > height / 3 && y < 2 * height / 3;
            if inside {
                fg as f32
            } else {
                bg as f32
            }
        });
        // Build the left image from the texture and synthesise the right image
        // by shifting each pixel by its disparity.
        let left = Image::from_fn(width, height, |x, y| texture(x as isize, y as isize));
        let right = Image::from_fn(width, height, |x, y| {
            // For the right image, a scene point visible at left x_l appears at
            // x_r = x_l - d; we render by sampling the texture at x + d for the
            // *background* and foreground layers with proper occlusion: the
            // nearer (larger-d) layer wins.
            let fg_left_x = x as isize + fg as isize;
            let inside_fg = fg_left_x > (width / 3) as isize
                && fg_left_x < (2 * width / 3) as isize
                && y > height / 3
                && y < 2 * height / 3;
            if inside_fg {
                texture(fg_left_x, y as isize)
            } else {
                texture(x as isize + bg as isize, y as isize)
            }
        });
        (left, right, truth)
    }

    #[test]
    fn sgm_recovers_two_plane_scene() {
        let (l, r, truth) = two_plane_pair(48, 32, 4, 10);
        let params = SgmParams {
            max_disparity: 16,
            ..Default::default()
        };
        let map = semi_global_match(&l, &r, &params).unwrap();
        let err = map.three_pixel_error(&truth).unwrap();
        assert!(err < 0.15, "three-pixel error {err}");
    }

    #[test]
    fn sgm_beats_or_matches_block_matching_on_textureless_regions() {
        // Flat (textureless) background: the smoothness prior of SGM keeps the
        // background coherent where local matching is ambiguous.
        let width = 48;
        let height = 32;
        let truth_d = 6usize;
        let left = Image::from_fn(width, height, |x, y| {
            if y > height / 2 {
                ((x * 13 + y * 7) % 19) as f32 * 0.1
            } else {
                0.5
            }
        });
        let right = Image::from_fn(width, height, |x, y| {
            left.at_clamped(x as isize + truth_d as isize, y as isize)
        });
        let truth = DisparityMap::constant(width, height, truth_d as f32);
        let sgm_map = semi_global_match(
            &left,
            &right,
            &SgmParams {
                max_disparity: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let bm_map = crate::block_matching::block_match(
            &left,
            &right,
            &crate::block_matching::BlockMatchParams {
                max_disparity: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let sgm_err = sgm_map.error_rate(&truth, 1.0).unwrap();
        let bm_err = bm_map.error_rate(&truth, 1.0).unwrap();
        assert!(sgm_err <= bm_err + 1e-9, "sgm {sgm_err} vs bm {bm_err}");
    }

    #[test]
    fn left_right_check_invalidates_occlusions() {
        let (l, r, _) = two_plane_pair(48, 32, 4, 10);
        let no_check = semi_global_match(
            &l,
            &r,
            &SgmParams {
                max_disparity: 16,
                left_right_check: false,
                ..Default::default()
            },
        )
        .unwrap();
        let with_check = semi_global_match(
            &l,
            &r,
            &SgmParams {
                max_disparity: 16,
                left_right_check: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(no_check.valid_fraction(), 1.0);
        assert!(with_check.valid_fraction() < 1.0);
        assert!(with_check.valid_fraction() > 0.5);
    }

    #[test]
    fn census_metric_recovers_two_plane_scene() {
        let (l, r, truth) = two_plane_pair(48, 32, 4, 10);
        let params = SgmParams {
            max_disparity: 16,
            metric: CostMetric::Census,
            p1: 2.0,
            p2: 16.0,
            ..Default::default()
        };
        let map = semi_global_match(&l, &r, &params).unwrap();
        let err = map.three_pixel_error(&truth).unwrap();
        assert!(err < 0.15, "three-pixel error {err}");
    }

    #[test]
    fn census_metric_left_right_check_invalidates_occlusions() {
        let (l, r, _) = two_plane_pair(48, 32, 4, 10);
        let with_check = semi_global_match(
            &l,
            &r,
            &SgmParams {
                max_disparity: 16,
                metric: CostMetric::Census,
                p2: 16.0,
                left_right_check: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with_check.valid_fraction() < 1.0);
        assert!(with_check.valid_fraction() > 0.5);
    }

    #[test]
    fn census_workspace_reuse_matches_fresh_runs() {
        let (l, r, _) = two_plane_pair(40, 28, 3, 9);
        let params = SgmParams {
            max_disparity: 12,
            metric: CostMetric::Census,
            left_right_check: true,
            ..Default::default()
        };
        let fresh = semi_global_match(&l, &r, &params).unwrap();
        let mut ws = SgmWorkspace::new();
        let mut out = DisparityMap::invalid(0, 0);
        for _ in 0..3 {
            semi_global_match_with(&mut ws, &l, &r, &params, &mut out).unwrap();
            assert_eq!(out.as_image().as_slice(), fresh.as_image().as_slice());
        }
        assert!(ws.retained_bytes() > 0);
        ws.trim();
        assert_eq!(ws.retained_bytes(), 0);
    }

    /// Deterministic texture value in `[0, 1)`: an integer hash of the
    /// coordinates, so the pinned inputs depend on no libm.
    fn texture(seed: u64, x: usize, y: usize) -> f32 {
        let mut h = seed
            ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h >> 40) as f32 / (1u64 << 24) as f32
    }

    /// A seeded rectified pair: the left image is the right one shifted by a
    /// piecewise-constant 3..=9 px disparity, plus a little noise.
    fn seeded_pair(width: usize, height: usize, seed: u64) -> (Image, Image) {
        let right = Image::from_fn(width, height, |x, y| texture(seed, x, y));
        let left = Image::from_fn(width, height, |x, y| {
            let d = 3 + (x / 7 + y / 5) % 7;
            right.at_clamped(x as isize - d as isize, y as isize) + 0.05 * texture(seed + 1, x, y)
        });
        (left, right)
    }

    /// 64-bit FNV-1a over the bit patterns of a map.
    fn fnv1a(hash: &mut u64, map: &DisparityMap) {
        for value in map.as_image().as_slice() {
            for byte in value.to_bits().to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Pins the exact output bits of the census matcher, one hash per pair
    /// size over the left-right check and sub-pixel refinement on and off,
    /// three disparity ranges, and a penalty pair that saturates the `u16`
    /// totals.  A rewrite of the aggregation that claims
    /// bit-identical output must leave these hashes alone.
    #[test]
    fn census_sgm_bits_are_pinned() {
        let mut hashes = Vec::new();
        for (seed, (width, height)) in [(1, 9), (9, 1), (37, 21), (48, 32)].into_iter().enumerate()
        {
            let (left, right) = seeded_pair(width, height, seed as u64 + 1);
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for left_right_check in [false, true] {
                for subpixel in [false, true] {
                    for max_disparity in [1, 16, 40] {
                        for (p1, p2) in [(2.0, 32.0), (30_000.0, 65_000.0)] {
                            let params = SgmParams {
                                max_disparity,
                                p1,
                                p2,
                                subpixel,
                                left_right_check,
                                metric: CostMetric::Census,
                                ..Default::default()
                            };
                            let map = semi_global_match(&left, &right, &params).unwrap();
                            fnv1a(&mut hash, &map);
                        }
                    }
                }
            }
            hashes.push(hash);
        }
        let expected: [u64; 4] = [
            0xea39_157d_66ff_16a5,
            0x1b75_7b9f_6633_7269,
            0x4d6b_b49c_0c59_1fb9,
            0xb2f5_ddd0_828d_b3c7,
        ];
        assert_eq!(hashes, expected, "got {hashes:#018x?}");
    }

    use proptest::prelude::*;

    /// Reference census aggregation: one full volume per direction of
    /// [`DIRECTIONS`], the recurrence written out from its definition and
    /// reading each predecessor back from that volume.
    fn reference_census_paths(volume: &CensusCostVolume, p1: u16, p2: u16) -> Vec<Vec<u16>> {
        let width = volume.width();
        let height = volume.height();
        let levels = volume.num_disparities();
        let mut paths = Vec::new();
        for dir in DIRECTIONS {
            let mut agg = vec![0u16; volume.num_cells()];
            for yi in 0..height {
                let y = if dir.1 > 0 { yi } else { height - 1 - yi };
                for xi in 0..width {
                    let x = if dir.0 > 0 { xi } else { width - 1 - xi };
                    let px = x as isize - dir.0;
                    let py = y as isize - dir.1;
                    let base = (y * width + x) * levels;
                    let costs = volume.span(x, y);
                    if px < 0 || py < 0 || px >= width as isize || py >= height as isize {
                        for (slot, &c) in agg[base..base + levels].iter_mut().zip(costs) {
                            *slot = c as u16;
                        }
                        continue;
                    }
                    let pbase = (py as usize * width + px as usize) * levels;
                    let prev = agg[pbase..pbase + levels].to_vec();
                    let prev_min = *prev.iter().min().unwrap();
                    for d in 0..levels {
                        let mut best = prev[d].min(prev_min.saturating_add(p2));
                        if d > 0 {
                            best = best.min(prev[d - 1].saturating_add(p1));
                        }
                        if d + 1 < levels {
                            best = best.min(prev[d + 1].saturating_add(p1));
                        }
                        agg[base + d] = (best - prev_min).saturating_add(costs[d] as u16);
                    }
                }
            }
            paths.push(agg);
        }
        paths
    }

    /// Cell-wise saturating sum of the given direction volumes.
    fn saturating_total(paths: &[&Vec<u16>]) -> Vec<u16> {
        let mut total = vec![0u16; paths[0].len()];
        for path in paths {
            for (t, &a) in total.iter_mut().zip(path.iter()) {
                *t = t.saturating_add(a);
            }
        }
        total
    }

    /// Reference winner-take-all: a strict-`<` scan of the summed volume.
    fn reference_winners(
        total: &[u16],
        width: usize,
        height: usize,
        levels: usize,
        subpixel: bool,
    ) -> DisparityMap {
        DisparityMap::from_fn(width, height, |x, y| {
            let base = (y * width + x) * levels;
            let mut best_d = 0usize;
            let mut best_cost = u16::MAX;
            for (d, &c) in total[base..base + levels].iter().enumerate() {
                if c < best_cost {
                    best_cost = c;
                    best_d = d;
                }
            }
            if !subpixel || best_d == 0 || best_d + 1 >= levels {
                best_d as f32
            } else {
                let c0 = f32::from(total[base + best_d - 1]);
                let c1 = f32::from(best_cost);
                let c2 = f32::from(total[base + best_d + 1]);
                let denom = c0 - 2.0 * c1 + c2;
                if denom.abs() < 1e-9 {
                    best_d as f32
                } else {
                    best_d as f32 + (0.5 * (c0 - c2) / denom).clamp(-0.5, 0.5)
                }
            }
        })
    }

    fn bits(map: &DisparityMap) -> Vec<u32> {
        map.as_image()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// Reference left-right check: a left-reference match of the mirrored
    /// pair stands in for the right view's map, read at the rounded
    /// mirrored column.
    fn mirrored_reference(left: &Image, right: &Image, params: &SgmParams) -> DisparityMap {
        let single = SgmParams {
            left_right_check: false,
            ..*params
        };
        let mut out = semi_global_match(left, right, &single).unwrap();
        let (mut mirror_l, mut mirror_r) = (Image::default(), Image::default());
        mirror_into(left, &mut mirror_l);
        mirror_into(right, &mut mirror_r);
        let map_r = semi_global_match(&mirror_r, &mirror_l, &single).unwrap();
        let width = out.width();
        for y in 0..out.height() {
            for x in 0..width {
                let Some(d) = out.get(x, y) else { continue };
                let rx = x as f32 - d;
                if rx < 0.0 {
                    out.invalidate(x, y);
                    continue;
                }
                let mx = (width as f32 - 1.0 - rx).round() as usize;
                if mx >= width {
                    out.invalidate(x, y);
                    continue;
                }
                match map_r.get(mx, y) {
                    Some(dr) if (dr - d).abs() <= params.lr_threshold => {}
                    _ => out.invalidate(x, y),
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A census pass reproduces the four-direction reference at every
        /// SIMD tier: its stored forward sums equal the left→right plus
        /// top→bottom paths cell for cell, and the backward sweep's fused
        /// winners match the reference winners of all four paths bit for
        /// bit.  Penalties run from small to saturating.
        #[test]
        fn sweeps_match_the_four_direction_reference(
            width in 1usize..24,
            height in 1usize..16,
            levels in 1usize..81,
            seed in 0u64..u64::MAX,
            p1 in 0u32..65_536,
            p2 in 0u32..65_536,
            scale in 0u32..3,
        ) {
            let (p1, p2) = match scale {
                0 => (p1 % 8, p2 % 64),
                1 => (p1 % 512, p2 % 8192),
                _ => (p1, p2),
            };
            let (p1, p2) = (p1 as u16, p2 as u16);
            let costs: Vec<u8> = (0..width * height * levels)
                .map(|i| (texture(seed, i, 0) * 256.0) as u8)
                .collect();
            let volume = CensusCostVolume::from_costs(width, height, levels - 1, costs.clone());
            let paths = reference_census_paths(&volume, p1, p2);
            // DIRECTIONS[1] runs left→right and DIRECTIONS[3] top→bottom.
            let forward = saturating_total(&[&paths[1], &paths[3]]);
            let total = saturating_total(&paths.iter().collect::<Vec<_>>());
            let mut map = DisparityMap::invalid(0, 0);
            for &level in simd::available_levels() {
                for subpixel in [false, true] {
                    let mut pass = CensusPass {
                        costs: CensusCostVolume::from_costs(width, height, levels - 1, costs.clone()),
                        ..Default::default()
                    };
                    census_pass(&mut pass, p1, p2, subpixel, level, &mut map);
                    prop_assert_eq!(&pass.sums, &forward, "{} forward sums", level.name());
                    let expected = reference_winners(&total, width, height, levels, subpixel);
                    prop_assert_eq!(bits(&map), bits(&expected), "{} subpixel {}", level.name(), subpixel);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The left-right check gives the bits of the mirrored reference
        /// for both metrics and sub-pixel on and off.
        #[test]
        fn left_right_check_matches_the_mirrored_reference(
            width in 1usize..41,
            height in 1usize..41,
            max_disparity in 1usize..71,
            seed in 0u64..1_000,
            subpixel in 0u32..2,
            census in 0u32..2,
        ) {
            let (subpixel, census) = (subpixel == 1, census == 1);
            let (left, right) = seeded_pair(width, height, seed);
            let params = SgmParams {
                max_disparity,
                p2: 16.0,
                subpixel,
                left_right_check: true,
                metric: if census { CostMetric::Census } else { CostMetric::Sad },
                ..Default::default()
            };
            let map = semi_global_match(&left, &right, &params).unwrap();
            prop_assert_eq!(bits(&map), bits(&mirrored_reference(&left, &right, &params)));
        }
    }

    #[test]
    fn retained_bytes_counts_the_left_right_check_buffers() {
        let (width, height) = (40, 28);
        let (l, r, _) = two_plane_pair(width, height, 3, 9);
        let levels = 13;
        let retained = |left_right_check: bool| {
            let params = SgmParams {
                max_disparity: levels - 1,
                metric: CostMetric::Census,
                left_right_check,
                ..Default::default()
            };
            let mut ws = SgmWorkspace::new();
            let mut out = DisparityMap::invalid(0, 0);
            semi_global_match_with(&mut ws, &l, &r, &params, &mut out).unwrap();
            // The census check reads the right view's own pass: it mirrors
            // no image.
            assert_eq!(
                ws.mirror_l.retained_bytes() + ws.mirror_r.retained_bytes(),
                0
            );
            let used = ws.passes.iter().filter(|p| p.sums.capacity() > 0).count();
            assert_eq!(used, if left_right_check { 2 } else { 1 });
            let bytes = ws.retained_bytes();
            ws.trim();
            assert_eq!(ws.retained_bytes(), 0);
            bytes
        };
        let (off, on) = (retained(false), retained(true));
        // The right view's pass (a u8 cost volume and a u16 volume of
        // forward sums) and its map.
        let cells = width * height * levels;
        assert!(
            on >= off + 3 * cells + width * height * 4,
            "check on {on}, off {off}"
        );
    }

    #[test]
    fn zero_disparity_range_is_rejected() {
        let img = Image::filled(8, 8, 1.0);
        for metric in [CostMetric::Sad, CostMetric::Census] {
            let params = SgmParams {
                max_disparity: 0,
                metric,
                ..Default::default()
            };
            assert!(semi_global_match(&img, &img, &params).is_err());
        }
        let params = SgmParams {
            metric: CostMetric::Census,
            ..Default::default()
        };
        let empty = Image::default();
        assert!(semi_global_match(&empty, &empty, &params).is_err());
        let other = Image::filled(6, 8, 1.0);
        assert!(semi_global_match(&img, &other, &params).is_err());
    }

    #[test]
    fn op_count_scales_with_disparity_range() {
        let small = sgm_op_count(
            100,
            100,
            &SgmParams {
                max_disparity: 16,
                ..Default::default()
            },
        );
        let large = sgm_op_count(
            100,
            100,
            &SgmParams {
                max_disparity: 64,
                ..Default::default()
            },
        );
        assert!(large > 3 * small);
        let checked = sgm_op_count(
            100,
            100,
            &SgmParams {
                max_disparity: 64,
                left_right_check: true,
                ..Default::default()
            },
        );
        assert_eq!(checked, 2 * large);
    }
}
