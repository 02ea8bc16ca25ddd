//! Local block-matching stereo, with and without an initial guess.
//!
//! Two entry points matter for ASV:
//!
//! * [`block_match`] — the classic full-range local matcher (one of the
//!   low-accuracy, high-FPS "classic" points of Fig. 1).
//! * [`refine_with_initial`] — block matching restricted to a small 1-D window
//!   centred on an externally provided initial disparity.  This is the
//!   correspondence-*refinement* step of the ISM algorithm (Sec. 3.2, step 4):
//!   the initial disparity comes from the correspondences propagated from the
//!   key frame, so a tiny search window suffices.
//!
//! Both run one search: the pair is copied once per call into a
//! [`PaddedPair`] with replicated borders, and every pixel's window is summed
//! in 8-candidate walks over it ([`crate::simd::sad_walks`]), with the same
//! adds in the same order as the border-clamped
//! [`asv_image::cost::block_sad`], so the output is the same at every SIMD
//! tier.

use crate::disparity::{DisparityMap, StereoError};
use crate::simd::{self, SimdLevel, SAD_LANES};
use crate::Result;
use asv_image::cost::{sad_ops_per_block, BlockSpec};
use asv_image::{round_to_usize, Image};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Parameters of the local block matcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockMatchParams {
    /// Matching block half-width.
    pub block: BlockSpec,
    /// Largest disparity searched by the full-range matcher.
    pub max_disparity: usize,
    /// Half-width of the search window around the initial guess used by
    /// [`refine_with_initial`].
    pub refine_radius: usize,
    /// Enable parabolic sub-pixel refinement of the winning disparity.
    pub subpixel: bool,
    /// Maximum allowed SAD (per pixel of the block) for a match to be
    /// accepted; larger costs mark the pixel invalid.
    pub max_cost_per_pixel: f32,
}

impl Default for BlockMatchParams {
    fn default() -> Self {
        Self {
            block: BlockSpec::new(3),
            max_disparity: 64,
            refine_radius: 3,
            subpixel: true,
            max_cost_per_pixel: f32::INFINITY,
        }
    }
}

fn check_pair(left: &Image, right: &Image) -> Result<()> {
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
        return Err(StereoError::invalid_parameter("cannot match empty images"));
    }
    Ok(())
}

/// A stereo pair copied with replicated borders: `radius` rows above and
/// below, `radius` columns on the left and `radius + SAD_LANES - 1` on the
/// right, the overhang of a walk's last lanes.  Every block the matcher
/// reads, with any candidate in `0..=x` at pixel `x`, is then a plain slice
/// holding exactly the border-clamped taps `block_sad` reads.  Reused across
/// calls: refilling a pair of the same size allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PaddedPair {
    left: Vec<f32>,
    right: Vec<f32>,
    /// Row stride of both planes.
    stride: usize,
}

impl PaddedPair {
    /// An empty pair; the first match sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes retained by the two planes.
    pub fn retained_bytes(&self) -> usize {
        (self.left.capacity() + self.right.capacity()) * std::mem::size_of::<f32>()
    }

    /// Copies the (non-empty, equally sized) pair with a border of `radius`.
    fn fill(&mut self, left: &Image, right: &Image, radius: usize) {
        let (width, height) = (left.width(), left.height());
        self.stride = width + 2 * radius + SAD_LANES - 1;
        for (plane, image) in [(&mut self.left, left), (&mut self.right, right)] {
            plane.clear();
            plane.reserve(self.stride * (height + 2 * radius));
            for padded_y in 0..height + 2 * radius {
                let y = padded_y.saturating_sub(radius).min(height - 1);
                let row = &image.as_slice()[y * width..][..width];
                plane.extend(std::iter::repeat_n(row[0], radius));
                plane.extend_from_slice(row);
                plane.extend(std::iter::repeat_n(row[width - 1], radius + SAD_LANES - 1));
            }
        }
    }
}

/// One [`SAD_LANES`]-candidate walk of pixel `x`'s window `lo..=hi`: lane
/// `k` holds disparity `top - k`.  A window wider than the lanes is walked
/// as a chain of walks whose tops step down from `hi` by [`SAD_LANES`].
#[derive(Debug, Clone, Copy, Default)]
struct Walk {
    x: usize,
    lo: usize,
    hi: usize,
    top: usize,
}

/// Walks every pixel of row `y` of the padded pair over the window
/// `window(x)` gives it (`lo <= hi <= x`) and reports each pixel's
/// `(x, disparity, cost)` to `emit`, in column order.  The walks go to
/// [`simd::sad_walks`] four at a time, each pixel's from its lowest
/// candidates up, so one running [`Winner`] sees every window in ascending
/// disparity order, as the reference search does.
fn search_row(
    level: SimdLevel,
    pad: &PaddedPair,
    y: usize,
    width: usize,
    params: &BlockMatchParams,
    window: impl Fn(usize) -> (usize, usize),
    mut emit: impl FnMut(usize, f32, f32),
) {
    let side = 2 * params.block.radius + 1;
    // Pixel (x, y)'s block starts at padded (x, y); candidate d's at (x - d, y).
    let base = y * pad.stride;
    let mut walks = (0..width).flat_map(|x| {
        let (lo, hi) = window(x);
        let lowest = lo + (hi - lo) % SAD_LANES;
        (lowest..=hi)
            .step_by(SAD_LANES)
            .map(move |top| Walk { x, lo, hi, top })
    });
    let mut winner = Winner::new(0);
    loop {
        let mut batch = [Walk::default(); 4];
        let mut len = 0;
        for (slot, walk) in batch.iter_mut().zip(&mut walks) {
            *slot = walk;
            len += 1;
        }
        if len == 0 {
            return;
        }
        let offsets = batch.map(|w| (base + w.x, base + w.x - w.top));
        let mut costs = [[0.0f32; SAD_LANES]; 4];
        simd::sad_walks(
            level,
            &pad.left,
            &pad.right,
            pad.stride,
            side,
            &offsets[..len],
            &mut costs[..len],
        );
        for (walk, lanes) in batch[..len].iter().zip(&costs) {
            let first = walk.top.saturating_sub(SAD_LANES - 1).max(walk.lo);
            if first == walk.lo {
                winner = Winner::new(walk.lo);
            }
            for d in first..=walk.top {
                winner.push(d, lanes[walk.top - d]);
            }
            if walk.top == walk.hi {
                let (d, cost) = winner.finish(walk.hi, params.subpixel);
                emit(walk.x, d, cost);
            }
        }
    }
}

/// The reference search: one [`asv_image::cost::block_sad`] per candidate
/// on the unpadded pair.  The tests compare [`search_row`] against it.
#[cfg(test)]
fn search_per_candidate(
    left: &Image,
    right: &Image,
    x: usize,
    y: usize,
    lo: usize,
    hi: usize,
    params: &BlockMatchParams,
) -> (f32, f32) {
    pick_best(lo, hi, params.subpixel, |d| {
        asv_image::cost::block_sad(
            left,
            right,
            x as isize,
            y as isize,
            x as isize - d as isize,
            y as isize,
            params.block,
        )
    })
}

/// Winner-take-all over candidates pushed in ascending disparity order from
/// `lo`, keeping the first minimum (strict `<`, so ties go to the smallest
/// disparity) and tracking the winner's two neighbours for the parabolic
/// sub-pixel refinement.
#[derive(Debug, Clone, Copy)]
struct Winner {
    lo: usize,
    best_d: usize,
    best_cost: f32,
    previous: f32,
    before: f32,
    after: f32,
}

impl Winner {
    fn new(lo: usize) -> Self {
        Self {
            lo,
            best_d: lo,
            best_cost: f32::INFINITY,
            previous: f32::INFINITY,
            before: f32::INFINITY,
            after: f32::INFINITY,
        }
    }

    /// Takes candidate `d`'s cost; `d` is one above the last pushed (`lo`
    /// first).
    fn push(&mut self, d: usize, cost: f32) {
        if d == self.best_d + 1 {
            self.after = cost;
        }
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best_d = d;
            self.before = self.previous;
        }
        self.previous = cost;
    }

    /// `(disparity, cost)` of the winner once `hi` was pushed.
    fn finish(&self, hi: usize, subpixel: bool) -> (f32, f32) {
        let (best_d, best_cost) = (self.best_d, self.best_cost);
        if !subpixel || best_d == self.lo || best_d == hi {
            return (best_d as f32, best_cost);
        }
        let denom = self.before - 2.0 * best_cost + self.after;
        if denom.abs() < 1e-9 {
            return (best_d as f32, best_cost);
        }
        let offset = (0.5 * (self.before - self.after) / denom).clamp(-0.5, 0.5);
        (best_d as f32 + offset, best_cost)
    }
}

/// [`Winner`] over the candidates `lo..=hi`, costed by `cost_of`.
#[cfg(test)]
fn pick_best(
    lo: usize,
    hi: usize,
    subpixel: bool,
    mut cost_of: impl FnMut(usize) -> f32,
) -> (f32, f32) {
    let mut winner = Winner::new(lo);
    for d in lo..=hi {
        winner.push(d, cost_of(d));
    }
    winner.finish(hi, subpixel)
}

/// Matches every pixel of the (checked) pair over the window
/// `window(x, y)`, writing the disparities into a reusable output map; a
/// pixel whose winning cost exceeds `max_cost_per_pixel` per block pixel
/// gets [`crate::disparity::INVALID_DISPARITY`].  Rows are independent, so
/// they are distributed over the rayon pool; the pass allocates nothing once
/// `pad` and `out` are warm.
fn match_into(
    level: SimdLevel,
    left: &Image,
    right: &Image,
    params: &BlockMatchParams,
    pad: &mut PaddedPair,
    out: &mut DisparityMap,
    window: impl Fn(usize, usize) -> (usize, usize) + Sync,
) {
    let (width, height) = (left.width(), left.height());
    pad.fill(left, right, params.block.radius);
    let pad = &*pad;
    let cost_limit = params.max_cost_per_pixel * params.block.area() as f32;
    // Every pixel is assigned by the search, so the plane needs no fill.
    out.reshape_scratch(width, height);
    let match_row = |(y, row): (usize, &mut [f32])| {
        search_row(
            level,
            pad,
            y,
            width,
            params,
            |x| window(x, y),
            |x, d, cost| {
                row[x] = if cost <= cost_limit {
                    d
                } else {
                    crate::disparity::INVALID_DISPARITY
                };
            },
        );
    };
    let data = out.as_image_mut().as_mut_slice();
    data.par_chunks_mut(width).enumerate().for_each(match_row);
}

/// The full-range window of a pixel in column `x`: `0..=max_disparity`,
/// clipped so the candidate block starts inside the image.
fn full_window(params: &BlockMatchParams, x: usize) -> (usize, usize) {
    (0, params.max_disparity.min(x))
}

/// The refinement window of pixel `(x, y)`: `±refine_radius` around the
/// rounded initial disparity, clipped like [`full_window`], or the full
/// range where the initial disparity is invalid.
fn refine_window(
    initial: &DisparityMap,
    params: &BlockMatchParams,
    x: usize,
    y: usize,
) -> (usize, usize) {
    let Some(init) = initial.get(x, y) else {
        return full_window(params, x);
    };
    // The rounding saturates, so a huge or infinite initial disparity must
    // not overflow the window's upper end.
    let centre = round_to_usize(init);
    let lo = centre.saturating_sub(params.refine_radius);
    let hi = centre
        .saturating_add(params.refine_radius)
        .min(params.max_disparity)
        .min(x);
    (lo.min(hi), hi)
}

/// Full-range local block matching over disparities `0..=max_disparity`.
///
/// # Errors
///
/// Returns [`StereoError::DimensionMismatch`] for mismatched image sizes and
/// [`StereoError::InvalidParameter`] for empty images.
pub fn block_match(left: &Image, right: &Image, params: &BlockMatchParams) -> Result<DisparityMap> {
    let mut out = DisparityMap::invalid(0, 0);
    block_match_into(left, right, params, &mut PaddedPair::new(), &mut out)?;
    Ok(out)
}

/// [`block_match`] writing into a reusable output map through a reusable
/// padded pair: identical output, no allocation once both are warm.
///
/// # Errors
///
/// Same conditions as [`block_match`].
pub fn block_match_into(
    left: &Image,
    right: &Image,
    params: &BlockMatchParams,
    pad: &mut PaddedPair,
    out: &mut DisparityMap,
) -> Result<()> {
    check_pair(left, right)?;
    match_into(
        simd::active_level(),
        left,
        right,
        params,
        pad,
        out,
        |x, _| full_window(params, x),
    );
    Ok(())
}

/// Block matching restricted to `±refine_radius` pixels around `initial`.
///
/// Pixels whose initial disparity is invalid fall back to the full-range
/// search.  This mirrors ISM's non-key-frame refinement: propagated
/// correspondences provide the initial estimate, and only a small local
/// search is needed to absorb motion-estimation noise.
///
/// # Errors
///
/// Returns [`StereoError::DimensionMismatch`] when the images or the initial
/// map differ in size, and [`StereoError::InvalidParameter`] for empty
/// images.
pub fn refine_with_initial(
    left: &Image,
    right: &Image,
    initial: &DisparityMap,
    params: &BlockMatchParams,
) -> Result<DisparityMap> {
    let mut out = DisparityMap::invalid(0, 0);
    refine_with_initial_into(
        left,
        right,
        initial,
        params,
        &mut PaddedPair::new(),
        &mut out,
    )?;
    Ok(out)
}

/// [`refine_with_initial`] writing into a reusable output map through a
/// reusable padded pair: identical output, no allocation once both are
/// warm.  This is the ISM non-key-frame hot path.
///
/// # Errors
///
/// Same conditions as [`refine_with_initial`].
pub fn refine_with_initial_into(
    left: &Image,
    right: &Image,
    initial: &DisparityMap,
    params: &BlockMatchParams,
    pad: &mut PaddedPair,
    out: &mut DisparityMap,
) -> Result<()> {
    check_pair(left, right)?;
    if initial.width() != left.width() || initial.height() != left.height() {
        // lint: alloc-ok(error path)
        return Err(StereoError::dimension_mismatch(format!(
            "initial map {}x{} vs images {}x{}",
            initial.width(),
            initial.height(),
            left.width(),
            left.height()
        )));
    }
    match_into(
        simd::active_level(),
        left,
        right,
        params,
        pad,
        out,
        |x, y| refine_window(initial, params, x, y),
    );
    Ok(())
}

/// Arithmetic operation count of a full-range block match on a frame of the
/// given size (used by the Fig. 1 frontier and the ISM cost model).
pub fn block_match_op_count(width: usize, height: usize, params: &BlockMatchParams) -> u64 {
    let per_pixel = (params.max_disparity as u64 + 1) * sad_ops_per_block(params.block);
    width as u64 * height as u64 * per_pixel
}

/// Arithmetic operation count of the ISM refinement search (small window
/// around the propagated disparity).
pub fn refine_op_count(width: usize, height: usize, params: &BlockMatchParams) -> u64 {
    let candidates = 2 * params.refine_radius as u64 + 1;
    let per_pixel = candidates * sad_ops_per_block(params.block);
    width as u64 * height as u64 * per_pixel
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Builds a rectified pair where the true disparity is `disparity`
    /// everywhere (right image content shifted left).
    fn constant_disparity_pair(width: usize, height: usize, disparity: usize) -> (Image, Image) {
        let right = Image::from_fn(width, height, |x, y| {
            let fx = x as f32 * 0.7;
            let fy = y as f32 * 0.4;
            (fx.sin() + fy.cos() + ((x * 3 + y * 5) % 7) as f32 * 0.11) * 0.5
        });
        let left = Image::from_fn(width, height, |x, y| {
            right.at_clamped(x as isize - disparity as isize, y as isize)
        });
        (left, right)
    }

    fn interior_error(map: &DisparityMap, truth: f32, margin: usize) -> f32 {
        let mut worst = 0.0f32;
        for y in margin..map.height() - margin {
            for x in (margin + truth as usize)..map.width() - margin {
                if let Some(d) = map.get(x, y) {
                    worst = worst.max((d - truth).abs());
                }
            }
        }
        worst
    }

    #[test]
    fn full_search_recovers_constant_disparity() {
        let (l, r) = constant_disparity_pair(48, 24, 6);
        let params = BlockMatchParams {
            max_disparity: 16,
            ..Default::default()
        };
        let map = block_match(&l, &r, &params).unwrap();
        assert!(interior_error(&map, 6.0, 5) <= 1.0);
    }

    #[test]
    fn refinement_with_correct_initial_matches_full_search() {
        let (l, r) = constant_disparity_pair(48, 24, 6);
        let params = BlockMatchParams {
            max_disparity: 16,
            refine_radius: 2,
            ..Default::default()
        };
        let initial = DisparityMap::constant(48, 24, 6.0);
        let refined = refine_with_initial(&l, &r, &initial, &params).unwrap();
        assert!(interior_error(&refined, 6.0, 5) <= 1.0);
    }

    #[test]
    fn refinement_recovers_from_slightly_wrong_initial() {
        let (l, r) = constant_disparity_pair(48, 24, 6);
        let params = BlockMatchParams {
            max_disparity: 16,
            refine_radius: 3,
            ..Default::default()
        };
        // Initial guess off by 2 pixels, inside the refinement radius.
        let initial = DisparityMap::constant(48, 24, 8.0);
        let refined = refine_with_initial(&l, &r, &initial, &params).unwrap();
        assert!(interior_error(&refined, 6.0, 6) <= 1.0);
    }

    #[test]
    fn refinement_falls_back_to_full_search_for_invalid_initial() {
        let (l, r) = constant_disparity_pair(48, 24, 6);
        let params = BlockMatchParams {
            max_disparity: 16,
            refine_radius: 1,
            ..Default::default()
        };
        let initial = DisparityMap::invalid(48, 24);
        let refined = refine_with_initial(&l, &r, &initial, &params).unwrap();
        assert!(interior_error(&refined, 6.0, 6) <= 1.0);
    }

    #[test]
    fn cost_threshold_marks_bad_matches_invalid() {
        // Left and right are uncorrelated noise; with a tight cost threshold
        // most pixels should be rejected.
        let left = Image::from_fn(32, 16, |x, y| ((x * 31 + y * 17) % 13) as f32);
        let right = Image::from_fn(32, 16, |x, y| ((x * 7 + y * 29 + 5) % 11) as f32);
        let params = BlockMatchParams {
            max_disparity: 8,
            max_cost_per_pixel: 0.01,
            ..Default::default()
        };
        let map = block_match(&left, &right, &params).unwrap();
        assert!(map.valid_fraction() < 0.5);
    }

    #[test]
    fn infinite_initial_disparity_clips_like_a_large_finite_one() {
        let (l, r) = constant_disparity_pair(48, 24, 6);
        let params = BlockMatchParams {
            max_disparity: 16,
            ..Default::default()
        };
        let infinite = DisparityMap::constant(48, 24, f32::INFINITY);
        let large = DisparityMap::constant(48, 24, (params.max_disparity + 100) as f32);
        let from_infinite = refine_with_initial(&l, &r, &infinite, &params).unwrap();
        let from_large = refine_with_initial(&l, &r, &large, &params).unwrap();
        assert_eq!(from_infinite, from_large);
    }

    /// Reference winner scan: stores every candidate's cost, then reads the
    /// winner's neighbours back for the parabola.
    fn stored_scan(costs: &[f32], lo: usize, subpixel: bool) -> (f32, f32) {
        let (mut best, mut best_cost) = (0, f32::INFINITY);
        for (i, &cost) in costs.iter().enumerate() {
            if cost < best_cost {
                best = i;
                best_cost = cost;
            }
        }
        let d = (lo + best) as f32;
        if !subpixel || best == 0 || best == costs.len() - 1 {
            return (d, best_cost);
        }
        let (c0, c1, c2) = (costs[best - 1], costs[best], costs[best + 1]);
        let denom = c0 - 2.0 * c1 + c2;
        if denom.abs() < 1e-9 {
            return (d, best_cost);
        }
        (d + (0.5 * (c0 - c2) / denom).clamp(-0.5, 0.5), best_cost)
    }

    /// The tracked-neighbour scan against the stored one, bit for bit, on
    /// cost rows drawn from a few values (ties), with infinities and NaNs.
    #[test]
    fn pick_best_matches_the_stored_cost_scan() {
        let mut rng = SmallRng::seed_from_u64(7);
        let values = [0.0, 1.0, 1.5, 2.0, 4.0, f32::INFINITY, f32::NAN];
        for _ in 0..2000 {
            let n = rng.gen_range(1..12usize);
            let costs: Vec<f32> = (0..n).map(|_| values[rng.gen_range(0..7usize)]).collect();
            let lo = rng.gen_range(0..5usize);
            for subpixel in [true, false] {
                let got = pick_best(lo, lo + n - 1, subpixel, |d| costs[d - lo]);
                let want = stored_scan(&costs, lo, subpixel);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "{costs:?} from {lo}, subpixel {subpixel}"
                );
            }
        }
    }

    /// Every pixel's `(x, y, lo, hi, disparity, cost)` from [`search_row`]
    /// at `level` over the windows `window` gives.
    fn walk_every_row(
        level: SimdLevel,
        left: &Image,
        right: &Image,
        params: &BlockMatchParams,
        window: impl Fn(usize, usize) -> (usize, usize),
    ) -> Vec<(usize, usize, usize, usize, f32, f32)> {
        let mut pad = PaddedPair::new();
        pad.fill(left, right, params.block.radius);
        let mut found = Vec::new();
        for y in 0..left.height() {
            search_row(
                level,
                &pad,
                y,
                left.width(),
                params,
                |x| window(x, y),
                |x, d, cost| {
                    let (lo, hi) = window(x, y);
                    found.push((x, y, lo, hi, d, cost));
                },
            );
        }
        found
    }

    /// The padded walk against the per-candidate reference, bit for bit, at
    /// every SIMD tier, both per pixel and through the matcher's row pass
    /// with its cost limit: images 1-13 px wide (most widths no multiple of
    /// the four-pixel groups) and 1-9 rows high (often shorter than the
    /// block), block radii 0-4, random windows of 1-8 and of 9 or more
    /// candidates, the full-range windows and the refinement windows of
    /// initial maps with invalid, NaN and ±Inf entries, `subpixel` on and
    /// off, and quantized and constant images, whose equal costs force ties.
    #[test]
    fn lane_walk_matches_per_candidate_search() {
        let mut rng = SmallRng::seed_from_u64(16);
        let mut wide_windows = 0usize;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0, 1e9];
        for case in 0..60usize {
            let width = rng.gen_range(1..14usize);
            let height = rng.gen_range(1..10usize);
            let mut pixel = |_: usize, _: usize| match case % 3 {
                0 => rng.gen_range(0.0..1.0f32),
                1 => rng.gen_range(0..3u32) as f32,
                _ => 0.25,
            };
            let left = Image::from_fn(width, height, &mut pixel);
            let right = Image::from_fn(width, height, &mut pixel);
            let initial = DisparityMap::from_fn(width, height, |_, _| {
                if rng.gen_range(0..4u32) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(0.0..14.0f32)
                }
            });
            let spans: Vec<usize> = (0..width * height)
                .map(|_| rng.gen_range(0..20usize))
                .collect();
            let random_window = |x: usize, y: usize| {
                let hi = x.min(spans[y * width + x] % 13 + x / 2);
                (
                    hi.saturating_sub(spans[(y * width + x + 1) % spans.len()]),
                    hi,
                )
            };
            let params = BlockMatchParams {
                block: BlockSpec::new(case % 5),
                max_disparity: rng.gen_range(0..20usize),
                refine_radius: rng.gen_range(0..5usize),
                subpixel: case % 2 == 0,
                max_cost_per_pixel: if case % 4 == 3 { 0.3 } else { f32::INFINITY },
            };
            let windows: [&(dyn Fn(usize, usize) -> (usize, usize) + Sync); 3] =
                [&random_window, &|x, _| full_window(&params, x), &|x, y| {
                    refine_window(&initial, &params, x, y)
                }];
            let cost_limit = params.max_cost_per_pixel * params.block.area() as f32;
            let (mut pad, mut map) = (PaddedPair::new(), DisparityMap::invalid(0, 0));
            for &level in crate::simd::available_levels() {
                for window in windows {
                    let found = walk_every_row(level, &left, &right, &params, window);
                    assert_eq!(found.len(), width * height);
                    match_into(level, &left, &right, &params, &mut pad, &mut map, window);
                    for (i, &(x, y, lo, hi, d, cost)) in found.iter().enumerate() {
                        assert_eq!((x, y), (i % width, i / width));
                        let want = search_per_candidate(&left, &right, x, y, lo, hi, &params);
                        let context = format!(
                            "case {case} ({width}x{height}, r {}) at {} pixel ({x}, {y}) \
                             window {lo}..={hi}",
                            params.block.radius,
                            level.name()
                        );
                        assert_eq!(
                            (d.to_bits(), cost.to_bits()),
                            (want.0.to_bits(), want.1.to_bits()),
                            "{context}"
                        );
                        let kept = if want.1 <= cost_limit {
                            want.0
                        } else {
                            crate::disparity::INVALID_DISPARITY
                        };
                        assert_eq!(map.raw(x, y).to_bits(), kept.to_bits(), "{context}");
                        wide_windows += usize::from(hi - lo >= SAD_LANES);
                    }
                }
            }
        }
        assert!(
            wide_windows > 500,
            "only {wide_windows} windows chained walks"
        );
    }

    #[test]
    fn input_validation() {
        let a = Image::zeros(8, 8);
        let b = Image::zeros(9, 8);
        assert!(block_match(&a, &b, &BlockMatchParams::default()).is_err());
        assert!(block_match(
            &Image::default(),
            &Image::default(),
            &BlockMatchParams::default()
        )
        .is_err());
        let init = DisparityMap::invalid(4, 4);
        assert!(refine_with_initial(&a, &a, &init, &BlockMatchParams::default()).is_err());
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

    /// Integer ground-truth disparity of the pinned scenes: piecewise
    /// constant between 4 and 8.
    fn pinned_truth(x: usize, y: usize) -> usize {
        4 + (x / 8 + y / 6) % 5
    }

    /// A rectified pair with [`pinned_truth`] disparities plus a little
    /// left-image noise, so costs are never exactly zero.
    fn pinned_pair(width: usize, height: usize, seed: u64) -> (Image, Image) {
        let right = Image::from_fn(width, height, |x, y| texture(seed, x, y));
        let left = Image::from_fn(width, height, |x, y| {
            let shifted = right.at_clamped(x as isize - pinned_truth(x, y) as isize, y as isize);
            shifted + 0.05 * texture(seed + 1, x, y)
        });
        (left, right)
    }

    /// A propagated-disparity stand-in: the truth off by -3.7..=+4.3 px, some
    /// scattered invalid pixels and values beyond `max_disparity`, and row 5
    /// all invalid (the only way to reach the full-range fallback).
    fn pinned_initial(width: usize, height: usize) -> DisparityMap {
        DisparityMap::from_fn(width, height, |x, y| {
            if y == 5 || (x + 3 * y) % 11 == 0 {
                crate::disparity::INVALID_DISPARITY
            } else if (x + y) % 17 == 0 {
                30.0
            } else {
                pinned_truth(x, y) as f32 + ((x * 7 + y * 3) % 9) as f32 - 3.7
            }
        })
    }

    /// 64-bit FNV-1a over the bit patterns of a map.
    fn fnv1a(map: &DisparityMap) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for value in map.as_image().as_slice() {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Pins the exact output bits of the refinement search (and of a small
    /// full-range match).  A rewrite of the search that claims bit-identical
    /// output must leave these hashes alone.  The cases cover border pixels,
    /// the `max_disparity.min(x)` clip at the left edge, an all-invalid
    /// initial row, winners at either end of their window, and `subpixel`
    /// on and off.
    #[test]
    fn refine_bits_are_pinned() {
        let mut hashes = Vec::new();
        for (width, height, seed, radius, refine_radius) in [(48, 32, 1, 3, 3), (37, 21, 2, 2, 2)] {
            let (left, right) = pinned_pair(width, height, seed);
            let initial = pinned_initial(width, height);
            for subpixel in [true, false] {
                let params = BlockMatchParams {
                    block: BlockSpec::new(radius),
                    max_disparity: 16,
                    refine_radius,
                    subpixel,
                    ..Default::default()
                };
                let refined = refine_with_initial(&left, &right, &initial, &params).unwrap();
                hashes.push(fnv1a(&refined));
                // Some interior winners sit at an end of their window.
                let at_window_end = (radius..height - radius)
                    .flat_map(|y| (0..width).map(move |x| (x, y)))
                    .filter(|&(x, y)| {
                        let Some(init) = initial.get(x, y) else {
                            return false;
                        };
                        let centre = init.round() as usize;
                        let (lo, hi) =
                            (centre.saturating_sub(refine_radius), centre + refine_radius);
                        let d = refined.raw(x, y);
                        hi <= 16 && x >= hi + radius && (d == lo as f32 || d == hi as f32)
                    })
                    .count();
                assert!(at_window_end > 0, "{width}x{height} subpixel {subpixel}");
            }
            let params = BlockMatchParams {
                block: BlockSpec::new(radius),
                max_disparity: 7,
                ..Default::default()
            };
            hashes.push(fnv1a(&block_match(&left, &right, &params).unwrap()));
        }
        let expected: [u64; 6] = [
            0x29b0_6974_c3a7_1293,
            0x11be_0b47_7898_ca92,
            0x830f_25d4_d9d2_cdaf,
            0x057f_e524_e34e_1c47,
            0x0502_121d_2e93_a9f2,
            0x4620_e019_ee35_2c47,
        ];
        assert_eq!(hashes, expected, "got {hashes:#018x?}");
    }

    #[test]
    fn refinement_is_cheaper_than_full_search() {
        let params = BlockMatchParams::default();
        let full = block_match_op_count(960, 540, &params);
        let refine = refine_op_count(960, 540, &params);
        // With a 64-disparity full search and a ±3 refinement window, the
        // refinement is roughly an order of magnitude cheaper.
        assert!(full > 5 * refine);
        // The ISM paper's estimate: non-key-frame compute ≈ tens of millions of
        // operations at qHD.  The refinement piece alone is within that scale.
        assert!(refine < 1_000_000_000);
    }
}
