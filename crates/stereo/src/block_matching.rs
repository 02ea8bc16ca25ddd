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

use crate::disparity::{DisparityMap, StereoError};
use crate::Result;
use asv_image::cost::{block_sad, sad_ops_per_block, BlockSpec};
use asv_image::Image;
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

/// Candidates the lane walk of [`search_range`] evaluates together: one
/// accumulator lane each, filling two SSE registers or one AVX2 register.
const LANES: usize = 8;

/// Searches disparities `lo..=hi` for the best SAD match of the block centred
/// at `(x, y)`, returning `(best_disparity, best_cost)` with optional
/// parabolic sub-pixel refinement.  Windows the lane walk can take
/// ([`lane_costs`]) are summed in one pass over the block; the rest go
/// candidate by candidate ([`search_per_candidate`]).  Both give the same
/// bits.
fn search_range(
    left: &Image,
    right: &Image,
    x: usize,
    y: usize,
    lo: usize,
    hi: usize,
    params: &BlockMatchParams,
) -> (f32, f32) {
    match lane_costs(left, right, x, y, lo, hi, params.block) {
        Some(lanes) => pick_best(lo, hi, params.subpixel, |d| lanes[hi - d]),
        None => search_per_candidate(left, right, x, y, lo, hi, params),
    }
}

/// The reference search: one [`block_sad`] per candidate.  It serves border
/// pixels and windows wider than [`LANES`], and the tests compare the lane
/// walk against it.
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
        block_sad(
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

/// SAD costs of the candidates `lo..=hi` in one walk of the block, lane `k`
/// holding disparity `hi - k`; `None` unless the window fits in [`LANES`]
/// and every lane's block (the unused lanes' too) lies inside the images.
/// For one block tap the right-image pixels of all lanes are contiguous, so
/// the lane loop vectorizes, and each lane receives the same adds in the
/// same order as [`block_sad`]'s interior path: the costs are bit-identical.
fn lane_costs(
    left: &Image,
    right: &Image,
    x: usize,
    y: usize,
    lo: usize,
    hi: usize,
    block: BlockSpec,
) -> Option<[f32; LANES]> {
    let r = block.radius;
    let (width, height) = (left.width(), left.height());
    let fits = hi - lo < LANES
        && y >= r
        && y + r < height
        && x >= hi + r
        && x + r < width
        && x - hi + (LANES - 1) + r < width;
    if !fits {
        return None;
    }
    let side = 2 * r + 1;
    let (lpix, rpix) = (left.as_slice(), right.as_slice());
    let mut acc = [0.0f32; LANES];
    for row in y - r..=y + r {
        let lrow = &lpix[row * width + x - r..][..side];
        let rrow = &rpix[row * width + x - hi - r..][..side + LANES - 1];
        for (&a, taps) in lrow.iter().zip(rrow.windows(LANES)) {
            for (lane, &b) in acc.iter_mut().zip(taps) {
                *lane += (a - b).abs();
            }
        }
    }
    Some(acc)
}

/// Winner-take-all over the candidates `lo..=hi` in ascending order, keeping
/// the first minimum (strict `<`, so ties go to the smallest disparity), with
/// parabolic sub-pixel refinement from the winner's two neighbours, which the
/// scan tracks as it goes.
fn pick_best(
    lo: usize,
    hi: usize,
    subpixel: bool,
    mut cost_of: impl FnMut(usize) -> f32,
) -> (f32, f32) {
    let mut best_d = lo;
    let mut best_cost = f32::INFINITY;
    let (mut previous, mut before, mut after) = (f32::INFINITY, f32::INFINITY, f32::INFINITY);
    for d in lo..=hi {
        let cost = cost_of(d);
        if d == best_d + 1 {
            after = cost;
        }
        if cost < best_cost {
            best_cost = cost;
            best_d = d;
            before = previous;
        }
        previous = cost;
    }
    if !subpixel || best_d == lo || best_d == hi {
        return (best_d as f32, best_cost);
    }
    let denom = before - 2.0 * best_cost + after;
    if denom.abs() < 1e-9 {
        return (best_d as f32, best_cost);
    }
    let offset = (0.5 * (before - after) / denom).clamp(-0.5, 0.5);
    (best_d as f32 + offset, best_cost)
}

/// Evaluates a per-pixel matcher over the whole image, writing straight into
/// the rows of a reusable output map.  Rows are independent, so with the
/// `parallel` feature they are distributed over the rayon pool; either way
/// the pass allocates nothing and the produced values are identical.
/// Pixels map to [`crate::disparity::INVALID_DISPARITY`] when no match
/// qualifies.
fn match_per_pixel_into(
    width: usize,
    height: usize,
    out: &mut DisparityMap,
    per_pixel: impl Fn(usize, usize) -> f32 + Sync,
) {
    // Every pixel is assigned by the per-pixel matcher (invalid pixels get
    // the marker value directly), so the plane needs no fill.
    out.reshape_scratch(width, height);
    let data = out.as_image_mut().as_mut_slice();
    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        data.par_chunks_mut(width).enumerate().for_each(|(y, row)| {
            for (x, slot) in row.iter_mut().enumerate() {
                *slot = per_pixel(x, y);
            }
        });
    }
    #[cfg(not(feature = "parallel"))]
    for (y, row) in data.chunks_mut(width).enumerate() {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = per_pixel(x, y);
        }
    }
}

/// Full-range local block matching over disparities `0..=max_disparity`.
///
/// # Errors
///
/// Returns [`StereoError::DimensionMismatch`] for mismatched image sizes and
/// [`StereoError::InvalidParameter`] for empty images.
pub fn block_match(left: &Image, right: &Image, params: &BlockMatchParams) -> Result<DisparityMap> {
    let mut out = DisparityMap::invalid(0, 0);
    block_match_into(left, right, params, &mut out)?;
    Ok(out)
}

/// [`block_match`] writing into a reusable output map: identical output, no
/// allocation once the map is warm.
///
/// # Errors
///
/// Same conditions as [`block_match`].
pub fn block_match_into(
    left: &Image,
    right: &Image,
    params: &BlockMatchParams,
    out: &mut DisparityMap,
) -> Result<()> {
    check_pair(left, right)?;
    let cost_limit = params.max_cost_per_pixel * params.block.area() as f32;
    match_per_pixel_into(left.width(), left.height(), out, |x, y| {
        let hi = params.max_disparity.min(x);
        let (d, cost) = search_range(left, right, x, y, 0, hi, params);
        if cost <= cost_limit {
            d
        } else {
            crate::disparity::INVALID_DISPARITY
        }
    });
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
    refine_with_initial_into(left, right, initial, params, &mut out)?;
    Ok(out)
}

/// [`refine_with_initial`] writing into a reusable output map: identical
/// output, no allocation once the map is warm.  This is the ISM
/// non-key-frame hot path.
///
/// # Errors
///
/// Same conditions as [`refine_with_initial`].
pub fn refine_with_initial_into(
    left: &Image,
    right: &Image,
    initial: &DisparityMap,
    params: &BlockMatchParams,
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
    let cost_limit = params.max_cost_per_pixel * params.block.area() as f32;
    match_per_pixel_into(left.width(), left.height(), out, |x, y| {
        let (lo, hi) = match initial.get(x, y) {
            Some(init) => {
                // `as usize` saturates, so a huge or infinite initial
                // disparity must not overflow the window's upper end.
                let centre = init.round().max(0.0) as usize;
                let lo = centre.saturating_sub(params.refine_radius);
                let hi = centre
                    .saturating_add(params.refine_radius)
                    .min(params.max_disparity)
                    .min(x);
                (lo.min(hi), hi)
            }
            None => (0, params.max_disparity.min(x)),
        };
        let (d, cost) = search_range(left, right, x, y, lo, hi, params);
        if cost <= cost_limit {
            d
        } else {
            crate::disparity::INVALID_DISPARITY
        }
    });
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

    /// The lane walk against the per-candidate reference, bit for bit:
    /// random images whose widths straddle the 8-lane boundary, block radii
    /// 0-4, windows of 1-8 and of 9 or more candidates, `subpixel` on and
    /// off, and quantized and constant images, whose equal costs force ties.
    #[test]
    fn lane_walk_matches_per_candidate_search() {
        let mut rng = SmallRng::seed_from_u64(16);
        let mut lane_searches = 0usize;
        for case in 0..30usize {
            let width = rng.gen_range(4..28usize);
            let height = rng.gen_range(1..10usize);
            let mut pixel = |_: usize, _: usize| match case % 3 {
                0 => rng.gen_range(0.0..1.0f32),
                1 => rng.gen_range(0..3u32) as f32,
                _ => 0.25,
            };
            let left = Image::from_fn(width, height, &mut pixel);
            let right = Image::from_fn(width, height, &mut pixel);
            let block = BlockSpec::new(case % 5);
            for subpixel in [true, false] {
                let params = BlockMatchParams {
                    block,
                    subpixel,
                    ..Default::default()
                };
                for (x, y) in (0..height).flat_map(|y| (0..width).map(move |x| (x, y))) {
                    for lo in 0..=x {
                        for hi in lo..=(lo + 9).min(x) {
                            let got = search_range(&left, &right, x, y, lo, hi, &params);
                            let want = search_per_candidate(&left, &right, x, y, lo, hi, &params);
                            assert_eq!(
                                (got.0.to_bits(), got.1.to_bits()),
                                (want.0.to_bits(), want.1.to_bits()),
                                "case {case} ({width}x{height}, r {}) pixel ({x}, {y}) window {lo}..={hi}",
                                block.radius
                            );
                            lane_searches += usize::from(
                                lane_costs(&left, &right, x, y, lo, hi, block).is_some(),
                            );
                        }
                    }
                }
            }
        }
        assert!(
            lane_searches > 10_000,
            "only {lane_searches} searches took the lane walk"
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
