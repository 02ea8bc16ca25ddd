//! Runtime-dispatched SIMD kernels for the stereo matchers.
//!
//! Every kernel comes in up to three tiers — portable scalar, SSE4.2
//! (hardware `popcnt`) and AVX2 (256-bit lanes) — selected once per process
//! by [`active_level`]: the strongest tier the CPU supports
//! (`is_x86_feature_detected!`), optionally capped by the `ASV_SIMD`
//! environment variable (`scalar`, `sse4.2`, `avx2`) for debugging and
//! differential testing. On non-x86_64 targets everything compiles to the
//! scalar tier.
//!
//! **Bit-identity contract**: for any input, every tier of a kernel produces
//! byte-identical output. Integer kernels (the 7×7 census transform into
//! `u64` descriptors, their XOR/popcount Hamming costs, `u16` min+penalty
//! aggregation) are exact by construction; the `f32` SAD kernels preserve
//! the scalar per-output summation order (tap-by-tap accumulation, one
//! output per lane), so no reassociation occurs. The differential test
//! suite (`tests/simd_differential.rs`) enforces the contract across widths
//! that exercise the vector remainder lanes.
//!
//! The public kernel entry points take an explicit [`SimdLevel`] so tests can
//! pin a tier; production callers pass [`active_level`].

// The workspace denies `unsafe_code`; explicit `core::arch` intrinsics are
// the one thing that cannot be expressed without it, so the override is
// scoped to this module and every unsafe block documents its invariant.
#![allow(unsafe_code)]

use crate::census::{Reference, WINDOW_RADIUS, WINDOW_SIDE};
use std::sync::OnceLock;

/// Instruction-set tier a kernel runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar code, available everywhere.
    Scalar,
    /// SSE4.2 + hardware `popcnt` (baseline x86-64 lacks `popcnt`, so this
    /// tier accelerates the Hamming-cost kernels even without AVX).
    Sse42,
    /// 256-bit AVX2 integer + FMA-free float lanes.
    Avx2,
}

impl SimdLevel {
    /// Human-readable tier name (reported in benchmarks and logs).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse42 => "sse4.2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The strongest tier this CPU supports.
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if is_x86_feature_detected!("sse4.2") && is_x86_feature_detected!("popcnt") {
            return SimdLevel::Sse42;
        }
        SimdLevel::Scalar
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Every tier up to and including [`detected_level`], weakest first. The
/// differential tests iterate this to compare all runnable dispatch arms.
pub fn available_levels() -> &'static [SimdLevel] {
    match detected_level() {
        SimdLevel::Scalar => &[SimdLevel::Scalar],
        SimdLevel::Sse42 => &[SimdLevel::Scalar, SimdLevel::Sse42],
        SimdLevel::Avx2 => &[SimdLevel::Scalar, SimdLevel::Sse42, SimdLevel::Avx2],
    }
}

/// The tier production kernels dispatch to: [`detected_level`], capped by the
/// `ASV_SIMD` environment variable if set (`scalar` | `sse4.2` | `avx2`;
/// unknown values are ignored, and requesting more than the CPU supports is
/// clamped to what it has). Cached after the first call.
pub fn active_level() -> SimdLevel {
    static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = detected_level();
        match std::env::var("ASV_SIMD") {
            Ok(v) => {
                let requested = match v.to_ascii_lowercase().as_str() {
                    "scalar" => Some(SimdLevel::Scalar),
                    "sse4.2" | "sse42" => Some(SimdLevel::Sse42),
                    "avx2" => Some(SimdLevel::Avx2),
                    _ => None,
                };
                match requested {
                    Some(r) => r.min(detected),
                    None => detected,
                }
            }
            Err(_) => detected,
        }
    })
}

// ---------------------------------------------------------------------------
// f32 kernels for the separable SAD fill
// ---------------------------------------------------------------------------

/// Clamped absolute-difference row for disparity `d`:
/// `out[i] = |l[clamp(i - r)] - r[clamp(i - r - d)]|` with clamping to
/// `[0, width)`. `out.len()` must be `width + 2r` where `width = lrow.len()`.
pub fn abs_diff_row(
    level: SimdLevel,
    lrow: &[f32],
    rrow: &[f32],
    d: usize,
    r: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(lrow.len(), rrow.len());
    debug_assert_eq!(out.len(), lrow.len() + 2 * r);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `Avx2` is only passed by callers that verified CPU
            // support (`active_level` / `available_levels`).
            unsafe { abs_diff_row_avx2(lrow, rrow, d, r, out) }
        }
        _ => abs_diff_row_scalar(lrow, rrow, d, r, out),
    }
}

fn abs_diff_row_scalar(lrow: &[f32], rrow: &[f32], d: usize, r: usize, out: &mut [f32]) {
    let width = lrow.len();
    for (i, slot) in out.iter_mut().enumerate() {
        let u = i as isize - r as isize;
        let lu = u.clamp(0, width as isize - 1) as usize;
        let ru = (u - d as isize).clamp(0, width as isize - 1) as usize;
        *slot = (lrow[lu] - rrow[ru]).abs();
    }
}

/// Sliding-window sums: `out[x] = sum(diff[x..x + window])`, accumulated tap
/// by tap in index order (the bit-identity-relevant order). Requires
/// `diff.len() == out.len() + window - 1`.
pub fn hwindow_sums(level: SimdLevel, diff: &[f32], window: usize, out: &mut [f32]) {
    debug_assert_eq!(diff.len(), out.len() + window - 1);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { hwindow_sums_avx2(diff, window, out) }
        }
        _ => hwindow_sums_scalar(diff, window, out),
    }
}

fn hwindow_sums_scalar(diff: &[f32], window: usize, out: &mut [f32]) {
    for (x, slot) in out.iter_mut().enumerate() {
        *slot = diff[x..x + window].iter().sum();
    }
}

/// Element-wise `acc[i] += row[i]`.
pub fn add_assign_rows(level: SimdLevel, acc: &mut [f32], row: &[f32]) {
    debug_assert_eq!(acc.len(), row.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { add_assign_rows_avx2(acc, row) }
        }
        _ => {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 SAD walks for the block matcher
// ---------------------------------------------------------------------------

/// Candidates one SAD walk sums together, one accumulator lane each.
pub(crate) const SAD_LANES: usize = 8;

/// Sums `walks.len()` blocks of `side × side` absolute differences, each for
/// [`SAD_LANES`] horizontally adjacent right-image positions at once.
///
/// `left` and `right` are planes of row stride `stride`.  Walk `i` is
/// `walks[i] = (l, r)`: the offsets of its block's top-left tap in `left`
/// and of lane 0's in `right`.  Lane `k` of `out[i]` receives, starting from
/// 0.0, `|left[l + row·stride + col] − right[r + row·stride + col + k]|` for
/// every `row` and then every `col` in `0..side`: the tap order of
/// `asv_image::cost::block_sad`, so every tier gives the same bits.  The
/// scalar and SSE4.2 tiers walk one block at a time; the AVX2 tier walks four
/// at once in independent registers, so their adds overlap.
///
/// # Panics
///
/// Panics when `side` is 0, `out` and `walks` differ in length, or a walk
/// would read past the end of its plane.
pub(crate) fn sad_walks(
    level: SimdLevel,
    left: &[f32],
    right: &[f32],
    stride: usize,
    side: usize,
    walks: &[(usize, usize)],
    out: &mut [[f32; SAD_LANES]],
) {
    assert!(side > 0, "empty block");
    assert_eq!(walks.len(), out.len());
    // The bounds the AVX2 tier's unchecked loads rely on, in checked
    // arithmetic so no offset can wrap past them.
    let span = (side - 1)
        .checked_mul(stride)
        .and_then(|rows| rows.checked_add(side));
    let lane_span = span.and_then(|span| span.checked_add(SAD_LANES - 1));
    let (Some(span), Some(lane_span)) = (span, lane_span) else {
        panic!("block span overflows usize");
    };
    let ends_within = |start: usize, len: usize, plane: &[f32]| {
        start.checked_add(len).is_some_and(|end| end <= plane.len())
    };
    for &(l, r) in walks {
        assert!(
            ends_within(l, span, left) && ends_within(r, lane_span, right),
            "walk ({l}, {r}) overruns its plane"
        );
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            for (group, costs) in walks.chunks(4).zip(out.chunks_mut(4)) {
                // A short last group repeats its last walk; the copies'
                // costs are dropped.
                let mut four = [group[group.len() - 1]; 4];
                four[..group.len()].copy_from_slice(group);
                // SAFETY: `Avx2` is only passed by callers that verified CPU
                // support, and every walk was bounds-checked above.
                let sums = unsafe { sad_walks4_avx2(left, right, stride, side, &four) };
                costs.copy_from_slice(&sums[..costs.len()]);
            }
        }
        _ => {
            for (&(l, r), costs) in walks.iter().zip(out) {
                *costs = sad_walk_scalar(left, right, stride, side, l, r);
            }
        }
    }
}

/// One walk of [`sad_walks`].  For one tap the right-image pixels of all
/// lanes are contiguous, so the lane loop vectorizes (two SSE registers at
/// the default target).
fn sad_walk_scalar(
    left: &[f32],
    right: &[f32],
    stride: usize,
    side: usize,
    l: usize,
    r: usize,
) -> [f32; SAD_LANES] {
    let mut acc = [0.0f32; SAD_LANES];
    for row in 0..side {
        let lrow = &left[l + row * stride..][..side];
        let rrow = &right[r + row * stride..][..side + SAD_LANES - 1];
        for (&a, taps) in lrow.iter().zip(rrow.windows(SAD_LANES)) {
            for (lane, &b) in acc.iter_mut().zip(taps) {
                *lane += (a - b).abs();
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Census transform kernels
// ---------------------------------------------------------------------------

/// Census transform of one output row.
///
/// `rows` holds the [`WINDOW_SIDE`] (already row-clamped) source rows of the
/// window, centre row in the middle.  Bit `k` of `out[x]` is set when the
/// `k`-th neighbour (window scanned top-to-bottom, left-to-right, centre
/// skipped) is strictly darker than the centre pixel. Horizontal border
/// clamping replicates the edge columns.
pub fn census_row_u64(level: SimdLevel, rows: &[&[f32]; WINDOW_SIDE], out: &mut [u64]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { census_row_u64_avx2(rows, out) }
        }
        _ => {
            let width = out.len();
            for (x, slot) in out.iter_mut().enumerate() {
                *slot = census_pixel_u64(rows, x, width);
            }
        }
    }
}

/// Scalar census descriptor of pixel `x` (shared by every tier's border
/// handling).
fn census_pixel_u64(rows: &[&[f32]; WINDOW_SIDE], x: usize, width: usize) -> u64 {
    let r = WINDOW_RADIUS as isize;
    let center = rows[WINDOW_RADIUS][x];
    let mut desc = 0u64;
    let mut k = 0u32;
    for (ci, row) in rows.iter().enumerate() {
        for dx in -r..=r {
            if ci == WINDOW_RADIUS && dx == 0 {
                continue;
            }
            let nx = (x as isize + dx).clamp(0, width as isize - 1) as usize;
            if row[nx] < center {
                desc |= 1u64 << k;
            }
            k += 1;
        }
    }
    desc
}

// ---------------------------------------------------------------------------
// Hamming-distance cost kernels
// ---------------------------------------------------------------------------

/// Hamming cost row over `u64` descriptors, one `levels`-long span per pixel
/// of the `reference` view:
///
/// * [`Reference::Left`]: `out[x * levels + d] = popcount(ldesc[x] ^
///   rdesc[max(x - d, 0)])`;
/// * [`Reference::Right`]: `out[x * levels + d] = popcount(rdesc[x] ^
///   ldesc[min(x + d, width - 1)])`.
///
/// `out.len()` must be `ldesc.len() * levels`.  The AVX2 tier fills 16
/// disparities per step.
pub fn hamming_row_u64(
    level: SimdLevel,
    reference: Reference,
    ldesc: &[u64],
    rdesc: &[u64],
    levels: usize,
    out: &mut [u8],
) {
    assert_eq!(ldesc.len(), rdesc.len());
    assert_eq!(out.len(), ldesc.len() * levels);
    if levels == 0 {
        return;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support (which implies popcnt);
            // the slice lengths were checked above.
            unsafe { hamming_row_u64_avx2(reference, ldesc, rdesc, levels, out) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse42 => {
            // SAFETY: caller verified SSE4.2 + popcnt support.
            unsafe { hamming_row_u64_popcnt(reference, ldesc, rdesc, levels, out) }
        }
        _ => hamming_row_scalar(reference, ldesc, rdesc, levels, out),
    }
}

/// The scalar Hamming row.
#[inline]
fn hamming_row_scalar(
    reference: Reference,
    ldesc: &[u64],
    rdesc: &[u64],
    levels: usize,
    out: &mut [u8],
) {
    for (x, span) in out.chunks_exact_mut(levels).enumerate() {
        hamming_span_scalar(reference, ldesc, rdesc, x, 0, span);
    }
}

/// Disparities `from..` of pixel `x`'s span (see [`hamming_row_u64`]); also
/// the border and tail path of the AVX2 tier.
#[inline]
fn hamming_span_scalar(
    reference: Reference,
    ldesc: &[u64],
    rdesc: &[u64],
    x: usize,
    from: usize,
    span: &mut [u8],
) {
    let last = ldesc.len() - 1;
    let (own, other) = match reference {
        Reference::Left => (ldesc[x], rdesc),
        Reference::Right => (rdesc[x], ldesc),
    };
    for (d, slot) in span.iter_mut().enumerate().skip(from) {
        let o = match reference {
            Reference::Left => x.saturating_sub(d),
            Reference::Right => (x + d).min(last),
        };
        *slot = (own ^ other[o]).count_ones() as u8;
    }
}

/// First disparity of the 16-disparity block starting at `d` whose
/// descriptors in the other view all lie inside the row, as the index of
/// the block's lowest-addressed descriptor (`None` when the block clamps at
/// a border).  The block's descriptors are contiguous: descending
/// disparities for [`Reference::Left`], ascending for [`Reference::Right`].
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline]
fn hamming_block_start(reference: Reference, x: usize, d: usize, width: usize) -> Option<usize> {
    match reference {
        Reference::Left => x.checked_sub(d + 15),
        Reference::Right => (x + d + 15 < width).then_some(x + d),
    }
}

// ---------------------------------------------------------------------------
// Integer SGM sweep kernel
// ---------------------------------------------------------------------------

/// One pixel of a census SGM sweep: the recurrences of the sweep's
/// horizontal and vertical path, and their saturating sum.
///
/// Every path span is *guarded*: `levels + 2` cells, the span itself at
/// `1..=levels` between two `u16::MAX` cells that the kernel reads as the
/// neighbours of the end disparities and never writes.  With `m =
/// prev_min`, each path computes, saturating on every addition,
///
/// `out[d] = min(prev[d], prev[d-1]+P1, prev[d+1]+P1, m+P2) - m + cost[d]`,
///
/// so a path's first pixel is this recurrence over an all-zero span with
/// minimum 0, which yields its raw costs.
#[derive(Debug)]
pub struct SweepStep<'a> {
    /// The pixel's `levels` matching costs.
    pub cost: &'a [u8],
    /// Penalty for a one-level disparity change.
    pub p1: u16,
    /// Penalty for a larger disparity change.
    pub p2: u16,
    /// The horizontal path's previous span (guarded).
    pub h_prev: &'a [u16],
    /// The minimum of `h_prev`'s span.
    pub h_min: u16,
    /// The vertical path's previous span (guarded).
    pub v_prev: &'a [u16],
    /// The minimum of `v_prev`'s span.
    pub v_min: u16,
    /// Receives the horizontal path's new span (guarded; the guards are
    /// left alone).
    pub h_out: &'a mut [u16],
    /// Receives the vertical path's new span (guarded).
    pub v_out: &'a mut [u16],
    /// A span added to the sum (the forward sweep's sums, in the backward
    /// sweep), if any.
    pub base: Option<&'a [u16]>,
    /// Receives `h_out[d] + v_out[d] (+ base[d])`, saturating, `levels`
    /// cells.
    pub sum: &'a mut [u16],
}

/// What [`census_sweep_step`] returns besides its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepMins {
    /// The minimum of the new horizontal span.
    pub h: u16,
    /// The minimum of the new vertical span.
    pub v: u16,
    /// With a `base`, the first disparity holding the minimum of `sum` (the
    /// winner of a strict-`<` scan); 0 without one.
    pub best: usize,
}

impl SweepStep<'_> {
    /// Checks the span lengths the vector tier relies on.
    fn check(&self) {
        let levels = self.cost.len();
        assert!(levels > 0, "empty span");
        for path in [self.h_prev, self.v_prev, &*self.h_out, &*self.v_out] {
            assert_eq!(path.len(), levels + 2, "guarded span length");
        }
        assert_eq!(self.sum.len(), levels, "sum length");
        if let Some(base) = self.base {
            assert_eq!(base.len(), levels, "base length");
        }
    }
}

/// One census sweep step at the given tier (see [`SweepStep`]); every tier
/// gives the same spans and minima.
///
/// # Panics
///
/// Panics when a span's length does not match `step.cost`.
pub fn census_sweep_step(level: SimdLevel, step: &mut SweepStep<'_>) -> SweepMins {
    step.check();
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if step.cost.len() >= 16 => {
            // SAFETY: caller verified AVX2 support; the spans were checked
            // above and hold at least 16 levels.
            unsafe { census_sweep_step_avx2(step) }
        }
        _ => census_sweep_step_scalar(step),
    }
}

/// A whole image row of a census sweep at the given tier, each pixel a
/// [`census_sweep_step`] run inline (see [`crate::sgm`]'s `sweep_row`).
pub(crate) fn census_sweep_row(level: SimdLevel, row: crate::sgm::SweepRow<'_>) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if row.levels() >= 16 => {
            // SAFETY: caller verified AVX2 support; the row has at least 16
            // levels.
            unsafe { census_sweep_row_avx2(row) }
        }
        _ => crate::sgm::sweep_row(row, census_sweep_step_scalar),
    }
}

/// One path's recurrence over guarded spans; returns the new span's
/// minimum.
#[inline]
fn sweep_path_scalar(
    prev: &[u16],
    prev_min: u16,
    cost: &[u8],
    p1: u16,
    p2: u16,
    out: &mut [u16],
) -> u16 {
    let jump = prev_min.saturating_add(p2);
    let mut new_min = u16::MAX;
    for (d, (slot, &c)) in out[1..=cost.len()].iter_mut().zip(cost).enumerate() {
        let best = prev[d + 1]
            .min(prev[d].saturating_add(p1))
            .min(prev[d + 2].saturating_add(p1))
            .min(jump);
        // `best >= prev_min`: every candidate is at least the minimum (the
        // guards are `u16::MAX`).
        *slot = (best - prev_min).saturating_add(u16::from(c));
        new_min = new_min.min(*slot);
    }
    new_min
}

#[inline]
fn census_sweep_step_scalar(step: &mut SweepStep<'_>) -> SweepMins {
    let (cost, p1, p2) = (step.cost, step.p1, step.p2);
    let h = sweep_path_scalar(step.h_prev, step.h_min, cost, p1, p2, step.h_out);
    let v = sweep_path_scalar(step.v_prev, step.v_min, cost, p1, p2, step.v_out);
    let levels = cost.len();
    let paths = step.h_out[1..=levels].iter().zip(&step.v_out[1..=levels]);
    let best = match step.base {
        None => {
            for (slot, (&a, &b)) in step.sum.iter_mut().zip(paths) {
                *slot = a.saturating_add(b);
            }
            0
        }
        Some(base) => {
            let mut best = (u16::MAX, 0);
            for (d, ((slot, (&a, &b)), &c)) in step.sum.iter_mut().zip(paths).zip(base).enumerate()
            {
                *slot = a.saturating_add(b).saturating_add(c);
                if *slot < best.0 {
                    best = (*slot, d);
                }
            }
            best.1
        }
    };
    SweepMins { h, v, best }
}

// ---------------------------------------------------------------------------
// x86-64 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::census::{Reference, WINDOW_RADIUS, WINDOW_SIDE};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` (the dispatcher checks
    /// `is_x86_feature_detected!`).  Slice bounds are clamped internally,
    /// so no further preconditions apply.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn abs_diff_row_avx2(
        lrow: &[f32],
        rrow: &[f32],
        d: usize,
        r: usize,
        out: &mut [f32],
    ) {
        let width = lrow.len();
        // Indices i with an unclamped source: i - r in [d, width - 1].
        let lo = (d + r).min(out.len());
        let hi = (width + r).min(out.len()).max(lo);
        super::abs_diff_row_scalar_range(lrow, rrow, d, r, out, 0, lo);
        super::abs_diff_row_scalar_range(lrow, rrow, d, r, out, hi, out.len());
        // SAFETY: for i in [lo, hi), both l[i - r] and r[i - r - d] are in
        // bounds by construction of lo/hi; vector loads read 8 consecutive
        // elements, guarded by `i + 8 <= hi`.
        unsafe {
            let sign = _mm256_set1_ps(-0.0);
            let mut i = lo;
            while i + 8 <= hi {
                let a = _mm256_loadu_ps(lrow.as_ptr().add(i - r));
                let b = _mm256_loadu_ps(rrow.as_ptr().add(i - r - d));
                let v = _mm256_andnot_ps(sign, _mm256_sub_ps(a, b));
                _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
                i += 8;
            }
            super::abs_diff_row_scalar_range(lrow, rrow, d, r, out, i, hi);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`, and that
    /// `diff.len() >= out.len() + window - 1` so every window sum has a
    /// full source span (the call sites size `diff` exactly this way).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn hwindow_sums_avx2(diff: &[f32], window: usize, out: &mut [f32]) {
        let n = out.len();
        let mut x = 0usize;
        // SAFETY: loads cover diff[x + t .. x + t + 8] with x + 8 <= n and
        // t < window, so the furthest read index is n - 1 + window - 1 ==
        // diff.len() - 1.
        unsafe {
            while x + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for t in 0..window {
                    acc = _mm256_add_ps(acc, _mm256_loadu_ps(diff.as_ptr().add(x + t)));
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(x), acc);
                x += 8;
            }
        }
        for (xi, slot) in out.iter_mut().enumerate().skip(x) {
            *slot = diff[xi..xi + window].iter().sum();
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and that
    /// `row.len() >= acc.len()` (the vector tail reads both at the same
    /// indices).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign_rows_avx2(acc: &mut [f32], row: &[f32]) {
        let n = acc.len();
        let mut i = 0usize;
        // SAFETY: loads/stores stay within `i + 8 <= n`.
        unsafe {
            while i + 8 <= n {
                let a = _mm256_loadu_ps(acc.as_ptr().add(i));
                let b = _mm256_loadu_ps(row.as_ptr().add(i));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(a, b));
                i += 8;
            }
        }
        for (a, &v) in acc.iter_mut().zip(row).skip(i) {
            *a += v;
        }
    }

    /// Four walks of [`super::sad_walks`], one ymm accumulator each: per tap
    /// a broadcast left pixel minus eight right pixels, absolute value by
    /// clearing the sign bit, added to the lane as `acc + |a − b|`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`, that `side > 0`, and that
    /// for every walk `(l, r)`, `l + (side - 1) * stride + side <=
    /// left.len()` and `r + (side - 1) * stride + side + 7 <= right.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sad_walks4_avx2(
        left: &[f32],
        right: &[f32],
        stride: usize,
        side: usize,
        walks: &[(usize, usize); 4],
    ) -> [[f32; 8]; 4] {
        let (lp, rp) = (left.as_ptr(), right.as_ptr());
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = [_mm256_setzero_ps(); 4];
        // SAFETY: tap `(row, col)` reads left[l + row * stride + col] and
        // right[r + row * stride + col .. + 8] with row, col < side; the
        // largest indices are the caller-guaranteed bounds minus one.
        unsafe {
            for row in 0..side {
                let base = row * stride;
                for tap in base..base + side {
                    for (sum, &(l, r)) in acc.iter_mut().zip(walks) {
                        let a = _mm256_set1_ps(*lp.add(l + tap));
                        let b = _mm256_loadu_ps(rp.add(r + tap));
                        let diff = _mm256_andnot_ps(sign, _mm256_sub_ps(a, b));
                        *sum = _mm256_add_ps(*sum, diff);
                    }
                }
            }
        }
        let mut out = [[0.0f32; 8]; 4];
        for (lanes, sum) in out.iter_mut().zip(acc) {
            // SAFETY: `lanes` is eight writable f32s.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
        }
        out
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and that every row in
    /// `rows` has at least `out.len()` elements; the border columns fall
    /// back to the clamped scalar path internally.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn census_row_u64_avx2(rows: &[&[f32]; WINDOW_SIDE], out: &mut [u64]) {
        let width = out.len();
        let r = WINDOW_RADIUS as isize;
        let center_row = rows[WINDOW_RADIUS];
        let lo = WINDOW_RADIUS.min(width);
        let hi = width.saturating_sub(WINDOW_RADIUS).max(lo);
        for (x, slot) in out.iter_mut().enumerate().take(lo) {
            *slot = super::census_pixel_u64(rows, x, width);
        }
        for (x, slot) in out.iter_mut().enumerate().skip(hi) {
            *slot = super::census_pixel_u64(rows, x, width);
        }
        let mut x = lo;
        // SAFETY: for x in [lo, hi - 8] every neighbour load x + dx with
        // |dx| <= WINDOW_RADIUS stays within [0, width - 8], so 8-wide
        // unaligned loads and the two 4-wide u64 stores are in bounds.
        unsafe {
            while x + 8 <= hi {
                let center = _mm256_loadu_ps(center_row.as_ptr().add(x));
                let mut acc_lo = _mm256_setzero_si256();
                let mut acc_hi = _mm256_setzero_si256();
                let mut k = 0u32;
                for (ci, row) in rows.iter().enumerate() {
                    for dx in -r..=r {
                        if ci == WINDOW_RADIUS && dx == 0 {
                            continue;
                        }
                        let nb = _mm256_loadu_ps(row.as_ptr().offset(x as isize + dx));
                        let m = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(nb, center));
                        let wlo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m));
                        let whi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(m));
                        let bit = _mm256_set1_epi64x(1i64 << k);
                        acc_lo = _mm256_or_si256(acc_lo, _mm256_and_si256(wlo, bit));
                        acc_hi = _mm256_or_si256(acc_hi, _mm256_and_si256(whi, bit));
                        k += 1;
                    }
                }
                _mm256_storeu_si256(out.as_mut_ptr().add(x).cast(), acc_lo);
                _mm256_storeu_si256(out.as_mut_ptr().add(x + 4).cast(), acc_hi);
                x += 8;
            }
        }
        for (xi, slot) in out.iter_mut().enumerate().take(hi).skip(x) {
            *slot = super::census_pixel_u64(rows, xi, width);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `sse4.2` and `popcnt`; the body
    /// is the safe scalar kernel, recompiled with hardware popcount.
    #[target_feature(enable = "sse4.2", enable = "popcnt")]
    pub(super) unsafe fn hamming_row_u64_popcnt(
        reference: Reference,
        ldesc: &[u64],
        rdesc: &[u64],
        levels: usize,
        out: &mut [u8],
    ) {
        // Same source as the scalar tier; `count_ones` compiles to the
        // hardware `popcnt` instruction inside this target_feature scope.
        super::hamming_row_scalar(reference, ldesc, rdesc, levels, out);
    }

    /// Per-byte popcount via the nibble-LUT `vpshufb` trick.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn popcnt_epi8(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    /// Byte `k` of the 16-disparity block at `d` comes from packed byte
    /// `MASK[k]`; see the kernel below for the packed layout.
    const U64_LEFT: [u8; 16] = [15, 11, 7, 3, 14, 10, 6, 2, 13, 9, 5, 1, 12, 8, 4, 0];
    const U64_RIGHT: [u8; 16] = [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15];

    /// Sixteen disparities per step.  The block's 16 descriptors of the
    /// other view are contiguous; register `i` holds descriptors `4i..4i+4`
    /// and its 64-bit lane `j` their popcount, `vpsadbw`-summed.  Shifting
    /// register `i` left by `8i` bits and OR-ing packs descriptor `4i + j`'s
    /// count into byte `i` of lane `j`; `vpermd` gathers the four lanes'
    /// low dwords, so descriptor `e` lands at byte `4 (e % 4) + e / 4`, and
    /// one `pshufb` orders the bytes by disparity (descriptor `15 - k` for
    /// the left reference, `k` for the right).
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and that `ldesc.len() ==
    /// rdesc.len()` with `out.len() == ldesc.len() * levels`.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub(super) unsafe fn hamming_row_u64_avx2(
        reference: Reference,
        ldesc: &[u64],
        rdesc: &[u64],
        levels: usize,
        out: &mut [u8],
    ) {
        let width = ldesc.len();
        let (own_row, other, mask) = match reference {
            Reference::Left => (ldesc, rdesc, U64_LEFT),
            Reference::Right => (rdesc, ldesc, U64_RIGHT),
        };
        // SAFETY: `mask` is 16 readable bytes.
        let mask = unsafe { _mm_loadu_si128(mask.as_ptr().cast()) };
        let gather = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        for (x, span) in out.chunks_exact_mut(levels).enumerate() {
            let own = _mm256_set1_epi64x(own_row[x] as i64);
            let mut d = 0;
            while d + 16 <= levels {
                let Some(start) = super::hamming_block_start(reference, x, d, width) else {
                    break;
                };
                // SAFETY: `hamming_block_start` returns a start with
                // `start + 16 <= width`, so the four 4-wide loads stay in
                // `other`; the 16-byte store ends at `d + 16 <= levels`.
                unsafe {
                    let count = |i: usize| {
                        let block = _mm256_loadu_si256(other.as_ptr().add(start + 4 * i).cast());
                        popcnt_epi64(_mm256_xor_si256(own, block))
                    };
                    let packed = _mm256_or_si256(
                        _mm256_or_si256(count(0), _mm256_slli_epi64::<8>(count(1))),
                        _mm256_or_si256(
                            _mm256_slli_epi64::<16>(count(2)),
                            _mm256_slli_epi64::<24>(count(3)),
                        ),
                    );
                    let low = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(packed, gather));
                    _mm_storeu_si128(span.as_mut_ptr().add(d).cast(), _mm_shuffle_epi8(low, mask));
                }
                d += 16;
            }
            super::hamming_span_scalar(reference, ldesc, rdesc, x, d, span);
        }
    }

    /// Per-64-bit-lane popcount: byte counts reduced with `vpsadbw`;
    /// exactly matches `u64::count_ones` per lane.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`; the body is pure
    /// register arithmetic with no memory access.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn popcnt_epi64(v: __m256i) -> __m256i {
        _mm256_sad_epu8(popcnt_epi8(v), _mm256_setzero_si256())
    }

    /// The minimum of a vector's sixteen `u16` lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn min_epu16(v: __m256i) -> u16 {
        let halves = _mm_min_epu16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        _mm_extract_epi16::<0>(_mm_minpos_epu16(halves)) as u16
    }

    /// A whole sweep row with [`census_sweep_step_avx2`] inlined into
    /// `sweep_row`'s pixel loop.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and that the row has at
    /// least 16 levels.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn census_sweep_row_avx2(row: crate::sgm::SweepRow<'_>) {
        // SAFETY: AVX2 support and `levels >= 16` are this function's
        // preconditions, and `sweep_row` cuts every span of a step to
        // `levels` or `levels + 2` cells (the lengths `SweepStep::check`
        // asserts).
        crate::sgm::sweep_row(row, |step| unsafe { census_sweep_step_avx2(step) });
    }

    /// [`super::census_sweep_step`] in 16-level chunks: both paths'
    /// recurrences, their sum and the running minima share each chunk's
    /// registers; a last chunk that would pass the end is moved back to end
    /// at `levels`, recomputing some levels with the same values.  The
    /// minima reduce with `phminposuw`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`, that `step` passed
    /// [`super::SweepStep::check`] and that it has at least 16 levels.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn census_sweep_step_avx2(
        step: &mut super::SweepStep<'_>,
    ) -> super::SweepMins {
        let levels = step.cost.len();
        let p1 = _mm256_set1_epi16(step.p1 as i16);
        let h_jump = _mm256_set1_epi16(step.h_min.saturating_add(step.p2) as i16);
        let v_jump = _mm256_set1_epi16(step.v_min.saturating_add(step.p2) as i16);
        let h_floor = _mm256_set1_epi16(step.h_min as i16);
        let v_floor = _mm256_set1_epi16(step.v_min as i16);
        let mut h_mins = _mm256_set1_epi16(-1);
        let mut v_mins = _mm256_set1_epi16(-1);
        let mut sum_mins = _mm256_set1_epi16(-1);
        let sum = step.sum.as_mut_ptr();
        // SAFETY: each chunk covers levels `dd..dd + 16` with `dd + 16 <=
        // levels`: the guarded spans are read at `dd..dd + 18 <= levels +
        // 2` and written at `1 + dd..17 + dd <= levels + 1`, the 16-byte
        // cost load and the sum and base accesses end at `dd + 16`
        // (lengths checked by `SweepStep::check`).
        unsafe {
            let path = |prev: *const u16, jump: __m256i, floor: __m256i, cost: __m256i| {
                let same = _mm256_loadu_si256(prev.add(1).cast());
                let minus = _mm256_adds_epu16(_mm256_loadu_si256(prev.cast()), p1);
                let plus = _mm256_adds_epu16(_mm256_loadu_si256(prev.add(2).cast()), p1);
                let best =
                    _mm256_min_epu16(_mm256_min_epu16(same, jump), _mm256_min_epu16(minus, plus));
                _mm256_adds_epu16(_mm256_subs_epu16(best, floor), cost)
            };
            let mut d = 0;
            while d < levels {
                let dd = d.min(levels - 16);
                let cost = _mm256_cvtepu8_epi16(_mm_loadu_si128(step.cost.as_ptr().add(dd).cast()));
                let h = path(step.h_prev.as_ptr().add(dd), h_jump, h_floor, cost);
                let v = path(step.v_prev.as_ptr().add(dd), v_jump, v_floor, cost);
                _mm256_storeu_si256(step.h_out.as_mut_ptr().add(1 + dd).cast(), h);
                _mm256_storeu_si256(step.v_out.as_mut_ptr().add(1 + dd).cast(), v);
                let mut total = _mm256_adds_epu16(h, v);
                if let Some(base) = step.base {
                    total =
                        _mm256_adds_epu16(total, _mm256_loadu_si256(base.as_ptr().add(dd).cast()));
                }
                _mm256_storeu_si256(sum.add(dd).cast(), total);
                h_mins = _mm256_min_epu16(h_mins, h);
                v_mins = _mm256_min_epu16(v_mins, v);
                sum_mins = _mm256_min_epu16(sum_mins, total);
                d = dd + 16;
            }
        }
        let mut best = 0;
        if step.base.is_some() {
            // The first chunk holding the minimum holds its first level:
            // chunks ascend, and a moved-back last chunk only repeats
            // levels an earlier chunk already held.
            let target = _mm256_set1_epi16(min_epu16(sum_mins) as i16);
            let mut d = 0;
            while d < levels {
                let dd = d.min(levels - 16);
                // SAFETY: the load covers `dd..dd + 16 <= levels` of `sum`.
                let chunk = unsafe { _mm256_loadu_si256(sum.add(dd).cast()) };
                let hits = _mm256_movemask_epi8(_mm256_cmpeq_epi16(chunk, target)) as u32;
                if hits != 0 {
                    best = dd + hits.trailing_zeros() as usize / 2;
                    break;
                }
                d = dd + 16;
            }
        }
        super::SweepMins {
            h: min_epu16(h_mins),
            v: min_epu16(v_mins),
            best,
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    abs_diff_row_avx2, add_assign_rows_avx2, census_row_u64_avx2, census_sweep_row_avx2,
    census_sweep_step_avx2, hamming_row_u64_avx2, hamming_row_u64_popcnt, hwindow_sums_avx2,
    sad_walks4_avx2,
};

/// Scalar abs-diff over a sub-range of `out` (border handling shared by the
/// vector tiers).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn abs_diff_row_scalar_range(
    lrow: &[f32],
    rrow: &[f32],
    d: usize,
    r: usize,
    out: &mut [f32],
    from: usize,
    to: usize,
) {
    let width = lrow.len();
    for (i, slot) in out.iter_mut().enumerate().take(to).skip(from) {
        let u = i as isize - r as isize;
        let lu = u.clamp(0, width as isize - 1) as usize;
        let ru = (u - d as isize).clamp(0, width as isize - 1) as usize;
        *slot = (lrow[lu] - rrow[ru]).abs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_names() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse42);
        assert!(SimdLevel::Sse42 < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&detected_level()));
        assert!(active_level() <= detected_level());
    }

    #[test]
    fn hamming_tiers_agree_on_small_input() {
        let ldesc: Vec<u64> = (0..41u64)
            .map(|x| x.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let rdesc: Vec<u64> = (0..41u64)
            .map(|x| x.wrapping_mul(0xc2b2ae3d27d4eb4f))
            .collect();
        for reference in [Reference::Left, Reference::Right] {
            for levels in [9, 16, 33] {
                let mut expected = vec![0u8; ldesc.len() * levels];
                hamming_row_u64(
                    SimdLevel::Scalar,
                    reference,
                    &ldesc,
                    &rdesc,
                    levels,
                    &mut expected,
                );
                for &level in available_levels() {
                    let mut got = vec![0u8; expected.len()];
                    hamming_row_u64(level, reference, &ldesc, &rdesc, levels, &mut got);
                    assert_eq!(
                        got,
                        expected,
                        "{reference:?} {levels} level {}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_step_tiers_agree_on_small_input() {
        let levels = 33;
        let guarded = |f: &dyn Fn(u16) -> u16| -> Vec<u16> {
            let mut span = vec![u16::MAX; levels + 2];
            for d in 0..levels as u16 {
                span[d as usize + 1] = f(d);
            }
            span
        };
        let h_prev = guarded(&|d| (d * 7 + 3) % 64);
        let v_prev = guarded(&|d| (d * 11 + 5) % 61);
        let base: Vec<u16> = (0..levels as u16).map(|d| (d * 13 + 1) % 50).collect();
        let cost: Vec<u8> = (0..levels as u8).map(|d| (d * 5 + 1) % 63).collect();
        let run = |level: SimdLevel, base: Option<&[u16]>| {
            let (mut h_out, mut v_out) = (vec![u16::MAX; levels + 2], vec![u16::MAX; levels + 2]);
            let mut sum = vec![0u16; levels];
            let mins = census_sweep_step(
                level,
                &mut SweepStep {
                    cost: &cost,
                    p1: 2,
                    p2: 32,
                    h_prev: &h_prev,
                    h_min: *h_prev.iter().min().unwrap(),
                    v_prev: &v_prev,
                    v_min: *v_prev.iter().min().unwrap(),
                    h_out: &mut h_out,
                    v_out: &mut v_out,
                    base,
                    sum: &mut sum,
                },
            );
            (mins, h_out, v_out, sum)
        };
        for base in [None, Some(&base[..])] {
            let expected = run(SimdLevel::Scalar, base);
            for &level in available_levels() {
                assert_eq!(run(level, base), expected, "level {}", level.name());
            }
        }
    }
}
