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
//! byte-identical output. Integer kernels (census compare/XOR/popcount,
//! `u16` min+penalty aggregation) are exact by construction; the `f32` SAD
//! kernels preserve the scalar per-output summation order (tap-by-tap
//! accumulation, one output per lane), so no reassociation occurs. The
//! differential test suite (`tests/simd_differential.rs`) enforces the
//! contract across widths that exercise the vector remainder lanes.
//!
//! The public kernel entry points take an explicit [`SimdLevel`] so tests can
//! pin a tier; production callers pass [`active_level`].

// The workspace denies `unsafe_code`; explicit `core::arch` intrinsics are
// the one thing that cannot be expressed without it, so the override is
// scoped to this module and every unsafe block documents its invariant.
#![allow(unsafe_code)]

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

/// Census transform of one output row into `u64` descriptors.
///
/// `rows` holds the `2·ry + 1` (already row-clamped) source rows of the
/// window, centre at index `rows.len() / 2`; `rx` is the horizontal radius.
/// Bit `k` of `out[x]` is set when the `k`-th neighbour (window scanned
/// top-to-bottom, left-to-right, centre skipped) is strictly darker than the
/// centre pixel. Horizontal border clamping replicates the edge columns.
pub fn census_row_u64(level: SimdLevel, rows: &[&[f32]], rx: usize, out: &mut [u64]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { census_row_u64_avx2(rows, rx, out) }
        }
        _ => {
            let width = out.len();
            for (x, slot) in out.iter_mut().enumerate() {
                *slot = census_pixel_u64(rows, rx, x, width);
            }
        }
    }
}

/// Census transform of one output row into `u32` descriptors (windows of at
/// most 31 comparison bits, i.e. 5×5).
pub fn census_row_u32(level: SimdLevel, rows: &[&[f32]], rx: usize, out: &mut [u32]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { census_row_u32_avx2(rows, rx, out) }
        }
        _ => {
            let width = out.len();
            for (x, slot) in out.iter_mut().enumerate() {
                *slot = census_pixel_u64(rows, rx, x, width) as u32;
            }
        }
    }
}

/// Scalar census descriptor of pixel `x` (shared by every tier's border
/// handling).
fn census_pixel_u64(rows: &[&[f32]], rx: usize, x: usize, width: usize) -> u64 {
    let ry = rows.len() / 2;
    let center = rows[ry][x];
    let mut desc = 0u64;
    let mut k = 0u32;
    for (ci, row) in rows.iter().enumerate() {
        for dx in -(rx as isize)..=(rx as isize) {
            if ci == ry && dx == 0 {
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

/// Hamming cost row over `u64` descriptors:
/// `out[x * levels + d] = popcount(ldesc[x] ^ rdesc[clamp(x - d, 0)])`.
/// `out.len()` must be `ldesc.len() * levels`.
pub fn hamming_row_u64(
    level: SimdLevel,
    ldesc: &[u64],
    rdesc: &[u64],
    levels: usize,
    out: &mut [u8],
) {
    debug_assert_eq!(ldesc.len(), rdesc.len());
    debug_assert_eq!(out.len(), ldesc.len() * levels);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support (which implies popcnt).
            unsafe { hamming_row_u64_avx2(ldesc, rdesc, levels, out) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse42 => {
            // SAFETY: caller verified SSE4.2 + popcnt support.
            unsafe { hamming_row_u64_popcnt(ldesc, rdesc, levels, out) }
        }
        _ => hamming_row_u64_scalar(ldesc, rdesc, levels, out),
    }
}

/// Hamming cost row over `u32` descriptors (see [`hamming_row_u64`]).
pub fn hamming_row_u32(
    level: SimdLevel,
    ldesc: &[u32],
    rdesc: &[u32],
    levels: usize,
    out: &mut [u8],
) {
    debug_assert_eq!(ldesc.len(), rdesc.len());
    debug_assert_eq!(out.len(), ldesc.len() * levels);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { hamming_row_u32_avx2(ldesc, rdesc, levels, out) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse42 => {
            // SAFETY: caller verified SSE4.2 + popcnt support.
            unsafe { hamming_row_u32_popcnt(ldesc, rdesc, levels, out) }
        }
        _ => hamming_row_u32_scalar(ldesc, rdesc, levels, out),
    }
}

fn hamming_row_u64_scalar(ldesc: &[u64], rdesc: &[u64], levels: usize, out: &mut [u8]) {
    for (x, &l) in ldesc.iter().enumerate() {
        let base = x * levels;
        for d in 0..levels {
            let rx = x.saturating_sub(d);
            out[base + d] = (l ^ rdesc[rx]).count_ones() as u8;
        }
    }
}

fn hamming_row_u32_scalar(ldesc: &[u32], rdesc: &[u32], levels: usize, out: &mut [u8]) {
    for (x, &l) in ldesc.iter().enumerate() {
        let base = x * levels;
        for d in 0..levels {
            let rx = x.saturating_sub(d);
            out[base + d] = (l ^ rdesc[rx]).count_ones() as u8;
        }
    }
}

// ---------------------------------------------------------------------------
// Integer SGM aggregation kernel
// ---------------------------------------------------------------------------

/// One pixel of the integer SGM recurrence over census costs:
///
/// `out[d] = (min(prev[d], prev[d-1]+P1, prev[d+1]+P1, min(prev)+P2)
///            - min(prev)).saturating_add(cost[d])`
///
/// with `u16::saturating_add` semantics on every addition. `prev`, `cost`
/// and `out` all have `levels` elements.
pub fn census_aggregate_span(
    level: SimdLevel,
    prev: &[u16],
    cost: &[u8],
    p1: u16,
    p2: u16,
    out: &mut [u16],
) {
    debug_assert_eq!(prev.len(), out.len());
    debug_assert_eq!(cost.len(), out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: caller verified AVX2 support.
            unsafe { census_aggregate_span_avx2(prev, cost, p1, p2, out) }
        }
        _ => census_aggregate_span_scalar(prev, cost, p1, p2, out),
    }
}

fn census_aggregate_span_scalar(prev: &[u16], cost: &[u8], p1: u16, p2: u16, out: &mut [u16]) {
    let levels = prev.len();
    let prev_min = prev.iter().copied().min().unwrap_or(0);
    let jump = prev_min.saturating_add(p2);
    for d in 0..levels {
        let mut best = prev[d];
        if d > 0 {
            best = best.min(prev[d - 1].saturating_add(p1));
        }
        if d + 1 < levels {
            best = best.min(prev[d + 1].saturating_add(p1));
        }
        best = best.min(jump);
        // `best >= prev_min` because every candidate is >= the row minimum.
        out[d] = (best - prev_min).saturating_add(cost[d] as u16);
    }
}

// ---------------------------------------------------------------------------
// x86-64 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
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
    pub(super) unsafe fn census_row_u64_avx2(rows: &[&[f32]], rx: usize, out: &mut [u64]) {
        let width = out.len();
        let ry = rows.len() / 2;
        let center_row = rows[ry];
        let lo = rx.min(width);
        let hi = width.saturating_sub(rx).max(lo);
        for (x, slot) in out.iter_mut().enumerate().take(lo) {
            *slot = super::census_pixel_u64(rows, rx, x, width);
        }
        for (x, slot) in out.iter_mut().enumerate().skip(hi) {
            *slot = super::census_pixel_u64(rows, rx, x, width);
        }
        let mut x = lo;
        // SAFETY: for x in [lo, hi - 8] every neighbour load x + dx with
        // |dx| <= rx stays within [0, width - 8], so 8-wide unaligned loads
        // and the two 4-wide u64 stores are in bounds.
        unsafe {
            while x + 8 <= hi {
                let center = _mm256_loadu_ps(center_row.as_ptr().add(x));
                let mut acc_lo = _mm256_setzero_si256();
                let mut acc_hi = _mm256_setzero_si256();
                let mut k = 0u32;
                for (ci, row) in rows.iter().enumerate() {
                    for dx in -(rx as isize)..=(rx as isize) {
                        if ci == ry && dx == 0 {
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
            *slot = super::census_pixel_u64(rows, rx, xi, width);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and that every row in
    /// `rows` has at least `out.len()` elements, as for the u64 variant.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn census_row_u32_avx2(rows: &[&[f32]], rx: usize, out: &mut [u32]) {
        let width = out.len();
        let ry = rows.len() / 2;
        let center_row = rows[ry];
        let lo = rx.min(width);
        let hi = width.saturating_sub(rx).max(lo);
        for (x, slot) in out.iter_mut().enumerate().take(lo) {
            *slot = super::census_pixel_u64(rows, rx, x, width) as u32;
        }
        for (x, slot) in out.iter_mut().enumerate().skip(hi) {
            *slot = super::census_pixel_u64(rows, rx, x, width) as u32;
        }
        let mut x = lo;
        // SAFETY: same bounds argument as the u64 variant; one 8-wide u32
        // store per iteration.
        unsafe {
            while x + 8 <= hi {
                let center = _mm256_loadu_ps(center_row.as_ptr().add(x));
                let mut acc = _mm256_setzero_si256();
                let mut k = 0u32;
                for (ci, row) in rows.iter().enumerate() {
                    for dx in -(rx as isize)..=(rx as isize) {
                        if ci == ry && dx == 0 {
                            continue;
                        }
                        let nb = _mm256_loadu_ps(row.as_ptr().offset(x as isize + dx));
                        let m = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(nb, center));
                        let bit = _mm256_set1_epi32(1i32 << k);
                        acc = _mm256_or_si256(acc, _mm256_and_si256(m, bit));
                        k += 1;
                    }
                }
                _mm256_storeu_si256(out.as_mut_ptr().add(x).cast(), acc);
                x += 8;
            }
        }
        for (xi, slot) in out.iter_mut().enumerate().take(hi).skip(x) {
            *slot = super::census_pixel_u64(rows, rx, xi, width) as u32;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `sse4.2` and `popcnt`; the body
    /// is the safe scalar kernel, recompiled with hardware popcount.
    #[target_feature(enable = "sse4.2", enable = "popcnt")]
    pub(super) unsafe fn hamming_row_u64_popcnt(
        ldesc: &[u64],
        rdesc: &[u64],
        levels: usize,
        out: &mut [u8],
    ) {
        // Same source as the scalar tier; `count_ones` compiles to the
        // hardware `popcnt` instruction inside this target_feature scope.
        super::hamming_row_u64_scalar(ldesc, rdesc, levels, out);
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `sse4.2` and `popcnt`; the body
    /// is the safe scalar kernel, recompiled with hardware popcount.
    #[target_feature(enable = "sse4.2", enable = "popcnt")]
    pub(super) unsafe fn hamming_row_u32_popcnt(
        ldesc: &[u32],
        rdesc: &[u32],
        levels: usize,
        out: &mut [u8],
    ) {
        super::hamming_row_u32_scalar(ldesc, rdesc, levels, out);
    }

    /// Per-64-bit-lane popcount via the nibble-LUT `vpshufb` trick reduced
    /// with `vpsadbw`; exactly matches `u64::count_ones` per lane.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`; the body is pure
    /// register arithmetic with no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_epi64(v: __m256i) -> __m256i {
        // Pure register arithmetic, no memory access: the intrinsics are safe
        // to call inside this matching `target_feature` scope.
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and `popcnt`, and that
    /// `ldesc.len() == rdesc.len()` with `out.len() >= ldesc.len() *
    /// levels` (each pixel writes one `levels`-long cost span).
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub(super) unsafe fn hamming_row_u64_avx2(
        ldesc: &[u64],
        rdesc: &[u64],
        levels: usize,
        out: &mut [u8],
    ) {
        for (x, &l) in ldesc.iter().enumerate() {
            let base = x * levels;
            let mut d = 0usize;
            // SAFETY: the 4-wide u64 load at rdesc[x - d - 3] requires
            // d + 3 <= x (checked) and reads 4 elements ending at
            // rdesc[x - d] with x - d < width.
            unsafe {
                let lv = _mm256_set1_epi64x(l as i64);
                let mut lanes = [0u64; 4];
                while d + 4 <= levels && d + 3 <= x {
                    let r = _mm256_loadu_si256(rdesc.as_ptr().add(x - d - 3).cast());
                    let cnt = popcnt_epi64(_mm256_xor_si256(lv, r));
                    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), cnt);
                    // Ascending memory lane j holds rdesc[x - d - 3 + j],
                    // i.e. disparity d + 3 - j.
                    out[base + d] = lanes[3] as u8;
                    out[base + d + 1] = lanes[2] as u8;
                    out[base + d + 2] = lanes[1] as u8;
                    out[base + d + 3] = lanes[0] as u8;
                    d += 4;
                }
            }
            for d in d..levels {
                let rx = x.saturating_sub(d);
                out[base + d] = (l ^ rdesc[rx]).count_ones() as u8;
            }
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and `popcnt`, with the
    /// same slice contract as the u64 variant.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub(super) unsafe fn hamming_row_u32_avx2(
        ldesc: &[u32],
        rdesc: &[u32],
        levels: usize,
        out: &mut [u8],
    ) {
        for (x, &l) in ldesc.iter().enumerate() {
            let base = x * levels;
            let mut d = 0usize;
            // SAFETY: the 8-wide u32 load at rdesc[x - d - 7] requires
            // d + 7 <= x (checked) and reads 8 elements ending at
            // rdesc[x - d] with x - d < width.
            unsafe {
                let lv = _mm256_set1_epi32(l as i32);
                let ones8 = _mm256_set1_epi8(1);
                let ones16 = _mm256_set1_epi16(1);
                let lut = _mm256_setr_epi8(
                    0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                    2, 3, 2, 3, 3, 4,
                );
                let low = _mm256_set1_epi8(0x0f);
                let mut lanes = [0u32; 8];
                while d + 8 <= levels && d + 7 <= x {
                    let r = _mm256_loadu_si256(rdesc.as_ptr().add(x - d - 7).cast());
                    let v = _mm256_xor_si256(lv, r);
                    let lo = _mm256_and_si256(v, low);
                    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
                    let cnt =
                        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
                    // Per-u32 popcount: byte counts -> u16 pair sums -> u32 sums.
                    let s32 = _mm256_madd_epi16(_mm256_maddubs_epi16(cnt, ones8), ones16);
                    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), s32);
                    // Ascending lane j is disparity d + 7 - j.
                    for j in 0..8 {
                        out[base + d + j] = lanes[7 - j] as u8;
                    }
                    d += 8;
                }
            }
            for d in d..levels {
                let rx = x.saturating_sub(d);
                out[base + d] = (l ^ rdesc[rx]).count_ones() as u8;
            }
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and that `prev`, `cost`
    /// and `out` all have exactly `levels` elements (one cost per
    /// disparity level).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn census_aggregate_span_avx2(
        prev: &[u16],
        cost: &[u8],
        p1: u16,
        p2: u16,
        out: &mut [u16],
    ) {
        let levels = prev.len();
        if levels < 18 {
            super::census_aggregate_span_scalar(prev, cost, p1, p2, out);
            return;
        }
        // SAFETY: all vector loads/stores below stay inside [0, levels):
        // 16-lane min-reduce chunks are guarded by `i + 16 <= levels`; the
        // recurrence chunks cover dd..dd+16 with 1 <= dd <= levels - 17, so
        // the d±1 neighbour loads span [0, levels - 1] and the 16-byte cost
        // load ends before levels.
        unsafe {
            // Exact row minimum (min is associative, so lane order is free).
            let mut minv = _mm256_set1_epi16(-1); // u16::MAX
            let mut i = 0usize;
            while i + 16 <= levels {
                minv = _mm256_min_epu16(minv, _mm256_loadu_si256(prev.as_ptr().add(i).cast()));
                i += 16;
            }
            let mut lanes = [0u16; 16];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), minv);
            let mut prev_min = lanes.iter().copied().min().unwrap_or(u16::MAX);
            for &v in &prev[i..] {
                prev_min = prev_min.min(v);
            }

            let jump = prev_min.saturating_add(p2);
            let p1v = _mm256_set1_epi16(p1 as i16);
            let jv = _mm256_set1_epi16(jump as i16);
            let pmv = _mm256_set1_epi16(prev_min as i16);

            let interior_end = levels - 1;
            let mut d = 1usize;
            while d < interior_end {
                let dd = d.min(interior_end - 16);
                let same = _mm256_loadu_si256(prev.as_ptr().add(dd).cast());
                let minus =
                    _mm256_adds_epu16(_mm256_loadu_si256(prev.as_ptr().add(dd - 1).cast()), p1v);
                let plus =
                    _mm256_adds_epu16(_mm256_loadu_si256(prev.as_ptr().add(dd + 1).cast()), p1v);
                let best =
                    _mm256_min_epu16(_mm256_min_epu16(same, _mm256_min_epu16(minus, plus)), jv);
                let c = _mm256_cvtepu8_epi16(_mm_loadu_si128(cost.as_ptr().add(dd).cast()));
                let res = _mm256_adds_epu16(_mm256_subs_epu16(best, pmv), c);
                _mm256_storeu_si256(out.as_mut_ptr().add(dd).cast(), res);
                d = dd + 16;
            }

            // Boundary hypotheses (one-sided neighbourhood) stay scalar.
            let d0best = prev[0].min(prev[1].saturating_add(p1)).min(jump);
            out[0] = (d0best - prev_min).saturating_add(cost[0] as u16);
            let dl = levels - 1;
            let dlbest = prev[dl].min(prev[dl - 1].saturating_add(p1)).min(jump);
            out[dl] = (dlbest - prev_min).saturating_add(cost[dl] as u16);
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    abs_diff_row_avx2, add_assign_rows_avx2, census_aggregate_span_avx2, census_row_u32_avx2,
    census_row_u64_avx2, hamming_row_u32_avx2, hamming_row_u32_popcnt, hamming_row_u64_avx2,
    hamming_row_u64_popcnt, hwindow_sums_avx2, sad_walks4_avx2,
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
        let ldesc: Vec<u64> = (0..23u64)
            .map(|x| x.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let rdesc: Vec<u64> = (0..23u64)
            .map(|x| x.wrapping_mul(0xc2b2ae3d27d4eb4f))
            .collect();
        let levels = 9;
        let mut reference = vec![0u8; ldesc.len() * levels];
        hamming_row_u64(SimdLevel::Scalar, &ldesc, &rdesc, levels, &mut reference);
        for &level in available_levels() {
            let mut got = vec![0u8; reference.len()];
            hamming_row_u64(level, &ldesc, &rdesc, levels, &mut got);
            assert_eq!(got, reference, "level {}", level.name());
        }
    }

    #[test]
    fn aggregate_tiers_agree_on_small_input() {
        let levels = 33;
        let prev: Vec<u16> = (0..levels as u16).map(|d| (d * 7 + 3) % 64).collect();
        let cost: Vec<u8> = (0..levels as u8).map(|d| (d * 5 + 1) % 63).collect();
        let mut reference = vec![0u16; levels];
        census_aggregate_span(SimdLevel::Scalar, &prev, &cost, 2, 32, &mut reference);
        for &level in available_levels() {
            let mut got = vec![0u16; levels];
            census_aggregate_span(level, &prev, &cost, 2, 32, &mut got);
            assert_eq!(got, reference, "level {}", level.name());
        }
    }
}
