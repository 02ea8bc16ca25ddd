//! Differential bit-identity tests of the SIMD kernel tiers.
//!
//! Every SIMD path in `asv_stereo::simd` promises *bit-identical* results to
//! its scalar reference — the dispatch level must never change a disparity
//! map.  These properties draw random inputs (with widths straddling the
//! 8/16/32-lane remainder boundaries) and compare every available tier
//! against the scalar tier, bit for bit.
//!
//! CI runs this suite twice: once with the default dispatch and once with
//! `ASV_SIMD=scalar`, plus a `-C target-feature=+avx2` build, so the
//! comparisons are exercised on every tier the runner supports.

use asv_image::Image;
use asv_stereo::census::{CensusCostVolume, CensusDescriptors, Reference, WINDOW_SIDE};
use asv_stereo::simd::{self, available_levels, SimdLevel, SweepStep};
use proptest::prelude::*;

/// The non-scalar tiers this machine can run (empty on non-x86 hosts).
fn simd_levels() -> Vec<SimdLevel> {
    available_levels()
        .iter()
        .copied()
        .filter(|&l| l != SimdLevel::Scalar)
        .collect()
}

fn to_f32(v: &[u32]) -> Vec<f32> {
    v.iter().map(|&x| (x % 256) as f32).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn abs_diff_row_is_bit_identical_across_tiers(
        lrow in collection::vec(0u32..256, 1..70),
        rbits in collection::vec(0u32..256, 1..70),
        d in 0usize..40,
        r in 0usize..6,
    ) {
        let lrow = to_f32(&lrow);
        let mut rrow = to_f32(&rbits);
        rrow.resize(lrow.len(), 0.5);
        let mut reference = vec![0.0f32; lrow.len() + 2 * r];
        simd::abs_diff_row(SimdLevel::Scalar, &lrow, &rrow, d, r, &mut reference);
        for level in simd_levels() {
            let mut out = vec![f32::NAN; reference.len()];
            simd::abs_diff_row(level, &lrow, &rrow, d, r, &mut out);
            for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} abs_diff_row[{}]", level.name(), i
                );
            }
        }
    }

    #[test]
    fn hwindow_sums_is_bit_identical_across_tiers(
        diff in collection::vec(0u32..256, 1..120),
        window in 1usize..12,
    ) {
        let diff = to_f32(&diff);
        prop_assume!(diff.len() >= window);
        let out_len = diff.len() - window + 1;
        let mut reference = vec![0.0f32; out_len];
        simd::hwindow_sums(SimdLevel::Scalar, &diff, window, &mut reference);
        for level in simd_levels() {
            let mut out = vec![f32::NAN; out_len];
            simd::hwindow_sums(level, &diff, window, &mut out);
            for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} hwindow_sums[{}]", level.name(), i
                );
            }
        }
    }

    #[test]
    fn add_assign_rows_is_bit_identical_across_tiers(
        acc in collection::vec(0u32..256, 1..100),
        row_bits in collection::vec(0u32..256, 1..100),
    ) {
        let acc = to_f32(&acc);
        let mut row = to_f32(&row_bits);
        row.resize(acc.len(), 1.25);
        let mut reference = acc.clone();
        simd::add_assign_rows(SimdLevel::Scalar, &mut reference, &row);
        for level in simd_levels() {
            let mut out = acc.clone();
            simd::add_assign_rows(level, &mut out, &row);
            for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} add_assign_rows[{}]", level.name(), i
                );
            }
        }
    }

    #[test]
    fn census_rows_are_bit_identical_across_tiers(
        pixels in collection::vec(0u32..256, 9..200),
        width in 1usize..70,
    ) {
        let mut pixels = to_f32(&pixels);
        pixels.resize(width * WINDOW_SIDE, 7.0);
        let rows: [&[f32]; WINDOW_SIDE] = std::array::from_fn(|i| &pixels[i * width..][..width]);
        let mut reference = vec![0u64; width];
        simd::census_row_u64(SimdLevel::Scalar, &rows, &mut reference);
        for level in simd_levels() {
            let mut out = vec![u64::MAX; width];
            simd::census_row_u64(level, &rows, &mut out);
            prop_assert_eq!(&reference, &out, "{} census_row_u64", level.name());
        }
    }

    /// Both references' Hamming rows, over widths and level counts where
    /// the AVX2 tier's 16-disparity body runs as well as its border and
    /// tail lanes.
    #[test]
    fn hamming_rows_are_bit_identical_across_tiers(
        lbits in collection::vec(0u64..u64::MAX, 1..120),
        rbits in collection::vec(0u64..u64::MAX, 1..120),
        levels in 1usize..81,
        right in 0u32..2,
    ) {
        let reference = if right == 1 { Reference::Right } else { Reference::Left };
        let ldesc = lbits;
        let mut rdesc = rbits;
        rdesc.resize(ldesc.len(), 0xDEAD_BEEF_F00D_u64);
        let mut expected = vec![0u8; ldesc.len() * levels];
        simd::hamming_row_u64(SimdLevel::Scalar, reference, &ldesc, &rdesc, levels, &mut expected);
        for (x, span) in expected.chunks(levels).enumerate() {
            for (d, &cost) in span.iter().enumerate() {
                let (own, other) = match reference {
                    Reference::Left => (ldesc[x], rdesc[x.saturating_sub(d)]),
                    Reference::Right => (rdesc[x], ldesc[(x + d).min(ldesc.len() - 1)]),
                };
                prop_assert_eq!(u32::from(cost), (own ^ other).count_ones(), "({}, {})", x, d);
            }
        }
        for level in simd_levels() {
            let mut out = vec![u8::MAX; expected.len()];
            simd::hamming_row_u64(level, reference, &ldesc, &rdesc, levels, &mut out);
            prop_assert_eq!(&expected, &out, "{} {:?} hamming_row_u64", level.name(), reference);
        }
    }

    /// One sweep step at every tier, with and without a base span, from
    /// random previous spans (their minima computed) and penalties.
    #[test]
    fn census_sweep_step_is_bit_identical_across_tiers(
        h_bits in collection::vec(0u32..65536, 1..81),
        v_bits in collection::vec(0u32..65536, 1..81),
        base_bits in collection::vec(0u32..65536, 1..81),
        cost_bits in collection::vec(0u32..64, 1..81),
        p1 in 0u32..65536,
        p2 in 0u32..65536,
        with_base in 0u32..2,
    ) {
        let levels = h_bits.len();
        let guarded = |bits: &[u32]| -> Vec<u16> {
            let mut span = vec![u16::MAX; levels + 2];
            for (slot, &b) in span[1..=levels].iter_mut().zip(bits.iter().cycle()) {
                *slot = b as u16;
            }
            span
        };
        let (h_prev, v_prev) = (guarded(&h_bits), guarded(&v_bits));
        let base: Vec<u16> = base_bits.iter().cycle().take(levels).map(|&b| b as u16).collect();
        let cost: Vec<u8> = cost_bits.iter().cycle().take(levels).map(|&c| c as u8).collect();
        let base = (with_base == 1).then_some(&base[..]);
        let run = |level: SimdLevel| {
            let (mut h_out, mut v_out) = (vec![u16::MAX; levels + 2], vec![u16::MAX; levels + 2]);
            let mut sum = vec![0u16; levels];
            let mins = simd::census_sweep_step(
                level,
                &mut SweepStep {
                    cost: &cost,
                    p1: p1 as u16,
                    p2: p2 as u16,
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
        let expected = run(SimdLevel::Scalar);
        prop_assert_eq!(expected.1[0], u16::MAX, "guard written");
        prop_assert_eq!(expected.1[levels + 1], u16::MAX, "guard written");
        for level in simd_levels() {
            prop_assert_eq!(&run(level), &expected, "{} census_sweep_step", level.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end differential: the full census transform + Hamming cost
    /// volume of either reference, image in, volume out, per tier.
    #[test]
    fn census_cost_volume_is_bit_identical_across_tiers(
        pixels in collection::vec(0u32..256, 1..600),
        width in 4usize..40,
        height in 4usize..24,
        max_disparity in 1usize..24,
    ) {
        let mut pixels = to_f32(&pixels);
        pixels.resize(width * height, 11.0);
        let left = Image::from_vec(width, height, pixels.clone()).unwrap();
        let mut shifted = pixels;
        shifted.rotate_right(3);
        let right = Image::from_vec(width, height, shifted).unwrap();

        for reference in [Reference::Left, Reference::Right] {
        let expected = volume_at(&left, &right, max_disparity, reference, SimdLevel::Scalar);
        for level in simd_levels() {
            let volume = volume_at(&left, &right, max_disparity, reference, level);
            for y in 0..height {
                for x in 0..width {
                    for d in 0..expected.num_disparities() {
                        prop_assert_eq!(
                            expected.cost(x, y, d),
                            volume.cost(x, y, d),
                            "{} {:?} cost({}, {}, {})", level.name(), reference, x, y, d
                        );
                    }
                }
            }
        }
        }
    }
}

fn volume_at(
    left: &Image,
    right: &Image,
    max_disparity: usize,
    reference: Reference,
    level: SimdLevel,
) -> CensusCostVolume {
    let mut dl = CensusDescriptors::new();
    let mut dr = CensusDescriptors::new();
    dl.fill_from(left, level);
    dr.fill_from(right, level);
    let mut volume = CensusCostVolume::new();
    volume.fill_from_descriptors(&dl, &dr, max_disparity, reference, level);
    volume
}
