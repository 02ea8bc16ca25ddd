//! Criterion micro-benchmarks of the computational kernels underlying the
//! paper's experiments: dense convolution, the two deconvolution execution
//! strategies, optical flow, stereo matching and the dataflow scheduler.

use asv_dataflow::network::schedule_network;
use asv_dataflow::{HwConfig, OptLevel};
use asv_deconv::transform::{paper_deconv2d, transformed_deconv2d};
use asv_dnn::zoo;
use asv_flow::farneback::{farneback_flow, FarnebackParams};
use asv_image::warp::translate;
use asv_image::Image;
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::{block_match, refine_with_initial, BlockMatchParams};
use asv_stereo::sgm::{semi_global_match, SgmParams};
use asv_stereo::DisparityMap;
use asv_tensor::conv::{conv2d, Conv2dParams};
use asv_tensor::{Shape4, Tensor4};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_conv_and_deconv(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let input = Tensor4::random(Shape4::new(1, 8, 24, 24), -1.0, 1.0, &mut rng);
    let conv_kernel = Tensor4::random(Shape4::new(8, 8, 3, 3), -1.0, 1.0, &mut rng);
    let deconv_kernel = Tensor4::random(Shape4::new(8, 8, 4, 4), -1.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.bench_function("conv2d_dense", |b| {
        b.iter(|| {
            conv2d(
                black_box(&input),
                black_box(&conv_kernel),
                &Conv2dParams {
                    stride: 1,
                    padding: 1,
                },
            )
        })
    });
    group.bench_function("deconv_standard_zero_insert", |b| {
        b.iter(|| paper_deconv2d(black_box(&input), black_box(&deconv_kernel), 1))
    });
    group.bench_function("deconv_transformed_sub_convs", |b| {
        b.iter(|| transformed_deconv2d(black_box(&input), black_box(&deconv_kernel), 1))
    });
    group.finish();
}

fn bench_ism_components(c: &mut Criterion) {
    let frame0 = Image::from_fn(96, 64, |x, y| ((x * 13 + y * 7) % 29) as f32 / 29.0);
    let frame1 = translate(&frame0, 2, 1);
    let seq = StereoSequence::generate(&SceneConfig::scene_flow_like(96, 64).with_seed(3), 1);
    let left = seq.frames()[0].left.clone();
    let right = seq.frames()[0].right.clone();
    let initial = DisparityMap::constant(96, 64, 10.0);

    let mut group = c.benchmark_group("ism_components");
    group.sample_size(10);
    group.bench_function("farneback_flow_96x64", |b| {
        b.iter(|| {
            farneback_flow(
                black_box(&frame0),
                black_box(&frame1),
                &FarnebackParams::default(),
            )
        })
    });
    group.bench_function("block_match_full_search", |b| {
        b.iter(|| {
            block_match(
                black_box(&left),
                black_box(&right),
                &BlockMatchParams {
                    max_disparity: 32,
                    ..Default::default()
                },
            )
        })
    });
    group.bench_function("block_match_ism_refinement", |b| {
        b.iter(|| {
            refine_with_initial(
                black_box(&left),
                black_box(&right),
                black_box(&initial),
                &BlockMatchParams {
                    max_disparity: 32,
                    refine_radius: 3,
                    ..Default::default()
                },
            )
        })
    });
    group.bench_function("sgm_96x64", |b| {
        b.iter(|| {
            semi_global_match(
                black_box(&left),
                black_box(&right),
                &SgmParams {
                    max_disparity: 32,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

/// qHD-scale (960x540) stereo kernels: the operating point of the paper's
/// system evaluation (pin to one core with `taskset -c 0` to time them
/// without the pool's workers).
fn bench_qhd_stereo(c: &mut Criterion) {
    let width = 960;
    let height = 540;
    let max_disparity = 64;
    let right = Image::from_fn(width, height, |x, y| {
        ((x as f32 * 0.61).sin() * (y as f32 * 0.37).cos()) + ((x * 3 + y * 7) % 31) as f32 * 0.05
    });
    let left = Image::from_fn(width, height, |x, y| {
        right.at_clamped(x as isize - 24, y as isize)
    });

    let mut group = c.benchmark_group("kernels_qhd");
    group.sample_size(10);
    group.bench_function("cost_volume_qhd_d64", |b| {
        b.iter(|| {
            asv_stereo::cost_volume::CostVolume::from_pair(
                black_box(&left),
                black_box(&right),
                max_disparity,
                asv_image::cost::BlockSpec::new(2),
            )
        })
    });
    group.bench_function("sgm_qhd_d64", |b| {
        b.iter(|| {
            semi_global_match(
                black_box(&left),
                black_box(&right),
                &SgmParams {
                    max_disparity,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let hw = HwConfig::asv_default();
    let net = zoo::flownetc(96, 192);
    let mut group = c.benchmark_group("dataflow_scheduler");
    group.sample_size(10);
    group.bench_function("schedule_flownetc_baseline", |b| {
        b.iter(|| schedule_network(black_box(&net), &hw, OptLevel::Baseline))
    });
    group.bench_function("schedule_flownetc_ilar", |b| {
        // The reuse solver memoizes per layer shape; clear the memo each
        // iteration so the benchmark times the tiling sweep, not map hits.
        b.iter(|| {
            asv_dataflow::solver::schedule_cache_clear();
            schedule_network(black_box(&net), &hw, OptLevel::Ilar)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_conv_and_deconv,
    bench_ism_components,
    bench_qhd_stereo,
    bench_scheduler
);
criterion_main!(benches);
