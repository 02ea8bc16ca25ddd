//! Criterion benchmark of the frame wire format: encode and decode
//! throughput at streaming frame sizes, decoding into pre-sized planes as
//! the server does, so the numbers reflect its zero-allocation steady
//! state.

use asv_image::Image;
use asv_runtime::wire;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const WIDTH: usize = 128;
const HEIGHT: usize = 96;

fn frame(salt: f32) -> Image {
    let data = (0..WIDTH * HEIGHT)
        .map(|i| (i as f32).mul_add(0.05, salt))
        .collect();
    Image::from_vec(WIDTH, HEIGHT, data).expect("sized to match")
}

fn bench_wire(c: &mut Criterion) {
    let left = frame(0.0);
    let right = frame(100.0);
    let mut group = c.benchmark_group("wire");

    group.bench_function("encode_128x96", |b| {
        let mut bytes = Vec::new();
        b.iter(|| {
            wire::encode_frame_into(&mut bytes, "camera-0", 7, &left, &right)
                .expect("valid frame encodes");
            black_box(bytes.len())
        })
    });

    let mut encoded = Vec::new();
    wire::encode_frame_into(&mut encoded, "camera-0", 7, &left, &right)
        .expect("valid frame encodes");

    group.bench_function("validate_128x96", |b| {
        b.iter(|| black_box(wire::validate(&encoded, wire::MAX_MESSAGE_BYTES).is_ok()))
    });

    group.bench_function("fill_planes_128x96", |b| {
        let mut dst_left = Image::zeros(WIDTH, HEIGHT);
        let mut dst_right = Image::zeros(WIDTH, HEIGHT);
        b.iter(|| {
            wire::validate(&encoded, wire::MAX_MESSAGE_BYTES)
                .and_then(|frame| frame.fill_planes(&mut dst_left, &mut dst_right))
                .expect("valid frame decodes");
            black_box(dst_left.as_slice()[0] + dst_right.as_slice()[0])
        })
    });

    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
