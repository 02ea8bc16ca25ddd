//! Criterion benchmark of the sharded runtime: a multi-shard cluster vs the
//! single-scheduler baseline on identical synthetic camera streams.

use asv_bench::cluster::cluster_throughput;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    // Each invocation times both sides internally (single + cluster) and
    // returns the whole report; criterion measures the end-to-end sweep.
    group.bench_function("throughput_2_shards_4_sessions", |b| {
        b.iter(|| black_box(cluster_throughput(2, 4, 1, 2)))
    });
    group.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
