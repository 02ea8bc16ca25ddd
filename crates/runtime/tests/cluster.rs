//! Cluster integration tests: the determinism proof (N-shard cluster ==
//! single scheduler == batch), placement behaviour and cross-shard
//! telemetry.

use asv::ism::{IsmConfig, IsmPipeline};
use asv::AsvError;
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_image::Image;
use asv_runtime::sim::{generate_streams, run_sim, session_key, SimConfig};
use asv_runtime::{serve_sequences, Cluster, ClusterConfig, SchedulerConfig, ShedPolicy};
use asv_stereo::block_matching::BlockMatchParams;

fn pipeline(width: usize, height: usize, window: usize) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity: 24,
            refine_radius: 3,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity: 24,
            occlusion_handling: true,
            ..Default::default()
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate),
    )
}

/// The acceptance-criterion proof: for a seeded workload, a single
/// scheduler and a cluster of 1, 2 and 4 shards behind the networked
/// receive path produce per-session disparity results byte-identical to
/// batch `process_sequence`.
#[test]
fn cluster_is_byte_identical_to_single_scheduler_and_batch() {
    let sim = SimConfig::small();
    let pipe = pipeline(sim.width, sim.height, 2);

    let streams = generate_streams(&sim);
    let shard_config = SchedulerConfig {
        workers: sim.workers_per_shard,
        inbox_capacity: sim.inbox_capacity,
        shed_policy: ShedPolicy::Block,
    };
    let single = serve_sequences(&pipe, &streams, shard_config).expect("single scheduler serves");
    for (i, (stream, served)) in streams.iter().zip(&single.results).enumerate() {
        let batch = pipe.process_sequence(stream).expect("batch runs");
        assert_eq!(served.frames.len(), batch.frames.len(), "session {i}");
        for (f, (s, b)) in served.frames.iter().zip(&batch.frames).enumerate() {
            assert_eq!(s.kind, b.kind, "single-scheduler session {i} frame {f}");
            assert_eq!(
                s.disparity, b.disparity,
                "single-scheduler session {i} frame {f}"
            );
        }
    }

    let per_run = (sim.sessions * sim.frames_per_session) as u64;
    for shards in [1, 2, 4] {
        let report = run_sim(&pipe, &SimConfig { shards, ..sim }).expect("simulation runs");
        assert!(
            report.is_deterministic(),
            "{shards} shards diverged: {:#?}",
            report.mismatches
        );
        assert_eq!(report.frames_compared, per_run, "{shards} shards");
    }
}

/// A different seed must still be deterministic (the property is structural,
/// not a lucky interleaving of one workload).
#[test]
fn determinism_holds_under_a_second_seed_and_heavier_jitter() {
    let sim = SimConfig {
        seed: 2027,
        submit_jitter_us: 800,
        shards: 2,
        ..SimConfig::small()
    };
    let pipe = pipeline(sim.width, sim.height, 3);
    let report = run_sim(&pipe, &sim).expect("simulation runs");
    assert!(
        report.is_deterministic(),
        "divergences: {:#?}",
        report.mismatches
    );
}

/// The one placement path: every key keeps the shard the ring gives it, a
/// tripped shard never receives a new session, and a cluster with no live
/// shard refuses placement.
#[test]
fn placement_keeps_keys_skips_failed_shards_and_fails_when_none_survive() {
    let pipe = pipeline(32, 24, 2);
    let cluster = Cluster::new(
        ClusterConfig::new(4).with_shard_config(SchedulerConfig::per_core().with_workers(0)),
    );
    let place = |key: &str| cluster.add_session(key, pipe.state(), None);
    let keys: Vec<String> = (0..8).map(|i| format!("camera-{i}")).collect();
    let home: Vec<usize> = keys.iter().map(|key| place(key).unwrap().shard()).collect();
    // Pinned: any change to the ring or the key hash moves these keys.
    assert_eq!(home, [1, 3, 3, 0, 1, 2, 3, 3]);

    for dead in 0..3 {
        cluster.trip_shard(dead, "test kill");
        for (key, &home) in keys.iter().zip(&home) {
            let shard = place(key).unwrap().shard();
            assert!(shard > dead, "{key} placed on tripped shard {shard}");
            if home > dead {
                assert_eq!(shard, home, "{key} left its live shard");
            }
        }
    }
    cluster.trip_shard(3, "test kill");
    let err = place("camera-0").unwrap_err();
    assert!(
        matches!(err, AsvError::ShardDown { .. }),
        "no live shard must be ShardDown: {err:?}"
    );
}

#[test]
fn saturated_shard_falls_back_to_least_loaded() {
    let pipe = pipeline(32, 24, 2);
    // Zero-worker shards with one-frame inboxes: saturation is under test
    // control because nothing ever drains.
    let cluster = Cluster::new(
        ClusterConfig::new(2).with_shard_config(
            SchedulerConfig::per_core()
                .with_workers(0)
                .with_inbox_capacity(1),
        ),
    );
    let key = "hot-camera";
    let hashed = cluster.live_shard_for_key(key).unwrap();
    let first = cluster.add_session(key, pipe.state(), None).unwrap();
    assert_eq!(first.shard(), hashed, "unsaturated: hashed placement wins");
    assert_eq!(first.key(), key);
    // Fill the hashed shard's only session's only inbox slot.
    first
        .submit(Image::zeros(32, 24), Image::zeros(32, 24))
        .unwrap();

    let second = cluster.add_session(key, pipe.state(), None).unwrap();
    assert_eq!(
        second.shard(),
        1 - hashed,
        "saturated hashed shard must fall back to the least-loaded shard"
    );
    // Whichever shard a new key hashes to, it lands off the saturated one.
    let third = cluster.add_session("third", pipe.state(), None).unwrap();
    assert_eq!(third.shard(), 1 - hashed);
}

#[test]
fn cluster_report_merges_cross_shard_telemetry() {
    let sim = SimConfig::small().with_sessions(4).with_frames(3);
    let pipe = pipeline(sim.width, sim.height, 2);
    let shard_config = SchedulerConfig::per_core()
        .with_workers(2)
        .with_inbox_capacity(2);
    let cluster = Cluster::new(ClusterConfig::new(2).with_shard_config(shard_config));
    let streams = asv_runtime::sim::generate_streams(&sim);
    let sessions: Vec<_> = (0..sim.sessions)
        .map(|i| {
            cluster
                .add_session(&session_key(i), pipe.state(), None)
                .unwrap()
        })
        .collect();
    std::thread::scope(|scope| {
        for (session, stream) in sessions.iter().zip(&streams) {
            scope.spawn(move || {
                for frame in stream.frames() {
                    session
                        .submit(frame.left.clone(), frame.right.clone())
                        .unwrap();
                }
            });
        }
    });

    let report = cluster.join();
    // Every frame sent entered its session's inbox, and none was shed or
    // dropped there.
    let sent = (sim.sessions * sim.frames_per_session) as u64;
    assert_eq!(report.aggregate.frames_submitted, sent);
    assert_eq!(report.aggregate.frames_shed, 0);
    assert_eq!(report.aggregate.frames_dropped, 0);
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.aggregate.sessions, sim.sessions);
    assert_eq!(report.aggregate.frames_processed, sent);
    let by_shard: u64 = report
        .shards
        .iter()
        .map(|s| s.aggregate.frames_processed)
        .sum();
    assert_eq!(by_shard, report.aggregate.frames_processed);
    // The merged histogram carries every frame's sample.
    assert_eq!(
        report.aggregate.service_latency.count(),
        report.aggregate.frames_processed
    );
    // Every session is findable by key, on exactly one shard.
    for i in 0..sim.sessions {
        let session = report
            .session_by_key(&session_key(i))
            .expect("session present");
        assert_eq!(session.frames.len(), sim.frames_per_session);
        assert!(session.error.is_none());
    }
    // And the scrape body labels both shards.
    let scrape = report.render_prometheus();
    assert!(scrape.contains("asv_cluster_shards 2"));
    assert!(scrape.contains("asv_frames_processed_total{shard=\"0\"}"));
    assert!(scrape.contains("asv_frames_processed_total{shard=\"1\"}"));
}

/// A live cluster can be scraped mid-serve without shutting down.
#[test]
fn live_telemetry_snapshot_does_not_disturb_serving() {
    let sim = SimConfig::small().with_sessions(1).with_frames(3);
    let pipe = pipeline(sim.width, sim.height, 2);
    let cluster = Cluster::new(
        ClusterConfig::new(2).with_shard_config(
            SchedulerConfig::per_core()
                .with_workers(1)
                .with_inbox_capacity(2),
        ),
    );
    let session = cluster.add_session("probe", pipe.state(), None).unwrap();
    let stream = asv_runtime::sim::generate_streams(&sim);
    for frame in stream[0].frames() {
        session
            .submit(frame.left.clone(), frame.right.clone())
            .unwrap();
        let merged = cluster.merged_telemetry();
        assert_eq!(merged.sessions, 1);
        assert!(!cluster.render_prometheus().is_empty());
    }
    let report = cluster.join();
    assert_eq!(
        report.session_by_key("probe").unwrap().frames.len(),
        stream[0].frames().len()
    );
}
