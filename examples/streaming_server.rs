//! Streaming server: serve N simulated camera streams through the sharded
//! `asv-runtime` cluster and print per-shard telemetry plus a Prometheus
//! scrape sample.
//!
//! Each "camera" is a synthetic stereo sequence turned into a frame-by-frame
//! feed with `StereoSequence::into_stream()` and driven by its own feeder
//! thread.  Each camera's session is placed on a scheduler shard by
//! consistent hashing of the camera name; the feeder submits straight into
//! the session's bounded inbox, and the shard's worker pool multiplexes its
//! sessions round-robin under that inbox's backpressure.
//!
//! While the cluster is live, a [`MetricsServer`] exposes it over HTTP
//! (`/metrics`, `/trace`, `/healthz`); the example scrapes its own endpoint
//! and validates the scrape with the same Prometheus-text parser the tests
//! use, so CI exercises the live observability path on every run.
//!
//! Run with: `cargo run --release --example streaming_server`

use asv_system::asv::system::{AsvConfig, AsvSystem};
use asv_system::runtime::{
    parse_scrape, ClientConfig, Cluster, ClusterConfig, FrameClient, FrameServer, FrameSink,
    MetricsServer, NetConfig, QosConfig, SchedulerConfig, SessionSlo, Supervisor,
};
use asv_system::scene::{SceneConfig, StereoSequence};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One `GET` against the example's own endpoint, returning the body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("well-formed HTTP response");
    assert!(
        head.starts_with("HTTP/1.1 200 OK"),
        "GET {path} answered {head}"
    );
    body.to_owned()
}

const SHARDS: usize = 2;
const CAMERAS: usize = 4;
const FRAMES_PER_CAMERA: usize = 6;
const WIDTH: usize = 64;
const HEIGHT: usize = 48;

fn main() {
    // 1. One ASV system configuration shared by every stream.
    let system = AsvSystem::new(AsvConfig {
        propagation_window: 4,
        max_disparity: 32,
        frame_width: WIDTH,
        frame_height: HEIGHT,
        network: "DispNet".to_owned(),
        metric: asv::CostMetric::Sad,
    })
    .expect("known network");

    // 2. The cluster: SHARDS independent schedulers, each with its own
    //    worker pool, two queued frames per camera.
    let workers_per_shard = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .div_ceil(SHARDS)
        .max(1);
    let cluster = Cluster::new(
        ClusterConfig::new(SHARDS).with_shard_config(
            SchedulerConfig::per_core()
                .with_workers(workers_per_shard)
                .with_inbox_capacity(2),
        ),
    );
    println!(
        "serving {CAMERAS} cameras x {FRAMES_PER_CAMERA} frames ({WIDTH}x{HEIGHT}) \
         over {SHARDS} shards x {workers_per_shard} workers"
    );

    // 3. The live observability endpoint: serves the cluster's telemetry
    //    and traces over HTTP for as long as the cluster runs.
    let server = MetricsServer::serve("127.0.0.1:0", Arc::new(cluster.observer()))
        .expect("bind metrics endpoint");
    let addr = server.local_addr();
    println!("metrics endpoint: http://{addr}/metrics (also /trace, /healthz)");

    // 4. One SLO-managed session + one feeder thread per camera, placed by
    //    consistent hashing of the camera name.  The SLO is generous (2 s
    //    p95), so the adaptive-QoS controller observes every frame but never
    //    actuates — output stays byte-identical to batch while the
    //    per-session `asv_qos_level` gauge goes live on `/metrics`.
    let slo = SessionSlo::p95_step_us(2_000_000);
    let sessions: Vec<_> = (0..CAMERAS)
        .map(|camera| {
            let placed = cluster
                .add_session(
                    &format!("camera-{camera}"),
                    system.pipeline().state(),
                    Some(QosConfig::new(slo)),
                )
                .expect("a healthy cluster places every camera");
            println!("  camera-{camera} -> shard {}", placed.shard());
            placed
        })
        .collect();
    std::thread::scope(|scope| {
        for (camera, session) in sessions.iter().enumerate() {
            scope.spawn(move || {
                let scene = SceneConfig::scene_flow_like(WIDTH, HEIGHT)
                    .with_seed(7 + camera as u64)
                    .with_objects(3);
                let stream = StereoSequence::generate(&scene, FRAMES_PER_CAMERA).into_stream();
                for frame in stream {
                    // Blocks only while this camera's inbox is full.
                    if session.submit(frame.left, frame.right).is_err() {
                        eprintln!("camera {camera}: session failed, stopping feed");
                        break;
                    }
                }
            });
        }
    });

    // 5. Scrape the live endpoint once every frame has been processed.  The
    //    scrape must parse with the same Prometheus-text parser the tests
    //    use — a malformed line here fails the CI run.
    let observer = cluster.observer();
    let expected = (CAMERAS * FRAMES_PER_CAMERA) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while observer
        .telemetry()
        .iter()
        .map(|shard| shard.frames_processed)
        .sum::<u64>()
        < expected
    {
        assert!(
            std::time::Instant::now() < deadline,
            "cluster did not process {expected} frames in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(http_get(addr, "/healthz"), "ok\n");
    let scrape = http_get(addr, "/metrics");
    let samples = parse_scrape(&scrape).expect("live /metrics scrape parses cleanly");
    let processed: f64 = samples
        .iter()
        .filter(|s| s.name == "asv_frames_processed_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(processed, expected as f64, "scrape saw every frame");
    let stage_series = samples
        .iter()
        .filter(|s| s.name == "asv_stage_latency_microseconds_count")
        .count();
    if asv::trace::TraceMode::from_env() == asv::trace::TraceMode::Off {
        assert_eq!(stage_series, 0, "ASV_TRACE=off records no stage spans");
    } else {
        assert!(stage_series > 0, "scrape carries per-stage histograms");
    }
    // Each SLO-managed camera exports its live degradation level; with the
    // generous SLO every gauge must read 0 (full quality, zero actuations).
    let qos_levels: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "asv_qos_level")
        .collect();
    assert_eq!(
        qos_levels.len(),
        CAMERAS,
        "every SLO-managed camera exports an asv_qos_level gauge"
    );
    for level in &qos_levels {
        assert_eq!(
            level.value,
            0.0,
            "camera {:?} degraded under a generous SLO",
            level.label("session")
        );
    }
    let actuations: f64 = samples
        .iter()
        .filter(|s| s.name == "asv_qos_actuations_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(actuations, 0.0, "generous SLO must never actuate");
    let trace = http_get(addr, "/trace");
    assert!(trace.starts_with("{\"traceEvents\":["), "Chrome trace JSON");
    println!(
        "live scrape: {} samples ({} per-stage series, {} QoS level gauges), /trace {} bytes",
        samples.len(),
        stage_series,
        qos_levels.len(),
        trace.len()
    );
    server.shutdown();

    // 6. Shut the shards down and print the final report.
    let report = cluster.join();

    println!("\nshard  sessions  frames  key  p50(us)  p95(us)  p99(us)  peak-queue");
    for (shard, runtime) in report.shards.iter().enumerate() {
        let a = &runtime.aggregate;
        println!(
            "{:>5}  {:>8}  {:>6}  {:>3}  {:>7}  {:>7}  {:>7}  {:>10}",
            shard,
            a.sessions,
            a.frames_processed,
            a.key_frames,
            a.service_latency.p50_us(),
            a.service_latency.p95_us(),
            a.service_latency.p99_us(),
            a.peak_queue_depth,
        );
    }
    let agg = &report.aggregate;
    println!(
        "\ncluster: {} frames in {:.2}s = {:.2} frames/s  (key ratio {:.3}, \
         submitted {} / shed {} / dropped {})",
        agg.frames_processed,
        agg.wall_seconds,
        agg.frames_per_second(),
        agg.key_frame_ratio(),
        agg.frames_submitted,
        agg.frames_shed,
        agg.frames_dropped,
    );

    // 7. A sample of the final scrape body (counters, gauges and the
    //    per-stage latency sums; the full output also carries the buckets).
    println!("\nprometheus scrape sample:");
    for line in report
        .render_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket"))
        .take(18)
    {
        println!("  {line}");
    }
    println!("  ...");
    for line in report
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with("asv_stage_latency_microseconds_sum"))
        .take(8)
    {
        println!("  {line}");
    }
    for line in report
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with("asv_qos"))
    {
        println!("  {line}");
    }

    // 8. Networked transport self-test: stream one camera over a loopback
    //    TCP link — wire-encoded frames, CRC validation, sequence gating,
    //    a supervisor-fronted shard — and verify the session's output is
    //    byte-identical to the batch pipeline.
    let scene = SceneConfig::scene_flow_like(WIDTH, HEIGHT)
        .with_seed(99)
        .with_objects(3);
    let sequence = StereoSequence::generate(&scene, FRAMES_PER_CAMERA);
    let batch = system
        .pipeline()
        .process_sequence(&sequence)
        .expect("batch baseline");
    let net_cluster = Arc::new(Cluster::new(
        ClusterConfig::new(1).with_shard_config(SchedulerConfig::per_core().with_inbox_capacity(2)),
    ));
    let supervisor = Arc::new(Supervisor::new(Arc::clone(&net_cluster), {
        let pipe = system.pipeline().clone();
        move |_| pipe.state()
    }));
    let frame_server = FrameServer::serve(
        "127.0.0.1:0",
        Arc::clone(&supervisor) as Arc<dyn FrameSink>,
        net_cluster.transport_counters(),
        NetConfig::default(),
    )
    .expect("bind frame server");
    println!("\nframe transport: tcp://{}", frame_server.local_addr());
    let mut client = FrameClient::connect(frame_server.local_addr(), ClientConfig::default())
        .expect("connect frame client");
    for frame in sequence.frames() {
        client
            .send("tcp-camera", &frame.left, &frame.right)
            .expect("send frame");
    }
    client.flush().expect("flush acknowledgements");
    drop(client);
    frame_server.shutdown();
    let supervisor = Arc::try_unwrap(supervisor).expect("server released the sink");
    supervisor.finish();
    let net_report = Arc::try_unwrap(net_cluster)
        .expect("supervisor released the cluster")
        .join();
    let session = net_report
        .session_by_key("tcp-camera")
        .expect("streamed session present");
    assert!(
        session.error.is_none(),
        "tcp session failed: {:?}",
        session.error
    );
    assert_eq!(session.frames.len(), batch.frames.len(), "frame count");
    for (f, (got, want)) in session.frames.iter().zip(&batch.frames).enumerate() {
        assert!(
            got.disparity == want.disparity,
            "tcp-streamed frame {f} diverged from batch"
        );
    }
    println!(
        "tcp self-test: {} frames streamed over loopback, byte-identical to batch",
        batch.frames.len()
    );
}
