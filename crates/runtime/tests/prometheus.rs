//! Golden test of `render_prometheus()`: the metric names, label keys and
//! line grammar are a scrape contract that must not drift silently.
//!
//! The telemetry under test is built from fixed durations, so every
//! latency sample — and therefore every rendered line — is bit-stable
//! across runs and machines.

use asv::FrameKind;
use asv_runtime::{
    render_prometheus, AggregateTelemetry, QosTelemetry, SessionTelemetry, Stage,
    TransportErrorKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Deterministic per-stage totals (nanoseconds) of one key frame.
fn key_stage_totals() -> [u64; Stage::COUNT] {
    let mut totals = [0u64; Stage::COUNT];
    totals[Stage::DnnInfer.index()] = 8_000_000;
    totals[Stage::CostFill.index()] = 3_000_000;
    totals[Stage::SgmAggregate.index()] = 4_000_000;
    totals
}

/// Deterministic per-stage totals (nanoseconds) of one non-key frame.
fn non_key_stage_totals() -> [u64; Stage::COUNT] {
    let mut totals = [0u64; Stage::COUNT];
    totals[Stage::PyramidBuild.index()] = 150_000;
    totals[Stage::FlowLeft.index()] = 1_000_000;
    totals[Stage::FlowRight.index()] = 900_000;
    totals[Stage::Propagate.index()] = 200_000;
    totals[Stage::Refine.index()] = 300_000;
    totals
}

/// Builds the fixed two-shard telemetry fixture with injected latencies.
fn fixture() -> Vec<AggregateTelemetry> {
    let us = Duration::from_micros;
    let mut cam_a = SessionTelemetry {
        frames_submitted: 4,
        ..SessionTelemetry::default()
    };
    cam_a.record_frame(FrameKind::KeyFrame, us(9_000), us(120));
    cam_a.record_frame(FrameKind::NonKeyFrame, us(2_500), us(80));
    cam_a.record_frame(FrameKind::NonKeyFrame, us(2_700), us(60));
    cam_a.frames_shed = 1;
    cam_a.queue_depth.observe(2);
    cam_a.queue_depth.observe(1);
    cam_a.stage_latency.record_frame_totals(&key_stage_totals());
    cam_a
        .stage_latency
        .record_frame_totals(&non_key_stage_totals());
    cam_a
        .stage_latency
        .record_frame_totals(&non_key_stage_totals());
    // cam-a is SLO-managed and currently degraded: it contributes the
    // per-session level gauge plus the violation/actuation counters.
    cam_a.qos = QosTelemetry {
        enabled: true,
        level: 2,
        max_level_reached: 3,
        slo_violations: 5,
        actuations: [2, 1, 1, 3],
    };

    let mut cam_b = SessionTelemetry {
        frames_submitted: 2,
        ..SessionTelemetry::default()
    };
    cam_b.record_frame(FrameKind::KeyFrame, us(11_000), us(400));
    cam_b.frames_dropped = 1;
    cam_b.queue_depth.observe(1);
    cam_b.stage_latency.record_frame_totals(&key_stage_totals());

    let mut shard0 = AggregateTelemetry::default();
    shard0.absorb_named(&cam_a, "cam-a");
    shard0.wall_seconds = 2.0;
    // Shard 0 lost a session to a failure (migrated away) and its network
    // edge counted two CRC faults and one socket error.
    shard0.sessions_migrated = 1;
    shard0.transport_errors[TransportErrorKind::Crc.index()] = 2;
    shard0.transport_errors[TransportErrorKind::Io.index()] = 1;
    let mut shard1 = AggregateTelemetry::default();
    shard1.absorb_named(&cam_b, "cam-b");
    // The sum of every latency above.
    shard1.wall_seconds = 0.025_86;
    // Faults counted on another shard's aggregate must sum into the same
    // cluster-wide (shard-less) transport family.
    shard1.transport_errors[TransportErrorKind::Crc.index()] = 1;
    shard1.transport_errors[TransportErrorKind::Deadline.index()] = 3;
    vec![shard0, shard1]
}

/// The locked metric-family contract: name -> type.
fn expected_families() -> BTreeMap<&'static str, &'static str> {
    BTreeMap::from([
        ("asv_cluster_shards", "gauge"),
        ("asv_sessions", "gauge"),
        ("asv_frames_submitted_total", "counter"),
        ("asv_frames_processed_total", "counter"),
        ("asv_key_frames_total", "counter"),
        ("asv_non_key_frames_total", "counter"),
        ("asv_frames_dropped_total", "counter"),
        ("asv_frames_shed_total", "counter"),
        ("asv_queue_depth", "gauge"),
        ("asv_queue_depth_peak", "gauge"),
        ("asv_uptime_seconds", "gauge"),
        ("asv_frames_per_second", "gauge"),
        ("asv_qos_slo_violations_total", "counter"),
        ("asv_sessions_migrated_total", "counter"),
        ("asv_transport_errors_total", "counter"),
        ("asv_qos_actuations_total", "counter"),
        ("asv_qos_level", "gauge"),
        ("asv_service_latency_microseconds", "histogram"),
        ("asv_queue_wait_microseconds", "histogram"),
        ("asv_stage_latency_microseconds", "histogram"),
    ])
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// A deliberately small parser for the Prometheus text exposition format:
/// `name{key="value",...} value` with `# HELP` / `# TYPE` comments.  Panics
/// (failing the test) on any malformed line.
fn parse(text: &str) -> (BTreeMap<String, String>, Vec<Sample>) {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in the scrape body");
        assert_eq!(line.trim(), line, "no stray whitespace: {line:?}");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            assert!(!help.trim().is_empty(), "empty help for {name}");
            assert!(helps.insert(name.to_owned()), "duplicate HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type {kind} for {name}"
            );
            assert!(helps.contains(name), "TYPE for {name} must follow its HELP");
            assert!(
                types.insert(name.to_owned(), kind.to_owned()).is_none(),
                "duplicate TYPE for {name}"
            );
        } else {
            assert!(!line.starts_with('#'), "unknown comment: {line}");
            samples.push(parse_sample(line));
        }
    }
    (types, samples)
}

fn parse_sample(line: &str) -> Sample {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value.parse().unwrap_or_else(|_| {
        panic!("value of {line:?} must parse as f64");
    });
    assert!(value.is_finite(), "non-finite value in {line:?}");
    let (name, labels) = match series.split_once('{') {
        None => (series.to_owned(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').expect("labels close with }");
            let mut labels = BTreeMap::new();
            for pair in body.split(',') {
                let (key, quoted) = pair.split_once('=').expect("label has =");
                assert!(
                    key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad label key {key:?}"
                );
                let unquoted = quoted
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .expect("label value is quoted");
                assert!(
                    labels.insert(key.to_owned(), unquoted.to_owned()).is_none(),
                    "duplicate label {key} in {line}"
                );
            }
            (name.to_owned(), labels)
        }
    };
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'),
        "bad metric name {name:?}"
    );
    Sample {
        name,
        labels,
        value,
    }
}

/// Strips histogram sample suffixes back to the family name.
fn family_of(sample_name: &str, types: &BTreeMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base.to_owned();
            }
        }
    }
    sample_name.to_owned()
}

#[test]
fn scrape_format_is_valid_and_the_family_set_is_locked() {
    let text = render_prometheus(&fixture());
    let (types, samples) = parse(&text);

    // The family set is the contract: additions are fine (extend
    // `expected_families`), renames and removals are not.
    let expected = expected_families();
    assert_eq!(
        types
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect::<BTreeMap<_, _>>(),
        expected,
        "metric families drifted"
    );

    // Every sample belongs to a declared family and (except the two
    // cluster-wide families: the shard gauge and the shard-less transport
    // error counter) carries a shard label.
    for sample in &samples {
        let family = family_of(&sample.name, &types);
        assert!(types.contains_key(&family), "undeclared family {family}");
        if sample.name == "asv_cluster_shards" {
            assert!(sample.labels.is_empty());
        } else if sample.name == "asv_transport_errors_total" {
            assert!(
                !sample.labels.contains_key("shard"),
                "transport errors are a cluster-wide family"
            );
        } else {
            let shard = sample.labels.get("shard").expect("shard label");
            assert!(shard == "0" || shard == "1", "unknown shard {shard}");
        }
        assert!(sample.value >= 0.0, "negative sample {}", sample.name);
        // Transport-family samples carry a known error kind; nothing else
        // carries a kind label.
        if sample.name == "asv_transport_errors_total" {
            let kind = sample.labels.get("kind").expect("kind label");
            assert!(
                TransportErrorKind::ALL.iter().any(|k| k.name() == kind),
                "unknown transport error kind {kind}"
            );
        } else {
            assert!(
                !sample.labels.contains_key("kind"),
                "unexpected kind label on {}",
                sample.name
            );
        }
        // Stage-family samples carry a known stage label; nothing else does.
        if family_of(&sample.name, &types) == "asv_stage_latency_microseconds" {
            let stage = sample.labels.get("stage").expect("stage label");
            assert!(
                Stage::ALL.iter().any(|s| s.name() == stage),
                "unknown stage {stage}"
            );
        } else {
            assert!(
                !sample.labels.contains_key("stage"),
                "unexpected stage label on {}",
                sample.name
            );
        }
    }

    // The transport family renders one sample per kind, zeros included.
    assert_eq!(
        samples
            .iter()
            .filter(|s| s.name == "asv_transport_errors_total")
            .count(),
        TransportErrorKind::COUNT,
        "one transport sample per error kind"
    );

    // Stage histogram invariant: per (shard, stage) the +Inf bucket equals
    // _count, and only stages that recorded samples appear.
    let stage_counts: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "asv_stage_latency_microseconds_count")
        .collect();
    assert_eq!(
        stage_counts.len(),
        8 + 3,
        "8 stages on shard 0, 3 on shard 1"
    );
    for count in &stage_counts {
        assert!(count.value > 0.0, "silent stages are omitted");
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "asv_stage_latency_microseconds_bucket"
                    && s.labels.get("le").map(String::as_str) == Some("+Inf")
                    && s.labels.get("shard") == count.labels.get("shard")
                    && s.labels.get("stage") == count.labels.get("stage")
            })
            .expect("stage series has a +Inf bucket");
        assert_eq!(inf.value, count.value, "+Inf bucket equals _count");
    }

    // Histogram invariants per (family, shard): cumulative buckets are
    // non-decreasing, bucket upper bounds strictly ascend, the +Inf bucket
    // equals _count, and _sum/_count are present.
    for family in [
        "asv_service_latency_microseconds",
        "asv_queue_wait_microseconds",
    ] {
        for shard in ["0", "1"] {
            let of_shard = |suffix: &str| -> Vec<&Sample> {
                samples
                    .iter()
                    .filter(|s| {
                        s.name == format!("{family}{suffix}")
                            && s.labels.get("shard").map(String::as_str) == Some(shard)
                    })
                    .collect()
            };
            let buckets = of_shard("_bucket");
            assert!(buckets.len() > 1, "{family} shard {shard} has buckets");
            let mut last_le = f64::NEG_INFINITY;
            let mut last_cumulative = f64::NEG_INFINITY;
            let mut inf_value = None;
            for bucket in &buckets {
                let le = bucket.labels.get("le").expect("bucket le label");
                let le_value = if le == "+Inf" {
                    inf_value = Some(bucket.value);
                    f64::INFINITY
                } else {
                    le.parse::<f64>().expect("numeric le")
                };
                assert!(le_value > last_le, "le not ascending in {family}");
                assert!(
                    bucket.value >= last_cumulative,
                    "cumulative bucket counts regressed in {family} shard {shard}"
                );
                last_le = le_value;
                last_cumulative = bucket.value;
            }
            let count = of_shard("_count");
            let sum = of_shard("_sum");
            assert_eq!(count.len(), 1);
            assert_eq!(sum.len(), 1);
            assert_eq!(
                Some(count[0].value),
                inf_value,
                "{family} +Inf bucket must equal _count"
            );
        }
    }
}

#[test]
fn golden_scalar_lines_are_bit_stable() {
    let text = render_prometheus(&fixture());
    // The full fixture is virtual-clock driven, so these exact lines are the
    // golden contract for names, labels and value formatting.
    let golden = [
        "asv_cluster_shards 2",
        "asv_sessions{shard=\"0\"} 1",
        "asv_sessions{shard=\"1\"} 1",
        "asv_frames_submitted_total{shard=\"0\"} 4",
        "asv_frames_submitted_total{shard=\"1\"} 2",
        "asv_frames_processed_total{shard=\"0\"} 3",
        "asv_frames_processed_total{shard=\"1\"} 1",
        "asv_key_frames_total{shard=\"0\"} 1",
        "asv_key_frames_total{shard=\"1\"} 1",
        "asv_non_key_frames_total{shard=\"0\"} 2",
        "asv_non_key_frames_total{shard=\"1\"} 0",
        "asv_frames_dropped_total{shard=\"0\"} 0",
        "asv_frames_dropped_total{shard=\"1\"} 1",
        "asv_frames_shed_total{shard=\"0\"} 1",
        "asv_frames_shed_total{shard=\"1\"} 0",
        "asv_queue_depth{shard=\"0\"} 1",
        "asv_queue_depth{shard=\"1\"} 1",
        "asv_queue_depth_peak{shard=\"0\"} 2",
        "asv_queue_depth_peak{shard=\"1\"} 1",
        "asv_uptime_seconds{shard=\"0\"} 2.000000",
        "asv_uptime_seconds{shard=\"1\"} 0.025860",
        "asv_frames_per_second{shard=\"0\"} 1.500000",
        // QoS: cam-a (shard 0) is SLO-managed at level 2; cam-b carries no
        // controller, so shard 1 renders zero counters and no level gauge.
        "asv_qos_slo_violations_total{shard=\"0\"} 5",
        "asv_qos_slo_violations_total{shard=\"1\"} 0",
        // Failure families: migrations are per shard (zeros included);
        // transport errors are cluster-wide, summed across shards, one
        // sample per kind with no shard label.
        "asv_sessions_migrated_total{shard=\"0\"} 1",
        "asv_sessions_migrated_total{shard=\"1\"} 0",
        "asv_transport_errors_total{kind=\"bad_magic\"} 0",
        "asv_transport_errors_total{kind=\"crc\"} 3",
        "asv_transport_errors_total{kind=\"io\"} 1",
        "asv_transport_errors_total{kind=\"deadline\"} 3",
        "asv_qos_actuations_total{shard=\"0\",action=\"census_metric\"} 2",
        "asv_qos_actuations_total{shard=\"0\",action=\"widen_window\"} 1",
        "asv_qos_actuations_total{shard=\"0\",action=\"relax_motion\"} 1",
        "asv_qos_actuations_total{shard=\"0\",action=\"recover\"} 3",
        "asv_qos_actuations_total{shard=\"1\",action=\"census_metric\"} 0",
        "asv_qos_level{shard=\"0\",session=\"cam-a\"} 2",
        "asv_service_latency_microseconds_sum{shard=\"0\"} 14200",
        "asv_service_latency_microseconds_count{shard=\"0\"} 3",
        "asv_service_latency_microseconds_sum{shard=\"1\"} 11000",
        "asv_queue_wait_microseconds_sum{shard=\"0\"} 260",
        "asv_queue_wait_microseconds_count{shard=\"1\"} 1",
        // Spot-check cumulative buckets at the crossing points: 2500 and
        // 2700 µs land in [2048, 4096), 9000 in [8192, 16384).
        "asv_service_latency_microseconds_bucket{shard=\"0\",le=\"2047\"} 0",
        "asv_service_latency_microseconds_bucket{shard=\"0\",le=\"4095\"} 2",
        "asv_service_latency_microseconds_bucket{shard=\"0\",le=\"8191\"} 2",
        "asv_service_latency_microseconds_bucket{shard=\"0\",le=\"16383\"} 3",
        "asv_service_latency_microseconds_bucket{shard=\"0\",le=\"+Inf\"} 3",
        // Per-stage histograms: shard 0 saw one key frame (dnn_infer 8 ms)
        // and two non-key frames (flow_left 1 ms each); shard 1 one key
        // frame.  Sums are microseconds.
        "asv_stage_latency_microseconds_sum{shard=\"0\",stage=\"dnn_infer\"} 8000",
        "asv_stage_latency_microseconds_count{shard=\"0\",stage=\"dnn_infer\"} 1",
        "asv_stage_latency_microseconds_sum{shard=\"0\",stage=\"flow_left\"} 2000",
        "asv_stage_latency_microseconds_count{shard=\"0\",stage=\"flow_left\"} 2",
        "asv_stage_latency_microseconds_sum{shard=\"1\",stage=\"sgm_aggregate\"} 4000",
        // 1000 µs lands in [512, 1024): cumulative 0 below, 2 at le=1023.
        "asv_stage_latency_microseconds_bucket{shard=\"0\",stage=\"flow_left\",le=\"511\"} 0",
        "asv_stage_latency_microseconds_bucket{shard=\"0\",stage=\"flow_left\",le=\"1023\"} 2",
        "asv_stage_latency_microseconds_bucket{shard=\"0\",stage=\"flow_left\",le=\"+Inf\"} 2",
    ];
    for line in golden {
        assert!(
            text.lines().any(|l| l == line),
            "golden line missing from scrape body: {line}"
        );
    }
    // A session without a controller must not export a level gauge.
    assert!(
        !text.contains("asv_qos_level{shard=\"1\""),
        "cam-b has no QoS controller yet exported a level gauge"
    );
    // Rendering is a pure function of the telemetry.
    assert_eq!(text, render_prometheus(&fixture()));
}
