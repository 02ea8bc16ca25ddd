//! `asv-runtime`: the concurrent streaming frame-serving engine on top of
//! the ISM pipeline.
//!
//! The paper's whole point is *continuous* vision: ISM amortizes DNN cost
//! across a stream of frames (Sec. 3).  The batch entry point
//! ([`asv::IsmPipeline::process_sequence`]) is how experiments run, but real
//! deployments ingest frames one at a time from many cameras concurrently.
//! This crate turns the incremental core ([`asv::IsmState`]) into a serving
//! engine:
//!
//! * [`Scheduler`] — a fixed `std::thread` worker pool multiplexing many
//!   sessions, with round-robin fairness and bounded-inbox backpressure
//!   (see the [`scheduler`] module docs for the full model);
//! * [`StreamSession`] / [`SessionHandle`] — one camera stream = one ISM
//!   state; producers submit frames into the session's bounded inbox, the
//!   one queue a frame waits in, whose [`ShedPolicy`] (block / reject /
//!   drop-oldest) decides what happens when they outrun the engine;
//! * [`telemetry`] — per-session and aggregate counters, key/non-key frame
//!   ratios, log-bucketed latency histograms (p50/p95/p99) and queue-depth
//!   gauges;
//! * [`serve_sequences`] — drive whole [`asv_scene::StereoSequence`]s as
//!   simulated live feeds (one feeder thread per stream);
//! * [`cluster`] — the scale-out layer: a [`Cluster`] of `N` independent
//!   scheduler shards with failure-aware consistent-hash session placement
//!   and a least-loaded fallback for saturated shards;
//! * [`export`] — [`render_prometheus`]: the telemetry in Prometheus text
//!   format, ready to serve from a `/metrics` endpoint;
//! * [`sim`] — the deterministic scenario driver: seeded camera streams
//!   cross a faulty link into the server's own receive step, on any shard
//!   count and through a shard kill, and every session's output is proven
//!   byte-identical to batch processing (from the re-key point for a
//!   migrated session).
//!
//! Per-session output is byte-identical to batch processing: the scheduler
//! never reorders a session's frames and both paths execute the same
//! [`asv::IsmState::step`].
//!
//! # Example
//!
//! ```
//! use asv::system::{AsvConfig, AsvSystem};
//! use asv_runtime::{serve_sequences, SchedulerConfig};
//! use asv_scene::{SceneConfig, StereoSequence};
//!
//! // Two small synthetic camera streams.
//! let streams: Vec<StereoSequence> = (0..2)
//!     .map(|i| {
//!         let scene = SceneConfig::scene_flow_like(48, 32).with_seed(40 + i).with_objects(2);
//!         StereoSequence::generate(&scene, 3)
//!     })
//!     .collect();
//!
//! let system = AsvSystem::new(AsvConfig {
//!     frame_width: 48,
//!     frame_height: 32,
//!     ..AsvConfig::small()
//! })
//! .unwrap();
//! let outcome = serve_sequences(
//!     system.pipeline(),
//!     &streams,
//!     SchedulerConfig::per_core().with_workers(2),
//! )
//! .unwrap();
//!
//! assert_eq!(outcome.results.len(), 2);
//! assert_eq!(outcome.results[0].frames.len(), 3);
//! // Streaming output is identical to batch output.
//! let batch = system.process_sequence(&streams[0]).unwrap();
//! assert_eq!(batch.frames[2].disparity, outcome.results[0].frames[2].disparity);
//! assert!(outcome.aggregate.service_latency.p50_us() > 0);
//! ```

pub mod cluster;
pub mod export;
pub mod http;
pub mod net;
pub mod qos;
mod queue;
pub mod scheduler;
pub mod serve;
pub mod session;
pub mod sim;
pub mod supervisor;
pub mod telemetry;
pub mod wire;

pub use asv::trace::Stage;
pub use asv::CostMetric;
pub use cluster::{Cluster, ClusterConfig, ClusterObserver, ClusterReport, ClusterSessionHandle};
pub use export::{parse_scrape, render_prometheus, ScrapeSample};
pub use http::{HttpMetricsSource, MetricsServer};
pub use net::{
    Admit, ClientConfig, FrameClient, FrameServer, FrameSink, NetConfig, SequenceGate,
    TransportCounters, TransportErrorKind,
};
pub use qos::{
    QosAction, QosConfig, QosController, QosKnobs, QosTelemetry, QosTransition, SessionSlo,
};
pub use scheduler::{
    RuntimeReport, Scheduler, SchedulerConfig, SchedulerObserver, SessionHandle, ShedPolicy,
};
pub use serve::{serve_sequences, ServeOutcome};
pub use session::{SessionId, SessionReport, StreamSession};
pub use sim::{
    run_overload_sim, run_sim, CostModel, LinkFaults, OverloadConfig, OverloadReport,
    OverloadSessionReport, ShardKill, SimConfig, SimReport,
};
pub use supervisor::{MigrationRecord, Supervisor};
pub use telemetry::{
    AggregateTelemetry, LatencyHistogram, QosSessionSample, QueueDepthGauge, SessionTelemetry,
    StageTelemetry,
};
