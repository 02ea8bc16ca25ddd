//! High-level driving helpers: run whole stereo sequences through the
//! engine as if they were live camera feeds.

use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::telemetry::{AggregateTelemetry, SessionTelemetry};
use asv::ism::{IsmPipeline, IsmResult};
use asv::AsvError;
use asv_scene::StereoSequence;

/// Results and telemetry of one [`serve_sequences`] run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-stream results in input order, identical to what
    /// [`IsmPipeline::process_sequence`] would produce for each sequence.
    pub results: Vec<IsmResult>,
    /// Per-stream telemetry in input order.
    pub telemetry: Vec<SessionTelemetry>,
    /// Whole-engine telemetry (throughput, merged histograms).
    pub aggregate: AggregateTelemetry,
}

/// Serves every sequence as one concurrent camera stream: one session and
/// one feeder thread per sequence, frames submitted in order under
/// backpressure, all streams multiplexed over the scheduler's worker pool.
///
/// # Errors
///
/// Returns the first per-session [`AsvError`] if any stream failed.
pub fn serve_sequences(
    pipeline: &IsmPipeline,
    sequences: &[StereoSequence],
    config: SchedulerConfig,
) -> Result<ServeOutcome, AsvError> {
    let scheduler = Scheduler::new(config);
    let handles: Vec<_> = sequences
        .iter()
        .enumerate()
        .map(|(i, _)| scheduler.add_session(pipeline.state(), Some(format!("stream-{i}")), None))
        .collect();
    std::thread::scope(|scope| {
        for (sequence, handle) in sequences.iter().zip(&handles) {
            let handle = handle.clone();
            scope.spawn(move || {
                for frame in sequence.frames() {
                    // A failed session rejects further frames; stop feeding.
                    if handle
                        .submit(frame.left.clone(), frame.right.clone())
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
    });
    let report = scheduler.join();
    let telemetry: Vec<SessionTelemetry> = report
        .sessions
        .iter()
        .map(|s| s.telemetry.clone())
        .collect();
    let aggregate = report.aggregate.clone();
    let results = report.into_ism_results()?;
    Ok(ServeOutcome {
        results,
        telemetry,
        aggregate,
    })
}
