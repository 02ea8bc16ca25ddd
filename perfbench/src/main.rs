//! End-to-end benchmark of the ASV workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <key_only_640x360|nonkey_heavy|networked> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload streams the same kind of input: a fixed number of frames
//! of short synthetic stereo clips rendered from `--seed`, one scene per
//! clip, played in order and then again from the start until `--seconds`
//! have passed (and at least once).  A clip is exactly one key-frame period
//! long, so every clip starts on a key frame and its output does not depend
//! on what was streamed before it: a replayed clip must reproduce its first
//! output bit for bit.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones (tracing off), with
//! `--trace 1` the per-layer ones (span recording on).  See `README.md`.

mod alloc;
mod networked;

use alloc::CountingAllocator;
use asv::system::{AsvConfig, AsvSystem};
use asv::trace::{FrameTrace, Stage};
use asv::{CostMetric, FrameKind, Workspace};
use asv_scene::{SceneConfig, StereoFrame, StereoSequence};
use asv_stereo::DisparityMap;
use std::time::{Duration, Instant};

// Counts heap allocations for the `allocs_per_frame` layer metric; a relaxed
// atomic increment per allocation, so it stays installed in timed runs too.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Frame size and disparity search range of a workload.
#[derive(Debug, Clone, Copy)]
struct Format {
    width: usize,
    height: usize,
    max_disparity: usize,
}

/// Two thirds of qHD (`AsvConfig::paper_default`'s 960x540) in each
/// dimension with its 64 disparities: a key-frame cost volume of about
/// 29 MB, eight times the small one.  At full qHD a key frame takes about
/// 0.35 s on a 2-vCPU host, too few frames in a run (about 85) for a steady
/// p90 and 3-px error; at this size a run covers about 220.
const LARGE: Format = Format {
    width: 640,
    height: 360,
    max_disparity: 64,
};
/// A third of qHD in each dimension with half its disparity range: a cost
/// volume of about 3.7 MB, and frames cheap enough that a run covers
/// hundreds of frames and many distinct scenes.
const SMALL: Format = Format {
    width: 320,
    height: 180,
    max_disparity: 32,
};
/// Objects per scene.  Cluttered scenes vary less in difficulty than the
/// generator's default of six objects.
const OBJECTS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A frame with more bad pixels than this is broken output, not a less
/// accurate estimate.
const MAX_FRAME_ERROR: f64 = 0.5;

type Clip = Vec<StereoFrame>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Every frame runs the key-frame estimator (propagation window 1), on
    /// large frames.
    KeyOnlyLarge,
    /// Three of four frames are propagated and refined (window 4).
    NonKeyHeavy,
    /// Window 4, with the frames arriving from a camera over loopback TCP.
    Networked,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "key_only_640x360" => Some(Self::KeyOnlyLarge),
            "nonkey_heavy" => Some(Self::NonKeyHeavy),
            "networked" => Some(Self::Networked),
            _ => None,
        }
    }

    fn propagation_window(self) -> usize {
        match self {
            Self::KeyOnlyLarge => 1,
            Self::NonKeyHeavy | Self::Networked => 4,
        }
    }

    fn format(self) -> Format {
        match self {
            Self::KeyOnlyLarge => LARGE,
            Self::NonKeyHeavy | Self::Networked => SMALL,
        }
    }

    /// Frames in one pass over a run's clips.  The 3-px error varies a lot
    /// from scene to scene; scoring this many frames (192 or 64 scenes)
    /// keeps its spread across seeds under about 10%.
    fn frames_per_pass(self) -> usize {
        match self {
            Self::KeyOnlyLarge => 192,
            Self::NonKeyHeavy | Self::Networked => 256,
        }
    }

    /// Frames of the clip each set-up streams to warm the system: one
    /// key-frame period, and at least two frames.
    fn warm_up_frames(self) -> usize {
        self.propagation_window().max(2)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The system under test, as every workload configures it: the paper's
/// DispNet stand-in with the census key-frame matcher.
fn system(workload: Workload) -> AsvSystem {
    let format = workload.format();
    AsvSystem::new(AsvConfig {
        propagation_window: workload.propagation_window(),
        max_disparity: format.max_disparity,
        frame_width: format.width,
        frame_height: format.height,
        network: "DispNet".to_owned(),
        metric: CostMetric::Census,
    })
    .expect("DispNet is in the network zoo")
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn render_clip(format: Format, seed: u64, index: usize, frames: usize) -> Clip {
    let mut scene = SceneConfig::scene_flow_like(format.width, format.height)
        .with_seed(splitmix64(seed ^ splitmix64(index as u64)))
        .with_objects(OBJECTS);
    // Objects come nearer with the search range: 28 px (the profile's own
    // value) for 32 disparities, 60 px for 64.
    scene.max_disparity = (format.max_disparity - 4) as f32;
    StereoSequence::generate(&scene, frames)
        .into_stream()
        .map(|mut frame| {
            // Ground-truth flow is not scored; dropping it frees two of the
            // five planes each frame holds.
            frame.flow_to_next = None;
            frame
        })
        .collect()
}

/// Renders `count` clips of `frames` frames on all cores (rendering is the
/// slowest part of a run's preparation and is not measured).
fn render_clips(format: Format, seed: u64, count: usize, frames: usize) -> Vec<Clip> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread = count.div_ceil(threads).max(1);
    let mut clips: Vec<Clip> = vec![Vec::new(); count];
    std::thread::scope(|scope| {
        for (chunk_index, chunk) in clips.chunks_mut(per_thread).enumerate() {
            scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    let index = chunk_index * per_thread + offset;
                    *slot = render_clip(format, seed, index, frames);
                }
            });
        }
    });
    clips
}

/// FNV-1a over the disparity bits: replayed clips must match exactly.
fn fingerprint(map: &DisparityMap) -> u64 {
    map.as_image()
        .as_slice()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |hash, value| {
            (hash ^ u64::from(value.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Verifies every output frame: its kind follows the key-frame schedule,
/// the first output of each clip frame is scored against ground truth, and
/// every replay reproduces the first output bit for bit.  Its work is never
/// part of a measured time.
struct Checker {
    clip_frames: usize,
    first_output: Vec<Option<u64>>,
    error_sum: f64,
    scored: usize,
    failed: u64,
}

impl Checker {
    fn new(clips: &[Clip]) -> Self {
        let clip_frames = clips.first().map_or(0, Vec::len);
        Self {
            clip_frames,
            first_output: vec![None; clips.len() * clip_frames],
            error_sum: 0.0,
            scored: 0,
            failed: 0,
        }
    }

    fn check(
        &mut self,
        clip: usize,
        index: usize,
        truth: &StereoFrame,
        kind: FrameKind,
        map: &DisparityMap,
    ) {
        let expected = if index == 0 {
            FrameKind::KeyFrame
        } else {
            FrameKind::NonKeyFrame
        };
        let hash = fingerprint(map);
        let output_ok = match &mut self.first_output[clip * self.clip_frames + index] {
            Some(first) => *first == hash,
            slot @ None => {
                *slot = Some(hash);
                match map.three_pixel_error(&truth.ground_truth) {
                    Ok(error) => {
                        self.error_sum += error;
                        self.scored += 1;
                        error <= MAX_FRAME_ERROR
                    }
                    Err(_) => false,
                }
            }
        };
        if kind != expected || !output_ok {
            self.failed += 1;
        }
    }

    /// Whether every clip frame was scored at least once.
    fn complete(&self) -> bool {
        self.first_output.iter().all(Option::is_some)
    }

    /// Mean share of bad pixels (error above 3 px) over the scored frames,
    /// in percent.
    fn error_pct(&self) -> f64 {
        100.0 * self.error_sum / self.scored.max(1) as f64
    }
}

/// Per-layer counters of one measured phase.
#[derive(Debug, Default)]
struct Layers {
    key_frames: u64,
    nonkey_frames: u64,
    /// Time inside the ISM step, summed over frames.
    service_ns: u64,
    /// Time frames waited in the scheduler inbox, summed over frames.
    queue_wait_ns: u64,
    /// Per-stage span time, summed over the frames the stage ran in.
    stage_ns: [u64; Stage::COUNT],
    stage_frames: [u64; Stage::COUNT],
    allocations: u64,
    transport_errors: u64,
    /// How late the camera sent frames after they were due, summed over
    /// frames (networked only): the load generator falling behind.
    camera_late_ns: u64,
}

impl Layers {
    fn record_frame(&mut self, kind: FrameKind, service: Duration, trace: Option<&FrameTrace>) {
        match kind {
            FrameKind::KeyFrame => self.key_frames += 1,
            FrameKind::NonKeyFrame => self.nonkey_frames += 1,
        }
        self.service_ns += service.as_nanos() as u64;
        if let Some(trace) = trace {
            for (stage, ns) in Stage::ALL.iter().zip(trace.stage_totals()) {
                if ns > 0 {
                    self.stage_ns[stage.index()] += ns;
                    self.stage_frames[stage.index()] += 1;
                }
            }
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let frames = (self.key_frames + self.nonkey_frames).max(1) as f64;
        let mut metrics = vec![
            Metric::new("key_frames", self.key_frames as f64, "count"),
            Metric::new("nonkey_frames", self.nonkey_frames as f64, "count"),
            Metric::new("service_ms", self.service_ns as f64 / frames / 1e6, "ms"),
            Metric::new(
                "queue_wait_ms",
                self.queue_wait_ns as f64 / frames / 1e6,
                "ms",
            ),
        ];
        // Mean span time per frame in which the stage ran.
        for stage in Stage::ALL {
            let ran = self.stage_frames[stage.index()].max(1) as f64;
            metrics.push(Metric::new(
                format!("{}_ms", stage.name()),
                self.stage_ns[stage.index()] as f64 / ran / 1e6,
                "ms",
            ));
        }
        metrics.push(Metric::new(
            "allocs_per_frame",
            self.allocations as f64 / frames,
            "count",
        ));
        metrics.push(Metric::new(
            "transport_errors",
            self.transport_errors as f64,
            "count",
        ));
        metrics.push(Metric::new(
            "camera_late_ms",
            self.camera_late_ns as f64 / frames / 1e6,
            "ms",
        ));
        metrics
    }
}

/// What one measured phase produced.
struct Outcome {
    setup: Vec<Duration>,
    latencies: Vec<Duration>,
    /// Time the measured frames took: in process the sum of the step calls,
    /// networked from the first frame's due time to the last frame's end.
    wall: Duration,
    attempted: u64,
    /// Failures found outside the per-frame checks (errors, lost frames).
    failed: u64,
    checker: Checker,
    layers: Layers,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The `q`-quantile of `samples`, interpolated between order statistics.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = q * last as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The in-process workloads: one stream stepped directly through
/// `IsmState::step_with`, the batch path a caller embedding the library
/// takes.
fn run_in_process(workload: Workload, clips: &[Clip], warm_up: &Clip, budget: Duration) -> Outcome {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let mut state = system(workload).pipeline().state();
        let mut ws = Workspace::new();
        for frame in warm_up {
            let result = state
                .step_with(&mut ws, &frame.left, &frame.right)
                .expect("warm-up frame steps");
            ws.recycle(result.disparity);
        }
        setup.push(started.elapsed());
        ready = Some((state, ws));
    }
    let (mut state, mut ws) = ready.expect("at least one set-up");

    let mut checker = Checker::new(clips);
    let mut layers = Layers::default();
    let mut latencies = Vec::with_capacity(1 << 16);
    let mut failed = 0;
    // Time spent stepping frames: the checks between steps are not measured.
    let mut wall = Duration::ZERO;
    let allocations = alloc::allocations();
    let started = Instant::now();
    for (played, clip) in (0..clips.len()).cycle().enumerate() {
        if played >= clips.len() && started.elapsed() >= budget {
            break;
        }
        for (index, frame) in clips[clip].iter().enumerate() {
            let step_started = Instant::now();
            let result = state.step_with(&mut ws, &frame.left, &frame.right);
            let service = step_started.elapsed();
            wall += service;
            latencies.push(service);
            match result {
                Ok(result) => {
                    layers.record_frame(result.kind, service, ws.tracer.last_frame());
                    checker.check(clip, index, frame, result.kind, &result.disparity);
                    ws.recycle(result.disparity);
                }
                Err(error) => {
                    eprintln!("clip {clip} frame {index}: {error}");
                    failed += 1;
                }
            }
        }
    }
    layers.allocations = alloc::allocations() - allocations;
    Outcome {
        setup,
        attempted: latencies.len() as u64,
        latencies,
        wall,
        failed,
        checker,
        layers,
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: asv-perfbench --workload <key_only_640x360|nonkey_heavy|networked> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Every workspace in the process (including the ones the runtime
    // creates per session) reads its span-recording mode from here; set it
    // before anything reads and caches it.
    std::env::set_var("ASV_TRACE", if args.trace { "ring" } else { "off" });

    let workload = args.workload;
    let format = workload.format();
    let window = workload.propagation_window();
    let clips = render_clips(
        format,
        args.seed,
        workload.frames_per_pass() / window,
        window,
    );
    let warm_up = render_clip(format, args.seed, usize::MAX, workload.warm_up_frames());
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let outcome = match workload {
        Workload::KeyOnlyLarge | Workload::NonKeyHeavy => {
            run_in_process(workload, &clips, &warm_up, budget)
        }
        Workload::Networked => networked::run(&clips, &warm_up, budget),
    };

    let failed = outcome.failed + outcome.checker.failed;
    let correct = failed == 0 && outcome.checker.complete();
    let metrics = if args.trace {
        outcome.layers.metrics()
    } else {
        let ms: Vec<f64> = outcome
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let setup: Vec<f64> = outcome.setup.iter().map(Duration::as_secs_f64).collect();
        vec![
            Metric::new(
                "fps",
                outcome.latencies.len() as f64 / outcome.wall.as_secs_f64(),
                "1/s",
            ),
            Metric::new("latency_p50_ms", quantile(&ms, 0.50), "ms"),
            Metric::new("latency_p90_ms", quantile(&ms, 0.90), "ms"),
            Metric::new("three_px_error_pct", outcome.checker.error_pct(), "%"),
            Metric::new("setup_s", quantile(&setup, 0.5), "s"),
        ]
    };
    eprintln!(
        "{:?}: {} frames in {:.2} s, {} failed",
        args.workload,
        outcome.attempted,
        outcome.wall.as_secs_f64(),
        failed
    );
    print_result(correct, outcome.attempted, failed, &metrics);
}
