//! `asv-trace`: zero-alloc-in-steady-state tracing of the ISM frame path.
//!
//! The ASV paper is a compute-vs-accuracy design space — key frames run a
//! full (surrogate) DNN, non-key frames propagate correspondences through
//! optical flow and refine them with a narrow search.  Whole-frame latency
//! alone cannot show *where* a frame's budget goes, so this crate records a
//! span per pipeline stage ([`Stage`]) into a per-session [`Tracer`]:
//!
//! * **Ring mode** (the default): the last [`TraceConfig::ring_frames`]
//!   frames' span trees are retained in a preallocated ring.  After the
//!   first (warm-up) frame sized the buffers, recording performs **zero
//!   heap allocations** — the same contract as `asv-mem`'s buffer pools,
//!   and covered by the same allocation-regression tests.
//! * **Slow-frame forensics**: frames whose total latency exceeds
//!   [`TraceConfig::slow_threshold_us`] are copied into a separate bounded
//!   retention ring ([`Tracer::slow_frames`]), so a p99 outlier's full span
//!   tree survives long after the main ring rotated past it.
//! * **Full mode** retains *every* frame (allocating per frame — a bounded
//!   capture tool, not a production mode).
//! * [`chrome`] renders any set of captured frames as Chrome trace-event
//!   JSON, loadable in `chrome://tracing` or Perfetto.
//!
//! The mode comes from the `ASV_TRACE` environment variable (`off`, `ring`,
//! `full`; default `ring`), mirroring the `ASV_SIMD` convention, and the
//! slow-frame threshold from `ASV_TRACE_SLOW_US`.
//!
//! Kernel crates cannot call into a tracer they do not own (and the rayon
//! shim may run a closure on a pool worker thread, where a thread-local
//! tracer would lose spans), so they record `(stage, start, duration)`
//! triples into a [`KernelTimings`] embedded in the workspace they already
//! borrow; the pipeline layer harvests those into the tracer from the
//! calling thread ([`Tracer::harvest`]).

pub mod chrome;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Spans retained per frame; later spans are counted in
/// [`Tracer::dropped_spans`] instead of recorded.  The deepest real frame
/// (adaptive re-key: flow + pyramid + DNN with a left-right check) emits
/// around a dozen spans, so 32 leaves ample headroom.
pub const MAX_SPANS_PER_FRAME: usize = 32;

/// Maximum nesting depth of open spans.
pub const MAX_SPAN_DEPTH: usize = 8;

/// Entries a [`KernelTimings`] retains per kernel invocation.
pub const MAX_KERNEL_TIMINGS: usize = 16;

/// Hard cap on frames retained by [`TraceMode::Full`] before new frames are
/// dropped (counted in [`Tracer::dropped_frames`]).
pub const FULL_MODE_FRAME_CAP: usize = 65_536;

/// One pipeline stage of the ISM frame path, the unit of span attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stage {
    /// Gaussian pyramid construction of both frames of one flow estimation.
    PyramidBuild,
    /// Farneback optical flow of the left view (t → t+1).
    #[default]
    FlowLeft,
    /// Farneback optical flow of the right view (t → t+1).
    FlowRight,
    /// Matching-cost volume fill (SAD block costs or census/Hamming).
    CostFill,
    /// Semi-global aggregation of the cost volume along the path directions.
    SgmAggregate,
    /// Correspondence propagation along the two flow fields.
    Propagate,
    /// Narrow block-matching refinement around the propagated disparity.
    Refine,
    /// Key-frame (surrogate) DNN inference, SGM passes included.
    DnnInfer,
}

impl Stage {
    /// Number of stages (array dimension for per-stage accumulators).
    pub const COUNT: usize = 8;

    /// Every stage, in rendering order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::PyramidBuild,
        Stage::FlowLeft,
        Stage::FlowRight,
        Stage::CostFill,
        Stage::SgmAggregate,
        Stage::Propagate,
        Stage::Refine,
        Stage::DnnInfer,
    ];

    /// Stable snake_case name (Prometheus `stage` label, Chrome event name).
    pub fn name(self) -> &'static str {
        match self {
            Stage::PyramidBuild => "pyramid_build",
            Stage::FlowLeft => "flow_left",
            Stage::FlowRight => "flow_right",
            Stage::CostFill => "cost_fill",
            Stage::SgmAggregate => "sgm_aggregate",
            Stage::Propagate => "propagate",
            Stage::Refine => "refine",
            Stage::DnnInfer => "dnn_infer",
        }
    }

    /// Dense index of the stage in [`Stage::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            Stage::PyramidBuild => 0,
            Stage::FlowLeft => 1,
            Stage::FlowRight => 2,
            Stage::CostFill => 3,
            Stage::SgmAggregate => 4,
            Stage::Propagate => 5,
            Stage::Refine => 6,
            Stage::DnnInfer => 7,
        }
    }
}

/// What the tracer records, selected by the `ASV_TRACE` environment
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing; every tracer call is a cheap no-op.
    Off,
    /// Record the last [`TraceConfig::ring_frames`] frames into a
    /// preallocated ring — zero steady-state allocations.  The default.
    #[default]
    Ring,
    /// Ring plus an unbounded-ish (see [`FULL_MODE_FRAME_CAP`]) retention
    /// of every frame.  Allocates one frame record per frame — a capture
    /// tool for offline analysis, not a production mode.
    Full,
}

impl TraceMode {
    /// Stable lowercase name (mirrors the `ASV_TRACE` values).
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Ring => "ring",
            TraceMode::Full => "full",
        }
    }

    /// Parses an `ASV_TRACE` value; unknown values fall back to the
    /// default (`ring`), like an unknown `ASV_SIMD` tier falls back to
    /// runtime dispatch.
    pub fn parse(value: &str) -> TraceMode {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" | "false" => TraceMode::Off,
            "full" | "2" => TraceMode::Full,
            _ => TraceMode::Ring,
        }
    }

    /// The process-wide mode from the `ASV_TRACE` environment variable,
    /// read once and cached (unset means [`TraceMode::Ring`]).
    pub fn from_env() -> TraceMode {
        static MODE: OnceLock<TraceMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("ASV_TRACE") {
            Ok(value) => TraceMode::parse(&value),
            Err(_) => TraceMode::Ring,
        })
    }
}

/// Tuning knobs of one [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// What to record (see [`TraceMode`]).
    pub mode: TraceMode,
    /// Frames retained by the ring (clamped to at least 1).
    pub ring_frames: usize,
    /// Frames slower than this many microseconds end-to-end are copied
    /// into the slow-frame retention ring; `None` disables forensics.
    pub slow_threshold_us: Option<u64>,
    /// Slow frames retained (the most recent ones win; clamped to at
    /// least 1 when forensics is enabled).
    pub slow_retained: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            mode: TraceMode::default(),
            ring_frames: 64,
            slow_threshold_us: None,
            slow_retained: 8,
        }
    }
}

impl TraceConfig {
    /// The environment-driven configuration: mode from `ASV_TRACE`,
    /// slow-frame threshold from `ASV_TRACE_SLOW_US` (microseconds), both
    /// read once per process and cached.
    pub fn from_env() -> Self {
        static SLOW_US: OnceLock<Option<u64>> = OnceLock::new();
        let slow_threshold_us = *SLOW_US.get_or_init(|| {
            std::env::var("ASV_TRACE_SLOW_US")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        });
        Self {
            mode: TraceMode::from_env(),
            slow_threshold_us,
            ..Self::default()
        }
    }

    /// A disabled configuration (every tracer call is a no-op).
    pub fn off() -> Self {
        Self {
            mode: TraceMode::Off,
            ..Self::default()
        }
    }
}

/// One recorded span: a stage, its frame-relative start and its duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// The pipeline stage this span measures.
    pub stage: Stage,
    /// Start, nanoseconds since the frame's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth: 1 for a top-level stage of the frame, 2 for a
    /// sub-stage (e.g. the pyramid build inside a flow estimation).
    pub depth: u8,
}

impl SpanRecord {
    /// End of the span, nanoseconds since the frame's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// The span tree of one fully processed frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameTrace {
    /// Zero-based index of the frame within its session's stream.
    pub frame_index: u64,
    /// Frame start, nanoseconds since the process-wide trace origin (so
    /// frames of different sessions share one timeline).
    pub epoch_ns: u64,
    /// End-to-end frame latency in nanoseconds.
    pub total_ns: u64,
    /// Whether the frame ran the key-frame (DNN) path.
    pub key_frame: bool,
    /// The recorded spans, in recording order.
    pub spans: Vec<SpanRecord>,
}

impl FrameTrace {
    fn with_span_capacity() -> Self {
        Self {
            spans: Vec::with_capacity(MAX_SPANS_PER_FRAME), // lint: alloc-ok(span buffer sized once; ring slots reuse it)
            ..Self::default()
        }
    }

    /// Copies `other` into `self`, reusing the span buffer's capacity
    /// (allocation-free when both were sized by the same tracer).
    fn copy_from(&mut self, other: &FrameTrace) {
        self.frame_index = other.frame_index;
        self.epoch_ns = other.epoch_ns;
        self.total_ns = other.total_ns;
        self.key_frame = other.key_frame;
        self.spans.clear();
        self.spans.extend_from_slice(&other.spans);
    }

    /// Summed span duration per stage, nanoseconds, indexed by
    /// [`Stage::index`].  A stage invoked twice in one frame (e.g. the two
    /// SGM passes of a left-right check) contributes both spans.
    pub fn stage_totals(&self) -> [u64; Stage::COUNT] {
        let mut totals = [0u64; Stage::COUNT];
        for span in &self.spans {
            totals[span.stage.index()] = totals[span.stage.index()].saturating_add(span.dur_ns);
        }
        totals
    }
}

/// The process-wide trace origin: every [`FrameTrace::epoch_ns`] is
/// relative to this instant, so traces of concurrent sessions align on one
/// Chrome timeline.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Handle of an open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an unclosed span records zero duration"]
pub struct SpanHandle(u16);

/// The disabled-span sentinel.
const NO_SPAN: u16 = u16::MAX;

/// Per-session span recorder.  One tracer belongs to one stream's
/// workspace; it is not thread-safe and never needs to be — a session is
/// only ever stepped by one worker at a time.
///
/// Lifecycle per frame: [`Tracer::frame_start`], any mix of
/// [`Tracer::enter`]/[`Tracer::exit`], [`Tracer::record_at`] and
/// [`Tracer::harvest`], then [`Tracer::frame_end`].  A frame aborted by an
/// error needs no cleanup: the next `frame_start` resets the partial
/// record.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    /// Instant of the current frame's start.
    frame_epoch: Instant,
    in_frame: bool,
    warmed: bool,
    frame_index: u64,
    frames_recorded: u64,
    dropped_spans: u64,
    dropped_frames: u64,
    current: FrameTrace,
    /// Stack of indices into `current.spans` for the open spans.
    open: Vec<u16>,
    ring: Vec<FrameTrace>,
    ring_next: usize,
    ring_len: usize,
    slow: Vec<FrameTrace>,
    slow_next: usize,
    slow_len: usize,
    full: Vec<FrameTrace>,
}

impl Tracer {
    /// Creates a tracer.  Nothing is allocated until the first
    /// [`Tracer::frame_start`] (which sizes the ring once); a disabled
    /// tracer never allocates.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            frame_epoch: Instant::now(),
            in_frame: false,
            warmed: false,
            frame_index: 0,
            frames_recorded: 0,
            dropped_spans: 0,
            dropped_frames: 0,
            current: FrameTrace::default(),
            open: Vec::new(),
            ring: Vec::new(),
            ring_next: 0,
            ring_len: 0,
            slow: Vec::new(),
            slow_next: 0,
            slow_len: 0,
            full: Vec::new(),
        }
    }

    /// A tracer configured from the `ASV_TRACE` / `ASV_TRACE_SLOW_US`
    /// environment variables.
    pub fn from_env() -> Self {
        Self::new(TraceConfig::from_env())
    }

    /// The tracer's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Whether the tracer records anything at all.
    pub fn enabled(&self) -> bool {
        self.config.mode != TraceMode::Off
    }

    fn active(&self) -> bool {
        self.in_frame && self.enabled()
    }

    /// One-time buffer sizing: the warm-up allocation every pooled
    /// structure in this workspace performs on its first frame.
    fn warm(&mut self) {
        self.warmed = true;
        self.current = FrameTrace::with_span_capacity();
        self.open.reserve_exact(MAX_SPAN_DEPTH);
        let ring_frames = self.config.ring_frames.max(1);
        self.ring.reserve_exact(ring_frames);
        for _ in 0..ring_frames {
            self.ring.push(FrameTrace::with_span_capacity());
        }
        if self.config.slow_threshold_us.is_some() {
            let retained = self.config.slow_retained.max(1);
            self.slow.reserve_exact(retained);
            for _ in 0..retained {
                self.slow.push(FrameTrace::with_span_capacity());
            }
        }
    }

    /// Begins a frame, discarding any partial record of an aborted one.
    pub fn frame_start(&mut self) {
        if !self.enabled() {
            return;
        }
        if !self.warmed {
            self.warm();
        }
        self.frame_epoch = Instant::now();
        self.current.epoch_ns = self
            .frame_epoch
            .saturating_duration_since(origin())
            .as_nanos() as u64;
        self.current.spans.clear();
        self.open.clear();
        self.in_frame = true;
    }

    /// Opens a span for `stage` at the current nesting depth.  Returns a
    /// no-op handle when disabled or when the frame's span budget
    /// ([`MAX_SPANS_PER_FRAME`]) is exhausted.
    pub fn enter(&mut self, stage: Stage) -> SpanHandle {
        if !self.active() {
            return SpanHandle(NO_SPAN);
        }
        if self.current.spans.len() >= MAX_SPANS_PER_FRAME || self.open.len() >= MAX_SPAN_DEPTH {
            self.dropped_spans += 1;
            return SpanHandle(NO_SPAN);
        }
        let index = self.current.spans.len() as u16;
        self.current.spans.push(SpanRecord {
            stage,
            start_ns: self.frame_epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            depth: self.open.len() as u8 + 1,
        });
        self.open.push(index);
        SpanHandle(index)
    }

    /// Closes a span (and, defensively, any deeper span left open above
    /// it, so a forgotten exit cannot corrupt later nesting).
    pub fn exit(&mut self, handle: SpanHandle) {
        if handle.0 == NO_SPAN || !self.active() {
            return;
        }
        let end_ns = self.frame_epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            let span = &mut self.current.spans[top as usize];
            span.dur_ns = end_ns.saturating_sub(span.start_ns);
            if top == handle.0 {
                break;
            }
        }
    }

    /// Records a span measured elsewhere (e.g. inside a rayon closure that
    /// ran on a pool worker thread) from explicit instants.  The span is
    /// placed `extra_depth` levels below the current nesting depth.
    pub fn record_at(&mut self, stage: Stage, start: Instant, duration: Duration, extra_depth: u8) {
        if !self.active() {
            return;
        }
        if self.current.spans.len() >= MAX_SPANS_PER_FRAME {
            self.dropped_spans += 1;
            return;
        }
        let start_ns = start.saturating_duration_since(self.frame_epoch).as_nanos() as u64;
        self.current.spans.push(SpanRecord {
            stage,
            start_ns,
            dur_ns: duration.as_nanos() as u64,
            depth: (self.open.len() as u8)
                .saturating_add(1)
                .saturating_add(extra_depth),
        });
    }

    /// Replays every entry a kernel recorded into its workspace's
    /// [`KernelTimings`] as spans of the current frame.
    pub fn harvest(&mut self, timings: &KernelTimings) {
        if !self.active() {
            return;
        }
        for &(stage, start, duration, extra_depth) in timings.entries() {
            self.record_at(stage, start, duration, extra_depth);
        }
    }

    /// Finishes the current frame: closes dangling spans, stamps the total
    /// latency, applies slow-frame retention and rotates the record into
    /// the ring.
    pub fn frame_end(&mut self, key_frame: bool) {
        if !self.active() {
            self.in_frame = false;
            return;
        }
        let end_ns = self.frame_epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            let span = &mut self.current.spans[top as usize];
            span.dur_ns = end_ns.saturating_sub(span.start_ns);
        }
        self.current.total_ns = end_ns;
        self.current.key_frame = key_frame;
        self.current.frame_index = self.frame_index;
        self.frame_index += 1;
        self.frames_recorded += 1;
        self.in_frame = false;

        if let Some(threshold_us) = self.config.slow_threshold_us {
            if self.current.total_ns >= threshold_us.saturating_mul(1_000) && !self.slow.is_empty()
            {
                let slot = &mut self.slow[self.slow_next];
                slot.copy_from(&self.current);
                self.slow_next = (self.slow_next + 1) % self.slow.len();
                self.slow_len = (self.slow_len + 1).min(self.slow.len());
            }
        }
        if self.config.mode == TraceMode::Full {
            if self.full.len() < FULL_MODE_FRAME_CAP {
                self.full.push(self.current.clone()); // lint: alloc-ok(full-trace mode only, capped at FULL_MODE_FRAME_CAP)
            } else {
                self.dropped_frames += 1;
            }
        }
        let slot_count = self.ring.len();
        std::mem::swap(&mut self.current, &mut self.ring[self.ring_next]);
        self.ring_next = (self.ring_next + 1) % slot_count;
        self.ring_len = (self.ring_len + 1).min(slot_count);
    }

    /// The most recently finished frame, if any frame finished yet.
    pub fn last_frame(&self) -> Option<&FrameTrace> {
        if self.ring_len == 0 {
            return None;
        }
        let slot_count = self.ring.len();
        Some(&self.ring[(self.ring_next + slot_count - 1) % slot_count])
    }

    /// The retained ring frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &FrameTrace> {
        let slot_count = self.ring.len().max(1);
        let start = (self.ring_next + slot_count - self.ring_len) % slot_count;
        (0..self.ring_len).map(move |i| &self.ring[(start + i) % slot_count])
    }

    /// The retained slow frames (forensics), oldest first.
    pub fn slow_frames(&self) -> impl Iterator<Item = &FrameTrace> {
        let slot_count = self.slow.len().max(1);
        let start = (self.slow_next + slot_count - self.slow_len) % slot_count;
        (0..self.slow_len).map(move |i| &self.slow[(start + i) % slot_count])
    }

    /// Every frame retained by [`TraceMode::Full`], oldest first.
    pub fn full_frames(&self) -> &[FrameTrace] {
        &self.full
    }

    /// Frames recorded over the tracer's lifetime (not just retained).
    pub fn frames_recorded(&self) -> u64 {
        self.frames_recorded
    }

    /// Spans discarded because a frame exceeded [`MAX_SPANS_PER_FRAME`] or
    /// [`MAX_SPAN_DEPTH`].
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Frames full mode discarded past [`FULL_MODE_FRAME_CAP`].
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Kernel-side span staging: `(stage, start, duration, extra_depth)`
/// entries recorded by kernel crates into the workspace they already
/// borrow, harvested into a [`Tracer`] by the pipeline layer
/// ([`Tracer::harvest`]).
///
/// Recording is mode-agnostic (two `Instant::now()` calls per kernel,
/// noise against millisecond-scale kernels) and works on any thread — the
/// rayon shim may run a closure on a persistent pool worker, where
/// thread-local storage would silently lose spans.
/// The buffer is sized once on first use and then reused; entries past
/// [`MAX_KERNEL_TIMINGS`] are dropped.
#[derive(Debug, Clone, Default)]
pub struct KernelTimings {
    entries: Vec<(Stage, Instant, Duration, u8)>,
}

impl KernelTimings {
    /// Creates an empty staging buffer (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards staged entries, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Stages one measured span.  `extra_depth` is the nesting level below
    /// the harvesting call site (0 = sibling of the harvest point's depth).
    pub fn record(&mut self, stage: Stage, start: Instant, duration: Duration, extra_depth: u8) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(MAX_KERNEL_TIMINGS);
        }
        if self.entries.len() >= MAX_KERNEL_TIMINGS {
            return;
        }
        self.entries.push((stage, start, duration, extra_depth));
    }

    /// The staged entries, in recording order.
    pub fn entries(&self) -> &[(Stage, Instant, Duration, u8)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_config(frames: usize) -> TraceConfig {
        TraceConfig {
            mode: TraceMode::Ring,
            ring_frames: frames,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn stage_indices_are_dense_and_names_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(seen.insert(stage.name()), "duplicate name {}", stage.name());
        }
        assert_eq!(seen.len(), Stage::COUNT);
    }

    #[test]
    fn mode_parsing_matches_the_documented_values() {
        assert_eq!(TraceMode::parse("off"), TraceMode::Off);
        assert_eq!(TraceMode::parse("0"), TraceMode::Off);
        assert_eq!(TraceMode::parse("NONE"), TraceMode::Off);
        assert_eq!(TraceMode::parse("ring"), TraceMode::Ring);
        assert_eq!(TraceMode::parse("Full"), TraceMode::Full);
        assert_eq!(TraceMode::parse("garbage"), TraceMode::Ring);
    }

    #[test]
    fn spans_nest_and_rotate_through_the_ring() {
        let mut tracer = Tracer::new(ring_config(2));
        for frame in 0..3u64 {
            tracer.frame_start();
            let outer = tracer.enter(Stage::DnnInfer);
            let inner = tracer.enter(Stage::CostFill);
            tracer.exit(inner);
            tracer.exit(outer);
            tracer.frame_end(true);
            assert_eq!(tracer.last_frame().unwrap().frame_index, frame);
        }
        assert_eq!(tracer.frames_recorded(), 3);
        let retained: Vec<u64> = tracer.frames().map(|f| f.frame_index).collect();
        assert_eq!(retained, vec![1, 2], "ring keeps the newest frames");
        let last = tracer.last_frame().unwrap();
        assert_eq!(last.spans.len(), 2);
        assert_eq!(last.spans[0].depth, 1);
        assert_eq!(last.spans[1].depth, 2);
        assert!(last.spans[1].start_ns >= last.spans[0].start_ns);
        assert!(last.spans.iter().all(|s| s.end_ns() <= last.total_ns));
        let totals = last.stage_totals();
        assert!(totals[Stage::DnnInfer.index()] >= totals[Stage::CostFill.index()]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_never_allocates_slots() {
        let mut tracer = Tracer::new(TraceConfig::off());
        tracer.frame_start();
        let span = tracer.enter(Stage::Refine);
        tracer.exit(span);
        tracer.frame_end(false);
        assert!(tracer.last_frame().is_none());
        assert_eq!(tracer.frames_recorded(), 0);
        assert!(tracer.frames().next().is_none());
    }

    #[test]
    fn steady_state_recording_is_allocation_free_by_capacity() {
        // Structural proxy for the end-to-end allocation test in `asv`:
        // after the warm-up frame, no buffer ever grows.
        let mut tracer = Tracer::new(ring_config(4));
        tracer.frame_start();
        tracer.frame_end(true);
        let spans_cap = tracer.current.spans.capacity();
        let ring_ptr = tracer.ring.as_ptr() as usize;
        for _ in 0..40 {
            tracer.frame_start();
            for _ in 0..(MAX_SPANS_PER_FRAME + 4) {
                let span = tracer.enter(Stage::Propagate);
                tracer.exit(span);
            }
            tracer.frame_end(false);
        }
        assert!(tracer.dropped_spans() > 0, "over-budget spans are dropped");
        assert_eq!(tracer.current.spans.capacity(), spans_cap);
        assert_eq!(tracer.ring.as_ptr() as usize, ring_ptr);
        for frame in tracer.frames() {
            assert!(frame.spans.capacity() <= MAX_SPANS_PER_FRAME);
            assert_eq!(frame.spans.len(), MAX_SPANS_PER_FRAME);
        }
    }

    #[test]
    fn slow_frames_are_retained_with_their_spans() {
        let mut tracer = Tracer::new(TraceConfig {
            mode: TraceMode::Ring,
            ring_frames: 1,
            slow_threshold_us: Some(0),
            slow_retained: 2,
        });
        for _ in 0..3 {
            tracer.frame_start();
            let span = tracer.enter(Stage::Refine);
            tracer.exit(span);
            tracer.frame_end(false);
        }
        let slow: Vec<&FrameTrace> = tracer.slow_frames().collect();
        assert_eq!(slow.len(), 2, "retention ring keeps the newest slow frames");
        assert_eq!(slow[0].frame_index, 1);
        assert_eq!(slow[1].frame_index, 2);
        assert!(slow.iter().all(|f| f.spans.len() == 1));
    }

    #[test]
    fn full_mode_retains_every_frame() {
        let mut tracer = Tracer::new(TraceConfig {
            mode: TraceMode::Full,
            ring_frames: 2,
            ..TraceConfig::default()
        });
        for _ in 0..5 {
            tracer.frame_start();
            tracer.frame_end(false);
        }
        assert_eq!(tracer.full_frames().len(), 5);
        assert_eq!(tracer.frames().count(), 2);
    }

    #[test]
    fn aborted_frames_are_discarded_by_the_next_start() {
        let mut tracer = Tracer::new(ring_config(4));
        tracer.frame_start();
        let _ = tracer.enter(Stage::FlowLeft); // error path: no exit, no end
        tracer.frame_start();
        tracer.frame_end(false);
        assert_eq!(tracer.frames_recorded(), 1);
        assert!(tracer.last_frame().unwrap().spans.is_empty());
    }

    #[test]
    fn kernel_timings_are_harvested_at_the_requested_depth() {
        let mut timings = KernelTimings::new();
        let start = Instant::now();
        timings.record(Stage::PyramidBuild, start, Duration::from_micros(10), 1);
        timings.record(Stage::FlowLeft, start, Duration::from_micros(50), 0);
        let mut tracer = Tracer::new(ring_config(4));
        tracer.frame_start();
        tracer.harvest(&timings);
        tracer.frame_end(false);
        let frame = tracer.last_frame().unwrap();
        assert_eq!(frame.spans.len(), 2);
        assert_eq!(frame.spans[0].depth, 2);
        assert_eq!(frame.spans[1].depth, 1);
        assert_eq!(frame.stage_totals()[Stage::FlowLeft.index()], 50_000);
    }

    #[test]
    fn kernel_timings_cap_and_clear_keep_capacity() {
        let mut timings = KernelTimings::new();
        let start = Instant::now();
        for _ in 0..(MAX_KERNEL_TIMINGS + 5) {
            timings.record(Stage::CostFill, start, Duration::ZERO, 0);
        }
        assert_eq!(timings.entries().len(), MAX_KERNEL_TIMINGS);
        let capacity = {
            timings.clear();
            timings.entries.capacity()
        };
        assert_eq!(capacity, MAX_KERNEL_TIMINGS);
        timings.record(Stage::Refine, start, Duration::ZERO, 0);
        assert_eq!(timings.entries().len(), 1);
    }
}
