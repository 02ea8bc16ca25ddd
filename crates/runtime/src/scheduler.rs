//! The multi-session scheduler: a fixed worker pool multiplexing many
//! camera streams over bounded inboxes.
//!
//! # Execution model
//!
//! One [`Scheduler`] owns `N` OS worker threads (`std::thread`) and a table
//! of [`StreamSession`]s.  All shared state lives behind a single engine
//! mutex; the heavy per-frame kernel work (DNN surrogate, optical flow,
//! refinement) runs *outside* the lock, so the lock is only held for
//! queue/table bookkeeping that costs microseconds.
//!
//! # Ordering
//!
//! A session's ISM state is physically *taken out* of the table while a
//! worker steps one of its frames, so a session is never advanced by two
//! workers at once.  Combined with FIFO inboxes this guarantees that each
//! session's results appear in exactly the order its frames were submitted —
//! the property that makes streaming output byte-identical to batch
//! [`asv::IsmPipeline::process_sequence`].
//!
//! # Backpressure
//!
//! Every session has a bounded inbox ([`SchedulerConfig::inbox_capacity`]).
//! What happens when an inbox is full is the scheduler's [`ShedPolicy`]:
//! under the default `Block`, [`SessionHandle::submit`] parks the producer
//! on a condition variable until a worker drains a slot; `Reject` fails the
//! submit with [`AsvError::Saturated`]; `DropOldest` displaces the oldest
//! queued frame of the same session.  In every case a slow consumer costs
//! only its own producer — memory per session stays bounded by
//! `inbox_capacity` frames — while other sessions keep flowing.
//!
//! # Fairness
//!
//! Idle workers scan the session table round-robin from a shared rotating
//! cursor: after dispatching from session `i` the next scan starts at
//! `i + 1`, so a session that always has queued frames cannot starve the
//! others; with `S` backlogged sessions each gets every `S`-th dispatch.
//! There is no priority mechanism — streams are peers, as camera feeds
//! typically are.
//!
//! # Failure
//!
//! A frame that fails ([`asv::AsvError`]) poisons only its own session: the
//! error is stored, queued frames are dropped (counted in telemetry), and
//! later submits to that session return the error.  Other sessions are
//! unaffected.

use crate::qos::{QosConfig, QosController};
use crate::queue::QueuedFrame;
use crate::session::{SessionId, SessionReport, StreamSession};
use crate::telemetry::{AggregateTelemetry, SessionTelemetry};
use asv::ism::{IsmResult, IsmState};
use asv::trace::chrome::ChromeTrace;
use asv::trace::TraceMode;
use asv::{AsvError, Workspace};
use asv_image::Image;
use asv_mem::BufferPool;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// What [`SessionHandle::submit`] does when the session's inbox is full.
///
/// The policy trades latency for loss: `Block` is lossless (the producer
/// waits), `Reject` pushes the decision back to the producer, and
/// `DropOldest` keeps only the freshest frames — the natural choice for a
/// live camera where a stale frame is worthless once a newer one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Park the producer until a worker drains a slot (lossless
    /// backpressure; the default, and the PR-2 behaviour).
    #[default]
    Block,
    /// Return [`AsvError::Saturated`] immediately; the frame is shed and
    /// counted in the session's `frames_shed` telemetry.
    Reject,
    /// Displace the oldest queued frame of the same session to make room;
    /// the displaced frame is counted in `frames_shed` and the new frame is
    /// accepted.  Never blocks and never fails on a full inbox.
    DropOldest,
}

/// Tuning knobs of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads in the pool.  `0` is allowed and means *manual mode*:
    /// no worker threads are spawned, inboxes only fill, and [`Scheduler::join`]
    /// discards whatever is still queued (deterministic admission-control
    /// tests rely on this).
    pub workers: usize,
    /// Bounded inbox capacity per session, in frames (clamped to at least
    /// 1).
    pub inbox_capacity: usize,
    /// What `submit` does when a session's inbox is full.
    pub shed_policy: ShedPolicy,
}

impl SchedulerConfig {
    /// A pool with one worker per available core, a small default inbox and
    /// lossless blocking backpressure.
    pub fn per_core() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            inbox_capacity: 4,
            shed_policy: ShedPolicy::Block,
        }
    }

    /// Returns the configuration with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the configuration with a different inbox capacity.
    pub fn with_inbox_capacity(mut self, capacity: usize) -> Self {
        self.inbox_capacity = capacity;
        self
    }

    /// Returns the configuration with a different load-shedding policy.
    pub fn with_shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::per_core()
    }
}

/// Mutable engine state shared by workers and producers.
#[derive(Debug)]
struct Engine {
    sessions: Vec<StreamSession>,
    /// Round-robin scan start for the next dispatch.
    cursor: usize,
    /// Set by [`Scheduler::join`] (and by drop): no new submissions are
    /// accepted, workers drain the inboxes and exit.
    shutdown: bool,
    /// Frames currently being processed outside the lock.
    in_flight: usize,
    /// Set when the shard has failed (injected fault via [`Scheduler::trip`]
    /// or a poisoned engine lock): every session is dead, submissions fail
    /// with [`AsvError::ShardDown`] and a supervisor may re-place the
    /// sessions on surviving shards.
    failed: Option<String>,
}

impl Engine {
    /// Picks the next (session, frame) pair round-robin and marks the
    /// session busy by taking its state and workspace out.
    fn dispatch_next(&mut self) -> Option<(usize, QueuedFrame, IsmState, Workspace)> {
        let n = self.sessions.len();
        if n == 0 {
            return None;
        }
        for k in 0..n {
            let idx = (self.cursor + k) % n;
            if self.sessions[idx].dispatchable() {
                self.cursor = (idx + 1) % n;
                let slot = &mut self.sessions[idx];
                let frame = slot.inbox.pop().expect("dispatchable inbox is non-empty");
                slot.telemetry.queue_depth.observe(slot.inbox.len());
                let (state, workspace) = slot.take_work();
                return Some((idx, frame, state, workspace));
            }
        }
        None
    }

    /// Whether the workers may exit: shutdown requested, nothing queued and
    /// nothing mid-frame.
    fn drained(&self) -> bool {
        self.shutdown && self.in_flight == 0 && self.sessions.iter().all(|s| s.inbox.is_empty())
    }
}

/// Condvar-equipped shared engine.
#[derive(Debug)]
struct Shared {
    engine: Mutex<Engine>,
    /// Workers park here when no session is dispatchable.
    work: Condvar,
    /// Producers park here when their session's inbox is full.
    space: Condvar,
    /// Planes of already-processed frames, recycled back to producers
    /// through [`SessionHandle::recycled_frame`] so producers can build new
    /// frames without fresh allocations.  A separate lock from the
    /// engine: recycling never contends with scheduling.
    frames: Mutex<BufferPool>,
    /// Engine start time, the origin of the wall-clock seconds in every
    /// telemetry fold.
    started: Instant,
}

impl Shared {
    /// Locks the engine, recovering from a poisoned mutex by marking the
    /// shard failed instead of propagating the panic: producers then get
    /// [`AsvError::ShardDown`] and a supervisor can re-place the sessions,
    /// rather than the whole process cascading.
    fn lock(&self) -> MutexGuard<'_, Engine> {
        match self.engine.lock() {
            Ok(guard) => guard,
            Err(poisoned) => self.mark_poisoned(poisoned.into_inner()),
        }
    }

    /// Parks on `condvar` with the same poison recovery as [`Shared::lock`].
    fn wait_on<'a>(
        &self,
        condvar: &Condvar,
        guard: MutexGuard<'a, Engine>,
    ) -> MutexGuard<'a, Engine> {
        match condvar.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => self.mark_poisoned(poisoned.into_inner()),
        }
    }

    /// The live fold of every session's telemetry behind both
    /// [`Scheduler::telemetry_snapshot`] and
    /// [`SchedulerObserver::telemetry_snapshot`].
    fn telemetry_snapshot(&self) -> AggregateTelemetry {
        let engine = self.lock();
        fold_sessions(
            engine.sessions.iter().map(|s| (&s.telemetry, &s.label)),
            self.started.elapsed().as_secs_f64(),
        )
    }

    fn mark_poisoned<'a>(&self, mut guard: MutexGuard<'a, Engine>) -> MutexGuard<'a, Engine> {
        self.fail_shard(&mut guard, "engine lock poisoned by a panicked thread");
        guard
    }

    /// Fails the shard once: every queued frame is dropped (and counted),
    /// each queue-depth gauge reads zero, every session without an error
    /// gets [`AsvError::ShardDown`], and parked producers (to fail their
    /// submits) and workers are woken.  A no-op on a shard that already
    /// failed.
    fn fail_shard(&self, engine: &mut Engine, context: impl std::fmt::Display) {
        if engine.failed.is_some() {
            return;
        }
        let context = context.to_string(); // lint: alloc-ok(shard-failure path)
        for slot in &mut engine.sessions {
            let dropped = slot.inbox.clear();
            slot.telemetry.frames_dropped += dropped as u64;
            slot.telemetry.queue_depth.observe(0);
            if slot.error.is_none() {
                slot.error = Some(AsvError::shard_down(context.clone())); // lint: alloc-ok(shard-failure path)
            }
        }
        engine.failed = Some(context);
        self.work.notify_all();
        self.space.notify_all();
    }
}

/// The streaming frame-serving engine: a fixed worker pool serving many
/// [`StreamSession`]s concurrently with bounded memory.
///
/// See the module documentation for the scheduling, backpressure and
/// fairness model.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    inbox_capacity: usize,
    shed_policy: ShedPolicy,
}

/// Producer-side handle of one registered session; cheap to clone and
/// `Send`, so a camera/feeder thread can own one.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    shared: Arc<Shared>,
    id: SessionId,
    shed_policy: ShedPolicy,
}

/// Everything the engine produced, returned by [`Scheduler::join`].
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-session reports, indexed by [`SessionId::index`] in registration
    /// order.
    pub sessions: Vec<SessionReport>,
    /// The fold of every session's telemetry plus wall-clock throughput.
    pub aggregate: AggregateTelemetry,
}

impl RuntimeReport {
    /// Converts every session into the batch result type, in registration
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first session error encountered.
    pub fn into_ism_results(self) -> Result<Vec<IsmResult>, AsvError> {
        self.sessions
            .into_iter()
            .map(SessionReport::into_ism_result)
            .collect()
    }
}

impl Scheduler {
    /// Starts a scheduler with its worker pool running (idle until sessions
    /// get frames).
    pub fn new(config: SchedulerConfig) -> Self {
        let shared = Arc::new(Shared {
            engine: Mutex::new(Engine {
                sessions: Vec::new(),
                cursor: 0,
                shutdown: false,
                in_flight: 0,
                failed: None,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            frames: Mutex::new(BufferPool::new()),
            started: Instant::now(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers,
            inbox_capacity: config.inbox_capacity.max(1),
            shed_policy: config.shed_policy,
        }
    }

    /// Registers a new stream around a fresh ISM state (one per camera) and
    /// returns its producer handle.  Sessions may be added while the engine
    /// is serving.
    ///
    /// `label` (e.g. the cluster routing key) names the session in its final
    /// report and in per-session exports.  With a `qos` configuration the
    /// session gets a [`QosController`] that watches its end-to-end step
    /// latency and actuates the stream's ISM knobs (cost metric, propagation
    /// window, adaptive-motion threshold) when the SLO is violated,
    /// recovering with hysteresis when load drops; the state's current knobs
    /// are the full-quality baseline.  A per-stream cost metric is set on
    /// the state itself
    /// ([`IsmState::set_cost_metric`]) before registering.
    pub fn add_session(
        &self,
        state: IsmState,
        label: Option<String>,
        qos: Option<QosConfig>,
    ) -> SessionHandle {
        let controller = qos.map(|config| QosController::for_state(config, &state));
        let mut engine = self.shared.lock();
        let id = SessionId(engine.sessions.len());
        let mut session =
            StreamSession::new(id, state, self.inbox_capacity, label).with_qos(controller);
        if let Some(context) = &engine.failed {
            // Registering on a failed shard yields a dead-on-arrival session
            // whose first submit reports the failure instead of queueing.
            session.error = Some(AsvError::shard_down(context.clone())); // lint: alloc-ok(session registration, once per stream)
        }
        engine.sessions.push(session);
        SessionHandle {
            shared: Arc::clone(&self.shared), // lint: alloc-ok(session registration, once per stream)
            id,
            shed_policy: self.shed_policy,
        }
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.shared.lock().sessions.len()
    }

    /// Kills this shard: every session is marked dead with
    /// [`AsvError::ShardDown`], queued frames are dropped (and counted) and
    /// every future submit fails immediately.  Parked producers are woken so
    /// a lost shard never wedges a feeder.  This is the fault-injection
    /// entry point of the sim's shard kill, and the same failure the runtime
    /// applies itself when it detects a poisoned engine lock.
    pub fn trip(&self, context: impl std::fmt::Display) {
        let mut engine = self.shared.lock();
        self.shared.fail_shard(&mut engine, context);
    }

    /// Whether this shard has failed (tripped or poisoned).
    pub fn is_failed(&self) -> bool {
        self.shared.lock().failed.is_some()
    }

    /// Instantaneous load: frames queued in every inbox plus frames being
    /// processed right now.  The cluster's least-loaded placement reads
    /// this.
    pub fn load(&self) -> usize {
        let engine = self.shared.lock();
        engine.in_flight + engine.sessions.iter().map(|s| s.inbox.len()).sum::<usize>()
    }

    /// Whether every registered session's inbox is full (vacuously false
    /// with no sessions).  The cluster treats a saturated shard as
    /// unplaceable and falls back to the least-loaded shard.
    pub fn is_saturated(&self) -> bool {
        let engine = self.shared.lock();
        !engine.sessions.is_empty() && engine.sessions.iter().all(|s| s.inbox.is_full())
    }

    /// A live fold of every session's telemetry (scrape path): the same
    /// aggregate [`Scheduler::join`] returns, computed without shutting the
    /// engine down.
    pub fn telemetry_snapshot(&self) -> AggregateTelemetry {
        self.shared.telemetry_snapshot()
    }

    /// Stops accepting submissions, drains every inbox, joins the worker
    /// pool and returns everything produced.
    ///
    /// Producers still blocked in [`SessionHandle::submit`] are woken and
    /// receive an error; call `join` after the feeders finished to process
    /// every frame.
    pub fn join(mut self) -> RuntimeReport {
        self.signal_shutdown();
        for handle in self.workers.drain(..) {
            handle.join().expect("runtime worker panicked");
        }
        let wall_seconds = self.shared.started.elapsed().as_secs_f64();
        let mut engine = self.shared.lock();
        let sessions: Vec<SessionReport> = engine
            .sessions
            .drain(..)
            .map(|mut s| {
                // With zero workers (manual mode) frames may still be
                // queued; they are discarded now and accounted for.
                let leftover = s.inbox.clear();
                s.telemetry.frames_dropped += leftover as u64;
                s.telemetry.queue_depth.observe(0);
                let id = s.id();
                SessionReport {
                    id,
                    label: s.label,
                    frames: s.results,
                    telemetry: s.telemetry,
                    error: s.error,
                }
            })
            .collect();
        drop(engine);
        let aggregate = fold_sessions(
            sessions.iter().map(|s| (&s.telemetry, &s.label)),
            wall_seconds,
        );
        RuntimeReport {
            sessions,
            aggregate,
        }
    }

    fn signal_shutdown(&self) {
        let mut engine = self.shared.lock();
        engine.shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    /// A detached observation handle for serving live telemetry (e.g. from
    /// the HTTP endpoint): it reads the engine without being able to submit,
    /// shut down or otherwise perturb it, and stays valid for the engine's
    /// lifetime (snapshots after [`Scheduler::join`] see zero sessions).
    pub fn observer(&self) -> SchedulerObserver {
        SchedulerObserver {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Read-only observation handle of one scheduler shard; cheap to clone and
/// `Send`, created by [`Scheduler::observer`].
#[derive(Debug, Clone)]
pub struct SchedulerObserver {
    shared: Arc<Shared>,
}

impl SchedulerObserver {
    /// Whether the observed shard has failed (tripped or poisoned).
    pub fn is_failed(&self) -> bool {
        self.shared.lock().failed.is_some()
    }

    /// Whether the observed shard is shutting down (its `join` has begun)
    /// or has already drained.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.lock().shutdown
    }

    /// A live fold of every session's telemetry, identical to
    /// [`Scheduler::telemetry_snapshot`].
    pub fn telemetry_snapshot(&self) -> AggregateTelemetry {
        self.shared.telemetry_snapshot()
    }

    /// Appends every session's captured frame traces to a Chrome trace
    /// document: `pid` identifies this shard, one `tid` per session (named
    /// after the session label).  Ring mode contributes the retained ring
    /// plus any slow-frame forensics not already in it; full mode
    /// contributes the complete capture.  Sessions whose workspace is
    /// checked out by a worker mid-frame are skipped — the next scrape
    /// catches them.
    pub fn add_chrome_trace(&self, trace: &mut ChromeTrace, pid: u32) {
        let engine = self.shared.lock();
        for (index, session) in engine.sessions.iter().enumerate() {
            let Some(workspace) = session.resident_workspace() else {
                continue;
            };
            let tracer = &workspace.tracer;
            if tracer.frames_recorded() == 0 {
                continue;
            }
            let tid = index as u32;
            match &session.label {
                Some(label) => trace.add_thread_name(pid, tid, label),
                None => trace.add_thread_name(pid, tid, &format!("session-{index}")),
            }
            if tracer.config().mode == TraceMode::Full {
                for frame in tracer.full_frames() {
                    trace.add_frame(pid, tid, frame);
                }
            } else {
                let ring: Vec<u64> = tracer.frames().map(|f| f.frame_index).collect();
                for frame in tracer.frames() {
                    trace.add_frame(pid, tid, frame);
                }
                for frame in tracer.slow_frames() {
                    if !ring.contains(&frame.frame_index) {
                        trace.add_frame(pid, tid, frame);
                    }
                }
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // `join` drains `workers`; this path only runs when the scheduler is
        // dropped without joining (tests, panics) and must not leave worker
        // threads running.
        if !self.workers.is_empty() {
            self.signal_shutdown();
            for handle in self.workers.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl SessionHandle {
    /// The session this handle feeds.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Submits one stereo frame.  What happens when the session's inbox is
    /// full depends on the scheduler's [`ShedPolicy`]: `Block` parks the
    /// producer (the backpressure path), `Reject` fails with
    /// [`AsvError::Saturated`], and `DropOldest` displaces the oldest queued
    /// frame of this session.
    ///
    /// # Errors
    ///
    /// Returns the session's stored error if a previous frame failed,
    /// [`AsvError::ShardDown`] if the shard has failed,
    /// [`AsvError::Shutdown`] if the scheduler has been shut down, or
    /// [`AsvError::Saturated`] under the `Reject` policy when the inbox is
    /// full.  A frame that is not accepted is counted in the session's
    /// `frames_dropped` (failure/shutdown) or `frames_shed` (admission
    /// control) telemetry.
    pub fn submit(&self, left: Image, right: Image) -> Result<(), AsvError> {
        self.submit_recoverable(left, right)
            .map_err(|(error, _, _)| error)
    }

    /// [`SessionHandle::submit`] that hands the frame back on failure, so a
    /// supervisor can re-place the session on a surviving shard and resubmit
    /// the same planes without cloning them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SessionHandle::submit`], with the rejected
    /// planes attached.
    #[allow(clippy::result_large_err)]
    pub fn submit_recoverable(
        &self,
        left: Image,
        right: Image,
    ) -> Result<(), (AsvError, Image, Image)> {
        let mut engine = self.shared.lock();
        loop {
            if let Some(context) = &engine.failed {
                let error = AsvError::shard_down(context.clone()); // lint: alloc-ok(error path)
                if let Some(slot) = engine.sessions.get_mut(self.id.0) {
                    slot.telemetry.frames_dropped += 1;
                }
                return Err((error, left, right));
            }
            if engine.shutdown {
                // The session table may already be drained by `join`.
                if let Some(slot) = engine.sessions.get_mut(self.id.0) {
                    slot.telemetry.frames_dropped += 1;
                }
                return Err((AsvError::Shutdown, left, right));
            }
            let slot = &mut engine.sessions[self.id.0];
            if let Some(error) = &slot.error {
                let error = error.clone(); // lint: alloc-ok(error path)
                slot.telemetry.frames_dropped += 1;
                return Err((error, left, right));
            }
            if slot.inbox.is_full() {
                match self.shed_policy {
                    ShedPolicy::Block => {
                        engine = self.shared.wait_on(&self.shared.space, engine);
                        continue;
                    }
                    ShedPolicy::Reject => {
                        slot.telemetry.frames_shed += 1;
                        return Err((
                            AsvError::saturated(format!("{} inbox", self.id)), // lint: alloc-ok(error path on shed)
                            left,
                            right,
                        ));
                    }
                    ShedPolicy::DropOldest => {
                        slot.inbox.pop();
                        slot.telemetry.frames_shed += 1;
                    }
                }
            }
            slot.telemetry.frames_submitted += 1;
            slot.inbox.push(QueuedFrame {
                left,
                right,
                queued_at: Instant::now(),
            });
            let depth = slot.inbox.len();
            slot.telemetry.queue_depth.observe(depth);
            self.shared.work.notify_all();
            return Ok(());
        }
    }

    /// Current inbox depth of the session (a point-in-time gauge; 0 after
    /// the scheduler was joined).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .lock()
            .sessions
            .get(self.id.0)
            .map_or(0, |s| s.inbox.len())
    }

    /// Releases the session's retained kernel scratch (hundreds of
    /// megabytes at qHD — see `asv::Workspace::retained_bytes`) if no
    /// worker is currently stepping a frame of this session.  Returns
    /// whether the trim ran; call it when a camera goes idle, the next
    /// frame re-warms the buffers.
    pub fn trim_workspace(&self) -> bool {
        self.shared
            .lock()
            .sessions
            .get_mut(self.id.0)
            // lint: lock-ok(this is Slot::trim_workspace on the already-
            // guarded entry, not SessionHandle::trim_workspace)
            .is_some_and(|s| s.trim_workspace())
    }

    /// Checks a `width x height` frame out of the scheduler's recycling
    /// pool: the plane of an already-processed frame when one of the right
    /// size is available (contents unspecified — overwrite every pixel), a
    /// fresh zeroed image otherwise.  Submitting recycled frames closes the
    /// producer's allocation loop under steady-state streaming.
    pub fn recycled_frame(&self, width: usize, height: usize) -> Image {
        let data = self
            .shared
            .frames
            .lock()
            .expect("frame recycling pool lock poisoned")
            .take_scratch(width * height);
        Image::from_vec(width, height, data).expect("pool buffer has exactly width * height pixels")
    }
}

/// Folds every session's telemetry into one aggregate, naming each session
/// in per-session exports by its registration label, or the dense
/// `session-{index}` fallback.
fn fold_sessions<'a>(
    sessions: impl Iterator<Item = (&'a SessionTelemetry, &'a Option<String>)>,
    wall_seconds: f64,
) -> AggregateTelemetry {
    let mut aggregate = AggregateTelemetry::default();
    for (index, (telemetry, label)) in sessions.enumerate() {
        match label {
            Some(label) => aggregate.absorb_named(telemetry, label),
            None => aggregate.absorb_named(telemetry, &format!("session-{index}")),
        }
    }
    aggregate.wall_seconds = wall_seconds;
    aggregate
}

/// Body of one worker thread: dispatch round-robin, step the frame outside
/// the lock, commit the result, repeat until drained.
fn worker_loop(shared: &Shared) {
    let mut engine = shared.lock();
    loop {
        if let Some((idx, frame, state, workspace)) = engine.dispatch_next() {
            engine.in_flight += 1;
            drop(engine);
            // A slot was freed: a producer blocked on this inbox can refill
            // it while we run the kernels.
            shared.space.notify_all();

            let waited = frame.queued_at.elapsed();
            let started = Instant::now();
            // The kernels run inside `catch_unwind` so a panicking stereo
            // step kills only its own session (state and workspace are lost,
            // the error is stored) instead of poisoning the engine lock and
            // taking the whole shard down with it.
            let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let mut state = state;
                let mut workspace = workspace;
                let outcome = state.step_with(&mut workspace, &frame.left, &frame.right);
                (state, workspace, frame, outcome)
            }));
            let service = started.elapsed();
            let (state, workspace, frame, outcome) = match step {
                Ok(parts) => parts,
                Err(panic) => {
                    let reason = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_owned());
                    engine = shared.lock();
                    engine.in_flight -= 1;
                    let slot = &mut engine.sessions[idx];
                    let dropped = slot.inbox.clear();
                    // The panicked frame plus everything queued behind it.
                    slot.telemetry.frames_dropped += dropped as u64 + 1;
                    slot.telemetry.queue_depth.observe(0);
                    if slot.error.is_none() {
                        slot.error =
                            Some(AsvError::config(format!("stereo step panicked: {reason}")));
                    }
                    shared.work.notify_all();
                    shared.space.notify_all();
                    continue;
                }
            };
            // Harvest the per-stage totals the frame tracer just recorded
            // (outside the lock; `None` while tracing is off).
            let stage_totals = workspace
                .tracer
                .last_frame()
                .map(|trace| trace.stage_totals());

            // Both planes of the stepped frame are recycled into the
            // scheduler-wide pool that producers drain through
            // `SessionHandle::recycled_frame`: a producer that checks out
            // two planes per frame gets both back, so the producer loop runs
            // without fresh allocations.  The one steady-state allocation
            // left in the engine is the retained result map itself (results
            // accumulate until `join`, so their planes cannot be reused).
            {
                let mut frames = shared
                    .frames
                    .lock()
                    .expect("frame recycling pool lock poisoned");
                frames.put(frame.left.into_vec());
                frames.put(frame.right.into_vec());
            }

            engine = shared.lock();
            engine.in_flight -= 1;
            let slot = &mut engine.sessions[idx];
            slot.put_back(state, workspace);
            match outcome {
                Ok(result) => {
                    slot.telemetry.record_frame(result.kind, service, waited);
                    if let Some(totals) = stage_totals {
                        slot.telemetry.stage_latency.record_frame_totals(&totals);
                    }
                    slot.results.push(result);
                    // The session's QoS loop senses the frame's end-to-end
                    // step latency (queue wait + service) and may retune the
                    // just-returned ISM state before the next dispatch.
                    slot.observe_qos((waited + service).as_micros() as u64);
                }
                Err(error) => {
                    let dropped = slot.inbox.clear();
                    slot.telemetry.frames_dropped += dropped as u64;
                    slot.telemetry.queue_depth.observe(0);
                    // A trip may have stored `ShardDown` while this frame
                    // was mid-step; the first error wins.
                    if slot.error.is_none() {
                        slot.error = Some(error);
                    }
                }
            }
            // The session became dispatchable again (its state is back) and
            // its producer may have been waiting on either condvar.
            shared.work.notify_all();
            shared.space.notify_all();
        } else if engine.drained() {
            return;
        } else {
            engine = shared.wait_on(&shared.work, engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv::ism::{IsmConfig, IsmPipeline};
    use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};

    /// A poisoned engine lock fails the shard the way a trip does: the
    /// queued frames count as dropped and the queue-depth gauge reads zero.
    #[test]
    fn poisoned_lock_drops_queued_frames_and_zeroes_the_gauge() {
        let (width, height) = (32, 24);
        let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(0));
        let state = IsmPipeline::new(
            IsmConfig::default(),
            SurrogateStereoDnn::new(zoo::dispnet(height, width), SurrogateParams::default()),
        )
        .state();
        let handle = scheduler.add_session(state, None, None);
        for _ in 0..2 {
            let frame = || Image::zeros(width, height);
            handle.submit(frame(), frame()).unwrap();
        }
        assert_eq!(scheduler.telemetry_snapshot().current_queue_depth, 2);

        let shared = Arc::clone(&scheduler.shared);
        let poisoner = std::thread::spawn(move || {
            let _engine = shared.engine.lock();
            panic!("poisoning the engine lock on purpose");
        });
        assert!(poisoner.join().is_err());

        let telemetry = scheduler.telemetry_snapshot();
        assert!(scheduler.is_failed());
        assert_eq!(telemetry.current_queue_depth, 0);
        assert_eq!(telemetry.frames_dropped, 2);
    }
}
