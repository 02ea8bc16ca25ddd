//! Stream sessions: one camera stream = one incremental ISM state plus its
//! inbox, accumulated results and telemetry.

use crate::qos::QosController;
use crate::queue::Inbox;
use crate::telemetry::SessionTelemetry;
use asv::ism::{FrameResult, IsmResult, IsmState};
use asv::{AsvError, Workspace};

/// Identifier of one stream session within a scheduler, assigned densely in
/// registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub(crate) usize);

impl SessionId {
    /// The dense index of the session (also its position in the scheduler's
    /// session table and final report).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// One camera stream being served: the carried ISM state, the bounded inbox
/// of frames waiting for a worker, the results produced so far and the
/// session's telemetry.
///
/// Sessions are owned by the scheduler and mutated only under its engine
/// lock; the ISM state is temporarily *taken out* by the worker processing a
/// frame, which both releases the lock during the heavy kernel work and
/// guarantees at most one worker ever advances a given stream (preserving
/// per-session frame ordering).
#[derive(Debug)]
pub struct StreamSession {
    id: SessionId,
    /// Optional human-readable label (the cluster routing key), carried
    /// into the final [`SessionReport`] and the Prometheus export.
    pub(crate) label: Option<String>,
    /// `None` exactly while a worker is stepping this session's frame.
    state: Option<IsmState>,
    /// The session's reusable kernel scratch, taken out together with the
    /// state.  Owning one per session keeps the steady state of every
    /// stream allocation-free and keeps concurrent sessions off the global
    /// allocator.
    workspace: Option<Workspace>,
    pub(crate) inbox: Inbox,
    pub(crate) results: Vec<FrameResult>,
    pub(crate) telemetry: SessionTelemetry,
    pub(crate) error: Option<AsvError>,
    /// The session's adaptive QoS loop, present only when the session was
    /// registered with an SLO.
    pub(crate) qos: Option<QosController>,
}

impl StreamSession {
    /// Creates a session around a fresh ISM state.
    pub(crate) fn new(
        id: SessionId,
        state: IsmState,
        inbox_capacity: usize,
        label: Option<String>,
    ) -> Self {
        Self {
            id,
            label,
            state: Some(state),
            workspace: Some(Workspace::new()),
            inbox: Inbox::new(inbox_capacity),
            results: Vec::new(), // lint: alloc-ok(session construction, once per stream)
            telemetry: SessionTelemetry::default(),
            error: None,
            qos: None,
        }
    }

    /// Attaches a QoS controller to a freshly created session.
    pub(crate) fn with_qos(mut self, qos: Option<QosController>) -> Self {
        if let Some(controller) = &qos {
            self.telemetry.qos = controller.telemetry();
        }
        self.qos = qos;
        self
    }

    /// Feeds one completed frame into the session's QoS loop (a no-op for
    /// sessions without one) and applies any resulting knob change to the
    /// resident ISM state.  Called under the engine lock right after
    /// [`StreamSession::put_back`], so the state is guaranteed resident.
    pub(crate) fn observe_qos(&mut self, step_us: u64) {
        let Some(controller) = &mut self.qos else {
            return;
        };
        if controller.observe_step(step_us).is_some() {
            let knobs = controller.knobs();
            let state = self
                .state
                .as_mut()
                .expect("state resident when observing qos");
            knobs.apply(state);
        }
        self.telemetry.qos = controller.telemetry();
    }

    /// The session identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Whether the session can be dispatched right now: it has a queued
    /// frame, its state is resident (no worker is mid-frame) and it has not
    /// failed.
    pub(crate) fn dispatchable(&self) -> bool {
        self.state.is_some() && !self.inbox.is_empty() && self.error.is_none()
    }

    /// Takes the ISM state and the session's workspace out for processing
    /// (the session shows as busy until [`StreamSession::put_back`]).
    pub(crate) fn take_work(&mut self) -> (IsmState, Workspace) {
        (
            self.state.take().expect("session state already taken"),
            self.workspace
                .take()
                .expect("session workspace already taken"),
        )
    }

    /// Returns the ISM state and workspace after a worker finished its
    /// frame.
    pub(crate) fn put_back(&mut self, state: IsmState, workspace: Workspace) {
        debug_assert!(self.state.is_none(), "session state returned twice");
        self.state = Some(state);
        self.workspace = Some(workspace);
    }

    /// The session's workspace, when resident (`None` while a worker is
    /// mid-frame with it).  The trace endpoint reads the tracer's captured
    /// frames through this without blocking the worker.
    pub(crate) fn resident_workspace(&self) -> Option<&Workspace> {
        self.workspace.as_ref()
    }

    /// Releases the workspace's retained kernel scratch if it is resident
    /// (not taken by a worker right now).  Returns whether the trim ran.
    pub(crate) fn trim_workspace(&mut self) -> bool {
        match &mut self.workspace {
            Some(ws) => {
                ws.trim();
                true
            }
            None => false,
        }
    }
}

/// Everything one session produced, extracted when the scheduler shuts
/// down.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session identifier.
    pub id: SessionId,
    /// The label the session was registered under (e.g. the cluster routing
    /// key), if any.
    pub label: Option<String>,
    /// Per-frame results in submission order.
    pub frames: Vec<FrameResult>,
    /// The session's telemetry.
    pub telemetry: SessionTelemetry,
    /// The first error the session hit, if any (frames submitted after it
    /// were dropped and counted in `telemetry.frames_dropped`).
    pub error: Option<AsvError>,
}

impl SessionReport {
    /// Converts the report into the batch-pipeline result type, surfacing
    /// the session error if one occurred.
    ///
    /// # Errors
    ///
    /// Returns the session's stored [`AsvError`] when the stream failed
    /// mid-flight.
    pub fn into_ism_result(self) -> Result<IsmResult, AsvError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(IsmResult {
                frames: self.frames,
            }),
        }
    }
}
