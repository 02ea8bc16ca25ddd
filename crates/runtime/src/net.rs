//! Fault-tolerant TCP frame transport: the networked ingest edge.
//!
//! Mirrors the dependency-free style of [`crate::http`]: everything is
//! `std::net` + threads, no async runtime, no protocol crates.  Three
//! pieces:
//!
//! * [`FrameServer`] — a `TcpListener` accept loop; each connection reads
//!   length-prefixed [`crate::wire`] messages, validates them (magic,
//!   version, CRC, lengths), deduplicates by per-session sequence number
//!   ([`SequenceGate`]) and hands accepted frames to a [`FrameSink`]
//!   (typically a [`crate::Supervisor`] routing into the cluster).  A
//!   half-written message on disconnect is discarded whole — it can never
//!   reach a session — and every structural failure increments one
//!   [`TransportErrorKind`] counter.  Finished connection threads and
//!   their entries are reaped as clients churn.
//! * [`FrameClient`] — the camera side: per-session sequence numbering, a
//!   bounded in-flight window, per-operation deadline, and reconnect with
//!   exponential backoff + seeded jitter.  Unacknowledged frames are
//!   retransmitted on a fresh connection; the server's sequence gate turns
//!   at-least-once retransmission into exactly-once, in-order delivery by
//!   running admission and delivery as one per-session critical section
//!   and committing the sequence advance only after the sink accepts the
//!   frame.  A client with no sequence state for a key (first use, or a
//!   restarted producer) opens with a hello handshake and resumes at the
//!   server's expected sequence instead of being silently deduplicated.
//! * [`TransportCounters`] — lock-free error counters by kind, exported as
//!   the `asv_transport_errors_total{kind}` Prometheus family.
//!
//! Backpressure flows end-to-end: a slow shard blocks [`FrameSink::deliver`]
//! (under [`crate::ShedPolicy::Block`]), which stalls the connection thread,
//! which fills the TCP window, which parks the client in `write` — the same
//! lossless-by-default story as an in-process producer submitting straight
//! to its session.
//!
//! [`ClientConfig`] and [`NetConfig`] set deadlines, window, retry budget,
//! the maximum accepted message size and the tracked-session cap.

use crate::wire;
use asv::error::WireFault;
use asv::AsvError;
use asv_image::Image;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Pause after a failed `accept()` before retrying (see [`crate::http`]).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Acknowledgement magic byte, size and status codes: one fixed 10-byte
/// record `[b'K', status, value as u64 LE]` per accepted message, where
/// `value` is the frame's sequence number — or, for a hello reply
/// (`ACK_EXPECTED`), the next sequence number the server expects.
const ACK_MAGIC: u8 = b'K';
const ACK_BYTES: usize = 10;
pub(crate) const ACK_ACCEPTED: u8 = 0;
pub(crate) const ACK_DUPLICATE: u8 = 1;
const ACK_GAP: u8 = 2;
const ACK_ERROR: u8 = 3;
const ACK_EXPECTED: u8 = 4;

/// Why a transport operation failed; the `kind` label of
/// `asv_transport_errors_total`.  Wire faults map one-to-one; `Io` and
/// `Deadline` cover socket failures and missed per-frame deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportErrorKind {
    /// Wire message with bad magic bytes.
    BadMagic,
    /// Wire message with an unsupported format version.
    Version,
    /// Message truncated: the connection died mid-frame.
    Truncated,
    /// Length prefix above the configured maximum message size.
    Oversized,
    /// Frame checksum mismatch.
    Crc,
    /// Session key not valid UTF-8.
    Key,
    /// Internally inconsistent message lengths.
    Length,
    /// A sequence-number gap: frames lost or reordered in flight.
    Gap,
    /// A socket-level failure (connect, read or write).
    Io,
    /// A per-frame deadline expired (connect, write or ack wait).
    Deadline,
}

impl TransportErrorKind {
    /// Number of kinds (the counter-array length).
    pub const COUNT: usize = 10;

    /// Every kind, in `index` order.
    pub const ALL: [TransportErrorKind; TransportErrorKind::COUNT] = [
        TransportErrorKind::BadMagic,
        TransportErrorKind::Version,
        TransportErrorKind::Truncated,
        TransportErrorKind::Oversized,
        TransportErrorKind::Crc,
        TransportErrorKind::Key,
        TransportErrorKind::Length,
        TransportErrorKind::Gap,
        TransportErrorKind::Io,
        TransportErrorKind::Deadline,
    ];

    /// Stable lower-case name (the Prometheus `kind` label value).
    pub fn name(self) -> &'static str {
        match self {
            TransportErrorKind::Io => "io",
            TransportErrorKind::Deadline => "deadline",
            other => other
                .as_wire_fault()
                .expect("every non-io kind maps to a wire fault")
                .name(),
        }
    }

    /// Position in [`TransportErrorKind::ALL`] and the counter array.
    pub fn index(self) -> usize {
        match self {
            TransportErrorKind::BadMagic => 0,
            TransportErrorKind::Version => 1,
            TransportErrorKind::Truncated => 2,
            TransportErrorKind::Oversized => 3,
            TransportErrorKind::Crc => 4,
            TransportErrorKind::Key => 5,
            TransportErrorKind::Length => 6,
            TransportErrorKind::Gap => 7,
            TransportErrorKind::Io => 8,
            TransportErrorKind::Deadline => 9,
        }
    }

    /// The [`WireFault`] this kind mirrors (`None` for `Io`/`Deadline`).
    pub fn as_wire_fault(self) -> Option<WireFault> {
        Some(match self {
            TransportErrorKind::BadMagic => WireFault::BadMagic,
            TransportErrorKind::Version => WireFault::Version,
            TransportErrorKind::Truncated => WireFault::Truncated,
            TransportErrorKind::Oversized => WireFault::Oversized,
            TransportErrorKind::Crc => WireFault::Crc,
            TransportErrorKind::Key => WireFault::Key,
            TransportErrorKind::Length => WireFault::Length,
            TransportErrorKind::Gap => WireFault::Gap,
            TransportErrorKind::Io | TransportErrorKind::Deadline => return None,
        })
    }

    /// Maps a decode fault to its counter kind.
    pub fn of_wire(fault: WireFault) -> Self {
        match fault {
            WireFault::BadMagic => TransportErrorKind::BadMagic,
            WireFault::Version => TransportErrorKind::Version,
            WireFault::Truncated => TransportErrorKind::Truncated,
            WireFault::Oversized => TransportErrorKind::Oversized,
            WireFault::Crc => TransportErrorKind::Crc,
            WireFault::Key => TransportErrorKind::Key,
            WireFault::Length => TransportErrorKind::Length,
            WireFault::Gap => TransportErrorKind::Gap,
        }
    }
}

/// Process-wide transport error counters, shared by servers, clients and
/// the cluster's telemetry fold (`asv_transport_errors_total{kind}`).
/// Lock-free: one relaxed atomic per kind.
#[derive(Debug, Default)]
pub struct TransportCounters {
    counts: [AtomicU64; TransportErrorKind::COUNT],
}

impl TransportCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments one kind.
    pub fn record(&self, kind: TransportErrorKind) {
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Current count of one kind.
    pub fn count(&self, kind: TransportErrorKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// All counts, indexed like [`TransportErrorKind::ALL`].
    pub fn snapshot(&self) -> [u64; TransportErrorKind::COUNT] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().sum()
    }
}

/// Default cap on sessions tracked by a [`SequenceGate`]; see
/// [`NetConfig::max_sessions`].
pub const DEFAULT_MAX_SESSIONS: usize = 4096;

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-session sequence bookkeeping turning at-least-once retransmission
/// into exactly-once, in-order delivery: each session's frames must arrive
/// in order (`0, 1, 2, ...`); already-delivered numbers are duplicates
/// (acked but not re-delivered), future numbers are gaps (lost or
/// reordered frames).
///
/// Admission and delivery form one critical section per session:
/// [`SequenceGate::admit`] runs the delivery closure while holding that
/// session's slot lock and commits the sequence advance only after the
/// closure succeeds.  Both halves are load-bearing for the byte-identical
/// determinism contract:
///
/// * two connections racing on one session (a deadline-reconnect whose
///   predecessor is still blocked inside a backpressured delivery) cannot
///   interleave — the successor waits on the slot until the predecessor's
///   outcome is decided, so the sink sees frames strictly in sequence
///   order;
/// * a failed delivery (e.g. a saturated shard under
///   [`crate::ShedPolicy::Reject`]) does not advance the sequence, so the
///   client's retransmission of that frame is delivered instead of being
///   misclassified as an already-delivered duplicate — no frame is ever
///   acknowledged-but-lost.
///
/// The gate tracks at most `max_sessions` sessions; beyond the cap the
/// least-recently-active *idle* session is evicted, which bounds the gate's
/// own sequence table (not the sink's per-session state).  An evicted
/// session's next frame is refused as an explicit gap, never silently
/// misdelivered.
#[derive(Debug)]
pub struct SequenceGate {
    inner: Mutex<GateMap>,
    max_sessions: usize,
}

#[derive(Debug, Default)]
struct GateMap {
    sessions: HashMap<String, SessionEntry>,
    /// Monotonic touch stamp driving least-recently-active eviction.
    clock: u64,
}

#[derive(Debug)]
struct SessionEntry {
    /// The next expected sequence number, doubling as the per-session
    /// delivery lock.
    slot: Arc<Mutex<u64>>,
    touched: u64,
}

impl Default for SequenceGate {
    fn default() -> Self {
        Self::with_max_sessions(DEFAULT_MAX_SESSIONS)
    }
}

/// [`SequenceGate::admit`]'s verdict for one arriving frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The expected next frame: delivered, sequence advanced.
    Delivered,
    /// The expected next frame, but delivery failed; the sequence was
    /// *not* advanced, so a retransmission will be delivered.
    Failed,
    /// Already delivered (a retransmission): acknowledge, do not deliver.
    Duplicate,
    /// Ahead of the expected number: frames in between are missing.
    Gap {
        /// The sequence number the gate expected.
        expected: u64,
    },
}

impl SequenceGate {
    /// An empty gate with the default session cap (every session starts at
    /// sequence 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty gate evicting idle sessions beyond `max_sessions` (≥ 1).
    pub fn with_max_sessions(max_sessions: usize) -> Self {
        Self {
            inner: Mutex::new(GateMap::default()),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Fetches (or creates) `key`'s slot and stamps it most recently
    /// active, evicting the stalest idle sessions beyond the cap.  The map
    /// lock is held only here — never across a delivery.
    fn slot(&self, key: &str) -> Arc<Mutex<u64>> {
        let mut map = lock(&self.inner);
        map.clock += 1;
        let clock = map.clock;
        if let Some(entry) = map.sessions.get_mut(key) {
            entry.touched = clock;
            return Arc::clone(&entry.slot); // lint: alloc-ok(Arc refcount bump, no heap alloc)
        }
        while map.sessions.len() >= self.max_sessions {
            // An entry whose slot Arc is held only by the map has no
            // delivery in flight; evict the stalest such session.
            let stalest = map
                .sessions
                .iter()
                .filter(|(_, entry)| Arc::strong_count(&entry.slot) == 1)
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(key, _)| key.clone()); // lint: alloc-ok(stale-session eviction, bounded by max_sessions)
            match stalest {
                Some(stale) => {
                    map.sessions.remove(&stale);
                }
                // Every tracked session is mid-delivery: overshoot rather
                // than evict live state.
                None => break,
            }
        }
        let slot = Arc::new(Mutex::new(0)); // lint: alloc-ok(new-session slot, once per stream)
        map.sessions.insert(
            key.to_owned(), // lint: alloc-ok(new-session slot, once per stream)
            SessionEntry {
                slot: Arc::clone(&slot), // lint: alloc-ok(new-session slot, once per stream)
                touched: clock,
            },
        );
        slot
    }

    /// Classifies `seq` for `key`; when it is the expected next frame,
    /// runs `deliver` while holding the session's delivery lock and
    /// advances the expected number only if it succeeds.  Concurrent calls
    /// for one session serialize here, so delivery order is sequence
    /// order.  Allocates only on a session's first frame.
    pub fn admit(&self, key: &str, seq: u64, deliver: impl FnOnce() -> Result<(), ()>) -> Admit {
        let slot = self.slot(key);
        let mut next = lock(&slot);
        if seq < *next {
            Admit::Duplicate
        } else if seq > *next {
            Admit::Gap { expected: *next }
        } else if deliver().is_ok() {
            *next += 1;
            Admit::Delivered
        } else {
            Admit::Failed
        }
    }

    /// The next sequence number expected for `key` (0 for unseen keys) —
    /// the hello reply.  Waits behind an in-flight delivery for `key`, so
    /// the answer reflects a committed state.
    pub fn expected(&self, key: &str) -> u64 {
        let slot = {
            let map = lock(&self.inner);
            match map.sessions.get(key) {
                Some(entry) => Arc::clone(&entry.slot), // lint: alloc-ok(Arc refcount bump, no heap alloc)
                None => return 0,
            }
        };
        let next = *lock(&slot);
        next
    }

    /// Number of sessions currently tracked.
    pub fn sessions(&self) -> usize {
        lock(&self.inner).sessions.len()
    }
}

/// Where the server puts accepted frames.  Implemented by
/// [`crate::Supervisor`] (cluster routing with shard-failure re-placement);
/// implement it yourself to feed any other consumer.
pub trait FrameSink: Send + Sync {
    /// Delivers one deduplicated, validated frame.  May block (that is the
    /// backpressure path); an error is reported to the client as a rejected
    /// frame.
    ///
    /// # Errors
    ///
    /// Implementation-defined; the server acknowledges the frame as failed.
    fn deliver(&self, key: &str, seq: u64, left: Image, right: Image) -> Result<(), AsvError>;

    /// A `width x height` plane for the decoder to fill, ideally recycled
    /// from the target session's frame pool so the steady-state decode path
    /// performs no allocations.  The default allocates a zeroed plane.
    fn recycled_frame(&self, key: &str, width: usize, height: usize) -> Image {
        let _ = key;
        Image::zeros(width, height)
    }
}

/// Server-side transport configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Hard ceiling on one message's declared length; a corrupt length
    /// prefix can never talk the server into unbounded reads.
    pub max_message_bytes: usize,
    /// Read timeout while *inside* a message: a peer that stalls mid-frame
    /// for longer is cut off (the partial frame is discarded).
    pub read_timeout: Duration,
    /// Sessions tracked by the server's [`SequenceGate`] before the
    /// stalest idle session is evicted — bounds the gate's sequence table.
    pub max_sessions: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_message_bytes: wire::MAX_MESSAGE_BYTES,
            read_timeout: Duration::from_secs(2),
            max_sessions: DEFAULT_MAX_SESSIONS,
        }
    }
}

/// Client-side transport configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-operation deadline: connect, frame write and ack wait each get
    /// this budget; exceeding it counts a `deadline` transport error and
    /// triggers a reconnect.
    pub deadline: Duration,
    /// Maximum unacknowledged frames in flight before `send` blocks on
    /// acks — bounds client memory and caps the retransmission burst after
    /// a reconnect.
    pub window: usize,
    /// Reconnect attempts per operation before giving up with
    /// [`AsvError::Transport`].
    pub max_retries: u32,
    /// First reconnect backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed of the jitter source (deterministic in tests).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            window: 4,
            max_retries: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x5EED,
        }
    }
}

/// Exponential backoff with jitter: `min(cap, base * 2^attempt)` plus a
/// uniform jitter of up to one `base`, so a fleet of reconnecting cameras
/// does not thundering-herd the server.
pub fn backoff_delay(config: &ClientConfig, attempt: u32, rng: &mut SmallRng) -> Duration {
    let base = config.backoff_base.as_millis() as u64;
    let scaled = base.saturating_mul(1u64 << attempt.min(16));
    let capped = scaled.min(config.backoff_cap.as_millis() as u64);
    let jitter = rng.gen_range(0..base.max(1));
    Duration::from_millis(capped + jitter)
}

/// Outcome of filling a buffer from the socket.
enum ReadOutcome {
    /// Clean close at a message boundary (or server shutdown).
    Closed,
    /// Buffer filled.
    Data,
    /// The connection failed; counted under this kind.
    Failed(TransportErrorKind),
}

/// Fills `buf` completely.  At a message boundary (`boundary`), a clean EOF
/// or an idle read timeout is not an error; inside a message they are
/// `Truncated` / `Deadline` respectively.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    boundary: bool,
) -> ReadOutcome {
    let mut filled = 0;
    loop {
        if stop.load(Ordering::Acquire) {
            return ReadOutcome::Closed;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && boundary {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Failed(TransportErrorKind::Truncated)
                };
            }
            Ok(n) => {
                filled += n;
                if filled == buf.len() {
                    return ReadOutcome::Data;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled > 0 || !boundary {
                    return ReadOutcome::Failed(TransportErrorKind::Deadline);
                }
                // Idle at a message boundary: keep waiting (the loop re-checks
                // the stop flag each timeout tick).
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Failed(TransportErrorKind::Io),
        }
    }
}

/// The TCP frame-ingest server: accepts connections, decodes and validates
/// wire messages, deduplicates retransmissions and delivers frames to a
/// [`FrameSink`].  One thread per connection (camera links are few and
/// long-lived); backpressure propagates through blocking delivery.
#[derive(Debug)]
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` (port 0 for ephemeral) and starts accepting.  Decode
    /// and transport failures increment `counters`; accepted frames go to
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn serve(
        addr: impl ToSocketAddrs,
        sink: Arc<dyn FrameSink>,
        counters: Arc<TransportCounters>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let gate = Arc::new(SequenceGate::with_max_sessions(config.max_sessions));
        let stop_flag = Arc::clone(&stop);
        let conn_table = Arc::clone(&conns);
        let thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            let mut next_conn_id = 0u64;
            while !stop_flag.load(Ordering::Acquire) {
                // Reap workers whose connections have closed, so a
                // long-running server with churny clients does not
                // accumulate handles without bound.
                let mut i = 0;
                while i < workers.len() {
                    if workers[i].is_finished() {
                        let _ = workers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        if let Ok(clone) = stream.try_clone() {
                            lock(&conn_table).insert(conn_id, clone);
                        }
                        let sink = Arc::clone(&sink);
                        let counters = Arc::clone(&counters);
                        let gate = Arc::clone(&gate);
                        let stop = Arc::clone(&stop_flag);
                        let table = Arc::clone(&conn_table);
                        workers.push(std::thread::spawn(move || {
                            handle_connection(stream, &*sink, &gate, &counters, config, &stop);
                            lock(&table).remove(&conn_id);
                        }));
                    }
                    Err(_) => {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    }
                }
            }
            for worker in workers {
                let _ = worker.join();
            }
        });
        Ok(Self {
            addr,
            stop,
            conns,
            thread: Some(thread),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, severs live connections (any half-read message is
    /// discarded) and joins every connection thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        for (_, conn) in lock(&self.conns).drain() {
            // lint: lock-ok(this is TcpStream::shutdown — a syscall, not
            // FrameServer::shutdown — so no workspace lock is re-entered)
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The server's step for one complete message (length prefix included),
/// shared by every connection: validate it, then answer a hello with the
/// session's expected sequence or admit a frame through `gate` into
/// recycled planes delivered to `sink`.  Returns the ack's status and value,
/// or `None` — the fault already counted — when the message fails
/// validation and the connection must close.
pub(crate) fn receive_message(
    message: &[u8],
    sink: &dyn FrameSink,
    gate: &SequenceGate,
    counters: &TransportCounters,
    max_message_bytes: usize,
) -> Option<(u8, u64)> {
    let parsed = match wire::validate_message(message, max_message_bytes) {
        Ok(parsed) => parsed,
        Err(AsvError::Wire { fault, .. }) => {
            counters.record(TransportErrorKind::of_wire(fault));
            return None;
        }
        Err(_) => {
            counters.record(TransportErrorKind::Io);
            return None;
        }
    };
    match parsed {
        // Session-resume hello: report the committed expected sequence so a
        // restarted producer picks up where the session stands.
        wire::Message::Hello { key } => Some((ACK_EXPECTED, gate.expected(key))),
        wire::Message::Frame(frame) => {
            // Admission and delivery run under the session's slot lock:
            // racing connections serialize, and the sequence advances only
            // once the sink has accepted the frame.  Delivery may block —
            // that is the backpressure path, and the client's unsent frames
            // queue in the TCP window.
            let admit = gate.admit(frame.key, frame.seq, || {
                let mut left = sink.recycled_frame(frame.key, frame.width, frame.height);
                let mut right = sink.recycled_frame(frame.key, frame.width, frame.height);
                match frame.fill_planes(&mut left, &mut right) {
                    Ok(()) => sink
                        .deliver(frame.key, frame.seq, left, right)
                        .map_err(|_| ()),
                    Err(AsvError::Wire { fault, .. }) => {
                        counters.record(TransportErrorKind::of_wire(fault));
                        Err(())
                    }
                    Err(_) => Err(()),
                }
            });
            let status = match admit {
                Admit::Delivered => ACK_ACCEPTED,
                Admit::Failed => ACK_ERROR,
                Admit::Duplicate => ACK_DUPLICATE,
                Admit::Gap { .. } => {
                    counters.record(TransportErrorKind::Gap);
                    ACK_GAP
                }
            };
            Some((status, frame.seq))
        }
    }
}

/// One connection's read-decode-deliver-ack loop.  Returns (closing the
/// connection) on clean EOF, shutdown, any transport failure or any wire
/// fault — the client reconnects and retransmits, and the sequence gate
/// (shared across connections) deduplicates and serializes per session.
fn handle_connection(
    mut stream: TcpStream,
    sink: &dyn FrameSink,
    gate: &SequenceGate,
    counters: &TransportCounters,
    config: NetConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    // Reused across messages: after the first frame of a steady stream,
    // reads resize within capacity and decode fills recycled planes — the
    // loop allocates nothing.
    let mut message: Vec<u8> = Vec::new();
    loop {
        let mut prefix = [0u8; 4];
        match read_full(&mut stream, &mut prefix, stop, true) {
            ReadOutcome::Closed => return,
            ReadOutcome::Failed(kind) => {
                counters.record(kind);
                return;
            }
            ReadOutcome::Data => {}
        }
        let declared = u32::from_le_bytes(prefix) as usize;
        if declared > config.max_message_bytes {
            counters.record(TransportErrorKind::Oversized);
            return;
        }
        message.resize(4 + declared, 0);
        message[..4].copy_from_slice(&prefix);
        match read_full(&mut stream, &mut message[4..], stop, false) {
            ReadOutcome::Closed => return,
            ReadOutcome::Failed(kind) => {
                // The half-read message dies here, in a connection-local
                // buffer: nothing of it was delivered, the next session (or
                // reconnect) starts from a clean boundary.
                counters.record(kind);
                return;
            }
            ReadOutcome::Data => {}
        }
        let Some((status, value)) =
            receive_message(&message, sink, gate, counters, config.max_message_bytes)
        else {
            return;
        };
        let mut ack = [0u8; ACK_BYTES];
        ack[0] = ACK_MAGIC;
        ack[1] = status;
        ack[2..].copy_from_slice(&value.to_le_bytes());
        if stream.write_all(&ack).is_err() {
            counters.record(TransportErrorKind::Io);
            return;
        }
    }
}

/// The camera-side sender: frames go out with per-session sequence numbers
/// over one TCP connection; on any failure the client reconnects with
/// exponential backoff + jitter and retransmits everything unacknowledged.
/// At most [`ClientConfig::window`] frames are in flight unacknowledged.
#[derive(Debug)]
pub struct FrameClient {
    addr: SocketAddr,
    config: ClientConfig,
    counters: Arc<TransportCounters>,
    rng: SmallRng,
    stream: Option<TcpStream>,
    next_seq: HashMap<String, u64>,
    /// Sent-but-unacknowledged messages, oldest first; retransmitted whole
    /// on reconnect (the server's gate discards duplicates).
    unacked: VecDeque<(u64, Vec<u8>)>,
    /// How many of `unacked` are on the current connection already.
    written: usize,
    /// Recycled encode buffers (acknowledged messages come back here), so
    /// a steady stream encodes without allocating.
    spare: Vec<Vec<u8>>,
}

impl FrameClient {
    /// Resolves `addr` and connects, retrying with backoff per `config`.
    ///
    /// # Errors
    ///
    /// [`AsvError::Transport`] when the address does not resolve or the
    /// connection cannot be established within the retry budget.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, AsvError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| AsvError::transport(format!("address resolution failed: {e}")))?
            .next()
            .ok_or_else(|| AsvError::transport("address resolved to nothing"))?;
        let mut client = Self {
            addr,
            rng: SmallRng::seed_from_u64(config.jitter_seed),
            config,
            counters: Arc::new(TransportCounters::new()),
            stream: None,
            next_seq: HashMap::new(),
            unacked: VecDeque::new(),
            written: 0,
            spare: Vec::new(),
        };
        client.drive(usize::MAX)?;
        Ok(client)
    }

    /// Shares `counters` (e.g. the cluster's) instead of the private set.
    pub fn with_counters(mut self, counters: Arc<TransportCounters>) -> Self {
        self.counters = counters;
        self
    }

    /// The transport error counters this client increments.
    pub fn counters(&self) -> Arc<TransportCounters> {
        Arc::clone(&self.counters)
    }

    /// Frames sent and not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Sends one frame for `key`, assigning the next sequence number.
    /// Blocks while the in-flight window is full (waiting for acks) and
    /// transparently reconnects + retransmits on transport failures.
    ///
    /// The first frame of each key starts with a hello handshake: the
    /// client asks the server which sequence number the session stands at
    /// and resumes there, so a restarted producer keeps delivering instead
    /// of having every frame silently acknowledged as a duplicate.
    ///
    /// # Errors
    ///
    /// [`AsvError::Wire`] when the planes disagree in size or the key
    /// exceeds [`wire::MAX_KEY_BYTES`], and [`AsvError::Transport`] when
    /// the retry budget is exhausted or the server reports a protocol
    /// failure (sequence gap).
    pub fn send(&mut self, key: &str, left: &Image, right: &Image) -> Result<(), AsvError> {
        let seq = match self.next_seq.get(key) {
            Some(&seq) => seq,
            None => self.resume(key)?,
        };
        let mut buf = self.spare.pop().unwrap_or_default();
        wire::encode_frame_into(&mut buf, key, seq, left, right)?;
        self.next_seq.insert(key.to_owned(), seq + 1);
        self.unacked.push_back((seq, buf));
        let window = self.config.window.max(1);
        self.drive(window.saturating_sub(1))
    }

    /// The hello handshake for a key this client has no sequence state
    /// for: drains in-flight acks, then asks the server for the session's
    /// expected next sequence number, retrying with backoff like any other
    /// operation.
    fn resume(&mut self, key: &str) -> Result<u64, AsvError> {
        self.drive(0)?;
        let mut hello = self.spare.pop().unwrap_or_default();
        wire::encode_hello_into(&mut hello, key)?;
        let mut attempts = 0u32;
        let result = loop {
            match self.try_hello(&hello) {
                Ok(expected) => break Ok(expected),
                Err(e) => {
                    if let Err(fatal) = self.back_off(&e, &mut attempts) {
                        break Err(fatal);
                    }
                }
            }
        };
        hello.clear();
        self.spare.push(hello);
        result
    }

    /// One hello round-trip on the current (or a fresh) connection.
    fn try_hello(&mut self, hello: &[u8]) -> std::io::Result<u64> {
        let stream = self.ensure_connected()?;
        stream.write_all(hello)?;
        let mut ack = [0u8; ACK_BYTES];
        stream.read_exact(&mut ack)?;
        if ack[0] != ACK_MAGIC || ack[1] != ACK_EXPECTED {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bad hello reply",
            ));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&ack[2..]);
        Ok(u64::from_le_bytes(raw))
    }

    /// Blocks until every sent frame is acknowledged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrameClient::send`].
    pub fn flush(&mut self) -> Result<(), AsvError> {
        self.drive(0)
    }

    /// Writes every pending message and reads acks until at most
    /// `target_unacked` remain in flight, reconnecting on failure.
    fn drive(&mut self, target_unacked: usize) -> Result<(), AsvError> {
        let mut attempts = 0u32;
        loop {
            let step = self.try_drive(target_unacked);
            match step {
                Ok(None) => return Ok(()),
                Ok(Some(error)) => return Err(error),
                Err(e) => self.back_off(&e, &mut attempts)?,
            }
        }
    }

    /// Connects (with deadline) if no connection is live, resetting the
    /// retransmission cursor.
    fn ensure_connected(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.deadline)?;
            stream.set_read_timeout(Some(self.config.deadline))?;
            stream.set_write_timeout(Some(self.config.deadline))?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.written = 0;
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// One connection's worth of progress; `Ok(Some(_))` is a fatal
    /// protocol error, `Err` a retriable transport failure.
    fn try_drive(&mut self, target_unacked: usize) -> std::io::Result<Option<AsvError>> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("connected above");
        while self.written < self.unacked.len() {
            stream.write_all(&self.unacked[self.written].1)?;
            self.written += 1;
        }
        while self.unacked.len() > target_unacked {
            let mut ack = [0u8; ACK_BYTES];
            stream.read_exact(&mut ack)?;
            if ack[0] != ACK_MAGIC {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad ack magic",
                ));
            }
            let mut seq_raw = [0u8; 8];
            seq_raw.copy_from_slice(&ack[2..]);
            let seq = u64::from_le_bytes(seq_raw);
            let Some(&(expected, _)) = self.unacked.front() else {
                break;
            };
            if seq != expected {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "ack out of order",
                ));
            }
            match ack[1] {
                ACK_ACCEPTED | ACK_DUPLICATE => {
                    let (_, mut buf) = self.unacked.pop_front().expect("front exists");
                    buf.clear();
                    self.spare.push(buf);
                    self.written = self.written.saturating_sub(1);
                }
                ACK_GAP => {
                    return Ok(Some(AsvError::transport(format!(
                        "server reported a sequence gap at frame {seq}"
                    ))));
                }
                // A rejected frame (sink failure) was *not* committed by
                // the server's gate; reconnect and retransmit it instead
                // of dropping it.
                _ => {
                    return Err(std::io::Error::other(format!(
                        "server rejected frame {seq}; retransmitting"
                    )));
                }
            }
        }
        Ok(None)
    }

    /// Counts the failure, drops the connection and sleeps the backoff;
    /// errors out when the retry budget is spent.
    fn back_off(&mut self, error: &std::io::Error, attempts: &mut u32) -> Result<(), AsvError> {
        let kind = if matches!(
            error.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            TransportErrorKind::Deadline
        } else {
            TransportErrorKind::Io
        };
        self.counters.record(kind);
        self.stream = None;
        self.written = 0;
        if *attempts >= self.config.max_retries {
            return Err(AsvError::transport(format!(
                "{} unreachable after {} attempts: {error}",
                self.addr,
                *attempts + 1
            )));
        }
        std::thread::sleep(backoff_delay(&self.config, *attempts, &mut self.rng));
        *attempts += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivery closure for admissions that must not deliver.
    fn refuse() -> Result<(), ()> {
        panic!("the gate must not run the delivery closure for this frame")
    }

    #[test]
    fn sequence_gate_delivers_in_order_and_flags_the_rest() {
        let gate = SequenceGate::new();
        assert_eq!(gate.admit("cam", 0, || Ok(())), Admit::Delivered);
        assert_eq!(gate.admit("cam", 1, || Ok(())), Admit::Delivered);
        assert_eq!(gate.admit("cam", 1, refuse), Admit::Duplicate);
        assert_eq!(gate.admit("cam", 0, refuse), Admit::Duplicate);
        assert_eq!(gate.admit("cam", 5, refuse), Admit::Gap { expected: 2 });
        assert_eq!(gate.admit("cam", 2, || Ok(())), Admit::Delivered);
        // Sessions are independent; a fresh key must start at 0.
        assert_eq!(gate.admit("other", 3, refuse), Admit::Gap { expected: 0 });
        assert_eq!(gate.admit("other", 0, || Ok(())), Admit::Delivered);
        assert_eq!(gate.expected("cam"), 3);
        assert_eq!(gate.expected("unseen"), 0);
    }

    /// The exactly-once commit rule: a failed delivery leaves the expected
    /// sequence untouched, so the client's retransmission of that frame is
    /// delivered rather than misclassified as a duplicate.
    #[test]
    fn failed_delivery_keeps_the_sequence_for_retransmission() {
        let gate = SequenceGate::new();
        assert_eq!(gate.admit("cam", 0, || Ok(())), Admit::Delivered);
        // The sink rejects frame 1 (e.g. a saturated shard)...
        assert_eq!(gate.admit("cam", 1, || Err(())), Admit::Failed);
        assert_eq!(gate.expected("cam"), 1, "failure must not advance");
        // ...so the retransmission is delivered, not deduplicated.
        assert_eq!(gate.admit("cam", 1, || Ok(())), Admit::Delivered);
        assert_eq!(gate.expected("cam"), 2);
    }

    /// The reconnect race: a new connection retransmits frame 0 and sends
    /// frame 1 while the old connection is still blocked inside frame 0's
    /// delivery.  The gate must serialize — no ack and no delivery for the
    /// newcomer until the in-flight outcome is decided, and the sink sees
    /// strict sequence order.
    #[test]
    fn concurrent_connections_deliver_one_session_in_order() {
        let gate = Arc::new(SequenceGate::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let slow = {
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                gate.admit("cam", 0, || {
                    entered_tx.send(()).expect("test alive");
                    release_rx.recv().expect("released"); // backpressured
                    lock(&order).push(0u64);
                    Ok(())
                })
            })
        };
        entered_rx.recv().expect("delivery entered");
        let fast = {
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let retransmit = gate.admit("cam", 0, || {
                    lock(&order).push(100);
                    Ok(())
                });
                let next = gate.admit("cam", 1, || {
                    lock(&order).push(1);
                    Ok(())
                });
                (retransmit, next)
            })
        };
        // The racing connection must be parked behind the in-flight
        // delivery, not admitted around it.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            lock(&order).is_empty(),
            "no delivery may complete while frame 0 is in flight"
        );
        release_tx.send(()).expect("slow thread alive");
        assert_eq!(slow.join().expect("slow"), Admit::Delivered);
        let (retransmit, next) = fast.join().expect("fast");
        assert_eq!(retransmit, Admit::Duplicate, "deduplicated after commit");
        assert_eq!(next, Admit::Delivered);
        assert_eq!(*lock(&order), vec![0, 1], "sequence order preserved");
    }

    /// Hostile or churny key sets cannot grow the gate without bound: the
    /// stalest idle session is evicted at the cap, and its return is an
    /// explicit gap rather than a silent duplicate.
    #[test]
    fn gate_evicts_the_stalest_idle_session_beyond_the_cap() {
        let gate = SequenceGate::with_max_sessions(2);
        assert_eq!(gate.admit("a", 0, || Ok(())), Admit::Delivered);
        assert_eq!(gate.admit("b", 0, || Ok(())), Admit::Delivered);
        // Touch "a" so "b" is the stalest when "c" arrives.
        assert_eq!(gate.admit("a", 1, || Ok(())), Admit::Delivered);
        assert_eq!(gate.admit("c", 0, || Ok(())), Admit::Delivered);
        assert_eq!(gate.sessions(), 2);
        assert_eq!(gate.expected("a"), 2, "recently-active session survives");
        assert_eq!(gate.admit("b", 1, refuse), Admit::Gap { expected: 0 });
    }

    #[test]
    fn transport_error_kinds_have_stable_names_and_dense_indices() {
        for (i, kind) in TransportErrorKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let names: Vec<_> = TransportErrorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "bad_magic",
                "version",
                "truncated",
                "oversized",
                "crc",
                "key",
                "length",
                "gap",
                "io",
                "deadline"
            ]
        );
        let counters = TransportCounters::new();
        counters.record(TransportErrorKind::Crc);
        counters.record(TransportErrorKind::Crc);
        counters.record(TransportErrorKind::Io);
        assert_eq!(counters.count(TransportErrorKind::Crc), 2);
        assert_eq!(counters.total(), 3);
        assert_eq!(counters.snapshot()[TransportErrorKind::Io.index()], 1);
    }

    #[test]
    fn backoff_grows_exponentially_within_the_cap_plus_jitter() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(config.jitter_seed);
        for attempt in 0..12 {
            let delay = backoff_delay(&config, attempt, &mut rng).as_millis() as u64;
            let floor = (10u64 << attempt.min(16)).min(200);
            assert!(delay >= floor, "attempt {attempt}: {delay} < {floor}");
            assert!(delay < floor + 10, "attempt {attempt}: jitter exceeds base");
        }
        // Deterministic for a fixed seed.
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        assert_eq!(
            backoff_delay(&config, 2, &mut a),
            backoff_delay(&config, 2, &mut b)
        );
    }
}
