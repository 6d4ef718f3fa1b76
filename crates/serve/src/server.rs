//! The thread-pooled, pipelined TCP server.
//!
//! One accept thread admits connections into a **bounded** rendezvous
//! queue (`std::sync::mpsc::sync_channel`); a fixed pool of workers takes
//! connections off the queue and serves requests until the peer closes.
//! Admission control is load shedding, not queueing: when every worker is
//! busy and the backlog is full, the accept thread answers a typed
//! [`ErrorCode::Overloaded`] frame and closes — a client is never parked
//! in an unbounded queue. The graceful-shed drain itself runs on a
//! **capped** pool of detached drainer threads ([`MAX_DRAINERS`]); past
//! the cap, rejected connections are closed immediately so a connection
//! flood can never become a thread flood.
//!
//! Within a connection, requests are **pipelined**: a per-connection
//! reader thread keeps pulling frames (up to [`PIPELINE_DEPTH`] ahead)
//! while the worker executes and writes responses strictly in receipt
//! order, so response ordering is preserved by construction and a client
//! may batch writes without waiting for replies. The per-request deadline
//! clock starts the moment a frame is fully received — queue time counts
//! against the deadline, execution-slot luck does not.
//!
//! Every `ReadTable`/`Query`/`Stats` request executes against **one**
//! [`sc::ScSnapshot`] pin taken at dispatch and dropped when the response
//! is built, so a multi-frame table response is epoch-consistent by
//! construction, and graceful shutdown — which drains in-flight requests
//! and joins every thread — provably leaves no pins behind (epoch GC then
//! reclaims every retained file). The exception that proves the rule:
//! a [`SnapshotCache`] hit takes **no pin at all**. The cached frames
//! were built under a pin at their epoch and are immutable bytes in
//! memory; the lock-free [`DiskCatalog::current_epoch`] load that keys
//! the lookup is monotone, so a hit is indistinguishable from the same
//! request having executed moments earlier. Ingest and refresh go
//! through the session's existing paths, inheriting all engine
//! invariants.
//!
//! [`DiskCatalog::current_epoch`]: sc_engine::storage::DiskCatalog::current_epoch

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sc::{ScError, ScSession};
use sc_engine::plan::LogicalPlan;
use sc_engine::storage::{format, RetentionSubscription};

use crate::cache::{SharedFrames, SnapshotCache};
use crate::error::{ErrorCode, WireError};
use crate::metrics::{MetricsSnapshot, OpClass, ServeMetrics};
use crate::protocol::{
    self, decode_request, error_frame, ingested_frame, refreshed_frame, table_response_frames,
    RefreshSummary, Request, MAX_FRAME, OP_STATS_REPLY,
};

/// How often a blocked reader wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Concurrent graceful-shed drainers. Beyond this, a rejected connection
/// is dropped immediately (the peer sees a reset instead of the typed
/// `Overloaded` frame) — under a genuine flood, a bounded thread count
/// beats a graceful goodbye.
pub const MAX_DRAINERS: usize = 8;

/// How many requests a connection's reader may receive ahead of the one
/// currently executing.
const PIPELINE_DEPTH: usize = 8;

/// Server knobs. `Default` is tuned for tests and examples.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Admitted-but-unclaimed connection bound. `0` makes admission a
    /// pure rendezvous: a connection is admitted only if a worker is
    /// waiting for one right now.
    pub backlog: usize,
    /// Per-request deadline, measured from the moment the request frame
    /// is fully received to the moment its response starts writing.
    pub deadline: Duration,
    /// Byte budget for the shared-snapshot read cache ([`SnapshotCache`]);
    /// `0` disables caching entirely.
    pub cache_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            backlog: 64,
            deadline: Duration::from_secs(30),
            cache_bytes: 32 << 20,
        }
    }
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    cache: Arc<SnapshotCache>,
    /// Keeps the cache's eviction subscribed to the catalog's retention
    /// horizon for as long as the server lives.
    _retention: Option<RetentionSubscription>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("cache", &self.cache)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds a loopback ephemeral port and starts serving `session`.
    pub fn start(session: Arc<ScSession>, config: ServeConfig) -> io::Result<Server> {
        Server::bind(session, ("127.0.0.1", 0), config)
    }

    /// Binds `addr` and starts serving `session`.
    ///
    /// When the read cache is enabled, this subscribes it to the storage
    /// tier's retention horizon so cache eviction tracks epoch GC
    /// exactly, until the server drops.
    pub fn bind(
        session: Arc<ScSession>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServeMetrics::new());
        let cache = Arc::new(SnapshotCache::new(config.cache_bytes));
        // Evict in lockstep with retained-namespace reclamation: a
        // cached epoch never outlives its retained files by more than
        // the commit (or pin drop) that buried it.
        let retention = cache.enabled().then(|| {
            let cache = Arc::clone(&cache);
            session
                .disk()
                .subscribe_retention(move |horizon| cache.evict_below(horizon))
        });
        let workers = config.workers.max(1);
        let (tx, rx) = sync_channel::<TcpStream>(config.backlog);
        let rx = Arc::new(Mutex::new(rx));

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let session = Arc::clone(&session);
            let metrics = Arc::clone(&metrics);
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("sc-serve-worker-{i}"))
                    .spawn(move || worker_loop(rx, session, metrics, cache, stop, config))?,
            );
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let drainers = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("sc-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        match tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(stream)) => {
                                // Load shedding: typed backpressure, not
                                // unbounded queueing.
                                metrics.record_overloaded();
                                metrics.record_error();
                                shed_connection(stream, &drainers);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    // Dropping `tx` unblocks every worker's `recv`.
                })?
        };

        Ok(Server {
            addr: local,
            stop,
            metrics,
            cache,
            _retention: retention,
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The bound address (connect [`crate::Client`]s here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving-tier counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The shared-snapshot read cache (disabled when
    /// [`ServeConfig::cache_bytes`] is `0`).
    pub fn cache(&self) -> &SnapshotCache {
        &self.cache
    }

    /// Graceful shutdown: stop admitting, drain in-flight requests, join
    /// every thread (dropping every snapshot pin), and return the final
    /// metrics — cache counters included. Queued-but-unclaimed
    /// connections are answered with a typed `ShuttingDown` error.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        let mut snap = self.metrics.snapshot();
        snap.merge_cache(&self.cache.stats());
        snap
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Writes one length-prefixed frame.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)
}

/// Sheds a connection the admission bound rejected: answer a typed
/// `Overloaded` frame, half-close, and drain the peer's pending bytes
/// before dropping. The drain matters: the client has usually already
/// written its request, and closing a socket with unread bytes in the
/// receive buffer sends a TCP RST, which discards the error frame out of
/// the client's buffer before it can read it — the client would see a
/// raw transport error instead of typed backpressure.
///
/// The drain runs on a short detached thread so the accept loop keeps
/// shedding at full rate — but the number of live drainers is capped at
/// [`MAX_DRAINERS`]. At the cap the connection is simply dropped:
/// during a flood, each graceful drain can hold its thread for up to a
/// second, so an unbounded spawn-per-rejection would turn the flood into
/// a thread explosion exactly when the server is least able to afford
/// one.
fn shed_connection(mut stream: TcpStream, drainers: &Arc<AtomicUsize>) {
    let mut live = drainers.load(Ordering::Relaxed);
    loop {
        if live >= MAX_DRAINERS {
            // Fall through: immediate close, no thread.
            return;
        }
        match drainers.compare_exchange_weak(live, live + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => live = now,
        }
    }
    let pool = Arc::clone(drainers);
    let spawned = std::thread::Builder::new()
        .name("sc-serve-drain".into())
        .spawn(move || {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            if write_frame(
                &mut stream,
                &error_frame(&WireError {
                    code: ErrorCode::Overloaded,
                    kind: String::new(),
                    message: "admission bound reached; retry later".into(),
                }),
            )
            .is_ok()
            {
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                let mut scratch = [0u8; 512];
                let deadline = Instant::now() + Duration::from_secs(1);
                while Instant::now() < deadline {
                    match stream.read(&mut scratch) {
                        // EOF: the peer saw our FIN (and the frame) and
                        // closed.
                        Ok(0) => break,
                        Ok(_) => {}
                        // Timeouts keep draining until the deadline —
                        // the peer may still be mid-write; anything else
                        // is fatal anyway.
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => break,
                    }
                }
            }
            pool.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        drainers.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Reasons a connection's reader gives up between frames.
struct Halt<'a> {
    /// Server-wide shutdown.
    stop: &'a AtomicBool,
    /// This connection's executor is gone (write failure or panic).
    done: &'a AtomicBool,
}

impl Halt<'_> {
    fn halted(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.done.load(Ordering::SeqCst)
    }
}

enum FrameRead {
    /// A complete payload.
    Frame(Vec<u8>),
    /// Peer closed (cleanly at a frame boundary, or mid-frame — either
    /// way there is no one left to answer) or the transport failed.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// Shutdown began while waiting; `mid_frame` says whether the peer
    /// had started sending a request that will now never be served.
    Stopped { mid_frame: bool },
}

/// Reads one frame, waking every [`POLL_INTERVAL`] to check `halt`.
fn read_frame_polling(stream: &mut TcpStream, halt: &Halt<'_>) -> FrameRead {
    let mut header = [0u8; 4];
    match read_exact_polling(stream, halt, &mut header, true) {
        ReadExact::Done => {}
        ReadExact::Closed => return FrameRead::Closed,
        ReadExact::Stopped { any_bytes } => {
            return FrameRead::Stopped {
                mid_frame: any_bytes,
            }
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return FrameRead::TooLarge(len);
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_polling(stream, halt, &mut payload, false) {
        ReadExact::Done => FrameRead::Frame(payload),
        ReadExact::Closed => FrameRead::Closed,
        ReadExact::Stopped { .. } => FrameRead::Stopped { mid_frame: true },
    }
}

enum ReadExact {
    Done,
    Closed,
    Stopped { any_bytes: bool },
}

/// Fills `buf`, polling `halt` on every timeout. With `stop_at_boundary`
/// the read gives up on shutdown even before the first byte (used for
/// the header, so an idle connection closes promptly); mid-buffer it
/// always reports `Stopped` so the caller can answer `ShuttingDown`.
fn read_exact_polling(
    stream: &mut TcpStream,
    halt: &Halt<'_>,
    buf: &mut [u8],
    stop_at_boundary: bool,
) -> ReadExact {
    let mut got = 0;
    if buf.is_empty() {
        return ReadExact::Done;
    }
    loop {
        if halt.halted() && (got > 0 || stop_at_boundary) {
            return ReadExact::Stopped { any_bytes: got > 0 };
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return ReadExact::Closed,
            Ok(n) => {
                got += n;
                if got == buf.len() {
                    return ReadExact::Done;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadExact::Closed,
        }
    }
}

fn worker_loop(
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    session: Arc<ScSession>,
    metrics: Arc<ServeMetrics>,
    cache: Arc<SnapshotCache>,
    stop: Arc<AtomicBool>,
    config: ServeConfig,
) {
    loop {
        // Take the next admitted connection; holding the lock only for
        // the take keeps the other workers runnable.
        let conn = { rx.lock().expect("receiver lock").recv() };
        let Ok(mut stream) = conn else { break };
        if stop.load(Ordering::SeqCst) {
            metrics.record_error();
            let _ = write_frame(
                &mut stream,
                &error_frame(&WireError {
                    code: ErrorCode::ShuttingDown,
                    kind: String::new(),
                    message: "server is draining".into(),
                }),
            );
            continue;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        serve_connection(&mut stream, &session, &metrics, &cache, &stop, &config);
    }
}

/// What the per-connection reader hands the executor. `Frame` carries
/// the receipt timestamp — the deadline clock starts here, not at
/// dequeue, so time spent queued behind a slow request counts against
/// the queued request's deadline.
enum Inbound {
    Frame { payload: Vec<u8>, received: Instant },
    Closed,
    TooLarge(u32),
    Stopped { mid_frame: bool },
}

/// Pulls frames off the socket and into the bounded pipeline queue.
/// Every non-`Frame` read is terminal, and so is a send failure (the
/// executor hung up). The bounded `send` is the pipelining backpressure:
/// at most [`PIPELINE_DEPTH`] requests sit received-but-unexecuted.
fn reader_loop(mut stream: TcpStream, halt: &Halt<'_>, tx: SyncSender<Inbound>) {
    loop {
        let item = match read_frame_polling(&mut stream, halt) {
            FrameRead::Frame(payload) => Inbound::Frame {
                payload,
                received: Instant::now(),
            },
            FrameRead::Closed => Inbound::Closed,
            FrameRead::TooLarge(len) => Inbound::TooLarge(len),
            FrameRead::Stopped { mid_frame } => Inbound::Stopped { mid_frame },
        };
        let terminal = !matches!(item, Inbound::Frame { .. });
        if tx.send(item).is_err() || terminal {
            return;
        }
    }
}

/// Serves one connection until the peer closes, the framing breaks, or
/// shutdown drains it. Reads are pipelined (see [`reader_loop`]);
/// responses are written strictly in receipt order because this single
/// executor dequeues and writes serially — a deadline rejection
/// mid-pipeline emits its error frame in sequence and later responses
/// stay correctly ordered.
fn serve_connection(
    stream: &mut TcpStream,
    session: &ScSession,
    metrics: &ServeMetrics,
    cache: &SnapshotCache,
    stop: &Arc<AtomicBool>,
    config: &ServeConfig,
) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let done = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<Inbound>(PIPELINE_DEPTH);
    let reader = {
        let stop = Arc::clone(stop);
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name("sc-serve-reader".into())
            .spawn(move || {
                reader_loop(
                    reader_stream,
                    &Halt {
                        stop: &stop,
                        done: &done,
                    },
                    tx,
                )
            })
    };
    let Ok(reader) = reader else {
        return;
    };

    while let Ok(item) = rx.recv() {
        let (payload, received) = match item {
            Inbound::Frame { payload, received } => (payload, received),
            Inbound::Closed => break,
            Inbound::TooLarge(len) => {
                // The stream cannot be resynced past an oversized frame:
                // answer a typed error, then close.
                metrics.record_malformed();
                metrics.record_error();
                let _ = write_frame(
                    stream,
                    &error_frame(&WireError::malformed(format!(
                        "frame length {len} exceeds max {MAX_FRAME}"
                    ))),
                );
                break;
            }
            Inbound::Stopped { mid_frame } => {
                if mid_frame {
                    metrics.record_error();
                    let _ = write_frame(
                        stream,
                        &error_frame(&WireError {
                            code: ErrorCode::ShuttingDown,
                            kind: String::new(),
                            message: "server is draining".into(),
                        }),
                    );
                }
                break;
            }
        };
        metrics.add_bytes_in(payload.len() as u64);
        let deadline = received + config.deadline;

        // A panic inside decoding or the engine must never take the
        // worker down: convert it into a typed error and drop the
        // connection (its request state is unknowable). Decode errors
        // keep the connection: the framing stayed intact, so it is
        // still usable.
        let executed = catch_unwind(AssertUnwindSafe(|| {
            let req = decode_request(&payload)?;
            execute(session, metrics, cache, req, deadline)
        }));
        match executed {
            Ok(Ok((op, frames))) => {
                let mut broken = false;
                for frame in frames.iter() {
                    metrics.add_bytes_out(frame.len() as u64);
                    if write_frame(stream, frame).is_err() {
                        broken = true;
                        break;
                    }
                }
                if broken {
                    break;
                }
                metrics.record(op, received.elapsed().as_micros() as u64);
            }
            Ok(Err(err)) => {
                match err.code {
                    ErrorCode::DeadlineExceeded => metrics.record_deadline(),
                    ErrorCode::Malformed => metrics.record_malformed(),
                    _ => {}
                }
                metrics.record_error();
                if write_frame(stream, &error_frame(&err)).is_err() {
                    break;
                }
            }
            Err(_) => {
                metrics.record_error();
                let _ = write_frame(
                    stream,
                    &error_frame(&WireError {
                        code: ErrorCode::Engine,
                        kind: "panic".into(),
                        message: "internal error while serving the request".into(),
                    }),
                );
                break;
            }
        }
    }
    // Tear the pipeline down: the reader observes `done` at its next
    // poll tick (or its pending `send` fails once `rx` drops) and exits.
    done.store(true, Ordering::SeqCst);
    drop(rx);
    let _ = reader.join();
}

fn engine_error(err: ScError) -> WireError {
    WireError {
        code: ErrorCode::Engine,
        kind: err.kind().into(),
        message: err.to_string(),
    }
}

fn check_deadline(deadline: Instant) -> Result<(), WireError> {
    if Instant::now() >= deadline {
        Err(WireError {
            code: ErrorCode::DeadlineExceeded,
            kind: String::new(),
            message: "request exceeded its deadline".into(),
        })
    } else {
        Ok(())
    }
}

/// Serves a whole-table read through the snapshot cache.
///
/// The hit path is the serving tier's fast path: one lock-free
/// `current_epoch` load plus a shared-lock map probe — no snapshot pin,
/// no io-lock crossing with a committing writer, no decode/encode. The
/// miss path is the pre-cache path verbatim (pin, read, encode, chunk),
/// then memoizes the frames **at the pin's epoch** — which may already
/// be newer than the `current_epoch` probed above; keying by what was
/// actually served keeps cached and uncached responses byte-identical
/// per epoch.
fn read_cached(
    session: &ScSession,
    cache: &SnapshotCache,
    table: &str,
    deadline: Instant,
) -> Result<SharedFrames, WireError> {
    if cache.enabled() {
        let epoch = session.disk().current_epoch();
        if let Some(frames) = cache.get(epoch, table) {
            return Ok(frames);
        }
    }
    let snap = session.snapshot();
    let t = snap.read_table(table).map_err(engine_error)?;
    check_deadline(deadline)?;
    let frames: SharedFrames = Arc::new(table_response_frames(snap.epoch(), &format::encode(&t)));
    cache.insert(snap.epoch(), table, Arc::clone(&frames));
    Ok(frames)
}

/// Executes one request, returning the response frames. Reads pin one
/// snapshot for the whole response (cache hits excepted — their frames
/// were built under a pin and are immutable); the pin drops on return,
/// before the frames hit the socket, which is safe because the table
/// bytes are already extracted.
fn execute(
    session: &ScSession,
    metrics: &ServeMetrics,
    cache: &SnapshotCache,
    req: Request,
    deadline: Instant,
) -> Result<(OpClass, SharedFrames), WireError> {
    check_deadline(deadline)?;
    match req {
        Request::ReadTable { table } => {
            let frames = read_cached(session, cache, &table, deadline)?;
            Ok((OpClass::Read, frames))
        }
        Request::Query { plan } => {
            // A bare scan is `ReadTable` in query clothing — same pinned
            // read, same bytes — so it shares the same cache key.
            if let LogicalPlan::Scan { table } = &plan {
                let frames = read_cached(session, cache, table, deadline)?;
                return Ok((OpClass::Query, frames));
            }
            let snap = session.snapshot();
            let t = snap.query(&plan).map_err(engine_error)?;
            check_deadline(deadline)?;
            let frames = table_response_frames(snap.epoch(), &format::encode(&t));
            Ok((OpClass::Query, Arc::new(frames)))
        }
        Request::Ingest { table, delta } => {
            let rows = (delta.insert_rows() + delta.delete_rows()) as u64;
            session.ingest_delta(&table, delta).map_err(engine_error)?;
            check_deadline(deadline)?;
            Ok((OpClass::Ingest, Arc::new(vec![ingested_frame(rows)])))
        }
        Request::Refresh => {
            let report = session.refresh().map_err(engine_error)?;
            check_deadline(deadline)?;
            let summary = RefreshSummary {
                profiled: report.profiled,
                nodes: report.nodes().len() as u32,
                total_s: report.total_s(),
            };
            Ok((OpClass::Refresh, Arc::new(vec![refreshed_frame(&summary)])))
        }
        Request::Stats => {
            let snap = session.snapshot();
            let tables = snap.tables().map_err(engine_error)?;
            check_deadline(deadline)?;
            let mut f = vec![OP_STATS_REPLY];
            protocol::put_u64(&mut f, snap.epoch());
            protocol::put_u32(&mut f, tables.len() as u32);
            for t in &tables {
                protocol::put_string(&mut f, t);
            }
            let mut m = metrics.snapshot();
            m.merge_cache(&cache.stats());
            m.encode_into(&mut f);
            Ok((OpClass::Stats, Arc::new(vec![f])))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clients match on the wire kind, so each session error keeps the
    /// kind string it has always shipped.
    #[test]
    fn wire_error_kinds_are_stable() {
        let cases = [
            (ScError::Opt(sc::core::OptError::ZeroBudget), "opt"),
            (
                ScError::Dag(sc::dag::DagError::SelfLoop {
                    node: sc::dag::NodeId(0),
                }),
                "dag",
            ),
            (ScError::DuplicateMv("mv".into()), "duplicate_mv"),
            (
                ScError::NameCollision {
                    name: "mv.a".into(),
                    existing: "mv_a".into(),
                },
                "name_collision",
            ),
            (ScError::MissingStorageDir, "missing_storage_dir"),
            (ScError::UnknownTable("t".into()), "unknown_table"),
        ];
        for (err, kind) in cases {
            let message = err.to_string();
            let wire = engine_error(err);
            assert_eq!(wire.code, ErrorCode::Engine);
            assert_eq!(wire.kind, kind);
            assert_eq!(wire.message, message);
        }
    }
}
