//! The serving loop: accept → frame → admit → coalesce → predict →
//! respond — with a tested failure model.
//!
//! Thread shape (all on `std` primitives — no async runtime):
//!
//! * one **accept** thread owning the listener;
//! * per connection, a detached **reader** (frames in, requests into the
//!   admission queue) and a detached **writer** (pre-encoded response
//!   frames out, fed over an `mpsc` channel so readers and the batcher
//!   never block on a slow client socket);
//! * one **batcher** thread draining the queue with the deadline
//!   coalescer and serving each batch through per-digest
//!   [`ServeSession`]s.
//!
//! Determinism under hot-swap: the batcher resolves the active model
//! **once per batch**, so a [`ModelRegistry::publish`] lands exactly on
//! a batch boundary — every request in a batch is served by one model
//! and stamped with its digest. Within a digest the batch is served in
//! admission order through `ServeSession::predict_batch`, whose results
//! are bitwise identical to any other grouping of the same samples
//! (`DESIGN.md` §11), so coalescing never changes a client's bytes.
//!
//! # Failure model (`DESIGN.md` §14)
//!
//! Every connection half carries a read/write timeout
//! ([`ServerConfig::idle_timeout`]): a stalled or slow-loris client is
//! **reaped** — disconnected and counted — instead of pinning a reader
//! thread or backing up the writer. The batcher wraps every serve in
//! [`std::panic::catch_unwind`]: a panicking batch falls back to
//! per-sample serving, and a panicking *sample* is **quarantined** with
//! a typed [`Status::Internal`] rejection while the rest of the batch
//! still gets bitwise-correct answers; the session's workspaces are
//! rebuilt after any unwind so a half-written buffer can never leak into
//! a later response. Shutdown drains: admission closes first (stragglers
//! get [`Status::ShuttingDown`]), the batcher answers everything already
//! admitted, then the threads join. All of it is exercised
//! deterministically by the seeded [`FaultPlan`](crate::FaultPlan)
//! wired through [`ServerConfig::faults`] and soaked in
//! `tests/chaos.rs`.

use crate::error::ServerError;
use crate::faults::{FaultPlan, FaultyRead, FaultyWrite, ServeFaults};
use crate::frame::{decode_request, encode_response, read_frame, FrameError, Response, Status};
use crate::queue::{AdmissionQueue, AdmitError};
use crate::registry::ModelRegistry;
use dfr_linalg::Matrix;
use dfr_serve::{BatchPlan, ServeSession, ServeSessionBuilder};
use std::collections::HashMap;
use std::io::{self, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most samples one coalesced batch may carry (also the serving
    /// sessions' `BatchPlan` bound). Default 64.
    pub max_batch: usize,
    /// Latency budget of the batch coalescer: a request waits at most
    /// this long for companions before its batch is served. Default 2 ms.
    pub batch_deadline: Duration,
    /// Admission queue capacity; requests beyond it are rejected with
    /// `Busy` + a retry hint instead of queueing unboundedly. Default
    /// 1024.
    pub queue_capacity: usize,
    /// Cap on one request frame's body length. Default
    /// [`crate::frame::DEFAULT_MAX_BODY`].
    pub max_frame_body: usize,
    /// Pool width pinned onto the serving sessions (`None` inherits the
    /// ambient `dfr_pool` sizing — `DFR_THREADS`, then available cores).
    pub threads: Option<usize>,
    /// Per-connection read/write timeout: a connection that stays silent
    /// (or refuses to drain its responses) for this long is reaped —
    /// disconnected and counted — so slow-loris clients can never pin a
    /// reader thread or leak. Default 30 s.
    pub idle_timeout: Duration,
    /// Deterministic fault injection (see [`crate::faults`]). The
    /// default is [`FaultPlan::from_env`]: no faults unless the
    /// `DFR_FAULTS` env knob is set, in which case the *same shipping
    /// binary* runs under injected chaos.
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 64,
            batch_deadline: Duration::from_millis(2),
            queue_capacity: 1024,
            max_frame_body: crate::frame::DEFAULT_MAX_BODY,
            threads: None,
            idle_timeout: Duration::from_secs(30),
            faults: FaultPlan::from_env(),
        }
    }
}

/// Monotonic serving counters (relaxed atomics — informational), plus
/// the `active_connections` gauge.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    active_connections: AtomicU64,
    admitted: AtomicU64,
    rejected_busy: AtomicU64,
    bad_input: AtomicU64,
    malformed: AtomicU64,
    frames_truncated: AtomicU64,
    frames_oversized: AtomicU64,
    timeouts: AtomicU64,
    reaped: AtomicU64,
    io_errors: AtomicU64,
    unknown_digest: AtomicU64,
    batches: AtomicU64,
    served: AtomicU64,
    predict_failures: AtomicU64,
    panics_caught: AtomicU64,
    quarantined: AtomicU64,
    shutdown_rejected: AtomicU64,
}

/// A point-in-time copy of the server's counters (`ServerStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Connections currently open (gauge; 0 after a clean shutdown once
    /// every connection thread has unwound).
    pub active_connections: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests rejected with `Busy` (queue full).
    pub rejected_busy: u64,
    /// Requests carrying non-finite (NaN/inf) feature values, rejected
    /// with `BadInput` *before* admission — a poisoned sample never
    /// reaches the batcher, so it is absent from the admission ledger.
    pub bad_input: u64,
    /// Bodies that framed correctly but failed to decode (answered
    /// `Malformed`, connection kept).
    pub malformed: u64,
    /// Frames cut off mid-body by a disconnect (connection dropped).
    pub frames_truncated: u64,
    /// Frames whose declared length exceeded the cap (answered
    /// `Malformed`, connection dropped — the stream is desynced).
    pub frames_oversized: u64,
    /// Read/write timeout events (idle, slow-loris, or unread responses).
    pub timeouts: u64,
    /// Connections closed by the idle reaper (at most once per
    /// connection, however many of its halves timed out).
    pub reaped: u64,
    /// Connections dropped on a non-timeout socket error.
    pub io_errors: u64,
    /// Requests pinning an unregistered digest.
    pub unknown_digest: u64,
    /// Batches the coalescer served.
    pub batches: u64,
    /// Requests answered `Ok`.
    pub served: u64,
    /// Requests answered `PredictFailed`.
    pub predict_failures: u64,
    /// Panics caught by the batcher's isolation (batch- or sample-level).
    pub panics_caught: u64,
    /// Samples quarantined with a typed `Internal` rejection after their
    /// per-sample serve panicked.
    pub quarantined: u64,
    /// Requests answered `ShuttingDown` during the drain.
    pub shutdown_rejected: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            bad_input: self.bad_input.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            frames_truncated: self.frames_truncated.load(Ordering::Relaxed),
            frames_oversized: self.frames_oversized.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            unknown_digest: self.unknown_digest.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            predict_failures: self.predict_failures.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            shutdown_rejected: self.shutdown_rejected.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Requests answered with a terminal response: the batcher's
    /// admission ledger must balance —
    /// `admitted == served + predict_failures + quarantined + unknown_digest`
    /// once the queue has drained. The chaos soak asserts this.
    pub fn answered(&self) -> u64 {
        self.served + self.predict_failures + self.quarantined + self.unknown_digest
    }
}

/// One admitted request, carrying its reply channel.
struct Job {
    request_id: u64,
    digest_pin: u64,
    series: Matrix,
    reply: mpsc::Sender<Vec<u8>>,
}

/// The TCP serving front-end. Constructed with [`Server::bind`]; the
/// returned handle owns the accept and batcher threads and shuts both
/// down on [`Server::shutdown`] or drop.
pub struct Server {
    local_addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    queue: Arc<AdmissionQueue<Job>>,
    stats: Arc<ServerStats>,
    shutting_down: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept and batcher threads serving models from `registry`.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] if the bind fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(AdmissionQueue::new(config.queue_capacity));
        let stats = Arc::new(ServerStats::default());
        let shutting_down = Arc::new(AtomicBool::new(false));

        let accept_thread = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let shutting_down = Arc::clone(&shutting_down);
            let config = config.clone();
            thread::Builder::new()
                .name("dfr-server-accept".into())
                .spawn(move || accept_loop(listener, queue, stats, shutting_down, config))
                .expect("spawn accept thread")
        };

        let batcher_thread = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let registry = Arc::clone(&registry);
            let config = config.clone();
            thread::Builder::new()
                .name("dfr-server-batcher".into())
                .spawn(move || batcher_loop(queue, registry, stats, config))
                .expect("spawn batcher thread")
        };

        Ok(Server {
            local_addr,
            registry,
            queue,
            stats,
            shutting_down,
            accept_thread: Some(accept_thread),
            batcher_thread: Some(batcher_thread),
        })
    }

    /// The bound address (with the resolved port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry this server serves from — publish to it to hot-swap
    /// the model under live traffic.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Graceful drain: stops admitting (stragglers are answered
    /// [`Status::ShuttingDown`]), lets the batcher answer everything
    /// already admitted, and joins the accept and batcher threads.
    /// Idempotent; also runs on drop.
    ///
    /// Connection threads exit on their own — on client EOF, on the
    /// `ShuttingDown` rejection path, or at the idle timeout at the
    /// latest — and the [`StatsSnapshot::active_connections`] gauge
    /// reaching 0 is the observable "no leaked threads" signal the chaos
    /// soak asserts.
    pub fn shutdown(&mut self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close admission first so readers answer ShuttingDown, then
        // wake the accept loop with a throwaway connection.
        self.queue.close();
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    queue: Arc<AdmissionQueue<Job>>,
    stats: Arc<ServerStats>,
    shutting_down: Arc<AtomicBool>,
    config: ServerConfig,
) {
    for stream in listener.incoming() {
        if shutting_down.load(Ordering::SeqCst) {
            break; // the waking connection (or any racer) is dropped
        }
        let Ok(stream) = stream else { continue };
        let conn_id = stats.connections.fetch_add(1, Ordering::Relaxed);
        let queue = Arc::clone(&queue);
        let stats = Arc::clone(&stats);
        let config = config.clone();
        // Detached: exits on client EOF, socket error, timeout reap, or
        // queue close — the idle timeout bounds how long it can linger.
        let _ = thread::Builder::new()
            .name("dfr-server-conn".into())
            .spawn(move || connection_loop(stream, conn_id, queue, stats, config));
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads frames off one connection, admits requests, and spawns the
/// paired writer draining pre-encoded response frames. Both halves carry
/// the idle timeout; either half timing out reaps the connection (once).
fn connection_loop(
    stream: TcpStream,
    conn_id: u64,
    queue: Arc<AdmissionQueue<Job>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
) {
    stats.active_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    // One deadline for both halves: reads reap slow-loris senders, writes
    // reap clients that never drain their responses.
    let _ = stream.set_read_timeout(Some(config.idle_timeout));
    let _ = stream.set_write_timeout(Some(config.idle_timeout));
    let reaped = Arc::new(AtomicBool::new(false));

    let writer = match stream.try_clone() {
        Ok(write_half) => {
            let stats = Arc::clone(&stats);
            let reaped = Arc::clone(&reaped);
            let faults = config.faults.io_faults(conn_id, 1);
            let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
            let handle = thread::Builder::new()
                .name("dfr-server-conn-writer".into())
                .spawn(move || {
                    let mut w = BufWriter::new(FaultyWrite::new(write_half, faults));
                    // Frames already carry their length prefix; write
                    // whole frames directly.
                    while let Ok(frame) = reply_rx.recv() {
                        use std::io::Write;
                        if let Err(e) = w.write_all(&frame).and_then(|()| w.flush()) {
                            if is_timeout(&e) {
                                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                                reaped.store(true, Ordering::Relaxed);
                            } else {
                                stats.io_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            break; // client gone or unresponsive
                        }
                    }
                });
            match handle {
                Ok(h) => Some((h, reply_tx)),
                Err(_) => None,
            }
        }
        Err(_) => None,
    };
    let Some((writer, reply_tx)) = writer else {
        stats.active_connections.fetch_sub(1, Ordering::Relaxed);
        return;
    };

    let mut reader = FaultyRead::new(&stream, config.faults.io_faults(conn_id, 0));
    let mut buf = Vec::new();
    let mut scratch = Vec::new();
    let retry_hint_ms = (config.batch_deadline.as_millis() as u32).max(1);
    loop {
        match read_frame(&mut reader, &mut buf, config.max_frame_body) {
            Ok(None) => break, // clean EOF
            Ok(Some(body)) => match decode_request(body) {
                Ok(req) => {
                    // Non-finite quarantine (`DESIGN.md` §15): a poisoned
                    // sample is rejected with a typed `BadInput` *before*
                    // admission, so it never occupies a queue slot, never
                    // reaches the batcher, and stays out of the admission
                    // ledger entirely. A 0-row series is the same class of
                    // client bug (the framing layer already refuses to
                    // decode one; this guard keeps the contract if the
                    // wire format ever grows a path around that check).
                    if req.series.rows() == 0
                        || !req.series.as_slice().iter().all(|v| v.is_finite())
                    {
                        stats.bad_input.fetch_add(1, Ordering::Relaxed);
                        let resp = Response::reject(req.request_id, Status::BadInput, 0);
                        encode_response(&resp, &mut scratch);
                        if reply_tx.send(scratch.clone()).is_err() {
                            break;
                        }
                        continue;
                    }
                    let job = Job {
                        request_id: req.request_id,
                        digest_pin: req.digest_pin,
                        series: req.series,
                        reply: reply_tx.clone(),
                    };
                    match queue.try_push(job) {
                        Ok(()) => {
                            stats.admitted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err((job, AdmitError::Full)) => {
                            stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                            let resp =
                                Response::reject(job.request_id, Status::Busy, retry_hint_ms);
                            encode_response(&resp, &mut scratch);
                            if job.reply.send(scratch.clone()).is_err() {
                                break; // writer died; nothing can be answered
                            }
                        }
                        Err((job, AdmitError::Closed)) => {
                            stats.shutdown_rejected.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::reject(job.request_id, Status::ShuttingDown, 0);
                            encode_response(&resp, &mut scratch);
                            let _ = job.reply.send(scratch.clone());
                            break;
                        }
                    }
                }
                Err(_) => {
                    // The frame boundary is intact, so the stream stays
                    // usable; answer Malformed and keep reading.
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::reject(0, Status::Malformed, 0);
                    encode_response(&resp, &mut scratch);
                    if reply_tx.send(scratch.clone()).is_err() {
                        break;
                    }
                }
            },
            Err(FrameError::Oversized { .. }) => {
                // The body was never consumed — the stream is desynced.
                // Best-effort rejection, then close.
                stats.frames_oversized.fetch_add(1, Ordering::Relaxed);
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                let resp = Response::reject(0, Status::Malformed, 0);
                encode_response(&resp, &mut scratch);
                let _ = reply_tx.send(scratch.clone());
                break;
            }
            Err(FrameError::TruncatedFrame { .. }) => {
                // The peer vanished mid-frame; nothing to answer.
                stats.frames_truncated.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                // The idle reaper: a silent or slow-loris connection is
                // disconnected instead of pinning this thread forever.
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                reaped.store(true, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Io(_)) => {
                stats.io_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break, // decode-layer errors cannot reach here
        }
    }
    // Dropping the last sender ends the writer once in-flight responses
    // (still referenced by queued Jobs) are answered and dropped.
    drop(reply_tx);
    let _ = stream.shutdown(std::net::Shutdown::Read);
    let _ = writer.join();
    if reaped.load(Ordering::Relaxed) {
        stats.reaped.fetch_add(1, Ordering::Relaxed);
    }
    stats.active_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Drains the admission queue with the deadline coalescer and serves
/// each batch through per-digest sessions.
fn batcher_loop(
    queue: Arc<AdmissionQueue<Job>>,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
) {
    let mut sessions: HashMap<u64, ServeSession> = HashMap::new();
    let mut batch: Vec<Job> = Vec::new();
    let mut frame = Vec::new();
    let mut faults = config.faults.serve_faults();
    while queue.fill_batch(&mut batch, config.max_batch, config.batch_deadline) {
        stats.batches.fetch_add(1, Ordering::Relaxed);
        // One registry read per batch: a publish() lands exactly on a
        // batch boundary, never mid-batch.
        let active = registry.active();
        let active_digest = active.content_digest();

        // Partition by resolved digest, preserving admission order
        // within each digest (first-occurrence order across digests).
        let mut groups: Vec<(u64, Vec<Job>)> = Vec::new();
        for job in batch.drain(..) {
            let digest = if job.digest_pin == 0 {
                active_digest
            } else {
                job.digest_pin
            };
            if digest != active_digest && !registry.contains(digest) {
                stats.unknown_digest.fetch_add(1, Ordering::Relaxed);
                let resp = Response::reject(job.request_id, Status::UnknownDigest, 0);
                encode_response(&resp, &mut frame);
                let _ = job.reply.send(frame.clone());
                continue;
            }
            match groups.iter_mut().find(|(d, _)| *d == digest) {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((digest, vec![job])),
            }
        }

        for (digest, jobs) in groups {
            let model = if digest == active_digest {
                Arc::clone(&active)
            } else {
                match registry.get(digest) {
                    Some(m) => m,
                    None => {
                        // Retired between partitioning and serving.
                        for job in jobs {
                            stats.unknown_digest.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::reject(job.request_id, Status::UnknownDigest, 0);
                            encode_response(&resp, &mut frame);
                            let _ = job.reply.send(frame.clone());
                        }
                        continue;
                    }
                }
            };
            let session = sessions.entry(digest).or_insert_with(|| {
                let mut b =
                    ServeSessionBuilder::shared(model).batch_plan(BatchPlan::new(config.max_batch));
                if let Some(t) = config.threads {
                    b = b.threads(t);
                }
                b.build()
            });
            serve_group(session, &jobs, &stats, &mut frame, &mut faults);
        }

        // Sessions for retired digests hold the last Arc to their model;
        // drop them so retirement actually frees parameters.
        sessions.retain(|digest, _| registry.contains(*digest));
    }
}

/// Serves one digest-homogeneous group and replies to every job, with
/// panic isolation at both levels:
///
/// * the **batched** serve runs under `catch_unwind` — an unwind (or an
///   ordinary per-sample error) falls back to per-sample serving, after
///   resetting the session's workspaces so a half-written buffer can
///   never surface in a later response;
/// * each **per-sample** serve runs under its own `catch_unwind` — a
///   panicking sample is quarantined with a typed [`Status::Internal`]
///   rejection while every other sample still gets its bitwise-correct
///   answer.
///
/// Replies are sent only *after* a serve succeeds, so an unwind can
/// never leave a client double-answered or half-answered.
fn serve_group(
    session: &mut ServeSession,
    jobs: &[Job],
    stats: &ServerStats,
    frame: &mut Vec<u8>,
    faults: &mut Option<ServeFaults>,
) {
    let series: Vec<Matrix> = jobs.iter().map(|j| j.series.clone()).collect();
    let batched = catch_unwind(AssertUnwindSafe(|| {
        if let Some(f) = faults.as_mut() {
            f.maybe_panic_batch();
        }
        session.predict_batch(&series).map(|result| {
            let probs: Vec<Vec<f64>> = (0..result.len())
                .map(|i| result.probabilities_of(i).to_vec())
                .collect();
            (result.predictions().to_vec(), probs, result.digest())
        })
    }));
    match batched {
        Ok(Ok((predictions, probabilities, digest))) => {
            for ((job, class), probs) in jobs.iter().zip(predictions).zip(probabilities) {
                stats.served.fetch_add(1, Ordering::Relaxed);
                let resp = Response::ok(job.request_id, digest, class, probs);
                encode_response(&resp, frame);
                let _ = job.reply.send(frame.clone());
            }
            return;
        }
        // At least one sample is bad; isolate it below so healthy
        // requests still get answers.
        Ok(Err(_)) => {}
        Err(_) => {
            // A panic mid-batch: the session's buffers may be
            // half-written — rebuild them before trusting any result.
            stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            session.reset();
        }
    }
    for job in jobs {
        let one = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = faults.as_mut() {
                f.maybe_panic_sample();
            }
            session
                .predict_one(&job.series)
                .map(|p| (p.class(), p.probabilities().to_vec(), p.digest()))
        }));
        match one {
            Ok(Ok((class, probs, digest))) => {
                stats.served.fetch_add(1, Ordering::Relaxed);
                let resp = Response::ok(job.request_id, digest, class, probs);
                encode_response(&resp, frame);
                let _ = job.reply.send(frame.clone());
            }
            Ok(Err(_)) => {
                stats.predict_failures.fetch_add(1, Ordering::Relaxed);
                let resp = Response::reject(job.request_id, Status::PredictFailed, 0);
                encode_response(&resp, frame);
                let _ = job.reply.send(frame.clone());
            }
            Err(_) => {
                // Quarantine: this sample's serve unwound — typed
                // Internal rejection, fresh workspaces, next sample.
                stats.panics_caught.fetch_add(1, Ordering::Relaxed);
                stats.quarantined.fetch_add(1, Ordering::Relaxed);
                session.reset();
                let resp = Response::reject(job.request_id, Status::Internal, 0);
                encode_response(&resp, frame);
                let _ = job.reply.send(frame.clone());
            }
        }
    }
}
