//! `serve_light` and `serve_heavy`: a loopback `dfr-server` with the
//! shipped defaults (faults forced off) serving the quickstart model to
//! ragged series, `T ∈ [20, 120]`.
//!
//! * light — one connection, closed loop, one request in flight. Latency
//!   is set by the coalesce deadline, not by compute.
//! * heavy — one pipelined connection; a sender thread and a receiver
//!   thread keep `max_batch` requests in flight, so batches fill and the
//!   deadline never fires.
//!
//! One operation is one request round trip. The oracle: every reply is
//! bitwise equal (class, probability bits, digest) to an in-process
//! `ServeSession` over the same series.

use crate::report::Slices;
use crate::trace::{Layers, Span, Tracer};
use crate::{median, peak_rss_mb, Ledger, Outcome, RunSpec};
use dfr_core::trainer::{train, TrainOptions};
use dfr_data::rng::{randn, seeded_rng};
use dfr_data::DatasetSpec;
use dfr_linalg::Matrix;
use dfr_serve::{FrozenModel, ServeSession};
use dfr_server::frame::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use dfr_server::{FaultPlan, ModelRegistry, Server, ServerConfig, StatsSnapshot, Status};
use rand::Rng;
use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Which client load a run applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// One request in flight.
    Light,
    /// `max_batch` requests in flight on one pipelined connection.
    Heavy,
}

/// Distinct request series, cycled through.
const POOL: usize = 256;
/// Set-up repetitions (train, freeze, oracle, bind, warm up).
const SETUP_REPEATS: usize = 5;
/// Traffic that warms a fresh server up, seconds.
const WARMUP_SECONDS: f64 = 0.05;
/// A reply slower than this is a transport failure.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Length of the in-process `predict_batch` replay of a traced run.
const REPLAY_SECONDS: f64 = 0.5;

/// The oracle's answer for one series.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    class: u32,
    bits: Vec<u64>,
    digest: u64,
}

struct Fixture {
    server: Server,
    frozen: FrozenModel,
    config: ServerConfig,
}

/// The ragged request pool, from the seed alone.
fn request_pool(seed: u64) -> Vec<Matrix> {
    let mut rng = seeded_rng("perfbench-serve", &[seed]);
    (0..POOL)
        .map(|_| {
            let t = 20 + ((rng.gen::<f64>() * 101.0) as usize).min(100);
            Matrix::from_vec(t, 2, (0..2 * t).map(|_| randn(&mut rng)).collect())
                .expect("sized series")
        })
        .collect()
}

fn expected_replies(frozen: &FrozenModel, series: &[Matrix]) -> Result<Vec<Expected>, String> {
    let mut session = ServeSession::builder(frozen.clone()).build();
    let result = session.predict_batch(series).map_err(|e| e.to_string())?;
    Ok((0..series.len())
        .map(|i| Expected {
            class: result.predictions()[i] as u32,
            bits: result
                .probabilities_of(i)
                .iter()
                .map(|p| p.to_bits())
                .collect(),
            digest: result.digest(),
        })
        .collect())
}

/// Trains and freezes the quickstart model, computes the oracle, binds
/// the server and warms it up.
fn set_up(load: Load, seed: u64, series: &[Matrix]) -> Result<(Fixture, Vec<Expected>), String> {
    let mut ds = DatasetSpec::new("quickstart", 3, 60, 2, 60, 60, 0.6).build(seed);
    dfr_data::normalize::standardize(&mut ds);
    let model = train(&ds, &TrainOptions::calibrated())
        .map_err(|e| e.to_string())?
        .model;
    let frozen = FrozenModel::freeze(&model);
    let expected = expected_replies(&frozen, series)?;
    // `ServerConfig::default()` reads `DFR_FAULTS`; pin faults off.
    let config = ServerConfig {
        faults: FaultPlan::none(),
        ..ServerConfig::default()
    };
    let registry = Arc::new(ModelRegistry::new(frozen.clone()));
    let server =
        Server::bind("127.0.0.1:0", registry, config.clone()).map_err(|e| e.to_string())?;
    let fixture = Fixture {
        server,
        frozen,
        config,
    };
    // Warm up with the workload's own traffic shape.
    let mut off = Tracer::new(false, Instant::now());
    measure_window(load, &fixture, series, &expected, WARMUP_SECONDS, &mut off)?;
    Ok((fixture, expected))
}

/// Client-side timestamps of one request.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    start: Instant,
    encoded: Instant,
    sent: Instant,
}

/// Write half of a client connection.
struct Sender {
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
}

impl Sender {
    /// Encodes and writes one request through the public `frame`
    /// functions, stamping both steps.
    fn send(&mut self, id: u64, series: &Matrix) -> Result<Stamp, String> {
        let start = Instant::now();
        let req = Request {
            request_id: id,
            digest_pin: 0,
            series: series.clone(),
        };
        encode_request(&req, &mut self.frame);
        let encoded = Instant::now();
        // `encode_request` emits the length prefix too; `write_frame`
        // re-emits it from the body length.
        write_frame(&mut self.writer, &self.frame[4..]).map_err(|e| format!("send failed: {e}"))?;
        Ok(Stamp {
            start,
            encoded,
            sent: Instant::now(),
        })
    }
}

/// Read half of a client connection.
struct Receiver {
    reader: TcpStream,
    buf: Vec<u8>,
}

impl Receiver {
    /// Reads and decodes one response; also returns when its frame had
    /// been read (decoding starts there).
    fn recv(&mut self) -> Result<(Response, Instant), String> {
        let body = read_frame(
            &mut self.reader,
            &mut self.buf,
            dfr_server::DEFAULT_MAX_BODY,
        )
        .map_err(|e| format!("receive failed: {e}"))?
        .ok_or("connection closed before the response")?;
        let read = Instant::now();
        let resp = decode_response(body).map_err(|e| e.to_string())?;
        Ok((resp, read))
    }
}

fn connect(addr: SocketAddr) -> Result<(Sender, Receiver), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((
        Sender {
            writer,
            frame: Vec::new(),
        },
        Receiver {
            reader: stream,
            buf: Vec::new(),
        },
    ))
}

/// The oracle for one Ok reply.
fn check(resp: &Response, want: &Expected) -> Result<(), String> {
    if resp.status != Status::Ok {
        return Err(format!(
            "request {} answered {:?}",
            resp.request_id, resp.status
        ));
    }
    let bits: Vec<u64> = resp.probabilities.iter().map(|p| p.to_bits()).collect();
    if resp.class != want.class || resp.digest != want.digest || bits != want.bits {
        return Err(format!(
            "request {} differs from the in-process ServeSession",
            resp.request_id
        ));
    }
    Ok(())
}

/// What one measured window observed. A transport failure ends the run
/// with an error instead: the workloads are chosen so that none occurs.
struct Window {
    rtt_ms: Vec<f64>,
    ledger: Ledger,
    /// Ok replies per one-second slice.
    slices: Slices,
    /// Median Ok replies per second, once the window has closed.
    throughput: f64,
}

impl Window {
    fn new(start: Instant) -> Self {
        Window {
            rtt_ms: Vec::new(),
            ledger: Ledger::default(),
            slices: Slices::new(start),
            throughput: 0.0,
        }
    }

    /// Accounts one reply; a non-Ok status is a failure (or a refusal, for
    /// `Busy`) and an infinite latency.
    fn reply(
        &mut self,
        resp: &Response,
        want: &Expected,
        sent: Instant,
        done: Instant,
    ) -> Result<(), String> {
        self.ledger.attempted += 1;
        match resp.status {
            Status::Ok => {
                check(resp, want)?;
                self.ledger.ok += 1;
                self.rtt_ms.push((done - sent).as_secs_f64() * 1e3);
                self.slices.add(done, 1.0);
            }
            Status::Busy => {
                self.ledger.refused += 1;
                self.rtt_ms.push(f64::INFINITY);
            }
            _ => {
                self.ledger.failed += 1;
                self.rtt_ms.push(f64::INFINITY);
            }
        }
        Ok(())
    }
}

/// Records a request's client spans: the round trip as `client.wait`
/// (its self time is the wait for the server) with encode, send and
/// decode as children.
fn record(tr: &mut Tracer, id: u64, stamp: &Stamp, read: Instant, done: Instant) {
    let span = |tr: &Tracer, name, a, b, parent| Span {
        name,
        start: tr.ns(a),
        end: tr.ns(b),
        parent,
        request: Some(id),
    };
    let root = span(tr, "client.wait", stamp.start, done, None);
    let root = tr.record(root);
    for (name, a, b) in [
        ("client.encode", stamp.start, stamp.encoded),
        ("client.send", stamp.encoded, stamp.sent),
        ("client.decode", read, done),
    ] {
        let child = span(tr, name, a, b, root);
        tr.record(child);
    }
}

/// One request in flight: send, wait for the reply, repeat.
fn closed_loop(
    (mut tx, mut rx): (Sender, Receiver),
    series: &[Matrix],
    expected: &[Expected],
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Window, String> {
    let start = Instant::now();
    let mut w = Window::new(start);
    let mut id = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        id += 1;
        let i = (id as usize) % series.len();
        let stamp = tx.send(id, &series[i])?;
        let (resp, read) = rx.recv()?;
        let done = Instant::now();
        w.reply(&resp, &expected[i], stamp.start, done)?;
        record(tr, id, &stamp, read, done);
    }
    w.throughput = w.slices.rate(Instant::now());
    Ok(w)
}

/// Pipelined load: a sender thread keeps `window` requests in flight, and
/// this thread checks each reply and hands a send credit back for it.
fn pipelined(
    (mut tx, mut rx): (Sender, Receiver),
    series: &[Matrix],
    expected: &[Expected],
    seconds: f64,
    window: usize,
    tr: &mut Tracer,
) -> Result<Window, String> {
    let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        credit_tx
            .send(())
            .expect("credit channel holds a full window");
    }
    let (meta_tx, meta_rx) = mpsc::channel::<(u64, usize, Stamp)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<(), String> {
            let mut id = 0u64;
            while start.elapsed().as_secs_f64() < seconds && credit_rx.recv().is_ok() {
                id += 1;
                let i = (id as usize) % series.len();
                let stamp = tx.send(id, &series[i])?;
                if meta_tx.send((id, i, stamp)).is_err() {
                    break; // the receiver stopped
                }
            }
            Ok(())
        });

        let mut w = Window::new(start);
        let mut pending: HashMap<u64, (usize, Stamp)> = HashMap::new();
        let received = loop {
            // With nothing in flight, wait for the next send or for the
            // sender to finish.
            if pending.is_empty() {
                match meta_rx.recv() {
                    Ok((id, i, s)) => pending.insert(id, (i, s)),
                    Err(_) => break Ok(()),
                };
            }
            let (resp, read) = match rx.recv() {
                Ok(r) => r,
                Err(e) => break Err(e),
            };
            let done = Instant::now();
            // A reply can overtake the sender's note about its request.
            while !pending.contains_key(&resp.request_id) {
                match meta_rx.recv() {
                    Ok((id, i, s)) => pending.insert(id, (i, s)),
                    Err(_) => break,
                };
            }
            let Some((i, stamp)) = pending.remove(&resp.request_id) else {
                break Err(format!("reply to unknown request {}", resp.request_id));
            };
            if let Err(e) = w.reply(&resp, &expected[i], stamp.start, done) {
                break Err(e);
            }
            record(tr, resp.request_id, &stamp, read, done);
            let _ = credit_tx.send(());
        };
        w.throughput = w.slices.rate(Instant::now());
        // Unblock and join the sender before judging the window.
        drop(credit_tx);
        drop(meta_rx);
        let sent = sender.join().expect("sender thread panicked");
        received.and(sent).map(|()| w)
    })
}

fn measure_window(
    load: Load,
    fixture: &Fixture,
    series: &[Matrix],
    expected: &[Expected],
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Window, String> {
    let conn = connect(fixture.server.local_addr())?;
    match load {
        Load::Light => closed_loop(conn, series, expected, seconds, tr),
        Load::Heavy => {
            let window = fixture.config.max_batch;
            pipelined(conn, series, expected, seconds, window, tr)
        }
    }
}

fn failures(s: &StatsSnapshot) -> u64 {
    s.predict_failures + s.quarantined + s.bad_input + s.malformed + s.unknown_digest
}

pub fn run(load: Load, spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let series = request_pool(spec.seed);
    let mut fixture = None;
    let mut expected = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Stop the previous repetition's server before timing the next.
        drop(fixture.take());
        let t0 = Instant::now();
        let (f, e) = set_up(load, spec.seed, &series)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        fixture = Some(f);
        expected = e;
    }
    let mut fixture = fixture.expect("at least one set-up");
    let (untraced, traced) = spec.windows();

    let before = fixture.server.stats();
    let w = measure_window(
        load,
        &fixture,
        &series,
        &expected,
        untraced,
        &mut Tracer::new(false, Instant::now()),
    )?;
    let after = fixture.server.stats();
    out.peak_rss_mb = peak_rss_mb()?;
    let fill =
        (after.served - before.served) as f64 / (after.batches - before.batches).max(1) as f64;
    out.notes.push(format!(
        "oracle: {} replies bitwise equal to the in-process ServeSession",
        w.ledger.ok
    ));
    out.notes.push(format!(
        "server: batches={} mean_fill={fill:.2} busy={} failed={} deadline_us={} max_batch={}",
        after.batches - before.batches,
        after.rejected_busy - before.rejected_busy,
        failures(&after) - failures(&before),
        fixture.config.batch_deadline.as_micros(),
        fixture.config.max_batch
    ));
    out.op_ms = w.rtt_ms;
    out.throughput = w.throughput;
    out.ledger = w.ledger;

    if spec.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let before = fixture.server.stats();
        let tw = measure_window(load, &fixture, &series, &expected, traced, &mut tracer)?;
        let after = fixture.server.stats();
        let mut layers = Layers::default();
        layers.absorb(&tracer);
        let batches = (after.batches - before.batches) as f64;
        let fill = (after.served - before.served) as f64 / batches.max(1.0);
        layers.set("server.batches", batches);
        layers.set("server.batch_fill", fill);
        layers.set(
            "server.busy",
            (after.rejected_busy - before.rejected_busy) as f64,
        );
        layers.set(
            "server.failed",
            (failures(&after) - failures(&before)) as f64,
        );

        // `predict_batch` replayed in process at the observed fill.
        let fill_n = (fill.round() as usize).clamp(1, fixture.config.max_batch);
        let mut session = ServeSession::builder(fixture.frozen.clone())
            .max_batch(fixture.config.max_batch)
            .build();
        let mut replay = Tracer::new(true, Instant::now());
        let t0 = Instant::now();
        let mut k = 0;
        while k == 0 || t0.elapsed().as_secs_f64() < REPLAY_SECONDS {
            let lo = (k * fill_n) % (series.len() - fill_n + 1);
            let batch = &series[lo..lo + fill_n];
            let id = replay.open("serve.batch");
            let result = session.predict_batch(batch).map_err(|e| e.to_string())?;
            replay.close(id);
            for (j, want) in expected[lo..lo + fill_n].iter().enumerate() {
                let bits: Vec<u64> = result
                    .probabilities_of(j)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                if result.predictions()[j] as u32 != want.class || bits != want.bits {
                    return Err("in-process batch replay differs from the oracle".into());
                }
            }
            k += 1;
        }
        layers.absorb(&replay);
        let batch_us = layers.mean_self_ns("serve.batch") / 1e3;
        let per_request_us = batch_us / fill_n as f64;
        layers.set("serve.us_per_request", per_request_us);
        if load == Load::Light {
            // Derived by subtraction: what the client and the compute do
            // not explain once the coalesce deadline is taken out.
            let rtt_us: Vec<f64> = tw.rtt_ms.iter().map(|ms| ms * 1e3).collect();
            let client_us: f64 = ["client.encode", "client.send", "client.decode"]
                .iter()
                .map(|n| layers.mean_self_ns(n) / 1e3)
                .sum();
            let deadline_us = fixture.config.batch_deadline.as_secs_f64() * 1e6;
            layers.set(
                "server.unattributed_us",
                median(&rtt_us) - client_us - per_request_us - deadline_us,
            );
        }
        let overhead = (out.throughput / tw.throughput - 1.0) * 100.0;
        layers.set("trace.overhead_pct", overhead);
        let name = match load {
            Load::Light => "serve_light",
            Load::Heavy => "serve_heavy",
        };
        crate::write_spans(name, spec.seed, &[&tracer, &replay])?;
        out.layers = layers;
    }
    fixture.server.shutdown();
    Ok(out)
}
