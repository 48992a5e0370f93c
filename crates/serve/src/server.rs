//! The campaign daemon: accept loop, per-connection readers, a shared
//! worker pool, and one shared artifact store.
//!
//! Thread shape (all plain `std::thread`, no async runtime):
//!
//! - one **accept** thread polling the listener (non-blocking, so a
//!   drain request is noticed within ~25 ms);
//! - one **reader** thread per connection, decoding frames and feeding
//!   the admission queue;
//! - `workers` **worker** threads popping the queue and executing jobs;
//! - one **ticker** thread per running job, snapshotting the job's
//!   registry every `progress_interval` and streaming `Progress`
//!   frames (it also enforces the per-job timeout).
//!
//! Every job opens its own [`ArtifactStore`] handle on the shared root
//! and gets a fresh [`MetricsRegistry`], so per-job progress deltas and
//! per-job hit/miss counts never interleave across concurrent jobs —
//! while the *disk* is shared, which is what makes client B's campaign
//! warm after client A ran the same configuration cold.
//!
//! Graceful drain ([`ServerHandle::drain`]): stop admitting (`Busy`),
//! close the queue, let workers finish everything queued and in flight,
//! then join. A result that had begun streaming is always delivered.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{Frame, JobSpec, PROTOCOL_SCHEMA};
use crate::queue::{AdmissionQueue, QueuedJob};
use anacin_core::prelude::*;
use anacin_core::report::to_json;
use anacin_mpisim::explore::ExploreConfig;
use anacin_obs::{CancelToken, MetricsDelta, MetricsRegistry, MetricsReport};
use anacin_store::{ArtifactStore, Fingerprint};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How a daemon behaves: where the shared store lives, how much it
/// runs at once, and when it pushes back.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the shared artifact store all jobs read and publish to.
    pub store_dir: PathBuf,
    /// Worker threads executing jobs. `0` is legal (jobs queue but
    /// never run) and exists for backpressure tests.
    pub workers: usize,
    /// Total queued-job capacity; beyond it submits get `Busy`.
    pub queue_capacity: usize,
    /// Cancel a job cooperatively once it has run this long.
    pub job_timeout: Option<Duration>,
    /// How often a running job streams a `Progress` frame.
    pub progress_interval: Duration,
    /// Backoff suggested in `Busy` frames.
    pub retry_after_ms: u64,
}

impl ServerConfig {
    /// Defaults: workers from available parallelism (capped at 4),
    /// capacity 64, no timeout, 250 ms progress, 250 ms retry hint.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            store_dir: store_dir.into(),
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            queue_capacity: 64,
            job_timeout: None,
            progress_interval: Duration::from_millis(250),
            retry_after_ms: 250,
        }
    }

    /// Set the worker-thread count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the queued-job capacity.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Set the per-job timeout.
    pub fn job_timeout(mut self, t: Duration) -> Self {
        self.job_timeout = Some(t);
        self
    }

    /// Set the progress-frame interval.
    pub fn progress_interval(mut self, t: Duration) -> Self {
        self.progress_interval = t;
        self
    }

    /// Set the backoff suggested in `Busy` frames.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

/// A connected byte stream, Unix-domain or TCP.
pub(crate) enum Stream {
    /// Unix-domain socket (the default transport).
    Unix(UnixStream),
    /// TCP socket (`--listen`).
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn connect_unix(path: &Path) -> io::Result<Stream> {
        UnixStream::connect(path).map(Stream::Unix)
    }

    pub(crate) fn connect_tcp(addr: &str) -> io::Result<Stream> {
        TcpStream::connect(addr).map(Stream::Tcp)
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        let stream = match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s))?,
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s))?,
        };
        // The listener polls non-blocking; accepted connections must
        // block (readers park in read_frame between requests).
        match &stream {
            Stream::Unix(s) => s.set_nonblocking(false)?,
            Stream::Tcp(s) => s.set_nonblocking(false)?,
        }
        Ok(stream)
    }
}

/// The half-open frame writer of one connection, shared between its
/// reader thread (Busy/Error replies) and whichever workers run its
/// jobs (Progress/Result frames). The mutex serialises whole frames,
/// so concurrent jobs of one client never interleave bytes.
type SharedWriter = Arc<Mutex<Stream>>;

fn send(writer: &SharedWriter, frame: &Frame) -> bool {
    write_frame(&mut *writer.lock().unwrap(), frame).is_ok()
}

struct Shared {
    cfg: ServerConfig,
    queue: AdmissionQueue,
    /// Server-level counters and histograms (`serve/*`, queue wait).
    reg: MetricsRegistry,
    draining: AtomicBool,
    /// First client to run each campaign fingerprint — later warm hits
    /// by a *different* client count as cross-client sharing.
    producers: Mutex<HashMap<Fingerprint, u64>>,
    /// Cancellation tokens of admitted jobs, queued or running, keyed
    /// (client, job id). A token is registered before its job is queued
    /// and removed before the job's terminal frame is sent.
    jobs: Mutex<HashMap<(u64, u64), CancelToken>>,
    /// Live connection writers, keyed by client id.
    writers: Mutex<HashMap<u64, SharedWriter>>,
    next_client: AtomicU64,
}

/// A bound, not-yet-running daemon. [`Server::spawn`] starts the
/// threads and yields the [`ServerHandle`] used to drain and join.
pub struct Server {
    listener: Listener,
    cfg: ServerConfig,
    addr: Option<SocketAddr>,
}

impl Server {
    /// Bind a Unix-domain socket at `path` (a stale socket file from a
    /// previous daemon is removed first).
    pub fn bind_unix(path: impl AsRef<Path>, cfg: ServerConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener: Listener::Unix(listener, path),
            cfg,
            addr: None,
        })
    }

    /// Bind a TCP listener, e.g. `127.0.0.1:0` for an ephemeral port
    /// (read it back with [`Server::local_addr`]).
    pub fn bind_tcp(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener: Listener::Tcp(listener),
            cfg,
            addr: Some(addr),
        })
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Start the accept loop and worker pool.
    pub fn spawn(self) -> ServerHandle {
        let Server {
            listener,
            cfg,
            addr,
        } = self;
        let reg = MetricsRegistry::new();
        // Touch every serve counter so a drained daemon's report lists
        // the full set even when some never fired.
        for name in [
            "serve/clients",
            "serve/jobs_admitted",
            "serve/jobs_rejected",
            "serve/jobs_completed",
            "serve/jobs_failed",
            "serve/jobs_cancelled",
            "serve/store_hits",
            "serve/store_misses",
            "serve/store_puts",
            "serve/cross_client_hits",
        ] {
            reg.counter(name);
        }
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            reg,
            draining: AtomicBool::new(false),
            producers: Mutex::new(HashMap::new()),
            jobs: Mutex::new(HashMap::new()),
            writers: Mutex::new(HashMap::new()),
            next_client: AtomicU64::new(1),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept = {
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&sh, listener))
                .expect("spawn accept thread")
        };
        ServerHandle {
            shared,
            accept: Some(accept),
            workers,
            addr,
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::join`] for a graceful drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// A point-in-time snapshot of the server registry (`serve/*`
    /// counters, queue-wait and execution histograms).
    pub fn metrics(&self) -> MetricsReport {
        self.shared.reg.report()
    }

    /// Begin a graceful drain: refuse new submits with `Busy`, close
    /// the queue. Everything already queued or running still finishes
    /// and delivers its `Result`.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue.close();
    }

    /// Drain and wait for the accept loop and every worker to finish,
    /// returning the final metrics snapshot.
    pub fn join(mut self) -> MetricsReport {
        self.drain();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.reg.report()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    while !shared.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(stream) => {
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                let sh = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("serve-client-{client}"))
                    .spawn(move || handle_client(&sh, stream, client));
                if spawned.is_err() {
                    // Out of threads: the connection drops; the client
                    // sees EOF and can retry.
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
            }
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

fn handle_client(shared: &Arc<Shared>, stream: Stream, client: u64) {
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    // The first frame must be Hello; answer with the negotiated schema
    // (the minimum both sides speak).
    match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { schema, .. })) => {
            let negotiated = schema.min(PROTOCOL_SCHEMA);
            let hello = Frame::Hello {
                schema: negotiated,
                peer: "anacin-serve".into(),
            };
            if !send(&writer, &hello) {
                return;
            }
        }
        _ => {
            send(
                &writer,
                &Frame::Error {
                    id: 0,
                    message: "protocol error: expected Hello as the first frame".into(),
                },
            );
            return;
        }
    }
    shared.reg.counter("serve/clients").inc();
    shared
        .writers
        .lock()
        .unwrap()
        .insert(client, Arc::clone(&writer));
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Submit { id, job })) => {
                let refused =
                    shared.draining.load(Ordering::Acquire) || !admit(shared, client, id, job);
                if refused {
                    shared.reg.counter("serve/jobs_rejected").inc();
                    send(
                        &writer,
                        &Frame::Busy {
                            id,
                            retry_after_ms: shared.cfg.retry_after_ms,
                        },
                    );
                } else {
                    shared.reg.counter("serve/jobs_admitted").inc();
                }
            }
            Ok(Some(Frame::Cancel { id })) => {
                // No token: the job already answered (or was never
                // admitted), and one terminal frame per job is all a
                // client ever gets.
                let token = shared.jobs.lock().unwrap().get(&(client, id)).cloned();
                if let Some(token) = token {
                    if shared.queue.remove_job(client, id) {
                        // Never started: answer immediately.
                        shared.jobs.lock().unwrap().remove(&(client, id));
                        shared.reg.counter("serve/jobs_cancelled").inc();
                        send(
                            &writer,
                            &Frame::Error {
                                id,
                                message: "cancelled".into(),
                            },
                        );
                    } else {
                        // Claimed by a worker: fire the token; the worker
                        // answers once the in-flight run finishes.
                        token.cancel();
                    }
                }
            }
            Ok(Some(other)) => {
                send(
                    &writer,
                    &Frame::Error {
                        id: other.job_id().unwrap_or(0),
                        message: "protocol error: unexpected frame from client".into(),
                    },
                );
            }
            Ok(None) => break,
            Err(FrameError::Decode(e)) => {
                send(
                    &writer,
                    &Frame::Error {
                        id: 0,
                        message: format!("protocol error: {e}"),
                    },
                );
                break;
            }
            Err(_) => break,
        }
    }
    // Disconnect: drop this client's queued jobs and cancel its running
    // ones — nobody is left to receive the results.
    shared.writers.lock().unwrap().remove(&client);
    let dropped = shared.queue.remove_client(client);
    if !dropped.is_empty() {
        shared
            .reg
            .counter("serve/jobs_cancelled")
            .add(dropped.len() as u64);
    }
    let mut jobs = shared.jobs.lock().unwrap();
    for job in &dropped {
        jobs.remove(&(client, job.id));
    }
    for (key, token) in jobs.iter() {
        if key.0 == client {
            token.cancel();
        }
    }
}

/// Admit a submitted job: register its cancel token, then queue it.
/// Registering first means a `Cancel` read right after the `Submit`
/// always finds the job, however fast a worker claims it. False (and
/// nothing registered) when the queue refuses.
fn admit(shared: &Shared, client: u64, id: u64, spec: JobSpec) -> bool {
    let cancel = CancelToken::new();
    shared
        .jobs
        .lock()
        .unwrap()
        .insert((client, id), cancel.clone());
    let job = QueuedJob {
        client,
        id,
        spec,
        enqueued: Instant::now(),
        cancel,
    };
    if shared.queue.push(job).is_ok() {
        return true;
    }
    shared.jobs.lock().unwrap().remove(&(client, id));
    false
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared
            .reg
            .record_span("serve/queue_wait", job.enqueued.elapsed().as_nanos() as u64);
        execute_job(shared, job);
    }
}

enum JobOutcome {
    Done {
        payload: String,
        hits: u64,
        misses: u64,
        puts: u64,
    },
    Cancelled,
    Failed(String),
}

fn execute_job(shared: &Arc<Shared>, job: QueuedJob) {
    let QueuedJob {
        client,
        id,
        spec,
        cancel,
        ..
    } = job;
    let writer = shared.writers.lock().unwrap().get(&client).cloned();
    // A fresh registry per job: progress deltas and store counts are
    // exactly this job's, even with many jobs in flight.
    let reg = MetricsRegistry::new();
    let start = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let timed_out = Arc::new(AtomicBool::new(false));
    let ticker = spawn_ticker(TickerSetup {
        writer: writer.clone(),
        reg: reg.clone(),
        id,
        total_runs: spec.total_runs(),
        cancel: cancel.clone(),
        stop: Arc::clone(&stop),
        timed_out: Arc::clone(&timed_out),
        job_timeout: shared.cfg.job_timeout,
        interval: shared.cfg.progress_interval,
        start,
    });
    let outcome = run_spec(shared, &spec, &reg, &cancel);
    stop.store(true, Ordering::Release);
    let _ = ticker.join();
    shared.jobs.lock().unwrap().remove(&(client, id));
    let elapsed = start.elapsed();
    shared
        .reg
        .record_span("serve/job_exec", elapsed.as_nanos() as u64);
    let response = match outcome {
        JobOutcome::Done {
            payload,
            hits,
            misses,
            puts,
        } => {
            shared.reg.counter("serve/jobs_completed").inc();
            shared.reg.counter("serve/store_hits").add(hits);
            shared.reg.counter("serve/store_misses").add(misses);
            shared.reg.counter("serve/store_puts").add(puts);
            attribute_sharing(shared, &spec, client, hits);
            Frame::Result {
                id,
                payload,
                elapsed_ms: elapsed.as_millis() as u64,
                store_hits: hits,
                store_misses: misses,
                store_puts: puts,
            }
        }
        JobOutcome::Cancelled => {
            shared.reg.counter("serve/jobs_cancelled").inc();
            let message = if timed_out.load(Ordering::Acquire) {
                format!(
                    "job timed out after {} ms",
                    shared
                        .cfg
                        .job_timeout
                        .map(|t| t.as_millis() as u64)
                        .unwrap_or(0)
                )
            } else {
                "cancelled".to_string()
            };
            Frame::Error { id, message }
        }
        JobOutcome::Failed(message) => {
            shared.reg.counter("serve/jobs_failed").inc();
            Frame::Error { id, message }
        }
    };
    if let Some(w) = &writer {
        send(w, &response);
    }
}

/// Credit warm hits to cross-client sharing when a *different* client
/// first produced this campaign's artifacts.
fn attribute_sharing(shared: &Shared, spec: &JobSpec, client: u64, hits: u64) {
    let fp = campaign_fingerprint(spec.config());
    let mut producers = shared.producers.lock().unwrap();
    match producers.get(&fp) {
        Some(&producer) => {
            if producer != client && hits > 0 {
                shared.reg.counter("serve/cross_client_hits").add(hits);
            }
        }
        None => {
            producers.insert(fp, client);
        }
    }
}

/// Run the job body. Every job opens its own handle on the shared store
/// root, mirrors store activity into the job registry, and runs under one
/// [`RunCtx`] carrying that registry, the job's cancel token and the store.
fn run_spec(
    shared: &Shared,
    spec: &JobSpec,
    reg: &MetricsRegistry,
    cancel: &CancelToken,
) -> JobOutcome {
    let store = match ArtifactStore::open(&shared.cfg.store_dir) {
        Ok(s) => s,
        Err(e) => return JobOutcome::Failed(format!("store unavailable: {e}")),
    };
    store.attach_metrics(reg);
    // An append job differs from a campaign only in its kernel stage
    // (stored-prefix reuse), and append-then-read is byte-identical to a
    // cold recompute, so its result payload is too.
    let policy = match spec {
        JobSpec::Append { .. } => StorePolicy::Append(&store),
        _ => StorePolicy::Reuse(&store),
    };
    let ctx = RunCtx {
        metrics: Some(reg),
        cancel: Some(cancel),
        store: policy,
        ..RunCtx::default()
    };
    match job_payload(spec, &ctx) {
        Ok(payload) => {
            let activity = store.activity();
            JobOutcome::Done {
                payload,
                hits: activity.hits,
                misses: activity.misses,
                puts: activity.puts,
            }
        }
        Err(outcome) => outcome,
    }
}

impl From<Interrupted<IncrementalError>> for JobOutcome {
    fn from(e: Interrupted<IncrementalError>) -> Self {
        match e {
            Interrupted::Cancelled { .. } => JobOutcome::Cancelled,
            Interrupted::Failed(e) => JobOutcome::Failed(e.to_string()),
        }
    }
}

/// The result payload of one job: byte-identical to the local command's
/// stdout for the same job.
fn job_payload(spec: &JobSpec, ctx: &RunCtx) -> Result<String, JobOutcome> {
    let json_line = |json: Result<String, serde_json::Error>| match json {
        Ok(json) => Ok(format!("{json}\n")),
        Err(e) => Err(JobOutcome::Failed(e.to_string())),
    };
    match spec {
        JobSpec::Campaign { config } | JobSpec::Append { config } => {
            let result = campaign(config, ctx)?;
            json_line(measurement_json(config, &result.matrix))
        }
        JobSpec::Sweep { kind, config } => {
            // The same default point sets as `anacin sweep --kind`.
            let axis = SweepAxis::named(kind, config).map_err(JobOutcome::Failed)?;
            Ok(sweep_text(&sweep(config, &axis, ctx)?))
        }
        JobSpec::Explore {
            config,
            budget,
            brute_force,
        } => {
            let mut xcfg = ExploreConfig::with_budget(*budget);
            if *brute_force {
                xcfg = xcfg.brute_force();
            }
            let result = campaign(config, ctx)?;
            let xr = explore_campaign(config, &xcfg, ctx)?;
            let coverage = xr.coverage_of(&result);
            let m = NdMeasurement::from_campaign(campaign_label(config), &result);
            json_line(to_json(&RunWithExploreReport {
                measurement: MeasurementReport::from(&m),
                explore: ExploreSection {
                    config: xcfg,
                    stats: xr.report.stats,
                    coverage,
                },
            }))
        }
    }
}

struct TickerSetup {
    writer: Option<SharedWriter>,
    reg: MetricsRegistry,
    id: u64,
    total_runs: u64,
    cancel: CancelToken,
    stop: Arc<AtomicBool>,
    timed_out: Arc<AtomicBool>,
    job_timeout: Option<Duration>,
    interval: Duration,
    start: Instant,
}

/// Stream `Progress` frames from registry deltas while the job runs,
/// and enforce the per-job timeout. Wakes every few milliseconds (so a
/// short timeout fires promptly) but emits at `interval`.
fn spawn_ticker(setup: TickerSetup) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name(format!("serve-progress-{}", setup.id))
        .spawn(move || {
            let TickerSetup {
                writer,
                reg,
                id,
                total_runs,
                cancel,
                stop,
                timed_out,
                job_timeout,
                interval,
                start,
            } = setup;
            let mut prev = reg.report();
            let mut last_emit = Instant::now();
            while !stop.load(Ordering::Acquire) {
                if let Some(limit) = job_timeout {
                    if start.elapsed() > limit && !cancel.is_cancelled() {
                        timed_out.store(true, Ordering::Release);
                        cancel.cancel();
                    }
                }
                if last_emit.elapsed() >= interval {
                    let now = reg.report();
                    let delta = now.delta_since(&prev);
                    let frame = progress_frame(
                        id,
                        total_runs,
                        &now,
                        &delta,
                        last_emit.elapsed(),
                        start.elapsed(),
                    );
                    prev = now;
                    last_emit = Instant::now();
                    if let Some(w) = &writer {
                        if !send(w, &frame) {
                            // The client is unreachable; stop burning
                            // compute on a result nobody will read.
                            cancel.cancel();
                            break;
                        }
                    }
                }
                thread::sleep(Duration::from_millis(5));
            }
        })
        .expect("spawn progress ticker")
}

/// One `Progress` frame from a cumulative report plus the interval
/// delta — the same inputs the local `--progress` line renders from.
fn progress_frame(
    id: u64,
    total_runs: u64,
    report: &MetricsReport,
    delta: &MetricsDelta,
    interval: Duration,
    elapsed: Duration,
) -> Frame {
    let done_runs = report.counter("sim/runs").unwrap_or(0).min(total_runs);
    let events = report.counter("sim/events").unwrap_or(0);
    let interval_events = delta
        .counters
        .iter()
        .find(|c| c.name == "sim/events")
        .map(|c| c.value)
        .unwrap_or(0);
    let secs = interval.as_secs_f64();
    let event_rate = if secs > 0.0 {
        interval_events as f64 / secs
    } else {
        0.0
    };
    let hottest = delta
        .spans
        .iter()
        .max_by_key(|s| s.total_ns)
        .map(|s| s.name.clone())
        .unwrap_or_default();
    let eta_ms = (done_runs > 0 && done_runs < total_runs).then(|| {
        let remaining = elapsed.as_secs_f64() * (total_runs - done_runs) as f64 / done_runs as f64;
        (remaining * 1000.0) as u64
    });
    Frame::Progress {
        id,
        done_runs,
        total_runs,
        events,
        event_rate,
        hottest,
        eta_ms,
    }
}
