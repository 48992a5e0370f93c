//! Structured execution tracing: a bounded, non-blocking event ring plus
//! Chrome-trace and flamegraph exporters.
//!
//! The metrics registry ([`crate::MetricsRegistry`]) answers *how much* —
//! totals and span statistics. This module answers *when* and *where*:
//! it records individual events on a timeline, in two classes:
//!
//! * **Simulated-time MPI events** ([`SimEvent`]) — one per traced MPI
//!   call (`init`/`send`/`recv`/`finalize`), per rank, stamped with the
//!   *simulated* clock and tagged with the `(run, seed)` of the campaign
//!   run that produced it. Matched sends and receives share a
//!   [`message_id`], so viewers can draw inter-rank message arrows.
//! * **Wall-clock pipeline spans** ([`SpanMark`]) — begin/end marks
//!   emitted by [`crate::Span`] when a tracer is attached to the registry,
//!   stamped with the wall clock (nanoseconds since the tracer's epoch)
//!   and the recording OS thread. The span *path* already carries the
//!   nesting the thread-local span stack resolved (`campaign/simulate`),
//!   so the trace preserves the full stage tree.
//!
//! The ring is **bounded**: a fixed number of slots, claimed with one
//! atomic `fetch_add` and published with one uncontended `try_lock` per
//! record. Writers never block and never allocate beyond the record
//! itself; when the ring wraps, the *oldest* records are overwritten and
//! counted in [`Tracer::dropped`] — memory use is capped no matter how
//! long a campaign runs.
//!
//! Tracing is observability-only, like the rest of this crate: recording
//! reads finished state (the simulator emits its events *after* a run
//! completes, from the immutable trace) and therefore can never perturb
//! simulated time or the injection RNG. A traced run is bit-identical to
//! a plain run; `tests/tracing.rs` asserts this differentially.

use crate::sink::TraceSink;
use crate::MetricsReport;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity (records). At roughly 100 bytes per record this
/// bounds a tracer at ~25 MB.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Records per [`Tracer::pump`] drain batch: large enough to amortise the
/// drain lock, small enough to bound the copied chunk.
const DRAIN_BATCH: usize = 4096;

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A small dense identifier of the calling OS thread, stable for the
/// thread's lifetime (used as the Chrome-trace `tid` of wall-clock
/// tracks).
pub fn current_thread_id() -> u32 {
    THREAD_ID.with(|id| match id.get() {
        Some(v) => v,
        None => {
            let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            id.set(Some(v));
            v
        }
    })
}

/// The deterministic identity of one matched message: mixes
/// `(run, src, dst, channel seq)` into a 64-bit id shared by the send and
/// the receive of the message (a splitmix64-style finalizer per word).
pub fn message_id(run: u32, src: u32, dst: u32, seq: u64) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
    let mut h = 0x9e3779b97f4a7c15u64;
    for w in [run as u64, src as u64, dst as u64, seq] {
        h = mix(h ^ w).wrapping_add(0x9e3779b97f4a7c15);
    }
    h
}

/// What a simulated MPI event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// `MPI_Init`.
    Init,
    /// `MPI_Finalize`.
    Finalize,
    /// A message injection; `msg_id` is shared with the matching receive.
    Send {
        /// Matched-message identity ([`message_id`]).
        msg_id: u64,
    },
    /// A completed receive. Nonblocking receives complete at the wait
    /// that observes them, mirroring the simulator's trace placement.
    Recv {
        /// Matched-message identity ([`message_id`]).
        msg_id: u64,
        /// True when the receive was posted with a wildcard.
        wildcard: bool,
    },
}

impl SimEventKind {
    /// Short mnemonic, also the Chrome-trace event name.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            SimEventKind::Init => "init",
            SimEventKind::Finalize => "finalize",
            SimEventKind::Send { .. } => "send",
            SimEventKind::Recv { .. } => "recv",
        }
    }
}

/// One simulated-time MPI event.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// Campaign run index that produced the event.
    pub run: u32,
    /// Simulator seed of that run.
    pub seed: u64,
    /// Rank the event occurred on.
    pub rank: u32,
    /// Event index within the rank (program order).
    pub idx: u32,
    /// What happened.
    pub kind: SimEventKind,
    /// Simulated completion time, nanoseconds.
    pub t_ns: u64,
}

/// One wall-clock span boundary (begin or end).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanMark {
    /// Nesting-resolved span path, e.g. `campaign/simulate`.
    pub path: String,
    /// Recording OS thread ([`current_thread_id`]).
    pub thread: u32,
    /// Wall time, nanoseconds since the tracer's epoch.
    pub t_ns: u64,
}

/// One record in the ring.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A simulated-time MPI event.
    Sim(SimEvent),
    /// A pipeline span opened.
    SpanBegin(SpanMark),
    /// A pipeline span closed.
    SpanEnd(SpanMark),
}

/// A ring slot: the claim index plus the record written under it.
type Slot = Mutex<Option<(u64, TraceRecord)>>;

/// The chunked-drain consumer's position. The cursor is the next claim
/// index to hand out; `drained + lost == cursor` is the asserted
/// invariant — every index below the cursor was accounted exactly once.
#[derive(Debug, Default)]
struct DrainState {
    cursor: u64,
    drained: u64,
    lost: u64,
}

/// Accounting of the chunked drain consumer ([`Tracer::drain_stats`]).
///
/// `recorded == drained + lost + pending` always holds (the ISSUE-form
/// `recorded − dropped == drained + len` with `dropped = lost` and
/// `len = pending`): every record ever claimed is either delivered to
/// the consumer, lost (overwritten by wrap or never published), or still
/// ahead of the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Records delivered to the consumer so far.
    pub drained: u64,
    /// Records the consumer will never see: overwritten by wrap before
    /// the cursor reached them, or written off as unpublished by
    /// [`Tracer::drain_remaining`].
    pub lost: u64,
    /// Records still ahead of the cursor at stat time.
    pub pending: u64,
}

struct TracerInner {
    epoch: Instant,
    capacity: u64,
    /// Total records ever claimed (monotone; `head % capacity` is the
    /// next slot).
    head: AtomicU64,
    /// Records discarded because their slot was mid-write (wrap
    /// collision). Overwritten-by-wrap drops are `head - capacity`.
    collisions: AtomicU64,
    /// Each slot holds `(claim index, record)`; `try_lock` keeps the
    /// write path non-blocking (a contended slot drops the record
    /// instead of waiting).
    slots: Box<[Slot]>,
    /// Chunked-drain consumer position (one consumer; sinks and manual
    /// drains share it).
    drain: Mutex<DrainState>,
    /// The attached streaming sink, if any.
    sink: Mutex<Option<Box<dyn TraceSink>>>,
    /// Fast-path flag mirroring `sink.is_some()`, so `pump()` costs one
    /// relaxed load when no sink is attached.
    has_sink: AtomicBool,
    /// First sink I/O error, if any; reported by [`Tracer::finish_sink`].
    sink_error: Mutex<Option<String>>,
}

/// A bounded, thread-safe execution tracer. Cloning yields another handle
/// onto the same ring.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the default capacity ([`DEFAULT_CAPACITY`] records).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer holding at most `capacity` records (clamped to ≥ 16).
    /// When more are recorded, the oldest are overwritten and counted as
    /// dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        let slots = (0..capacity)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: capacity as u64,
                head: AtomicU64::new(0),
                collisions: AtomicU64::new(0),
                slots,
                drain: Mutex::new(DrainState::default()),
                sink: Mutex::new(None),
                has_sink: AtomicBool::new(false),
                sink_error: Mutex::new(None),
            }),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.inner.capacity as usize
    }

    /// Total records ever offered to the ring (recorded + dropped).
    pub fn recorded(&self) -> u64 {
        self.inner.head.load(Ordering::Relaxed)
    }

    /// Records no longer retrievable: overwritten by wrap-around
    /// (oldest-first) plus wrap collisions. [`TraceSnapshot::dropped`]
    /// is the exact count at snapshot time.
    pub fn dropped(&self) -> u64 {
        let head = self.inner.head.load(Ordering::Relaxed);
        head.saturating_sub(self.inner.capacity) + self.inner.collisions.load(Ordering::Relaxed)
    }

    /// Wall time in nanoseconds since this tracer was created (the epoch
    /// of every [`SpanMark`]).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record one event. Never blocks: the slot is claimed with one
    /// atomic add, and if the slot is still being written by a lapped
    /// writer the record is dropped (counted) instead of waiting.
    pub fn record(&self, record: TraceRecord) {
        let inner = &*self.inner;
        let idx = inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[(idx % inner.capacity) as usize];
        match slot.try_lock() {
            Ok(mut guard) => *guard = Some((idx, record)),
            Err(_) => {
                inner.collisions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Convenience: record a span-begin mark on the current thread at the
    /// current wall time.
    pub fn span_begin(&self, path: &str) {
        self.record(TraceRecord::SpanBegin(SpanMark {
            path: path.to_string(),
            thread: current_thread_id(),
            t_ns: self.now_ns(),
        }));
    }

    /// Convenience: record a span-end mark on the current thread at the
    /// current wall time.
    pub fn span_end(&self, path: &str) {
        self.record(TraceRecord::SpanEnd(SpanMark {
            path: path.to_string(),
            thread: current_thread_id(),
            t_ns: self.now_ns(),
        }));
    }

    /// Snapshot the ring into export-ready, deterministically ordered
    /// data. Intended to be called after the traced work has finished;
    /// records written concurrently with the snapshot may be counted as
    /// dropped.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Acquire);
        let start = head.saturating_sub(inner.capacity);
        let mut sim = Vec::new();
        let mut spans = Vec::new();
        let mut valid = 0u64;
        for idx in start..head {
            let slot = &inner.slots[(idx % inner.capacity) as usize];
            let rec = match slot.try_lock() {
                Ok(guard) => match &*guard {
                    Some((i, rec)) if *i == idx => Some(rec.clone()),
                    _ => None,
                },
                Err(_) => None,
            };
            if let Some(rec) = rec {
                valid += 1;
                match rec {
                    TraceRecord::Sim(e) => sim.push(e),
                    TraceRecord::SpanBegin(m) => spans.push((false, m)),
                    TraceRecord::SpanEnd(m) => spans.push((true, m)),
                }
            }
        }
        // Simulated events sort by (run, rank, idx): independent of which
        // worker thread simulated which run, so exports are reproducible.
        sim.sort_by_key(|e| (e.run, e.rank, e.idx));
        TraceSnapshot {
            sim,
            spans,
            recorded: head,
            dropped: head - valid,
        }
    }

    /// Drain up to `max` published records past the consumer cursor, in
    /// claim order. Stops early at the first slot still being written
    /// (concurrent drain is safe: the next call resumes there). Records
    /// the cursor was lapped past are counted as lost and skipped, so a
    /// slow consumer falls behind but never stalls the ring.
    ///
    /// Draining does not remove records from the ring — a later
    /// [`Tracer::snapshot`] still sees everything the ring retains.
    pub fn drain(&self, max: usize) -> Vec<TraceRecord> {
        self.drain_chunk(max, false)
    }

    /// Like [`Tracer::drain`], but treats unpublished slots as lost
    /// instead of stopping: a writer that collided on its slot never
    /// publishes it, which would stall a prefix-only drain forever. Call
    /// only once writers have quiesced (end of run).
    pub fn drain_remaining(&self, max: usize) -> Vec<TraceRecord> {
        self.drain_chunk(max, true)
    }

    fn drain_chunk(&self, max: usize, to_end: bool) -> Vec<TraceRecord> {
        let inner = &*self.inner;
        let mut st = inner.drain.lock().expect("drain state poisoned");
        let head = inner.head.load(Ordering::Acquire);
        let floor = head.saturating_sub(inner.capacity);
        let mut out = Vec::new();
        while st.cursor < head && out.len() < max {
            let i = st.cursor;
            if i < floor {
                // Lapped before the consumer got here: the slot now holds
                // (or will hold) a newer record.
                st.lost += 1;
                st.cursor += 1;
                continue;
            }
            let advanced = match inner.slots[(i % inner.capacity) as usize].try_lock() {
                Ok(guard) => match &*guard {
                    Some((ci, rec)) if *ci == i => {
                        out.push(rec.clone());
                        st.drained += 1;
                        true
                    }
                    Some((ci, _)) if *ci > i => {
                        // Overwritten between our head load and now.
                        st.lost += 1;
                        true
                    }
                    // Claimed but not yet published (writer between its
                    // fetch_add and its slot write, or a collision victim
                    // whose record will never arrive).
                    _ => {
                        if to_end {
                            st.lost += 1;
                        }
                        to_end
                    }
                },
                Err(_) => {
                    // Writer holds the slot lock right now.
                    if to_end {
                        st.lost += 1;
                    }
                    to_end
                }
            };
            if !advanced {
                break;
            }
            st.cursor += 1;
        }
        debug_assert_eq!(st.drained + st.lost, st.cursor, "drain cursor accounting");
        out
    }

    /// The chunked-drain consumer's accounting. The invariant
    /// `recorded == drained + lost + pending` holds at any quiescent
    /// point (and is what the drain property tests assert).
    pub fn drain_stats(&self) -> DrainStats {
        let st = self.inner.drain.lock().expect("drain state poisoned");
        let head = self.inner.head.load(Ordering::Acquire);
        DrainStats {
            drained: st.drained,
            lost: st.lost,
            pending: head - st.cursor,
        }
    }

    /// Attach a streaming sink: subsequent [`Tracer::pump`] calls drain
    /// the ring into it incrementally, and [`Tracer::finish_sink`] flushes
    /// the tail and finalises the output. One sink at a time; attaching
    /// replaces any previous one.
    pub fn attach_sink(&self, sink: Box<dyn TraceSink>) {
        *self.inner.sink.lock().expect("sink slot poisoned") = Some(sink);
        self.inner.has_sink.store(true, Ordering::Release);
    }

    /// Whether a sink is attached and healthy (one relaxed load — cheap
    /// enough for producers to call per record batch).
    pub fn has_sink(&self) -> bool {
        self.inner.has_sink.load(Ordering::Relaxed)
    }

    /// Drain every published record into the attached sink. Non-blocking
    /// for producers: with no sink it is one atomic load, and when
    /// another thread is already pumping it returns immediately (that
    /// thread will pick up the new records). Returns the records
    /// delivered by *this* call. Sink I/O errors disable further pumping
    /// and surface from [`Tracer::finish_sink`].
    pub fn pump(&self) -> u64 {
        if !self.has_sink() {
            return 0;
        }
        let Ok(mut guard) = self.inner.sink.try_lock() else {
            return 0;
        };
        let Some(sink) = guard.as_mut() else {
            return 0;
        };
        let mut delivered = 0u64;
        loop {
            let chunk = self.drain_chunk(DRAIN_BATCH, false);
            if chunk.is_empty() {
                break;
            }
            for rec in &chunk {
                if let Err(e) = sink.accept(rec) {
                    self.note_sink_error(&e);
                    return delivered;
                }
                delivered += 1;
            }
        }
        delivered
    }

    /// Drain the tail (including unpublished slots, written off as lost),
    /// finalise the sink, and detach it. Call once, after the traced work
    /// has finished. Returns the final drain accounting, or the first
    /// sink I/O error encountered anywhere in the stream.
    pub fn finish_sink(&self) -> Result<DrainStats, String> {
        let mut guard = self.inner.sink.lock().expect("sink slot poisoned");
        let Some(mut sink) = guard.take() else {
            return Err("no sink attached".to_string());
        };
        self.inner.has_sink.store(false, Ordering::Release);
        drop(guard);
        let failed =
            |e: &Mutex<Option<String>>| e.lock().expect("sink error slot poisoned").clone();
        loop {
            if let Some(e) = failed(&self.inner.sink_error) {
                return Err(e);
            }
            let chunk = self.drain_remaining(DRAIN_BATCH);
            if chunk.is_empty() {
                break;
            }
            for rec in &chunk {
                if let Err(e) = sink.accept(rec) {
                    return Err(format!("trace sink: {e}"));
                }
            }
        }
        let stats = self.drain_stats();
        sink.finish(&stats)
            .map_err(|e| format!("trace sink: {e}"))?;
        Ok(stats)
    }

    fn note_sink_error(&self, e: &std::io::Error) {
        let mut slot = self
            .inner
            .sink_error
            .lock()
            .expect("sink error slot poisoned");
        if slot.is_none() {
            *slot = Some(format!("trace sink: {e}"));
        }
        // Stop producers from pumping into a broken sink.
        self.inner.has_sink.store(false, Ordering::Release);
    }
}

/// A matched wall-clock span instance reconstructed from begin/end marks.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedSpan {
    /// Nesting-resolved span path.
    pub path: String,
    /// Recording OS thread.
    pub thread: u32,
    /// Begin wall time, nanoseconds since the tracer epoch.
    pub begin_ns: u64,
    /// End wall time, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Wall time spent in this span minus its nested child spans.
    pub self_ns: u64,
}

/// An export-ready snapshot of a [`Tracer`]'s ring.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Simulated MPI events, sorted by `(run, rank, idx)` — a
    /// deterministic order for a given program and seed set, independent
    /// of worker-thread scheduling.
    pub sim: Vec<SimEvent>,
    /// Span marks `(is_end, mark)` in ring (i.e. chronological-per-thread)
    /// order.
    pub spans: Vec<(bool, SpanMark)>,
    /// Total records offered to the ring.
    pub recorded: u64,
    /// Records lost to wrap-around or write collisions (oldest first).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Reconstruct well-nested span instances per thread. Begin marks
    /// without a matching end (or vice versa — e.g. the counterpart was
    /// overwritten in the ring) are discarded, so the result is always
    /// balanced.
    pub fn matched_spans(&self) -> Vec<MatchedSpan> {
        matched_spans_of(&self.spans)
    }

    /// Export as Chrome Trace Event Format JSON (loadable in Perfetto /
    /// `chrome://tracing`).
    ///
    /// * One process per campaign run (`pid = 1000 + run`, named with the
    ///   run's seed), one track per simulated rank, in **simulated time**.
    ///   Matched messages carry flow events (`ph: "s"`/`"f"`) sharing the
    ///   message id, so viewers draw inter-rank arrows.
    /// * With `include_wall`, one extra process (`pid = 1`) holding one
    ///   track per OS thread in **wall time**, with balanced `B`/`E` pairs
    ///   for every completed pipeline span.
    ///
    /// With `include_wall = false` the output is byte-deterministic for a
    /// given program and seed set (simulated time only).
    pub fn chrome_trace(&self, include_wall: bool) -> String {
        let mut events: Vec<String> = Vec::new();
        // Run/rank track metadata, in sorted order.
        let mut runs: Vec<(u32, u64)> = self.sim.iter().map(|e| (e.run, e.seed)).collect();
        runs.sort_unstable();
        runs.dedup();
        for &(run, seed) in &runs {
            events.push(chrome_run_meta(run, seed));
            let mut ranks: Vec<u32> = self
                .sim
                .iter()
                .filter(|e| e.run == run)
                .map(|e| e.rank)
                .collect();
            ranks.sort_unstable();
            ranks.dedup();
            for r in ranks {
                events.push(chrome_rank_meta(run, r));
            }
        }
        // Simulated events: near-zero-duration slices (so flows can bind
        // to them) plus flow start/finish events for matched messages.
        for e in &self.sim {
            events.push(chrome_sim_slice(e));
            if let Some(flow) = chrome_sim_flow(e) {
                events.push(flow);
            }
        }
        if include_wall {
            events.extend(chrome_wall_events(&self.spans));
        }
        let mut out = String::from(CHROME_HEADER);
        out.push_str(&events.join(",\n"));
        out.push_str(CHROME_FOOTER);
        out
    }

    /// Export the wall-clock span tree as folded stacks (one line per
    /// stack, `a;b;c <self-time-µs>`), the input format of inferno /
    /// `flamegraph.pl`. Self time excludes nested child spans, so the
    /// flamegraph does not double-count.
    pub fn folded_stacks(&self) -> String {
        folded_from_spans(&self.spans)
    }

    /// Merge the spans into per-path totals (used by overhead accounting
    /// and the ASCII summary).
    pub fn span_totals(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for s in self.matched_spans() {
            let dur = s.end_ns - s.begin_ns;
            match totals.iter_mut().find(|(k, _)| *k == s.path) {
                Some((_, v)) => *v += dur,
                None => totals.push((s.path.clone(), dur)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals
    }

    /// Sanity cross-check used by tests: per-run simulated event counts.
    pub fn sim_events_per_run(&self) -> Vec<(u32, usize)> {
        let mut counts: Vec<(u32, usize)> = Vec::new();
        for e in &self.sim {
            match counts.iter_mut().find(|(r, _)| *r == e.run) {
                Some((_, c)) => *c += 1,
                None => counts.push((e.run, 1)),
            }
        }
        counts.sort_unstable();
        counts
    }
}

/// Opening bytes of a Chrome Trace Event Format export. Event objects
/// follow one per line, comma-separated; [`CHROME_FOOTER`] closes the
/// document. The streaming sink and [`TraceSnapshot::chrome_trace`]
/// share these so their outputs are line-for-line comparable.
pub const CHROME_HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

/// Closing bytes of a Chrome Trace Event Format export.
pub const CHROME_FOOTER: &str = "\n]}\n";

/// Chrome-trace metadata naming the process of campaign run `run`
/// (`pid = 1000 + run`, labelled with the run's seed).
pub fn chrome_run_meta(run: u32, seed: u64) -> String {
    let pid = 1000 + run;
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"sim run {run} (seed {seed})\"}}}}"
    )
}

/// Chrome-trace metadata naming run `run`'s track for `rank`.
pub fn chrome_rank_meta(run: u32, rank: u32) -> String {
    let pid = 1000 + run;
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{rank},\
         \"args\":{{\"name\":\"rank {rank}\"}}}}"
    )
}

/// The near-zero-duration slice of one simulated MPI event (flows bind
/// to these).
pub fn chrome_sim_slice(e: &SimEvent) -> String {
    let pid = 1000 + e.run;
    let ts = micros(e.t_ns);
    let name = e.kind.mnemonic();
    let args = match e.kind {
        SimEventKind::Send { msg_id } => format!("{{\"msg\":{msg_id}}}"),
        SimEventKind::Recv { msg_id, wildcard } => {
            format!("{{\"msg\":{msg_id},\"wildcard\":{wildcard}}}")
        }
        _ => "{}".to_string(),
    };
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":{pid},\
         \"tid\":{},\"ts\":{ts},\"dur\":0.001,\"args\":{args}}}",
        e.rank
    )
}

/// The flow event of a matched message (`ph: "s"` at the send, `"f"` at
/// the receive); `None` for events that carry no message.
pub fn chrome_sim_flow(e: &SimEvent) -> Option<String> {
    let pid = 1000 + e.run;
    let ts = micros(e.t_ns);
    match e.kind {
        SimEventKind::Send { msg_id } => Some(format!(
            "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":{msg_id},\
             \"pid\":{pid},\"tid\":{},\"ts\":{ts}}}",
            e.rank
        )),
        SimEventKind::Recv { msg_id, .. } => Some(format!(
            "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{msg_id},\"pid\":{pid},\"tid\":{},\"ts\":{ts}}}",
            e.rank
        )),
        _ => None,
    }
}

/// Reconstruct well-nested span instances per thread from raw begin/end
/// marks in ring order. Begin marks without a matching end (or vice
/// versa — e.g. the counterpart was overwritten in the ring) are
/// discarded, so the result is always balanced.
pub fn matched_spans_of(spans: &[(bool, SpanMark)]) -> Vec<MatchedSpan> {
    // Per-thread stacks of (index into spans, begin time, child time).
    type OpenSpan = (usize, u64, u64);
    let mut stacks: Vec<(u32, Vec<OpenSpan>)> = Vec::new();
    let mut out = Vec::new();
    for (i, (is_end, m)) in spans.iter().enumerate() {
        let stack = match stacks.iter_mut().find(|(t, _)| *t == m.thread) {
            Some((_, s)) => s,
            None => {
                stacks.push((m.thread, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        if !*is_end {
            stack.push((i, m.t_ns, 0));
        } else if let Some(&(bi, begin_ns, child_ns)) = stack.last() {
            // Only a LIFO match closes a span; anything else means the
            // counterpart mark was lost, so the end mark is discarded.
            if let (false, bm) = &spans[bi] {
                if bm.path == m.path {
                    stack.pop();
                    let dur = m.t_ns.saturating_sub(begin_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                    out.push(MatchedSpan {
                        path: m.path.clone(),
                        thread: m.thread,
                        begin_ns,
                        end_ns: m.t_ns,
                        self_ns: dur.saturating_sub(child_ns),
                    });
                }
            }
        }
    }
    out
}

/// Which marks belong to a matched begin/end pair (the same LIFO
/// matching as [`matched_spans_of`]), so exporters emit balanced B/E.
fn span_keep_mask(spans: &[(bool, SpanMark)]) -> Vec<bool> {
    let mut keep = vec![false; spans.len()];
    let mut stacks: Vec<(u32, Vec<usize>)> = Vec::new();
    for (i, (is_end, m)) in spans.iter().enumerate() {
        let stack = match stacks.iter_mut().find(|(t, _)| *t == m.thread) {
            Some((_, s)) => s,
            None => {
                stacks.push((m.thread, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        if !*is_end {
            stack.push(i);
        } else if let Some(&bi) = stack.last() {
            if spans[bi].1.path == m.path {
                stack.pop();
                keep[bi] = true;
                keep[i] = true;
            }
        }
    }
    keep
}

/// The wall-clock section of a Chrome export: process/thread metadata
/// for every thread that completed a span, then balanced `B`/`E` marks
/// in ring order. Shared by the snapshot exporter and the streaming
/// sink, so both emit byte-identical event lines.
pub fn chrome_wall_events(spans: &[(bool, SpanMark)]) -> Vec<String> {
    let mut events = Vec::new();
    let keep = span_keep_mask(spans);
    let mut threads: Vec<u32> = spans
        .iter()
        .enumerate()
        .filter(|(i, (is_end, _))| keep[*i] && *is_end)
        .map(|(_, (_, m))| m.thread)
        .collect();
    threads.sort_unstable();
    threads.dedup();
    if !threads.is_empty() {
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"pipeline (wall clock)\"}}"
                .to_string(),
        );
    }
    for t in threads {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"thread {t}\"}}}}"
        ));
    }
    for (i, (is_end, m)) in spans.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let ph = if *is_end { "E" } else { "B" };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"wall\",\"ph\":\"{ph}\",\"pid\":1,\
             \"tid\":{},\"ts\":{}}}",
            escape(&m.path),
            m.thread,
            micros(m.t_ns)
        ));
    }
    events
}

/// Fold raw span marks into flamegraph stacks (one line per stack,
/// `a;b;c <self-time-µs>`, the inferno / `flamegraph.pl` input). Self
/// time excludes nested child spans, so the flamegraph does not
/// double-count.
pub fn folded_from_spans(spans: &[(bool, SpanMark)]) -> String {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for s in matched_spans_of(spans) {
        let key = s.path.replace('/', ";");
        match totals.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += s.self_ns,
            None => totals.push((key, s.self_ns)),
        }
    }
    totals.sort();
    let mut out = String::new();
    for (key, self_ns) in totals {
        let us = self_ns / 1_000;
        if us > 0 {
            out.push_str(&key);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
    }
    out
}

/// Merge of [`MetricsReport`]s — see [`MetricsReport::merge`].
pub(crate) fn merge_reports(into: &mut MetricsReport, other: &MetricsReport) {
    for c in &other.counters {
        match into.counters.iter_mut().find(|x| x.name == c.name) {
            Some(x) => x.value += c.value,
            None => into.counters.push(c.clone()),
        }
    }
    for g in &other.gauges {
        match into.gauges.iter_mut().find(|x| x.name == g.name) {
            Some(x) => x.value = g.value,
            None => into.gauges.push(g.clone()),
        }
    }
    for s in &other.spans {
        match into.spans.iter_mut().find(|x| x.name == s.name) {
            Some(x) => {
                if x.count == 0 {
                    x.min_ns = s.min_ns;
                    x.max_ns = s.max_ns;
                } else if s.count > 0 {
                    x.min_ns = x.min_ns.min(s.min_ns);
                    x.max_ns = x.max_ns.max(s.max_ns);
                }
                x.count += s.count;
                x.total_ns += s.total_ns;
                x.mean_ns = if x.count == 0 {
                    0.0
                } else {
                    x.total_ns as f64 / x.count as f64
                };
                // Histograms add bucket-wise; quantiles re-derive from
                // the merged distribution, not from the inputs' quantiles
                // (quantiles do not compose, bucket counts do).
                crate::hist::merge_sparse(&mut x.hist, &s.hist);
                let (p50, p95, p99) = crate::hist::percentiles_within(&x.hist, x.min_ns, x.max_ns);
                x.p50_ns = p50;
                x.p95_ns = p95;
                x.p99_ns = p99;
            }
            None => into.spans.push(s.clone()),
        }
    }
    into.counters.sort_by(|a, b| a.name.cmp(&b.name));
    into.gauges.sort_by(|a, b| {
        a.name
            .partial_cmp(&b.name)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    into.spans.sort_by(|a, b| a.name.cmp(&b.name));
}

/// Nanoseconds → Chrome-trace microsecond timestamp (printed as an exact
/// short decimal, so equal inputs always print identically).
fn micros(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}.0")
    } else {
        let mut s = format!("{whole}.{frac:03}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(run: u32, rank: u32, idx: u32, t_ns: u64) -> TraceRecord {
        TraceRecord::Sim(SimEvent {
            run,
            seed: 7,
            rank,
            idx,
            kind: SimEventKind::Init,
            t_ns,
        })
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops_oldest_first() {
        let t = Tracer::with_capacity(16);
        for i in 0..40 {
            t.record(sim(0, 0, i, i as u64));
        }
        let snap = t.snapshot();
        assert_eq!(snap.recorded, 40);
        assert_eq!(snap.dropped, 24);
        assert_eq!(t.dropped(), 24);
        assert_eq!(snap.sim.len(), 16);
        // Oldest records (idx 0..24) were overwritten; the newest survive.
        let idxs: Vec<u32> = snap.sim.iter().map(|e| e.idx).collect();
        assert_eq!(idxs, (24..40).collect::<Vec<u32>>());
    }

    #[test]
    fn concurrent_recording_never_panics_and_accounts_every_record() {
        let t = Tracer::with_capacity(64);
        std::thread::scope(|s| {
            for th in 0..4u32 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..5_000u32 {
                        t.record(sim(th, 0, i, i as u64));
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.recorded, 20_000);
        assert_eq!(snap.sim.len() as u64 + snap.dropped, 20_000);
        assert!(snap.sim.len() <= 64);
    }

    #[test]
    fn capacity_is_clamped() {
        assert_eq!(Tracer::with_capacity(0).capacity(), 16);
    }

    #[test]
    fn message_id_is_deterministic_and_distinguishes_inputs() {
        assert_eq!(message_id(0, 1, 2, 3), message_id(0, 1, 2, 3));
        let ids = [
            message_id(0, 1, 2, 3),
            message_id(1, 1, 2, 3),
            message_id(0, 2, 1, 3),
            message_id(0, 1, 2, 4),
        ];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn matched_spans_reconstruct_nesting_and_self_time() {
        let t = Tracer::with_capacity(64);
        t.record(TraceRecord::SpanBegin(SpanMark {
            path: "campaign".into(),
            thread: 0,
            t_ns: 0,
        }));
        t.record(TraceRecord::SpanBegin(SpanMark {
            path: "campaign/simulate".into(),
            thread: 0,
            t_ns: 10,
        }));
        t.record(TraceRecord::SpanEnd(SpanMark {
            path: "campaign/simulate".into(),
            thread: 0,
            t_ns: 40,
        }));
        t.record(TraceRecord::SpanEnd(SpanMark {
            path: "campaign".into(),
            thread: 0,
            t_ns: 100,
        }));
        let snap = t.snapshot();
        let spans = snap.matched_spans();
        assert_eq!(spans.len(), 2);
        let inner = spans
            .iter()
            .find(|s| s.path == "campaign/simulate")
            .unwrap();
        assert_eq!((inner.begin_ns, inner.end_ns, inner.self_ns), (10, 40, 30));
        let outer = spans.iter().find(|s| s.path == "campaign").unwrap();
        // Outer span lasted 100 ns, 30 of which belong to the child.
        assert_eq!(outer.self_ns, 70);
    }

    #[test]
    fn unbalanced_marks_are_discarded() {
        let t = Tracer::with_capacity(64);
        // An end without a begin (begin lost to wrap), then a clean pair.
        t.record(TraceRecord::SpanEnd(SpanMark {
            path: "orphan".into(),
            thread: 0,
            t_ns: 5,
        }));
        t.record(TraceRecord::SpanBegin(SpanMark {
            path: "ok".into(),
            thread: 0,
            t_ns: 10,
        }));
        t.record(TraceRecord::SpanEnd(SpanMark {
            path: "ok".into(),
            thread: 0,
            t_ns: 20,
        }));
        // A begin that never ends.
        t.record(TraceRecord::SpanBegin(SpanMark {
            path: "dangling".into(),
            thread: 0,
            t_ns: 30,
        }));
        let spans = t.snapshot().matched_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].path, "ok");
        // The chrome export stays balanced too.
        let json = t.snapshot().chrome_trace(true);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert!(!json.contains("orphan"));
        assert!(!json.contains("dangling"));
    }

    #[test]
    fn chrome_trace_has_one_track_per_rank_and_flows() {
        let t = Tracer::with_capacity(256);
        let msg = message_id(0, 1, 0, 0);
        for (rank, idx, kind, t_ns) in [
            (0u32, 0u32, SimEventKind::Init, 0u64),
            (1, 0, SimEventKind::Init, 0),
            (1, 1, SimEventKind::Send { msg_id: msg }, 100),
            (
                0,
                1,
                SimEventKind::Recv {
                    msg_id: msg,
                    wildcard: true,
                },
                250,
            ),
            (0, 2, SimEventKind::Finalize, 300),
            (1, 2, SimEventKind::Finalize, 300),
        ] {
            t.record(TraceRecord::Sim(SimEvent {
                run: 0,
                seed: 7,
                rank,
                idx,
                kind,
                t_ns,
            }));
        }
        let json = t.snapshot().chrome_trace(false);
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"name\":\"sim run 0 (seed 7)\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains(&format!("\"id\":{msg}")));
        // And it is valid JSON for the workspace parser.
        serde_json::from_str_value(&json).expect("well-formed JSON");
    }

    #[test]
    fn chrome_export_is_deterministic_across_record_order() {
        let a = Tracer::with_capacity(64);
        let b = Tracer::with_capacity(64);
        let e0 = SimEvent {
            run: 0,
            seed: 1,
            rank: 0,
            idx: 0,
            kind: SimEventKind::Init,
            t_ns: 0,
        };
        let e1 = SimEvent {
            run: 0,
            seed: 1,
            rank: 1,
            idx: 0,
            kind: SimEventKind::Init,
            t_ns: 0,
        };
        a.record(TraceRecord::Sim(e0.clone()));
        a.record(TraceRecord::Sim(e1.clone()));
        b.record(TraceRecord::Sim(e1));
        b.record(TraceRecord::Sim(e0));
        assert_eq!(
            a.snapshot().chrome_trace(false),
            b.snapshot().chrome_trace(false)
        );
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let t = Tracer::with_capacity(64);
        t.span_begin("campaign");
        t.record(TraceRecord::SpanBegin(SpanMark {
            path: "campaign/simulate".into(),
            thread: current_thread_id(),
            t_ns: t.now_ns(),
        }));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.record(TraceRecord::SpanEnd(SpanMark {
            path: "campaign/simulate".into(),
            thread: current_thread_id(),
            t_ns: t.now_ns(),
        }));
        t.span_end("campaign");
        let folded = t.snapshot().folded_stacks();
        assert!(folded.contains("campaign;simulate "), "{folded}");
        for line in folded.lines() {
            let (_, n) = line.rsplit_split_once_compat();
            assert!(n.parse::<u64>().is_ok(), "{line}");
        }
    }

    trait RSplit {
        fn rsplit_split_once_compat(&self) -> (&str, &str);
    }
    impl RSplit for &str {
        fn rsplit_split_once_compat(&self) -> (&str, &str) {
            self.rsplit_once(' ').expect("space-separated folded line")
        }
    }

    #[test]
    fn micros_prints_exact_short_decimals() {
        assert_eq!(micros(0), "0.0");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_000), "1.0");
        assert_eq!(micros(1_500), "1.5");
        assert_eq!(micros(123_456), "123.456");
        assert_eq!(micros(120_000), "120.0");
    }

    #[test]
    fn thread_ids_are_distinct_across_threads() {
        let here = current_thread_id();
        let there = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, current_thread_id());
    }
}
