//! The discrete-event execution engine.
//!
//! The engine runs a [`Program`] under a [`NetworkConfig`] and a seed, and
//! produces a [`Trace`]. Only message *arrivals* are queued events; rank
//! execution is performed inline, which is sound because a rank's behaviour
//! between blocking points depends only on already-delivered messages, and
//! MPI matching is insensitive to whether a receive is posted before or
//! after a message it does not yet see (the posted/unexpected queues
//! commute). The queue is ordered by `(time, injection seq)`, so runs are
//! bit-reproducible for a given seed.
//!
//! Non-determinism across *seeds* enters exclusively through the network
//! model's congestion delays; with `nd_fraction = 0` every seed produces
//! the identical trace (verified by tests).
//!
//! ## Event placement
//!
//! Blocking receives produce their trace event at their own program
//! position. Nonblocking receives produce their event at the `wait` that
//! completes them (in request-list order) — mirroring how real MPI tracers
//! observe completion, and, crucially, keeping the event graph acyclic:
//! placing the completion at the `irecv` post site would put a receive
//! *before* the sends of the same exchange phase in program order, which
//! combined with message edges creates cycles in all-to-all patterns.
//!
//! ## Per-event cost
//!
//! Apart from the arrival heap's O(log m) sift over the m messages in
//! flight, no per-event step walks a structure that grows with the rank
//! count:
//!
//! * **Wait counter.** A rank that blocks in `Wait`/`Waitall` flags the
//!   receive slots it still waits for (those listed before the first
//!   unknown slot, so `UnknownRequest` is reported exactly when the list
//!   is first fully scanned) and records how many there are in
//!   `Status::BlockedWait`. A completing receive decrements the counter
//!   if its slot is flagged; only when it reaches zero is the request
//!   list — read from the program op at `pc − 1` — walked once more to
//!   emit the receive events. An all-to-all phase of `n` ranks therefore
//!   costs O(n) per rank, not O(n²).
//! * **Heap slab.** The arrival queue orders small `(time, seq, slot)`
//!   keys; the messages themselves sit in a slab whose freed slots are
//!   reused, so the slab grows with the peak number of messages in
//!   flight, not with the total sent. `seq` is unique, so the slot never
//!   breaks a tie and the pop order is exactly `(time, seq)`.

use crate::counters::SimCounters;
use crate::matching::{InFlightMsg, MatchEngine, PostKind, PostedRecv};
use crate::network::{NetworkConfig, NetworkModel};
use crate::ops::Op;
use crate::program::Program;
use crate::replay::MatchRecord;
use crate::stack::CallStackId;
use crate::trace::{EventId, EventKind, Trace, TraceEvent, TraceMeta};
use crate::types::{ChannelSeq, Rank, ReqSlot, SimTime, Tag};
use anacin_obs::MetricsRegistry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Configuration of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Platform and delay model.
    pub network: NetworkConfig,
    /// RNG seed; distinct seeds model distinct "runs" of the application.
    pub seed: u64,
}

impl SimConfig {
    /// A deterministic run (nd_fraction = 0) with seed 0.
    pub fn deterministic() -> Self {
        SimConfig {
            network: NetworkConfig::deterministic(),
            seed: 0,
        }
    }

    /// A run with the given ND percentage and seed.
    pub fn with_nd_percent(percent: f64, seed: u64) -> Self {
        SimConfig {
            network: NetworkConfig::with_nd_percent(percent),
            seed,
        }
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No runnable rank and no in-flight message: classic deadlock.
    Deadlock(DeadlockReport),
    /// A wait referenced a request slot that was never created.
    UnknownRequest {
        /// The offending rank.
        rank: Rank,
        /// The unknown slot.
        req: ReqSlot,
    },
    /// A rank's trace outgrew the `u32` event-index space (or its receive
    /// ordinals did). Event ids are `(rank, u32)` pairs throughout the
    /// pipeline — past 2³² events the old `as u32` cast silently wrapped
    /// and corrupted the trace; now the run fails loudly instead.
    TraceTooLarge {
        /// The rank whose per-rank event count overflowed.
        rank: Rank,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(r) => write!(f, "deadlock: {r}"),
            SimError::UnknownRequest { rank, req } => {
                write!(f, "{rank} waited on unknown request slot {}", req.0)
            }
            SimError::TraceTooLarge { rank } => {
                write!(f, "{rank} exceeded {} trace events", u32::MAX)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Diagnostic emitted when the job hangs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// One entry per rank that did not reach `Finalize`.
    pub blocked: Vec<BlockedRank>,
    /// Messages that arrived but were never received.
    pub unmatched_messages: u64,
}

/// One blocked rank in a [`DeadlockReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRank {
    /// The blocked rank.
    pub rank: Rank,
    /// Index of the op it is stuck on.
    pub op_index: usize,
    /// Human-readable description of the blocking op.
    pub waiting_on: String,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rank(s) blocked ({} unmatched message(s)):",
            self.blocked.len(),
            self.unmatched_messages
        )?;
        for b in &self.blocked {
            write!(f, " [{} @op{}: {}]", b.rank, b.op_index, b.waiting_on)?;
        }
        Ok(())
    }
}

/// Details of a completed (but not yet emitted) nonblocking receive.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecvCompletion {
    at: SimTime,
    src: Rank,
    tag: Tag,
    bytes: u64,
    send_event: EventId,
    seq: ChannelSeq,
    wildcard: bool,
    stack: CallStackId,
    ordinal: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ReqState {
    Unused,
    SendDone(SimTime),
    RecvPending {
        wildcard: bool,
        stack: CallStackId,
        ordinal: u32,
        /// Counted by the wait the rank is blocked in.
        waited: bool,
    },
    RecvDone(Box<RecvCompletion>),
    RecvEmitted(SimTime),
}

#[derive(Debug, PartialEq, Eq)]
enum Status {
    Ready,
    BlockedRecv,
    BlockedSsend,
    /// Blocked in the wait at `pc − 1` until this many flagged receives
    /// complete.
    BlockedWait(u32),
    Done,
}

/// The request list of a `Wait`/`Waitall` op.
fn wait_reqs(op: &Op) -> &[ReqSlot] {
    match op {
        Op::Wait { req, .. } => std::slice::from_ref(req),
        Op::Waitall { reqs, .. } => reqs,
        other => unreachable!("{} is not a wait", other.mnemonic()),
    }
}

struct RankState {
    pc: usize,
    now: SimTime,
    status: Status,
    requests: Vec<ReqState>,
    events: Vec<TraceEvent>,
    /// Next send sequence number per destination rank.
    chan_seq: Vec<u64>,
    /// Clamp: latest scheduled arrival per destination (non-overtaking).
    chan_last_arrival: Vec<SimTime>,
    /// Next receive ordinal (posting order; used by record/replay).
    recv_ordinal: u32,
}

impl RankState {
    /// A rank about to run `ops` ops: each emits at most one event, plus
    /// `Init` and `Finalize`, so the event list never reallocates.
    fn new(world: usize, ops: usize) -> Self {
        RankState {
            pc: 0,
            now: SimTime::ZERO,
            status: Status::Ready,
            requests: Vec::new(),
            events: Vec::with_capacity(ops + 2),
            chan_seq: vec![0; world],
            chan_last_arrival: vec![SimTime::ZERO; world],
            recv_ordinal: 0,
        }
    }

    fn req_mut(&mut self, slot: ReqSlot) -> &mut ReqState {
        let i = slot.index();
        if i >= self.requests.len() {
            self.requests.resize(i + 1, ReqState::Unused);
        }
        &mut self.requests[i]
    }

    /// Append an event, returning its rank-local index — or `None` once
    /// the index space is exhausted (the caller surfaces
    /// [`SimError::TraceTooLarge`]).
    fn emit(&mut self, kind: EventKind, time: SimTime, stack: CallStackId) -> Option<u32> {
        let idx = u32::try_from(self.events.len()).ok()?;
        self.events.push(TraceEvent { kind, time, stack });
        Some(idx)
    }

    /// Time of the most recent event (for monotone clamping of
    /// wait-emitted completions).
    fn last_event_time(&self) -> SimTime {
        self.events.last().map(|e| e.time).unwrap_or(SimTime::ZERO)
    }

    fn next_ordinal(&mut self) -> Option<u32> {
        let o = self.recv_ordinal;
        self.recv_ordinal = self.recv_ordinal.checked_add(1)?;
        Some(o)
    }
}

/// Run `program` under `config` with free (MPI-standard) matching.
pub fn simulate(program: &Program, config: &SimConfig) -> Result<Trace, SimError> {
    Engine::new(program, config, None).run(None)
}

/// [`simulate`], instrumented: `metrics` records the run's wall time
/// under the span `sim`, and the six execution counters (`sim/runs`,
/// `sim/events`, `sim/messages`, `sim/matched`, `sim/wildcard_matches`,
/// `sim/delays_injected`) flush through `counters` with lock-free atomic
/// adds. Worker loops that simulate many runs create one [`SimCounters`]
/// per worker instead of paying six registry-map locks per run. The
/// instrumentation never touches simulated time or matching, so traces
/// are bit-identical with or without it.
pub fn simulate_counted(
    program: &Program,
    config: &SimConfig,
    metrics: Option<&MetricsRegistry>,
    counters: Option<&SimCounters>,
) -> Result<Trace, SimError> {
    let _span = metrics.map(|m| m.span("sim"));
    Engine::new(program, config, None).run(counters)
}

/// Run `program` under `config`, forcing every wildcard receive to match
/// the message recorded in `record` (record-and-replay, à la ReMPI).
pub fn simulate_replay(
    program: &Program,
    config: &SimConfig,
    record: &MatchRecord,
) -> Result<Trace, SimError> {
    Engine::new(program, config, Some(record)).run(None)
}

struct Engine<'a> {
    program: &'a Program,
    network: NetworkModel<SmallRng>,
    config: SimConfig,
    ranks: Vec<RankState>,
    matchers: Vec<MatchEngine>,
    /// Arrival keys `(time, injection seq, slab slot)`, earliest first.
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    queue_seq: u64,
    /// Messages in flight, indexed by the slot of their queue key.
    in_flight: Vec<InFlightMsg>,
    /// Slots of `in_flight` whose message was delivered.
    free_slots: Vec<usize>,
    messages: u64,
    replay: Option<&'a MatchRecord>,
}

impl<'a> Engine<'a> {
    fn new(program: &'a Program, config: &SimConfig, replay: Option<&'a MatchRecord>) -> Self {
        let world = program.world_size() as usize;
        let network = NetworkModel::new(
            config.network.clone(),
            program.world_size(),
            SmallRng::seed_from_u64(config.seed),
        );
        Engine {
            program,
            network,
            config: config.clone(),
            ranks: (0..world)
                .map(|r| RankState::new(world, program.ops(Rank(r as u32)).len()))
                .collect(),
            matchers: (0..world).map(|_| MatchEngine::new()).collect(),
            queue: BinaryHeap::new(),
            queue_seq: 0,
            in_flight: Vec::new(),
            free_slots: Vec::new(),
            messages: 0,
            replay,
        }
    }

    fn run(mut self, counters: Option<&SimCounters>) -> Result<Trace, SimError> {
        let world = self.program.world_size();
        // Every rank calls Init at t=0 and runs to its first blocking point.
        for r in 0..world {
            let rank = Rank(r);
            self.ranks[rank.index()]
                .emit(EventKind::Init, SimTime::ZERO, CallStackId::UNKNOWN)
                .ok_or(SimError::TraceTooLarge { rank })?;
            self.run_rank(rank)?;
        }
        // Drain arrivals.
        while let Some(Reverse((_, _, slot))) = self.queue.pop() {
            self.free_slots.push(slot);
            self.deliver(self.in_flight[slot].clone())?;
        }
        // Termination check.
        let blocked: Vec<BlockedRank> = self
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, rs)| rs.status != Status::Done)
            .map(|(r, rs)| {
                let rank = Rank(r as u32);
                let op = self.program.ops(rank).get(rs.pc.saturating_sub(1));
                BlockedRank {
                    rank,
                    op_index: rs.pc.saturating_sub(1),
                    waiting_on: op
                        .map(|o| format!("{o:?}"))
                        .unwrap_or_else(|| "<end of program>".to_string()),
                }
            })
            .collect();
        let unmatched: u64 = self
            .matchers
            .iter_mut()
            .map(|m| m.drain_unexpected().count() as u64)
            .sum();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock(DeadlockReport {
                blocked,
                unmatched_messages: unmatched,
            }));
        }
        let makespan = self
            .ranks
            .iter()
            .map(|r| r.now)
            .max()
            .unwrap_or(SimTime::ZERO);
        let meta = TraceMeta {
            seed: self.config.seed,
            nd_fraction: self.config.network.nd_fraction,
            nodes: self.config.network.nodes,
            makespan,
            messages: self.messages,
            unmatched_messages: unmatched,
        };
        let events = self.ranks.into_iter().map(|r| r.events).collect();
        let trace = Trace::new(world, events, self.program.stacks().clone(), meta);
        if let Some(c) = counters {
            c.flush(&trace, self.network.delays_injected());
        }
        Ok(trace)
    }

    /// Execute `rank` from its current pc until it blocks or finishes.
    fn run_rank(&mut self, rank: Rank) -> Result<(), SimError> {
        let ops: &'a [Op] = self.program.ops(rank);
        loop {
            let pc = self.ranks[rank.index()].pc;
            let Some(op) = ops.get(pc) else {
                // Program exhausted: finalize.
                let now = self.ranks[rank.index()].now;
                self.ranks[rank.index()]
                    .emit(EventKind::Finalize, now, CallStackId::UNKNOWN)
                    .ok_or(SimError::TraceTooLarge { rank })?;
                self.ranks[rank.index()].status = Status::Done;
                return Ok(());
            };
            match *op {
                Op::Send {
                    dst,
                    tag,
                    bytes,
                    stack,
                } => {
                    self.do_send(rank, dst, tag, bytes, stack, None, false)?;
                }
                Op::Ssend {
                    dst,
                    tag,
                    bytes,
                    stack,
                } => {
                    // Rendezvous: inject the message, then block until the
                    // receiver matches it (the engine wakes us from the
                    // match sites).
                    self.do_send(rank, dst, tag, bytes, stack, None, true)?;
                    self.ranks[rank.index()].status = Status::BlockedSsend;
                    self.ranks[rank.index()].pc = pc + 1;
                    return Ok(());
                }
                Op::Isend {
                    dst,
                    tag,
                    bytes,
                    stack,
                    req,
                } => {
                    self.do_send(rank, dst, tag, bytes, stack, Some(req), false)?;
                }
                Op::Recv { src, tag, stack } => {
                    let wildcard = src.is_wildcard() || tag.is_wildcard();
                    let rs = &mut self.ranks[rank.index()];
                    let ordinal = rs.next_ordinal().ok_or(SimError::TraceTooLarge { rank })?;
                    let posted_at = rs.now;
                    // Placeholder; overwritten on match.
                    let event_idx = rs
                        .emit(EventKind::Init, posted_at, stack)
                        .ok_or(SimError::TraceTooLarge { rank })?;
                    let forced = self.replay_constraint(rank, ordinal, wildcard);
                    let posted = PostedRecv {
                        src,
                        tag,
                        event_idx,
                        ordinal,
                        kind: PostKind::Blocking,
                        posted_at,
                        forced,
                    };
                    match self.matchers[rank.index()].on_post(posted) {
                        Some((recv, msg)) => {
                            self.fill_blocking_recv(rank, &recv, &msg, wildcard);
                            let completion = msg.arrival.max(recv.posted_at);
                            let rs = &mut self.ranks[rank.index()];
                            rs.now = rs
                                .now
                                .max(msg.arrival)
                                .after(self.config.network.recv_overhead_ns);
                            self.wake_sync_sender(&msg, completion)?;
                        }
                        None => {
                            self.ranks[rank.index()].status = Status::BlockedRecv;
                            self.ranks[rank.index()].pc = pc + 1;
                            return Ok(());
                        }
                    }
                }
                Op::Irecv {
                    src,
                    tag,
                    stack,
                    req,
                } => {
                    let wildcard = src.is_wildcard() || tag.is_wildcard();
                    let rs = &mut self.ranks[rank.index()];
                    let ordinal = rs.next_ordinal().ok_or(SimError::TraceTooLarge { rank })?;
                    let posted_at = rs.now;
                    *rs.req_mut(req) = ReqState::RecvPending {
                        wildcard,
                        stack,
                        ordinal,
                        waited: false,
                    };
                    let forced = self.replay_constraint(rank, ordinal, wildcard);
                    let posted = PostedRecv {
                        src,
                        tag,
                        event_idx: 0,
                        ordinal,
                        kind: PostKind::Nonblocking(req),
                        posted_at,
                        forced,
                    };
                    if let Some((recv, msg)) = self.matchers[rank.index()].on_post(posted) {
                        self.complete_nonblocking(rank, &recv, &msg);
                        let completion = msg.arrival.max(recv.posted_at);
                        self.wake_sync_sender(&msg, completion)?;
                    }
                    // Nonblocking: tiny software overhead, then continue.
                    let rs = &mut self.ranks[rank.index()];
                    rs.now = rs.now.after(self.config.network.recv_overhead_ns / 4);
                }
                Op::Wait { .. } | Op::Waitall { .. } => {
                    if !self.begin_wait(rank, wait_reqs(op))? {
                        self.ranks[rank.index()].pc = pc + 1;
                        return Ok(());
                    }
                }
                Op::Compute { duration_ns } => {
                    let rs = &mut self.ranks[rank.index()];
                    rs.now = rs.now.after(duration_ns);
                }
            }
            self.ranks[rank.index()].pc = pc + 1;
        }
    }

    /// The replay constraint for the receive with posting ordinal
    /// `ordinal` on `rank`, if replaying.
    fn replay_constraint(
        &mut self,
        rank: Rank,
        ordinal: u32,
        wildcard: bool,
    ) -> Option<(Rank, ChannelSeq)> {
        let record = self.replay?;
        if !wildcard {
            // Deterministic receives need no pinning.
            return None;
        }
        record.matched(rank, ordinal as usize)
    }

    #[allow(clippy::too_many_arguments)]
    fn do_send(
        &mut self,
        rank: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        stack: CallStackId,
        req: Option<ReqSlot>,
        sync: bool,
    ) -> Result<(), SimError> {
        let send_time = self.ranks[rank.index()].now;
        let seq = {
            let rs = &mut self.ranks[rank.index()];
            let c = &mut rs.chan_seq[dst.index()];
            let s = ChannelSeq(*c);
            *c += 1;
            s
        };
        let event_idx = self.ranks[rank.index()]
            .emit(
                EventKind::Send {
                    dst,
                    tag,
                    bytes,
                    seq,
                },
                send_time,
                stack,
            )
            .ok_or(SimError::TraceTooLarge { rank })?;
        // Delivery time, clamped per channel for non-overtaking.
        let raw = self.network.delivery_time(rank, dst, bytes, send_time);
        let arrival = {
            let rs = &mut self.ranks[rank.index()];
            let clamped = raw.max(rs.chan_last_arrival[dst.index()]);
            rs.chan_last_arrival[dst.index()] = clamped;
            clamped
        };
        let msg = InFlightMsg {
            src: rank,
            dst,
            tag,
            bytes,
            seq,
            send_event_idx: event_idx,
            arrival,
            sync,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.in_flight[slot] = msg;
                slot
            }
            None => {
                self.in_flight.push(msg);
                self.in_flight.len() - 1
            }
        };
        self.queue_seq += 1;
        self.queue.push(Reverse((arrival, self.queue_seq, slot)));
        self.messages += 1;
        // Local completion.
        let rs = &mut self.ranks[rank.index()];
        rs.now = rs.now.after(self.config.network.send_overhead_ns);
        if let Some(slot) = req {
            *rs.req_mut(slot) = ReqState::SendDone(rs.now);
        }
        Ok(())
    }

    /// Wake the sender of a matched synchronous message. The rendezvous
    /// acknowledgement travels back over the base (deterministic) link
    /// latency; congestion is not re-drawn for acks, keeping the RNG
    /// stream identical to the non-synchronous execution.
    fn wake_sync_sender(&mut self, msg: &InFlightMsg, completion: SimTime) -> Result<(), SimError> {
        if !msg.sync {
            return Ok(());
        }
        let world = self.program.world_size();
        let net = &self.config.network;
        let same_node = net.node_of(msg.src, world) == net.node_of(msg.dst, world);
        let ack = if same_node {
            net.intra_node_latency_ns
        } else {
            net.inter_node_latency_ns
        };
        let sender = msg.src;
        debug_assert_eq!(self.ranks[sender.index()].status, Status::BlockedSsend);
        let rs = &mut self.ranks[sender.index()];
        rs.now = rs.now.max(completion.after(ack));
        rs.status = Status::Ready;
        self.run_rank(sender)
    }

    /// Fill in the trace event of a matched *blocking* receive.
    fn fill_blocking_recv(
        &mut self,
        rank: Rank,
        recv: &PostedRecv,
        msg: &InFlightMsg,
        wildcard: bool,
    ) {
        let completion = msg.arrival.max(recv.posted_at);
        let ev = &mut self.ranks[rank.index()].events[recv.event_idx as usize];
        ev.kind = EventKind::Recv {
            src: msg.src,
            tag: msg.tag,
            bytes: msg.bytes,
            send_event: EventId::new(msg.src, msg.send_event_idx),
            seq: msg.seq,
            wildcard,
            post_ordinal: recv.ordinal,
        };
        ev.time = completion;
    }

    /// Record the completion of a matched *nonblocking* receive in its
    /// request slot; the trace event is emitted by the completing wait.
    /// Returns whether the wait the rank is blocked in counts this slot.
    fn complete_nonblocking(&mut self, rank: Rank, recv: &PostedRecv, msg: &InFlightMsg) -> bool {
        let PostKind::Nonblocking(req) = recv.kind else {
            unreachable!("complete_nonblocking on blocking receive");
        };
        let rs = &mut self.ranks[rank.index()];
        let (wildcard, stack, ordinal, waited) = match *rs.req_mut(req) {
            ReqState::RecvPending {
                wildcard,
                stack,
                ordinal,
                waited,
            } => (wildcard, stack, ordinal, waited),
            ref s => unreachable!("nonblocking completion into {s:?}"),
        };
        let at = msg.arrival.max(recv.posted_at);
        *rs.req_mut(req) = ReqState::RecvDone(Box::new(RecvCompletion {
            at,
            src: msg.src,
            tag: msg.tag,
            bytes: msg.bytes,
            send_event: EventId::new(msg.src, msg.send_event_idx),
            seq: msg.seq,
            wildcard,
            stack,
            ordinal,
        }));
        waited
    }

    /// Enter a wait on `reqs`. Flags every receive still pending among
    /// the slots listed before the first unknown one; with none, the wait
    /// completes now (an unknown slot is then an error). Otherwise the
    /// rank blocks until the flagged receives complete, and returns
    /// false.
    fn begin_wait(&mut self, rank: Rank, reqs: &[ReqSlot]) -> Result<bool, SimError> {
        let rs = &mut self.ranks[rank.index()];
        let mut pending = 0u32;
        for &slot in reqs {
            match rs.requests.get_mut(slot.index()) {
                None | Some(ReqState::Unused) => break,
                Some(ReqState::RecvPending { waited, .. }) if !*waited => {
                    *waited = true;
                    pending += 1;
                }
                Some(_) => {}
            }
        }
        if pending == 0 {
            self.finish_wait(rank, reqs)?;
            return Ok(true);
        }
        rs.status = Status::BlockedWait(pending);
        Ok(false)
    }

    /// Complete a wait whose receives have all completed: emit the
    /// receive events (request-list order) and advance local time past
    /// every completion.
    fn finish_wait(&mut self, rank: Rank, reqs: &[ReqSlot]) -> Result<(), SimError> {
        let rs = &mut self.ranks[rank.index()];
        let mut latest = SimTime::ZERO;
        for &slot in reqs {
            let Some(state) = rs.requests.get_mut(slot.index()) else {
                return Err(SimError::UnknownRequest { rank, req: slot });
            };
            let c = match state {
                ReqState::Unused => return Err(SimError::UnknownRequest { rank, req: slot }),
                ReqState::RecvPending { .. } => {
                    unreachable!("wait finished with a pending receive")
                }
                ReqState::SendDone(t) | ReqState::RecvEmitted(t) => {
                    latest = latest.max(*t);
                    continue;
                }
                ReqState::RecvDone(c) => {
                    let emitted = ReqState::RecvEmitted(c.at);
                    let ReqState::RecvDone(c) = std::mem::replace(state, emitted) else {
                        unreachable!("matched as RecvDone")
                    };
                    c
                }
            };
            latest = latest.max(c.at);
            // Clamp to keep per-rank event times monotone: the completion
            // is *observed* at the wait, after any events already emitted.
            let t = c.at.max(rs.last_event_time());
            rs.emit(
                EventKind::Recv {
                    src: c.src,
                    tag: c.tag,
                    bytes: c.bytes,
                    send_event: c.send_event,
                    seq: c.seq,
                    wildcard: c.wildcard,
                    post_ordinal: c.ordinal,
                },
                t,
                c.stack,
            )
            .ok_or(SimError::TraceTooLarge { rank })?;
        }
        rs.now = rs.now.max(latest);
        Ok(())
    }

    /// Process one arrival.
    fn deliver(&mut self, msg: InFlightMsg) -> Result<(), SimError> {
        let dst = msg.dst;
        let Some((recv, msg)) = self.matchers[dst.index()].on_arrival(msg) else {
            return Ok(());
        };
        match recv.kind {
            PostKind::Blocking => {
                debug_assert_eq!(self.ranks[dst.index()].status, Status::BlockedRecv);
                let wildcard = recv.src.is_wildcard() || recv.tag.is_wildcard();
                self.fill_blocking_recv(dst, &recv, &msg, wildcard);
                let completion = msg.arrival.max(recv.posted_at);
                let rs = &mut self.ranks[dst.index()];
                rs.now = rs
                    .now
                    .max(msg.arrival)
                    .after(self.config.network.recv_overhead_ns);
                rs.status = Status::Ready;
                self.wake_sync_sender(&msg, completion)?;
                self.run_rank(dst)?;
            }
            PostKind::Nonblocking(_) => {
                let waited = self.complete_nonblocking(dst, &recv, &msg);
                let completion = msg.arrival.max(recv.posted_at);
                self.wake_sync_sender(&msg, completion)?;
                if !waited {
                    return Ok(());
                }
                // The rank is blocked in a wait counting this receive.
                let rs = &mut self.ranks[dst.index()];
                let Status::BlockedWait(pending) = &mut rs.status else {
                    unreachable!("flagged receive completed outside a wait");
                };
                *pending -= 1;
                if *pending == 0 {
                    let program: &'a Program = self.program;
                    let wait = &program.ops(dst)[rs.pc - 1];
                    self.finish_wait(dst, wait_reqs(wait))?;
                    self.ranks[dst.index()].status = Status::Ready;
                    self.run_rank(dst)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::types::{SrcSpec, TagSpec};

    fn pingpong() -> Program {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(0), 8)
            .recv(Rank(1), Tag(1).into());
        b.rank(Rank(1))
            .recv(Rank(0), Tag(0).into())
            .send(Rank(0), Tag(1), 8);
        b.build()
    }

    #[test]
    fn pingpong_completes() {
        let trace = simulate(&pingpong(), &SimConfig::deterministic()).unwrap();
        assert_eq!(trace.total_events(), 8); // init,send,recv,finalize per rank
        assert_eq!(trace.meta.messages, 2);
        assert_eq!(trace.meta.unmatched_messages, 0);
        assert!(trace.meta.makespan > SimTime::ZERO);
        trace.validate().unwrap();
    }

    #[test]
    fn deterministic_runs_are_identical_across_seeds() {
        let p = pingpong();
        let t1 = simulate(&p, &SimConfig::deterministic()).unwrap();
        let t2 = simulate(
            &p,
            &SimConfig {
                network: NetworkConfig::deterministic(),
                seed: 12345,
            },
        )
        .unwrap();
        for r in 0..2 {
            assert_eq!(t1.rank_events(Rank(r)), t2.rank_events(Rank(r)));
        }
    }

    fn message_race(n: u32) -> Program {
        // ranks 1..n send to rank 0; rank 0 posts n wildcard receives.
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        b.build()
    }

    #[test]
    fn race_with_full_nd_produces_differing_match_orders() {
        let p = message_race(8);
        let mut orders = std::collections::HashSet::new();
        for seed in 0..20 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            t.validate().unwrap();
            orders.insert(t.match_order(Rank(0)));
        }
        assert!(
            orders.len() > 1,
            "100% ND must yield at least two distinct match orders over 20 seeds"
        );
    }

    #[test]
    fn race_with_zero_nd_is_deterministic() {
        let p = message_race(8);
        let base = simulate(&p, &SimConfig::deterministic())
            .unwrap()
            .match_order(Rank(0));
        for seed in 1..10 {
            let t = simulate(
                &p,
                &SimConfig {
                    network: NetworkConfig::deterministic(),
                    seed,
                },
            )
            .unwrap();
            assert_eq!(t.match_order(Rank(0)), base);
        }
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let p = message_race(8);
        let c = SimConfig::with_nd_percent(100.0, 7);
        let t1 = simulate(&p, &c).unwrap();
        let t2 = simulate(&p, &c).unwrap();
        assert_eq!(t1.match_order(Rank(0)), t2.match_order(Rank(0)));
        assert_eq!(t1.meta.makespan, t2.meta.makespan);
    }

    #[test]
    fn nonblocking_roundtrip() {
        let mut b = ProgramBuilder::new(2);
        {
            let mut r0 = b.rank(Rank(0));
            let s = r0.isend(Rank(1), Tag(0), 4);
            let r = r0.irecv(Rank(1), Tag(1).into());
            r0.waitall(vec![s, r]);
        }
        {
            let mut r1 = b.rank(Rank(1));
            let r = r1.irecv_any(TagSpec::Any);
            r1.wait(r);
            r1.send(Rank(0), Tag(1), 4);
        }
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        t.validate().unwrap();
        assert_eq!(t.meta.unmatched_messages, 0);
        assert_eq!(t.wildcard_recv_count(), 1);
    }

    #[test]
    fn nonblocking_recv_event_appears_at_wait_position() {
        // rank 1 posts an irecv, then isends, then waits: the recv event
        // must appear *after* the send in rank 1's event order.
        let mut b = ProgramBuilder::new(2);
        {
            let mut r0 = b.rank(Rank(0));
            let r = r0.irecv_any(TagSpec::Any);
            let s = r0.isend(Rank(1), Tag(0), 4);
            r0.waitall(vec![r, s]);
        }
        {
            let mut r1 = b.rank(Rank(1));
            let r = r1.irecv_any(TagSpec::Any);
            let s = r1.isend(Rank(0), Tag(0), 4);
            r1.waitall(vec![r, s]);
        }
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        for rnk in 0..2 {
            let kinds: Vec<_> = t
                .rank_events(Rank(rnk))
                .iter()
                .map(|e| e.kind.mnemonic())
                .collect();
            assert_eq!(
                kinds,
                vec!["init", "send", "recv", "finalize"],
                "rank {rnk}"
            );
        }
        t.validate().unwrap();
    }

    #[test]
    fn deadlock_is_reported() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).recv(Rank(1), Tag(0).into());
        // rank 1 never sends.
        let p = b.build();
        match simulate(&p, &SimConfig::deterministic()) {
            Err(SimError::Deadlock(r)) => {
                assert_eq!(r.blocked.len(), 1);
                assert_eq!(r.blocked[0].rank, Rank(0));
                assert!(r.to_string().contains("rank 0"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_message_counted() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).send(Rank(1), Tag(0), 1);
        let p = b.build();
        // rank 1 finishes without receiving: no deadlock, but the message
        // is reported unmatched.
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        assert_eq!(t.meta.unmatched_messages, 1);
    }

    #[test]
    fn unknown_request_is_an_error() {
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(0)).wait(ReqSlot(3));
        let p = b.build();
        match simulate(&p, &SimConfig::deterministic()) {
            Err(SimError::UnknownRequest { rank, req }) => {
                assert_eq!(rank, Rank(0));
                assert_eq!(req, ReqSlot(3));
            }
            other => panic!("expected UnknownRequest, got {other:?}"),
        }
    }

    fn kinds(t: &Trace, r: u32) -> Vec<&'static str> {
        t.rank_events(Rank(r))
            .iter()
            .map(|e| e.kind.mnemonic())
            .collect()
    }

    #[test]
    fn waitall_listing_a_slot_twice_emits_its_receive_once() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).compute(5_000).send(Rank(1), Tag(0), 1);
        {
            let mut r1 = b.rank(Rank(1));
            let r = r1.irecv(Rank(0), Tag(0).into());
            r1.waitall(vec![r, r]);
        }
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        t.validate().unwrap();
        assert_eq!(kinds(&t, 1), ["init", "recv", "finalize"]);
    }

    #[test]
    fn unknown_slot_after_pending_receives_is_reported_once_they_complete() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .compute(5_000)
            .send(Rank(1), Tag(0), 1)
            .send(Rank(1), Tag(1), 1);
        {
            let mut r1 = b.rank(Rank(1));
            let a = r1.irecv(Rank(0), Tag(0).into());
            let c = r1.irecv(Rank(0), Tag(1).into());
            r1.waitall(vec![a, c, ReqSlot(9), a]);
        }
        match simulate(&b.build(), &SimConfig::deterministic()) {
            Err(SimError::UnknownRequest { rank, req }) => {
                assert_eq!((rank, req), (Rank(1), ReqSlot(9)));
            }
            other => panic!("expected UnknownRequest, got {other:?}"),
        }
    }

    #[test]
    fn wait_on_an_already_completed_receive_returns_at_once() {
        // The irecv completes while rank 1 is blocked in a later blocking
        // receive; the wait then finds it done and emits it in place.
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(1), 1)
            .compute(50_000)
            .send(Rank(1), Tag(2), 1);
        {
            let mut r1 = b.rank(Rank(1));
            let r = r1.irecv(Rank(0), Tag(1).into());
            r1.recv(Rank(0), Tag(2).into()).wait(r);
        }
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        t.validate().unwrap();
        assert_eq!(kinds(&t, 1), ["init", "recv", "recv", "finalize"]);
        let tags: Vec<i32> = t
            .rank_events(Rank(1))
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Recv { tag, .. } => Some(tag.0),
                _ => None,
            })
            .collect();
        assert_eq!(tags, [2, 1], "the waited receive is emitted at the wait");
        let ev = t.rank_events(Rank(1));
        assert!(ev[2].time >= ev[1].time, "wait-emitted time is clamped");
    }

    #[test]
    fn ssend_inside_a_waited_phase_completes() {
        // Rank 0's ssend is matched by rank 1's pending irecv while rank 1
        // is blocked in a waitall counting it: waking the sender must not
        // disturb rank 1's wait.
        let mut b = ProgramBuilder::new(2);
        {
            let mut r0 = b.rank(Rank(0));
            let r = r0.irecv(Rank(1), Tag(1).into());
            r0.ssend(Rank(1), Tag(0), 1).wait(r);
        }
        {
            let mut r1 = b.rank(Rank(1));
            let q = r1.irecv(Rank(0), Tag(0).into());
            let s = r1.isend(Rank(0), Tag(1), 1);
            r1.waitall(vec![q, s]);
        }
        let p = b.build();
        for nd in [0.0, 100.0] {
            let t = simulate(&p, &SimConfig::with_nd_percent(nd, 4)).unwrap();
            t.validate().unwrap();
            assert_eq!(t.meta.unmatched_messages, 0);
            assert_eq!(kinds(&t, 0), ["init", "send", "recv", "finalize"]);
            assert_eq!(kinds(&t, 1), ["init", "send", "recv", "finalize"]);
        }
    }

    #[test]
    fn non_overtaking_same_channel_same_tag() {
        // Rank 0 sends two tagged messages to rank 1 under heavy ND; the
        // receives (specific source) must observe them in send order.
        for seed in 0..30 {
            let mut b = ProgramBuilder::new(2);
            b.rank(Rank(0))
                .send(Rank(1), Tag(0), 1)
                .send(Rank(1), Tag(0), 1);
            b.rank(Rank(1))
                .recv(Rank(0), Tag(0).into())
                .recv(Rank(0), Tag(0).into());
            let p = b.build();
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            let seqs: Vec<u64> = t
                .rank_events(Rank(1))
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Recv { seq, .. } => Some(seq.0),
                    _ => None,
                })
                .collect();
            assert_eq!(seqs, vec![0, 1], "seed {seed} violated non-overtaking");
        }
    }

    #[test]
    fn events_are_in_program_order_per_rank() {
        let p = message_race(6);
        let t = simulate(&p, &SimConfig::with_nd_percent(100.0, 3)).unwrap();
        // Rank 0: init, then 5 recvs, then finalize.
        let kinds: Vec<_> = t
            .rank_events(Rank(0))
            .iter()
            .map(|e| e.kind.mnemonic())
            .collect();
        assert_eq!(kinds[0], "init");
        assert_eq!(kinds[kinds.len() - 1], "finalize");
        assert!(kinds[1..kinds.len() - 1].iter().all(|k| *k == "recv"));
    }

    #[test]
    fn recv_before_send_blocks_then_completes() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).recv(Rank(1), Tag(0).into());
        b.rank(Rank(1)).compute(10_000).send(Rank(0), Tag(0), 1);
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        t.validate().unwrap();
        // Recv completion must be at or after the (delayed) send.
        let recv_time = t.rank_events(Rank(0))[1].time;
        let send_time = t.rank_events(Rank(1))[1].time;
        assert!(recv_time > send_time);
    }

    #[test]
    fn specific_source_recv_ignores_other_senders() {
        let mut b = ProgramBuilder::new(3);
        b.rank(Rank(1)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(2)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(0))
            .recv(Rank(2), Tag(0).into())
            .recv(Rank(1), Tag(0).into());
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        assert_eq!(t.match_order(Rank(0)), vec![Rank(2), Rank(1)]);
    }

    #[test]
    fn makespan_reflects_compute() {
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(0)).compute(1_000_000);
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        assert!(t.meta.makespan >= SimTime(1_000_000));
    }

    #[test]
    fn wildcard_flag_recorded() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).send(Rank(1), Tag(0), 1);
        b.rank(Rank(1)).recv_any(TagSpec::Any);
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        match t.rank_events(Rank(1))[1].kind {
            EventKind::Recv { wildcard, .. } => assert!(wildcard),
            ref k => panic!("expected recv, got {k:?}"),
        }
        // And a specific-source recv is not flagged.
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).send(Rank(1), Tag(0), 1);
        b.rank(Rank(1)).recv(Rank(0), Tag(0).into());
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        match t.rank_events(Rank(1))[1].kind {
            EventKind::Recv { wildcard, .. } => assert!(!wildcard),
            ref k => panic!("expected recv, got {k:?}"),
        }
    }

    #[test]
    fn post_ordinals_count_receives_in_posting_order() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(0), 1)
            .send(Rank(1), Tag(0), 1)
            .send(Rank(1), Tag(0), 1);
        {
            let mut r1 = b.rank(Rank(1));
            r1.recv_any(TagSpec::Any); // ordinal 0
            let a = r1.irecv_any(TagSpec::Any); // ordinal 1
            let c = r1.irecv_any(TagSpec::Any); // ordinal 2
            r1.waitall(vec![a, c]);
        }
        let p = b.build();
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        let ordinals: Vec<u32> = t
            .rank_events(Rank(1))
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Recv { post_ordinal, .. } => Some(post_ordinal),
                _ => None,
            })
            .collect();
        assert_eq!(ordinals, vec![0, 1, 2]);
    }

    #[test]
    fn all_to_all_event_graph_is_acyclic_shape() {
        // Regression guard for the wait-placement rule: in an all-to-all
        // phase every rank's receives must trail its sends in event order.
        let n = 4u32;
        let mut b = ProgramBuilder::new(n);
        for r in 0..n {
            let mut rb = b.rank(Rank(r));
            let mut reqs = Vec::new();
            for _ in 0..n - 1 {
                reqs.push(rb.irecv_any(TagSpec::Any));
            }
            for peer in 0..n {
                if peer != r {
                    reqs.push(rb.isend(Rank(peer), Tag(0), 1));
                }
            }
            rb.waitall(reqs);
        }
        let p = b.build();
        let t = simulate(&p, &SimConfig::with_nd_percent(100.0, 2)).unwrap();
        for r in 0..n {
            let kinds: Vec<_> = t
                .rank_events(Rank(r))
                .iter()
                .map(|e| e.kind.mnemonic())
                .collect();
            let first_recv = kinds.iter().position(|k| *k == "recv").unwrap();
            let last_send = kinds.iter().rposition(|k| *k == "send").unwrap();
            assert!(
                last_send < first_recv,
                "rank {r}: sends must precede recv completions: {kinds:?}"
            );
        }
        t.validate().unwrap();
    }

    #[test]
    fn srcspec_used_in_engine_paths() {
        // Exercise SrcSpec::Any with concrete tag through the full engine.
        let mut b = ProgramBuilder::new(3);
        b.rank(Rank(1)).send(Rank(0), Tag(9), 1);
        b.rank(Rank(2)).send(Rank(0), Tag(9), 1);
        {
            let mut r0 = b.rank(Rank(0));
            let a = r0.irecv_any(Tag(9).into());
            let c = r0.irecv_any(Tag(9).into());
            r0.waitall(vec![a, c]);
        }
        let p = b.build();
        assert_eq!(
            p.ops(Rank(0))
                .iter()
                .filter(|o| matches!(
                    o,
                    Op::Irecv {
                        src: SrcSpec::Any,
                        ..
                    }
                ))
                .count(),
            2
        );
        let t = simulate(&p, &SimConfig::deterministic()).unwrap();
        assert_eq!(t.meta.unmatched_messages, 0);
        t.validate().unwrap();
    }
}
