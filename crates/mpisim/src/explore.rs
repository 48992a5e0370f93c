//! Schedule-space exploration: bounded exhaustive enumeration of the
//! distinct wildcard-match schedules a program admits.
//!
//! The paper's campaigns *sample* non-determinism — random delay draws
//! perturb message arrival order and the kernel distance measures the
//! spread. Sampling can only estimate; this module *enumerates*. It walks
//! every distinct way the message races can resolve (up to a budget),
//! which turns three questions the sampling pipeline cannot answer into
//! computable ones:
//!
//! * **coverage** — how many of the possible schedules did N random runs
//!   actually visit?
//! * **worst case** — what is the maximum kernel distance over *all*
//!   schedules, not just the sampled ones?
//! * **soundness** — is every sampled schedule a member of the enumerated
//!   set? (The strongest differential oracle the testkit has.)
//!
//! ## Branch-point model
//!
//! The only source of communication non-determinism in the simulator is
//! *cross-channel interleaving*: messages on one `(src, dst)` channel are
//! non-overtaking (delivered in send order), but the interleaving of
//! different channels into one destination's arrival stream depends on
//! network delays. A schedule is therefore fully determined by the order
//! in which channel heads are delivered, and the explorer's single
//! transition kind is "deliver the oldest undelivered message on channel
//! `(src, dst)`". Between deliveries every rank runs eagerly to its next
//! blocking point — sound because matching is insensitive to whether a
//! receive is posted before or after a message it does not match (the
//! posted/unexpected queues commute, see [`crate::engine`]).
//!
//! Two reductions keep the walk tractable without losing schedules:
//!
//! * **eager delivery** — a destination with no posted source-wildcard
//!   receive and no source-wildcard receive left in its program cannot
//!   observe cross-channel order (per-channel FIFO scans make its matching
//!   order-invariant), so its arrivals are delivered immediately instead
//!   of branched over;
//! * **sleep sets** — deliveries to *different* destinations commute
//!   (they touch disjoint match engines; any rank executions they unblock
//!   are rank-local), so of two independent transitions explored in one
//!   order, the opposite order is pruned (Godefroid's sleep-set
//!   partial-order reduction).
//!
//! Both reductions are switched off by [`ExploreConfig::brute_force`],
//! which the property suite uses to check that reduction never changes
//! the set of distinct schedules.
//!
//! ## Schedules and replay
//!
//! A [`Schedule`] is the per-rank, per-posting-ordinal `(src, seq)`
//! matching decision vector — exactly the content of a
//! [`MatchRecord`](crate::replay::MatchRecord), and [`simulate_scheduled`]
//! replays one through the ordinary engine to produce a full [`Trace`]
//! (bit-identical for a fixed `SimConfig`). [`ScheduleId`] is a
//! splitmix64 fingerprint of the canonical decision sequence; the id of
//! an explored schedule equals the id of [`Schedule::from_trace`] of any
//! sampled trace that resolved its races the same way, which is what
//! makes set-membership tests and warm artifact-store keys possible.

use crate::matching::{InFlightMsg, MatchEngine, PostKind, PostedRecv};
use crate::ops::Op;
use crate::program::Program;
use crate::replay::MatchRecord;
use crate::trace::Trace;
use crate::types::{ChannelSeq, Rank, ReqSlot, SimTime, SrcSpec, Tag};
use anacin_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::fmt;

use crate::engine::{simulate_replay, SimConfig, SimError};

/// splitmix64 — the same finalizer the network delay model seeds with;
/// statistically strong enough for fingerprinting decision sequences.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Canonical fingerprint of one distinct schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScheduleId(pub u64);

impl fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One complete resolution of a program's message races: for every rank
/// and every receive posting ordinal, the `(source, channel sequence)` of
/// the matched message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    decisions: Vec<Vec<Option<(Rank, ChannelSeq)>>>,
}

impl Schedule {
    /// The schedule a completed trace realised. Explored schedules and
    /// sampled traces meet on this: `Schedule::from_trace(t).id()` is a
    /// member of the explored id set iff the run `t` resolved its races
    /// in an enumerated way.
    pub fn from_trace(trace: &Trace) -> Self {
        Schedule {
            decisions: MatchRecord::from_trace(trace).into_decisions(),
        }
    }

    /// Canonical splitmix64 fingerprint over the rank-major decision
    /// sequence (presence, source and channel position all mixed in).
    pub fn id(&self) -> ScheduleId {
        let mut h: u64 = 0x5EED_5C4E_D01E_0001;
        for rank_decisions in &self.decisions {
            h = splitmix64(h ^ 0xA11C_E5ED ^ rank_decisions.len() as u64);
            for d in rank_decisions {
                match d {
                    None => h = splitmix64(h ^ 0x7077),
                    Some((src, seq)) => {
                        h = splitmix64(h ^ 0xC0DE ^ (u64::from(src.0) << 1 | 1));
                        h = splitmix64(h ^ seq.0.rotate_left(17));
                    }
                }
            }
        }
        ScheduleId(h)
    }

    /// The schedule as a replayable [`MatchRecord`].
    pub fn to_record(&self) -> MatchRecord {
        MatchRecord::from_decisions(self.decisions.clone())
    }

    /// Number of recorded matching decisions.
    pub fn decision_count(&self) -> usize {
        self.decisions
            .iter()
            .map(|v| v.iter().filter(|d| d.is_some()).count())
            .sum()
    }
}

/// Replay an explored [`Schedule`] through the full engine: every receive
/// is forced to the schedule's decision, so for a fixed `config` the
/// resulting [`Trace`] is bit-identical call after call.
pub fn simulate_scheduled(
    program: &Program,
    config: &SimConfig,
    schedule: &Schedule,
) -> Result<Trace, SimError> {
    simulate_replay(program, config, &schedule.to_record())
}

/// Exploration bounds. All three caps degrade gracefully: when any is
/// hit the walk stops (or narrows) and [`ExploreStats::truncated`] is
/// set, so callers can always tell a complete enumeration from a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreConfig {
    /// Stop once this many distinct schedules have been recorded.
    pub max_schedules: usize,
    /// Work cap: total branch transitions taken. Guards programs whose
    /// interleaving space is huge even when the schedule space is tiny.
    pub max_branches: u64,
    /// Cap on pending (not yet explored) alternatives across the DFS
    /// stack; beyond it new branch points keep only their first choice.
    pub max_frontier: usize,
    /// Apply sleep-set reduction and eager delivery. `false` is the
    /// unpruned brute-force baseline the property tests diff against.
    pub prune: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 4096,
            max_branches: 1_000_000,
            max_frontier: 65_536,
            prune: true,
        }
    }
}

impl ExploreConfig {
    /// Default bounds with the given schedule budget.
    pub fn with_budget(max_schedules: usize) -> Self {
        ExploreConfig {
            max_schedules,
            ..Self::default()
        }
    }

    /// Disable partial-order reduction *and* eager delivery: enumerate
    /// every delivery interleaving. Exponential; for tiny programs only.
    pub fn brute_force(mut self) -> Self {
        self.prune = false;
        self
    }
}

/// What the walk did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Branch transitions taken (DFS edges, reductions included).
    pub branches: u64,
    /// Transitions suppressed by sleep-set reduction.
    pub pruned: u64,
    /// Alternatives dropped by the frontier cap.
    pub dropped: u64,
    /// Distinct complete schedules recorded.
    pub schedules: u64,
    /// Complete terminal states visited (≥ `schedules`; the excess are
    /// interleavings that realised an already-seen schedule).
    pub terminals: u64,
    /// Terminal states where some rank was permanently blocked. These are
    /// genuinely reachable resolutions (a wildcard can starve a later
    /// specific receive); they are counted, not recorded as schedules.
    pub deadlocks: u64,
    /// True iff any cap fired, i.e. the enumeration is a lower bound.
    pub truncated: bool,
}

/// The result of [`explore`]: every distinct schedule found, in
/// deterministic DFS discovery order, plus the walk statistics.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct complete schedules, in discovery order.
    pub schedules: Vec<Schedule>,
    /// Walk statistics.
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// Ids of all explored schedules, in discovery order.
    pub fn ids(&self) -> Vec<ScheduleId> {
        self.schedules.iter().map(Schedule::id).collect()
    }

    /// Membership test for a (usually sampled) schedule.
    pub fn contains(&self, id: ScheduleId) -> bool {
        self.schedules.iter().any(|s| s.id() == id)
    }

    /// True iff no budget fired: `schedules` is the *entire* schedule
    /// space of the program.
    pub fn is_complete(&self) -> bool {
        !self.stats.truncated
    }
}

/// Per-program facts the walk consults constantly.
struct Shape {
    world: usize,
    /// Highest op index per rank holding a source-wildcard receive; once a
    /// rank's pc passes this (and no posted wildcard remains) the rank can
    /// never observe cross-channel order again.
    last_any_recv: Vec<Option<usize>>,
}

impl Shape {
    fn new(program: &Program) -> Self {
        let world = program.world_size() as usize;
        let last_any_recv = (0..world)
            .map(|r| {
                program.ops(Rank(r as u32)).iter().rposition(|op| match op {
                    Op::Recv { src, .. } | Op::Irecv { src, .. } => src.is_wildcard(),
                    _ => false,
                })
            })
            .collect();
        Shape {
            world,
            last_any_recv,
        }
    }
}

/// Where a rank stands between deliveries.
#[derive(Clone, PartialEq, Eq)]
enum XStatus {
    Ready,
    BlockedRecv,
    BlockedSsend,
    BlockedWait(Vec<ReqSlot>),
    Done,
}

/// Request-slot state (the causal shadow of the engine's `ReqState`).
#[derive(Clone, PartialEq, Eq)]
enum XReq {
    Unused,
    SendDone,
    RecvPending,
    RecvDone {
        ordinal: u32,
        src: Rank,
        seq: ChannelSeq,
    },
    RecvEmitted,
}

#[derive(Clone)]
struct XRank {
    pc: usize,
    status: XStatus,
    requests: Vec<XReq>,
    chan_seq: Vec<u64>,
    recv_ordinal: u32,
    decisions: Vec<Option<(Rank, ChannelSeq)>>,
}

/// An undelivered message parked on its `(src, dst)` channel.
#[derive(Clone)]
struct XMsg {
    tag: Tag,
    seq: ChannelSeq,
    sync: bool,
}

/// A causal (time-free) simulator state: everything matching-relevant and
/// nothing else, cheap to clone at every branch point.
#[derive(Clone)]
struct XState {
    ranks: Vec<XRank>,
    matchers: Vec<MatchEngine>,
    /// `channels[src][dst]`: sent-but-undelivered messages in send order.
    channels: Vec<Vec<VecDeque<XMsg>>>,
}

impl XState {
    fn new(world: usize) -> Self {
        XState {
            ranks: (0..world)
                .map(|_| XRank {
                    pc: 0,
                    status: XStatus::Ready,
                    requests: Vec::new(),
                    chan_seq: vec![0; world],
                    recv_ordinal: 0,
                    decisions: Vec::new(),
                })
                .collect(),
            matchers: (0..world).map(|_| MatchEngine::new()).collect(),
            channels: vec![vec![VecDeque::new(); world]; world],
        }
    }

    fn req_mut(&mut self, r: usize, slot: ReqSlot) -> &mut XReq {
        let v = &mut self.ranks[r].requests;
        if v.len() <= slot.index() {
            v.resize(slot.index() + 1, XReq::Unused);
        }
        &mut v[slot.index()]
    }

    fn record_decision(&mut self, r: usize, ordinal: u32, src: Rank, seq: ChannelSeq) {
        let d = &mut self.ranks[r].decisions;
        let i = ordinal as usize;
        if d.len() <= i {
            d.resize(i + 1, None);
        }
        d[i] = Some((src, seq));
    }

    fn send(&mut self, from: usize, dst: Rank, tag: Tag, sync: bool) {
        let c = &mut self.ranks[from].chan_seq[dst.index()];
        let seq = ChannelSeq(*c);
        *c += 1;
        self.channels[from][dst.index()].push_back(XMsg { tag, seq, sync });
    }

    fn wake_sync_sender(&mut self, msg: &InFlightMsg) {
        if msg.sync {
            let s = msg.src.index();
            debug_assert!(matches!(self.ranks[s].status, XStatus::BlockedSsend));
            self.ranks[s].status = XStatus::Ready;
        }
    }

    /// All requests done? If so emit receive completions (ordinal-keyed,
    /// so emission order is irrelevant here) and report ready.
    fn try_wait(&mut self, r: usize, reqs: &[ReqSlot]) -> bool {
        let pending = |req: &XReq| matches!(req, XReq::Unused | XReq::RecvPending);
        if reqs.iter().any(|s| {
            pending(
                self.ranks[r]
                    .requests
                    .get(s.index())
                    .unwrap_or(&XReq::Unused),
            )
        }) {
            // NB an `Unused` slot never completes: the engine reports
            // `UnknownRequest`, the explorer reaches a deadlock terminal.
            // Validated programs (`check_requests`) have neither.
            return false;
        }
        for &s in reqs {
            if let XReq::RecvDone { ordinal, src, seq } = *self.req_mut(r, s) {
                self.record_decision(r, ordinal, src, seq);
                *self.req_mut(r, s) = XReq::RecvEmitted;
            }
        }
        true
    }

    /// Run rank `r` from its pc to the next blocking point (mirrors
    /// `Engine::run_rank` minus the clock and the trace).
    fn run_rank(&mut self, program: &Program, r: usize) {
        let rank = Rank(r as u32);
        loop {
            let pc = self.ranks[r].pc;
            let Some(op) = program.ops(rank).get(pc).cloned() else {
                self.ranks[r].status = XStatus::Done;
                return;
            };
            match op {
                Op::Send { dst, tag, .. } => self.send(r, dst, tag, false),
                Op::Ssend { dst, tag, .. } => {
                    self.send(r, dst, tag, true);
                    self.ranks[r].status = XStatus::BlockedSsend;
                    self.ranks[r].pc = pc + 1;
                    return;
                }
                Op::Isend { dst, tag, req, .. } => {
                    self.send(r, dst, tag, false);
                    *self.req_mut(r, req) = XReq::SendDone;
                }
                Op::Recv { src, tag, .. } => {
                    let ordinal = self.ranks[r].recv_ordinal;
                    self.ranks[r].recv_ordinal += 1;
                    let posted = PostedRecv {
                        src,
                        tag,
                        event_idx: 0,
                        ordinal,
                        kind: PostKind::Blocking,
                        posted_at: SimTime::ZERO,
                        forced: None,
                    };
                    match self.matchers[r].on_post(posted) {
                        Some((recv, msg)) => {
                            self.record_decision(r, recv.ordinal, msg.src, msg.seq);
                            self.wake_sync_sender(&msg);
                        }
                        None => {
                            self.ranks[r].status = XStatus::BlockedRecv;
                            self.ranks[r].pc = pc + 1;
                            return;
                        }
                    }
                }
                Op::Irecv { src, tag, req, .. } => {
                    let ordinal = self.ranks[r].recv_ordinal;
                    self.ranks[r].recv_ordinal += 1;
                    *self.req_mut(r, req) = XReq::RecvPending;
                    let posted = PostedRecv {
                        src,
                        tag,
                        event_idx: 0,
                        ordinal,
                        kind: PostKind::Nonblocking(req),
                        posted_at: SimTime::ZERO,
                        forced: None,
                    };
                    if let Some((recv, msg)) = self.matchers[r].on_post(posted) {
                        *self.req_mut(r, req) = XReq::RecvDone {
                            ordinal: recv.ordinal,
                            src: msg.src,
                            seq: msg.seq,
                        };
                        self.wake_sync_sender(&msg);
                    }
                }
                Op::Wait { req, .. } => {
                    if !self.try_wait(r, &[req]) {
                        self.ranks[r].status = XStatus::BlockedWait(vec![req]);
                        self.ranks[r].pc = pc + 1;
                        return;
                    }
                }
                Op::Waitall { ref reqs, .. } => {
                    if !self.try_wait(r, reqs) {
                        self.ranks[r].status = XStatus::BlockedWait(reqs.clone());
                        self.ranks[r].pc = pc + 1;
                        return;
                    }
                }
                Op::Compute { .. } => {}
            }
            self.ranks[r].pc += 1;
        }
    }

    /// Deliver the head of channel `(s, d)` to `d`'s match engine and
    /// propagate the consequences (the DFS transition).
    fn deliver(&mut self, s: usize, d: usize) {
        let m = self.channels[s][d]
            .pop_front()
            .expect("deliver on an empty channel");
        let msg = InFlightMsg {
            src: Rank(s as u32),
            dst: Rank(d as u32),
            tag: m.tag,
            bytes: 0,
            seq: m.seq,
            send_event_idx: 0,
            arrival: SimTime::ZERO,
            sync: m.sync,
        };
        if let Some((recv, msg)) = self.matchers[d].on_arrival(msg) {
            self.wake_sync_sender(&msg);
            match recv.kind {
                PostKind::Blocking => {
                    debug_assert!(matches!(self.ranks[d].status, XStatus::BlockedRecv));
                    self.record_decision(d, recv.ordinal, msg.src, msg.seq);
                    self.ranks[d].status = XStatus::Ready;
                }
                PostKind::Nonblocking(req) => {
                    *self.req_mut(d, req) = XReq::RecvDone {
                        ordinal: recv.ordinal,
                        src: msg.src,
                        seq: msg.seq,
                    };
                    if let XStatus::BlockedWait(reqs) = self.ranks[d].status.clone() {
                        if self.try_wait(d, &reqs) {
                            self.ranks[d].status = XStatus::Ready;
                        }
                    }
                }
            }
        }
    }

    /// Can delivery order into `d` still influence matching? Only a
    /// source-wildcard receive makes arrival interleaving observable;
    /// per-channel FIFO scans settle everything else deterministically.
    fn branch_relevant(&self, shape: &Shape, d: usize) -> bool {
        if self.matchers[d]
            .posted_iter()
            .any(|p| p.src == SrcSpec::Any)
        {
            return true;
        }
        match (&self.ranks[d].status, shape.last_any_recv[d]) {
            (XStatus::Done, _) | (_, None) => false,
            (_, Some(last)) => self.ranks[d].pc <= last,
        }
    }

    /// Deliver everything destined to non-branch-relevant ranks, in
    /// canonical order. Returns true if anything moved.
    fn eager_deliveries(&mut self, shape: &Shape) -> bool {
        let mut moved = false;
        for d in 0..shape.world {
            if self.branch_relevant(shape, d) {
                continue;
            }
            for s in 0..shape.world {
                while !self.channels[s][d].is_empty() {
                    self.deliver(s, d);
                    moved = true;
                }
            }
        }
        moved
    }

    /// Run every ready rank (and, when pruning, every eager delivery) to
    /// fixpoint. After this, the only way forward is a branch delivery.
    fn settle(&mut self, program: &Program, shape: &Shape, prune: bool) {
        loop {
            let mut progress = false;
            for r in 0..shape.world {
                if self.ranks[r].status == XStatus::Ready {
                    self.run_rank(program, r);
                    progress = true;
                }
            }
            if prune && self.eager_deliveries(shape) {
                progress = true;
            }
            if !progress {
                return;
            }
        }
    }

    /// Channels with undelivered messages, canonically ordered by
    /// `(dst, src)`. In prune mode (post-settle) these all target
    /// branch-relevant destinations.
    fn enabled(&self, shape: &Shape) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for d in 0..shape.world {
            for s in 0..shape.world {
                if !self.channels[s][d].is_empty() {
                    v.push((s as u32, d as u32));
                }
            }
        }
        v
    }

    fn complete(&self) -> bool {
        self.ranks.iter().all(|r| r.status == XStatus::Done)
    }

    fn schedule(&self) -> Schedule {
        Schedule {
            decisions: self.ranks.iter().map(|r| r.decisions.clone()).collect(),
        }
    }
}

/// One DFS node: a settled state plus the transitions still to take.
struct Frame {
    state: XState,
    transitions: Vec<(u32, u32)>,
    next: usize,
    sleep: Vec<(u32, u32)>,
}

/// Enumerate the distinct schedules of `program` under the bounds in
/// `config`. Deterministic: same inputs, same report, every time.
pub fn explore(program: &Program, config: &ExploreConfig) -> ExploreReport {
    let shape = Shape::new(program);
    let mut stats = ExploreStats::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut schedules: Vec<Schedule> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    // Untaken transitions across the whole stack; `- 1` of it is the
    // frontier (one of them is always the path being extended).
    let mut pending: usize = 0;

    // Admit a settled state: record terminals, cap the frontier, push
    // interior nodes. Returns false when the schedule budget halts the
    // whole walk.
    let mut admit = |state: XState,
                     sleep: Vec<(u32, u32)>,
                     stats: &mut ExploreStats,
                     stack: &mut Vec<Frame>,
                     pending: &mut usize|
     -> bool {
        if state.complete() {
            stats.terminals += 1;
            let schedule = state.schedule();
            if seen.insert(schedule.id().0) {
                schedules.push(schedule);
                if schedules.len() >= config.max_schedules {
                    if *pending > 0 {
                        stats.truncated = true;
                    }
                    return false;
                }
            }
            return true;
        }
        let enabled = state.enabled(&shape);
        if enabled.is_empty() {
            stats.deadlocks += 1;
            return true;
        }
        let mut transitions: Vec<(u32, u32)> = if config.prune {
            enabled
                .iter()
                .filter(|t| !sleep.contains(t))
                .copied()
                .collect()
        } else {
            enabled.clone()
        };
        stats.pruned += (enabled.len() - transitions.len()) as u64;
        if transitions.is_empty() {
            // Every continuation is asleep: this state's futures were all
            // covered through commuting transition orders elsewhere.
            return true;
        }
        let alternatives = transitions.len() - 1;
        if *pending + alternatives > config.max_frontier {
            let keep = config.max_frontier.saturating_sub(*pending);
            stats.dropped += (alternatives - keep) as u64;
            stats.truncated = true;
            transitions.truncate(1 + keep);
        }
        *pending += transitions.len();
        stack.push(Frame {
            state,
            transitions,
            next: 0,
            sleep,
        });
        true
    };

    let mut root = XState::new(shape.world);
    root.settle(program, &shape, config.prune);
    if !admit(root, Vec::new(), &mut stats, &mut stack, &mut pending) {
        stats.schedules = schedules.len() as u64;
        return ExploreReport { schedules, stats };
    }

    while let Some(top) = stack.last_mut() {
        if top.next >= top.transitions.len() {
            stack.pop();
            continue;
        }
        let idx = top.next;
        let t = top.transitions[idx];
        top.next += 1;
        pending -= 1;
        stats.branches += 1;
        if stats.branches > config.max_branches {
            stats.truncated = true;
            break;
        }
        // Sleep set for the child: everything already asleep here plus the
        // siblings explored before `t`, minus whatever depends on `t`
        // (same destination = same match engine = dependent).
        let child_sleep: Vec<(u32, u32)> = if config.prune {
            top.sleep
                .iter()
                .chain(top.transitions[..idx].iter())
                .filter(|u| u.1 != t.1)
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        let mut child = top.state.clone();
        child.deliver(t.0 as usize, t.1 as usize);
        child.settle(program, &shape, config.prune);
        if !admit(child, child_sleep, &mut stats, &mut stack, &mut pending) {
            break;
        }
    }

    stats.schedules = schedules.len() as u64;
    ExploreReport { schedules, stats }
}

/// Flush walk statistics into the standard explore counters
/// (`explore/branches`, `explore/pruned`, `explore/schedules`).
pub fn flush_explore_metrics(metrics: &MetricsRegistry, stats: &ExploreStats) {
    metrics.counter("explore/branches").add(stats.branches);
    metrics
        .counter("explore/pruned")
        .add(stats.pruned + stats.dropped);
    metrics.counter("explore/schedules").add(stats.schedules);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::program::ProgramBuilder;
    use crate::types::TagSpec;

    fn message_race(n: u32) -> Program {
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        b.build()
    }

    fn id_set(report: &ExploreReport) -> HashSet<u64> {
        report.schedules.iter().map(|s| s.id().0).collect()
    }

    #[test]
    fn deterministic_program_has_one_schedule() {
        // Ping-pong with specific receives: no branch points at all under
        // pruning, and exactly one distinct schedule by brute force.
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(0), 1)
            .recv(Rank(1), TagSpec::Tag(Tag(1)));
        b.rank(Rank(1))
            .recv(Rank(0), TagSpec::Tag(Tag(0)))
            .send(Rank(0), Tag(1), 1);
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default());
        assert_eq!(pruned.schedules.len(), 1);
        assert_eq!(pruned.stats.branches, 0, "nothing to branch over");
        assert!(pruned.is_complete());
        let brute = explore(&p, &ExploreConfig::default().brute_force());
        assert_eq!(id_set(&pruned), id_set(&brute));
    }

    #[test]
    fn message_race_enumerates_all_permutations() {
        // n-1 senders race into one wildcard receiver: (n-1)! schedules.
        for (n, want) in [(3u32, 2usize), (4, 6), (5, 24)] {
            let report = explore(&message_race(n), &ExploreConfig::default());
            assert_eq!(report.schedules.len(), want, "race({n})");
            assert!(report.is_complete());
            assert_eq!(report.stats.deadlocks, 0);
            // All ids distinct by construction of the dedupe set.
            assert_eq!(id_set(&report).len(), want);
        }
    }

    #[test]
    fn pruning_matches_brute_force_and_saves_work() {
        // Two independent races (different destinations): 2 × 2 = 4
        // schedules. Brute force interleaves the independent deliveries;
        // sleep sets + eager delivery must not change the schedule set.
        let mut b = ProgramBuilder::new(6);
        for (dst, srcs) in [(0u32, [1u32, 2]), (3, [4, 5])] {
            for s in srcs {
                b.rank(Rank(s)).send(Rank(dst), Tag(0), 1);
            }
            for _ in srcs {
                b.rank(Rank(dst)).recv_any(TagSpec::Tag(Tag(0)));
            }
        }
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default());
        let brute = explore(&p, &ExploreConfig::default().brute_force());
        assert!(pruned.is_complete() && brute.is_complete());
        assert_eq!(pruned.schedules.len(), 4);
        assert_eq!(id_set(&pruned), id_set(&brute));
        assert!(
            pruned.stats.branches < brute.stats.branches,
            "reduction saved no work: {} vs {}",
            pruned.stats.branches,
            brute.stats.branches
        );
    }

    #[test]
    fn wildcard_can_starve_a_specific_receive_into_deadlock() {
        // recv(ANY) then recv(src=1): if the wildcard eats rank 1's only
        // message, the specific receive starves. One completing schedule,
        // at least one deadlock terminal — enumerated, not recorded.
        let mut b = ProgramBuilder::new(3);
        b.rank(Rank(1)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(2)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(0))
            .recv_any(TagSpec::Tag(Tag(0)))
            .recv(Rank(1), TagSpec::Tag(Tag(0)));
        let p = b.build();
        let report = explore(&p, &ExploreConfig::default());
        assert_eq!(report.schedules.len(), 1);
        assert!(report.stats.deadlocks >= 1);
        assert!(report.is_complete());
        let brute = explore(&p, &ExploreConfig::default().brute_force());
        assert_eq!(id_set(&report), id_set(&brute));
    }

    #[test]
    fn schedule_budget_truncates() {
        let cfg = ExploreConfig::with_budget(5);
        let report = explore(&message_race(6), &cfg);
        assert_eq!(report.schedules.len(), 5);
        assert!(report.stats.truncated);
        assert!(!report.is_complete());
    }

    #[test]
    fn branch_budget_truncates() {
        let cfg = ExploreConfig {
            max_branches: 7,
            ..ExploreConfig::default()
        };
        let report = explore(&message_race(6), &cfg);
        assert!(report.stats.truncated);
        assert!(report.stats.branches <= 8);
    }

    #[test]
    fn frontier_cap_degrades_but_still_explores() {
        let cfg = ExploreConfig {
            max_frontier: 1,
            ..ExploreConfig::default()
        };
        let report = explore(&message_race(5), &cfg);
        assert!(report.stats.truncated);
        assert!(report.stats.dropped > 0);
        assert!(!report.schedules.is_empty());
        assert!(report.schedules.len() < 24);
    }

    #[test]
    fn explored_schedules_replay_to_themselves() {
        let p = message_race(5);
        let report = explore(&p, &ExploreConfig::default());
        for s in &report.schedules {
            let t = simulate_scheduled(&p, &SimConfig::with_nd_percent(100.0, 7), s).unwrap();
            assert_eq!(Schedule::from_trace(&t).id(), s.id());
            t.validate().unwrap();
        }
    }

    #[test]
    fn sampled_runs_land_inside_the_explored_set() {
        let p = message_race(5);
        let report = explore(&p, &ExploreConfig::default());
        let ids = id_set(&report);
        for seed in 0..200u64 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            assert!(
                ids.contains(&Schedule::from_trace(&t).id().0),
                "seed {seed} sampled an unenumerated schedule"
            );
        }
    }

    #[test]
    fn nonblocking_waitall_race_enumerates_like_blocking() {
        // Same race expressed with irecv_any + waitall: the schedule
        // space is identical (matching, not completion, is what varies).
        let n = 4u32;
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        {
            let mut r0 = b.rank(Rank(0));
            let reqs: Vec<_> = (1..n).map(|_| r0.irecv_any(TagSpec::Any)).collect();
            r0.waitall(reqs);
        }
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default());
        let brute = explore(&p, &ExploreConfig::default().brute_force());
        assert_eq!(pruned.schedules.len(), 6);
        assert_eq!(id_set(&pruned), id_set(&brute));
    }

    #[test]
    fn ssend_sync_chains_explore_cleanly() {
        // Synchronous sends racing into a wildcard receiver: the sender
        // wake-up chain rides through the explorer's match sites.
        let n = 4u32;
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).ssend(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let p = b.build();
        let pruned = explore(&p, &ExploreConfig::default());
        let brute = explore(&p, &ExploreConfig::default().brute_force());
        assert_eq!(pruned.schedules.len(), 6);
        assert_eq!(id_set(&pruned), id_set(&brute));
        for s in &pruned.schedules {
            let t = simulate_scheduled(&p, &SimConfig::deterministic(), s).unwrap();
            assert_eq!(Schedule::from_trace(&t).id(), s.id());
        }
    }

    #[test]
    fn tag_wildcards_alone_do_not_branch() {
        // tag-ANY receives with specific sources are deterministic given
        // per-channel FIFO order; the explorer must see a single schedule
        // without taking a single branch.
        let mut b = ProgramBuilder::new(3);
        b.rank(Rank(1)).send(Rank(0), Tag(1), 1);
        b.rank(Rank(2)).send(Rank(0), Tag(2), 1);
        b.rank(Rank(0))
            .recv(Rank(1), TagSpec::Any)
            .recv(Rank(2), TagSpec::Any);
        let p = b.build();
        let report = explore(&p, &ExploreConfig::default());
        assert_eq!(report.schedules.len(), 1);
        assert_eq!(report.stats.branches, 0);
        let brute = explore(&p, &ExploreConfig::default().brute_force());
        assert_eq!(id_set(&report), id_set(&brute));
    }

    #[test]
    fn schedule_ids_are_stable_and_distinct() {
        let p = message_race(4);
        let a = explore(&p, &ExploreConfig::default());
        let b = explore(&p, &ExploreConfig::default());
        assert_eq!(a.ids(), b.ids(), "enumeration must be deterministic");
        assert_eq!(
            a.ids().into_iter().collect::<HashSet<_>>().len(),
            a.schedules.len()
        );
        for s in &a.schedules {
            assert_eq!(format!("{}", s.id()).len(), 16);
        }
    }

    #[test]
    fn flush_explore_metrics_reports_the_walk() {
        let m = MetricsRegistry::new();
        let report = explore(&message_race(4), &ExploreConfig::default());
        flush_explore_metrics(&m, &report.stats);
        let rep = m.report();
        assert_eq!(
            rep.counter("explore/schedules"),
            Some(report.stats.schedules)
        );
        assert_eq!(rep.counter("explore/branches"), Some(report.stats.branches));
    }
}
