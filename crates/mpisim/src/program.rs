//! Programs and the builder DSL used to express communication patterns.
//!
//! A [`Program`] is the static description of one MPI job: for each rank, a
//! straight-line list of [`Op`]s, plus the interned call-path table. The
//! mini-applications in `anacin-miniapps` are functions from configuration
//! to `Program`.

use crate::ops::Op;
use crate::stack::{CallStackId, CallStackTable};
use crate::types::{Rank, ReqSlot, SrcSpec, Tag, TagSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete MPI job description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    world_size: u32,
    rank_ops: Vec<Vec<Op>>,
    stacks: CallStackTable,
}

impl Program {
    /// Number of ranks in the job.
    pub fn world_size(&self) -> u32 {
        self.world_size
    }

    /// The op list of one rank.
    ///
    /// # Panics
    /// Panics when `rank` is out of range.
    pub fn ops(&self, rank: Rank) -> &[Op] {
        &self.rank_ops[rank.index()]
    }

    /// The interned call-path table.
    pub fn stacks(&self) -> &CallStackTable {
        &self.stacks
    }

    /// Total number of operations across all ranks.
    pub fn total_ops(&self) -> usize {
        self.rank_ops.iter().map(Vec::len).sum()
    }

    /// Total number of messages the program will inject.
    pub fn total_sends(&self) -> usize {
        self.rank_ops
            .iter()
            .flatten()
            .filter(|op| op.is_send())
            .count()
    }

    /// Total number of receives the program posts.
    pub fn total_receives(&self) -> usize {
        self.rank_ops
            .iter()
            .flatten()
            .filter(|op| op.is_receive())
            .count()
    }

    /// Statically check request usage: every `isend`/`irecv` request must
    /// be waited on exactly once, and waits may only reference created
    /// slots. Catches the classic student bugs (forgotten `MPI_Wait`,
    /// double wait) before a run produces a confusing trace.
    pub fn check_requests(&self) -> Result<(), RequestError> {
        for (r, ops) in self.rank_ops.iter().enumerate() {
            let rank = Rank(r as u32);
            let mut created: Vec<ReqSlot> = Vec::new();
            let mut waited: Vec<ReqSlot> = Vec::new();
            for op in ops {
                match op {
                    Op::Isend { req, .. } | Op::Irecv { req, .. } => created.push(*req),
                    Op::Wait { req, .. } => waited.push(*req),
                    Op::Waitall { reqs, .. } => waited.extend(reqs.iter().copied()),
                    _ => {}
                }
            }
            for &w in &waited {
                if !created.contains(&w) {
                    return Err(RequestError::WaitOnUnknown { rank, req: w });
                }
            }
            let mut sorted = waited.clone();
            sorted.sort_by_key(|s| s.0);
            for pair in sorted.windows(2) {
                if pair[0] == pair[1] {
                    return Err(RequestError::DoubleWait { rank, req: pair[0] });
                }
            }
            for &c in &created {
                if !waited.contains(&c) {
                    return Err(RequestError::NeverWaited { rank, req: c });
                }
            }
        }
        Ok(())
    }

    /// Check that every rank receives exactly as many messages as are sent
    /// to it. An imbalance guarantees either a deadlock (missing message)
    /// or an unmatched send, so surfacing it early gives students a much
    /// better diagnostic than a hung run.
    pub fn check_balance(&self) -> Result<(), BalanceError> {
        let n = self.world_size as usize;
        let mut inbound = vec![0i64; n];
        let mut posted = vec![0i64; n];
        for (r, ops) in self.rank_ops.iter().enumerate() {
            for op in ops {
                match op {
                    Op::Send { dst, .. } | Op::Ssend { dst, .. } | Op::Isend { dst, .. } => {
                        inbound[dst.index()] += 1;
                    }
                    Op::Recv { .. } | Op::Irecv { .. } => {
                        posted[r] += 1;
                    }
                    _ => {}
                }
            }
        }
        for r in 0..n {
            if inbound[r] != posted[r] {
                return Err(BalanceError {
                    rank: Rank(r as u32),
                    inbound: inbound[r] as u64,
                    posted: posted[r] as u64,
                });
            }
        }
        Ok(())
    }
}

/// A request-usage defect found by [`Program::check_requests`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A wait references a slot no isend/irecv created.
    WaitOnUnknown {
        /// The offending rank.
        rank: Rank,
        /// The unknown slot.
        req: ReqSlot,
    },
    /// The same request is waited on more than once.
    DoubleWait {
        /// The offending rank.
        rank: Rank,
        /// The slot waited twice.
        req: ReqSlot,
    },
    /// A request is created but never waited on — for receives this means
    /// a matched message whose completion is never observed.
    NeverWaited {
        /// The offending rank.
        rank: Rank,
        /// The orphaned slot.
        req: ReqSlot,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::WaitOnUnknown { rank, req } => {
                write!(
                    f,
                    "{rank} waits on slot {} which no isend/irecv created",
                    req.0
                )
            }
            RequestError::DoubleWait { rank, req } => {
                write!(f, "{rank} waits on slot {} more than once", req.0)
            }
            RequestError::NeverWaited { rank, req } => {
                write!(f, "{rank} never waits on request slot {}", req.0)
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// A send/receive count mismatch detected by [`Program::check_balance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceError {
    /// The rank whose books do not balance.
    pub rank: Rank,
    /// Messages addressed to the rank.
    pub inbound: u64,
    /// Receives the rank posts.
    pub posted: u64,
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} is sent {} message(s) but posts {} receive(s)",
            self.rank, self.inbound, self.posted
        )
    }
}

impl std::error::Error for BalanceError {}

/// Builder for [`Program`]s.
///
/// See also [`Program::check_requests`] for static request-usage checks.
///
/// ```
/// use anacin_mpisim::program::ProgramBuilder;
/// use anacin_mpisim::types::{Rank, Tag};
///
/// let mut b = ProgramBuilder::new(2);
/// b.rank(Rank(0)).send(Rank(1), Tag(0), 8);
/// b.rank(Rank(1)).recv_any(Tag(0).into());
/// let program = b.build();
/// assert_eq!(program.total_sends(), 1);
/// assert!(program.check_balance().is_ok());
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    world_size: u32,
    rank_ops: Vec<Vec<Op>>,
    stacks: CallStackTable,
    req_counters: Vec<u32>,
    contexts: Vec<Vec<String>>,
    /// Per rank: the id of `context + [leaf]` for each leaf interned
    /// since the rank's context last changed (at most one entry per MPI
    /// mnemonic), so repeated ops skip building and hashing the path.
    leaf_ids: Vec<Vec<(&'static str, CallStackId)>>,
}

impl ProgramBuilder {
    /// Start a program for `world_size` ranks.
    ///
    /// # Panics
    /// Panics when `world_size` is zero.
    pub fn new(world_size: u32) -> Self {
        assert!(world_size > 0, "world_size must be positive");
        ProgramBuilder {
            world_size,
            rank_ops: vec![Vec::new(); world_size as usize],
            stacks: CallStackTable::new(),
            req_counters: vec![0; world_size as usize],
            contexts: vec![Vec::new(); world_size as usize],
            leaf_ids: vec![Vec::new(); world_size as usize],
        }
    }

    /// Access a per-rank builder.
    ///
    /// # Panics
    /// Panics when `rank` is out of range.
    pub fn rank(&mut self, rank: Rank) -> RankBuilder<'_> {
        assert!(
            rank.0 < self.world_size,
            "{rank} out of range for world size {}",
            self.world_size
        );
        RankBuilder {
            builder: self,
            rank,
        }
    }

    /// Iterate a closure over every rank (convenient for SPMD patterns).
    pub fn for_each_rank(&mut self, mut f: impl FnMut(RankBuilder<'_>)) {
        for r in 0..self.world_size {
            f(self.rank(Rank(r)));
        }
    }

    /// Finalize the program.
    pub fn build(self) -> Program {
        Program {
            world_size: self.world_size,
            rank_ops: self.rank_ops,
            stacks: self.stacks,
        }
    }

    /// The id of the rank's current context with `leaf` appended. The
    /// table interns each path once, so the memoised id is the one
    /// interning would return.
    fn intern_with_leaf(&mut self, rank: Rank, leaf: &'static str) -> CallStackId {
        let cache = &mut self.leaf_ids[rank.index()];
        if let Some(&(_, id)) = cache.iter().find(|(l, _)| *l == leaf) {
            return id;
        }
        let ctx = &self.contexts[rank.index()];
        let mut frames: Vec<String> = Vec::with_capacity(ctx.len() + 1);
        frames.extend(ctx.iter().cloned());
        frames.push(leaf.to_string());
        let id = self.stacks.intern(crate::stack::CallStack::new(frames));
        cache.push((leaf, id));
        id
    }

    /// The rank's context, invalidating its memoised leaf ids.
    fn context_mut(&mut self, rank: Rank) -> &mut Vec<String> {
        self.leaf_ids[rank.index()].clear();
        &mut self.contexts[rank.index()]
    }
}

/// Per-rank view into a [`ProgramBuilder`].
///
/// The builder maintains a *call-path context* per rank: frames pushed with
/// [`RankBuilder::push_frame`] prefix every subsequently issued MPI op, and
/// the MPI mnemonic is appended automatically as the leaf frame. This is
/// how mini-applications attach realistic call paths to their traffic.
pub struct RankBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    rank: Rank,
}

impl<'a> RankBuilder<'a> {
    /// The rank this builder appends to.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Push a context frame (e.g. a function name) for subsequent ops.
    pub fn push_frame(&mut self, frame: impl Into<String>) -> &mut Self {
        self.builder.context_mut(self.rank).push(frame.into());
        self
    }

    /// Pop the innermost context frame.
    pub fn pop_frame(&mut self) -> &mut Self {
        self.builder.context_mut(self.rank).pop();
        self
    }

    /// Replace the whole context.
    pub fn set_context<I, S>(&mut self, frames: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        *self.builder.context_mut(self.rank) = frames.into_iter().map(Into::into).collect();
        self
    }

    /// Run `f` with `frame` pushed, popping it afterwards.
    pub fn scoped(&mut self, frame: impl Into<String>, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.push_frame(frame);
        f(self);
        self.pop_frame();
        self
    }

    fn push_op(&mut self, op: Op) {
        self.builder.rank_ops[self.rank.index()].push(op);
    }

    fn alloc_req(&mut self) -> ReqSlot {
        let c = &mut self.builder.req_counters[self.rank.index()];
        let slot = ReqSlot(*c);
        *c += 1;
        slot
    }

    /// Blocking send of `bytes` bytes to `dst` with `tag`.
    pub fn send(&mut self, dst: Rank, tag: Tag, bytes: u64) -> &mut Self {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Send");
        self.push_op(Op::Send {
            dst,
            tag,
            bytes,
            stack,
        });
        self
    }

    /// Synchronous (rendezvous) send: the op completes only once the
    /// receiver matches the message. Two ranks `ssend`-ing to each other
    /// before receiving is the textbook deadlock.
    pub fn ssend(&mut self, dst: Rank, tag: Tag, bytes: u64) -> &mut Self {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Ssend");
        self.push_op(Op::Ssend {
            dst,
            tag,
            bytes,
            stack,
        });
        self
    }

    /// `MPI_Sendrecv` sugar: a nonblocking send and a nonblocking receive
    /// posted together and waited on jointly — the deadlock-free exchange
    /// idiom.
    pub fn sendrecv(&mut self, dst: Rank, src: Rank, tag: Tag, bytes: u64) -> &mut Self {
        let s = self.isend(dst, tag, bytes);
        let r = self.irecv(src, TagSpec::Tag(tag));
        self.waitall(vec![s, r]);
        self
    }

    /// Nonblocking send; returns the request slot to wait on.
    pub fn isend(&mut self, dst: Rank, tag: Tag, bytes: u64) -> ReqSlot {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Isend");
        let req = self.alloc_req();
        self.push_op(Op::Isend {
            dst,
            tag,
            bytes,
            stack,
            req,
        });
        req
    }

    /// Blocking receive from a specific source.
    pub fn recv(&mut self, src: Rank, tag: TagSpec) -> &mut Self {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Recv");
        self.push_op(Op::Recv {
            src: SrcSpec::Rank(src),
            tag,
            stack,
        });
        self
    }

    /// Blocking wildcard receive (`MPI_ANY_SOURCE`).
    pub fn recv_any(&mut self, tag: TagSpec) -> &mut Self {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Recv");
        self.push_op(Op::Recv {
            src: SrcSpec::Any,
            tag,
            stack,
        });
        self
    }

    /// Nonblocking receive from a specific source.
    pub fn irecv(&mut self, src: Rank, tag: TagSpec) -> ReqSlot {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Irecv");
        let req = self.alloc_req();
        self.push_op(Op::Irecv {
            src: SrcSpec::Rank(src),
            tag,
            stack,
            req,
        });
        req
    }

    /// Nonblocking wildcard receive (`MPI_ANY_SOURCE`).
    pub fn irecv_any(&mut self, tag: TagSpec) -> ReqSlot {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Irecv");
        let req = self.alloc_req();
        self.push_op(Op::Irecv {
            src: SrcSpec::Any,
            tag,
            stack,
            req,
        });
        req
    }

    /// Block until `req` completes.
    pub fn wait(&mut self, req: ReqSlot) -> &mut Self {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Wait");
        self.push_op(Op::Wait { req, stack });
        self
    }

    /// Block until all `reqs` complete.
    pub fn waitall(&mut self, reqs: Vec<ReqSlot>) -> &mut Self {
        let stack = self.builder.intern_with_leaf(self.rank, "MPI_Waitall");
        self.push_op(Op::Waitall { reqs, stack });
        self
    }

    /// Local computation for `duration_ns` simulated nanoseconds.
    pub fn compute(&mut self, duration_ns: u64) -> &mut Self {
        self.push_op(Op::Compute { duration_ns });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_pingpong() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(0), 4)
            .recv(Rank(1), Tag(1).into());
        b.rank(Rank(1))
            .recv(Rank(0), Tag(0).into())
            .send(Rank(0), Tag(1), 4);
        let p = b.build();
        assert_eq!(p.world_size(), 2);
        assert_eq!(p.total_ops(), 4);
        assert_eq!(p.total_sends(), 2);
        assert_eq!(p.total_receives(), 2);
        assert!(p.check_balance().is_ok());
    }

    #[test]
    fn balance_detects_missing_receive() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).send(Rank(1), Tag(0), 4);
        let p = b.build();
        let err = p.check_balance().unwrap_err();
        assert_eq!(err.rank, Rank(1));
        assert_eq!(err.inbound, 1);
        assert_eq!(err.posted, 0);
        assert!(err.to_string().contains("rank 1"));
    }

    #[test]
    fn request_slots_are_per_rank_and_sequential() {
        let mut b = ProgramBuilder::new(2);
        let r0a = b.rank(Rank(0)).isend(Rank(1), Tag(0), 1);
        let r0b = b.rank(Rank(0)).irecv(Rank(1), Tag(0).into());
        let r1a = b.rank(Rank(1)).irecv_any(TagSpec::Any);
        assert_eq!(r0a, ReqSlot(0));
        assert_eq!(r0b, ReqSlot(1));
        assert_eq!(r1a, ReqSlot(0));
    }

    #[test]
    fn context_frames_shape_call_paths() {
        let mut b = ProgramBuilder::new(1);
        {
            let mut rb = b.rank(Rank(0));
            rb.push_frame("main");
            rb.scoped("exchange_halo", |rb| {
                rb.send(Rank(0), Tag(0), 1);
            });
            rb.recv(Rank(0), Tag(0).into());
        }
        let p = b.build();
        let ops = p.ops(Rank(0));
        let send_stack = p.stacks().resolve(ops[0].stack().unwrap());
        assert_eq!(send_stack.frames(), ["main", "exchange_halo", "MPI_Send"]);
        let recv_stack = p.stacks().resolve(ops[1].stack().unwrap());
        assert_eq!(recv_stack.frames(), ["main", "MPI_Recv"]);
    }

    #[test]
    fn memoised_leaf_ids_follow_context_changes() {
        let mut b = ProgramBuilder::new(1);
        {
            let mut rb = b.rank(Rank(0));
            rb.push_frame("a");
            rb.send(Rank(0), Tag(0), 1).send(Rank(0), Tag(0), 1);
            rb.push_frame("b").send(Rank(0), Tag(0), 1);
            rb.pop_frame().send(Rank(0), Tag(0), 1);
            rb.set_context(["c"]).send(Rank(0), Tag(0), 1);
            rb.recv(Rank(0), Tag(0).into());
        }
        let p = b.build();
        let ids: Vec<CallStackId> = p.ops(Rank(0)).iter().filter_map(Op::stack).collect();
        let paths: Vec<String> = ids
            .iter()
            .map(|&id| p.stacks().resolve(id).to_string())
            .collect();
        assert_eq!(
            paths,
            [
                "a > MPI_Send",
                "a > MPI_Send",
                "a > b > MPI_Send",
                "a > MPI_Send",
                "c > MPI_Send",
                "c > MPI_Recv",
            ]
        );
        assert_eq!((ids[0], ids[0]), (ids[1], ids[3]));
        // unknown + the four distinct paths, each interned once.
        assert_eq!(p.stacks().len(), 5);
    }

    #[test]
    fn check_requests_accepts_clean_programs() {
        let mut b = ProgramBuilder::new(2);
        {
            let mut r0 = b.rank(Rank(0));
            let s = r0.isend(Rank(1), Tag(0), 1);
            let r = r0.irecv(Rank(1), Tag(0).into());
            r0.waitall(vec![s, r]);
        }
        b.rank(Rank(1)).sendrecv(Rank(0), Rank(0), Tag(0), 1);
        b.build().check_requests().unwrap();
    }

    #[test]
    fn check_requests_finds_forgotten_wait() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).isend(Rank(1), Tag(0), 1);
        b.rank(Rank(1)).recv(Rank(0), Tag(0).into());
        match b.build().check_requests() {
            Err(RequestError::NeverWaited { rank, req }) => {
                assert_eq!(rank, Rank(0));
                assert_eq!(req, ReqSlot(0));
            }
            other => panic!("expected NeverWaited, got {other:?}"),
        }
    }

    #[test]
    fn check_requests_finds_double_wait() {
        let mut b = ProgramBuilder::new(2);
        {
            let mut r0 = b.rank(Rank(0));
            let s = r0.isend(Rank(1), Tag(0), 1);
            r0.wait(s).wait(s);
        }
        b.rank(Rank(1)).recv(Rank(0), Tag(0).into());
        let err = b.build().check_requests().unwrap_err();
        assert!(matches!(err, RequestError::DoubleWait { .. }));
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn check_requests_finds_unknown_wait() {
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(0)).wait(ReqSlot(7));
        let err = b.build().check_requests().unwrap_err();
        assert!(matches!(err, RequestError::WaitOnUnknown { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_world_size_panics() {
        ProgramBuilder::new(0);
    }

    #[test]
    fn for_each_rank_visits_all() {
        let mut b = ProgramBuilder::new(4);
        b.for_each_rank(|mut rb| {
            rb.compute(10);
        });
        let p = b.build();
        assert_eq!(p.total_ops(), 4);
    }
}
