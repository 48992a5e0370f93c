//! The event-graph data structure.
//!
//! An *event graph* (paper §II-A) is a graph model of an execution's
//! communication: nodes are MPI events, intra-process edges encode logical
//! (program) order, and inter-process edges encode matched point-to-point
//! messages. Event graphs encode time logically, so two runs of the same
//! program produce structurally comparable graphs whose differences are
//! exactly the communication differences between the runs.

use anacin_mpisim::stack::CallStackId;
use anacin_mpisim::trace::{EventId, EventKind, Trace};
use anacin_mpisim::types::{Rank, SimTime};
use serde::{Deserialize, Serialize};

/// Dense node identifier within one [`EventGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The modelled event classes (the paper's node colours: green =
/// start/end, blue = send, red = receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Process start (`MPI_Init`).
    Init,
    /// Process end (`MPI_Finalize`).
    Finalize,
    /// Message injection.
    Send {
        /// Destination rank.
        dst: Rank,
    },
    /// Message receipt.
    Recv {
        /// Matched source rank.
        src: Rank,
        /// Whether the receive was posted with a wildcard.
        wildcard: bool,
    },
}

impl NodeKind {
    /// Short mnemonic: "init" / "finalize" / "send" / "recv".
    pub fn mnemonic(&self) -> &'static str {
        match self {
            NodeKind::Init => "init",
            NodeKind::Finalize => "finalize",
            NodeKind::Send { .. } => "send",
            NodeKind::Recv { .. } => "recv",
        }
    }

    /// True for receive nodes.
    pub fn is_recv(&self) -> bool {
        matches!(self, NodeKind::Recv { .. })
    }

    /// True for send nodes.
    pub fn is_send(&self) -> bool {
        matches!(self, NodeKind::Send { .. })
    }
}

/// One node of the event graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Rank the event occurred on.
    pub rank: Rank,
    /// Index of the event within its rank (program order).
    pub rank_idx: u32,
    /// Event class.
    pub kind: NodeKind,
    /// Simulated completion time.
    pub time: SimTime,
    /// Call path that issued the event.
    pub stack: CallStackId,
}

/// Edge classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Logical precedence between consecutive events on one rank.
    Program,
    /// A matched point-to-point message (send → recv).
    Message,
}

/// One adjacency direction in CSR (compressed sparse row) form:
/// `targets[offsets[i]..offsets[i+1]]` are node `i`'s edges, in insertion
/// order. Two flat allocations total, where the previous
/// `Vec<Vec<(NodeId, EdgeKind)>>` layout paid one per node — and the flat
/// buffers are what the artifact store serializes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CsrEdges {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<(NodeId, EdgeKind)>,
}

impl CsrEdges {
    #[inline]
    fn row(&self, i: usize) -> &[(NodeId, EdgeKind)] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Build the out/in CSR pair from an edge list. Per-node edge order is the
/// edge-list order restricted to that node — callers control ordering by
/// ordering the list (the graph builder emits all program edges, then
/// message edges in trace order, matching the historical nested-`Vec`
/// layout exactly).
pub(crate) fn build_csr_pair(n: usize, edges: &[(u32, u32, EdgeKind)]) -> (CsrEdges, CsrEdges) {
    let mut out_offsets = vec![0u32; n + 1];
    let mut in_offsets = vec![0u32; n + 1];
    for &(f, t, _) in edges {
        out_offsets[f as usize + 1] += 1;
        in_offsets[t as usize + 1] += 1;
    }
    for i in 0..n {
        out_offsets[i + 1] += out_offsets[i];
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut out_cursor: Vec<u32> = out_offsets[..n].to_vec();
    let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
    let filler = (NodeId(0), EdgeKind::Program);
    let mut out_targets = vec![filler; edges.len()];
    let mut in_targets = vec![filler; edges.len()];
    for &(f, t, k) in edges {
        let oc = &mut out_cursor[f as usize];
        out_targets[*oc as usize] = (NodeId(t), k);
        *oc += 1;
        let ic = &mut in_cursor[t as usize];
        in_targets[*ic as usize] = (NodeId(f), k);
        *ic += 1;
    }
    (
        CsrEdges {
            offsets: out_offsets,
            targets: out_targets,
        },
        CsrEdges {
            offsets: in_offsets,
            targets: in_targets,
        },
    )
}

/// The event graph of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventGraph {
    pub(crate) world_size: u32,
    pub(crate) nodes: Vec<Node>,
    /// `rank_base[r]` is the NodeId offset of rank r's first event.
    pub(crate) rank_base: Vec<u32>,
    pub(crate) out: CsrEdges,
    pub(crate) incoming: CsrEdges,
}

impl EventGraph {
    /// Build the event graph of a trace.
    ///
    /// Nodes are created for every traced event, rank-major, so node ids
    /// are stable across runs of the same program: two runs differ only in
    /// their *message edges* (and in which receives matched which sources),
    /// which is precisely the communication non-determinism the kernel
    /// distance measures.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_trace_with_metrics(trace, None)
    }

    /// [`EventGraph::from_trace`], additionally flushing node/edge counts
    /// into `metrics` (`graph/nodes`, `graph/edges`, `graph/message_edges`)
    /// when a registry is supplied. Construction is unaffected.
    pub fn from_trace_with_metrics(
        trace: &Trace,
        metrics: Option<&anacin_obs::MetricsRegistry>,
    ) -> Self {
        // Per-graph wall time (nests as `campaign/graph/build` when the
        // campaign runner builds on its own thread, plain `build` on its
        // graph workers, which have no span stack), so traced timelines
        // show each run's build cost rather than one opaque stage total.
        let _span = metrics.map(|m| m.span("build"));
        let world = trace.world_size();
        let mut nodes = Vec::with_capacity(trace.total_events());
        let mut rank_base = Vec::with_capacity(world as usize);
        for r in 0..world {
            rank_base
                .push(u32::try_from(nodes.len()).expect("event graph exceeds u32 node-id space"));
            for (i, ev) in trace.rank_events(Rank(r)).iter().enumerate() {
                let kind = match ev.kind {
                    EventKind::Init => NodeKind::Init,
                    EventKind::Finalize => NodeKind::Finalize,
                    EventKind::Send { dst, .. } => NodeKind::Send { dst },
                    EventKind::Recv { src, wildcard, .. } => NodeKind::Recv { src, wildcard },
                };
                nodes.push(Node {
                    rank: Rank(r),
                    rank_idx: i as u32,
                    kind,
                    time: ev.time,
                    stack: ev.stack,
                });
            }
        }
        let n = nodes.len();
        let _ = u32::try_from(n).expect("event graph exceeds u32 node-id space");
        let id_of = |eid: EventId| NodeId(rank_base[eid.rank.index()] + eid.idx);
        // Streaming two-pass CSR construction: the trace itself is the
        // edge list. Pass 1 counts per-node degrees, pass 2 fills targets
        // through cursors — emitting edges in the canonical order (every
        // program edge first, rank by rank, then message edges in
        // trace-iteration order), so per-node adjacency is bit-identical
        // to materialising the ordered edge list and feeding it through
        // `build_csr_pair`, without ever allocating that list (a third of
        // the build's former peak memory at tens of millions of events).
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for r in 0..world {
            let base = rank_base[r as usize] as usize;
            let len = trace.rank_events(Rank(r)).len();
            for i in 0..len.saturating_sub(1) {
                out_offsets[base + i + 1] += 1;
                in_offsets[base + i + 2] += 1;
            }
        }
        for (id, ev) in trace.iter() {
            if let EventKind::Recv { send_event, .. } = ev.kind {
                out_offsets[id_of(send_event).index() + 1] += 1;
                in_offsets[id_of(id).index() + 1] += 1;
            }
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let edge_count = out_offsets[n] as usize;
        let mut out_cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
        let filler = (NodeId(0), EdgeKind::Program);
        let mut out_targets = vec![filler; edge_count];
        let mut in_targets = vec![filler; edge_count];
        let mut push = |f: u32, t: u32, k: EdgeKind| {
            let oc = &mut out_cursor[f as usize];
            out_targets[*oc as usize] = (NodeId(t), k);
            *oc += 1;
            let ic = &mut in_cursor[t as usize];
            in_targets[*ic as usize] = (NodeId(f), k);
            *ic += 1;
        };
        for r in 0..world {
            let base = rank_base[r as usize];
            let len = trace.rank_events(Rank(r)).len() as u32;
            for i in 0..len.saturating_sub(1) {
                push(base + i, base + i + 1, EdgeKind::Program);
            }
        }
        for (id, ev) in trace.iter() {
            if let EventKind::Recv { send_event, .. } = ev.kind {
                push(id_of(send_event).0, id_of(id).0, EdgeKind::Message);
            }
        }
        let (out, incoming) = (
            CsrEdges {
                offsets: out_offsets,
                targets: out_targets,
            },
            CsrEdges {
                offsets: in_offsets,
                targets: in_targets,
            },
        );
        let graph = EventGraph {
            world_size: world,
            nodes,
            rank_base,
            out,
            incoming,
        };
        if let Some(m) = metrics {
            m.counter("graph/nodes").add(graph.node_count() as u64);
            m.counter("graph/edges").add(graph.edge_count() as u64);
            m.counter("graph/message_edges")
                .add(graph.message_edge_count() as u64);
        }
        graph
    }

    /// Number of ranks in the traced job.
    pub fn world_size(&self) -> u32 {
        self.world_size
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (program + message).
    pub fn edge_count(&self) -> usize {
        self.out.targets.len()
    }

    /// Number of message edges.
    pub fn message_edge_count(&self) -> usize {
        self.out
            .targets
            .iter()
            .filter(|(_, k)| *k == EdgeKind::Message)
            .count()
    }

    /// A node by id.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes, indexable by `NodeId::index`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterate node ids `0..n`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        self.out.row(id.index())
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        self.incoming.row(id.index())
    }

    /// All edges as `(from, to, kind)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeKind)> + '_ {
        (0..self.nodes.len()).flat_map(move |i| {
            self.out
                .row(i)
                .iter()
                .map(move |&(to, kind)| (NodeId(i as u32), to, kind))
        })
    }

    /// The node id of rank `r`'s `i`-th event.
    pub fn id_at(&self, rank: Rank, idx: u32) -> NodeId {
        NodeId(self.rank_base[rank.index()] + idx)
    }

    /// Node ids of one rank, in program order.
    pub fn rank_nodes(&self, rank: Rank) -> impl Iterator<Item = NodeId> + '_ {
        let base = self.rank_base[rank.index()];
        let end = self
            .rank_base
            .get(rank.index() + 1)
            .copied()
            .unwrap_or(self.nodes.len() as u32);
        (base..end).map(NodeId)
    }

    /// The sequence of matched sources observed by `rank`'s receives — the
    /// graph-side view of [`Trace::match_order`].
    pub fn match_order(&self, rank: Rank) -> Vec<Rank> {
        self.rank_nodes(rank)
            .filter_map(|id| match self.node(id).kind {
                NodeKind::Recv { src, .. } => Some(src),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_mpisim::prelude::*;

    fn race_graph(n: u32, nd: f64, seed: u64) -> EventGraph {
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn structure_of_message_race() {
        let g = race_graph(4, 0.0, 0);
        // rank 0: init + 3 recvs + finalize = 5; ranks 1..3: init+send+finalize = 3 each.
        assert_eq!(g.node_count(), 5 + 3 * 3);
        assert_eq!(g.world_size(), 4);
        assert_eq!(g.message_edge_count(), 3);
        // Program edges: (5-1) + 3*(3-1) = 10.
        assert_eq!(g.edge_count(), 10 + 3);
    }

    #[test]
    fn node_ids_stable_across_runs() {
        let g1 = race_graph(6, 100.0, 1);
        let g2 = race_graph(6, 100.0, 2);
        assert_eq!(g1.node_count(), g2.node_count());
        for (a, b) in g1.nodes().iter().zip(g2.nodes().iter()) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.rank_idx, b.rank_idx);
            assert_eq!(a.kind.mnemonic(), b.kind.mnemonic());
        }
    }

    #[test]
    fn message_edges_reflect_matching() {
        let g = race_graph(4, 0.0, 0);
        for (from, to, kind) in g.edges() {
            if kind == EdgeKind::Message {
                assert!(g.node(from).kind.is_send());
                match g.node(to).kind {
                    NodeKind::Recv { src, .. } => assert_eq!(src, g.node(from).rank),
                    ref k => panic!("message edge into {k:?}"),
                }
            }
        }
    }

    #[test]
    fn rank_nodes_cover_graph() {
        let g = race_graph(5, 0.0, 0);
        let total: usize = (0..5).map(|r| g.rank_nodes(Rank(r)).count()).sum();
        assert_eq!(total, g.node_count());
        // Last rank's range ends at node_count.
        let last: Vec<_> = g.rank_nodes(Rank(4)).collect();
        assert_eq!(last.last().unwrap().index(), g.node_count() - 1);
    }

    #[test]
    fn match_order_matches_trace() {
        let mut b = ProgramBuilder::new(4);
        for r in 1..4 {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..4 {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, 9)).unwrap();
        let g = EventGraph::from_trace(&t);
        assert_eq!(g.match_order(Rank(0)), t.match_order(Rank(0)));
    }

    #[test]
    fn in_and_out_edges_are_consistent() {
        let g = race_graph(6, 100.0, 3);
        let mut out_pairs: Vec<_> = g.edges().collect();
        let mut in_pairs: Vec<_> = g
            .node_ids()
            .flat_map(|to| {
                g.in_edges(to)
                    .iter()
                    .map(move |&(from, kind)| (from, to, kind))
            })
            .collect();
        out_pairs.sort();
        in_pairs.sort();
        assert_eq!(out_pairs, in_pairs);
    }

    /// One adjacency row per node in the pre-CSR layout.
    type NaiveAdjacency = Vec<Vec<(NodeId, EdgeKind)>>;

    /// The pre-CSR adjacency layout, rebuilt independently: one `Vec` per
    /// node, program edges pushed first (rank by rank), then message edges
    /// in trace-iteration order.
    fn naive_layout(t: &Trace) -> (NaiveAdjacency, NaiveAdjacency) {
        let world = t.world_size();
        let mut rank_base = Vec::new();
        let mut n = 0u32;
        for r in 0..world {
            rank_base.push(n);
            n += t.rank_events(Rank(r)).len() as u32;
        }
        let id_of =
            |eid: anacin_mpisim::trace::EventId| NodeId(rank_base[eid.rank.index()] + eid.idx);
        let mut out = vec![Vec::new(); n as usize];
        let mut inc = vec![Vec::new(); n as usize];
        for r in 0..world {
            let base = rank_base[r as usize];
            let len = t.rank_events(Rank(r)).len() as u32;
            for i in 0..len.saturating_sub(1) {
                out[(base + i) as usize].push((NodeId(base + i + 1), EdgeKind::Program));
                inc[(base + i + 1) as usize].push((NodeId(base + i), EdgeKind::Program));
            }
        }
        for (id, ev) in t.iter() {
            if let anacin_mpisim::trace::EventKind::Recv { send_event, .. } = ev.kind {
                let s = id_of(send_event);
                let d = id_of(id);
                out[s.index()].push((d, EdgeKind::Message));
                inc[d.index()].push((s, EdgeKind::Message));
            }
        }
        (out, inc)
    }

    #[test]
    fn csr_layout_equals_naive_layout_including_order() {
        // All-to-all under heavy ND stresses mixed program/message
        // adjacency; the CSR rows must match the old nested-Vec layout
        // element for element, order included.
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
        for seed in 0..5 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            let g = EventGraph::from_trace(&t);
            let (out, inc) = naive_layout(&t);
            assert_eq!(g.node_count(), out.len());
            for id in g.node_ids() {
                assert_eq!(g.out_edges(id), &out[id.index()][..], "out {id:?}");
                assert_eq!(g.in_edges(id), &inc[id.index()][..], "in {id:?}");
            }
        }
    }

    #[test]
    fn streaming_csr_equals_legacy_edge_list_path() {
        // The legacy builder materialised the full ordered edge list and
        // fed it through `build_csr_pair`; the streaming builder counts
        // and fills directly from the trace. The two must agree byte for
        // byte — offsets and targets both.
        let n = 5u32;
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
        for seed in 0..5 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            let g = EventGraph::from_trace(&t);
            // Legacy path, reproduced: materialise the ordered edge list.
            let world = t.world_size();
            let mut rank_base = Vec::new();
            let mut count = 0u32;
            for r in 0..world {
                rank_base.push(count);
                count += t.rank_events(Rank(r)).len() as u32;
            }
            let id_of =
                |eid: anacin_mpisim::trace::EventId| NodeId(rank_base[eid.rank.index()] + eid.idx);
            let mut edges: Vec<(u32, u32, EdgeKind)> = Vec::new();
            for r in 0..world {
                let base = rank_base[r as usize];
                let len = t.rank_events(Rank(r)).len() as u32;
                for i in 0..len.saturating_sub(1) {
                    edges.push((base + i, base + i + 1, EdgeKind::Program));
                }
            }
            for (id, ev) in t.iter() {
                if let anacin_mpisim::trace::EventKind::Recv { send_event, .. } = ev.kind {
                    edges.push((id_of(send_event).0, id_of(id).0, EdgeKind::Message));
                }
            }
            let (out, inc) = build_csr_pair(count as usize, &edges);
            assert_eq!(g.out, out, "seed {seed}: out CSR diverged");
            assert_eq!(g.incoming, inc, "seed {seed}: in CSR diverged");
        }
    }

    #[test]
    fn id_at_round_trips() {
        let g = race_graph(4, 0.0, 0);
        for id in g.node_ids() {
            let n = g.node(id);
            assert_eq!(g.id_at(n.rank, n.rank_idx), id);
        }
    }
}
