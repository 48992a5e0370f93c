//! Parallel Gram-matrix computation over sets of event graphs.
//!
//! A non-determinism measurement compares a *sample* of runs (the paper
//! uses 20 per setting), which needs the full kernel matrix. Features are
//! extracted once per graph on `std::thread::scope` workers pulling indices
//! from an atomic counter. The Gram matrix is then one k-way merge over
//! all sorted feature vectors (see [`gram_from_features_with_metrics`])
//! rather than `R(R+1)/2` pairwise merge-joins: same-program WL vectors
//! share only a small fraction of their ids, so most pairwise merge steps
//! would add nothing.

use crate::distance::kernel_distance;
use crate::feature::{DotKind, SparseFeatures};
use crate::kernel::GraphKernel;
use anacin_event_graph::EventGraph;
use anacin_obs::MetricsRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, RwLock};

/// A symmetric kernel (Gram) matrix over a sample of graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMatrix {
    n: usize,
    values: Vec<f64>,
    kernel_name: String,
}

impl KernelMatrix {
    /// Reassemble a matrix from its parts (the store codec's decode path).
    ///
    /// `values` must be a row-major `n × n` buffer.
    pub fn from_parts(n: usize, values: Vec<f64>, kernel_name: String) -> Self {
        assert_eq!(values.len(), n * n, "values must be n*n");
        Self {
            n,
            values,
            kernel_name,
        }
    }

    /// The raw row-major `n × n` value buffer.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of graphs in the sample.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The kernel that produced this matrix.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Kernel value `k(G_i, G_j)`.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }

    /// Kernel distance `‖φ(G_i) − φ(G_j)‖`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        kernel_distance(self.value(i, i), self.value(j, j), self.value(i, j))
    }

    /// Cosine-normalised kernel value in `[0, 1]`.
    pub fn normalized_value(&self, i: usize, j: usize) -> f64 {
        crate::distance::normalized_kernel(self.value(i, i), self.value(j, j), self.value(i, j))
    }

    /// Scale-free distance `√(2 − 2·k̂)` over the normalised kernel — the
    /// variant to use when comparing patterns of different sizes.
    pub fn normalized_distance(&self, i: usize, j: usize) -> f64 {
        (2.0 - 2.0 * self.normalized_value(i, j)).max(0.0).sqrt()
    }

    /// All pairwise distances for `i < j` (the sample the paper's violin
    /// plots draw).
    pub fn pairwise_distances(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * (self.n.saturating_sub(1)) / 2);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                out.push(self.distance(i, j));
            }
        }
        out
    }

    /// Mean pairwise distance — the scalar "measured amount of
    /// non-determinism" for a sample of runs.
    pub fn mean_pairwise_distance(&self) -> f64 {
        let d = self.pairwise_distances();
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Distances from graph `i` to every other graph.
    pub fn distances_from(&self, i: usize) -> Vec<f64> {
        (0..self.n)
            .filter(|&j| j != i)
            .map(|j| self.distance(i, j))
            .collect()
    }
}

/// Compute φ(G) for each graph in parallel.
pub fn parallel_features(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
) -> Vec<SparseFeatures> {
    parallel_features_with_metrics(kernel, graphs, threads, None)
}

/// [`parallel_features`], additionally recording a `features` span, the
/// `kernel/features` counter, and the `kernel/threads` gauge when a
/// registry is supplied. Results are identical either way.
pub fn parallel_features_with_metrics(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> Vec<SparseFeatures> {
    let all: Vec<usize> = (0..graphs.len()).collect();
    parallel_features_at(kernel, graphs, &all, threads, metrics)
}

/// [`parallel_features_with_metrics`] over `graphs[i]` for each `i` in
/// `indices` only (in that order) — the incremental path, where the
/// store already holds the other runs' vectors.
pub fn parallel_features_at(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    indices: &[usize],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> Vec<SparseFeatures> {
    let n = indices.len();
    let threads = threads.max(1).min(n.max(1));
    let _span = metrics.map(|m| m.span("features"));
    if let Some(m) = metrics {
        m.counter("kernel/features").add(n as u64);
        m.set_gauge("kernel/threads", threads as f64);
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, SparseFeatures)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = indices.get(k) else { break };
                        // Per-graph span on the worker's own thread (path
                        // "feature": worker threads have no span stack), so
                        // traced timelines show each extraction.
                        let _sp = metrics.map(|m| m.span("feature"));
                        local.push((k, kernel.features(&graphs[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|&(k, _)| k);
    out.into_iter().map(|(_, f)| f).collect()
}

/// Compute the Gram matrix of `graphs` under `kernel` using up to
/// `threads` worker threads.
pub fn gram_matrix(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
) -> KernelMatrix {
    gram_matrix_with_metrics(kernel, graphs, threads, None)
}

/// [`gram_matrix`], additionally recording `features`/`gram` spans and the
/// `kernel/dot_products` counter when a registry is supplied. The matrix is
/// bit-identical either way.
pub fn gram_matrix_with_metrics(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let feats = parallel_features_with_metrics(kernel, graphs, threads, metrics);
    gram_from_features_with_metrics(&kernel.name(), &feats, threads, metrics)
}

/// The exact Gram matrix of `feats`, bit-identical to the matrix of
/// pairwise [`SparseFeatures::dot`]s, from one k-way merge of all vectors.
///
/// 1. **Postings.** The id space is cut into contiguous shards (up to 32
///    per worker, each of at least ~16k entries; smaller inputs use fewer
///    workers), merged a batch of one shard per worker at a time. A shard
///    merges every vector's ids in its range and keeps only ids held by
///    two or more vectors, as groups of `(run, weight)` postings in
///    increasing id order.
/// 2. **Accumulation.** Each worker owns whole rows, handed out as
///    pair-balanced `(k, n−1−k)` blocks so every worker gets about the
///    same number of products. After each batch it walks the batch's
///    posting groups in shard order (= id order) and adds `wᵢ·wⱼ` into
///    `G[i][j]` for each owned `i` and each later `j` in the group.
///
/// The diagonal is each vector's [`SparseFeatures::norm_sq`].
///
/// **Bit-exactness.** The merge-join in `dot` adds `wᵢ·wⱼ` for every
/// shared id in increasing id order, starting from `+0.0`, and `+0.0` for
/// every other step, which never changes the sum. Each cell here receives
/// exactly those products, in the same order, from `+0.0`; nothing else
/// is added to it. So the matrix is the same bits at any thread or shard
/// count. The cost is `O(nnz·log R)` merge steps plus one multiply-add per
/// shared pair, instead of `O(R²)` merge-joins over every entry.
///
/// This is also the warm path, when per-run features come out of the
/// artifact store instead of being re-extracted from graphs. The
/// `kernel/dot_products` counter records the `R(R+1)/2` entries computed.
pub fn gram_from_features_with_metrics(
    kernel_name: &str,
    feats: &[SparseFeatures],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let n = feats.len();
    let _span = metrics.map(|m| m.span("gram"));
    if let Some(m) = metrics {
        m.counter("kernel/dot_products")
            .add((n * (n + 1) / 2) as u64);
    }
    if n == 0 {
        return KernelMatrix::from_parts(0, Vec::new(), kernel_name.to_string());
    }
    // Every worker needs a shard of at least MIN_SHARD_ENTRIES, or its
    // batch barriers cost more than its merge; small inputs run inline.
    let nnz: usize = feats.iter().map(SparseFeatures::nnz).sum();
    let threads = threads.clamp(1, (nnz / MIN_SHARD_ENTRIES).max(1));
    let batches = (nnz / (threads * MIN_SHARD_ENTRIES)).clamp(1, MAX_BATCHES);
    let bounds = shard_bounds(feats, batches * threads);
    let shards = bounds.len() + 1;
    let cuts = shard_cuts(feats, &bounds);
    // Each batch merges one shard per worker into that worker's buffer;
    // after a barrier, every worker adds all the batch's postings to its
    // own rows, and a second barrier frees the buffers for the next batch.
    // So only one batch's postings exist at a time.
    let buffers: Vec<RwLock<Postings>> = (0..threads).map(|_| RwLock::default()).collect();
    let barrier = Barrier::new(threads);
    let half = n.div_ceil(2);
    let worker = |w: usize| {
        // Row blocks (k, n−1−k) cost about the same for every k, so
        // dealing them round-robin balances the workers.
        let owned = (w..half).step_by(threads).flat_map(|k| {
            if n - 1 - k == k {
                vec![k]
            } else {
                vec![k, n - 1 - k]
            }
        });
        let mut block = RowBlock::new(n, owned.collect());
        for first in (0..shards).step_by(threads) {
            let mut buf = buffers[w].write().expect("postings lock");
            shard_postings(feats, &cuts, first + w, &mut buf);
            drop(buf);
            barrier.wait();
            if !block.owned.is_empty() {
                let batch: Vec<_> = buffers
                    .iter()
                    .map(|b| b.read().expect("postings lock"))
                    .collect();
                block.accumulate(batch.iter().map(|p| &**p));
            }
            barrier.wait();
        }
        block
    };
    let blocks: Vec<RowBlock> = if threads == 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|s| {
            let worker = &worker;
            let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || worker(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let mut values = vec![0.0; n * n];
    for block in blocks {
        for &i in &block.owned {
            values[i * n + i] = feats[i].norm_sq();
            for (j, &v) in (i + 1..n).zip(block.row(i)) {
                values[i * n + j] = v;
                values[j * n + i] = v;
            }
        }
    }
    KernelMatrix {
        n,
        values,
        kernel_name: kernel_name.to_string(),
    }
}

/// [`gram_from_features_with_metrics`]. `dot` has no effect on the full
/// Gram matrix; it names the pairwise dot of [`gram_append`] and the
/// landmark strips, so one config value can be passed to all three.
pub fn gram_from_features_with_dot(
    kernel_name: &str,
    feats: &[SparseFeatures],
    threads: usize,
    _dot: DotKind,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    gram_from_features_with_metrics(kernel_name, feats, threads, metrics)
}

/// The shared ids of one shard: `entries` holds `(run, weight)` postings
/// grouped by id, groups in increasing id order and runs increasing within
/// a group; group `g` is `entries[ends[g − 1]..ends[g]]`.
#[derive(Default)]
struct Postings {
    entries: Vec<(u32, f64)>,
    ends: Vec<usize>,
    /// Scratch for the merge, kept to reuse its allocation.
    keys: Vec<(u64, u64)>,
}

/// `shards − 1` ascending split ids: quantiles of evenly spaced ids drawn
/// from every vector (about 64 per shard in all), so shards hold similar
/// entry counts whatever the id distribution. Shard `k` covers
/// `[bounds[k − 1], bounds[k])`, the first starting at 0 and the last
/// running through `u64::MAX`.
fn shard_bounds(feats: &[SparseFeatures], shards: usize) -> Vec<u64> {
    let per_vector = shards * 64usize.div_ceil(feats.len().max(1));
    let mut sample: Vec<u64> = feats
        .iter()
        .flat_map(|f| {
            let e = f.entries();
            (1..per_vector).filter_map(move |k| e.get(k * e.len() / per_vector).map(|&(id, _)| id))
        })
        .collect();
    if sample.is_empty() {
        return Vec::new();
    }
    sample.sort_unstable();
    (1..shards)
        .map(|k| sample[k * sample.len() / shards])
        .collect()
}

/// Where each vector splits at `bounds`: shard `k` of vector `r` is its
/// entries `cuts[r][k]..cuts[r][k + 1]`.
fn shard_cuts(feats: &[SparseFeatures], bounds: &[u64]) -> Vec<Vec<usize>> {
    feats
        .iter()
        .map(|f| {
            let e = f.entries();
            std::iter::once(0)
                .chain(bounds.iter().map(|&b| e.partition_point(|&(id, _)| id < b)))
                .chain(std::iter::once(e.len()))
                .collect()
        })
        .collect()
}

/// Merge shard `k` of every vector into `out` (replacing its contents),
/// keeping the ids two or more vectors hold. A shard past the last one is
/// empty.
///
/// The merge is a stable sort by id of every part's `(id, run, index)`
/// keys, laid out part after part: the sort merges the already sorted
/// parts, and equal ids keep their run order. One scan then cuts the
/// groups.
fn shard_postings(feats: &[SparseFeatures], cuts: &[Vec<usize>], k: usize, out: &mut Postings) {
    out.entries.clear();
    out.ends.clear();
    out.keys.clear();
    if k + 1 >= cuts.first().map_or(0, Vec::len) {
        return;
    }
    let parts: Vec<&[(u64, f64)]> = feats
        .iter()
        .zip(cuts)
        .map(|(f, c)| &f.entries()[c[k]..c[k + 1]])
        .collect();
    for (r, p) in parts.iter().enumerate() {
        assert!(r <= u32::MAX as usize && p.len() <= u32::MAX as usize);
        out.keys.extend(
            p.iter()
                .enumerate()
                .map(|(i, &(id, _))| (id, (r as u64) << 32 | i as u64)),
        );
    }
    out.keys.sort_by_key(|&(id, _)| id);
    let keys = &out.keys;
    let mut start = 0;
    while start < keys.len() {
        let mut end = start + 1;
        while end < keys.len() && keys[end].0 == keys[start].0 {
            end += 1;
        }
        if end - start >= 2 {
            out.entries.extend(keys[start..end].iter().map(|&(_, tag)| {
                let (r, i) = (tag >> 32, tag as u32);
                (r as u32, parts[r as usize][i as usize].1)
            }));
            out.ends.push(out.entries.len());
        }
        start = end;
    }
}

/// Fewest entries worth a shard: below this, a batch's two barriers cost
/// more than its merge.
const MIN_SHARD_ENTRIES: usize = 16 * 1024;

/// Most batches (shards per worker): enough that one batch's postings are
/// a small fraction of all of them.
const MAX_BATCHES: usize = 32;

/// The Gram rows one worker owns, as it accumulates them.
struct RowBlock {
    owned: Vec<usize>,
    /// `slot[i]`: where owned row `i` starts in `rows`, or `usize::MAX`
    /// when not owned.
    slot: Vec<usize>,
    /// The upper triangle of each owned row `i`: columns `i + 1..n`, at
    /// `rows[slot[i] + j − i − 1]`.
    rows: Vec<f64>,
}

impl RowBlock {
    fn new(n: usize, owned: Vec<usize>) -> RowBlock {
        let mut slot = vec![usize::MAX; n];
        let mut len = 0;
        for &i in &owned {
            slot[i] = len;
            len += n - 1 - i;
        }
        RowBlock {
            rows: vec![0.0; len],
            owned,
            slot,
        }
    }

    /// Owned row `i`'s columns `i + 1..n`.
    fn row(&self, i: usize) -> &[f64] {
        &self.rows[self.slot[i]..self.slot[i] + self.slot.len() - 1 - i]
    }

    /// Add every posting group's products to the owned rows, in id order.
    fn accumulate<'a>(&mut self, postings: impl Iterator<Item = &'a Postings>) {
        let n = self.slot.len();
        for p in postings {
            let mut start = 0;
            for &end in &p.ends {
                let group = &p.entries[start..end];
                for (a, &(i, wi)) in group.iter().enumerate() {
                    let (i, base) = (i as usize, self.slot[i as usize]);
                    if base == usize::MAX {
                        continue;
                    }
                    // Runs increase within a group, so every later j > i.
                    let row = &mut self.rows[base..base + n - 1 - i];
                    for &(j, wj) in &group[a + 1..] {
                        row[j as usize - i - 1] += wi * wj;
                    }
                }
                start = end;
            }
        }
    }
}

/// Grow a Gram matrix by one run: `feats` holds all `R + 1` feature
/// vectors (the stored campaign's `R` plus the new run's, last), `prev`
/// the stored `R × R` matrix. Only the new row/column is computed —
/// exactly `R + 1` dot products instead of the `(R+1)(R+2)/2` a cold
/// recompute pays — counted into `kernel/dot_products` (the new run's
/// feature extraction is counted separately by the caller via
/// `kernel/features`).
///
/// **Bit-exactness.** The copied `R × R` block is the stored matrix's
/// bytes unchanged, and each new entry `(i, R)` is `dot(feats[i],
/// feats[R])`, written once to its two mirror slots — the value the k-way
/// cold Gram produces bit for bit. So append-then-read equals cold
/// recompute bit-for-bit — differential
/// tested in this module, in `core::incremental`, and by proptest over
/// random run subsets in `tests/properties.rs`.
pub fn gram_append(
    prev: &KernelMatrix,
    feats: &[SparseFeatures],
    threads: usize,
    dot: DotKind,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let n = feats.len();
    assert_eq!(
        n,
        prev.n + 1,
        "gram_append expects the previous matrix plus exactly one new feature vector"
    );
    let _span = metrics.map(|m| m.span("gram"));
    if let Some(m) = metrics {
        m.counter("kernel/dot_products").add(n as u64);
    }
    let mut values = vec![0.0; n * n];
    for i in 0..prev.n {
        values[i * n..i * n + prev.n].copy_from_slice(&prev.values[i * prev.n..(i + 1) * prev.n]);
    }
    let new = n - 1;
    let threads = threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    let col: Vec<Vec<(usize, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i > new {
                            break;
                        }
                        local.push((i, dot.dot(&feats[i], &feats[new])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for chunk in col {
        for (i, v) in chunk {
            values[i * n + new] = v;
            values[new * n + i] = v;
        }
    }
    KernelMatrix {
        n,
        values,
        kernel_name: prev.kernel_name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wl::WlKernel;
    use anacin_mpisim::prelude::*;

    fn race_graphs(count: u64, nd: f64) -> Vec<EventGraph> {
        (0..count)
            .map(|seed| {
                let mut b = ProgramBuilder::new(6);
                for r in 1..6 {
                    b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
                }
                for _ in 1..6 {
                    b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
                }
                let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
                EventGraph::from_trace(&t)
            })
            .collect()
    }

    #[test]
    fn gram_matrix_matches_direct_computation() {
        let graphs = race_graphs(6, 100.0);
        let k = WlKernel::default();
        let m = gram_matrix(&k, &graphs, 4);
        assert_eq!(m.len(), 6);
        for i in 0..6 {
            for j in 0..6 {
                let direct = k.value(&graphs[i], &graphs[j]);
                assert!(
                    (m.value(i, j) - direct).abs() < 1e-9,
                    "({i},{j}): {} vs {direct}",
                    m.value(i, j)
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let graphs = race_graphs(8, 100.0);
        let k = WlKernel::default();
        let m1 = gram_matrix(&k, &graphs, 1);
        let m8 = gram_matrix(&k, &graphs, 8);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(m1.value(i, j), m8.value(i, j));
            }
        }
    }

    #[test]
    fn balanced_scheduling_is_bit_exact_for_all_small_sizes() {
        // The pair-blocked schedule hands out rows in a different order than
        // a serial sweep; every (i, j) entry must nonetheless equal the
        // directly computed kernel value exactly, for odd and even n alike.
        let all = race_graphs(9, 100.0);
        let k = WlKernel::default();
        for n in 1..=9 {
            let graphs = &all[..n];
            for threads in [1, 2, 8] {
                let m = gram_matrix(&k, graphs, threads);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            m.value(i, j),
                            k.value(&graphs[i], &graphs[j]),
                            "n={n} threads={threads} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_dot_gram_is_bit_identical_to_scalar() {
        let graphs = race_graphs(7, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 2);
        let scalar = gram_from_features_with_metrics(&k.name(), &feats, 1, None);
        for threads in [1, 2, 8] {
            let blocked = gram_from_features_with_dot(
                &k.name(),
                &feats,
                threads,
                crate::feature::DotKind::Blocked,
                None,
            );
            for i in 0..7 {
                for j in 0..7 {
                    assert_eq!(
                        blocked.value(i, j).to_bits(),
                        scalar.value(i, j).to_bits(),
                        "threads={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    /// Groups of a split id space, flattened: `(run, weight bits)` per
    /// posting and the size of every group, in order.
    fn flatten(parts: &[Postings]) -> (Vec<(u32, u64)>, Vec<usize>) {
        let mut entries = Vec::new();
        let mut sizes = Vec::new();
        for p in parts {
            entries.extend(p.entries.iter().map(|&(r, w)| (r, w.to_bits())));
            let mut start = 0;
            for &end in &p.ends {
                sizes.push(end - start);
                start = end;
            }
        }
        (entries, sizes)
    }

    /// Every way of cutting the id space yields the same posting groups in
    /// the same order as one shard: a boundary on every id, on each single
    /// id, and the quantile bounds the Gram uses, `u64::MAX` included.
    #[test]
    fn shards_partition_the_postings_exactly() {
        let feats: Vec<SparseFeatures> = (0..7u64)
            .map(|r| {
                (0..60u64)
                    .filter(|i| (i * 7 + r) % 3 != 0)
                    .map(|i| (if i == 59 { u64::MAX } else { i * 3 }, 1.5 + r as f64))
                    .collect()
            })
            .collect();
        let split = |bounds: &[u64]| {
            let cuts = shard_cuts(&feats, bounds);
            let parts: Vec<Postings> = (0..=bounds.len())
                .map(|k| {
                    let mut p = Postings::default();
                    shard_postings(&feats, &cuts, k, &mut p);
                    p
                })
                .collect();
            flatten(&parts)
        };
        let whole = split(&[]);
        assert!(!whole.1.is_empty() && whole.1.iter().all(|&g| g >= 2));
        let ids: Vec<u64> = (0..60u64)
            .map(|i| if i == 59 { u64::MAX } else { i * 3 })
            .collect();
        assert_eq!(split(&ids), whole, "a boundary on every id");
        for &b in &ids {
            assert_eq!(split(&[b]), whole, "boundary at {b}");
            assert_eq!(split(&[b.saturating_add(1)]), whole, "boundary after {b}");
        }
        for shards in 1..=12 {
            assert_eq!(
                split(&shard_bounds(&feats, shards)),
                whole,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn gram_append_equals_cold_recompute_and_counts_r_plus_1_dots() {
        let graphs = race_graphs(8, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 2);
        for dot in [DotKind::Scalar, DotKind::Blocked] {
            // Grow from 1 run to 8, one append at a time, at several
            // thread counts; every intermediate matrix must equal the
            // cold recompute of the same prefix bit-for-bit.
            for threads in [1, 2, 8] {
                let mut m = gram_from_features_with_dot(&k.name(), &feats[..1], 1, dot, None);
                for r in 1..8 {
                    let reg = anacin_obs::MetricsRegistry::new();
                    m = gram_append(&m, &feats[..=r], threads, dot, Some(&reg));
                    let report = reg.report();
                    assert_eq!(report.counter("kernel/dot_products"), Some(r as u64 + 1));
                    let cold = gram_from_features_with_dot(&k.name(), &feats[..=r], 1, dot, None);
                    assert_eq!(m.len(), r + 1);
                    for i in 0..=r {
                        for j in 0..=r {
                            assert_eq!(
                                m.value(i, j).to_bits(),
                                cold.value(i, j).to_bits(),
                                "dot={dot} threads={threads} r={r} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly one new feature vector")]
    fn gram_append_rejects_wrong_feature_count() {
        let graphs = race_graphs(4, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 1);
        let m = gram_from_features_with_metrics(&k.name(), &feats[..2], 1, None);
        gram_append(&m, &feats, 1, DotKind::Scalar, None);
    }

    #[test]
    fn gram_metrics_count_dot_products_and_features() {
        let graphs = race_graphs(6, 100.0);
        let reg = anacin_obs::MetricsRegistry::new();
        let m = gram_matrix_with_metrics(&WlKernel::default(), &graphs, 2, Some(&reg));
        assert_eq!(m.len(), 6);
        let report = reg.report();
        assert_eq!(report.counter("kernel/features"), Some(6));
        assert_eq!(report.counter("kernel/dot_products"), Some(6 * 7 / 2));
        assert!(report.gauge("kernel/threads").unwrap() >= 1.0);
        assert!(report.span("features").is_some());
        assert!(report.span("gram").is_some());
    }

    #[test]
    fn diagonal_distances_are_zero_and_matrix_symmetric() {
        let graphs = race_graphs(5, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 3);
        for i in 0..5 {
            assert_eq!(m.distance(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(m.value(i, j), m.value(j, i));
            }
        }
    }

    #[test]
    fn pairwise_distance_count() {
        let graphs = race_graphs(6, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        assert_eq!(m.pairwise_distances().len(), 6 * 5 / 2);
        assert_eq!(m.distances_from(0).len(), 5);
    }

    #[test]
    fn identical_runs_give_zero_mean_distance() {
        // nd = 0: every seed produces the identical trace.
        let graphs = race_graphs(5, 0.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        assert_eq!(m.mean_pairwise_distance(), 0.0);
    }

    #[test]
    fn nd_runs_give_positive_mean_distance() {
        let graphs = race_graphs(10, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 4);
        assert!(m.mean_pairwise_distance() > 0.0);
        assert!(!m.is_empty());
        assert!(m.kernel_name().starts_with("wl"));
    }

    #[test]
    fn normalized_accessors() {
        let graphs = race_graphs(4, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        for i in 0..4 {
            assert!((m.normalized_value(i, i) - 1.0).abs() < 1e-9);
            assert_eq!(m.normalized_distance(i, i), 0.0);
            for j in 0..4 {
                let v = m.normalized_value(i, j);
                assert!((0.0..=1.0 + 1e-9).contains(&v));
                assert!(m.normalized_distance(i, j) <= 2f64.sqrt() + 1e-9);
            }
        }
    }

    #[test]
    fn empty_sample() {
        let m = gram_matrix(&WlKernel::default(), &[], 4);
        assert!(m.is_empty());
        assert_eq!(m.mean_pairwise_distance(), 0.0);
        assert!(m.pairwise_distances().is_empty());
    }
}
