//! Root-cause (callstack) analysis — the paper's Use Case 3 / Figure 8.
//!
//! "The ANACIN-X environment identifies the callstacks in the application
//! and measures their frequency. … the X-axis corresponds to the list of
//! callstacks … identified as taking place during high periods of
//! non-determinism. The Y-axis corresponds to the normalized relative
//! frequency of the identified callstacks" (§III-C2).
//!
//! Pipeline:
//! 1. slice every run's event graph into the same number of windows by
//!    relative program position (run-invariant membership);
//! 2. score each window by how much the runs *disagree* in it (mean
//!    pairwise L1 distance between per-window label histograms, computed
//!    exactly in integers from each label's sorted per-run counts);
//! 3. keep the top windows, and within them attribute divergence to
//!    receive events: each receive is weighted by how much its *own
//!    label* disagrees across runs in that window, so a deterministic
//!    receive that merely drifts across a window boundary contributes
//!    little, while a wildcard receive that matched a different sender
//!    contributes its full disagreement;
//! 4. report call paths by normalized relative (weighted) frequency —
//!    wildcard receive paths (the true root sources) rise to the top.

use crate::campaign::CampaignResult;
use anacin_event_graph::label::{initial_labels, LabelPolicy};
use anacin_event_graph::slice::slice_by_position;
use anacin_mpisim::stack::CallStackId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Root-cause analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RootCauseConfig {
    /// Number of logical-time windows per run.
    pub slices: usize,
    /// Fraction of divergent windows considered "high non-determinism"
    /// (e.g. 0.25 keeps the top quartile).
    pub top_fraction: f64,
    /// Label policy used for the per-window divergence score.
    pub policy: LabelPolicy,
}

impl Default for RootCauseConfig {
    fn default() -> Self {
        RootCauseConfig {
            slices: 16,
            top_fraction: 0.25,
            policy: LabelPolicy::TypeAndPeer,
        }
    }
}

/// One ranked call path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallstackFrequency {
    /// The full call path, rendered `outer > … > MPI_xxx`.
    pub stack: String,
    /// The innermost frame (the MPI call).
    pub leaf: String,
    /// Occurrences within high-ND windows, across all runs.
    pub count: u64,
    /// Divergence-weighted occurrence mass, normalised over all ranked
    /// paths (sums to 1). This is the Y axis of the paper's Figure 8.
    pub frequency: f64,
}

/// The output of root-cause analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallstackRanking {
    /// Ranked call paths, most frequent first.
    pub entries: Vec<CallstackFrequency>,
    /// Divergence score per window index.
    pub slice_divergence: Vec<f64>,
    /// The window indices classified as high-ND.
    pub high_slices: Vec<usize>,
}

impl CallstackRanking {
    /// The top-ranked call path, if any.
    pub fn top(&self) -> Option<&CallstackFrequency> {
        self.entries.first()
    }
}

/// How much the runs disagree in one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowScore {
    /// Mean pairwise L1 distance between the runs' label histograms.
    pub divergence: f64,
    /// Per label, sorted by label: the mean pairwise `|Δcount|` across runs.
    pub labels: Vec<(u64, f64)>,
}

/// Every window's label disagreement and receives, from one pass over the
/// runs (labels and slices are computed once per run).
struct Windows {
    /// Run pairs compared, `R(R−1)/2`.
    pairs: f64,
    /// Per window: label → dense index.
    labels: Vec<HashMap<u64, u32>>,
    /// Per window and dense label: `Σ_{i<j} |cᵢ − cⱼ|` over the runs'
    /// counts, exact.
    label_l1: Vec<Vec<u64>>,
    /// Every run's receives as (dense label, call path), window by window
    /// in slice order: run `r`'s window `s` is
    /// `recvs[bounds[r·S + s]..bounds[r·S + s + 1]]` for `S` windows.
    recvs: Vec<(u32, CallStackId)>,
    bounds: Vec<usize>,
}

impl Windows {
    fn count(result: &CampaignResult, config: &RootCauseConfig) -> Windows {
        let runs = result.graphs.len();
        let mut labels: Vec<HashMap<u64, u32>> = vec![HashMap::new(); config.slices];
        // Per window, dense per-run integer columns: `counts[s][l * runs +
        // r]` is how often window `s`'s `l`-th label occurs in run `r`.
        let mut counts: Vec<Vec<u32>> = vec![Vec::new(); config.slices];
        let mut recvs = Vec::new();
        let mut bounds = vec![0];
        for (r, g) in result.graphs.iter().enumerate() {
            let node_labels = initial_labels(g, config.policy);
            for (s, slice) in slice_by_position(g, config.slices).into_iter().enumerate() {
                let (index, column) = (&mut labels[s], &mut counts[s]);
                for id in slice.nodes {
                    let next = index.len() as u32;
                    let l = *index.entry(node_labels[id.index()]).or_insert_with(|| {
                        column.resize(column.len() + runs, 0);
                        next
                    });
                    column[l as usize * runs + r] += 1;
                    let node = g.node(id);
                    if node.kind.is_recv() {
                        recvs.push((l, node.stack));
                    }
                }
                bounds.push(recvs.len());
            }
        }
        let label_l1 = counts
            .iter_mut()
            .map(|c| c.chunks_exact_mut(runs).map(pairwise_l1).collect())
            .collect();
        Windows {
            pairs: (runs * (runs - 1) / 2) as f64,
            labels,
            label_l1,
            recvs,
            bounds,
        }
    }

    /// Window `s`'s mean pairwise L1 distance. Its labels' integer sums
    /// add up exactly, and one division follows, so this is the same bits
    /// as averaging the pairwise float L1 distances (integers too).
    fn divergence(&self, s: usize) -> f64 {
        self.label_l1[s].iter().sum::<u64>() as f64 / self.pairs
    }

    /// Mean pairwise `|Δcount|` of window `s`'s `l`-th label.
    fn label_divergence(&self, s: usize, l: u32) -> f64 {
        self.label_l1[s][l as usize] as f64 / self.pairs
    }
}

/// `Σ_{i<j} |cᵢ − cⱼ|` over one label's per-run counts, exactly: after an
/// ascending sort the `k`-th count is the larger side of `k` pairs and the
/// smaller side of `R − 1 − k`, so the sum is `Σ_k c₍ₖ₎·(2k − R + 1)`.
fn pairwise_l1(column: &mut [u32]) -> u64 {
    column.sort_unstable();
    let r = column.len() as i64;
    let sum: i64 = column
        .iter()
        .enumerate()
        .map(|(k, &c)| c as i64 * (2 * k as i64 - r + 1))
        .sum();
    sum as u64
}

/// Score every window of a finished campaign: its divergence and each
/// label's disagreement, as [`analyze`] ranks them.
///
/// # Panics
/// As [`analyze`].
pub fn window_scores(result: &CampaignResult, config: &RootCauseConfig) -> Vec<WindowScore> {
    check_inputs(result, config);
    let w = Windows::count(result, config);
    (0..config.slices)
        .map(|s| {
            let mut labels: Vec<(u64, f64)> = w.labels[s]
                .iter()
                .map(|(&label, &l)| (label, w.label_divergence(s, l)))
                .collect();
            labels.sort_unstable_by_key(|&(label, _)| label);
            WindowScore {
                divergence: w.divergence(s),
                labels,
            }
        })
        .collect()
}

fn check_inputs(result: &CampaignResult, config: &RootCauseConfig) {
    assert!(
        result.graphs.len() >= 2,
        "need at least two runs to compare"
    );
    assert!(config.slices > 0, "need at least one slice");
}

/// Run the analysis over a finished campaign.
///
/// Divergences are exact integer pairwise-L1 sums divided once by the
/// pair count (see [`window_scores`]), and the normalising total is
/// summed in call-path order, so the ranking depends on no hash order.
///
/// # Panics
/// Panics when the campaign has fewer than two runs (nothing to compare)
/// or `config.slices == 0`.
pub fn analyze(result: &CampaignResult, config: &RootCauseConfig) -> CallstackRanking {
    check_inputs(result, config);
    let w = Windows::count(result, config);
    let divergence: Vec<f64> = (0..config.slices).map(|s| w.divergence(s)).collect();
    // High-ND windows: top fraction of strictly positive divergences.
    let mut positive: Vec<usize> = (0..config.slices)
        .filter(|&s| divergence[s] > 0.0)
        .collect();
    positive.sort_by(|&a, &b| {
        divergence[b]
            .partial_cmp(&divergence[a])
            .expect("divergences are finite")
    });
    let keep = ((positive.len() as f64 * config.top_fraction).ceil() as usize)
        .max(1)
        .min(positive.len());
    let mut high: Vec<usize> = positive.into_iter().take(keep).collect();
    high.sort_unstable();
    // Attribute: each receive in a high window adds its label's mean
    // pairwise disagreement to its call path. A receive whose label is
    // identical in every run carries no root-cause signal.
    let mut paths: BTreeMap<CallStackId, (u64, f64)> = BTreeMap::new();
    for r in 0..result.graphs.len() {
        for &s in &high {
            let k = r * config.slices + s;
            for &(l, stack) in &w.recvs[w.bounds[k]..w.bounds[k + 1]] {
                let e = paths.entry(stack).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += w.label_divergence(s, l);
            }
        }
    }
    // Normalise in call-path order, so the total does not depend on any
    // hash order.
    let total_weight = paths.values().fold(0.0, |t, &(_, w)| t + w);
    let stacks = result.stacks();
    let mut entries: Vec<CallstackFrequency> = paths
        .into_iter()
        .map(|(id, (count, w))| {
            let cs = stacks.resolve(id);
            CallstackFrequency {
                stack: cs.to_string(),
                leaf: cs.leaf().unwrap_or("<unknown>").to_string(),
                count,
                frequency: if total_weight > 0.0 {
                    w / total_weight
                } else {
                    0.0
                },
            }
        })
        .collect();
    entries.sort_by(|a, b| {
        b.frequency
            .partial_cmp(&a.frequency)
            .expect("finite frequencies")
            .then_with(|| b.count.cmp(&a.count))
            .then_with(|| a.stack.cmp(&b.stack))
    });
    CallstackRanking {
        entries,
        slice_divergence: divergence,
        high_slices: high,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::config::CampaignConfig;
    use anacin_miniapps::Pattern;

    #[test]
    fn ranks_racy_receive_paths_first() {
        let r = run_campaign(&CampaignConfig::new(Pattern::Amg2013, 6).runs(8)).unwrap();
        let ranking = analyze(&r, &RootCauseConfig::default());
        assert!(!ranking.entries.is_empty());
        let top = ranking.top().unwrap();
        // The AMG pattern's receives are hypre-style Irecvs — the true
        // root source.
        assert_eq!(top.leaf, "MPI_Irecv", "top path: {}", top.stack);
        assert!(top.stack.contains("hypre"));
        // Frequencies normalise.
        let sum: f64 = ranking.entries.iter().map(|e| e.frequency).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_nd_campaign_has_no_divergence() {
        let r = run_campaign(
            &CampaignConfig::new(Pattern::Amg2013, 4)
                .runs(5)
                .nd_percent(0.0),
        )
        .unwrap();
        let ranking = analyze(&r, &RootCauseConfig::default());
        assert!(ranking.slice_divergence.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn divergence_positive_where_races_happen() {
        let r = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 8).runs(8)).unwrap();
        let ranking = analyze(&r, &RootCauseConfig::default());
        assert!(ranking.slice_divergence.iter().any(|&d| d > 0.0));
        assert!(!ranking.high_slices.is_empty());
        // All highs are in range and sorted.
        for w in ranking.high_slices.windows(2) {
            assert!(w[0] < w[1]);
        }
        // The race's aggregation path surfaces.
        let top = ranking.top().unwrap();
        assert!(
            top.stack.contains("aggregate_results"),
            "top path: {}",
            top.stack
        );
    }

    #[test]
    fn mesh_pattern_surfaces_halo_receives() {
        let r = run_campaign(&CampaignConfig::new(Pattern::UnstructuredMesh, 8).runs(8)).unwrap();
        let ranking = analyze(&r, &RootCauseConfig::default());
        let top = ranking.top().unwrap();
        assert!(
            top.stack.contains("exchange_halo"),
            "top path: {}",
            top.stack
        );
    }

    #[test]
    #[should_panic(expected = "two runs")]
    fn single_run_panics() {
        let r = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 4).runs(1)).unwrap();
        analyze(&r, &RootCauseConfig::default());
    }
}
