//! One analysis — simulate many ND runs, compare their event graphs with
//! the WL kernel, rank root-cause call paths — run two ways:
//!
//! - [`analysis`]: the untraced path a user calls, `run_campaign` plus
//!   `root_cause::analyze`;
//! - [`compose`]: the same analysis composed from the layers' public
//!   calls, each timed from outside: `Pattern::build`, `simulate` per run
//!   on the benchmark's worker threads, `EventGraph::from_trace`, WL
//!   features, `gram_from_features_with_dot` and `analyze`.
//!
//! The two must agree bit for bit; [`Reference`] is what they are
//! compared on. [`append_path`] runs a grown campaign the third way a
//! daemon `Append` job does, and checks its dot count.

use crate::spans::{ms, SpanId, SpanLog};
use anacin_core::prelude::{
    analyze, run_campaign, run_campaign_append_with_metrics, run_campaign_incremental,
    CallstackRanking, CampaignConfig, CampaignResult, RootCauseConfig,
};
use anacin_core::report::measurement_json;
use anacin_event_graph::EventGraph;
use anacin_kernels::matrix::{gram_from_features_with_dot, KernelMatrix};
use anacin_miniapps::Pattern;
use anacin_mpisim::engine::simulate;
use anacin_mpisim::trace::Trace;
use anacin_obs::MetricsRegistry;
use anacin_store::ArtifactStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Threads an analysis (and the benchmark's own layer workers) may use:
/// the load is sized for a 2-core machine.
pub const THREADS: usize = 2;

/// A campaign config of the benchmark: ND = 100 %, [`THREADS`] threads.
pub fn config(pattern: Pattern, procs: u32, runs: u32, base_seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig::new(pattern, procs)
        .runs(runs)
        .nd_percent(100.0)
        .base_seed(base_seed);
    c.threads = THREADS;
    c
}

/// Bytes one `(feature id, weight)` entry of a sparse vector occupies.
const FEATURE_ENTRY_BYTES: u64 = 16;

/// What an analysis is checked on: the Gram matrix to the bit and the
/// top-ranked call path.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// The Gram matrix.
    pub matrix: KernelMatrix,
    /// The top-ranked call path (`None` when nothing ranked).
    pub top: Option<String>,
}

impl Reference {
    /// The reference of a finished analysis.
    pub fn of(matrix: &KernelMatrix, ranking: &CallstackRanking) -> Reference {
        Reference {
            matrix: matrix.clone(),
            top: ranking.top().map(|t| t.stack.clone()),
        }
    }

    /// `Err` describing the first difference between `self` and `other`.
    pub fn check(&self, other: &Reference) -> Result<(), String> {
        if !same_bits(&self.matrix, &other.matrix) {
            return Err("Gram matrix differs from the reference".into());
        }
        if other.top != self.top {
            return Err(format!(
                "top call path {:?} differs from the reference {:?}",
                other.top, self.top
            ));
        }
        Ok(())
    }
}

/// `anacin run --json` stdout for a campaign's matrix — what a daemon
/// `Result` frame must carry byte for byte.
pub fn payload(config: &CampaignConfig, matrix: &KernelMatrix) -> Result<String, String> {
    measurement_json(config, matrix)
        .map(|json| format!("{json}\n"))
        .map_err(|e| e.to_string())
}

/// True when two matrices have the same kernel, shape and value bits.
pub fn same_bits(a: &KernelMatrix, b: &KernelMatrix) -> bool {
    a.kernel_name() == b.kernel_name()
        && a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The untraced analysis: `run_campaign` then `analyze` (16 slices).
/// Returns the campaign (so the caller can drop it outside its timer)
/// and the ranking.
pub fn analysis(config: &CampaignConfig) -> Result<(CampaignResult, CallstackRanking), String> {
    let result = run_campaign(config).map_err(|e| e.to_string())?;
    let ranking = analyze(&result, &RootCauseConfig::default());
    Ok((result, ranking))
}

/// Per-layer figures of one traced analysis. Times are milliseconds;
/// `busy` sums the timed calls across worker threads, `wall` is the
/// stage's elapsed time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSample {
    /// Runs simulated.
    pub runs: u64,
    /// Trace events over all runs.
    pub events: u64,
    /// Runs whose simulation failed.
    pub sim_failed: u64,
    /// Σ `simulate` call time.
    pub sim_busy: f64,
    /// Simulate stage wall time (program build excluded).
    pub sim_wall: f64,
    /// Event-graph nodes over all runs.
    pub nodes: u64,
    /// Event-graph edges over all runs.
    pub edges: u64,
    /// Σ `EventGraph::from_trace` call time (the stage is sequential).
    pub graph_busy: f64,
    /// Graphs featurised.
    pub graphs: u64,
    /// Non-zero feature entries over all graphs.
    pub nnz: u64,
    /// Σ WL `features` call time.
    pub feat_busy: f64,
    /// Feature stage wall time.
    pub feat_wall: f64,
    /// Dot products, as counted by the Gram layer itself.
    pub dots: u64,
    /// Feature bytes the dot products read, computed from nnz.
    pub gram_bytes: u64,
    /// `gram_from_features_with_dot` call time.
    pub gram: f64,
    /// `analyze` call time.
    pub root_cause: f64,
    /// Window-pair L1 comparisons root-cause analysis performs.
    pub window_pairs: u64,
    /// The whole traced analysis.
    pub total: f64,
}

impl LayerSample {
    /// Σ stage time: the stage walls, with busy time standing in for the
    /// single-call and sequential stages (where the two coincide).
    pub fn stage_sum(&self) -> f64 {
        self.sim_wall + self.graph_busy + self.feat_wall + self.gram + self.root_cause
    }

    /// The traced analysis time no stage accounts for.
    pub fn unattributed(&self) -> f64 {
        self.total - self.stage_sum()
    }
}

/// A traced analysis and everything the checks need from it.
pub struct Composed {
    /// The campaign, assembled from the layer outputs.
    pub result: CampaignResult,
    /// Root-cause ranking.
    pub ranking: CallstackRanking,
    /// Layer figures.
    pub sample: LayerSample,
}

/// Run `work(i)` for every `i < n` on [`THREADS`] benchmark threads,
/// timing each call under a child span of `parent`. Returns results in
/// index order and the summed call time.
fn fan_out<T: Send>(
    n: usize,
    log: &SpanLog,
    name: &'static str,
    parent: SpanId,
    work: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, f64) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, T, f64)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..THREADS.min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (v, d) = log.time(name, Some(parent), || work(i));
                out.lock().unwrap().push((i, v, ms(d)));
            });
        }
    });
    let mut out = out.into_inner().unwrap();
    out.sort_by_key(|&(i, ..)| i);
    let busy = out.iter().map(|&(.., d)| d).sum();
    (out.into_iter().map(|(_, v, _)| v).collect(), busy)
}

/// The traced analysis of `config`, composed from public layer calls
/// under an `analysis` span. Fails if any run fails to simulate.
pub fn compose(config: &CampaignConfig, log: &SpanLog) -> Result<Composed, String> {
    let mut s = LayerSample::default();
    let started = Instant::now();
    let top = log.open("analysis", None);
    let (program, _) = log.time("miniapps.build", Some(top), || {
        config.pattern.build(&config.app)
    });

    let sim = log.open("mpisim", Some(top));
    let (runs, busy) = fan_out(config.runs as usize, log, "mpisim.simulate", sim, |i| {
        simulate(&program, &config.sim_config(i as u32))
    });
    s.sim_wall = ms(log.close(sim));
    s.sim_busy = busy;
    s.runs = runs.len() as u64;
    let mut traces: Vec<Trace> = Vec::with_capacity(runs.len());
    let mut first_error = None;
    for r in runs {
        match r {
            Ok(t) => traces.push(t),
            Err(e) => {
                s.sim_failed += 1;
                first_error.get_or_insert(e.to_string());
            }
        }
    }
    if let Some(e) = first_error {
        log.close(top);
        return Err(format!("simulation failed: {e}"));
    }
    s.events = traces.iter().map(|t| t.total_events() as u64).sum();

    let stage = log.open("event-graph", Some(top));
    let mut graphs: Vec<EventGraph> = Vec::with_capacity(traces.len());
    for t in &traces {
        let (g, d) = log.time("event-graph.from_trace", Some(stage), || {
            EventGraph::from_trace(t)
        });
        s.graph_busy += ms(d);
        graphs.push(g);
    }
    log.close(stage);
    s.nodes = graphs.iter().map(|g| g.node_count() as u64).sum();
    s.edges = graphs.iter().map(|g| g.edge_count() as u64).sum();

    let kernel = config.kernel.instantiate();
    let stage = log.open("kernels.features", Some(top));
    let (feats, busy) = fan_out(graphs.len(), log, "kernels.features.wl", stage, |i| {
        kernel.features(&graphs[i])
    });
    s.feat_wall = ms(log.close(stage));
    s.feat_busy = busy;
    s.graphs = feats.len() as u64;
    s.nnz = feats.iter().map(|f| f.nnz() as u64).sum();

    // Every dot (i, j ≥ i) reads both vectors, so each vector is read
    // n + 1 times (twice by its own diagonal dot).
    s.gram_bytes = FEATURE_ENTRY_BYTES * (feats.len() as u64 + 1) * s.nnz;
    let counters = MetricsRegistry::new();
    let (matrix, d) = log.time("kernels.gram", Some(top), || {
        gram_from_features_with_dot(&kernel.name(), &feats, THREADS, config.dot, Some(&counters))
    });
    s.gram = ms(d);
    s.dots = counters
        .report()
        .counter("kernel/dot_products")
        .unwrap_or(0);

    let result = CampaignResult {
        config: config.clone(),
        program,
        traces,
        graphs,
        matrix,
    };
    let rc = RootCauseConfig::default();
    let (ranking, d) = log.time("core.root_cause", Some(top), || analyze(&result, &rc));
    s.root_cause = ms(d);
    let r = result.graphs.len() as u64;
    s.window_pairs = rc.slices as u64 * r * r.saturating_sub(1) / 2;
    log.close(top);
    s.total = ms(started.elapsed());
    Ok(Composed {
        result,
        ranking,
        sample: s,
    })
}

/// Run `config` as a daemon `Append` job does, through
/// `run_campaign_append_with_metrics`, on a `store` that holds its
/// `R − 1`-run prefix (published first, or read back warm when an
/// earlier call already published it). Checks the append cost exactly
/// `R` dots — one new Gram row, diagonal included — and returns the grown
/// campaign's matrix.
pub fn append_path(
    config: &CampaignConfig,
    store: &ArtifactStore,
    log: &SpanLog,
) -> Result<KernelMatrix, String> {
    let prefix = config.clone().runs(config.runs - 1);
    let (stored, _) = log.time("core.incremental", None, || {
        run_campaign_incremental(&prefix, store)
    });
    stored.map_err(|e| format!("publishing the prefix: {e}"))?;
    let counters = MetricsRegistry::new();
    let (grown, _) = log.time("core.append", None, || {
        run_campaign_append_with_metrics(config, store, Some(&counters))
    });
    let grown = grown.map_err(|e| e.to_string())?;
    let dots = counters
        .report()
        .counter("kernel/dot_products")
        .unwrap_or(0);
    if dots != config.runs as u64 {
        return Err(format!(
            "append to {} runs cost {dots} dots, expected {}",
            config.runs, config.runs
        ));
    }
    Ok(grown.matrix)
}
