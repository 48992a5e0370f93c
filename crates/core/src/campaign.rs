//! The campaign runner: simulate N seeded runs in parallel, build their
//! event graphs, and compute the kernel matrix.
//!
//! This is the paper's experimental loop ("run the same application many
//! times to collect a sample of non-deterministic executions", §III-B),
//! compressed from cluster-hours to milliseconds by the simulator.

use crate::config::{CampaignConfig, GramApprox};
use anacin_event_graph::EventGraph;
use anacin_kernels::approx::landmark_gram;
use anacin_kernels::feature::SparseFeatures;
use anacin_kernels::kernel::GraphKernel;
use anacin_kernels::matrix::{
    gram_from_features_with_metrics, parallel_features_with_metrics, KernelMatrix,
};
use anacin_mpisim::engine::{simulate_traced_counted, SimError};
use anacin_mpisim::program::Program;
use anacin_mpisim::stack::CallStackTable;
use anacin_mpisim::trace::Trace;
use anacin_mpisim::SimCounters;
use anacin_obs::{CancelToken, MetricsRegistry, Tracer};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A campaign run failed. Identifies *which* seeded run died so the failure
/// can be replayed directly (`seed` is the exact simulator seed), rather
/// than reporting only the underlying simulator error.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignError {
    /// Index of the failing run (0-based; the lowest index on multi-failure).
    pub run: u32,
    /// The simulator seed that run used (`base_seed + run`).
    pub seed: u64,
    /// The underlying simulator failure.
    pub source: SimError,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} (seed {}) failed: {}",
            self.run, self.seed, self.source
        )
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Why a cancellable pipeline stopped early: either the work itself
/// failed, or a [`CancelToken`] fired and the pipeline wound down
/// cooperatively — the run each worker was simulating completes
/// ("finish the current run"), nothing new starts.
#[derive(Debug, Clone, PartialEq)]
pub enum Interrupted<E> {
    /// The underlying pipeline failed on its own.
    Failed(E),
    /// The cancel token fired before the campaign finished.
    Cancelled {
        /// Runs that had fully completed when the pipeline stopped.
        completed_runs: u32,
    },
}

impl<E: fmt::Display> fmt::Display for Interrupted<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::Failed(e) => e.fmt(f),
            Interrupted::Cancelled { completed_runs } => {
                write!(f, "cancelled after {completed_runs} completed run(s)")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for Interrupted<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Interrupted::Failed(e) => Some(e),
            Interrupted::Cancelled { .. } => None,
        }
    }
}

impl<E> From<E> for Interrupted<E> {
    fn from(e: E) -> Self {
        Interrupted::Failed(e)
    }
}

impl<E> Interrupted<E> {
    /// Unwrap the `Failed` case. Only for callers that supplied no
    /// cancel token — the `Cancelled` arm is unreachable then, and this
    /// panics if it is hit anyway.
    pub fn into_failure(self) -> E {
        match self {
            Interrupted::Failed(e) => e,
            Interrupted::Cancelled { .. } => {
                unreachable!("cancelled without a cancel token")
            }
        }
    }
}

/// `Err(Cancelled)` once `cancel` has fired — the between-stage
/// checkpoint every cancellable pipeline polls.
pub(crate) fn check_cancel<E>(
    cancel: Option<&CancelToken>,
    completed_runs: u32,
) -> Result<(), Interrupted<E>> {
    if cancel.is_some_and(|c| c.is_cancelled()) {
        Err(Interrupted::Cancelled { completed_runs })
    } else {
        Ok(())
    }
}

/// The artifacts of one campaign.
pub struct CampaignResult {
    /// The configuration that produced the result.
    pub config: CampaignConfig,
    /// The program all runs executed.
    pub program: Program,
    /// One trace per run (seed = `base_seed + i`).
    pub traces: Vec<Trace>,
    /// One event graph per run.
    pub graphs: Vec<EventGraph>,
    /// The kernel matrix over all runs.
    pub matrix: KernelMatrix,
}

impl CampaignResult {
    /// The interned call-path table (shared by every run).
    pub fn stacks(&self) -> &CallStackTable {
        self.program.stacks()
    }

    /// The kernel-distance sample: all pairwise distances between runs —
    /// the data behind the paper's violins.
    pub fn distance_sample(&self) -> Vec<f64> {
        self.matrix.pairwise_distances()
    }

    /// The scalar "measured amount of non-determinism": the mean pairwise
    /// kernel distance.
    pub fn mean_distance(&self) -> f64 {
        self.matrix.mean_pairwise_distance()
    }
}

/// Simulate the campaign's runs in parallel.
pub fn run_traces(program: &Program, config: &CampaignConfig) -> Result<Vec<Trace>, CampaignError> {
    run_traces_with_metrics(program, config, None)
}

/// [`run_traces`], additionally flushing per-run simulator counters into
/// `metrics` when a registry is supplied. Traces are identical either way.
pub fn run_traces_with_metrics(
    program: &Program,
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<Trace>, CampaignError> {
    run_traces_observed(program, config, metrics, None, 0)
}

/// [`run_traces_with_metrics`], plus timeline tracing: with a [`Tracer`],
/// every run's finished trace is emitted as simulated-time records tagged
/// with run index `run_base + i` (the offset keeps run ids unique when one
/// tracer spans several campaigns, e.g. across sweep points). Tracing
/// happens after each simulation completes, so traces are bit-identical
/// to an unobserved run.
pub fn run_traces_observed(
    program: &Program,
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
) -> Result<Vec<Trace>, CampaignError> {
    run_traces_cancellable(program, config, metrics, tracer, run_base, None)
        .map_err(Interrupted::into_failure)
}

/// [`run_traces_observed`] with cooperative cancellation: once `cancel`
/// fires, workers stop claiming new runs (the run each one is simulating
/// completes — a half-simulated trace is never observable), and the call
/// returns [`Interrupted::Cancelled`] with the number of finished runs.
pub fn run_traces_cancellable(
    program: &Program,
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Trace>, Interrupted<CampaignError>> {
    let runs = config.runs as usize;
    let threads = config.threads.max(1).min(runs.max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Vec<(usize, Result<Trace, SimError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    // One set of pre-resolved counter handles per worker:
                    // the registry map locks once here, and every run's
                    // counter flush is then a handful of lock-free atomic
                    // adds — large campaigns and resumes no longer
                    // serialise on the registry mutex.
                    let counters = metrics.map(SimCounters::new);
                    let mut local = Vec::new();
                    loop {
                        if cancel.is_some_and(|c| c.is_cancelled()) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= runs {
                            break;
                        }
                        let sc = config.sim_config(i as u32);
                        let t = tracer.map(|t| (t, run_base + i as u32));
                        local.push((
                            i,
                            simulate_traced_counted(program, &sc, metrics, t, counters.as_ref()),
                        ));
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
    let mut out: Vec<Option<Trace>> = (0..runs).map(|_| None).collect();
    // Keep the *lowest* failing run index so the reported failure is
    // deterministic no matter how runs were interleaved across workers.
    let mut failure: Option<CampaignError> = None;
    for chunk in results {
        for (i, r) in chunk {
            match r {
                Ok(t) => out[i] = Some(t),
                Err(source) => {
                    let run = i as u32;
                    if failure.as_ref().is_none_or(|f| run < f.run) {
                        failure = Some(CampaignError {
                            run,
                            seed: config.sim_config(run).seed,
                            source,
                        });
                    }
                }
            }
        }
    }
    if let Some(f) = failure {
        return Err(Interrupted::Failed(f));
    }
    // Runs are claimed in index order and every claimed run completes,
    // so a cancelled campaign's finished slots are exactly [0, k).
    let done: Vec<Trace> = out.into_iter().flatten().collect();
    if done.len() < runs {
        return Err(Interrupted::Cancelled {
            completed_runs: done.len() as u32,
        });
    }
    Ok(done)
}

/// The kernel stage of the materialised campaign runner: extract every
/// run's features in parallel, then [`gram_stage_from_features`].
pub(crate) fn gram_stage(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let feats = parallel_features_with_metrics(kernel, graphs, config.threads, metrics);
    gram_stage_from_features(&kernel.name(), &feats, config, metrics)
}

/// The kernel stage over precomputed feature vectors: the exact k-way
/// Gram (bit-identical across dot kinds and thread counts) or, only when
/// `config.approx` opts in, the landmark approximation. The streaming
/// runner calls it directly, since its graphs are dropped by the time the
/// Gram matrix is assembled.
pub(crate) fn gram_stage_from_features(
    kernel_name: &str,
    feats: &[SparseFeatures],
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    match config.approx {
        GramApprox::Landmarks(k) => {
            landmark_gram(kernel_name, feats, k, config.threads, config.dot, metrics).matrix
        }
        GramApprox::Exact => {
            gram_from_features_with_metrics(kernel_name, feats, config.threads, metrics)
        }
    }
}

/// Run a full campaign: simulate, graph, and measure.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, CampaignError> {
    run_campaign_with_metrics(config, None)
}

/// [`run_campaign`], additionally recording a per-stage breakdown
/// (`campaign/simulate`, `campaign/graph`, `campaign/kernel/*` spans plus
/// simulator/graph/kernel counters) when a registry is supplied. The
/// measurement itself is bit-identical either way: observability never
/// touches simulated time or the injection RNG.
pub fn run_campaign_with_metrics(
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_observed(config, metrics, None, 0)
}

/// [`run_campaign_with_metrics`], plus timeline tracing: with a
/// [`Tracer`], each run's simulated-time events are emitted tagged with
/// `(run_base + i, seed)` — see [`run_traces_observed`]. Wall-clock
/// pipeline spans reach the same tracer when it is also attached to
/// `metrics` via [`MetricsRegistry::attach_tracer`]; this function does
/// not attach it implicitly, so callers control which registries emit.
pub fn run_campaign_observed(
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_cancellable(config, metrics, tracer, run_base, None)
        .map_err(Interrupted::into_failure)
}

/// [`run_campaign_observed`] with cooperative cancellation: the simulate
/// stage stops claiming runs once `cancel` fires (see
/// [`run_traces_cancellable`]), and the graph/kernel stages check the
/// token at their boundaries. A result is either complete or not
/// produced at all — cancellation never yields a partial matrix.
pub fn run_campaign_cancellable(
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
    cancel: Option<&CancelToken>,
) -> Result<CampaignResult, Interrupted<CampaignError>> {
    let _campaign_span = metrics.map(|m| m.span("campaign"));
    let program = config.pattern.build(&config.app);
    let traces = {
        let _s = metrics.map(|m| m.span("simulate"));
        run_traces_cancellable(&program, config, metrics, tracer, run_base, cancel)?
    };
    check_cancel(cancel, config.runs)?;
    let graphs: Vec<EventGraph> = {
        let _s = metrics.map(|m| m.span("graph"));
        traces
            .iter()
            .map(|t| EventGraph::from_trace_with_metrics(t, metrics))
            .collect()
    };
    check_cancel(cancel, config.runs)?;
    let kernel = config.kernel.instantiate();
    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        gram_stage(kernel.as_ref(), &graphs, config, metrics)
    };
    if let Some(m) = metrics {
        m.counter("campaign/runs").add(config.runs as u64);
        let nan = anacin_stats::nan_count(&matrix.pairwise_distances());
        m.counter("stats/nan_distances").add(nan as u64);
    }
    Ok(CampaignResult {
        config: config.clone(),
        program,
        traces,
        graphs,
        matrix,
    })
}

/// The measurement of a streaming campaign: everything [`run_campaign`]
/// produces *except* the per-run traces and graphs, which are dropped as
/// soon as each run's feature vector exists. Peak memory is therefore one
/// in-flight trace + graph per worker thread plus the (tiny) feature
/// vectors, instead of every run's trace and graph at once — the
/// difference between fitting a 1024-rank campaign in memory and not.
pub struct StreamingCampaignResult {
    /// The configuration that produced the result.
    pub config: CampaignConfig,
    /// The program all runs executed.
    pub program: Program,
    /// The kernel matrix over all runs.
    pub matrix: KernelMatrix,
    /// Total simulated trace events across all runs.
    pub total_events: u64,
    /// Total event-graph nodes across all runs.
    pub total_nodes: u64,
}

impl StreamingCampaignResult {
    /// The kernel-distance sample — identical to
    /// [`CampaignResult::distance_sample`] for the same configuration.
    pub fn distance_sample(&self) -> Vec<f64> {
        self.matrix.pairwise_distances()
    }

    /// The scalar "measured amount of non-determinism".
    pub fn mean_distance(&self) -> f64 {
        self.matrix.mean_pairwise_distance()
    }
}

/// Run a full campaign without materialising all traces and graphs:
/// each run is simulated, graphed, and reduced to its feature vector in
/// one pass, and the trace and graph are freed before the next run
/// starts on that worker.
///
/// The matrix is bit-identical to [`run_campaign`]'s for the same
/// configuration: per-run simulation, graph construction, and feature
/// extraction are the exact same deterministic code, and the Gram stage is
/// the same [`gram_stage_from_features`], which does not depend on the
/// thread count.
pub fn run_campaign_streaming(
    config: &CampaignConfig,
) -> Result<StreamingCampaignResult, CampaignError> {
    run_campaign_streaming_observed(config, None, None, 0)
}

/// [`run_campaign_streaming`] with optional metrics and timeline tracing,
/// mirroring [`run_campaign_observed`]. Per-run pipeline work is recorded
/// under a fused `campaign/stream` span (simulate → graph → features are
/// interleaved per run, so the per-stage spans of the materialised path
/// have no streaming equivalent); simulator, graph, and kernel counters
/// keep their usual names.
pub fn run_campaign_streaming_observed(
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
) -> Result<StreamingCampaignResult, CampaignError> {
    run_campaign_streaming_cancellable(config, metrics, tracer, run_base, None)
        .map_err(Interrupted::into_failure)
}

/// [`run_campaign_streaming_observed`] with cooperative cancellation,
/// mirroring [`run_campaign_cancellable`]: workers stop claiming runs
/// once `cancel` fires, the in-flight run of each worker completes, and
/// the Gram stage checks the token before starting.
pub fn run_campaign_streaming_cancellable(
    config: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
    cancel: Option<&CancelToken>,
) -> Result<StreamingCampaignResult, Interrupted<CampaignError>> {
    let _campaign_span = metrics.map(|m| m.span("campaign"));
    let program = config.pattern.build(&config.app);
    let kernel = config.kernel.instantiate();
    let runs = config.runs as usize;
    let threads = config.threads.max(1).min(runs.max(1));
    let next = AtomicUsize::new(0);
    type RunOutcome = Result<(SparseFeatures, u64, u64), SimError>;
    let results: Vec<Vec<(usize, RunOutcome)>> = {
        let _s = metrics.map(|m| m.span("stream"));
        let program = &program;
        let kernel = kernel.as_ref();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let counters = metrics.map(SimCounters::new);
                        let mut local = Vec::new();
                        loop {
                            if cancel.is_some_and(|c| c.is_cancelled()) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= runs {
                                break;
                            }
                            let sc = config.sim_config(i as u32);
                            let t = tracer.map(|t| (t, run_base + i as u32));
                            let outcome = simulate_traced_counted(
                                program,
                                &sc,
                                metrics,
                                t,
                                counters.as_ref(),
                            )
                            .map(|trace| {
                                let events = trace.total_events() as u64;
                                let graph = EventGraph::from_trace_with_metrics(&trace, metrics);
                                drop(trace);
                                let nodes = graph.node_count() as u64;
                                if let Some(m) = metrics {
                                    m.counter("kernel/features").add(1);
                                }
                                (kernel.features(&graph), events, nodes)
                            });
                            local.push((i, outcome));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let mut feats: Vec<Option<SparseFeatures>> = (0..runs).map(|_| None).collect();
    let (mut total_events, mut total_nodes) = (0u64, 0u64);
    let mut failure: Option<CampaignError> = None;
    for chunk in results {
        for (i, r) in chunk {
            match r {
                Ok((f, events, nodes)) => {
                    feats[i] = Some(f);
                    total_events += events;
                    total_nodes += nodes;
                }
                Err(source) => {
                    let run = i as u32;
                    if failure.as_ref().is_none_or(|f| run < f.run) {
                        failure = Some(CampaignError {
                            run,
                            seed: config.sim_config(run).seed,
                            source,
                        });
                    }
                }
            }
        }
    }
    if let Some(f) = failure {
        return Err(Interrupted::Failed(f));
    }
    let feats: Vec<SparseFeatures> = feats.into_iter().flatten().collect();
    if feats.len() < runs {
        return Err(Interrupted::Cancelled {
            completed_runs: feats.len() as u32,
        });
    }
    check_cancel(cancel, config.runs)?;
    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        gram_stage_from_features(&kernel.name(), &feats, config, metrics)
    };
    if let Some(m) = metrics {
        m.counter("campaign/runs").add(config.runs as u64);
        let nan = anacin_stats::nan_count(&matrix.pairwise_distances());
        m.counter("stats/nan_distances").add(nan as u64);
    }
    Ok(StreamingCampaignResult {
        config: config.clone(),
        program,
        matrix,
        total_events,
        total_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_miniapps::Pattern;

    #[test]
    fn campaign_produces_consistent_artifacts() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(8);
        let r = run_campaign(&cfg).unwrap();
        assert_eq!(r.traces.len(), 8);
        assert_eq!(r.graphs.len(), 8);
        assert_eq!(r.matrix.len(), 8);
        assert_eq!(r.distance_sample().len(), 8 * 7 / 2);
        for t in &r.traces {
            assert_eq!(t.meta.unmatched_messages, 0);
        }
    }

    #[test]
    fn zero_nd_campaign_has_zero_distance() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6)
            .nd_percent(0.0)
            .runs(6);
        let r = run_campaign(&cfg).unwrap();
        assert_eq!(r.mean_distance(), 0.0);
    }

    #[test]
    fn full_nd_campaign_has_positive_distance() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
        let r = run_campaign(&cfg).unwrap();
        assert!(r.mean_distance() > 0.0);
    }

    #[test]
    fn pre_cancelled_campaign_completes_no_runs() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(64);
        let token = CancelToken::new();
        token.cancel();
        match run_campaign_cancellable(&cfg, None, None, 0, Some(&token)) {
            Err(Interrupted::Cancelled { completed_runs }) => {
                assert_eq!(
                    completed_runs, 0,
                    "workers must not claim past a fired token"
                )
            }
            Err(Interrupted::Failed(e)) => panic!("unexpected failure: {e}"),
            Ok(_) => panic!("a pre-cancelled campaign must not produce a result"),
        }
        // The same config with an unfired token runs to completion and
        // matches the plain path bit-for-bit.
        let live = run_campaign_cancellable(&cfg, None, None, 0, Some(&CancelToken::new()))
            .expect("unfired token must not interrupt");
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(live.distance_sample(), plain.distance_sample());
    }

    #[test]
    fn campaign_is_reproducible() {
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 6).runs(6);
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.distance_sample(), b.distance_sample());
    }

    #[test]
    fn different_base_seeds_usually_differ() {
        let a = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 8).runs(6))
            .unwrap()
            .mean_distance();
        let b = run_campaign(
            &CampaignConfig::new(Pattern::MessageRace, 8)
                .runs(6)
                .base_seed(5000),
        )
        .unwrap()
        .mean_distance();
        // Not a hard invariant, but with continuous delays a collision is
        // effectively impossible.
        assert_ne!(a, b);
    }

    #[test]
    fn failing_campaign_reports_run_and_seed() {
        // Every run of a self-deadlocking program fails; the error must
        // identify the lowest run index and its exact simulator seed so the
        // failure can be replayed directly.
        use anacin_mpisim::prelude::*;
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).recv(Rank(1), TagSpec::Tag(Tag(0)));
        b.rank(Rank(1)).recv(Rank(0), TagSpec::Tag(Tag(0)));
        let program = b.build();
        let cfg = CampaignConfig::new(anacin_miniapps::Pattern::MessageRace, 2)
            .runs(4)
            .base_seed(77);
        let err = run_traces(&program, &cfg).unwrap_err();
        assert_eq!(err.run, 0);
        assert_eq!(err.seed, 77);
        assert!(matches!(err.source, SimError::Deadlock(_)));
        let msg = err.to_string();
        assert!(msg.contains("run 0"), "{msg}");
        assert!(msg.contains("seed 77"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn campaign_metrics_report_covers_every_stage() {
        let reg = MetricsRegistry::new();
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(5);
        let r = run_campaign_with_metrics(&cfg, Some(&reg)).unwrap();
        let report = reg.report();
        // Per-stage wall-times present (non-negative by construction: the
        // report stores unsigned nanoseconds) for every pipeline stage.
        for stage in [
            "campaign",
            "campaign/simulate",
            "campaign/graph",
            "campaign/kernel",
            "campaign/kernel/features",
            "campaign/kernel/gram",
        ] {
            let s = report
                .span(stage)
                .unwrap_or_else(|| panic!("missing span {stage}"));
            assert!(s.count >= 1, "{stage}");
            assert!(s.total_ns >= s.max_ns, "{stage}");
        }
        // Counters agree with the artifacts.
        assert_eq!(report.counter("campaign/runs"), Some(5));
        assert_eq!(report.counter("sim/runs"), Some(5));
        let events: usize = r.traces.iter().map(|t| t.total_events()).sum();
        assert_eq!(report.counter("sim/events"), Some(events as u64));
        let nodes: usize = r.graphs.iter().map(|g| g.node_count()).sum();
        assert_eq!(report.counter("graph/nodes"), Some(nodes as u64));
        assert_eq!(report.counter("kernel/features"), Some(5));
        assert_eq!(report.counter("kernel/dot_products"), Some(5 * 6 / 2));
        assert_eq!(report.counter("stats/nan_distances"), Some(0));
        // The metrics run is bit-identical to an unobserved one.
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(r.distance_sample(), plain.distance_sample());
    }

    #[test]
    fn streaming_campaign_is_bit_identical_across_kernels_and_threads() {
        // The streaming path must reproduce the materialised campaign's
        // matrix bit for bit: every kernel choice, at every thread count.
        use crate::config::KernelChoice;
        use anacin_event_graph::LabelPolicy;
        let kernels = [
            KernelChoice::Wl {
                iterations: 3,
                policy: LabelPolicy::default(),
            },
            KernelChoice::Wl {
                iterations: 1,
                policy: LabelPolicy::RankTypePeer,
            },
            KernelChoice::VertexHistogram {
                policy: LabelPolicy::EventType,
            },
            KernelChoice::EdgeHistogram {
                policy: LabelPolicy::TypeAndPeer,
            },
            KernelChoice::ShortestPath {
                policy: LabelPolicy::TypeAndPeer,
                max_distance: 3,
            },
        ];
        for kc in kernels {
            let base_cfg = CampaignConfig::new(Pattern::MessageRace, 6)
                .runs(6)
                .kernel(kc);
            let base = run_campaign(&base_cfg).unwrap();
            for threads in [1, 2, 8] {
                let mut cfg = base_cfg.clone();
                cfg.threads = threads;
                let s = run_campaign_streaming(&cfg).unwrap();
                assert_eq!(s.matrix, base.matrix, "kernel={kc:?} threads={threads}");
                assert_eq!(
                    s.total_events,
                    base.traces
                        .iter()
                        .map(|t| t.total_events() as u64)
                        .sum::<u64>()
                );
                assert_eq!(
                    s.total_nodes,
                    base.graphs
                        .iter()
                        .map(|g| g.node_count() as u64)
                        .sum::<u64>()
                );
                assert_eq!(s.distance_sample(), base.distance_sample());
            }
        }
    }

    #[test]
    fn streaming_campaign_is_reproducible() {
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 6).runs(6);
        let a = run_campaign_streaming(&cfg).unwrap();
        let b = run_campaign_streaming(&cfg).unwrap();
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.total_nodes, b.total_nodes);
    }

    #[test]
    fn streaming_campaign_metrics_cover_stages() {
        let reg = MetricsRegistry::new();
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(5);
        let r = run_campaign_streaming_observed(&cfg, Some(&reg), None, 0).unwrap();
        let report = reg.report();
        for stage in ["campaign", "campaign/stream", "campaign/kernel"] {
            assert!(report.span(stage).is_some(), "missing span {stage}");
        }
        assert_eq!(report.counter("campaign/runs"), Some(5));
        assert_eq!(report.counter("sim/runs"), Some(5));
        assert_eq!(report.counter("sim/events"), Some(r.total_events));
        assert_eq!(report.counter("graph/nodes"), Some(r.total_nodes));
        assert_eq!(report.counter("kernel/features"), Some(5));
        assert_eq!(report.counter("kernel/dot_products"), Some(5 * 6 / 2));
        assert_eq!(report.counter("stats/nan_distances"), Some(0));
    }

    #[test]
    fn blocked_dot_campaign_is_bit_identical() {
        use anacin_kernels::feature::DotKind;
        let base = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 6).runs(6)).unwrap();
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6)
            .runs(6)
            .dot(DotKind::Blocked);
        let r = run_campaign(&cfg).unwrap();
        assert_eq!(r.matrix, base.matrix);
        let s = run_campaign_streaming(&cfg).unwrap();
        assert_eq!(s.matrix, base.matrix, "streaming");
    }

    #[test]
    fn landmark_campaign_is_opt_in_and_reports_its_error_bound() {
        use crate::config::GramApprox;
        assert_eq!(CampaignConfig::default().approx, GramApprox::Exact);
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(8);
        let exact = run_campaign(&cfg).unwrap();
        // K = runs: the landmark set spans everything, so the
        // approximation reconstructs the exact matrix up to eigen-solver
        // noise.
        let full = run_campaign(&cfg.clone().approx(GramApprox::Landmarks(8))).unwrap();
        let scale = exact
            .matrix
            .values()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1.0);
        for (a, b) in full.matrix.values().iter().zip(exact.matrix.values()) {
            assert!((a - b).abs() <= 1e-6 * scale, "{a} vs {b}");
        }
        // A genuinely rank-deficient landmark set still reports a finite,
        // non-negative Frobenius error bound.
        let reg = MetricsRegistry::new();
        let r =
            run_campaign_with_metrics(&cfg.clone().approx(GramApprox::Landmarks(3)), Some(&reg))
                .unwrap();
        assert_eq!(r.matrix.len(), 8);
        let bound = reg
            .report()
            .gauge("kernel/approx_error_bound")
            .expect("approx campaigns report their bound");
        assert!(bound.is_finite() && bound >= 0.0, "bound={bound}");
    }

    #[test]
    fn thread_count_does_not_change_measurement() {
        let mut cfg = CampaignConfig::new(Pattern::Amg2013, 4).runs(6);
        cfg.threads = 1;
        let a = run_campaign(&cfg).unwrap();
        cfg.threads = 8;
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.distance_sample(), b.distance_sample());
    }
}
