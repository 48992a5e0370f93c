//! The campaign runner: simulate N seeded runs in parallel, build their
//! event graphs, and compute the kernel matrix.
//!
//! This is the paper's experimental loop ("run the same application many
//! times to collect a sample of non-deterministic executions", §III-B),
//! compressed from cluster-hours to milliseconds by the simulator.
//!
//! Every runner takes one [`RunCtx`]: metrics, tracer, cancellation, the
//! artifact-store policy and the run-id offset travel together instead of
//! multiplying into function-name variants. `RunCtx::default()` is a plain
//! run. All runners simulate through one private run pool, which records
//! each run's trace into the tracer in run-index order, so ring contents
//! and streamed sinks do not depend on thread timing.

use crate::config::CampaignConfig;
use crate::incremental::{
    campaign_fingerprint, features_fingerprint, get_or_heal, run_fingerprint, IncrementalError,
};
use anacin_event_graph::EventGraph;
use anacin_kernels::feature::SparseFeatures;
use anacin_kernels::kernel::GraphKernel;
use anacin_kernels::matrix::{gram_append, gram_from_features, parallel_features, KernelMatrix};
use anacin_kernels::par::ordered_map;
use anacin_mpisim::engine::{simulate_counted, SimError};
use anacin_mpisim::program::Program;
use anacin_mpisim::stack::CallStackTable;
use anacin_mpisim::trace::Trace;
use anacin_mpisim::SimCounters;
use anacin_obs::{CancelToken, MetricsRegistry, Tracer};
use anacin_store::{ArtifactStore, DistanceSample, StoreError};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

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

/// What a campaign does with the artifact store.
#[derive(Clone, Copy, Default)]
pub enum StorePolicy<'a> {
    /// No store: compute every artifact.
    #[default]
    None,
    /// Reuse every stored artifact; compute and publish the rest (see
    /// [`crate::incremental`] for keys and the warm-path guarantee).
    Reuse(&'a ArtifactStore),
    /// [`StorePolicy::Reuse`], but grow the largest stored prefix Gram
    /// matrix row by row instead of recomputing it: `R + 1` dot products
    /// per added run, byte-identical to a cold recompute. With no stored
    /// prefix this is exactly `Reuse`.
    Append(&'a ArtifactStore),
}

impl<'a> StorePolicy<'a> {
    /// The store in use, if any.
    pub(crate) fn store(self) -> Option<&'a ArtifactStore> {
        match self {
            StorePolicy::None => None,
            StorePolicy::Reuse(s) | StorePolicy::Append(s) => Some(s),
        }
    }
}

/// The cross-cutting concerns of one pipeline run. Every field is
/// optional; `RunCtx::default()` is a plain, unobserved run. None of them
/// changes a measurement: observability never touches simulated time or
/// the injection RNG, and the store returns the bytes a cold run computes.
#[derive(Clone, Copy, Default)]
pub struct RunCtx<'a> {
    /// Per-stage spans (`campaign/simulate`, `campaign/kernel/gram`, …)
    /// and simulator/graph/kernel counters. Wall-clock spans reach a
    /// tracer only when it is attached to this registry via
    /// [`MetricsRegistry::attach_tracer`]; runners never attach it
    /// implicitly, so callers control which registries emit.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Receives every run's simulated-time events, tagged with run id
    /// `run_base + i` and the run's seed, in run-index order.
    pub tracer: Option<&'a Tracer>,
    /// Cooperative cancellation: once the token fires, workers stop
    /// claiming runs (the run each one is simulating completes — a
    /// half-simulated trace is never observable), stage boundaries check
    /// it, and the runner returns [`Interrupted::Cancelled`]. A result is
    /// either complete or not produced at all.
    pub cancel: Option<&'a CancelToken>,
    /// What to do with the artifact store.
    pub store: StorePolicy<'a>,
    /// Offset of the run ids recorded into `tracer`, which keeps them
    /// unique when one tracer spans several campaigns (sweep points).
    pub run_base: u32,
}

/// Lets the workers of one pool through a critical section one at a
/// time, strictly in claim order.
#[derive(Default)]
struct Turnstile {
    next: Mutex<usize>,
    turn: Condvar,
}

impl Turnstile {
    /// Wait until every claim before `k` has passed, run `f`, and let
    /// claim `k + 1` through. Claims are handed out in order and every
    /// claimed run reaches its turn, so the wait always ends.
    fn pass(&self, k: usize, f: impl FnOnce()) {
        let mut next = self.next.lock().expect("turnstile poisoned");
        while *next != k {
            next = self.turn.wait(next).expect("turnstile poisoned");
        }
        f();
        *next += 1;
        self.turn.notify_all();
    }
}

/// The run pool every runner shares. `threads` workers claim `runs` in
/// order, `simulate` each one (with one set of pre-resolved simulator
/// counters per worker when `ctx.metrics` is set: the registry map locks
/// once per worker, not once per run), and turn its trace into a `T` with
/// `finish`. Spans the workers start nest under the caller's innermost
/// span, as on the calling thread.
///
/// With `ctx.tracer`, each trace is recorded into the tracer (as run
/// `ctx.run_base + run`) before `finish`, strictly in claim order: a
/// worker waits for the previous claim to be recorded, so recording
/// order never depends on thread timing and at most `threads` finished
/// traces wait at once.
///
/// Once `ctx.cancel` fires, workers stop claiming and every claimed run
/// completes, so the result holds the first `k` runs; it is shorter than
/// `runs` exactly when the pool was cancelled. A failure reports the
/// lowest failing run, however the runs were interleaved.
pub(crate) fn run_pool<T: Send>(
    runs: &[u32],
    threads: usize,
    ctx: &RunCtx,
    simulate: impl Fn(u32, Option<&SimCounters>) -> Result<Trace, SimError> + Sync,
    finish: impl Fn(Trace) -> T + Sync,
) -> Result<Vec<(u32, T)>, (u32, SimError)> {
    if runs.is_empty() {
        // Nothing to simulate: spawn no workers (and create no `sim/*`
        // counters — a fully warm campaign performs no simulation work).
        return Ok(Vec::new());
    }
    let RunCtx {
        metrics,
        tracer,
        cancel,
        run_base,
        ..
    } = *ctx;
    let threads = threads.clamp(1, runs.len());
    let next = AtomicUsize::new(0);
    let turnstile = Turnstile::default();
    let parent = anacin_obs::current_span_path();
    let (simulate, finish, next, turnstile, parent) =
        (&simulate, &finish, &next, &turnstile, parent.as_deref());
    let results: Vec<Vec<(usize, Result<T, SimError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    anacin_obs::within_span(parent, || {
                        let counters = metrics.map(SimCounters::new);
                        let mut local = Vec::new();
                        while !cancel.is_some_and(CancelToken::is_cancelled) {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&run) = runs.get(k) else { break };
                            let outcome = simulate(run, counters.as_ref());
                            if let Some(t) = tracer {
                                turnstile.pass(k, || {
                                    if let Ok(trace) = &outcome {
                                        trace.record_into(t, run_base + run);
                                    }
                                });
                            }
                            local.push((k, outcome.map(finish)));
                        }
                        local
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut done = Vec::with_capacity(runs.len());
    let mut failure: Option<(usize, SimError)> = None;
    for (k, outcome) in results.into_iter().flatten() {
        match outcome {
            Ok(v) => done.push((k, v)),
            Err(e) => {
                if failure.as_ref().is_none_or(|&(f, _)| k < f) {
                    failure = Some((k, e));
                }
            }
        }
    }
    if let Some((k, e)) = failure {
        return Err((runs[k], e));
    }
    done.sort_unstable_by_key(|&(k, _)| k);
    Ok(done.into_iter().map(|(k, v)| (runs[k], v)).collect())
}

/// The [`CampaignError`] of a failed pool run of a sampled campaign.
fn run_failed(config: &CampaignConfig, (run, source): (u32, SimError)) -> CampaignError {
    CampaignError {
        run,
        seed: config.sim_config(run).seed,
        source,
    }
}

/// Stage 1: every run's trace, loaded from `store` when it holds it,
/// simulated (then published) otherwise, and recorded into the tracer in
/// run-index order. Runs finished before a cancellation are still
/// published and recorded, so a cancelled campaign resumes warm and
/// leaves its partial timeline behind.
fn traces_stage(
    program: &Program,
    config: &CampaignConfig,
    store: Option<&ArtifactStore>,
    ctx: &RunCtx,
) -> Result<Vec<Trace>, Interrupted<IncrementalError>> {
    let mut slots: Vec<Option<Trace>> = Vec::with_capacity(config.runs as usize);
    let mut missing = Vec::new();
    for run in 0..config.runs {
        let stored = match store {
            Some(s) => get_or_heal::<Trace>(s, run_fingerprint(config, run))?,
            None => None,
        };
        if stored.is_none() {
            missing.push(run);
        }
        slots.push(stored);
    }
    let simulated = run_pool(
        &missing,
        config.threads,
        &RunCtx {
            tracer: None,
            ..*ctx
        },
        |run, counters| simulate_counted(program, &config.sim_config(run), ctx.metrics, counters),
        |trace| trace,
    )
    .map_err(|f| run_failed(config, f))?;
    let cancelled = simulated.len() < missing.len();
    for (run, trace) in simulated {
        if let Some(s) = store {
            s.put(run_fingerprint(config, run), &trace)?;
        }
        slots[run as usize] = Some(trace);
    }
    if let Some(t) = ctx.tracer {
        for (i, trace) in slots.iter().enumerate() {
            if let Some(trace) = trace {
                trace.record_into(t, ctx.run_base + i as u32);
            }
        }
    }
    if cancelled {
        return Err(Interrupted::Cancelled {
            completed_runs: slots.iter().flatten().count() as u32,
        });
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Stage 2: every run's event graph, warm from `store` or built on
/// `config.threads` workers of [`ordered_map`] (then published in run
/// order).
fn graphs_stage(
    config: &CampaignConfig,
    traces: &[Trace],
    store: Option<&ArtifactStore>,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<EventGraph>, StoreError> {
    let mut graphs: Vec<Option<EventGraph>> = Vec::with_capacity(traces.len());
    let mut missing = Vec::new();
    for run in 0..traces.len() {
        let stored = match store {
            Some(s) => get_or_heal::<EventGraph>(s, run_fingerprint(config, run as u32))?,
            None => None,
        };
        if stored.is_none() {
            missing.push(run);
        }
        graphs.push(stored);
    }
    let built = ordered_map(&missing, config.threads, |&run| {
        EventGraph::from_trace_with_metrics(&traces[run], metrics)
    });
    for (run, g) in missing.into_iter().zip(built) {
        if let Some(s) = store {
            s.put(run_fingerprint(config, run as u32), &g)?;
        }
        graphs[run] = Some(g);
    }
    Ok(graphs.into_iter().flatten().collect())
}

/// Stage 3a: every run's feature vector, warm from `store` or extracted
/// in parallel (then published).
fn features_stage(
    config: &CampaignConfig,
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    store: Option<&ArtifactStore>,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<SparseFeatures>, StoreError> {
    let mut feats: Vec<Option<SparseFeatures>> = Vec::with_capacity(graphs.len());
    let mut missing = Vec::new();
    for run in 0..graphs.len() {
        let stored = match store {
            Some(s) => get_or_heal::<SparseFeatures>(s, features_fingerprint(config, run as u32))?,
            None => None,
        };
        if stored.is_none() {
            missing.push(run);
        }
        feats.push(stored);
    }
    if !missing.is_empty() {
        let lacking: Vec<&EventGraph> = missing.iter().map(|&i| &graphs[i]).collect();
        let computed = parallel_features(kernel, &lacking, config.threads, metrics);
        for (&i, f) in missing.iter().zip(computed) {
            if let Some(s) = store {
                s.put(features_fingerprint(config, i as u32), &f)?;
            }
            feats[i] = Some(f);
        }
    }
    Ok(feats.into_iter().flatten().collect())
}

/// Stage 3b: the Gram matrix. Under a store, an exact matrix is read
/// back or computed and published together with its distance sample;
/// with a stored `prefix` (append), the prefix is grown one row per added
/// run with [`gram_append`], publishing every intermediate matrix.
fn gram_stage(
    config: &CampaignConfig,
    kernel_name: &str,
    feats: &[SparseFeatures],
    store: Option<&ArtifactStore>,
    prefix: Option<(u32, KernelMatrix)>,
    metrics: Option<&MetricsRegistry>,
) -> Result<KernelMatrix, StoreError> {
    let cold = || gram_from_features(kernel_name, feats, config.threads, metrics);
    let Some(s) = store else {
        return Ok(cold());
    };
    let publish = |runs: u32, m: &KernelMatrix| -> Result<(), StoreError> {
        let fp = campaign_fingerprint(&config.clone().runs(runs));
        s.put(fp, m)?;
        s.put(fp, &DistanceSample(m.pairwise_distances()))
    };
    if let Some((stored_runs, mut m)) = prefix {
        for grown in stored_runs + 1..=config.runs {
            m = gram_append(&m, &feats[..grown as usize], config.threads, metrics);
            publish(grown, &m)?;
        }
        return Ok(m);
    }
    if let Some(m) = get_or_heal::<KernelMatrix>(s, campaign_fingerprint(config))? {
        return Ok(m);
    }
    let m = cold();
    publish(config.runs, &m)?;
    Ok(m)
}

/// The largest stored prefix matrix of an append: the campaign key is a
/// pure function of the run set, so a shorter campaign with the same base
/// seed is exactly a prefix of this one.
fn stored_prefix(
    config: &CampaignConfig,
    store: &ArtifactStore,
) -> Result<Option<(u32, KernelMatrix)>, StoreError> {
    for r in (1..=config.runs).rev() {
        let sub = config.clone().runs(r);
        if let Some(m) = get_or_heal::<KernelMatrix>(store, campaign_fingerprint(&sub))? {
            return Ok(Some((r, m)));
        }
    }
    Ok(None)
}

/// The end-of-campaign counters every runner records.
fn finish_counters(
    config: &CampaignConfig,
    matrix: &KernelMatrix,
    metrics: Option<&MetricsRegistry>,
) {
    if let Some(m) = metrics {
        m.counter("campaign/runs").add(config.runs as u64);
        let nan = anacin_stats::nan_count(&matrix.pairwise_distances());
        m.counter("stats/nan_distances").add(nan as u64);
    }
}

/// Run a full campaign — simulate, graph, measure — keeping every trace
/// and graph, under any [`StorePolicy`]. With metrics it records the
/// `campaign`, `campaign/simulate`, `campaign/graph`, `campaign/kernel`,
/// `campaign/kernel/features` and `campaign/kernel/gram` spans plus
/// simulator/graph/kernel counters; under a store, counters reflect work
/// actually performed (warm runs bump `store/hits` instead of `sim/*`).
pub fn campaign(
    config: &CampaignConfig,
    ctx: &RunCtx,
) -> Result<CampaignResult, Interrupted<IncrementalError>> {
    let metrics = ctx.metrics;
    let store = ctx.store.store();
    let prefix = match ctx.store {
        StorePolicy::Append(s) => stored_prefix(config, s)?,
        _ => None,
    };
    let _campaign_span = metrics.map(|m| m.span("campaign"));
    let program = config.pattern.build(&config.app);
    let traces = {
        let _s = metrics.map(|m| m.span("simulate"));
        traces_stage(&program, config, store, ctx)?
    };
    check_cancel(ctx.cancel, config.runs)?;
    let graphs = {
        let _s = metrics.map(|m| m.span("graph"));
        graphs_stage(config, &traces, store, metrics)?
    };
    check_cancel(ctx.cancel, config.runs)?;
    let kernel = config.kernel.instantiate();
    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        let feats = features_stage(config, kernel.as_ref(), &graphs, store, metrics)?;
        gram_stage(config, &kernel.name(), &feats, store, prefix, metrics)?
    };
    finish_counters(config, &matrix, metrics);
    Ok(CampaignResult {
        config: config.clone(),
        program,
        traces,
        graphs,
        matrix,
    })
}

/// Run a plain campaign: [`campaign`] with `RunCtx::default()`.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, CampaignError> {
    campaign(config, &RunCtx::default()).map_err(|e| e.into_failure().into_campaign())
}

/// The measurement of a streaming campaign: everything [`campaign`]
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
/// each run is simulated, recorded into the tracer (in run-index order),
/// graphed, and reduced to its feature vector in one pass, and its trace
/// and graph are freed before that worker claims the next run.
///
/// The matrix is bit-identical to [`campaign`]'s for the same
/// configuration: per-run simulation, graph construction, and feature
/// extraction are the exact same deterministic code, and the Gram stage
/// does not depend on the thread count. Per-run work is recorded under a
/// fused `campaign/stream` span (simulate → graph → features interleave
/// per run, so the materialised path's per-stage spans have no streaming
/// equivalent); counters keep their usual names. A streamed campaign
/// keeps no traces or graphs to publish, so `ctx.store` is not used.
pub fn campaign_streaming(
    config: &CampaignConfig,
    ctx: &RunCtx,
) -> Result<StreamingCampaignResult, Interrupted<CampaignError>> {
    let metrics = ctx.metrics;
    let _campaign_span = metrics.map(|m| m.span("campaign"));
    let program = config.pattern.build(&config.app);
    let kernel = config.kernel.instantiate();
    let all: Vec<u32> = (0..config.runs).collect();
    let done = {
        let _s = metrics.map(|m| m.span("stream"));
        run_pool(
            &all,
            config.threads,
            ctx,
            |run, counters| simulate_counted(&program, &config.sim_config(run), metrics, counters),
            |trace| {
                let events = trace.total_events() as u64;
                let graph = EventGraph::from_trace_with_metrics(&trace, metrics);
                drop(trace);
                if let Some(m) = metrics {
                    m.counter("kernel/features").add(1);
                }
                (kernel.features(&graph), events, graph.node_count() as u64)
            },
        )
        .map_err(|f| run_failed(config, f))?
    };
    if done.len() < all.len() {
        return Err(Interrupted::Cancelled {
            completed_runs: done.len() as u32,
        });
    }
    check_cancel(ctx.cancel, config.runs)?;
    let total_events = done.iter().map(|(_, (_, e, _))| e).sum();
    let total_nodes = done.iter().map(|(_, (_, _, n))| n).sum();
    let feats: Vec<SparseFeatures> = done.into_iter().map(|(_, (f, _, _))| f).collect();
    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        gram_from_features(&kernel.name(), &feats, config.threads, metrics)
    };
    finish_counters(config, &matrix, metrics);
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

    fn observed(reg: &MetricsRegistry) -> RunCtx<'_> {
        RunCtx {
            metrics: Some(reg),
            ..RunCtx::default()
        }
    }

    fn streamed(cfg: &CampaignConfig) -> StreamingCampaignResult {
        campaign_streaming(cfg, &RunCtx::default()).unwrap()
    }

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
        let cancelled = RunCtx {
            cancel: Some(&token),
            ..RunCtx::default()
        };
        match campaign(&cfg, &cancelled) {
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
        let unfired = CancelToken::new();
        let live = RunCtx {
            cancel: Some(&unfired),
            ..RunCtx::default()
        };
        let live = campaign(&cfg, &live).expect("unfired token must not interrupt");
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
        let err = match traces_stage(&program, &cfg, None, &RunCtx::default()) {
            Err(Interrupted::Failed(e)) => e.into_campaign(),
            _ => panic!("a deadlocking program must fail"),
        };
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
        let r = campaign(&cfg, &observed(&reg)).unwrap();
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
                let s = streamed(&cfg);
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
        let a = streamed(&cfg);
        let b = streamed(&cfg);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.total_nodes, b.total_nodes);
    }

    #[test]
    fn streaming_campaign_metrics_cover_stages() {
        let reg = MetricsRegistry::new();
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(5);
        let r = campaign_streaming(&cfg, &observed(&reg)).unwrap();
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
    fn worker_spans_nest_under_their_stage_at_every_thread_count() {
        let spans = |threads: usize, streaming: bool| {
            let mut cfg = CampaignConfig::new(Pattern::Amg2013, 8).runs(4);
            cfg.threads = threads;
            let reg = MetricsRegistry::new();
            if streaming {
                campaign_streaming(&cfg, &observed(&reg)).unwrap();
            } else {
                campaign(&cfg, &observed(&reg)).unwrap();
            }
            let report = reg.report();
            report.spans.into_iter().map(|s| s.name).collect::<Vec<_>>()
        };
        let materialised = spans(1, false);
        for path in [
            "campaign/simulate/sim",
            "campaign/graph/build",
            "campaign/kernel/features/feature",
        ] {
            assert!(
                materialised.iter().any(|n| n == path),
                "{path}: {materialised:?}"
            );
        }
        for streaming in [false, true] {
            let one = spans(1, streaming);
            assert_eq!(one, spans(2, streaming), "streaming={streaming}");
            assert!(
                one.iter()
                    .all(|n| n == "campaign" || n.starts_with("campaign/")),
                "a worker span escaped its stage: {one:?}"
            );
        }
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
