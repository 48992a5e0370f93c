//! Incremental, resumable campaigns backed by the content-addressed
//! artifact store (`anacin-store`).
//!
//! Every pipeline product — trace, event graph, per-run feature vector,
//! Gram matrix, distance sample — is a pure function of `(pattern +
//! configuration, seed, ND setting, kernel parameters)`, because the whole
//! pipeline is bit-deterministic for a given key. That makes memoisation
//! sound: [`run_campaign_incremental`] looks every artifact up by
//! fingerprint first and only computes (then publishes) what is missing,
//! so
//!
//! * an interrupted campaign resumes from whatever runs already reached
//!   the store,
//! * regenerating a figure reuses every stored run outright, and
//! * sweeping kernels over the same runs reuses traces and graphs and
//!   recomputes only the kernel-specific stages.
//!
//! The warm path is **bit-identical** to the cold path: codecs are
//! canonical (one byte representation per value) and keys absorb every
//! semantic input, so a warm result and a cold result are the same bytes.
//! The differential tests in this module and in `tests/store.rs` assert
//! exactly that.
//!
//! ## Keys
//!
//! Fingerprints absorb a domain-separation label, [`KEY_SCHEMA`], and the
//! canonical JSON of each semantic field (the config types' serde
//! encodings are stable). `threads` and `dot` are deliberately excluded:
//! thread count and dot implementation never change results, so warm
//! hits survive re-running on a different machine shape. Changing
//! pipeline semantics requires bumping [`KEY_SCHEMA`], which cleanly
//! invalidates every old key.

use crate::campaign::{check_cancel, CampaignError, CampaignResult, Interrupted};
use crate::config::{CampaignConfig, GramApprox};
use anacin_event_graph::EventGraph;
use anacin_kernels::approx::landmark_gram;
use anacin_kernels::feature::SparseFeatures;
use anacin_kernels::matrix::{gram_append, gram_from_features_with_metrics, KernelMatrix};
use anacin_mpisim::engine::{simulate_traced_counted, SimError};
use anacin_mpisim::program::Program;
use anacin_mpisim::trace::Trace;
use anacin_mpisim::SimCounters;
use anacin_obs::{CancelToken, MetricsRegistry, Tracer};
use anacin_store::{
    Artifact, ArtifactStore, DistanceSample, Fingerprint, FingerprintHasher, StoreError,
};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Version of the key material fed into fingerprints. Bump whenever the
/// pipeline's semantics change in a way that should invalidate previously
/// stored artifacts (every old key then misses cleanly).
pub const KEY_SCHEMA: u32 = 1;

/// An incremental campaign failed: either the pipeline itself, or the
/// artifact store underneath it.
#[derive(Debug)]
pub enum IncrementalError {
    /// A seeded run failed to simulate.
    Campaign(CampaignError),
    /// The store failed in a way that is not self-healable (I/O).
    Store(StoreError),
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::Campaign(e) => write!(f, "campaign failed: {e}"),
            IncrementalError::Store(e) => write!(f, "artifact store failed: {e}"),
        }
    }
}

impl std::error::Error for IncrementalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IncrementalError::Campaign(e) => Some(e),
            IncrementalError::Store(e) => Some(e),
        }
    }
}

impl From<CampaignError> for IncrementalError {
    fn from(e: CampaignError) -> Self {
        IncrementalError::Campaign(e)
    }
}

impl From<StoreError> for IncrementalError {
    fn from(e: StoreError) -> Self {
        IncrementalError::Store(e)
    }
}

impl From<StoreError> for Interrupted<IncrementalError> {
    fn from(e: StoreError) -> Self {
        Interrupted::Failed(IncrementalError::Store(e))
    }
}

impl From<CampaignError> for Interrupted<IncrementalError> {
    fn from(e: CampaignError) -> Self {
        Interrupted::Failed(IncrementalError::Campaign(e))
    }
}

/// Absorb a labelled field as canonical JSON. The config types' serde
/// encodings are deterministic (plain structs and enums, no maps), which
/// makes the JSON a stable canonical form.
fn absorb_json<T: serde::Serialize>(h: &mut FingerprintHasher, label: &str, value: &T) {
    h.write_str(label);
    h.write_str(&serde_json::to_string(value).expect("key material serialises"));
}

/// Absorb the per-run semantic inputs shared by every run-level key:
/// everything that determines the bytes of a trace except the seed.
pub(crate) fn absorb_setting(h: &mut FingerprintHasher, config: &CampaignConfig) {
    h.write_u32(KEY_SCHEMA);
    absorb_json(h, "pattern", &config.pattern);
    absorb_json(h, "app", &config.app);
    h.write_str("nd_percent");
    h.write_f64(config.nd_percent);
    h.write_str("nodes");
    h.write_u32(config.nodes);
    absorb_json(h, "delay", &config.delay);
}

/// The fingerprint naming run `run`'s trace and event graph (same key,
/// distinct [`anacin_store::ArtifactKind`]s).
pub fn run_fingerprint(config: &CampaignConfig, run: u32) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/run");
    absorb_setting(&mut h, config);
    h.write_str("seed");
    h.write_u64(config.base_seed + run as u64);
    h.finish()
}

/// The fingerprint naming run `run`'s feature vector under the campaign's
/// kernel. Extends the run key with the kernel parameters, so sweeping
/// kernels over the same runs stores one vector per (run, kernel).
pub fn features_fingerprint(config: &CampaignConfig, run: u32) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/features");
    absorb_setting(&mut h, config);
    h.write_str("seed");
    h.write_u64(config.base_seed + run as u64);
    absorb_json(&mut h, "kernel", &config.kernel);
    h.finish()
}

/// The fingerprint naming the campaign-level artifacts (Gram matrix and
/// distance sample): the full run set plus the kernel.
pub fn campaign_fingerprint(config: &CampaignConfig) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/campaign");
    absorb_setting(&mut h, config);
    h.write_str("runs");
    h.write_u32(config.runs);
    h.write_str("base_seed");
    h.write_u64(config.base_seed);
    absorb_json(&mut h, "kernel", &config.kernel);
    h.finish()
}

/// Fetch an artifact, treating damage as a clean miss so the caller
/// recomputes and overwrites it (self-healing). Only I/O errors propagate.
pub(crate) fn get_or_heal<A: Artifact>(
    store: &ArtifactStore,
    fp: Fingerprint,
) -> Result<Option<A>, StoreError> {
    match store.get::<A>(fp) {
        Ok(v) => Ok(v),
        // A corrupt frame or an undecodable payload both mean the stored
        // bytes are unusable; recomputing is always safe because `put`
        // republishes atomically over the damaged file.
        Err(StoreError::Corrupt { .. }) | Err(StoreError::Decode(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Simulate exactly the given runs (identified by run index) in parallel,
/// with per-worker batched counters. Failure reports the lowest failing
/// run index, matching [`crate::campaign::run_traces_observed`]. Once
/// `cancel` fires, workers stop claiming runs; the caller detects
/// cancellation by the result being shorter than `missing`.
fn simulate_runs(
    program: &Program,
    config: &CampaignConfig,
    missing: &[u32],
    metrics: Option<&MetricsRegistry>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<(u32, Trace)>, CampaignError> {
    if missing.is_empty() {
        // Fully warm: spawn no workers (and create no `sim/*` counters —
        // a warm campaign performs no simulation work to report).
        return Ok(Vec::new());
    }
    let threads = config.threads.max(1).min(missing.len());
    let next = AtomicUsize::new(0);
    let results: Vec<Vec<(u32, Result<Trace, SimError>)>> = std::thread::scope(|s| {
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
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= missing.len() {
                            break;
                        }
                        let run = missing[slot];
                        let sc = config.sim_config(run);
                        local.push((
                            run,
                            simulate_traced_counted(program, &sc, metrics, None, counters.as_ref()),
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
    let mut out = Vec::with_capacity(missing.len());
    let mut failure: Option<CampaignError> = None;
    for chunk in results {
        for (run, r) in chunk {
            match r {
                Ok(t) => out.push((run, t)),
                Err(source) => {
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
        return Err(f);
    }
    out.sort_by_key(|&(run, _)| run);
    Ok(out)
}

/// Run a campaign against an artifact store: reuse every stored artifact,
/// compute and publish the rest. See the module docs for the key scheme
/// and the warm-path bit-identity guarantee.
pub fn run_campaign_incremental(
    config: &CampaignConfig,
    store: &ArtifactStore,
) -> Result<CampaignResult, IncrementalError> {
    run_campaign_incremental_with_metrics(config, store, None)
}

/// [`run_campaign_incremental`] with the same per-stage instrumentation as
/// [`crate::campaign::run_campaign_with_metrics`]. Counters reflect work
/// actually performed: warm runs bump `store/hits` instead of `sim/*`.
pub fn run_campaign_incremental_with_metrics(
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
) -> Result<CampaignResult, IncrementalError> {
    run_campaign_incremental_observed(config, store, metrics, None, 0)
}

/// [`run_campaign_incremental_with_metrics`], plus timeline tracing: with
/// a [`Tracer`], every run's trace — warm or cold — is emitted tagged with
/// `run_base + i`, so a resumed campaign produces the same complete
/// timeline as an uninterrupted one.
pub fn run_campaign_incremental_observed(
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
) -> Result<CampaignResult, IncrementalError> {
    run_campaign_incremental_cancellable(config, store, metrics, tracer, run_base, None)
        .map_err(Interrupted::into_failure)
}

/// [`run_campaign_incremental_observed`] with cooperative cancellation.
/// Every run that finished simulating before `cancel` fired is still
/// published to the store, so a cancelled campaign resumes warm: the
/// daemon's per-job cancellation (client disconnect, timeout, `Cancel`
/// frame) never throws away completed work.
pub fn run_campaign_incremental_cancellable(
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
    cancel: Option<&CancelToken>,
) -> Result<CampaignResult, Interrupted<IncrementalError>> {
    let _campaign_span = metrics.map(|m| m.span("campaign"));
    let program = config.pattern.build(&config.app);
    let runs = config.runs;
    let (traces, graphs) =
        load_or_compute_runs(&program, config, store, metrics, tracer, run_base, cancel)?;

    // Stage 3: per-run feature vectors, then the Gram matrix from them.
    let kernel = config.kernel.instantiate();
    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        let mut feats: Vec<Option<SparseFeatures>> = (0..runs).map(|_| None).collect();
        let mut missing = Vec::new();
        for run in 0..runs {
            match get_or_heal::<SparseFeatures>(store, features_fingerprint(config, run))? {
                Some(f) => feats[run as usize] = Some(f),
                None => missing.push(run as usize),
            }
        }
        let feats = fill_missing_features(config, store, &graphs, &missing, feats, metrics)?;
        if let GramApprox::Landmarks(k) = config.approx {
            // Approximate matrices are never published to (or read from)
            // the store: campaign-level keys name exact artifacts only,
            // so an approximate run can never poison a warm exact one.
            // Per-run features still warm-hit and publish as usual.
            landmark_gram(
                &kernel.name(),
                &feats,
                k,
                config.threads,
                config.dot,
                metrics,
            )
            .matrix
        } else {
            let campaign_fp = campaign_fingerprint(config);
            match get_or_heal::<KernelMatrix>(store, campaign_fp)? {
                Some(m) => m,
                None => {
                    let m = gram_from_features_with_metrics(
                        &kernel.name(),
                        &feats,
                        config.threads,
                        metrics,
                    );
                    store.put(campaign_fp, &m)?;
                    store.put(campaign_fp, &DistanceSample(m.pairwise_distances()))?;
                    m
                }
            }
        }
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

/// Stages 1–2 of the incremental pipeline: every run's trace and event
/// graph, warm-or-computed and published. Shared verbatim by the full
/// runner and the append runner, so both produce identical artifacts.
fn load_or_compute_runs(
    program: &Program,
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<Trace>, Vec<EventGraph>), Interrupted<IncrementalError>> {
    let runs = config.runs;

    // Stage 1: traces — load what the store has, simulate the rest.
    let traces: Vec<Trace> = {
        let _s = metrics.map(|m| m.span("simulate"));
        let mut slots: Vec<Option<Trace>> = (0..runs).map(|_| None).collect();
        let mut missing = Vec::new();
        for run in 0..runs {
            match get_or_heal::<Trace>(store, run_fingerprint(config, run))? {
                Some(t) => slots[run as usize] = Some(t),
                None => missing.push(run),
            }
        }
        let simulated = simulate_runs(program, config, &missing, metrics, cancel)?;
        let cancelled = simulated.len() < missing.len();
        for (run, t) in simulated {
            store.put(run_fingerprint(config, run), &t)?;
            slots[run as usize] = Some(t);
        }
        if cancelled {
            let completed = slots.iter().filter(|s| s.is_some()).count() as u32;
            return Err(Interrupted::Cancelled {
                completed_runs: completed,
            });
        }
        slots
            .into_iter()
            .map(|t| t.expect("all slots filled"))
            .collect()
    };
    check_cancel(cancel, runs)?;
    if let Some(t) = tracer {
        for (i, trace) in traces.iter().enumerate() {
            trace.record_into(t, run_base + i as u32);
        }
    }

    // Stage 2: event graphs.
    let graphs: Vec<EventGraph> = {
        let _s = metrics.map(|m| m.span("graph"));
        let mut out = Vec::with_capacity(traces.len());
        for (run, trace) in traces.iter().enumerate() {
            let fp = run_fingerprint(config, run as u32);
            let g = match get_or_heal::<EventGraph>(store, fp)? {
                Some(g) => g,
                None => {
                    let g = EventGraph::from_trace_with_metrics(trace, metrics);
                    store.put(fp, &g)?;
                    g
                }
            };
            out.push(g);
        }
        out
    };
    check_cancel(cancel, runs)?;
    Ok((traces, graphs))
}

/// Extract (in parallel, straight from `graphs`) and publish the feature
/// vectors listed in `missing`, then unwrap the fully-filled slot vector.
fn fill_missing_features(
    config: &CampaignConfig,
    store: &ArtifactStore,
    graphs: &[EventGraph],
    missing: &[usize],
    mut feats: Vec<Option<SparseFeatures>>,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<SparseFeatures>, StoreError> {
    if !missing.is_empty() {
        let kernel = config.kernel.instantiate();
        let computed = anacin_kernels::matrix::parallel_features_at(
            kernel.as_ref(),
            graphs,
            missing,
            config.threads,
            metrics,
        );
        for (&i, f) in missing.iter().zip(computed) {
            store.put(features_fingerprint(config, i as u32), &f)?;
            feats[i] = Some(f);
        }
    }
    Ok(feats
        .into_iter()
        .map(|f| f.expect("all slots filled"))
        .collect())
}

/// The end-of-campaign counters shared by every incremental runner.
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

/// Append new runs onto a stored campaign: reuse the largest stored
/// prefix matrix and compute only the new rows/columns.
///
/// For a stored `R`-run campaign extended to `R + 1` runs, the kernel
/// stage performs exactly `R + 1` new dot products (one new row of the
/// Gram matrix, diagonal included) instead of the `O(R²)` a recompute
/// would — the difference between constant-time-per-run and
/// quadratic-per-run growth when a campaign accretes thousands of runs.
/// The extended matrix is published under the extended run-set
/// fingerprint and is **byte-identical** to a cold recompute (asserted by
/// the differential tests below): `gram_append` copies the stored values
/// and computes each new entry with the pairwise dot, which the k-way
/// cold Gram equals bit for bit.
///
/// With no stored prefix (or an approximate config, which never publishes
/// campaign-level artifacts) this delegates to
/// [`run_campaign_incremental_cancellable`].
pub fn run_campaign_append(
    config: &CampaignConfig,
    store: &ArtifactStore,
) -> Result<CampaignResult, IncrementalError> {
    run_campaign_append_with_metrics(config, store, None)
}

/// [`run_campaign_append`] with per-stage instrumentation; see
/// [`run_campaign_incremental_with_metrics`].
pub fn run_campaign_append_with_metrics(
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
) -> Result<CampaignResult, IncrementalError> {
    run_campaign_append_cancellable(config, store, metrics, None, 0, None)
        .map_err(Interrupted::into_failure)
}

/// [`run_campaign_append`] with tracing and cooperative cancellation,
/// mirroring [`run_campaign_incremental_cancellable`].
pub fn run_campaign_append_cancellable(
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<&Tracer>,
    run_base: u32,
    cancel: Option<&CancelToken>,
) -> Result<CampaignResult, Interrupted<IncrementalError>> {
    // Find the largest stored prefix: the campaign key is a pure function
    // of the run set, so a shorter campaign with the same base seed is
    // exactly a prefix of this one.
    let mut prefix: Option<(u32, KernelMatrix)> = None;
    if config.approx == GramApprox::Exact {
        for r in (1..=config.runs).rev() {
            let sub = config.clone().runs(r);
            if let Some(m) = get_or_heal::<KernelMatrix>(store, campaign_fingerprint(&sub))? {
                prefix = Some((r, m));
                break;
            }
        }
    }
    let Some((stored_runs, stored)) = prefix else {
        return run_campaign_incremental_cancellable(
            config, store, metrics, tracer, run_base, cancel,
        );
    };

    let _campaign_span = metrics.map(|m| m.span("campaign"));
    let program = config.pattern.build(&config.app);
    let (traces, graphs) =
        load_or_compute_runs(&program, config, store, metrics, tracer, run_base, cancel)?;

    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        let mut feats: Vec<Option<SparseFeatures>> = (0..config.runs).map(|_| None).collect();
        let mut missing = Vec::new();
        for run in 0..config.runs {
            match get_or_heal::<SparseFeatures>(store, features_fingerprint(config, run))? {
                Some(f) => feats[run as usize] = Some(f),
                None => missing.push(run as usize),
            }
        }
        let feats = fill_missing_features(config, store, &graphs, &missing, feats, metrics)?;
        let mut m = stored;
        for grown in stored_runs + 1..=config.runs {
            m = gram_append(
                &m,
                &feats[..grown as usize],
                config.threads,
                config.dot,
                metrics,
            );
            let fp = campaign_fingerprint(&config.clone().runs(grown));
            store.put(fp, &m)?;
            store.put(fp, &DistanceSample(m.pairwise_distances()))?;
        }
        m
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use anacin_miniapps::Pattern;
    use anacin_store::ArtifactKind;
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!(
            "anacin-incremental-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        (dir, store)
    }

    fn small_cfg() -> CampaignConfig {
        CampaignConfig::new(Pattern::MessageRace, 6).runs(6)
    }

    #[test]
    fn cold_run_matches_plain_campaign() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("cold");
        let plain = run_campaign(&cfg).unwrap();
        let cold = run_campaign_incremental(&cfg, &store).unwrap();
        assert_eq!(cold.traces, plain.traces);
        assert_eq!(cold.graphs, plain.graphs);
        assert_eq!(cold.matrix, plain.matrix);
        let a = store.activity();
        assert_eq!(a.hits, 0);
        assert!(a.puts > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_run_is_bit_identical_and_simulates_nothing() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("warm");
        let cold = run_campaign_incremental(&cfg, &store).unwrap();

        let reg = MetricsRegistry::new();
        store.attach_metrics(&reg);
        let warm = run_campaign_incremental_with_metrics(&cfg, &store, Some(&reg)).unwrap();
        assert_eq!(warm.traces, cold.traces);
        assert_eq!(warm.graphs, cold.graphs);
        assert_eq!(warm.matrix, cold.matrix);
        // Byte-level identity of the serialised artifacts.
        for run in 0..cfg.runs {
            assert_eq!(
                warm.traces[run as usize].to_wire(),
                cold.traces[run as usize].to_wire()
            );
        }
        let report = reg.report();
        // Fully warm: every artifact was a hit, nothing was simulated.
        assert_eq!(report.counter("sim/runs"), None);
        // 6 traces + 6 graphs + 6 feature vectors + 1 matrix.
        assert_eq!(report.counter("store/hits"), Some(19));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_result() {
        let cfg = small_cfg();
        // The "interrupted" campaign: only the first 3 runs reached the
        // store (runs share per-seed keys, so a shorter campaign with the
        // same base seed is exactly a prefix).
        let (dir, store) = tmp_store("resume");
        run_campaign_incremental(&cfg.clone().runs(3), &store).unwrap();
        let before = store.activity();
        let resumed = run_campaign_incremental(&cfg, &store).unwrap();
        let after = store.activity();
        // The 3 stored traces were reused, the other 3 simulated.
        assert!(after.hits >= before.hits + 3);
        let uninterrupted = run_campaign(&cfg).unwrap();
        assert_eq!(resumed.traces, uninterrupted.traces);
        assert_eq!(resumed.matrix, uninterrupted.matrix);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_artifact_self_heals() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("heal");
        run_campaign_incremental(&cfg, &store).unwrap();
        // Flip one byte in run 0's stored trace.
        let path = store.path_of(run_fingerprint(&cfg, 0), ArtifactKind::Trace);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        // Resume in a fresh process image (new store handle, cold LRU):
        // the damage must be detected, recomputed, and republished.
        let store = ArtifactStore::open(store.root()).unwrap();
        let healed = run_campaign_incremental(&cfg, &store).unwrap();
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(healed.traces, plain.traces);
        assert!(store.activity().corrupt >= 1);
        // The damaged file was republished: a fresh read decodes cleanly.
        assert!(ArtifactStore::open(store.root())
            .unwrap()
            .get::<Trace>(run_fingerprint(&cfg, 0))
            .unwrap()
            .is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kernel_sweep_reuses_traces_and_graphs() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("ksweep");
        run_campaign_incremental(&cfg, &store).unwrap();
        let other = cfg
            .clone()
            .kernel(crate::config::KernelChoice::VertexHistogram {
                policy: anacin_event_graph::LabelPolicy::EventType,
            });
        let before = store.activity();
        run_campaign_incremental(&other, &store).unwrap();
        let after = store.activity();
        // Traces and graphs hit (2 per run); features and matrix recompute.
        assert!(after.hits >= before.hits + 2 * cfg.runs as u64);
        assert!(after.misses > before.misses);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprints_separate_semantic_inputs_and_ignore_threads() {
        let cfg = small_cfg();
        let base = run_fingerprint(&cfg, 0);
        assert_ne!(base, run_fingerprint(&cfg, 1));
        assert_ne!(base, run_fingerprint(&cfg.clone().nd_percent(50.0), 0));
        assert_ne!(base, run_fingerprint(&cfg.clone().base_seed(99), 0));
        assert_ne!(base, run_fingerprint(&cfg.clone().nodes(4), 0));
        // Same seed reached via different (base_seed, run) splits is the
        // same trace, and gets the same key.
        assert_eq!(
            run_fingerprint(&cfg.clone().base_seed(5), 3),
            run_fingerprint(&cfg.clone().base_seed(7), 1)
        );
        // Kernel affects features and campaign keys, not run keys.
        let other_kernel = cfg
            .clone()
            .kernel(crate::config::KernelChoice::VertexHistogram {
                policy: anacin_event_graph::LabelPolicy::EventType,
            });
        assert_eq!(base, run_fingerprint(&other_kernel, 0));
        assert_ne!(
            features_fingerprint(&cfg, 0),
            features_fingerprint(&other_kernel, 0)
        );
        assert_ne!(
            campaign_fingerprint(&cfg),
            campaign_fingerprint(&other_kernel)
        );
        // Thread count is not key material.
        let mut threaded = cfg.clone();
        threaded.threads = 1;
        assert_eq!(base, run_fingerprint(&threaded, 0));
        assert_eq!(campaign_fingerprint(&cfg), campaign_fingerprint(&threaded));
        // Nor the dot-product implementation (bit-identical results) or
        // the approximation mode (approximate matrices are never stored,
        // so the key may only ever name exact artifacts).
        let blocked = cfg.clone().dot(anacin_kernels::feature::DotKind::Blocked);
        let approx = cfg.clone().approx(GramApprox::Landmarks(4));
        for other in [&blocked, &approx] {
            assert_eq!(base, run_fingerprint(other, 0));
            assert_eq!(
                features_fingerprint(&cfg, 0),
                features_fingerprint(other, 0)
            );
            assert_eq!(campaign_fingerprint(&cfg), campaign_fingerprint(other));
        }
    }

    #[test]
    fn append_one_run_does_exactly_r_plus_1_dots_and_matches_cold_recompute() {
        let cfg = small_cfg(); // 6 runs
        let (dir, store) = tmp_store("append");
        run_campaign_incremental(&cfg, &store).unwrap();

        // Append one run: the store holds the 6-run matrix, so the kernel
        // stage must do exactly 7 new dot products (one new row, diagonal
        // included) and extract exactly one new feature vector.
        let cfg7 = cfg.clone().runs(7);
        let reg = MetricsRegistry::new();
        let appended = run_campaign_append_with_metrics(&cfg7, &store, Some(&reg)).unwrap();
        let report = reg.report();
        assert_eq!(report.counter("kernel/dot_products"), Some(7));
        assert_eq!(report.counter("kernel/features"), Some(1));
        assert_eq!(report.counter("sim/runs"), Some(1));

        // The appended matrix and its stored bytes are identical to a cold
        // recompute of the 7-run campaign in a fresh store.
        let (dir2, store2) = tmp_store("append-cold");
        let cold = run_campaign_incremental(&cfg7, &store2).unwrap();
        assert_eq!(appended.matrix, cold.matrix);
        assert_eq!(
            appended
                .matrix
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            cold.matrix
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        let fp = campaign_fingerprint(&cfg7);
        for kind in [ArtifactKind::Gram, ArtifactKind::Distances] {
            let a = std::fs::read(store.path_of(fp, kind)).unwrap();
            let b = std::fs::read(store2.path_of(fp, kind)).unwrap();
            assert_eq!(a, b, "append-published {kind:?} must be byte-identical");
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir2);
    }

    #[test]
    fn append_is_bit_identical_across_threads_dots_and_store_temperature() {
        use anacin_kernels::feature::DotKind;
        let base_cfg = small_cfg();
        let reference = run_campaign(&base_cfg.clone().runs(8)).unwrap();
        for dot in [DotKind::Scalar, DotKind::Blocked] {
            for threads in [1usize, 2, 8] {
                // Cold store: no prefix exists, so append falls back to the
                // full incremental path.
                let mut cfg = base_cfg.clone().runs(8).dot(dot);
                cfg.threads = threads;
                let (dir, store) = tmp_store(&format!("append-abt-{dot}-{threads}"));
                let cold = run_campaign_append(&cfg, &store).unwrap();
                assert_eq!(
                    cold.matrix, reference.matrix,
                    "cold dot={dot} threads={threads}"
                );
                // Warm store: grow the stored 8-run campaign one run at a
                // time to 10; every intermediate matrix is published, and
                // the final one matches a from-scratch campaign bit for bit.
                let mut grown = cfg.clone();
                for runs in 9..=10 {
                    grown = grown.runs(runs);
                    let r = run_campaign_append(&grown, &store).unwrap();
                    assert_eq!(r.matrix.len(), runs as usize);
                }
                let full = run_campaign(&grown).unwrap();
                let warm = run_campaign_append(&grown, &store).unwrap();
                assert_eq!(warm.matrix, full.matrix, "warm dot={dot} threads={threads}");
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    #[test]
    fn append_without_stored_prefix_delegates_to_full_incremental() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("append-fallback");
        let viaappend = run_campaign_append(&cfg, &store).unwrap();
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(viaappend.matrix, plain.matrix);
        assert_eq!(viaappend.traces, plain.traces);
        // And the store is now warm: a second append is a pure read.
        let reg = MetricsRegistry::new();
        let warm = run_campaign_append_with_metrics(&cfg, &store, Some(&reg)).unwrap();
        assert_eq!(warm.matrix, plain.matrix);
        assert_eq!(reg.report().counter("kernel/dot_products"), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn approximate_campaigns_never_touch_campaign_level_store_entries() {
        let cfg = small_cfg().approx(GramApprox::Landmarks(3));
        let (dir, store) = tmp_store("approx-store");
        let r = run_campaign_incremental(&cfg, &store).unwrap();
        assert_eq!(r.matrix.len(), cfg.runs as usize);
        // Per-run artifacts were published; the campaign-level matrix and
        // distance sample were not (the key names exact artifacts only).
        let exact = cfg.clone().approx(GramApprox::Exact);
        assert!(store
            .get::<KernelMatrix>(campaign_fingerprint(&exact))
            .unwrap()
            .is_none());
        assert!(store
            .get::<Trace>(run_fingerprint(&exact, 0))
            .unwrap()
            .is_some());
        // A later exact run warm-hits those per-run artifacts and computes
        // the exact matrix untainted.
        let e = run_campaign_incremental(&exact, &store).unwrap();
        assert_eq!(e.matrix, run_campaign(&exact).unwrap().matrix);
        let _ = std::fs::remove_dir_all(dir);
    }
}
