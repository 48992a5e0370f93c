//! Exhaustive-schedule campaigns: run the feature/Gram pipeline over the
//! *enumerated* schedule space instead of a random sample.
//!
//! [`explore_campaign`] is the systematic counterpart of
//! [`run_campaign`](crate::campaign::run_campaign): where a sampled
//! campaign simulates N random seeds and measures the spread of kernel
//! distances, an explore campaign asks `mpisim::explore` for every
//! distinct schedule the program admits (up to a budget), replays each
//! one through the engine at the campaign's base seed, and runs the same
//! graph/kernel pipeline over the results. The payoff is the statistics
//! sampling cannot give:
//!
//! * `max_distance` over the *whole* schedule space is a true worst case
//!   (when the enumeration is complete), not an empirical maximum;
//! * [`ExploreCampaignResult::coverage_of`] reports how much of the
//!   schedule space a sampled campaign actually visited, and checks the
//!   containment oracle (every sampled schedule ∈ explored set).
//!
//! Explored traces flow through the artifact store keyed by
//! [`ScheduleId`] ([`explore_fingerprint`]), so re-exploring a setting is
//! warm: the enumeration re-runs (it is fast and pure), but replays hit.

use crate::campaign::{CampaignError, CampaignResult};
use crate::config::CampaignConfig;
use crate::incremental::{absorb_setting, get_or_heal, IncrementalError};
use anacin_event_graph::EventGraph;
use anacin_kernels::matrix::{gram_matrix_with_metrics, KernelMatrix};
use anacin_mpisim::engine::SimError;
use anacin_mpisim::explore::{
    explore, flush_explore_metrics, simulate_scheduled, ExploreConfig, ExploreReport, Schedule,
    ScheduleId,
};
use anacin_mpisim::program::Program;
use anacin_mpisim::trace::Trace;
use anacin_obs::MetricsRegistry;
use anacin_store::{ArtifactStore, Fingerprint, FingerprintHasher};
use serde::Serialize;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fingerprint naming the replayed trace of one explored schedule.
/// Absorbs the run setting (pattern, app, ND, nodes, delay model), the
/// base seed (replays use `sim_config(0)`), and the schedule id — so a
/// re-exploration of the same setting is warm, and any semantic change
/// misses cleanly.
pub fn explore_fingerprint(config: &CampaignConfig, id: ScheduleId) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/explore");
    absorb_setting(&mut h, config);
    h.write_str("seed");
    h.write_u64(config.base_seed);
    h.write_str("schedule");
    h.write_u64(id.0);
    h.finish()
}

/// The artifacts of one explore campaign: one trace/graph per distinct
/// schedule, plus the kernel matrix over all of them.
pub struct ExploreCampaignResult {
    /// The configuration that produced the result.
    pub config: CampaignConfig,
    /// The program whose schedules were enumerated.
    pub program: Program,
    /// The enumeration itself: schedules in discovery order + statistics.
    pub report: ExploreReport,
    /// One replayed trace per explored schedule (same order).
    pub traces: Vec<Trace>,
    /// One event graph per explored schedule.
    pub graphs: Vec<EventGraph>,
    /// The kernel matrix over the explored schedules.
    pub matrix: KernelMatrix,
}

/// How a sampled campaign relates to an explored schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ExploreCoverage {
    /// Distinct schedules enumerated.
    pub explored: u64,
    /// Whether the enumeration was complete (no budget fired).
    pub complete: bool,
    /// Sampled runs inspected.
    pub sampled_runs: u64,
    /// Distinct schedules among the sampled runs.
    pub sampled_distinct: u64,
    /// Distinct sampled schedules that are members of the explored set.
    /// Equals `sampled_distinct` whenever `covered`; on a truncated walk
    /// it can be smaller.
    pub overlap: u64,
    /// `overlap / explored`: the fraction of the enumerated space the
    /// sample visited (1.0 = the sample saw everything).
    pub fraction: f64,
    /// Every sampled schedule is a member of the explored set. Must hold
    /// whenever `complete` — the exhaustiveness oracle.
    pub covered: bool,
    /// Maximum pairwise kernel distance among the sampled runs.
    pub sampled_max: f64,
    /// Maximum pairwise kernel distance over the explored schedules —
    /// the true worst case when `complete`, so `explored_max >=
    /// sampled_max` up to float tolerance.
    pub explored_max: f64,
}

fn max_pairwise(matrix: &KernelMatrix) -> f64 {
    matrix
        .pairwise_distances()
        .into_iter()
        .filter(|d| d.is_finite())
        .fold(0.0, f64::max)
}

impl ExploreCampaignResult {
    /// All pairwise kernel distances between explored schedules.
    pub fn distance_sample(&self) -> Vec<f64> {
        self.matrix.pairwise_distances()
    }

    /// Smallest pairwise distance (0.0 with fewer than two schedules).
    pub fn min_distance(&self) -> f64 {
        let m = self
            .matrix
            .pairwise_distances()
            .into_iter()
            .filter(|d| d.is_finite())
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Largest pairwise distance — the worst case over the schedule space
    /// when the enumeration is complete.
    pub fn max_distance(&self) -> f64 {
        max_pairwise(&self.matrix)
    }

    /// Mean pairwise distance over explored schedules.
    pub fn mean_distance(&self) -> f64 {
        self.matrix.mean_pairwise_distance()
    }

    /// Compare against a sampled campaign of the same setting.
    pub fn coverage_of(&self, sampled: &CampaignResult) -> ExploreCoverage {
        let explored_ids: HashSet<u64> = self.report.schedules.iter().map(|s| s.id().0).collect();
        let sampled_ids: HashSet<u64> = sampled
            .traces
            .iter()
            .map(|t| Schedule::from_trace(t).id().0)
            .collect();
        let covered = sampled_ids.iter().all(|id| explored_ids.contains(id));
        let overlap = sampled_ids.intersection(&explored_ids).count() as u64;
        let fraction = if explored_ids.is_empty() {
            0.0
        } else {
            overlap as f64 / explored_ids.len() as f64
        };
        ExploreCoverage {
            explored: explored_ids.len() as u64,
            complete: self.report.is_complete(),
            sampled_runs: sampled.traces.len() as u64,
            sampled_distinct: sampled_ids.len() as u64,
            overlap,
            fraction,
            covered,
            sampled_max: max_pairwise(&sampled.matrix),
            explored_max: self.max_distance(),
        }
    }
}

/// Replay every explored schedule at the campaign's base seed, warm from
/// the store when one is supplied. Schedule pins matching, seed pins
/// delays: each replay is bit-deterministic, so warm and cold paths are
/// byte-identical.
fn replay_schedules(
    program: &Program,
    config: &CampaignConfig,
    schedules: &[Schedule],
    store: Option<&ArtifactStore>,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<Trace>, IncrementalError> {
    let sc = config.sim_config(0);
    let mut slots: Vec<Option<Trace>> = (0..schedules.len()).map(|_| None).collect();
    let mut missing: Vec<usize> = Vec::new();
    if let Some(store) = store {
        for (i, s) in schedules.iter().enumerate() {
            match get_or_heal::<Trace>(store, explore_fingerprint(config, s.id()))? {
                Some(t) => slots[i] = Some(t),
                None => missing.push(i),
            }
        }
    } else {
        missing = (0..schedules.len()).collect();
    }
    if missing.is_empty() {
        return Ok(slots
            .into_iter()
            .map(|t| t.expect("all slots filled"))
            .collect());
    }
    let threads = config.threads.max(1).min(missing.len());
    let next = AtomicUsize::new(0);
    let results: Vec<Vec<(usize, Result<Trace, SimError>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let missing = &missing;
                let sc = &sc;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= missing.len() {
                            break;
                        }
                        let i = missing[slot];
                        local.push((i, simulate_scheduled(program, sc, &schedules[i])));
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
    // Deterministic failure: report the lowest failing schedule index.
    let mut failure: Option<CampaignError> = None;
    let mut computed: Vec<(usize, Trace)> = Vec::with_capacity(missing.len());
    for chunk in results {
        for (i, r) in chunk {
            match r {
                Ok(t) => computed.push((i, t)),
                Err(source) => {
                    let run = i as u32;
                    if failure.as_ref().is_none_or(|f| run < f.run) {
                        failure = Some(CampaignError {
                            run,
                            seed: sc.seed,
                            source,
                        });
                    }
                }
            }
        }
    }
    if let Some(f) = failure {
        return Err(f.into());
    }
    computed.sort_by_key(|&(i, _)| i);
    for (i, t) in computed {
        if let Some(store) = store {
            store.put(explore_fingerprint(config, schedules[i].id()), &t)?;
        }
        slots[i] = Some(t);
    }
    if let Some(m) = metrics {
        m.counter("explore/replays").add(missing.len() as u64);
    }
    Ok(slots
        .into_iter()
        .map(|t| t.expect("all slots filled"))
        .collect())
}

fn explore_campaign_inner(
    config: &CampaignConfig,
    xcfg: &ExploreConfig,
    store: Option<&ArtifactStore>,
    metrics: Option<&MetricsRegistry>,
) -> Result<ExploreCampaignResult, IncrementalError> {
    let _outer = metrics.map(|m| m.span("explore"));
    let program = config.pattern.build(&config.app);
    let report = {
        let _s = metrics.map(|m| m.span("enumerate"));
        let r = explore(&program, xcfg);
        if let Some(m) = metrics {
            flush_explore_metrics(m, &r.stats);
        }
        r
    };
    let traces = {
        let _s = metrics.map(|m| m.span("replay"));
        replay_schedules(&program, config, &report.schedules, store, metrics)?
    };
    let graphs: Vec<EventGraph> = {
        let _s = metrics.map(|m| m.span("graph"));
        traces
            .iter()
            .map(|t| EventGraph::from_trace_with_metrics(t, metrics))
            .collect()
    };
    let kernel = config.kernel.instantiate();
    let matrix = {
        let _s = metrics.map(|m| m.span("kernel"));
        gram_matrix_with_metrics(kernel.as_ref(), &graphs, config.threads, metrics)
    };
    Ok(ExploreCampaignResult {
        config: config.clone(),
        program,
        report,
        traces,
        graphs,
        matrix,
    })
}

/// Enumerate + replay + measure, without observability or a store.
pub fn explore_campaign(
    config: &CampaignConfig,
    xcfg: &ExploreConfig,
) -> Result<ExploreCampaignResult, CampaignError> {
    explore_campaign_observed(config, xcfg, None)
}

/// [`explore_campaign`] with per-stage spans (`explore/enumerate`,
/// `explore/replay`, `explore/graph`, `explore/kernel`) and the standard
/// explore counters.
pub fn explore_campaign_observed(
    config: &CampaignConfig,
    xcfg: &ExploreConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<ExploreCampaignResult, CampaignError> {
    explore_campaign_inner(config, xcfg, None, metrics).map_err(|e| match e {
        IncrementalError::Campaign(c) => c,
        IncrementalError::Store(_) => unreachable!("no store in use"),
    })
}

/// [`explore_campaign`] against an artifact store: replayed traces are
/// keyed by [`explore_fingerprint`], so a repeated exploration of the
/// same setting reuses every stored replay.
pub fn explore_campaign_incremental(
    config: &CampaignConfig,
    xcfg: &ExploreConfig,
    store: &ArtifactStore,
) -> Result<ExploreCampaignResult, IncrementalError> {
    explore_campaign_inner(config, xcfg, Some(store), None)
}

/// [`explore_campaign_incremental`] with the full instrumentation of
/// [`explore_campaign_observed`].
pub fn explore_campaign_incremental_observed(
    config: &CampaignConfig,
    xcfg: &ExploreConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
) -> Result<ExploreCampaignResult, IncrementalError> {
    explore_campaign_inner(config, xcfg, Some(store), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use anacin_miniapps::Pattern;
    use anacin_store::Artifact;
    use std::path::PathBuf;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig::new(Pattern::MessageRace, 5).runs(20)
    }

    fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir =
            std::env::temp_dir().join(format!("anacin-explore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn message_race_explores_completely_and_covers_samples() {
        // 4 senders → 4! = 24 distinct schedules.
        let cfg = small_cfg();
        let r = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        assert_eq!(r.report.schedules.len(), 24);
        assert!(r.report.is_complete());
        assert_eq!(r.traces.len(), 24);
        assert_eq!(r.graphs.len(), 24);
        let sampled = run_campaign(&cfg).unwrap();
        let cov = r.coverage_of(&sampled);
        assert!(cov.covered, "a sampled schedule escaped the enumeration");
        assert_eq!(cov.overlap, cov.sampled_distinct, "covered ⇒ full overlap");
        assert!(cov.sampled_distinct <= cov.explored);
        assert!(cov.fraction > 0.0 && cov.fraction <= 1.0);
        assert!(cov.explored_max >= cov.sampled_max - 1e-9);
    }

    #[test]
    fn explore_campaign_is_deterministic() {
        let cfg = small_cfg();
        let a = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        let b = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        assert_eq!(a.report.ids(), b.report.ids());
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.matrix, b.matrix);
    }

    #[test]
    fn explored_distances_are_schedule_distances() {
        // Replays of the *same* schedule under different base seeds give
        // different times but identical graphs — distances depend only on
        // the schedule, which is what makes explored_max comparable to
        // sampled maxima.
        let cfg = small_cfg();
        let a = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        let b = explore_campaign(&cfg.clone().base_seed(999), &ExploreConfig::default()).unwrap();
        assert_eq!(a.report.ids(), b.report.ids());
        assert_eq!(a.matrix, b.matrix);
        // Self-distances vanish: distinct schedules drive all spread.
        assert!(a.max_distance() > 0.0);
        assert!(a.min_distance() >= 0.0);
        assert!(a.mean_distance() > 0.0);
    }

    #[test]
    fn store_makes_re_exploration_warm_and_bit_identical() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("warm");
        let cold = explore_campaign_incremental(&cfg, &ExploreConfig::default(), &store).unwrap();
        let before = store.activity();
        let warm = explore_campaign_incremental(&cfg, &ExploreConfig::default(), &store).unwrap();
        let after = store.activity();
        assert!(after.hits >= before.hits + cold.traces.len() as u64);
        assert_eq!(warm.traces, cold.traces);
        for (w, c) in warm.traces.iter().zip(cold.traces.iter()) {
            assert_eq!(w.to_wire(), c.to_wire(), "warm replay not byte-identical");
        }
        assert_eq!(warm.matrix, cold.matrix);
        // And both agree with the storeless path.
        let plain = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        assert_eq!(plain.traces, cold.traces);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_exploration_reports_incomplete_coverage() {
        let cfg = small_cfg();
        let xcfg = ExploreConfig::with_budget(6);
        let r = explore_campaign(&cfg, &xcfg).unwrap();
        assert_eq!(r.report.schedules.len(), 6);
        assert!(!r.report.is_complete());
        let sampled = run_campaign(&cfg).unwrap();
        let cov = r.coverage_of(&sampled);
        assert!(!cov.complete);
    }

    #[test]
    fn explore_metrics_cover_every_stage() {
        let cfg = small_cfg();
        let m = MetricsRegistry::new();
        let r = explore_campaign_observed(&cfg, &ExploreConfig::default(), Some(&m)).unwrap();
        let rep = m.report();
        for stage in [
            "explore",
            "explore/enumerate",
            "explore/replay",
            "explore/graph",
            "explore/kernel",
        ] {
            assert!(rep.span(stage).is_some(), "missing span {stage}");
        }
        assert_eq!(
            rep.counter("explore/schedules"),
            Some(r.report.stats.schedules)
        );
        assert_eq!(
            rep.counter("explore/branches"),
            Some(r.report.stats.branches)
        );
        assert!(rep.counter("explore/pruned").is_some());
        assert_eq!(rep.counter("explore/replays"), Some(24));
        // Observability never changes the measurement.
        let plain = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        assert_eq!(r.matrix, plain.matrix);
    }

    #[test]
    fn explore_fingerprints_separate_inputs() {
        let cfg = small_cfg();
        let r = explore_campaign(&cfg, &ExploreConfig::default()).unwrap();
        let a = r.report.schedules[0].id();
        let b = r.report.schedules[1].id();
        let base = explore_fingerprint(&cfg, a);
        assert_ne!(base, explore_fingerprint(&cfg, b));
        assert_ne!(base, explore_fingerprint(&cfg.clone().nd_percent(50.0), a));
        assert_ne!(base, explore_fingerprint(&cfg.clone().base_seed(9), a));
        // Thread count is not key material.
        let mut threaded = cfg.clone();
        threaded.threads = 1;
        assert_eq!(base, explore_fingerprint(&threaded, a));
    }
}
