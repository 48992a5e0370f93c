//! Parameter sweeps: the shape of every evaluation figure. One
//! [`sweep`] runs any [`SweepAxis`]:
//!
//! * [`SweepAxis::NdPercent`] — Figure 7 (kernel distance vs injected ND%);
//! * [`SweepAxis::Procs`] — Figure 5 (process-count scaling);
//! * [`SweepAxis::Iterations`] — Figure 6 (iteration scaling).

use crate::campaign::{campaign, check_cancel, Interrupted, RunCtx};
use crate::config::CampaignConfig;
use crate::incremental::IncrementalError;
use crate::measure::NdMeasurement;
use anacin_obs::{MetricsRegistry, MetricsReport};
use anacin_stats::prelude::spearman;
use serde::{Deserialize, Serialize};

/// One sweep point: the swept value and its measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// The measurement at that value.
    pub measurement: NdMeasurement,
}

/// A finished sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Name of the swept parameter.
    pub parameter: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
    /// Per-point metrics, when the sweep ran with a registry.
    pub metrics: Option<SweepMetrics>,
}

impl Sweep {
    /// `(x, mean distance)` series — the line the paper plots.
    pub fn mean_series(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.x, p.measurement.mean()))
            .collect()
    }

    /// Monotone-up-to-noise check: every mean stays within `tolerance`
    /// (relative) of the running maximum, i.e. the curve may rise and
    /// plateau but never significantly dips. This is the robust form of
    /// the Figure-7 claim at small sample sizes, where rank correlation
    /// over a saturated plateau is dominated by tie noise.
    pub fn is_monotone_within(&self, tolerance: f64) -> bool {
        let mut running_max = f64::NEG_INFINITY;
        for p in &self.points {
            let m = p.measurement.mean();
            if m < running_max * (1.0 - tolerance) {
                return false;
            }
            running_max = running_max.max(m);
        }
        true
    }

    /// Spearman rank correlation between the parameter and the mean
    /// distance — the monotonicity statistic for the Figure-7 claim.
    pub fn spearman_monotonicity(&self) -> f64 {
        let xs: Vec<f64> = self.points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = self.points.iter().map(|p| p.measurement.mean()).collect();
        if xs.len() < 2 {
            return 0.0;
        }
        spearman(&xs, &ys)
    }
}

/// Per-stage metrics of one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPointMetrics {
    /// Name of the swept parameter (`nd_percent`, `procs`, `iterations`).
    pub parameter: String,
    /// The swept value at this point.
    pub x: f64,
    /// Human label of the point (e.g. `nd=30%`, `8 procs`).
    pub label: String,
    /// This point's own metrics snapshot (stage spans + counters for the
    /// one campaign the point ran).
    pub report: MetricsReport,
}

/// Metrics of a sweep run with a registry: one report per point plus the
/// aggregate — the per-point breakdown lets stage time be plotted against
/// the swept parameter instead of lumping all campaigns together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepMetrics {
    /// The sweep's registry after the sweep: every point's instruments,
    /// plus whatever else reported into it (e.g. store activity).
    pub aggregate: MetricsReport,
    /// One entry per sweep point, in sweep order.
    pub points: Vec<SweepPointMetrics>,
}

/// The swept parameter and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Injected ND percentage (Figure 7: 0..=100 in steps of 10).
    NdPercent(Vec<f64>),
    /// Process count (Figure 5 compares 16 vs 32).
    Procs(Vec<u32>),
    /// Iteration count (Figure 6 compares 1 vs 2).
    Iterations(Vec<u32>),
}

impl SweepAxis {
    /// The default point set of a named sweep kind — what `anacin sweep
    /// --kind` and the daemon's sweep jobs run: `nd` is 0..=100 % in steps
    /// of 10, `procs` is `[max(p/2, 2), p, 2p]` around the base process
    /// count `p`, and `iterations` is `[1, 2, 4]`.
    pub fn named(kind: &str, base: &CampaignConfig) -> Result<SweepAxis, String> {
        match kind {
            "nd" => Ok(SweepAxis::NdPercent(
                (0..=10).map(|i| i as f64 * 10.0).collect(),
            )),
            "procs" => {
                let p = base.app.procs;
                Ok(SweepAxis::Procs(vec![(p / 2).max(2), p, p * 2]))
            }
            "iterations" => Ok(SweepAxis::Iterations(vec![1, 2, 4])),
            other => Err(format!("unknown sweep kind '{other}'")),
        }
    }

    /// Name of the swept parameter, as reported in [`Sweep::parameter`].
    fn parameter(&self) -> &'static str {
        match self {
            SweepAxis::NdPercent(_) => "nd_percent",
            SweepAxis::Procs(_) => "procs",
            SweepAxis::Iterations(_) => "iterations",
        }
    }

    /// How many points the sweep runs.
    pub fn point_count(&self) -> usize {
        match self {
            SweepAxis::NdPercent(v) => v.len(),
            SweepAxis::Procs(v) | SweepAxis::Iterations(v) => v.len(),
        }
    }

    /// The `(x, label, config)` triple of every point.
    fn points(&self, base: &CampaignConfig) -> Vec<(f64, String, CampaignConfig)> {
        match self {
            SweepAxis::NdPercent(percents) => percents
                .iter()
                .map(|&p| (p, format!("nd={p}%"), base.clone().nd_percent(p)))
                .collect(),
            SweepAxis::Procs(procs) => procs
                .iter()
                .map(|&n| {
                    let mut cfg = base.clone();
                    cfg.app.procs = n;
                    (n as f64, format!("{n} procs"), cfg)
                })
                .collect(),
            SweepAxis::Iterations(iterations) => iterations
                .iter()
                .map(|&it| {
                    let s = if it == 1 { "" } else { "s" };
                    (
                        it as f64,
                        format!("{it} iteration{s}"),
                        base.clone().iterations(it),
                    )
                })
                .collect(),
        }
    }
}

/// Run one campaign per point of `axis`, each under `ctx` (so a store
/// policy makes a re-run sweep warm, and a cancellation stops after the
/// in-flight runs; `Interrupted::Cancelled` counts runs completed across
/// the whole sweep).
///
/// With `ctx.metrics`, each point runs under its own
/// [`MetricsRegistry::child`], reported in [`Sweep::metrics`] so stage
/// costs stay attributable per point, while the caller's registry still
/// sees every instrument live; the aggregate is the caller's registry
/// after the sweep. A tracer collects every point's runs with ids offset
/// by the runs of the points before it, so they never collide.
/// Measurements are bit-identical whatever the context.
pub fn sweep(
    base: &CampaignConfig,
    axis: &SweepAxis,
    ctx: &RunCtx,
) -> Result<Sweep, Interrupted<IncrementalError>> {
    let parameter = axis.parameter();
    let mut points = Vec::with_capacity(axis.point_count());
    let mut point_metrics = Vec::new();
    let mut done_runs = 0u32;
    for (x, label, cfg) in axis.points(base) {
        check_cancel(ctx.cancel, done_runs)?;
        let registry = ctx.metrics.map(MetricsRegistry::child);
        let point_ctx = RunCtx {
            metrics: registry.as_ref(),
            run_base: ctx.run_base + done_runs,
            ..*ctx
        };
        let r = campaign(&cfg, &point_ctx).map_err(|e| match e {
            Interrupted::Cancelled { completed_runs } => Interrupted::Cancelled {
                completed_runs: done_runs + completed_runs,
            },
            e => e,
        })?;
        done_runs += cfg.runs;
        if let Some(reg) = registry {
            point_metrics.push(SweepPointMetrics {
                parameter: parameter.to_string(),
                x,
                label: label.clone(),
                report: reg.report(),
            });
        }
        points.push(SweepPoint {
            x,
            measurement: NdMeasurement::from_campaign(label, &r),
        });
    }
    Ok(Sweep {
        parameter: parameter.to_string(),
        points,
        metrics: ctx.metrics.map(|m| SweepMetrics {
            aggregate: m.report(),
            points: point_metrics,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::StorePolicy;
    use anacin_miniapps::Pattern;
    use anacin_obs::Tracer;

    fn plain(base: &CampaignConfig, axis: SweepAxis) -> Sweep {
        sweep(base, &axis, &RunCtx::default()).unwrap()
    }

    fn small_base(pattern: Pattern, procs: u32, runs: u32) -> CampaignConfig {
        CampaignConfig::new(pattern, procs).runs(runs)
    }

    #[test]
    fn nd_sweep_is_monotone_for_race() {
        let base = small_base(Pattern::MessageRace, 8, 10);
        let sweep = plain(
            &base,
            SweepAxis::NdPercent(vec![0.0, 25.0, 50.0, 75.0, 100.0]),
        );
        assert_eq!(sweep.points.len(), 5);
        // Distance at 0% is exactly zero.
        assert_eq!(sweep.points[0].measurement.mean(), 0.0);
        // Strong monotone trend.
        let rho = sweep.spearman_monotonicity();
        assert!(rho > 0.85, "Spearman rho = {rho}");
    }

    #[test]
    fn proc_sweep_increases_distance() {
        let base = small_base(Pattern::UnstructuredMesh, 4, 10);
        let sweep = plain(&base, SweepAxis::Procs(vec![4, 16]));
        let series = sweep.mean_series();
        assert!(
            series[1].1 > series[0].1,
            "16 procs ({}) must exceed 4 procs ({})",
            series[1].1,
            series[0].1
        );
    }

    #[test]
    fn iteration_sweep_increases_distance() {
        let base = small_base(Pattern::UnstructuredMesh, 8, 10);
        let sweep = plain(&base, SweepAxis::Iterations(vec![1, 2]));
        let series = sweep.mean_series();
        assert!(series[1].1 > series[0].1);
        assert_eq!(sweep.points[0].measurement.label, "1 iteration");
        assert_eq!(sweep.points[1].measurement.label, "2 iterations");
    }

    #[test]
    fn monotone_within_tolerance() {
        let base = small_base(Pattern::MessageRace, 8, 8);
        let sweep = plain(
            &base,
            SweepAxis::NdPercent(vec![0.0, 25.0, 50.0, 75.0, 100.0]),
        );
        assert!(sweep.is_monotone_within(0.05));
        // A strict zero-tolerance check can legitimately fail on plateau
        // noise, but the rising race curve at these points happens to be
        // clean; the meaningful inverse test is a fabricated dip:
        let mut dipped = sweep.clone();
        dipped.points.swap(0, 4); // put the max first: later points dip
        assert!(!dipped.is_monotone_within(0.05));
    }

    #[test]
    fn instrumented_sweep_matches_plain_and_reports_per_point() {
        let base = small_base(Pattern::MessageRace, 6, 5);
        let percents = [0.0, 50.0, 100.0];
        let axis = SweepAxis::NdPercent(percents.to_vec());
        let unobserved = sweep(&base, &axis, &RunCtx::default()).unwrap();
        assert!(unobserved.metrics.is_none());
        let tracer = Tracer::with_capacity(1 << 16);
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            tracer: Some(&tracer),
            ..RunCtx::default()
        };
        let observed = sweep(&base, &axis, &ctx).unwrap();
        // Instrumentation is bit-exact.
        assert_eq!(observed.mean_series(), unobserved.mean_series());
        let metrics = observed
            .metrics
            .expect("a registry yields per-point metrics");
        // One report per point, each covering one campaign.
        assert_eq!(metrics.points.len(), 3);
        for (pm, &p) in metrics.points.iter().zip(&percents) {
            assert_eq!(pm.parameter, "nd_percent");
            assert_eq!(pm.x, p);
            assert_eq!(pm.report.counter("campaign/runs"), Some(5));
            assert!(
                pm.report.span("campaign/simulate").is_some(),
                "{}",
                pm.label
            );
        }
        // The aggregate is the sum of the points.
        assert_eq!(metrics.aggregate.counter("campaign/runs"), Some(15));
        // The shared tracer saw every run exactly once, with unique ids
        // offset per point.
        let runs: Vec<u32> = tracer
            .snapshot()
            .sim_events_per_run()
            .iter()
            .map(|&(r, _)| r)
            .collect();
        assert_eq!(runs, (0..15).collect::<Vec<u32>>());
    }

    #[test]
    fn sweep_metrics_round_trip_json() {
        let base = small_base(Pattern::MessageRace, 4, 3);
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..RunCtx::default()
        };
        let metrics = sweep(&base, &SweepAxis::Procs(vec![4, 6]), &ctx)
            .unwrap()
            .metrics
            .unwrap();
        let json = serde_json::to_string_pretty(&metrics).unwrap();
        let back: SweepMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn stored_sweep_matches_plain_and_rerun_is_warm() {
        let dir =
            std::env::temp_dir().join(format!("anacin-sweep-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = anacin_store::ArtifactStore::open(&dir).unwrap();
        let base = small_base(Pattern::MessageRace, 6, 5);
        let axis = SweepAxis::NdPercent(vec![0.0, 100.0]);
        let unstored = plain(&base, axis.clone());
        let ctx = RunCtx {
            store: StorePolicy::Reuse(&store),
            ..RunCtx::default()
        };
        let cold = sweep(&base, &axis, &ctx).unwrap();
        assert_eq!(cold.mean_series(), unstored.mean_series());
        let puts_after_cold = store.activity().puts;
        let warm = sweep(&base, &axis, &ctx).unwrap();
        assert_eq!(warm.mean_series(), unstored.mean_series());
        // The warm sweep published nothing new.
        assert_eq!(store.activity().puts, puts_after_cold);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_series_shapes() {
        let base = small_base(Pattern::MessageRace, 6, 6);
        let sweep = plain(&base, SweepAxis::NdPercent(vec![0.0, 100.0]));
        assert_eq!(sweep.parameter, "nd_percent");
        assert_eq!(sweep.mean_series().len(), 2);
    }

    #[test]
    fn named_axes_hold_the_default_point_sets() {
        let base = small_base(Pattern::MessageRace, 8, 2);
        let nd = SweepAxis::named("nd", &base).unwrap();
        assert_eq!(
            nd,
            SweepAxis::NdPercent((0..=10).map(|i| i as f64 * 10.0).collect())
        );
        assert_eq!(nd.point_count(), 11);
        assert_eq!(
            SweepAxis::named("procs", &base).unwrap(),
            SweepAxis::Procs(vec![4, 8, 16])
        );
        let tiny = small_base(Pattern::MessageRace, 2, 2);
        assert_eq!(
            SweepAxis::named("procs", &tiny).unwrap(),
            SweepAxis::Procs(vec![2, 2, 4])
        );
        assert_eq!(
            SweepAxis::named("iterations", &base).unwrap(),
            SweepAxis::Iterations(vec![1, 2, 4])
        );
        let err = SweepAxis::named("bananas", &base).unwrap_err();
        assert_eq!(err, "unknown sweep kind 'bananas'");
    }
}
