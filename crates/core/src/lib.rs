//! # anacin-core
//!
//! The ANACIN-X analysis pipeline — the paper's primary contribution,
//! assembled from the substrate crates:
//!
//! 1. **Campaigns** ([`campaign()`]): run a mini-application many times
//!    (in parallel, seeded) and build the event graph of every run. One
//!    [`RunCtx`] carries the cross-cutting concerns — metrics, tracer,
//!    cancellation, artifact-store policy — so the whole public runner
//!    surface is [`campaign()`], [`campaign::campaign_streaming`],
//!    [`explore::explore_campaign`] and [`sweep::sweep`], plus the plain
//!    [`run_campaign`] and the store shorthands [`run_campaign_incremental`]
//!    and [`incremental::run_campaign_append_with_metrics`].
//! 2. **Measurement** ([`measure`]): the pairwise kernel-distance sample
//!    over the runs is the measured amount of non-determinism.
//! 3. **Sweeps** ([`sweep::sweep`]): vary ND%, process count, or
//!    iteration count and measure at each setting — the paper's Figures
//!    5, 6 and 7.
//! 4. **Root-cause analysis** ([`root_cause`]): localise the call paths
//!    active in the most-divergent logical-time windows — Figure 8.
//!
//! ```
//! use anacin_core::prelude::*;
//! use anacin_miniapps::Pattern;
//!
//! // Measure the non-determinism of an 8-process message race at 100% ND.
//! let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
//! let result = run_campaign(&cfg).unwrap();
//! assert!(result.mean_distance() > 0.0);
//!
//! // And at 0% the same program is perfectly deterministic.
//! let det = run_campaign(&cfg.clone().nd_percent(0.0)).unwrap();
//! assert_eq!(det.mean_distance(), 0.0);
//!
//! // Observing a campaign is a context, not a different function.
//! let reg = anacin_obs::MetricsRegistry::new();
//! let ctx = RunCtx { metrics: Some(&reg), ..RunCtx::default() };
//! let observed = campaign(&cfg, &ctx).unwrap();
//! assert_eq!(observed.matrix, result.matrix);
//! assert_eq!(reg.report().counter("campaign/runs"), Some(10));
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod config;
pub mod explore;
pub mod incremental;
pub mod measure;
pub mod report;
pub mod root_cause;
pub mod sweep;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::ablation::{ablate, default_kernels, AblationReport, AblationRow};
    pub use crate::campaign::{
        campaign, campaign_streaming, run_campaign, CampaignError, CampaignResult, Interrupted,
        RunCtx, StorePolicy, StreamingCampaignResult,
    };
    pub use crate::config::{default_threads, CampaignConfig, KernelChoice};
    pub use crate::explore::{
        explore_campaign, explore_fingerprint, ExploreCampaignResult, ExploreCoverage,
    };
    pub use crate::incremental::{
        campaign_fingerprint, features_fingerprint, run_campaign_append_with_metrics,
        run_campaign_incremental, run_fingerprint, IncrementalError, KEY_SCHEMA,
    };
    pub use crate::measure::NdMeasurement;
    pub use crate::report::{
        campaign_label, measurement_json, ranking_table, sweep_table, sweep_text, ExploreSection,
        MeasurementReport, RunWithExploreReport,
    };
    pub use crate::root_cause::{
        analyze, window_scores, CallstackRanking, RootCauseConfig, WindowScore,
    };
    pub use crate::sweep::{sweep, Sweep, SweepAxis, SweepMetrics, SweepPoint, SweepPointMetrics};
}

pub use campaign::{campaign, run_campaign, CampaignError, CampaignResult, RunCtx, StorePolicy};
pub use config::{CampaignConfig, KernelChoice};
pub use incremental::{run_campaign_incremental, IncrementalError};
pub use measure::NdMeasurement;
