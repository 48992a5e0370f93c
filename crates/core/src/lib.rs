//! # anacin-core
//!
//! The ANACIN-X analysis pipeline — the paper's primary contribution,
//! assembled from the substrate crates:
//!
//! 1. **Campaigns** ([`campaign`]): run a mini-application many times (in
//!    parallel, seeded) and build the event graph of every run.
//! 2. **Measurement** ([`measure`]): the pairwise kernel-distance sample
//!    over the runs is the measured amount of non-determinism.
//! 3. **Sweeps** ([`sweep`]): vary ND%, process count, or iteration count
//!    and measure at each setting — the paper's Figures 5, 6 and 7.
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
        run_campaign, run_campaign_cancellable, run_campaign_observed, run_campaign_streaming,
        run_campaign_streaming_cancellable, run_campaign_streaming_observed,
        run_campaign_with_metrics, run_traces, run_traces_cancellable, run_traces_observed,
        run_traces_with_metrics, CampaignError, CampaignResult, Interrupted,
        StreamingCampaignResult,
    };
    pub use crate::config::{default_threads, CampaignConfig, GramApprox, KernelChoice};
    pub use crate::explore::{
        explore_campaign, explore_campaign_incremental, explore_campaign_incremental_observed,
        explore_campaign_observed, explore_fingerprint, ExploreCampaignResult, ExploreCoverage,
    };
    pub use crate::incremental::{
        campaign_fingerprint, features_fingerprint, run_campaign_append,
        run_campaign_append_cancellable, run_campaign_append_with_metrics,
        run_campaign_incremental, run_campaign_incremental_cancellable,
        run_campaign_incremental_observed, run_campaign_incremental_with_metrics, run_fingerprint,
        IncrementalError, KEY_SCHEMA,
    };
    pub use crate::measure::NdMeasurement;
    pub use crate::report::{
        campaign_label, measurement_json, ranking_table, sweep_table, sweep_text, ExploreSection,
        MeasurementReport, RunWithExploreReport,
    };
    pub use crate::root_cause::{
        analyze, window_scores, CallstackRanking, RootCauseConfig, WindowScore,
    };
    pub use crate::sweep::{
        sweep_iterations, sweep_iterations_cancellable, sweep_iterations_instrumented,
        sweep_iterations_instrumented_cancellable, sweep_iterations_stored,
        sweep_iterations_stored_cancellable, sweep_iterations_with_metrics, sweep_nd_percent,
        sweep_nd_percent_cancellable, sweep_nd_percent_instrumented,
        sweep_nd_percent_instrumented_cancellable, sweep_nd_percent_stored,
        sweep_nd_percent_stored_cancellable, sweep_nd_percent_with_metrics, sweep_procs,
        sweep_procs_cancellable, sweep_procs_instrumented, sweep_procs_instrumented_cancellable,
        sweep_procs_stored, sweep_procs_stored_cancellable, sweep_procs_with_metrics, Sweep,
        SweepMetrics, SweepPoint, SweepPointMetrics,
    };
}

pub use campaign::{run_campaign, run_campaign_with_metrics, CampaignError, CampaignResult};
pub use config::{CampaignConfig, GramApprox, KernelChoice};
pub use incremental::{run_campaign_incremental, IncrementalError};
pub use measure::NdMeasurement;
