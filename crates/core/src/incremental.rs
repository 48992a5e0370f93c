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
//! neither changes a result, so warm hits survive re-running on a
//! different machine shape. Changing pipeline semantics requires bumping
//! [`KEY_SCHEMA`], which cleanly invalidates every old key.

use crate::campaign::{campaign, CampaignError, CampaignResult, Interrupted, RunCtx, StorePolicy};
use crate::config::CampaignConfig;
use anacin_obs::MetricsRegistry;
use anacin_store::{Artifact, ArtifactStore, Fingerprint, FingerprintHasher, StoreError};
use std::fmt;

/// Version of the key material fed into fingerprints. Bump whenever the
/// pipeline's semantics change in a way that should invalidate previously
/// stored artifacts (every old key then misses cleanly).
pub const KEY_SCHEMA: u32 = 1;

/// A campaign failed: either a seeded run, or the artifact store
/// underneath it.
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

impl IncrementalError {
    /// The run failure of a campaign that used no store.
    pub(crate) fn into_campaign(self) -> CampaignError {
        match self {
            IncrementalError::Campaign(e) => e,
            IncrementalError::Store(e) => unreachable!("no store in use, yet: {e}"),
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

/// Run a campaign against an artifact store: reuse every stored artifact,
/// compute and publish the rest — [`campaign`] under
/// [`StorePolicy::Reuse`]. See the module docs for the key scheme and the
/// warm-path bit-identity guarantee.
pub fn run_campaign_incremental(
    config: &CampaignConfig,
    store: &ArtifactStore,
) -> Result<CampaignResult, IncrementalError> {
    let ctx = RunCtx {
        store: StorePolicy::Reuse(store),
        ..RunCtx::default()
    };
    campaign(config, &ctx).map_err(Interrupted::into_failure)
}

/// Append new runs onto a stored campaign, recording per-stage metrics:
/// [`campaign`] under [`StorePolicy::Append`]. For a stored `R`-run
/// campaign extended to `R + 1` runs, the kernel stage performs exactly
/// `R + 1` new dot products instead of the `O(R²)` a recompute would, and
/// the published matrix is byte-identical to a cold recompute.
pub fn run_campaign_append_with_metrics(
    config: &CampaignConfig,
    store: &ArtifactStore,
    metrics: Option<&MetricsRegistry>,
) -> Result<CampaignResult, IncrementalError> {
    let ctx = RunCtx {
        metrics,
        store: StorePolicy::Append(store),
        ..RunCtx::default()
    };
    campaign(config, &ctx).map_err(Interrupted::into_failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use anacin_miniapps::Pattern;
    use anacin_mpisim::trace::Trace;
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
        let ctx = RunCtx {
            metrics: Some(&reg),
            store: StorePolicy::Reuse(&store),
            ..RunCtx::default()
        };
        let warm = campaign(&cfg, &ctx).unwrap();
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
    fn append_is_bit_identical_across_threads_and_store_temperature() {
        let base_cfg = small_cfg();
        let reference = run_campaign(&base_cfg.clone().runs(8)).unwrap();
        for threads in [1usize, 2, 8] {
            // Cold store: no prefix exists, so append falls back to the
            // full incremental path.
            let mut cfg = base_cfg.clone().runs(8);
            cfg.threads = threads;
            let (dir, store) = tmp_store(&format!("append-abt-{threads}"));
            let cold = run_campaign_append_with_metrics(&cfg, &store, None).unwrap();
            assert_eq!(cold.matrix, reference.matrix, "cold threads={threads}");
            // Warm store: grow the stored 8-run campaign one run at a
            // time to 10; every intermediate matrix is published, and
            // the final one matches a from-scratch campaign bit for bit.
            let mut grown = cfg.clone();
            for runs in 9..=10 {
                grown = grown.runs(runs);
                let r = run_campaign_append_with_metrics(&grown, &store, None).unwrap();
                assert_eq!(r.matrix.len(), runs as usize);
            }
            let full = run_campaign(&grown).unwrap();
            let warm = run_campaign_append_with_metrics(&grown, &store, None).unwrap();
            assert_eq!(warm.matrix, full.matrix, "warm threads={threads}");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn append_without_stored_prefix_delegates_to_full_incremental() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("append-fallback");
        let viaappend = run_campaign_append_with_metrics(&cfg, &store, None).unwrap();
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
}
