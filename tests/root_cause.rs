//! Root-cause scoring is exact and deterministic: the integer
//! sorted-column sums reproduce the pairwise float L1 definition bit for
//! bit, and the ranking does not depend on any hash order.

use anacin_x::event_graph::label::initial_labels;
use anacin_x::event_graph::slice::slice_by_position;
use anacin_x::prelude::*;
use std::collections::{HashMap, HashSet};

/// The pairwise definition the scores must match: per-window label
/// histograms as float maps, mean pairwise L1 per window, and per label
/// the mean pairwise `|Δcount|`.
fn oracle(result: &CampaignResult, config: &RootCauseConfig) -> Vec<(f64, HashMap<u64, f64>)> {
    let per_run: Vec<Vec<HashMap<u64, f64>>> = result
        .graphs
        .iter()
        .map(|g| {
            let labels = initial_labels(g, config.policy);
            slice_by_position(g, config.slices)
                .into_iter()
                .map(|s| {
                    let mut h = HashMap::new();
                    for id in &s.nodes {
                        *h.entry(labels[id.index()]).or_insert(0.0) += 1.0;
                    }
                    h
                })
                .collect()
        })
        .collect();
    let runs = per_run.len();
    let count = |r: usize, s: usize, key: u64| per_run[r][s].get(&key).copied().unwrap_or(0.0);
    (0..config.slices)
        .map(|s| {
            let keys: HashSet<u64> = per_run.iter().flat_map(|r| r[s].keys().copied()).collect();
            let (mut total, mut pairs) = (0.0, 0u64);
            for i in 0..runs {
                for j in (i + 1)..runs {
                    total += keys
                        .iter()
                        .map(|&k| (count(i, s, k) - count(j, s, k)).abs())
                        .sum::<f64>();
                    pairs += 1;
                }
            }
            let labels = keys
                .iter()
                .map(|&k| {
                    let mut t = 0.0;
                    for i in 0..runs {
                        for j in (i + 1)..runs {
                            t += (count(i, s, k) - count(j, s, k)).abs();
                        }
                    }
                    (k, t / pairs as f64)
                })
                .collect();
            (total / pairs as f64, labels)
        })
        .collect()
}

#[test]
fn window_scores_match_the_pairwise_l1_oracle_bit_for_bit() {
    let config = RootCauseConfig::default();
    for pattern in [
        Pattern::MessageRace,
        Pattern::Amg2013,
        Pattern::UnstructuredMesh,
    ] {
        let result = run_campaign(&CampaignConfig::new(pattern, 8).runs(9)).expect("campaign");
        let scores = window_scores(&result, &config);
        let want = oracle(&result, &config);
        assert_eq!(scores.len(), want.len());
        for (s, (got, (divergence, labels))) in scores.iter().zip(&want).enumerate() {
            assert_eq!(
                got.divergence.to_bits(),
                divergence.to_bits(),
                "{pattern}: window {s}"
            );
            assert_eq!(got.labels.len(), labels.len(), "{pattern}: window {s}");
            for (label, v) in &got.labels {
                assert_eq!(
                    v.to_bits(),
                    labels[label].to_bits(),
                    "{pattern}: window {s} label {label}"
                );
            }
        }
        let ranking = analyze(&result, &config);
        let divergences: Vec<u64> = want.iter().map(|(d, _)| d.to_bits()).collect();
        let got: Vec<u64> = ranking
            .slice_divergence
            .iter()
            .map(|d| d.to_bits())
            .collect();
        assert_eq!(got, divergences, "{pattern}");
    }
}

/// `HashMap`s seed their hashers per thread, so running the analysis on
/// fresh threads would expose any float sum taken in hash order.
#[test]
fn ranking_frequencies_are_bit_identical_across_fresh_threads() {
    let result =
        run_campaign(&CampaignConfig::new(Pattern::Collectives, 16).runs(8)).expect("campaign");
    // Every window counts, so four call paths carry weight and their
    // normalising total has an order to get wrong.
    let config = RootCauseConfig {
        top_fraction: 1.0,
        ..Default::default()
    };
    let bits = |r: &CallstackRanking| -> Vec<(String, u64)> {
        r.entries
            .iter()
            .map(|e| (e.stack.clone(), e.frequency.to_bits()))
            .collect()
    };
    let reference = bits(&analyze(&result, &config));
    assert!(reference.len() >= 3, "several ranked paths");
    for _ in 0..6 {
        let got = std::thread::scope(|s| {
            s.spawn(|| bits(&analyze(&result, &config)))
                .join()
                .expect("analysis thread")
        });
        assert_eq!(got, reference);
    }
}
