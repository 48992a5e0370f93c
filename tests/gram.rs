//! Differential test of the exact Gram matrix: one k-way merge over all
//! feature vectors must equal the matrix of pairwise scalar `dot`s bit for
//! bit, and count `R(R+1)/2` entries, at every run count, thread count and
//! support shape.

use anacin_obs::MetricsRegistry;
use anacin_x::prelude::*;

/// splitmix64: a deterministic stream of well-mixed 64-bit values.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A non-integer weight (so summation order shows in the bits), sometimes
/// negative, sometimes `-0.0`.
fn weight(seed: u64) -> f64 {
    match seed % 11 {
        0 => -0.0,
        1 => -1.7 - (seed % 5) as f64 * 0.3,
        k => 0.1 + k as f64 * 0.37 + (seed % 97) as f64 * 1e-3,
    }
}

/// `runs` vectors over one id family. Every fourth vector of the shared
/// families is empty.
fn family(shape: &str, runs: usize) -> Vec<SparseFeatures> {
    (0..runs as u64)
        .map(|r| {
            let ids: Vec<u64> = match shape {
                // Random subsets of a 300-id hashed pool: partial overlaps.
                "shared" if r % 4 == 3 => Vec::new(),
                "shared" => (0..300u64)
                    .filter(|&i| mix(i ^ (r << 20)).is_multiple_of(3))
                    .map(mix)
                    .collect(),
                // A dense id range most runs hold most of: the shard
                // bounds are quantiles of the ids themselves, so every
                // boundary falls between ids that several runs share.
                "dense" if r % 4 == 3 => Vec::new(),
                "dense" => (0..400u64)
                    .filter(|&i| !mix(i + r * 1000).is_multiple_of(5))
                    .collect(),
                // No id held by two runs.
                "disjoint" => (0..50).map(|i| r * 1000 + i).collect(),
                // Every run holds exactly the same ids.
                "identical" => (0..120).map(mix).collect(),
                // The ends of the id space, plus ids next to them.
                "extremes" => [0, 1, 2, u64::MAX - 2, u64::MAX - 1, u64::MAX]
                    .into_iter()
                    .filter(|&i| !mix(i ^ r).is_multiple_of(4))
                    .chain((0..20).map(|i| mix(i ^ (r % 3))))
                    .collect(),
                _ => unreachable!("unknown shape {shape}"),
            };
            ids.into_iter()
                .map(|id| (id, weight(mix(id ^ (r << 40)))))
                .collect()
        })
        .collect()
}

#[test]
fn kway_gram_equals_pairwise_scalar_dots_bit_for_bit() {
    for shape in ["shared", "dense", "disjoint", "identical", "extremes"] {
        for runs in [0usize, 1, 2, 3, 5, 17, 64] {
            let feats = family(shape, runs);
            let want: Vec<u64> = feats
                .iter()
                .flat_map(|a| feats.iter().map(move |b| a.dot(b).to_bits()))
                .collect();
            for threads in [1usize, 2, 8] {
                for dot in [DotKind::Scalar, DotKind::Blocked] {
                    let reg = MetricsRegistry::new();
                    let m = gram_from_features_with_dot("test", &feats, threads, dot, Some(&reg));
                    let got: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{shape}: R={runs} threads={threads} dot={dot}");
                    assert_eq!(
                        reg.report().counter("kernel/dot_products"),
                        Some((runs * (runs + 1) / 2) as u64),
                        "{shape}: R={runs}"
                    );
                }
            }
        }
    }
}

/// Inputs large enough that the merge runs on several workers and in
/// several batches (shards hold at least ~16k entries, so small inputs
/// run on one thread).
#[test]
fn multi_worker_kway_gram_equals_pairwise_scalar_dots() {
    for runs in [2u64, 5, 17] {
        let feats: Vec<SparseFeatures> = (0..runs)
            .map(|r| {
                (0..48_000u64)
                    .filter(|&i| mix(i ^ (r << 24)).is_multiple_of(3))
                    .map(|i| (mix(i), weight(mix(i ^ (r << 40)))))
                    .collect()
            })
            .collect();
        let want: Vec<u64> = feats
            .iter()
            .flat_map(|a| feats.iter().map(move |b| a.dot(b).to_bits()))
            .collect();
        for threads in [2usize, 8] {
            let m = gram_from_features_with_metrics("test", &feats, threads, None);
            let got: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "R={runs} threads={threads}");
        }
    }
}
