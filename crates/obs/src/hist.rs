//! Log-bucketed latency histograms: fixed-footprint, lock-free, and
//! mergeable.
//!
//! Every span timer in the registry feeds one of these so reports can
//! quote p50/p95/p99 — Hunold & Carpen-Amarie's point (PAPERS.md) that
//! run-to-run *distributions*, not means, are what make performance
//! claims defensible. The layout is the HDR-histogram idea at fixed
//! size: values below [`SUB_BUCKETS`] get an exact bucket each; above
//! that, each power of two is split into [`SUB_BUCKETS`] linear
//! sub-buckets, so a bucket's width is at most `1/32` of its value —
//! ≤ ~3.2% relative quantile error, well inside the ~4% budget, from a
//! flat array of [`BUCKET_COUNT`] (= 1920) `AtomicU64`s (~15 KiB).
//!
//! Recording is one relaxed `fetch_add` on the bucket — no locks, no
//! allocation — so histograms piggyback on the span hot path without
//! changing what it measures.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two (and the exact-bucket range floor).
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;

/// Total buckets: 32 exact + 32 per octave for exponents 5..=63.
pub const BUCKET_COUNT: usize = (SUB_BUCKETS as usize) * 60;

/// The bucket index of `value` (nanoseconds). Total order: larger values
/// never map to smaller indices.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        value as usize
    } else {
        let e = 63 - value.leading_zeros();
        let mantissa = (value >> (e - SUB_BITS)) as usize; // in [32, 64)
        (SUB_BUCKETS as usize) * (e - SUB_BITS) as usize + mantissa
    }
}

/// The smallest value that maps to bucket `index` — the representative
/// used when reading quantiles back out. Using the lower bound keeps
/// every reported quantile ≤ the true maximum, so `p50 ≤ p95 ≤ p99 ≤
/// max` holds structurally.
pub fn bucket_lower_bound(index: usize) -> u64 {
    let sub = SUB_BUCKETS as usize;
    if index < sub {
        index as u64
    } else {
        let octave = index / sub; // ≥ 1
        let mantissa = (index % sub + sub) as u64;
        mantissa << (octave - 1)
    }
}

/// One non-empty bucket of a serialised histogram (`i` = bucket index,
/// `n` = observations). Reports store histograms sparsely — typical span
/// distributions occupy a few dozen buckets out of 1920.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Bucket index (see [`bucket_index`]).
    pub i: u32,
    /// Observations in the bucket.
    pub n: u64,
}

/// A lock-free log-bucketed histogram of `u64` values (nanoseconds, by
/// convention). Cloning the owning `Arc` shares the buckets.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram ([`BUCKET_COUNT`] zeroed buckets).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one observation: a single relaxed atomic add.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The non-empty buckets, in index order — the serialised form.
    pub fn sparse(&self) -> Vec<HistBucket> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some(HistBucket { i: i as u32, n })
            })
            .collect()
    }
}

/// The `q`-quantile (`0 < q ≤ 1`) of a sparse histogram, as the lower
/// bound of the bucket holding the target rank. Returns 0 for an empty
/// histogram.
pub fn quantile_sparse(buckets: &[HistBucket], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|b| b.n).sum();
    if total == 0 {
        return 0;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for b in buckets {
        cumulative += b.n;
        if cumulative >= target {
            return bucket_lower_bound(b.i as usize);
        }
    }
    bucket_lower_bound(buckets.last().map(|b| b.i as usize).unwrap_or(0))
}

/// The (p50, p95, p99) triple of a sparse histogram whose observations
/// span `[min_ns, max_ns]`, each clamped into that range.
///
/// Error: a bucket's lower bound undershoots any value in it by less
/// than the bucket width, which is below `1/32` of the value, so each
/// reported quantile `q̂` of a true quantile `q` satisfies
/// `q·(1 − 1/32) < q̂ ≤ q` (exact below [`SUB_BUCKETS`] ns). The
/// undershoot can put `q̂` below the smallest observation; since every
/// true quantile lies in `[min_ns, max_ns]`, clamping only moves `q̂`
/// toward `q`. An empty histogram reports zeros.
pub fn percentiles_within(buckets: &[HistBucket], min_ns: u64, max_ns: u64) -> (u64, u64, u64) {
    if buckets.is_empty() {
        return (0, 0, 0);
    }
    let q = |q: f64| quantile_sparse(buckets, q).max(min_ns).min(max_ns);
    (q(0.50), q(0.95), q(0.99))
}

/// Merge `other` into `into`, keeping index order and summing counts —
/// the histogram half of [`crate::MetricsReport::merge`].
pub fn merge_sparse(into: &mut Vec<HistBucket>, other: &[HistBucket]) {
    for b in other {
        match into.binary_search_by_key(&b.i, |x| x.i) {
            Ok(pos) => into[pos].n += b.n,
            Err(pos) => into.insert(pos, *b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut values = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= last, "v={v} idx={idx} last={last}");
            assert!(idx < BUCKET_COUNT);
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn lower_bound_inverts_index() {
        for idx in 0..BUCKET_COUNT {
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lo), idx, "idx={idx} lo={lo}");
            if lo > 0 {
                assert!(bucket_index(lo - 1) == idx - 1, "idx={idx} lo={lo}");
            }
        }
    }

    #[test]
    fn relative_error_stays_under_four_percent() {
        // Every value ≥ 32 sits in a bucket whose width ≤ value / 32.
        for v in [33u64, 100, 999, 12_345, 1 << 20, (1 << 40) + 7] {
            let lo = bucket_lower_bound(bucket_index(v));
            assert!(lo <= v);
            let err = (v - lo) as f64 / v as f64;
            assert!(err < 0.04, "v={v} lo={lo} err={err}");
        }
    }

    #[test]
    fn quantiles_order_and_stay_below_max() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 50, 1_000, 5_000, 100_000] {
            h.record(v);
        }
        let s = h.sparse();
        assert_eq!(h.count(), 8);
        assert_eq!(s.iter().map(|b| b.n).sum::<u64>(), 8);
        let (p50, p95, p99) = percentiles_within(&s, 10, 100_000);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= 100_000);
        assert_eq!(
            quantile_sparse(&s, 1.0),
            bucket_lower_bound(bucket_index(100_000))
        );
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.sparse().is_empty());
        assert_eq!(percentiles_within(&[], 0, 0), (0, 0, 0));
    }

    #[test]
    fn merge_sums_counts_in_index_order() {
        let mut a = vec![HistBucket { i: 1, n: 2 }, HistBucket { i: 5, n: 1 }];
        let b = vec![HistBucket { i: 0, n: 3 }, HistBucket { i: 5, n: 4 }];
        merge_sparse(&mut a, &b);
        assert_eq!(
            a,
            vec![
                HistBucket { i: 0, n: 3 },
                HistBucket { i: 1, n: 2 },
                HistBucket { i: 5, n: 5 },
            ]
        );
    }

    #[test]
    fn concurrent_recording_conserves_count() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
    }
}
