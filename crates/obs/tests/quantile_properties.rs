//! Property tests for span quantiles: every reported p50/p95/p99 lies
//! within the observed `[min_ns, max_ns]`, and at most 1/32 below the
//! exact quantile — in a registry snapshot and after merging reports.

use anacin_obs::MetricsRegistry;
use proptest::prelude::*;

/// The exact `q`-quantile under the histogram's rank rule: the
/// `ceil(q·n)`-th smallest observation.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[rank as usize - 1]
}

fn check(values: &[u64], min: u64, max: u64, got: [u64; 3]) {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    for (q, v) in [0.50, 0.95, 0.99].into_iter().zip(got) {
        prop_assert!(min <= v && v <= max, "q{q} = {v} outside [{min}, {max}]");
        let exact = exact_quantile(&sorted, q);
        prop_assert!(v <= exact, "q{q} = {v} above the exact {exact}");
        prop_assert!(
            (exact - v) as f64 <= exact as f64 / 32.0,
            "q{q} = {v} undershoots the exact {exact} by more than 1/32"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_quantiles_stay_within_the_observed_range(
        values in proptest::collection::vec(0u64..5_000_000, 1..64),
    ) {
        let m = MetricsRegistry::new();
        for &v in &values {
            m.record_span("s", v);
        }
        let rep = m.report();
        let sp = rep.span("s").expect("span recorded");
        prop_assert_eq!(sp.min_ns, *values.iter().min().unwrap());
        prop_assert_eq!(sp.max_ns, *values.iter().max().unwrap());
        check(&values, sp.min_ns, sp.max_ns, [sp.p50_ns, sp.p95_ns, sp.p99_ns]);
    }

    #[test]
    fn merged_quantiles_stay_within_the_merged_range(
        a in proptest::collection::vec(1_000u64..2_000, 1..32),
        b in proptest::collection::vec(1_000u64..40_000, 1..32),
    ) {
        let (ma, mb) = (MetricsRegistry::new(), MetricsRegistry::new());
        for &v in &a {
            ma.record_span("s", v);
        }
        for &v in &b {
            mb.record_span("s", v);
        }
        let mut rep = ma.report();
        rep.merge(&mb.report());
        let sp = rep.span("s").expect("span merged");
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        check(&all, sp.min_ns, sp.max_ns, [sp.p50_ns, sp.p95_ns, sp.p99_ns]);
    }
}
