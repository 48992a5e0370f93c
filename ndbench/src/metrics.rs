//! The metric catalog (mirrored by `BENCHMARK.json`), the order
//! statistics every timing is reduced with, and the seeded generator the
//! inputs are drawn from.

/// One named metric: its unit and which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`), reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("analysis_s", "s", "lower"),
    m("job_p50_ms", "ms", "lower"),
    m("job_p90_ms", "ms", "lower"),
    m("jobs_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Metrics of a traced run (`--trace 1`), reported by every workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("mpisim.runs", "count", "lower"),
    m("mpisim.events", "count", "lower"),
    m("mpisim.busy_ms", "ms", "lower"),
    m("mpisim.wall_ms", "ms", "lower"),
    m("mpisim.events_per_s", "1/s", "higher"),
    m("mpisim.failed", "count", "lower"),
    m("event-graph.nodes", "count", "lower"),
    m("event-graph.edges", "count", "lower"),
    m("event-graph.busy_ms", "ms", "lower"),
    m("event-graph.nodes_per_s", "1/s", "higher"),
    m("kernels.features.graphs", "count", "lower"),
    m("kernels.features.nnz", "count", "lower"),
    m("kernels.features.busy_ms", "ms", "lower"),
    m("kernels.features.wall_ms", "ms", "lower"),
    m("kernels.gram.dots", "count", "lower"),
    m("kernels.gram.computed_bytes", "bytes", "lower"),
    m("kernels.gram.busy_ms", "ms", "lower"),
    m("kernels.gram.dots_per_s", "1/s", "higher"),
    m("core.root_cause.busy_ms", "ms", "lower"),
    m("core.root_cause.window_pairs", "count", "lower"),
    m("core.traced_analysis_ms", "ms", "lower"),
    m("core.unattributed_ms", "ms", "lower"),
    m("store.gets", "count", "lower"),
    m("store.get_bytes", "bytes", "lower"),
    m("store.get_ms", "ms", "lower"),
    m("store.read_mib_per_s", "MiB/s", "higher"),
    m("store.puts", "count", "lower"),
    m("store.put_bytes", "bytes", "lower"),
    m("store.put_ms", "ms", "lower"),
    m("store.write_mib_per_s", "MiB/s", "higher"),
    m("store.hit_ratio", "ratio", "higher"),
    m("serve.queue_wait_ms", "ms", "lower"),
    m("serve.exec_ms", "ms", "lower"),
    m("serve.frame_bytes", "bytes", "lower"),
    m("serve.frame_ms", "ms", "lower"),
    m("serve.progress_frames", "count", "higher"),
    m("serve.rejected", "count", "lower"),
    m("trace_overhead_pct", "%", "lower"),
    m("failed_frac", "ratio", "lower"),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// The value, in the catalog unit.
    pub value: f64,
    /// Samples the value was reduced from (1 for a single count).
    pub samples: usize,
}

/// The catalog entry for `name`.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Harrell–Davis estimate of quantile `q` (in `(0, 1)`) of a non-empty
/// sample: the mean of all order statistics, weighted by the
/// Beta(q(n+1), (1−q)(n+1)) density over each one's slice of `[0, 1]`.
/// Unlike a single order statistic it moves smoothly when the sample is
/// quantised, as service latencies are: the daemon's progress ticker
/// rounds every job up to its 5 ms poll.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // Midpoint rule, STEPS points per order statistic; the weights are
    // normalised at the end, so the Beta function constant cancels.
    const STEPS: usize = 32;
    let h = 1.0 / (n * STEPS) as f64;
    let log_pdf: Vec<f64> = (0..n * STEPS)
        .map(|k| {
            let t = (k as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_pdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut w = vec![0.0; n];
    for (k, l) in log_pdf.iter().enumerate() {
        w[k / STEPS] += (l - peak).exp();
    }
    let total: f64 = w.iter().sum();
    v.iter().zip(&w).map(|(x, w)| x * w).sum::<f64>() / total
}

/// The median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `count / ms` as a per-second rate (0 when nothing was timed).
pub fn per_s(count: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        count / (ms / 1e3)
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a tiny seeded generator, so the same `--seed` always
/// yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so independent draws from
    /// one benchmark seed do not share a stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A campaign base seed: 40 bits, so `base_seed + run` never wraps.
    pub fn base_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_smooth_and_stay_in_range() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert!((median(&xs) - 3.0).abs() < 1e-9, "symmetric sample");
        assert_eq!(median(&[7.0]), 7.0);
        assert!((median(&[2.0; 9]) - 2.0).abs() < 1e-12);
        let p90 = quantile(&xs, 0.9);
        assert!(p90 > median(&xs) && p90 < 5.0);
        // A latency quantised to 5 ms steps: one more sample on the upper
        // step moves the estimate a little, not by a whole step.
        let mut lo: Vec<f64> = [vec![25.0; 50], vec![30.0; 50]].concat();
        let before = median(&lo);
        lo[0] = 30.0;
        let after = median(&lo);
        assert!(
            after > before && after - before < 0.5,
            "{before} -> {after}"
        );
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(9, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(9, 1).next_u64(), Rng::new(9, 2).next_u64());
    }
}
