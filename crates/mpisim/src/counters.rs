//! Batched simulator counters.
//!
//! `MetricsRegistry::counter(name)` locks the registry's counter map to
//! resolve the name. The engine flushes six counters per run, so resolving
//! them inside the engine put six map locks on every simulated run — fine
//! for a handful of runs, but a store-backed campaign resume can replay
//! thousands of runs across worker threads, all serialising on that one
//! mutex. [`SimCounters`] hoists the name resolution: a worker creates one
//! instance up front (six locks, once) and every subsequent flush is six
//! lock-free relaxed atomic adds.

use crate::trace::Trace;
use anacin_obs::{Counter, MetricsRegistry};

/// Pre-resolved handles for the simulator's per-run counters
/// (`sim/runs`, `sim/events`, `sim/messages`, `sim/matched`,
/// `sim/wildcard_matches`, `sim/delays_injected`).
///
/// Create one per worker thread and pass it to
/// [`crate::engine::simulate_counted`] for every run that worker
/// executes.
#[derive(Clone)]
pub struct SimCounters {
    runs: Counter,
    events: Counter,
    messages: Counter,
    matched: Counter,
    wildcard_matches: Counter,
    delays_injected: Counter,
}

impl SimCounters {
    /// Resolve the six counter handles against `metrics` (locks the
    /// registry map once per counter — do this outside run loops).
    pub fn new(metrics: &MetricsRegistry) -> Self {
        SimCounters {
            runs: metrics.counter("sim/runs"),
            events: metrics.counter("sim/events"),
            messages: metrics.counter("sim/messages"),
            matched: metrics.counter("sim/matched"),
            wildcard_matches: metrics.counter("sim/wildcard_matches"),
            delays_injected: metrics.counter("sim/delays_injected"),
        }
    }

    /// Flush one finished run: lock-free atomic adds only.
    pub fn flush(&self, trace: &Trace, delays_injected: u64) {
        self.runs.inc();
        self.events.add(trace.total_events() as u64);
        self.messages.add(trace.meta.messages);
        self.matched
            .add(trace.meta.messages - trace.meta.unmatched_messages);
        self.wildcard_matches
            .add(trace.wildcard_recv_count() as u64);
        self.delays_injected.add(delays_injected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_counted, SimConfig};
    use crate::program::ProgramBuilder;
    use crate::types::{Rank, Tag, TagSpec};

    fn race() -> crate::program::Program {
        let mut b = ProgramBuilder::new(4);
        for r in 1..4 {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..4 {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        b.build()
    }

    #[test]
    fn batched_flush_matches_per_run_registry_flush() {
        let p = race();
        let batched = MetricsRegistry::new();
        let counters = SimCounters::new(&batched);
        for seed in 0..5 {
            let c = SimConfig::with_nd_percent(100.0, seed);
            simulate_counted(&p, &c, None, Some(&counters)).unwrap();
        }
        let per_run = MetricsRegistry::new();
        for seed in 0..5 {
            let c = SimConfig::with_nd_percent(100.0, seed);
            let counters = SimCounters::new(&per_run);
            simulate_counted(&p, &c, Some(&per_run), Some(&counters)).unwrap();
        }
        let a = batched.report();
        let b = per_run.report();
        for name in [
            "sim/runs",
            "sim/events",
            "sim/messages",
            "sim/matched",
            "sim/wildcard_matches",
            "sim/delays_injected",
        ] {
            assert_eq!(a.counter(name), b.counter(name), "{name}");
        }
    }

    #[test]
    fn shared_handles_accumulate_across_workers() {
        let p = race();
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (m, p) = (m.clone(), &p);
                s.spawn(move || {
                    let counters = SimCounters::new(&m);
                    for seed in 0..3 {
                        let c = SimConfig::with_nd_percent(100.0, seed);
                        simulate_counted(p, &c, None, Some(&counters)).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.report().counter("sim/runs"), Some(12));
    }
}
