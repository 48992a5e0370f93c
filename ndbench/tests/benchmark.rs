//! The benchmark's own tests: exact layer counts, the append path's cost, a
//! tiny-size smoke run of every workload, and `BENCHMARK.json` agreeing
//! with the metric catalog.

use anacin_miniapps::Pattern;
use anacin_ndbench::layers::{analysis, append_path, compose, config, same_bits, Reference};
use anacin_ndbench::metrics::{Metric, END_TO_END, PER_LAYER};
use anacin_ndbench::service::{JobKind, JobStream, MixParams};
use anacin_ndbench::spans::SpanLog;
use anacin_ndbench::{run, Args, Outcome, Size, Workload};
use anacin_store::ArtifactStore;
use serde_json::Value;

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
    }
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m: &&Metric| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn traced_analysis_counts_are_exact_and_repeat() {
    let runs = 5u64;
    let cfg = config(Pattern::Amg2013, 8, runs as u32, 42);
    let log = SpanLog::new();
    let a = compose(&cfg, &log).unwrap();
    let b = compose(&cfg, &log).unwrap();
    assert_eq!(a.sample.runs, runs);
    assert_eq!(a.sample.graphs, runs);
    assert_eq!(a.sample.dots, runs * (runs + 1) / 2);
    assert_eq!(a.sample.window_pairs, 16 * runs * (runs - 1) / 2);
    assert_eq!(a.sample.sim_failed, 0);
    assert!(a.sample.events > 0);
    assert_eq!(
        a.sample.events, a.sample.nodes,
        "one graph node per trace event"
    );
    assert_eq!(
        (
            a.sample.events,
            a.sample.nodes,
            a.sample.edges,
            a.sample.nnz
        ),
        (
            b.sample.events,
            b.sample.nodes,
            b.sample.edges,
            b.sample.nnz
        )
    );
    let stages = a.sample.stage_sum() + a.sample.unattributed();
    assert!((stages - a.sample.total).abs() < 1e-9);

    // The composition reproduces the untraced path bit for bit.
    let (result, ranking) = analysis(&cfg).unwrap();
    let untraced = Reference::of(&result.matrix, &ranking);
    untraced
        .check(&Reference::of(&a.result.matrix, &a.ranking))
        .unwrap();
}

#[test]
fn append_path_costs_r_plus_one_dots() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("append-path");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).unwrap();
    let log = SpanLog::new();
    // 2 runs publishes a 1-run prefix; 7 then 8 runs grow one stored
    // campaign twice, the second time from the first append's output.
    for runs in [2u32, 7, 8] {
        let cfg = config(Pattern::MessageRace, 8, runs, 9);
        let grown = append_path(&cfg, &store, &log).unwrap();
        let (cold, _) = analysis(&cfg).unwrap();
        assert!(same_bits(&grown, &cold.matrix), "{runs} runs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_stream_is_seeded_and_keeps_its_mix() {
    let params = MixParams {
        procs: 8,
        min_runs: 3,
        max_runs: 5,
        append_cap: 7,
    };
    let deal = |seed| {
        let mut s = JobStream::new(seed, params);
        (0..200)
            .map(|_| {
                let job = s.next_job();
                s.finished(&job, String::new());
                (
                    job.kind,
                    job.config.pattern,
                    job.config.runs,
                    job.config.base_seed,
                )
            })
            .collect::<Vec<_>>()
    };
    let a = deal(1);
    assert_eq!(a, deal(1));
    assert_ne!(a, deal(2));
    // Once every pattern has a finished config, each deck of 18 jobs holds
    // exactly its 6 cold cards: falling back only turns an append with
    // nothing left to grow into a warm repeat.
    let cold = a[90..198].iter().filter(|j| j.0 == JobKind::Cold).count();
    assert_eq!(cold, 36);
}

fn check_smoke(workload: Workload, trace: bool) -> Outcome {
    let args = tiny(workload, trace);
    let o = run(&args).unwrap();
    assert!(
        o.tally.failures.is_empty(),
        "{workload}: {:?}",
        o.tally.failures
    );
    assert!(o.tally.attempted >= 1);
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    for d in catalog {
        let v = value(&o, d.name);
        assert!(v.is_finite(), "{workload} {}: {v}", d.name);
        assert!(!d.unit.is_empty());
    }
    let line: Value = serde_json::from_str_value(&o.result_line(trace).unwrap()).unwrap();
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    o
}

#[test]
fn tiny_smoke_runs_emit_every_metric() {
    for w in Workload::ALL {
        let plain = check_smoke(w, false);
        assert!(value(&plain, "analysis_s") > 0.0);
        assert!(value(&plain, "setup_s") > 0.0);
        let traced = check_smoke(w, true);
        assert_eq!(value(&traced, "failed_frac"), 0.0);
        assert!(value(&traced, "store.gets") > 0.0);
        let again = check_smoke(w, true);
        if w != Workload::ServeMix {
            let runs = value(&traced, "mpisim.runs");
            assert_eq!(
                value(&traced, "kernels.gram.dots"),
                runs * (runs + 1.0) / 2.0
            );
            for name in ["mpisim.events", "event-graph.nodes", "kernels.gram.dots"] {
                assert_eq!(value(&traced, name), value(&again, name), "{w} {name}");
            }
        }
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key).as_str().expect("a string").to_string()
}

fn catalog_of(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    field(doc, key)
        .as_array()
        .expect("an array")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let text_of =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let doc = serde_json::from_str_value(&text_of).unwrap();
    let expect = |defs: &[anacin_ndbench::metrics::MetricDef]| {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(catalog_of(&doc, "end_to_end"), expect(END_TO_END));
    assert_eq!(catalog_of(&doc, "per_layer"), expect(PER_LAYER));
    let names: Vec<_> = field(&doc, "workloads")
        .as_array()
        .expect("an array")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let expected: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, expected);
}
