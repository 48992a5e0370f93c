//! What a run produces: the operation tally, the metrics, the result
//! line the benchmark ends its stdout with, and the provenance report
//! (parameters, sample counts, spans) written under `.bench_out/`.

use crate::args::Args;
use crate::layers::THREADS;
use crate::metrics::{def, Metric, MetricDef, END_TO_END, PER_LAYER};
use crate::service::WORKERS;
use crate::spans::SpanRec;
use serde::{Serialize, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Operations attempted and the reason each failed one failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (analyses or jobs, warm-ups included).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation and record its failure, if any.
    pub fn op(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Record a failure of an operation already counted.
    pub fn fail_counted(&mut self, what: &str, e: String) {
        self.failures.push(format!("{what}: {e}"));
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one benchmark run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation tally and output-check failures.
    pub tally: Tally,
    /// Measured metrics (every catalog metric of the run's mode).
    pub metrics: Vec<Metric>,
    /// Workload parameters, for provenance.
    pub params: Vec<(String, String)>,
    /// The span log.
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    /// Record a metric reduced from `samples` samples.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(def(name).is_some(), "metric {name} is not in the catalog");
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Record a workload parameter.
    pub fn param(&mut self, key: impl ToString, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    /// The catalog this run must report.
    pub fn catalog(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The metrics of the run's mode in catalog order, or the names that
    /// are missing or not finite.
    pub fn ordered(&self, trace: bool) -> Result<Vec<(&'static MetricDef, &Metric)>, String> {
        let mut out = Vec::new();
        let mut bad = Vec::new();
        for d in Outcome::catalog(trace) {
            match self.metrics.iter().find(|m| m.name == d.name) {
                Some(m) if m.value.is_finite() => out.push((d, m)),
                _ => bad.push(d.name),
            }
        }
        if bad.is_empty() {
            Ok(out)
        } else {
            Err(format!("metrics missing or not finite: {}", bad.join(", ")))
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every metric of the mode with its unit.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics = self
            .ordered(trace)?
            .into_iter()
            .map(|(d, m)| {
                let entry = object([("value", m.value.to_value()), ("unit", d.unit.to_value())]);
                (d.name.to_string(), entry)
            })
            .collect();
        let line = object([
            ("correct", self.tally.failures.is_empty().to_value()),
            ("attempted", self.tally.attempted.to_value()),
            ("failed", self.tally.failures.len().to_value()),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&Json(line)).map_err(|e| e.to_string())
    }

    /// The human-readable metric table.
    pub fn table(&self, trace: bool) -> String {
        let mut s = String::new();
        for d in Outcome::catalog(trace) {
            if let Some(m) = self.metrics.iter().find(|m| m.name == d.name) {
                let _ = writeln!(
                    s,
                    "{:<32} {:>16.4} {:<6} (n={})",
                    d.name, m.value, d.unit, m.samples
                );
            }
        }
        s
    }

    /// The provenance report as JSON.
    pub fn report_json(&self, args: &Args, git_rev: &str) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        let metrics = self.metrics.iter().map(|m| {
            object([
                ("name", m.name.to_value()),
                ("value", m.value.to_value()),
                ("unit", def(m.name).map_or("", |d| d.unit).to_value()),
                ("samples", m.samples.to_value()),
            ])
        });
        let spans = self.spans.iter().enumerate().map(|(i, sp)| {
            object([
                ("id", i.to_value()),
                ("name", sp.name.to_value()),
                ("start_ns", sp.start_ns.to_value()),
                ("end_ns", sp.end_ns.to_value()),
                ("parent", sp.parent.to_value()),
            ])
        });
        let report = object([
            ("workload", args.workload.name().to_value()),
            ("seed", args.seed.to_value()),
            ("seconds", args.seconds.to_value()),
            ("trace", args.trace.to_value()),
            ("tiny", (args.size == crate::args::Size::Tiny).to_value()),
            ("git_revision", git_rev.to_value()),
            ("nproc", nproc.to_value()),
            ("analysis_threads", THREADS.to_value()),
            ("daemon_workers", WORKERS.to_value()),
            ("client_connections", 1.to_value()),
            ("params", Value::Object(params)),
            ("attempted", self.tally.attempted.to_value()),
            ("failures", self.tally.failures.to_value()),
            ("metrics", Value::Array(metrics.collect())),
            ("spans", Value::Array(spans.collect())),
        ]);
        let mut text = serde_json::to_string_pretty(&Json(report)).unwrap_or_default();
        text.push('\n');
        text
    }
}

/// A JSON object with the given fields, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// A built [`Value`] tree, handed to `serde_json` for printing.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// The checkout's git revision, read from `.git` under `root` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(name)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            o.put(d.name, 1.5 + i as f64, 3);
        }
        o.tally.op("analysis", Ok(()));
        let line = o.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(
            o.result_line(true).is_err(),
            "per-layer metrics are missing"
        );
    }
}
