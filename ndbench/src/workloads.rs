//! The three workloads. Each sets up (several times, reporting the
//! median), measures for `--seconds`, checks every output, and fills an
//! [`Outcome`] with the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run).

use crate::args::{Args, Size, Workload};
use crate::layers::{self, compose, LayerSample, Reference};
use crate::metrics::{mean, median, peak_rss_mib, per_s, quantile, Rng};
use crate::report::{Outcome, Tally};
use crate::service::{
    replay_store, Daemon, Job, JobKind, JobStream, MixParams, Replay, Reply, JOB_THREADS, PATTERNS,
};
use crate::spans::{ms, SpanLog};
use anacin_core::prelude::{CampaignConfig, RootCauseConfig};
use anacin_miniapps::Pattern;
use anacin_serve::client::Outcome as JobOutcome;
use anacin_serve::JobSpec;
use anacin_store::ArtifactStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The first set-up of a
/// process is slower than the rest (heap growth, page faults), and five
/// keep the median clear of it.
const SETUP_REPS: usize = 5;
/// Fewest analyses an untraced campaign run measures.
const MIN_ANALYSES: usize = 5;
/// Fewest analyses of each kind a traced campaign run measures.
const MIN_TRACED: usize = 3;
/// Fewest jobs an untraced `serve-mix` run measures: enough that ten
/// lie beyond the p90.
const MIN_JOBS: usize = 100;
/// Fewest jobs each phase of a traced `serve-mix` run measures.
const MIN_TRACED_JOBS: usize = 40;
/// No measuring loop runs longer than this, whatever `--seconds` says.
const HARD_CAP: Duration = Duration::from_secs(100);

/// Run the workload `args` names, using `scratch` for stores and sockets.
pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let log = SpanLog::new();
    let mut out = match args.workload {
        Workload::WideRanks | Workload::ManyRuns => campaign_workload(args, scratch, &log)?,
        Workload::ServeMix => serve_mix(args, scratch, &log)?,
    };
    if args.trace {
        let frac = out.tally.failed_frac();
        out.put("failed_frac", frac, out.tally.attempted as usize);
    }
    out.spans = log.snapshot();
    Ok(out)
}

/// `true` while a loop that started at `t0` should take another sample.
fn keep_going(t0: Instant, seconds: f64, have: usize, want: usize) -> bool {
    let e = t0.elapsed();
    e < HARD_CAP && (have < want || e.as_secs_f64() < seconds)
}

// ------------------------------------------------------------ campaigns

/// `(ranks, runs)` of the campaign workloads.
fn campaign_shape(w: Workload, size: Size) -> (u32, u32) {
    match (w, size) {
        (Workload::WideRanks, Size::Full) => (256, 4),
        (Workload::WideRanks, Size::Tiny) => (16, 3),
        (_, Size::Full) => (32, 128),
        (_, Size::Tiny) => (8, 6),
    }
}

/// One untraced analysis, timed under an `analysis` span and checked
/// against `reference` (when there is one). Returns the time and the
/// analysis' own reference.
fn timed_analysis(
    cfg: &CampaignConfig,
    log: &SpanLog,
    reference: Option<&Reference>,
) -> (Duration, Result<Reference, String>) {
    let span = log.open("analysis", None);
    let r = layers::analysis(cfg);
    let d = log.close(span);
    let r = r.map(|(result, ranking)| Reference::of(&result.matrix, &ranking));
    let r = match (r, reference) {
        (Ok(got), Some(want)) => want.check(&got).map(|()| got),
        (r, _) => r,
    };
    (d, r)
}

fn campaign_workload(args: &Args, scratch: &Path, log: &SpanLog) -> Result<Outcome, String> {
    let (procs, runs) = campaign_shape(args.workload, args.size);
    let mut out = Outcome::default();
    out.param("pattern", "amg2013");
    out.param("procs", procs);
    out.param("runs", runs);
    out.param("nd_percent", 100);
    out.param("root_cause_slices", RootCauseConfig::default().slices);

    // Set-up: derive the config from the seed and warm up with one
    // analysis, whose output is the reference every later one must match.
    let mut setup_s = Vec::new();
    let mut reference: Option<Reference> = None;
    let mut cfg = None;
    for _ in 0..SETUP_REPS {
        let span = log.open("setup", None);
        let base_seed = Rng::new(args.seed, 1).base_seed();
        let c = layers::config(Pattern::Amg2013, procs, runs, base_seed);
        let (_, r) = timed_analysis(&c, log, reference.as_ref());
        setup_s.push(log.close(span).as_secs_f64());
        match r {
            Ok(got) => {
                reference.get_or_insert(got);
                out.tally.op("warm-up analysis", Ok(()));
            }
            Err(e) => out.tally.op("warm-up analysis", Err(e)),
        }
        cfg = Some(c);
    }
    let cfg = cfg.expect("at least one set-up");
    out.param("base_seed", cfg.base_seed);
    let reference = reference.ok_or_else(|| {
        format!(
            "every warm-up analysis failed: {}",
            out.tally.failures.join("; ")
        )
    })?;

    let t0 = Instant::now();
    if !args.trace {
        let mut times = Vec::new();
        while keep_going(t0, args.seconds, times.len(), MIN_ANALYSES) {
            let (d, r) = timed_analysis(&cfg, log, Some(&reference));
            out.tally.op("analysis", r.map(drop));
            times.push(d.as_secs_f64());
        }
        let window = t0.elapsed().as_secs_f64();
        let ms_times: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
        let n = times.len();
        out.put("setup_s", median(&setup_s), setup_s.len());
        out.put("analysis_s", median(&times), n);
        out.put("job_p50_ms", quantile(&ms_times, 0.5), n);
        out.put("job_p90_ms", quantile(&ms_times, 0.9), n);
        out.put("jobs_per_s", n as f64 / window, n);
        out.put("peak_rss_mib", peak_rss_mib(), 1);
        return Ok(out);
    }

    // Traced: alternate the untraced analysis with the composed one, so
    // both see the same machine state and the overhead is measured.
    let mut untraced = Vec::new();
    let mut samples: Vec<LayerSample> = Vec::new();
    while keep_going(
        t0,
        args.seconds,
        untraced.len().min(samples.len()),
        MIN_TRACED,
    ) {
        let (d, r) = timed_analysis(&cfg, log, Some(&reference));
        out.tally.op("analysis", r.map(drop));
        untraced.push(ms(d));
        let r = compose(&cfg, log).and_then(|c| {
            reference.check(&Reference::of(&c.result.matrix, &c.ranking))?;
            check_counts(&c.sample, samples.first(), runs)?;
            Ok(c.sample)
        });
        match r {
            Ok(s) => {
                out.tally.op("traced analysis", Ok(()));
                samples.push(s);
            }
            Err(e) => out.tally.op("traced analysis", Err(e)),
        }
    }
    if samples.is_empty() {
        return Err(format!(
            "every traced analysis failed: {}",
            out.tally.failures.join("; ")
        ));
    }
    let traced: Vec<f64> = samples.iter().map(|s| s.total).collect();
    out.put(
        "trace_overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        untraced.len().min(traced.len()),
    );
    put_layers(&mut out, &samples);

    // The service path for the same analysis: submit it cold, then warm,
    // and replay the artifacts it stored.
    let local = layers::payload(&cfg, &reference.matrix)?;
    let dir = scratch.join("service");
    let mut daemon = Daemon::start(&dir)?;
    let mut serve = ServeTotals::default();
    for (id, what) in [(1, "cold service job"), (2, "warm service job")] {
        let spec = JobSpec::Campaign {
            config: cfg.clone(),
        };
        let r = submit_checked(&mut daemon, id, spec, &mut serve, log).and_then(|payload| {
            (payload == local)
                .then_some(())
                .ok_or_else(|| "service payload differs from the local run".to_string())
        });
        out.tally.op(what, r);
    }
    daemon.stop();
    let replay = replay_store(&dir.join("store"), &dir.join("replay"), log)?;
    put_service(&mut out, &serve, &replay);
    Ok(out)
}

/// The layer counts that must hold exactly: one graph and one feature
/// vector per run, R(R+1)/2 dots, and the same events and nodes as the
/// first traced analysis of the run.
fn check_counts(s: &LayerSample, first: Option<&LayerSample>, runs: u32) -> Result<(), String> {
    let r = runs as u64;
    if s.runs != r || s.graphs != r {
        return Err(format!(
            "{} runs and {} graphs for {r} runs",
            s.runs, s.graphs
        ));
    }
    if s.dots != r * (r + 1) / 2 {
        return Err(format!(
            "{} dots for {r} runs, expected {}",
            s.dots,
            r * (r + 1) / 2
        ));
    }
    if let Some(f) = first {
        if (s.events, s.nodes, s.edges, s.nnz) != (f.events, f.nodes, f.edges, f.nnz) {
            return Err("events, nodes, edges or nnz changed between analyses of one seed".into());
        }
    }
    Ok(())
}

/// Per-layer metrics of the traced analyses: per-analysis means, so
/// Σ stage time + `core.unattributed_ms` = `core.traced_analysis_ms`.
fn put_layers(out: &mut Outcome, samples: &[LayerSample]) {
    let n = samples.len();
    let avg = |f: fn(&LayerSample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    let sim_busy = avg(|s| s.sim_busy);
    let graph_busy = avg(|s| s.graph_busy);
    let gram = avg(|s| s.gram);
    out.put("mpisim.runs", avg(|s| s.runs as f64), n);
    out.put("mpisim.events", avg(|s| s.events as f64), n);
    out.put("mpisim.busy_ms", sim_busy, n);
    out.put("mpisim.wall_ms", avg(|s| s.sim_wall), n);
    out.put(
        "mpisim.events_per_s",
        per_s(avg(|s| s.events as f64), sim_busy),
        n,
    );
    out.put(
        "mpisim.failed",
        samples.iter().map(|s| s.sim_failed as f64).sum(),
        n,
    );
    out.put("event-graph.nodes", avg(|s| s.nodes as f64), n);
    out.put("event-graph.edges", avg(|s| s.edges as f64), n);
    out.put("event-graph.busy_ms", graph_busy, n);
    out.put(
        "event-graph.nodes_per_s",
        per_s(avg(|s| s.nodes as f64), graph_busy),
        n,
    );
    out.put("kernels.features.graphs", avg(|s| s.graphs as f64), n);
    out.put("kernels.features.nnz", avg(|s| s.nnz as f64), n);
    out.put("kernels.features.busy_ms", avg(|s| s.feat_busy), n);
    out.put("kernels.features.wall_ms", avg(|s| s.feat_wall), n);
    out.put("kernels.gram.dots", avg(|s| s.dots as f64), n);
    out.put(
        "kernels.gram.computed_bytes",
        avg(|s| s.gram_bytes as f64),
        n,
    );
    out.put("kernels.gram.busy_ms", gram, n);
    out.put(
        "kernels.gram.dots_per_s",
        per_s(avg(|s| s.dots as f64), gram),
        n,
    );
    out.put("core.root_cause.busy_ms", avg(|s| s.root_cause), n);
    out.put(
        "core.root_cause.window_pairs",
        avg(|s| s.window_pairs as f64),
        n,
    );
    out.put("core.traced_analysis_ms", avg(|s| s.total), n);
    out.put("core.unattributed_ms", avg(LayerSample::unattributed), n);
}

// ------------------------------------------------------------- service

/// Client-side service figures over a sequence of traced jobs.
#[derive(Debug, Default)]
struct ServeTotals {
    jobs: usize,
    done: usize,
    latency_ms: f64,
    exec_ms: f64,
    frame_bytes: u64,
    frame_ms: f64,
    progress_frames: u64,
    rejected: u64,
    hits: u64,
    misses: u64,
}

impl ServeTotals {
    fn add(&mut self, r: &Reply) {
        self.jobs += 1;
        self.frame_bytes += r.frame_bytes;
        self.frame_ms += r.frame_ms;
        self.progress_frames += r.progress_frames;
        match &r.outcome {
            JobOutcome::Done(j) => {
                self.done += 1;
                self.latency_ms += ms(r.latency);
                self.exec_ms += j.elapsed_ms as f64;
                self.hits += j.store_hits;
                self.misses += j.store_misses;
            }
            JobOutcome::Rejected { .. } => self.rejected += 1,
            JobOutcome::Failed { .. } => {}
        }
    }
}

/// Submit one traced job; `Ok(payload)` when it completed.
fn submit_checked(
    daemon: &mut Daemon,
    id: u64,
    spec: JobSpec,
    serve: &mut ServeTotals,
    log: &SpanLog,
) -> Result<String, String> {
    let (reply, _) = log.time("serve.job", None, || daemon.submit(id, spec, true));
    let reply = reply?;
    serve.add(&reply);
    payload_of(reply.outcome)
}

fn payload_of(outcome: JobOutcome) -> Result<String, String> {
    match outcome {
        JobOutcome::Done(j) => Ok(j.payload),
        JobOutcome::Rejected { .. } => Err("refused (Busy)".into()),
        JobOutcome::Failed { message } => Err(format!("failed: {message}")),
    }
}

/// Store and serve metrics. Service figures are per completed job; the
/// store figures are totals of the replay; the hit ratio comes from the
/// `Result` frames.
fn put_service(out: &mut Outcome, s: &ServeTotals, r: &Replay) {
    let done = s.done.max(1) as f64;
    let jobs = s.jobs.max(1) as f64;
    out.put("store.gets", r.gets as f64, 1);
    out.put("store.get_bytes", r.get_bytes as f64, 1);
    out.put("store.get_ms", r.get_ms, r.gets as usize);
    out.put(
        "store.read_mib_per_s",
        per_s(r.get_bytes as f64 / MIB, r.get_ms),
        r.gets as usize,
    );
    out.put("store.puts", r.puts as f64, 1);
    out.put("store.put_bytes", r.put_bytes as f64, 1);
    out.put("store.put_ms", r.put_ms, r.puts as usize);
    out.put(
        "store.write_mib_per_s",
        per_s(r.put_bytes as f64 / MIB, r.put_ms),
        r.puts as usize,
    );
    let lookups = (s.hits + s.misses).max(1) as f64;
    out.put("store.hit_ratio", s.hits as f64 / lookups, s.done);
    out.put(
        "serve.queue_wait_ms",
        (s.latency_ms - s.exec_ms) / done,
        s.done,
    );
    out.put("serve.exec_ms", s.exec_ms / done, s.done);
    out.put("serve.frame_bytes", s.frame_bytes as f64 / jobs, s.jobs);
    out.put("serve.frame_ms", s.frame_ms / jobs, s.jobs);
    out.put("serve.progress_frames", s.progress_frames as f64, s.jobs);
    out.put("serve.rejected", s.rejected as f64, s.jobs);
}

const MIB: f64 = 1024.0 * 1024.0;

// ----------------------------------------------------------- serve-mix

fn mix_params(size: Size) -> MixParams {
    match size {
        Size::Full => MixParams {
            procs: 32,
            min_runs: 8,
            max_runs: 16,
            append_cap: 20,
        },
        Size::Tiny => MixParams {
            procs: 8,
            min_runs: 3,
            max_runs: 5,
            append_cap: 7,
        },
    }
}

/// Start a daemon in `dir` and warm it up with one campaign per pattern,
/// as large as the stream's largest, outside the job stream: each is
/// submitted twice, and the two payloads must be equal. On a fresh store
/// the first submit runs cold; on a store an earlier set-up warmed, both
/// read it back.
fn serve_setup(
    dir: &Path,
    seed: u64,
    params: &MixParams,
    log: &SpanLog,
    tally: &mut Tally,
) -> Result<Daemon, String> {
    let mut daemon = Daemon::start(dir)?;
    let mut rng = Rng::new(seed, 2);
    let mut id = 0;
    for pattern in PATTERNS {
        let mut cfg = layers::config(pattern, params.procs, params.max_runs, rng.base_seed());
        cfg.threads = JOB_THREADS;
        let mut first = None;
        for _ in 0..2 {
            id += 1;
            let spec = JobSpec::Campaign {
                config: cfg.clone(),
            };
            let (reply, _) = log.time("setup.job", None, || daemon.submit(id, spec, false));
            let r = reply
                .and_then(|reply| payload_of(reply.outcome))
                .and_then(|p| match &first {
                    Some(f) if *f != p => Err("warm-up repeat payload differs".to_string()),
                    _ => {
                        first = Some(p);
                        Ok(())
                    }
                });
            tally.op("warm-up job", r);
        }
    }
    Ok(daemon)
}

/// What one pass over the job stream saw.
#[derive(Debug, Default)]
struct StreamPass {
    /// Every job with its payload (empty when it did not complete).
    jobs: Vec<(Job, String)>,
    /// Latency of every completed job.
    latency_ms: Vec<f64>,
    /// Latency of every completed job, by kind and pattern.
    kind_ms: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// Measured window.
    window: Duration,
    /// Traced service figures (traced passes only).
    serve: ServeTotals,
}

/// Drive the closed-loop stream: submit, wait for the result, check it,
/// repeat — for `seconds` and at least `min_jobs`, or for exactly
/// `exact` jobs. Warm repeats are checked on the spot against the
/// payload of the config they repeat.
fn drive(
    daemon: &mut Daemon,
    stream: &mut JobStream,
    (seconds, min_jobs, exact): (f64, usize, Option<usize>),
    traced: bool,
    log: &SpanLog,
    tally: &mut Tally,
) -> StreamPass {
    let mut pass = StreamPass::default();
    let t0 = Instant::now();
    loop {
        let n = pass.jobs.len();
        let more = match exact {
            Some(k) => n < k && t0.elapsed() < HARD_CAP,
            None => keep_going(t0, seconds, n, min_jobs),
        };
        if !more {
            break;
        }
        let job = stream.next_job();
        let name = match job.kind {
            JobKind::Cold => "job.cold",
            JobKind::Warm => "job.warm",
            JobKind::Append => "job.append",
        };
        let (reply, _) = log.time(name, None, || {
            daemon.submit(n as u64 + 100, job.spec(), traced)
        });
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                tally.op(job.kind.name(), Err(e));
                pass.jobs.push((job, String::new()));
                break;
            }
        };
        if traced {
            pass.serve.add(&reply);
        }
        let latency = ms(reply.latency);
        let misses = match &reply.outcome {
            JobOutcome::Done(j) => j.store_misses,
            _ => 0,
        };
        let r = payload_of(reply.outcome).and_then(|payload| {
            pass.latency_ms.push(latency);
            pass.kind_ms
                .entry((job.kind.name(), job.config.pattern.name()))
                .or_default()
                .push(latency);
            match job.kind {
                JobKind::Cold | JobKind::Append => {}
                JobKind::Warm => {
                    let i = job.repeats.expect("a warm job repeats a config");
                    if stream.history[i].1 != payload {
                        return Err("warm payload differs from its cold payload".into());
                    }
                    if misses != 0 {
                        return Err(format!("warm repeat missed the store {misses} times"));
                    }
                }
            }
            stream.finished(&job, payload.clone());
            Ok(payload)
        });
        match r {
            Ok(payload) => {
                tally.op(job.kind.name(), Ok(()));
                pass.jobs.push((job, payload));
            }
            Err(e) => {
                tally.op(job.kind.name(), Err(e));
                pass.jobs.push((job, String::new()));
            }
        }
    }
    pass.window = t0.elapsed();
    pass
}

/// Check `pass` against local computations, after its daemon stopped:
/// the first completed cold job of each pattern and every completed
/// `Append` must byte-equal the payload of a local cold campaign of the
/// same config. With `traced`, that local campaign is the traced
/// composition, whose layer samples are returned, and every `Append` also
/// runs through the daemon's append path on the given scratch store,
/// which must cost R + 1 dots and give the same payload.
fn check_locally(
    pass: &StreamPass,
    traced: Option<(&SpanLog, &ArtifactStore)>,
    tally: &mut Tally,
) -> Vec<LayerSample> {
    let mut samples = Vec::new();
    let mut cold_checked = Vec::new();
    for (job, payload) in &pass.jobs {
        let pattern = job.config.pattern;
        let check = match job.kind {
            JobKind::Append => true,
            JobKind::Cold => !cold_checked.contains(&pattern),
            JobKind::Warm => false,
        };
        if !check || payload.is_empty() {
            continue;
        }
        if job.kind == JobKind::Cold {
            cold_checked.push(pattern);
        }
        let cfg = &job.config;
        let local = match traced {
            Some((log, store)) if job.kind == JobKind::Append => compose(cfg, log).and_then(|c| {
                samples.push(c.sample);
                let appended = layers::append_path(cfg, store, log)?;
                if !layers::same_bits(&appended, &c.result.matrix) {
                    return Err("append path's Gram matrix differs from the cold one".into());
                }
                layers::payload(cfg, &c.result.matrix)
            }),
            _ => layers::analysis(cfg).and_then(|(result, _)| layers::payload(cfg, &result.matrix)),
        };
        let what = job.kind.name();
        match local {
            Ok(p) if p == *payload => {}
            Ok(_) => tally.fail_counted(what, "payload differs from the local campaign".into()),
            Err(e) => tally.fail_counted(what, e),
        }
    }
    samples
}

fn serve_mix(args: &Args, scratch: &Path, log: &SpanLog) -> Result<Outcome, String> {
    let params = mix_params(args.size);
    let mut out = Outcome::default();
    out.param("patterns", "message-race,amg2013,unstructured-mesh");
    out.param("procs", params.procs);
    out.param("runs", format!("{}..={}", params.min_runs, params.max_runs));
    out.param("append_cap", params.append_cap);
    out.param("nd_percent", 100);

    // Set-up: a fresh daemon, warmed up. The first set-up publishes the
    // warm-up campaigns into a fresh store; the others restart the daemon
    // on that store and read them back, so the median set-up does not
    // carry the fresh store's burst of `fsync`s, whose cost varies
    // several-fold from run to run. The last daemon serves the measured
    // stream, on a store that holds only the warm-up campaigns.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        crate::sync_dir(scratch);
        let span = log.open("setup", None);
        let d = serve_setup(
            &scratch.join("setup"),
            args.seed,
            &params,
            log,
            &mut out.tally,
        )?;
        setup_s.push(log.close(span).as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");

    if !args.trace {
        let mut stream = JobStream::new(args.seed, params);
        let pass = drive(
            &mut daemon,
            &mut stream,
            (args.seconds, MIN_JOBS, None),
            false,
            log,
            &mut out.tally,
        );
        daemon.stop();
        check_locally(&pass, None, &mut out.tally);
        let cold_ms: Vec<f64> = pass
            .kind_ms
            .iter()
            .filter(|((kind, _), _)| *kind == JobKind::Cold.name())
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect();
        if cold_ms.is_empty() {
            return Err(format!(
                "no job completed: {}",
                out.tally.failures.join("; ")
            ));
        }
        let n = pass.latency_ms.len();
        out.param("jobs", pass.jobs.len());
        for ((kind, pattern), ms) in &pass.kind_ms {
            out.param(
                format!("{kind}/{pattern}"),
                format!("{} jobs, median {:.3} ms", ms.len(), median(ms)),
            );
        }
        out.put("setup_s", median(&setup_s), setup_s.len());
        out.put("analysis_s", median(&cold_ms) / 1e3, cold_ms.len());
        out.put("job_p50_ms", quantile(&pass.latency_ms, 0.5), n);
        out.put("job_p90_ms", quantile(&pass.latency_ms, 0.9), n);
        out.put("jobs_per_s", n as f64 / pass.window.as_secs_f64(), n);
        out.put("peak_rss_mib", peak_rss_mib(), 1);
        return Ok(out);
    }

    // Traced: the stream untraced for half the window, then the same
    // stream, job for job, traced on a fresh daemon; the two passes must
    // return the same payloads.
    let mut stream = JobStream::new(args.seed, params);
    let plain = drive(
        &mut daemon,
        &mut stream,
        (args.seconds / 2.0, MIN_TRACED_JOBS, None),
        false,
        log,
        &mut out.tally,
    );
    daemon.stop();
    let dir = scratch.join("traced");
    let mut daemon = Daemon::start(&dir)?;
    let mut stream = JobStream::new(args.seed, params);
    let traced = drive(
        &mut daemon,
        &mut stream,
        (0.0, 0, Some(plain.jobs.len())),
        true,
        log,
        &mut out.tally,
    );
    daemon.stop();
    for ((a, pa), (_, pb)) in plain.jobs.iter().zip(&traced.jobs) {
        if pa != pb {
            out.tally
                .fail_counted(a.kind.name(), "traced and untraced passes disagree".into());
        }
    }
    let append_store =
        ArtifactStore::open(scratch.join("append")).map_err(|e| format!("append store: {e}"))?;
    let samples = check_locally(&traced, Some((log, &append_store)), &mut out.tally);
    if samples.is_empty() || plain.latency_ms.is_empty() || traced.latency_ms.is_empty() {
        return Err(format!(
            "no append or no job completed: {}",
            out.tally.failures.join("; ")
        ));
    }
    out.put(
        "trace_overhead_pct",
        (median(&traced.latency_ms) / median(&plain.latency_ms) - 1.0) * 100.0,
        plain.latency_ms.len().min(traced.latency_ms.len()),
    );
    put_layers(&mut out, &samples);
    let replay = replay_store(&dir.join("store"), &dir.join("replay"), log)?;
    put_service(&mut out, &traced.serve, &replay);
    Ok(out)
}
