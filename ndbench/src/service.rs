//! The service side: an in-process daemon (`Server::bind_unix`, one
//! worker) on a fresh scratch store, one client connection, the seeded
//! job stream `serve-mix` draws, and the store replay that times
//! `put_bytes`/`get_bytes` on the artifacts a run left behind.

use crate::layers::config;
use crate::metrics::Rng;
use crate::spans::{ms, SpanLog};
use anacin_core::prelude::CampaignConfig;
use anacin_miniapps::Pattern;
use anacin_serve::client::{Client, JobResult, Outcome};
use anacin_serve::{read_frame, write_frame, Frame, JobSpec, Server, ServerConfig, ServerHandle};
use anacin_store::{ArtifactKind, ArtifactStore, Fingerprint};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of the benchmark daemon.
pub const WORKERS: usize = 1;

/// Threads of every job the stream submits: with one worker running one
/// single-threaded job at a time the daemon holds one core, and the
/// client the other.
pub const JOB_THREADS: usize = 1;

/// A running in-process daemon and the one client connected to it.
pub struct Daemon {
    dir: PathBuf,
    handle: Option<ServerHandle>,
    client: Option<Client>,
}

/// How one submitted job ended, seen from the client.
#[derive(Debug)]
pub struct Reply {
    /// Submit → terminal frame, client side.
    pub latency: Duration,
    /// The terminal outcome.
    pub outcome: Outcome,
    /// `Progress` frames received (traced submits only).
    pub progress_frames: u64,
    /// Bytes of every frame sent and received (traced submits only).
    pub frame_bytes: u64,
    /// Time to `write_frame` + `read_frame` every frame of the job
    /// through memory (traced submits only).
    pub frame_ms: f64,
}

impl Daemon {
    /// Start a daemon whose socket and store live in `dir`, created if
    /// missing (relative paths keep the socket path short).
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let cfg = ServerConfig::new(dir.join("store")).workers(WORKERS);
        let handle = Server::bind_unix(&socket, cfg)
            .map_err(|e| format!("bind {}: {e}", socket.display()))?
            .spawn();
        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            handle: Some(handle),
            client: None,
        };
        daemon.client = Some(
            Client::connect_unix(&socket, "anacin-ndbench").map_err(|e| format!("connect: {e}"))?,
        );
        Ok(daemon)
    }

    /// The daemon's store root.
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// Submit `job` under `id` and wait for its terminal frame. A traced
    /// submit reads the frames itself and times their framing; an
    /// untraced one is the plain `Client::run`.
    pub fn submit(&mut self, id: u64, job: JobSpec, traced: bool) -> Result<Reply, String> {
        let client = self.client.as_mut().expect("daemon is running");
        let begun = Instant::now();
        if !traced {
            let outcome = client.run(id, job, |_| {}).map_err(|e| e.to_string())?;
            return Ok(Reply {
                latency: begun.elapsed(),
                outcome,
                progress_frames: 0,
                frame_bytes: 0,
                frame_ms: 0.0,
            });
        }
        client.submit(id, job.clone()).map_err(|e| e.to_string())?;
        let mut frames = vec![];
        let outcome = loop {
            let frame = client
                .recv()
                .map_err(|e| e.to_string())?
                .ok_or("daemon closed the connection")?;
            let outcome = match &frame {
                Frame::Result {
                    id: fid,
                    payload,
                    elapsed_ms,
                    store_hits,
                    store_misses,
                    store_puts,
                } if *fid == id => Some(Outcome::Done(JobResult {
                    payload: payload.clone(),
                    elapsed_ms: *elapsed_ms,
                    store_hits: *store_hits,
                    store_misses: *store_misses,
                    store_puts: *store_puts,
                })),
                Frame::Error { id: fid, message } if *fid == id || *fid == 0 => {
                    Some(Outcome::Failed {
                        message: message.clone(),
                    })
                }
                Frame::Busy {
                    id: fid,
                    retry_after_ms,
                } if *fid == id => Some(Outcome::Rejected {
                    retry_after_ms: *retry_after_ms,
                }),
                _ => None,
            };
            frames.push(frame);
            if let Some(o) = outcome {
                break o;
            }
        };
        let latency = begun.elapsed();
        let progress_frames = frames
            .iter()
            .filter(|f| matches!(f, Frame::Progress { .. }))
            .count() as u64;
        frames.push(Frame::Submit { id, job });
        let (mut frame_bytes, mut frame_ms) = (0u64, 0.0);
        for f in &frames {
            let t = Instant::now();
            let mut buf = Vec::new();
            write_frame(&mut buf, f).map_err(|e| e.to_string())?;
            let back = read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
            frame_ms += ms(t.elapsed());
            if back.as_ref() != Some(f) {
                return Err("a frame did not survive write_frame/read_frame".into());
            }
            frame_bytes += buf.len() as u64;
        }
        Ok(Reply {
            latency,
            outcome,
            progress_frames,
            frame_bytes,
            frame_ms,
        })
    }

    /// Disconnect, drain the daemon and wait for its threads. The scratch
    /// directory stays until the caller removes it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.client = None;
        if let Some(h) = self.handle.take() {
            h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The three kinds of `serve-mix` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A campaign on a new seed set: every artifact simulated and written.
    Cold,
    /// A repeat of an earlier config: every artifact read back.
    Warm,
    /// An earlier config grown by one run: R + 1 new dots.
    Append,
}

impl JobKind {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Cold => "cold",
            JobKind::Warm => "warm",
            JobKind::Append => "append",
        }
    }
}

/// Shape of the `serve-mix` stream.
#[derive(Debug, Clone, Copy)]
pub struct MixParams {
    /// Ranks of every campaign.
    pub procs: u32,
    /// Fewest runs of a cold campaign.
    pub min_runs: u32,
    /// Most runs of a cold campaign.
    pub max_runs: u32,
    /// Appends stop growing a run set at this many runs.
    pub append_cap: u32,
}

/// The paper's three patterns.
pub const PATTERNS: [Pattern; 3] = [
    Pattern::MessageRace,
    Pattern::Amg2013,
    Pattern::UnstructuredMesh,
];

/// One deck of (kind, pattern) cards. The stream deals the cards in a
/// seeded order and reshuffles when the deck runs out, so every seed runs
/// exactly this mix; only the order, run counts and seeds vary.
///
/// No record of the service's client traffic exists, so both splits are
/// assumptions:
///
/// - Each job kind gets a third of the deck: a third of the jobs read
///   the store (warm), a third write it (cold) and a third append. Three
///   kinds with no shares given get equal ones.
/// - Within a kind, the pattern split is chosen so the reported
///   quantiles stay steady. Small cold jobs are nearly all `fsync`, and
///   their latency doubles from one run to the next on a shared disk, so
///   they take few cards. amg2013 takes 4 of 6 cold and warm cards: the
///   p90 then falls inside the cold amg2013 mode (simulate and store
///   writes), the p50 inside the warm amg2013 mode (store reads), and the
///   median cold job is a cold amg2013 one. It takes 2 of 6 append cards,
///   which keeps append amg2013 jobs from crowding the p50.
///
/// | kind | amg2013 | message-race | unstructured-mesh |
/// |---|---|---|---|
/// | cold | 4 | 1 | 1 |
/// | warm | 4 | 1 | 1 |
/// | append | 2 | 2 | 2 |
const DECK: [(JobKind, Pattern); 18] = {
    use JobKind::{Append, Cold, Warm};
    use Pattern::{Amg2013 as Amg, MessageRace as Race, UnstructuredMesh as Mesh};
    [
        (Cold, Amg),
        (Cold, Amg),
        (Cold, Amg),
        (Cold, Amg),
        (Cold, Race),
        (Cold, Mesh),
        (Warm, Amg),
        (Warm, Amg),
        (Warm, Amg),
        (Warm, Amg),
        (Warm, Race),
        (Warm, Mesh),
        (Append, Amg),
        (Append, Amg),
        (Append, Race),
        (Append, Race),
        (Append, Mesh),
        (Append, Mesh),
    ]
};

/// A job the stream asks for.
#[derive(Debug, Clone)]
pub struct Job {
    /// Which kind.
    pub kind: JobKind,
    /// The campaign it runs.
    pub config: CampaignConfig,
    /// For a warm repeat: the history entry whose payload it must match.
    pub repeats: Option<usize>,
}

impl Job {
    /// The wire form.
    pub fn spec(&self) -> JobSpec {
        let config = self.config.clone();
        match self.kind {
            JobKind::Append => JobSpec::Append { config },
            JobKind::Cold | JobKind::Warm => JobSpec::Campaign { config },
        }
    }
}

/// The seeded closed-loop job stream. Which job comes next depends only
/// on the seed and on the history of finished configs, so the same seed
/// replays the same stream whenever every job succeeds.
pub struct JobStream {
    rng: Rng,
    params: MixParams,
    deck: Vec<(JobKind, Pattern)>,
    /// Finished configs and their payloads, in completion order.
    pub history: Vec<(CampaignConfig, String)>,
    /// History entries an append may still grow.
    growable: Vec<usize>,
}

impl JobStream {
    /// The stream for `seed`.
    pub fn new(seed: u64, params: MixParams) -> JobStream {
        JobStream {
            rng: Rng::new(seed, 3),
            params,
            deck: Vec::new(),
            history: Vec::new(),
            growable: Vec::new(),
        }
    }

    /// The next job. A warm repeat or an append of a pattern with
    /// nothing to repeat or grow yet falls back a kind (append → warm →
    /// cold).
    pub fn next_job(&mut self) -> Job {
        if self.deck.is_empty() {
            self.deck.extend_from_slice(&DECK);
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.range(0, i as u64) as usize);
            }
        }
        let (mut kind, pattern) = self.deck.pop().expect("a refilled deck is not empty");
        let growable: Vec<usize> = (0..self.growable.len())
            .filter(|&slot| self.history[self.growable[slot]].0.pattern == pattern)
            .collect();
        let done: Vec<usize> = (0..self.history.len())
            .filter(|&i| self.history[i].0.pattern == pattern)
            .collect();
        if kind == JobKind::Append && growable.is_empty() {
            kind = JobKind::Warm;
        }
        if kind == JobKind::Warm && done.is_empty() {
            kind = JobKind::Cold;
        }
        let pick =
            |rng: &mut Rng, from: &[usize]| from[rng.range(0, from.len() as u64 - 1) as usize];
        match kind {
            JobKind::Cold => {
                let p = self.params;
                let runs = self.rng.range(p.min_runs as u64, p.max_runs as u64) as u32;
                let mut config = config(pattern, p.procs, runs, self.rng.base_seed());
                config.threads = JOB_THREADS;
                Job {
                    kind,
                    config,
                    repeats: None,
                }
            }
            JobKind::Warm => {
                let i = pick(&mut self.rng, &done);
                Job {
                    kind,
                    config: self.history[i].0.clone(),
                    repeats: Some(i),
                }
            }
            JobKind::Append => {
                let slot = pick(&mut self.rng, &growable);
                let i = self.growable.swap_remove(slot);
                let mut config = self.history[i].0.clone();
                config.runs += 1;
                Job {
                    kind,
                    config,
                    repeats: None,
                }
            }
        }
    }

    /// Record a finished cold or append job, making it available to
    /// later repeats and appends.
    pub fn finished(&mut self, job: &Job, payload: String) {
        if job.kind == JobKind::Warm {
            return;
        }
        if job.config.runs < self.params.append_cap {
            self.growable.push(self.history.len());
        }
        self.history.push((job.config.clone(), payload));
    }
}

/// Totals of one store replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// `get_bytes` calls.
    pub gets: u64,
    /// Payload bytes they returned.
    pub get_bytes: u64,
    /// Σ `get_bytes` time.
    pub get_ms: f64,
    /// `put_bytes` calls.
    pub puts: u64,
    /// Payload bytes they wrote.
    pub put_bytes: u64,
    /// Σ `put_bytes` time.
    pub put_ms: f64,
}

/// Every artifact file under a store root, in path order.
fn artifacts(root: &Path) -> Result<Vec<(Fingerprint, ArtifactKind)>, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files).map_err(|e| format!("walk {}: {e}", root.display()))?;
    files.sort();
    Ok(files
        .iter()
        .filter_map(|p| {
            let kind = ArtifactKind::from_ext(p.extension()?.to_str()?)?;
            let fp = Fingerprint::from_hex(p.file_stem()?.to_str()?)?;
            Some((fp, kind))
        })
        .collect())
}

/// Read every artifact of the store at `src` through a handle with no
/// memory cache (so each `get_bytes` reads its file), and publish each
/// into a fresh store at `dst`, timing every call.
pub fn replay_store(src: &Path, dst: &Path, log: &SpanLog) -> Result<Replay, String> {
    let reader = ArtifactStore::open_with_lru_budget(src, 0).map_err(|e| e.to_string())?;
    let writer = ArtifactStore::open(dst).map_err(|e| e.to_string())?;
    let top = log.open("store.replay", None);
    let mut r = Replay::default();
    for (fp, kind) in artifacts(src)? {
        let (got, d) = log.time("store.get_bytes", Some(top), || reader.get_bytes(fp, kind));
        let payload = got
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("artifact {} vanished", fp.hex()))?;
        r.gets += 1;
        r.get_bytes += payload.len() as u64;
        r.get_ms += ms(d);
        let (put, d) = log.time("store.put_bytes", Some(top), || {
            writer.put_bytes(fp, kind, &payload)
        });
        put.map_err(|e| e.to_string())?;
        r.puts += 1;
        r.put_bytes += payload.len() as u64;
        r.put_ms += ms(d);
    }
    log.close(top);
    Ok(r)
}
