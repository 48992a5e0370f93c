//! The wire vocabulary of the campaign service: job specifications and
//! the versioned frame set both sides speak.
//!
//! Every message is one [`Frame`], carried over the length-prefixed
//! transport in [`crate::frame`]. The conversation is:
//!
//! ```text
//! client                          server
//!   Hello{schema, peer}   ─────▶
//!                         ◀─────   Hello{schema: min(ours, yours), peer}
//!   Submit{id, job}       ─────▶
//!                         ◀─────   Progress{id, ...}   (repeated)
//!                         ◀─────   Result{id, ...} | Error{id, ...} | Busy{id, ...}
//!   Cancel{id}            ─────▶   (any time after Submit)
//! ```
//!
//! Schema negotiation: each side sends the highest schema it speaks in
//! `Hello`; both then use the minimum. Frames added in later schemas
//! must only ever *extend* the enum, so a v1 peer never receives a
//! frame it cannot decode.

use anacin_core::prelude::{CampaignConfig, SweepAxis};
use serde::{Deserialize, Serialize};

/// Highest protocol schema this build speaks.
pub const PROTOCOL_SCHEMA: u16 = 1;

/// What a client asks the service to run. Mirrors the batch CLI: a
/// campaign (`anacin run`), a parameter sweep (`anacin sweep --kind`),
/// or a campaign with schedule-space exploration (`anacin run
/// --explore`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// One measurement campaign, run incrementally against the server's
    /// shared artifact store.
    Campaign {
        /// The campaign to run.
        config: CampaignConfig,
    },
    /// A parameter sweep; `kind` is `nd`, `procs`, or `iterations`,
    /// with the same default point sets as the CLI.
    Sweep {
        /// Swept parameter: `nd`, `procs`, or `iterations`.
        kind: String,
        /// The base configuration each point derives from.
        config: CampaignConfig,
    },
    /// A campaign plus schedule-space enumeration (`run --explore`).
    Explore {
        /// The campaign to run.
        config: CampaignConfig,
        /// Explored-schedule cap (the CLI's `--schedule-budget`).
        budget: usize,
        /// Disable partial-order reduction (the CLI's `--brute-force`).
        brute_force: bool,
    },
    /// One measurement campaign, appending onto the server's stored
    /// prefix of the same run set (`anacin run --append-to`): the kernel
    /// stage reuses the largest stored Gram matrix and computes only the
    /// new rows/columns. The result payload is byte-identical to
    /// `Campaign` for the same config.
    Append {
        /// The campaign to run.
        config: CampaignConfig,
    },
}

impl JobSpec {
    /// The campaign configuration behind any job kind.
    pub fn config(&self) -> &CampaignConfig {
        match self {
            JobSpec::Campaign { config }
            | JobSpec::Sweep { config, .. }
            | JobSpec::Explore { config, .. }
            | JobSpec::Append { config } => config,
        }
    }

    /// Total runs the job will execute, for progress denominators.
    /// Sweeps multiply by their point count.
    pub fn total_runs(&self) -> u64 {
        match self {
            JobSpec::Campaign { config }
            | JobSpec::Explore { config, .. }
            | JobSpec::Append { config } => config.runs as u64,
            JobSpec::Sweep { kind, config } => {
                let points = SweepAxis::named(kind, config).map_or(1, |a| a.point_count());
                config.runs as u64 * points as u64
            }
        }
    }
}

/// One protocol message. Externally tagged JSON, e.g.
/// `{"Cancel": {"id": 7}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Connection opener, sent by both sides; carries the highest
    /// schema the sender speaks and a human-readable peer name.
    Hello {
        /// Highest schema the sender understands.
        schema: u16,
        /// Peer name, for logs (`anacin-client`, `anacin-serve`).
        peer: String,
    },
    /// Client → server: run this job. `id` is client-chosen and scopes
    /// every later frame about the job; it need only be unique within
    /// the connection.
    Submit {
        /// Client-chosen job id.
        id: u64,
        /// What to run.
        job: JobSpec,
    },
    /// Server → client: the job moved. Built from
    /// `MetricsReport::delta_since` snapshots of the job's registry —
    /// the same data the local `--progress` line renders.
    Progress {
        /// The job this frame describes.
        id: u64,
        /// Runs finished so far (store hits count immediately).
        done_runs: u64,
        /// Total runs the job will execute.
        total_runs: u64,
        /// Events simulated so far.
        events: u64,
        /// Events per second over the last interval.
        event_rate: f64,
        /// Stage that consumed the most wall time this interval
        /// (empty when idle).
        hottest: String,
        /// Estimated remaining milliseconds; absent until at least one
        /// run has finished.
        eta_ms: Option<u64>,
    },
    /// Server → client: the job finished. `payload` is byte-identical
    /// to the stdout of the equivalent batch CLI invocation (`anacin
    /// run --json` for campaigns).
    Result {
        /// The finished job.
        id: u64,
        /// The CLI-equivalent output, verbatim.
        payload: String,
        /// Wall-clock execution time (queue wait excluded).
        elapsed_ms: u64,
        /// Artifacts this job read from the shared store.
        store_hits: u64,
        /// Artifacts this job looked up but had to compute.
        store_misses: u64,
        /// Artifacts this job published.
        store_puts: u64,
    },
    /// Server → client: the job failed, was cancelled, or a frame was
    /// malformed (`id` 0 when no job is attributable).
    Error {
        /// The affected job, or 0.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Client → server: stop a queued or running job. Queued jobs are
    /// dropped immediately; running jobs finish their in-flight run and
    /// stop. Answered with `Error{message: "cancelled"}`, which is then
    /// the job's one terminal frame. A `Cancel` that arrives after its
    /// job has already answered (with `Result` or `Error`), or that
    /// names no admitted job, gets no reply: every job gets exactly one
    /// terminal frame.
    Cancel {
        /// The job to stop.
        id: u64,
    },
    /// Server → client: admission refused — the queue is full or the
    /// server is draining. The job was not admitted; retry after the
    /// suggested backoff.
    Busy {
        /// The refused job.
        id: u64,
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
}

impl Frame {
    /// The job id this frame concerns (`Hello` has none).
    pub fn job_id(&self) -> Option<u64> {
        match self {
            Frame::Hello { .. } => None,
            Frame::Submit { id, .. }
            | Frame::Progress { id, .. }
            | Frame::Result { id, .. }
            | Frame::Error { id, .. }
            | Frame::Cancel { id }
            | Frame::Busy { id, .. } => Some(*id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_miniapps::Pattern;

    #[test]
    fn frames_round_trip_through_json() {
        let cfg = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
        let frames = vec![
            Frame::Hello {
                schema: PROTOCOL_SCHEMA,
                peer: "anacin-client".into(),
            },
            Frame::Submit {
                id: 1,
                job: JobSpec::Campaign {
                    config: cfg.clone(),
                },
            },
            Frame::Submit {
                id: 2,
                job: JobSpec::Sweep {
                    kind: "nd".into(),
                    config: cfg.clone(),
                },
            },
            Frame::Submit {
                id: 3,
                job: JobSpec::Explore {
                    config: cfg.clone(),
                    budget: 64,
                    brute_force: false,
                },
            },
            Frame::Submit {
                id: 4,
                job: JobSpec::Append { config: cfg },
            },
            Frame::Progress {
                id: 1,
                done_runs: 3,
                total_runs: 6,
                events: 120_000,
                event_rate: 1.5e6,
                hottest: "campaign/simulate".into(),
                eta_ms: Some(420),
            },
            Frame::Result {
                id: 1,
                // Payloads are pretty-printed JSON: embedded newlines and
                // quotes must survive the trip.
                payload: "{\n  \"label\": \"amg2013 @ 100%\"\n}".into(),
                elapsed_ms: 17,
                store_hits: 19,
                store_misses: 0,
                store_puts: 0,
            },
            Frame::Error {
                id: 9,
                message: "cancelled".into(),
            },
            Frame::Cancel { id: 9 },
            Frame::Busy {
                id: 4,
                retry_after_ms: 250,
            },
        ];
        for f in frames {
            let json = serde_json::to_string(&f).unwrap();
            let back: Frame = serde_json::from_str(&json).unwrap();
            assert_eq!(back, f, "round-trip failed for {json}");
        }
    }

    #[test]
    fn sweep_total_runs_counts_points() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
        assert_eq!(
            JobSpec::Campaign {
                config: cfg.clone()
            }
            .total_runs(),
            10
        );
        assert_eq!(
            JobSpec::Sweep {
                kind: "nd".into(),
                config: cfg
            }
            .total_runs(),
            110
        );
    }
}
