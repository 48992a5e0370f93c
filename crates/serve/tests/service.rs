//! End-to-end tests of the campaign service over real Unix-domain
//! sockets: payload byte-identity with the local CLI path, cross-client
//! warm sharing, fairness under a single worker, backpressure at
//! capacity, cancellation, per-job timeouts, graceful drain, and the
//! Hello handshake.

use anacin_core::prelude::*;
use anacin_miniapps::Pattern;
use anacin_serve::client::{Client, Outcome};
use anacin_serve::frame::{read_frame, write_frame};
use anacin_serve::proto::{Frame, JobSpec, PROTOCOL_SCHEMA};
use anacin_serve::server::{Server, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A scratch directory per test (removed on success; left for
/// inspection on panic).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anacin_serve_test_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start(tag: &str, cfg_of: impl FnOnce(ServerConfig) -> ServerConfig) -> (PathBuf, ServerHandle) {
    let dir = scratch(tag);
    let cfg = cfg_of(ServerConfig::new(dir.join("store")));
    let handle = Server::bind_unix(dir.join("serve.sock"), cfg)
        .expect("bind unix socket")
        .spawn();
    (dir, handle)
}

fn connect(dir: &std::path::Path, peer: &str) -> Client {
    Client::connect_unix(dir.join("serve.sock"), peer).expect("connect")
}

fn done(outcome: Outcome) -> anacin_serve::client::JobResult {
    match outcome {
        Outcome::Done(r) => r,
        other => panic!("expected Done, got {other:?}"),
    }
}

/// The acceptance oracle: a served campaign's payload is byte-identical
/// to the local `anacin run --json` output — cold (first client, empty
/// store) AND warm (second client, artifacts published by the first) —
/// and the warm hits are attributed to cross-client sharing.
#[test]
fn result_payload_matches_local_json_cold_and_warm_across_clients() {
    let cfg = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
    // What `anacin run --json` prints for this campaign: the pretty
    // report plus println!'s newline.
    let result = run_campaign(&cfg).expect("local campaign");
    let expected = format!(
        "{}\n",
        measurement_json(&cfg, &result.matrix).expect("local json")
    );

    let (dir, handle) = start("identity", |c| c.workers(2));
    let job = JobSpec::Campaign {
        config: cfg.clone(),
    };
    let mut alice = connect(&dir, "alice");
    let cold = done(alice.run(1, job.clone(), |_| {}).expect("cold job"));
    assert_eq!(cold.payload, expected, "cold payload must match local CLI");
    assert_eq!(cold.store_hits, 0, "first run of an empty store is cold");
    assert!(cold.store_puts > 0, "cold run publishes artifacts");

    let mut bob = connect(&dir, "bob");
    let warm = done(bob.run(1, job, |_| {}).expect("warm job"));
    assert_eq!(warm.payload, expected, "warm payload must match local CLI");
    assert!(
        warm.store_hits >= 1,
        "bob's run must be served from alice's artifacts, got {} hits",
        warm.store_hits
    );

    let report = handle.join();
    assert_eq!(report.counter("serve/jobs_completed"), Some(2));
    assert!(
        report.counter("serve/cross_client_hits").unwrap_or(0) >= warm.store_hits,
        "warm hits by a second client count as cross-client sharing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// With one worker and round-robin admission, a client submitting a
/// single job is never starved behind another client's burst: bob's
/// one job completes before alice's burst finishes.
#[test]
fn single_job_client_is_not_starved_by_a_burst() {
    let (dir, handle) = start("fairness", |c| c.workers(1));
    let burst = 4u64;
    let alice_thread = {
        let dir = dir.clone();
        std::thread::spawn(move || {
            let mut alice = connect(&dir, "alice");
            for id in 0..burst {
                // Distinct seeds: every burst job is cold work.
                let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 16)
                    .runs(6)
                    .base_seed(100 + id);
                alice
                    .submit(id, JobSpec::Campaign { config: cfg })
                    .expect("submit");
            }
            let mut finished = Vec::new();
            for id in 0..burst {
                done(alice.wait(id, |_| {}).expect("burst job"));
                finished.push(Instant::now());
            }
            finished
        })
    };
    // Give alice's burst a head start in the queue, then submit one job.
    std::thread::sleep(Duration::from_millis(10));
    let mut bob = connect(&dir, "bob");
    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 16)
        .runs(6)
        .base_seed(999);
    bob.submit(7, JobSpec::Campaign { config: cfg })
        .expect("submit");
    done(bob.wait(7, |_| {}).expect("bob's job"));
    let bob_done = Instant::now();
    let alice_done = alice_thread.join().expect("alice thread");
    assert!(
        bob_done < *alice_done.last().expect("burst completions"),
        "round-robin must serve bob before alice's burst drains"
    );
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// At queue capacity the server refuses with `Busy{retry_after_ms}`
/// instead of buffering without bound. Zero workers pin the queue.
#[test]
fn submits_beyond_capacity_get_busy() {
    let (dir, handle) = start("backpressure", |c| c.workers(0).queue_capacity(2));
    let mut client = connect(&dir, "greedy");
    let cfg = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
    for id in 1..=2 {
        client
            .submit(
                id,
                JobSpec::Campaign {
                    config: cfg.clone(),
                },
            )
            .expect("submit within capacity");
    }
    match client
        .run(3, JobSpec::Campaign { config: cfg }, |_| {})
        .expect("third submit")
    {
        Outcome::Rejected { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Busy at capacity, got {other:?}"),
    }
    let report = handle.join();
    assert_eq!(report.counter("serve/jobs_admitted"), Some(2));
    assert_eq!(report.counter("serve/jobs_rejected"), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Busy` answer is not fatal when the client retries: with the
/// one-slot queue pinned full behind a long job, `run_with_retry`
/// sleeps the server-suggested backoff between attempts and lands the
/// job once capacity frees — and the interim refusals are counted.
#[test]
fn busy_submit_succeeds_after_server_suggested_backoff() {
    let (dir, handle) = start("retry", |c| {
        c.workers(1).queue_capacity(1).retry_after_ms(20)
    });
    let mut alice = connect(&dir, "alice");
    // A long job the single worker picks up…
    let long = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(40);
    alice
        .submit(1, JobSpec::Campaign { config: long })
        .expect("submit long job");
    while handle.metrics().counter("serve/jobs_admitted").unwrap_or(0) < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // …give the worker a beat to pop it, then pin the queue's one slot.
    std::thread::sleep(Duration::from_millis(20));
    let quick = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
    alice
        .submit(
            2,
            JobSpec::Campaign {
                config: quick.clone(),
            },
        )
        .expect("submit queued job");
    // A second client retrying into the full queue eventually lands.
    let mut bob = connect(&dir, "bob");
    let outcome = bob
        .run_with_retry(7, JobSpec::Campaign { config: quick }, 500, |_| {})
        .expect("retrying job");
    done(outcome);
    done(alice.wait(1, |_| {}).expect("long job"));
    done(alice.wait(2, |_| {}).expect("queued job"));
    let report = handle.join();
    assert!(
        report.counter("serve/jobs_rejected").unwrap_or(0) >= 1,
        "the full queue must have refused at least one attempt"
    );
    assert_eq!(report.counter("serve/jobs_completed"), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

/// An `Append` job's payload is byte-identical to the equivalent
/// `Campaign` job (and the local CLI) whether the store holds a prefix
/// to grow or not — append is a schedule, never a different answer.
#[test]
fn append_job_payload_matches_campaign_job() {
    let base = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
    let grown = base.clone().runs(7);
    let expected = {
        let result = run_campaign(&grown).expect("local campaign");
        format!(
            "{}\n",
            measurement_json(&grown, &result.matrix).expect("local json")
        )
    };

    let (dir, handle) = start("append", |c| c.workers(1));
    let mut client = connect(&dir, "appender");
    // Cold append — no stored prefix — falls back to the full
    // incremental path and still answers the CLI-identical payload.
    let cold = done(
        client
            .run(
                1,
                JobSpec::Append {
                    config: base.clone(),
                },
                |_| {},
            )
            .expect("cold append"),
    );
    let local_base = run_campaign(&base).expect("local base campaign");
    assert_eq!(
        cold.payload,
        format!(
            "{}\n",
            measurement_json(&base, &local_base.matrix).expect("local base json")
        ),
        "cold append payload must match the local CLI"
    );
    // Warm append — grow the stored 6-run campaign by one run.
    let warm = done(
        client
            .run(2, JobSpec::Append { config: grown }, |_| {})
            .expect("warm append"),
    );
    assert_eq!(
        warm.payload, expected,
        "appended payload must match a cold recompute byte-for-byte"
    );
    assert!(warm.store_hits > 0, "append must reuse the stored prefix");
    let report = handle.join();
    assert_eq!(report.counter("serve/jobs_completed"), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Cancelling a job — queued or already running — answers an Error
/// frame naming the cancellation; the worker pool survives.
#[test]
fn cancel_stops_a_job_with_an_error_frame() {
    let (dir, handle) = start("cancel", |c| c.workers(1));
    let mut client = connect(&dir, "impatient");
    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(40);
    client
        .submit(5, JobSpec::Campaign { config: cfg })
        .expect("submit");
    client.cancel(5).expect("cancel");
    match client.wait(5, |_| {}).expect("terminal frame") {
        Outcome::Failed { message } => {
            assert!(
                message.contains("cancel"),
                "expected a cancellation message, got '{message}'"
            );
        }
        other => panic!("expected Failed after cancel, got {other:?}"),
    }
    // The worker is free again: a fresh job still completes.
    let quick = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
    done(
        client
            .run(6, JobSpec::Campaign { config: quick }, |_| {})
            .expect("post-cancel job"),
    );
    let report = handle.join();
    assert!(report.counter("serve/jobs_cancelled").unwrap_or(0) >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A burst of submit+cancel pairs: each job gets exactly one terminal
/// frame — its `Result` if it finished first, its cancellation otherwise
/// — and a `Cancel` never races a worker's claim into "no such job".
#[test]
fn submit_cancel_burst_gets_one_terminal_frame_per_job() {
    const JOBS: u64 = 48;
    let (dir, handle) = start("cancel_burst", |c| c.workers(1));
    let mut client = connect(&dir, "bursty");
    let quick = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
    let job = JobSpec::Campaign { config: quick };
    for id in 1..=JOBS {
        client.submit(id, job.clone()).expect("submit");
        client.cancel(id).expect("cancel");
    }
    // One worker runs jobs in submission order, so every burst frame
    // precedes the sentinel's result.
    let sentinel = JOBS + 1;
    client.submit(sentinel, job).expect("submit sentinel");
    let mut terminal = vec![0u32; sentinel as usize];
    loop {
        match client.recv().expect("recv").expect("connection open") {
            Frame::Result { id, .. } if id == sentinel => break,
            Frame::Result { id, .. } => terminal[id as usize] += 1,
            Frame::Error { id, message } => {
                assert!(
                    message.contains("cancel"),
                    "job {id}: expected a cancellation, got '{message}'"
                );
                terminal[id as usize] += 1;
            }
            Frame::Busy { id, .. } => panic!("job {id} refused"),
            _ => {}
        }
    }
    for id in 1..=JOBS {
        assert_eq!(terminal[id as usize], 1, "terminal frames of job {id}");
    }
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A per-job timeout cancels cooperatively and reports it.
#[test]
fn job_timeout_cancels_with_a_timeout_error() {
    let (dir, handle) = start("timeout", |c| {
        c.workers(1).job_timeout(Duration::from_millis(1))
    });
    let mut client = connect(&dir, "slow");
    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(60);
    match client
        .run(1, JobSpec::Campaign { config: cfg }, |_| {})
        .expect("terminal frame")
    {
        Outcome::Failed { message } => assert!(
            message.contains("timed out"),
            "expected a timeout message, got '{message}'"
        ),
        other => panic!("expected Failed on timeout, got {other:?}"),
    }
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Draining refuses new submits but still delivers the result of a job
/// that was already admitted — no in-flight work is lost.
#[test]
fn drain_delivers_admitted_jobs_and_refuses_new_ones() {
    let (dir, handle) = start("drain", |c| c.workers(1));
    let mut client = connect(&dir, "drained");
    let cfg = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
    client
        .submit(
            1,
            JobSpec::Campaign {
                config: cfg.clone(),
            },
        )
        .expect("submit before drain");
    // Drain only once the job is actually admitted (the Submit frame is
    // processed by a reader thread, racing a bare drain call).
    while handle.metrics().counter("serve/jobs_admitted").unwrap_or(0) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.drain();
    // Admitted before the drain: its result must still arrive.
    let result = done(client.wait(1, |_| {}).expect("drained job"));
    assert!(!result.payload.is_empty());
    // Submitted after the drain: refused, not queued.
    match client
        .run(2, JobSpec::Campaign { config: cfg }, |_| {})
        .expect("post-drain submit")
    {
        Outcome::Rejected { .. } => {}
        other => panic!("expected Busy while draining, got {other:?}"),
    }
    let report = handle.join();
    assert_eq!(report.counter("serve/jobs_completed"), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A long cold job streams Progress frames while it runs, with a
/// stable total and monotone done counts.
#[test]
fn progress_frames_stream_while_a_job_runs() {
    let (dir, handle) = start("progress", |c| {
        c.workers(1).progress_interval(Duration::from_millis(5))
    });
    let mut client = connect(&dir, "watcher");
    let runs = 24u32;
    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(runs);
    let mut seen = 0u32;
    let mut last_done = 0u64;
    let result = client
        .run(1, JobSpec::Campaign { config: cfg }, |frame| {
            if let Frame::Progress {
                done_runs,
                total_runs,
                ..
            } = frame
            {
                seen += 1;
                assert_eq!(*total_runs, runs as u64);
                assert!(*done_runs >= last_done, "done count must not go backwards");
                last_done = *done_runs;
            }
        })
        .expect("job");
    done(result);
    assert!(seen >= 1, "a multi-run cold job must stream progress");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The first frame must be Hello, and the server answers with the
/// minimum schema both sides speak.
#[test]
fn hello_negotiates_the_minimum_schema() {
    let (dir, handle) = start("hello", |c| c.workers(0));
    // A future client speaking schema 99 still converses at ours.
    let mut stream =
        std::os::unix::net::UnixStream::connect(dir.join("serve.sock")).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Hello {
            schema: 99,
            peer: "from-the-future".into(),
        },
    )
    .expect("send hello");
    match read_frame(&mut stream).expect("read hello") {
        Some(Frame::Hello { schema, .. }) => assert_eq!(schema, PROTOCOL_SCHEMA),
        other => panic!("expected Hello, got {other:?}"),
    }
    drop(stream);
    // Skipping Hello is a protocol error answered before disconnect.
    let mut rude =
        std::os::unix::net::UnixStream::connect(dir.join("serve.sock")).expect("connect");
    write_frame(&mut rude, &Frame::Cancel { id: 1 }).expect("send non-hello");
    match read_frame(&mut rude).expect("read error") {
        Some(Frame::Error { id, message }) => {
            assert_eq!(id, 0);
            assert!(message.contains("Hello"), "got '{message}'");
        }
        other => panic!("expected Error for missing Hello, got {other:?}"),
    }
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The service also listens on TCP (`--listen`): the same handshake
/// and job path work over an ephemeral localhost port.
#[test]
fn tcp_transport_serves_jobs_too() {
    let dir = scratch("tcp");
    let handle = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig::new(dir.join("store")).workers(1),
    )
    .expect("bind tcp")
    .spawn();
    let addr = handle.local_addr().expect("tcp address");
    let mut client = Client::connect_tcp(&addr.to_string(), "tcp-client").expect("connect");
    let cfg = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
    let result = done(
        client
            .run(1, JobSpec::Campaign { config: cfg }, |_| {})
            .expect("tcp job"),
    );
    assert!(!result.payload.is_empty());
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
