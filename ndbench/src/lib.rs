//! The repository benchmark: the paper's workflow — simulate many ND
//! runs, compare their event graphs with the WL kernel, localise
//! root-cause call paths — measured end to end and layer by layer, plus
//! the campaign service that serves it.
//!
//! Run one workload with
//! `cargo run --release --manifest-path ndbench/Cargo.toml -- --workload
//! wide-ranks --seed 1 --seconds 20 --trace 0`; see `README.md`.

pub mod args;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod service;
pub mod spans;
pub mod workloads;

pub use args::{Args, Size, Workload};
pub use report::Outcome;

use std::path::{Path, PathBuf};

/// Where runs keep their scratch stores and sockets.
pub const SCRATCH_DIR: &str = ".bench_scratch";
/// Where runs write their provenance reports.
pub const OUT_DIR: &str = ".bench_out";

/// Run one workload with a private scratch directory under
/// [`SCRATCH_DIR`], removed again before returning.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = scratch_dir();
    let _ = std::fs::remove_dir_all(&scratch);
    let result = workloads::run(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    // Commit the deletions before exiting: on a filesystem that discards
    // freed blocks at commit time, this run pays for freeing its stores
    // instead of the next run's measured window.
    sync_dir(Path::new("."));
    result
}

/// Commit `dir`'s pending metadata changes (best effort), so the next
/// timed section does not pay for earlier work.
pub fn sync_dir(dir: &Path) {
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
}

/// A scratch directory no other process or call shares (relative, so the
/// daemon's socket path stays short).
fn scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(SCRATCH_DIR).join(format!("{}-{n}", std::process::id()))
}

/// Write the provenance report of a finished run to
/// `.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
pub fn write_report(args: &Args, outcome: &Outcome) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &path,
        outcome.report_json(args, &report::git_revision(Path::new("."))),
    )?;
    Ok(path)
}
