//! `ndbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload, print every metric with its unit, write the
//! provenance report, and end stdout with the one-line JSON result.

use anacin_ndbench::{run, write_report, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv.iter().map(String::as_str)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match outcome.result_line(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match write_report(&args, &outcome) {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("warning: report not written: {e}"),
    }
    for f in &outcome.tally.failures {
        eprintln!("failed: {f}");
    }
    print!("{}", outcome.table(args.trace));
    println!("{line}");
    ExitCode::SUCCESS
}
