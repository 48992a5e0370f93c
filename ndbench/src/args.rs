//! Command-line arguments: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--size full|tiny]`.

use std::fmt;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// amg2013 at 256 ranks × 4 runs: simulate- and feature-bound.
    WideRanks,
    /// amg2013 at 32 ranks × 128 runs: bound by the O(R²) stages.
    ManyRuns,
    /// A closed-loop client against an in-process campaign daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::WideRanks, Workload::ManyRuns, Workload::ServeMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideRanks => "wide-ranks",
            Workload::ManyRuns => "many-runs",
            Workload::ServeMix => "serve-mix",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input scale. `Tiny` shrinks every workload to a few milliseconds per
/// operation, for the benchmark's own smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// Parsed arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

impl Args {
    /// Parse the arguments after the program name.
    pub fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let v = value(flag, &mut it)?;
            match flag {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == v)
                            .ok_or_else(|| format!("unknown workload '{v}'"))?,
                    )
                }
                "--seed" => seed = Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?),
                "--seconds" => {
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds must be in (0, 60], got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match v {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                    })
                }
                "--size" => {
                    size = match v {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("--size must be full or tiny, got '{v}'")),
                    }
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_command_line() {
        let a =
            Args::parse("--workload many-runs --seed 7 --seconds 20 --trace 1".split(' ')).unwrap();
        assert_eq!(a.workload, Workload::ManyRuns);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
        assert_eq!(a.size, Size::Full);
    }

    #[test]
    fn rejects_unknown_workloads_and_missing_flags() {
        assert!(Args::parse("--workload nope --seed 1 --seconds 1 --trace 0".split(' ')).is_err());
        assert!(Args::parse("--workload serve-mix --seconds 1 --trace 0".split(' ')).is_err());
        assert!(
            Args::parse("--workload serve-mix --seed 1 --seconds 1 --trace 2".split(' ')).is_err()
        );
    }
}
