//! `paperbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one whole-day workload and prints every metric with its unit, then
//! one JSON line with `correct`, `attempted`, `failed` and `metrics` as the
//! last line of standard output. Exits non-zero on a usage error or when
//! a correctness check fails.
//!
//! A run times a fixed number of days per workload, so its length is set
//! by the workload; `--seconds` is accepted (and must be a number) so that
//! a caller may pass the run length `BENCHMARK.json` states, but it does
//! not change what is measured.

use o2o_paperbench::run::{end_to_end, traced};
use o2o_paperbench::workload::{Workload, ALL};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: paperbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        ALL.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match args[i].as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args.workload, args.seed)
    } else {
        end_to_end(&args.workload, args.seed)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<30} {:>22} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.info {
        println!("{:<30} {:>22} {} (printed only)", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
