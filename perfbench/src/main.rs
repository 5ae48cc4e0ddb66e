//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-warm|serve-cold|gnn-infer> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one diagnostics line, then, as the last line of standard output,
//! one JSON object with exactly `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;
use std::time::Duration;

use ugrapher_perfbench::{run, RunConfig, Sizing, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perfbench --workload <serve-warm|serve-cold|gnn-infer> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let outcome = run(&RunConfig {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        sizing: Sizing::full(),
    });
    for p in &outcome.problems {
        eprintln!("problem: {p}");
    }
    println!("{}", outcome.diagnostics_json());
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
