//! Command line: `e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`.
//!
//! Prints one JSON result line on standard output and exits 0 when every
//! output check held; prints the failures on standard error and exits 1
//! otherwise.

use e2ebench::{run, Sizes, WORKLOADS};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("e2ebench: {problem}");
    eprintln!("usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>", WORKLOADS.join("|"));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag needs a value") };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are all required");
    };
    let Some(report) = run(&workload, &Sizes::BENCH, seed, seconds, trace) else {
        return usage(&format!("unknown workload {workload}"));
    };
    for e in &report.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
