//! `blot-benchmark run | compare | spec`.

use std::path::PathBuf;
use std::process::ExitCode;

use blot_benchmark::run::{run, RunArgs};
use blot_benchmark::{compare, metrics};

const USAGE: &str = "usage:
  blot-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
  blot-benchmark compare <dirA> <dirB>
  blot-benchmark spec";

/// The directory `BENCHMARK.json` names in `paths`.
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse_run(argv: &[String]) -> Result<RunArgs, String> {
    let number = |name: &str| -> Result<Option<f64>, String> {
        flag(argv, name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("{name} takes a number, got `{v}`"))
            })
            .transpose()
    };
    let workload = flag(argv, "--workload")
        .ok_or("--workload is required")?
        .to_owned();
    let seed = flag(argv, "--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|_| "--seed takes a u64")?;
    let smoke = argv.iter().any(|a| a == "--smoke");
    let seconds = number("--seconds")?.unwrap_or(if smoke {
        1.0
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match flag(argv, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        out: flag(argv, "--out").map_or_else(|| home().join("out"), PathBuf::from),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => parse_run(&argv).and_then(|args| {
            let result = run(&args)?;
            println!(
                "{} seed {} ({}): {} operations, {} failed",
                args.workload,
                args.seed,
                if args.trace { "traced" } else { "untraced" },
                result.attempted,
                result.failed
            );
            print!("{}", result.table());
            println!("{}", result.last_line());
            Ok(result.correct())
        }),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => compare::compare(
                &PathBuf::from(a),
                &PathBuf::from(b),
                &home().join("../BENCHMARK.json"),
            )
            .map(|report| {
                print!("{}", report.text);
                report.ok
            }),
            _ => Err(USAGE.to_owned()),
        },
        Some("spec") => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("blot-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
