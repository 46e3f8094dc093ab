//! `cargo xtask` — workspace maintenance commands.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--github]\n       cargo xtask lint --explain RULE\n       cargo xtask fuzz [--target NAME] [--millis N]\n       cargo xtask metrics-overhead";

/// Parsed options of the `lint` subcommand.
#[derive(Debug, Default)]
struct LintOptions {
    github: bool,
    explain: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_options(args.get(1..).unwrap_or(&[])) {
            Ok(options) => match &options.explain {
                Some(rule_name) => explain(rule_name),
                None => exit(lint(&options)),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("fuzz") => fuzz(args.get(1..).unwrap_or(&[])),
        Some("metrics-overhead") => exit(metrics_overhead()),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_lint_options(args: &[String]) -> Result<LintOptions, String> {
    let mut options = LintOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--github" => options.github = true,
            "--explain" => match it.next() {
                Some(rule) => options.explain = Some(rule.clone()),
                None => return Err(format!("--explain needs a rule name; one of: {}", rules())),
            },
            other => return Err(format!("unknown lint option `{other}`")),
        }
    }
    Ok(options)
}

/// Maps a subcommand's outcome — `Ok(passed)` or a message — to the
/// process exit status.
fn exit(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn lint(options: &LintOptions) -> Result<bool, String> {
    let report = xtask::lint_workspace(&workspace_root()?)?;
    print!("{}", report.render());
    if options.github {
        print!("{}", report.github_annotations());
    }
    Ok(report.is_clean())
}

/// Prints one rule's rationale and fix recipe.
fn explain(rule_name: &str) -> ExitCode {
    match xtask::rules::Rule::ALL
        .iter()
        .find(|r| r.name() == rule_name)
    {
        Some(rule) => {
            println!(
                "{rule}\n{}\n\n{}",
                "=".repeat(rule.name().len()),
                rule.explain()
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{rule_name}`; one of: {}", rules());
            ExitCode::from(2)
        }
    }
}

fn rules() -> String {
    xtask::rules::Rule::ALL
        .iter()
        .map(|r| r.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn fuzz(args: &[String]) -> ExitCode {
    let mut target: Option<String> = None;
    let mut millis: u64 = 1000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--target" => match it.next() {
                Some(name) => target = Some(name.clone()),
                None => {
                    eprintln!("--target needs a name; registered: {}", names());
                    return ExitCode::from(2);
                }
            },
            "--millis" => match it.next().map(|m| m.parse()) {
                Some(Ok(m)) => millis = m,
                _ => {
                    eprintln!("--millis needs an integer millisecond budget per target");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown fuzz option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    exit(
        xtask::fuzz::run(target.as_deref(), millis).map(|summaries| {
            let mut clean = true;
            for s in &summaries {
                println!(
                    "fuzz {:<22} {:>9} execs, {} failure(s)",
                    s.name,
                    s.execs,
                    s.failures.len()
                );
                for f in &s.failures {
                    clean = false;
                    println!("  panic: {}", f.message);
                    println!("  input: {}", f.input_hex);
                }
            }
            clean
        }),
    )
}

fn metrics_overhead() -> Result<bool, String> {
    let probe = xtask::overhead::check(&workspace_root()?)?;
    for (name, phase) in [("in-process", probe.in_process), ("served", probe.served)] {
        println!(
            "metrics overhead ({name}): instrumented {:.2} ms vs compiled-out {:.2} ms \
             (median of {} alternating runs each; ratio {:.3}, budget {:.2})",
            phase.enabled_min_ms,
            phase.disabled_min_ms,
            xtask::overhead::PAIRS,
            phase.ratio(),
            xtask::overhead::MAX_RATIO,
        );
    }
    println!("{} spans recorded", probe.enabled_spans);
    if !probe.within_budget() {
        eprintln!("error: instrumentation exceeds the overhead budget");
    }
    Ok(probe.within_budget())
}

fn names() -> String {
    xtask::fuzz::target_names().join(", ")
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> Result<PathBuf, String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root".into())
}
