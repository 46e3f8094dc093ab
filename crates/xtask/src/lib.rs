//! blot-audit: the workspace's static-analysis gate.
//!
//! `cargo xtask lint` walks every workspace crate and enforces the
//! invariants that neither rustc, clippy nor a test can see. The
//! compiler and clippy own panic-freedom, checked indexing and casts,
//! `# Errors` docs, discarded `Result`s, unit mixing, exhaustive codec
//! and wire dispatch, and where OS threads may be created
//! (`disallowed-methods` in `clippy.toml`); see DESIGN.md §6b for the
//! invariant → gate table. What is left:
//!
//! * **error-traits** — every public error enum has an
//!   `std::error::Error` impl and a `require_error_traits::<…>`
//!   Send + Sync compile-time assertion. The rule finds every
//!   `pub enum *Error` by name, so an enum cannot skip the check by not
//!   opting in;
//! * **lock-discipline** — no `storage::sync` guard held across
//!   backend I/O or an `execute_all` submission, and lock acquisitions
//!   follow the declared order; see [`locks`];
//! * **metrics-discipline** — no ad-hoc `static` atomics in the
//!   instrumented crates (`core`, `storage`): every global counter is
//!   a registered `blot-obs` instrument.
//!
//! No rule can be switched off by a comment: the only exceptions are
//! the crate lists below.

// Token-index arithmetic throughout this crate works on indices the
// scanners themselves produced; `.get()` chains would only obscure it.
// The audited product crates do NOT get this waiver.
#![allow(clippy::indexing_slicing)]

pub mod ast;
pub mod fuzz;
pub mod lexer;
pub mod locks;
pub mod overhead;
pub mod rules;

use rules::{Rule, RuleSet, Violation};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose code uses the `storage::sync` lock wrappers (rule
/// `lock-discipline`).
pub const LOCK_DISCIPLINE_CRATES: &[&str] = &["storage", "core"];

/// Crates whose global counters must be `blot-obs` registry
/// instruments rather than ad-hoc `static` atomics (rule
/// `metrics-discipline`). The `obs` crate itself — where the
/// instruments live — is exempt by omission.
pub const METRICS_DISCIPLINE_CRATES: &[&str] = &["core", "storage"];

/// Aggregated result of a workspace lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations across all rules, in walk order.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace passes the audit.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        let _ = writeln!(out, "---");
        let _ = writeln!(
            out,
            "blot-audit: {} file(s) scanned, {} violation(s)",
            self.files_scanned,
            self.violations.len()
        );
        for &rule in Rule::ALL {
            let n = self.violations.iter().filter(|v| v.rule == rule).count();
            if n > 0 {
                let _ = writeln!(out, "  {rule:<14} {n} violation(s)");
            }
        }
        out
    }

    /// GitHub Actions workflow annotations, one `::error` line per
    /// violation — the CI lint lane emits these so findings surface
    /// inline on the pull request diff.
    #[must_use]
    pub fn github_annotations(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            // Annotation text must be single-line; %0A is the Actions
            // escape for a literal newline, commas/colons are fine.
            let message = v.message.replace('\n', "%0A");
            let _ = writeln!(
                out,
                "::error file={},line={},title=blot-audit {}::{message}",
                v.file.display(),
                v.line,
                v.rule
            );
        }
        out
    }
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message when the workspace cannot be walked.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        lint_crate(root, &dir, &crate_name, &mut report)?;
    }
    // The facade crate's own sources.
    lint_crate(root, root, "blot", &mut report)?;
    Ok(report)
}

fn lint_crate(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    report: &mut Report,
) -> Result<(), String> {
    let src = dir.join("src");
    if !src.is_dir() {
        return Ok(());
    }
    let mut files = Vec::new();
    collect_rs_files(&src, &mut files)?;
    files.sort();

    let mut error_enums: Vec<(String, usize, PathBuf)> = Vec::new();
    let mut assertions: Vec<String> = Vec::new();
    let mut impls: Vec<String> = Vec::new();

    for file in &files {
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(file);
        let rules = RuleSet {
            lock_discipline: LOCK_DISCIPLINE_CRATES.contains(&crate_name),
            metrics_discipline: METRICS_DISCIPLINE_CRATES.contains(&crate_name),
        };
        let fr = rules::audit_file(rel, &source, rules);
        report.files_scanned += 1;
        report.violations.extend(fr.violations);
        for (name, line) in fr.error_enums {
            error_enums.push((name, line, rel.to_path_buf()));
        }
        assertions.extend(fr.trait_assertions);
        impls.extend(fr.error_impls);
    }

    for (name, line, file) in error_enums {
        if !impls.iter().any(|i| i == &name) {
            report.violations.push(Violation {
                rule: Rule::ErrorTraits,
                file: file.clone(),
                line,
                message: format!("`{name}` has no `std::error::Error` impl in its crate"),
            });
        }
        if !assertions.iter().any(|a| a == &name) {
            report.violations.push(Violation {
                rule: Rule::ErrorTraits,
                file,
                line,
                message: format!(
                    "`{name}` has no `require_error_traits::<{name}>` Send + Sync assertion"
                ),
            });
        }
    }
    Ok(())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
