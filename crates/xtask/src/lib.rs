//! blot-audit: the workspace's static-analysis gate.
//!
//! `cargo xtask lint` walks every workspace crate and enforces the
//! invariants nothing else in the lint lane checks (panic-freedom,
//! checked indexing and casts, `# Errors` docs, discarded `Result`s and
//! unit mixing are rustc's, clippy's and `blot_core::units`' job — see
//! DESIGN.md §6b for the invariant → gate table):
//!
//! * **error-traits** — every public error enum has an
//!   `std::error::Error` impl and a `require_error_traits::<…>`
//!   Send + Sync compile-time assertion;
//! * **lock-discipline** — no `storage::sync` guard held across
//!   backend I/O or an `execute_all` submission, and lock acquisitions
//!   follow the declared order; see [`locks`];
//! * **thread-discipline** — no ad-hoc OS threads outside the files
//!   named in [`THREAD_DISCIPLINE_EXEMPT_PATHS`];
//! * **metrics-discipline** — no ad-hoc `static` atomics in the
//!   instrumented crates (`core`, `storage`): every global counter is
//!   a registered `blot-obs` instrument;
//! * **registry** / **wire-registry** — every `codec::scheme` variant
//!   resolves to an encoder, a decoder, a round-trip proptest and a
//!   fuzz target, and every `server::wire` variant to encode + decode
//!   arms, client-side handling and a test mention; see [`registry`].
//!
//! No rule can be switched off by a comment: the only exceptions are
//! the constants below ([`THREAD_DISCIPLINE_EXEMPT_PATHS`] and the
//! crate lists each rule covers).

// Token-index arithmetic throughout this crate works on indices the
// scanners themselves produced; `.get()` chains would only obscure it.
// The audited product crates do NOT get this waiver.
#![allow(clippy::indexing_slicing)]

pub mod ast;
pub mod fuzz;
pub mod lexer;
pub mod locks;
pub mod overhead;
pub mod registry;
pub mod rules;

use rules::{Rule, RuleSet, Violation};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose code uses the `storage::sync` lock wrappers (rule
/// `lock-discipline`).
pub const LOCK_DISCIPLINE_CRATES: &[&str] = &["storage", "core"];

/// Crates that must run all parallel work on the shared scan-executor
/// pool instead of spawning ad-hoc OS threads (rule `thread-discipline`).
pub const THREAD_DISCIPLINE_CRATES: &[&str] = &["storage", "core", "server", "router"];

/// Every file allowed to create OS threads, as workspace-relative
/// paths: the scan-executor pool itself, `router`'s long-lived shard
/// connection workers, and `server`'s single spawn site
/// (`conn.rs::spawn_named`) for its accept/handler/batch-lane loops.
pub const THREAD_DISCIPLINE_EXEMPT_PATHS: &[&str] = &[
    "crates/storage/src/pool.rs",
    "crates/router/src/pool.rs",
    "crates/server/src/conn.rs",
];

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

    // Registry completeness: the codec scheme enums against their
    // encoder/decoder arms, property tests and fuzz targets.
    let read = |rel: &Path| {
        std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {}: {e}", rel.display()))
    };
    let scheme_file = Path::new("crates/codec/src/scheme.rs");
    let props_file = Path::new("crates/codec/tests/properties.rs");
    report.violations.extend(registry::check_registry(
        scheme_file,
        &read(scheme_file)?,
        props_file,
        &read(props_file)?,
        &fuzz::target_names(),
    ));

    // Wire-protocol registry: server request/response/error-code
    // variants against their encode/decode arms, client handling, and
    // test coverage.
    let wire_file = Path::new("crates/server/src/wire.rs");
    let client_file = Path::new("crates/server/src/client.rs");
    report.violations.extend(registry::check_wire_registry(
        wire_file,
        &read(wire_file)?,
        client_file,
        &read(client_file)?,
        &read(Path::new("crates/server/tests/e2e.rs"))?,
    ));
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
            thread_discipline: thread_discipline_applies(crate_name, rel),
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

/// Whether rule `thread-discipline` covers the file at the
/// workspace-relative path `rel` of crate `crate_name`.
fn thread_discipline_applies(crate_name: &str, rel: &Path) -> bool {
    THREAD_DISCIPLINE_CRATES.contains(&crate_name)
        && !THREAD_DISCIPLINE_EXEMPT_PATHS
            .iter()
            .any(|exempt| rel == Path::new(exempt))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A spawn is flagged in any non-exempt file of a disciplined crate
    /// (a pool-named file included), and in none of the exempt paths.
    #[test]
    fn thread_spawns_are_flagged_outside_the_exempt_paths_only() {
        let source = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        let spawns = |crate_name: &str, rel: &str| {
            let rules = RuleSet {
                thread_discipline: thread_discipline_applies(crate_name, Path::new(rel)),
                ..RuleSet::default()
            };
            rules::audit_file(Path::new(rel), source, rules)
                .violations
                .iter()
                .filter(|v| v.rule == Rule::ThreadDiscipline)
                .count()
        };
        for (crate_name, rel) in [
            ("server", "crates/server/src/batch.rs"),
            ("core", "crates/core/src/store.rs"),
            ("storage", "crates/storage/src/backend.rs"),
            ("router", "crates/router/src/lib.rs"),
            ("core", "crates/core/src/pool.rs"),
        ] {
            assert_eq!(spawns(crate_name, rel), 1, "{rel} must be flagged");
        }
        for rel in THREAD_DISCIPLINE_EXEMPT_PATHS {
            let crate_name = rel.split('/').nth(1).unwrap_or_default();
            assert_eq!(spawns(crate_name, rel), 0, "{rel} is exempt");
        }
    }
}
