//! The per-file audit rules: metrics discipline and error-enum hygiene
//! (lock discipline lives in [`crate::locks`]).
//!
//! All rules work on the token stream from [`crate::lexer`]; none of
//! them require type information, and no comment can waive them.

use crate::lexer::{lex, Kind, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Public error enum without an `std::error::Error` impl or without
    /// a `require_error_traits::<…>` Send + Sync assertion.
    ErrorTraits,
    /// A `storage::sync` guard held across backend I/O or a pool
    /// submission, or a lock acquisition violating the declared lock
    /// order.
    LockDiscipline,
    /// A `static` holding an `Atomic*` in the instrumented crates —
    /// global counters must be registered instruments in the
    /// `blot-obs` registry, or they are invisible to snapshots.
    MetricsDiscipline,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::ErrorTraits,
        Rule::LockDiscipline,
        Rule::MetricsDiscipline,
    ];

    /// The name used in reports and `--explain`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::ErrorTraits => "error-traits",
            Rule::LockDiscipline => "lock-discipline",
            Rule::MetricsDiscipline => "metrics-discipline",
        }
    }

    /// Rationale and fix recipe, for `cargo xtask lint --explain`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::ErrorTraits => {
                "Why: error enums that do not implement `std::error::Error + Send + Sync` \
                 cannot cross thread boundaries or be boxed uniformly, which the executor \
                 and server layers rely on. The rule finds every `pub enum *Error` by name, \
                 so an enum is checked whether or not its author opted in.\n\
                 Fix: implement `Display` + `std::error::Error`, and add the\n\
                 `require_error_traits::<YourError>()` compile-time assertion next to the \
                 enum."
            }
            Rule::LockDiscipline => {
                "Why: a `storage::sync` guard held across backend I/O serialises every \
                 concurrent reader behind one unit's disk latency; held across an \
                 `execute_all` submission it can wedge the pool on a task that needs the \
                 same lock; out-of-order acquisition can deadlock two threads taking the \
                 pair in opposite orders.\n\
                 Fix: use temporary guards (`self.units.write().insert(...)`), `drop(guard)` \
                 before I/O or a pool submission, and acquire locks in the declared \
                 `LOCK_ORDER` (zones before failures before units)."
            }
            Rule::MetricsDiscipline => {
                "Why: a `static` atomic counter is invisible to `metrics_snapshot()` and \
                 `blot stats`, so drift accounting silently under-reports.\n\
                 Fix: register the counter as a `blot_obs` instrument and bump it through \
                 the registry handle."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the site.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Result of auditing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations found in the file.
    pub violations: Vec<Violation>,
    /// Public error enums declared in this file (for the crate-level
    /// error-traits aggregation).
    pub error_enums: Vec<(String, usize)>,
    /// Names asserted via `require_error_traits::<Name>`.
    pub trait_assertions: Vec<String>,
    /// Names with an `… Error for Name` impl in this file.
    pub error_impls: Vec<String>,
}

/// Which rules to run on a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// Guard liveness and lock ordering (rule `lock-discipline`).
    pub lock_discipline: bool,
    /// No `static` atomics outside the metrics registry (rule
    /// `metrics-discipline`).
    pub metrics_discipline: bool,
}

/// Audits one file's source text.
///
/// `rules` selects the per-site rules; enum/impl collection for the
/// crate-level `error-traits` rule always runs.
#[must_use]
pub fn audit_file(file: &Path, source: &str, rules: RuleSet) -> FileReport {
    let tokens = lex(source);
    let mut report = FileReport::default();

    // Significant tokens outside `#[cfg(test)]` items.
    let sig = significant_non_test(&tokens);

    // Per-site rules.
    let out = &mut report.violations;
    if rules.metrics_discipline {
        scan_static_atomics(file, &tokens, &sig, out);
    }
    if rules.lock_discipline {
        let view = crate::ast::View::new(&tokens, &sig);
        crate::locks::scan(file, view, &crate::ast::parse(view), out);
    }

    // Error enums / impls / assertions (crate-level aggregation).
    collect_error_items(&tokens, &sig, &mut report);
    report
}

/// Indices of Ident/Punct/Literal tokens that are not inside a
/// test-only (`#[cfg(test)]`-style) item — the input the [`crate::ast`]
/// layer works from.
pub(crate) fn significant_non_test(tokens: &[Token]) -> Vec<usize> {
    let all: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.kind, Kind::Ident | Kind::Punct | Kind::Literal))
        .map(|(i, _)| i)
        .collect();

    let mut keep = Vec::with_capacity(all.len());
    let mut k = 0usize;
    while k < all.len() {
        if is_cfg_test_attr(tokens, &all, k) {
            k = skip_attributed_item(tokens, &all, k);
        } else {
            keep.push(all[k]);
            k += 1;
        }
    }
    keep
}

/// Does the significant-token position `k` start a `#[cfg(…)]` whose
/// predicate holds only in test builds? `cfg(not(test))` items are
/// production code and stay visible to every rule.
fn is_cfg_test_attr(tokens: &[Token], all: &[usize], k: usize) -> bool {
    let text = |j: usize| all.get(j).map(|&i| tokens[i].text.as_str());
    text(k) == Some("#")
        && text(k + 1) == Some("[")
        && text(k + 2) == Some("cfg")
        && text(k + 3) == Some("(")
        && requires_test(tokens, all, k + 4).0
}

/// Parses the cfg predicate at significant-token position `j`: whether
/// it implies `test` (`test`, an `all(…)` with such a member, an
/// `any(…)` of only such members; never a `not(…)`), and the position
/// just past it.
fn requires_test(tokens: &[Token], all: &[usize], j: usize) -> (bool, usize) {
    let text = |j: usize| all.get(j).map(|&i| tokens[i].text.as_str());
    match (text(j), text(j + 1)) {
        (Some(op @ ("all" | "any" | "not")), Some("(")) => {
            let mut members = Vec::new();
            let mut k = j + 2;
            while let Some(t) = text(k) {
                match t {
                    ")" => break,
                    "," => k += 1,
                    _ => {
                        let (required, next) = requires_test(tokens, all, k);
                        members.push(required);
                        k = next;
                    }
                }
            }
            let required = match op {
                "all" => members.contains(&true),
                "any" => !members.is_empty() && !members.contains(&false),
                _ => false,
            };
            (required, k + 1)
        }
        (Some("test"), _) => (true, j + 1),
        // `feature = "off"`: a name, `=` and a string.
        (_, Some("=")) => (false, j + 3),
        _ => (false, j + 1),
    }
}

/// Skips from an attribute at position `k` past the item it decorates:
/// any further attributes, then either a braced body or a `;`.
fn skip_attributed_item(tokens: &[Token], all: &[usize], k: usize) -> usize {
    let text = |j: usize| all.get(j).map(|&i| tokens[i].text.as_str());
    let mut j = k;
    let mut brace_depth = 0usize;
    let mut bracket_depth = 0usize;
    while let Some(t) = text(j) {
        match t {
            "[" => bracket_depth += 1,
            "]" => bracket_depth = bracket_depth.saturating_sub(1),
            "{" => brace_depth += 1,
            "}" => {
                brace_depth = brace_depth.saturating_sub(1);
                if brace_depth == 0 {
                    return j + 1;
                }
            }
            ";" if brace_depth == 0 && bracket_depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    all.len()
}

/// Flags `static` items whose declared type mentions an `Atomic*`
/// type: an ad-hoc global counter bypasses the `blot-obs` registry, so
/// it never shows up in `metrics_snapshot()` or `blot stats`. The
/// `'static` lifetime lexes as a single identifier starting with `'`,
/// so only the keyword itself can match here; atomics owned by
/// registry-managed instruments are instance fields and stay quiet.
fn scan_static_atomics(file: &Path, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    let text = |j: usize| sig.get(j).map(|&i| tokens[i].text.as_str());
    for j in 0..sig.len() {
        if text(j) != Some("static") || tokens[sig[j]].kind != Kind::Ident {
            continue;
        }
        // Walk the declaration's type portion: everything up to the
        // initialiser `=` or the end of the item.
        let mut k = j + 1;
        while let Some(t) = text(k) {
            if matches!(t, "=" | ";" | "{") {
                break;
            }
            if t.starts_with("Atomic") {
                out.push(Violation {
                    rule: Rule::MetricsDiscipline,
                    file: file.to_path_buf(),
                    line: tokens[sig[j]].line,
                    message: format!(
                        "`static …: {t}` outside the metrics registry — register a \
                         `blot_obs` instrument instead"
                    ),
                });
                break;
            }
            k += 1;
        }
    }
}

fn collect_error_items(tokens: &[Token], sig: &[usize], report: &mut FileReport) {
    let text = |j: usize| sig.get(j).map(|&i| tokens[i].text.as_str());
    for j in 0..sig.len() {
        // `pub enum FooError`
        if text(j) == Some("pub") && text(j + 1) == Some("enum") {
            if let Some(name) = text(j + 2) {
                if name.ends_with("Error") {
                    report
                        .error_enums
                        .push((name.to_string(), tokens[sig[j]].line));
                }
            }
        }
        // `require_error_traits::<Name>` (the Send + Sync assertion)
        if text(j) == Some("require_error_traits")
            && text(j + 1) == Some(":")
            && text(j + 2) == Some(":")
            && text(j + 3) == Some("<")
        {
            if let Some(name) = text(j + 4) {
                report.trait_assertions.push(name.to_string());
            }
        }
        // `… Error for Name`
        if text(j) == Some("Error") && text(j + 1) == Some("for") {
            if let Some(name) = text(j + 2) {
                report.error_impls.push(name.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(source: &str) -> FileReport {
        audit_file(
            Path::new("test.rs"),
            source,
            RuleSet {
                metrics_discipline: true,
                ..RuleSet::default()
            },
        )
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let r = audit("fn f() { let s = \"static A: AtomicU64\"; } // static B: AtomicU64\n");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn error_items_are_collected() {
        let r = audit(
            "pub enum FooError { A }\n\
             impl std::error::Error for FooError {}\n\
             const _: () = require_error_traits::<FooError>();\n",
        );
        assert_eq!(r.error_enums.len(), 1);
        assert_eq!(r.error_impls, vec!["FooError".to_string()]);
        assert_eq!(r.trait_assertions, vec!["FooError".to_string()]);
    }
}
