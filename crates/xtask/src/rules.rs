//! The audit rules: panic-freedom, indexing, error-enum hygiene and
//! `# Errors` documentation (the interprocedural families live in
//! [`crate::dataflow`]).
//!
//! All rules work on the token stream from [`crate::lexer`]; none of
//! them require type information. Violations can be waived site by
//! site with a justification comment, on the offending line or the
//! line above:
//!
//! ```text
//! // audit: allow(indexing, row length checked by the caller)
//! ```
//!
//! or for a whole file (pervasive, structurally-safe patterns such as
//! dense matrix code):
//!
//! ```text
//! // audit: allow-file(indexing, dense simplex tableau, bounds by construction)
//! ```
//!
//! Every allow is collected into a ledger that `cargo xtask lint`
//! prints; allows that waive nothing are themselves violations, so the
//! ledger cannot rot.

use crate::lexer::{lex, Kind, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers, as used in `audit: allow(<rule>, …)` comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`,
    /// `unimplemented!` in non-test library code.
    Panic,
    /// `expr[…]` indexing (prefer `.get(…)`) in non-test library code.
    Indexing,
    /// `pub fn … -> Result` without a `# Errors` doc section.
    ErrorsDoc,
    /// Public error enum without an `std::error::Error` impl or without
    /// a `require_error_traits::<…>` Send + Sync assertion.
    ErrorTraits,
    /// Dependency-graph problems (unknown license, duplicate majors).
    Deps,
    /// Interprocedural unit-family inference: cross-family additive or
    /// comparison arithmetic, or re-wrapping an escaped `.get()`/`.0`
    /// value into a different `blot_core::units` family — workspace
    /// wide, through call summaries (the dataflow successor of the old
    /// file-scoped lexical `unit-safety` rule).
    UnitFlow,
    /// A silently discarded fallible call (`let _ =` or a bare `;`
    /// statement dropping a `Result`) in a panic-free crate, or a wire
    /// `ErrorCode` whose `client::disposition()` retryability is
    /// inconsistent with the server's retry-after emission sites.
    ResultDiscipline,
    /// A narrowing `as` cast in the codec/wire bit-level files that the
    /// interval analysis cannot prove in-range (the dataflow successor
    /// of the old lexical `lossy-cast` rule; proved casts are
    /// auto-vetted with the computed interval as witness).
    CastRange,
    /// A `storage::sync` guard held across backend I/O, or a lock
    /// acquisition violating the declared lock order.
    LockDiscipline,
    /// Ad-hoc OS-thread creation (`thread::spawn`, `thread::scope`,
    /// `thread::Builder`) outside the shared scan-executor pool — all
    /// unit-granular parallelism must go through `ScanExecutor`.
    ThreadDiscipline,
    /// A `static` holding an `Atomic*` in the instrumented crates —
    /// global counters must be registered instruments in the
    /// `blot-obs` registry, or they are invisible to snapshots.
    MetricsDiscipline,
    /// A `codec::scheme` variant without a complete toolchain (encoder,
    /// decoder, round-trip proptest, fuzz target).
    Registry,
    /// A function in a panic-free crate transitively reaches a
    /// panic/unwrap/indexing site in another workspace crate (the
    /// workspace call-graph closes the cross-crate escape hatch the
    /// lexical `panic` rule cannot see).
    PanicReach,
    /// A guard-holding function transitively re-acquires its own lock,
    /// inverts the declared lock order, performs blocking I/O, or
    /// submits to `ScanExecutor::execute_all` through a call chain —
    /// or the workspace lock-acquisition graph has a cycle.
    Deadlock,
    /// A `server::wire` `Request`/`Response`/`ErrorCode` variant
    /// without encode + decode arms, a client-side handling arm, and a
    /// test-corpus mention.
    WireRegistry,
    /// The live waiver count differs from the `ratchet.toml` pin.
    Ratchet,
    /// An `audit: allow` comment that waives nothing.
    UnusedAllow,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::Panic,
        Rule::Indexing,
        Rule::ErrorsDoc,
        Rule::ErrorTraits,
        Rule::Deps,
        Rule::UnitFlow,
        Rule::ResultDiscipline,
        Rule::CastRange,
        Rule::LockDiscipline,
        Rule::ThreadDiscipline,
        Rule::MetricsDiscipline,
        Rule::Registry,
        Rule::PanicReach,
        Rule::Deadlock,
        Rule::WireRegistry,
        Rule::Ratchet,
        Rule::UnusedAllow,
    ];

    /// The name used in allow comments and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Indexing => "indexing",
            Rule::ErrorsDoc => "errors-doc",
            Rule::ErrorTraits => "error-traits",
            Rule::Deps => "deps",
            Rule::UnitFlow => "unit-flow",
            Rule::ResultDiscipline => "result-discipline",
            Rule::CastRange => "cast-range",
            Rule::LockDiscipline => "lock-discipline",
            Rule::ThreadDiscipline => "thread-discipline",
            Rule::MetricsDiscipline => "metrics-discipline",
            Rule::Registry => "registry",
            Rule::PanicReach => "panic-reachability",
            Rule::Deadlock => "deadlock",
            Rule::WireRegistry => "wire-registry",
            Rule::Ratchet => "ratchet",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// Rationale and fix recipe, for `cargo xtask lint --explain`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Panic => {
                "Why: a panic in the query/repair hot path or a connection handler kills the \
                 whole request (or worker thread) instead of failing over to another replica — \
                 the paper's availability argument assumes per-replica failure isolation.\n\
                 Fix: return a `Result` and propagate with `?`; convert `Option` with \
                 `ok_or(...)`. If the site is provably unreachable, vet it with\n\
                 `// audit: allow(panic, <why it cannot fire>)`."
            }
            Rule::Indexing => {
                "Why: `expr[i]` panics on a bad index; in panic-free crates that is the same \
                 hazard as `.unwrap()`. Most out-of-bounds bugs arrive via refactors that \
                 change a length invariant silently.\n\
                 Fix: use `.get(i)` and handle `None`, iterate instead of indexing, or \
                 destructure fixed-size arrays (`let [a, b, c] = arr;`). Structurally-safe \
                 dense loops can carry `// audit: allow(indexing, <bound argument>)`."
            }
            Rule::ErrorsDoc => {
                "Why: callers of a fallible `pub fn` need to know *which* failures to expect \
                 to route them (retry vs fail over vs abort); an undocumented `Result` \
                 invites `.unwrap()`.\n\
                 Fix: add a `# Errors` section to the doc comment describing each failure \
                 case."
            }
            Rule::ErrorTraits => {
                "Why: error enums that do not implement `std::error::Error + Send + Sync` \
                 cannot cross thread boundaries or be boxed uniformly, which the executor \
                 and server layers rely on.\n\
                 Fix: implement `Display` + `std::error::Error`, and add the\n\
                 `require_error_traits::<YourError>()` compile-time assertion next to the \
                 enum."
            }
            Rule::Deps => {
                "Why: duplicate semver-major dependency versions bloat builds and split \
                 trait impls; undeclared licenses block redistribution.\n\
                 Fix: converge the workspace on one version per crate major and declare a \
                 `license` field in every manifest."
            }
            Rule::UnitFlow => {
                "Why: the cost model mixes milliseconds, bytes, partition counts, record \
                 counts and ratios; adding or comparing two different unit families is \
                 always a bug even though the types (f64) agree, and a `.get()`/`.0` escape \
                 followed by a re-wrap in another crate launders the mistake past any \
                 file-scoped check. The dataflow engine infers each value's family from the \
                 `blot_core::units` constructors, name suffixes and call summaries, \
                 workspace-wide.\n\
                 Fix: convert explicitly before combining (e.g. bytes → ms via the \
                 throughput constant), keep values inside their newtypes across function \
                 boundaries, or vet a true false positive with\n\
                 `// audit: allow(unit-flow, <why the families agree>)`."
            }
            Rule::ResultDiscipline => {
                "Why: in the panic-free crates a discarded `Result` is the silent twin of \
                 `.unwrap()` — a failed `set_read_timeout` means the socket blocks forever, \
                 a dropped `write` result loses bytes with no trace. The same rule \
                 cross-checks the wire contract: an `ErrorCode` the server decorates with a \
                 retry-after hint must map to `RetryAfterHint` in `client::disposition`, \
                 and vice versa, or the hint is dead protocol surface.\n\
                 Fix: handle the error, propagate with `?`, or vet a genuinely best-effort \
                 drop with `// audit: allow(result-discipline, <why the loss is harmless>)`."
            }
            Rule::CastRange => {
                "Why: the bit-level codec/wire files narrow integers while packing; a \
                 silent `as` truncation corrupts frames in a way round-trip tests on small \
                 values miss. The interval analysis proves most sites safe (a masked value, \
                 a length already bounds-checked, an enum's discriminant range) and only \
                 flags the remainder.\n\
                 Fix: use `u8::try_from(x)` (or checked arithmetic) and propagate the \
                 error, tighten the value's range so the proof goes through (mask first, \
                 compare against a bound), or justify the site with\n\
                 `// audit: allow(cast-range, <range argument>)`."
            }
            Rule::LockDiscipline => {
                "Why: a `storage::sync` guard held across backend I/O serialises every \
                 concurrent reader behind one unit's disk latency; out-of-order acquisition \
                 can deadlock two threads taking the pair in opposite orders.\n\
                 Fix: use temporary guards (`self.units.write().insert(...)`), `drop(guard)` \
                 before I/O, and acquire locks in the declared `LOCK_ORDER` (log before \
                 zones before failures before units)."
            }
            Rule::ThreadDiscipline => {
                "Why: ad-hoc `thread::spawn` bypasses the shared `ScanExecutor` pool, so \
                 unit-scan work escapes its admission control and saturates the box under \
                 load.\n\
                 Fix: submit work through `ScanExecutor::execute_all`. Long-lived I/O loops \
                 (accept/handler threads) may carry `// audit: allow(thread-discipline, ...)`."
            }
            Rule::MetricsDiscipline => {
                "Why: a `static` atomic counter is invisible to `metrics_snapshot()` and \
                 `blot stats`, so drift accounting silently under-reports.\n\
                 Fix: register the counter as a `blot_obs` instrument and bump it through \
                 the registry handle."
            }
            Rule::Registry => {
                "Why: a codec scheme variant without an encoder, decoder, round-trip \
                 proptest and fuzz target can be selected at runtime but not actually \
                 (de)serialised — a latent data-loss bug.\n\
                 Fix: add the dispatch arms in `EncodingScheme::{encode,decode}`, a \
                 `<variant>_roundtrips` property test, and register the fuzz target in \
                 `xtask::fuzz`. This rule cannot be waived."
            }
            Rule::PanicReach => {
                "Why: the lexical `panic` rule stops at crate boundaries — a panic-free \
                 crate can still die by calling into a helper crate that panics. The \
                 workspace call graph closes that escape hatch by propagating \
                 panic/unwrap/indexing reachability through resolved call edges.\n\
                 Fix: preferred — make the callee fallible and handle the error at the \
                 frontier call. If the panic is a documented invariant that holds at every \
                 call site, vet it at the source with\n\
                 `// audit: allow(panic-reachability, <invariant argument>)` on the line \
                 above the panicking site; one source vet covers every caller."
            }
            Rule::Deadlock => {
                "Why: per-file lock analysis cannot see a lock re-acquired three frames \
                 below a held guard, blocking I/O reached through a call chain, or an \
                 `execute_all` submission that needs the very lock the submitter holds. Any \
                 of these can wedge the server under load; cycles in the workspace \
                 lock-acquisition graph can deadlock two threads.\n\
                 Fix: drop the guard before calling out (`drop(guard)`), restructure so the \
                 callee receives data instead of taking locks, and keep acquisitions in the \
                 declared `LOCK_ORDER`. False positives from conservative trait dispatch \
                 can carry `// audit: allow(deadlock, <why the call cannot recurse>)` at \
                 the reported call site."
            }
            Rule::WireRegistry => {
                "Why: a `Request`/`Response`/`ErrorCode` variant without encode + decode \
                 arms, client handling and test coverage is a protocol hole: one peer can \
                 emit what the other cannot parse, and nothing fails until production.\n\
                 Fix: add the arms in `wire.rs` (`encode`, `decode`, `from_u16`), give the \
                 client a handling arm or `disposition(...)` entry, and cover the variant \
                 in the e2e or unit tests. This rule cannot be waived."
            }
            Rule::Ratchet => {
                "Why: waiver counts only mean something if they cannot drift — an increase \
                 is a new unreviewed waiver, a decrease is an improvement that would \
                 silently regress if the pin stayed loose.\n\
                 Fix: remove the new waiver, or — after review — run \
                 `cargo xtask lint --update-ratchet` to re-pin."
            }
            Rule::UnusedAllow => {
                "Why: an `audit: allow` that waives nothing is ledger rot — it documents a \
                 hazard that no longer exists and hides the day the hazard comes back.\n\
                 Fix: delete the comment (and run `cargo xtask lint --update-ratchet`)."
            }
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "panic" => Rule::Panic,
            "indexing" => Rule::Indexing,
            "errors-doc" => Rule::ErrorsDoc,
            "error-traits" => Rule::ErrorTraits,
            "deps" => Rule::Deps,
            "unit-flow" => Rule::UnitFlow,
            "result-discipline" => Rule::ResultDiscipline,
            "cast-range" => Rule::CastRange,
            "lock-discipline" => Rule::LockDiscipline,
            "thread-discipline" => Rule::ThreadDiscipline,
            "metrics-discipline" => Rule::MetricsDiscipline,
            "panic-reachability" => Rule::PanicReach,
            "deadlock" => Rule::Deadlock,
            // `registry`, `wire-registry` and `ratchet` are
            // workspace-level structural checks and deliberately cannot
            // be waived site by site.
            _ => return None,
        })
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

/// A parsed `audit: allow` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule being waived.
    pub rule: Rule,
    /// Justification text (everything after the comma).
    pub reason: String,
    /// File the comment is in.
    pub file: PathBuf,
    /// 1-based line of the comment.
    pub line: usize,
    /// Whole-file waiver (`allow-file`) instead of site waiver.
    pub file_wide: bool,
    /// How many violations this comment waived.
    pub used: usize,
}

/// Result of auditing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived the allowlist.
    pub violations: Vec<Violation>,
    /// All allow comments found (with use counts).
    pub allows: Vec<Allow>,
    /// Public error enums declared in this file (for the crate-level
    /// error-traits aggregation).
    pub error_enums: Vec<(String, usize)>,
    /// Names asserted via `require_error_traits::<Name>`.
    pub trait_assertions: Vec<String>,
    /// Names with an `… Error for Name` impl in this file.
    pub error_impls: Vec<String>,
    /// Waived-site counts per rule (for the summary).
    pub waived: Vec<(Rule, usize)>,
}

/// Which rules to run on a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// Panic-freedom (rule `panic`).
    pub panic: bool,
    /// Indexing-without-get (rule `indexing`).
    pub indexing: bool,
    /// `# Errors` sections on fallible `pub fn`s (rule `errors-doc`).
    pub errors_doc: bool,
    /// Guard liveness and lock ordering (rule `lock-discipline`).
    pub lock_discipline: bool,
    /// No ad-hoc thread creation outside the executor pool (rule
    /// `thread-discipline`).
    pub thread_discipline: bool,
    /// No `static` atomics outside the metrics registry (rule
    /// `metrics-discipline`).
    pub metrics_discipline: bool,
}

/// Keywords that can precede `[` without the bracket being an index
/// expression (`let [a, b] = …`, `return [x]`, …).
pub(crate) const NON_VALUE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "continue", "const", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield", "Self",
];

/// Audits one file's source text.
///
/// `rules` selects the per-site rules; enum/impl collection for the
/// crate-level `error-traits` rule always runs.
#[must_use]
pub fn audit_file(file: &Path, source: &str, rules: RuleSet) -> FileReport {
    let tokens = lex(source);
    let mut report = FileReport::default();

    // 1. Allow ledger.
    for t in &tokens {
        if t.kind != Kind::Comment {
            continue;
        }
        if let Some(mut allow) = parse_allow(&t.text) {
            allow.file = file.to_path_buf();
            allow.line = t.line;
            report.allows.push(allow);
        }
    }

    // 2. Significant tokens outside `#[cfg(test)]` items.
    let sig = significant_non_test(&tokens);

    // 3. Per-site rules.
    let mut raw: Vec<Violation> = Vec::new();
    if rules.panic {
        scan_panic_sites(file, &tokens, &sig, &mut raw);
    }
    if rules.indexing {
        scan_indexing(file, &tokens, &sig, &mut raw);
    }
    if rules.errors_doc {
        scan_errors_doc(file, &tokens, &sig, &mut raw);
    }
    if rules.thread_discipline {
        scan_thread_spawns(file, &tokens, &sig, &mut raw);
    }
    if rules.metrics_discipline {
        scan_static_atomics(file, &tokens, &sig, &mut raw);
    }
    if rules.lock_discipline {
        let view = crate::ast::View::new(&tokens, &sig);
        let ast = crate::ast::parse(view);
        crate::locks::scan(file, view, &ast, &mut raw);
    }

    // 4. Error enums / impls / assertions (crate-level aggregation).
    collect_error_items(&tokens, &sig, &mut report);

    // 5. Apply the allowlist.
    let mut waived: std::collections::HashMap<Rule, usize> = std::collections::HashMap::new();
    for v in raw {
        let allow = report.allows.iter_mut().find(|a| {
            a.rule == v.rule && (a.file_wide || a.line == v.line || a.line + 1 == v.line)
        });
        if let Some(a) = allow {
            a.used += 1;
            *waived.entry(v.rule).or_default() += 1;
        } else {
            report.violations.push(v);
        }
    }
    report.waived = waived.into_iter().collect();
    report
}

/// Applies an already-collected allow ledger to a batch of raw
/// violations produced by a workspace-level pass (the call-graph and
/// dataflow analyses), using the same matching policy as
/// [`audit_file`]: same rule, and file-wide or on the offending line or
/// the line above. Matched allows have their use counts bumped;
/// unmatched violations are returned.
#[must_use]
pub fn apply_site_allows(raw: Vec<Violation>, allows: &mut [Allow]) -> Vec<Violation> {
    let mut surviving = Vec::new();
    for v in raw {
        let allow = allows.iter_mut().find(|a| {
            a.rule == v.rule
                && a.file == v.file
                && (a.file_wide || a.line == v.line || a.line + 1 == v.line)
        });
        if let Some(a) = allow {
            a.used += 1;
        } else {
            surviving.push(v);
        }
    }
    surviving
}

/// Parses `audit: allow(rule, reason)` / `audit: allow-file(rule, reason)`
/// out of a comment's text.
fn parse_allow(comment: &str) -> Option<Allow> {
    let at = comment.find("audit:")?;
    let rest = comment[at + "audit:".len()..].trim_start();
    let (file_wide, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else {
        return None;
    };
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule_name, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (inner.trim(), ""),
    };
    Some(Allow {
        rule: Rule::from_name(rule_name)?,
        reason: reason.to_string(),
        file: PathBuf::new(),
        line: 0,
        file_wide,
        used: 0,
    })
}

/// Lexes `source` and returns the token list together with the indices
/// of its significant non-test tokens — the inputs the [`crate::ast`]
/// layer works from.
#[must_use]
pub fn lex_significant(source: &str) -> (Vec<Token>, Vec<usize>) {
    let tokens = lex(source);
    let sig = significant_non_test(&tokens);
    (tokens, sig)
}

/// Indices of Ident/Punct/Literal tokens that are not inside a
/// `#[cfg(test)]` item.
fn significant_non_test(tokens: &[Token]) -> Vec<usize> {
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

/// Does the significant-token position `k` start a `#[cfg(test)]`-style
/// attribute (any `cfg(…)` mentioning `test`)?
fn is_cfg_test_attr(tokens: &[Token], all: &[usize], k: usize) -> bool {
    let text = |j: usize| all.get(j).map(|&i| tokens[i].text.as_str());
    if text(k) != Some("#") || text(k + 1) != Some("[") || text(k + 2) != Some("cfg") {
        return false;
    }
    // Scan the attribute's bracket group for the ident `test`.
    let mut depth = 0usize;
    let mut j = k + 1;
    while let Some(t) = text(j) {
        match t {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "test" => return true,
            _ => {}
        }
        j += 1;
    }
    false
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

fn scan_panic_sites(file: &Path, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    let text = |j: usize| sig.get(j).map(|&i| tokens[i].text.as_str());
    for j in 0..sig.len() {
        let line = tokens[sig[j]].line;
        // `.unwrap()` / `.expect(`
        if text(j) == Some(".") {
            if let (Some(m), Some("(")) = (text(j + 1), text(j + 2)) {
                if m == "unwrap" || m == "expect" {
                    out.push(Violation {
                        rule: Rule::Panic,
                        file: file.to_path_buf(),
                        line: tokens[sig[j + 1]].line,
                        message: format!("`.{m}(…)` in library code — propagate the error"),
                    });
                }
            }
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
        if let Some(m) = text(j) {
            if matches!(m, "panic" | "unreachable" | "todo" | "unimplemented")
                && text(j + 1) == Some("!")
            {
                out.push(Violation {
                    rule: Rule::Panic,
                    file: file.to_path_buf(),
                    line,
                    message: format!("`{m}!` in library code — return an error instead"),
                });
            }
        }
    }
}

/// Flags `thread::spawn`, `thread::scope` and `thread::Builder` in
/// non-test library code: every unit-granular task must run on the
/// shared `ScanExecutor` pool (whose own `pool.rs` is exempt at the
/// crate-wiring level).
fn scan_thread_spawns(file: &Path, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    let text = |j: usize| sig.get(j).map(|&i| tokens[i].text.as_str());
    for j in 0..sig.len() {
        if text(j) != Some("thread") || text(j + 1) != Some(":") || text(j + 2) != Some(":") {
            continue;
        }
        if let Some(m) = text(j + 3) {
            if matches!(m, "spawn" | "scope" | "Builder") {
                out.push(Violation {
                    rule: Rule::ThreadDiscipline,
                    file: file.to_path_buf(),
                    line: tokens[sig[j]].line,
                    message: format!(
                        "`thread::{m}` outside the executor pool — run tasks on `ScanExecutor`"
                    ),
                });
            }
        }
    }
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

fn scan_indexing(file: &Path, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    for j in 1..sig.len() {
        if tokens[sig[j]].text != "[" {
            continue;
        }
        let prev = &tokens[sig[j - 1]];
        let is_index_base = match prev.kind {
            Kind::Ident => {
                !NON_VALUE_KEYWORDS.contains(&prev.text.as_str()) && !prev.text.starts_with('\'')
            }
            Kind::Punct => prev.text == ")" || prev.text == "]",
            Kind::Literal | Kind::Comment | Kind::Doc => false,
        };
        if is_index_base {
            out.push(Violation {
                rule: Rule::Indexing,
                file: file.to_path_buf(),
                line: tokens[sig[j]].line,
                message: format!(
                    "`{}[…]` indexing in library code — use `.get(…)` or justify",
                    prev.text
                ),
            });
        }
    }
}

fn scan_errors_doc(file: &Path, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    let text = |j: usize| sig.get(j).map(|&i| tokens[i].text.as_str());
    for j in 0..sig.len() {
        if text(j) != Some("pub") || text(j + 1) == Some("(") {
            continue; // not `pub`, or restricted `pub(crate)` visibility
        }
        // Allow qualifiers between `pub` and `fn`.
        let mut f = j + 1;
        while matches!(text(f), Some("const" | "async" | "unsafe" | "extern")) {
            f += 1;
        }
        if text(f) != Some("fn") {
            continue;
        }
        let name = text(f + 1).unwrap_or("?").to_string();
        // Signature: everything up to the body `{` or a trait-decl `;`.
        let mut returns_result = false;
        let mut saw_arrow = false;
        let mut k = f + 2;
        while let Some(t) = text(k) {
            match t {
                "{" | ";" => break,
                "-" if text(k + 1) == Some(">") => saw_arrow = true,
                "Result" if saw_arrow => returns_result = true,
                _ => {}
            }
            k += 1;
        }
        if !returns_result {
            continue;
        }
        if !docs_before(tokens, sig[j]).contains("# Errors") {
            out.push(Violation {
                rule: Rule::ErrorsDoc,
                file: file.to_path_buf(),
                line: tokens[sig[j]].line,
                message: format!("`pub fn {name}` returns `Result` but has no `# Errors` section"),
            });
        }
    }
}

/// Concatenated doc-comment text immediately above full-token index
/// `start` (skipping attributes between the docs and the item).
fn docs_before(tokens: &[Token], start: usize) -> String {
    let mut docs = Vec::new();
    let mut i = start;
    while i > 0 {
        i -= 1;
        let t = &tokens[i];
        match t.kind {
            Kind::Doc => docs.push(t.text.clone()),
            Kind::Comment => {}
            // Attributes between docs and item: skip the `#[…]` group.
            Kind::Punct | Kind::Ident | Kind::Literal => {
                if t.text == "]" {
                    let mut depth = 0usize;
                    loop {
                        match tokens[i].text.as_str() {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if i == 0 {
                            break;
                        }
                        i -= 1;
                    }
                    // Step over the `#` that opens the attribute.
                    if i > 0 && tokens[i - 1].text == "#" {
                        i -= 1;
                    }
                } else {
                    break;
                }
            }
        }
    }
    docs.reverse();
    docs.join("\n")
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
                panic: true,
                indexing: true,
                errors_doc: true,
                ..RuleSet::default()
            },
        )
    }

    #[test]
    fn unwrap_fires_and_tests_are_exempt() {
        let r = audit(
            "fn f() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n",
        );
        assert_eq!(
            r.violations
                .iter()
                .filter(|v| v.rule == Rule::Panic)
                .count(),
            1
        );
    }

    #[test]
    fn allow_comment_waives_and_is_counted() {
        let r = audit(
            "fn f() {\n    // audit: allow(panic, impossible by construction)\n    x.unwrap();\n}\n",
        );
        assert!(r.violations.is_empty());
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].used, 1);
        assert_eq!(r.allows[0].reason, "impossible by construction");
    }

    #[test]
    fn unused_allow_stays_unused() {
        let r = audit("// audit: allow(panic, stale)\nfn f() { let x = 1; }\n");
        assert_eq!(r.allows[0].used, 0);
    }

    #[test]
    fn indexing_fires_but_not_on_patterns_or_types() {
        let r = audit("fn f(v: &[u8], a: [u8; 2]) { let [x, y] = a; let b = v[0]; }\n");
        let idx: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::Indexing)
            .collect();
        assert_eq!(idx.len(), 1, "{idx:?}");
        assert!(idx[0].message.contains("`v[…]`"));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let r = audit("fn f() { let s = \"a.unwrap()\"; } // .unwrap() in a comment\n");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn site_allows_apply_to_workspace_level_violations() {
        let mut allows = vec![Allow {
            rule: Rule::CastRange,
            reason: "mask bounds the value".to_string(),
            file: PathBuf::from("a.rs"),
            line: 9,
            file_wide: false,
            used: 0,
        }];
        let raw = vec![
            Violation {
                rule: Rule::CastRange,
                file: PathBuf::from("a.rs"),
                line: 10,
                message: "waived".to_string(),
            },
            Violation {
                rule: Rule::CastRange,
                file: PathBuf::from("b.rs"),
                line: 10,
                message: "other file".to_string(),
            },
        ];
        let surviving = apply_site_allows(raw, &mut allows);
        assert_eq!(surviving.len(), 1);
        assert_eq!(surviving[0].message, "other file");
        assert_eq!(allows[0].used, 1);
    }

    #[test]
    fn errors_doc_required_for_fallible_pub_fns() {
        let bad = audit("pub fn f() -> Result<(), E> { Ok(()) }\n");
        assert_eq!(bad.violations.len(), 1);
        assert_eq!(bad.violations[0].rule, Rule::ErrorsDoc);

        let good = audit(
            "/// Does a thing.\n///\n/// # Errors\n///\n/// Never.\npub fn f() -> Result<(), E> { Ok(()) }\n",
        );
        assert!(good.violations.is_empty(), "{:?}", good.violations);

        let crate_vis = audit("pub(crate) fn f() -> Result<(), E> { Ok(()) }\n");
        assert!(crate_vis.violations.is_empty());
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

    #[test]
    fn file_wide_allow_covers_every_site() {
        let r = audit(
            "// audit: allow-file(indexing, dense tableau, bounds by construction)\n\
             fn f(v: &[f64]) -> f64 { v[0] + v[1] }\n",
        );
        assert!(r.violations.is_empty());
        assert_eq!(r.allows[0].used, 2);
        assert!(r.allows[0].file_wide);
    }
}
