//! blot-audit acceptance tests: every rule must fire on its known-bad
//! fixture, no comment may waive a rule, and the real workspace must
//! pass clean.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use xtask::rules::{audit_file, FileReport, Rule, RuleSet};

/// One rule family per fixture, so each stays focused on what it proves.
const NO_RULES: RuleSet = RuleSet {
    lock_discipline: false,
    thread_discipline: false,
    metrics_discipline: false,
};

const LOCK_RULES: RuleSet = RuleSet {
    lock_discipline: true,
    ..NO_RULES
};

const THREAD_RULES: RuleSet = RuleSet {
    thread_discipline: true,
    ..NO_RULES
};

const METRICS_RULES: RuleSet = RuleSet {
    metrics_discipline: true,
    ..NO_RULES
};

fn fixture_source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn audit_fixture(name: &str, rules: RuleSet) -> FileReport {
    audit_file(Path::new(name), &fixture_source(name), rules)
}

fn count(report: &FileReport, rule: Rule) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn error_enums_are_reported_for_crate_level_aggregation() {
    let r = audit_fixture("error_enum.rs", NO_RULES);
    assert_eq!(r.error_enums.len(), 1);
    assert_eq!(r.error_enums[0].0, "BadError");
    assert!(r.trait_assertions.is_empty());
    assert!(r.error_impls.is_empty());
}

/// No comment silences a rule: a spawn under an allow-style comment is
/// still reported.
#[test]
fn allow_comments_no_longer_waive_a_thread_spawn() {
    // Spelled with `concat!` so the retired marker appears nowhere in
    // the workspace's sources.
    let source = concat!(
        "pub fn sanctioned() {\n",
        "    // audit",
        ": allow(thread-discipline, long-lived I/O loop)\n",
        "    std::thread::spawn(|| {});\n",
        "}\n",
    );
    let r = audit_file(Path::new("waived.rs"), source, THREAD_RULES);
    assert_eq!(count(&r, Rule::ThreadDiscipline), 1, "{:?}", r.violations);
    assert_eq!(r.violations[0].line, 3);
}

#[test]
fn lock_discipline_rule_fires_on_guards_held_across_io() {
    let r = audit_fixture("guard_io.rs", LOCK_RULES);
    // backend.get, std::fs::read, run_scan + backend.list, and the
    // execute_all submission; the dropped, temporary and scoped guards
    // stay quiet.
    assert_eq!(
        count(&r, Rule::LockDiscipline),
        5,
        "violations: {:?}",
        r.violations
    );
    assert!(
        !r.violations.iter().any(|v| v.line >= 37),
        "the ok_* methods must stay quiet: {:?}",
        r.violations
    );
    assert!(
        r.violations
            .iter()
            .any(|v| v.line == 33 && v.message.contains("execute_all")),
        "a pool submission under a guard must fire: {:?}",
        r.violations
    );
}

#[test]
fn lock_discipline_rule_fires_on_order_inversions() {
    let r = audit_fixture("lock_order.rs", LOCK_RULES);
    // units→failures twice (let-bound and temporary); the correctly
    // ordered pairs and the full chain stay quiet.
    assert_eq!(
        count(&r, Rule::LockDiscipline),
        2,
        "violations: {:?}",
        r.violations
    );
    assert!(
        r.violations.iter().all(|v| v.line < 24),
        "ordered acquisitions must stay quiet: {:?}",
        r.violations
    );
}

#[test]
fn thread_discipline_rule_fires_on_creation_only() {
    let r = audit_fixture("thread_spawn.rs", THREAD_RULES);
    // thread::spawn, thread::scope, thread::Builder; sleep,
    // available_parallelism and the #[cfg(test)] spawn stay quiet.
    assert_eq!(
        count(&r, Rule::ThreadDiscipline),
        3,
        "violations: {:?}",
        r.violations
    );
    assert!(
        !r.violations.iter().any(|v| v.line >= 20),
        "thread queries and test code must stay quiet: {:?}",
        r.violations
    );
}

#[test]
fn metrics_discipline_rule_fires_on_static_atomics_only() {
    let r = audit_fixture("static_atomic.rs", METRICS_RULES);
    // The two ad-hoc globals; instance fields, `'static` lifetimes,
    // non-atomic statics and the #[cfg(test)] static stay quiet.
    assert_eq!(
        count(&r, Rule::MetricsDiscipline),
        2,
        "violations: {:?}",
        r.violations
    );
    assert!(
        !r.violations.iter().any(|v| v.line >= 14),
        "only the two globals at the top may fire: {:?}",
        r.violations
    );
    assert!(
        r.violations.iter().all(|v| v.message.contains("blot_obs")),
        "messages must point at the registry: {:?}",
        r.violations
    );
}

#[test]
fn registry_rule_fires_on_every_gap_of_a_new_variant() {
    let scheme = fixture_source("registry_gap_scheme.rs");
    let props = fixture_source("registry_gap_properties.rs");
    let violations = xtask::registry::check_registry(
        Path::new("registry_gap_scheme.rs"),
        &scheme,
        Path::new("registry_gap_properties.rs"),
        &props,
        &xtask::fuzz::target_names(),
    );
    // The fixture's Zstd variant has an encode arm but nothing else:
    // missing decode arm, missing zstd_roundtrips, and three missing
    // fuzz targets (zstd, decode_row_zstd, decode_column_zstd).
    assert_eq!(violations.len(), 5, "violations: {violations:?}");
    let messages: Vec<_> = violations.iter().map(|v| v.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Zstd") && m.contains("decode")),
        "missing decode arm must be reported: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("zstd_roundtrips")),
        "missing property test must be reported: {messages:?}"
    );
    assert_eq!(
        messages
            .iter()
            .filter(|m| m.contains("no fuzz target"))
            .count(),
        3,
        "missing fuzz targets must be reported: {messages:?}"
    );
}

/// The `wire-registry` fixture pair: one dropped decode arm, one
/// dropped encode arm, one dropped `from_u16` arm, and two variants
/// the client and the test corpus never mention.
#[test]
fn wire_registry_rule_fires_on_every_gap() {
    let wire = fixture_source("wire_gap_wire.rs");
    let client = fixture_source("wire_gap_client.rs");
    let violations = xtask::registry::check_wire_registry(
        Path::new("wire_gap_wire.rs"),
        &wire,
        Path::new("wire_gap_client.rs"),
        &client,
        "",
    );
    assert_eq!(violations.len(), 7, "violations: {violations:?}");
    let messages: Vec<_> = violations.iter().map(|v| v.message.as_str()).collect();
    for expected in [
        "`Request::Echo` has no arm in `Request::decode`",
        "`Response::Pong` has no arm in `Response::encode`",
        "`ErrorCode::Overloaded` has no arm in `ErrorCode::from_u16`",
        "`Request::Echo` is never handled",
        "`ErrorCode::Overloaded` is never handled",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(expected)),
            "missing `{expected}` in {messages:?}"
        );
    }
    assert_eq!(
        messages
            .iter()
            .filter(|m| m.contains("appears in no test"))
            .count(),
        2,
        "Echo and Overloaded are uncovered by any test: {messages:?}"
    );
}

/// Proven by mutation on the real sources: the live wire protocol is clean, and deleting any single
/// match arm — a `from_u16` arm, a client disposition arm, or a whole
/// codec variant — makes `wire-registry` fire.
#[test]
fn deleting_a_wire_arm_fails_the_lint() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
    };
    let wire_src = read("crates/server/src/wire.rs");
    let client_src = read("crates/server/src/client.rs");
    let e2e_src = read("crates/server/tests/e2e.rs");
    let check = |wire: &str, client: &str| {
        xtask::registry::check_wire_registry(
            Path::new("crates/server/src/wire.rs"),
            wire,
            Path::new("crates/server/src/client.rs"),
            client,
            &e2e_src,
        )
    };
    assert!(
        check(&wire_src, &client_src).is_empty(),
        "the live wire protocol must be registry-clean"
    );

    // Drop `ErrorCode::BadVersion`'s decode arm in `from_u16`.
    let mutated = wire_src.replace("2 => Self::BadVersion,", "2 => Self::Internal,");
    assert_ne!(mutated, wire_src, "mutation target must exist in wire.rs");
    let v = check(&mutated, &client_src);
    assert!(
        v.iter().any(|x| x
            .message
            .contains("`ErrorCode::BadVersion` has no arm in `ErrorCode::from_u16`")),
        "dropping a from_u16 arm must fail lint: {v:?}"
    );

    // Drop the client's disposition arm for `ErrorCode::NoSuchReplica`
    // (its first occurrence in client.rs; the test-module mentions
    // keep the corpus satisfied so exactly this gap is reported).
    let mutated = client_src.replacen("ErrorCode::NoSuchReplica", "ErrorCode::Internal", 1);
    assert_ne!(
        mutated, client_src,
        "mutation target must exist in client.rs"
    );
    let v = check(&wire_src, &mutated);
    assert!(
        v.iter().any(|x| x
            .message
            .contains("`ErrorCode::NoSuchReplica` is never handled")),
        "dropping a client disposition arm must fail lint: {v:?}"
    );

    // Erase `Request::Stats` from the codec match arms entirely.
    let mutated = wire_src.replace("Self::Stats", "Self::Ping");
    assert_ne!(
        mutated, wire_src,
        "Request::Stats arms must exist in wire.rs"
    );
    let v = check(&mutated, &client_src);
    assert!(
        v.iter()
            .any(|x| x.message.contains("`Request::Stats` has no arm in")),
        "erasing a Request variant's arms must fail lint: {v:?}"
    );
}

/// The acceptance gate: the real workspace passes the full audit with
/// zero violations. This also exercises the registry rules against the
/// live codec and wire protocol.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let report = xtask::lint_workspace(&root).expect("lint runs");
    assert!(
        report.is_clean(),
        "workspace audit found violations:\n{}",
        report.render()
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
