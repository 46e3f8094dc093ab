//! blot-audit acceptance tests: every rule must fire on its known-bad
//! fixture, and the real workspace must pass clean.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use xtask::rules::{audit_file, FileReport, Rule, RuleSet};

/// One rule family per fixture, so each stays focused on what it proves.
const NO_RULES: RuleSet = RuleSet {
    lock_discipline: false,
    metrics_discipline: false,
};

const LOCK_RULES: RuleSet = RuleSet {
    lock_discipline: true,
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

/// `#[cfg(not(test))]` items are production code: only a predicate that
/// requires `test` hides an item from the rules.
#[test]
fn cfg_not_test_items_stay_visible_to_every_rule() {
    let all_rules = RuleSet {
        lock_discipline: true,
        metrics_discipline: true,
    };
    let r = audit_fixture("cfg_not_test.rs", all_rules);
    // The `cfg(not(test))` static and guard; the `cfg(test)` and
    // `cfg(all(test, not(feature = "off")))` copies stay quiet.
    assert_eq!(
        count(&r, Rule::MetricsDiscipline),
        1,
        "violations: {:?}",
        r.violations
    );
    assert_eq!(
        count(&r, Rule::LockDiscipline),
        1,
        "violations: {:?}",
        r.violations
    );
    assert!(
        r.violations.iter().all(|v| v.line < 20),
        "test-only items must stay quiet: {:?}",
        r.violations
    );
}

/// The acceptance gate: the real workspace passes the full audit with
/// zero violations.
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
