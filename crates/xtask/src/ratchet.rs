//! Rule `ratchet`: the waiver count may only go down.
//!
//! `crates/xtask/ratchet.toml` pins the number of `// audit: allow`
//! comments per rule. A lint run counts the live allow comments and
//! fails when any rule's count differs from its pin **in either
//! direction**: an increase means a new waiver slipped in; a decrease
//! means the pin is stale and must be tightened (run
//! `cargo xtask lint --update-ratchet`) so the improvement cannot
//! silently regress later.
//!
//! On top of the exact per-rule pins, an optional `[ceiling]` section
//! pins `total = N`: the live grand total may never exceed it, and
//! `--update-ratchet` preserves the ceiling as-is (never raises it), so
//! trading one waiver for another cannot quietly grow the overall
//! surface either.
//!
//! The file is hand-parsed — a `[waivers]` section of `rule = count`
//! lines plus the optional `[ceiling]` — because the workspace has no
//! TOML crate and does not need one for this grammar.

use crate::rules::{Allow, Rule, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workspace-relative path of the ratchet file.
pub const RATCHET_PATH: &str = "crates/xtask/ratchet.toml";

/// The pinned per-rule waiver counts.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// `rule name → pinned allow-comment count`, sorted by name.
    pub pins: BTreeMap<String, usize>,
    /// Optional cap on the grand-total waiver count (`[ceiling]`
    /// section, `total = N`), preserved verbatim by `--update-ratchet`.
    pub ceiling: Option<usize>,
}

impl Ratchet {
    /// Parses the ratchet file's text.
    ///
    /// # Errors
    ///
    /// Returns a message for lines that are not comments, blank lines,
    /// the `[waivers]` header, or `rule = count` pairs.
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut pins = BTreeMap::new();
        let mut ceiling = None;
        let mut section = String::new();
        for (i, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("{RATCHET_PATH}:{}: expected `rule = count`", i + 1));
            };
            let key = key.trim().to_string();
            let count: usize = value
                .trim()
                .parse()
                .map_err(|e| format!("{RATCHET_PATH}:{}: bad count: {e}", i + 1))?;
            match section.as_str() {
                "waivers" => {
                    if pins.insert(key.clone(), count).is_some() {
                        return Err(format!("{RATCHET_PATH}:{}: duplicate rule `{key}`", i + 1));
                    }
                }
                "ceiling" if key == "total" => {
                    if ceiling.replace(count).is_some() {
                        return Err(format!("{RATCHET_PATH}:{}: duplicate ceiling", i + 1));
                    }
                }
                "ceiling" => {
                    return Err(format!(
                        "{RATCHET_PATH}:{}: unknown ceiling key `{key}` (only `total`)",
                        i + 1
                    ));
                }
                _ => {
                    return Err(format!(
                        "{RATCHET_PATH}:{}: key outside the [waivers] section",
                        i + 1
                    ));
                }
            }
        }
        Ok(Self { pins, ceiling })
    }

    /// Renders the canonical file text for `pins`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# blot-audit waiver ratchet — `// audit: allow` comments per rule.\n\
             # Counts are exact pins: an increase means a new waiver slipped in;\n\
             # a decrease means this file is stale. Both fail `cargo xtask lint`.\n\
             # Regenerate with `cargo xtask lint --update-ratchet`.\n\n\
             [waivers]\n",
        );
        for (rule, count) in &self.pins {
            out.push_str(&format!("{rule} = {count}\n"));
        }
        if let Some(ceiling) = self.ceiling {
            out.push_str(&format!(
                "\n# Grand-total cap — never raised by --update-ratchet.\n\
                 [ceiling]\ntotal = {ceiling}\n"
            ));
        }
        out
    }

    /// Total pinned waivers across all rules.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pins.values().sum()
    }
}

/// Live allow-comment counts per rule name (zero-count rules omitted).
#[must_use]
pub fn actual_counts(allows: &[Allow]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for a in allows {
        *counts.entry(a.rule.name().to_string()).or_insert(0) += 1;
    }
    counts
}

/// Compares the pinned counts against the live ledger.
#[must_use]
pub fn check(root: &Path, allows: &[Allow]) -> Vec<Violation> {
    let file = PathBuf::from(RATCHET_PATH);
    let violation = |message: String| Violation {
        rule: Rule::Ratchet,
        file: file.clone(),
        line: 1,
        message,
    };
    let src = match std::fs::read_to_string(root.join(RATCHET_PATH)) {
        Ok(s) => s,
        Err(_) => {
            return vec![violation(format!(
                "{RATCHET_PATH} is missing — run `cargo xtask lint --update-ratchet`"
            ))]
        }
    };
    let ratchet = match Ratchet::parse(&src) {
        Ok(r) => r,
        Err(e) => return vec![violation(e)],
    };
    let actual = actual_counts(allows);
    let mut out = Vec::new();
    let rules: std::collections::BTreeSet<&String> =
        ratchet.pins.keys().chain(actual.keys()).collect();
    for rule in rules {
        let pinned = ratchet.pins.get(rule).copied().unwrap_or(0);
        let live = actual.get(rule).copied().unwrap_or(0);
        if live > pinned {
            out.push(violation(format!(
                "waiver count for `{rule}` rose: {live} live allow comment(s) vs {pinned} \
                 pinned — remove the new waiver or justify updating the ratchet"
            )));
        } else if live < pinned {
            out.push(violation(format!(
                "ratchet for `{rule}` is stale: {live} live allow comment(s) vs {pinned} \
                 pinned — run `cargo xtask lint --update-ratchet` to lock in the improvement"
            )));
        }
    }
    if let Some(ceiling) = ratchet.ceiling {
        let live_total: usize = actual.values().sum();
        if live_total > ceiling {
            out.push(violation(format!(
                "total waiver count {live_total} exceeds the ceiling of {ceiling} — burn a \
                 waiver down before adding a new one"
            )));
        }
    }
    out
}

/// Rewrites the ratchet file from the live ledger; returns its path.
///
/// # Errors
///
/// Returns a message when the file cannot be written.
pub fn update(root: &Path, allows: &[Allow]) -> Result<PathBuf, String> {
    // Preserve an existing ceiling verbatim: updating the per-rule pins
    // must never loosen the grand-total cap.
    let ceiling = std::fs::read_to_string(root.join(RATCHET_PATH))
        .ok()
        .and_then(|src| Ratchet::parse(&src).ok())
        .and_then(|r| r.ceiling);
    let ratchet = Ratchet {
        pins: actual_counts(allows),
        ceiling,
    };
    let path = root.join(RATCHET_PATH);
    std::fs::write(&path, ratchet.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allow(rule: Rule) -> Allow {
        Allow {
            rule,
            reason: String::new(),
            file: PathBuf::from("x.rs"),
            line: 1,
            used: 1,
        }
    }

    #[test]
    fn parse_render_roundtrip() {
        let r = Ratchet::parse("# hi\n[waivers]\nthread-discipline = 3\nlock-discipline = 0\n")
            .unwrap();
        assert_eq!(r.pins.get("thread-discipline"), Some(&3));
        assert_eq!(r.total(), 3);
        let again = Ratchet::parse(&r.render()).unwrap();
        assert_eq!(again, r);
    }

    #[test]
    fn bad_lines_are_rejected() {
        assert!(Ratchet::parse("thread-discipline = 3\n").is_err()); // outside section
        assert!(Ratchet::parse("[waivers]\nindexing three\n").is_err());
        assert!(Ratchet::parse("[waivers]\na = 1\na = 2\n").is_err());
    }

    #[test]
    fn both_directions_fail() {
        let dir = std::env::temp_dir().join(format!("blot-ratchet-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/xtask")).unwrap();
        std::fs::write(dir.join(RATCHET_PATH), "[waivers]\nthread-discipline = 1\n").unwrap();
        // Exact match: clean.
        assert!(check(&dir, &[allow(Rule::ThreadDiscipline)]).is_empty());
        // Rose: one violation.
        let rose = check(
            &dir,
            &[allow(Rule::ThreadDiscipline), allow(Rule::ThreadDiscipline)],
        );
        assert_eq!(rose.len(), 1);
        assert!(rose[0].message.contains("rose"));
        // Stale: one violation.
        let stale = check(&dir, &[]);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("stale"));
        // Unpinned rule appearing: rose.
        let unpinned = check(
            &dir,
            &[allow(Rule::ThreadDiscipline), allow(Rule::LockDiscipline)],
        );
        assert_eq!(unpinned.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ceiling_caps_the_total_and_survives_update() {
        let dir = std::env::temp_dir().join(format!("blot-ratchet-ceil-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/xtask")).unwrap();
        std::fs::write(
            dir.join(RATCHET_PATH),
            "[waivers]\nthread-discipline = 2\n\n[ceiling]\ntotal = 1\n",
        )
        .unwrap();
        // Per-rule pin matches but the total exceeds the ceiling.
        let over = check(
            &dir,
            &[allow(Rule::ThreadDiscipline), allow(Rule::ThreadDiscipline)],
        );
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0].message.contains("ceiling"));
        // An update re-pins the rule counts but keeps the ceiling.
        update(&dir, &[allow(Rule::LockDiscipline)]).unwrap();
        let kept =
            Ratchet::parse(&std::fs::read_to_string(dir.join(RATCHET_PATH)).unwrap()).unwrap();
        assert_eq!(kept.ceiling, Some(1));
        assert_eq!(kept.pins.get("lock-discipline"), Some(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_writes_live_counts() {
        let dir = std::env::temp_dir().join(format!("blot-ratchet-up-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/xtask")).unwrap();
        update(&dir, &[allow(Rule::ThreadDiscipline)]).unwrap();
        assert!(check(&dir, &[allow(Rule::ThreadDiscipline)]).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
