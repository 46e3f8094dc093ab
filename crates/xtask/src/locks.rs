//! Rule `lock-discipline`: guard liveness and lock ordering for the
//! `storage::sync` wrappers.
//!
//! The poison-recovering `Mutex`/`RwLock` wrappers keep panic paths out
//! of library code, but they cannot stop two structural mistakes:
//!
//! 1. **Guards held across I/O** — a `let`-bound guard that stays live
//!    across a call into the backend (`get`/`put`/`delete`/`list` on a
//!    backend receiver, `std::fs::*`, or a scan job) serialises every
//!    concurrent reader behind one unit's disk latency, and one held
//!    across a `ScanExecutor::execute_all` submission can wedge the
//!    pool on a task that needs the same lock. All hot-path code uses
//!    temporary guards (`self.units.write().insert(…)`) that die at the
//!    end of the statement; the lint enforces that shape.
//! 2. **Lock-order inversions** — acquiring a second guard while one is
//!    held must follow the declared global order [`LOCK_ORDER`], or two
//!    threads taking the pair in opposite orders can deadlock.
//!
//! Only `let`-bound guards from empty-argument `.lock()` / `.read()` /
//! `.write()` calls are tracked; a guard is live from its binding to
//! the end of its enclosing block or an explicit `drop(guard)`.

use crate::ast::{self, View};
use crate::lexer::Kind;
use crate::rules::{Rule, Violation};
use std::path::Path;

/// The declared global lock order: a lock may only be acquired while
/// holding locks that appear **earlier** in this list. The names are
/// the final path segment of the lock field (`self.units` → `units`).
/// `zones` — a replica's share of the store's partition index — is read
/// once per query plan and never across backend I/O, so it ranks
/// before the backends' own locks.
pub const LOCK_ORDER: &[&str] = &["zones", "failures", "units"];

/// Backend method names that perform storage I/O.
const IO_METHODS: &[&str] = &[
    "get",
    "get_tail",
    "put",
    "delete",
    "list",
    "size_of",
    "total_bytes",
];

/// Receiver path segments that identify a backend value.
const BACKEND_RECEIVERS: &[&str] = &["backend", "inner"];

/// One tracked guard binding.
struct Guard {
    /// Binding name (`_g`, `units`).
    name: String,
    /// Final segment of the locked path (`self.units` → `units`).
    lock: String,
    /// Significant-token index where liveness starts (just after the
    /// binding statement's `;`).
    from: usize,
    /// Exclusive end of liveness (enclosing block close or `drop`).
    until: usize,
    /// 1-based line of the binding.
    line: usize,
}

/// Scans every function body for guard-liveness and lock-order issues.
pub fn scan(file: &Path, view: View<'_>, fns: &[ast::FnDecl], out: &mut Vec<Violation>) {
    for f in fns {
        let Some((start, end)) = f.body else {
            continue;
        };
        scan_body(file, view, start, end, out);
    }
}

fn scan_body(file: &Path, view: View<'_>, start: usize, end: usize, out: &mut Vec<Violation>) {
    let depths = brace_depths(view, start, end);
    let guards = collect_guards(view, start, end, &depths);

    for g in &guards {
        // I/O or a pool submission while the guard is live.
        for call in ast::calls_in(view, g.from, g.until) {
            if is_blocking_call(&call) {
                out.push(Violation {
                    rule: Rule::LockDiscipline,
                    file: file.to_path_buf(),
                    line: call.line,
                    message: format!(
                        "guard `{}` (lock `{}`, bound on line {}) is still live across the \
                         blocking call `{}` — drop it first or use a temporary guard",
                        g.name, g.lock, g.line, call.callee
                    ),
                });
            }
        }
        // Later acquisitions (bound or temporary) must respect the
        // declared order.
        let Some(held_rank) = rank(&g.lock) else {
            continue;
        };
        for j in g.from..g.until {
            let Some((lock, _)) = acquisition_at(view, start, j) else {
                continue;
            };
            if let Some(new_rank) = rank(&lock) {
                if new_rank < held_rank {
                    out.push(Violation {
                        rule: Rule::LockDiscipline,
                        file: file.to_path_buf(),
                        line: view.line(j),
                        message: format!(
                            "lock `{lock}` acquired while `{}` is held — declared order is {:?}",
                            g.lock, LOCK_ORDER
                        ),
                    });
                }
            }
        }
    }
}

fn rank(lock: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|&l| l == lock)
}

/// Brace depth *after* each token in `[start, end)`, relative to the
/// body (index 0 ↔ `start`).
fn brace_depths(view: View<'_>, start: usize, end: usize) -> Vec<i32> {
    let mut depths = Vec::with_capacity(end.saturating_sub(start));
    let mut d = 0i32;
    for j in start..end {
        match view.text(j) {
            Some("{") => d += 1,
            Some("}") => d -= 1,
            _ => {}
        }
        depths.push(d);
    }
    depths
}

/// Is token `j` the method name of an empty-argument `.lock()` /
/// `.read()` / `.write()` call? Returns the lock's final path segment
/// and the index just past the call.
fn acquisition_at(view: View<'_>, floor: usize, j: usize) -> Option<(String, usize)> {
    if view.kind(j) != Some(Kind::Ident)
        || !matches!(view.text(j), Some("lock" | "read" | "write"))
        || view.text(j + 1) != Some("(")
        || view.text(j + 2) != Some(")")
    {
        return None;
    }
    if j == floor || view.text(j - 1) != Some(".") {
        return None;
    }
    if j < floor + 2 || view.kind(j - 2) != Some(Kind::Ident) {
        return None;
    }
    Some((view.text(j - 2).unwrap_or_default().to_string(), j + 3))
}

/// Finds `let [mut] name = ….lock/read/write();` statements and
/// computes each guard's live range.
fn collect_guards(view: View<'_>, start: usize, end: usize, depths: &[i32]) -> Vec<Guard> {
    let mut guards = Vec::new();
    let mut j = start;
    while j < end {
        if !view.is_ident(j, "let") {
            j += 1;
            continue;
        }
        let mut n = j + 1;
        if view.is_ident(n, "mut") {
            n += 1;
        }
        let (Some(Kind::Ident), Some("=")) = (view.kind(n), view.text(n + 1)) else {
            j += 1;
            continue;
        };
        let name = view.text(n).unwrap_or_default().to_string();
        // Statement end: the `;` at the same nesting as the `let`.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        let mut semi = None;
        for k in n + 2..end {
            match view.text(k) {
                Some("(") => paren += 1,
                Some(")") => paren -= 1,
                Some("[") => bracket += 1,
                Some("]") => bracket -= 1,
                Some("{") => brace += 1,
                Some("}") => brace -= 1,
                Some(";") if paren == 0 && bracket == 0 && brace == 0 => {
                    semi = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let Some(semi) = semi else {
            j += 1;
            continue;
        };
        // The initialiser must *end* with the acquisition — a longer
        // chain (`.lock().clone()`) drops the guard inside the
        // statement.
        let lock = (name != "_" && semi >= 4)
            .then(|| acquisition_at(view, start, semi - 3))
            .flatten()
            .filter(|&(_, past)| past == semi)
            .map(|(lock, _)| lock);
        let Some(lock) = lock else {
            j = semi + 1;
            continue;
        };
        // Liveness: to the close of the enclosing block, or `drop(name)`.
        let let_depth = depths.get(j - start).copied().unwrap_or(0);
        let mut until = end;
        for k in semi + 1..end {
            if view.text(k) == Some("}") && depths.get(k - start).copied().unwrap_or(0) < let_depth
            {
                until = k;
                break;
            }
            if view.is_ident(k, "drop")
                && view.text(k + 1) == Some("(")
                && view.text(k + 2) == Some(name.as_str())
                && view.text(k + 3) == Some(")")
            {
                until = k;
                break;
            }
        }
        guards.push(Guard {
            name,
            lock,
            from: semi + 1,
            until,
            line: view.line(j),
        });
        j = semi + 1;
    }
    guards
}

fn is_blocking_call(call: &ast::Call) -> bool {
    if call.callee.starts_with("std::fs") || call.callee.starts_with("fs::") {
        return true;
    }
    // A scan reads the backend; a batch submitted to the shared pool
    // blocks until every task has run, and a task that needs the held
    // lock never finishes.
    if matches!(
        call.callee.rsplit("::").next(),
        Some("run_scan" | "execute_all")
    ) {
        return true;
    }
    if let Some(recv) = &call.receiver {
        if IO_METHODS.contains(&call.callee.as_str())
            && recv
                .split('.')
                .any(|seg| BACKEND_RECEIVERS.iter().any(|b| seg.contains(b)))
        {
            return true;
        }
    }
    false
}
