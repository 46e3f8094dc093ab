//! A lightweight parse layer over the [`crate::lexer`] token stream.
//!
//! Rule `lock-discipline` needs more structure than the flat token
//! scans of [`crate::rules`]: function bodies with brace nesting and
//! call sites with receiver paths. This module recovers exactly that
//! much structure — it is not a Rust grammar, and it does not need to
//! be: it only has to be right on the workspace's own style, and the
//! fixture tests pin the cases it must handle.
//!
//! Everything works in *significant-token space*: the parser receives
//! the token list plus the indices of significant non-test tokens (as
//! produced by the rules module), so `#[cfg(test)]` items are invisible
//! to every semantic rule for free.

use crate::lexer::{Kind, Token};

/// A view over the significant (non-test) tokens of one file.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    tokens: &'a [Token],
    sig: &'a [usize],
}

impl<'a> View<'a> {
    /// Creates a view from the full token list and the significant
    /// indices into it.
    #[must_use]
    pub fn new(tokens: &'a [Token], sig: &'a [usize]) -> Self {
        Self { tokens, sig }
    }

    /// Number of significant tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the view holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// Text of significant token `j`, if in range.
    #[must_use]
    pub fn text(&self, j: usize) -> Option<&str> {
        self.sig.get(j).map(|&i| self.tokens[i].text.as_str())
    }

    /// Kind of significant token `j`, if in range.
    #[must_use]
    pub fn kind(&self, j: usize) -> Option<Kind> {
        self.sig.get(j).map(|&i| self.tokens[i].kind)
    }

    /// 1-based source line of significant token `j` (0 if out of range).
    #[must_use]
    pub fn line(&self, j: usize) -> usize {
        self.sig.get(j).map_or(0, |&i| self.tokens[i].line)
    }

    /// Whether token `j` is an identifier equal to `s`.
    #[must_use]
    pub fn is_ident(&self, j: usize, s: &str) -> bool {
        self.kind(j) == Some(Kind::Ident) && self.text(j) == Some(s)
    }
}

/// One parsed function (free or method), with its body as a
/// significant-token range.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// Body range `[start, end)` in significant-token space, exclusive
    /// of the braces; `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
}

/// One extracted call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name: a `::`-joined path for free calls
    /// (`std::fs::read`), the bare method name for method calls.
    pub callee: String,
    /// Dotted receiver path for method calls (`self.inner`), when the
    /// receiver is a simple path.
    pub receiver: Option<String>,
    /// 1-based line of the callee token.
    pub line: usize,
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "fn", "move", "box",
];

/// Parses every function of a file, methods included (flat).
#[must_use]
pub fn parse(view: View<'_>) -> Vec<FnDecl> {
    let mut fns = Vec::new();
    let end = view.len();
    let mut j = 0;
    while j < end {
        match view.text(j) {
            Some("fn") if view.kind(j + 1) == Some(Kind::Ident) => {
                j = parse_fn(view, j, end, &mut fns);
            }
            // Other braces (impl and module bodies, const blocks, macro
            // bodies like `proptest!`) are entered transparently: items
            // inside them — methods, `#[test] fn`s in a proptest!
            // block, the `require_error_traits` const fn — are real
            // items.
            _ => j += 1,
        }
    }
    fns
}

/// Index just past the group opened at `open` (which must hold `open_t`);
/// `end` bounds the search.
fn matching_close(view: View<'_>, open: usize, end: usize, open_t: &str, close_t: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < end {
        match view.text(j) {
            Some(t) if t == open_t => depth += 1,
            Some(t) if t == close_t => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    end
}

fn parse_fn(view: View<'_>, j: usize, end: usize, fns: &mut Vec<FnDecl>) -> usize {
    let name = view.text(j + 1).unwrap_or_default().to_string();
    // The signature runs to the body `{` or a trait-decl `;` at zero
    // paren/bracket depth.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut k = j + 2;
    while k < end {
        match view.text(k) {
            Some("(") => paren += 1,
            Some(")") => paren -= 1,
            Some("[") => bracket += 1,
            Some("]") => bracket -= 1,
            Some("{") if paren == 0 && bracket == 0 => {
                let close = matching_close(view, k, end, "{", "}");
                fns.push(FnDecl {
                    name,
                    body: Some((k + 1, close.saturating_sub(1))),
                });
                return close;
            }
            Some(";") if paren == 0 && bracket == 0 => {
                fns.push(FnDecl { name, body: None });
                return k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    end
}

/// Extracts the call sites in `[start, end)`.
#[must_use]
pub fn calls_in(view: View<'_>, start: usize, end: usize) -> Vec<Call> {
    let mut out = Vec::new();
    for j in start..end {
        if view.kind(j) != Some(Kind::Ident) || view.text(j + 1) != Some("(") {
            continue;
        }
        let name = view.text(j).unwrap_or_default();
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        if view.text(j.wrapping_sub(1)) == Some(".") && j >= 1 {
            // Method call: recover a simple dotted receiver path.
            out.push(Call {
                callee: name.to_string(),
                receiver: receiver_path(view, j - 1, start),
                line: view.line(j),
            });
        } else {
            out.push(Call {
                callee: free_path(view, j, start),
                receiver: None,
                line: view.line(j),
            });
        }
    }
    out
}

/// The dotted path ending at the `.` token `dot` (e.g. `self.inner`),
/// or `None` when the receiver is not a simple ident path.
fn receiver_path(view: View<'_>, dot: usize, floor: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot; // points at a `.`
    loop {
        if k == floor || k == 0 {
            break;
        }
        let prev = k - 1;
        if view.kind(prev) != Some(Kind::Ident) {
            return None;
        }
        parts.push(view.text(prev).unwrap_or_default().to_string());
        if prev > floor && view.text(prev.wrapping_sub(1)) == Some(".") {
            k = prev - 1;
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

/// The `::`-joined path ending at ident `name_at` (e.g. `std::fs::read`).
fn free_path(view: View<'_>, name_at: usize, floor: usize) -> String {
    let mut parts = vec![view.text(name_at).unwrap_or_default().to_string()];
    let mut k = name_at;
    while k >= floor + 3
        && view.text(k - 1) == Some(":")
        && view.text(k - 2) == Some(":")
        && view.kind(k - 3) == Some(Kind::Ident)
    {
        parts.push(view.text(k - 3).unwrap_or_default().to_string());
        k -= 3;
    }
    parts.reverse();
    parts.join("::")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_fns<R>(src: &str, f: impl FnOnce(View<'_>, &[FnDecl]) -> R) -> R {
        let tokens = crate::lexer::lex(src);
        let sig = crate::rules::significant_non_test(&tokens);
        let view = View::new(&tokens, &sig);
        f(view, &parse(view))
    }

    #[test]
    fn fns_and_methods_get_bodies() {
        with_fns(
            "fn free() { let x = 1; }\n\
             struct S;\n\
             impl S { fn method(&self) -> u32 { 2 } fn decl(&self); }\n\
             impl Clone for S { fn clone(&self) -> S { S } }\n",
            |view, fns| {
                assert_eq!(fns.len(), 4);
                assert_eq!(fns[0].name, "free");
                assert_eq!(fns[1].name, "method");
                assert!(fns[2].body.is_none());
                assert_eq!(fns[3].name, "clone");
                let (b0, b1) = fns[0].body.unwrap();
                let body: Vec<&str> = (b0..b1).map(|j| view.text(j).unwrap()).collect();
                assert_eq!(body, vec!["let", "x", "=", "1", ";"]);
            },
        );
    }

    #[test]
    fn calls_recover_receiver_and_free_paths() {
        with_fns(
            "fn f(&self) { self.inner.get(key); std::fs::read(p); run_scan(x); if (a) { } }\n",
            |view, fns| {
                let (b0, b1) = fns[0].body.unwrap();
                let calls = calls_in(view, b0, b1);
                let names: Vec<&str> = calls.iter().map(|c| c.callee.as_str()).collect();
                assert_eq!(names, vec!["get", "std::fs::read", "run_scan"]);
                assert_eq!(calls[0].receiver.as_deref(), Some("self.inner"));
                assert_eq!(calls[1].receiver, None);
            },
        );
    }
}
