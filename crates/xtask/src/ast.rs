//! A lightweight parse layer over the [`crate::lexer`] token stream.
//!
//! The semantic rules (lock discipline, registry completeness) need
//! more structure than the flat token scans of
//! [`crate::rules`]: function bodies with brace nesting, per-crate item
//! tables (enums with their variants, impl blocks with their methods)
//! and call sites with receiver paths. This module recovers exactly
//! that much structure — it is not a Rust grammar, and it does not need
//! to be: it only has to be right on the workspace's own style, and the
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
    /// Enclosing impl's type name, when the fn is a method.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body range `[start, end)` in significant-token space, exclusive
    /// of the braces; `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
}

/// One parsed enum with its variant names.
#[derive(Debug, Clone)]
pub struct EnumDecl {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// Item table of one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// All functions, methods included (flat, with [`FnDecl::owner`]).
    pub fns: Vec<FnDecl>,
    /// All enums with their variants.
    pub enums: Vec<EnumDecl>,
}

impl Ast {
    /// The first enum named `name`, if any.
    #[must_use]
    pub fn enum_named(&self, name: &str) -> Option<&EnumDecl> {
        self.enums.iter().find(|e| e.name == name)
    }

    /// All functions named `name` (any owner).
    pub fn fns_named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s FnDecl> {
        self.fns.iter().filter(move |f| f.name == name)
    }
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

/// Parses the item table of a file.
#[must_use]
pub fn parse(view: View<'_>) -> Ast {
    let mut ast = Ast::default();
    parse_items(view, 0, view.len(), None, &mut ast);
    ast
}

/// Parses items in `[start, end)`; `owner` names the enclosing impl's
/// type for methods.
fn parse_items(view: View<'_>, start: usize, end: usize, owner: Option<&str>, ast: &mut Ast) {
    let mut j = start;
    while j < end {
        match view.text(j) {
            Some("fn") if view.kind(j + 1) == Some(Kind::Ident) => {
                j = parse_fn(view, j, end, owner, ast);
            }
            Some("enum") if view.kind(j + 1) == Some(Kind::Ident) => {
                j = parse_enum(view, j, end, ast);
            }
            Some("impl") => {
                j = parse_impl(view, j, end, ast);
            }
            // Other braces (const blocks, macro bodies like `proptest!`,
            // module bodies) are entered transparently: items inside
            // them — `#[test] fn`s in a proptest! block, the
            // `require_error_traits` const fn — are real items.
            _ => j += 1,
        }
    }
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

fn parse_fn(view: View<'_>, j: usize, end: usize, owner: Option<&str>, ast: &mut Ast) -> usize {
    let name = view.text(j + 1).unwrap_or_default().to_string();
    let line = view.line(j);
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
                ast.fns.push(FnDecl {
                    name,
                    owner: owner.map(str::to_string),
                    line,
                    body: Some((k + 1, close.saturating_sub(1))),
                });
                return close;
            }
            Some(";") if paren == 0 && bracket == 0 => {
                ast.fns.push(FnDecl {
                    name,
                    owner: owner.map(str::to_string),
                    line,
                    body: None,
                });
                return k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    end
}

fn parse_enum(view: View<'_>, j: usize, end: usize, ast: &mut Ast) -> usize {
    let name = view.text(j + 1).unwrap_or_default().to_string();
    let line = view.line(j);
    let mut open = j + 2;
    while open < end && view.text(open) != Some("{") {
        if view.text(open) == Some(";") {
            // `enum Foo;` never parses in Rust, but stay robust.
            return open + 1;
        }
        open += 1;
    }
    let close = matching_close(view, open, end, "{", "}");
    let mut variants = Vec::new();
    let mut expect_variant = true;
    let mut k = open + 1;
    while k + 1 < close {
        match view.text(k) {
            // Skip a variant attribute `#[…]`.
            Some("#") if view.text(k + 1) == Some("[") => {
                k = matching_close(view, k + 1, close, "[", "]");
                continue;
            }
            Some(",") => expect_variant = true,
            Some("(") => {
                k = matching_close(view, k, close, "(", ")");
                continue;
            }
            Some("{") => {
                k = matching_close(view, k, close, "{", "}");
                continue;
            }
            Some(_) if expect_variant && view.kind(k) == Some(Kind::Ident) => {
                variants.push(view.text(k).unwrap_or_default().to_string());
                expect_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    ast.enums.push(EnumDecl {
        name,
        line,
        variants,
    });
    close
}

fn parse_impl(view: View<'_>, j: usize, end: usize, ast: &mut Ast) -> usize {
    // Header: up to the body `{`; generics may not contain braces.
    let mut open = j + 1;
    while open < end && view.text(open) != Some("{") {
        open += 1;
    }
    // `impl … for Type` → the ident after `for`; otherwise the first
    // ident after the (optional) generic parameter list.
    let mut type_name = String::new();
    let mut for_at = None;
    for k in j + 1..open {
        if view.is_ident(k, "for") {
            for_at = Some(k);
            break;
        }
    }
    if let Some(f) = for_at {
        if view.kind(f + 1) == Some(Kind::Ident) {
            type_name = view.text(f + 1).unwrap_or_default().to_string();
        }
    } else {
        let mut k = j + 1;
        if view.text(k) == Some("<") {
            let mut depth = 0i32;
            while k < open {
                match view.text(k) {
                    Some("<") => depth += 1,
                    Some(">") => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        while k < open {
            if view.kind(k) == Some(Kind::Ident) {
                type_name = view.text(k).unwrap_or_default().to_string();
                break;
            }
            k += 1;
        }
    }
    let close = matching_close(view, open, end, "{", "}");
    parse_items(
        view,
        open + 1,
        close.saturating_sub(1),
        Some(&type_name),
        ast,
    );
    close
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

    fn with_ast<R>(src: &str, f: impl FnOnce(View<'_>, &Ast) -> R) -> R {
        let (tokens, sig) = crate::rules::lex_significant(src);
        let view = View::new(&tokens, &sig);
        let ast = parse(view);
        f(view, &ast)
    }

    #[test]
    fn fns_and_methods_get_owners_and_bodies() {
        with_ast(
            "fn free() { let x = 1; }\n\
             struct S;\n\
             impl S { fn method(&self) -> u32 { 2 } fn decl(&self); }\n\
             impl Clone for S { fn clone(&self) -> S { S } }\n",
            |view, ast| {
                assert_eq!(ast.fns.len(), 4);
                assert_eq!(ast.fns[0].name, "free");
                assert_eq!(ast.fns[0].owner, None);
                assert_eq!(ast.fns[1].name, "method");
                assert_eq!(ast.fns[1].owner.as_deref(), Some("S"));
                assert!(ast.fns[2].body.is_none());
                assert_eq!(ast.fns[3].owner.as_deref(), Some("S"));
                let (b0, b1) = ast.fns[0].body.unwrap();
                let body: Vec<&str> = (b0..b1).map(|j| view.text(j).unwrap()).collect();
                assert_eq!(body, vec!["let", "x", "=", "1", ";"]);
            },
        );
    }

    #[test]
    fn enum_variants_skip_fields_and_attributes() {
        with_ast(
            "pub enum E {\n  #[default]\n  A,\n  B(u32, Vec<u8>),\n  C { x: f64 },\n  D = 4,\n}\n",
            |_, ast| {
                let e = ast.enum_named("E").unwrap();
                assert_eq!(e.variants, vec!["A", "B", "C", "D"]);
            },
        );
    }

    #[test]
    fn generic_impl_heads_name_the_owner() {
        with_ast(
            "impl<B: Backend> Backend for FailingBackend<B> { fn get(&self) {} }\n\
             impl<T> SchemeTable<T> { fn len(&self) {} }\n",
            |_, ast| {
                assert_eq!(ast.fns[0].owner.as_deref(), Some("FailingBackend"));
                assert_eq!(ast.fns[1].owner.as_deref(), Some("SchemeTable"));
            },
        );
    }

    #[test]
    fn calls_recover_receiver_and_free_paths() {
        with_ast(
            "fn f(&self) { self.inner.get(key); std::fs::read(p); run_scan(x); if (a) { } }\n",
            |view, ast| {
                let (b0, b1) = ast.fns[0].body.unwrap();
                let calls = calls_in(view, b0, b1);
                let names: Vec<&str> = calls.iter().map(|c| c.callee.as_str()).collect();
                assert_eq!(names, vec!["get", "std::fs::read", "run_scan"]);
                assert_eq!(calls[0].receiver.as_deref(), Some("self.inner"));
                assert_eq!(calls[1].receiver, None);
            },
        );
    }
}
