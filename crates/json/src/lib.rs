//! Dependency-free JSON for BLOT.
//!
//! The build environment has no crates.io access, so persistence
//! (store manifests, benchmark result files) cannot use `serde_json`.
//! This crate provides the small JSON surface the workspace needs:
//!
//! * [`Json`] — an owned JSON tree with accessor helpers,
//! * a recursive-descent [`Json::parse`] with precise error positions,
//! * compact [`std::fmt::Display`] and [`Json::pretty`] printers,
//! * [`ToJson`] / [`FromJson`] conversion traits implemented across the
//!   workspace's persisted types.
//!
//! Numbers are kept as `f64`. Integers round-trip exactly up to
//! 2^53 — far above any record count or byte size BLOT persists.

use std::fmt;

mod parse;

pub use parse::JsonError;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on round-trip.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Self {
        Json::Obj(pairs.map(|(k, v)| (k.to_owned(), v)).to_vec())
    }

    /// Looks up a key in an object; `None` for absent keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`], but an absent key is an error naming the key.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Shape`] if `self` is not an object or lacks
    /// `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT =>
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => {
                use fmt::Write;
                // Compact form for scalars and empty containers; the
                // formatter below never fails writing into a String.
                let _ = write!(out, "{other}");
            }
        }
    }
}

/// Largest magnitude at which every integer is exactly representable.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact (single-line) serialisation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    write_escaped(&mut buf, k);
                    write!(f, "{buf}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; persist as null like serde_json does.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
        write!(f, "{n:.0}")
    } else {
        // Shortest round-trip form of an f64.
        write!(f, "{n}")
    }
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// Serialises `self`.
    fn to_json(&self) -> Json;
}

/// Fallible reconstruction from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Rebuilds a value, validating shape and ranges.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Shape`] when `value` has the wrong type,
    /// lacks a required field, or holds an out-of-range number.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::shape("expected a number"))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_u64()
            .ok_or_else(|| JsonError::shape("expected a non-negative integer"))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_usize()
            .ok_or_else(|| JsonError::shape("expected a non-negative integer"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::shape("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\n\""] {
            let v = Json::parse(src).expect(src);
            let back = Json::parse(&v.to_string()).expect("reparse");
            assert_eq!(v, back, "{src}");
        }
    }

    #[test]
    fn nested_round_trip_compact_and_pretty() {
        let src = r#"{"a":[1,2,{"b":null}],"c":{"d":true,"e":"x\"y"},"f":-0.25}"#;
        let v = Json::parse(src).expect("parse");
        assert_eq!(Json::parse(&v.to_string()).expect("compact"), v);
        assert_eq!(Json::parse(&v.pretty()).expect("pretty"), v);
    }

    #[test]
    fn object_accessors() {
        let v = Json::obj([
            ("n", Json::Num(42.0)),
            ("s", Json::Str("x".into())),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::Null])),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("zz").is_none());
        assert!(v.field("zz").is_err());
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let n = (1u64 << 53) - 1;
        let v = n.to_json();
        let s = v.to_string();
        assert_eq!(s, "9007199254740991");
        assert_eq!(
            u64::from_json(&Json::parse(&s).expect("parse")).expect("u64"),
            n
        );
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        for src in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "tru",
            "{\"a\" 1}",
            "01",
            "1e",
        ] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<JsonError>();
    }
}
