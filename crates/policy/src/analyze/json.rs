//! The one JSON writer: a value the caller builds, rendered compact (the
//! `check` / `explain` reports) or pretty with two-space indents (the
//! `detect` document).
//!
//! Numbers arrive as the caller formatted them, so each keeps its own
//! precision; a non-finite float becomes `null` in [`Json::num`].

use std::fmt::Display;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, written as the caller formatted it.
    Num(String),
    /// A string, escaped when written.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its members in the order given.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A number in the caller's formatting (`format!("{x:.4}")`, an
    /// integer, ...). JSON has no NaN or infinity: Rust writes a non-finite
    /// float as `NaN`, `inf` or `-inf` in every format, and any of those
    /// becomes `null`.
    pub fn num(x: impl Display) -> Json {
        let text = x.to_string();
        match text.as_str() {
            "NaN" | "inf" | "-inf" => Json::Null,
            _ => Json::Num(text),
        }
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of strings.
    pub fn strs<S: Into<String>>(items: impl IntoIterator<Item = S>) -> Json {
        Json::Arr(items.into_iter().map(Json::str).collect())
    }

    /// The value on one line, without spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The value with one member or item a line, indented two spaces a
    /// level, `": "` after each key.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends the value; `depth` is `None` for compact output.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => json_escape(out, s),
            Json::Arr(items) => write_seq(out, "[]", items.iter().map(|v| (None, v)), depth),
            Json::Obj(members) => {
                write_seq(out, "{}", members.iter().map(|(k, v)| (Some(*k), v)), depth);
            }
        }
    }
}

/// Appends an array or object: `brackets` is its open and close pair, each
/// item an optional key and a value.
fn write_seq<'a>(
    out: &mut String,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    depth: Option<usize>,
) {
    let (open, close) = brackets.split_at(1);
    let empty = items.len() == 0;
    let inner = depth.map(|d| d + 1);
    out.push_str(open);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            newline(out, d);
        }
        if let Some(k) = key {
            json_escape(out, k);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let (Some(d), false) = (depth, empty) {
        newline(out, d);
    }
    out.push_str(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

/// Appends `s` as a JSON string literal.
fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::str("a\"b\\c\nd\te\rf\u{1}g\u{1f}h\u{7f}é");
        let want = format!(r#""a\"b\\c\nd\te\rf\u0001g\u001fh{}é""#, '\u{7f}');
        assert_eq!(s.compact(), want);
    }

    #[test]
    fn non_finite_floats_are_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::num(format!("{x:.9e}")), Json::Null);
            assert_eq!(Json::num(format!("{x:.4}")), Json::Null);
            assert_eq!(Json::num(x).pretty(), "null");
        }
        assert_eq!(Json::num(format!("{:.4}", 0.25)).compact(), "0.2500");
        assert_eq!(
            Json::num(format!("{:.9e}", 0.25)).compact(),
            "2.500000000e-1"
        );
        assert_eq!(Json::num(-3).compact(), "-3");
    }

    #[test]
    fn empty_arrays_and_objects_stay_on_one_line() {
        for v in [Json::Arr(vec![]), Json::strs(Vec::<String>::new())] {
            assert_eq!(v.compact(), "[]");
            assert_eq!(v.pretty(), "[]");
        }
        let o = Json::Obj(vec![("a", Json::Arr(vec![])), ("b", Json::Obj(vec![]))]);
        assert_eq!(o.compact(), r#"{"a":[],"b":{}}"#);
        assert_eq!(o.pretty(), "{\n  \"a\": [],\n  \"b\": {}\n}");
    }

    #[test]
    fn a_nested_value_renders_compact_and_pretty() {
        let v = Json::Obj(vec![
            ("name", Json::str("t\"0")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("n", Json::num(42)),
            (
                "inner",
                Json::Obj(vec![
                    ("x", Json::num(format!("{:.1}", 48.0))),
                    ("tags", Json::strs(["a", "b"])),
                ]),
            ),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"name":"t\"0","ok":true,"none":null,"n":42,"inner":{"x":48.0,"tags":["a","b"]}}"#
        );
        assert_eq!(
            v.pretty(),
            r#"{
  "name": "t\"0",
  "ok": true,
  "none": null,
  "n": 42,
  "inner": {
    "x": 48.0,
    "tags": [
      "a",
      "b"
    ]
  }
}"#
        );
    }
}
