//! A minimal self-describing value tree plus hand-rolled TOML and JSON
//! readers for it.
//!
//! The workspace deliberately carries no serde/toml/json dependency (see
//! DESIGN.md §8), so campaign specs (TOML) and cached point results (JSON)
//! are parsed by the two small recursive-descent readers in this module;
//! the repository benchmark reads its result and trace JSON with the same
//! `parse_json`. Both accept only the subset of their format that is
//! emitted or documented here, and both fail with a one-line [`Error`]:
//!
//! - **TOML** (`parse_toml`): `key = value` pairs, `[table]` headers one
//!   level deep, `#` comments, and values that are strings, integers,
//!   floats, booleans, or single-line arrays thereof.
//! - **JSON** (`parse_json`): objects, arrays, strings, numbers, booleans
//!   and `null`, with the usual escape sequences, nested at most 64 deep.
//!
//! Numbers keep the integer/float distinction (`Value::Int` vs
//! `Value::Float`) so integer fields round-trip exactly and floats
//! round-trip through Rust's shortest-representation formatting (`{:?}`),
//! which `str::parse::<f64>` inverts losslessly — the property the cache's
//! byte-identical re-merge guarantee rests on.

use crate::Error;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML/JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer (no decimal point or exponent in the source), anywhere in
    /// `i64::MIN..=u64::MAX`: a seed may be any `u64`.
    Int(i128),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A string-keyed table/object. `BTreeMap` keeps iteration, and thus
    /// every derived artifact, deterministic.
    Table(BTreeMap<String, Value>),
    /// JSON `null`.
    Null,
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a table, if it is one.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The value as an array slice; scalars present themselves as
    /// one-element arrays (a campaign axis may be written either way).
    pub fn as_array(&self) -> std::slice::Iter<'_, Value> {
        match self {
            Value::Array(a) => a.iter(),
            _ => std::slice::from_ref(self).iter(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(_) => write!(f, "<array>"),
            Value::Table(_) => write!(f, "<table>"),
            Value::Null => write!(f, "null"),
        }
    }
}

fn perr(msg: impl Into<String>) -> Error {
    Error(msg.into())
}

// ---------------------------------------------------------------------------
// TOML subset
// ---------------------------------------------------------------------------

/// Parses the TOML subset used by campaign specs into a top-level table.
/// `[section]` headers open one-level tables; everything before the first
/// header lands in the root table.
///
/// # Errors
///
/// Returns an [`Error`] naming the offending line for malformed headers,
/// missing `=`, unterminated strings/arrays, or duplicate keys.
pub fn parse_toml(text: &str) -> Result<BTreeMap<String, Value>, Error> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    let mut section: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| perr(format!("line {lineno}: unterminated table header")))?
                .trim();
            if name.is_empty() || name.contains('[') || name.contains('.') {
                return Err(perr(format!(
                    "line {lineno}: unsupported table header [{name}] (one level, no dots)"
                )));
            }
            if root.contains_key(name) {
                return Err(perr(format!("line {lineno}: duplicate table [{name}]")));
            }
            root.insert(name.to_string(), Value::Table(BTreeMap::new()));
            section = Some(name.to_string());
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| perr(format!("line {lineno}: expected `key = value`")))?;
        let key = key.trim();
        if key.is_empty() {
            return Err(perr(format!("line {lineno}: empty key")));
        }
        let value =
            parse_toml_value(value.trim()).map_err(|e| perr(format!("line {lineno}: {}", e.0)))?;
        let table = match &section {
            None => &mut root,
            Some(name) => match root.get_mut(name) {
                Some(Value::Table(t)) => t,
                _ => unreachable!("section tables are always inserted as tables"),
            },
        };
        if table.insert(key.to_string(), value).is_some() {
            return Err(perr(format!("line {lineno}: duplicate key {key:?}")));
        }
    }
    Ok(root)
}

/// Strips a `#` comment, respecting `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(s: &str) -> Result<Value, Error> {
    if let Some(rest) = s.strip_prefix('[') {
        let body = rest
            .strip_suffix(']')
            .ok_or_else(|| perr("unterminated array (arrays must be single-line)"))?;
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_toml_scalar(part)?);
        }
        return Ok(Value::Array(items));
    }
    parse_toml_scalar(s)
}

/// Splits an array body on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_toml_scalar(s: &str) -> Result<Value, Error> {
    if let Some(rest) = s.strip_prefix('"') {
        let body = rest
            .strip_suffix('"')
            .ok_or_else(|| perr(format!("unterminated string {s:?}")))?;
        if body.contains('"') || body.contains('\\') {
            return Err(perr(format!(
                "unsupported escapes in string {s:?} (plain strings only)"
            )));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    parse_number(s).ok_or_else(|| perr(format!("cannot parse value {s:?}")))
}

/// Parses a bare token as `Int` when it has no `.`/exponent, else `Float`.
fn parse_number(s: &str) -> Option<Value> {
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        return s
            .parse::<i128>()
            .ok()
            .filter(|i| (i64::MIN as i128..=u64::MAX as i128).contains(i))
            .map(Value::Int);
    }
    s.parse::<f64>().ok().map(Value::Float)
}

// ---------------------------------------------------------------------------
// JSON subset
// ---------------------------------------------------------------------------

/// Parses a JSON document (objects, arrays, strings, numbers, booleans,
/// null).
///
/// # Errors
///
/// Returns an [`Error`] for malformed documents, nesting deeper than 64
/// levels, or trailing garbage.
pub fn parse_json(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = json_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(perr(format!("trailing garbage at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest `[`/`{` nesting `parse_json` accepts. The documents read here
/// nest a handful of levels; the limit keeps a damaged or hostile one from
/// overflowing the stack of the recursive reader.
const MAX_DEPTH: usize = 64;

fn json_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(perr("unexpected end of document")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(perr(format!(
            "nested deeper than {MAX_DEPTH} levels at byte {pos}"
        ))),
        Some(b'{') => {
            *pos += 1;
            let mut table = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Table(table));
            }
            loop {
                skip_ws(b, pos);
                let key = match json_value(b, pos, depth + 1)? {
                    Value::Str(s) => s,
                    other => return Err(perr(format!("object key must be a string, got {other}"))),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(perr(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = json_value(b, pos, depth + 1)?;
                table.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Table(table));
                    }
                    _ => return Err(perr(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(json_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(perr(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'"') => json_string(b, pos).map(Value::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'0'..=b'9' | b'e' | b'E')
            {
                *pos += 1;
            }
            let token = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| perr("invalid utf-8 in number"))?;
            if token.is_empty() {
                return Err(perr(format!("unexpected character at byte {start}")));
            }
            parse_number(token).ok_or_else(|| perr(format!("cannot parse number {token:?}")))
        }
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).ok_or_else(|| perr("unterminated escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| perr("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| perr("invalid utf-8 in \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| perr(format!("bad \\u escape {hex:?}")))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| perr(format!("non-scalar \\u escape {hex:?}")))?,
                        );
                        *pos += 4;
                    }
                    other => {
                        let other = (*other as char).escape_debug();
                        return Err(perr(format!("unsupported escape \\{other}")));
                    }
                }
            }
            _ => {
                // Re-sync to a char boundary for multi-byte UTF-8.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xc0) == 0x80 {
                    end += 1;
                }
                let s = std::str::from_utf8(&b[start..end])
                    .map_err(|_| perr("invalid utf-8 in string"))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err(perr("unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_tables_scalars_and_arrays_parse() {
        let doc = parse_toml(
            "name = \"fig12\"  # campaign name\n\
             \n\
             [phases]\n\
             warmup = 1000\n\
             \n\
             [axes]\n\
             load = [0.02, 0.05, 0.1]\n\
             scheme = [\"baseline\", \"pseudo+ps+bb\"]\n\
             seed = 1\n\
             flag = true\n",
        )
        .unwrap();
        assert_eq!(doc["name"], Value::Str("fig12".into()));
        let phases = doc["phases"].as_table().unwrap();
        assert_eq!(phases["warmup"], Value::Int(1000));
        let axes = doc["axes"].as_table().unwrap();
        assert_eq!(
            axes["load"],
            Value::Array(vec![
                Value::Float(0.02),
                Value::Float(0.05),
                Value::Float(0.1)
            ])
        );
        assert_eq!(axes["scheme"].as_array().count(), 2);
        assert_eq!(axes["seed"].as_array().count(), 1, "scalars act as 1-axes");
        assert_eq!(axes["flag"], Value::Bool(true));
    }

    #[test]
    fn toml_errors_name_the_line() {
        assert!(parse_toml("[axes\n").unwrap_err().0.contains("line 1"));
        assert!(parse_toml("x\n").unwrap_err().0.contains("key = value"));
        assert!(parse_toml("a = 1\na = 2\n")
            .unwrap_err()
            .0
            .contains("duplicate"));
        assert!(parse_toml("[a]\n[a]\n")
            .unwrap_err()
            .0
            .contains("duplicate"));
        assert!(parse_toml("a = [1,\n2]\n")
            .unwrap_err()
            .0
            .contains("single-line"));
        assert!(parse_toml("a = \"x\" , b = nope\n").is_err());
        assert!(parse_toml("[a.b]\n").unwrap_err().0.contains("no dots"));
    }

    #[test]
    fn toml_comments_respect_strings() {
        let doc = parse_toml("a = \"x # not a comment\" # real comment\n").unwrap();
        assert_eq!(doc["a"], Value::Str("x # not a comment".into()));
    }

    #[test]
    fn json_documents_parse() {
        let v = parse_json(
            "{\"a\": 1, \"b\": [0.5, -2e3, true, null], \"s\": \"x\\ny\", \"t\": {\"k\": \"v\"}}",
        )
        .unwrap();
        let t = v.as_table().unwrap();
        assert_eq!(t["a"], Value::Int(1));
        assert_eq!(
            t["b"],
            Value::Array(vec![
                Value::Float(0.5),
                Value::Float(-2e3),
                Value::Bool(true),
                Value::Null
            ])
        );
        assert_eq!(t["s"], Value::Str("x\ny".into()));
        assert_eq!(t["t"].as_table().unwrap()["k"], Value::Str("v".into()));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{} x").unwrap_err().0.contains("trailing"));
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn json_errors_are_one_line_and_nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(MAX_DEPTH)).is_ok());
        for text in [
            deep(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            let err = parse_json(&text).unwrap_err().0;
            assert!(err.starts_with("nested deeper than 64 levels"), "{err}");
            assert!(!err.contains('\n'), "{err}");
        }
        // A raw control byte after a backslash stays on the message's one line.
        let err = parse_json("\"\\\n\"").unwrap_err().0;
        assert_eq!(err, "unsupported escape \\\\n");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        // The cache's byte-identity guarantee: `{:?}`-formatted floats parse
        // back to the same bits.
        for x in [0.1f64, 1.0 / 3.0, 123.456789, 2e-8, 9_007_199_254_740_993.0] {
            let rendered = format!("{x:?}");
            let back = parse_json(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn json_unicode_strings_roundtrip() {
        let v = parse_json("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v, Value::Str("café é".into()));
    }
}
