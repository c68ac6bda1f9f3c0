//! Minimal dependency-free JSON: a [`Value`] tree, a writer, and a
//! recursive-descent parser.
//!
//! Integers are kept exact: numbers without a fraction/exponent parse into
//! [`Value::UInt`]/[`Value::Int`] (so `u64::MAX` round-trips bit-for-bit,
//! which the histogram schema relies on); everything else is [`Value::Float`].
//! This is deliberately *not* a general-purpose JSON library — it supports
//! exactly what the trace schema needs (no `\uXXXX` escapes beyond BMP
//! pass-through, no duplicate-key detection).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer literal.
    UInt(u64),
    /// Negative integer literal.
    Int(i64),
    /// Number with fraction or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// Value as `f64` (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(u) => Some(u as f64),
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Array elements, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // Guarantee a parseable float literal (keep the dot or
                    // exponent so it round-trips as Float).
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; null is the least-wrong encoding.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a cap one line of `[` bytes
/// overflows the stack of whatever thread reads it.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is an error, and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which `depth` arrays and objects enclose.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Value::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => expect_lit(b, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|_| Value::Bool(false)),
        Some(b'n') => expect_lit(b, pos, "null").map(|_| Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape unsupported")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so this is safe).
                let s = &b[*pos..];
                let ch_len = match s[0] {
                    c if c < 0x80 => 1,
                    c if c < 0xE0 => 2,
                    c if c < 0xF0 => 3,
                    _ => 4,
                };
                out.push_str(std::str::from_utf8(&s[..ch_len]).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at byte {start}"));
    }
    if !is_float {
        if text.starts_with('-') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
        // Integer literal too large for u64/i64: fall through to float.
    }
    text.parse::<f64>().map(Value::Float).map_err(|e| format!("number {text}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (src, val) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("0", Value::UInt(0)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("-42", Value::Int(-42)),
            ("1.5", Value::Float(1.5)),
            ("\"hi\"", Value::Str("hi".into())),
        ] {
            assert_eq!(parse(src).unwrap(), val, "{src}");
            assert_eq!(parse(&val.to_json()).unwrap(), val, "{src} re-parse");
        }
    }

    #[test]
    fn u64_max_exact() {
        let v = Value::UInt(u64::MAX);
        assert_eq!(v.to_json(), "18446744073709551615");
        assert_eq!(parse(&v.to_json()).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_always_reparses_as_float() {
        let v = Value::Float(2.0);
        assert_eq!(v.to_json(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::Float(2.0));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("route".into())),
            ("vals".into(), Value::Arr(vec![Value::UInt(1), Value::Int(-2), Value::Float(0.5)])),
            ("nested".into(), Value::Obj(vec![("ok".into(), Value::Bool(true))])),
            ("none".into(), Value::Null),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}f λ".into());
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn errors_reported() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        // Objects count as levels too.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().starts_with("nesting deeper"));
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn accessors() {
        let v = parse("{\"a\": 3, \"b\": [1, 2], \"c\": \"x\", \"d\": -1.5}").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Value::as_f64), Some(-1.5));
        assert_eq!(v.get("missing"), None);
    }
}
