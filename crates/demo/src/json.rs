//! A minimal JSON value, serializer and parser.
//!
//! The demo's web API exchanges small JSON documents; hand-rolling ~200
//! lines avoids a serialization-framework dependency. Supports the full
//! JSON data model except exotic number formats (serializes via `f64`).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An object with runtime-computed keys (per-label lane status,
    /// per-technique breaker states).
    pub fn object_of(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Number(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Number(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_string())
    }
}

fn write_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Number(n) => write_number(*n, out),
        Json::String(s) => write_escaped(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_json(val, out);
            }
            out.push('}');
        }
    }
}

/// The number rule of the wire format: integral values print as integers,
/// everything else as `f64`'s shortest round-trip `Display`.
pub(crate) fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    let written = if n.fract() == 0.0 && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
    written.expect("writing to a String cannot fail");
}

/// Writes `s` as a quoted, escaped JSON string.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest. The deepest document the
/// demo writes or reads nests about 10 levels; past the cap a body is an
/// error rather than a recursion that overflows the handler's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // JSON has no infinities: a number past `f64`'s range could not be
        // written back.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            _ => Err(self.err(format!("bad number {text:?}"))),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // A multi-byte char starts one byte back: decode just
                    // it from the (already valid) text.
                    let start = self.pos - 1;
                    let ch = self.text.get(start..).and_then(|rest| rest.chars().next());
                    let ch = ch.ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_object() {
        let v = Json::object([
            ("name", Json::str("route")),
            ("minutes", Json::Number(24.0)),
            ("ok", Json::Bool(true)),
            ("tags", Json::Array(vec![Json::str("a"), Json::str("b")])),
            ("none", Json::Null),
        ]);
        let text = v.to_string_compact();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(Json::Number(24.0).to_string_compact(), "24");
        assert_eq!(Json::Number(24.5).to_string_compact(), "24.5");
        assert_eq!(Json::Number(-3.0).to_string_compact(), "-3");
    }

    #[test]
    fn string_escapes() {
        let v = Json::str("a\"b\\c\nd\te");
        let text = v.to_string_compact();
        assert_eq!(text, r#""a\"b\\c\nd\te""#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_roundtrip() {
        let v = Json::str("Mëlbourne → Dhâka ✓");
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(parse(r#""A""#).unwrap(), Json::str("A"));
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(parse("3.25").unwrap().as_f64(), Some(3.25));
        assert_eq!(parse("-17").unwrap().as_f64(), Some(-17.0));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":1} garbage").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Object(BTreeMap::new()));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Array(vec![]));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s": "x", "n": 2, "b": true}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let too_deep = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(too_deep.message, "nested too deeply");
        // Ten thousand unclosed brackets overflowed a default-size stack
        // before the cap; now they are an error like any other.
        let body = format!("{}{}", "{\"a\":".repeat(5_000), "[".repeat(5_000));
        let deep = std::thread::spawn(move || parse(&body).is_err());
        assert!(deep.join().unwrap());
    }

    #[test]
    fn non_ascii_strings_parse_in_linear_time() {
        // 240 kB of two-byte chars: each used to re-validate the rest of
        // the input, which took tens of seconds.
        let comment = "é".repeat(120_000);
        let body = format!(r#"{{"comment": "{comment}"}}"#);
        let start = std::time::Instant::now();
        let v = parse(&body).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v.get("comment").and_then(Json::as_str), Some(&comment[..]));
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn numbers_past_the_f64_range_are_errors() {
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    /// The fuzz alphabet: JSON punctuation, escapes (`\u` among them,
    /// well- and ill-formed), number pieces, literals, whitespace and
    /// multi-byte chars.
    const TOKENS: [&str; 34] = [
        "[", "]", "{", "}", "\"", ":", ",", "\\", "\\u", "\\u00e9", "\\ud800", "\\\"", "\\n",
        "\\x", "0", "7", "-", "+", ".", "e", "E", "1e308", "9", " ", "\n", "\t", "é", "→", "😀",
        "true", "null", "fals", "a", "\u{1}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn parse_never_panics_and_what_it_accepts_round_trips(
            (wrap, tokens) in (0usize..6, proptest::collection::vec(0usize..TOKENS.len(), 0..24)),
        ) {
            // Token soup inside 0 to 10 000 bracket pairs: past the cap
            // when the wrapping or the soup nests deeper than it.
            let depth = [0, 0, 1, 3, MAX_DEPTH, 10_000][wrap];
            let soup: String = tokens.iter().map(|&i| TOKENS[i]).collect();
            let text = format!("{}{soup}{}", "[".repeat(depth), "]".repeat(depth));
            // A default-size stack, as a connection handler has: a parse
            // that recurses without bound aborts the process here.
            let parsed = std::thread::spawn({
                let text = text.clone();
                move || parse(&text)
            })
            .join();
            prop_assert!(parsed.is_ok(), "parse panicked on {:?}", text);
            if let Ok(Ok(value)) = parsed {
                let written = value.to_string_compact();
                prop_assert_eq!(parse(&written), Ok(value), "{:?} → {}", soup, written);
            }
        }
    }
}
