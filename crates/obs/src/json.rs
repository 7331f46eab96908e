//! Minimal JSON document model, serializer, and parser.
//!
//! The workspace vendors no serde, so the run manifest and the
//! run-ledger lines projected from it are emitted through this
//! hand-rolled value type. Objects preserve insertion order (manifests
//! diff cleanly), strings are RFC 8259-escaped, and non-finite floats
//! serialize as `null` (JSON has no NaN/Infinity). [`Json::parse`]
//! reads documents back — `divide report` and `divide history` use it
//! to diff run manifests, ledger lines and bench files.

use std::fmt::Write as _;

/// Where and why [`Json::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, counts, nanoseconds).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A double; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Inserts (or appends) a field; builder-style, for manifests.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Self {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Looks a field up by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric (`UInt`/`Int`/`Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// content rejected). Integers without fraction or exponent parse
    /// to `UInt`/`Int` so values round-trip through [`Json::render`];
    /// everything else numeric becomes `Num`.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing content after document"));
        }
        Ok(value)
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation, for human-read manifests.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
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

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
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

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Nesting ceiling for the parser; manifests are ~5 levels deep, so
/// 128 is generous while keeping hostile inputs from blowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.raw_segment(run)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.raw_segment(run)?);
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            run = self.pos;
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The raw (escape-free) bytes from `start` to the cursor, as str.
    fn raw_segment(&self, start: usize) -> Result<&'a str, ParseError> {
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid UTF-8 in string"))
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (cursor just past the
    /// `u`), pairing surrogates per RFC 8259 §7.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.error("invalid surrogate pair"));
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.error("bad hex in \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Some(digits) = text.strip_prefix('-') {
                if let Ok(n) = digits.parse::<i64>() {
                    return Ok(Json::Int(-n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(ParseError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), r#""\u0001""#);
    }

    #[test]
    fn objects_preserve_order_and_get() {
        let o = Json::obj().set("b", 1u64).set("a", "x");
        assert_eq!(o.render(), r#"{"b":1,"a":"x"}"#);
        assert_eq!(o.get("a"), Some(&Json::Str("x".into())));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn arrays_and_nesting() {
        let v = Json::obj()
            .set("xs", vec![1u64, 2, 3])
            .set("inner", Json::obj().set("k", Json::Null));
        assert_eq!(v.render(), r#"{"xs":[1,2,3],"inner":{"k":null}}"#);
    }

    #[test]
    fn pretty_rendering_is_valid_and_indented() {
        let v = Json::obj().set("a", vec![1u64]).set("b", Json::obj());
        let pretty = v.render_pretty();
        assert!(pretty.contains("\"a\": ["));
        assert!(pretty.ends_with("}\n"));
        // Empty containers stay compact.
        assert!(pretty.contains("\"b\": {}"));
    }

    #[test]
    fn parse_round_trips_documents() {
        let doc = Json::obj()
            .set("name", "divide")
            .set("count", 42u64)
            .set("delta", Json::Int(-3))
            .set("ratio", 1.5)
            .set("ok", true)
            .set("none", Json::Null)
            .set("xs", vec![1u64, 2, 3])
            .set("inner", Json::obj().set("k", "v"));
        for rendered in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&rendered).expect("parse"), doc);
        }
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = Json::parse(r#""a\"b\\c\nd\u00e9\ud83d\ude00""#).expect("parse");
        assert_eq!(parsed, Json::Str("a\"b\\c\ndé😀".into()));
        // Raw multi-byte UTF-8 passes through untouched.
        assert_eq!(
            Json::parse("\"héllo\"").expect("parse"),
            Json::Str("héllo".into())
        );
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Num(2000.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::Num(-0.25));
        // Too big for u64 still parses, as a float.
        assert_eq!(
            Json::parse("99999999999999999999999").unwrap(),
            Json::Num(1e23)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1.2.3",
            "{} trailing",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1, 2, x]").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn parse_rejects_excessive_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_coerce_numbers() {
        assert_eq!(Json::UInt(5).as_f64(), Some(5.0));
        assert_eq!(Json::Int(-5).as_f64(), Some(-5.0));
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Json::Str("x".into()).as_f64(), None);
        assert_eq!(Json::UInt(5).as_u64(), Some(5));
        assert_eq!(Json::Int(5).as_u64(), Some(5));
        assert_eq!(Json::Int(-5).as_u64(), None);
        assert_eq!(Json::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Json::Null.as_str(), None);
    }
}
