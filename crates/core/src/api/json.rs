//! A minimal, dependency-free JSON parser for request bodies: recursive
//! descent over objects, arrays, strings, f64 numbers, booleans and
//! null. Responses are written by [`kdap_obs::JsonWriter`], whose output
//! this parser must read back to the same tree (`tests/json_roundtrip.rs`).
//!
//! # Non-finite numbers
//!
//! JSON has no representation for NaN or ±∞. The engine's empty-set
//! MIN/MAX/AVG aggregates are NaN (rendered `∅` on the console), so the
//! writer encodes every non-finite `f64` as `null` — the wire contract
//! is "no defined value", never an invalid token.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]; deeper input is rejected
/// rather than risking a stack overflow on hostile request bodies.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept; readers see
    /// the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure: byte offset into the input plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<Json, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonParseError {
        JsonParseError {
            pos: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX carrying a
                                // low surrogate must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so boundaries
                    // are valid; step to the next char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| (*b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    // SAFETY-free: the input was a &str, slices on char
                    // boundaries are valid UTF-8.
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(
                        |_| JsonParseError {
                            pos: start,
                            msg: "invalid UTF-8".into(),
                        },
                    )?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        // `"1e999".parse::<f64>()` yields ±∞; JSON has no non-finite
        // numbers, so an overflowing literal is a malformed document,
        // not a silent infinity flowing into option plumbing.
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v =
            parse(r#"{"keywords": "columbus lcd", "pick": 2, "opts": {"deep": [1, 2]}}"#).unwrap();
        assert_eq!(v.get("keywords").unwrap().as_str(), Some("columbus lcd"));
        assert_eq!(v.get("pick").unwrap().as_num(), Some(2.0));
        let deep = v.get("opts").unwrap().get("deep").unwrap();
        assert_eq!(deep.as_arr().unwrap().len(), 2);
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\t\u00e9""#).unwrap().as_str(),
            Some("a\"b\\c\nd\té")
        );
        // Surrogate pair → one astral scalar.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"héllo ∅\"").unwrap().as_str(), Some("héllo ∅"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "+1",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\\u12\"",
            "{,}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("{\"a\": }").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn nesting_limit_boundary_is_exact() {
        // Depth counts nesting levels from 0 at the document root; 33
        // levels of brackets is the first rejected depth.
        let ok = "[".repeat(33) + &"]".repeat(33);
        assert!(parse(&ok).is_ok(), "depth 32 must parse");
        let too_deep = "[".repeat(34) + &"]".repeat(34);
        let err = parse(&too_deep).unwrap_err();
        assert!(err.msg.contains("nesting too deep"), "{err}");
        // Mixed object/array nesting counts the same levels.
        let mixed = "{\"a\":".repeat(17) + "1" + &"}".repeat(17);
        assert!(parse(&mixed).is_ok());
    }

    #[test]
    fn escape_edge_cases() {
        // Escaped NUL is representable (a raw NUL byte is not).
        assert_eq!(parse("\"\\u0000\"").unwrap().as_str(), Some("\u{0}"));
        assert!(parse("\"\u{0}\"").is_err(), "raw NUL must be rejected");
        // All simple escapes.
        assert_eq!(
            parse("\"\\b\\f\\/\\r\"").unwrap().as_str(),
            Some("\u{8}\u{c}/\r")
        );
        // Uppercase hex digits in \u escapes.
        assert_eq!(parse("\"\\u00E9\"").unwrap().as_str(), Some("\u{e9}"));
        // A backslash at end-of-input must not panic.
        assert!(parse("\"\\").is_err());
        // Truncated \u escapes.
        assert!(parse("\"\\u00\"").is_err());
        assert!(parse("\"\\u00g0\"").is_err());
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // High surrogate without a low half.
        assert!(parse("\"\\ud800\"").is_err());
        // High surrogate followed by a non-escape character.
        assert!(parse("\"\\ud800x\"").is_err());
        // Low surrogate on its own.
        assert!(parse("\"\\udc00\"").is_err());
        // High surrogate paired with a non-surrogate escape.
        assert!(parse("\"\\ud800\\u0041\"").is_err());
        // A proper pair still decodes.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1f600}")
        );
    }

    #[test]
    fn overflowing_numbers_are_rejected_not_infinite() {
        for bad in ["1e999", "-1e999", "1e309", "-1e309"] {
            let err = parse(bad).unwrap_err();
            assert!(err.msg.contains("out of range"), "{bad} → {err}");
        }
        // The largest finite doubles still parse.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Json::Num(f64::MAX)
        );
        assert_eq!(
            parse("-1.7976931348623157e308").unwrap(),
            Json::Num(f64::MIN)
        );
        // Tiny numbers underflow to zero rather than erroring (IEEE 754
        // gradual underflow is finite).
        assert_eq!(parse("1e-999").unwrap(), Json::Num(0.0));
        // NaN has no JSON literal at all.
        for bad in ["NaN", "nan", "Infinity", "-Infinity"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn round_trips_through_json_string() {
        let original = "tab\there \"quote\" ∅";
        let parsed = parse(&kdap_obs::json_string(original)).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        // JSON cannot represent the empty-set aggregate (NaN) — the wire
        // encoding is `null`, never an invalid token.
        let num = |v: f64| {
            let mut out = String::new();
            kdap_obs::JsonWriter::new(&mut out).f64(v);
            out
        };
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(v), "null");
            assert_eq!(parse(&num(v)).unwrap(), Json::Null);
        }
        assert_eq!(num(42.5), "42.5");
        assert_eq!(num(-0.25), "-0.25");
        assert_eq!(parse(&num(1e300)).unwrap(), Json::Num(1e300));
    }

    #[test]
    fn type_accessors_are_strict() {
        let v = parse(r#"{"n": 1, "s": "x", "b": true, "a": []}"#).unwrap();
        assert_eq!(v.get("n").unwrap().type_name(), "number");
        assert!(v.get("n").unwrap().as_str().is_none());
        assert!(v.get("s").unwrap().as_num().is_none());
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("a").unwrap().as_obj().is_none());
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
