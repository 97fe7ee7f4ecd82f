//! Minimal, dependency-free JSON: one value type, a serializer and a
//! strict parser.
//!
//! crates.io is unreachable in this build environment, so — like the
//! in-workspace `rand` shim — this crate provides just enough of the JSON
//! data model for the wire protocol of `rankfair_service`: [`Value`]
//! (null, bool, number, string, array, object), [`Value::render`] to a
//! compact string, and [`parse`] with typed, position-carrying errors.
//!
//! A large response need not be built as a tree. [`write_string`] and
//! [`write_number`] are the two primitives `render` itself writes every
//! string and number with, so a writer that emits JSON text through them
//! produces exactly the bytes `render` would for the same data. Its text
//! enters a tree as one [`Value::Raw`], which `render` copies verbatim:
//! the report encoders of `rankfair_core` write each distinct pattern's
//! fragment once this way instead of building one subtree per row.
//!
//! Design choices, all in service of a deterministic wire format:
//!
//! * Objects preserve **insertion order** (a `Vec` of pairs, not a hash
//!   map), so serializing the same value twice yields identical bytes and
//!   golden-file tests can diff responses directly.
//! * Numbers are `f64`, as in JSON itself. Integral values within the
//!   exactly-representable range print without a fractional part
//!   (`3`, not `3.0`); everything else uses Rust's shortest round-trip
//!   formatting, so `parse(render(v)) == v` for every finite number.
//! * Non-finite numbers cannot be parsed (JSON has no syntax for them)
//!   and serialize as `null`, so a NaN can never silently enter the wire.
//! * [`parse`] rejects trailing garbage: the whole input must be exactly
//!   one JSON value (the JSONL framing splits lines before parsing).
//!
//! ```
//! use rankfair_json::{parse, Value};
//! let v = Value::object([
//!     ("name", Value::from("audit")),
//!     ("ks", Value::array(vec![Value::from(4u64), Value::from(5u64)])),
//! ]);
//! let text = v.render();
//! assert_eq!(text, r#"{"name":"audit","ks":[4,5]}"#);
//! assert_eq!(parse(&text).unwrap(), v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. JSON numbers are doubles; non-finite values serialize as
    /// `null` and can never be produced by the parser.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Pairs keep insertion order so rendering is
    /// deterministic; [`Value::get`] does a linear scan (wire objects are
    /// small).
    Obj(Vec<(String, Value)>),
    /// Pre-rendered JSON text: exactly one JSON value, written through
    /// [`write_string`] and [`write_number`]. [`Value::render`] copies it
    /// verbatim, [`parse`] never produces it, and every accessor returns
    /// `None` for it. It compares equal only to the same text, never to
    /// the tree it encodes: compare rendered bytes instead.
    Raw(String),
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Conversion to a JSON [`Value`] — implemented by the report and error
/// types of `rankfair_core` and the wire types of `rankfair_service`.
pub trait ToJson {
    /// The JSON encoding of `self`.
    fn to_json(&self) -> Value;
}

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }

    /// Member lookup on an object (first pair wins); `None` for other
    /// variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`, if this is a non-negative
    /// integral number that fits.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes compactly (no whitespace), deterministically: object
    /// pairs in insertion order, shortest round-trip number formatting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Raw(text) => out.push_str(text),
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
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends the JSON text of the number `n`, exactly as
/// [`Value::render`] writes a [`Value::Num`]: integral values below 2^53
/// without a fractional part, others in Rust's shortest round-trip form,
/// and a non-finite value as `null`.
pub fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        // 2^53: integral doubles below it are exact, so print them as
        // integers (`3`, not `3.0`) — what every wire consumer expects.
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 is Rust's shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted JSON string, exactly as [`Value::render`]
/// writes a [`Value::Str`] or an object key: `"` and `\` escaped, the
/// named control escapes, `\u00XX` for other control characters, and
/// everything else (non-ASCII included) as is.
pub fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses `text` as exactly one JSON value.
///
/// Strict on the failure modes that matter for a wire format: truncated
/// input, trailing garbage after the value, bad escapes, lone surrogates,
/// and the non-JSON number spellings (`NaN`, `Infinity`, leading `+`,
/// bare `.5`) are all errors, never silent coercions.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()))
        {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // Strict like the rest of the parser: a duplicate key would
            // silently drop one of the values (`get` returns the first
            // pair), turning e.g. a repeated wire-request member into a
            // quiet behavior change instead of a loud error.
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input arrived as a
                    // &str so the decode cannot fail, but the failure
                    // stays in-band rather than trusting that at a
                    // distance.
                    let c = self
                        .bytes
                        .get(self.pos..)
                        .and_then(|rest| std::str::from_utf8(rest).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the `\u` is consumed),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        if (0xD800..=0xDBFF).contains(&hi) {
            if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                return Err(self.err("high surrogate not followed by \\u escape"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("high surrogate not followed by low surrogate"));
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a' + 10),
                Some(c @ b'A'..=b'F') => u32::from(c - b'A' + 10),
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero digit followed by digits
        // (JSON forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The span was matched byte-by-byte against ASCII digit classes,
        // so the decode cannot fail; the failure stays in-band regardless.
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|span| std::str::from_utf8(span).ok())
            .ok_or_else(|| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        // Overflowing literals (1e999) parse to infinity; a wire format
        // must not let a non-finite number in through the front door.
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Value::Null.render(), "null");
        assert_eq!(Value::Bool(true).render(), "true");
        assert_eq!(Value::from(3usize).render(), "3");
        assert_eq!(Value::from(-7i64).render(), "-7");
        assert_eq!(Value::from(0.5).render(), "0.5");
        assert_eq!(Value::from("a\"b\\c\n").render(), r#""a\"b\\c\n""#);
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#" {"a": [1, 2.5, {"b": null}], "c": "x", "d": true} "#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert!(v.get("a").unwrap().as_arr().unwrap()[2]
            .get("b")
            .unwrap()
            .is_null());
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "tab\tnewline\ncr\rbackspace\u{08}formfeed\u{0C}",
            "unicode: ü λ — 🦀",
            "control \u{01}\u{1f}",
        ] {
            let v = Value::from(s);
            assert_eq!(parse(&v.render()).unwrap(), v, "{s:?}");
        }
        // Escaped forms parse to the same characters.
        assert_eq!(
            parse(r#""\u00fc \u03bb \ud83e\udd80""#).unwrap(),
            Value::from("ü λ 🦀")
        );
    }

    #[test]
    fn numbers_round_trip() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            3.25,
            1e-12,
            6.02e23,
            9007199254740991.0, // 2^53 − 1: still integral-exact
            9007199254740992.0, // 2^53: printed via shortest-repr path
            f64::MIN_POSITIVE,
            f64::MAX,
            0.1 + 0.2, // classic non-representable sum
        ] {
            let v = Value::Num(n);
            let parsed = parse(&v.render()).unwrap();
            assert_eq!(parsed.as_f64(), Some(n), "{n}");
        }
        assert_eq!(parse("1e2").unwrap().as_f64(), Some(100.0));
        assert_eq!(parse("-0.5E-1").unwrap().as_f64(), Some(-0.05));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",                              // empty
            "   ",                           // whitespace only
            "{",                             // truncated object
            "[1, 2",                         // truncated array
            "\"abc",                         // unterminated string
            "{\"a\": }",                     // missing value
            "{\"a\" 1}",                     // missing colon
            "{\"a\": 1, \"a\": 2}",          // duplicate key (first-wins would be silent)
            "{\"a\": {\"b\": 1, \"b\": 1}}", // duplicate key, nested
            "[1,]",                          // trailing comma
            "{} {}",                         // trailing garbage
            "1 2",                           // trailing garbage
            "nul",                           // truncated literal
            "tru e",                         // broken literal
            "\"\\x\"",                       // bad escape
            "\"\\u12g4\"",                   // bad hex
            "\"\\ud800\"",                   // lone high surrogate
            "\"\\udc00\"",                   // lone low surrogate
            "\"\\ud800\\u0041\"",            // high surrogate + non-surrogate
            "NaN",                           // non-finite spellings
            "Infinity",
            "-Infinity",
            "+1",                 // leading plus
            ".5",                 // bare fraction
            "1.",                 // digitless fraction
            "1e",                 // digitless exponent
            "01",                 // leading zero
            "--1",                // double sign
            "1e999999",           // overflows to infinity
            "\u{1}",              // control char at top level
            "\"raw \u{02} ctl\"", // unescaped control char in string
        ] {
            let r = parse(bad);
            assert!(r.is_err(), "accepted {bad:?}: {r:?}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
        let e = parse("{}g").unwrap_err();
        assert_eq!(e.offset, 2);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::object([("z", Value::from(1usize)), ("a", Value::from(2usize))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        // The parser rejects duplicate keys (strictness: a first-wins
        // lookup would silently drop the second value); directly
        // constructed values still look up first-wins.
        assert!(parse(r#"{"k":1,"k":2}"#).is_err());
        let d = Value::object([("k", Value::from(1usize)), ("k", Value::from(2usize))]);
        assert_eq!(d.get("k").unwrap().as_f64(), Some(1.0));
    }

    /// A writer built on `write_string` and `write_number` emits the
    /// bytes `render` writes for the same tree, and `render` copies its
    /// text verbatim inside an array and inside an object.
    #[test]
    fn raw_text_renders_verbatim_inside_arrays_and_objects() {
        let tree = Value::object([
            ("name", Value::from("a\"b\\c\n\u{1}ü")),
            ("n", Value::from(0.1 + 0.2)),
            ("k", Value::from(7usize)),
        ]);
        let mut text = String::from("{");
        write_string("name", &mut text);
        text.push(':');
        write_string("a\"b\\c\n\u{1}ü", &mut text);
        text.push_str(",\"n\":");
        write_number(0.1 + 0.2, &mut text);
        text.push_str(",\"k\":");
        write_number(7.0, &mut text);
        text.push('}');
        assert_eq!(text, tree.render());
        let raw = Value::Raw(text.clone());
        let in_array = Value::array(vec![Value::Null, raw.clone(), Value::from(1usize)]);
        assert_eq!(in_array.render(), format!("[null,{text},1]"));
        let in_object = Value::object([("a", raw.clone()), ("b", Value::Bool(true))]);
        assert_eq!(in_object.render(), format!("{{\"a\":{text},\"b\":true}}"));
        // The text parses back to the tree it encodes; the raw value
        // itself has no accessors.
        assert_eq!(parse(&in_object.render()).unwrap().get("a"), Some(&tree));
        assert!(raw.get("name").is_none() && raw.as_obj().is_none() && raw.as_str().is_none());
    }

    #[test]
    fn usize_accessor_is_strict() {
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(parse("0").unwrap().as_usize(), Some(0));
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("1.5").unwrap().as_usize(), None);
        assert_eq!(parse("1e12").unwrap().as_usize(), None); // > u32::MAX
        assert_eq!(Value::from("3").as_usize(), None);
    }
}
