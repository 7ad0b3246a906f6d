//! A minimal, dependency-free JSON encode/parse module, in the style of
//! the workspace's `shims/` (the build environment has no registry
//! access, so the wire format is hand-rolled on `std`).
//!
//! # Why exact float round-trips matter here
//!
//! The transport's contract is that values served over the wire are
//! **bit-identical** to in-process [`ValuationServer::call`] results.
//! JSON is a decimal text format, so that contract rides on two std
//! guarantees: `f64`'s `Display` prints the *shortest* decimal string
//! that parses back to the same bits, and `f64::from_str` is correctly
//! rounded. Encoding with `Display` and decoding with `from_str` is
//! therefore a lossless round-trip for every finite `f64`.
//!
//! Non-finite values appear on the wire too — a streaming snapshot's
//! `ci_halfwidths` are `∞` until a component's variance is certified
//! (see `fedval_core::anytime`). Standard JSON has no literal for them,
//! so this module encodes them as the *strings* `"Infinity"`,
//! `"-Infinity"` and `"NaN"` in number position; [`Json::as_f64`]
//! accepts the same strings back. The documents stay standards-compliant
//! and every consumer keeps a typed escape hatch.
//!
//! Numbers are kept in three lanes ([`Num`]) so a `u64` seed survives
//! the trip without rounding through `f64` (a seed above 2^53 would
//! otherwise silently change the request).
//!
//! [`ValuationServer::call`]: fedval_core::service::ValuationServer::call

use std::fmt;

/// A parsed JSON value. Objects preserve insertion order (encoding is
/// deterministic: what you build is what goes on the wire).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept integer-exact where the token allows.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Number representation: unsigned and signed integers are kept exact
/// (seeds are `u64`; `f64` only holds 53 bits), everything else is `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// A non-negative integer token that fits `u64`.
    U64(u64),
    /// A negative integer token that fits `i64`.
    I64(i64),
    /// Any other number token.
    F64(f64),
}

/// Where and why parsing failed (byte offset into the input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Nesting beyond this depth is rejected — a hostile body must not be
/// able to overflow the connection thread's stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Build an object from pairs (the ergonomic constructor the wire
    /// module uses everywhere).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Encode an `f64` for number position: finite values go through
    /// `Display` (exact round-trip), non-finite ones become the
    /// documented string forms.
    pub fn f64(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(Num::F64(x))
        } else if x.is_nan() {
            Json::Str("NaN".to_string())
        } else if x > 0.0 {
            Json::Str("Infinity".to_string())
        } else {
            Json::Str("-Infinity".to_string())
        }
    }

    /// An array of floats (values, half-widths) via [`Json::f64`].
    pub fn f64_array(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::f64(x)).collect())
    }

    /// An array of `usize` counts.
    pub fn usize_array(xs: &[usize]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(Num::U64(x as u64))).collect())
    }

    /// Object member lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys, in document order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// `true`/`false`, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer (exact — a
    /// float token like `3.0` is rejected, so seeds cannot round-trip
    /// through `f64` by accident).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(Num::U64(x)) => Some(*x),
            _ => None,
        }
    }

    /// The value as `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|x| usize::try_from(x).ok())
    }

    /// The value as `f64`. Accepts every number lane and the documented
    /// non-finite string forms (`"Infinity"`, `"-Infinity"`, `"NaN"`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(Num::F64(x)) => Some(*x),
            Json::Num(Num::U64(x)) => Some(*x as f64),
            Json::Num(Num::I64(x)) => Some(*x as f64),
            Json::Str(s) => match s.as_str() {
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                "NaN" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// `true` iff this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact encoding (no whitespace), deterministic in member order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(Num::U64(x)) => out.push_str(&x.to_string()),
            Json::Num(Num::I64(x)) => out.push_str(&x.to_string()),
            Json::Num(Num::F64(x)) => {
                debug_assert!(x.is_finite(), "non-finite floats go through Json::f64");
                // Shortest round-trip Display; ensure the token stays a
                // JSON number (Display of a whole float prints no dot,
                // which is still a valid JSON number token).
                out.push_str(&x.to_string());
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn encode_string(s: &str, out: &mut String) {
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document (trailing non-whitespace is an error).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            reason: reason.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(ParseError {
                at: self.pos - 1,
                reason: format!("expected `{}`, found `{}`", b as char, got as char),
            }),
            None => Err(self.err(format!("expected `{}`, found end of input", b as char))),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if pairs.iter().any(|(k, _): &(String, Json)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                Some(other) => {
                    return Err(ParseError {
                        at: self.pos - 1,
                        reason: format!("expected `,` or `}}`, found `{}`", other as char),
                    })
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                Some(other) => {
                    return Err(ParseError {
                        at: self.pos - 1,
                        reason: format!("expected `,` or `]`, found `{}`", other as char),
                    })
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain (non-escape, non-quote) bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it is a &str) and the run
                // breaks only at ASCII bytes, so the slice is char-aligned.
                out.push_str(&String::from_utf8_lossy(&self.bytes[start..self.pos]));
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired UTF-16 surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    Some(other) => {
                        return Err(ParseError {
                            at: self.pos - 1,
                            reason: format!("invalid escape `\\{}`", other as char),
                        })
                    }
                    None => return Err(self.err("unterminated string escape")),
                },
                Some(b) if b < 0x20 => {
                    return Err(ParseError {
                        at: self.pos - 1,
                        reason: "unescaped control character in string".to_string(),
                    })
                }
                Some(_) => unreachable!("fast path consumed plain bytes"),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
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
        // The token is ASCII by construction.
        let token = &String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        if !is_float {
            if negative {
                // `-0` must stay a float: the integer lane would erase the
                // sign bit and break bit-exact f64 round-trips.
                if token != "-0" {
                    if let Ok(x) = token.parse::<i64>() {
                        return Ok(Json::Num(Num::I64(x)));
                    }
                }
            } else if let Ok(x) = token.parse::<u64>() {
                return Ok(Json::Num(Num::U64(x)));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(Num::F64(x))),
            // Overflowing literals (1e999) parse to ∞; reject rather than
            // smuggle a non-finite through number position.
            Ok(_) => Err(ParseError {
                at: start,
                reason: "number overflows f64".to_string(),
            }),
            Err(_) => Err(ParseError {
                at: start,
                reason: "invalid number".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_round_trips(x: f64) {
        let encoded = Json::f64(x).encode();
        let parsed = parse(&encoded).unwrap().as_f64().unwrap();
        assert_eq!(parsed.to_bits(), x.to_bits(), "token {encoded}");
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let two53 = 9_007_199_254_740_992.0f64;
        let fixed = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            2.2250738585072014e-308,
            0.1 + 0.2,
            core::f64::consts::PI,
            // The smallest and largest subnormals.
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            // 2^53 and its neighbours: spacing 1 below, 2 above.
            two53,
            f64::from_bits(two53.to_bits() - 1),
            f64::from_bits(two53.to_bits() + 1),
            // Values that need all 17 significant digits.
            0.300_000_000_000_000_04,
            1.000_000_000_000_000_2,
            1.234_567_890_123_456_7e-5,
            9.876_543_210_987_654e300,
            2.225_073_858_507_201e-308,
        ];
        for x in fixed {
            assert_round_trips(x);
            assert_round_trips(-x);
        }
        // A seeded sweep of finite bit patterns (splitmix64), both signs.
        let mut state = 0x5EED_u64;
        let (mut finite, mut negative) = (0, 0);
        while finite < 10_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let x = f64::from_bits(z ^ (z >> 31));
            if x.is_finite() {
                assert_round_trips(x);
                finite += 1;
                negative += usize::from(x.is_sign_negative());
            }
        }
        assert!((4_000..6_000).contains(&negative), "{negative} negative");
    }

    #[test]
    fn non_finite_floats_use_the_string_forms() {
        assert_eq!(Json::f64(f64::INFINITY).encode(), "\"Infinity\"");
        assert_eq!(Json::f64(f64::NEG_INFINITY).encode(), "\"-Infinity\"");
        assert_eq!(Json::f64(f64::NAN).encode(), "\"NaN\"");
        assert_eq!(parse("\"Infinity\"").unwrap().as_f64(), Some(f64::INFINITY));
        assert!(parse("\"NaN\"").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn u64_seeds_survive_above_the_f64_mantissa() {
        // Neither is representable as f64.
        for seed in [u64::MAX - 1, u64::MAX] {
            let doc = Json::obj([("seed", Json::Num(Num::U64(seed)))]).encode();
            let parsed = parse(&doc).unwrap();
            assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(seed));
        }
    }

    #[test]
    fn object_round_trip_preserves_order_and_content() {
        let doc = r#"{"b":[1,2.5,-3],"a":{"nested":true},"s":"q\"\\\n\u00e9","n":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.keys(), vec!["b", "a", "s", "n"]);
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\\\né"));
        let re = parse(&v.encode()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked() {
        for doc in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            "+1",
            "nul",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\u{1}",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "1e999",
            "\"unterminated",
        ] {
            assert!(parse(doc).is_err(), "doc {doc:?} must be rejected");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap().as_str(), Some("🦀"));
    }
}
