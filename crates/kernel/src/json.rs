//! A minimal, dependency-free JSON value type with a recursive-descent
//! parser and a writer, and the workspace's one JSON string escaper
//! ([`Quoted`]).
//!
//! The workspace builds without network access to a package registry, so
//! trace exports, gateway job documents and conformance corpus files are
//! written and parsed with this module instead of an external crate. It
//! covers the JSON the stack produces: objects, arrays, strings with the
//! standard escapes, `f64` numbers, booleans and `null`.
//!
//! Note that numbers are carried as `f64`, which cannot represent every
//! `u64` losslessly — seeds and other 64-bit values are therefore stored as
//! decimal *strings* (see [`Json::as_u64_str`]).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is normalized (sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` as a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::parse(text)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The array items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, when this is a non-negative integral number
    /// that `f64` represents exactly (at most 2^53); fractions, negatives
    /// and larger magnitudes are `None`, never rounded or saturated.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num()
            .filter(|n| n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(n))
            .map(|n| n as u64)
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Decodes a `u64` stored as a decimal string (the lossless encoding
    /// used for seeds in corpus files).
    pub fn as_u64_str(&self) -> Option<u64> {
        self.as_str().and_then(|s| s.parse().ok())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Encodes a `u64` losslessly as a decimal string value.
    pub fn u64_str(v: u64) -> Json {
        Json::Str(v.to_string())
    }

    /// Builds an object from key/value pairs.
    pub fn obj<I>(fields: I) -> Json
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// `Display` renders compact JSON (no insignificant whitespace), suitable
/// for corpus files and golden comparisons.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => Quoted(s).fmt(f),
            Json::Arr(v) => {
                f.write_str("[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Quoted(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Displays a string as a JSON string literal, quotes included. Every JSON
/// writer in the workspace escapes through this one type: `"` and `\`,
/// the short forms `\n \t \r \b \f`, and `\u00XX` for the other
/// control characters.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        f.write_str("\"")?;
        let mut start = 0;
        for (i, c) in s.char_indices() {
            if c != '"' && c != '\\' && c >= ' ' {
                continue;
            }
            f.write_str(&s[start..i])?;
            // Every escaped character is ASCII, one byte wide.
            start = i + 1;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                '\u{8}' => f.write_str("\\b")?,
                '\u{c}' => f.write_str("\\f")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
        }
        f.write_str(&s[start..])?;
        f.write_str("\"")
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            m.insert(k, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 5 > self.s.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                .map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(cp).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        }) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_display() {
        let doc = Json::obj([
            ("name", Json::str("gen \"quoted\" \\ line\nbreak")),
            ("seed", Json::u64_str(u64::MAX)),
            ("n", Json::num(42.0)),
            ("frac", Json::num(1.5)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::num(1.0), Json::str("x"), Json::Bool(false)]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_u64_str(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn quoted_escapes_quotes_backslashes_and_controls() {
        assert_eq!(Quoted("a\"b\\c\n").to_string(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(Quoted("\u{1}\t\r").to_string(), "\"\\u0001\\t\\r\"");
        // The short forms, which keep gateway JSON bytes stable.
        assert_eq!(Quoted("\u{8}\u{c}").to_string(), "\"\\b\\f\"");
        assert_eq!(Quoted("ü→").to_string(), "\"ü→\"");
        let hostile = "x\u{0}\u{1f}\"\\\u{8}\u{c}\n\r\té";
        let back = Json::parse(&Json::str(hostile).to_string()).unwrap();
        assert_eq!(back.as_str(), Some(hostile));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::num(64.0).to_string(), "64");
        assert_eq!(Json::num(0.5).to_string(), "0.5");
    }
}
