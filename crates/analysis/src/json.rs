//! A minimal JSON value type with an emitter and a parser.
//!
//! The build environment has no crates.io access, so the harness cannot use
//! `serde_json`; the experiment binaries' `--json` output is produced by this
//! self-contained module instead.  The parser exists so that tests (and the
//! CI smoke job) can validate that whatever the binaries emit round-trips —
//! catching drift between the table renderer and the JSON emitter.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (emitted via `f64`; serializing a non-finite value
    /// panics — silently degrading a measurement to `null` would corrupt
    /// reports downstream, so the corruption must fail at the emit site).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Creates an empty object.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Inserts a key into an object (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        match &mut self {
            JsonValue::Object(entries) => entries.push((key.into(), value.into())),
            other => panic!("JsonValue::with on a non-object: {other:?}"),
        }
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    ///
    /// # Panics
    ///
    /// Panics if the value contains a non-finite [`JsonValue::Number`]
    /// (`NaN` or an infinity) — JSON has no representation for them, and
    /// rendering `null` instead would silently corrupt reports.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => {
                assert!(
                    x.is_finite(),
                    "JSON cannot represent the non-finite number {x}: fix the \
                     computation (or emit an explicit null) instead of letting \
                     it degrade silently"
                );
                if *x == x.trunc() && x.abs() < 1e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            JsonValue::String(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (with a byte offset) on malformed
    /// input, trailing garbage, or arrays and objects nested more than 128
    /// deep.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<u64> for JsonValue {
    fn from(x: u64) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// How deeply [`JsonValue::parse`] lets arrays and objects nest, so hostile
/// input is an error rather than a stack overflow.  Committed artifacts nest
/// at most 6 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    /// Parses an array or object one level deeper, up to [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
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
                            let code = self.hex_escape()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: must be followed by a low
                                // surrogate escape; combine the pair.
                                if !self.text[self.pos..].starts_with("\\u") {
                                    return Err(format!(
                                        "lone high surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let low = self.hex_escape()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| "invalid surrogate pair".to_string())?
                            } else if (0xDC00..0xE000).contains(&code) {
                                return Err(format!("lone low surrogate at byte {}", self.pos));
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Copy the unescaped run up to the next quote or
                    // backslash as one slice (linear in the string's length).
                    let run = &self.text[self.pos - 1..];
                    let run = &run[..run.find(['"', '\\']).unwrap_or(run.len())];
                    self.pos += run.len() - 1;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape (cursor already past
    /// the `\u`).
    fn hex_escape(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated or invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_serializes_objects() {
        let v = JsonValue::object()
            .with("name", "table1")
            .with("rows", 3usize)
            .with("ok", true)
            .with("ratio", 0.5)
            .with("tags", vec!["a", "b"]);
        assert_eq!(
            v.to_json(),
            r#"{"name":"table1","rows":3,"ok":true,"ratio":0.5,"tags":["a","b"]}"#
        );
        assert_eq!(v.get("rows").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("table1"));
        assert_eq!(
            v.get("tags").and_then(JsonValue::as_array).unwrap().len(),
            2
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let v = JsonValue::from("a \"quote\"\nnew\tline \\ κ_max");
        let text = v.to_json();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        let parsed = JsonValue::parse(r#""Aκ""#).unwrap();
        assert_eq!(parsed.as_str(), Some("Aκ"));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_rejected() {
        // U+1F600 (😀) encoded as a standard surrogate pair.
        let parsed = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1F600}"));
        // Raw (unescaped) non-BMP characters also pass through.
        let raw = JsonValue::parse("\"\u{1F600}\"").unwrap();
        assert_eq!(raw.as_str(), Some("\u{1F600}"));
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn round_trips_nested_values() {
        let v = JsonValue::object().with(
            "tables",
            JsonValue::Array(vec![
                JsonValue::object()
                    .with("headers", vec!["n", "steps"])
                    .with(
                        "rows",
                        JsonValue::Array(vec![JsonValue::Array(vec![
                            JsonValue::from("16"),
                            JsonValue::from("1.2e6"),
                        ])]),
                    ),
                JsonValue::Null,
                JsonValue::Bool(false),
                JsonValue::Number(-12.75),
            ]),
        );
        let text = v.to_json();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_empty_containers() {
        let v = JsonValue::parse(" { \"a\" : [ ] , \"b\" : { } , \"c\" : 1e3 } ").unwrap();
        assert_eq!(v.get("a").unwrap(), &JsonValue::Array(vec![]));
        assert_eq!(v.get("b").unwrap(), &JsonValue::Object(vec![]));
        assert_eq!(v.get("c").and_then(JsonValue::as_f64), Some(1000.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "truex",
            "nul",
            "\"unterminated",
            "1 2",
            "{1:2}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// Nesting is bounded: 128 levels parse, one more (or a 10⁵-deep
    /// input, which used to overflow the stack) is an error with an offset.
    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("at byte 128"), "{err}");
        assert!(JsonValue::parse(&nested(100_000)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&objects).is_err());
    }

    /// A long string mixing ASCII and multi-byte characters round-trips
    /// (string parsing is linear in its length).
    #[test]
    fn long_mixed_strings_round_trip() {
        let s: String = (0..100_000)
            .map(|i| ['a', 'κ', '"', '😀', '\\', 'z', '\n'][i % 7])
            .collect();
        let v = JsonValue::from(s.as_str());
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn numbers_render_integers_without_fraction() {
        assert_eq!(JsonValue::from(42u64).to_json(), "42");
        assert_eq!(JsonValue::Number(-3.0).to_json(), "-3");
        assert_eq!(JsonValue::Number(2.5).to_json(), "2.5");
    }

    #[test]
    #[should_panic(expected = "non-finite number")]
    fn emitting_nan_panics_instead_of_degrading_to_null() {
        let _ = JsonValue::Number(f64::NAN).to_json();
    }

    #[test]
    #[should_panic(expected = "non-finite number")]
    fn emitting_infinity_panics_even_when_nested() {
        // The panic must fire for non-finite numbers buried in containers,
        // not just at the top level.
        let v = JsonValue::object().with("steps", f64::INFINITY);
        let _ = v.to_json();
    }

    #[test]
    fn display_matches_to_json() {
        let v = JsonValue::object().with("x", 1u64);
        assert_eq!(format!("{v}"), v.to_json());
    }
}
