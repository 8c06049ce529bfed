//! A minimal JSON document builder, emitter and parser.
//!
//! The workspace depends on no external crate, so this module is its only
//! JSON implementation: building a document tree, rendering it with correct
//! string escaping and round-trippable numbers, and parsing documents back
//! ([`Json::parse`], in time linear in the input). Run reports, the daemon's
//! wire protocol, session checkpoints and — through `mpss_core::json` —
//! instance and schedule files all go through it.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A floating-point number. Non-finite values render as `null` (JSON has
    /// no NaN/∞).
    Num(f64),
    /// An unsigned integer, kept separate from [`Json::Num`] so counters
    /// render without a decimal point or precision loss.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved, so reports are deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be extended with [`push`](Json::push).
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// Panics if `self` is not an [`Json::Obj`].
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object (test convenience; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document. Numbers that are plain non-negative integers
    /// fitting `u64` parse as [`Json::UInt`] (so counters written as `UInt`
    /// round-trip); everything else numeric parses as [`Json::Num`]. Arrays
    /// and objects may nest at most 128 deep. Errors carry the byte offset
    /// of the offending input.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing data after document"));
        }
        Ok(value)
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with 2-space indentation, one field per line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest round-trip formatting, always a
                    // valid JSON number (no exponent-only forms like `1e3`
                    // would still be valid anyway).
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (key, value) = &fields[i];
                    escape_into(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// A [`Json::parse`] failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. Each level is one
/// recursive call, so without a cap one hostile line overflows the stack
/// and aborts the process; no document the workspace writes comes near it.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; `pos` only ever stops on a char boundary of it.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects enclosing `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
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

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.error(&format!("unexpected byte 0x{b:02x}"))),
        }
    }

    /// Runs `parse` on an array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.error("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.error("unescaped control character")),
                _ => {
                    // Copy the run up to the next quote, escape or control
                    // byte in one slice. None of them occurs inside a
                    // multi-byte UTF-8 sequence, so the run ends on a char
                    // boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("bad hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let integral_end = self.pos;
        if self.eat(b'.') {
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'-') {
                let _ = self.eat(b'+');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if self.pos == integral_end && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

/// Shared bracketed-sequence writer for arrays and objects.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal (quotes included).
fn escape_into(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn nested_structure_renders_compact_and_pretty() {
        let mut obj = Json::object();
        obj.push("xs", Json::Arr(vec![Json::UInt(1), Json::UInt(2)]));
        obj.push("empty", Json::object());
        assert_eq!(obj.render(), r#"{"xs":[1,2],"empty":{}}"#);
        let pretty = obj.render_pretty();
        assert!(pretty.contains("\"xs\": [\n    1,\n    2\n  ]"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn object_order_is_insertion_order() {
        let mut obj = Json::object();
        obj.push("z", Json::UInt(1));
        obj.push("a", Json::UInt(2));
        assert_eq!(obj.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(obj.get("a"), Some(&Json::UInt(2)));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn numbers_round_trip_textually() {
        // Shortest round-trip formatting: reading the text back yields the
        // identical double.
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456.789] {
            let text = Json::Num(x).render();
            assert_eq!(text.parse::<f64>().unwrap(), x);
        }
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_on_array_panics() {
        Json::Arr(vec![]).push("k", Json::Null);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let mut obj = Json::object();
        obj.push("counters", {
            let mut c = Json::object();
            c.push("offline.phases", Json::UInt(12));
            c.push("huge", Json::UInt(u64::MAX));
            c
        });
        obj.push("wall_ms", Json::Num(1.25));
        obj.push("neg", Json::Num(-3.0));
        obj.push("text", Json::from("a\"b\\c\nd"));
        obj.push("long", Json::from("añ😀\"\\\n\t\u{1}z/".repeat(20_000)));
        obj.push("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        for text in [obj.render(), obj.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), obj);
        }
    }

    #[test]
    fn parse_number_shapes() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Num(-42.0));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("2.5e-1").unwrap(), Json::Num(0.25));
        // Too big for u64 → falls back to f64.
        assert_eq!(
            Json::parse("99999999999999999999999").unwrap(),
            Json::Num(1e23)
        );
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""é😀""#).unwrap(),
            Json::Str("é😀".to_string())
        );
        // Escaped forms decode to the same characters (incl. surrogate pair).
        assert_eq!(
            Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap(),
            Json::Str("é 😀".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "01x", "\"abc", "{} extra", "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        // Offsets count bytes: `é` takes two.
        for (text, offset) in [("\"é\u{1}\"", 3), ("\"abc", 4), ("\"é\\q\"", 5)] {
            assert_eq!(Json::parse(text).unwrap_err().offset, offset, "{text:?}");
        }
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn parse_limits_nesting_depth() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err().offset,
            MAX_DEPTH
        );
        // Objects count too, and a hostile depth is an error, not a stack
        // overflow.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        let hostile = "[".repeat(200_000);
        assert_eq!(Json::parse(&hostile).unwrap_err().offset, MAX_DEPTH);
    }
}
