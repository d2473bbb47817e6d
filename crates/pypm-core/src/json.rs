//! The one JSON module: every document this workspace emits is written
//! through [`Writer`], and everything that reads one back — the
//! `bench_compare` gate, the test suites — goes through [`parse`].
//!
//! The repository builds offline with no serde, so both halves are
//! hand-rolled and deliberately small. The reader is a recursive-descent
//! parser for exactly the JSON the writer emits: objects, arrays, strings
//! with the writer's escapes, floats, booleans and null. Duplicate object
//! keys (which the writer never produces) keep the first value. The
//! writer appends into a single `String` — no per-field allocation — and
//! names each key at the call site that supplies its value, so a key and
//! its value cannot drift apart the way a `format!` string and its
//! positional arguments can.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64` — bench documents only carry
    /// counters and milliseconds, both exactly representable).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, key-sorted for deterministic comparison.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element vector, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error).
///
/// # Errors
///
/// Returns the first syntax error with its byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.entry(key).or_insert(value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in bench docs;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // valid string content).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Members on one line, separated by `", "`.
    Inline,
    /// One member per line, indented two spaces per open container; the
    /// closing bracket sits on its own line.
    Lines,
}

/// One open container of a [`Writer`].
#[derive(Debug)]
struct Frame {
    close: char,
    layout: Layout,
    members: usize,
}

/// Appends one JSON document into a single `String`.
///
/// ```
/// use pypm_core::json::{Layout, Writer};
///
/// let mut w = Writer::new();
/// w.begin_object(Layout::Inline);
/// w.key("name").string("a\"b");
/// w.key("hits").scalar(3u64);
/// w.key("ms").fixed(1.5, 3);
/// w.end();
/// assert_eq!(w.finish(), r#"{"name": "a\"b", "hits": 3, "ms": 1.500}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    open: Vec<Frame>,
    /// Set by [`Writer::key`]: the next value follows `"key": ` directly.
    after_key: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer whose buffer already holds `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            out: String::with_capacity(capacity),
            ..Writer::default()
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed JSON container");
        self.out
    }

    /// Opens an object as the next value.
    pub fn begin_object(&mut self, layout: Layout) {
        self.begin('{', '}', layout);
    }

    /// Opens an array as the next value.
    pub fn begin_array(&mut self, layout: Layout) {
        self.begin('[', ']', layout);
    }

    fn begin(&mut self, open: char, close: char, layout: Layout) {
        self.separate();
        self.out.push(open);
        self.open.push(Frame {
            close,
            layout,
            members: 0,
        });
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) {
        let frame = self.open.pop().expect("end() without an open container");
        if frame.layout == Layout::Lines {
            self.newline();
        }
        self.out.push(frame.close);
    }

    /// Writes `"key": `; the next value written belongs to it.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.string(key);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// An integer or boolean — any value whose `Display` form is its
    /// JSON form.
    pub fn scalar(&mut self, value: impl fmt::Display) {
        self.separate();
        write!(self.out, "{value}").expect("writing to a String cannot fail");
    }

    /// A float with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, value: f64, decimals: usize) {
        self.separate();
        write!(self.out, "{value:.decimals$}").expect("writing to a String cannot fail");
    }

    /// `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// A string literal, escaped.
    pub fn string(&mut self, value: &str) {
        self.separate();
        self.out.push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    write!(self.out, "\\u{:04x}", c as u32)
                        .expect("writing to a String cannot fail");
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// An already-rendered JSON value, embedded verbatim.
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.out.push_str(json);
    }

    /// Whatever must precede the next member of the innermost container:
    /// nothing right after a key, else the comma and the layout's spacing.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(frame) = self.open.last_mut() else {
            return;
        };
        let first = frame.members == 0;
        frame.members += 1;
        if !first {
            self.out.push(',');
        }
        match frame.layout {
            Layout::Lines => self.newline(),
            Layout::Inline if !first => self.out.push(' '),
            Layout::Inline => {}
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": 1.5, "b": [true, null, "x\ny"], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.5));
        let b = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b[0], Value::Bool(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_str(), Some("x\ny"));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Value::as_f64),
            Some(-2000.0)
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_the_pipeline_report_shape() {
        let doc = r#"{
  "schema": "pypm.pipeline.v1",
  "passes": [
    {"name": "rewrite", "changed": true, "wall_ms": 1.234567,
     "incremental": {"view_builds": 1, "view_patches": 13, "nodes_revisited": 0}}
  ],
  "diagnostics": []
}"#;
        let v = parse(doc).unwrap();
        let passes = v.get("passes").and_then(Value::as_array).unwrap();
        assert_eq!(
            passes[0]
                .get("incremental")
                .and_then(|i| i.get("view_patches"))
                .and_then(Value::as_f64),
            Some(13.0)
        );
    }

    /// Writes a [`Value`] tree through the public [`Writer`] calls.
    fn write_value(w: &mut Writer, v: &Value, layout: Layout) {
        match v {
            Value::Null => w.null(),
            Value::Bool(b) => w.scalar(b),
            Value::Number(n) => w.scalar(n),
            Value::String(s) => w.string(s),
            Value::Array(items) => {
                w.begin_array(layout);
                for item in items {
                    write_value(w, item, layout);
                }
                w.end();
            }
            Value::Object(map) => {
                w.begin_object(layout);
                for (k, item) in map {
                    w.key(k);
                    write_value(w, item, layout);
                }
                w.end();
            }
        }
    }

    fn random_string(rng: &mut StdRng) -> String {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é',
        ];
        (0..rng.gen_range(0..6usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    fn random_value(rng: &mut StdRng, depth: u32) -> Value {
        match rng.gen_range(0..if depth == 0 { 4u32 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_range(0..2u32) == 1),
            2 => Value::Number(f64::from(rng.gen_range(-1_000_000..1_000_000i32)) / 64.0),
            3 => Value::String(random_string(rng)),
            4 => Value::Array(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn written_trees_parse_back_to_themselves() {
        let mut rng = StdRng::seed_from_u64(0x6a73_6f6e);
        for case in 0..512 {
            let v = random_value(&mut rng, 4);
            for layout in [Layout::Inline, Layout::Lines] {
                let mut w = Writer::new();
                write_value(&mut w, &v, layout);
                let text = w.finish();
                assert_eq!(parse(&text).as_ref(), Ok(&v), "case {case}: {text}");
            }
        }
    }

    #[test]
    fn control_characters_escape_to_valid_json() {
        let mut w = Writer::new();
        w.string("a\u{0}b\u{1f}\"\\\n");
        let text = w.finish();
        assert_eq!(text, r#""a\u0000b\u001f\"\\\n""#);
        assert_eq!(parse(&text).unwrap().as_str(), Some("a\u{0}b\u{1f}\"\\\n"));
    }
}
