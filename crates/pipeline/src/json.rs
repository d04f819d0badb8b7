//! A minimal, zero-dependency JSON reader and writer helpers.
//!
//! Grown out of the run-manifest parser and promoted to a public module
//! so every hand-rolled JSON surface in the workspace — manifests, the
//! serve wire protocol — shares one strict reader instead of each
//! carrying its own. The reader is recursive descent with a bounded
//! depth, rejects trailing garbage, and turns any damage (truncation,
//! torn writes, malformed requests) into a structured
//! [`ErrorKind::CorruptArtifact`](crate::ErrorKind::CorruptArtifact)
//! error, never a panic.

use crate::error::PipelineError;

fn corrupt(msg: String) -> PipelineError {
    PipelineError::corrupt(msg)
}

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats a float as a JSON number (finite; NaN/∞ become null).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // shortest representation that round-trips
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Numbers keep their source text so `u64` seeds
/// survive without a round-trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source field order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
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

    /// The number as a `u64`, if it parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64` (`null` reads back as NaN, the writer's
    /// encoding for non-finite values).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            // the writer renders NaN/∞ as null
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A required string field of an object.
    pub fn str_field(&self, name: &str) -> Result<&str, PipelineError> {
        self.field(name)
            .and_then(Value::as_str)
            .ok_or_else(|| corrupt(format!("missing string field `{name}`")))
    }

    /// A required integer field of an object.
    pub fn u64_field(&self, name: &str) -> Result<u64, PipelineError> {
        self.field(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt(format!("missing integer field `{name}`")))
    }

    /// A required number field of an object.
    pub fn f64_field(&self, name: &str) -> Result<f64, PipelineError> {
        self.field(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| corrupt(format!("missing number field `{name}`")))
    }

    /// A required boolean field of an object.
    pub fn bool_field(&self, name: &str) -> Result<bool, PipelineError> {
        match self.field(name) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(corrupt(format!("missing boolean field `{name}`"))),
        }
    }

    /// A required array field of an object.
    pub fn arr_field(&self, name: &str) -> Result<&[Value], PipelineError> {
        match self.field(name) {
            Some(Value::Arr(items)) => Ok(items),
            _ => Err(corrupt(format!("missing array field `{name}`"))),
        }
    }
}

/// Parses one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, PipelineError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(value)
}

/// Nesting deeper than this is rejected rather than risking the
/// recursive parser blowing the stack on adversarial input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> PipelineError {
        corrupt(format!("malformed JSON at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), PipelineError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, PipelineError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, PipelineError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, PipelineError> {
        self.eat(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // the writer only emits \u for control
                            // chars; surrogate pairs are out of scope
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the run up to the next quote or escape straight
                    // from the input; both are ASCII, so the run ends on
                    // a char boundary
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, PipelineError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits are UTF-8");
        if text.parse::<f64>().is_err() {
            return Err(self.err(&format!("bad number `{text}`")));
        }
        Ok(Value::Num(text.to_string()))
    }

    fn array(&mut self, depth: usize) -> Result<Value, PipelineError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, PipelineError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    #[test]
    fn values_and_accessors_round_trip() {
        let v = parse(
            "{\"s\": \"hi\", \"n\": 42, \"f\": 0.5, \"b\": true, \
             \"a\": [1, null], \"o\": {\"k\": false}}",
        )
        .unwrap();
        assert_eq!(v.str_field("s").unwrap(), "hi");
        assert_eq!(v.u64_field("n").unwrap(), 42);
        assert_eq!(v.f64_field("f").unwrap(), 0.5);
        assert!(v.bool_field("b").unwrap());
        assert_eq!(v.arr_field("a").unwrap().len(), 2);
        assert_eq!(
            v.field("o").unwrap().field("k").unwrap().as_bool(),
            Some(false)
        );
        assert!(v.field("missing").is_none());
        assert!(v.str_field("missing").is_err());
    }

    #[test]
    fn writer_output_parses_back() {
        let text = format!(
            "{{\"msg\": {}, \"x\": {}}}",
            json_str("line\n\"quoted\"\\"),
            json_f64(0.125)
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.str_field("msg").unwrap(), "line\n\"quoted\"\\");
        assert_eq!(v.f64_field("x").unwrap(), 0.125);
        // non-finite floats render as null and read back as NaN
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn damage_is_a_corrupt_error_never_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\": 1e}",
        ] {
            let err = parse(bad).expect_err("damaged input parsed");
            assert_eq!(err.kind(), ErrorKind::CorruptArtifact, "input {bad:?}");
            assert!(!err.to_string().contains('\n'));
        }
        // a depth bomb is rejected, not a stack overflow
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn multi_megabyte_strings_parse_in_linear_time() {
        // 4.5 MiB of mixed ASCII, multi-byte chars and escapes, under a
        // time bound a parse quadratic in the string length cannot meet
        let chunk = "abcdé€\\n\\\"𝄞 ";
        let body = chunk.repeat(1 << 18);
        let text = format!("{{\"s\": \"{body}\"}}");
        let start = std::time::Instant::now();
        let value = parse(&text).unwrap();
        let elapsed = start.elapsed();
        let expected = "abcdé€\n\"𝄞 ".repeat(1 << 18);
        assert_eq!(value.str_field("s").unwrap(), expected);
        assert!(elapsed.as_secs() < 5, "parse took {elapsed:?}");
    }
}
