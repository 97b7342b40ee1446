//! Hand-rolled JSON for the wire protocol.
//!
//! The workspace is hermetic std-only (no serde), so `ped-serve` carries
//! its own value model, parser and encoder. Two properties matter more
//! than generality:
//!
//! * **Deterministic encoding.** Objects preserve insertion order (they
//!   are association lists, not hash maps) and numbers have a single
//!   canonical rendering, so a given response value always encodes to
//!   the same bytes — the load harness and the concurrency tests compare
//!   server output byte-for-byte against an in-process oracle.
//! * **Single-line output.** The encoder never emits a newline, so one
//!   message is always exactly one `\n`-terminated line on the socket.

use std::fmt::Write as _;

/// A JSON value. Objects are ordered association lists.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn int(n: i64) -> Value {
        Value::Num(n as f64)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Encode to the canonical single-line form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
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
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by the protocol;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` only ever advances
                    // by whole scalars, so it sits on a char boundary.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "false", "0", "-12", "3.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.encode(), src, "{src}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse("{\"b\":1,\"a\":[2,{\"x\":null}]}").unwrap();
        assert_eq!(v.encode(), "{\"b\":1,\"a\":[2,{\"x\":null}]}");
        assert_eq!(v.get("b").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn string_escapes() {
        let v = parse("\"a\\n\\\"b\\\\c\\u0041\"").unwrap();
        assert_eq!(v, Value::str("a\n\"b\\cA"));
        assert_eq!(v.encode(), "\"a\\n\\\"b\\\\cA\"");
        let ctrl = Value::str("x\u{1}y");
        assert_eq!(ctrl.encode(), "\"x\\u0001y\"");
        assert_eq!(parse(&ctrl.encode()).unwrap(), ctrl);
    }

    #[test]
    fn encoder_is_single_line() {
        let v = Value::Obj(vec![
            ("s".into(), Value::str("multi\nline")),
            ("a".into(), Value::Arr(vec![Value::int(1), Value::Null])),
        ]);
        assert!(!v.encode().contains('\n'));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn all_escape_sequences_parse() {
        let v = parse(r#""\b\f\n\r\t\/\\\"""#).unwrap();
        assert_eq!(v, Value::str("\u{8}\u{c}\n\r\t/\\\""));
        // Backspace/formfeed re-encode as \u escapes (control chars).
        assert_eq!(
            v.encode(),
            r#""\b\f\n\r\t/\\\"""#.replace("\\b\\f", "\\u0008\\u000c")
        );
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn unicode_roundtrips_without_surrogates() {
        // Multibyte scalars pass through raw; \u escapes below the BMP
        // decode; unpaired surrogates degrade to U+FFFD, not a panic.
        let v = Value::str("π ≈ 3.14159 — ≠ ∞");
        assert_eq!(parse(&v.encode()).unwrap(), v);
        let v = parse(r#""π≠""#).unwrap();
        assert_eq!(v, Value::str("π≠"));
        let v = parse(r#""\ud800x""#).unwrap();
        assert_eq!(v, Value::str("\u{fffd}x"));
    }

    #[test]
    fn deeply_nested_arrays_roundtrip() {
        let mut src = String::new();
        for _ in 0..64 {
            src.push('[');
        }
        src.push('1');
        for _ in 0..64 {
            src.push(']');
        }
        let v = parse(&src).unwrap();
        assert_eq!(v.encode(), src);
        let mixed = "[[],[[]],[1,[2,[3,[]]],\"x\"],{\"a\":[null,[true]]}]";
        assert_eq!(parse(mixed).unwrap().encode(), mixed);
    }

    #[test]
    fn oversized_numbers_fall_back_to_float_form() {
        // Beyond the 9e15 integer-precision guard, as_i64 refuses and
        // the encoder uses the float rendering.
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v.as_i64(), None);
        assert!(v.as_f64().is_some());
        assert!(parse(&v.encode()).is_ok(), "{}", v.encode());
        let v = parse("1e300").unwrap();
        assert_eq!(v.as_i64(), None);
        assert_eq!(parse(&v.encode()).unwrap(), v);
        // Within the guard both directions are exact.
        let v = Value::int(9_000_000_000_000_000 - 1);
        assert_eq!(parse(&v.encode()).unwrap().as_i64(), Some(8999999999999999));
        // Non-finite values must never leak NaN/Inf tokens.
        assert_eq!(Value::Num(f64::NAN).encode(), "null");
        assert_eq!(Value::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.encode(), "{\"a\":[1,2]}");
    }
}
