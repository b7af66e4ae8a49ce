//! Minimal JSON value model with deterministic serialisation and a
//! recursive-descent parser.
//!
//! Artifacts must be byte-identical across thread counts and machines, so
//! the emitter controls formatting exactly: object keys keep insertion
//! order, floats use Rust's shortest round-trip formatting, and integers
//! (trial counts, seeds, interaction counts) are kept as [`Json::Uint`] so
//! full 64-bit seeds survive a parse/emit round trip bit-exactly. The
//! container vendors no registry crates, which is why this lives here
//! instead of behind a `serde_json` dependency.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (deterministic output).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer, kept exact up to `u64::MAX` (seeds!).
    Uint(u64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(u) => Some(u),
            _ => None,
        }
    }

    /// The value as a float ([`Json::Uint`] coerces; `null` reads as NaN,
    /// mirroring how the emitter writes non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(x) => Some(x),
            Json::Uint(u) => Some(u as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in insertion order, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact single-line serialisation.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialisation with two-space indentation and a trailing
    /// newline — the format of committed golden artifacts, chosen so that
    /// `diff` output against a regenerated artifact is readable.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => out.push_str(&fmt_f64(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                // Scalar-only arrays stay on one line even in pretty mode
                // (time/value vectors would otherwise dominate the file).
                let flat = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                write_seq(
                    out,
                    indent,
                    depth,
                    ('[', ']'),
                    flat,
                    items.len(),
                    |out, k, ind, d| {
                        items[k].write(out, ind, d);
                    },
                );
            }
            Json::Obj(fields) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    ('{', '}'),
                    false,
                    fields.len(),
                    |out, k, ind, d| {
                        let (key, value) = &fields[k];
                        write_escaped(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        value.write(out, ind, d);
                    },
                );
            }
        }
    }
}

/// Shared layout for arrays and objects: `flat` keeps everything on one
/// line regardless of pretty mode.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    flat: bool,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>, usize),
) {
    out.push(brackets.0);
    let pretty = indent.filter(|_| !flat && len > 0);
    for k in 0..len {
        if k > 0 {
            out.push(',');
        }
        if let Some(step) = pretty {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, k, indent, depth + 1);
    }
    if let Some(step) = pretty {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(brackets.1);
}

/// Deterministic float formatting: shortest round-trip decimal for finite
/// values (Rust's `{:?}`, e.g. `1.0`, `12.35`, `1e300`), `null` for
/// non-finite ones (JSON has no NaN/inf).
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
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

/// Deepest container nesting [`parse`] accepts. Artifacts nest about 8
/// deep; the cap turns a hostile document (say 200k `[`) into an `Err`
/// instead of a stack overflow in the recursive descent.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Numbers without `.`/exponent/sign parse as
/// [`Json::Uint`]; everything else as [`Json::Num`]. Runs in time linear
/// in the document size; containers nested more than 128 deep are an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parse the value at `pos`, which sits inside `depth` open containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "containers nested deeper than {MAX_DEPTH} at byte {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::Uint(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the whole run up to the next quote or backslash at once.
        // Both are ASCII, so the run ends on a UTF-8 boundary, and
        // validating each byte once keeps parsing linear.
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        let run =
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8 in string")?;
        out.push_str(run);
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        // BMP only — the emitter never produces surrogates.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_parse_round_trip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("gsu19 \"quoted\"\n".into())),
            ("text".into(), Json::Str("é€ tab\t\u{1} end\\".into())),
            ("seed".into(), Json::Uint(u64::MAX)),
            ("time".into(), Json::Num(12.375)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "grid".into(),
                Json::Arr(vec![Json::Uint(512), Json::Uint(1024)]),
            ),
        ]);
        for text in [doc.emit(), doc.emit_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // 2^53 + 1 is the first integer an f64 path would corrupt.
        let seed = (1u64 << 53) + 1;
        let text = Json::Uint(seed).emit();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn floats_use_shortest_round_trip() {
        assert_eq!(Json::Num(1.0).emit(), "1.0");
        assert_eq!(Json::Num(12.35).emit(), "12.35");
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
        assert_eq!(Json::Num(f64::INFINITY).emit(), "null");
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = parse(r#"{"b":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
    }

    #[test]
    fn emission_is_deterministic() {
        let doc = Json::Obj(vec![
            ("x".into(), Json::Num(0.1)),
            (
                "y".into(),
                Json::Arr(vec![Json::Num(1e300), Json::Num(-0.5)]),
            ),
        ]);
        assert_eq!(doc.emit_pretty(), doc.emit_pretty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#""abc"#).is_err());
        assert!(parse(r#""abc\"#).is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        let err = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn nested_pretty_output_shape() {
        let doc = Json::Obj(vec![(
            "t".into(),
            Json::Arr(vec![Json::Num(0.5), Json::Num(1.0)]),
        )]);
        // Scalar arrays stay on one line in pretty mode.
        assert_eq!(doc.emit_pretty(), "{\n  \"t\": [0.5,1.0]\n}\n");
    }
}
