//! A minimal JSON value: emit, parse, and accessors — the workspace's one
//! JSON value type and parser.
//!
//! Integers are kept exact ([`Json::Int`], `i64`) rather than routed
//! through `f64`, so 64-bit cycle counters round-trip byte-for-byte.

use std::fmt;

use crate::escape_into;

/// Deepest `[`/`{` nesting [`parse`] accepts. The deepest document the
/// workspace writes (a metrics registry's histogram buckets) nests six
/// levels; the cap only exists so hostile input is an `Err`, never a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A non-integer number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    escape_into(f, s)?;
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) if n.is_finite() => {
                // Keep a syntactic marker so the parser reads it back as
                // Num, preserving the Int/Num distinction.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{n:.1}")
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Num(_) => f.write_str("null"), // NaN/inf have no JSON form
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error, or
/// of the first array or object nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text, i: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.s[self.i..];
        self.i += rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_whitespace()).len();
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s.as_bytes().get(self.i).copied().ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected '{}' at byte {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.s[self.i..].starts_with(word) {
            return Err(format!("bad literal at byte {}", self.i));
        }
        self.i += word.len();
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
                }
                self.i += 1;
                self.depth += 1;
                let v = if open == b'[' {
                    self.items(b']', Self::value).map(Json::Arr)
                } else {
                    self.items(b'}', |p| {
                        let key = p.string()?;
                        p.expect(b':')?;
                        Ok((key, p.value()?))
                    })
                    .map(Json::Obj)
                };
                self.depth -= 1;
                v
            }
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
        }
    }

    /// The comma-separated items of an array or object, after its opening
    /// bracket and through the `close` one.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if self.peek()? == close {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek()? {
                b',' => self.i += 1,
                c if c == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected ',' or '{}' at byte {}", close as char, self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.s[self.i..];
            let end = rest.find(['"', '\\']).ok_or("unterminated string")?;
            s.push_str(&rest[..end]);
            self.i += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(s);
            }
            let e = *self.s.as_bytes().get(self.i).ok_or("unterminated escape")?;
            self.i += 1;
            s.push(match e {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let hex = self.s.get(self.i..self.i + 4).ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    self.i += 4;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return Err(format!("bad escape at byte {}", self.i)),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let rest = &self.s[start + 1..];
        let len = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
        self.i = start + 1 + len.unwrap_or(rest.len());
        let text = &self.s[start..self.i];
        if !text[1..].contains(['.', 'e', 'E', '+', '-']) {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Shorthand for building an object.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Shorthand for an integer value from any unsigned counter.
pub fn int(n: u64) -> Json {
    Json::Int(n as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Objects count too, mixed with arrays.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH) + &"]}".repeat(MAX_DEPTH);
        assert!(parse(&mixed).unwrap_err().contains("nesting deeper"));
        // A million unclosed brackets fail at the cap, long before the
        // stack could run out.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn strings_escape_like_json_escape() {
        let s = "q\"b\\n\nt\tr\r\u{1}é";
        let text = Json::Str(s.into()).to_string();
        assert_eq!(text, format!("\"{}\"", crate::json_escape(s)));
        assert_eq!(parse(&text).unwrap(), Json::Str(s.into()));
        let o = obj(vec![("k\"ey", Json::Null)]).to_string();
        assert_eq!(o, "{\"k\\\"ey\":null}");
    }
}
