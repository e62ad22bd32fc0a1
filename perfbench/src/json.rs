//! A minimal JSON writer for the result line, span dumps and trajectory
//! records.  Numbers keep every digit Rust's shortest round-trip formatting
//! gives them; non-finite numbers become `null`.

use std::fmt::{self, Write};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn int(v: usize) -> Json {
        Json::Int(i64::try_from(v).expect("count fits in i64"))
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_with_escapes() {
        let v = Json::obj([
            ("a", Json::Num(1.25)),
            (
                "b",
                Json::Arr(vec![Json::Int(-3), Json::Null, Json::Bool(true)]),
            ),
            ("c\"q", Json::str("line\nbreak\\")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": 1.25, "b": [-3, null, true], "c\"q": "line\nbreak\\", "d": null}"#
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).to_string(), "3");
    }
}
