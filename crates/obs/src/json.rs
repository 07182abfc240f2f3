//! A minimal JSON value tree and writer — the only one outside
//! `benchmark/`.
//!
//! Everything that writes JSON (the `--json` / `--metrics` / `--trace`
//! outputs of `dirsim`, the daemon's `/metrics`, `dirload --metrics`)
//! builds a [`Json`] tree and [`Json::render`] writes spec-compliant JSON
//! (escaped strings, `null` for non-finite numbers). A report struct
//! gets its tree from [`ToJson`], which the workspace's vendored
//! `#[derive(Serialize)]` implements: keys are the field names in
//! declaration order, and `#[serde(skip)]` / `#[serde(flatten)]` keep
//! serde's meaning. It lives in this bottom crate so every layer can
//! reach it; `partialtor::json` re-exports it.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// The pairs of an object: what a `#[serde(flatten)]` field adds to
    /// its parent's.
    ///
    /// # Panics
    ///
    /// When the value is not an object (serde rejects a flattened
    /// non-map the same way, when it serializes).
    pub fn into_fields(self) -> Vec<(String, Json)> {
        match self {
            Json::Obj(pairs) => pairs,
            other => panic!("only an object can be flattened, not {other:?}"),
        }
    }

    /// Renders the tree as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(values) => {
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
}

impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Num(value)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Self {
        Json::Num(value as f64)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Self {
        Json::Num(value as f64)
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

/// A value that writes itself as a [`Json`] tree. `#[derive(Serialize)]`
/// implements it for report structs; numbers and booleans go through
/// the `From` conversions above.
pub trait ToJson {
    /// This value as a JSON tree.
    fn to_json(&self) -> Json;
}

macro_rules! to_json_via_from {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::from(*self)
            }
        }
    )*};
}

to_json_via_from!(f64, u64, usize, bool);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(ToJson::to_json))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let value = Json::obj([
            ("name", Json::str("five-of-nine")),
            ("cost", Json::from(53.28)),
            ("hours", Json::from(24u64)),
            ("produced", Json::from(false)),
            ("offset", Json::from(None::<f64>)),
            ("rows", Json::arr([Json::from(1u64), Json::from(2u64)])),
        ]);
        assert_eq!(
            value.render(),
            r#"{"name":"five-of-nine","cost":53.28,"hours":24,"produced":false,"offset":null,"rows":[1,2]}"#
        );
    }

    #[test]
    fn escapes_strings_and_guards_non_finite() {
        let value = Json::arr([
            Json::str("a\"b\\c\nd\te\u{1}"),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
        ]);
        assert_eq!(value.render(), "[\"a\\\"b\\\\c\\nd\\te\\u0001\",null,null]");
    }

    #[test]
    fn numbers_round_trip_at_full_precision() {
        // Rust's f64 Display prints the shortest round-tripping decimal;
        // egress byte counts (< 2^53) and downtimes stay exact.
        assert_eq!(
            Json::from(0.7134408978480847).render(),
            "0.7134408978480847"
        );
        assert_eq!(
            Json::from(9_007_199_254_740_991u64).render(),
            "9007199254740991"
        );
    }
}
