//! Free-form JSON in and out through the vendored `serde_json` shim,
//! which parses only into `Deserialize` types: [`Doc`] is the type that
//! accepts any document as the shim's own `Value` tree.

use serde::{Deserialize, Serialize, Value};

/// Any JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc(pub Value);

impl Deserialize for Doc {
    fn from_value(v: &Value) -> Result<Doc, serde::Error> {
        Ok(Doc(v.clone()))
    }
}

impl Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Parses `text` into a `Value` tree.
///
/// # Errors
///
/// The shim's message for malformed JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Doc>(text)
        .map(|d| d.0)
        .map_err(|e| e.to_string())
}

/// Compact JSON text of `value`.
pub fn to_line(value: Value) -> String {
    serde_json::to_string(&Doc(value)).expect("the shim's writer is infallible")
}

/// Indented JSON text of `value`.
pub fn to_pretty(value: Value) -> String {
    serde_json::to_string_pretty(&Doc(value)).expect("the shim's writer is infallible")
}

/// Member `key` of a map value.
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Any numeric value as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Builds a map value from `(key, value)` pairs, in order.
pub fn map<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}
