//! Small helpers over the vendored `serde` value tree.

use serde::{DeError, Deserialize, Serialize, Value};

/// A value tree that (de)serialises as itself, so `serde_json` can print
/// and parse free-form documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Json(value.clone()))
    }
}

/// An object from `(key, value)` pairs, keeping their order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str::<Json>(text).map(|json| json.0)
}

/// Renders a JSON document on one line.
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Json(value.clone())).expect("a value tree always renders")
}

/// A number of any of the three numeric kinds, as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// A string value's text.
pub fn text(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// An array value's items.
pub fn items(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

/// An object value's entries.
pub fn entries(value: &Value) -> Option<&[(String, Value)]> {
    match value {
        Value::Object(entries) => Some(entries),
        _ => None,
    }
}
