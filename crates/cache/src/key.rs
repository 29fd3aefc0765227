//! Canonical cache keys.
//!
//! A result is reusable only when *everything* that influenced it matches:
//! which process ran, with which inputs, over which catchment, against
//! which revision of the underlying data. [`CacheKey`] folds all four into
//! one totally ordered value. Inputs are canonicalised (objects rendered
//! with sorted keys, compact separators) so `{"a":1,"b":2}` and
//! `{"b":2,"a":1}` are the same key, and the catalogue's data-version
//! stamp means a sensor update silently orphans every stale entry — the
//! cache never has to *find* them to stop serving them.

use std::fmt::{self, Write};

use serde_json::Value;

/// Identity of one cacheable model result.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    process: String,
    catchment: String,
    data_version: u64,
    inputs: String,
    /// FNV-1a of the canonical rendering, computed once in
    /// [`CacheKey::new`]. It is a function of the four fields above and
    /// comes last, so the derived order and equality are theirs.
    fingerprint: u64,
}

impl CacheKey {
    /// Builds a key from the raw parts; `inputs` is canonicalised.
    pub fn new(process: &str, catchment: &str, data_version: u64, inputs: &Value) -> CacheKey {
        let mut key = CacheKey {
            process: process.to_owned(),
            catchment: catchment.to_owned(),
            data_version,
            inputs: canonical_json(inputs),
            fingerprint: 0,
        };
        // Hash the rendering as it streams out, without building it.
        let mut hasher = Fnv1a(FNV_OFFSET);
        let _ = write!(hasher, "{key}");
        key.fingerprint = hasher.0;
        key
    }

    /// The WPS process identifier.
    pub fn process(&self) -> &str {
        &self.process
    }

    /// The catchment the question is about.
    pub fn catchment(&self) -> &str {
        &self.catchment
    }

    /// The catalogue data-version stamp baked into this key.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The canonicalised inputs JSON.
    pub fn inputs_json(&self) -> &str {
        &self.inputs
    }

    /// The canonical rendering — what gets hashed, logged and compared.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// FNV-1a fingerprint of the canonical rendering: the coalescer's map
    /// key and the basis of the L2 blob key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The L2 blob key: content-addressed by the key fingerprint, so a
    /// given question always reads and writes the same object.
    pub fn blob_key(&self) -> String {
        format!("res-{:016x}", self.fingerprint())
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}|{}|v{}|{}", self.process, self.catchment, self.data_version, self.inputs)
    }
}

/// Renders JSON deterministically: object keys sorted, compact separators.
///
/// `serde_json`'s default `Map` already sorts, but canonicalisation is a
/// correctness property here (two spellings of the same inputs must
/// collide), so it is enforced structurally rather than assumed from a
/// feature flag.
pub fn canonical_json(value: &Value) -> String {
    let mut out = String::new();
    write_canonical(value, &mut out);
    out
}

fn write_canonical(value: &Value, out: &mut String) {
    match value {
        Value::Object(map) => {
            let mut entries: Vec<(&String, &Value)> = map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_scalar(&Value::String((*k).clone()), out);
                out.push(':');
                write_canonical(v, out);
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(v, out);
            }
            out.push(']');
        }
        scalar => render_scalar(scalar, out),
    }
}

fn render_scalar(value: &Value, out: &mut String) {
    match serde_json::to_string(value) {
        Ok(s) => out.push_str(&s),
        // Scalars cannot fail to serialise; the fallback keeps the
        // function total without masking object/array structure.
        Err(_) => out.push_str("null"),
    }
}

/// FNV-1a over `bytes` — the same dependency-free hash
/// [`evop_xcloud::Blob::content_hash`] uses, so key fingerprints and blob
/// integrity checks share one well-known function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a(FNV_OFFSET);
    hasher.extend(bytes);
    hasher.0
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a state; as a [`fmt::Write`] sink it hashes formatted
/// output without allocating it.
struct Fnv1a(u64);

impl Fnv1a {
    fn extend(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.extend(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn key_order_in_inputs_does_not_matter() {
        let a = CacheKey::new("topmodel", "eden", 3, &json!({"m": 0.01, "hours": 24}));
        let b = CacheKey::new("topmodel", "eden", 3, &json!({"hours": 24, "m": 0.01}));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_component_separates_keys() {
        let base = CacheKey::new("topmodel", "eden", 3, &json!({"m": 0.01}));
        let other_process = CacheKey::new("fuse", "eden", 3, &json!({"m": 0.01}));
        let other_catchment = CacheKey::new("topmodel", "tarland", 3, &json!({"m": 0.01}));
        let other_version = CacheKey::new("topmodel", "eden", 4, &json!({"m": 0.01}));
        let other_inputs = CacheKey::new("topmodel", "eden", 3, &json!({"m": 0.02}));
        for other in [&other_process, &other_catchment, &other_version, &other_inputs] {
            assert_ne!(&base, other);
            assert_ne!(base.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn canonical_json_sorts_nested_objects() {
        let v = json!({"z": {"b": 1, "a": [2, {"d": 3, "c": 4}]}, "a": true});
        assert_eq!(canonical_json(&v), r#"{"a":true,"z":{"a":[2,{"c":4,"d":3}],"b":1}}"#);
    }

    #[test]
    fn blob_key_is_stable_and_hex() {
        let k = CacheKey::new("topmodel", "eden", 1, &json!({}));
        assert_eq!(k.blob_key(), k.blob_key());
        assert!(k.blob_key().starts_with("res-"));
        assert_eq!(k.blob_key().len(), 4 + 16);
    }
}
