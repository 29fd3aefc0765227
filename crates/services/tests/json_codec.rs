//! The JSON codec checked against references.
//!
//! The compact writer (`Serialize::write_json`, behind
//! `serde_json::to_string`/`to_vec`) must emit byte for byte what the
//! renderer it replaced emitted. That renderer is kept below as the
//! reference: it converts every value to a tree with
//! `Serialize::to_value` and formats every number into its own `String`
//! with `format!`. String parsing is pinned to the values and errors the
//! parser returned before it learned to copy runs of characters in one
//! step.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use serde::Serialize;
use serde_json::{Map, Number, Value};

// ---------------------------------------------------------------------
// The reference renderer
// ---------------------------------------------------------------------

fn reference_to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    reference_write(&mut out, &value.to_value());
    out
}

fn reference_write(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => reference_number(out, n),
        Value::String(s) => reference_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_write(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_escaped(out, key);
                out.push(':');
                reference_write(out, item);
            }
            out.push('}');
        }
    }
}

fn reference_number(out: &mut String, n: &Number) {
    if let Some(v) = n.as_u64() {
        out.push_str(&v.to_string());
    } else if let Some(v) = n.as_i64() {
        out.push_str(&v.to_string());
    } else {
        let v = n.as_f64().expect("every number has an f64 view");
        if v.is_finite() {
            let text = format!("{v}");
            let looks_integral = !text.contains(['.', 'e', 'E']);
            out.push_str(&text);
            if looks_integral {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }
}

fn reference_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A finite float of one of the kinds the writer formats differently.
fn any_float(rng: &mut TestRng) -> f64 {
    let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
    let magnitude = match rng.below(8) {
        // Integral, printed with a trailing `.0`.
        0 => (rng.next_u64() % 10_000_000) as f64,
        // Zero; the sign makes it -0.0 half the time.
        1 => 0.0,
        // Subnormal: a zero exponent field and a random mantissa.
        2 => f64::from_bits(rng.next_u64() & ((1 << 52) - 1)),
        // At least 1e21, where other printers switch to exponents.
        3 => 1e21 * (1.0 + rng.next_f64()) * 10f64.powi(rng.below(280) as i32),
        // Below 1e-7, the other side of that switch.
        4 => 1e-7 * rng.next_f64() * 10f64.powi(-(rng.below(290) as i32)),
        // Integral floats around 2^53, where integers stop being exact.
        5 => 2f64.powi(53) + (rng.next_u64() % 4096) as f64,
        // Any finite bit pattern.
        6 => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v.abs();
            }
        },
        _ => rng.next_f64() * 1000.0,
    };
    sign * magnitude
}

fn any_integer(rng: &mut TestRng) -> Number {
    match rng.below(6) {
        0 => Number::from(i64::MIN),
        1 => Number::from(u64::MAX),
        2 => Number::from(rng.next_u64()),
        3 => Number::from(-((rng.next_u64() >> 1) as i64) - 1),
        4 => Number::from(rng.below(100) as i64 - 50),
        _ => Number::from(0u8),
    }
}

/// Characters that need every kind of escape, and some that need none.
const ALPHABET: [char; 20] = [
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}', '\u{01}',
    '\u{1f}', '\u{7f}', 'é', '中', '😀', '\u{2028}',
];

fn any_string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect()
}

/// JSON values nested up to `depth` levels of arrays and objects.
struct AnyValue {
    depth: usize,
}

impl AnyValue {
    fn value(&self, rng: &mut TestRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::from(any_float(rng)),
            3 => Value::Number(any_integer(rng)),
            4 => Value::String(any_string(rng)),
            5 => (0..rng.below(5)).map(|_| self.value(rng, depth - 1)).collect(),
            _ => Value::Object(
                (0..rng.below(5)).map(|_| (any_string(rng), self.value(rng, depth - 1))).collect(),
            ),
        }
    }
}

impl Strategy for AnyValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        self.value(rng, self.depth)
    }
}

/// Typed data of every container the writer serialises without a tree.
struct Typed {
    floats: Vec<f64>,
    narrow: [f32; 3],
    series: BTreeMap<String, Vec<i64>>,
    maybe: Vec<Option<u64>>,
    pairs: Vec<(String, f64)>,
    triple: (u8, bool, char),
    set: BTreeSet<i32>,
    boxed: Box<str>,
    map: Map<String, Value>,
}

struct AnyTyped;

impl Strategy for AnyTyped {
    type Value = Typed;

    fn generate(&self, rng: &mut TestRng) -> Typed {
        let mut floats: Vec<f64> = (0..rng.below(8)).map(|_| any_float(rng)).collect();
        // Non-finite floats render as null.
        floats.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY].into_iter().take(rng.below(4)));
        let value = AnyValue { depth: 2 };
        Typed {
            narrow: [any_float(rng) as f32, rng.next_f64() as f32, f32::NAN],
            series: (0..rng.below(4))
                .map(|_| {
                    (any_string(rng), (0..rng.below(4)).map(|_| rng.next_u64() as i64).collect())
                })
                .collect(),
            maybe: (0..rng.below(4))
                .map(|_| (rng.next_u64() & 1 == 0).then(|| rng.next_u64()))
                .collect(),
            pairs: (0..rng.below(3)).map(|_| (any_string(rng), any_float(rng))).collect(),
            triple: (rng.below(256) as u8, rng.next_u64() & 1 == 1, ALPHABET[rng.below(20)]),
            set: (0..rng.below(5)).map(|_| rng.next_u64() as i32).collect(),
            boxed: any_string(rng).into_boxed_str(),
            map: (0..rng.below(4)).map(|_| (any_string(rng), value.generate(rng))).collect(),
            floats,
        }
    }
}

/// Checks one value's writer output against the reference renderer.
fn matches_reference<T: Serialize + ?Sized>(value: &T) -> TestCaseResult {
    let written = serde_json::to_string(value).expect("writing never fails");
    prop_assert_eq!(&written, &reference_to_string(value));
    prop_assert_eq!(serde_json::to_vec(value).expect("writing never fails"), written.into_bytes());
    Ok(())
}

// ---------------------------------------------------------------------
// Writer equivalence
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn writer_matches_the_tree_renderer_and_round_trips(value in AnyValue { depth: 3 }) {
        matches_reference(&value)?;
        let written = serde_json::to_string(&value).expect("writing never fails");
        prop_assert_eq!(&value.to_string(), &written);
        prop_assert_eq!(serde_json::from_str::<Value>(&written).expect("parses"), value);
    }

    #[test]
    fn typed_writers_match_the_tree_renderer(typed in AnyTyped) {
        matches_reference(&typed.floats)?;
        matches_reference(&typed.floats[..])?;
        matches_reference(&typed.narrow)?;
        matches_reference(&typed.series)?;
        matches_reference(&typed.maybe)?;
        matches_reference(&typed.pairs)?;
        matches_reference(&typed.triple)?;
        matches_reference(&typed.set)?;
        matches_reference(&typed.boxed)?;
        matches_reference(&typed.map)?;
        matches_reference(&Some(&typed.map))?;
    }
}

#[test]
fn every_kind_of_number_matches_the_tree_renderer() {
    let floats = [
        0.0,
        -0.0,
        1.0,
        -2.0,
        0.1,
        123_456_789.125,
        f64::MIN_POSITIVE,
        5e-324,
        -2.225e-308,
        1e21,
        1.5e22,
        -1e300,
        1e-7,
        9.999e-8,
        -3e-300,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
    ];
    let mut values: Vec<Value> = floats.iter().map(|&v| Value::from(v)).collect();
    values.extend([i64::MIN, i64::MAX, -1, 0].map(Value::from));
    values.extend([u64::MAX, 1].map(Value::from));
    for value in &values {
        assert_eq!(serde_json::to_string(value).unwrap(), reference_to_string(value));
    }
    assert_eq!(serde_json::to_string(&floats[..]).unwrap(), reference_to_string(&floats[..]));
    let pinned = [
        (Value::from(-0.0), "-0.0"),
        (Value::from(2.0), "2.0"),
        (Value::from(1e21), "1000000000000000000000.0"),
        (Value::from(1e-7), "0.0000001"),
        (Value::from(f64::NAN), "null"),
        (Value::from(i64::MIN), "-9223372036854775808"),
        (Value::from(u64::MAX), "18446744073709551615"),
        (Value::from("tab\tquote\"nul\u{0}"), r#""tab\tquote\"nul\u0000""#),
    ];
    for (value, text) in pinned {
        assert_eq!(serde_json::to_string(&value).unwrap(), text);
    }
}

// ---------------------------------------------------------------------
// String parsing
// ---------------------------------------------------------------------

#[test]
fn string_parsing_returns_what_it_always_returned() {
    let parsed = [
        (r#""plain""#, "plain"),
        (r#""""#, ""),
        (r#""a\"b\\c\/d\ne\rf\tg\bh\fi""#, "a\"b\\c/d\ne\rf\tg\u{08}h\u{0c}i"),
        (r#""\u00e9\u4E2D\u0000\u001f""#, "é中\u{00}\u{1f}"),
        (r#""\ud83d\ude00 \uD834\uDD1E""#, "😀 𝄞"),
        ("\"héllo 中文 😀 \u{2028}\"", "héllo 中文 😀 \u{2028}"),
        ("\"raw\u{01}\t\n\u{1f}\u{7f}\"", "raw\u{01}\t\n\u{1f}\u{7f}"),
        (r#""é\n中\"😀\\""#, "é\n中\"😀\\"),
    ];
    for (doc, expected) in parsed {
        assert_eq!(serde_json::from_str::<Value>(doc), Ok(Value::from(expected)), "{doc}");
    }
    let object: Value = serde_json::from_str(r#"{"k\u00e9y": ["v\"al", "中"], "": "\\"}"#).unwrap();
    assert_eq!(object, serde_json::json!({"kéy": ["v\"al", "中"], "": "\\"}));

    let refused = [
        (r#""\ud83d""#, "unpaired surrogate at byte 7"),
        (r#""\ud83d\u0041""#, "invalid low surrogate at byte 13"),
        (r#""\udc00""#, "invalid unicode escape at byte 7"),
        (r#""abc"#, "unterminated string at byte 4"),
        ("\"中文", "unterminated string at byte 7"),
        (r#""\x""#, "invalid escape at byte 3"),
        (r#""\"#, "unterminated escape at byte 2"),
        (r#""\u12""#, "truncated unicode escape at byte 3"),
        (r#""\uzzzz""#, "invalid hex at byte 3"),
        ("\"\\u0éé\"", "invalid unicode escape at byte 3"),
    ];
    for (doc, message) in refused {
        let error = serde_json::from_str::<Value>(doc).map_err(|e| e.to_string());
        assert_eq!(error, Err(message.to_owned()), "{doc}");
    }
}
