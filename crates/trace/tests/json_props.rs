//! Property tests for the shared flat-row reader: it is total over any
//! input (an `Ok` or an `Err`, never a panic), and it reads back exactly
//! what [`render_array`] writes.
//!
//! The vendored proptest stand-in has no string strategies, so strings are
//! built from drawn code points, biased towards the characters the writer
//! must escape.

use ouro_trace::json::{read_rows, render_array, JsonObject, Value};
use proptest::prelude::*;

/// Characters that stress the writer's escaping and the reader's
/// borrowed/owned split; drawn code points index into this first.
const NASTY: &[char] = &['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', '\u{7f}', 'é', '字', '😀'];

/// One drawn field: `(kind, payload, code points)`.
type Field = (u8, u64, Vec<u32>);

/// The `(key, value)` pairs the reader must return, row by row.
type Expected = Vec<Vec<(String, Value<String>)>>;

fn string_of(points: &[u32]) -> String {
    points
        .iter()
        .map(|&p| match NASTY.get(p as usize) {
            Some(&c) => c,
            None => char::from_u32(p).unwrap_or('?'),
        })
        .collect()
}

/// The row set drawn fields describe, plus the values the reader must
/// return for it.
fn build(rows: &[Vec<Field>]) -> (Vec<JsonObject>, Expected) {
    let mut objects = Vec::new();
    let mut expected = Vec::new();
    for fields in rows {
        let mut obj = JsonObject::new();
        let mut want = Vec::new();
        for (i, (kind, payload, points)) in fields.iter().enumerate() {
            // The writer takes keys from code and does not escape them, so
            // drawn keys skip the characters that would need escaping. The
            // field index keeps them unique per row.
            let plain: String =
                string_of(points).chars().filter(|c| !matches!(c, '"' | '\\') && !c.is_control()).collect();
            let key = format!("{plain}{i}");
            let value = match kind {
                0 => {
                    let s = string_of(&points.iter().rev().copied().collect::<Vec<_>>());
                    obj = obj.str(&key, &s);
                    Value::Str(s)
                }
                1 => {
                    let x = f64::from_bits(*payload);
                    obj = obj.num(&key, x);
                    if x.is_finite() {
                        Value::Num(x)
                    } else {
                        Value::Null
                    }
                }
                2 => {
                    // Integers read back exactly up to 2^53 (the f64
                    // mantissa) and as their nearest f64 beyond.
                    obj = obj.int(&key, *payload);
                    Value::Num(*payload as f64)
                }
                _ => {
                    obj = obj.null(&key);
                    Value::Null
                }
            };
            want.push((key, value));
        }
        objects.push(obj);
        expected.push(want);
    }
    (objects, expected)
}

fn fields() -> impl Strategy<Value = Vec<Vec<Field>>> {
    let points = proptest::collection::vec(0u32..0x1_0000, 0..10);
    proptest::collection::vec(proptest::collection::vec((0u8..4, 0u64..=u64::MAX, points), 0..8), 0..6)
}

/// Reads `text`, which must not panic; returns whether it parsed.
fn total(text: &str) -> bool {
    read_rows(text).is_ok()
}

proptest! {
    #[test]
    fn render_then_read_is_exact(rows in fields()) {
        let (objects, expected) = build(&rows);
        let text = render_array(&objects);
        let read = read_rows(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert_eq!(read.len(), expected.len());
        for (row, want) in read.into_iter().zip(&expected) {
            let got: Vec<(String, Value<String>)> =
                row.fields.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect();
            prop_assert_eq!(&got, want);
        }
    }

    #[test]
    fn small_ints_read_back_exactly(n in 0u64..=(1u64 << 53)) {
        let text = render_array(&[JsonObject::new().int("n", n)]);
        let rows = read_rows(&text).unwrap();
        prop_assert_eq!(rows[0].get("n").and_then(Value::as_num).map(|x| x as u64), Some(n));
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_row_sets_are_errors(rows in fields(), cut in 0usize..4096) {
        let text = render_array(&build(&rows).0);
        // Cutting anywhere before the closing bracket leaves an unclosed
        // array; cutting inside a multi-byte char is a lossy re-encode.
        let cut = cut % text.len();
        let close = text.rfind(']').unwrap();
        let prefix = String::from_utf8_lossy(&text.as_bytes()[..cut]);
        prop_assert_eq!(total(&prefix), cut > close);
    }

    #[test]
    fn flipped_row_sets_never_panic(rows in fields(), at in 0usize..4096, flip in 1u8..=255) {
        let mut bytes = render_array(&build(&rows).0).into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        total(&String::from_utf8_lossy(&bytes));
    }
}
