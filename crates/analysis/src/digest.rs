//! Content digests over canonical JSON.
//!
//! The tracked reports' `--resume` cache (`ssle-fabric`) stores cell
//! results under a **content address**: the digest of the cell's exact
//! JSON spec.  Two
//! producers must therefore agree on the digested *bytes*, not just on the
//! JSON *value* — [`JsonValue`] objects are insertion-ordered, so the same
//! logical object can serialize to different texts.  [`canonical_json`]
//! removes that freedom (object keys sorted recursively, compact emission),
//! and [`content_digest`] hashes the canonical text with a 128-bit FNV-1a —
//! not cryptographic, but with 128 bits the accidental-collision probability
//! across any realistic cache population is negligible, and the function is
//! dependency-free and byte-stable across platforms.

use crate::json::JsonValue;

/// The FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;

/// The FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// The 128-bit FNV-1a digest of a byte string.
///
/// FNV-1a folds each byte into the running hash with XOR then multiplies by
/// the FNV prime; the 128-bit variant uses wrapping `u128` arithmetic.  It
/// is *not* collision-resistant against an adversary — the cell cache is a
/// local performance layer, not an integrity boundary.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash = FNV128_OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// Serializes a JSON value to its **canonical** text: compact (no
/// whitespace), with every object's keys sorted lexicographically, applied
/// recursively.  Array order is preserved (it is semantically significant).
///
/// Two values that differ only in object-key insertion order canonicalize to
/// identical text; this is the digest pre-image used by [`content_digest`].
///
/// # Panics
///
/// Panics if the value contains a non-finite number, exactly like
/// [`JsonValue::to_json`] — a digest of a value that cannot be serialized
/// exactly would be meaningless.
pub fn canonical_json(value: &JsonValue) -> String {
    canonicalize(value).to_json()
}

/// The recursive key-sorting half of [`canonical_json`].
fn canonicalize(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(canonicalize).collect()),
        JsonValue::Object(entries) => {
            let mut sorted: Vec<(String, JsonValue)> = entries
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            // Stable: duplicate keys (never produced by our emitters, but
            // representable) keep their relative order.
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            JsonValue::Object(sorted)
        }
        other => other.clone(),
    }
}

/// The content digest of a JSON value: the 128-bit FNV-1a of its
/// [`canonical_json`] text, rendered as 32 lowercase hex digits.
///
/// This is the cell cache's key: insensitive to object-key order,
/// sensitive to every semantic detail of the value (including the
/// exact-decimal-string encoding full-width integers use).
pub fn content_digest(value: &JsonValue) -> String {
    format!("{:032x}", fnv1a_128(canonical_json(value).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // The canonical FNV-1a test vectors (empty string, "a", "foobar").
        assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv1a_128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(fnv1a_128(b"foobar"), 0x343e1662793c64bf6f0d3597ba446f18);
    }

    #[test]
    fn canonical_json_sorts_object_keys_recursively() {
        let a = JsonValue::object()
            .with("zeta", 1.0)
            .with("alpha", JsonValue::object().with("b", 2.0).with("a", 3.0));
        let b = JsonValue::object()
            .with("alpha", JsonValue::object().with("a", 3.0).with("b", 2.0))
            .with("zeta", 1.0);
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(canonical_json(&a), r#"{"alpha":{"a":3,"b":2},"zeta":1}"#);
        assert_eq!(content_digest(&a), content_digest(&b));
    }

    #[test]
    fn array_order_is_semantic_and_preserved() {
        let a = JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]);
        let b = JsonValue::Array(vec![JsonValue::from(2u64), JsonValue::from(1u64)]);
        assert_eq!(canonical_json(&a), "[1,2]");
        assert_ne!(content_digest(&a), content_digest(&b));
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let base = JsonValue::object()
            .with("job", "stabilization-cell")
            .with("seed", "18446744073709551615");
        let other = JsonValue::object()
            .with("job", "stabilization-cell")
            .with("seed", "18446744073709551614");
        assert_ne!(content_digest(&base), content_digest(&other));
        // Stable across calls (pure function of the value).
        assert_eq!(content_digest(&base), content_digest(&base));
        assert_eq!(content_digest(&base).len(), 32);
        assert!(content_digest(&base).chars().all(|c| c.is_ascii_hexdigit()));
    }
}
