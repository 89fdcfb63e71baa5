//! Workload inputs derived from the seed: keys, and values that are a pure
//! function of `(key, version)` so every read can be checked.

use dataflasks::types::{Key, StoredObject, Value, Version};

/// SplitMix64: a fast, well-mixed 64-bit sequence.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keys `0..records` of a workload. The seed is part of each name, so
/// different seeds place the records on different slices.
#[must_use]
pub fn keys(seed: u64, records: usize) -> Vec<Key> {
    (0..records)
        .map(|record| Key::from_user_key(&format!("pb{seed:x}-{record}")))
        .collect()
}

/// The payload written for `key` at `version`.
#[must_use]
pub fn value_for(key: Key, version: Version, len: usize) -> Value {
    let mut state = key.as_u64() ^ version.as_u64().wrapping_mul(0xA24B_AED4_963E_E407);
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        bytes.extend_from_slice(&splitmix(&mut state).to_le_bytes());
    }
    bytes.truncate(len);
    Value::from_bytes(&bytes)
}

/// Whether a read of `key` returned an object consistent with a write:
/// the right key, a version that was written, and exactly the bytes the
/// generator derives for that version.
#[must_use]
pub fn is_genuine(object: &StoredObject, key: Key, highest_written: u64, len: usize) -> bool {
    object.key == key
        && (1..=highest_written).contains(&object.version.as_u64())
        && object.value == value_for(key, object.version, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_a_pure_function_of_key_and_version() {
        let key = Key::from_user_key("k");
        assert_eq!(
            value_for(key, Version::new(3), 100),
            value_for(key, Version::new(3), 100)
        );
        assert_ne!(
            value_for(key, Version::new(3), 100),
            value_for(key, Version::new(4), 100)
        );
        assert_eq!(value_for(key, Version::new(1), 1_024).len(), 1_024);
        assert_eq!(keys(7, 3), keys(7, 3));
        assert_ne!(keys(7, 3), keys(8, 3));
    }

    #[test]
    fn a_hit_must_match_its_version_bytes() {
        let key = Key::from_user_key("k");
        let good = StoredObject::new(key, Version::new(2), value_for(key, Version::new(2), 64));
        assert!(is_genuine(&good, key, 2, 64));
        // A version never written, a wrong key, or swapped bytes all fail.
        assert!(!is_genuine(&good, key, 1, 64));
        assert!(!is_genuine(&good, Key::from_user_key("j"), 2, 64));
        let swapped = StoredObject::new(key, Version::new(2), value_for(key, Version::new(1), 64));
        assert!(!is_genuine(&swapped, key, 2, 64));
    }
}
