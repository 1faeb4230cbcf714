//! 64-bit FNV-1a: the workspace's one non-cryptographic identity hash
//! (cache fingerprints, checkpoint and job ids, derived seeds, fault
//! decisions). Identity, not security.
//!
//! [`fnv1a_from`] continues a hash from any state, so callers can stream
//! several byte strings through one hash or start from a seeded state.
//!
//! # Examples
//!
//! ```
//! use gemstone_obs::fnv::{fnv1a, fnv1a_from, OFFSET};
//!
//! assert_eq!(fnv1a(b"foobar"), fnv1a_from(fnv1a_from(OFFSET, b"foo"), b"bar"));
//! ```

/// The FNV-1a 64-bit offset basis: the state of an empty hash.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the hash state `state` and returns the new state.
pub fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a of `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
