//! Content fingerprints (FNV-1a, 64-bit).
//!
//! A real pipeline would use SHA-256 certificate fingerprints; the role the
//! fingerprint plays in the methodology is only *identity* (deduplicating
//! certificates and keying certificate groups), for which a well-mixed
//! 64-bit hash over the canonical byte encoding is sufficient in a
//! simulation of this size.

use std::fmt;

pub use mx_obs::trace::Fnv1a;

/// FNV-1a over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    Fnv1a::new().feed(data).digest64()
}

/// Keyed hash: FNV-1a over `seed` (big-endian) followed by each part
/// and a NUL terminator. The house primitive for deriving deterministic
/// per-entity choices from a seed and a name.
pub fn h64(seed: u64, parts: &[&str]) -> u64 {
    parts
        .iter()
        .fold(Fnv1a::new().feed_u64(seed), |h, p| h.feed(p.as_bytes()).feed(&[0]))
        .digest64()
}

/// A 64-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprint a byte slice.
    pub fn of(data: &[u8]) -> Fingerprint {
        Fingerprint(fnv1a(data))
    }

    /// Combine with more data (chained hashing).
    pub fn chain(self, data: &[u8]) -> Fingerprint {
        Fingerprint(Fnv1a::resume(self.0).feed(data).digest64())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chain_equals_concat() {
        let direct = Fingerprint::of(b"hello world");
        let chained = Fingerprint::of(b"hello ").chain(b"world");
        assert_eq!(direct, chained);
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(Fingerprint::of(b"mx.google.com"), Fingerprint::of(b"mx.googie.com"));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Fingerprint(0xdeadbeef).to_string(), "00000000deadbeef");
    }
}
