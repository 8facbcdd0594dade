//! FNV-1a hashing for deterministic seeds and synthetic content.
//!
//! Content addressing uses [`sha256`](crate::sha256); FNV-1a is the cheap
//! non-cryptographic companion used wherever the workspace needs a stable
//! `u64` derived from a name — per-test seeds, synthetic binary payloads.
//! It lives here so every crate hashes identically; seeds and object
//! contents derived from it must never diverge between crates.

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub(crate) const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a string.
pub fn fnv64(s: &str) -> u64 {
    fnv64_extend(FNV64_OFFSET, s.as_bytes())
}

/// Continues the FNV-1a `hash` of some bytes over `bytes`, so text held
/// in pieces hashes as if it were joined.
pub(crate) fn fnv64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(fnv64("h1rec/1"), fnv64("h1rec/2"));
    }
}
