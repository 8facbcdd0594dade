//! Content addresses for stored objects.

use crate::sha256;

/// A content address: the SHA-256 digest of an object's bytes.
///
/// Everything the sp-system keeps — compiled package tar-balls, test
/// scripts, input files, run outputs, frozen image recipes — is identified
/// by an `ObjectId`, which makes the bookkeeping requirement of the paper
/// ("ensures reproducibility of previous results") checkable: two runs are
/// byte-identical iff their output ids are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub [u8; 32]);

impl ObjectId {
    /// Hashes `data` into its content address (one-shot fast path).
    pub fn for_bytes(data: &[u8]) -> Self {
        ObjectId(sha256::Sha256::digest_of(data))
    }

    /// Full 64-character hex rendering.
    pub fn to_hex(&self) -> String {
        sha256::to_hex(&self.0)
    }

    /// Abbreviated rendering used in logs and report cells.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_string()
    }

    /// Parses the 64-character lowercase hex rendering
    /// [`to_hex`](Self::to_hex) writes; uppercase digits are rejected, so
    /// `from_hex(s).map(|id| id.to_hex())` is `Some(s)` or `None`.
    pub fn from_hex(s: &str) -> Option<Self> {
        sha256::from_hex(s).map(ObjectId)
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short())
    }
}

impl std::fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectId({})", self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let id = ObjectId::for_bytes(b"h1rec-2013-binaries.tar");
        let hex = id.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(ObjectId::from_hex(&hex), Some(id));
    }

    #[test]
    fn from_hex_rejects_garbage() {
        assert_eq!(ObjectId::from_hex(""), None);
        assert_eq!(ObjectId::from_hex("zz"), None);
        let id = ObjectId::for_bytes(b"x");
        let mut hex = id.to_hex();
        hex.pop();
        hex.push('g');
        assert_eq!(ObjectId::from_hex(&hex), None);
    }

    #[test]
    fn from_hex_rejects_uppercase() {
        let id = ObjectId::for_bytes(b"h1oo-4.0.tar");
        let hex = id.to_hex();
        assert!(hex.bytes().any(|b| b.is_ascii_lowercase()), "{hex}");
        assert_eq!(ObjectId::from_hex(&hex.to_ascii_uppercase()), None);
        // One uppercase digit is enough to make the name non-canonical.
        let at = hex.find(|c: char| c.is_ascii_lowercase()).unwrap();
        let mut mixed = hex.clone();
        mixed.replace_range(at..=at, &hex[at..=at].to_ascii_uppercase());
        assert_eq!(ObjectId::from_hex(&mixed), None);
    }

    #[test]
    fn distinct_content_distinct_id() {
        assert_ne!(ObjectId::for_bytes(b"a"), ObjectId::for_bytes(b"b"));
    }

    #[test]
    fn short_is_prefix() {
        let id = ObjectId::for_bytes(b"prefix");
        assert!(id.to_hex().starts_with(&id.short()));
        assert_eq!(id.short().len(), 12);
    }
}
