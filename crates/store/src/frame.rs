//! The sealed frame around every durable record the fleet hands off:
//! queue submissions, leases, reports, worker stats and poison marks
//! (`SPWQ`, `SPWL`, `SPWR`, `SPWT`, `SPWP`), run-log batches (`SPRL`)
//! and metrics snapshots (`SPMS`).
//!
//! ```text
//! magic (4 bytes) | version u32 LE (1) | body | SHA-256 of everything before it
//! ```
//!
//! A frame that fails any check — short, foreign magic, unknown version,
//! digest mismatch — is dropped, never trusted. The body is the record
//! kind's own business; the frame only says whether to look at it.

use crate::sha256::Sha256;

/// The only frame version written or accepted.
const VERSION: u32 = 1;
/// Magic plus version.
const HEADER: usize = 8;
/// The SHA-256 trailer.
const DIGEST: usize = 32;

/// Seals the body that `write_body` appends: magic, version, body, then
/// the SHA-256 of all of it.
pub fn seal(magic: &[u8; 4], write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(magic);
    out.extend_from_slice(&VERSION.to_le_bytes());
    write_body(&mut out);
    let digest = Sha256::digest_of(&out);
    out.extend_from_slice(&digest);
    out
}

/// The body of a sealed `magic` frame, borrowed from `bytes`; `None` on
/// any magic, version, length or digest mismatch.
pub fn unseal<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Option<&'a [u8]> {
    if bytes.len() < HEADER + DIGEST
        || bytes[..4] != magic[..]
        || bytes[4..HEADER] != VERSION.to_le_bytes()
    {
        return None;
    }
    let (framed, digest) = bytes.split_at(bytes.len() - DIGEST);
    (Sha256::digest_of(framed) == digest).then_some(&framed[HEADER..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseal_returns_the_body_and_rejects_any_other_frame() {
        let sealed = seal(b"SPXX", |out| out.extend_from_slice(b"body"));
        assert_eq!(unseal(b"SPXX", &sealed), Some(b"body".as_slice()));
        assert_eq!(unseal(b"SPYY", &sealed), None);
        let mut version_two = sealed.clone();
        version_two[4] = 2;
        let digest = Sha256::digest_of(&version_two[..version_two.len() - DIGEST]);
        let end = version_two.len() - DIGEST;
        version_two[end..].copy_from_slice(&digest);
        assert_eq!(unseal(b"SPXX", &version_two), None, "unknown version");
        assert_eq!(unseal(b"SPXX", &sealed[..HEADER + DIGEST - 1]), None);
        // An empty body is still a frame.
        assert_eq!(unseal(b"SPXX", &seal(b"SPXX", |_| {})), Some(&[][..]));
    }
}
