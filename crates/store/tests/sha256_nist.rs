//! Verifies the in-crate SHA-256 implementation against the NIST test
//! vectors, as the `sp_store::sha256` module docs promise.
//!
//! Vectors come from FIPS 180-2 (appendix B examples) and the NIST
//! Cryptographic Algorithm Validation Program `SHA256ShortMsg.rsp` /
//! `SHA256LongMsg.rsp` response files.

use sp_store::sha256::{digest, to_hex, Sha256};

fn hex_digest(data: &[u8]) -> String {
    to_hex(&digest(data))
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex string");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

/// FIPS 180-2 appendix B: the three worked examples.
#[test]
fn fips_180_2_worked_examples() {
    assert_eq!(
        hex_digest(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
    assert_eq!(
        hex_digest(&vec![b'a'; 1_000_000]),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

/// CAVP SHA256ShortMsg.rsp: a spread of message lengths from 0 to 64
/// bytes, covering every padding regime of the 64-byte block.
#[test]
fn cavp_short_message_vectors() {
    // (message hex, expected digest hex)
    let vectors: &[(&str, &str)] = &[
        // Len = 0
        (
            "",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        // Len = 8
        (
            "d3",
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1",
        ),
        // Len = 16
        (
            "11af",
            "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98",
        ),
        // Len = 24
        (
            "b4190e",
            "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2",
        ),
        // Len = 32
        (
            "74ba2521",
            "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e",
        ),
        // Len = 256 (32 bytes — one full hash-width message)
        (
            "294af4802e5e925eb1c6cc9c724f09dbc9c14ee0665fc6f3e90cc410082c5baa",
            "ec06475dc47e36abd9a25564fc823bf4486fb6cb6d0f391db1980fd36786ced1",
        ),
        // Len = 512 (64 bytes — exactly one block, padding spills over)
        (
            "3592ecfd1eac618fd390e7a9c24b656532509367c21a0eac1212ac83c0b20cd896eb72b801c4d212c5452bbbf09317b50c5c9fb1997553d2bbc29bb42f5748ad",
            "105a60865830ac3a371d3843324d4bb5fa8ec0e02ddaa389ad8da4f10215c454",
        ),
    ];
    for (msg_hex, want) in vectors {
        let msg = unhex(msg_hex);
        assert_eq!(&hex_digest(&msg), want, "message {msg_hex}");
    }
}

/// FIPS 180-2 appendix B.2-style long-message vectors: the 896-bit
/// two-block message (whose padding spills into a third block) and the
/// million-`a` message, each through the one-shot fast path *and* the
/// incremental interface.
#[test]
fn nist_long_message_vectors() {
    let two_block = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    let want_two_block = "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1";
    assert_eq!(to_hex(&Sha256::digest_of(two_block)), want_two_block);
    let mut incremental = Sha256::new();
    incremental.update(&two_block[..64]);
    incremental.update(&two_block[64..]);
    assert_eq!(to_hex(&incremental.finalize()), want_two_block);

    let million = vec![b'a'; 1_000_000];
    let want_million = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
    assert_eq!(to_hex(&Sha256::digest_of(&million)), want_million);
    let mut incremental = Sha256::new();
    for chunk in million.chunks(997) {
        incremental.update(chunk);
    }
    assert_eq!(to_hex(&incremental.finalize()), want_million);
}

/// Multi-block boundary sweep: every length from 0 to 200 bytes agrees
/// between the one-shot fast path, the incremental hasher fed in one call
/// and the incremental hasher fed piecewise, covering both padding regimes
/// of every final-block layout.
#[test]
fn oneshot_incremental_and_writer_agree_on_every_boundary() {
    let data: Vec<u8> = (0u32..200).map(|i| (i * 131 % 251) as u8).collect();
    for len in 0..=data.len() {
        let oneshot = Sha256::digest_of(&data[..len]);
        let mut h = Sha256::new();
        h.update(&data[..len]);
        assert_eq!(h.finalize(), oneshot, "incremental at len {len}");
        let mut pieces = Sha256::new();
        for piece in data[..len].chunks(7) {
            pieces.update(piece);
        }
        assert_eq!(pieces.finalize(), oneshot, "piecewise at len {len}");
    }
}

/// CAVP-style multi-block messages exercising the streaming interface: the
/// digest of a long message must not depend on how it is chunked.
#[test]
fn streaming_equals_one_shot_on_nist_lengths() {
    let message: Vec<u8> = (0u32..4096).map(|i| (i * 31 % 251) as u8).collect();
    let reference = digest(&message);
    for chunk in [1usize, 3, 55, 56, 63, 64, 65, 512, 1000] {
        let mut hasher = Sha256::new();
        for part in message.chunks(chunk) {
            hasher.update(part);
        }
        assert_eq!(hasher.finalize(), reference, "chunk size {chunk}");
    }
}

/// The monte-carlo style chained construction from the CAVP suite
/// (simplified): repeatedly hashing the previous digest must be stable.
#[test]
fn chained_digest_is_deterministic() {
    let mut seed = digest(b"sp-system");
    for _ in 0..1000 {
        seed = digest(&seed);
    }
    let mut again = digest(b"sp-system");
    for _ in 0..1000 {
        again = digest(&again);
    }
    assert_eq!(seed, again);
}
