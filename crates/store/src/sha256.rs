//! Minimal, dependency-free SHA-256 (FIPS 180-4).
//!
//! Content addressing is load-bearing for the sp-system: artifact tar-balls,
//! test inputs and test outputs are all stored by digest so that "all scripts
//! and input files used in the test as well as all output files are kept" and
//! any later run can be compared bit-for-bit against any earlier one. Because
//! every object on the hot path passes through here, the implementation is
//! tuned rather than a straight specification transcription:
//!
//! * whole 64-byte input blocks are compressed straight out of the caller's
//!   slice, one run of blocks at a time, instead of being staged through
//!   the pending-block buffer;
//! * each run goes to one of two kernels, picked at run time by
//!   `is_x86_feature_detected!`: the x86 SHA extensions (SHA-NI) where the
//!   CPU has them, otherwise the portable scalar kernel, which is also the
//!   tests' reference. The build targets the baseline CPU, so one binary
//!   runs on every machine a conserved image may land on;
//! * the SHA-NI kernel is `#[inline(never)]`, so it is compiled once, as a
//!   function of its own, and never merged into a caller built with other
//!   target features. Its `sha256*` instructions exist only in legacy-SSE
//!   encoding. In a build that enabled AVX for the whole program (tuned
//!   to the host CPU), variants that were inlined, or that spilled the
//!   message schedule to the stack, interleaved them with VEX-encoded code
//!   and hashed at 10-12 MB/s instead of ~1.6 GB/s;
//! * the scalar kernel unrolls the 64 rounds eight at a time with the
//!   working variables renamed per round, so no register shuffle survives
//!   in the loop body;
//! * [`Sha256::digest_of`] is a one-shot fast path that pads on the stack;
//!   the incremental [`finalize`](Sha256::finalize) pads the same way.
//!
//! Correctness is pinned by the NIST short- and long-message vectors, an
//! incremental-equals-oneshot property test over random chunkings, and a
//! unit test holding the SHA-NI kernel to the scalar one.

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
static K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block awaiting compression.
    buf: [u8; 64],
    /// Number of valid bytes in `buf` (< 64).
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest: hashes whole blocks straight out of `data` and pads
    /// the tail on the stack, touching no intermediate buffer at all.
    pub fn digest_of(data: &[u8]) -> [u8; 32] {
        let mut state = H0;
        let (blocks, tail) = data.as_chunks::<64>();
        compress_blocks(&mut state, blocks);
        finish(state, tail, data.len() as u64)
    }

    /// Absorbs `data` into the hash state. Whole blocks are compressed
    /// directly from `data`; only a sub-block tail is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // Data fit entirely in the pending block; nothing to chunk.
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        finish(self.state, &self.buf[..self.buf_len], self.total_len)
    }
}

/// Pads the last `tail` (< 64 bytes) of a `total_len`-byte message on the
/// stack, compresses it and returns the big-endian digest. Padding is
/// 0x80, zeros, then the 64-bit big-endian bit length: one block, or two
/// when the length field no longer fits behind the tail.
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> [u8; 32] {
    let mut pad = [[0u8; 64]; 2];
    let blocks = if tail.len() < 56 { 1 } else { 2 };
    let flat = pad.as_flattened_mut();
    flat[..tail.len()].copy_from_slice(tail);
    flat[tail.len()] = 0x80;
    flat[blocks * 64 - 8..blocks * 64].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress_blocks(&mut state, &pad[..blocks]);
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses a run of whole blocks into `state` with the SHA-NI kernel
/// where the CPU has it, else with the scalar [`compress_block`].
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if blocks.is_empty() {
        return;
    }
    if sha_ni() {
        // SAFETY: the CPU supports every feature the kernel enables.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            compress_blocks_sha_ni(state, blocks)
        };
        return;
    }
    for block in blocks {
        compress_block(state, block);
    }
}

/// Whether this CPU runs [`compress_blocks_sha_ni`]. The standard
/// library caches the detection, so each call is one relaxed load.
fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The SHA-NI kernel: the state and the sliding window of message words
/// stay in registers for the whole run of blocks, and each `sha256rnds2`
/// performs two rounds.
///
/// # Safety
///
/// The CPU must support SHA, SSSE3 and SSE4.1 (see [`sha_ni`]).
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::*;

    // Byte shuffle turning each big-endian message word into a lane.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let k = K.as_ptr().cast::<__m128i>();
    // `sha256rnds2` keeps the state as ABEF/CDGH rather than ABCD/EFGH
    // (names list lanes from high to low).
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let words = block.as_ptr().cast::<__m128i>();
        // Four message words per register; `w0..w3` hold the last four
        // groups of the schedule.
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), be_words);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), be_words);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), be_words);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), be_words);

        /// Four rounds over message group `$w`, the `$g`-th of the block.
        macro_rules! rounds4 {
            ($w:ident, $g:literal) => {
                let wk = _mm_add_epi32($w, _mm_loadu_si128(k.add($g)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            };
        }
        /// Replaces the spent group `$a` with the group four ahead of it.
        macro_rules! schedule {
            ($a:ident, $b:ident, $c:ident, $d:ident) => {
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32($a, $b), _mm_alignr_epi8($d, $c, 4));
                $a = _mm_sha256msg2_epu32(partial, $d);
            };
        }

        rounds4!(w0, 0);
        schedule!(w0, w1, w2, w3);
        rounds4!(w1, 1);
        schedule!(w1, w2, w3, w0);
        rounds4!(w2, 2);
        schedule!(w2, w3, w0, w1);
        rounds4!(w3, 3);
        schedule!(w3, w0, w1, w2);
        rounds4!(w0, 4);
        schedule!(w0, w1, w2, w3);
        rounds4!(w1, 5);
        schedule!(w1, w2, w3, w0);
        rounds4!(w2, 6);
        schedule!(w2, w3, w0, w1);
        rounds4!(w3, 7);
        schedule!(w3, w0, w1, w2);
        rounds4!(w0, 8);
        schedule!(w0, w1, w2, w3);
        rounds4!(w1, 9);
        schedule!(w1, w2, w3, w0);
        rounds4!(w2, 10);
        schedule!(w2, w3, w0, w1);
        rounds4!(w3, 11);
        schedule!(w3, w0, w1, w2);
        rounds4!(w0, 12);
        rounds4!(w1, 13);
        rounds4!(w2, 14);
        rounds4!(w3, 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}

/// The scalar kernel: compresses one 64-byte block into `state`. It runs
/// where SHA-NI is missing and is the reference the tests hold the SHA-NI
/// kernel to.
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    /// One round with explicitly named working variables; successive
    /// invocations rotate the names instead of shuffling eight registers.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$i])
                .wrapping_add(w[$i]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        };
    }

    /// Eight rounds from a literal base index, so every `K`/`w` access
    /// is a compile-time constant and bounds checks fold away.
    macro_rules! round8 {
        ($base:literal) => {
            round!(a, b, c, d, e, f, g, h, $base);
            round!(h, a, b, c, d, e, f, g, $base + 1);
            round!(g, h, a, b, c, d, e, f, $base + 2);
            round!(f, g, h, a, b, c, d, e, $base + 3);
            round!(e, f, g, h, a, b, c, d, $base + 4);
            round!(d, e, f, g, h, a, b, c, $base + 5);
            round!(c, d, e, f, g, h, a, b, $base + 6);
            round!(b, c, d, e, f, g, h, a, $base + 7);
        };
    }

    round8!(0);
    round8!(8);
    round8!(16);
    round8!(24);
    round8!(32);
    round8!(40);
    round8!(48);
    round8!(56);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot convenience digest (the [`Sha256::digest_of`] fast path).
pub fn digest(data: &[u8]) -> [u8; 32] {
    Sha256::digest_of(data)
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// A digest's 64 lowercase hex characters, on the stack.
pub fn hex(digest: &[u8; 32]) -> [u8; 64] {
    let mut buf = [0u8; 64];
    for (pair, b) in buf.chunks_exact_mut(2).zip(digest) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0x0f)];
    }
    buf
}

/// Formats a digest as lowercase hex.
pub fn to_hex(digest: &[u8; 32]) -> String {
    std::str::from_utf8(&hex(digest))
        .expect("hex digits are ASCII")
        .to_string()
}

/// Nibble value of each byte that [`to_hex`] writes; `0xff` for every
/// other byte, uppercase hex digits included.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Parses the 64-character lowercase rendering [`to_hex`] writes. Any
/// other string, uppercase digits included, is `None`, so a decoded
/// digest always re-encodes to the input.
pub fn from_hex(s: &str) -> Option<[u8; 32]> {
    let bytes = s.as_bytes();
    if bytes.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (b, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        let hi = HEX_VALUES[usize::from(pair[0])];
        let lo = HEX_VALUES[usize::from(pair[1])];
        if (hi | lo) > 0x0f {
            return None;
        }
        *b = (hi << 4) | lo;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        to_hex(&digest(data))
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn length_boundary_padding() {
        // 55, 56 and 64 bytes straddle the padding block boundary.
        assert_eq!(
            hex(&[0u8; 55]),
            "02779466cdec163811d078815c633f21901413081449002f24aa3e80f0b88ef7"
        );
        assert_eq!(
            hex(&[0u8; 56]),
            "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb"
        );
        assert_eq!(
            hex(&[0u8; 64]),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
        );
    }

    #[test]
    fn oneshot_matches_incremental_at_every_length() {
        // Every buffer length across two full blocks, so every padding and
        // tail regime of `digest_of` is compared against the incremental
        // path byte for byte.
        let data: Vec<u8> = (0..=255u8).cycle().take(130).collect();
        for len in 0..=130 {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.finalize(), Sha256::digest_of(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 63, 64, 65, 4096, 9_999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches() {
        let data = b"the sp-system conserves the last working image";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), digest(data));
    }

    /// Runs `data` through `kernel` with one-shot padding.
    fn digest_via(kernel: fn(&mut [u32; 8], &[[u8; 64]]), data: &[u8]) -> [u8; 32] {
        let mut state = H0;
        let (blocks, tail) = data.as_chunks::<64>();
        kernel(&mut state, blocks);
        let mut pad = [[0u8; 64]; 2];
        let n = if tail.len() < 56 { 1 } else { 2 };
        let flat = pad.as_flattened_mut();
        flat[..tail.len()].copy_from_slice(tail);
        flat[tail.len()] = 0x80;
        flat[n * 64 - 8..n * 64].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        kernel(&mut state, &pad[..n]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        for block in blocks {
            compress_block(state, block);
        }
    }

    fn report_kernel() {
        if !sha_ni() {
            eprintln!("no SHA-NI on this CPU: only the scalar kernel was exercised");
        }
    }

    #[test]
    fn kernel_matches_scalar_reference_at_every_length_and_split() {
        report_kernel();
        let data: Vec<u8> = (0u32..1100).map(|i| (i * 167 % 251) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let reference = digest_via(scalar, msg);
            assert_eq!(digest_via(compress_blocks, msg), reference, "len {len}");
            assert_eq!(Sha256::digest_of(msg), reference, "digest_of at len {len}");
            for split in [0, 1, 55, 56, 63, 64, 65, len / 2] {
                let split = split.min(len);
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), reference, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn nist_vectors_through_both_kernels() {
        report_kernel();
        let million = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(to_hex(&digest_via(scalar, msg)), want, "scalar kernel");
            assert_eq!(
                to_hex(&digest_via(compress_blocks, msg)),
                want,
                "dispatched kernel"
            );
        }
    }
}
