//! Minimal, dependency-free SHA-256 (FIPS 180-4).
//!
//! Content addressing is load-bearing for the sp-system: artifact tar-balls,
//! test inputs and test outputs are all stored by digest so that "all scripts
//! and input files used in the test as well as all output files are kept" and
//! any later run can be compared bit-for-bit against any earlier one. Because
//! every object on the hot path passes through here, the implementation is
//! tuned rather than a straight specification transcription:
//!
//! * whole 64-byte input blocks are compressed in place instead of being
//!   staged through the pending-block buffer;
//! * the 64 compression rounds are unrolled eight at a time with the working
//!   variables renamed per round, so no register shuffle survives in the
//!   loop body;
//! * [`Sha256::digest_of`] is a one-shot fast path that pads on the stack
//!   (the incremental [`finalize`](Sha256::finalize) also builds its padding
//!   directly instead of feeding bytes one at a time);
//! * [`HashingWriter`] lets callers digest *while* serialising, so content
//!   addressing needs no second pass over a materialised buffer;
//! * [`digest4`]/[`digest_batch`] hash **four independent messages per
//!   pass** through a 4-way interleaved message schedule (portable
//!   `[u32; 4]` lane arrays, no arch intrinsics — the same shim discipline
//!   as `crates/compat`), which is how batch re-hashing sites (store
//!   verification, snapshot entry guards, filesystem import) beat the
//!   single-message dependency chain;
//! * [`BatchDigester`] abstracts "hash many independent inputs", so
//!   higher layers can substitute a pool-parallel implementation
//!   (`sp_exec::WorkStealingPool`) without this crate depending on one.
//!
//! Correctness is pinned by the NIST short- and long-message vectors plus an
//! incremental-equals-oneshot property test over random chunkings.

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
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

    /// One-shot digest: hashes full blocks straight out of `data` and pads
    /// on the stack, touching no intermediate buffer at all.
    pub fn digest_of(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            h.compress(
                block
                    .try_into()
                    .expect("chunks_exact yields 64-byte blocks"),
            );
        }
        let tail = chunks.remainder();
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut block = [0u8; 64];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
        if tail.len() < 56 {
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
            h.compress(&block);
        } else {
            // The 0x80 marker spilled past the length field: one extra block.
            h.compress(&block);
            let mut last = [0u8; 64];
            last[56..].copy_from_slice(&bit_len.to_be_bytes());
            h.compress(&last);
        }
        h.output()
    }

    /// Absorbs `data` into the hash state. Full blocks are compressed
    /// directly from `data`; only a sub-block tail is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress_block(&mut self.state, &self.buf);
                self.buf_len = 0;
            } else {
                // Data fit entirely in the pending block; nothing to chunk.
                return;
            }
        }
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            self.compress(
                block
                    .try_into()
                    .expect("chunks_exact yields 64-byte blocks"),
            );
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // written directly into the pending block.
        let len = self.buf_len;
        self.buf[len] = 0x80;
        if len < 56 {
            self.buf[len + 1..56].fill(0);
        } else {
            self.buf[len + 1..].fill(0);
            compress_block(&mut self.state, &self.buf);
            self.buf[..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress_block(&mut self.state, &self.buf);
        self.output()
    }

    /// Serialises the current state as the big-endian digest.
    fn output(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[inline]
    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.state, block);
    }
}

/// Compresses one 64-byte block into `state`. A free function (rather than a
/// method) so callers holding `&mut self` can compress the pending block
/// buffer in place — `compress_block(&mut self.state, &self.buf)` borrows the
/// two fields disjointly, where a method call would force a 64-byte stack
/// copy of the buffer first.
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

// ---------------------------------------------------------------------------
// Multi-lane SHA-256: four independent messages per pass.
// ---------------------------------------------------------------------------
//
// SHA-256 over a single message is a serial dependency chain — each round
// needs the previous round's working variables, so a lone hash cannot use
// the machine's SIMD width. Hashing four *independent* messages in lockstep
// sidesteps the chain: every round operates on a `[u32; 4]` lane array
// (lane `l` = message `l`) and the compiler is free to lower each lane op to
// one 128-bit vector instruction. No arch intrinsics, no `unsafe` — the same
// portability discipline as the `crates/compat` shims.

/// One word across the four interleaved messages.
type Lanes = [u32; 4];

#[inline(always)]
fn ladd(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l].wrapping_add(b[l]))
}

#[inline(always)]
fn lrotr(a: Lanes, n: u32) -> Lanes {
    std::array::from_fn(|l| a[l].rotate_right(n))
}

#[inline(always)]
fn lshr(a: Lanes, n: u32) -> Lanes {
    std::array::from_fn(|l| a[l] >> n)
}

#[inline(always)]
fn lxor3(a: Lanes, b: Lanes, c: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l] ^ b[l] ^ c[l])
}

/// `ch(e, f, g)` per lane.
#[inline(always)]
fn lch(e: Lanes, f: Lanes, g: Lanes) -> Lanes {
    std::array::from_fn(|l| (e[l] & f[l]) ^ (!e[l] & g[l]))
}

/// `maj(a, b, c)` per lane.
#[inline(always)]
fn lmaj(a: Lanes, b: Lanes, c: Lanes) -> Lanes {
    std::array::from_fn(|l| (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]))
}

/// Compresses one 64-byte block from each of four messages in lockstep.
fn compress4(state: &mut [Lanes; 8], blocks: [&[u8; 64]; 4]) {
    // Interleaved message schedule: w[i] holds word i of all four blocks.
    let mut w = [[0u32; 4]; 64];
    for (i, wi) in w.iter_mut().take(16).enumerate() {
        *wi = std::array::from_fn(|l| {
            u32::from_be_bytes(blocks[l][i * 4..i * 4 + 4].try_into().expect("4-byte word"))
        });
    }
    for i in 16..64 {
        let s0 = lxor3(
            lrotr(w[i - 15], 7),
            lrotr(w[i - 15], 18),
            lshr(w[i - 15], 3),
        );
        let s1 = lxor3(lrotr(w[i - 2], 17), lrotr(w[i - 2], 19), lshr(w[i - 2], 10));
        w[i] = ladd(ladd(w[i - 16], s0), ladd(w[i - 7], s1));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let s1 = lxor3(lrotr($e, 6), lrotr($e, 11), lrotr($e, 25));
            let t1 = ladd(ladd($h, s1), ladd(lch($e, $f, $g), ladd([K[$i]; 4], w[$i])));
            let s0 = lxor3(lrotr($a, 2), lrotr($a, 13), lrotr($a, 22));
            $d = ladd($d, t1);
            $h = ladd(t1, ladd(s0, lmaj($a, $b, $c)));
        };
    }

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

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = ladd(*s, v);
    }
}

/// Hashes four independent messages through the interleaved 4-lane
/// compressor. Produces exactly the digests [`Sha256::digest_of`] would —
/// the lanes run in lockstep while all four messages still have full
/// 64-byte blocks, then each lane's state is handed to the scalar path to
/// absorb its remaining tail and padding.
pub fn digest4(msgs: [&[u8]; 4]) -> [[u8; 32]; 4] {
    let mut state: [Lanes; 8] = std::array::from_fn(|i| [H0[i]; 4]);
    let lockstep = msgs
        .iter()
        .map(|m| m.len() / 64)
        .min()
        .expect("four messages");
    for b in 0..lockstep {
        let blocks: [&[u8; 64]; 4] = std::array::from_fn(|l| {
            msgs[l][b * 64..(b + 1) * 64]
                .try_into()
                .expect("64-byte block")
        });
        compress4(&mut state, blocks);
    }
    std::array::from_fn(|l| {
        let mut h = Sha256 {
            state: std::array::from_fn(|i| state[i][l]),
            buf: [0; 64],
            buf_len: 0,
            total_len: (lockstep * 64) as u64,
        };
        h.update(&msgs[l][lockstep * 64..]);
        h.finalize()
    })
}

/// Hashes every input independently, four at a time through [`digest4`],
/// with a scalar pass over the remainder. Digest `i` addresses input `i`.
pub fn digest_batch(inputs: &[&[u8]]) -> Vec<[u8; 32]> {
    let mut out = Vec::with_capacity(inputs.len());
    let mut quads = inputs.chunks_exact(4);
    for quad in &mut quads {
        out.extend_from_slice(&digest4([quad[0], quad[1], quad[2], quad[3]]));
    }
    for tail in quads.remainder() {
        out.push(Sha256::digest_of(tail));
    }
    out
}

/// Hashes many independent inputs, returning one digest per input in order.
///
/// The default implementation is the in-thread [`MultilaneDigester`];
/// `sp_exec::WorkStealingPool` provides a pool-parallel one, letting import
/// and snapshot paths fan batch hashing out over workers without `sp_store`
/// depending on an executor.
pub trait BatchDigester: Sync {
    /// Digests every input; `result[i]` addresses `inputs[i]`.
    fn digest_all(&self, inputs: &[&[u8]]) -> Vec<[u8; 32]>;
}

/// In-thread [`BatchDigester`] backed by the 4-lane [`digest_batch`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MultilaneDigester;

impl BatchDigester for MultilaneDigester {
    fn digest_all(&self, inputs: &[&[u8]]) -> Vec<[u8; 32]> {
        digest_batch(inputs)
    }
}

/// One-shot convenience digest (the [`Sha256::digest_of`] fast path).
pub fn digest(data: &[u8]) -> [u8; 32] {
    Sha256::digest_of(data)
}

/// Streams bytes into a SHA-256 digest while optionally appending them to a
/// caller-provided buffer, so serialisation and content addressing happen in
/// one pass instead of "materialise a `Vec`, then hash it".
pub struct HashingWriter<'a> {
    hasher: Sha256,
    sink: Option<&'a mut Vec<u8>>,
}

impl<'a> HashingWriter<'a> {
    /// A writer that only digests — nothing is materialised.
    pub fn digest_only() -> Self {
        HashingWriter {
            hasher: Sha256::new(),
            sink: None,
        }
    }

    /// A writer that appends every byte to `sink` *and* digests it.
    pub fn tee(sink: &'a mut Vec<u8>) -> Self {
        HashingWriter {
            hasher: Sha256::new(),
            sink: Some(sink),
        }
    }

    /// Absorbs (and, for a tee, appends) `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        self.hasher.update(bytes);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.extend_from_slice(bytes);
        }
    }

    /// Finishes the digest.
    pub fn finish(self) -> [u8; 32] {
        self.hasher.finalize()
    }
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends a digest to `out` as 64 lowercase hex characters, without an
/// intermediate allocation.
pub fn push_hex(out: &mut String, digest: &[u8; 32]) {
    let mut buf = [0u8; 64];
    for (pair, b) in buf.chunks_exact_mut(2).zip(digest) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0x0f)];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Formats a digest as lowercase hex.
pub fn to_hex(digest: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    push_hex(&mut s, digest);
    s
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

    #[test]
    fn digest4_matches_scalar_across_length_regimes() {
        // Lane lengths straddling every lockstep/tail boundary: empty lanes,
        // sub-block lanes, exact multiples, and unequal lengths that force an
        // early lockstep exit with long scalar tails.
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let cases: [[usize; 4]; 6] = [
            [0, 0, 0, 0],
            [1, 63, 64, 65],
            [64, 64, 64, 64],
            [128, 128, 128, 128],
            [0, 4096, 200, 64],
            [5000, 1, 4999, 321],
        ];
        for lens in cases {
            let msgs: [&[u8]; 4] = std::array::from_fn(|l| &data[..lens[l]]);
            let got = digest4(msgs);
            for l in 0..4 {
                assert_eq!(got[l], Sha256::digest_of(msgs[l]), "lens {lens:?} lane {l}");
            }
        }
    }

    #[test]
    fn digest4_lanes_are_independent() {
        // Flipping one byte in one lane must change only that lane's digest.
        let base: Vec<u8> = (0..200u8).collect();
        let mut tweaked = base.clone();
        tweaked[100] ^= 0xff;
        let before = digest4([&base, &base, &base, &base]);
        let after = digest4([&base, &tweaked, &base, &base]);
        assert_eq!(before[0], after[0]);
        assert_ne!(before[1], after[1]);
        assert_eq!(before[2], after[2]);
        assert_eq!(before[3], after[3]);
    }

    #[test]
    fn digest_batch_matches_scalar_for_every_remainder() {
        let data: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let inputs: Vec<&[u8]> = (0..11).map(|i| &data[..i * 63]).collect();
        for n in 0..=inputs.len() {
            let got = digest_batch(&inputs[..n]);
            assert_eq!(got.len(), n);
            for (i, d) in got.iter().enumerate() {
                assert_eq!(*d, Sha256::digest_of(inputs[i]), "batch {n} input {i}");
            }
        }
    }

    #[test]
    fn multilane_digester_is_the_batch_path() {
        let inputs: [&[u8]; 3] = [b"a", b"bb", b"ccc"];
        assert_eq!(MultilaneDigester.digest_all(&inputs), digest_batch(&inputs));
    }

    #[test]
    fn hashing_writer_tee_and_digest_only_agree() {
        let pieces: [&[u8]; 4] = [b"run ", b"outputs ", b"", b"digest-first"];
        let flat: Vec<u8> = pieces.concat();

        let mut buf = Vec::new();
        let mut tee = HashingWriter::tee(&mut buf);
        for p in pieces {
            tee.write(p);
        }
        let teed = tee.finish();
        assert_eq!(buf, flat, "tee materialises exactly what it hashes");

        let mut sink = HashingWriter::digest_only();
        for p in pieces {
            sink.write(p);
        }
        assert_eq!(sink.finish(), teed);
        assert_eq!(teed, digest(&flat));
    }
}
