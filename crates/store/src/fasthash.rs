//! Fast non-cryptographic 128-bit hashing for process-local hot paths.
//!
//! The validation loop re-keys the same lookups — memo probes, digest-cache
//! revisions — thousands of times per campaign, and
//! none of those keys ever leave the process. Paying SHA-256 for them buys
//! nothing: collision *resistance* matters only for durable content
//! addresses, which stay on [`crate::sha256`]. This module is the other half
//! of the dual-digest posture: an xxHash-style one-shot/streaming 128-bit
//! hash running at multiple bytes per cycle, used **only** as an in-memory
//! key. A [`FastDigest`] is never written to disk and never used as object
//! identity — see the README "Content addressing & hashing" section.
//!
//! Construction: two independent XXH64-shaped lanes of four accumulators
//! each (distinct seeds), advanced over 32-byte stripes with the classic
//! `rotl(acc + word * PRIME2, 31) * PRIME1` round, merged and avalanched
//! separately into the low and high 64 bits of the digest. The streaming
//! [`FastHasher`] and the one-shot [`hash128`] are *defined* to agree for
//! any chunking — pinned by reference vectors here and a random-split
//! proptest in `tests/proptests.rs`.
//!
//! The output is stable across runs and platforms (everything is
//! little-endian and wrapping), so pinned vectors guard accidental format
//! drift — but no compatibility promise beyond that is made, precisely
//! because the digest must never be persisted.

/// xxHash's 64-bit primes; odd, high-entropy multipliers.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Seed of the lane feeding the low 64 bits.
const SEED_LO: u64 = 0;
/// Seed of the lane feeding the high 64 bits.
const SEED_HI: u64 = 0x9e37_79b9_7f4a_7c15;

/// 128-bit process-local digest. Never persisted, never an object address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FastDigest(pub u128);

impl FastDigest {
    /// The low 64 bits (handy for logs and sharding).
    pub fn low64(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for FastDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

#[inline(always)]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

#[inline(always)]
fn read_u32(bytes: &[u8]) -> u64 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4-byte word")) as u64
}

/// One XXH64-shaped lane: four accumulators over 32-byte stripes.
#[derive(Clone, Copy)]
struct Lane {
    acc: [u64; 4],
    seed: u64,
}

impl Lane {
    fn new(seed: u64) -> Self {
        Lane {
            acc: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            seed,
        }
    }

    #[inline(always)]
    fn stripe(&mut self, block: &[u8; 32]) {
        self.acc[0] = round(self.acc[0], read_u64(&block[0..]));
        self.acc[1] = round(self.acc[1], read_u64(&block[8..]));
        self.acc[2] = round(self.acc[2], read_u64(&block[16..]));
        self.acc[3] = round(self.acc[3], read_u64(&block[24..]));
    }

    /// Folds the accumulators, the total length and the sub-stripe tail into
    /// the lane's 64-bit result. `tail` is whatever followed the last full
    /// 32-byte stripe (< 32 bytes).
    fn finish(&self, tail: &[u8], total_len: u64) -> u64 {
        let mut h = if total_len >= 32 {
            let mut h = self.acc[0]
                .rotate_left(1)
                .wrapping_add(self.acc[1].rotate_left(7))
                .wrapping_add(self.acc[2].rotate_left(12))
                .wrapping_add(self.acc[3].rotate_left(18));
            for acc in self.acc {
                h = merge_round(h, acc);
            }
            h
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(total_len);
        let mut rest = tail;
        while rest.len() >= 8 {
            h = (h ^ round(0, read_u64(rest)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            h = (h ^ read_u32(rest).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        avalanche(h)
    }
}

/// Streaming 128-bit fast hasher.
///
/// Feeding the same bytes through any sequence of [`update`](Self::update)
/// calls yields the same [`finish`](Self::finish) value as [`hash128`] over
/// the concatenation.
#[derive(Clone)]
pub struct FastHasher {
    lo: Lane,
    hi: Lane,
    /// Partially filled stripe awaiting processing.
    buf: [u8; 32],
    /// Number of valid bytes in `buf` (< 32).
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for FastHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FastHasher {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        FastHasher {
            lo: Lane::new(SEED_LO),
            hi: Lane::new(SEED_HI),
            buf: [0; 32],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`. Full 32-byte stripes are consumed straight from
    /// `data`; only a sub-stripe tail is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(32 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 32 {
                let block = self.buf;
                self.lo.stripe(&block);
                self.hi.stripe(&block);
                self.buf_len = 0;
            } else {
                return;
            }
        }
        let mut stripes = rest.chunks_exact(32);
        for block in &mut stripes {
            let block: &[u8; 32] = block.try_into().expect("32-byte stripe");
            self.lo.stripe(block);
            self.hi.stripe(block);
        }
        let tail = stripes.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation.
    pub fn finish(&self) -> FastDigest {
        let tail = &self.buf[..self.buf_len];
        let lo = self.lo.finish(tail, self.total_len);
        let hi = self.hi.finish(tail, self.total_len);
        FastDigest(((hi as u128) << 64) | lo as u128)
    }
}

/// One-shot 128-bit fast hash of `data`.
pub fn hash128(data: &[u8]) -> FastDigest {
    let mut h = FastHasher::new();
    h.update(data);
    h.finish()
}

// ---------------------------------------------------------------------------
// Hasher plumbing for fast-keyed maps.
// ---------------------------------------------------------------------------

/// `BuildHasher` for `HashMap`s keyed directly by a [`FastDigest`]'s `u128`
/// (or the digest itself): the key *is already* a high-quality hash, so
/// re-hashing it through SipHash would only burn cycles. Folds the two
/// halves and lets the map use the result as-is.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastKeyState;

impl std::hash::BuildHasher for FastKeyState {
    type Hasher = FastKeyHasher;

    fn build_hasher(&self) -> FastKeyHasher {
        FastKeyHasher(0)
    }
}

/// Identity-style hasher produced by [`FastKeyState`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FastKeyHasher(u64);

impl std::hash::Hasher for FastKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for keys that hash through byte slices; fast-key
        // maps are expected to hit `write_u128`/`write_u64` instead.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(P1);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned reference vectors, freezing the output so an accidental
    /// algorithm change cannot silently re-key every memo in flight. The
    /// **low 64 bits are wire-compatible XXH64 (seed 0)** — e.g. the
    /// published XXH64 digests `ef46db3751d8e999` for `""` and
    /// `44bc2cf5ad770999` for `"abc"` — which independently cross-checks
    /// the lane construction; the high half is the same lane under a
    /// golden-ratio seed.
    #[test]
    fn reference_vectors() {
        let vectors: [(&[u8], u128); 6] = [
            (b"", 0xc4349fc93c010000_ef46db3751d8e999),
            (b"a", 0x9a7c6d2ea45568c9_d24ec4f1a98c6e5b),
            (b"abc", 0x2ed0f59d6b43ac8b_44bc2cf5ad770999),
            (b"message digest", 0xdd80ff412a4892a0_066ed728fceeb3be),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                0x9c220416fea109c1_cfe1f278fa89835c,
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                0xc8ff17e801741950_e04a477f19ee145d,
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(
                hash128(input).0,
                want,
                "vector for {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_fixed_splits() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let want = hash128(&data);
        for split in [0usize, 1, 7, 31, 32, 33, 64, 500, 999, 1000] {
            let mut h = FastHasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"dual-digest: fast keys, durable addresses";
        let mut h = FastHasher::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), hash128(data));
    }

    #[test]
    fn every_length_regime_differs_from_its_neighbour() {
        // 0..96 bytes crosses the short-input, 4-byte, 8-byte and striped
        // regimes; adjacent prefixes must never collide.
        let data: Vec<u8> = (0..96u8).collect();
        let mut prev = hash128(&[]);
        for len in 1..=96 {
            let cur = hash128(&data[..len]);
            assert_ne!(cur, prev, "len {len} collides with len {}", len - 1);
            prev = cur;
        }
    }

    #[test]
    fn high_and_low_halves_are_independent() {
        // The two lanes use different seeds; equal halves would mean the
        // second lane adds no information.
        for input in [&b""[..], b"abc", b"0123456789abcdef0123456789abcdef!!"] {
            let d = hash128(input);
            assert_ne!((d.0 >> 64) as u64, d.0 as u64, "input {input:?}");
        }
    }

    #[test]
    fn fast_key_hasher_uses_key_bits_directly() {
        use std::hash::BuildHasher;
        let key: u128 = 0xdead_beef_0000_0001_0000_0002_0000_0003;
        assert_eq!(
            FastKeyState.hash_one(key),
            (key as u64) ^ ((key >> 64) as u64),
            "u128 keys fold, not re-hash"
        );
    }

    #[test]
    fn fast_keyed_map_round_trips() {
        let mut map: std::collections::HashMap<u128, &str, FastKeyState> =
            std::collections::HashMap::with_hasher(FastKeyState);
        for (i, v) in ["a", "b", "c", "d"].iter().enumerate() {
            map.insert(hash128(v.as_bytes()).0.wrapping_add(i as u128), *v);
        }
        assert_eq!(map.len(), 4);
        assert_eq!(map[&hash128(b"a").0], "a");
    }
}
