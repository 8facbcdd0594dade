//! The DST ("data summary tape") binary event formats.
//!
//! HEP experiments store events in multi-level formats: the full DST with
//! every particle, and slimmed µDST files for analysis — the "multi-level
//! file production" of the H1 chain (§3.2). Both formats here are
//! self-describing, checksummed and versioned, and both round-trip
//! bit-exactly, which the property tests assert.
//!
//! DST layout (little-endian):
//!
//! ```text
//! magic    : 4 bytes  b"SPD1"
//! version  : u16
//! count    : u32      number of events
//! event*   : id u64 | process u8 | weight f64
//!            | q2 f64 | x f64 | y f64 | w2 f64      (truth kinematics)
//!            | n u16 | particle*
//! particle : pdg i32 | e f64 | px f64 | py f64 | pz f64 | charge i8 | status u8
//! checksum : 32 bytes, envelope_checksum of everything before it
//! ```
//!
//! µDST layout: the same magic/version/count header (magic `b"SPU1"`),
//! then `id u64 | process u8 | q2 f64 | x f64 | y f64 | e_prime f64` per
//! record, then the same 32-byte checksum.
//!
//! Both formats have one encoder, the streaming [`DstWriter`]: `push`
//! appends one record to a growing buffer, so a chain can write its files
//! event by event without keeping the events, and `finish` patches the
//! record count into the header (a µDST's count is known only at the end)
//! and appends the checksum. [`write_dst`] and [`write_micro_dst`] are
//! that writer over a slice.
//!
//! The checksum is a non-cryptographic bit-rot check ([`envelope_checksum`]),
//! not a signature: anyone can forge one. So the body parser behind it is
//! total on its own — every count is bounded by the bytes that follow it,
//! and any malformed body is a [`DstError`], never a panic or an
//! allocation sized by an untrusted count.

use std::marker::PhantomData;

use sp_wire::{self as wire, Cursor};

use crate::kinematics::{DisKinematics, FourVector};
use crate::mcgen::{Event, Particle, Process};
use crate::reco::RecoEvent;

const DST_MAGIC: &[u8; 4] = b"SPD1";
const MICRO_MAGIC: &[u8; 4] = b"SPU1";
const FORMAT_VERSION: u16 = 1;
/// Bytes of one DST event without its particles.
const EVENT_BYTES: usize = 8 + 1 + 8 * 5 + 2;
/// Bytes of one DST particle.
const PARTICLE_BYTES: usize = 4 + 8 * 4 + 1 + 1;
/// Bytes of one µDST record.
const MICRO_BYTES: usize = 8 + 1 + 8 * 4;

/// Errors decoding a DST/µDST stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DstError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Stream shorter than its own headers promise.
    Truncated,
    /// Whole-file checksum mismatch (bit rot).
    ChecksumMismatch,
    /// Unknown process code.
    BadProcess(u8),
}

impl std::fmt::Display for DstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DstError::BadMagic => write!(f, "not a DST stream (bad magic)"),
            DstError::BadVersion(v) => write!(f, "unsupported DST version {v}"),
            DstError::Truncated => write!(f, "truncated DST stream"),
            DstError::ChecksumMismatch => write!(f, "DST checksum mismatch"),
            DstError::BadProcess(c) => write!(f, "unknown process code {c}"),
        }
    }
}

impl std::error::Error for DstError {}

/// Bytes of the header shared by both formats: magic, version, count.
const HEADER_BYTES: usize = 4 + 2 + 4;

/// A record of one of the two formats: an [`Event`] of a DST or a
/// [`MicroEvent`] of a µDST.
pub trait DstRecord {
    /// The magic bytes of the format.
    const MAGIC: &'static [u8; 4];
    /// Appends the record's encoding.
    fn put(&self, buf: &mut Vec<u8>);
}

impl DstRecord for Event {
    const MAGIC: &'static [u8; 4] = DST_MAGIC;

    fn put(&self, buf: &mut Vec<u8>) {
        let truth = &self.truth;
        let head: [u8; EVENT_BYTES] = record([
            &self.id.to_le_bytes(),
            &[self.process.code()],
            &self.weight.to_le_bytes(),
            &truth.q2.to_le_bytes(),
            &truth.x.to_le_bytes(),
            &truth.y.to_le_bytes(),
            &truth.w2.to_le_bytes(),
            &(self.particles.len() as u16).to_le_bytes(),
        ]);
        buf.extend_from_slice(&head);
        for p in &self.particles {
            let particle: [u8; PARTICLE_BYTES] = record([
                &p.pdg_id.to_le_bytes(),
                &p.p4.e.to_le_bytes(),
                &p.p4.px.to_le_bytes(),
                &p.p4.py.to_le_bytes(),
                &p.p4.pz.to_le_bytes(),
                &[p.charge as u8, p.status],
            ]);
            buf.extend_from_slice(&particle);
        }
    }
}

/// Concatenates little-endian `fields` into one fixed-size record. A
/// record assembled on the stack is appended with one capacity check, not
/// one per field, which makes the DST encoder several times faster than
/// appending field by field.
fn record<const N: usize, const K: usize>(fields: [&[u8]; K]) -> [u8; N] {
    let mut out = [0; N];
    let mut at = 0;
    for field in fields {
        out[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    debug_assert_eq!(at, N, "record fields fill the record");
    out
}

/// Streams records into their format, a DST (`DstWriter<Event>`) or a
/// µDST (`DstWriter<MicroEvent>`), one [`push`](Self::push) per record.
#[derive(Debug)]
pub struct DstWriter<R> {
    buf: Vec<u8>,
    count: u32,
    format: PhantomData<R>,
}

impl<R: DstRecord> Default for DstWriter<R> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<R: DstRecord> DstWriter<R> {
    /// Starts an empty stream with room for `body_bytes` of records.
    pub fn with_capacity(body_bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_BYTES + body_bytes + 32);
        buf.extend_from_slice(R::MAGIC);
        wire::put_u16(&mut buf, FORMAT_VERSION);
        wire::put_u32(&mut buf, 0);
        DstWriter {
            buf,
            count: 0,
            format: PhantomData,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: &R) {
        self.count = self.count.wrapping_add(1);
        record.put(&mut self.buf);
    }

    /// Patches the record count into the header and seals the stream.
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.buf;
        buf[6..HEADER_BYTES].copy_from_slice(&self.count.to_le_bytes());
        let checksum = envelope_checksum(&buf);
        buf.extend_from_slice(&checksum);
        buf
    }
}

/// Writes `records` with a [`DstWriter`] sized for `body_bytes`.
fn write_records<R: DstRecord>(records: &[R], body_bytes: usize) -> Vec<u8> {
    let mut writer = DstWriter::with_capacity(body_bytes);
    for record in records {
        writer.push(record);
    }
    writer.finish()
}

/// Serialises events to the DST format.
pub fn write_dst(events: &[Event]) -> Vec<u8> {
    let particles: usize = events.iter().map(|e| e.particles.len()).sum();
    write_records(
        events,
        events.len() * EVENT_BYTES + particles * PARTICLE_BYTES,
    )
}

/// Deserialises a DST stream.
pub fn read_dst(data: &[u8]) -> Result<Vec<Event>, DstError> {
    let mut cur = open_envelope(data, DST_MAGIC)?;
    let count = cur.take_count(EVENT_BYTES).ok_or(DstError::Truncated)?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let id = cur.take_u64().ok_or(DstError::Truncated)?;
        let process = take_process(&mut cur)?;
        let weight = take_f64(&mut cur)?;
        let truth = DisKinematics {
            q2: take_f64(&mut cur)?,
            x: take_f64(&mut cur)?,
            y: take_f64(&mut cur)?,
            w2: take_f64(&mut cur)?,
        };
        let n = cur
            .take_count16(PARTICLE_BYTES)
            .ok_or(DstError::Truncated)?;
        let mut particles = Vec::with_capacity(n);
        for _ in 0..n {
            let pdg_id = cur.take_i32().ok_or(DstError::Truncated)?;
            let p4 = FourVector::new(
                take_f64(&mut cur)?,
                take_f64(&mut cur)?,
                take_f64(&mut cur)?,
                take_f64(&mut cur)?,
            );
            let charge = cur.take_i8().ok_or(DstError::Truncated)?;
            let status = cur.take_u8().ok_or(DstError::Truncated)?;
            particles.push(Particle {
                pdg_id,
                p4,
                charge,
                status,
            });
        }
        events.push(Event {
            id,
            process,
            truth,
            particles,
            weight,
        });
    }
    if !cur.finished() {
        return Err(DstError::Truncated);
    }
    Ok(events)
}

/// A slimmed analysis-level event (µDST record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroEvent {
    /// Source event id.
    pub id: u64,
    /// Process code.
    pub process: Process,
    /// Reconstructed Q².
    pub q2: f64,
    /// Reconstructed x.
    pub x: f64,
    /// Reconstructed y.
    pub y: f64,
    /// Scattered-electron energy.
    pub e_prime: f64,
}

impl MicroEvent {
    /// The µDST record of a reconstructed event; `None` when
    /// reconstruction found no kinematics (the event is dropped).
    pub fn from_reco(reco: &RecoEvent) -> Option<Self> {
        let k = reco.kinematics?;
        Some(MicroEvent {
            id: reco.id,
            process: reco.process,
            q2: k.q2,
            x: k.x,
            y: k.y,
            e_prime: reco.electron.map(|e| e.e).unwrap_or(0.0),
        })
    }
}

impl DstRecord for MicroEvent {
    const MAGIC: &'static [u8; 4] = MICRO_MAGIC;

    fn put(&self, buf: &mut Vec<u8>) {
        let micro: [u8; MICRO_BYTES] = record([
            &self.id.to_le_bytes(),
            &[self.process.code()],
            &self.q2.to_le_bytes(),
            &self.x.to_le_bytes(),
            &self.y.to_le_bytes(),
            &self.e_prime.to_le_bytes(),
        ]);
        buf.extend_from_slice(&micro);
    }
}

/// Serialises µDST records.
pub fn write_micro_dst(events: &[MicroEvent]) -> Vec<u8> {
    write_records(events, events.len() * MICRO_BYTES)
}

/// Deserialises a µDST stream.
pub fn read_micro_dst(data: &[u8]) -> Result<Vec<MicroEvent>, DstError> {
    let mut cur = open_envelope(data, MICRO_MAGIC)?;
    let count = cur.take_count(MICRO_BYTES).ok_or(DstError::Truncated)?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(MicroEvent {
            id: cur.take_u64().ok_or(DstError::Truncated)?,
            process: take_process(&mut cur)?,
            q2: take_f64(&mut cur)?,
            x: take_f64(&mut cur)?,
            y: take_f64(&mut cur)?,
            e_prime: take_f64(&mut cur)?,
        });
    }
    if !cur.finished() {
        return Err(DstError::Truncated);
    }
    Ok(events)
}

fn take_f64(cur: &mut Cursor<'_>) -> Result<f64, DstError> {
    cur.take_f64().ok_or(DstError::Truncated)
}

/// Takes a process code, reporting an unknown one as the code read.
fn take_process(cur: &mut Cursor<'_>) -> Result<Process, DstError> {
    let code = cur.take_u8().ok_or(DstError::Truncated)?;
    Process::from_code(code).ok_or(DstError::BadProcess(code))
}

/// Checks the trailing checksum, magic and version, and returns a cursor
/// over the body that follows the version field (the checksum excluded).
fn open_envelope<'a>(data: &'a [u8], magic: &[u8; 4]) -> Result<Cursor<'a>, DstError> {
    let Some((body, checksum)) = data.split_last_chunk::<32>() else {
        return Err(DstError::Truncated);
    };
    if body.len() < HEADER_BYTES {
        return Err(DstError::Truncated);
    }
    if envelope_checksum(body) != *checksum {
        return Err(DstError::ChecksumMismatch);
    }
    let mut cur = Cursor::new(body);
    if cur.take(4) != Some(&magic[..]) {
        return Err(DstError::BadMagic);
    }
    match cur.take_u16() {
        Some(FORMAT_VERSION) => Ok(cur),
        Some(version) => Err(DstError::BadVersion(version)),
        None => Err(DstError::Truncated),
    }
}

/// The 32-byte envelope checksum of the DST and µDST formats: four
/// interleaved 64-bit FNV-1a lanes with distinct offsets (byte `i` goes to
/// lane `i % 4`, mixed with its position), then a mixing pass so every
/// output byte depends on every input byte.
///
/// Each lane is a serial multiply chain, so the kernel keeps the four
/// lanes in locals and walks the input four bytes at a time: the four
/// chains advance side by side in registers. It is plain portable Rust
/// (no `target_feature`, no intrinsics).
///
/// It is a non-cryptographic bit-rot check, not a signature — anyone can
/// compute one for bytes of their choosing. It catches accidental
/// corruption; the body parser must still be total on a body that carries
/// a valid checksum. It is part of the format, so its output never
/// changes (DSTs are content-addressed outputs). Public so that tests can
/// seal forged bodies.
pub fn envelope_checksum(data: &[u8]) -> [u8; 32] {
    const OFFSETS: [u64; 4] = [
        0xcbf29ce484222325,
        0x9e3779b97f4a7c15,
        0xdeadbeefcafef00d,
        0x0123456789abcdef,
    ];
    const PRIME: u64 = 0x100000001b3;
    let lane =
        |state: u64, byte: u8, at: u64| (state ^ byte as u64 ^ (at << 8)).wrapping_mul(PRIME);
    let [mut s0, mut s1, mut s2, mut s3] = OFFSETS;
    let mut chunks = data.chunks_exact(4);
    let mut at = 0u64;
    for chunk in &mut chunks {
        s0 = lane(s0, chunk[0], at);
        s1 = lane(s1, chunk[1], at + 1);
        s2 = lane(s2, chunk[2], at + 2);
        s3 = lane(s3, chunk[3], at + 3);
        at += 4;
    }
    let mut states = [s0, s1, s2, s3];
    for (i, &byte) in chunks.remainder().iter().enumerate() {
        states[i] = lane(states[i], byte, at + i as u64);
    }
    // Final mixing pass so every lane depends on every byte.
    for round in 0..4 {
        let mixed = states[0]
            .wrapping_add(states[1].rotate_left(17))
            .wrapping_add(states[2].rotate_left(31))
            .wrapping_add(states[3].rotate_left(47))
            .wrapping_add(round);
        states[round as usize] ^= mixed.wrapping_mul(PRIME);
    }
    let mut out = [0u8; 32];
    for (i, s) in states.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&s.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcgen::{EventGenerator, GeneratorConfig};

    fn sample_events(n: usize) -> Vec<Event> {
        EventGenerator::new(GeneratorConfig::hera_nc(), 11)
            .take(n)
            .collect()
    }

    #[test]
    fn dst_round_trip() {
        let events = sample_events(25);
        let bytes = write_dst(&events);
        let restored = read_dst(&bytes).unwrap();
        assert_eq!(events, restored);
    }

    #[test]
    fn empty_dst_round_trips() {
        let bytes = write_dst(&[]);
        assert_eq!(read_dst(&bytes).unwrap(), Vec::<Event>::new());
    }

    #[test]
    fn dst_detects_bit_rot() {
        let bytes = write_dst(&sample_events(5));
        for idx in [0usize, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[idx] ^= 0x10;
            let err = read_dst(&corrupted).unwrap_err();
            assert!(
                matches!(err, DstError::ChecksumMismatch | DstError::BadMagic),
                "flip at {idx}: {err:?}"
            );
        }
    }

    #[test]
    fn dst_detects_truncation() {
        let bytes = write_dst(&sample_events(5));
        for cut in [0usize, 8, bytes.len() - 33] {
            assert!(read_dst(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let micro = write_micro_dst(&[]);
        assert_eq!(read_dst(&micro).unwrap_err(), DstError::BadMagic);
    }

    #[test]
    fn micro_dst_round_trip() {
        let records: Vec<MicroEvent> = (0..10)
            .map(|i| MicroEvent {
                id: i,
                process: Process::NeutralCurrent,
                q2: 10.0 + i as f64,
                x: 0.01 * (i + 1) as f64,
                y: 0.1,
                e_prime: 25.0,
            })
            .collect();
        let bytes = write_micro_dst(&records);
        assert_eq!(read_micro_dst(&bytes).unwrap(), records);
    }

    #[test]
    fn micro_is_smaller_than_dst() {
        let events = sample_events(50);
        let micro: Vec<MicroEvent> = events
            .iter()
            .map(|e| MicroEvent {
                id: e.id,
                process: e.process,
                q2: e.truth.q2,
                x: e.truth.x,
                y: e.truth.y,
                e_prime: e.scattered_lepton().map(|p| p.p4.e).unwrap_or(0.0),
            })
            .collect();
        let dst_size = write_dst(&events).len();
        let micro_size = write_micro_dst(&micro).len();
        assert!(
            micro_size * 4 < dst_size,
            "µDST ({micro_size}) should be much smaller than DST ({dst_size})"
        );
    }

    /// The checksum as the format defines it: one byte at a time, byte
    /// `i` into lane `i % 4` of an in-memory lane array.
    fn byte_at_a_time_checksum(data: &[u8]) -> [u8; 32] {
        const PRIME: u64 = 0x100000001b3;
        let mut states: [u64; 4] = [
            0xcbf29ce484222325,
            0x9e3779b97f4a7c15,
            0xdeadbeefcafef00d,
            0x0123456789abcdef,
        ];
        for (i, &b) in data.iter().enumerate() {
            let lane = i & 3;
            states[lane] ^= b as u64 ^ ((i as u64) << 8);
            states[lane] = states[lane].wrapping_mul(PRIME);
        }
        for round in 0..4 {
            let mixed = states[0]
                .wrapping_add(states[1].rotate_left(17))
                .wrapping_add(states[2].rotate_left(31))
                .wrapping_add(states[3].rotate_left(47))
                .wrapping_add(round);
            states[round as usize] ^= mixed.wrapping_mul(PRIME);
        }
        let mut out = [0u8; 32];
        for (i, s) in states.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    #[test]
    fn checksum_kernel_matches_byte_at_a_time_reference_at_every_length() {
        let data: Vec<u8> = (0u32..1100).map(|i| (i * 167 % 251) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            assert_eq!(
                envelope_checksum(msg),
                byte_at_a_time_checksum(msg),
                "len {len}"
            );
        }
    }

    #[test]
    fn digest_avalanche() {
        let a = envelope_checksum(b"the same payload");
        let mut flipped = b"the same payload".to_vec();
        flipped[0] ^= 1;
        let b = envelope_checksum(&flipped);
        let differing_bytes = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert!(differing_bytes > 8, "weak avalanche: {differing_bytes}");
    }

    /// Seals `body` with a valid envelope checksum, as a forger would.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let checksum = envelope_checksum(&body);
        body.extend_from_slice(&checksum);
        body
    }

    /// A 46-byte stream: magic, version 1, an event count of `u32::MAX`,
    /// four zero bytes and a valid checksum.
    fn forged_max_count(magic: &[u8; 4]) -> Vec<u8> {
        let mut body = magic.to_vec();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0; 4]);
        let forged = seal(body);
        assert_eq!(forged.len(), 46);
        forged
    }

    #[test]
    fn forged_dst_count_is_truncated_not_allocated() {
        let forged = forged_max_count(DST_MAGIC);
        assert_eq!(read_dst(&forged), Err(DstError::Truncated));
    }

    #[test]
    fn forged_micro_dst_count_is_truncated_not_allocated() {
        let forged = forged_max_count(MICRO_MAGIC);
        assert_eq!(read_micro_dst(&forged), Err(DstError::Truncated));
    }

    #[test]
    fn unknown_process_code_is_reported_as_read() {
        let mut body = write_dst(&sample_events(2));
        body.truncate(body.len() - 32);
        // The first event's process code follows its 8-byte id.
        body[10 + 8] = 0xa7;
        assert_eq!(read_dst(&seal(body)), Err(DstError::BadProcess(0xa7)));

        let record = MicroEvent {
            id: 1,
            process: Process::ChargedCurrent,
            q2: 10.0,
            x: 0.1,
            y: 0.5,
            e_prime: 27.5,
        };
        let mut body = write_micro_dst(&[record]);
        body.truncate(body.len() - 32);
        body[10 + 8] = 9;
        assert_eq!(read_micro_dst(&seal(body)), Err(DstError::BadProcess(9)));
    }

    #[test]
    fn writing_is_deterministic() {
        let events = sample_events(10);
        assert_eq!(write_dst(&events), write_dst(&events));
    }
}
