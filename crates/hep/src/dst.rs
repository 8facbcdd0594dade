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
//! The checksum is a non-cryptographic bit-rot check ([`envelope_checksum`]),
//! not a signature: anyone can forge one. So the body parser behind it is
//! total on its own — every count is bounded by the bytes that follow it,
//! and any malformed body is a [`DstError`], never a panic or an
//! allocation sized by an untrusted count.

use sp_wire::{self as wire, Cursor};

use crate::kinematics::{DisKinematics, FourVector};
use crate::mcgen::{Event, Particle, Process};

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

/// Serialises events to the DST format.
pub fn write_dst(events: &[Event]) -> Vec<u8> {
    let particles: usize = events.iter().map(|e| e.particles.len()).sum();
    let mut buf =
        Vec::with_capacity(10 + events.len() * EVENT_BYTES + particles * PARTICLE_BYTES + 32);
    buf.extend_from_slice(DST_MAGIC);
    wire::put_u16(&mut buf, FORMAT_VERSION);
    wire::put_u32(&mut buf, events.len() as u32);
    for event in events {
        wire::put_u64(&mut buf, event.id);
        wire::put_u8(&mut buf, event.process.code());
        wire::put_f64(&mut buf, event.weight);
        wire::put_f64(&mut buf, event.truth.q2);
        wire::put_f64(&mut buf, event.truth.x);
        wire::put_f64(&mut buf, event.truth.y);
        wire::put_f64(&mut buf, event.truth.w2);
        wire::put_u16(&mut buf, event.particles.len() as u16);
        for p in &event.particles {
            wire::put_i32(&mut buf, p.pdg_id);
            wire::put_f64(&mut buf, p.p4.e);
            wire::put_f64(&mut buf, p.p4.px);
            wire::put_f64(&mut buf, p.p4.py);
            wire::put_f64(&mut buf, p.p4.pz);
            wire::put_i8(&mut buf, p.charge);
            wire::put_u8(&mut buf, p.status);
        }
    }
    let checksum = envelope_checksum(&buf);
    buf.extend_from_slice(&checksum);
    buf
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

/// Serialises µDST records.
pub fn write_micro_dst(events: &[MicroEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10 + events.len() * MICRO_BYTES + 32);
    buf.extend_from_slice(MICRO_MAGIC);
    wire::put_u16(&mut buf, FORMAT_VERSION);
    wire::put_u32(&mut buf, events.len() as u32);
    for ev in events {
        wire::put_u64(&mut buf, ev.id);
        wire::put_u8(&mut buf, ev.process.code());
        wire::put_f64(&mut buf, ev.q2);
        wire::put_f64(&mut buf, ev.x);
        wire::put_f64(&mut buf, ev.y);
        wire::put_f64(&mut buf, ev.e_prime);
    }
    let checksum = envelope_checksum(&buf);
    buf.extend_from_slice(&checksum);
    buf
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
    if body.len() < 4 + 2 + 4 {
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
/// interleaved 64-bit FNV-1a lanes with distinct offsets, then a mixing
/// pass so every output byte depends on every input byte.
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
    let mut states = OFFSETS;
    for (i, &b) in data.iter().enumerate() {
        let lane = i & 3;
        states[lane] ^= b as u64 ^ ((i as u64) << 8);
        states[lane] = states[lane].wrapping_mul(PRIME);
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
