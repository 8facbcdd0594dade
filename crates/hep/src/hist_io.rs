//! Binary serialisation of histograms.
//!
//! Validation outputs are kept in the common storage by content address;
//! histograms therefore need a deterministic byte encoding. The format is
//! little-endian, length-prefixed and versioned:
//!
//! ```text
//! set   : magic b"SPH1" | version u16 | count u32 | hist*
//! hist  : name_len u16 | name utf-8 | nbins u32 | lo f64 | hi f64
//!         | counts f64* | sumw2 f64* | underflow f64 | overflow f64
//!         | entries u64 | sum_w f64 | sum_wx f64 | sum_wx2 f64
//! ```
//!
//! Histograms are written in strictly ascending name order (the set's own
//! order), and the decoder rejects any other order, so a decoded set
//! always re-encodes to the bytes it came from.

use sp_wire::Cursor;

use crate::hist::{Histogram1D, HistogramSet};

const MAGIC: &[u8; 4] = b"SPH1";
const VERSION: u16 = 1;
/// Bytes of one encoded histogram with an empty name and one bin.
const MIN_HIST_BYTES: usize = 2 + 4 + 16 + 16 + 16 + 8 + 24;

/// Errors decoding a histogram stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistIoError {
    /// Wrong magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Stream shorter than promised.
    Truncated,
    /// Histogram name is not UTF-8, or breaks the set's strictly
    /// ascending name order.
    BadName,
}

impl std::fmt::Display for HistIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistIoError::BadMagic => write!(f, "not a histogram stream"),
            HistIoError::BadVersion(v) => write!(f, "unsupported histogram version {v}"),
            HistIoError::Truncated => write!(f, "truncated histogram stream"),
            HistIoError::BadName => write!(f, "invalid histogram name"),
        }
    }
}

impl std::error::Error for HistIoError {}

/// Serialises a histogram set.
pub fn encode_set(set: &HistogramSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + set.len() * 512);
    encode_set_with(set, &mut |bytes| buf.extend_from_slice(bytes));
    buf
}

/// Streams the set encoding through `emit` field by field, so callers can
/// hash or tee the bytes without materialising the whole encoding first
/// (the digest-first content-addressing path relies on this).
pub fn encode_set_with(set: &HistogramSet, emit: &mut dyn FnMut(&[u8])) {
    emit(MAGIC);
    emit(&VERSION.to_le_bytes());
    emit(&(set.len() as u32).to_le_bytes());
    for hist in set.iter() {
        encode_hist_with(hist, emit);
    }
}

/// Deserialises a histogram set.
pub fn decode_set(data: &[u8]) -> Result<HistogramSet, HistIoError> {
    let mut cur = Cursor::new(data);
    if cur.take(4).ok_or(HistIoError::Truncated)? != MAGIC {
        return Err(HistIoError::BadMagic);
    }
    let version = cur.take_u16().ok_or(HistIoError::Truncated)?;
    if version != VERSION {
        return Err(HistIoError::BadVersion(version));
    }
    let count = cur
        .take_count(MIN_HIST_BYTES)
        .ok_or(HistIoError::Truncated)?;
    let mut set = HistogramSet::new();
    let mut last_name: Option<String> = None;
    for _ in 0..count {
        let hist = decode_hist(&mut cur)?;
        if last_name.as_deref().is_some_and(|last| last >= hist.name()) {
            return Err(HistIoError::BadName);
        }
        last_name = Some(hist.name().to_string());
        set.insert(hist);
    }
    if !cur.finished() {
        return Err(HistIoError::Truncated);
    }
    Ok(set)
}

fn encode_hist_with(hist: &Histogram1D, emit: &mut dyn FnMut(&[u8])) {
    emit(&(hist.name().len() as u16).to_le_bytes());
    emit(hist.name().as_bytes());
    emit(&(hist.nbins() as u32).to_le_bytes());
    emit(&hist.lo().to_le_bytes());
    emit(&hist.hi().to_le_bytes());
    for &c in hist.counts() {
        emit(&c.to_le_bytes());
    }
    for &s in hist.sumw2() {
        emit(&s.to_le_bytes());
    }
    emit(&hist.underflow().to_le_bytes());
    emit(&hist.overflow().to_le_bytes());
    emit(&hist.entries().to_le_bytes());
    let (sum_w, sum_wx, sum_wx2) = hist.moment_sums();
    emit(&sum_w.to_le_bytes());
    emit(&sum_wx.to_le_bytes());
    emit(&sum_wx2.to_le_bytes());
}

fn decode_hist(cur: &mut Cursor<'_>) -> Result<Histogram1D, HistIoError> {
    let name_len = cur.take_u16().ok_or(HistIoError::Truncated)?;
    let name = cur.take(name_len as usize).ok_or(HistIoError::Truncated)?;
    let name = std::str::from_utf8(name)
        .map_err(|_| HistIoError::BadName)?
        .to_string();
    decode_binned(cur, name).ok_or(HistIoError::Truncated)
}

/// Decodes the fields after a histogram's name: `None` if the input runs
/// short or the binning is invalid.
fn decode_binned(cur: &mut Cursor<'_>, name: String) -> Option<Histogram1D> {
    let nbins = cur.take_u32()? as usize;
    let lo = cur.take_f64()?;
    let hi = cur.take_f64()?;
    if nbins == 0 || lo >= hi {
        return None;
    }
    let len = nbins.checked_mul(8)?;
    let counts = f64s(cur.take(len)?);
    let sumw2 = f64s(cur.take(len)?);
    let underflow = cur.take_f64()?;
    let overflow = cur.take_f64()?;
    let entries = cur.take_u64()?;
    let sum_w = cur.take_f64()?;
    let sum_wx = cur.take_f64()?;
    let sum_wx2 = cur.take_f64()?;
    Some(Histogram1D::from_parts(
        name, nbins, lo, hi, counts, sumw2, underflow, overflow, entries, sum_w, sum_wx, sum_wx2,
    ))
}

/// Decodes a run of little-endian `f64`s already bounds-checked by the
/// cursor, so the vector is sized by bytes actually present.
fn f64s(raw: &[u8]) -> Vec<f64> {
    raw.chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram1D;

    fn sample_set() -> HistogramSet {
        let mut q2 = Histogram1D::new("q2", 20, 0.0, 100.0);
        q2.fill(5.0);
        q2.fill_weighted(55.0, 2.5);
        q2.fill(-1.0);
        q2.fill(200.0);
        let mut y = Histogram1D::new("y", 10, 0.0, 1.0);
        y.fill(0.3);
        [q2, y].into_iter().collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let set = sample_set();
        let decoded = decode_set(&encode_set(&set)).unwrap();
        assert_eq!(set, decoded);
        // Statistical comparisons on the decoded set behave identically.
        let p = set
            .get("q2")
            .unwrap()
            .chi2_test(decoded.get("q2").unwrap())
            .unwrap();
        assert_eq!(p.chi2, 0.0);
    }

    #[test]
    fn empty_set_round_trips() {
        let set = HistogramSet::new();
        assert_eq!(decode_set(&encode_set(&set)).unwrap(), set);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_set(&sample_set()), encode_set(&sample_set()));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_set(&sample_set());
        for cut in [0usize, 4, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_set(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn names_out_of_order_are_rejected() {
        // Swap the two histograms' positions: same bytes, wrong order.
        let set = sample_set();
        let q2 = encode_set(&[set.get("q2").unwrap().clone()].into_iter().collect());
        let y = encode_set(&[set.get("y").unwrap().clone()].into_iter().collect());
        let mut swapped = encode_set(&set)[..10].to_vec();
        swapped.extend_from_slice(&y[10..]);
        swapped.extend_from_slice(&q2[10..]);
        assert_eq!(decode_set(&swapped), Err(HistIoError::BadName));

        let mut duplicated = encode_set(&set)[..10].to_vec();
        duplicated.extend_from_slice(&q2[10..]);
        duplicated.extend_from_slice(&q2[10..]);
        assert_eq!(decode_set(&duplicated), Err(HistIoError::BadName));
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode_set(&sample_set());
        bytes[0] = b'X';
        assert_eq!(decode_set(&bytes).unwrap_err(), HistIoError::BadMagic);
    }
}
