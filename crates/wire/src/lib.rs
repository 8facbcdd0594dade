//! # sp-wire — the byte cursor every sp-system format decodes through
//!
//! Bytes written by one build are read years later by other builds
//! (arXiv:1310.7814), so every decoder of stored bytes must be total: any
//! input yields a value or a rejection, never a panic and never an
//! allocation sized by an untrusted count. Every binary format of the
//! workspace encodes with the little-endian `put_*` helpers here and
//! decodes through [`Cursor`], whose `take_*` methods return `None`
//! instead of reading past the end.
//!
//! ```
//! let mut out = Vec::new();
//! sp_wire::put_u32(&mut out, 1);
//! sp_wire::put_f64(&mut out, 1.5);
//! let mut cursor = sp_wire::Cursor::new(&out);
//! assert_eq!(cursor.take_count(8), Some(1));
//! assert_eq!(cursor.take_f64(), Some(1.5));
//! assert!(cursor.finished());
//! // A count the input cannot hold is rejected, not allocated for.
//! assert_eq!(sp_wire::Cursor::new(&u32::MAX.to_le_bytes()).take_count(8), None);
//! ```

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` (its IEEE-754 bits, so NaN payloads survive).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `u32`-length-prefixed raw bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a `u16`-length-prefixed UTF-8 string (section names).
#[inline]
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    put_u16(out, len);
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// A bounds-checked reader over serialised bytes: every `take_*`
/// returns `None` instead of reading past the end, so corrupted
/// length fields surface as decode failures rather than panics.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Opens a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Takes `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Takes exactly `N` raw bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, _) = self.data[self.pos..].split_first_chunk::<N>()?;
        self.pos += N;
        Some(*head)
    }

    /// Takes a `u8`.
    #[inline]
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take_array().map(u8::from_le_bytes)
    }

    /// Takes an `i8`.
    #[inline]
    pub fn take_i8(&mut self) -> Option<i8> {
        self.take_array().map(i8::from_le_bytes)
    }

    /// Takes a little-endian `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> Option<u16> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Takes a little-endian `i32`.
    #[inline]
    pub fn take_i32(&mut self) -> Option<i32> {
        self.take_array().map(i32::from_le_bytes)
    }

    /// Takes a little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Takes a little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Takes a little-endian `f64`.
    #[inline]
    pub fn take_f64(&mut self) -> Option<f64> {
        self.take_array().map(f64::from_le_bytes)
    }

    /// Takes a `u32` element count, rejecting any count the remaining
    /// input cannot hold when each element occupies at least
    /// `min_elem_bytes` on the wire — so a corrupt count fails the
    /// decode instead of sizing an allocation.
    #[inline]
    pub fn take_count(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let count = self.take_u32()? as usize;
        self.bound(count, min_elem_bytes)
    }

    /// [`take_count`](Self::take_count) for a `u16` element count.
    #[inline]
    pub fn take_count16(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let count = self.take_u16()? as usize;
        self.bound(count, min_elem_bytes)
    }

    fn bound(&self, count: usize, min_elem_bytes: usize) -> Option<usize> {
        let needed = count.checked_mul(min_elem_bytes)?;
        (needed <= self.data.len() - self.pos).then_some(count)
    }

    /// Takes `u32`-length-prefixed bytes.
    #[inline]
    pub fn take_bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.take_u32()? as usize;
        self.take(len).map(|b| b.to_vec())
    }

    /// Takes a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn take_str(&mut self) -> Option<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Takes a `u16`-length-prefixed UTF-8 string.
    #[inline]
    pub fn take_str16(&mut self) -> Option<String> {
        let len = self.take_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Whether every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_count_rejects_counts_the_input_cannot_hold() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(Cursor::new(&bytes).take_count(1), None);

        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(Cursor::new(&bytes).take_count(4), Some(2));
        assert_eq!(Cursor::new(&bytes).take_count(5), None);
        assert_eq!(Cursor::new(&bytes[..3]).take_count(1), None);
        // The u16 flavour: 3 elements of 2 bytes fit in 6, of 3 do not.
        assert_eq!(
            Cursor::new(&[3, 0, 0, 0, 0, 0, 0, 0]).take_count16(2),
            Some(3)
        );
        assert_eq!(Cursor::new(&[3, 0, 0, 0, 0, 0, 0, 0]).take_count16(3), None);
    }

    #[test]
    fn fields_round_trip_and_short_input_is_none() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xab);
        out.extend_from_slice(&(-3i8).to_le_bytes());
        put_u16(&mut out, 0xbeef);
        out.extend_from_slice(&(-70_000i32).to_le_bytes());
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -2.25);
        put_str(&mut out, "sp-system");
        put_str16(&mut out, "h1");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.take_u8(), Some(0xab));
        assert_eq!(cursor.take_i8(), Some(-3));
        assert_eq!(cursor.take_u16(), Some(0xbeef));
        assert_eq!(cursor.take_i32(), Some(-70_000));
        assert_eq!(cursor.take_u64(), Some(u64::MAX - 1));
        assert_eq!(cursor.take_f64(), Some(-2.25));
        assert_eq!(cursor.take_str().as_deref(), Some("sp-system"));
        assert_eq!(cursor.take_str16().as_deref(), Some("h1"));
        assert_eq!(cursor.take(usize::MAX), None);
        assert_eq!(cursor.take_bytes().as_deref(), Some(&[1u8, 2, 3][..]));
        assert!(cursor.finished());
        assert_eq!(cursor.take_u8(), None);
    }
}
