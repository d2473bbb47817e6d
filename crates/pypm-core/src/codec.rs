//! The byte primitives every wire format in the workspace is written and
//! read through: the `PYPMB1` rule-set binary (`pypm_dsl::binary`) and
//! the `PYPMWIRE` container and graph section (`pypm_wire`).
//!
//! Integers are little-endian and strings are a `u32` byte length
//! followed by UTF-8. Writing is [`Put`] on a plain `Vec<u8>`. Reading is
//! a [`Cursor`] over a borrowed `&[u8]`: every read checks the bytes left
//! before it touches them, so no input, however corrupt, can panic a
//! decoder, and a count field is checked against the bytes left before
//! anything is allocated for it. A read that fails says why in a
//! [`ReadError`]; each format maps that onto its own error vocabulary.

/// Why a [`Cursor`] read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// Fewer bytes are left than the read needs.
    Truncated,
    /// A count field claims more elements than the bytes left could
    /// encode ([`Cursor::count`]), checked before anything is allocated.
    CountTooLarge,
    /// A string is not valid UTF-8.
    BadString,
}

/// A bounds-checked read cursor over borrowed bytes. Strings and byte
/// runs come back as slices of the input, never copies. Every read
/// fails with [`ReadError::Truncated`] when fewer bytes are left than it
/// needs, and then leaves the cursor where it was.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.data.len() < n {
            return Err(ReadError::Truncated);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ReadError> {
        self.array().map(i64::from_le_bytes)
    }

    /// A `u32` count of elements that each occupy at least `min_elem`
    /// bytes, checked against the bytes left: a hostile or bit-flipped
    /// count is refused here, before a caller sizes a `Vec` by it.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] without four bytes to read,
    /// [`ReadError::CountTooLarge`] when `count × min_elem` exceeds what
    /// is left.
    pub fn count(&mut self, min_elem: usize) -> Result<usize, ReadError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.data.len() {
            return Err(ReadError::CountTooLarge);
        }
        Ok(n)
    }

    /// A string: a `u32` byte length, then that many bytes of UTF-8,
    /// borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] or [`ReadError::CountTooLarge`] when the
    /// length or the bytes it names are not all there,
    /// [`ReadError::BadString`] when they are not UTF-8.
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|_| ReadError::BadString)
    }

    /// Everything not yet read; the cursor is left empty.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.data)
    }
}

/// The little-endian writes the wire formats make, on a `Vec<u8>`.
pub trait Put {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64);
    /// Appends a string as [`Cursor::str`] reads it back: a `u32` byte
    /// length, then the UTF-8 bytes.
    fn put_str(&mut self, s: &str);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_str(&mut self, s: &str) {
        self.put_u32_le(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_write_reads_back() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_i64_le(-42);
        buf.put_str("héllo");
        buf.extend_from_slice(b"tail");
        let mut r = Cursor::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(-42));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.rest(), b"tail");
        assert_eq!(r.rest(), b"");
        assert_eq!(r.u8(), Err(ReadError::Truncated));
    }

    #[test]
    fn short_reads_fail_without_moving_the_cursor() {
        let mut r = Cursor::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(ReadError::Truncated));
        assert_eq!(r.take(4), Err(ReadError::Truncated));
        assert_eq!(r.rest(), [1, 2, 3]);
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let mut buf = Vec::new();
        buf.put_u32_le(2);
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(Cursor::new(&buf).count(4), Ok(2));
        assert_eq!(Cursor::new(&buf).count(5), Err(ReadError::CountTooLarge));
        let mut absurd = Vec::new();
        absurd.put_u32_le(u32::MAX);
        assert_eq!(
            Cursor::new(&absurd).count(usize::MAX),
            Err(ReadError::CountTooLarge)
        );
        // A string's length is a count of one-byte elements.
        let mut long = Vec::new();
        long.put_u32_le(3);
        long.extend_from_slice(b"ab");
        assert_eq!(Cursor::new(&long).str(), Err(ReadError::CountTooLarge));
        let mut bad = Vec::new();
        bad.put_u32_le(1);
        bad.put_u8(0xff);
        assert_eq!(Cursor::new(&bad).str(), Err(ReadError::BadString));
    }
}
