//! The SHIP wire format: little-endian, length-prefixed byte streams.
//!
//! Everything a SHIP channel transfers is first flattened into this format,
//! mirroring the paper's `ship_serializable_if` contract ("the channel calls
//! these functions to transform communication objects into serial data
//! streams and vice versa"). The same bytes later become bus beats when the
//! channel is mapped onto a communication architecture, so the format is
//! deliberately compact and position-independent.

use std::error::Error;
use std::fmt;

/// Failure while decoding a wire stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes.
    UnexpectedEnd {
        /// How many more bytes were needed.
        needed: usize,
        /// How many remained.
        remaining: usize,
    },
    /// A length prefix exceeded the remaining stream or a sanity bound.
    BadLength(u64),
    /// An invalid encoding for the target type (e.g. a bool that is not 0/1,
    /// invalid UTF-8, an unknown enum variant index).
    InvalidValue(String),
    /// Bytes were left over after a complete top-level decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd { needed, remaining } => write!(
                f,
                "unexpected end of wire stream: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            WireError::InvalidValue(s) => write!(f, "invalid encoded value: {s}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl Error for WireError {}

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i8`.
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `i16`.
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 `f32` (LE bit pattern).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 `f64` (LE bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Length-prefixes whatever `body` writes, without materializing it in
    /// a separate buffer first: reserves the 8-byte prefix, runs `body`
    /// against this writer, then backpatches the prefix with the number of
    /// bytes produced. Wire-identical to encoding the body separately and
    /// calling [`put_len_prefixed`](Self::put_len_prefixed).
    pub fn put_len_prefixed_with(&mut self, body: impl FnOnce(&mut ByteWriter)) {
        let prefix_at = self.buf.len();
        self.put_u64(0);
        let start = self.buf.len();
        body(self);
        let len = (self.buf.len() - start) as u64;
        self.buf[prefix_at..start].copy_from_slice(&len.to_le_bytes());
    }
}

impl From<Vec<u8>> for ByteWriter {
    /// Wraps an existing buffer, appending after its current contents.
    /// [`into_bytes`](ByteWriter::into_bytes) returns the same allocation,
    /// so encode loops can reuse one buffer across messages
    /// (see [`serialize_into`](crate::serialize::serialize_into)).
    fn from(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }
}

/// Deserializes values from a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! get_le {
    ($name:ident, $t:ty) => {
        /// Reads a little-endian value.
        ///
        /// # Errors
        ///
        /// Returns [`WireError::UnexpectedEnd`] when the stream is exhausted.
        pub fn $name(&mut self) -> Result<$t, WireError> {
            const N: usize = std::mem::size_of::<$t>();
            let bytes = self.take(N)?;
            Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
        }
    };
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the whole stream was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEnd`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEnd`] when the stream is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a strict bool (`0` or `1`).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidValue`] for any other byte.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidValue(format!("bool byte {b:#x}"))),
        }
    }

    get_le!(get_u16, u16);
    get_le!(get_u32, u32);
    get_le!(get_u64, u64);
    get_le!(get_i16, i16);
    get_le!(get_i32, i32);
    get_le!(get_i64, i64);
    get_le!(get_f32, f32);
    get_le!(get_f64, f64);

    /// Reads a little-endian `i8`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEnd`] when the stream is exhausted.
    pub fn get_i8(&mut self) -> Result<i8, WireError> {
        Ok(self.get_u8()? as i8)
    }

    /// Reads a `u64` length prefix and that many bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadLength`] when the prefix exceeds the stream.
    pub fn get_len_prefixed(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(WireError::BadLength(n));
        }
        self.take(n as usize)
    }

    /// Reads a `u64` length prefix and returns a child reader over exactly
    /// that many bytes, advancing this reader past them.
    ///
    /// Decoding a nested [`put_len_prefixed_with`](ByteWriter::put_len_prefixed_with)
    /// envelope through a child reader bounds every inner read by the
    /// envelope body: an inner prefix that overruns the outer body fails
    /// with a classified [`WireError`] instead of silently consuming the
    /// parent stream's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadLength`] when the prefix exceeds the stream.
    pub fn sub_reader(&mut self) -> Result<ByteReader<'a>, WireError> {
        Ok(ByteReader::new(self.get_len_prefixed()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.put_bool(true);
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0102030405060708);
        w.put_i32(-42);
        w.put_f64(3.5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0102030405060708);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn little_endian_layout() {
        let mut w = ByteWriter::new();
        w.put_u32(0x11223344);
        assert_eq!(w.as_bytes(), &[0x44, 0x33, 0x22, 0x11]);
    }

    #[test]
    fn unexpected_end_reports_counts() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedEnd {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn strict_bool_rejects_garbage() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(r.get_bool(), Err(WireError::InvalidValue(_))));
    }

    #[test]
    fn len_prefixed_with_matches_two_pass_encoding() {
        let mut by_copy = ByteWriter::new();
        let mut body = ByteWriter::new();
        body.put_u32(0xDEAD);
        body.put_len_prefixed(b"inner");
        by_copy.put_u16(7);
        by_copy.put_len_prefixed(body.as_bytes());

        let mut streamed = ByteWriter::new();
        streamed.put_u16(7);
        streamed.put_len_prefixed_with(|w| {
            w.put_u32(0xDEAD);
            w.put_len_prefixed(b"inner");
        });
        assert_eq!(streamed.as_bytes(), by_copy.as_bytes());
    }

    #[test]
    fn len_prefixed_with_nests() {
        let mut w = ByteWriter::new();
        w.put_len_prefixed_with(|w| {
            w.put_len_prefixed_with(|w| w.put_u8(9));
        });
        let mut r = ByteReader::new(w.as_bytes());
        let outer = r.get_len_prefixed().unwrap();
        let mut r2 = ByteReader::new(outer);
        assert_eq!(r2.get_len_prefixed().unwrap(), &[9]);
    }

    #[test]
    fn writer_from_vec_appends_and_returns_same_allocation() {
        let mut buf = Vec::with_capacity(64);
        buf.push(0xEE);
        let ptr = buf.as_ptr();
        let mut w = ByteWriter::from(buf);
        w.put_u8(0xFF);
        let out = w.into_bytes();
        assert_eq!(out, vec![0xEE, 0xFF]);
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn len_prefixed_roundtrip_and_bound_check() {
        let mut w = ByteWriter::new();
        w.put_len_prefixed(b"hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len_prefixed().unwrap(), b"hello");

        let mut bad = bytes.clone();
        bad[0] = 200; // length longer than payload
        let mut r = ByteReader::new(&bad);
        assert!(matches!(r.get_len_prefixed(), Err(WireError::BadLength(_))));
    }
}
