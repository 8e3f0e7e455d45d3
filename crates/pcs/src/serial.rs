//! Byte-stream helpers for proof and key serialization.

use zkml_curves::G1Affine;
use zkml_ff::{Fr, PrimeField};

/// A growable byte sink for proof serialization.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a scalar (32 bytes).
    pub fn scalar(&mut self, v: &Fr) {
        self.buf.extend_from_slice(&v.to_bytes());
    }

    /// Appends a compressed G1 point (32 bytes).
    pub fn g1(&mut self, p: &G1Affine) {
        self.buf.extend_from_slice(&p.to_bytes());
    }

    /// Finishes and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor over proof bytes with typed reads.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Error returned when deserialization fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError(pub &'static str);

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proof deserialization error: {}", self.0)
    }
}
impl std::error::Error for ReadError {}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.pos + n > self.buf.len() {
            return Err(ReadError("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a scalar, rejecting non-canonical encodings.
    pub fn scalar(&mut self) -> Result<Fr, ReadError> {
        let b: [u8; 32] = self.take(32)?.try_into().expect("32 bytes");
        Fr::from_bytes(&b).ok_or(ReadError("non-canonical scalar"))
    }

    /// Reads a compressed G1 point, checking the curve equation.
    pub fn g1(&mut self) -> Result<G1Affine, ReadError> {
        let b: [u8; 32] = self.take(32)?.try_into().expect("32 bytes");
        G1Affine::from_bytes(&b).ok_or(ReadError("invalid G1 point"))
    }

    /// Returns true if all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        self.take(n)
    }

    /// Consumes and returns all remaining bytes.
    pub fn remaining(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_curves::G1Projective;

    #[test]
    fn roundtrip() {
        let mut w = Writer::new();
        w.u32(7);
        w.u64(1 << 40);
        w.scalar(&Fr::from_u64(123456));
        w.g1(&G1Affine::generator());
        w.g1(&G1Affine::identity());
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.scalar().unwrap(), Fr::from_u64(123456));
        assert_eq!(r.g1().unwrap(), G1Affine::generator());
        assert!(r.g1().unwrap().is_identity());
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_fails() {
        let mut w = Writer::new();
        w.g1(&G1Projective::generator().to_affine());
        let bytes = w.finish();
        let mut r = Reader::new(&bytes[..16]);
        assert!(r.g1().is_err());
    }

    #[test]
    fn bad_point_rejected() {
        let mut bytes = G1Affine::generator().to_bytes();
        bytes[0] ^= 1; // perturb x
        let mut r = Reader::new(&bytes);
        assert!(r.g1().is_err());
    }
}
