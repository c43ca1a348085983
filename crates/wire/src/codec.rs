//! The bounds-checked wire reader/writer and the `Encode`/`Decode` traits.

use crate::varint::{decode_varint, write_varint, MAX_VARINT_LEN};
use crate::MAX_FIELD_LEN;
use bytes::{BufMut, BytesMut};
use irec_types::{IrecError, Result};

/// Append-only writer building a wire message.
///
/// Writing never allocates beyond growing the one backing buffer: integers are encoded on
/// the stack, and [`WireWriter::into_bytes`] hands the buffer over instead of copying it.
/// Callers that know the message size reserve it once with [`WireWriter::with_capacity`].
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(256),
        }
    }

    /// Creates a writer with a capacity hint.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a varint-encoded u64.
    pub fn put_varint(&mut self, value: u64) {
        let mut tmp = [0u8; MAX_VARINT_LEN];
        let len = write_varint(value, &mut tmp);
        self.buf.put_slice(&tmp[..len]);
    }

    /// Writes a varint-encoded u32.
    pub fn put_u32v(&mut self, value: u32) {
        self.put_varint(value as u64);
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.put_u8(value);
    }

    /// Writes a fixed-width big-endian u64 (used where constant size matters, e.g. hashes of
    /// canonical byte strings).
    pub fn put_u64_fixed(&mut self, value: u64) {
        self.buf.put_u64(value);
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, value: bool) {
        self.buf.put_u8(u8::from(value));
    }

    /// Writes raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.put_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_string(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Empties the writer, keeping its buffer for the next message.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into()
    }

    /// Returns the bytes written so far without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked reader over a wire message.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Number of bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless all input has been consumed; call after decoding a top-level message.
    pub fn finish(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(IrecError::decode(format!(
                "{} trailing bytes after message",
                self.remaining()
            )))
        }
    }

    /// Reads a varint-encoded u64.
    pub fn get_varint(&mut self) -> Result<u64> {
        let (value, used) = decode_varint(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(value)
    }

    /// Reads a varint-encoded u32, rejecting values that do not fit.
    pub fn get_u32v(&mut self) -> Result<u32> {
        let v = self.get_varint()?;
        u32::try_from(v).map_err(|_| IrecError::decode("varint does not fit in u32"))
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        if self.remaining() < 1 {
            return Err(IrecError::decode("unexpected end of input reading u8"));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a fixed-width big-endian u64.
    pub fn get_u64_fixed(&mut self) -> Result<u64> {
        if self.remaining() < 8 {
            return Err(IrecError::decode("unexpected end of input reading u64"));
        }
        let bytes: [u8; 8] = self.buf[self.pos..self.pos + 8]
            .try_into()
            .expect("slice is 8 bytes");
        self.pos += 8;
        Ok(u64::from_be_bytes(bytes))
    }

    /// Reads a boolean encoded as one byte (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(IrecError::decode(format!("invalid boolean byte {other}"))),
        }
    }

    /// Reads exactly `len` raw bytes.
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(IrecError::decode(format!(
                "unexpected end of input: need {len} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(IrecError::decode(format!(
                "field length {len} exceeds maximum {MAX_FIELD_LEN}"
            )));
        }
        self.get_raw(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| IrecError::decode("invalid UTF-8 string"))
    }
}

/// Values that can be serialized to the wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `writer`.
    fn encode(&self, writer: &mut WireWriter);

    /// Convenience: encodes into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Values that can be deserialized from the wire format.
pub trait Decode: Sized {
    /// Reads one value from `reader`.
    fn decode(reader: &mut WireReader<'_>) -> Result<Self>;
}

impl Encode for u64 {
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_varint(*self);
    }
}

impl Decode for u64 {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        reader.get_varint()
    }
}

impl Encode for String {
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_string(self);
    }
}

impl Decode for String {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        reader.get_string()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_varint(self.len() as u64);
        for item in self {
            item.encode(writer);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        let len = reader.get_varint()? as usize;
        // A non-empty element occupies at least one byte; reject absurd counts early.
        if len > reader.remaining().max(1) * 2 && len > 1_000_000 {
            return Err(IrecError::decode(format!(
                "implausible collection length {len}"
            )));
        }
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(reader)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, writer: &mut WireWriter) {
        match self {
            None => writer.put_bool(false),
            Some(v) => {
                writer.put_bool(true);
                v.encode(writer);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        if reader.get_bool()? {
            Ok(Some(T::decode(reader)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};
    use proptest::prelude::*;

    #[test]
    fn writer_reader_primitives() {
        let mut w = WireWriter::new();
        w.put_varint(300);
        w.put_u8(7);
        w.put_bool(true);
        w.put_u64_fixed(0xDEADBEEF);
        w.put_bytes(b"hello");
        w.put_string("world");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_varint().unwrap(), 300);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u64_fixed().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_string().unwrap(), "world");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.put_bytes(&[1, 2, 3, 4, 5]);
        let mut bytes = w.into_bytes();
        bytes.truncate(3);
        let mut r = WireReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected_by_finish() {
        let bytes = [0x01, 0x02];
        let mut r = WireReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = WireReader::new(&[2]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn oversized_field_rejected() {
        let mut w = WireWriter::new();
        w.put_varint((MAX_FIELD_LEN + 1) as u64);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn u32_varint_range_check() {
        let mut w = WireWriter::new();
        w.put_varint(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_u32v().is_err());
    }

    #[test]
    fn vec_and_option_roundtrip() {
        let v: Vec<u64> = vec![1, 2, 300, 400_000];
        let encoded = to_bytes(&v);
        let decoded: Vec<u64> = from_bytes(&encoded).unwrap();
        assert_eq!(decoded, v);

        let some: Option<String> = Some("abc".to_string());
        let none: Option<String> = None;
        assert_eq!(
            from_bytes::<Option<String>>(&to_bytes(&some)).unwrap(),
            some
        );
        assert_eq!(
            from_bytes::<Option<String>>(&to_bytes(&none)).unwrap(),
            none
        );
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xff, 0xfe, 0xfd]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_string().is_err());
    }

    #[test]
    fn implausible_collection_length_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn writer_capacity_and_len() {
        let mut w = WireWriter::with_capacity(64);
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.len(), 1);
        assert_eq!(w.as_slice(), &[1]);
    }

    /// The push-per-byte LEB128 loop `encode_varint` used before the stack-buffer writer,
    /// kept as the oracle the writer is compared against.
    fn reference_varint(mut value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                out.push(byte);
                return out;
            }
            out.push(byte | 0x80);
        }
    }

    fn put_varint_bytes(value: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(value);
        w.into_bytes()
    }

    #[test]
    fn put_varint_matches_reference_at_every_length_boundary() {
        for len in 1..=10u32 {
            // Smallest and largest value of each encoded length.
            let lo = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let hi = if len == 10 {
                u64::MAX
            } else {
                (1u64 << (7 * len)) - 1
            };
            for value in [lo, hi] {
                let bytes = put_varint_bytes(value);
                assert_eq!(bytes.len(), len as usize, "value {value}");
                assert_eq!(bytes, reference_varint(value));
            }
        }
    }

    #[test]
    fn into_bytes_hands_over_everything_written() {
        let mut w = WireWriter::with_capacity(4);
        for i in 0..100u64 {
            w.put_varint(i * 1_000_003);
        }
        let expected = w.as_slice().to_vec();
        assert_eq!(w.into_bytes(), expected);
    }

    proptest! {
        #[test]
        fn prop_put_varint_matches_encode_varint(value in any::<u64>(), shift in 0u32..64) {
            // `value >> shift` spreads the cases over all ten encoded lengths.
            let value = value >> shift;
            let mut expected = Vec::new();
            crate::encode_varint(value, &mut expected);
            prop_assert_eq!(&put_varint_bytes(value), &expected);
            prop_assert_eq!(&expected, &reference_varint(value));
            prop_assert_eq!(expected.len(), crate::varint_len(value));
        }

        #[test]
        fn prop_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let mut w = WireWriter::new();
            w.put_bytes(&data);
            let encoded = w.into_bytes();
            let mut r = WireReader::new(&encoded);
            prop_assert_eq!(r.get_bytes().unwrap(), &data[..]);
            prop_assert!(r.finish().is_ok());
        }

        #[test]
        fn prop_u64_vec_roundtrip(data in proptest::collection::vec(any::<u64>(), 0..128)) {
            let encoded = to_bytes(&data);
            let decoded: Vec<u64> = from_bytes(&encoded).unwrap();
            prop_assert_eq!(decoded, data);
        }

        #[test]
        fn prop_reader_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Feeding arbitrary bytes to every getter must never panic.
            let mut r = WireReader::new(&data);
            let _ = r.get_varint();
            let _ = r.get_u8();
            let _ = r.get_bool();
            let _ = r.get_u64_fixed();
            let _ = r.get_bytes();
            let _ = r.get_string();
        }
    }
}
