//! The bounds-checked wire reader/writer and the `Encode`/`Decode` traits.
//!
//! Like [`crate::varint`], every primitive here is `#[inline]` and every error is built in a
//! `#[cold]` function: an `Encode`/`Decode` impl in another crate compiles to one pass over
//! the bytes, not to a call per field.

use crate::varint::split_varint;
use crate::MAX_FIELD_LEN;
use bytes::{BufMut, BytesMut};
use irec_types::{IrecError, Result};

/// Append-only writer building a wire message.
///
/// Writing never allocates beyond growing the one backing buffer: a varint is pushed byte
/// by byte, and [`WireWriter::into_bytes`] hands the buffer over instead of copying it.
/// Callers that know the message size reserve it once with [`WireWriter::with_capacity`].
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    #[inline]
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(256),
        }
    }

    /// Creates a writer with a capacity hint.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a varint-encoded u64.
    #[inline]
    pub fn put_varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.buf.put_u8(value as u8 | 0x80);
            value >>= 7;
        }
        self.buf.put_u8(value as u8);
    }

    /// Writes a varint-encoded u32.
    #[inline]
    pub fn put_u32v(&mut self, value: u32) {
        self.put_varint(u64::from(value));
    }

    /// Writes a single byte.
    #[inline]
    pub fn put_u8(&mut self, value: u8) {
        self.buf.put_u8(value);
    }

    /// Writes a fixed-width big-endian u64 (used where constant size matters, e.g. hashes of
    /// canonical byte strings).
    #[inline]
    pub fn put_u64_fixed(&mut self, value: u64) {
        self.buf.put_u64(value);
    }

    /// Writes a boolean as one byte.
    #[inline]
    pub fn put_bool(&mut self, value: bool) {
        self.buf.put_u8(u8::from(value));
    }

    /// Writes raw bytes without a length prefix.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Writes a length-prefixed byte string.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.put_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_string(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Empties the writer, keeping its buffer for the next message.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer and returns the encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into()
    }

    /// Returns the bytes written so far without consuming the writer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked reader over a wire message: a cursor that only moves forward.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    /// What has not been read yet.
    rest: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { rest: buf }
    }

    /// Number of bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether all input has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.rest.is_empty()
    }

    /// Errors unless all input has been consumed; call after decoding a top-level message.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(trailing_bytes(self.remaining()))
        }
    }

    /// Reads a varint-encoded u64.
    #[inline(always)]
    pub fn get_varint(&mut self) -> Result<u64> {
        let (value, rest) = split_varint(self.rest)?;
        self.rest = rest;
        Ok(value)
    }

    /// Reads a varint-encoded u32, rejecting values that do not fit.
    #[inline(always)]
    pub fn get_u32v(&mut self) -> Result<u32> {
        u32::try_from(self.get_varint()?).map_err(|_| varint_exceeds_u32())
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        let [byte] = self.get_array()?;
        Ok(byte)
    }

    /// Reads a fixed-width big-endian u64.
    #[inline]
    pub fn get_u64_fixed(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.get_array()?))
    }

    /// Reads a boolean encoded as one byte (strictly 0 or 1).
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid_boolean(other)),
        }
    }

    /// Reads exactly `N` raw bytes as an array: one bounds check, no intermediate slice —
    /// the form for fixed-size fields (digests, fixed-width integers).
    #[inline]
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.rest = rest;
                Ok(*head)
            }
            None => Err(unexpected_end(N, self.remaining())),
        }
    }

    /// Reads exactly `len` raw bytes.
    #[inline]
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8]> {
        match self.rest.split_at_checked(len) {
            Some((head, rest)) => {
                self.rest = rest;
                Ok(head)
            }
            None => Err(unexpected_end(len, self.remaining())),
        }
    }

    /// Reads a length-prefixed byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(field_too_long(len));
        }
        self.get_raw(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| IrecError::decode("invalid UTF-8 string"))
    }
}

#[cold]
#[inline(never)]
fn trailing_bytes(remaining: usize) -> IrecError {
    IrecError::decode(format!("{remaining} trailing bytes after message"))
}

#[cold]
#[inline(never)]
fn varint_exceeds_u32() -> IrecError {
    IrecError::decode("varint does not fit in u32")
}

#[cold]
#[inline(never)]
fn invalid_boolean(byte: u8) -> IrecError {
    IrecError::decode(format!("invalid boolean byte {byte}"))
}

#[cold]
#[inline(never)]
fn unexpected_end(needed: usize, remaining: usize) -> IrecError {
    IrecError::decode(format!(
        "unexpected end of input: need {needed} bytes, have {remaining}"
    ))
}

#[cold]
#[inline(never)]
fn implausible_collection_length(len: usize) -> IrecError {
    IrecError::decode(format!("implausible collection length {len}"))
}

#[cold]
#[inline(never)]
fn field_too_long(len: usize) -> IrecError {
    IrecError::decode(format!(
        "field length {len} exceeds maximum {MAX_FIELD_LEN}"
    ))
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
    #[inline]
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_varint(*self);
    }
}

impl Decode for u64 {
    #[inline]
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
            return Err(implausible_collection_length(len));
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
    fn from_bytes_refuses_trailing_bytes() {
        assert_eq!(from_bytes::<u64>(&[0x01]).unwrap(), 1);
        assert_eq!(
            from_bytes::<u64>(&[0x01, 0x02]).unwrap_err().category(),
            "decode"
        );
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

    #[test]
    fn fixed_size_reads_take_an_array_or_nothing() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_array::<2>().unwrap(), [1, 2]);
        // Too few bytes left: an error, and the cursor stays where it was.
        assert_eq!(r.get_array::<4>().unwrap_err().category(), "decode");
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_array::<3>().unwrap(), [3, 4, 5]);
        assert_eq!(r.get_array::<0>().unwrap(), [0u8; 0]);
        assert!(r.get_u8().is_err());
        assert!(r.finish().is_ok());
    }

    /// `decode_varint` as it was before the reader became a cursor — one pass over a
    /// re-sliced input, every check inside the loop — kept as the oracle the cursor reads
    /// are compared against.
    fn reference_decode_varint(input: &[u8]) -> Result<(u64, usize)> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        for (i, &byte) in input.iter().enumerate() {
            if i >= crate::MAX_VARINT_LEN {
                return Err(IrecError::decode("varint longer than 10 bytes"));
            }
            let chunk = (byte & 0x7f) as u64;
            if shift == 63 && chunk > 1 {
                return Err(IrecError::decode("varint overflows u64"));
            }
            value |= chunk << shift;
            if byte & 0x80 == 0 {
                return Ok((value, i + 1));
            }
            shift += 7;
        }
        Err(IrecError::decode("truncated varint"))
    }

    /// Every way of reading a varint off the front of `data` against the reference: the
    /// same value and the same number of bytes consumed, or a decode error from both.
    fn assert_varint_reads_match_reference(data: &[u8]) {
        let reference = reference_decode_varint(data);
        match (&reference, crate::decode_varint(data)) {
            (Ok(expected), Ok(decoded)) => assert_eq!(&decoded, expected, "{data:02x?}"),
            (Err(_), Err(error)) => assert_eq!(error.category(), "decode"),
            (expected, decoded) => panic!("{data:02x?}: {decoded:?}, reference {expected:?}"),
        }
        let mut r = WireReader::new(data);
        match (&reference, r.get_varint()) {
            (Ok((value, used)), Ok(read)) => {
                assert_eq!(read, *value, "{data:02x?}");
                assert_eq!(r.remaining(), data.len() - used);
            }
            (Err(_), Err(error)) => assert_eq!(error.category(), "decode"),
            (expected, read) => panic!("{data:02x?}: {read:?}, reference {expected:?}"),
        }
        let mut r = WireReader::new(data);
        match (&reference, r.get_u32v()) {
            (Ok((value, used)), Ok(read)) => {
                assert_eq!(u64::from(read), *value, "{data:02x?}");
                assert_eq!(r.remaining(), data.len() - used);
            }
            (Ok((value, _)), Err(error)) => {
                assert!(*value > u64::from(u32::MAX), "{data:02x?} refused as u32");
                assert_eq!(error.category(), "decode");
            }
            (Err(_), Err(error)) => assert_eq!(error.category(), "decode"),
            (Err(expected), Ok(read)) => panic!("{data:02x?}: {read}, reference {expected:?}"),
        }
    }

    #[test]
    fn hostile_varints_read_like_the_reference() {
        let nine = [0xffu8; 9];
        let with_tail = |tail: &[u8]| [&nine[..], tail].concat();
        // What each input decodes to (value, bytes consumed), or `None` where it is refused.
        for (input, expected) in [
            // Over-long but terminated: accepted, every byte consumed.
            (vec![0x80, 0x00], Some((0, 2))),
            (vec![0x81, 0x80, 0x80, 0x00], Some((1, 4))),
            (vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x00], Some((0, 6))),
            // Either side of the u32 range.
            (
                vec![0xff, 0xff, 0xff, 0xff, 0x0f],
                Some((u64::from(u32::MAX), 5)),
            ),
            (vec![0x80, 0x80, 0x80, 0x80, 0x10], Some((1 << 32, 5))),
            // Ten bytes are the most a u64 takes, and the 10th holds one bit.
            (with_tail(&[0x01]), Some((u64::MAX, 10))),
            (with_tail(&[0x01, 0xaa]), Some((u64::MAX, 10))),
            (with_tail(&[0x02]), None),
            (with_tail(&[0x7f]), None),
            (with_tail(&[0xff]), None),
            // A 10th byte that continues: truncated, or an 11th byte.
            (with_tail(&[0x81]), None),
            (with_tail(&[0x81, 0x00]), None),
            (with_tail(&[0x80, 0x00]), None),
            (vec![0x80; 10], None),
            (vec![0x80; 11], None),
            (vec![0xff; 11], None),
            (vec![], None),
            (vec![0x80], None),
        ] {
            assert_eq!(crate::decode_varint(&input).ok(), expected, "{input:02x?}");
            assert_varint_reads_match_reference(&input);
        }
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
        fn prop_varint_reads_match_the_reference(data in proptest::collection::vec(any::<u8>(), 0..14),
                                                 shape in 0u8..4,
                                                 value in any::<u64>(),
                                                 shift in 0u32..64) {
            // Raw bytes; bytes that all continue; a run of continuing bytes that ends; and a
            // canonical varint of any length with the raw bytes after it.
            let data: Vec<u8> = match shape {
                0 => data,
                1 => data.iter().map(|byte| byte | 0x80).collect(),
                2 => {
                    let mut data: Vec<u8> = data.iter().map(|byte| byte | 0x80).collect();
                    if let Some(last) = data.last_mut() {
                        *last &= 0x7f;
                    }
                    data
                }
                _ => {
                    let mut canonical = Vec::new();
                    crate::encode_varint(value >> shift, &mut canonical);
                    canonical.extend_from_slice(&data);
                    canonical
                }
            };
            assert_varint_reads_match_reference(&data);
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
