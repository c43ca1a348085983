//! Unsigned LEB128 varints, the integer primitive of the wire format.
//!
//! Everything here is `#[inline]`: the codec's callers live in other crates, and the
//! workspaces that measure them build without LTO, so a primitive that is not marked
//! inlinable costs a call per field (a beacon has about fifty). Errors are built in `#[cold]`
//! functions so that the inlined copies carry a branch and a call, not `String` code.

use irec_types::{IrecError, Result};

/// Maximum number of bytes a u64 varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
#[inline]
pub fn encode_varint(value: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let len = write_varint(value, &mut buf);
    out.extend_from_slice(&buf[..len]);
}

/// Writes the LEB128 encoding of `value` to the front of `buf` and returns its length —
/// for callers that need the encoding on the stack (a length prefix fed to a hasher).
#[inline]
pub fn write_varint(mut value: u64, buf: &mut [u8; MAX_VARINT_LEN]) -> usize {
    let mut len = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf[len] = byte;
            return len + 1;
        }
        buf[len] = byte | 0x80;
        len += 1;
    }
}

/// Returns the number of bytes `value` occupies when varint-encoded.
#[inline]
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Decodes a varint from the front of `input`, returning the value and the number of bytes
/// consumed.
#[inline]
pub fn decode_varint(input: &[u8]) -> Result<(u64, usize)> {
    let (value, rest) = split_varint(input)?;
    Ok((value, input.len() - rest.len()))
}

/// The varint at the front of `bytes` and the bytes that follow it — the one decoder, which
/// [`decode_varint`] and [`crate::WireReader`] share. A varint ends at the first byte
/// without the continuation bit; over-long encodings (`80 00`) are accepted, an 11th byte
/// and a 10th byte contributing more than the one bit a `u64` has left are not.
///
/// The slice comes in by value and the rest goes back by value, so a caller's cursor never
/// has its address taken and can live in registers. `#[inline(always)]`, here and on the
/// two reader methods above it, because a hint is not enough: left to its cost model the
/// compiler keeps one copy of this loop per calling crate and calls it with a pointer to the
/// cursor, which then lives in memory. Inlined, the loop's constant bound unrolls it.
#[inline(always)]
pub(crate) fn split_varint(bytes: &[u8]) -> Result<(u64, &[u8])> {
    let mut value = 0u64;
    for (index, &byte) in bytes.iter().take(MAX_VARINT_LEN).enumerate() {
        let chunk = u64::from(byte & 0x7f);
        if index == MAX_VARINT_LEN - 1 && chunk > 1 {
            break;
        }
        value |= chunk << (7 * index);
        if byte < 0x80 {
            return Ok((value, &bytes[index + 1..]));
        }
    }
    Err(malformed_varint(bytes))
}

/// Why `bytes` does not start with a varint: its first ten bytes hold no byte without the
/// continuation bit, or the 10th contributes more than the one bit a `u64` has left.
#[cold]
#[inline(never)]
fn malformed_varint(bytes: &[u8]) -> IrecError {
    match bytes.get(MAX_VARINT_LEN - 1) {
        Some(tenth) if tenth & 0x7f > 1 => IrecError::decode("varint overflows u64"),
        Some(_) if bytes.len() > MAX_VARINT_LEN => IrecError::decode("varint longer than 10 bytes"),
        _ => IrecError::decode("truncated varint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: u64) -> (u64, usize) {
        let mut buf = Vec::new();
        encode_varint(v, &mut buf);
        assert_eq!(buf.len(), varint_len(v));
        decode_varint(&buf).unwrap()
    }

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        encode_varint(0, &mut buf);
        assert_eq!(buf, [0x00]);
        buf.clear();
        encode_varint(127, &mut buf);
        assert_eq!(buf, [0x7f]);
        buf.clear();
        encode_varint(128, &mut buf);
        assert_eq!(buf, [0x80, 0x01]);
        buf.clear();
        encode_varint(300, &mut buf);
        assert_eq!(buf, [0xac, 0x02]);
    }

    #[test]
    fn roundtrip_edge_values() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let (decoded, _) = roundtrip(v);
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        assert!(decode_varint(&[]).is_err());
        assert!(decode_varint(&[0x80]).is_err());
        assert!(decode_varint(&[0xff, 0xff]).is_err());
    }

    #[test]
    fn overlong_input_errors() {
        // 11 continuation bytes.
        let buf = vec![0x80u8; 11];
        assert!(decode_varint(&buf).is_err());
        // 10 bytes but the last contributes more than 1 bit => overflow.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x7f);
        assert!(decode_varint(&buf).is_err());
    }

    #[test]
    fn decode_reports_consumed_length() {
        let mut buf = Vec::new();
        encode_varint(300, &mut buf);
        buf.extend_from_slice(&[0xAA, 0xBB]);
        let (v, used) = decode_varint(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [
            0u64,
            1,
            127,
            128,
            16384,
            1 << 21,
            1 << 28,
            1 << 35,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_varint(v, &mut buf);
            assert_eq!(varint_len(v), buf.len(), "value {v}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in any::<u64>()) {
            let (decoded, used) = roundtrip(v);
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(used, varint_len(v));
        }
    }
}
