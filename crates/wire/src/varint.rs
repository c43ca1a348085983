//! Unsigned LEB128 varints, the integer primitive of the wire format.

use irec_types::{IrecError, Result};

/// Maximum number of bytes a u64 varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
pub fn encode_varint(value: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let len = write_varint(value, &mut buf);
    out.extend_from_slice(&buf[..len]);
}

/// Writes the LEB128 encoding of `value` to the front of `buf` and returns its length —
/// the allocation-free form every encoder builds on.
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
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Decodes a varint from the front of `input`, returning the value and the number of bytes
/// consumed.
pub fn decode_varint(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(IrecError::decode("varint longer than 10 bytes"));
        }
        let chunk = (byte & 0x7f) as u64;
        // The 10th byte may only contribute a single bit.
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
