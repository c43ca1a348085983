//! # irec-wire
//!
//! The binary wire format used at every serialization boundary of the IREC reproduction.
//!
//! In the paper's implementation, PCBs are marshalled with Protobuf and exchanged between the
//! ingress gateway, the RACs and the egress gateway over gRPC; the marshalling/transport cost
//! is one of the three latency components measured in Fig. 6. This crate plays the same role:
//! a compact, explicit, length-delimited binary encoding with
//!
//! * unsigned LEB128 varints ([`varint`]),
//! * a bounds-checked [`WireReader`] and an append-only [`WireWriter`],
//! * the [`Encode`]/[`Decode`] traits implemented by PCBs, extensions and RAC messages.
//!
//! The format is deliberately simple (no schema evolution) but every decoder is defensive:
//! truncated, oversized or garbage inputs produce [`IrecError::Decode`] rather than panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod varint;

pub use codec::{Decode, Encode, WireReader, WireWriter};
pub use varint::{decode_varint, encode_varint, varint_len, write_varint, MAX_VARINT_LEN};

use irec_types::IrecError;

/// Maximum length of a single length-delimited field (16 MiB).
///
/// This bounds memory allocation when decoding untrusted input; the paper similarly bounds
/// the size of fetched on-demand algorithm executables.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Encodes any [`Encode`] value to a fresh byte vector.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value of type `T` from `bytes`, requiring that all input is consumed.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, IrecError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}
