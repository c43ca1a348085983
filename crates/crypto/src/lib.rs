//! # irec-crypto
//!
//! Cryptographic primitives used by the IREC reproduction.
//!
//! The paper relies on two cryptographic mechanisms:
//!
//! 1. every AS **signs its hop entry** in a PCB, so downstream ASes can verify that the path
//!    information was not forged (inherited from SCION's control-plane PKI), and
//! 2. on-demand routing embeds the **hash of the algorithm implementation** in the PCB; a
//!    RAC fetches the executable from the origin AS and verifies that its hash matches
//!    before executing it (§V-C), with the hash integrity protected by the origin signature.
//!
//! A full X.509-style control-plane PKI is out of scope of the paper's contribution, and a
//! public-key implementation from scratch would not change any measured behaviour. This
//! crate therefore substitutes signatures with **HMAC-SHA-256 under per-AS keys** managed by
//! a shared [`KeyRegistry`] (a "simulated PKI"): signing and verification have the same
//! accept/reject semantics and a comparable (hash-dominated) cost profile. SHA-256 and HMAC
//! are implemented from scratch (FIPS 180-4 / RFC 2104) and validated against published test
//! vectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod hmac;
pub mod keys;
pub mod signature;

pub use hash::{sha256, Digest, Sha256, DIGEST_LEN};
pub use hmac::{hmac_sha256, HmacSha256};
pub use keys::{AsKey, KeyRegistry};
pub use signature::{sign, verify, PartialSignature, Signature, Signer, Verifier};
