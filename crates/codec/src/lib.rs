#![warn(missing_docs)]
// `unsafe` is confined to the hardware kernels (`hw`) and the volatile
// zeroing of derived keys (`kdf`); each block names what makes it sound.
#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! Compression, encryption and integrity primitives for Ginja cloud objects.
//!
//! The Ginja paper (§5.4, §6) protects every object it uploads with three
//! optional layers, applied in this order:
//!
//! 1. **Compression** — the prototype used ZLIB "configured for fastest
//!    operation". This crate implements [`glz`], a byte-oriented LZ77
//!    compressor with a comparable speed/ratio profile (~1.4× on WAL data).
//! 2. **Encryption** — AES with 128-bit keys. Implemented in [`aes`] (the
//!    FIPS-197 block cipher) and [`ctr`] (counter-mode streaming).
//! 3. **Integrity** — "a MAC of each object stored together with it",
//!    using SHA-1. Implemented in [`sha1`] and [`hmac`].
//!
//! The [`envelope`] module combines the three into the on-cloud object
//! frame, and [`Codec`] is the high-level entry point used by
//! `ginja-core`:
//!
//! ```rust
//! use ginja_codec::{Codec, CodecConfig};
//!
//! # fn main() -> Result<(), ginja_codec::CodecError> {
//! let codec = Codec::new(CodecConfig::new().compression(true).password("s3cret"));
//! let sealed = codec.seal("WAL/42_xlog0_0", b"page bytes ...")?;
//! let opened = codec.open("WAL/42_xlog0_0", &sealed)?;
//! assert_eq!(opened, b"page bytes ...");
//! # Ok(())
//! # }
//! ```
//!
//! All primitives are implemented from scratch (no external crypto or
//! compression dependencies) and validated against published test vectors
//! (FIPS-197 for AES, RFC 3174 for SHA-1, RFC 2202 for HMAC-SHA1,
//! RFC 6070 for PBKDF2). On x86_64 CPUs with the SHA and AES-NI
//! extensions, SHA-1 and AES-CTR run on them ([`hw`]); the output is the
//! same byte for byte.

pub mod aes;
pub mod bufpool;
pub mod ctr;
pub mod envelope;
pub mod glz;
pub mod hmac;
#[allow(unsafe_code)]
pub mod hw;
pub mod kdf;
pub mod sha1;
pub mod varint;

mod codec;
mod error;

pub use codec::{Codec, CodecConfig};
pub use envelope::{Envelope, EnvelopeFlags};
pub use error::CodecError;
