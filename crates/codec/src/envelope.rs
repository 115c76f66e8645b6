//! The on-cloud object frame: header, optional transforms, trailing MAC.
//!
//! Every object Ginja uploads is wrapped in this envelope so that
//! recovery can (1) detect tampering/corruption via the MAC, (2) know
//! whether to decrypt and/or decompress, and (3) bind the payload to the
//! object *name* — a swapped object (valid MAC, wrong name) is rejected,
//! which matters because Ginja encodes ordering metadata in names.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "GNJ1"
//! 4       1     flags (bit0 = compressed, bit1 = encrypted)
//! 5       16    nonce (zero when not encrypted)
//! 21      n     body
//! 21+n    20    HMAC-SHA1 over (name ‖ magic ‖ flags ‖ nonce ‖ body)
//! ```

use crate::hmac::{verify_tag, HmacSha1, TAG_LEN};
use crate::CodecError;

/// Envelope magic bytes ("GiNJa v1").
pub const MAGIC: [u8; 4] = *b"GNJ1";

/// Fixed header length (magic + flags + nonce).
pub const HEADER_LEN: usize = 4 + 1 + 16;

/// Minimum total envelope length (header + MAC, empty body).
pub const MIN_LEN: usize = HEADER_LEN + TAG_LEN;

/// Transform flags recorded in the envelope header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EnvelopeFlags(u8);

impl EnvelopeFlags {
    /// Body is GLZ-compressed (before encryption).
    pub const COMPRESSED: EnvelopeFlags = EnvelopeFlags(0b01);
    /// Body is AES-128-CTR encrypted.
    pub const ENCRYPTED: EnvelopeFlags = EnvelopeFlags(0b10);

    const KNOWN_MASK: u8 = 0b11;

    /// Empty flag set (plain body).
    pub fn empty() -> Self {
        EnvelopeFlags(0)
    }

    /// Returns whether all bits of `other` are set in `self`.
    pub fn contains(self, other: EnvelopeFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    #[must_use]
    pub fn union(self, other: EnvelopeFlags) -> Self {
        EnvelopeFlags(self.0 | other.0)
    }

    /// Raw bits as stored on the wire.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Parses wire bits, rejecting unknown flags.
    pub fn from_bits(bits: u8) -> Result<Self, CodecError> {
        if bits & !Self::KNOWN_MASK != 0 {
            return Err(CodecError::UnknownFlags(bits));
        }
        Ok(EnvelopeFlags(bits))
    }
}

/// A parsed (but not yet decoded) envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Transform flags.
    pub flags: EnvelopeFlags,
    /// CTR nonce (all-zero when not encrypted).
    pub nonce: [u8; 16],
    /// Body bytes (possibly compressed and/or encrypted).
    pub body: &'a [u8],
    /// The stored MAC tag.
    pub tag: [u8; TAG_LEN],
}

impl<'a> Envelope<'a> {
    /// Splits `data` into header, body and tag, validating magic and flags.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if shorter than [`MIN_LEN`],
    /// [`CodecError::BadMagic`] or [`CodecError::UnknownFlags`] on a bad
    /// header. The MAC is *not* checked here; see [`Envelope::verify`].
    pub fn parse(data: &'a [u8]) -> Result<Self, CodecError> {
        if data.len() < MIN_LEN {
            return Err(CodecError::Truncated);
        }
        if data[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let flags = EnvelopeFlags::from_bits(data[4])?;
        let mut nonce = [0u8; 16];
        nonce.copy_from_slice(&data[5..21]);
        let body = &data[HEADER_LEN..data.len() - TAG_LEN];
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&data[data.len() - TAG_LEN..]);
        Ok(Envelope {
            flags,
            nonce,
            body,
            tag,
        })
    }

    /// Verifies the MAC under the keyed context `mac` for the object
    /// named `name`.
    ///
    /// # Errors
    ///
    /// [`CodecError::MacMismatch`] on any difference.
    pub fn verify(&self, mac: &HmacSha1, name: &str) -> Result<(), CodecError> {
        let expected = compute_tag(mac, name, self.flags, &self.nonce, self.body);
        if verify_tag(&expected, &self.tag) {
            Ok(())
        } else {
            Err(CodecError::MacMismatch)
        }
    }
}

/// Computes the envelope MAC for the given fields. `mac` is a keyed
/// context ([`HmacSha1::new`] of the MAC key), cloned here so the key's
/// pads are hashed once per key, not once per object.
pub fn compute_tag(
    mac: &HmacSha1,
    name: &str,
    flags: EnvelopeFlags,
    nonce: &[u8; 16],
    body: &[u8],
) -> [u8; TAG_LEN] {
    let mut mac = mac.clone();
    mac.update(name.as_bytes());
    mac.update(&MAGIC);
    mac.update(&[flags.bits()]);
    mac.update(nonce);
    mac.update(body);
    mac.finalize()
}

/// Assembles a complete envelope from its parts.
pub fn assemble(
    mac: &HmacSha1,
    name: &str,
    flags: EnvelopeFlags,
    nonce: &[u8; 16],
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(MIN_LEN + body.len());
    assemble_into(mac, name, flags, nonce, body, &mut out);
    out
}

/// Assembles a complete envelope into `out` (cleared first), reusing its
/// allocation. The zero-copy sibling of [`assemble`].
pub fn assemble_into(
    mac: &HmacSha1,
    name: &str,
    flags: EnvelopeFlags,
    nonce: &[u8; 16],
    body: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    out.reserve(MIN_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(flags.bits());
    out.extend_from_slice(nonce);
    out.extend_from_slice(body);
    let tag = compute_tag(mac, name, flags, nonce, body);
    out.extend_from_slice(&tag);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> HmacSha1 {
        HmacSha1::new(b"test-mac-key")
    }

    #[test]
    fn assemble_parse_verify_roundtrip() {
        let nonce = [9u8; 16];
        let data = assemble(
            &key(),
            "WAL/1_x_0",
            EnvelopeFlags::ENCRYPTED,
            &nonce,
            b"payload",
        );
        let env = Envelope::parse(&data).unwrap();
        assert_eq!(env.flags, EnvelopeFlags::ENCRYPTED);
        assert_eq!(env.nonce, nonce);
        assert_eq!(env.body, b"payload");
        env.verify(&key(), "WAL/1_x_0").unwrap();
    }

    #[test]
    fn assemble_into_matches_assemble_and_reuses_buffer() {
        let nonce = [7u8; 16];
        let allocating = assemble(
            &key(),
            "WAL/3_x_0",
            EnvelopeFlags::COMPRESSED,
            &nonce,
            b"abc",
        );
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"stale contents that must be cleared");
        let cap_before = out.capacity();
        assemble_into(
            &key(),
            "WAL/3_x_0",
            EnvelopeFlags::COMPRESSED,
            &nonce,
            b"abc",
            &mut out,
        );
        assert_eq!(out, allocating);
        assert_eq!(out.capacity(), cap_before, "no reallocation");
    }

    #[test]
    fn empty_body_roundtrip() {
        let data = assemble(
            &key(),
            "DB/0_dump_0",
            EnvelopeFlags::empty(),
            &[0u8; 16],
            b"",
        );
        let env = Envelope::parse(&data).unwrap();
        assert_eq!(env.body, b"");
        env.verify(&key(), "DB/0_dump_0").unwrap();
    }

    #[test]
    fn wrong_name_rejected() {
        let data = assemble(
            &key(),
            "WAL/1_x_0",
            EnvelopeFlags::empty(),
            &[0u8; 16],
            b"p",
        );
        let env = Envelope::parse(&data).unwrap();
        assert_eq!(
            env.verify(&key(), "WAL/2_x_0"),
            Err(CodecError::MacMismatch)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let data = assemble(&key(), "n", EnvelopeFlags::empty(), &[0u8; 16], b"p");
        let env = Envelope::parse(&data).unwrap();
        assert_eq!(
            env.verify(&HmacSha1::new(b"other-key"), "n"),
            Err(CodecError::MacMismatch)
        );
    }

    #[test]
    fn every_bit_flip_detected() {
        let data = assemble(
            &key(),
            "n",
            EnvelopeFlags::COMPRESSED,
            &[3u8; 16],
            b"body bytes",
        );
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 1;
            match Envelope::parse(&bad) {
                Ok(env) => {
                    assert_eq!(
                        env.verify(&key(), "n"),
                        Err(CodecError::MacMismatch),
                        "byte {i}"
                    )
                }
                Err(e) => {
                    // Magic or flags corruption is caught at parse time.
                    assert!(
                        matches!(e, CodecError::BadMagic | CodecError::UnknownFlags(_)),
                        "byte {i}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_rejected() {
        let data = assemble(&key(), "n", EnvelopeFlags::empty(), &[0u8; 16], b"");
        assert_eq!(
            Envelope::parse(&data[..MIN_LEN - 1]),
            Err(CodecError::Truncated)
        );
        assert_eq!(Envelope::parse(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = assemble(&key(), "n", EnvelopeFlags::empty(), &[0u8; 16], b"x");
        data[0] = b'X';
        assert_eq!(Envelope::parse(&data), Err(CodecError::BadMagic));
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut data = assemble(&key(), "n", EnvelopeFlags::empty(), &[0u8; 16], b"x");
        data[4] = 0x80;
        assert_eq!(Envelope::parse(&data), Err(CodecError::UnknownFlags(0x80)));
    }

    #[test]
    fn flags_ops() {
        let f = EnvelopeFlags::COMPRESSED.union(EnvelopeFlags::ENCRYPTED);
        assert!(f.contains(EnvelopeFlags::COMPRESSED));
        assert!(f.contains(EnvelopeFlags::ENCRYPTED));
        assert!(!EnvelopeFlags::empty().contains(EnvelopeFlags::ENCRYPTED));
        assert_eq!(EnvelopeFlags::from_bits(f.bits()).unwrap(), f);
    }
}
