//! High-level seal/open API combining compression, encryption and MAC.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aes::Aes128;
use crate::bufpool;
use crate::envelope::{self, Envelope, EnvelopeFlags};
use crate::glz;
use crate::hmac::HmacSha1;
use crate::kdf::DerivedKeys;
use crate::{ctr, CodecError};

/// The string the MAC key is derived from when no password is
/// configured (§5.4).
const MAC_DEFAULT: &str = "ginja-default-mac-key";

/// Configuration for a [`Codec`], mirroring Ginja's object-protection
/// options (§5.4 / §6): compression and password-derived encryption.
#[derive(Debug, Clone)]
pub struct CodecConfig {
    compression: bool,
    password: Option<String>,
    kdf_iterations: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl CodecConfig {
    /// A configuration with no compression and no encryption.
    pub fn new() -> Self {
        CodecConfig {
            compression: false,
            password: None,
            kdf_iterations: crate::kdf::DEFAULT_ITERATIONS,
        }
    }

    /// Enables or disables GLZ compression (the paper's "ZLIB
    /// configured for fastest operation").
    #[must_use]
    pub fn compression(mut self, enabled: bool) -> Self {
        self.compression = enabled;
        self
    }

    /// Enables AES-128-CTR encryption with keys derived from `password`.
    #[must_use]
    pub fn password(mut self, password: impl Into<String>) -> Self {
        self.password = Some(password.into());
        self
    }

    /// Overrides the PBKDF2 iteration count (tests lower it for speed).
    #[must_use]
    pub fn kdf_iterations(mut self, iterations: u32) -> Self {
        self.kdf_iterations = iterations;
        self
    }
}

/// Seals plaintext into cloud-object envelopes and opens them back.
///
/// A `Codec` is cheap to share (`&Codec` is `Send + Sync`) and is used
/// concurrently by all of Ginja's uploader threads.
pub struct Codec {
    compression: bool,
    aes: Option<Aes128>,
    /// HMAC-SHA1 keyed with the MAC key, cloned per tag and per nonce.
    mac: HmacSha1,
    nonce_counter: AtomicU64,
}

impl std::fmt::Debug for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Codec")
            .field("compression", &self.compression)
            .field("encrypted", &self.aes.is_some())
            .finish()
    }
}

impl Codec {
    /// Builds a codec from `config`, deriving keys as needed.
    pub fn new(config: CodecConfig) -> Self {
        let (aes, mac_key) = match &config.password {
            Some(pw) => {
                let keys = DerivedKeys::from_password_iterations(pw, config.kdf_iterations);
                (Some(Aes128::new(&keys.enc_key)), keys.mac_key)
            }
            None => (None, DerivedKeys::mac_only(MAC_DEFAULT)),
        };
        Codec {
            compression: config.compression,
            aes,
            mac: HmacSha1::new(&mac_key),
            nonce_counter: AtomicU64::new(1),
        }
    }

    /// A codec with all transforms off (MAC only) — Ginja's default mode.
    pub fn plain() -> Self {
        Codec::new(CodecConfig::new())
    }

    /// Seals `plaintext` for the object named `name`.
    ///
    /// Applies compression (skipped when it does not help), then
    /// encryption, then appends the MAC. The allocating form of
    /// [`Codec::seal_into`], with the same bytes.
    ///
    /// # Errors
    ///
    /// Currently never returns an error.
    pub fn seal(&self, name: &str, plaintext: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.seal_into(name, plaintext, &mut out)?;
        Ok(out)
    }

    /// Seals `plaintext` into `out` (cleared first), reusing `out`'s
    /// allocation and a thread-local [`bufpool`] buffer for the
    /// intermediate compress/encrypt body, so steady-state sealing does
    /// not allocate.
    ///
    /// # Errors
    ///
    /// Currently never returns an error.
    pub fn seal_into(
        &self,
        name: &str,
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let mut flags = EnvelopeFlags::empty();
        let mut body = bufpool::take();

        if self.compression {
            glz::compress_into(plaintext, &mut body);
            if body.len() < plaintext.len() {
                flags = flags.union(EnvelopeFlags::COMPRESSED);
            } else {
                body.clear();
            }
        }
        if !flags.contains(EnvelopeFlags::COMPRESSED) {
            body.extend_from_slice(plaintext);
        }

        let mut nonce = [0u8; 16];
        if let Some(aes) = &self.aes {
            flags = flags.union(EnvelopeFlags::ENCRYPTED);
            nonce = self.next_nonce(name);
            ctr::apply_keystream(aes, &nonce, &mut body);
        }

        envelope::assemble_into(&self.mac, name, flags, &nonce, &body, out);
        bufpool::recycle(body);
        Ok(())
    }

    /// Opens a sealed object, returning the plaintext. The allocating
    /// form of [`Codec::open_into`].
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]: bad magic, truncation, MAC mismatch, an
    /// encrypted object without a configured password, or corrupt
    /// compressed data.
    pub fn open(&self, name: &str, sealed: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.open_into(name, sealed, &mut out)?;
        Ok(out)
    }

    /// Opens a sealed object into `out` (cleared first), reusing `out`'s
    /// allocation and, for an encrypted compressed body, a pooled buffer
    /// to decrypt into.
    ///
    /// # Errors
    ///
    /// Same as [`Codec::open`]; on error `out`'s contents are
    /// unspecified.
    pub fn open_into(
        &self,
        name: &str,
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let env = Envelope::parse(sealed)?;
        env.verify(&self.mac, name)?;
        let aes = if env.flags.contains(EnvelopeFlags::ENCRYPTED) {
            Some(self.aes.as_ref().ok_or(CodecError::KeyMissing)?)
        } else {
            None
        };

        if !env.flags.contains(EnvelopeFlags::COMPRESSED) {
            out.clear();
            out.extend_from_slice(env.body);
            if let Some(aes) = aes {
                ctr::apply_keystream(aes, &env.nonce, out);
            }
            return Ok(());
        }
        let Some(aes) = aes else {
            return glz::decompress_into(env.body, glz::DEFAULT_MAX_OUTPUT, out);
        };
        let mut body = bufpool::take();
        body.extend_from_slice(env.body);
        ctr::apply_keystream(aes, &env.nonce, &mut body);
        let result = glz::decompress_into(&body, glz::DEFAULT_MAX_OUTPUT, out);
        bufpool::recycle(body);
        result
    }

    /// Verifies only the integrity of a sealed object without decoding
    /// the body — used by the backup-verification procedure (§5.4).
    ///
    /// # Errors
    ///
    /// Same parse/MAC errors as [`Codec::open`].
    pub fn verify(&self, name: &str, sealed: &[u8]) -> Result<(), CodecError> {
        Envelope::parse(sealed)?.verify(&self.mac, name)
    }

    /// Derives a unique per-object nonce from an internal counter and the
    /// object name; never repeats for the lifetime of the codec.
    fn next_nonce(&self, name: &str) -> [u8; 16] {
        let counter = self.nonce_counter.fetch_add(1, Ordering::Relaxed);
        let mut mac = self.mac.clone();
        mac.update(b"ginja-nonce");
        mac.update(&counter.to_be_bytes());
        mac.update(name.as_bytes());
        let tag = mac.finalize();
        let mut nonce = [0u8; 16];
        nonce.copy_from_slice(&tag[..16]);
        nonce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressible() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(b"repetitive-field-content");
        }
        data
    }

    #[test]
    fn plain_roundtrip() {
        let codec = Codec::plain();
        let sealed = codec.seal("obj", b"hello").unwrap();
        assert_eq!(codec.open("obj", &sealed).unwrap(), b"hello");
    }

    #[test]
    fn all_mode_combinations_roundtrip() {
        let data = compressible();
        for (comp, enc) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut cfg = CodecConfig::new().compression(comp).kdf_iterations(2);
            if enc {
                cfg = cfg.password("pw");
            }
            let codec = Codec::new(cfg);
            let sealed = codec.seal("WAL/9_f_0", &data).unwrap();
            assert_eq!(
                codec.open("WAL/9_f_0", &sealed).unwrap(),
                data,
                "comp={comp} enc={enc}"
            );
        }
    }

    #[test]
    fn compression_reduces_size() {
        let data = compressible();
        let plain = Codec::plain().seal("o", &data).unwrap();
        let compressed = Codec::new(CodecConfig::new().compression(true))
            .seal("o", &data)
            .unwrap();
        assert!(compressed.len() < plain.len());
    }

    #[test]
    fn incompressible_data_stored_plain() {
        // xorshift noise: the COMPRESSED flag must not be set when
        // compression does not help, so no size is wasted.
        let mut state = 9u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let codec = Codec::new(CodecConfig::new().compression(true));
        let sealed = codec.seal("o", &data).unwrap();
        let env = Envelope::parse(&sealed).unwrap();
        assert!(!env.flags.contains(EnvelopeFlags::COMPRESSED));
        assert_eq!(codec.open("o", &sealed).unwrap(), data);
    }

    #[test]
    fn encrypted_body_is_not_plaintext() {
        let codec = Codec::new(CodecConfig::new().password("pw").kdf_iterations(2));
        let sealed = codec.seal("o", b"super secret database row").unwrap();
        let hay = sealed.windows(12).any(|w| w == b"super secret");
        assert!(!hay, "plaintext leaked into sealed object");
    }

    #[test]
    fn nonces_are_unique_per_seal() {
        let codec = Codec::new(CodecConfig::new().password("pw").kdf_iterations(2));
        let a = codec.seal("o", b"same").unwrap();
        let b = codec.seal("o", b"same").unwrap();
        assert_ne!(a, b, "two seals of the same data must differ (fresh nonce)");
    }

    #[test]
    fn wrong_password_fails_mac() {
        let codec = Codec::new(CodecConfig::new().password("right").kdf_iterations(2));
        let sealed = codec.seal("o", b"data").unwrap();
        let other = Codec::new(CodecConfig::new().password("wrong").kdf_iterations(2));
        assert_eq!(other.open("o", &sealed), Err(CodecError::MacMismatch));
    }

    #[test]
    fn plain_codec_rejects_encrypted_objects() {
        // Same MAC default but no key: pretend an attacker strips crypto.
        // Since MAC keys differ (password vs default), we get MacMismatch.
        let enc = Codec::new(CodecConfig::new().password("pw").kdf_iterations(2));
        let sealed = enc.seal("o", b"data").unwrap();
        let plain = Codec::plain();
        assert!(plain.open("o", &sealed).is_err());
    }

    #[test]
    fn name_binding_prevents_object_swap() {
        let codec = Codec::plain();
        let sealed = codec.seal("WAL/5_seg_0", b"newer").unwrap();
        assert_eq!(
            codec.open("WAL/4_seg_0", &sealed),
            Err(CodecError::MacMismatch)
        );
    }

    #[test]
    fn verify_without_decode() {
        let codec = Codec::new(CodecConfig::new().compression(true));
        let sealed = codec.seal("o", &compressible()).unwrap();
        codec.verify("o", &sealed).unwrap();
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(codec.verify("o", &bad), Err(CodecError::MacMismatch));
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let codec = Codec::new(
            CodecConfig::new()
                .compression(true)
                .password("p")
                .kdf_iterations(2),
        );
        let sealed = codec.seal("o", b"").unwrap();
        assert_eq!(codec.open("o", &sealed).unwrap(), b"");
    }

    #[test]
    fn seal_into_and_open_into_match_allocating_paths() {
        let data = compressible();
        for (comp, enc) in [(false, false), (true, false), (false, true), (true, true)] {
            let build = || {
                let mut cfg = CodecConfig::new().compression(comp).kdf_iterations(2);
                if enc {
                    cfg = cfg.password("pw");
                }
                Codec::new(cfg)
            };
            // Two identically-constructed codecs so the nonce counters
            // advance in lockstep across the two API paths.
            let reference = build();
            let pooled = build();
            let mut sealed = Vec::new();
            let mut opened = Vec::new();
            for round in 0..3 {
                let expect = reference.seal("WAL/7_f_0", &data).unwrap();
                pooled.seal_into("WAL/7_f_0", &data, &mut sealed).unwrap();
                assert_eq!(sealed, expect, "comp={comp} enc={enc} round={round}");
                pooled.open_into("WAL/7_f_0", &sealed, &mut opened).unwrap();
                assert_eq!(opened, data);
                assert_eq!(reference.open("WAL/7_f_0", &expect).unwrap(), data);
            }
        }
    }

    #[test]
    fn open_into_rejects_what_open_rejects() {
        let codec = Codec::plain();
        let sealed = codec.seal("o", b"payload").unwrap();
        let mut out = Vec::new();
        assert_eq!(
            codec.open_into("other", &sealed, &mut out),
            Err(CodecError::MacMismatch)
        );
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert_eq!(
            codec.open_into("o", &bad, &mut out),
            Err(CodecError::BadMagic)
        );
        // Encrypted object opened by a codec without a key, sharing the
        // MAC default so the failure is specifically the missing key.
        let enc = Codec::new(CodecConfig::new().password("pw").kdf_iterations(2));
        let sealed_enc = enc.seal("o", b"data").unwrap();
        let env = Envelope::parse(&sealed_enc).unwrap();
        let retagged = envelope::assemble(
            // Re-MAC the encrypted body under the plain codec's key to
            // isolate the KeyMissing path from MacMismatch.
            &HmacSha1::new(&DerivedKeys::mac_only(MAC_DEFAULT)),
            "o",
            env.flags,
            &env.nonce,
            env.body,
        );
        assert_eq!(
            codec.open_into("o", &retagged, &mut out),
            Err(CodecError::KeyMissing)
        );
    }

    #[test]
    fn codec_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Codec>();
    }
}
