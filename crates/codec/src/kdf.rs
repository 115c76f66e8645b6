//! Password-based key derivation (PBKDF2-HMAC-SHA1, RFC 2898).
//!
//! Ginja "uses a key generated from a password (assumed to be kept
//! secure) provided during the initialization of the system" (§5.4). The
//! derived material feeds both the AES-128 encryption key and the HMAC
//! key; when encryption is disabled, the MAC key is derived from a
//! configurable default string instead.

use crate::hmac::HmacSha1;
use crate::sha1::DIGEST_LEN;

/// Default iteration count — small enough for tests, large enough to not
/// be free; production deployments should raise it.
pub const DEFAULT_ITERATIONS: u32 = 4096;

/// Derives `out.len()` bytes of key material from `password` and `salt`
/// using PBKDF2-HMAC-SHA1 with `iterations` rounds.
///
/// # Panics
///
/// Panics if `iterations` is zero (RFC 2898 requires a positive count).
///
/// ```rust
/// let mut key = [0u8; 16];
/// ginja_codec::kdf::pbkdf2_sha1(b"password", b"salt", 1, &mut key);
/// assert_ne!(key, [0u8; 16]);
/// ```
pub fn pbkdf2_sha1(password: &[u8], salt: &[u8], iterations: u32, out: &mut [u8]) {
    assert!(iterations > 0, "pbkdf2 requires at least one iteration");
    // Every PRF call is keyed with the password: key once, then each
    // iteration clones the two midstates instead of re-hashing the pads.
    let keyed = HmacSha1::new(password);
    for (block, chunk) in out.chunks_mut(DIGEST_LEN).enumerate() {
        let block_index = block as u32 + 1;
        let mut mac = keyed.clone();
        mac.update(salt);
        mac.update(&block_index.to_be_bytes());
        let mut u = mac.finalize();
        let mut acc = u;
        for _ in 1..iterations {
            let mut mac = keyed.clone();
            mac.update(&u);
            u = mac.finalize();
            for (a, b) in acc.iter_mut().zip(u.iter()) {
                *a ^= b;
            }
        }
        chunk.copy_from_slice(&acc[..chunk.len()]);
    }
}

/// Key material Ginja derives from an operator password: a 16-byte
/// AES-128 key and a 20-byte MAC key, from independent PBKDF2 blocks
/// (distinct salts, so a leak of one does not reveal the other).
#[derive(Clone)]
pub struct DerivedKeys {
    /// AES-128 encryption key.
    pub enc_key: [u8; 16],
    /// HMAC-SHA1 key.
    pub mac_key: [u8; DIGEST_LEN],
}

impl std::fmt::Debug for DerivedKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DerivedKeys")
            .field("enc_key", &"<redacted>")
            .field("mac_key", &"<redacted>")
            .finish()
    }
}

impl Drop for DerivedKeys {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // Best-effort hygiene: clear key material before the memory is
        // reused. (volatile writes prevent the zeroing being optimized
        // away; the expanded AES round keys inside `Codec` live for the
        // process lifetime by design.)
        for byte in self.enc_key.iter_mut().chain(self.mac_key.iter_mut()) {
            // SAFETY: `byte` is a live, aligned `&mut u8` into `self`; no
            // CPU feature is involved.
            unsafe { std::ptr::write_volatile(byte, 0) };
        }
    }
}

impl DerivedKeys {
    /// Derives both keys with an explicit iteration count (tests use a
    /// small count to stay fast).
    pub fn from_password_iterations(password: &str, iterations: u32) -> Self {
        let mut enc_key = [0u8; 16];
        let mut mac_key = [0u8; DIGEST_LEN];
        pbkdf2_sha1(
            password.as_bytes(),
            b"ginja-enc-v1",
            iterations,
            &mut enc_key,
        );
        pbkdf2_sha1(
            password.as_bytes(),
            b"ginja-mac-v1",
            iterations,
            &mut mac_key,
        );
        DerivedKeys { enc_key, mac_key }
    }

    /// Derives only a MAC key from the configured default string — the
    /// paper's fallback when encryption is disabled (§5.4).
    pub fn mac_only(default_string: &str) -> [u8; DIGEST_LEN] {
        let mut mac_key = [0u8; DIGEST_LEN];
        pbkdf2_sha1(default_string.as_bytes(), b"ginja-mac-v1", 1, &mut mac_key);
        mac_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 6070 PBKDF2-HMAC-SHA1 test vectors.
    #[test]
    fn rfc6070_one_iteration() {
        let mut out = [0u8; 20];
        pbkdf2_sha1(b"password", b"salt", 1, &mut out);
        assert_eq!(hex(&out), "0c60c80f961f0e71f3a9b524af6012062fe037a6");
    }

    #[test]
    fn rfc6070_two_iterations() {
        let mut out = [0u8; 20];
        pbkdf2_sha1(b"password", b"salt", 2, &mut out);
        assert_eq!(hex(&out), "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957");
    }

    #[test]
    fn rfc6070_4096_iterations() {
        let mut out = [0u8; 20];
        pbkdf2_sha1(b"password", b"salt", 4096, &mut out);
        assert_eq!(hex(&out), "4b007901b765489abead49d926f721d065a429c1");
    }

    #[test]
    fn rfc6070_long_inputs_25_bytes() {
        let mut out = [0u8; 25];
        pbkdf2_sha1(
            b"passwordPASSWORDpassword",
            b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
            4096,
            &mut out,
        );
        assert_eq!(
            hex(&out),
            "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038"
        );
    }

    #[test]
    fn multi_block_output() {
        // 40 bytes needs two SHA-1 sized blocks; check determinism and
        // that the second block differs from the first.
        let mut out = [0u8; 40];
        pbkdf2_sha1(b"pw", b"salt", 3, &mut out);
        assert_ne!(&out[..20], &out[20..]);
        let mut again = [0u8; 40];
        pbkdf2_sha1(b"pw", b"salt", 3, &mut again);
        assert_eq!(out, again);
    }

    #[test]
    fn derived_keys_independent() {
        let keys = DerivedKeys::from_password_iterations("hunter2", 2);
        assert_ne!(&keys.enc_key[..], &keys.mac_key[..16]);
        let other = DerivedKeys::from_password_iterations("hunter3", 2);
        assert_ne!(keys.enc_key, other.enc_key);
        assert_ne!(keys.mac_key, other.mac_key);
    }

    #[test]
    fn mac_only_differs_from_password_mac() {
        let keys = DerivedKeys::from_password_iterations("abc", 2);
        let default = DerivedKeys::mac_only("abc");
        // Different iteration counts / path: must not collide.
        assert_ne!(keys.mac_key, default);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let mut out = [0u8; 4];
        pbkdf2_sha1(b"p", b"s", 0, &mut out);
    }

    #[test]
    fn debug_redacts_keys() {
        let keys = DerivedKeys::from_password_iterations("pw", 1);
        let dbg = format!("{keys:?}");
        assert!(dbg.contains("redacted"));
    }
}
