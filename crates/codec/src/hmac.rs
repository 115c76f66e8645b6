//! HMAC-SHA1 (RFC 2104), the MAC Ginja stores with every cloud object.
//!
//! §5.4 of the paper: "Our system also implements some basic integrity
//! protection by storing a MAC of each object together with it. If
//! encryption is enabled, the provided password is also used to generate
//! the MAC key, otherwise, a default string (a configuration parameter)
//! is used to generate this key."

use crate::sha1::{Sha1, BLOCK_LEN, DIGEST_LEN};

/// Length of an HMAC-SHA1 tag in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA1 computation.
///
/// A fresh context holds two SHA-1 midstates: the inner hash after the
/// `key ⊕ ipad` block and the outer hash after the `key ⊕ opad` block.
/// Keying costs those two compressions once; a caller that MACs many
/// messages under one key builds the context once and clones it per
/// message, so each tag costs only the message's blocks plus the one
/// outer block.
///
/// ```rust
/// use ginja_codec::hmac::HmacSha1;
///
/// let keyed = HmacSha1::new(b"key");
/// let mut mac = keyed.clone();
/// mac.update(b"The quick brown fox ");
/// mac.update(b"jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 20);
/// ```
#[derive(Clone)]
pub struct HmacSha1 {
    inner: Sha1,
    outer: Sha1,
}

impl std::fmt::Debug for HmacSha1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are functions of the key alone: never print them.
        f.debug_struct("HmacSha1")
            .field("midstates", &"<redacted>")
            .finish()
    }
}

impl HmacSha1 {
    /// Creates an HMAC context keyed with `key` (any length; keys longer
    /// than the SHA-1 block size are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha1::digest(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha1::new();
        inner.update(&ipad);
        let mut outer = Sha1::new();
        outer.update(&opad);
        HmacSha1 { inner, outer }
    }

    /// Feeds message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the context and returns the 20-byte tag.
    pub fn finalize(self) -> [u8; TAG_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA1 of `data` under `key`.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = HmacSha1::new(key);
    mac.update(data);
    mac.finalize()
}

/// Constant-time tag comparison (avoids leaking the mismatch position).
pub fn verify_tag(expected: &[u8; TAG_LEN], actual: &[u8; TAG_LEN]) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 HMAC-SHA1 test cases.
    #[test]
    fn rfc2202_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_case_2() {
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha1(&key, &data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_case_4() {
        let key: Vec<u8> = (1..=25u8).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex(&hmac_sha1(&key, &data)),
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da"
        );
    }

    #[test]
    fn rfc2202_case_6_long_key() {
        let key = [0xaau8; 80];
        assert_eq!(
            hex(&hmac_sha1(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn rfc2202_case_7_long_key_long_data() {
        let key = [0xaau8; 80];
        assert_eq!(
            hex(&hmac_sha1(
                &key,
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
            )),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = b"some key material";
        let data = b"0123456789abcdef0123456789abcdef";
        let one_shot = hmac_sha1(key, data);
        let mut mac = HmacSha1::new(key);
        for chunk in data.chunks(5) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), one_shot);
    }

    #[test]
    fn cloned_keyed_context_matches_fresh_keying() {
        let keyed = HmacSha1::new(b"Jefe");
        for msg in [&b""[..], b"a", b"what do ya want for nothing?", &[7u8; 200]] {
            let mut mac = keyed.clone();
            mac.update(msg);
            assert_eq!(mac.finalize(), hmac_sha1(b"Jefe", msg));
        }
    }

    #[test]
    fn debug_redacts_midstates() {
        let dbg = format!("{:?}", HmacSha1::new(b"key"));
        assert_eq!(dbg, r#"HmacSha1 { midstates: "<redacted>" }"#);
    }

    #[test]
    fn verify_tag_detects_difference() {
        let a = hmac_sha1(b"k", b"m");
        let mut b = a;
        assert!(verify_tag(&a, &b));
        b[19] ^= 1;
        assert!(!verify_tag(&a, &b));
        b[19] ^= 1;
        b[0] ^= 0x80;
        assert!(!verify_tag(&a, &b));
    }

    #[test]
    fn different_keys_produce_different_tags() {
        assert_ne!(hmac_sha1(b"key1", b"msg"), hmac_sha1(b"key2", b"msg"));
    }
}
