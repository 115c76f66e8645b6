//! AES-128 counter (CTR) mode stream encryption.
//!
//! CTR mode turns the block cipher into a stream cipher: the keystream is
//! `E_k(nonce ‖ counter)` and encryption and decryption are the same XOR.
//! Ginja encrypts each cloud object under a fresh 16-byte nonce stored in
//! the object envelope (see [`crate::envelope`]).
//!
//! The keystream comes from AES-NI when the CPU has it (see
//! [`crate::hw`]) and from the portable T-table cipher otherwise.

use crate::aes::{Aes128, BLOCK_LEN};
use crate::hw::AesNi;

/// Encrypts or decrypts `data` in place with AES-128-CTR.
///
/// The 16-byte `iv` combines nonce and initial counter; successive blocks
/// increment the counter as a 128-bit big-endian integer (NIST SP 800-38A).
///
/// ```rust
/// use ginja_codec::{aes::Aes128, ctr::apply_keystream};
///
/// let aes = Aes128::new(b"0123456789abcdef");
/// let iv = [0u8; 16];
/// let mut data = b"attack at dawn".to_vec();
/// apply_keystream(&aes, &iv, &mut data);
/// assert_ne!(&data, b"attack at dawn");
/// apply_keystream(&aes, &iv, &mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
pub fn apply_keystream(aes: &Aes128, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
    // The counter is the IV read as one big-endian integer, so the
    // SP 800-38A increment — with its carries and its wrap at 2^128 — is
    // a wrapping add, in both kernels.
    let counter = u128::from_be_bytes(*iv);
    match AesNi::detect() {
        Some(ni) => ni.apply_keystream(&aes.round_key_bytes(), counter, data),
        None => apply_keystream_portable(aes, counter, data),
    }
}

/// The portable CTR kernel, on the T-table cipher: the only one on CPUs
/// without AES-NI, and the reference the hardware one is tested against.
/// Whole blocks are XORed 16 bytes at a time.
fn apply_keystream_portable(aes: &Aes128, mut counter: u128, data: &mut [u8]) {
    let mut blocks = data.chunks_exact_mut(BLOCK_LEN);
    for block in blocks.by_ref() {
        let block: &mut [u8; BLOCK_LEN] = block.try_into().expect("chunks_exact yields 16");
        let text = u128::from_be_bytes(*block) ^ aes.encrypt_u128(counter);
        *block = text.to_be_bytes();
        counter = counter.wrapping_add(1);
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let keystream = aes.encrypt_u128(counter).to_be_bytes();
        for (d, k) in tail.iter_mut().zip(keystream) {
            *d ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::oracle;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks.
    #[test]
    fn sp800_38a_ctr_vectors() {
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = from_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        apply_keystream(&Aes128::new(&key), &iv, &mut data);
        assert_eq!(
            hex(&data),
            concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee",
            )
        );
    }

    #[test]
    fn roundtrip_non_block_lengths() {
        let aes = Aes128::new(&[42u8; 16]);
        let iv = [7u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 33, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut data = original.clone();
            apply_keystream(&aes, &iv, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} should change");
            }
            apply_keystream(&aes, &iv, &mut data);
            assert_eq!(data, original, "len {len} roundtrip");
        }
    }

    /// The keystream the byte-wise oracle gives for `blocks` blocks from
    /// `iv`, incrementing the counter one byte at a time as SP 800-38A
    /// spells it out.
    fn oracle_keystream(key: &[u8; 16], iv: [u8; 16], blocks: usize) -> Vec<u8> {
        let mut counter = iv;
        let mut out = Vec::with_capacity(blocks * 16);
        for _ in 0..blocks {
            out.extend_from_slice(&oracle::encrypt(key, &counter));
            for byte in counter.iter_mut().rev() {
                let (v, carry) = byte.overflowing_add(1);
                *byte = v;
                if !carry {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn keystream_matches_oracle_across_counter_carries() {
        let key = [0x3cu8; 16];
        let aes = Aes128::new(&key);
        // Each IV but the first sits a few blocks below a carry: out of
        // the low byte, out of the low 32 bits, out of the low 64 bits
        // (into the high half of the u128), and past 2^128 back to zero.
        for iv in [
            0u128,
            0x5a5a_5a5a_5a5a_5a5a_5a5a_5a5a_5a5a_5afe,
            0x2222_2222_2222_2222_2222_2222_ffff_fffe,
            0x1111_1111_1111_1111_ffff_ffff_ffff_fffd,
            u128::MAX - 2,
        ] {
            let iv = iv.to_be_bytes();
            for len in [1usize, 16, 17, 64, 100] {
                let blocks = len.div_ceil(16);
                let mut data = vec![0u8; len];
                apply_keystream(&aes, &iv, &mut data);
                let expect = oracle_keystream(&key, iv, blocks);
                assert_eq!(data, expect[..len], "iv {} len {len}", hex(&iv));
            }
        }
    }

    #[test]
    fn counter_wraps_at_2_pow_128() {
        // The block after counter 0xff..ff is encrypted under counter 0.
        let key = [9u8; 16];
        let aes = Aes128::new(&key);
        let mut data = [0u8; 32];
        apply_keystream(&aes, &[0xffu8; 16], &mut data);
        assert_eq!(data[..16], oracle::encrypt(&key, &[0xffu8; 16]));
        assert_eq!(data[16..], oracle::encrypt(&key, &[0u8; 16]));
    }

    #[test]
    fn different_ivs_give_different_ciphertexts() {
        let aes = Aes128::new(&[1u8; 16]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        apply_keystream(&aes, &[0u8; 16], &mut a);
        apply_keystream(&aes, &[1u8; 16], &mut b);
        assert_ne!(a, b);
    }
}
