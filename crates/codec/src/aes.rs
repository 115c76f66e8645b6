//! AES-128 block cipher (FIPS-197).
//!
//! Ginja encrypts cloud objects "using AES with 128-bit keys" (§6). Only
//! the encryption direction of the block cipher is needed because the
//! stream mode used by this crate is CTR (see [`crate::ctr`]), which
//! encrypts the counter in both directions.
//!
//! ## T-table rounds
//!
//! The state is four big-endian 32-bit column words. One full round
//! (SubBytes, ShiftRows, MixColumns, AddRoundKey) is, per output column,
//! four table lookups XORed with a round-key word: `TE[r][x]` is the
//! MixColumns image of `SBOX[x]` sitting in row `r` of a column, so the
//! lookup does the S-box and the column mix at once, and picking the
//! source byte of row `r` from column `c + r` does ShiftRows. The four
//! 1 KiB tables are byte rotations of one another and are computed at
//! compile time from the S-box by a `const fn`; the last round, which has
//! no MixColumns, reads the S-box directly. This is the classic 32-bit
//! software AES; it costs ~16 lookups per round instead of the byte-wise
//! round's 16 S-box lookups plus 4 column mixes of shifts and XORs.
//!
//! Table lookups are indexed by key-dependent state, so this code is not
//! constant-time: an attacker who shares the uploader's CPU caches could
//! in principle learn key bits from access timing. Ginja's threat model
//! (§5.4) is confidentiality of data at rest in the cloud against the
//! provider, not a local attacker on the database host, who could read
//! the plaintext database anyway. On CPUs with AES-NI, CTR mode does not
//! use these tables at all (see [`crate::hw`]): the `aesenc` rounds have
//! no key-dependent memory accesses.

/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;

const NR: usize = 10; // rounds for AES-128

#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

/// Multiply by 2 in GF(2^8) with the AES reduction polynomial.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// `TE[0][x]` is the column word `(2·s, s, s, 3·s)` for `s = SBOX[x]`:
/// SubBytes then MixColumns of a byte in row 0. `TE[r]` is it rotated
/// right by `8·r` bits, the same byte's contribution from row `r`.
const fn te_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let word = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        te[0][x] = word;
        te[1][x] = word.rotate_right(8);
        te[2][x] = word.rotate_right(16);
        te[3][x] = word.rotate_right(24);
        x += 1;
    }
    te
}

static TE: [[u32; 256]; 4] = te_tables();

/// SubWord: the S-box applied to each byte of a word.
#[inline(always)]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// An expanded AES-128 key, ready to encrypt blocks.
#[derive(Clone)]
pub struct Aes128 {
    /// The 44 big-endian key-schedule words, four per round.
    round_keys: [u32; 4 * (NR + 1)],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys of AES-128.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [0u32; 4 * (NR + 1)];
        for (i, word) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4-byte chunk"));
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// The 11 round keys, each as the 16 bytes XORed into the state
    /// (FIPS-197 byte order), for the AES-NI kernel in [`crate::hw`].
    pub(crate) fn round_key_bytes(&self) -> [[u8; BLOCK_LEN]; NR + 1] {
        std::array::from_fn(|round| {
            let words = &self.round_keys[4 * round..4 * round + 4];
            let mut bytes = [0u8; BLOCK_LEN];
            for (column, word) in bytes.chunks_exact_mut(4).zip(words) {
                column.copy_from_slice(&word.to_be_bytes());
            }
            bytes
        })
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        *block = self.encrypt_u128(u128::from_be_bytes(*block)).to_be_bytes();
    }

    /// Encrypts one block held as a big-endian `u128` — the form the CTR
    /// counter and keystream take in [`crate::ctr`].
    #[inline]
    pub(crate) fn encrypt_u128(&self, block: u128) -> u128 {
        let rk = &self.round_keys;
        let mut s = [
            (block >> 96) as u32 ^ rk[0],
            (block >> 64) as u32 ^ rk[1],
            (block >> 32) as u32 ^ rk[2],
            block as u32 ^ rk[3],
        ];
        for round in 1..NR {
            let k = &rk[4 * round..4 * round + 4];
            s = [
                table_column(&s, 0) ^ k[0],
                table_column(&s, 1) ^ k[1],
                table_column(&s, 2) ^ k[2],
                table_column(&s, 3) ^ k[3],
            ];
        }
        let k = &rk[4 * NR..];
        let out = [
            final_column(&s, 0) ^ k[0],
            final_column(&s, 1) ^ k[1],
            final_column(&s, 2) ^ k[2],
            final_column(&s, 3) ^ k[3],
        ];
        (u128::from(out[0]) << 96)
            | (u128::from(out[1]) << 64)
            | (u128::from(out[2]) << 32)
            | u128::from(out[3])
    }
}

/// Output column `c` of SubBytes + ShiftRows + MixColumns: row `r`'s
/// byte comes from column `c + r` (ShiftRows), through `TE[r]`.
#[inline(always)]
fn table_column(s: &[u32; 4], c: usize) -> u32 {
    TE[0][(s[c] >> 24) as usize]
        ^ TE[1][(s[(c + 1) % 4] >> 16) as u8 as usize]
        ^ TE[2][(s[(c + 2) % 4] >> 8) as u8 as usize]
        ^ TE[3][s[(c + 3) % 4] as u8 as usize]
}

/// Output column `c` of the last round: SubBytes + ShiftRows only.
#[inline(always)]
fn final_column(s: &[u32; 4], c: usize) -> u32 {
    u32::from_be_bytes([
        SBOX[(s[c] >> 24) as usize],
        SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
        SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
        SBOX[s[(c + 3) % 4] as u8 as usize],
    ])
}

/// The byte-wise FIPS-197 cipher, kept as the oracle the table rounds
/// are tested against: its own key expansion and rounds over `[u8; 16]`
/// (state column-major, `state[c*4 + r]` is row `r`, column `c`).
#[cfg(test)]
pub(crate) mod oracle {
    use super::{xtime, BLOCK_LEN, KEY_LEN, NR, RCON, SBOX};

    /// Encrypts `block` under `key`, one byte operation at a time.
    pub(crate) fn encrypt(key: &[u8; KEY_LEN], block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let round_keys = expand_key(key);
        let mut state = *block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in &round_keys[1..NR] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[NR]);
        state
    }

    fn expand_key(key: &[u8; KEY_LEN]) -> [[u8; 16]; NR + 1] {
        let mut w = [[0u8; 4]; 4 * (NR + 1)];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: shift left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: shift left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: shift left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[c * 4],
                state[c * 4 + 1],
                state[c * 4 + 2],
                state[c * 4 + 3],
            ];
            let all = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[c * 4] = col[0] ^ all ^ xtime(col[0] ^ col[1]);
            state[c * 4 + 1] = col[1] ^ all ^ xtime(col[1] ^ col[2]);
            state[c * 4 + 2] = col[2] ^ all ^ xtime(col[2] ^ col[3]);
            state[c * 4 + 3] = col[3] ^ all ^ xtime(col[3] ^ col[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // FIPS-197 Appendix C.1.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    // FIPS-197 Appendix B.
    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = from_hex("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "3925841d02dc09fbdc118597196a0b32");
    }

    // NIST SP 800-38A F.1.1 ECB-AES128 (first two blocks).
    #[test]
    fn sp800_38a_ecb_blocks() {
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);

        let mut b1: [u8; 16] = from_hex("6bc1bee22e409f96e93d7e117393172a")
            .try_into()
            .unwrap();
        aes.encrypt_block(&mut b1);
        assert_eq!(hex(&b1), "3ad77bb40d7a3660a89ecaf32466ef97");

        let mut b2: [u8; 16] = from_hex("ae2d8a571e03ac9c9eb76fac45af8e51")
            .try_into()
            .unwrap();
        aes.encrypt_block(&mut b2);
        assert_eq!(hex(&b2), "f5d3d58503b9699de785895a96fdbaaf");
    }

    #[test]
    fn oracle_meets_fips197_appendix_c1() {
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        assert_eq!(
            hex(&oracle::encrypt(&key, &block)),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn table_rounds_match_bytewise_oracle(
            key in proptest::collection::vec(any::<u8>(), 16),
            block in proptest::collection::vec(any::<u8>(), 16),
        ) {
            let key: [u8; 16] = key.try_into().unwrap();
            let block: [u8; 16] = block.try_into().unwrap();
            let mut fast = block;
            Aes128::new(&key).encrypt_block(&mut fast);
            prop_assert_eq!(fast, oracle::encrypt(&key, &block));
        }
    }

    #[test]
    fn different_keys_differ() {
        let mut b1 = [7u8; 16];
        let mut b2 = [7u8; 16];
        Aes128::new(&[0u8; 16]).encrypt_block(&mut b1);
        Aes128::new(&[1u8; 16]).encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn debug_redacts_key() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("[9"));
    }
}
