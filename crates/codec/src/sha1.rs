//! SHA-1 message digest (FIPS 180-1 / RFC 3174).
//!
//! The Ginja prototype computes "MACs using SHA-1" (§6). SHA-1 is no
//! longer collision-resistant, but as the inner hash of HMAC (the use in
//! this system) it remains a reasonable integrity primitive and is kept
//! here for fidelity with the paper.
//!
//! Blocks are compressed with the x86_64 SHA extensions when the CPU has
//! them (see [`crate::hw`]) and by the portable rounds below otherwise.

use crate::hw::ShaNi;

/// Size of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// Block size of SHA-1 in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

/// Incremental SHA-1 hasher.
///
/// ```rust
/// use ginja_codec::sha1::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(hex(&digest), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the standard initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Feeds `data` into the hash. May be called any number of times.
    pub fn update(&mut self, data: &[u8]) {
        let ni = ShaNi::detect();
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &[self.buf], ni);
                self.buf_len = 0;
            }
        }
        // Absorb whole blocks straight from the input — no intermediate
        // stack copy per block.
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        compress(&mut self.state, blocks, ni);
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Consumes the hasher and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Build the padding in place: 0x80, zeros, then the 64-bit
        // length — one block when the tail leaves >= 8 spare bytes after
        // the 0x80 marker, two otherwise.
        let mut blocks = [self.buf, [0u8; BLOCK_LEN]];
        let flat = blocks.as_flattened_mut();
        flat[self.buf_len] = 0x80;
        flat[self.buf_len + 1..].fill(0);
        let n = if self.buf_len + 1 > BLOCK_LEN - 8 {
            2
        } else {
            1
        };
        flat[n * BLOCK_LEN - 8..n * BLOCK_LEN].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &blocks[..n], ShaNi::detect());

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks` into `state`: with the SHA extensions when `ni`
/// says the CPU has them, otherwise with [`compress_portable`].
fn compress(state: &mut [u32; 5], blocks: &[[u8; BLOCK_LEN]], ni: Option<ShaNi>) {
    match ni {
        Some(ni) => ni.compress(state, blocks),
        None => blocks.iter().for_each(|b| compress_portable(state, b)),
    }
}

/// The portable SHA-1 compression of one block: the only kernel on CPUs
/// without the SHA extensions, and the reference the hardware one is
/// tested against.
pub(crate) fn compress_portable(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    // One loop per 20-round stage, so each stage's boolean function
    // and constant are fixed in its loop body instead of chosen per
    // round.
    let mut s = *state;
    for &wi in &w[..20] {
        let [_, b, c, d, _] = s;
        round(&mut s, d ^ (b & (c ^ d)), 0x5A82_7999, wi);
    }
    for &wi in &w[20..40] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0x6ED9_EBA1, wi);
    }
    for &wi in &w[40..60] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (d & (b | c)), 0x8F1B_BCDC, wi);
    }
    for &wi in &w[60..] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0xCA62_C1D6, wi);
    }
    for (h, v) in state.iter_mut().zip(s) {
        *h = h.wrapping_add(v);
    }
}

/// One SHA-1 round over the working variables `[a, b, c, d, e]`, given
/// the stage's boolean function of `b, c, d` already evaluated as `f`.
#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, w: u32) {
    let [a, b, c, d, e] = *s;
    let temp = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(w);
    *s = [temp, a, b.rotate_left(30), c, d];
}

/// One-shot convenience: SHA-1 of `data`.
///
/// ```rust
/// let d = ginja_codec::sha1::digest(b"");
/// assert_eq!(d[0], 0xda);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn vector_448_bits() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn vector_repeated_block() {
        // RFC 3174 test 4: "0123456701234567..." x 80.
        let mut data = Vec::new();
        for _ in 0..80 {
            data.extend_from_slice(b"01234567");
        }
        assert_eq!(
            hex(&digest(&data)),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = digest(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), one_shot, "split at {split}");
        }
    }

    #[test]
    fn incremental_byte_at_a_time() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(
            hex(&h.finalize()),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // Lengths straddling the 55/56-byte padding boundary and 64-byte blocks.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha1::new();
            h.update(&data);
            // Just verify it matches an independent two-part computation.
            let mut h2 = Sha1::new();
            h2.update(&data[..len / 2]);
            h2.update(&data[len / 2..]);
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }
}
