//! Hardware SHA-1 and AES-128-CTR kernels (x86_64 SHA and AES-NI
//! extensions), chosen by the CPU at run time.
//!
//! [`crate::sha1`] and [`crate::ctr`] ask `ShaNi::detect` and
//! `AesNi::detect` once per `update` / `apply_keystream` call and hand
//! the kernel every whole block of that call; on a CPU without the
//! extensions (or off x86_64) the detection returns `None` and the
//! portable kernels run. Nothing else picks a path. Both kernels compute
//! exactly what the portable ones do, so sealed bytes do not depend on
//! the CPU.
//!
//! * SHA-1: `sha1rnds4` runs four rounds on the packed `ABCD` state,
//!   `sha1nexte` derives the next `E + W` from the previous `A`, and
//!   `sha1msg1`/`sha1msg2` extend the message schedule four words at a
//!   time.
//! * AES-128-CTR: eight counter blocks in flight through `aesenc` /
//!   `aesenclast`, so the rounds' latency overlaps; the counter is the
//!   same big-endian `u128` with a wrapping add as the portable kernel's.
//!   AES-NI has no key-dependent table lookups, so on CPUs that have it
//!   the T-table timing note in [`crate::aes`] does not apply.
//!
//! The unit tests below run each public path twice, once as the CPU
//! chooses and once with the portable kernels forced, and require equal
//! output. On a CPU without the extensions both runs are portable and
//! the tests pass vacuously.

#[cfg(test)]
use std::cell::Cell;

#[cfg(test)]
thread_local! {
    /// Set by the tests to run the portable kernels on this thread.
    static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// True when this thread must not use a hardware kernel.
fn portable_only() -> bool {
    #[cfg(test)]
    return PORTABLE_ONLY.with(Cell::get);
    #[cfg(not(test))]
    false
}

/// Names the SHA-1 and AES kernels this CPU runs: `"sha-ni+aes-ni"`,
/// `"sha-ni+portable-aes"`, `"portable-sha1+aes-ni"` or `"portable"`.
///
/// ```rust
/// assert!(!ginja_codec::hw::kernels().is_empty());
/// ```
pub fn kernels() -> &'static str {
    match (ShaNi::detect().is_some(), AesNi::detect().is_some()) {
        (true, true) => "sha-ni+aes-ni",
        (true, false) => "sha-ni+portable-aes",
        (false, true) => "portable-sha1+aes-ni",
        (false, false) => "portable",
    }
}

/// Proof that this CPU has the SHA extensions and SSE4.1: only
/// [`ShaNi::detect`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU reports `sha` and `sse4.1`.
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if !portable_only()
            && std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Some(ShaNi(()));
        }
        None
    }

    /// Compresses `blocks` into `state`.
    pub(crate) fn compress(self, state: &mut [u32; 5], blocks: &[[u8; 64]]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only when `detect` saw `sha` and
            // `sse4.1` on this CPU, the features `x86::sha1_blocks` is
            // compiled for.
            unsafe { x86::sha1_blocks(state, blocks) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (state, blocks);
            unreachable!("ShaNi is only detected on x86_64")
        }
    }
}

/// Proof that this CPU has AES-NI: only [`AesNi::detect`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

impl AesNi {
    /// `Some` when the CPU reports `aes`.
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if !portable_only() && std::arch::is_x86_feature_detected!("aes") {
            return Some(AesNi(()));
        }
        None
    }

    /// XORs `data` in place with the AES-128-CTR keystream of
    /// `round_keys` from counter `iv`.
    pub(crate) fn apply_keystream(self, round_keys: &[[u8; 16]; 11], iv: u128, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only when `detect` saw `aes` on this
            // CPU, the feature `x86::aes_ctr` is compiled for.
            unsafe { x86::aes_ctr(round_keys, iv, data) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (round_keys, iv, data);
            unreachable!("AesNi is only detected on x86_64")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Loads 16 bytes as they lie in memory.
    #[inline(always)]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: SSE2, which `loadu` needs, is baseline on every x86_64
        // CPU; the pointer covers 16 readable bytes and `loadu` takes any
        // alignment.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Stores `v` into 16 bytes in memory order.
    #[inline(always)]
    fn store(bytes: &mut [u8; 16], v: __m128i) {
        // SAFETY: SSE2, which `storeu` needs, is baseline on every x86_64
        // CPU; the pointer covers 16 writable bytes and `storeu` takes any
        // alignment.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
    }

    /// Four SHA-1 rounds of stage `$f` (0–3) on `$abcd`; `$e` is `E`
    /// plus the four rounds' schedule words.
    macro_rules! rounds4 {
        ($abcd:expr, $e:expr, $f:literal) => {
            _mm_sha1rnds4_epu32($abcd, $e, $f)
        };
    }

    /// The next four schedule words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3)
        };
    }

    /// SHA-1 compression of `blocks` into `state`.
    ///
    /// The packed state holds `A` in the top lane of `abcd` and `E` in the
    /// top lane of `e0`; each `sha1rnds4` consumes four schedule words, and
    /// `sha1nexte(abcd_before, w)` turns the `A` four rounds back into the
    /// `E` of the next four, plus their schedule words.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn sha1_blocks(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
        // Reverses the 16 bytes, so big-endian word 0 lands in the top lane.
        let byte_swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let [a, b, c, d, e] = state.map(|w| w as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e0 = _mm_set_epi32(e, 0, 0, 0);

        for block in blocks {
            let (words, _) = block.as_chunks::<16>();
            let mut w0 = _mm_shuffle_epi8(load(&words[0]), byte_swap);
            let mut w1 = _mm_shuffle_epi8(load(&words[1]), byte_swap);
            let mut w2 = _mm_shuffle_epi8(load(&words[2]), byte_swap);
            let mut w3 = _mm_shuffle_epi8(load(&words[3]), byte_swap);
            let (abcd_in, e_in) = (abcd, e0);

            // `h0`/`h1` alternate as "state before these four rounds",
            // which `sha1nexte` needs for the next group's `E`.
            let mut h0 = abcd;
            let mut h1 = rounds4!(h0, _mm_add_epi32(e0, w0), 0);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w1), 0);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w2), 0);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w3), 0);
            let mut w4 = schedule!(w0, w1, w2, w3);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w4), 0);

            w0 = schedule!(w1, w2, w3, w4);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w0), 1);
            w1 = schedule!(w2, w3, w4, w0);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w1), 1);
            w2 = schedule!(w3, w4, w0, w1);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w2), 1);
            w3 = schedule!(w4, w0, w1, w2);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w3), 1);
            w4 = schedule!(w0, w1, w2, w3);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w4), 1);

            w0 = schedule!(w1, w2, w3, w4);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w0), 2);
            w1 = schedule!(w2, w3, w4, w0);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w1), 2);
            w2 = schedule!(w3, w4, w0, w1);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w2), 2);
            w3 = schedule!(w4, w0, w1, w2);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w3), 2);
            w4 = schedule!(w0, w1, w2, w3);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w4), 2);

            w0 = schedule!(w1, w2, w3, w4);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w0), 3);
            w1 = schedule!(w2, w3, w4, w0);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w1), 3);
            w2 = schedule!(w3, w4, w0, w1);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w2), 3);
            w3 = schedule!(w4, w0, w1, w2);
            h1 = rounds4!(h0, _mm_sha1nexte_epu32(h1, w3), 3);
            w4 = schedule!(w0, w1, w2, w3);
            h0 = rounds4!(h1, _mm_sha1nexte_epu32(h0, w4), 3);

            // Feed-forward: A..D add lane-wise; `sha1nexte` rotates the
            // final A (four rounds back, in `h1`) into E and adds E_in.
            abcd = _mm_add_epi32(abcd_in, h0);
            e0 = _mm_sha1nexte_epu32(h1, e_in);
        }

        *state = [
            _mm_extract_epi32(abcd, 3),
            _mm_extract_epi32(abcd, 2),
            _mm_extract_epi32(abcd, 1),
            _mm_extract_epi32(abcd, 0),
            _mm_extract_epi32(e0, 3),
        ]
        .map(|w| w as u32);
    }

    /// One block of keystream: AES-128 of `counter` under `rk`.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn encrypt(rk: &[__m128i; 11], counter: u128) -> __m128i {
        let mut b = _mm_xor_si128(load(&counter.to_be_bytes()), rk[0]);
        for k in &rk[1..10] {
            b = _mm_aesenc_si128(b, *k);
        }
        _mm_aesenclast_si128(b, rk[10])
    }

    /// Blocks in flight per stride: enough independent `aesenc` chains
    /// to cover the instruction's latency.
    const LANES: usize = 8;

    /// XORs `data` with the AES-128-CTR keystream of `round_keys` from
    /// counter `iv` (incremented as a big-endian `u128`, wrapping at
    /// 2^128), `LANES` blocks at a time, then the odd blocks and the tail.
    #[target_feature(enable = "aes,sse2")]
    pub(super) fn aes_ctr(round_keys: &[[u8; 16]; 11], iv: u128, data: &mut [u8]) {
        let rk = round_keys.map(|k| load(&k));
        let mut counter = iv;
        let (strides, rest) = data.as_chunks_mut::<{ LANES * 16 }>();
        for stride in strides {
            let mut ks = [_mm_setzero_si128(); LANES];
            for (i, b) in ks.iter_mut().enumerate() {
                let block = counter.wrapping_add(i as u128).to_be_bytes();
                *b = _mm_xor_si128(load(&block), rk[0]);
            }
            for k in &rk[1..10] {
                for b in &mut ks {
                    *b = _mm_aesenc_si128(*b, *k);
                }
            }
            let (blocks, _) = stride.as_chunks_mut::<16>();
            for (block, b) in blocks.iter_mut().zip(ks) {
                let b = _mm_aesenclast_si128(b, rk[10]);
                store(block, _mm_xor_si128(load(block), b));
            }
            counter = counter.wrapping_add(LANES as u128);
        }
        let (blocks, tail) = rest.as_chunks_mut::<16>();
        for block in blocks {
            store(block, _mm_xor_si128(load(block), encrypt(&rk, counter)));
            counter = counter.wrapping_add(1);
        }
        if !tail.is_empty() {
            let mut ks = [0u8; 16];
            store(&mut ks, encrypt(&rk, counter));
            for (d, k) in tail.iter_mut().zip(ks) {
                *d ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use crate::ctr::apply_keystream;
    use crate::hmac::HmacSha1;
    use crate::kdf::pbkdf2_sha1;
    use crate::sha1::{self, Sha1};
    use proptest::prelude::*;

    /// Runs `f` with the portable kernels forced on this thread.
    fn portable<T>(f: impl FnOnce() -> T) -> T {
        PORTABLE_ONLY.with(|p| p.set(true));
        let out = f();
        PORTABLE_ONLY.with(|p| p.set(false));
        out
    }

    /// `data` split at `cuts` (taken modulo its length, sorted).
    fn pieces<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        at.sort_unstable();
        let mut out = Vec::new();
        let mut from = 0;
        for cut in at.into_iter().chain([data.len()]) {
            out.push(&data[from..cut]);
            from = cut;
        }
        out
    }

    fn sha1_of(parts: &[&[u8]]) -> [u8; 20] {
        let mut h = Sha1::new();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    fn hmac_of(key: &[u8], parts: &[&[u8]]) -> [u8; 20] {
        let mut mac = HmacSha1::new(key);
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    fn ctr_of(key: &[u8; 16], iv: u128, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        apply_keystream(&Aes128::new(key), &iv.to_be_bytes(), &mut out);
        out
    }

    #[test]
    fn kernels_names_what_detection_found() {
        let name = kernels();
        assert_eq!(name.starts_with("sha-ni"), ShaNi::detect().is_some());
        assert_eq!(name.ends_with("aes-ni"), AesNi::detect().is_some());
        assert_eq!(portable(kernels), "portable");
    }

    #[test]
    fn multi_block_compress_matches_per_block_portable() {
        let data: Vec<u8> = (0..64 * 9).map(|i| (i * 31 % 251) as u8).collect();
        let (blocks, _) = data.as_chunks::<64>();
        let mut slow = [1u32, 2, 3, 4, 5];
        for block in blocks {
            sha1::compress_portable(&mut slow, block);
        }
        let mut fast = [1u32, 2, 3, 4, 5];
        match ShaNi::detect() {
            Some(ni) => ni.compress(&mut fast, blocks),
            None => fast = slow,
        }
        assert_eq!(fast, slow);
    }

    /// RFC 6070's PBKDF2-HMAC-SHA1 vectors, through the CPU's kernels and
    /// the portable ones.
    #[test]
    fn rfc6070_vectors_on_both_paths() {
        let cases: [(&[u8], &[u8], u32, &str); 4] = [
            (
                b"password",
                b"salt",
                1,
                "0c60c80f961f0e71f3a9b524af6012062fe037a6",
            ),
            (
                b"password",
                b"salt",
                2,
                "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957",
            ),
            (
                b"password",
                b"salt",
                4096,
                "4b007901b765489abead49d926f721d065a429c1",
            ),
            (
                b"passwordPASSWORDpassword",
                b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
                4096,
                "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038",
            ),
        ];
        for (password, salt, iterations, expect) in cases {
            let derive = || {
                let mut out = vec![0u8; expect.len() / 2];
                pbkdf2_sha1(password, salt, iterations, &mut out);
                out.iter().map(|b| format!("{b:02x}")).collect::<String>()
            };
            assert_eq!(derive(), expect, "CPU kernels, c = {iterations}");
            assert_eq!(portable(derive), expect, "portable, c = {iterations}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sha1_and_hmac_match_portable_across_update_splits(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
            key in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            let parts = pieces(&data, &cuts);
            prop_assert_eq!(sha1_of(&parts), portable(|| sha1::digest(&data)));
            prop_assert_eq!(hmac_of(&key, &parts), portable(|| hmac_of(&key, &[&data])));
        }

        #[test]
        fn aes_ctr_matches_portable_across_counter_wrap(
            key in proptest::collection::vec(any::<u8>(), 16),
            len in 0usize..=2048,
            below_wrap in 1u64..=16,
            iv_halves in (any::<u64>(), any::<u64>()),
            near_wrap in any::<bool>(),
        ) {
            // Half the cases start within 16 blocks of 2^128, so the
            // counter wraps inside an 8-block stride or just after one.
            let iv = if near_wrap {
                0u128.wrapping_sub(u128::from(below_wrap))
            } else {
                u128::from(iv_halves.0) << 64 | u128::from(iv_halves.1)
            };
            let key: [u8; 16] = key.try_into().unwrap();
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            prop_assert_eq!(ctr_of(&key, iv, &data), portable(|| ctr_of(&key, iv, &data)));
        }
    }
}
