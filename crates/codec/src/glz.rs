//! GLZ — a byte-oriented LZ77 compressor.
//!
//! The Ginja prototype compresses cloud objects with "ZLIB configured for
//! fastest operation" (§6) and the paper's cost model assumes a
//! compression rate of ~1.43 on WAL data (§7.2). GLZ is a from-scratch
//! replacement with a similar profile: a greedy hash-chain matcher with
//! raw (entropy-coding-free) token output, so it is fast and reaches
//! ratios in the same range on page-structured database data.
//!
//! ## Matcher
//!
//! The matcher has the shape of zlib's fastest level, the setting the
//! paper ran. It is greedy (no lazy evaluation), looks back at most
//! [`WINDOW`] = 32 KiB, and per position:
//!
//! * hashes the next 4 bytes into a 17-bit head table;
//! * walks at most 4 links of the hash chain, zlib's ring
//!   `prev[pos & (WINDOW - 1)]`, stopping at the first candidate a full
//!   window back;
//! * stops the walk early once a match reaches 32 bytes (zlib's "nice
//!   length");
//! * after a match, indexes only its first 4 positions (zlib's
//!   `max_insert_length`) and jumps past the rest.
//!
//! Without a window, a multi-megabyte checkpoint or dump object walks
//! links back across the whole object, and every probe is a cache miss
//! into a chain array of 4 bytes per input byte. With it, the probes stay
//! within the last 32 KiB of input, and matcher state is a fixed 640 KiB
//! per thread (a 512 KiB head table and a 128 KiB ring), whatever the
//! object size. 32 KiB is zlib's choice too: it holds four 8 KiB database
//! pages, and near distances take shorter varints.
//!
//! The tables are indexed by *absolute* position: each call starts a full
//! window past the end of the previous call on the same thread. Every
//! entry an earlier call left behind therefore reads as a window back and
//! ends a walk exactly as an empty entry does, so the head table is not
//! cleared per call and the output is a pure function of the input. The
//! tables are refilled only when the running position would reach the
//! `u32` range's top window, once per ~4 GiB compressed.
//!
//! Positions are stored as `u32` and distances taken with `wrapping_sub`.
//! On an input of 4 GiB or more a stale link can therefore only name a
//! position inside the window, whose bytes the matcher checks anyway.
//!
//! The decoder accepts any distance up to the output produced so far, so
//! streams written with a wider look-back still open.
//!
//! ## Stream format
//!
//! ```text
//! varint original_len
//! token*  where token is
//!   varint v, v & 1 == 0 → literal run: (v >> 1) bytes follow verbatim
//!   varint v, v & 1 == 1 → match: length = (v >> 1) + MIN_MATCH,
//!                          followed by varint distance (1-based)
//! ```
//!
//! ```rust
//! use ginja_codec::glz;
//!
//! let data = b"abcabcabcabcabcabc".to_vec();
//! let packed = glz::compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(glz::decompress(&packed).unwrap(), data);
//! ```

use crate::varint;
use crate::CodecError;

/// Minimum match length worth encoding (shorter matches cost more than
/// literals under the token format).
pub const MIN_MATCH: usize = 4;

/// Maximum match length per token; longer repeats are split into
/// multiple tokens.
pub const MAX_MATCH: usize = 1 << 16;

/// How far back the matcher looks: every emitted match distance is
/// below this (zlib's 32 KiB).
pub const WINDOW: usize = 1 << 15;

const HASH_BITS: u32 = 17;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Hash-chain candidates examined per position: zlib level 1's
/// `max_chain`.
const PROBES: usize = 4;

/// A match this long ends the chain walk: longer ones are rare, and a
/// further probe would seldom beat it by enough to pay for itself.
const NICE_MATCH: usize = 32;

/// Positions of a match indexed before jumping past it: zlib level 1's
/// `max_insert_length`.
const MATCH_INSERTS: usize = 4;

/// A table entry no position has claimed yet: a full window behind
/// every position a call uses (see [`MatchState::claim`]), so a walk
/// reaching it stops at once.
const EMPTY: u32 = 0u32.wrapping_sub(WINDOW as u32);

/// The 4 bytes at `pos`, as one word.
#[inline]
fn load4(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable matcher state, kept per thread so steady-state sealing does
/// not allocate: `head` is the newest absolute position per hash bucket,
/// `prev` the ring of chain links, and `next_base` the absolute position
/// the next call's first byte takes.
struct MatchState {
    head: Vec<u32>,
    prev: Vec<u32>,
    next_base: u64,
}

impl MatchState {
    /// Claims absolute positions `base..base + len` for one call and
    /// returns `base`.
    ///
    /// Every position an earlier call stored is below
    /// `base - WINDOW`, and `EMPTY` is at or above `base + len`, so for
    /// any position of this call both read as a window or more back.
    /// When the claim would cross `EMPTY`, the tables are refilled and
    /// positions restart at 0, as on a fresh thread. `prev` needs no
    /// refill for that argument — a ring slot is written when its
    /// position is inserted, before any link can name it — but refilling
    /// it too keeps even a ≥ 4 GiB input's output independent of history.
    fn claim(&mut self, len: usize) -> u32 {
        let mut base = self.next_base;
        if self.head.len() != HASH_SIZE || base + len as u64 > u64::from(EMPTY) {
            self.head.clear();
            self.head.resize(HASH_SIZE, EMPTY);
            self.prev.clear();
            self.prev.resize(WINDOW, EMPTY);
            base = 0;
        }
        self.next_base = base + len as u64 + WINDOW as u64;
        // At most `EMPTY` after the check above.
        base as u32
    }
}

thread_local! {
    static MATCH_STATE: std::cell::RefCell<MatchState> = const {
        std::cell::RefCell::new(MatchState {
            head: Vec::new(),
            prev: Vec::new(),
            next_base: 0,
        })
    };
}

/// Compresses `data` and returns the GLZ stream.
///
/// Compression never fails; incompressible input grows by at most a few
/// bytes per 2³² of input (the literal-run headers).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// Compresses `data` into `out` (cleared first), reusing both the output
/// allocation and the thread-local matcher state. The zero-copy sibling
/// of [`compress`].
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(data.len() / 2 + 16);
    varint::write_u64(out, data.len() as u64);
    if data.is_empty() {
        return;
    }
    MATCH_STATE.with(|state| {
        let mut state = state.borrow_mut();
        let base = state.claim(data.len());
        let MatchState { head, prev, .. } = &mut *state;
        compress_core(data, base, head, prev, out);
    });
}

/// Compresses `data`, whose first byte has absolute position `base`.
fn compress_core(data: &[u8], base: u32, head: &mut [u32], prev: &mut [u32], out: &mut Vec<u8>) {
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    while pos + MIN_MATCH <= data.len() {
        let word = load4(data, pos);
        let h = hash(word);
        let here = base.wrapping_add(pos as u32);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let nice_len = max_len.min(NICE_MATCH);

        for _ in 0..PROBES {
            // Links run strictly backwards, so the first one a window
            // back (or `EMPTY`, or left by an earlier call) ends the
            // chain. Past 4 GiB a wrapped link may read as distance 0;
            // that ends it too.
            let dist = here.wrapping_sub(candidate) as usize;
            if dist == 0 || dist >= WINDOW {
                break;
            }
            let cand = pos - dist;
            // Quick reject, without changing which candidate wins. With no
            // match yet, a candidate whose first 4 bytes differ (a hash
            // collision) can only give a match shorter than MIN_MATCH,
            // which is never emitted, so it is skipped; it still spends
            // a probe, so the same candidates are examined. Once a match
            // is held, the byte just past it must agree for a candidate
            // to beat it.
            let viable = if best_len == 0 {
                load4(data, cand) == word
            } else {
                data[cand + best_len] == data[pos + best_len]
            };
            if viable {
                let len = match_length(data, cand, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len >= nice_len {
                        break;
                    }
                }
            }
            candidate = prev[candidate as usize & (WINDOW - 1)];
        }

        if best_len >= MIN_MATCH {
            flush_literals(out, &data[literal_start..pos]);
            let v = (((best_len - MIN_MATCH) as u64) << 1) | 1;
            varint::write_u64(out, v);
            varint::write_u64(out, best_dist as u64);

            // Index the match's first few positions so later matches can
            // refer into this region, then jump past the rest.
            let end = pos + best_len;
            let index_until = end
                .min(pos + MATCH_INSERTS)
                .min(data.len().saturating_sub(MIN_MATCH - 1));
            while pos < index_until {
                let h = hash(load4(data, pos));
                insert(head, prev, h, base.wrapping_add(pos as u32));
                pos += 1;
            }
            pos = end;
            literal_start = pos;
        } else {
            insert(head, prev, h, here);
            pos += 1;
        }
    }

    flush_literals(out, &data[literal_start..]);
}

/// Makes absolute position `at` the newest of hash bucket `h`.
#[inline]
fn insert(head: &mut [u32], prev: &mut [u32], h: usize, at: u32) {
    prev[at as usize & (WINDOW - 1)] = head[h];
    head[h] = at;
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len` — compared a word at a time. Callers guarantee `a < b` and
/// `b + max_len <= data.len()`, so every 8-byte load below is in bounds.
#[inline]
fn match_length(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    debug_assert!(a < b && b + max_len <= data.len());
    let mut len = 0;
    while len + 8 <= max_len {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            // The first differing byte is the lowest set byte of the XOR
            // (little-endian loads keep byte order = memory order).
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let mut rest = literals;
    while !rest.is_empty() {
        // Literal-run length is open-ended via varint; no need to split,
        // but keep runs under 2^32 for sanity.
        let take = rest.len().min(u32::MAX as usize);
        varint::write_u64(out, (take as u64) << 1);
        out.extend_from_slice(&rest[..take]);
        rest = &rest[take..];
    }
}

/// Default output-size limit for [`decompress`]: 1 GiB, far above any
/// Ginja object (they are chunked at 20 MiB before compression).
pub const DEFAULT_MAX_OUTPUT: usize = 1 << 30;

/// Decompresses a GLZ stream produced by [`compress`], with the default
/// output-size limit of [`DEFAULT_MAX_OUTPUT`].
///
/// # Errors
///
/// Returns [`CodecError::CorruptCompression`] if the stream is truncated,
/// contains an out-of-range match distance, declares an output larger
/// than the limit, or does not decode to the declared length.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    decompress_with_limit(stream, DEFAULT_MAX_OUTPUT)
}

/// Decompresses with an explicit output-size limit, protecting callers
/// from decompression bombs and hostile length headers.
///
/// # Errors
///
/// Same as [`decompress`].
pub fn decompress_with_limit(stream: &[u8], max_output: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decompress_into(stream, max_output, &mut out)?;
    Ok(out)
}

/// Decompresses into `out` (cleared first), reusing its allocation. The
/// zero-copy sibling of [`decompress_with_limit`], with the same checks.
///
/// # Errors
///
/// Same as [`decompress`]; on error `out` holds a partial prefix.
pub fn decompress_into(
    stream: &[u8],
    max_output: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let corrupt = |reason: &str| CodecError::CorruptCompression(reason.to_string());
    let (original_len, mut off) =
        varint::read_u64(stream).ok_or_else(|| corrupt("missing length header"))?;
    let original_len = usize::try_from(original_len).map_err(|_| corrupt("length overflow"))?;
    if original_len > max_output {
        return Err(corrupt("declared length exceeds output limit"));
    }
    // Never trust the header for a large up-front allocation: a corrupt
    // or hostile stream could claim terabytes. Grow organically past 1 MiB.
    out.clear();
    out.reserve(original_len.min(1 << 20));

    while off < stream.len() {
        let (v, n) = varint::read_u64(&stream[off..]).ok_or_else(|| corrupt("bad token"))?;
        off += n;
        if v & 1 == 0 {
            let len = usize::try_from(v >> 1).map_err(|_| corrupt("literal length overflow"))?;
            let end = off
                .checked_add(len)
                .ok_or_else(|| corrupt("literal overflow"))?;
            if end > stream.len() {
                return Err(corrupt("literal run past end of stream"));
            }
            out.extend_from_slice(&stream[off..end]);
            off = end;
        } else {
            let len = usize::try_from(v >> 1)
                .ok()
                .and_then(|l| l.checked_add(MIN_MATCH))
                .ok_or_else(|| corrupt("match length overflow"))?;
            let (dist, n) =
                varint::read_u64(&stream[off..]).ok_or_else(|| corrupt("missing distance"))?;
            off += n;
            let dist = usize::try_from(dist).map_err(|_| corrupt("distance overflow"))?;
            if dist == 0 || dist > out.len() {
                return Err(corrupt("match distance out of range"));
            }
            // Check the declared bound *before* copying: a hostile token
            // may claim a near-u64 length.
            if out.len() + len > original_len {
                return Err(corrupt("match exceeds declared length"));
            }
            copy_match(out, dist, len);
        }
        if out.len() > original_len {
            return Err(corrupt("output exceeds declared length"));
        }
    }

    if out.len() != original_len {
        return Err(CodecError::LengthMismatch {
            expected: original_len,
            actual: out.len(),
        });
    }
    Ok(())
}

/// Appends `len` bytes copied from `dist` bytes back, with the meaning
/// of a byte-at-a-time copy: when `dist < len` the source overlaps the
/// bytes being written, and the output repeats its last `dist` bytes.
/// Copies whole blocks: the periodic run starting at `start` may be
/// copied from its own beginning up to its current end, so each block
/// doubles what the next one can take. Callers guarantee
/// `0 < dist <= out.len()`.
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    let mut remaining = len;
    while remaining > 0 {
        let block = remaining.min(out.len() - start);
        out.extend_from_within(start..start + block);
        remaining -= block;
    }
}

/// Convenience: the ratio `original / compressed` for `data`.
pub fn ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    data.len() as f64 / compress(data).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        decompress(&packed).unwrap()
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn short_inputs_below_min_match() {
        for len in 0..MIN_MATCH {
            let data = vec![b'x'; len];
            assert_eq!(roundtrip(&data), data);
        }
    }

    #[test]
    fn all_same_byte_compresses_hard() {
        let data = vec![0u8; 100_000];
        let packed = compress(&data);
        assert!(packed.len() < 200, "got {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn repeated_pattern() {
        let mut data = Vec::new();
        for _ in 0..1000 {
            data.extend_from_slice(b"hello world, ");
        }
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 10);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_random_grows_little() {
        // A simple xorshift stream is effectively incompressible.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let packed = compress(&data);
        assert!(packed.len() <= data.len() + data.len() / 100 + 16);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn page_like_data_reaches_paper_ratio() {
        // Database-page-like content: structured records with some
        // entropy. The paper assumes CR ≈ 1.43; we only require > 1.3.
        let mut data = Vec::new();
        for i in 0u32..800 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(b"customer_name_field____");
            data.extend_from_slice(&(i * 7919).to_le_bytes());
            data.extend_from_slice(&[0u8; 12]);
        }
        let r = ratio(&data);
        assert!(r > 1.3, "ratio {r}");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn repeated_page_is_matched_within_window() {
        // One pseudo-random 8 KiB page, 128 times over. Each copy is
        // found 8 KiB back, but a match indexes only its first 4
        // positions, so after every MAX_MATCH-long copy one page goes
        // out as literals before matching resumes: 1 MiB packs to
        // 123 002 bytes (8.5×).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let page: Vec<u8> = (0..8192)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let data = page.repeat(128);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 8, "got {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn overlapping_match_rle_case() {
        // "aaaa..." forces dist=1 overlapping copies.
        let data = vec![b'a'; 4096];
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let good = compress(b"hello hello hello hello");
        // Truncations.
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut]); // must not panic
        }
        // Bit flips.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad); // must not panic
        }
    }

    #[test]
    fn hostile_match_length_does_not_allocate() {
        // Declared length within limits, but one match token claims an
        // enormous copy: must fail fast instead of materializing it.
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, 100);
        varint::write_u64(&mut stream, (1u64) << 1);
        stream.push(b'a');
        varint::write_u64(&mut stream, ((u64::MAX >> 2) << 1) | 1);
        varint::write_u64(&mut stream, 1);
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::CorruptCompression(_))
        ));
    }

    #[test]
    fn hostile_length_header_does_not_allocate() {
        // A stream claiming 2 TiB of output must fail fast, not abort.
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, 1u64 << 41);
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::CorruptCompression(_))
        ));
    }

    #[test]
    fn explicit_limit_enforced() {
        let data = vec![7u8; 4096];
        let packed = compress(&data);
        assert!(matches!(
            decompress_with_limit(&packed, 1024),
            Err(CodecError::CorruptCompression(_))
        ));
        assert_eq!(decompress_with_limit(&packed, 4096).unwrap(), data);
    }

    #[test]
    fn distance_zero_rejected() {
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, 10); // original_len
        varint::write_u64(&mut stream, 1); // match token len=MIN_MATCH
        varint::write_u64(&mut stream, 0); // distance 0: invalid
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::CorruptCompression(_))
        ));
    }

    #[test]
    fn distance_beyond_output_rejected() {
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, 10);
        varint::write_u64(&mut stream, (2u64) << 1); // literal run of 2
        stream.extend_from_slice(b"ab");
        varint::write_u64(&mut stream, 1); // match
        varint::write_u64(&mut stream, 5); // distance 5 > 2 bytes of output
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::CorruptCompression(_))
        ));
    }

    #[test]
    fn declared_length_mismatch_rejected() {
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, 100); // claims 100 bytes
        varint::write_u64(&mut stream, (3u64) << 1);
        stream.extend_from_slice(b"abc");
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"abc".to_vec(),
            vec![b'a'; 4096],
            (0..50_000u32).flat_map(|i| i.to_le_bytes()).collect(),
            b"hello world, hello world, hello world".to_vec(),
        ];
        let mut packed = Vec::new();
        let mut unpacked = Vec::new();
        for data in &inputs {
            compress_into(data, &mut packed);
            assert_eq!(packed, compress(data));
            decompress_into(&packed, DEFAULT_MAX_OUTPUT, &mut unpacked).unwrap();
            assert_eq!(&unpacked, data);
        }
    }

    #[test]
    fn pooled_state_survives_shrinking_inputs() {
        // The thread-local tables are not cleared between calls; a big
        // input followed by smaller ones must still round-trip (the
        // stale entries read as a window back, because each call starts
        // a window past the previous one's end).
        let big: Vec<u8> = (0..100_000u32)
            .flat_map(|i| (i % 251).to_le_bytes())
            .collect();
        assert_eq!(roundtrip(&big), big);
        for len in [1usize, 5, 100, 4096, 65_537] {
            let data: Vec<u8> = (0..len).map(|i| (i % 7) as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    /// Records of a few varying bytes and a repeating filler, so that
    /// inputs cut from it share content and the matcher has work to do.
    fn records(len: usize, seed: u32) -> Vec<u8> {
        (0u32..)
            .flat_map(|i| {
                let key = (i.wrapping_mul(2_654_435_761) ^ seed) % 977;
                let mut rec = key.to_le_bytes().to_vec();
                rec.extend_from_slice(b"filler-of-a-row");
                rec
            })
            .take(len)
            .collect()
    }

    /// What `compress` gives on a thread that has compressed nothing
    /// before.
    fn compress_on_fresh_thread(data: &[u8]) -> Vec<u8> {
        std::thread::scope(|s| s.spawn(|| compress(data)).join().unwrap())
    }

    #[test]
    fn output_does_not_depend_on_earlier_calls() {
        let big = records(300_000, 1);
        let small: Vec<Vec<u8>> = (0..40)
            .map(|i| records(100 + 97 * i, i as u32 % 3))
            .collect();
        let mut big_then_small = vec![&big];
        big_then_small.extend(&small);
        let mut small_then_big: Vec<&Vec<u8>> = small.iter().collect();
        small_then_big.push(&big);
        let many_small: Vec<&Vec<u8>> = small.iter().cycle().take(400).collect();
        for order in [big_then_small, small_then_big, many_small] {
            // Each order on a thread of its own, so it starts from the
            // same state whatever ran before on the test thread.
            std::thread::scope(|s| {
                s.spawn(|| {
                    for data in &order {
                        assert_eq!(compress(data), compress_on_fresh_thread(data));
                    }
                })
                .join()
                .unwrap()
            });
        }
    }

    /// The absolute position this thread's next call starts at.
    fn next_base() -> u64 {
        MATCH_STATE.with(|state| state.borrow().next_base)
    }

    fn set_next_base(next: u64) {
        MATCH_STATE.with(|state| state.borrow_mut().next_base = next);
    }

    /// The largest position this thread's head table holds, if any.
    fn newest_head_entry() -> Option<u32> {
        MATCH_STATE.with(|state| {
            state
                .borrow()
                .head
                .iter()
                .copied()
                .filter(|&at| at != EMPTY)
                .max()
        })
    }

    #[test]
    fn tables_are_refilled_once_before_positions_wrap() {
        let data = records(4096, 5);
        let fresh = compress_on_fresh_thread(&data);
        std::thread::scope(|s| {
            s.spawn(|| {
                compress(&records(200_000, 5));
                // The last position just below `EMPTY`: the call fits, so
                // positions run on and the tables keep their entries.
                let top = u64::from(EMPTY) - data.len() as u64;
                set_next_base(top);
                assert_eq!(compress(&data), fresh);
                assert_eq!(next_base(), top + (data.len() + WINDOW) as u64);
                assert!(newest_head_entry() >= Some(top as u32));
                // The next call would cross `EMPTY`: the tables are
                // refilled and positions restart at 0, as on a fresh
                // thread. No entry from before the refill survives it.
                assert_eq!(compress(&data), fresh);
                assert_eq!(next_base(), (data.len() + WINDOW) as u64);
                assert!(newest_head_entry() < Some(data.len() as u32));
                assert_eq!(compress(&data), fresh);
                assert_eq!(next_base(), 2 * (data.len() + WINDOW) as u64);
            })
            .join()
            .unwrap()
        });
    }

    #[test]
    fn match_length_word_wise_agrees_with_bytewise() {
        let mut data: Vec<u8> = (0..600usize).map(|i| (i % 13) as u8).collect();
        // Plant two regions equal for a prefix of every length 0..40.
        for prefix in 0..40usize {
            data.truncate(600);
            let a = 100;
            let b = 300;
            for i in 0..prefix {
                data[b + i] = data[a + i];
            }
            if b + prefix < data.len() {
                data[b + prefix] = data[a + prefix].wrapping_add(1);
            }
            let max_len = (data.len() - b).min(MAX_MATCH);
            let naive = (0..max_len)
                .take_while(|&i| data[a + i] == data[b + i])
                .count();
            assert_eq!(match_length(&data, a, b, max_len), naive, "prefix {prefix}");
            // And with a cap below the true match length.
            let cap = prefix / 2 + 1;
            let naive_capped = (0..cap).take_while(|&i| data[a + i] == data[b + i]).count();
            assert_eq!(match_length(&data, a, b, cap), naive_capped);
        }
    }

    /// A stream of `prefix` literal bytes, then one match of `len` bytes
    /// at distance `dist`, and what a byte-at-a-time decoder makes of it.
    fn match_stream(prefix: &[u8], dist: usize, len: usize) -> (Vec<u8>, Vec<u8>) {
        let mut expect = prefix.to_vec();
        for _ in 0..len {
            expect.push(expect[expect.len() - dist]);
        }
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, expect.len() as u64);
        varint::write_u64(&mut stream, (prefix.len() as u64) << 1);
        stream.extend_from_slice(prefix);
        varint::write_u64(&mut stream, (((len - MIN_MATCH) as u64) << 1) | 1);
        varint::write_u64(&mut stream, dist as u64);
        (stream, expect)
    }

    #[test]
    fn block_copy_matches_bytewise_reference() {
        let prefix: Vec<u8> = (0..70_100u32).map(|i| (i * 131 % 251) as u8).collect();
        for len in [
            4usize, 5, 7, 8, 15, 16, 17, 33, 64, 100, 1000, 4099, 65_536, 70_000,
        ] {
            // Overlapping (period < len), exactly adjacent, and disjoint.
            let mut dists = vec![1, 2, 3, 5, 8, 13, len - 1, len, len + 1, 2 * len + 7];
            dists.retain(|&d| d <= prefix.len());
            for dist in dists {
                let (stream, expect) = match_stream(&prefix[..dist.max(3)], dist, len);
                assert_eq!(
                    decompress(&stream).unwrap(),
                    expect,
                    "dist {dist} len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn block_copy_matches_bytewise_reference_random(
            prefix in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..300),
            dist_frac in 0.0f64..1.0,
            len in 4usize..2000,
        ) {
            let dist = 1 + ((prefix.len() - 1) as f64 * dist_frac) as usize;
            let (stream, expect) = match_stream(&prefix, dist, len);
            proptest::prop_assert_eq!(decompress(&stream).unwrap(), expect);
        }
    }

    #[test]
    fn long_match_exceeding_index_cap() {
        // A single repeat longer than the insert cap inside a match.
        let mut data = vec![0u8; 10_000];
        data.extend_from_slice(b"tail-marker");
        data.extend_from_slice(&vec![0u8; 10_000]);
        assert_eq!(roundtrip(&data), data);
    }
}
