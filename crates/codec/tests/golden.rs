//! Wire-format pin: every byte the codec emits, digested into one
//! SHA-1 and compared against a constant.
//!
//! The corpus is deterministic and database-shaped (8 KiB pages plus a
//! spread of odd and large object sizes). It is sealed by fresh codecs in
//! all four (compression, encryption) modes, and also run through
//! `glz::compress` at every level. A kernel rewrite that changes any
//! sealed byte — a compressed stream, a keystream, a nonce or a MAC —
//! changes the digest and fails this test. Sealed size, PUT count and
//! stored bytes therefore cannot move under a change that keeps it green.

use ginja_codec::{glz, sha1::Sha1, Codec, CodecConfig};

/// SHA-1 over the whole corpus' sealed objects and GLZ streams.
const GOLDEN: &str = "588e9d3780579b820323a7c8ab1c53724592a574";

/// Page-shaped bytes: 8 KiB pages of a small header, then short rows
/// whose key and value fields vary while the filler repeats — the mix of
/// matches and literals a B-tree page or WAL record block gives GLZ.
fn page_like(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut data = Vec::with_capacity(len + 8192);
    let mut row = 0u32;
    while data.len() < len {
        let page_end = data.len() + 8192;
        data.extend_from_slice(b"PGPAGE\0\0");
        data.extend_from_slice(&seed.to_le_bytes());
        while data.len() < page_end {
            let r = next();
            data.extend_from_slice(&row.to_le_bytes());
            data.extend_from_slice(&(r as u32 % 1000).to_le_bytes());
            data.extend_from_slice(b"customer_name_");
            data.extend_from_slice(&r.to_le_bytes()[..(r % 9) as usize]);
            data.extend_from_slice(&[0u8; 6]);
            row += 1;
        }
        data.truncate(page_end);
    }
    data.truncate(len);
    data
}

fn corpus() -> Vec<Vec<u8>> {
    let mut objects: Vec<Vec<u8>> = (0..16).map(|i| page_like(8192, i)).collect();
    for (i, len) in [0usize, 1, 15, 17, 4096, 300 * 1024, 1 << 20]
        .into_iter()
        .enumerate()
    {
        objects.push(page_like(len, 100 + i as u64));
    }
    objects
}

#[test]
fn sealed_bytes_match_golden_digest() {
    let objects = corpus();
    let mut digest = Sha1::new();
    for (comp, enc) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut cfg = CodecConfig::new().compression(comp).kdf_iterations(16);
        if enc {
            cfg = cfg.password("golden-password");
        }
        let codec = Codec::new(cfg);
        for (i, plain) in objects.iter().enumerate() {
            let name = format!("WAL/{i}_golden_0");
            let sealed = codec.seal(&name, plain).unwrap();
            assert_eq!(&codec.open(&name, &sealed).unwrap(), plain);
            digest.update(&sealed);
        }
    }
    for level in [glz::Level::Fast, glz::Level::Default, glz::Level::Best] {
        for plain in &objects {
            digest.update(&glz::compress(plain, level));
        }
    }
    let hex: String = digest
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, GOLDEN, "sealed bytes changed");
}
