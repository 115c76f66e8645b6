//! Wire-format pin: every byte the codec emits, digested into one
//! SHA-1 and compared against a constant.
//!
//! The corpus is deterministic and database-shaped (8 KiB pages plus a
//! spread of odd and large object sizes). It is sealed by fresh codecs in
//! all four (compression, encryption) modes, and also run through
//! `glz::compress`. A kernel rewrite that changes any sealed byte — a
//! compressed stream, a keystream, a nonce or a MAC — changes the digest
//! and fails this test. Sealed size, PUT count and stored bytes
//! therefore cannot move under a change that keeps it green.

use ginja_codec::envelope::{self, EnvelopeFlags};
use ginja_codec::hmac::HmacSha1;
use ginja_codec::kdf::DerivedKeys;
use ginja_codec::{aes, ctr, glz, sha1::Sha1, varint, Codec, CodecConfig};

/// SHA-1 over the whole corpus' sealed objects and GLZ streams.
const GOLDEN: &str = "a19a1115658908bd177f32c522ab3ed2c2c877a0";

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
    for plain in &objects {
        digest.update(&glz::compress(plain));
    }
    let hex: String = digest
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, GOLDEN, "sealed bytes changed");
}

/// Buckets written before the matcher had a window hold matches from up
/// to a whole object back. The decoder still takes any distance up to
/// the output so far, so such objects open, sealed or not.
#[test]
fn far_match_streams_from_old_buckets_still_open() {
    // 1 MiB of pages, then a match copying their first 4 KiB from 1 MiB
    // back — built by hand, since the matcher never emits one.
    let far = 1 << 20;
    let len = 4096;
    let mut plain = page_like(far, 42);
    plain.extend_from_within(..len);
    let mut stream = Vec::new();
    varint::write_u64(&mut stream, plain.len() as u64);
    varint::write_u64(&mut stream, (far as u64) << 1);
    stream.extend_from_slice(&plain[..far]);
    varint::write_u64(&mut stream, (((len - glz::MIN_MATCH) as u64) << 1) | 1);
    varint::write_u64(&mut stream, far as u64);
    assert!(far >= glz::WINDOW);
    assert_eq!(glz::decompress(&stream).unwrap(), plain);

    // The same stream as a compressed object, and as a compressed and
    // encrypted one, sealed the way `Codec::seal` frames its bodies.
    let keys = DerivedKeys::from_password_iterations("old-bucket", 16);
    let mac = HmacSha1::new(&keys.mac_key);
    let codec = Codec::new(
        CodecConfig::new()
            .compression(true)
            .password("old-bucket")
            .kdf_iterations(16),
    );
    let name = "DB/7_dump_0";
    let sealed = envelope::assemble(&mac, name, EnvelopeFlags::COMPRESSED, &[0; 16], &stream);
    assert_eq!(codec.open(name, &sealed).unwrap(), plain);

    let nonce = [9u8; 16];
    let mut body = stream;
    ctr::apply_keystream(&aes::Aes128::new(&keys.enc_key), &nonce, &mut body);
    let flags = EnvelopeFlags::COMPRESSED.union(EnvelopeFlags::ENCRYPTED);
    let sealed = envelope::assemble(&mac, name, flags, &nonce, &body);
    assert_eq!(codec.open(name, &sealed).unwrap(), plain);
}
