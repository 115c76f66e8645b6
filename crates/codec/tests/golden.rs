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
const GOLDEN: &str = "c0d1858a1219189dedf3982ad84b5a5b05bc950b";

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

/// `stream` as a compressed object, and as a compressed and encrypted
/// one, framed the way `Codec::seal` frames its bodies: both must open
/// to `plain`.
fn assert_opens_as_old_objects(stream: &[u8], plain: &[u8]) {
    let keys = DerivedKeys::from_password_iterations("old-bucket", 16);
    let mac = HmacSha1::new(&keys.mac_key);
    let codec = Codec::new(
        CodecConfig::new()
            .compression(true)
            .password("old-bucket")
            .kdf_iterations(16),
    );
    let name = "DB/7_dump_0";
    let sealed = envelope::assemble(&mac, name, EnvelopeFlags::COMPRESSED, &[0; 16], stream);
    assert_eq!(codec.open(name, &sealed).unwrap(), plain);

    let nonce = [9u8; 16];
    let mut body = stream.to_vec();
    ctr::apply_keystream(&aes::Aes128::new(&keys.enc_key), &nonce, &mut body);
    let flags = EnvelopeFlags::COMPRESSED.union(EnvelopeFlags::ENCRYPTED);
    let sealed = envelope::assemble(&mac, name, flags, &nonce, &body);
    assert_eq!(codec.open(name, &sealed).unwrap(), plain);
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
    assert_opens_as_old_objects(&stream, &plain);
}

/// `glz::compress(&page_like(1024, 7))` as the 8-probe matcher with a
/// 15-bit head and a 64-position insert cap wrote it, before the matcher
/// took zlib level 1's shape. The current matcher emits other tokens for
/// the same input.
const PRE_ZLIB1_PAGE_LIKE_1024_7: [&str; 16] = [
    "800814504750414745000007000d0128ea020000637573746f6d65725f6e616d",
    "655f9a32051a0c010000005f01191e047fd4051e0a020000004f1b1e0c17389f",
    "93056005220c030000007703192206a7e33a051f0a04000000981b7d10a09f08",
    "8438b69a5a05240c050000009f0019240e9f66ed2952d4ac05230a060000005a",
    "1b88010e92fb10ad2468e6052301ef0102551b460ce57ecc42714605220a0800",
    "0000701b8c010e58ff3a62e19f4d05230a09000000c61b4502a6051d0a0a0000",
    "00671b40069f794a051f0a0b000000741b8a02051c0a0c000000311b3b027905",
    "1d0a0d000000371b390e5748749eda2b160523020e2388030807555e9505200a",
    "0f000000251b20046d48051e0a10000000b51b1e0abdc51d754d015910000000",
    "11000000e61ba001107631dd72cd91f17005240a12000000a41b240a941672d4",
    "5d05210a13000000211bbd0210b9d7ff9e07efa1cf05240a14000000261b240e",
    "56e66c186037660523021501eb021bae01041a6a051e01910201f203151e064e",
    "9a89051f0a17000000721ba50102fa051d0a18000000f71b1d08cf8f52250520",
    "0a19000000f01b20051c0a1a0000004a1b96010262051d0a1b000000881b1d04",
    "90dc051e0a1c000000991b570629551201fc06080000001d01bd041b200ec31b",
    "a65a62de2a05230a1e0000007c1b230a34c7857ac705210a1f0000009a058201",
];

/// Objects the previous matcher sealed still open: the token format and
/// the decoder did not change with it.
#[test]
fn streams_from_the_previous_matcher_still_open() {
    let stream: Vec<u8> = PRE_ZLIB1_PAGE_LIKE_1024_7
        .concat()
        .as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect();
    let plain = page_like(1024, 7);
    assert_eq!(glz::decompress(&stream).unwrap(), plain);
    assert_opens_as_old_objects(&stream, &plain);
}
