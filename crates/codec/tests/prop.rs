//! Property-based tests for the codec crate: round-trips over arbitrary
//! inputs and tamper-detection over arbitrary mutations.

use ginja_codec::{glz, varint, Codec, CodecConfig, CodecError};
use proptest::prelude::*;

/// The distance of every match token in a GLZ stream.
fn match_distances(stream: &[u8]) -> Vec<usize> {
    let (_, mut off) = varint::read_u64(stream).unwrap();
    let mut dists = Vec::new();
    while off < stream.len() {
        let (v, n) = varint::read_u64(&stream[off..]).unwrap();
        off += n;
        if v & 1 == 0 {
            off += (v >> 1) as usize;
        } else {
            let (dist, n) = varint::read_u64(&stream[off..]).unwrap();
            off += n;
            dists.push(dist as usize);
        }
    }
    dists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        let n = varint::write_u64(&mut buf, v);
        let (back, read) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(read, n);
    }

    #[test]
    fn varint_with_trailing_garbage(v in any::<u64>(), tail in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut buf = Vec::new();
        let n = varint::write_u64(&mut buf, v);
        buf.extend_from_slice(&tail);
        let (back, read) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(read, n);
    }

    #[test]
    fn glz_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = glz::compress(&data);
        prop_assert_eq!(glz::decompress(&packed).unwrap(), data);
    }

    #[test]
    fn glz_roundtrip_low_entropy(
        seed in proptest::collection::vec(0u8..4, 1..64),
        repeats in 1usize..200,
    ) {
        // Highly repetitive input exercises long matches and RLE paths.
        let mut data = Vec::new();
        for _ in 0..repeats {
            data.extend_from_slice(&seed);
        }
        let packed = glz::compress(&data);
        prop_assert_eq!(glz::decompress(&packed).unwrap(), data);
    }

    #[test]
    fn glz_decompress_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        // A tight output limit keeps hostile expansion cheap; correctness
        // (error, not panic/OOM) is what this property asserts.
        let _ = glz::decompress_with_limit(&garbage, 1 << 20);
    }

    #[test]
    fn codec_roundtrip_all_modes(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        comp in any::<bool>(),
        enc in any::<bool>(),
        name in "[A-Za-z0-9_/.]{1,40}",
    ) {
        let mut cfg = CodecConfig::new().compression(comp).kdf_iterations(1);
        if enc {
            cfg = cfg.password("prop-pw");
        }
        let codec = Codec::new(cfg);
        let sealed = codec.seal(&name, &data).unwrap();
        prop_assert_eq!(codec.open(&name, &sealed).unwrap(), data);
    }

    #[test]
    fn codec_detects_any_single_byte_tamper(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        flip_at_frac in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        let codec = Codec::new(CodecConfig::new().compression(true));
        let sealed = codec.seal("obj", &data).unwrap();
        let idx = ((sealed.len() - 1) as f64 * flip_at_frac) as usize;
        let mut bad = sealed.clone();
        bad[idx] ^= flip_bits;
        // Any mutation must be rejected — never silently decode wrong data.
        prop_assert!(codec.open("obj", &bad).is_err());
    }

    #[test]
    fn codec_open_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let codec = Codec::plain();
        let _ = codec.open("obj", &garbage);
    }

    #[test]
    fn glz_into_variants_byte_identical(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut packed = Vec::new();
        let mut unpacked = Vec::new();
        glz::compress_into(&data, &mut packed);
        prop_assert_eq!(&packed, &glz::compress(&data));
        glz::decompress_into(&packed, glz::DEFAULT_MAX_OUTPUT, &mut unpacked).unwrap();
        prop_assert_eq!(&unpacked, &data);
    }

    #[test]
    fn seal_into_byte_identical_to_seal(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        comp in any::<bool>(),
        enc in any::<bool>(),
        name in "[A-Za-z0-9_/.]{1,40}",
        rounds in 1usize..4,
    ) {
        // Two identically-constructed codecs: encryption nonces come from
        // an internal counter, so the reference and pooled paths must be
        // driven in lockstep to compare bytes.
        let build = || {
            let mut cfg = CodecConfig::new().compression(comp).kdf_iterations(1);
            if enc {
                cfg = cfg.password("prop-pw");
            }
            Codec::new(cfg)
        };
        let reference = build();
        let pooled = build();
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        for _ in 0..rounds {
            let expect = reference.seal(&name, &data).unwrap();
            pooled.seal_into(&name, &data, &mut sealed).unwrap();
            prop_assert_eq!(&sealed, &expect);
            // And the pooled open agrees with the allocating one.
            prop_assert_eq!(reference.open(&name, &expect).unwrap(), data.clone());
            pooled.open_into(&name, &sealed, &mut opened).unwrap();
            prop_assert_eq!(&opened, &data);
        }
    }

    #[test]
    fn open_into_rejects_any_single_byte_tamper(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        flip_at_frac in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        let codec = Codec::new(CodecConfig::new().compression(true));
        let sealed = codec.seal("obj", &data).unwrap();
        let idx = ((sealed.len() - 1) as f64 * flip_at_frac) as usize;
        let mut bad = sealed.clone();
        bad[idx] ^= flip_bits;
        let mut out = Vec::new();
        prop_assert!(codec.open_into("obj", &bad, &mut out).is_err());
    }

    #[test]
    fn codec_rejects_cross_name_replay(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        name_a in "[a-z]{1,10}",
        name_b in "[a-z]{1,10}",
    ) {
        prop_assume!(name_a != name_b);
        let codec = Codec::plain();
        let sealed = codec.seal(&name_a, &data).unwrap();
        prop_assert_eq!(codec.open(&name_b, &sealed), Err(CodecError::MacMismatch));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1 MiB of 8 KiB pages drawn from a pool of up to eight: a page's
    /// last copy may be anywhere from one to many windows back, and the
    /// matcher must never reach past the window for it.
    #[test]
    fn glz_match_distances_stay_in_window(
        pool in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 8192), 1..=8),
        order in proptest::collection::vec(0usize..8, 128),
    ) {
        let data: Vec<u8> = order
            .iter()
            .flat_map(|&i| pool[i % pool.len()].iter().copied())
            .collect();
        let packed = glz::compress(&data);
        let far = match_distances(&packed).into_iter().find(|&d| d == 0 || d >= glz::WINDOW);
        prop_assert_eq!(far, None);
        prop_assert_eq!(glz::decompress(&packed).unwrap(), data);
    }
}
