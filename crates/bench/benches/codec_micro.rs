//! Criterion micro-benchmarks for the codec primitives (engineering
//! regression tracking; not a paper experiment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ginja_codec::{aes, bufpool, ctr, glz, hmac, hw, sha1, Codec, CodecConfig};

fn page_like_data(len: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(len);
    let mut state = 0x2545F4914F6CDD1Du64;
    while data.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.extend_from_slice(&state.to_le_bytes());
        data.extend_from_slice(b"structured-filler");
    }
    data.truncate(len);
    data
}

fn bench_glz(c: &mut Criterion) {
    // Which SHA-1 and AES kernels the CPU selected: every crypto figure
    // below depends on it.
    println!("codec kernels: {}", hw::kernels());
    let mut group = c.benchmark_group("glz");
    // 4 MiB is checkpoint- and dump-object sized: large enough that a
    // matcher whose state grows with its input runs out of cache.
    for size in [8 * 1024usize, 256 * 1024, 4 << 20] {
        let data = page_like_data(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("compress", size), &data, |b, data| {
            b.iter(|| glz::compress(data))
        });
        let packed = glz::compress(&data);
        group.bench_with_input(
            BenchmarkId::new("decompress", size),
            &packed,
            |b, packed| b.iter(|| glz::decompress(packed).unwrap()),
        );
    }
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = page_like_data(64 * 1024);
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha1_64k", |b| b.iter(|| sha1::digest(&data)));
    let aes = aes::Aes128::new(b"0123456789abcdef");
    // CTR is its own inverse, so applying it in place to one buffer
    // times the keystream alone, not a 64 KiB copy per iteration.
    let mut buf = data.clone();
    group.bench_function("aes_ctr_64k", |b| {
        b.iter(|| {
            ctr::apply_keystream(&aes, &[7u8; 16], &mut buf);
            buf[0]
        })
    });
    // One-shot HMAC (keying included) at the MAC-only object sizes of a
    // MySQL-profile workload: a 512 B log block and a ~5 KiB group.
    let mac_key = [0x5au8; 20];
    for size in [512usize, 5 * 1024] {
        let msg = page_like_data(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("hmac_sha1", size), &msg, |b, msg| {
            b.iter(|| hmac::hmac_sha1(&mac_key, msg))
        });
    }
    group.finish();
}

/// Key derivation at the default PBKDF2 count: what every recovery,
/// standby attach and offline audit pays before its first open.
fn bench_kdf(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdf");
    group.bench_function("codec_new_pbkdf2_4096", |b| {
        b.iter(|| Codec::new(CodecConfig::new().compression(true).password("bench")))
    });
    group.finish();
}

fn bench_seal_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("seal");
    let data = page_like_data(64 * 1024);
    group.throughput(Throughput::Bytes(data.len() as u64));
    for (label, codec) in [
        ("plain", Codec::plain()),
        ("comp", Codec::new(CodecConfig::new().compression(true))),
        (
            "comp+crypt",
            Codec::new(
                CodecConfig::new()
                    .compression(true)
                    .password("bench")
                    .kdf_iterations(16),
            ),
        ),
    ] {
        group.bench_function(format!("seal_{label}"), |b| {
            b.iter(|| codec.seal("WAL/1_seg_0", &data).unwrap())
        });
        // The pooled variant reuses the caller's output buffer and the
        // thread-local bufpool for intermediates: zero allocations per
        // object once warm (the miss counter below proves it).
        let mut out = Vec::new();
        let (_, m0) = bufpool::counters();
        group.bench_function(format!("seal_into_{label}"), |b| {
            b.iter(|| {
                codec.seal_into("WAL/1_seg_0", &data, &mut out).unwrap();
                out.len()
            })
        });
        let (_, m1) = bufpool::counters();
        println!(
            "    seal_into_{label}: {} pool misses over the whole run",
            m1 - m0
        );
        if label == "plain" {
            // A `mysql_mem`-sized object: MAC-only, where per-object
            // costs (keyed-midstate clone, padding, envelope) show.
            let small = &data[..4608];
            group.throughput(Throughput::Bytes(small.len() as u64));
            group.bench_function("seal_into_plain_4608", |b| {
                b.iter(|| {
                    codec.seal_into("WAL/1_seg_0", small, &mut out).unwrap();
                    out.len()
                })
            });
            group.throughput(Throughput::Bytes(data.len() as u64));
        }
        let sealed = codec.seal("WAL/1_seg_0", &data).unwrap();
        group.bench_function(format!("open_{label}"), |b| {
            b.iter(|| codec.open("WAL/1_seg_0", &sealed).unwrap())
        });
        let mut opened = Vec::new();
        group.bench_function(format!("open_into_{label}"), |b| {
            b.iter(|| {
                codec
                    .open_into("WAL/1_seg_0", &sealed, &mut opened)
                    .unwrap();
                opened.len()
            })
        });
    }
    // The whole seal — compression, encryption and MAC — on an object
    // the size of a large `pg_mem` WAL object: the layer `bench_e2e`'s
    // `codec.seal_mbps` measures, where GLZ takes most of the time.
    let big = page_like_data(256 * 1024);
    let codec = Codec::new(
        CodecConfig::new()
            .compression(true)
            .password("bench")
            .kdf_iterations(16),
    );
    let mut out = Vec::new();
    group.throughput(Throughput::Bytes(big.len() as u64));
    group.bench_with_input(BenchmarkId::new("page_like", big.len()), &big, |b, big| {
        b.iter(|| {
            codec.seal_into("WAL/1_seg_0", big, &mut out).unwrap();
            out.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_glz, bench_crypto, bench_kdf, bench_seal_open
}
criterion_main!(benches);
