//! Criterion micro-benchmarks for the commit queue and write
//! aggregation (engineering regression tracking; not a paper
//! experiment).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ginja_core::agg;
use ginja_core::queue::{CommitQueue, WalWrite};

fn write(i: u64, len: usize) -> WalWrite {
    WalWrite {
        file: "pg_xlog/000000000000000000000001".into(),
        offset: (i % 64) * 8192,
        data: Arc::from(vec![i as u8; len].as_slice()),
    }
}

fn bench_queue_cycle(c: &mut Criterion) {
    c.bench_function("queue_put_take_ack_b100", |b| {
        let q = CommitQueue::new(100, 1000, Duration::from_secs(60), Duration::from_secs(60));
        b.iter(|| {
            for i in 0..100u64 {
                q.put(write(i, 128)).unwrap();
            }
            let batch = q.take_batch().unwrap();
            q.ack_front(batch.len());
        })
    });
}

/// `mysql_mem`'s shape: B = 10, S = 100, TB = 100 ms, two DBMS threads
/// putting 512 B log blocks while the aggregator takes and acks each
/// batch. A producer forces a flush when done, as `Ginja::sync` does.
fn bench_two_producers(c: &mut Criterion) {
    const PER_PRODUCER: usize = 1000;
    let block = write(0, 512);
    let mut group = c.benchmark_group("queue_two_producers");
    group.throughput(Throughput::Elements(2 * PER_PRODUCER as u64));
    group.bench_function("b10_s100", |b| {
        b.iter(|| {
            let q = CommitQueue::new(10, 100, Duration::from_millis(100), Duration::from_secs(60));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for _ in 0..PER_PRODUCER {
                            q.put(block.clone()).unwrap();
                        }
                        q.force_flush();
                    });
                }
                let mut taken = 0;
                while taken < 2 * PER_PRODUCER {
                    let n = q.take_batch().unwrap().len();
                    q.ack_front(n);
                    taken += n;
                }
            });
        })
    });
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let sequential: Vec<WalWrite> = (0..100).map(|i| write(i, 8192)).collect();
    c.bench_function("aggregate_100x8k_overlapping", |b| {
        b.iter(|| agg::aggregate(&sequential, 20 * 1024 * 1024))
    });

    let disjoint: Vec<WalWrite> = (0..100)
        .map(|i| WalWrite {
            file: format!("seg{}", i % 4).into(),
            offset: i * 100_000,
            data: Arc::from(vec![i as u8; 512].as_slice()),
        })
        .collect();
    c.bench_function("aggregate_100_disjoint", |b| {
        b.iter(|| agg::aggregate(&disjoint, 20 * 1024 * 1024))
    });

    // A checkpoint's data path: 1 000 ascending 8 KiB writes to every
    // other page of 4 files, folded into one accumulator of per-file
    // range maps. No write touches another, so each lands behind every
    // earlier range of its file.
    let page = vec![7u8; 8192];
    c.bench_function("apply_checkpoint_1000_pages", |b| {
        b.iter(|| {
            let mut accum: [BTreeMap<u64, Vec<u8>>; 4] = Default::default();
            for i in 0..1000u64 {
                agg::apply(&mut accum[(i % 4) as usize], (i / 4) * 2 * 8192, &page);
            }
            accum
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_queue_cycle, bench_two_producers, bench_aggregate
}
criterion_main!(benches);
