//! The replay step of the traced run: the objects the op log captured
//! are opened, and each layer's public functions are timed alone, on
//! one thread, on exactly those payloads. These numbers leave out
//! waiting and contention; they say how fast a layer *can* go on the
//! workload's own data.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ginja_cloud::{MemStore, ObjectStore, ResilientStore, RetryConfig};
use ginja_codec::{bufpool, Codec};
use ginja_core::agg::aggregate;
use ginja_core::queue::{CommitQueue, WalWrite};
use ginja_core::{GinjaConfig, WalObjectName};

use crate::stats::median;

/// Repeat each measurement until it has run this long, so a small
/// capture still gives a stable rate.
const MIN_MEASURE: Duration = Duration::from_millis(100);

/// Alternating measurements of the bare and the resilient store.
const OVERHEAD_TURNS: usize = 5;

#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub seal_mbps: f64,
    pub open_mbps: f64,
    pub sealed_per_raw: f64,
    pub bufpool_hit_rate: f64,
    pub aggregate_mbps: f64,
    pub queue_mops: f64,
    pub resilient_overhead_ns: f64,
}

/// Runs `pass` (which reports the bytes or operations it processed)
/// until [`MIN_MEASURE`] has elapsed; returns units per second.
fn rate(mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += pass();
        let elapsed = start.elapsed();
        if elapsed >= MIN_MEASURE || units == 0 {
            return units as f64 / elapsed.as_secs_f64().max(1e-9);
        }
    }
}

pub fn run(captured: &[(String, Vec<u8>)], config: &GinjaConfig, block: usize) -> Replay {
    let codec = Codec::new(config.codec.clone());
    let (hits0, misses0) = bufpool::counters();

    // codec: open, then seal what was opened.
    let mut plain: Vec<(&str, Vec<u8>)> = Vec::with_capacity(captured.len());
    for (name, sealed) in captured {
        let mut out = Vec::new();
        if codec.open_into(name, sealed, &mut out).is_ok() {
            plain.push((name, out));
        }
    }
    let raw_bytes: u64 = plain.iter().map(|(_, p)| p.len() as u64).sum();
    let sealed_bytes: u64 = captured.iter().map(|(_, s)| s.len() as u64).sum();
    let mut scratch = bufpool::take();
    let open_bps = rate(|| {
        for (name, sealed) in captured {
            scratch.clear();
            let _ = codec.open_into(name, sealed, &mut scratch);
            std::hint::black_box(&scratch);
        }
        raw_bytes
    });
    let seal_bps = rate(|| {
        for (name, raw) in &plain {
            scratch.clear();
            let _ = codec.seal_into(name, raw, &mut scratch);
            std::hint::black_box(&scratch);
        }
        raw_bytes
    });
    bufpool::recycle(scratch);
    let (hits1, misses1) = bufpool::counters();
    let takes = (hits1 - hits0) + (misses1 - misses0);

    // core: aggregation over the WAL payloads re-cut into the block
    // writes the engine issued, B to a batch.
    let mut batches: Vec<Vec<WalWrite>> = Vec::new();
    let mut batch = Vec::new();
    for (name, raw) in &plain {
        let Ok(wal) = WalObjectName::parse(name) else {
            continue;
        };
        let file: Arc<str> = Arc::from(wal.file.as_str());
        for (i, chunk) in raw.chunks(block.max(1)).enumerate() {
            batch.push(WalWrite {
                file: file.clone(),
                offset: wal.offset + (i * block) as u64,
                data: Arc::from(chunk),
            });
            if batch.len() == config.batch {
                batches.push(std::mem::take(&mut batch));
            }
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    let batch_bytes: u64 = batches.iter().flatten().map(|w| w.data.len() as u64).sum();
    let aggregate_bps = rate(|| {
        for b in &batches {
            for range in aggregate(b, config.max_object_size) {
                bufpool::recycle(range.data);
            }
        }
        batch_bytes
    });

    // core: the commit queue alone — B puts, one take_batch, one ack.
    let queue = CommitQueue::new(
        config.batch,
        config.safety,
        config.batch_timeout,
        config.safety_timeout,
    );
    let write = WalWrite {
        file: Arc::from("wal"),
        offset: 0,
        data: Arc::from(&[0u8; 64][..]),
    };
    let queue_ops = rate(|| {
        for _ in 0..config.batch {
            std::hint::black_box(queue.put(write.clone()));
        }
        let taken = queue.take_batch().map_or(0, |b| b.len());
        queue.ack_front(taken);
        taken as u64
    });
    queue.close();

    // cloud: what ResilientStore adds to a PUT that succeeds first time.
    // The difference is a few hundred ns next to a payload copy of tens
    // of microseconds, so the two stores take turns and each side's
    // median is compared.
    let per_put = |store: &dyn ObjectStore| {
        let puts = rate(|| {
            for (name, sealed) in captured {
                let _ = store.put(name, sealed);
            }
            captured.len() as u64
        });
        if puts > 0.0 {
            1e9 / puts
        } else {
            0.0
        }
    };
    let bare_store = MemStore::new();
    let resilient_store = ResilientStore::new(Arc::new(MemStore::new()), RetryConfig::default());
    let (mut bare, mut resilient) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_TURNS {
        bare.push(per_put(&bare_store));
        resilient.push(per_put(&resilient_store));
    }
    let (bare, resilient) = (median(&bare), median(&resilient));

    Replay {
        seal_mbps: seal_bps / 1e6,
        open_mbps: open_bps / 1e6,
        sealed_per_raw: if raw_bytes > 0 {
            sealed_bytes as f64 / raw_bytes as f64
        } else {
            0.0
        },
        bufpool_hit_rate: if takes > 0 {
            (hits1 - hits0) as f64 / takes as f64
        } else {
            0.0
        },
        aggregate_mbps: aggregate_bps / 1e6,
        queue_mops: queue_ops / 1e6,
        resilient_overhead_ns: resilient - bare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_measures_every_layer_on_captured_objects() {
        let config = GinjaConfig::builder().batch(4).safety(16).build().unwrap();
        let codec = Codec::new(config.codec.clone());
        let captured: Vec<(String, Vec<u8>)> = (0..3u64)
            .map(|i| {
                let name = WalObjectName {
                    ts: i + 1,
                    file: "pg_xlog/0001".into(),
                    offset: i * 16384,
                    len: 16384,
                }
                .to_name();
                let sealed = codec.seal(&name, &vec![i as u8; 16384]).unwrap();
                (name, sealed)
            })
            .collect();
        let r = run(&captured, &config, 8192);
        assert!(r.seal_mbps > 0.0 && r.open_mbps > 0.0);
        assert!(r.aggregate_mbps > 0.0 && r.queue_mops > 0.0);
        assert!(r.sealed_per_raw > 1.0, "MAC-only envelopes add bytes");
        assert!((0.0..=1.0).contains(&r.bufpool_hit_rate));
        // Nothing captured: every rate is 0, nothing divides by zero.
        let empty = run(&[], &config, 8192);
        assert_eq!(empty.seal_mbps, 0.0);
        assert_eq!(empty.sealed_per_raw, 0.0);
    }
}
