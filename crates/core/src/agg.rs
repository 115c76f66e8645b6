//! Write aggregation (Algorithm 2, `aggregateUpdates`).
//!
//! "The DBMS write to the log on the granularity of a page, and many
//! times these pages are overwritten with more updates. Consequently, by
//! aggregating them we coalesce many updates in a single cloud object
//! upload" (§5.3). Aggregation applies last-write-wins semantics over
//! byte ranges and merges overlapping/adjacent ranges per file; a batch
//! of B page writes typically collapses to a single contiguous range
//! (one cloud object).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

use ginja_codec::bufpool;

use crate::outage::OutageState;
use crate::queue::WalWrite;
use crate::stats::GinjaStatsSnapshot;

/// One coalesced byte range of one WAL segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatedRange {
    /// Segment file path.
    pub file: String,
    /// Start offset of the range.
    pub offset: u64,
    /// The range's bytes (later writes already applied over earlier).
    pub data: Vec<u8>,
}

/// Coalesces a batch of writes into per-file contiguous ranges, applying
/// them in arrival order (last write wins), then splits any range larger
/// than `max_chunk` bytes.
pub fn aggregate(writes: &[WalWrite], max_chunk: usize) -> Vec<AggregatedRange> {
    let mut files: BTreeMap<&str, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
    for w in writes {
        let ranges = files.entry(&*w.file).or_default();
        apply(ranges, w.offset, &w.data);
    }

    let mut out = Vec::new();
    for (file, ranges) in files {
        for (offset, data) in ranges {
            if data.len() <= max_chunk {
                // Common case (the paper's "typically one object per
                // batch"): move the merged buffer straight into the
                // output instead of copying it.
                out.push(AggregatedRange {
                    file: file.to_string(),
                    offset,
                    data,
                });
                continue;
            }
            // Split oversized ranges at the object-size cap, chunks
            // drawn from the pool; the merged source buffer goes back.
            let mut chunk_off = offset;
            let mut rest: &[u8] = &data;
            while rest.len() > max_chunk {
                let mut chunk = bufpool::take();
                chunk.extend_from_slice(&rest[..max_chunk]);
                out.push(AggregatedRange {
                    file: file.to_string(),
                    offset: chunk_off,
                    data: chunk,
                });
                chunk_off += max_chunk as u64;
                rest = &rest[max_chunk..];
            }
            let mut tail = bufpool::take();
            tail.extend_from_slice(rest);
            out.push(AggregatedRange {
                file: file.to_string(),
                offset: chunk_off,
                data: tail,
            });
            bufpool::recycle(data);
        }
    }
    out
}

/// Applies one write into a per-file range map, merging every range it
/// overlaps or touches.
///
/// The map's ranges stay sorted, disjoint and non-adjacent, so a write
/// `[offset, end)` meets at most its predecessor (the last range
/// starting at or before `offset`, if it reaches `offset`) and the
/// ranges starting in `(offset, end]`. All of those but the last lie
/// inside the write and are superseded whole; only the last one's bytes
/// past `end` survive. The predecessor, when there is one, is
/// overwritten and extended in place — the WAL tail page rewritten then
/// grown, and a checkpoint's ascending page writes — so a write costs
/// O(log n + k) for k touched ranges, plus the bytes it copies.
pub fn apply(ranges: &mut BTreeMap<u64, Vec<u8>>, offset: u64, data: &[u8]) {
    let end = offset + data.len() as u64;
    let mut last_right: Option<(u64, Vec<u8>)> = None;
    while let Some(start) = ranges
        .range((Excluded(offset), Included(end)))
        .next()
        .map(|(start, _)| *start)
    {
        let old = ranges.remove(&start).expect("range vanished");
        if let Some((_, covered)) = last_right.replace((start, old)) {
            bufpool::recycle(covered);
        }
    }
    let tail: &[u8] = match &last_right {
        Some((start, old)) => old.get((end - start) as usize..).unwrap_or_default(),
        None => &[],
    };

    match ranges.range_mut(..=offset).next_back() {
        Some((start, buf)) if start + buf.len() as u64 >= offset => {
            let at = (offset - start) as usize;
            let overlap = (buf.len() - at).min(data.len());
            buf[at..at + overlap].copy_from_slice(&data[..overlap]);
            buf.extend_from_slice(&data[overlap..]);
            buf.extend_from_slice(tail);
        }
        _ => {
            let mut fresh = bufpool::take();
            fresh.extend_from_slice(data);
            fresh.extend_from_slice(tail);
            ranges.insert(offset, fresh);
        }
    }
    if let Some((_, old)) = last_right {
        bufpool::recycle(old);
    }
}

/// Exact fleet-wide totals over per-tenant [`GinjaStatsSnapshot`]s.
///
/// Every counter is widened to `u128` before summing, so the rollup is
/// *exact* — no saturating addition can silently lose a tenant's
/// contribution — and, addition being commutative and associative with
/// no overflow possible (summing `u64`s cannot reach `u128::MAX` for
/// any realistic tenant count), *order-independent*: rolling up the
/// same snapshots in any permutation yields the same totals. Durations
/// are summed as integer microseconds for the same reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotTotals {
    /// Snapshots absorbed into these totals.
    pub tenants: u64,
    /// Sum of `updates_intercepted`.
    pub updates_intercepted: u128,
    /// Sum of `updates_blocked`.
    pub updates_blocked: u128,
    /// Sum of `blocked_time`, in microseconds.
    pub blocked_micros: u128,
    /// Sum of `batches_formed`.
    pub batches_formed: u128,
    /// Sum of `wal_objects_uploaded`.
    pub wal_objects_uploaded: u128,
    /// Sum of `wal_bytes_raw`.
    pub wal_bytes_raw: u128,
    /// Sum of `wal_bytes_sealed`.
    pub wal_bytes_sealed: u128,
    /// Sum of `db_objects_uploaded`.
    pub db_objects_uploaded: u128,
    /// Sum of `db_bytes_raw`.
    pub db_bytes_raw: u128,
    /// Sum of `db_bytes_sealed`.
    pub db_bytes_sealed: u128,
    /// Sum of `checkpoints_seen`.
    pub checkpoints_seen: u128,
    /// Sum of `dumps_uploaded`.
    pub dumps_uploaded: u128,
    /// Sum of `gc_deletes`.
    pub gc_deletes: u128,
    /// Sum of `gc_backlog` (a gauge per tenant; the sum is the fleet's
    /// outstanding deferred-DELETE backlog).
    pub gc_backlog: u128,
    /// Sum of `upload_retries`.
    pub upload_retries: u128,
    /// Sum of `wal_resync_objects`.
    pub wal_resync_objects: u128,
    /// Sum of `pipeline_fatals`.
    pub pipeline_fatals: u128,
    /// Sum of `fanout_waves`.
    pub fanout_waves: u128,
    /// Sum of `fanout_jobs`.
    pub fanout_jobs: u128,
    /// Sum of `cloud_retries`.
    pub cloud_retries: u128,
    /// Sum of `breaker_trips`.
    pub breaker_trips: u128,
    /// Sum of `breaker_fast_fails`.
    pub breaker_fast_fails: u128,
    /// Sum of `sentinel.objects_scrubbed`.
    pub objects_scrubbed: u128,
    /// Sum of all three sentinel anomaly classes.
    pub scrub_anomalies: u128,
    /// Sum of `sentinel.repairs_uploaded`.
    pub repairs_uploaded: u128,
    /// Sum of `sentinel.repairs_failed`.
    pub repairs_failed: u128,
    /// Sum of `sentinel.rehearsal_failures`.
    pub rehearsal_failures: u128,
    /// Sum of `governor.spent_microusd`.
    pub spent_microusd: u128,
    /// Sum of `governor.projected_microusd`.
    pub projected_microusd: u128,
    /// Sum of `governor.decisions`.
    pub governor_decisions: u128,
    /// Sum of `outage.outages` (outage episodes entered).
    pub outages: u128,
    /// Sum of `gc_backlog_dropped`.
    pub gc_backlog_dropped: u128,
    /// Sum of `ingest.put_parks` (producers that waited on the Safety
    /// bound).
    pub ingest_put_parks: u128,
    /// Sum of `ingest.adaptive_seals` (partial batches sealed early for
    /// parked producers).
    pub ingest_adaptive_seals: u128,
    /// Sum of `standby.tail_cycles` (warm-standby tail polls).
    pub standby_tail_cycles: u128,
    /// Sum of `standby.gets` (objects the standby tails fetched — the
    /// fleet's standby GET spend).
    pub standby_gets: u128,
    /// Sum of `standby.lag_objects` (a gauge per tenant; the sum is
    /// the fleet's total unabsorbed backlog behind its standbys).
    pub standby_lag_objects: u128,
    /// Sum of `standby.lag_bytes` (gauge, like `standby_lag_objects`).
    pub standby_lag_bytes: u128,
    /// Sum of `standby.promotions`.
    pub standby_promotions: u128,
    /// Tenants whose sentinel flags the backup as degraded.
    pub degraded_tenants: u64,
    /// Tenants currently enduring an outage (`Enduring`).
    pub enduring_tenants: u64,
}

impl SnapshotTotals {
    /// Adds one tenant's snapshot into the totals.
    pub fn absorb(&mut self, snap: &GinjaStatsSnapshot) {
        self.tenants += 1;
        self.updates_intercepted += u128::from(snap.updates_intercepted);
        self.updates_blocked += u128::from(snap.updates_blocked);
        self.blocked_micros += snap.blocked_time.as_micros();
        self.batches_formed += u128::from(snap.batches_formed);
        self.wal_objects_uploaded += u128::from(snap.wal_objects_uploaded);
        self.wal_bytes_raw += u128::from(snap.wal_bytes_raw);
        self.wal_bytes_sealed += u128::from(snap.wal_bytes_sealed);
        self.db_objects_uploaded += u128::from(snap.db_objects_uploaded);
        self.db_bytes_raw += u128::from(snap.db_bytes_raw);
        self.db_bytes_sealed += u128::from(snap.db_bytes_sealed);
        self.checkpoints_seen += u128::from(snap.checkpoints_seen);
        self.dumps_uploaded += u128::from(snap.dumps_uploaded);
        self.gc_deletes += u128::from(snap.gc_deletes);
        self.gc_backlog += u128::from(snap.gc_backlog);
        self.upload_retries += u128::from(snap.upload_retries);
        self.wal_resync_objects += u128::from(snap.wal_resync_objects);
        self.pipeline_fatals += u128::from(snap.pipeline_fatals);
        self.fanout_waves += u128::from(snap.fanout_waves);
        self.fanout_jobs += u128::from(snap.fanout_jobs);
        self.cloud_retries += u128::from(snap.cloud_retries);
        self.breaker_trips += u128::from(snap.breaker_trips);
        self.breaker_fast_fails += u128::from(snap.breaker_fast_fails);
        self.objects_scrubbed += u128::from(snap.sentinel.objects_scrubbed);
        self.scrub_anomalies += u128::from(snap.sentinel.anomalies_missing)
            + u128::from(snap.sentinel.anomalies_corrupt)
            + u128::from(snap.sentinel.anomalies_orphan);
        self.repairs_uploaded += u128::from(snap.sentinel.repairs_uploaded);
        self.repairs_failed += u128::from(snap.sentinel.repairs_failed);
        self.rehearsal_failures += u128::from(snap.sentinel.rehearsal_failures);
        self.spent_microusd += u128::from(snap.governor.spent_microusd);
        self.projected_microusd += u128::from(snap.governor.projected_microusd);
        self.governor_decisions += u128::from(snap.governor.decisions);
        self.outages += u128::from(snap.outage.outages);
        self.gc_backlog_dropped += u128::from(snap.gc_backlog_dropped);
        self.ingest_put_parks += u128::from(snap.ingest.put_parks);
        self.ingest_adaptive_seals += u128::from(snap.ingest.adaptive_seals);
        self.standby_tail_cycles += u128::from(snap.standby.tail_cycles);
        self.standby_gets += u128::from(snap.standby.gets);
        self.standby_lag_objects += u128::from(snap.standby.lag_objects);
        self.standby_lag_bytes += u128::from(snap.standby.lag_bytes);
        self.standby_promotions += u128::from(snap.standby.promotions);
        self.degraded_tenants += u64::from(snap.sentinel.degraded);
        self.enduring_tenants += u64::from(snap.outage.state == OutageState::Enduring);
    }

    /// Whether the fleet looks healthy in aggregate: no pipeline stage
    /// has died, no repair or rehearsal has failed, and no tenant's
    /// sentinel flags degradation.
    pub fn healthy(&self) -> bool {
        self.pipeline_fatals == 0
            && self.repairs_failed == 0
            && self.rehearsal_failures == 0
            && self.degraded_tenants == 0
    }
}

/// Rolls up per-tenant snapshots into exact fleet totals. The result is
/// independent of iteration order — see [`SnapshotTotals`].
pub fn rollup<'a, I>(snapshots: I) -> SnapshotTotals
where
    I: IntoIterator<Item = &'a GinjaStatsSnapshot>,
{
    let mut totals = SnapshotTotals::default();
    for snap in snapshots {
        totals.absorb(snap);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn w(file: &str, offset: u64, data: &[u8]) -> WalWrite {
        WalWrite {
            file: file.into(),
            offset,
            data: Arc::from(data),
        }
    }

    const CAP: usize = 1 << 20;

    #[test]
    fn single_write_passthrough() {
        let out = aggregate(&[w("f", 8, b"abc")], CAP);
        assert_eq!(
            out,
            vec![AggregatedRange {
                file: "f".into(),
                offset: 8,
                data: b"abc".to_vec()
            }]
        );
    }

    #[test]
    fn rewritten_page_coalesces_to_one_range() {
        // The WAL tail-block pattern: the same page written repeatedly.
        let out = aggregate(
            &[w("f", 0, b"aaaa"), w("f", 0, b"bbbb"), w("f", 0, b"cccc")],
            CAP,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data, b"cccc");
    }

    #[test]
    fn last_write_wins_on_partial_overlap() {
        let out = aggregate(&[w("f", 0, b"aaaaaa"), w("f", 2, b"BB")], CAP);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].offset, 0);
        assert_eq!(out[0].data, b"aaBBaa");
    }

    #[test]
    fn adjacent_ranges_merge() {
        let out = aggregate(&[w("f", 0, b"aa"), w("f", 2, b"bb"), w("f", 4, b"cc")], CAP);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data, b"aabbcc");
    }

    #[test]
    fn disjoint_ranges_stay_separate() {
        let out = aggregate(&[w("f", 0, b"aa"), w("f", 100, b"bb")], CAP);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].offset, 0);
        assert_eq!(out[1].offset, 100);
    }

    #[test]
    fn write_bridging_two_ranges_merges_all() {
        let out = aggregate(
            &[
                w("f", 0, b"aaaa"),
                w("f", 8, b"cccc"),
                w("f", 2, b"BBBBBBBB"),
            ],
            CAP,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].offset, 0);
        assert_eq!(out[0].data, b"aaBBBBBBBBcc");
    }

    #[test]
    fn multiple_files_sorted_output() {
        let out = aggregate(&[w("zz", 0, b"2"), w("aa", 0, b"1")], CAP);
        assert_eq!(out[0].file, "aa");
        assert_eq!(out[1].file, "zz");
    }

    #[test]
    fn typical_batch_one_object() {
        // Paper §5.3 footnote 4: consecutive page writes to one segment
        // "typically results in only one cloud object".
        let writes: Vec<WalWrite> = (0..100u64)
            .map(|i| w("pg_xlog/0001", (i / 3) * 8192, &[i as u8; 8192]))
            .collect();
        let out = aggregate(&writes, CAP);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].offset, 0);
        assert_eq!(out[0].data.len(), 34 * 8192);
    }

    #[test]
    fn oversized_range_split_at_cap() {
        let big = vec![7u8; 10_000];
        let out = aggregate(&[w("f", 0, &big)], 4096);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].data.len(), 4096);
        assert_eq!(out[1].data.len(), 4096);
        assert_eq!(out[2].data.len(), 10_000 - 8192);
        assert_eq!(out[0].offset, 0);
        assert_eq!(out[1].offset, 4096);
        assert_eq!(out[2].offset, 8192);
    }

    #[test]
    fn sequential_appends_extend_one_buffer_in_place() {
        // A checkpoint's ascending page writes grow one range in place:
        // its buffer moves only when the Vec reallocates, not per write.
        let mut ranges = BTreeMap::new();
        let page = [7u8; 8192];
        let mut ptr = None;
        let mut moves = 0;
        for i in 0..4096u64 {
            apply(&mut ranges, i * 8192, &page);
            let now = ranges[&0].as_ptr();
            moves += usize::from(ptr.is_some_and(|p| p != now));
            ptr = Some(now);
        }
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[&0].len(), 4096 * 8192);
        assert!(moves <= 32, "buffer moved {moves} times");
    }

    #[test]
    fn empty_batch_empty_output() {
        assert!(aggregate(&[], CAP).is_empty());
    }

    #[test]
    fn rollup_of_nothing_is_zero_and_healthy() {
        let totals = rollup([]);
        assert_eq!(totals, SnapshotTotals::default());
        assert_eq!(totals.tenants, 0);
        assert!(totals.healthy());
    }

    #[test]
    fn rollup_sums_are_exact_beyond_u64() {
        // Two tenants both pinned at u64::MAX: a saturating u64 sum
        // would silently clamp; the u128 rollup must not.
        let maxed = GinjaStatsSnapshot {
            updates_intercepted: u64::MAX,
            wal_bytes_sealed: u64::MAX,
            upload_retries: u64::MAX,
            ..Default::default()
        };
        let totals = rollup([&maxed, &maxed]);
        assert_eq!(totals.tenants, 2);
        assert_eq!(totals.updates_intercepted, 2 * u128::from(u64::MAX));
        assert_eq!(totals.wal_bytes_sealed, 2 * u128::from(u64::MAX));
        assert_eq!(totals.upload_retries, 2 * u128::from(u64::MAX));
        assert!(totals.updates_intercepted > u128::from(u64::MAX));
    }

    #[test]
    fn rollup_flags_unhealthy_tenants() {
        use crate::stats::SentinelSnapshot;
        let ok = GinjaStatsSnapshot::default();
        let fatal = GinjaStatsSnapshot {
            pipeline_fatals: 1,
            ..Default::default()
        };
        let degraded = GinjaStatsSnapshot {
            sentinel: SentinelSnapshot {
                degraded: true,
                rehearsal_failures: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(rollup([&ok, &ok]).healthy());
        let bad = rollup([&ok, &fatal, &degraded]);
        assert!(!bad.healthy());
        assert_eq!(bad.pipeline_fatals, 1);
        assert_eq!(bad.rehearsal_failures, 2);
        assert_eq!(bad.degraded_tenants, 1);
    }

    #[test]
    fn reconstruction_equals_replay() {
        // Property-style check: aggregating then applying ranges to a
        // buffer equals applying the raw writes in order.
        let writes = vec![
            w("f", 5, b"11111"),
            w("f", 0, b"222"),
            w("f", 3, b"3333"),
            w("f", 20, b"44"),
            w("f", 18, b"5555"),
        ];
        let mut direct = vec![0u8; 30];
        for wr in &writes {
            let at = wr.offset as usize;
            direct[at..at + wr.data.len()].copy_from_slice(&wr.data);
        }
        let mut via_agg = vec![0u8; 30];
        for range in aggregate(&writes, CAP) {
            let at = range.offset as usize;
            via_agg[at..at + range.data.len()].copy_from_slice(&range.data);
        }
        assert_eq!(direct, via_agg);
    }
}

#[cfg(test)]
mod rollup_props {
    use super::*;
    use crate::stats::{GovernorSnapshot, IngestSnapshot, SentinelSnapshot, StandbySnapshot};
    use proptest::prelude::*;
    use std::time::Duration;

    /// Builds a snapshot whose counters spread across the pipeline,
    /// sentinel and governor sections, so the properties exercise every
    /// summation path (including the composite `scrub_anomalies`).
    /// Short chunks are zero-padded.
    fn snap(chunk: &[u64]) -> GinjaStatsSnapshot {
        let mut v = [0u64; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        let [a, b, c, d, e, f, g, h] = v;
        GinjaStatsSnapshot {
            updates_intercepted: a,
            updates_blocked: b,
            blocked_time: Duration::from_micros(c),
            wal_objects_uploaded: d,
            wal_bytes_sealed: e,
            gc_deletes: f,
            upload_retries: g,
            fanout_jobs: h,
            pipeline_fatals: a % 3,
            sentinel: SentinelSnapshot {
                objects_scrubbed: b,
                anomalies_missing: c % 11,
                anomalies_corrupt: d % 7,
                anomalies_orphan: e % 5,
                repairs_failed: f % 2,
                degraded: g % 4 == 0,
                ..Default::default()
            },
            governor: GovernorSnapshot {
                spent_microusd: h,
                projected_microusd: a,
                decisions: b % 1000,
                ..Default::default()
            },
            ingest: IngestSnapshot {
                put_parks: c,
                adaptive_seals: f,
                ..Default::default()
            },
            standby: StandbySnapshot {
                tail_cycles: g,
                gets: h,
                lag_objects: a % 13,
                lag_bytes: b,
                promotions: c % 9,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Deterministic Fisher–Yates permutation driven by `seed`.
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut s = seed;
        for i in (1..items.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            items.swap(i, j);
        }
    }

    /// Zero-pads a chunk to the 8 slots `snap` reads.
    fn padded(chunk: &[u64]) -> [u64; 8] {
        let mut v = [0u64; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        v
    }

    proptest! {
        #[test]
        fn rollup_is_order_independent(
            vals in proptest::collection::vec(any::<u64>(), 0..96),
            seed in any::<u64>(),
        ) {
            let snaps: Vec<GinjaStatsSnapshot> = vals.chunks(8).map(snap).collect();
            let mut shuffled = snaps.clone();
            shuffle(&mut shuffled, seed);
            prop_assert_eq!(rollup(snaps.iter()), rollup(shuffled.iter()));
        }

        #[test]
        fn rollup_sums_are_exact(
            vals in proptest::collection::vec(any::<u64>(), 0..96),
        ) {
            let chunks: Vec<[u64; 8]> = vals.chunks(8).map(padded).collect();
            let snaps: Vec<GinjaStatsSnapshot> =
                chunks.iter().map(|c| snap(&c[..])).collect();
            let totals = rollup(snaps.iter());
            let expect = |f: &dyn Fn(&[u64; 8]) -> u64| -> u128 {
                chunks.iter().map(|v| u128::from(f(v))).sum()
            };
            prop_assert_eq!(totals.tenants as usize, chunks.len());
            prop_assert_eq!(totals.updates_intercepted, expect(&|v| v[0]));
            prop_assert_eq!(totals.updates_blocked, expect(&|v| v[1]));
            prop_assert_eq!(totals.blocked_micros, expect(&|v| v[2]));
            prop_assert_eq!(totals.wal_objects_uploaded, expect(&|v| v[3]));
            prop_assert_eq!(totals.wal_bytes_sealed, expect(&|v| v[4]));
            prop_assert_eq!(totals.gc_deletes, expect(&|v| v[5]));
            prop_assert_eq!(totals.upload_retries, expect(&|v| v[6]));
            prop_assert_eq!(totals.fanout_jobs, expect(&|v| v[7]));
            prop_assert_eq!(totals.spent_microusd, expect(&|v| v[7]));
            prop_assert_eq!(totals.ingest_put_parks, expect(&|v| v[2]));
            prop_assert_eq!(totals.ingest_adaptive_seals, expect(&|v| v[5]));
            prop_assert_eq!(totals.standby_tail_cycles, expect(&|v| v[6]));
            prop_assert_eq!(totals.standby_gets, expect(&|v| v[7]));
            prop_assert_eq!(totals.standby_lag_objects, expect(&|v| v[0] % 13));
            prop_assert_eq!(totals.standby_lag_bytes, expect(&|v| v[1]));
            prop_assert_eq!(totals.standby_promotions, expect(&|v| v[2] % 9));
            prop_assert_eq!(
                totals.scrub_anomalies,
                expect(&|v| v[2] % 11) + expect(&|v| v[3] % 7) + expect(&|v| v[4] % 5)
            );
            prop_assert_eq!(
                totals.degraded_tenants as u128,
                expect(&|v| u64::from(v[6] % 4 == 0))
            );
            // Exactness survives incremental absorption too.
            let mut acc = SnapshotTotals::default();
            for s in &snaps {
                acc.absorb(s);
            }
            prop_assert_eq!(acc, totals);
        }
    }
}
