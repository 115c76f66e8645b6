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

use crate::queue::WalWrite;

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
