//! Property tests for the middleware's data-plane building blocks.

use std::sync::Arc;

use ginja_core::agg::{self, AggregatedRange};
use ginja_core::names::{DbObjectKind, DbObjectName, WalObjectName};
use ginja_core::queue::WalWrite;
use ginja_core::{bundle, CloudView};
use proptest::prelude::*;

fn arb_write() -> impl Strategy<Value = (u8, u64, Vec<u8>)> {
    // (file id, offset, data) with offsets/lengths small enough to
    // overlap frequently.
    (
        0u8..3,
        0u64..500,
        proptest::collection::vec(any::<u8>(), 1..64),
    )
}

fn replay(writes: &[WalWrite], size: usize) -> std::collections::HashMap<String, Vec<u8>> {
    let mut files: std::collections::HashMap<String, Vec<u8>> = std::collections::HashMap::new();
    for w in writes {
        let file = files
            .entry(w.file.to_string())
            .or_insert_with(|| vec![0; size]);
        let at = w.offset as usize;
        file[at..at + w.data.len()].copy_from_slice(&w.data);
    }
    files
}

fn apply_ranges(
    ranges: &[AggregatedRange],
    size: usize,
) -> std::collections::HashMap<String, Vec<u8>> {
    let mut files: std::collections::HashMap<String, Vec<u8>> = std::collections::HashMap::new();
    for r in ranges {
        let file = files.entry(r.file.clone()).or_insert_with(|| vec![0; size]);
        let at = r.offset as usize;
        file[at..at + r.data.len()].copy_from_slice(&r.data);
    }
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn aggregation_equals_naive_replay(
        raw in proptest::collection::vec(arb_write(), 1..60),
        cap in 16usize..4096,
    ) {
        let writes: Vec<WalWrite> = raw
            .into_iter()
            .map(|(f, offset, data)| WalWrite {
                file: format!("seg{f}").into(),
                offset,
                data: Arc::from(data.as_slice()),
            })
            .collect();
        let ranges = agg::aggregate(&writes, cap);
        // Every chunk respects the size cap.
        prop_assert!(ranges.iter().all(|r| r.data.len() <= cap.max(1)));
        // Applying the aggregated ranges in order reproduces the bytes
        // of applying the raw writes in order.
        prop_assert_eq!(apply_ranges(&ranges, 600), replay(&writes, 600));
        // Ranges per file are disjoint and sorted.
        for file_ranges in ranges.chunk_by(|a, b| a.file == b.file) {
            for pair in file_ranges.windows(2) {
                prop_assert!(pair[0].offset + pair[0].data.len() as u64 <= pair[1].offset);
            }
        }
    }

    #[test]
    fn wal_name_roundtrip(
        ts in any::<u64>(),
        file in "[a-zA-Z0-9_./]{1,40}",
        offset in any::<u64>(),
        len in any::<u64>(),
    ) {
        prop_assume!(!file.is_empty());
        let name = WalObjectName { ts, file, offset, len };
        prop_assert_eq!(WalObjectName::parse(&name.to_name()).unwrap(), name);
    }

    #[test]
    fn db_name_roundtrip(
        ts in any::<u64>(),
        dump in any::<bool>(),
        size in any::<u64>(),
        part in 0u32..8,
        extra in 0u32..8,
    ) {
        let name = DbObjectName {
            ts,
            kind: if dump { DbObjectKind::Dump } else { DbObjectKind::Checkpoint },
            size,
            part,
            parts: part + 1 + extra,
        };
        prop_assert_eq!(DbObjectName::parse(&name.to_name()).unwrap(), name);
    }

    #[test]
    fn name_parsers_never_panic(garbage in "[ -~]{0,60}") {
        let _ = WalObjectName::parse(&garbage);
        let _ = DbObjectName::parse(&garbage);
        let _ = CloudView::from_listing([garbage.as_str()]);
    }

    #[test]
    fn bundle_roundtrip(
        entries in proptest::collection::vec(
            ("[a-z/]{1,20}", any::<u64>(), proptest::collection::vec(any::<u8>(), 0..128)),
            0..20,
        ),
    ) {
        let ranges: Vec<bundle::FileRange> = entries
            .into_iter()
            .map(|(path, offset, data)| bundle::FileRange { path, offset, data })
            .collect();
        prop_assert_eq!(bundle::decode(&bundle::encode(&ranges)).unwrap(), ranges);
    }

    #[test]
    fn bundle_decode_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = bundle::decode(&garbage);
    }

    #[test]
    fn covered_wal_gc_never_deletes_uncovered_data(
        objects in proptest::collection::vec(
            (0u8..2, 0u64..20, 1u64..20),
            1..30,
        ),
        upto_frac in 0.0f64..=1.0,
    ) {
        // Build a view with sequential timestamps and random ranges.
        let mut view = CloudView::new();
        let mut names = Vec::new();
        for (i, (file, offset, len)) in objects.iter().enumerate() {
            let name = WalObjectName {
                ts: i as u64 + 1,
                file: format!("f{file}"),
                offset: *offset,
                len: *len,
            };
            view.add_wal(name.clone());
            names.push(name);
        }
        let upto = (names.len() as f64 * upto_frac) as u64;
        let removed = view.remove_covered_wal(upto, u64::MAX);
        let survivors: Vec<&WalObjectName> = view.wal_entries().collect();
        // Invariant 1: only candidates (ts <= upto) were removed.
        prop_assert!(removed.iter().all(|w| w.ts <= upto));
        // Invariant 2: every byte of every removed object is covered by
        // a surviving object with a strictly greater timestamp.
        for deleted in &removed {
            for byte in deleted.offset..deleted.end() {
                let covered = survivors.iter().any(|survivor| {
                    survivor.ts > deleted.ts
                        && survivor.file == deleted.file
                        && survivor.offset <= byte
                        && survivor.end() > byte
                });
                prop_assert!(covered, "byte {byte} of {deleted:?} uncovered");
            }
        }
    }
}

/// Resolves one generated write shape against a file's current ranges
/// (`(start, end)`, ascending) into an `(offset, len)`; shapes that need
/// more ranges than the file has fall back to a random write.
fn shape_write(shape: u8, ranges: &[(u64, u64)], cursor: &mut u64, a: u64, b: u64) -> (u64, u64) {
    const SPAN: u64 = 64 * 1024;
    const PAGE: u64 = 8192;
    let pick = |k: u64| ranges[(k % ranges.len() as u64) as usize];
    match shape {
        // Sequential 8 KiB appends, wrapping at 64 KiB.
        0 => {
            let at = *cursor;
            *cursor = (at + PAGE) % SPAN;
            (at, PAGE)
        }
        // An overwrite inside a range.
        1 if !ranges.is_empty() => {
            let (start, end) = pick(a);
            let offset = start + b % (end - start + 1);
            (offset, (b >> 32) % (end - offset + 1))
        }
        // A write bridging two neighbouring ranges.
        2 if ranges.len() >= 2 => {
            let k = (a % (ranges.len() as u64 - 1)) as usize;
            let (s1, e1) = ranges[k];
            let (s2, e2) = ranges[k + 1];
            let from = s1 + b % (e1 - s1 + 1);
            let to = s2 + (b >> 32) % (e2 - s2 + 1);
            (from, to - from)
        }
        // Adjacent on the left: ends exactly where a range starts.
        3 if !ranges.is_empty() => {
            let (start, _) = pick(a);
            let len = (b % PAGE + 1).min(start);
            (start - len, len)
        }
        // Adjacent on the right: starts exactly where a range ends.
        4 if !ranges.is_empty() => (pick(a).1, b % PAGE + 1),
        5 => (a % SPAN, 0),
        _ => (a % SPAN, b % PAGE + 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn apply_matches_byte_map_model(
        ops in proptest::collection::vec((0u8..7, 0usize..3, any::<u64>(), any::<u64>()), 1..80),
    ) {
        let mut maps: Vec<std::collections::BTreeMap<u64, Vec<u8>>> = vec![Default::default(); 3];
        let mut model: Vec<Vec<Option<u8>>> = vec![Vec::new(); 3];
        let mut cursors = [0u64; 3];
        for (i, (shape, f, a, b)) in ops.into_iter().enumerate() {
            let ranges: Vec<(u64, u64)> = maps[f]
                .iter()
                .map(|(start, v)| (*start, start + v.len() as u64))
                .collect();
            let (offset, len) = shape_write(shape, &ranges, &mut cursors[f], a, b);
            let data: Vec<u8> = (0..len).map(|j| (i as u64 * 131 + j) as u8).collect();
            agg::apply(&mut maps[f], offset, &data);

            let end = (offset + len) as usize;
            if model[f].len() < end {
                model[f].resize(end, None);
            }
            for (at, byte) in (offset as usize..end).zip(&data) {
                model[f][at] = Some(*byte);
            }
            // Sorted (the map's order), disjoint and non-adjacent.
            let starts: Vec<(&u64, &Vec<u8>)> = maps[f].iter().collect();
            for pair in starts.windows(2) {
                prop_assert!(pair[0].0 + (pair[0].1.len() as u64) < *pair[1].0);
            }
        }
        // The ranges hold exactly the bytes a naive replay wrote.
        for (ranges, want) in maps.iter().zip(&model) {
            let mut got = vec![None; want.len()];
            for (start, bytes) in ranges {
                let at = *start as usize;
                prop_assert!(at + bytes.len() <= got.len());
                for (slot, byte) in got[at..at + bytes.len()].iter_mut().zip(bytes) {
                    *slot = Some(*byte);
                }
            }
            prop_assert_eq!(&got, want);
        }
    }
}
