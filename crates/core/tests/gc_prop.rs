//! Property test for the fuzzy-profile WAL garbage collection
//! (`CloudView::remove_covered_wal`): over random circular-log write
//! patterns, *for every byte of every WAL file the newest durable object
//! that contains it survives*, so the files rebuilt from the survivors
//! equal the files rebuilt from every object ever registered.

use ginja_core::{CloudView, WalObjectName};
use proptest::prelude::*;

/// Two circular "log files": a never-rewritten header, then the record
/// region the writer cycles through (file 0, file 1, file 0, ...).
const FILES: [&str; 2] = ["ib_logfile0", "ib_logfile1"];
const HEADER: u64 = 4;
const BODY: u64 = 40;
const FILE_LEN: u64 = HEADER + BODY;

#[derive(Debug, Clone)]
enum Step {
    /// The DBMS appends `len` bytes after rewriting the last `back`
    /// bytes (the tail-block rewrite); the aggregator cuts one object
    /// per file touched and allocates its timestamp.
    Write { back: u64, len: u64 },
    /// An uploader finishes a PUT: one allocated object, any one of the
    /// in-flight ones, becomes durable and joins the view.
    Register { pick: usize },
    /// A checkpoint's GC pass: `upto` somewhere at or below the newest
    /// durable timestamp; the PITR floor (when on) moves up to a point
    /// at or below it.
    Gc { upto: f64, floor: f64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0u64..4, 1u64..14).prop_map(|(back, len)| Step::Write { back, len }),
        6 => (0usize..8).prop_map(|pick| Step::Register { pick }),
        2 => (0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(upto, floor)| Step::Gc { upto, floor }),
    ]
}

/// The files as recovery to `point` rebuilds them from `objects`: each
/// byte holds the timestamp of the object whose content it ends up
/// with (objects applied in timestamp order; an object's content is
/// unique to it, so equal images mean equal bytes).
fn rebuild<'a>(objects: impl Iterator<Item = &'a WalObjectName>, point: u64) -> Vec<Vec<u64>> {
    let mut objects: Vec<&WalObjectName> = objects.filter(|o| o.ts <= point).collect();
    objects.sort_by_key(|o| o.ts);
    let mut image = vec![vec![0u64; FILE_LEN as usize]; FILES.len()];
    for object in objects {
        let file = FILES.iter().position(|f| *f == object.file).unwrap();
        for byte in object.offset..object.end() {
            image[file][byte as usize] = object.ts;
        }
    }
    image
}

fn run_case(boot_chunk: u64, pitr: bool, steps: Vec<Step>) {
    let mut view = CloudView::new();
    let mut registered: Vec<WalObjectName> = Vec::new();
    let mut in_flight: Vec<WalObjectName> = Vec::new();

    // Boot: every file whole, in chunks.
    for file in FILES {
        let mut offset = 0;
        while offset < FILE_LEN {
            let len = boot_chunk.min(FILE_LEN - offset);
            let name = WalObjectName {
                ts: view.alloc_wal_ts(),
                file: file.into(),
                offset,
                len,
            };
            view.add_wal(name.clone());
            registered.push(name);
            offset += len;
        }
    }

    // Position in the 2 x BODY circular record space.
    let mut cursor = 0u64;
    let mut floor = 0u64;
    for step in steps {
        match step {
            Step::Write { back, len } => {
                let back = back.min(cursor % BODY);
                let mut pos = cursor - back;
                let mut left = back + len;
                while left > 0 {
                    let in_file = pos % BODY;
                    let run = left.min(BODY - in_file);
                    in_flight.push(WalObjectName {
                        ts: view.alloc_wal_ts(),
                        file: FILES[(pos / BODY % 2) as usize].into(),
                        offset: HEADER + in_file,
                        len: run,
                    });
                    pos += run;
                    left -= run;
                }
                cursor = pos % (2 * BODY);
            }
            Step::Register { pick } => {
                if !in_flight.is_empty() {
                    let name = in_flight.remove(pick % in_flight.len());
                    view.add_wal(name.clone());
                    registered.push(name);
                }
            }
            Step::Gc {
                upto,
                floor: floor_frac,
            } => {
                let upto = (view.last_wal_ts() as f64 * upto) as u64;
                let coverers_upto = if pitr {
                    floor = floor.max((upto as f64 * floor_frac) as u64);
                    floor
                } else {
                    u64::MAX
                };
                let upto = upto.min(coverers_upto);
                let removed = view.remove_covered_wal(upto, coverers_upto);

                assert!(removed.iter().all(|w| w.ts <= upto), "victim above upto");
                assert!(
                    removed.windows(2).all(|w| w[0].ts < w[1].ts),
                    "victims not ascending"
                );
                // (a) + (b): the survivors rebuild what everything ever
                // registered rebuilds — i.e. the newest object holding
                // each byte survived — for "latest" and, under PITR,
                // for every restorable point.
                let points: Vec<u64> = if pitr {
                    (floor..=view.last_wal_ts() + 1).collect()
                } else {
                    vec![u64::MAX]
                };
                for point in points {
                    assert_eq!(
                        rebuild(view.wal_entries(), point),
                        rebuild(registered.iter(), point),
                        "restore to {point} differs after gc({upto}, {coverers_upto}) removed {removed:?}"
                    );
                }
                // (c) nothing is left for a second pass.
                assert!(view.remove_covered_wal(upto, coverers_upto).is_empty());
            }
        }
    }
}

proptest! {
    #[test]
    fn newest_object_of_every_byte_survives(
        boot_chunk in 8u64..=FILE_LEN,
        steps in proptest::collection::vec(step_strategy(), 1..160),
    ) {
        run_case(boot_chunk, false, steps);
    }

    #[test]
    fn every_restorable_point_survives_under_pitr(
        boot_chunk in 8u64..=FILE_LEN,
        steps in proptest::collection::vec(step_strategy(), 1..160),
    ) {
        run_case(boot_chunk, true, steps);
    }
}
