//! Recovery mode of Algorithm 1: rebuild the database files from the
//! objects stored in the cloud.
//!
//! One LIST rebuilds the `cloudView`; everything after it is one pass of
//! the [`crate::apply`] pipeline, which *issues* the GETs large objects
//! first (dump parts, checkpoint parts, then WAL ascending, at most
//! `recovery_fanout` in flight) and *applies* what they return in the
//! order DESIGN.md §7 argues for:
//!
//! 1. every file of the most recent **dump**;
//! 2. every surviving **WAL object**, in timestamp order;
//! 3. the dump's ranges that lie inside WAL files, once more;
//! 4. every **incremental checkpoint** newer than the dump, in timestamp
//!    order.
//!
//! Two deliberate deviations from the paper's Algorithm 1 (lines 23–40):
//!
//! * The paper applies WAL only *after the last checkpoint's timestamp*.
//!   That is correct for full-coverage checkpoints (PostgreSQL), but for
//!   fuzzy checkpointers (InnoDB) the records of still-dirty pages live
//!   only in WAL objects *older* than the checkpoint — so every
//!   surviving WAL object is rebuilt, and the checkpoint bundles are
//!   applied last (their control blocks must win over boot-time log
//!   images).
//! * The paper skips WAL objects past the first timestamp gap. Gaps
//!   arise both from uploads lost in flight with the disaster *and* from
//!   garbage collection racing a straggling upload — and in the latter
//!   case the post-gap objects are required. Rebuilding everything is
//!   always safe because the DBMS's own redo scan (block sequence
//!   numbers + CRCs) establishes the recoverable prefix, exactly as
//!   after an ordinary crash (§4); unusable post-gap bytes simply fall
//!   past the scan frontier. The acknowledgment pipeline releases the
//!   DBMS only in batch order, so everything ever acknowledged lies
//!   before any true gap and the Safety bound is preserved.

use ginja_cloud::ObjectStore;
use ginja_codec::Codec;
use ginja_vfs::FileSystem;

use crate::apply::{ApplyEngine, ApplyProgress};
use crate::config::GinjaConfig;
use crate::fanout::FanoutExecutor;
use crate::view::CloudView;
use crate::GinjaError;

/// What a recovery did — for operator visibility and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Timestamp of the dump used as the base.
    pub dump_ts: u64,
    /// Incremental checkpoints applied on top of the dump.
    pub checkpoints_applied: u64,
    /// WAL objects applied: every surviving one up to the recovery
    /// point, on either side of the dump and the checkpoints.
    pub wal_objects_applied: u64,
    /// Timestamp of the newest WAL object applied (0 if none).
    pub max_wal_ts: u64,
    /// Sealed bytes downloaded from the cloud.
    pub bytes_downloaded: u64,
    /// Distinct local files written.
    pub files_written: u64,
}

/// Rebuilds the database files in `fs` from `cloud` — full recovery to
/// the most recent consistent state.
///
/// # Errors
///
/// [`GinjaError::Recovery`] when no dump exists or a required object is
/// missing/corrupt; cloud and codec errors propagate.
pub fn recover_into(
    fs: &dyn FileSystem,
    cloud: &dyn ObjectStore,
    config: &GinjaConfig,
) -> Result<RecoveryReport, GinjaError> {
    recover_to_point(fs, cloud, config, u64::MAX)
}

/// Rebuilds the database files as of WAL timestamp `point` (inclusive) —
/// the point-in-time recovery extension of §5.4. Pass `u64::MAX` for
/// "most recent".
///
/// # Errors
///
/// As [`recover_into`].
pub fn recover_to_point(
    fs: &dyn FileSystem,
    cloud: &dyn ObjectStore,
    config: &GinjaConfig,
    point: u64,
) -> Result<RecoveryReport, GinjaError> {
    let codec = Codec::new(config.codec.clone());
    // Recovery is GET-latency bound (the paper's Figure 7): the apply
    // engine, shared with the continuous standby (`ginja-standby`),
    // keeps `recovery_fanout` GETs in flight while it applies.
    let fanout = FanoutExecutor::new(config.recovery_fanout);
    let names = cloud.list("")?;
    let view = CloudView::from_listing(&names)?;
    let engine = ApplyEngine::new(fs, cloud, &codec, &fanout);
    let mut progress = ApplyProgress::new();
    engine.cold_apply(&view, point, &mut progress)?;
    Ok(progress.report())
}

/// A state the cloud can restore (for `recover_to_point`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestorePoint {
    /// Pass this timestamp to [`recover_to_point`].
    pub ts: u64,
    /// What anchors the point: a dump, an incremental checkpoint, or a
    /// WAL object (finest granularity).
    pub kind: RestorePointKind,
}

/// What kind of object anchors a [`RestorePoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestorePointKind {
    /// A full dump exists at this timestamp.
    Dump,
    /// An incremental checkpoint was taken at this timestamp.
    Checkpoint,
    /// A WAL object ends at this timestamp.
    Wal,
}

/// Enumerates the points in time the cloud can currently restore —
/// the operator-facing view of the PITR extension (§5.4). Only points
/// at or after the oldest retained dump are restorable.
///
/// # Errors
///
/// Cloud listing and name-parsing errors propagate.
pub fn list_restore_points(cloud: &dyn ObjectStore) -> Result<Vec<RestorePoint>, GinjaError> {
    let view = CloudView::from_listing(cloud.list("")?)?;
    let Some(&oldest_dump) = view.dump_timestamps().first() else {
        return Ok(Vec::new());
    };
    let mut points = Vec::new();
    for (ts, entry) in view.db_entries() {
        if ts < oldest_dump || !entry.is_complete() {
            continue;
        }
        points.push(RestorePoint {
            ts,
            kind: match entry.kind {
                crate::names::DbObjectKind::Dump => RestorePointKind::Dump,
                crate::names::DbObjectKind::Checkpoint => RestorePointKind::Checkpoint,
            },
        });
    }
    for wal in view.wal_entries() {
        if wal.ts >= oldest_dump {
            points.push(RestorePoint {
                ts: wal.ts,
                kind: RestorePointKind::Wal,
            });
        }
    }
    points.sort_by_key(|p| (p.ts, p.kind == RestorePointKind::Wal));
    points.dedup_by_key(|p| p.ts);
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle;
    use crate::names::{DbObjectKind, DbObjectName, WalObjectName};
    use ginja_cloud::MemStore;
    use ginja_vfs::MemFs;

    fn config() -> GinjaConfig {
        GinjaConfig::builder().build().unwrap()
    }

    fn put_db(
        cloud: &MemStore,
        codec: &Codec,
        ts: u64,
        kind: DbObjectKind,
        entries: &[bundle::FileRange],
    ) {
        let bytes = bundle::encode(entries);
        let name = DbObjectName {
            ts,
            kind,
            size: bytes.len() as u64,
            part: 0,
            parts: 1,
        };
        let sealed = codec.seal(&name.to_name(), &bytes).unwrap();
        cloud.put(&name.to_name(), &sealed).unwrap();
    }

    fn put_wal(cloud: &MemStore, codec: &Codec, ts: u64, file: &str, offset: u64, data: &[u8]) {
        let name = WalObjectName {
            ts,
            file: file.into(),
            offset,
            len: data.len() as u64,
        };
        let sealed = codec.seal(&name.to_name(), data).unwrap();
        cloud.put(&name.to_name(), &sealed).unwrap();
    }

    fn range(path: &str, offset: u64, data: &[u8]) -> bundle::FileRange {
        bundle::FileRange {
            path: path.into(),
            offset,
            data: data.to_vec(),
        }
    }

    #[test]
    fn no_dump_is_an_error() {
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let err = recover_into(&fs, &cloud, &config()).unwrap_err();
        assert!(matches!(err, GinjaError::Recovery(_)));
    }

    #[test]
    fn dump_then_checkpoints_then_wal() {
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);

        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("base/1", 0, b"AAAA")],
        );
        put_db(
            &cloud,
            &codec,
            2,
            DbObjectKind::Checkpoint,
            &[range("base/1", 2, b"bb")],
        );
        put_wal(&cloud, &codec, 1, "pg_xlog/0001", 0, b"w1");
        put_wal(&cloud, &codec, 2, "pg_xlog/0001", 2, b"w2");
        put_wal(&cloud, &codec, 3, "pg_xlog/0001", 4, b"w3");
        put_wal(&cloud, &codec, 4, "pg_xlog/0001", 6, b"w4");

        let report = recover_into(&fs, &cloud, &config()).unwrap();
        assert_eq!(report.dump_ts, 0);
        assert_eq!(report.checkpoints_applied, 1);
        // Every surviving WAL object after the dump is rebuilt (see the
        // module docs for why this deviates from the paper's line 37).
        assert_eq!(report.wal_objects_applied, 4);
        assert_eq!(report.max_wal_ts, 4);
        assert_eq!(fs.read_all("base/1").unwrap(), b"AAbb");
        assert_eq!(fs.read_all("pg_xlog/0001").unwrap(), b"w1w2w3w4");
    }

    #[test]
    fn wal_gap_does_not_stop_application() {
        // ts 2 is missing — lost in flight, or garbage-collected under a
        // straggler. Both remaining objects are rebuilt; the DBMS's own
        // block-sequence scan decides how far redo can go (see module
        // docs).
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);

        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("base/1", 0, b"A")],
        );
        put_wal(&cloud, &codec, 1, "seg", 0, b"x1");
        put_wal(&cloud, &codec, 3, "seg", 4, b"x3");

        let report = recover_into(&fs, &cloud, &config()).unwrap();
        assert_eq!(report.wal_objects_applied, 2);
        assert_eq!(report.max_wal_ts, 3);
        assert_eq!(fs.read_all("seg").unwrap(), b"x1\0\0x3");
    }

    #[test]
    fn newest_dump_wins_and_older_checkpoints_skipped() {
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);

        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"old")],
        );
        put_db(
            &cloud,
            &codec,
            3,
            DbObjectKind::Checkpoint,
            &[range("f", 0, b"ck1")],
        );
        put_db(
            &cloud,
            &codec,
            5,
            DbObjectKind::Dump,
            &[range("f", 0, b"new")],
        );
        put_db(
            &cloud,
            &codec,
            8,
            DbObjectKind::Checkpoint,
            &[range("f", 1, b"X")],
        );

        let report = recover_into(&fs, &cloud, &config()).unwrap();
        assert_eq!(report.dump_ts, 5);
        assert_eq!(report.checkpoints_applied, 1);
        assert_eq!(fs.read_all("f").unwrap(), b"nXw");
    }

    #[test]
    fn dump_replaces_stale_local_file() {
        let fs = MemFs::new();
        fs.write("f", 0, b"stale-and-long-content", false).unwrap();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"short")],
        );
        recover_into(&fs, &cloud, &config()).unwrap();
        assert_eq!(fs.read_all("f").unwrap(), b"short");
    }

    #[test]
    fn point_in_time_selects_older_state() {
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);

        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"base")],
        );
        put_wal(&cloud, &codec, 1, "seg", 0, b"1");
        put_wal(&cloud, &codec, 2, "seg", 1, b"2");
        put_db(
            &cloud,
            &codec,
            2,
            DbObjectKind::Dump,
            &[range("f", 0, b"newer")],
        );
        put_wal(&cloud, &codec, 3, "seg", 2, b"3");

        // Point 1: use the ts-0 dump and only WAL object 1.
        let report = recover_to_point(&fs, &cloud, &config(), 1).unwrap();
        assert_eq!(report.dump_ts, 0);
        assert_eq!(report.wal_objects_applied, 1);
        assert_eq!(fs.read_all("f").unwrap(), b"base");
        assert_eq!(fs.read_all("seg").unwrap(), b"1");

        // Full recovery: newest dump + WAL 3.
        let fs2 = MemFs::new();
        let report = recover_into(&fs2, &cloud, &config()).unwrap();
        assert_eq!(report.dump_ts, 2);
        assert_eq!(fs2.read_all("f").unwrap(), b"newer");
    }

    #[test]
    fn restore_points_enumerate_recoverable_states() {
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        assert!(
            list_restore_points(&cloud).unwrap().is_empty(),
            "no dump → nothing"
        );

        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"base")],
        );
        put_wal(&cloud, &codec, 1, "seg", 0, b"1");
        put_wal(&cloud, &codec, 2, "seg", 1, b"2");
        put_db(
            &cloud,
            &codec,
            2,
            DbObjectKind::Checkpoint,
            &[range("f", 0, b"ck")],
        );
        put_wal(&cloud, &codec, 3, "seg", 2, b"3");

        let points = list_restore_points(&cloud).unwrap();
        let ts: Vec<u64> = points.iter().map(|p| p.ts).collect();
        assert_eq!(ts, vec![0, 1, 2, 3]);
        assert_eq!(points[0].kind, RestorePointKind::Dump);
        assert_eq!(points[1].kind, RestorePointKind::Wal);
        // A ts anchored by both a checkpoint and a WAL object reports
        // the coarser anchor.
        assert_eq!(points[2].kind, RestorePointKind::Checkpoint);

        // Every listed point is actually restorable.
        for point in &points {
            let fs = MemFs::new();
            recover_to_point(&fs, &cloud, &config(), point.ts).unwrap();
            assert!(fs.exists("f"));
        }
    }

    #[test]
    fn restore_points_empty_bucket_is_empty() {
        let cloud = MemStore::new();
        assert_eq!(list_restore_points(&cloud).unwrap(), Vec::new());
    }

    #[test]
    fn restore_points_wal_only_bucket_is_empty() {
        // WAL with no dump anchors nothing: there is no base state to
        // apply it to.
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        put_wal(&cloud, &codec, 1, "seg", 0, b"1");
        put_wal(&cloud, &codec, 2, "seg", 1, b"2");
        assert!(list_restore_points(&cloud).unwrap().is_empty());
    }

    #[test]
    fn restore_points_reject_malformed_names() {
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"base")],
        );
        // A foreign object in the bucket is a configuration error worth
        // surfacing, not something to silently skip.
        cloud.put("WAL/not-a-ts_seg_0", b"junk").unwrap();
        let err = list_restore_points(&cloud).unwrap_err();
        assert!(matches!(err, GinjaError::BadObjectName(_)), "{err:?}");

        cloud.delete("WAL/not-a-ts_seg_0").unwrap();
        cloud.put("DB/5_dump", b"too-few-fields").unwrap();
        let err = list_restore_points(&cloud).unwrap_err();
        assert!(matches!(err, GinjaError::BadObjectName(_)), "{err:?}");
    }

    #[test]
    fn restore_points_skip_incomplete_multipart_dump() {
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"base")],
        );
        put_wal(&cloud, &codec, 1, "seg", 0, b"1");
        // A 2-part dump at ts 1 with only part 0 present: not a
        // restore point (DbEntry::is_complete is false) — but it must
        // not hide the WAL point at the same ts either.
        let partial = DbObjectName {
            ts: 1,
            kind: DbObjectKind::Dump,
            size: 99,
            part: 0,
            parts: 2,
        };
        let sealed = codec.seal(&partial.to_name(), b"half").unwrap();
        cloud.put(&partial.to_name(), &sealed).unwrap();

        let points = list_restore_points(&cloud).unwrap();
        let ts: Vec<u64> = points.iter().map(|p| p.ts).collect();
        assert_eq!(ts, vec![0, 1]);
        assert_eq!(points[0].kind, RestorePointKind::Dump);
        assert_eq!(
            points[1].kind,
            RestorePointKind::Wal,
            "the incomplete dump must not anchor the point"
        );
    }

    #[test]
    fn restore_points_incomplete_oldest_dump_not_an_anchor() {
        // The only dump is incomplete: nothing is restorable, even
        // though WAL and the partial dump exist.
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        let partial = DbObjectName {
            ts: 0,
            kind: DbObjectKind::Dump,
            size: 99,
            part: 1,
            parts: 3,
        };
        let sealed = codec.seal(&partial.to_name(), b"third").unwrap();
        cloud.put(&partial.to_name(), &sealed).unwrap();
        put_wal(&cloud, &codec, 1, "seg", 0, b"1");
        assert!(list_restore_points(&cloud).unwrap().is_empty());
    }

    #[test]
    fn corrupted_object_fails_recovery() {
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        put_db(
            &cloud,
            &codec,
            0,
            DbObjectKind::Dump,
            &[range("f", 0, b"data")],
        );
        // Tamper with the stored object.
        let names = cloud.list("DB/").unwrap();
        assert_eq!(names.len(), 1);
        let name = names[0].as_str();
        let mut sealed = cloud.get(name).unwrap();
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0xff;
        cloud.put(name, &sealed).unwrap();
        let err = recover_into(&fs, &cloud, &config()).unwrap_err();
        assert!(matches!(err, GinjaError::Codec(_)));
    }

    #[test]
    fn multi_part_dump_reassembled() {
        let fs = MemFs::new();
        let cloud = MemStore::new();
        let codec = Codec::new(config().codec);
        let big = vec![9u8; 50_000];
        let bytes = bundle::encode(&[range("f", 0, &big)]);
        let parts = bundle::chunk(bytes.clone(), 16_384);
        let n = parts.len() as u32;
        assert!(n > 1);
        for (i, part) in parts.into_iter().enumerate() {
            let name = DbObjectName {
                ts: 0,
                kind: DbObjectKind::Dump,
                size: bytes.len() as u64,
                part: i as u32,
                parts: n,
            };
            let sealed = codec.seal(&name.to_name(), &part).unwrap();
            cloud.put(&name.to_name(), &sealed).unwrap();
        }
        recover_into(&fs, &cloud, &config()).unwrap();
        assert_eq!(fs.read_all("f").unwrap(), big);
    }
}
