//! Offline bucket audit: list the bucket, re-derive the inventory,
//! validate object envelopes, and classify what is wrong.
//!
//! [`scrub_bucket`] audits a bucket from nothing but its listing — what
//! `ginja-cli drill` runs against a bucket with no live middleware, and
//! what the crash-point sweep checks after every simulated crash.
//! Missing WAL objects are inferred from timestamp gaps in the chain
//! above the newest complete DB object; incomplete multi-part DB
//! objects and unparseable (foreign) names are flagged directly.
//!
//! Where [`crate::verify_backup`] answers "does this bucket restore?",
//! a scrub answers "what in this bucket is damaged or foreign?" — it
//! classifies every object and never stops at the first failure. What
//! it cannot see: a missing *tail* WAL object (the newest ones) leaves
//! no gap, and holes at or below the newest complete DB object are
//! indistinguishable from garbage collection.

use ginja_cloud::ObjectStore;
use ginja_codec::Codec;

use crate::config::GinjaConfig;
use crate::names::{DbObjectName, WalObjectName};
use crate::view::CloudView;
use crate::GinjaError;

/// What kind of damage an anomaly is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// A WAL object that should exist is absent from the bucket: a gap
    /// in the contiguous chain above the newest complete DB object.
    MissingWal,
    /// A DB object is unusable: a part of a multi-part dump/checkpoint
    /// is absent.
    MissingDb,
    /// The object exists but its payload fails envelope verification
    /// (HMAC/CRC mismatch: bit rot, truncation, or tampering).
    Corrupt,
    /// An object in the bucket that the inventory does not account for
    /// — typically garbage a failed GC DELETE left behind, or a
    /// foreign object in the wrong bucket.
    Orphan,
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AnomalyKind::MissingWal => "missing-wal",
            AnomalyKind::MissingDb => "missing-db",
            AnomalyKind::Corrupt => "corrupt",
            AnomalyKind::Orphan => "orphan",
        })
    }
}

/// One classified problem found by a scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// The damage class.
    pub kind: AnomalyKind,
    /// The affected object name (for a missing object inferred from a
    /// timestamp gap, a `WAL/<ts>_(gap)` placeholder — the real name
    /// died with the object).
    pub name: String,
}

/// What one scrub pass looked at and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects present in the bucket listing.
    pub objects_listed: usize,
    /// Object payloads downloaded and envelope-verified this pass.
    pub payloads_verified: usize,
    /// Everything wrong, in classification order.
    pub anomalies: Vec<Anomaly>,
}

impl ScrubReport {
    /// Number of anomalies of `kind`.
    pub fn count(&self, kind: AnomalyKind) -> usize {
        self.anomalies.iter().filter(|a| a.kind == kind).count()
    }

    /// Whether the bucket is clean.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }
}

/// Audits a bucket from its listing alone — no live middleware, no
/// local state. Every payload is downloaded and envelope-verified
/// (there is no pipeline to compete with for bandwidth). Used by
/// `ginja-cli drill`, its outage drill and the crash-point sweep.
///
/// # Errors
///
/// Cloud listing/GET failures propagate; per-object damage is *not* an
/// error — discovering it is the point.
pub fn scrub_bucket(
    cloud: &dyn ObjectStore,
    config: &GinjaConfig,
) -> Result<ScrubReport, GinjaError> {
    let codec = Codec::new(config.codec.clone());
    let mut report = ScrubReport::default();
    let mut view = CloudView::new();

    let names = cloud.list("")?;
    report.objects_listed = names.len();
    for name in &names {
        // A name that parses joins the inventory; anything else is a
        // foreign object — an orphan by definition.
        let parsed = if name.starts_with("WAL/") {
            WalObjectName::parse(name).map(|w| view.add_wal(w)).is_ok()
        } else if name.starts_with("DB/") {
            DbObjectName::parse(name)
                .map(|d| view.add_db_part(d))
                .is_ok()
        } else {
            false
        };
        if !parsed {
            report.anomalies.push(Anomaly {
                kind: AnomalyKind::Orphan,
                name: name.clone(),
            });
            continue;
        }
        match cloud.get(name) {
            Ok(sealed) => {
                report.payloads_verified += 1;
                if codec.verify(name, &sealed).is_err() {
                    report.anomalies.push(Anomaly {
                        kind: AnomalyKind::Corrupt,
                        name: name.clone(),
                    });
                }
            }
            Err(err) if !err.is_retryable() => {
                // Listed a moment ago, unreadable now: treat as corrupt
                // (the recovery path would fail on it the same way).
                report.anomalies.push(Anomaly {
                    kind: AnomalyKind::Corrupt,
                    name: name.clone(),
                });
            }
            Err(err) => return Err(err.into()),
        }
    }

    // Missing WAL: gaps in the timestamp chain after the GC horizon.
    // Offline there is no view to compare against, but timestamps are
    // allocated contiguously, so a hole above the horizon is an object
    // that existed and is gone. The horizon is the newest *complete* DB
    // object of either kind — not just the newest dump: checkpoints
    // garbage-collect the WAL they cover (up to their watermark
    // timestamp), so holes at or below a checkpoint's ts are
    // indistinguishable from legitimate GC: the audit stops there.
    let horizon = view
        .db_entries()
        .filter(|(_, e)| e.is_complete())
        .map(|(ts, _)| ts)
        .max();
    if let Some(horizon) = horizon {
        let mut expected = horizon + 1;
        for wal in view.wal_entries().filter(|w| w.ts > horizon) {
            for missing in expected..wal.ts {
                report.anomalies.push(Anomaly {
                    kind: AnomalyKind::MissingWal,
                    name: format!("WAL/{missing}_(gap)"),
                });
            }
            expected = wal.ts + 1;
        }
    }

    // Incomplete multi-part DB objects: a part upload or a partial GC
    // delete died halfway.
    for (_, entry) in view.db_entries().filter(|(_, e)| !e.is_complete()) {
        let name = entry.parts.first().map(|p| p.to_name()).unwrap_or_default();
        report.anomalies.push(Anomaly {
            kind: AnomalyKind::MissingDb,
            name,
        });
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::DbObjectKind;
    use ginja_cloud::MemStore;

    fn config() -> GinjaConfig {
        GinjaConfig::builder().build().unwrap()
    }

    fn put_sealed(cloud: &MemStore, config: &GinjaConfig, name: &str, data: &[u8]) {
        let codec = Codec::new(config.codec.clone());
        let sealed = codec.seal(name, data).unwrap();
        cloud.put(name, &sealed).unwrap();
    }

    fn wal_name(ts: u64) -> String {
        WalObjectName {
            ts,
            file: "pg_xlog/0001".into(),
            offset: ts * 8,
            len: 8,
        }
        .to_name()
    }

    #[test]
    fn clean_bucket_scrubs_clean() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        put_sealed(&cloud, &config, &wal_name(1), b"record-a");
        put_sealed(&cloud, &config, &wal_name(2), b"record-b");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.objects_listed, 3);
        assert_eq!(report.payloads_verified, 3);
    }

    #[test]
    fn empty_bucket_scrubs_clean() {
        let report = scrub_bucket(&MemStore::new(), &config()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.objects_listed, 0);
    }

    #[test]
    fn wal_gap_after_dump_is_missing() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        put_sealed(&cloud, &config, &wal_name(1), b"record-a");
        put_sealed(&cloud, &config, &wal_name(3), b"record-c");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::MissingWal), 1);
        assert_eq!(report.anomalies[0].name, "WAL/2_(gap)");
    }

    #[test]
    fn gap_before_dump_is_gc_not_anomaly() {
        let cloud = MemStore::new();
        let config = config();
        // GC deleted WAL 1–4 after the dump at ts 5 became durable.
        put_sealed(&cloud, &config, "DB/5_dump_10", b"0123456789");
        put_sealed(&cloud, &config, &wal_name(5), b"record-e");
        put_sealed(&cloud, &config, &wal_name(6), b"record-f");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn checkpoint_gc_holes_below_watermark_are_not_anomalies() {
        let cloud = MemStore::new();
        let config = config();
        // A checkpoint at watermark 4 garbage-collected WAL 1–4; the
        // dump stays at ts 0. The hole above the dump but at/below the
        // checkpoint is legitimate GC, not loss.
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        let ckpt = DbObjectName {
            ts: 4,
            kind: DbObjectKind::Checkpoint,
            size: 8,
            part: 0,
            parts: 1,
        };
        put_sealed(&cloud, &config, &ckpt.to_name(), b"pagedata");
        put_sealed(&cloud, &config, &wal_name(5), b"record-e");
        put_sealed(&cloud, &config, &wal_name(6), b"record-f");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn wal_gap_above_checkpoint_watermark_is_still_missing() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        let ckpt = DbObjectName {
            ts: 4,
            kind: DbObjectKind::Checkpoint,
            size: 8,
            part: 0,
            parts: 1,
        };
        put_sealed(&cloud, &config, &ckpt.to_name(), b"pagedata");
        put_sealed(&cloud, &config, &wal_name(5), b"record-e");
        put_sealed(&cloud, &config, &wal_name(7), b"record-g");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::MissingWal), 1);
        assert_eq!(report.anomalies[0].name, "WAL/6_(gap)");
    }

    #[test]
    fn incomplete_checkpoint_does_not_mask_wal_gaps() {
        let cloud = MemStore::new();
        let config = config();
        // A half-uploaded checkpoint (part 0 of 2) cannot have GC'd
        // anything — GC runs only after the upload completes — so it
        // must not raise the gap horizon.
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        let half = DbObjectName {
            ts: 4,
            kind: DbObjectKind::Checkpoint,
            size: 16,
            part: 0,
            parts: 2,
        };
        put_sealed(&cloud, &config, &half.to_name(), b"half-the");
        put_sealed(&cloud, &config, &wal_name(1), b"record-a");
        put_sealed(&cloud, &config, &wal_name(3), b"record-c");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::MissingWal), 1);
        assert_eq!(report.count(AnomalyKind::MissingDb), 1);
    }

    #[test]
    fn tampered_payload_is_corrupt() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        let name = wal_name(1);
        put_sealed(&cloud, &config, &name, b"record-a");
        let mut sealed = cloud.get(&name).unwrap();
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x40;
        cloud.put(&name, &sealed).unwrap();
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::Corrupt), 1);
        assert_eq!(report.anomalies[0].name, name);
    }

    #[test]
    fn foreign_object_is_orphan() {
        let cloud = MemStore::new();
        let config = config();
        cloud.put("somebody-elses-file", b"data").unwrap();
        cloud.put("WAL/not_a_number_x_y", b"data").unwrap();
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::Orphan), 2);
    }

    #[test]
    fn incomplete_multipart_dump_is_missing_db() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        let part = DbObjectName {
            ts: 4,
            kind: DbObjectKind::Dump,
            size: 16,
            part: 0,
            parts: 2,
        };
        put_sealed(&cloud, &config, &part.to_name(), b"half-the");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::MissingDb), 1);
        assert_eq!(report.anomalies[0].name, part.to_name());
    }
}
