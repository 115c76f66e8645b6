//! Offline bucket audit: list the bucket, re-derive the inventory,
//! validate object envelopes, and classify what is wrong.
//!
//! [`scrub_bucket`] audits a bucket from nothing but its listing — what
//! `ginja-cli verify` runs against a bucket with no live middleware,
//! and what the crash-point sweep checks after every simulated crash.
//! It is validation 1 of §5.4's backup verification (every object
//! MAC-verified); [`crate::recover_into`] into scratch is validation 2
//! and the caller's probe over the rebuilt database validation 3.
//!
//! The inventory is a [`CloudView`], read by the view's one generation
//! order. Missing WAL objects are inferred from timestamp gaps in the
//! chain above the newest complete DB object; an incomplete DB object
//! that counts at its timestamp is missing a part; superseded
//! generations and foreign names are orphans.
//!
//! A scrub answers "what in this bucket is damaged or foreign?" — it
//! classifies every object and never stops at the first failure. What
//! it cannot see: a missing *tail* WAL object (the newest ones) leaves
//! no gap, and holes at or below the newest complete DB object are
//! indistinguishable from garbage collection.

use ginja_cloud::ObjectStore;
use ginja_codec::Codec;

use crate::config::GinjaConfig;
use crate::view::CloudView;
use crate::GinjaError;

/// What kind of damage an anomaly is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// A WAL object that should exist is absent from the bucket: a gap
    /// in the contiguous chain above the newest complete DB object.
    MissingWal,
    /// A DB object is unusable: a part of the multi-part dump or
    /// checkpoint that counts at its timestamp is absent.
    MissingDb,
    /// The object exists but its payload fails envelope verification
    /// (HMAC/CRC mismatch: bit rot, truncation, or tampering).
    Corrupt,
    /// An object in the bucket that the inventory does not account for
    /// — a generation another one supersedes (garbage a failed DELETE
    /// or an aborted upload left behind), or a foreign object in the
    /// wrong bucket.
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
/// `ginja-cli verify`, the outage drill and the crash-point sweep.
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
        // A name the view files joins the inventory; anything else is a
        // foreign object — an orphan by definition.
        if view.insert_name(name).is_err() {
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

    // Incomplete multi-part DB objects (a part upload or a partial GC
    // delete died halfway, and no complete generation shares the ts),
    // then the generations another one supersedes.
    let missing = view.db_entries().filter(|(_, e)| !e.is_complete());
    let missing = missing.map(|(_, e)| (AnomalyKind::MissingDb, &e.parts[0]));
    let superseded = view.superseded_parts().map(|p| (AnomalyKind::Orphan, p));
    report
        .anomalies
        .extend(missing.chain(superseded).map(|(kind, part)| Anomaly {
            kind,
            name: part.to_name(),
        }));

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::WalObjectName;
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
        put_sealed(&cloud, &config, "DB/4_checkpoint_8", b"pagedata");
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
        put_sealed(&cloud, &config, "DB/4_checkpoint_8", b"pagedata");
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
        put_sealed(&cloud, &config, "DB/4_checkpoint_16_0_2", b"half-the");
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
    fn superseded_generations_are_orphans_and_the_complete_winner_the_horizon() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        // At ts 4: the checkpoint that counts, the smaller generation a
        // merge's failed DELETE left, and one part of a larger one
        // whose upload was aborted.
        for name in [
            "DB/4_checkpoint_16",
            "DB/4_checkpoint_8",
            "DB/4_checkpoint_32_0_2",
        ] {
            put_sealed(&cloud, &config, name, b"pagedata");
        }
        // The checkpoint collected WAL 1–4; a hole above it is loss.
        put_sealed(&cloud, &config, &wal_name(5), b"record-e");
        put_sealed(&cloud, &config, &wal_name(7), b"record-g");

        let report = scrub_bucket(&cloud, &config).unwrap();
        let found: Vec<_> = report
            .anomalies
            .iter()
            .map(|a| (a.kind, a.name.as_str()))
            .collect();
        let want = [
            (AnomalyKind::MissingWal, "WAL/6_(gap)"),
            (AnomalyKind::Orphan, "DB/4_checkpoint_32_0_2"),
            (AnomalyKind::Orphan, "DB/4_checkpoint_8"),
        ];
        assert_eq!(found, want);
        assert_eq!(report.payloads_verified, 6);
    }

    #[test]
    fn wrong_password_flags_everything() {
        let cloud = MemStore::new();
        let password = |pw: &str| {
            let codec = ginja_codec::CodecConfig::new()
                .password(pw)
                .kdf_iterations(2);
            GinjaConfig::builder().codec(codec).build().unwrap()
        };
        put_sealed(&cloud, &password("right"), "DB/0_dump_10", b"0123456789");
        put_sealed(&cloud, &password("right"), &wal_name(1), b"record-a");
        let report = scrub_bucket(&cloud, &password("wrong")).unwrap();
        assert_eq!(report.count(AnomalyKind::Corrupt), 2);
        assert_eq!(report.anomalies.len(), 2);
    }

    #[test]
    fn incomplete_multipart_dump_is_missing_db() {
        let cloud = MemStore::new();
        let config = config();
        put_sealed(&cloud, &config, "DB/0_dump_10", b"0123456789");
        let part = "DB/4_dump_16_0_2";
        put_sealed(&cloud, &config, part, b"half-the");
        let report = scrub_bucket(&cloud, &config).unwrap();
        assert_eq!(report.count(AnomalyKind::MissingDb), 1);
        assert_eq!(report.anomalies[0].name, part);
    }
}
