//! Cross-crate integration: TPC-C traffic through the full stack —
//! workload → mini-DBMS → interception → Ginja pipeline → simulated
//! cloud → disaster → recovery → DBMS crash-replay → verification.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::{FaultPlan, FaultStore, MemStore, ObjectStore, OpKind, RetryConfig, StoreError};
use ginja::core::{
    bundle, recover_into, scrub_bucket, AnomalyKind, CloudView, DbObjectKind, Ginja, GinjaConfig,
};
use ginja::db::{Database, DbProfile, ProfileKind};
use ginja::vfs::{FileSystem, InterceptFs, MemFs};
use ginja::workload::{probe_tpcc, tables, Tpcc, TpccScale};

fn profile_for(kind: ProfileKind) -> DbProfile {
    match kind {
        ProfileKind::Postgres => DbProfile::postgres_small().with_checkpoint_every(40),
        ProfileKind::MySql => DbProfile::mysql_small().with_checkpoint_every(40),
    }
}

fn config() -> GinjaConfig {
    GinjaConfig::builder()
        .batch(8)
        .safety(120)
        .batch_timeout(Duration::from_millis(20))
        .safety_timeout(Duration::from_secs(30))
        .build()
        .unwrap()
}

#[test]
fn tpcc_disaster_recovery_both_profiles() {
    for kind in [ProfileKind::Postgres, ProfileKind::MySql] {
        let profile = profile_for(kind);
        let local = Arc::new(MemFs::new());
        let db = Database::create(local.clone(), profile.clone()).unwrap();
        let mut tpcc = Tpcc::new(1, 99, TpccScale::tiny());
        tpcc.create_schema(&db).unwrap();
        tpcc.load(&db).unwrap();
        drop(db);

        let cloud = Arc::new(MemStore::new());
        let ginja = Ginja::boot(local.clone(), cloud.clone(), kind.processor(), config()).unwrap();
        let protected: Arc<dyn FileSystem> =
            Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
        let db = Database::open(protected, profile.clone()).unwrap();

        // A burst of TPC-C traffic, including checkpoints.
        for _ in 0..300 {
            tpcc.run_transaction(&db).unwrap();
        }
        let reference_stock = db.dump_table(tables::STOCK).unwrap();
        let reference_customers = db.dump_table(tables::CUSTOMER).unwrap();
        assert!(ginja.sync(Duration::from_secs(20)), "pipeline must drain");
        let stats = ginja.stats();
        assert!(
            stats.checkpoints_seen > 0,
            "{kind:?} should have checkpointed"
        );
        ginja.shutdown();
        drop(db);

        // Disaster: rebuild from the cloud and compare the hot tables.
        let rebuilt = Arc::new(MemFs::new());
        recover_into(rebuilt.as_ref(), cloud.as_ref(), &config()).unwrap();
        let db = Database::open(rebuilt, profile).unwrap();
        assert_eq!(
            db.dump_table(tables::STOCK).unwrap(),
            reference_stock,
            "{kind:?} stock"
        );
        assert_eq!(
            db.dump_table(tables::CUSTOMER).unwrap(),
            reference_customers,
            "{kind:?} customers"
        );
        // §5.4 validation 3: the service-specific probe over the
        // recovered database.
        let probe = probe_tpcc(&db).unwrap();
        assert!(probe.is_consistent(), "{kind:?}: {probe:?}");
    }
}

/// A dump is the database files as they stood at its checkpoint's end,
/// plus that checkpoint's writes outside them — nothing twice. After a
/// TPC-C run that dumps on each profile, every DB object in the bucket
/// carries each DB-file byte at most once, and the MySQL dump still
/// holds InnoDB's checkpoint block in `ib_logfile0`. (A sync after each
/// transaction keeps two checkpoints from sharing a timestamp: the
/// checkpointer's merge of such a pair concatenates by design.)
#[test]
fn a_dump_carries_each_database_byte_once() {
    for kind in [ProfileKind::Postgres, ProfileKind::MySql] {
        let profile = profile_for(kind);
        let local = Arc::new(MemFs::new());
        let db = Database::create(local.clone(), profile.clone()).unwrap();
        let mut tpcc = Tpcc::new(1, 17, TpccScale::tiny());
        tpcc.create_schema(&db).unwrap();
        tpcc.load(&db).unwrap();
        drop(db);

        let config = GinjaConfig {
            dump_threshold: 1.01,
            ..config()
        };
        let cloud = Arc::new(MemStore::new());
        let processor = kind.processor();
        let ginja = Ginja::boot(
            local.clone(),
            cloud.clone(),
            processor.clone(),
            config.clone(),
        )
        .unwrap();
        let protected: Arc<dyn FileSystem> =
            Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
        let db = Database::open(protected, profile.clone()).unwrap();
        for _ in 0..200 {
            tpcc.run_transaction(&db).unwrap();
            assert!(ginja.sync(Duration::from_secs(20)));
        }
        assert!(
            ginja.stats().dumps_uploaded > 1,
            "{kind:?}: no dump after boot"
        );
        ginja.shutdown();
        drop(db);

        let codec = ginja::codec::Codec::new(config.codec.clone());
        let view = CloudView::from_listing(cloud.list("").unwrap()).unwrap();
        let mut dumps = 0;
        for (ts, entry) in view.db_entries() {
            let parts = entry.parts.iter().map(|part| {
                let name = part.to_name();
                codec.open(&name, &cloud.get(&name).unwrap()).unwrap()
            });
            let ranges = bundle::decode(&bundle::reassemble(parts.collect())).unwrap();
            let mut covered: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
            for r in ranges.iter().filter(|r| processor.is_db_file(&r.path)) {
                let end = r.offset + r.data.len() as u64;
                covered.entry(&r.path).or_default().push((r.offset, end));
            }
            for (path, mut spans) in covered {
                spans.sort_unstable();
                for pair in spans.windows(2) {
                    assert!(
                        pair[0].1 <= pair[1].0,
                        "{kind:?} {:?} at ts {ts}: {path} bytes {pair:?} carried twice",
                        entry.kind
                    );
                }
            }
            if entry.kind == DbObjectKind::Dump && ts > 0 {
                dumps += 1;
                let log_block = ranges.iter().any(|r| r.path == "ib_logfile0");
                assert_eq!(
                    log_block,
                    kind == ProfileKind::MySql,
                    "{kind:?} dump at {ts}"
                );
            }
        }
        assert_eq!(dumps, 1, "{kind:?}: the bucket's dump is not a decided one");
    }
}

#[test]
fn tpcc_order_lines_consistent_after_recovery() {
    // Referential sanity: every recovered ORDER that was committed with
    // its ORDER_LINEs (same transaction) must have the lines too —
    // transactions are atomic across the disaster.
    let profile = profile_for(ProfileKind::Postgres);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, 5, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    tpcc.load(&db).unwrap();
    drop(db);

    let cloud = Arc::new(MemStore::new());
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        ProfileKind::Postgres.processor(),
        config(),
    )
    .unwrap();
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, profile.clone()).unwrap();
    for _ in 0..200 {
        tpcc.run_transaction(&db).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config()).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    let orders = db.dump_table(tables::ORDER).unwrap();
    assert!(!orders.is_empty());
    let mut checked = 0;
    for (order_key, row) in &orders {
        // Delivered orders are rewritten with a 0-lines marker; check
        // only orders created by newOrder (line count in the row).
        if String::from_utf8_lossy(row).starts_with("order:") {
            // Every order has line 0 if it has any lines recorded.
            if db.get(tables::NEW_ORDER, *order_key).unwrap().is_some() {
                assert!(
                    db.get(tables::ORDER_LINE, order_key * 15)
                        .unwrap()
                        .is_some(),
                    "order {order_key} lost its lines"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 10, "checked only {checked} orders");
}

#[test]
fn backup_verification_catches_cloud_corruption() {
    let profile = profile_for(ProfileKind::Postgres);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    db.create_table(1, 64).unwrap();
    drop(db);

    let cloud = Arc::new(MemStore::new());
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        ProfileKind::Postgres.processor(),
        config(),
    )
    .unwrap();
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, profile).unwrap();
    for i in 0..30 {
        db.put(1, i, vec![i as u8; 40]).unwrap();
    }
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
    drop(db);

    // Clean backup scrubs clean and rebuilds.
    let scrub = scrub_bucket(cloud.as_ref(), &config()).unwrap();
    assert!(scrub.is_clean(), "{:?}", scrub.anomalies);
    recover_into(&MemFs::new(), cloud.as_ref(), &config()).unwrap();

    // Bit-rot in one object is detected by name.
    let victim = cloud.list("WAL/").unwrap().pop().unwrap();
    let mut bytes = cloud.get(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    cloud.put(&victim, &bytes).unwrap();
    let found = scrub_bucket(cloud.as_ref(), &config()).unwrap().anomalies;
    assert_eq!((found.len(), found[0].kind), (1, AnomalyKind::Corrupt));
    assert_eq!(found[0].name, victim);
}

#[test]
fn compressed_encrypted_full_stack() {
    let profile = profile_for(ProfileKind::MySql);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, 123, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    tpcc.load(&db).unwrap();
    drop(db);

    let config = GinjaConfig::builder()
        .batch(8)
        .safety(120)
        .batch_timeout(Duration::from_millis(20))
        .codec(
            ginja::codec::CodecConfig::new()
                .compression(true)
                .password("full-stack")
                .kdf_iterations(8),
        )
        .build()
        .unwrap();
    let cloud = Arc::new(MemStore::new());
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        ProfileKind::MySql.processor(),
        config.clone(),
    )
    .unwrap();
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, profile.clone()).unwrap();
    for _ in 0..150 {
        tpcc.run_transaction(&db).unwrap();
    }
    let reference = db.dump_table(tables::DISTRICT).unwrap();
    assert!(ginja.sync(Duration::from_secs(20)));
    ginja.shutdown();
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), cloud.as_ref(), &config).unwrap();
    let db = Database::open(rebuilt, profile).unwrap();
    assert_eq!(db.dump_table(tables::DISTRICT).unwrap(), reference);
}

/// A `MemStore` whose mutations and copies exclude each other, so
/// [`CutStore::cut`] sees the bucket as of one instant: a PUT or DELETE
/// is either wholly in the copy or wholly lost, as in a real disaster.
#[derive(Default)]
struct CutStore {
    mem: MemStore,
    gate: std::sync::RwLock<()>,
}

impl CutStore {
    fn cut(&self) -> MemStore {
        let _gate = self.gate.write().unwrap();
        let copy = MemStore::new();
        for name in self.mem.list("").unwrap() {
            copy.put(&name, &self.mem.get(&name).unwrap()).unwrap();
        }
        copy
    }
}

impl ObjectStore for CutStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let _gate = self.gate.read().unwrap();
        self.mem.put(name, data)
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.mem.get(name)
    }
    fn delete(&self, name: &str) -> Result<(), StoreError> {
        let _gate = self.gate.read().unwrap();
        self.mem.delete(name)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.mem.list(prefix)
    }
}

#[test]
fn mysql_bucket_stays_bounded_by_the_log_across_wraps() {
    const MARKERS: u32 = 100;
    const FILLER: u32 = 101;
    const SAFETY: usize = 60;
    // 1.5 MiB log files: Boot cuts each into a 1 MiB and a 0.5 MiB
    // chunk, and only the first — it holds the 2 kB header InnoDB
    // never rewrites — can outlive the first wrap.
    const SEGMENT: u64 = 1536 * 1024;
    const BOOT_CHUNK: u64 = 1 << 20;
    let capacity = 2 * (SEGMENT - 2048);
    // Live WAL: the log itself, the pinned boot chunk of each file, and
    // what was rewritten since the last checkpoint's sweep (a few dozen
    // commits; an eighth of the log is several times that).
    let bound = capacity + 2 * BOOT_CHUNK + capacity / 8;

    let profile = DbProfile {
        wal_segment_size: SEGMENT,
        ..DbProfile::mysql_default()
    }
    .with_checkpoint_every(25);
    let config = GinjaConfig::builder()
        .batch(10)
        .safety(SAFETY)
        .batch_timeout(Duration::from_millis(20))
        .safety_timeout(Duration::from_secs(30))
        // One attempt per bounded cloud call: the DELETE faults
        // below then cost the checkpointer no back-off time.
        .retry(RetryConfig::disabled())
        .build()
        .unwrap();

    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).unwrap();
    let mut tpcc = Tpcc::new(1, 31, TpccScale::tiny());
    tpcc.create_schema(&db).unwrap();
    db.create_table(MARKERS, 32).unwrap();
    db.create_table(FILLER, 4096).unwrap();
    tpcc.load(&db).unwrap();
    db.checkpoint().unwrap();
    drop(db);

    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(CutStore::default(), plan.clone()));
    let processor = ProfileKind::MySql.processor();
    let ginja = Ginja::boot(
        local.clone(),
        cloud.clone(),
        processor.clone(),
        config.clone(),
    )
    .unwrap();
    assert_eq!(ginja.view().wal_count(), 4, "two boot chunks per log file");
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, profile.clone()).unwrap();

    // One TPC-C transaction plus a 4 kB row per step: ~5 kB of log.
    let steps = std::cell::Cell::new(0u64);
    let mut step = |db: &Database| {
        tpcc.run_transaction(db).unwrap();
        let n = steps.replace(steps.get() + 1);
        db.put(FILLER, n % 40, vec![n as u8; 3900]).unwrap();
    };
    // Where the log's write position is, in bytes of the circular
    // record space, read off the newest durable WAL object.
    let log_position = |ginja: &Ginja| -> u64 {
        let view = ginja.view();
        let newest = view.wal_entries().last().unwrap().clone();
        let file = u64::from(newest.file.ends_with('1'));
        file * (SEGMENT - 2048) + newest.end() - 2048
    };
    // The bench_e2e drill: S + 20 sequential marker commits, the bucket
    // cut at one instant without sync(), then the recovered database
    // opens, probes consistent, and holds a contiguous prefix of the
    // markers that is at most S short.
    let mut next_marker = 0u64;
    let mut drill = |db: &Database| {
        for _ in 0..SAFETY + 20 {
            db.put(MARKERS, next_marker, next_marker.to_le_bytes().to_vec())
                .unwrap();
            next_marker += 1;
        }
        let survivor = cloud.inner().cut();
        let rebuilt = Arc::new(MemFs::new());
        recover_into(rebuilt.as_ref(), &survivor, &config).unwrap();
        let recovered = Database::open(rebuilt, profile.clone()).unwrap();
        assert!(probe_tpcc(&recovered).unwrap().is_consistent());
        let keys: Vec<u64> = recovered
            .dump_table(MARKERS)
            .unwrap()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        assert!(
            keys.iter().copied().eq(0..keys.len() as u64),
            "recovered markers are not a contiguous prefix: {keys:?}"
        );
        let lost = next_marker - keys.len() as u64;
        assert!(lost <= SAFETY as u64, "lost {lost} markers > S");
    };

    // Four wraps of the log; after each, the live WAL is within the
    // bound, and after the first three a drill.
    let mut advanced = 0u64;
    let mut position = log_position(&ginja);
    let mut per_wrap: Vec<(u64, usize)> = Vec::new();
    while per_wrap.len() < 4 {
        assert!(steps.get() < 8000, "the log never wrapped: {advanced} B");
        for _ in 0..50 {
            step(&db);
        }
        assert!(ginja.sync(Duration::from_secs(30)));
        let now = log_position(&ginja);
        advanced += (now + capacity - position) % capacity;
        position = now;
        if advanced / capacity > per_wrap.len() as u64 {
            let view = ginja.view();
            assert!(
                view.total_wal_bytes() <= bound,
                "wrap {}: {} live WAL bytes > {bound}",
                per_wrap.len() + 1,
                view.total_wal_bytes()
            );
            per_wrap.push((view.total_wal_bytes(), view.wal_count()));
            if per_wrap.len() < 4 {
                drill(&db);
            }
        }
    }
    // The object count has stopped growing: the wraps after the first
    // each leave about what the first left.
    let (_, first_count) = per_wrap[0];
    for (wrap, (_, count)) in per_wrap.iter().enumerate().skip(1) {
        assert!(
            *count <= first_count + first_count / 2,
            "wrap {}: {count} WAL objects against {first_count} after the first ({per_wrap:?})",
            wrap + 1
        );
    }
    assert_eq!(ginja.stats().gc_backlog, 0);

    // DELETEs now fail. GC keeps deciding what is dead, the deletes
    // pile up in the in-memory backlog, and a crash loses the backlog.
    // Step until GC has deferred at least 100 deletes: how many steps
    // that takes follows from how many WAL objects a step makes.
    plan.fail_fatally(OpKind::Delete, usize::MAX);
    let failing_from = steps.get();
    while ginja.stats().gc_backlog < 100 {
        assert!(
            steps.get() - failing_from < 3000,
            "only {} deletes were deferred",
            ginja.stats().gc_backlog
        );
        for _ in 0..50 {
            step(&db);
        }
        assert!(ginja.sync(Duration::from_secs(30)));
    }
    let orphaned = ginja.stats().gc_backlog;
    ginja.shutdown();
    drop(db);
    plan.clear();
    let wal_in_bucket =
        |cloud: &FaultStore<CutStore>| cloud.list("WAL/").map(|names| names.len()).unwrap();
    let before = wal_in_bucket(&cloud);

    // Reboot lists the garbage back into its view; the first
    // checkpoint's sweep finds it dead again and deletes it.
    let ginja = Ginja::reboot(local.clone(), cloud.clone(), processor, config.clone()).unwrap();
    // (Plus any log range the resync finds the cloud lacks.)
    assert!(ginja.view().wal_count() >= before);
    let protected: Arc<dyn FileSystem> =
        Arc::new(InterceptFs::new(local.clone(), Arc::new(ginja.clone())));
    let db = Database::open(protected, profile.clone()).unwrap();
    for _ in 0..30 {
        step(&db);
    }
    assert!(ginja.sync(Duration::from_secs(30)));
    let stats = ginja.stats();
    assert!(stats.checkpoints_seen > 0);
    assert!(
        stats.gc_deletes >= orphaned,
        "{} deletes after reboot, {orphaned} orphans",
        stats.gc_deletes
    );
    let view = ginja.view();
    assert_eq!(wal_in_bucket(&cloud), view.wal_count(), "no orphan left");
    assert!(view.total_wal_bytes() <= bound);
    drill(&db);
    ginja.shutdown();
}
