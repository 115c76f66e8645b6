//! The objects Ginja itself writes: a Reboot resync ships whole
//! changed sectors, and Boot's dump and the checkpointer's DB objects
//! are cut into parts at `max_object_size` — both recover byte for
//! byte.

use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::MemStore;
use ginja_core::{recover_into, DbObjectKind, Ginja, GinjaConfig};
use ginja_vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

const SEGMENT: &str = "pg_xlog/000000010000000000000001";

/// `len` pseudo-random bytes (a fixed LCG), so no file is all zeros.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

fn boot(local: &Arc<MemFs>, cloud: &Arc<MemStore>, config: &GinjaConfig) -> Ginja {
    let processor = Arc::new(PostgresProcessor::new());
    Ginja::boot(local.clone(), cloud.clone(), processor, config.clone()).unwrap()
}

#[test]
fn reboot_resync_ships_a_changed_sector_as_one_object() {
    let config = GinjaConfig::builder().build().unwrap();
    let local = Arc::new(MemFs::new());
    local.write(SEGMENT, 0, &noise(4096, 1), true).unwrap();
    local.write("base/1", 0, &noise(8192, 2), true).unwrap();
    let cloud = Arc::new(MemStore::new());
    let ginja = boot(&local, &cloud, &config);
    assert!(ginja.sync(Duration::from_secs(10)));
    ginja.shutdown();

    // Three scattered bytes of the segment's third 512 B sector change
    // behind Ginja's back (no interception), as a crash between the
    // DBMS's log write and its upload leaves them.
    let segment = local.read_all(SEGMENT).unwrap();
    for offset in [1024 + 3, 1024 + 200, 1024 + 509] {
        local
            .write(SEGMENT, offset as u64, &[!segment[offset]], true)
            .unwrap();
    }
    let processor = Arc::new(PostgresProcessor::new());
    let ginja = Ginja::reboot(local.clone(), cloud.clone(), processor, config.clone()).unwrap();
    assert_eq!(
        ginja.stats().wal_resync_objects,
        1,
        "one sector, one object"
    );
    ginja.shutdown();

    let rebuilt = MemFs::new();
    recover_into(&rebuilt, cloud.as_ref(), &config).unwrap();
    assert_eq!(
        rebuilt.read_all(SEGMENT).unwrap(),
        local.read_all(SEGMENT).unwrap()
    );
}

#[test]
fn dumps_and_checkpoints_split_into_parts_recover_byte_identical() {
    // Boot's dump decides the first checkpoint: below 1.01 × the
    // database it is incremental; the pages it carries push the second
    // over the threshold, so that one is a dump.
    let config = GinjaConfig::builder()
        .max_object_size(4096)
        .dump_threshold(1.01)
        .build()
        .unwrap();
    let local = Arc::new(MemFs::new());
    local.write(SEGMENT, 0, &noise(1024, 3), true).unwrap();
    local
        .write("base/1", 0, &noise(48 * 1024, 4), true)
        .unwrap();
    local.write("global/pg_control", 0, b"boot", true).unwrap();
    let cloud = Arc::new(MemStore::new());
    let ginja = boot(&local, &cloud, &config);
    let (ts, boot_dump) = ginja
        .view()
        .most_recent_dump()
        .map(|(ts, e)| (ts, e.clone()))
        .unwrap();
    assert_eq!(ts, 0);
    assert!(
        boot_dump.parts.len() > 1,
        "boot dump: {:?}",
        boot_dump.parts
    );

    let fs = InterceptFs::new(local.clone(), Arc::new(ginja.clone()));
    let checkpoint = |page: u64, control: &[u8]| {
        fs.write("base/1", page * 8192, &noise(8192, page + 10), true)
            .unwrap();
        fs.write("global/pg_control", 0, control, true).unwrap();
        assert!(ginja.sync(Duration::from_secs(10)));
    };
    checkpoint(1, b"first");
    let view = ginja.view();
    let incremental = view.checkpoints_after(0);
    assert_eq!(incremental.len(), 1);
    let parts = &incremental[0].1.parts;
    assert!(parts.len() > 1, "checkpoint: {parts:?}");
    // A commit between the two, so the dump gets a timestamp of its own.
    fs.write(SEGMENT, 0, b"commit", true).unwrap();
    assert!(ginja.sync(Duration::from_secs(10)));
    checkpoint(2, b"second");

    let stats = ginja.stats();
    assert_eq!((stats.checkpoints_seen, stats.dumps_uploaded), (2, 2));
    let view = ginja.view();
    let (ts, dump) = view.most_recent_dump().unwrap();
    assert!(ts > 0 && dump.kind == DbObjectKind::Dump);
    assert!(dump.parts.len() > 1, "forced dump: {:?}", dump.parts);
    ginja.shutdown();

    let rebuilt = MemFs::new();
    recover_into(&rebuilt, cloud.as_ref(), &config).unwrap();
    for file in ["base/1", "global/pg_control"] {
        assert_eq!(
            rebuilt.read_all(file).unwrap(),
            local.read_all(file).unwrap(),
            "{file}"
        );
    }
}
