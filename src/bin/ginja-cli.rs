//! `ginja-cli` — operator tooling over a Ginja cloud bucket.
//!
//! The bucket is addressed as a directory (use an rclone/NFS mount for
//! a real cloud bucket). `COMMANDS` lists every subcommand with its
//! usage and declares the flags it takes: an unknown flag, or a value
//! flag with no value, exits with status 2 and the usage of them all
//! (`ginja-cli` alone prints it too).
//!
//! `verify` is the backup verification of `DESIGN.md` §10: it runs
//! `scrub_bucket`, which MAC-verifies every object and classifies
//! every damaged or foreign one, then, on a clean scrub, rebuilds the
//! database into scratch memory and reports that rebuild's wall-clock
//! time as the achieved RTO.
//!
//! `crashtest` needs no bucket: it runs the CrashFs crash-point sweep
//! (see `DESIGN.md` §11) against in-memory stores and exits non-zero if
//! any crash point violates a durability invariant.
//!
//! `outage` is the outage endurance drill (`DESIGN.md` §15), also
//! in-process and bucket-free: it cuts the cloud out from under a live
//! pipeline, shows queued checkpoints coalescing and the un-acked
//! backlog filling to the Safety bound S, where the writer blocks, then
//! restores the cloud and proves the retries drain it to a bucket the
//! offline scrub finds clean, with zero acknowledged loss — exiting
//! non-zero otherwise.
//!
//! `standby` is the warm-standby drill (`DESIGN.md` §17), in-process
//! too: it protects a database, attaches a continuous cloud-tail
//! standby, and prints a live lag table as commit waves land and the
//! tail absorbs them. With `--promote` it then fences the tail,
//! promotes the shadow into a bootable directory, and prints the
//! achieved RPO (updates lost, against the Safety bound `S`) and the
//! achieved RTO next to a cold recovery of the same bucket — exiting
//! non-zero on any lost acknowledged update.

use std::process::ExitCode;

use ginja::cloud::{DirStore, ObjectStore};
use ginja::codec::CodecConfig;
use ginja::core::{
    list_restore_points, recover_to_point, CloudView, GinjaConfig, RestorePointKind,
};
use ginja::cost::GinjaCostModel;
use ginja::vfs::DirFs;

/// A subcommand: name, usage, the flags followed by a value, the flags
/// that stand alone, and its body.
type Command = (&'static str, &'static str, Flags, Flags, Run);
type Flags = &'static [&'static str];
type Run = fn(&[String]) -> Result<(), String>;

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("status", "<bucket-dir>", &[], &[], status),
    ("restore-points", "<bucket-dir>", &[], &[], restore_points),
    ("verify", "<bucket-dir> [--password <pw>]", &["--password"], &[], verify),
    ("recover", "<bucket-dir> <target-dir> [--point <ts>] [--password <pw>]",
        &["--point", "--password"], &[], recover),
    ("cost", "<db-gb> <updates-per-min> <batch>", &[], &[], cost),
    ("crashtest", "[--profile <postgres|mysql>] [--seed <n>] [--ops <n>] [--stride <n>] [--no-torn]",
        &["--profile", "--seed", "--ops", "--stride"], &["--no-torn"], crashtest),
    ("outage", "[--rows <n>]", &["--rows"], &[], outage),
    ("standby", "[--rows <n>] [--waves <n>] [--promote]", &["--rows", "--waves"], &["--promote"], standby),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = COMMANDS
        .iter()
        .find(|c| Some(c.0) == args.first().map(String::as_str));
    let checked = match command {
        Some(&(_, _, values, switches, run)) => {
            check_flags(&args[1..], values, switches).map(|()| run)
        }
        None => Err(args
            .first()
            .map_or(String::new(), |c| format!("unknown command: {c}"))),
    };
    let run = match checked {
        Ok(run) => run,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
            eprintln!("usage: ginja-cli <{}> ...", names.join("|"));
            for (name, usage, ..) in COMMANDS {
                eprintln!("  {name} {usage}");
            }
            return ExitCode::from(2);
        }
    };
    match run(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Checks a subcommand's arguments against its declared flags: any
/// other `--flag`, or a value flag with nothing after it, is an error.
fn check_flags(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if values.contains(&arg.as_str()) {
            args.next().ok_or(format!("{arg} needs a value"))?;
        } else if arg.starts_with("--") && !switches.contains(&arg.as_str()) {
            return Err(format!("unknown flag {arg}"));
        }
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn config_from(args: &[String]) -> Result<GinjaConfig, String> {
    let mut codec = CodecConfig::new();
    if let Some(password) = flag_value(args, "--password") {
        codec = codec.compression(true).password(password);
    }
    GinjaConfig::builder()
        .codec(codec)
        .build()
        .map_err(|e| e.to_string())
}

/// The positional arguments, in order: every argument but the flags,
/// each value flag skipped together with its value. `check_flags` has
/// already refused any flag the subcommand does not declare.
fn positionals(args: &[String]) -> Vec<&str> {
    let takes_value = |arg: &str| COMMANDS.iter().any(|c| c.2.contains(&arg));
    let mut out = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if takes_value(arg) {
            args.next();
        } else if !arg.starts_with("--") {
            out.push(arg.as_str());
        }
    }
    out
}

fn open_bucket(args: &[String]) -> Result<DirStore, String> {
    let path = *positionals(args)
        .first()
        .ok_or("missing bucket directory argument")?;
    DirStore::open(path).map_err(|e| e.to_string())
}

fn status(args: &[String]) -> Result<(), String> {
    let bucket = open_bucket(args)?;
    let names = bucket.list("").map_err(|e| e.to_string())?;
    let view = CloudView::from_listing(&names).map_err(|e| e.to_string())?;
    println!("bucket:            {}", bucket.root().display());
    println!("objects:           {}", names.len());
    println!(
        "WAL objects:       {} ({} bytes raw)",
        view.wal_count(),
        view.total_wal_bytes()
    );
    println!(
        "DB objects:        {} ({} bytes raw)",
        view.db_count(),
        view.total_db_size()
    );
    println!("WAL frontier ts:   {}", view.last_wal_ts());
    match view.most_recent_dump() {
        Some((ts, entry)) => {
            println!(
                "newest dump:       ts {ts}, {} bytes, {} part(s)",
                entry.size,
                entry.parts.len()
            )
        }
        None => println!("newest dump:       NONE — this bucket cannot be recovered"),
    }
    Ok(())
}

fn restore_points(args: &[String]) -> Result<(), String> {
    let bucket = open_bucket(args)?;
    let points = list_restore_points(&bucket).map_err(|e| e.to_string())?;
    if points.is_empty() {
        println!("no restorable points (no complete dump in the bucket)");
        return Ok(());
    }
    for point in points {
        let kind = match point.kind {
            RestorePointKind::Dump => "dump",
            RestorePointKind::Checkpoint => "checkpoint",
            RestorePointKind::Wal => "wal",
        };
        println!("ts {:>8}  {kind}", point.ts);
    }
    Ok(())
}

/// Backup verification (§5.4): scrub the bucket — every object
/// listed, MAC-verified and classified (validation 1) — then, when it
/// is clean, rebuild the database into scratch memory (validation 2)
/// and report the rebuild's wall-clock time as the achieved RTO.
/// Starting the DBMS over the rebuilt files is validation 3.
fn verify(args: &[String]) -> Result<(), String> {
    use std::time::Instant;

    use ginja::core::{recover_into, scrub_bucket};

    let bucket = open_bucket(args)?;
    let config = config_from(args)?;
    let scrub = scrub_bucket(&bucket, &config).map_err(|e| e.to_string())?;
    println!("objects listed:    {}", scrub.objects_listed);
    println!("payloads verified: {}", scrub.payloads_verified);
    if !scrub.is_clean() {
        println!("ANOMALIES:");
        for anomaly in &scrub.anomalies {
            println!("  {:<12} {}", anomaly.kind.to_string(), anomaly.name);
        }
        return Err(format!("{} anomaly(ies) found", scrub.anomalies.len()));
    }

    let start = Instant::now();
    let scratch = ginja::vfs::MemFs::new();
    let recovery = recover_into(&scratch, &bucket, &config).map_err(|e| e.to_string())?;
    println!(
        "rebuild OK:        dump ts {}, {} checkpoint(s), {} WAL object(s), {} file(s)",
        recovery.dump_ts,
        recovery.checkpoints_applied,
        recovery.wal_objects_applied,
        recovery.files_written
    );
    println!("achieved RTO:      {:?}", start.elapsed());
    println!("backup verification PASSED");
    Ok(())
}

fn recover(args: &[String]) -> Result<(), String> {
    let bucket = open_bucket(args)?;
    let target_path = *positionals(args)
        .get(1)
        .ok_or("missing target directory argument")?;
    let point = match flag_value(args, "--point") {
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("bad --point value: {raw}"))?,
        None => u64::MAX,
    };
    let config = config_from(args)?;
    let target = DirFs::open(target_path).map_err(|e| e.to_string())?;
    let report = recover_to_point(&target, &bucket, &config, point).map_err(|e| e.to_string())?;
    println!(
        "recovered into {}: dump ts {}, {} checkpoint(s), {} WAL object(s), {} bytes downloaded",
        target_path,
        report.dump_ts,
        report.checkpoints_applied,
        report.wal_objects_applied,
        report.bytes_downloaded
    );
    println!("start the DBMS over this directory to complete crash recovery");
    Ok(())
}

fn cost(args: &[String]) -> Result<(), String> {
    let positionals = positionals(args);
    let parse = |i: usize, what: &str| -> Result<f64, String> {
        let raw = positionals.get(i).ok_or(format!("missing {what}"))?;
        raw.parse::<f64>().map_err(|_| format!("bad {what}: {raw}"))
    };
    let db_gb = parse(0, "db-gb")?;
    let updates = parse(1, "updates-per-min")?;
    let batch = parse(2, "batch")? as u64;
    if batch == 0 {
        return Err("batch must be at least 1".into());
    }
    let mut model = GinjaCostModel::paper_fig4(updates, batch);
    model.db_size_gb = db_gb;
    println!("C_DB_Storage  = ${:>9.3}", model.c_db_storage());
    println!("C_DB_PUT      = ${:>9.3}", model.c_db_put());
    println!("C_WAL_Storage = ${:>9.3}", model.c_wal_storage());
    println!("C_WAL_PUT     = ${:>9.3}", model.c_wal_put());
    println!("C_Total       = ${:>9.3} per month", model.total());
    println!(
        "recovery      = ${:>9.3} (free intra-region)",
        model.recovery_cost()
    );
    Ok(())
}

/// Runs the CrashFs crash-point sweep against in-memory stores: every
/// mutating local I/O of a seeded workload becomes a kill point, and
/// each surviving state must crash-recover locally, disaster-recover
/// from the cloud with bounded loss, scrub clean, and reboot-resync.
fn crashtest(args: &[String]) -> Result<(), String> {
    use ginja::crashpoint::{explore, ExplorerConfig};
    use ginja::db::ProfileKind;

    let profile = match flag_value(args, "--profile").as_deref() {
        None | Some("postgres") => ProfileKind::Postgres,
        Some("mysql") => ProfileKind::MySql,
        Some(other) => return Err(format!("unknown profile: {other}")),
    };
    let parse_num = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            Some(raw) => raw.parse().map_err(|_| format!("bad {flag} value: {raw}")),
            None => Ok(default),
        }
    };
    let mut cfg = ExplorerConfig::new(profile);
    cfg.seed = parse_num("--seed", cfg.seed)?;
    cfg.steps = parse_num("--ops", cfg.steps as u64)? as usize;
    cfg.stride = parse_num("--stride", cfg.stride as u64)?.max(1) as usize;
    cfg.torn = !args.iter().any(|a| a == "--no-torn");

    let report = explore(&cfg);
    println!(
        "profile:           {}",
        match profile {
            ProfileKind::Postgres => "postgres",
            ProfileKind::MySql => "mysql",
        }
    );
    println!("workload steps:    {}", cfg.steps);
    println!("crash points:      {}", report.crash_points);
    println!(
        "replays explored:  {} (stride {}, torn {})",
        report.explored, cfg.stride, cfg.torn
    );
    println!("faults injected:   {}", report.fs_faults_injected);
    println!("torn tails healed: {}", report.torn_tails_truncated);
    println!("WAL resynced:      {} object(s)", report.wal_resync_objects);
    if !report.is_clean() {
        println!("VIOLATIONS:");
        for violation in &report.violations {
            println!("  {violation}");
        }
        return Err(format!(
            "{} crash-point violation(s)",
            report.violations.len()
        ));
    }
    println!("crashtest PASSED — every explored crash point recovered");
    Ok(())
}

/// The outage endurance drill: boots a solo pipeline over an
/// in-process bucket, takes the cloud away mid-traffic, and narrates
/// the paper's one outage mechanism doing its job — a burst of
/// checkpoints coalescing, the un-acked backlog filling to S and the
/// writer blocking there — then restores the cloud and verifies
/// catch-up ends with a scrub-clean bucket and a lossless recovery.
/// `--rows` sets the rows written (a quarter before the outage, the
/// rest by the writer that blocks at S). Exits non-zero if any of that
/// fails. CI smoke-tests outage endurance through this command.
fn outage(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use ginja::cloud::{FaultPlan, FaultStore, MemStore, RetryConfig};
    use ginja::core::{recover_into, scrub_bucket, Ginja};
    use ginja::db::{Database, DbProfile};
    use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

    /// Table the drill writes its rows into.
    const TABLE: u32 = 42;
    /// Checkpoints issued under the outage: more than the checkpoint
    /// queue holds (8, plus the one uploading), so some coalesce.
    const CKPT_BURST: usize = 12;

    let parse_num = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            Some(raw) => raw.parse().map_err(|_| format!("bad {flag} value: {raw}")),
            None => Ok(default),
        }
    };
    let rows = parse_num("--rows", 200)?.max(8);

    let wait_for = |timeout: Duration, mut probe: Box<dyn FnMut() -> bool + '_>| -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if probe() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        probe()
    };

    let profile = DbProfile::postgres_small().with_checkpoint_every(1_000_000);
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).map_err(|e| e.to_string())?;
    db.create_table(TABLE, 256).map_err(|e| e.to_string())?;
    drop(db);

    let mem = Arc::new(MemStore::new());
    let plan = Arc::new(FaultPlan::new());
    let cloud = Arc::new(FaultStore::new(mem.clone(), plan.clone()));
    let config = GinjaConfig::builder()
        .batch(2)
        // Below the updates the outage phase writes (at least one per
        // row, plus the checkpoint burst) once `--rows` passes 80.
        .safety((rows as usize / 2).max(32))
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        // A real outage compressed to milliseconds: two quick attempts
        // per operation, then the pipeline's own loop paces the retries.
        .retry(RetryConfig {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        })
        .build()
        .map_err(|e| e.to_string())?;
    let ginja = Ginja::boot(
        local.clone(),
        cloud,
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .map_err(|e| e.to_string())?;
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Arc::new(Database::open(fs, profile.clone()).map_err(|e| e.to_string())?);

    // Healthy phase: a slice of the rows lands in the cloud normally.
    let healthy_rows = rows / 4;
    for seq in 0..healthy_rows {
        db.put(TABLE, seq, format!("healthy-{seq}").into_bytes())
            .map_err(|e| e.to_string())?;
    }
    if !ginja.sync(Duration::from_secs(30)) {
        return Err("healthy phase failed to drain".into());
    }
    println!("healthy phase:     {healthy_rows} row(s) uploaded");

    // The outage: every cloud op fails from here on. A writer thread
    // issues a burst of checkpoints that overflows the coalescing queue
    // on purpose, then keeps committing until it blocks at S (or runs
    // out of rows).
    plan.outage();
    println!(
        "cloud outage:      injected (every op fails), S = {}",
        config.safety
    );
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || -> Result<(), String> {
            for _ in 0..CKPT_BURST {
                db.checkpoint().map_err(|e| e.to_string())?;
            }
            for seq in healthy_rows..rows {
                db.put(TABLE, seq, format!("enduring-{seq}").into_bytes())
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })
    };

    let mut backlog_bound_held = true;
    let endured = wait_for(
        Duration::from_secs(30),
        Box::new(|| {
            backlog_bound_held &= ginja.pending_updates() <= config.safety;
            let stats = ginja.stats();
            let writer_settled = stats.ingest.put_parks > 0 || writer.is_finished();
            stats.ckpt_coalesced >= 1 && writer_settled
        }),
    );
    let mid = ginja.stats();
    let parked = !writer.is_finished();
    println!(
        "under outage:      {} un-acked update(s) of S = {} (bound held: {backlog_bound_held})",
        ginja.pending_updates(),
        config.safety
    );
    println!(
        "  writer:          {}",
        if parked {
            "blocked at S"
        } else {
            "finished below S"
        }
    );
    println!("  ckpt coalesced:  {}", mid.ckpt_coalesced);
    println!("  retries:         {}", mid.cloud_retries);
    if !endured {
        return Err(format!(
            "no checkpoint coalescing, or the writer neither blocked nor finished, under the outage: {} coalesced, {} park(s)",
            mid.ckpt_coalesced, mid.ingest.put_parks
        ));
    }
    if !backlog_bound_held {
        return Err("un-acked backlog exceeded S during the outage".into());
    }

    // The cloud returns: the uploaders' retries get through, the writer
    // unblocks, and the queue drains.
    plan.restore();
    println!("cloud restored:    catch-up draining...");
    writer.join().map_err(|_| "writer panicked".to_string())??;
    if !ginja.sync(Duration::from_secs(120)) {
        return Err("catch-up failed to drain after the cloud returned".into());
    }
    let fin = ginja.stats();
    println!(
        "after catch-up:    {} un-acked update(s)",
        ginja.pending_updates()
    );
    println!(
        "  blocked:         {} update(s), {:.1?} in all",
        fin.updates_blocked, fin.blocked_time
    );
    println!("  retries:         {}", fin.cloud_retries);
    println!(
        "  ingest put:      p50 {:.1?} / p99 {:.1?} over {} put(s)",
        fin.ingest.put_latency.p50, fin.ingest.put_latency.p99, fin.ingest.put_latency.count
    );
    println!(
        "  ingest stalls:   {} blocked (p99 {:.1?}), {} park(s)",
        fin.ingest.blocked_latency.count, fin.ingest.blocked_latency.p99, fin.ingest.put_parks
    );
    println!(
        "  ingest seals:    {} adaptive, {} by TB expiry",
        fin.ingest.adaptive_seals, fin.ingest.timeout_seals
    );
    if ginja.exposure().fatal {
        return Err("exposure still fatal after recovery".into());
    }

    // The bucket the outage left behind must be scrub-clean, and a
    // disaster recovery from it must see every acknowledged row.
    let scrub = scrub_bucket(mem.as_ref(), &config).map_err(|e| e.to_string())?;
    if !scrub.is_clean() {
        return Err(format!(
            "dirty bucket after catch-up: {:?}",
            scrub.anomalies
        ));
    }
    println!(
        "scrub:             clean ({} object(s) verified)",
        scrub.payloads_verified
    );
    if !ginja.sync(Duration::from_secs(30)) {
        return Err("final sync failed".into());
    }
    ginja.shutdown();
    let reference = db.dump_table(TABLE).map_err(|e| e.to_string())?;
    drop(db);

    let rebuilt = Arc::new(MemFs::new());
    recover_into(rebuilt.as_ref(), mem.as_ref(), &config).map_err(|e| e.to_string())?;
    let recovered = Database::open(rebuilt, profile).map_err(|e| e.to_string())?;
    let rows_back = recovered.dump_table(TABLE).map_err(|e| e.to_string())?;
    if rows_back != reference {
        return Err(format!(
            "LOSS: recovered {} row(s), expected {}",
            rows_back.len(),
            reference.len()
        ));
    }
    println!(
        "recovery:          {} row(s), zero acknowledged loss",
        rows_back.len()
    );
    println!("outage drill PASSED");
    Ok(())
}

fn standby(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use ginja::cloud::MemStore;
    use ginja::core::{recover_into, Ginja};
    use ginja::db::{Database, DbProfile};
    use ginja::standby::{Standby, StandbyConfig};
    use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

    /// Table the drill writes its rows into.
    const TABLE: u32 = 17;

    let parse_num = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            Some(raw) => raw.parse().map_err(|_| format!("bad {flag} value: {raw}")),
            None => Ok(default),
        }
    };
    let rows = parse_num("--rows", 200)?.max(8);
    let waves = parse_num("--waves", 4)?.max(1);
    let promote = args.iter().any(|a| a == "--promote");

    let profile = DbProfile::postgres_small();
    let local = Arc::new(MemFs::new());
    let db = Database::create(local.clone(), profile.clone()).map_err(|e| e.to_string())?;
    db.create_table(TABLE, 256).map_err(|e| e.to_string())?;
    drop(db);

    let mem = Arc::new(MemStore::new());
    let config = GinjaConfig::builder()
        .batch(2)
        .safety((rows as usize) * 2 + 64)
        .batch_timeout(Duration::from_millis(5))
        .build()
        .map_err(|e| e.to_string())?;
    let ginja = Ginja::boot(
        local.clone(),
        mem.clone(),
        Arc::new(PostgresProcessor::new()),
        config.clone(),
    )
    .map_err(|e| e.to_string())?;
    let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
    let db = Database::open(fs, profile.clone()).map_err(|e| e.to_string())?;

    // The standby shares the instance's resilient store (one retry
    // policy, one ledger) and fan-out executor, and tails into its own
    // shadow directory.
    let standby = Standby::attach_with(
        ginja.resilient_cloud(),
        ginja.fanout().clone(),
        Arc::new(MemFs::new()),
        config.clone(),
        StandbyConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let gets_before = ginja.usage_ledger().usage().gets;

    println!(
        "standby drill:     {rows} row(s) across {waves} wave(s), S = {}",
        config.safety
    );
    println!("wave    delta  gets     bytes  lag-objs  lag-bytes");
    let per_wave = rows.div_ceil(waves);
    let mut written = 0u64;
    for wave in 0..waves {
        let until = ((wave + 1) * per_wave).min(rows);
        while written < until {
            db.put(TABLE, written, format!("standby-{written}").into_bytes())
                .map_err(|e| e.to_string())?;
            written += 1;
        }
        if !ginja.sync(Duration::from_secs(30)) {
            return Err(format!("wave {wave} failed to drain"));
        }
        let report = standby.run_cycle().map_err(|e| e.to_string())?;
        let snap = standby.snapshot();
        println!(
            "{wave:>4}  {:>7}  {:>4}  {:>8}  {:>8}  {:>9}",
            report.delta_added, report.gets, report.bytes_fetched, snap.lag_objects, snap.lag_bytes
        );
    }
    let idle = standby.run_cycle().map_err(|e| e.to_string())?;
    if idle.gets != 0 {
        return Err(format!("idle cycle still fetched: {idle:?}"));
    }
    let snap = standby.snapshot();
    if snap.lag_objects != 0 {
        return Err(format!("tail never drained: {snap:?}"));
    }
    // The tail's GETs are spend on the instance's own bill.
    let metered = ginja.usage_ledger().usage().gets - gets_before;
    if metered < snap.gets {
        return Err(format!(
            "standby GETs unmetered: {} issued, {metered} in the instance's ledger",
            snap.gets
        ));
    }
    println!(
        "tail drained:      {} cycle(s), {} GET(s), {} byte(s), {} reset(s)",
        snap.tail_cycles, snap.gets, snap.bytes_fetched, snap.resets
    );

    let reference = db.dump_table(TABLE).map_err(|e| e.to_string())?;
    if promote {
        // Cold baseline on the same bucket: full dump + WAL replay
        // into a fresh directory, timed the same way promotion is.
        let cold_start = Instant::now();
        let cold_fs = Arc::new(MemFs::new());
        recover_into(cold_fs.as_ref(), mem.as_ref(), &config).map_err(|e| e.to_string())?;
        let cold = cold_start.elapsed();

        let report = standby.promote().map_err(|e| e.to_string())?;
        ginja.shutdown();
        let promoted =
            Database::open(standby.shadow(), profile.clone()).map_err(|e| e.to_string())?;
        let rows_back = promoted.dump_table(TABLE).map_err(|e| e.to_string())?;
        let lost = reference.len().saturating_sub(rows_back.len());
        println!(
            "promotion:         caught_up {} ({} residual object(s), {} byte(s))",
            report.caught_up, report.residual_objects, report.residual_bytes
        );
        println!(
            "achieved RTO:      {:.1?} (cold recovery of the same bucket: {:.1?})",
            report.rto, cold
        );
        println!(
            "achieved RPO:      {lost} update(s) lost of {} (Safety bound S = {})",
            reference.len(),
            config.safety
        );
        if rows_back != reference {
            return Err(format!(
                "LOSS: promoted shadow has {} row(s), expected {}",
                rows_back.len(),
                reference.len()
            ));
        }
    } else {
        ginja.shutdown();
        standby.shutdown();
    }
    println!("standby drill PASSED");
    Ok(())
}
