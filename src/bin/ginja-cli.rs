//! `ginja-cli` — operator tooling over a Ginja cloud bucket.
//!
//! The bucket is addressed as a directory (use an rclone/NFS mount for
//! a real cloud bucket):
//!
//! ```text
//! ginja-cli status <bucket-dir>
//! ginja-cli restore-points <bucket-dir>
//! ginja-cli verify <bucket-dir> [--password <pw>]
//! ginja-cli drill <bucket-dir> [--prefix <tenants/name/>] [--password <pw>]
//! ginja-cli recover <bucket-dir> <target-dir> [--point <ts>] [--password <pw>]
//! ginja-cli cost <db-gb> <updates-per-min> <batch>
//! ginja-cli budget <monthly-usd> <db-gb> <updates-per-min> [--batch <B>] [--safety <S>] [--headroom <f>] [--steps <n>]
//! ginja-cli crashtest [--profile <postgres|mysql>] [--seed <n>] [--ops <n>] [--stride <n>] [--no-torn] [--prefix <p>]
//! ginja-cli fleet [--tenants <n>] [--txns <n>] [--width <w>] [--budget <usd>] [--month-secs <s>]
//! ginja-cli outage [--rows <n>]
//! ginja-cli standby [--rows <n>] [--waves <n>] [--promote]
//! ```
//!
//! `budget` is the offline view of the live cost governor (`DESIGN.md`
//! §13): it simulates a governed month under a steady workload and
//! prints the knob trajectory, next to the fixed-B §7.1 cost and the
//! Figure 1 capacity frontier for the same budget.
//!
//! `crashtest` needs no bucket: it runs the CrashFs crash-point sweep
//! (see `DESIGN.md` §11) against in-memory stores and exits non-zero if
//! any crash point violates a durability invariant.
//!
//! `fleet` needs no bucket either: it spins up an in-process
//! multi-tenant fleet (`DESIGN.md` §14) — N TPC-C tenants in one shared
//! bucket behind one fair-share executor and one fleet budget — then
//! proves every tenant scrubs clean and recovers from its own prefix
//! with nothing acknowledged lost, and exits non-zero otherwise.
//!
//! `outage` is the outage endurance drill (`DESIGN.md` §15), also
//! in-process: it cuts the cloud out from under a live pipeline, shows
//! the outage policy escalating (Healthy → Degraded → Enduring) while
//! the un-acked backlog stays within the Safety bound S, then restores
//! the cloud and proves catch-up drains to a scrub-clean bucket with
//! zero acknowledged loss — exiting non-zero otherwise.
//!
//! `standby` is the warm-standby drill (`DESIGN.md` §17), in-process
//! too: it protects a database, attaches a continuous cloud-tail
//! standby, and prints a live lag table as commit waves land and the
//! tail absorbs them. With `--promote` it then fences the tail,
//! promotes the shadow into a bootable directory, and prints the
//! achieved RPO (updates lost, against the Safety bound `S`) and the
//! achieved RTO next to a cold recovery of the same bucket — exiting
//! non-zero on any lost acknowledged update.
//!
//! On shared (multi-tenant) buckets, `--prefix tenants/<name>/` scopes
//! `drill` and `crashtest` to one tenant's namespace: the scoped drill
//! structurally cannot list, read, or delete a neighbor's objects.

use std::process::ExitCode;

use ginja::cloud::{DirStore, ObjectStore};
use ginja::codec::CodecConfig;
use ginja::core::{
    list_restore_points, recover_to_point, verify_backup, CloudView, GinjaConfig, RestorePointKind,
};
use ginja::cost::GinjaCostModel;
use ginja::vfs::DirFs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("status") => status(&args[1..]),
        Some("restore-points") => restore_points(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("drill") => drill(&args[1..]),
        Some("recover") => recover(&args[1..]),
        Some("cost") => cost(&args[1..]),
        Some("budget") => budget(&args[1..]),
        Some("crashtest") => crashtest(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some("outage") => outage(&args[1..]),
        Some("standby") => standby(&args[1..]),
        _ => {
            eprintln!(
                "usage: ginja-cli <status|restore-points|verify|drill|recover|cost|budget|crashtest|fleet|outage|standby> ..."
            );
            eprintln!("  status <bucket-dir>");
            eprintln!("  restore-points <bucket-dir>");
            eprintln!("  verify <bucket-dir> [--password <pw>]");
            eprintln!("  drill <bucket-dir> [--prefix <tenants/name/>] [--password <pw>]");
            eprintln!("  recover <bucket-dir> <target-dir> [--point <ts>] [--password <pw>]");
            eprintln!("  cost <db-gb> <updates-per-min> <batch>");
            eprintln!(
                "  budget <monthly-usd> <db-gb> <updates-per-min> [--batch <B>] [--safety <S>] [--headroom <f>] [--steps <n>]"
            );
            eprintln!(
                "  crashtest [--profile <postgres|mysql>] [--seed <n>] [--ops <n>] [--stride <n>] [--no-torn] [--prefix <p>]"
            );
            eprintln!(
                "  fleet [--tenants <n>] [--txns <n>] [--width <w>] [--budget <usd>] [--month-secs <s>]"
            );
            eprintln!("  outage [--rows <n>]");
            eprintln!("  standby [--rows <n>] [--waves <n>] [--promote]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--prefix`, normalized to end in `/` (the `tenants/<name>/`
/// convention); `None` when absent or explicitly empty (whole bucket).
fn prefix_from(args: &[String]) -> Option<String> {
    flag_value(args, "--prefix")
        .filter(|p| !p.is_empty())
        .map(|p| if p.ends_with('/') { p } else { format!("{p}/") })
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

fn open_bucket(args: &[String], index: usize) -> Result<DirStore, String> {
    let path = args.get(index).ok_or("missing bucket directory argument")?;
    DirStore::open(path).map_err(|e| e.to_string())
}

fn status(args: &[String]) -> Result<(), String> {
    let bucket = open_bucket(args, 0)?;
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
    let bucket = open_bucket(args, 0)?;
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

fn verify(args: &[String]) -> Result<(), String> {
    let bucket = open_bucket(args, 0)?;
    let config = config_from(args)?;
    let scratch = ginja::vfs::MemFs::new();
    let report = verify_backup(&bucket, &config, &scratch).map_err(|e| e.to_string())?;
    println!("objects verified:  {}", report.objects_verified);
    println!("bytes downloaded:  {}", report.bytes_downloaded);
    if !report.corrupt_objects.is_empty() {
        println!("CORRUPT OBJECTS:");
        for name in &report.corrupt_objects {
            println!("  {name}");
        }
        return Err(format!(
            "{} corrupt object(s)",
            report.corrupt_objects.len()
        ));
    }
    match report.recovery {
        Some(recovery) => println!(
            "rebuild OK:        dump ts {}, {} checkpoint(s), {} WAL object(s), {} file(s)",
            recovery.dump_ts,
            recovery.checkpoints_applied,
            recovery.wal_objects_applied,
            recovery.files_written
        ),
        None => return Err("no dump to rebuild from".into()),
    }
    println!("backup verification PASSED");
    Ok(())
}

/// A one-shot disaster-recovery drill: scrub the bucket (every payload
/// envelope-verified, anomalies classified), then rehearse a full
/// restore into scratch memory and report the achieved RTO. With
/// `--prefix`, both stages run against one tenant's scoped view of a
/// shared bucket — the neighbors' objects are structurally unreachable.
fn drill(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;

    use ginja::cloud::PrefixStore;

    let mut store: Arc<dyn ObjectStore> = Arc::new(open_bucket(args, 0)?);
    if let Some(prefix) = prefix_from(args) {
        println!("tenant prefix:     {prefix}");
        store = Arc::new(PrefixStore::new(store, prefix));
    }
    let config = config_from(args)?;

    let scrub =
        ginja::sentinel::scrub_bucket(store.as_ref(), &config).map_err(|e| e.to_string())?;
    println!("objects listed:    {}", scrub.objects_listed);
    println!("payloads verified: {}", scrub.payloads_verified);
    if !scrub.is_clean() {
        println!("ANOMALIES:");
        for anomaly in &scrub.anomalies {
            println!("  {:<12} {}", anomaly.kind.to_string(), anomaly.name);
        }
    }

    let (rehearsal, _scratch) =
        ginja::sentinel::rehearse_bucket(store.as_ref(), &config).map_err(|e| e.to_string())?;
    match &rehearsal.verify.recovery {
        Some(recovery) => println!(
            "rehearsal rebuild: dump ts {}, {} checkpoint(s), {} WAL object(s), {} file(s)",
            recovery.dump_ts,
            recovery.checkpoints_applied,
            recovery.wal_objects_applied,
            recovery.files_written
        ),
        None => println!("rehearsal rebuild: FAILED (no usable dump)"),
    }
    println!("achieved RTO:      {:?}", rehearsal.rto);

    if !scrub.is_clean() {
        return Err(format!("{} anomaly(ies) found", scrub.anomalies.len()));
    }
    if !rehearsal.restorable() {
        return Err("bucket is not restorable".into());
    }
    println!("drill PASSED — bucket is clean and restorable");
    Ok(())
}

fn recover(args: &[String]) -> Result<(), String> {
    let bucket = open_bucket(args, 0)?;
    let target_path = args.get(1).ok_or("missing target directory argument")?;
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
    let parse = |i: usize, what: &str| -> Result<f64, String> {
        args.get(i)
            .ok_or(format!("missing {what}"))?
            .parse::<f64>()
            .map_err(|_| format!("bad {what}: {}", args[i]))
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

/// Plans a governed month offline: the same [`GovernorPolicy`] the live
/// governor runs, stepped through a steady workload with the §7.1 cost
/// terms — prints the knob trajectory, the fixed-B cost it beats, and
/// where the deployment sits on the budget's capacity frontier.
fn budget(args: &[String]) -> Result<(), String> {
    use ginja::cost::governor::{
        simulate_steady_month, BudgetConfig, GovernorAction, GovernorPolicy, KnobBounds,
    };
    use ginja::cost::Budget;
    use std::time::Duration;

    let parse = |i: usize, what: &str| -> Result<f64, String> {
        args.get(i)
            .ok_or(format!("missing {what}"))?
            .parse::<f64>()
            .map_err(|_| format!("bad {what}: {}", args[i]))
    };
    let monthly_usd = parse(0, "monthly-usd")?;
    let db_gb = parse(1, "db-gb")?;
    let updates = parse(2, "updates-per-min")?;
    let parse_flag = |flag: &str, default: f64| -> Result<f64, String> {
        match flag_value(args, flag) {
            Some(raw) => raw.parse().map_err(|_| format!("bad {flag} value: {raw}")),
            None => Ok(default),
        }
    };
    let batch = parse_flag("--batch", 100.0)? as usize;
    let safety = parse_flag("--safety", 1000.0)? as usize;
    let headroom = parse_flag("--headroom", 0.1)?;
    let steps = parse_flag("--steps", 64.0)? as usize;
    if batch == 0 || safety < batch {
        return Err("need 1 <= batch <= safety".into());
    }

    let mut config = BudgetConfig::new(monthly_usd);
    config.headroom = headroom;
    config.validate().map_err(|e| e.to_string())?;
    let target = config.target_usd();
    let pricing = config.pricing;
    let bounds = KnobBounds {
        min_batch: batch,
        max_batch: safety,
        min_batch_timeout: Duration::from_secs(1),
        max_batch_timeout: Duration::from_secs(5),
        min_dump_threshold: 1.5,
        max_dump_threshold: 3.0,
        max_sentinel_pace: 16.0,
    };
    let policy = GovernorPolicy::new(config, bounds);

    println!("Ginja budget plan (S3 May-2017 prices)");
    println!(
        "  budget:           ${monthly_usd:.2}/month (target ${target:.2} after {:.0}% headroom)",
        headroom * 100.0
    );
    println!("  database size:    {db_gb} GB");
    println!("  workload:         {updates} updates/minute");
    println!("  baseline B/S:     {batch}/{safety}");
    println!();

    let mut fixed = ginja::cost::GinjaCostModel::paper_fig4(updates, batch as u64);
    fixed.db_size_gb = db_gb;
    fixed.pricing = pricing;
    let fixed_total = fixed.total();
    println!(
        "fixed B={batch} month-end (§7.1):  ${fixed_total:.3}  [{}]",
        if fixed_total <= monthly_usd {
            "under budget"
        } else {
            "OVER BUDGET"
        }
    );

    let sim = simulate_steady_month(db_gb, updates, &policy, steps);
    println!("\ngoverned month ({steps} steps):");
    println!("  month%   B      spent$    projected$  action");
    for point in &sim.trajectory {
        let action = match point.action {
            Some(GovernorAction::Escalate) => "escalate",
            Some(GovernorAction::Relax) => "relax",
            None => continue, // print only the steps where the governor moved
        };
        println!(
            "  {:>5.1}  {:>5}  {:>8.3}  {:>10.3}  {action}",
            point.at_fraction * 100.0,
            point.batch,
            point.spent_usd,
            point.projected_usd,
        );
    }
    let moves = sim.trajectory.iter().filter(|p| p.action.is_some()).count();
    if moves == 0 {
        println!("  (no knob movement: baseline already fits the target)");
    }
    println!(
        "  month-end: ${:.3} with B={} — {}",
        sim.final_usd,
        sim.final_knobs.batch,
        if sim.final_usd <= monthly_usd {
            "within budget"
        } else {
            "cannot fit: raise the budget, raise S, or shrink the workload"
        }
    );

    println!("\ncapacity frontier at ${monthly_usd:.2}/month (Figure 1):");
    let per_hour = updates * 60.0 / batch as f64;
    let budget = Budget::with_pricing(monthly_usd, pricing);
    println!("  syncs/hour   max DB size");
    for (rate, size) in budget.frontier([25.0, 50.0, 100.0, 150.0, 200.0, 250.0]) {
        println!("  {rate:>10.0}   {size:>8.1} GB");
    }
    println!(
        "  this deployment: {per_hour:.0} syncs/hour at baseline B → max {:.1} GB ({db_gb} GB {})",
        budget.max_db_size_gb(per_hour),
        if db_gb <= budget.max_db_size_gb(per_hour) {
            "fits"
        } else {
            "does not fit at baseline B — the governor will escalate"
        }
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
    if let Some(prefix) = prefix_from(args) {
        println!("tenant prefix:     {prefix}");
        cfg.prefix = prefix;
    }

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

/// Spins up an in-process multi-tenant fleet: N TPC-C tenants over one
/// shared in-memory bucket, one fair-share executor, and one fleet
/// budget ($1/tenant/month by default, the paper's price point). After
/// the run, every tenant must scrub clean and recover from its own
/// `tenants/<name>/` prefix with nothing acknowledged lost, and the
/// fleet's projected spend must sit inside the budget — exits non-zero
/// otherwise. CI smoke-tests the fleet subsystem through this command.
fn fleet(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Duration;

    use ginja::cloud::MemStore;
    use ginja::core::recover_into;
    use ginja::cost::BudgetConfig;
    use ginja::db::{Database, DbProfile};
    use ginja::fleet::{Fleet, FleetConfig, TenantSpec};
    use ginja::vfs::MemFs;
    use ginja::workload::{probe_tpcc, Tpcc, TpccScale};

    /// Table each tenant writes a final marker row into — proof after
    /// recovery that the very last acknowledged update survived.
    const MARKER_TABLE: u32 = 77;

    let parse_num = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            Some(raw) => raw.parse().map_err(|_| format!("bad {flag} value: {raw}")),
            None => Ok(default),
        }
    };
    let tenants = parse_num("--tenants", 3)? as usize;
    let txns = parse_num("--txns", 30)?;
    let width = parse_num("--width", 8)?.max(1) as usize;
    if tenants == 0 {
        return Err("need at least one tenant".into());
    }
    let budget_usd = match flag_value(args, "--budget") {
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|_| format!("bad --budget value: {raw}"))?,
        None => tenants as f64, // one dollar per tenant per month
    };
    // A seconds-long "month": the projection math is scale-free in
    // month length, so a short month exercises the same arbitration a
    // 30-day one would without extrapolating a 2-second run 10^6-fold.
    let month = Duration::from_secs(parse_num("--month-secs", 60)?.max(1));

    let fleet = Fleet::new(
        Arc::new(MemStore::new()),
        FleetConfig {
            width,
            budget: Some(BudgetConfig {
                month,
                ..BudgetConfig::new(budget_usd)
            }),
            ..FleetConfig::default()
        },
    );
    let config = GinjaConfig::builder()
        .batch(4)
        .safety(32)
        .batch_timeout(Duration::from_millis(10))
        .build()
        .map_err(|e| e.to_string())?;
    for i in 0..tenants {
        fleet
            .attach(TenantSpec::new(
                format!("t{i}"),
                DbProfile::postgres_small(),
                config.clone(),
            ))
            .map_err(|e| e.to_string())?;
    }
    println!("fleet: {tenants} tenant(s), executor width {width}, budget ${budget_usd:.2}/month");

    // Drive every tenant concurrently; arbitrate the budget meanwhile.
    let workers: Vec<_> = fleet
        .tenants()
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut tpcc = Tpcc::new(1, 0xF1EE7 ^ i as u64, TpccScale::tiny());
                tpcc.create_schema(tenant.db()).map_err(|e| e.to_string())?;
                tpcc.load(tenant.db()).map_err(|e| e.to_string())?;
                for _ in 0..txns {
                    tpcc.run_transaction(tenant.db())
                        .map_err(|e| e.to_string())?;
                }
                tenant
                    .db()
                    .create_table(MARKER_TABLE, 64)
                    .map_err(|e| e.to_string())?;
                tenant
                    .db()
                    .put(MARKER_TABLE, 0, tenant.name().as_bytes().to_vec())
                    .map_err(|e| e.to_string())
            })
        })
        .collect();
    while workers.iter().any(|w| !w.is_finished()) {
        fleet.governor_pass();
        std::thread::sleep(Duration::from_millis(5));
    }
    for worker in workers {
        worker.join().map_err(|_| "tenant worker panicked")??;
    }
    if !fleet.sync_all(Duration::from_secs(60)) {
        return Err("a tenant pipeline failed to drain".into());
    }
    fleet.governor_pass();

    // One full sentinel rotation, then a per-tenant recovery check.
    let mut anomalies = 0;
    for _ in 0..tenants {
        if let Some((name, report)) = fleet.scrub_next().map_err(|e| e.to_string())? {
            if !report.is_clean() {
                eprintln!(
                    "tenant {name}: {} scrub anomaly(ies)",
                    report.anomalies.len()
                );
                anomalies += report.anomalies.len();
            }
        }
    }
    let mut lost = 0;
    for tenant in fleet.tenants() {
        let target = Arc::new(MemFs::new());
        recover_into(target.as_ref(), &tenant.store(), &config).map_err(|e| e.to_string())?;
        let db = Database::open(target, DbProfile::postgres_small()).map_err(|e| e.to_string())?;
        let marker = db.get(MARKER_TABLE, 0).map_err(|e| e.to_string())?;
        if marker.as_deref() != Some(tenant.name().as_bytes()) {
            eprintln!("tenant {}: final acked marker lost", tenant.name());
            lost += 1;
        }
        let probe = probe_tpcc(&db).map_err(|e| e.to_string())?;
        if !probe.is_consistent() {
            eprintln!(
                "tenant {}: recovered state inconsistent: {probe:?}",
                tenant.name()
            );
            lost += 1;
        }
    }

    let snap = fleet.snapshot();
    fleet.shutdown();
    println!(
        "\n{:<8} {:>6} {:>4} {:>8} {:>6} {:>8} {:>10} {:>10} {:>10} {:>4} {:>9} {:>5} {:>5}",
        "tenant",
        "weight",
        "lane",
        "updates",
        "waves",
        "granted",
        "spent $",
        "proj $",
        "budget $",
        "esc",
        "put p99",
        "parks",
        "seals"
    );
    for t in &snap.tenants {
        let (waves, granted) = t
            .scheduler
            .map(|l| (l.waves, l.granted))
            .unwrap_or_default();
        println!(
            "{:<8} {:>6.1} {:>4} {:>8} {:>6} {:>8} {:>10.6} {:>10.6} {:>10.6} {:>4} {:>9.1?} {:>5} {:>5}",
            t.name,
            t.weight,
            t.lane,
            t.stats.updates_intercepted,
            waves,
            granted,
            t.spent_microusd as f64 / 1e6,
            t.projected_microusd as f64 / 1e6,
            t.sub_budget_microusd as f64 / 1e6,
            t.escalations,
            t.stats.ingest.put_latency.p99,
            t.stats.ingest.put_parks,
            t.stats.ingest.adaptive_seals,
        );
    }
    println!(
        "\naggregate: {} updates, {} WAL + {} DB objects, max in-flight {}/{}, \
         spent ${:.6}, projected ${:.6} of ${:.2}",
        snap.totals.updates_intercepted,
        snap.totals.wal_objects_uploaded,
        snap.totals.db_objects_uploaded,
        snap.max_in_flight,
        snap.width,
        snap.spent_microusd as f64 / 1e6,
        snap.projected_microusd as f64 / 1e6,
        budget_usd,
    );
    println!(
        "ingest:    {} park(s), {} adaptive seal(s) across the fleet",
        snap.totals.ingest_put_parks, snap.totals.ingest_adaptive_seals,
    );

    if anomalies > 0 {
        return Err(format!("{anomalies} scrub anomaly(ies) across the fleet"));
    }
    if lost > 0 {
        return Err(format!("{lost} tenant(s) lost acknowledged updates"));
    }
    if snap.over_budget {
        return Err("fleet projected spend exceeds the budget".into());
    }
    if !snap.healthy() {
        return Err("fleet snapshot reports unhealthy tenants".into());
    }
    println!("\nfleet OK — {tenants} tenant(s) protected, zero acked loss, spend under budget");
    Ok(())
}

/// The outage endurance drill: boots a solo pipeline over an
/// in-process bucket, takes the cloud away mid-traffic, and narrates
/// the outage subsystem doing its job — the policy escalating to
/// `Enduring`, the backlog holding within S, checkpoints coalescing,
/// B widening toward S — then restores the cloud and verifies catch-up
/// ends with a scrub-clean bucket and a lossless recovery. Exits
/// non-zero if any of that fails. CI smoke-tests the outage subsystem
/// through this command.
fn outage(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use ginja::cloud::{FaultPlan, FaultStore, MemStore, RetryConfig};
    use ginja::core::{recover_into, Ginja, OutageConfig, OutageState, SentinelConfig};
    use ginja::db::{Database, DbProfile};
    use ginja::sentinel::Sentinel;
    use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

    /// Table the drill writes its rows into.
    const TABLE: u32 = 42;

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
        .safety((rows as usize) * 2 + 64)
        .batch_timeout(Duration::from_millis(5))
        .safety_timeout(Duration::from_secs(60))
        // A real outage compressed to milliseconds: the breaker opens
        // within a few failed attempts and the policy only measures
        // time through `enduring_after`, scaled down to match.
        .retry(RetryConfig {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(50),
            breaker_probes: 1,
        })
        .sentinel(SentinelConfig {
            scrub_sample: 0, // verify every payload
            ..SentinelConfig::default()
        })
        .outage(OutageConfig {
            ckpt_capacity: 2,
            enduring_after: Duration::from_millis(50),
            poll_interval: Duration::from_millis(5),
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
    let db = Database::open(fs, profile.clone()).map_err(|e| e.to_string())?;

    // Healthy phase: a slice of the rows lands in the cloud normally.
    let healthy_rows = rows / 4;
    for seq in 0..healthy_rows {
        db.put(TABLE, seq, format!("healthy-{seq}").into_bytes())
            .map_err(|e| e.to_string())?;
    }
    if !ginja.sync(Duration::from_secs(30)) {
        return Err("healthy phase failed to drain".into());
    }
    println!(
        "healthy phase:     {healthy_rows} row(s) uploaded, state {:?}",
        ginja.stats().outage.state
    );

    // The outage: every cloud op fails from here on, commits keep
    // coming, and a burst of checkpoints overflows the coalescing
    // queue on purpose.
    plan.outage();
    println!("cloud outage:      injected (every op fails)");
    for seq in healthy_rows..rows {
        db.put(TABLE, seq, format!("enduring-{seq}").into_bytes())
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..4 {
        db.checkpoint().map_err(|e| e.to_string())?;
    }

    let mut backlog_bound_held = true;
    let escalated = wait_for(
        Duration::from_secs(30),
        Box::new(|| {
            backlog_bound_held &= ginja.pending_updates() <= config.safety;
            ginja.stats().outage.state == OutageState::Enduring
        }),
    );
    let mid = ginja.stats();
    println!("under outage:      state {:?}", mid.outage.state);
    println!(
        "  backlog:         {} un-acked update(s) of S = {} (bound held: {backlog_bound_held})",
        ginja.pending_updates(),
        config.safety
    );
    println!("  ckpt coalesced:  {}", mid.outage.ckpt_coalesced);
    println!(
        "  knobs:           B {} -> {} (S stays {})",
        config.batch,
        ginja.current_knobs().batch,
        config.safety
    );
    if !escalated {
        return Err(format!("policy never escalated: {:?}", mid.outage));
    }
    if !backlog_bound_held {
        return Err("un-acked backlog exceeded S during the outage".into());
    }

    // The cloud returns: the uploaders' retries get through, the queue
    // drains, the policy walks back to Healthy, and the knobs restore.
    plan.restore();
    println!("cloud restored:    catch-up draining...");
    if !ginja.sync(Duration::from_secs(120)) {
        return Err("catch-up failed to drain after the cloud returned".into());
    }
    if !wait_for(
        Duration::from_secs(15),
        Box::new(|| ginja.exposure().outage == OutageState::Healthy),
    ) {
        return Err(format!("policy stuck at {:?}", ginja.exposure().outage));
    }
    let fin = ginja.stats();
    println!("after catch-up:    state {:?}", fin.outage.state);
    println!(
        "  outage time:     {:.1?} across {} outage(s)",
        fin.outage.outage_time, fin.outage.outages
    );
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
    let cycle = Sentinel::new(&ginja)
        .run_cycle()
        .map_err(|e| e.to_string())?;
    if !cycle.scrub.is_clean() {
        return Err(format!(
            "dirty bucket after catch-up: {:?}",
            cycle.scrub.anomalies
        ));
    }
    println!(
        "scrub:             clean ({} object(s) verified)",
        cycle.scrub.objects_listed
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

    // The standby shares the instance's resilient store (one ledger,
    // one breaker) and tails into its own shadow directory.
    let standby = Standby::for_instance(&ginja, Arc::new(MemFs::new()), StandbyConfig::default())
        .map_err(|e| e.to_string())?;

    println!(
        "standby drill:     {rows} row(s) across {waves} wave(s), S = {}",
        config.safety
    );
    println!("wave    delta  gets     bytes  lag-objs  lag-bytes  pace");
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
            "{wave:>4}  {:>7}  {:>4}  {:>8}  {:>8}  {:>9}  {:.2}x",
            report.delta_added,
            report.gets,
            report.bytes_fetched,
            snap.lag_objects,
            snap.lag_bytes,
            snap.pace_permille as f64 / 1000.0
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
