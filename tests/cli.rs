//! End-to-end test of the `ginja-cli` operator binary against a real
//! directory-backed bucket.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use ginja::cloud::DirStore;
use ginja::core::{Ginja, GinjaConfig};
use ginja::db::{Database, DbProfile};
use ginja::vfs::{FileSystem, InterceptFs, MemFs, PostgresProcessor};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ginja-cli"))
}

/// The first file under `dir` in name order. A WAL object's name nests
/// it one directory down, and garbage collection leaves that directory
/// behind empty.
fn first_file(dir: &Path) -> Option<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .map(|entry| entry.unwrap().path())
        .collect();
    entries.sort();
    entries.into_iter().find_map(|path| {
        if path.is_dir() {
            first_file(&path)
        } else {
            Some(path)
        }
    })
}

/// Byte-exact recursive inventory of a directory tree, for asserting
/// that an audit never writes, deletes, or truncates an object.
fn dir_inventory(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, out: &mut std::collections::BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.insert(path.display().to_string(), std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = std::collections::BTreeMap::new();
    walk(dir, &mut out);
    out
}

fn run_ok(args: &[&str]) -> String {
    let output = cli().args(args).output().expect("spawn cli");
    assert!(
        output.status.success(),
        "cli {:?} failed: {}\n{}",
        args,
        String::from_utf8_lossy(&output.stderr),
        String::from_utf8_lossy(&output.stdout),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn cli_full_operator_flow() {
    let base = std::env::temp_dir().join(format!("ginja-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let bucket_dir = base.join("bucket");
    let target_dir = base.join("restored");

    // Populate the bucket through the real middleware.
    {
        let local = Arc::new(MemFs::new());
        let db = Database::create(local.clone(), DbProfile::postgres_small()).unwrap();
        db.create_table(1, 64).unwrap();
        drop(db);
        let cloud = Arc::new(DirStore::open(&bucket_dir).unwrap());
        let config = GinjaConfig::builder()
            .batch(4)
            .safety(32)
            .batch_timeout(Duration::from_millis(20))
            .build()
            .unwrap();
        let ginja = Ginja::boot(
            local.clone(),
            cloud,
            Arc::new(PostgresProcessor::new()),
            config,
        )
        .unwrap();
        let fs: Arc<dyn FileSystem> = Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
        let db = Database::open(fs, DbProfile::postgres_small()).unwrap();
        for i in 0..30u64 {
            db.put(1, i, format!("cli-row-{i}").into_bytes()).unwrap();
        }
        db.checkpoint().unwrap();
        assert!(ginja.sync(Duration::from_secs(20)));
        ginja.shutdown();
    }
    let bucket = bucket_dir.to_str().unwrap();

    // status
    let out = run_ok(&["status", bucket]);
    assert!(out.contains("newest dump:"), "{out}");
    assert!(!out.contains("NONE"), "{out}");

    // restore-points
    let out = run_ok(&["restore-points", bucket]);
    assert!(out.lines().count() >= 2, "{out}");
    assert!(out.contains("dump"), "{out}");

    // verify: a scrub, then a timed rebuild into scratch. Its scrub
    // lists every object, and it leaves the bucket byte-identical.
    let pristine = dir_inventory(&bucket_dir);
    let out = run_ok(&["verify", bucket]);
    assert!(out.contains("backup verification PASSED"), "{out}");
    assert!(out.contains("rebuild OK"), "{out}");
    assert!(out.contains("achieved RTO"), "{out}");
    let listed: usize = out
        .lines()
        .find_map(|l| l.strip_prefix("objects listed:"))
        .expect("scrub count line")
        .trim()
        .parse()
        .unwrap();
    assert_eq!(listed, pristine.len(), "{out}");
    assert_eq!(
        dir_inventory(&bucket_dir),
        pristine,
        "verify changed the bucket"
    );

    // recover, then reopen the database over the restored directory.
    let out = run_ok(&["recover", bucket, target_dir.to_str().unwrap()]);
    assert!(out.contains("recovered into"), "{out}");
    let restored: Arc<dyn FileSystem> = Arc::new(ginja::vfs::DirFs::open(&target_dir).unwrap());
    let db = Database::open(restored, DbProfile::postgres_small()).unwrap();
    for i in 0..30u64 {
        assert_eq!(
            db.get(1, i).unwrap().unwrap(),
            format!("cli-row-{i}").into_bytes()
        );
    }

    // A value flag may come before the positional arguments: it is
    // skipped with its value, never taken for the bucket or the target.
    let flag_first = base.join("flag-first");
    let out = run_ok(&[
        "recover",
        "--point",
        "999999",
        bucket,
        flag_first.to_str().unwrap(),
    ]);
    assert!(out.contains("recovered into"), "{out}");
    assert!(flag_first.join("global/pg_control").exists(), "{out}");
    let output = cli()
        .current_dir(&base)
        .args(["verify", "--password", "pw", bucket])
        .output()
        .unwrap();
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(
        out.contains(&format!("objects listed:    {}", pristine.len())),
        "{out}"
    );
    assert!(!base.join("--password").exists());
    assert!(!base.join("pw").exists());

    // cost (pure model, no bucket)
    let out = run_ok(&["cost", "10", "100", "100"]);
    assert!(out.contains("C_Total"), "{out}");

    // corrupt an object: verify must fail loudly.
    if let Some(path) = first_file(&bucket_dir.join("WAL")) {
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        let output = cli().args(["verify", bucket]).output().unwrap();
        assert!(!output.status.success(), "verify must fail on corruption");
        let out = String::from_utf8_lossy(&output.stdout);
        assert!(out.contains("corrupt"), "verify must classify it: {out}");
        assert!(
            !out.contains("rebuild OK"),
            "no rebuild from a dirty bucket"
        );
    }

    // bad usage exits 2 with the usage: an unknown command, a flag the
    // subcommand does not declare, a value flag with no value.
    for args in [
        &["bogus"][..],
        &["crashtest", "--prefix", "x"],
        &["cost", "10", "100", "100", "--bogus-flag"],
        &["recover", bucket, "--point"],
    ] {
        let output = cli().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains("usage: ginja-cli"), "{args:?}: {err}");
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn cli_crashtest_sweeps_clean() {
    // Bucket-less: the sweep runs against in-memory stores. Keep it
    // small — each replay is a full boot → crash → recover cycle.
    let out = run_ok(&["crashtest", "--ops", "3", "--stride", "6", "--no-torn"]);
    assert!(out.contains("crashtest PASSED"), "{out}");
    assert!(out.contains("crash points:"), "{out}");

    let out = run_ok(&[
        "crashtest",
        "--profile",
        "mysql",
        "--ops",
        "3",
        "--stride",
        "8",
        "--seed",
        "42",
    ]);
    assert!(out.contains("crashtest PASSED"), "{out}");

    // Unknown profile exits nonzero.
    assert!(!cli()
        .args(["crashtest", "--profile", "oracle"])
        .output()
        .unwrap()
        .status
        .success());
}

#[test]
fn cli_runs_every_ci_command_line() {
    // Every `ginja-cli` line of the CI script, as the script runs it.
    let ci = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/ci.sh"))
        .expect("read scripts/ci.sh");
    let lines: Vec<Vec<&str>> = ci
        .lines()
        .filter_map(|line| line.split_once("--bin ginja-cli -- "))
        .map(|(_, rest)| rest.split('|').next().unwrap().split_whitespace().collect())
        .collect();
    assert!(lines.len() >= 4, "{lines:?}");
    for args in lines {
        run_ok(&args);
    }
}
