use std::sync::Arc;
use std::time::Duration;

use ginja_vfs::{DbmsProcessor, MySqlProcessor, PostgresProcessor};

/// Which real DBMS's on-disk behaviour a [`crate::Database`] reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// PostgreSQL 9.x: 8 kB WAL pages, 16 MB `pg_xlog` segments created
    /// as the log grows, periodic full checkpoints (clog → table pages →
    /// `pg_control`).
    Postgres,
    /// MySQL 5.7 / InnoDB: 512 B log blocks in a fixed pair of circular
    /// `ib_logfile` files, 16 kB data pages, fuzzy checkpoints (small
    /// batches of dirty pages, checkpoint headers at offsets 512/1536 of
    /// `ib_logfile0`).
    MySql,
}

impl ProfileKind {
    /// The Ginja I/O classifier that understands this profile's files.
    pub fn processor(self) -> Arc<dyn DbmsProcessor> {
        match self {
            ProfileKind::Postgres => Arc::new(PostgresProcessor::new()),
            ProfileKind::MySql => Arc::new(MySqlProcessor::new()),
        }
    }
}

/// A model of local storage latency, so simulated runs reproduce the
/// paper's timing behaviour at a configurable time scale.
///
/// The paper's testbed used a 15k-RPM HDD; a synchronous WAL flush on
/// such a disk costs a few milliseconds, which is what bounds TPC-C
/// throughput in the baseline (ext4) columns of Figure 5. `scale`
/// multiplies every delay — the same scale must be applied to the cloud
/// latency model so that all ratios are preserved (see DESIGN.md §1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoDelay {
    /// Cost of one synchronous flush (fsync) of the WAL.
    pub commit_flush: Duration,
    /// Fixed cost of a checkpoint flush batch.
    pub page_flush_base: Duration,
    /// Additional cost per page in a checkpoint flush batch.
    pub page_flush_per_page: Duration,
    /// Global multiplier (0 disables all delays; unit tests use 0).
    pub scale: f64,
}

impl IoDelay {
    /// No delays at all — unit-test mode.
    pub fn none() -> Self {
        IoDelay {
            commit_flush: Duration::ZERO,
            page_flush_base: Duration::ZERO,
            page_flush_per_page: Duration::ZERO,
            scale: 0.0,
        }
    }

    /// A 15k-RPM HDD as in the paper's testbed (§8): ~2 ms rotational
    /// latency per fsync, sequential page flushing at ~150 MB/s.
    pub fn hdd_15k() -> Self {
        IoDelay {
            commit_flush: Duration::from_micros(2000),
            page_flush_base: Duration::from_micros(2000),
            page_flush_per_page: Duration::from_micros(55),
            scale: 1.0,
        }
    }

    /// Returns a copy with the global scale set to `scale`.
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0, "time scale must be non-negative");
        self.scale = scale;
        self
    }

    /// Sleeps for one commit flush.
    pub fn delay_commit_flush(&self) {
        self.sleep(self.commit_flush);
    }

    /// Sleeps for a checkpoint batch of `pages` page writes.
    pub fn delay_page_flush(&self, pages: usize) {
        self.sleep(self.page_flush_base + self.page_flush_per_page * pages as u32);
    }

    fn sleep(&self, nominal: Duration) {
        if self.scale > 0.0 && !nominal.is_zero() {
            // Precise (spinning) sleep: at small time scales the delays
            // are tens of microseconds, far below OS sleep granularity.
            ginja_vfs::precise_sleep(nominal.mul_f64(self.scale));
        }
    }
}

/// Static configuration of a [`crate::Database`]: the DBMS being
/// emulated and its layout constants.
///
/// The `*_small` constructors shrink segment sizes so tests exercise
/// segment rollover and log wrap quickly; the `*_default` constructors
/// use the real systems' sizes quoted in the paper (§5.3 footnote 4:
/// "16MB vs. 8kB in PostgreSQL and 48MB vs. 16kB in MySQL").
#[derive(Debug, Clone, PartialEq)]
pub struct DbProfile {
    /// Which DBMS is being emulated.
    pub kind: ProfileKind,
    /// Table (data) page size in bytes.
    pub page_size: usize,
    /// WAL write granularity in bytes (8 kB PG, 512 B InnoDB).
    pub wal_block_size: usize,
    /// WAL segment (file) size in bytes.
    pub wal_segment_size: u64,
    /// Record slot size used by tables created without an explicit one.
    pub default_slot_size: usize,
    /// Commits between automatic checkpoints (None = only explicit).
    pub checkpoint_every_commits: Option<u64>,
    /// For the fuzzy (MySQL) checkpointer: dirty pages flushed per step.
    pub fuzzy_batch_pages: usize,
    /// Local storage latency model.
    pub io_delay: IoDelay,
}

impl DbProfile {
    /// PostgreSQL with production-like sizes (8 kB pages, 16 MB segments).
    pub fn postgres_default() -> Self {
        DbProfile {
            kind: ProfileKind::Postgres,
            page_size: 8192,
            wal_block_size: 8192,
            wal_segment_size: 16 * 1024 * 1024,
            default_slot_size: 128,
            checkpoint_every_commits: None,
            fuzzy_batch_pages: 64,
            io_delay: IoDelay::none(),
        }
    }

    /// PostgreSQL with small segments (256 kB) for fast tests.
    pub fn postgres_small() -> Self {
        DbProfile {
            wal_segment_size: 256 * 1024,
            ..Self::postgres_default()
        }
    }

    /// MySQL/InnoDB with production-like sizes (16 kB pages, 512 B log
    /// blocks, 48 MB circular log files).
    pub fn mysql_default() -> Self {
        DbProfile {
            kind: ProfileKind::MySql,
            page_size: 16384,
            wal_block_size: 512,
            wal_segment_size: 48 * 1024 * 1024,
            default_slot_size: 128,
            checkpoint_every_commits: None,
            fuzzy_batch_pages: 16,
            io_delay: IoDelay::none(),
        }
    }

    /// MySQL/InnoDB with small circular logs (128 kB each) for tests.
    pub fn mysql_small() -> Self {
        DbProfile {
            wal_segment_size: 128 * 1024,
            ..Self::mysql_default()
        }
    }

    /// Sets the automatic checkpoint interval in commits.
    #[must_use]
    pub fn with_checkpoint_every(mut self, commits: u64) -> Self {
        self.checkpoint_every_commits = Some(commits);
        self
    }

    /// Sets the local I/O latency model.
    #[must_use]
    pub fn with_io_delay(mut self, delay: IoDelay) -> Self {
        self.io_delay = delay;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let pg = DbProfile::postgres_default();
        assert_eq!(pg.page_size, 8192);
        assert_eq!(pg.wal_block_size, 8192);
        assert_eq!(pg.wal_segment_size, 16 * 1024 * 1024);

        let ms = DbProfile::mysql_default();
        assert_eq!(ms.page_size, 16384);
        assert_eq!(ms.wal_block_size, 512);
        assert_eq!(ms.wal_segment_size, 48 * 1024 * 1024);
    }

    #[test]
    fn small_profiles_divide_evenly() {
        let pg = DbProfile::postgres_small();
        assert_eq!(pg.wal_segment_size % pg.wal_block_size as u64, 0);
        let ms = DbProfile::mysql_small();
        assert_eq!(ms.wal_segment_size % ms.wal_block_size as u64, 0);
    }

    #[test]
    fn io_delay_none_is_free() {
        let start = std::time::Instant::now();
        let d = IoDelay::none();
        for _ in 0..1000 {
            d.delay_commit_flush();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn io_delay_scaled_sleeps() {
        let d = IoDelay::hdd_15k().scaled(0.5); // 1 ms per flush
        let start = std::time::Instant::now();
        d.delay_commit_flush();
        assert!(start.elapsed() >= Duration::from_micros(900));
    }

    #[test]
    fn builders_apply() {
        let p = DbProfile::postgres_small().with_checkpoint_every(100);
        assert_eq!(p.checkpoint_every_commits, Some(100));
        let p = p.with_io_delay(IoDelay::hdd_15k());
        assert_eq!(p.io_delay.scale, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_io_scale_rejected() {
        let _ = IoDelay::none().scaled(-0.1);
    }
}
