use crate::WriteEvent;

/// Classification of one intercepted write, per the paper's Table 1.
///
/// Ginja's core turns this stream into the three events of §4:
///
/// * a [`IoClass::WalAppend`] **is** an *update commit*;
/// * the first [`IoClass::DataFile`] write after a checkpoint completed
///   marks *checkpoint begin*;
/// * a [`IoClass::ControlFile`] write marks *checkpoint end*.
///
/// `DataFile` and `ControlFile` content both belong to the database
/// state replicated via DB objects; `WalAppend` content goes to WAL
/// objects; `Other` (temporary/statistics files) is not replicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoClass {
    /// A committed-update record appended to the write-ahead log.
    WalAppend,
    /// A write to a database data file (tables, transaction-status logs).
    DataFile,
    /// A write to the control region that concludes a checkpoint.
    ControlFile,
    /// Irrelevant to disaster recovery (temp files, stats, …).
    Other,
}

/// Per-DBMS knowledge of which file writes mean what — the only
/// database-specific piece of Ginja ("two small modules … specific for
/// processing I/O from PostgreSQL and MySQL", §6).
///
/// Implementations must be stateless (classification depends only on the
/// write itself) so that a processor can be shared by threads; the
/// stateful "first write of a checkpoint" logic lives in Ginja's core.
pub trait DbmsProcessor: Send + Sync {
    /// Classifies one intercepted write.
    fn classify(&self, event: &WriteEvent) -> IoClass;

    /// Paths (prefixes) holding WAL segments — used by Boot mode to
    /// upload the initial WAL objects, and by Recovery to know which
    /// files it may rebuild from WAL objects.
    fn wal_prefix(&self) -> &str;

    /// Returns `true` if `path` holds database (non-WAL) durable state
    /// that must be part of dumps.
    fn is_db_file(&self, path: &str) -> bool;

    /// Whether a checkpoint of this DBMS writes out **every** dirty page
    /// before its checkpoint-end control write.
    ///
    /// PostgreSQL checkpoints do (the data files then contain all
    /// effects of WAL records up to the checkpoint), so old WAL can be
    /// garbage-collected by timestamp as in the paper's Algorithm 3.
    /// InnoDB's *fuzzy* checkpoints flush only small batches — records
    /// on still-dirty pages live only in the WAL, and WAL objects may
    /// only be deleted once the DBMS demonstrably reclaimed (rewrote)
    /// that log space. Defaults to `false`: the safe assumption.
    fn checkpoints_flush_all_dirty_pages(&self) -> bool {
        false
    }

    /// Length of the head of WAL file `path` that holds no log records:
    /// every write there classifies as [`IoClass::ControlFile`] or
    /// [`IoClass::Other`], never as [`IoClass::WalAppend`] (InnoDB keeps
    /// its file header and checkpoint blocks in the first 2 kB of
    /// `ib_logfile0`). Reboot's WAL resync leaves this range to DB
    /// objects, which carry it with the pages it vouches for. Defaults
    /// to 0.
    fn wal_header_len(&self, _path: &str) -> u64 {
        0
    }

    /// Short human-readable name ("postgres", "mysql").
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_class_is_copy_eq_hash() {
        let a = IoClass::WalAppend;
        let b = a;
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(IoClass::Other);
        assert!(set.contains(&IoClass::Other));
    }
}
