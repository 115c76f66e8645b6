use crate::{DbmsProcessor, IoClass, WriteEvent};

/// Offset of the first InnoDB checkpoint header block in `ib_logfile0`.
pub const CHECKPOINT_1_OFFSET: u64 = 512;

/// Offset of the second InnoDB checkpoint header block in `ib_logfile0`.
pub const CHECKPOINT_2_OFFSET: u64 = 1536;

/// First byte of actual redo-log records (after the 4 × 512 B header
/// blocks: file header, checkpoint 1, reserved, checkpoint 2).
pub const LOG_RECORDS_START: u64 = 2048;

/// Table 1 classification rules for MySQL/InnoDB.
///
/// "MySQL/InnoDB writes all committed transactions to an ib_logfile
/// file (in pages of 512 bytes), and executes checkpoints quite
/// differently from PostgreSQL … the system can flush modified database
/// pages (of 16kB) to their respective files at any moment, in small
/// batches. This mechanism is known as fuzzy checkpoint" (§4).
///
/// | Event | Detection |
/// |---|---|
/// | Update commit | sync. write to an `ib_logfile` (except the header of `ib_logfile0`) |
/// | Checkpoint begin | sync. write to a data file (`ibdata`, `.ibd`, `.frm`) |
/// | Checkpoint end | sync. write at offset 512 and/or 1536 of `ib_logfile0` |
#[derive(Debug, Clone)]
pub struct MySqlProcessor {
    log_prefix: String,
    first_log: String,
}

impl Default for MySqlProcessor {
    fn default() -> Self {
        Self::new()
    }
}

impl MySqlProcessor {
    /// The standard MySQL 5.7 data-directory layout.
    pub fn new() -> Self {
        MySqlProcessor {
            log_prefix: "ib_logfile".to_string(),
            first_log: "ib_logfile0".to_string(),
        }
    }

    fn touches_checkpoint_block(&self, event: &WriteEvent) -> bool {
        // A write "at offset 512 and/or 1536" — accept any write whose
        // range covers either checkpoint block start.
        let start = event.offset;
        let end = event.end();
        (start <= CHECKPOINT_1_OFFSET && CHECKPOINT_1_OFFSET < end)
            || (start <= CHECKPOINT_2_OFFSET && CHECKPOINT_2_OFFSET < end)
    }
}

impl DbmsProcessor for MySqlProcessor {
    fn classify(&self, event: &WriteEvent) -> IoClass {
        if !event.sync {
            return IoClass::Other;
        }
        if event.path.starts_with(&self.log_prefix) {
            if *event.path == *self.first_log {
                if self.touches_checkpoint_block(event) {
                    return IoClass::ControlFile;
                }
                if event.offset < LOG_RECORDS_START {
                    // "Except the header of the ib_logfile0" (Table 1 note).
                    return IoClass::Other;
                }
            }
            return IoClass::WalAppend;
        }
        if self.is_db_file(&event.path) {
            return IoClass::DataFile;
        }
        IoClass::Other
    }

    fn wal_prefix(&self) -> &str {
        &self.log_prefix
    }

    fn is_db_file(&self, path: &str) -> bool {
        path.starts_with("ibdata") || path.ends_with(".ibd") || path.ends_with(".frm")
    }

    fn wal_header_len(&self, path: &str) -> u64 {
        if *path == *self.first_log {
            LOG_RECORDS_START
        } else {
            0
        }
    }

    fn name(&self) -> &str {
        "mysql"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn event(path: &str, offset: u64, len: usize, sync: bool) -> WriteEvent {
        WriteEvent {
            path: path.into(),
            offset,
            data: Arc::from(vec![0u8; len].as_slice()),
            sync,
        }
    }

    #[test]
    fn log_record_writes_are_update_commits() {
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("ib_logfile0", 2048, 512, true)),
            IoClass::WalAppend
        );
        assert_eq!(
            p.classify(&event("ib_logfile0", 81920, 512, true)),
            IoClass::WalAppend
        );
        assert_eq!(
            p.classify(&event("ib_logfile1", 0, 512, true)),
            IoClass::WalAppend
        );
    }

    #[test]
    fn checkpoint_blocks_are_control_writes() {
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("ib_logfile0", 512, 512, true)),
            IoClass::ControlFile
        );
        assert_eq!(
            p.classify(&event("ib_logfile0", 1536, 512, true)),
            IoClass::ControlFile
        );
    }

    #[test]
    fn write_covering_checkpoint_block_is_control() {
        let p = MySqlProcessor::new();
        // A 1 KiB write starting at 0 covers the checkpoint-1 block.
        assert_eq!(
            p.classify(&event("ib_logfile0", 0, 1024, true)),
            IoClass::ControlFile
        );
    }

    #[test]
    fn header_of_first_log_is_ignored() {
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("ib_logfile0", 0, 512, true)),
            IoClass::Other
        );
        assert_eq!(
            p.classify(&event("ib_logfile0", 1024, 512, true)),
            IoClass::Other
        );
    }

    #[test]
    fn wal_header_is_the_head_that_never_classifies_as_wal() {
        let p = MySqlProcessor::new();
        assert_eq!(p.wal_header_len("ib_logfile0"), LOG_RECORDS_START);
        assert_eq!(p.wal_header_len("ib_logfile1"), 0);
        for offset in (0..LOG_RECORDS_START).step_by(512) {
            let class = p.classify(&event("ib_logfile0", offset, 512, true));
            assert_ne!(class, IoClass::WalAppend, "offset {offset}");
        }
        assert_eq!(
            p.classify(&event("ib_logfile0", LOG_RECORDS_START, 512, true)),
            IoClass::WalAppend
        );
    }

    #[test]
    fn header_offsets_of_second_log_are_commits() {
        // Only ib_logfile0 carries checkpoint headers; ib_logfile1 at the
        // same offsets is ordinary log content.
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("ib_logfile1", 512, 512, true)),
            IoClass::WalAppend
        );
    }

    #[test]
    fn data_file_writes_are_checkpoint_data() {
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("ibdata1", 16384, 16384, true)),
            IoClass::DataFile
        );
        assert_eq!(
            p.classify(&event("tpcc/stock.ibd", 0, 16384, true)),
            IoClass::DataFile
        );
        assert_eq!(
            p.classify(&event("tpcc/stock.frm", 0, 1024, true)),
            IoClass::DataFile
        );
    }

    #[test]
    fn async_writes_ignored() {
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("ib_logfile0", 4096, 512, false)),
            IoClass::Other
        );
        assert_eq!(
            p.classify(&event("ibdata1", 0, 16384, false)),
            IoClass::Other
        );
    }

    #[test]
    fn unrelated_files_ignored() {
        let p = MySqlProcessor::new();
        assert_eq!(
            p.classify(&event("mysql-bin.000001", 0, 128, true)),
            IoClass::Other
        );
        assert_eq!(
            p.classify(&event("ib_buffer_pool", 0, 128, true)),
            IoClass::Other
        );
    }

    #[test]
    fn db_file_predicate() {
        let p = MySqlProcessor::new();
        assert!(p.is_db_file("ibdata1"));
        assert!(p.is_db_file("db/orders.ibd"));
        assert!(p.is_db_file("db/orders.frm"));
        assert!(!p.is_db_file("ib_logfile0"));
    }

    #[test]
    fn exposed_metadata() {
        assert_eq!(MySqlProcessor::new().wal_prefix(), "ib_logfile");
        assert_eq!(MySqlProcessor::new().name(), "mysql");
    }
}
