//! The database engine: transactions, checkpoints, crash recovery.
//!
//! This is the "protected system" of the reproduction — a miniature
//! WAL-based transactional store whose *on-disk behaviour* matches what
//! Ginja needs to observe from PostgreSQL or MySQL/InnoDB (§4):
//!
//! * committing writes the transaction's WAL blocks with one
//!   synchronous write per contiguous run of blocks — one intercepted
//!   "update" per log flush, unless the flush crosses a log-file
//!   boundary;
//! * table pages stay in the buffer pool until a checkpoint flushes
//!   them (periodic/full for PostgreSQL, fuzzy batches for InnoDB);
//! * a control record concludes every checkpoint and is where crash
//!   recovery starts its redo scan.

use std::sync::Arc;

use ginja_vfs::{FileSystem, FsError};
use parking_lot::Mutex;

use crate::control::ControlData;
use crate::page::Page;
use crate::pool::{BufferPool, PageId};
use crate::profile::{DbProfile, ProfileKind};
use crate::record::{WalOp, WalRecord};
use crate::table::{Catalog, TableMeta};
use crate::wal::{self, LogSpace, WalWriter, BLOCK_HEADER, FRAG_HEADER};
use crate::DbError;

/// PostgreSQL transaction-status file; writing it is the Table 1
/// "checkpoint begin" event.
pub const PG_CLOG_PATH: &str = "pg_clog/0000";

/// Operation counters exposed by [`Database::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Committed transactions.
    pub commits: u64,
    /// WAL records written (including commit markers).
    pub records_written: u64,
    /// Synchronous WAL writes issued: one per run of contiguous blocks a
    /// log flush wrote ([`WalWriter::writes`]), not one per block.
    pub wal_writes: u64,
    /// Full checkpoints completed.
    pub checkpoints: u64,
    /// Fuzzy checkpoint steps completed (MySQL profile).
    pub fuzzy_steps: u64,
    /// Table pages flushed by checkpoints.
    pub pages_flushed: u64,
    /// Checkpoints forced by circular-log pressure.
    pub forced_checkpoints: u64,
    /// Crash scans that found a torn tail block on disk, discarded it,
    /// and recovered its contents from the doublewrite journal (set by
    /// [`Database::open`]).
    pub torn_tails_truncated: u64,
}

struct Inner {
    catalog: Catalog,
    pool: BufferPool,
    wal: WalWriter,
    next_lsn: u64,
    redo_lsn: u64,
    redo_block: u64,
    ckpt_counter: u64,
    commits_since_ckpt: u64,
    stats: DbStats,
}

/// A miniature WAL-based transactional database.
///
/// All methods take `&self`; the engine is internally synchronized
/// (single-writer, as both emulated systems serialize WAL appends).
pub struct Database {
    fs: Arc<dyn FileSystem>,
    profile: DbProfile,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("profile", &self.profile.kind)
            .finish()
    }
}

/// One buffered row operation.
#[derive(Debug, Clone)]
enum TxnOp {
    Put {
        table: u32,
        key: u64,
        value: Vec<u8>,
    },
    Delete {
        table: u32,
        key: u64,
    },
}

/// A transaction: buffered operations committed atomically.
///
/// ```rust
/// # use std::sync::Arc;
/// # use ginja_db::{Database, DbProfile};
/// # use ginja_vfs::MemFs;
/// # fn main() -> Result<(), ginja_db::DbError> {
/// let db = Database::create(Arc::new(MemFs::new()), DbProfile::postgres_small())?;
/// db.create_table(1, 64)?;
/// let mut txn = db.begin();
/// txn.put(1, 10, b"row-a".to_vec());
/// txn.put(1, 11, b"row-b".to_vec());
/// txn.commit()?;
/// assert_eq!(db.get(1, 10)?.unwrap(), b"row-a");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Transaction<'db> {
    db: &'db Database,
    ops: Vec<TxnOp>,
}

impl<'db> Transaction<'db> {
    /// Buffers an insert/update.
    pub fn put(&mut self, table: u32, key: u64, value: Vec<u8>) -> &mut Self {
        self.ops.push(TxnOp::Put { table, key, value });
        self
    }

    /// Buffers a delete.
    pub fn delete(&mut self, table: u32, key: u64) -> &mut Self {
        self.ops.push(TxnOp::Delete { table, key });
        self
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commits the buffered operations atomically.
    ///
    /// # Errors
    ///
    /// Validation errors ([`DbError::TableMissing`],
    /// [`DbError::ValueTooLarge`]) are returned before anything is
    /// logged; file-system failures propagate.
    pub fn commit(self) -> Result<(), DbError> {
        self.db.commit_ops(self.ops)
    }
}

impl Database {
    /// Initializes a fresh database in `fs` and opens it.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(fs: Arc<dyn FileSystem>, profile: DbProfile) -> Result<Self, DbError> {
        let space = Self::log_space(&profile);
        match profile.kind {
            ProfileKind::Postgres => {
                // Zero-initialized transaction-status page. Synced: the
                // freshly-created cluster must survive an immediate
                // power cut, or the first crash scan finds half a
                // database.
                fs.write(PG_CLOG_PATH, 0, &vec![0u8; profile.page_size], true)?;
            }
            ProfileKind::MySql => {
                // Preallocate the circular log pair, as InnoDB does. The
                // file headers live in the first 512 bytes; offsets
                // 512/1536 of ib_logfile0 are the checkpoint blocks.
                let LogSpace::Circular {
                    ref file0,
                    ref file1,
                    segment_size,
                } = space
                else {
                    unreachable!("mysql profile uses a circular space")
                };
                let mut header = vec![0u8; 512];
                header[..8].copy_from_slice(b"GNJIBLOG");
                fs.write(file0, 0, &header, true)?;
                fs.truncate(file0, segment_size)?;
                // Synced like file0: preallocation must be durable at
                // create time, before any power cut can intervene.
                fs.write(file1, 0, &header, true)?;
                fs.truncate(file1, segment_size)?;
            }
        }

        let catalog = Catalog::new();
        catalog.write(fs.as_ref(), profile.kind)?;
        let control = ControlData {
            redo_lsn: 1,
            redo_block: 0,
            next_lsn: 1,
            counter: 0,
        };
        control.write(fs.as_ref(), profile.kind)?;

        let inner = Inner {
            catalog,
            pool: BufferPool::new(Self::pool_capacity(&profile)),
            wal: WalWriter::new(space, profile.wal_block_size),
            next_lsn: 1,
            redo_lsn: 1,
            redo_block: 0,
            ckpt_counter: 0,
            commits_since_ckpt: 0,
            stats: DbStats::default(),
        };
        Ok(Database {
            fs,
            profile,
            inner: Mutex::new(inner),
        })
    }

    /// Opens an existing database, running crash recovery: read the
    /// control record, redo the WAL from the checkpoint, discard any
    /// uncommitted tail. This is the DBMS capability Ginja's recovery
    /// relies on — "the DBMS can rebuild its state using its
    /// crash-recovery capabilities" (§4).
    ///
    /// # Errors
    ///
    /// [`DbError::RecoveryFailed`] when the on-disk state is unusable.
    pub fn open(fs: Arc<dyn FileSystem>, profile: DbProfile) -> Result<Self, DbError> {
        let space = Self::log_space(&profile);
        let catalog = Catalog::read(fs.as_ref(), profile.kind)?;
        let control = ControlData::read(fs.as_ref(), profile.kind)?;
        let scan = wal::scan(
            fs.as_ref(),
            &space,
            profile.wal_block_size,
            control.redo_block,
        )?;

        let mut pool = BufferPool::new(Self::pool_capacity(&profile));
        let mut max_lsn = 0u64;
        let mut pending: Vec<WalRecord> = Vec::new();
        for record in scan.records {
            max_lsn = max_lsn.max(record.lsn);
            match record.op {
                WalOp::Commit => {
                    for rec in pending.drain(..) {
                        Self::redo_apply(
                            fs.as_ref(),
                            &profile,
                            &catalog,
                            &mut pool,
                            rec,
                            control.redo_block,
                        )?;
                    }
                }
                _ => pending.push(record),
            }
        }
        // `pending` now holds only uncommitted trailing operations:
        // dropped, exactly as real redo discards the torn tail.

        let inner = Inner {
            catalog,
            pool,
            wal: WalWriter::resume(
                space,
                profile.wal_block_size,
                scan.resume_block,
                scan.resume_payload,
            ),
            next_lsn: control.next_lsn.max(max_lsn + 1),
            redo_lsn: control.redo_lsn,
            redo_block: control.redo_block,
            ckpt_counter: control.counter,
            commits_since_ckpt: 0,
            stats: DbStats {
                torn_tails_truncated: scan.tail_salvaged as u64,
                ..DbStats::default()
            },
        };
        Ok(Database {
            fs,
            profile,
            inner: Mutex::new(inner),
        })
    }

    fn redo_apply(
        fs: &dyn FileSystem,
        profile: &DbProfile,
        catalog: &Catalog,
        pool: &mut BufferPool,
        record: WalRecord,
        redo_block: u64,
    ) -> Result<(), DbError> {
        let (table, key, value) = match record.op {
            WalOp::Put { table, key, value } => (table, key, Some(value)),
            WalOp::Delete { table, key } => (table, key, None),
            WalOp::Commit => unreachable!("commit markers handled by caller"),
        };
        let meta = *catalog
            .table(table)
            .ok_or_else(|| DbError::RecoveryFailed(format!("wal references table {table}")))?;
        let (page_idx, slot) = meta.locate(key, profile.page_size);
        let id: PageId = (table, page_idx);
        let frame = pool.get_or_load(id, || Self::load_page(fs, profile, &meta, page_idx))?;
        // ARIES redo test: apply only if the page has not seen this LSN.
        if record.lsn > frame.page.lsn {
            match value {
                Some(v) => frame.page.set_slot(slot, key, v),
                None => frame.page.clear_slot(slot),
            }
            frame.page.lsn = record.lsn;
            pool.mark_dirty(id, record.lsn, redo_block);
        }
        Ok(())
    }

    fn load_page(
        fs: &dyn FileSystem,
        profile: &DbProfile,
        meta: &TableMeta,
        page_idx: u64,
    ) -> Result<Page, DbError> {
        let path = meta.file_path(profile.kind);
        let offset = page_idx * profile.page_size as u64;
        match fs.read(&path, offset, profile.page_size) {
            Ok(bytes) => Ok(Page::from_bytes(&bytes, meta.slot_size as usize)
                .unwrap_or_else(|_| Page::empty(meta.slots_per_page(profile.page_size)))),
            // A page that was never written is legitimately empty; any
            // other failure (EIO, injected fault) must NOT be silently
            // treated as an empty page — that turns a disk error into
            // quiet data loss.
            Err(FsError::NotFound(_)) | Err(FsError::OutOfBounds { .. }) => {
                Ok(Page::empty(meta.slots_per_page(profile.page_size)))
            }
            Err(err) => Err(err.into()),
        }
    }

    fn log_space(profile: &DbProfile) -> LogSpace {
        match profile.kind {
            ProfileKind::Postgres => LogSpace::Segmented {
                prefix: "pg_xlog/".to_string(),
                segment_size: profile.wal_segment_size,
            },
            ProfileKind::MySql => LogSpace::Circular {
                file0: "ib_logfile0".to_string(),
                file1: "ib_logfile1".to_string(),
                segment_size: profile.wal_segment_size,
            },
        }
    }

    fn pool_capacity(profile: &DbProfile) -> usize {
        // Soft cap ~64 MiB of clean pages.
        (64 << 20) / profile.page_size
    }

    /// The file system this database writes through.
    pub fn fs(&self) -> &Arc<dyn FileSystem> {
        &self.fs
    }

    /// The configured profile.
    pub fn profile(&self) -> &DbProfile {
        &self.profile
    }

    /// Registers a new table with the given slot size.
    ///
    /// DDL is made durable immediately: the catalog write is followed by
    /// a full checkpoint, so the schema change forms a complete
    /// checkpoint-begin → checkpoint-end pair at the file-system level —
    /// a DR middleware observing the I/O replicates the new catalog
    /// right away instead of holding it until the next data checkpoint.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] for duplicate ids; slot-size bounds are
    /// validated against the profile's page size.
    pub fn create_table(&self, id: u32, slot_size: usize) -> Result<(), DbError> {
        if slot_size <= crate::table::SLOT_OVERHEAD
            || slot_size > self.profile.page_size - crate::page::PAGE_HEADER
        {
            return Err(DbError::Corrupt(format!("invalid slot size {slot_size}")));
        }
        let mut inner = self.inner.lock();
        inner.catalog.add(TableMeta {
            id,
            slot_size: slot_size as u32,
        })?;
        inner.catalog.write(self.fs.as_ref(), self.profile.kind)?;
        self.full_checkpoint(&mut inner)?;
        Ok(())
    }

    /// Starts a transaction.
    pub fn begin(&self) -> Transaction<'_> {
        Transaction {
            db: self,
            ops: Vec::new(),
        }
    }

    /// Single-operation convenience: `put` in its own transaction.
    ///
    /// # Errors
    ///
    /// As [`Transaction::commit`].
    pub fn put(&self, table: u32, key: u64, value: Vec<u8>) -> Result<(), DbError> {
        let mut txn = self.begin();
        txn.put(table, key, value);
        txn.commit()
    }

    /// Single-operation convenience: `delete` in its own transaction.
    ///
    /// # Errors
    ///
    /// As [`Transaction::commit`].
    pub fn delete(&self, table: u32, key: u64) -> Result<(), DbError> {
        let mut txn = self.begin();
        txn.delete(table, key);
        txn.commit()
    }

    /// Reads the current value of `key` in `table`.
    ///
    /// # Errors
    ///
    /// [`DbError::TableMissing`] if the table does not exist.
    pub fn get(&self, table: u32, key: u64) -> Result<Option<Vec<u8>>, DbError> {
        let mut inner = self.inner.lock();
        let meta = *inner
            .catalog
            .table(table)
            .ok_or(DbError::TableMissing(table))?;
        let (page_idx, slot) = meta.locate(key, self.profile.page_size);
        let fs = self.fs.clone();
        let profile = self.profile.clone();
        let frame = inner.pool.get_or_load((table, page_idx), || {
            Self::load_page(fs.as_ref(), &profile, &meta, page_idx)
        })?;
        Ok(frame
            .page
            .slot(slot)
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v.clone()))
    }

    fn commit_ops(&self, ops: Vec<TxnOp>) -> Result<(), DbError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;

        // Validate before logging anything.
        let mut encoded_len = 0usize;
        for op in &ops {
            let (table, value_len) = match op {
                TxnOp::Put { table, value, .. } => (*table, value.len()),
                TxnOp::Delete { table, .. } => (*table, 0),
            };
            let meta = inner
                .catalog
                .table(table)
                .ok_or(DbError::TableMissing(table))?;
            if value_len > meta.value_capacity() {
                return Err(DbError::ValueTooLarge {
                    table,
                    len: value_len,
                    cap: meta.value_capacity(),
                });
            }
            encoded_len += 32 + value_len;
        }

        // Circular-log pressure: never let an append overwrite blocks
        // recovery still needs — force a checkpoint first (InnoDB's
        // behaviour when the redo log fills up).
        let block_size = self.profile.wal_block_size;
        if let Some(capacity) = inner.wal.space().capacity_blocks(block_size) {
            let payload_per_block = (block_size - BLOCK_HEADER - FRAG_HEADER) as u64;
            let txn_blocks = (encoded_len as u64 / payload_per_block) + 2;
            let used = inner.wal.current_block() - inner.redo_block;
            if used + txn_blocks + 1 >= capacity {
                self.full_checkpoint(inner)?;
                inner.stats.forced_checkpoints += 1;
            }
        }

        // Log all operations plus the commit marker, then flush once
        // (group commit: one fsync per transaction).
        let base_block = inner.wal.current_block();
        let mut logged: Vec<(u64, TxnOp)> = Vec::with_capacity(ops.len());
        for op in ops {
            let lsn = inner.next_lsn;
            inner.next_lsn += 1;
            let wal_op = match &op {
                TxnOp::Put { table, key, value } => WalOp::Put {
                    table: *table,
                    key: *key,
                    value: value.clone(),
                },
                TxnOp::Delete { table, key } => WalOp::Delete {
                    table: *table,
                    key: *key,
                },
            };
            inner.wal.append(&WalRecord { lsn, op: wal_op });
            logged.push((lsn, op));
        }
        let commit_lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.wal.append(&WalRecord {
            lsn: commit_lsn,
            op: WalOp::Commit,
        });

        inner.wal.flush(self.fs.as_ref())?;
        self.profile.io_delay.delay_commit_flush();

        // Apply to the buffer pool.
        for (lsn, op) in logged {
            let (table, key, value) = match op {
                TxnOp::Put { table, key, value } => (table, key, Some(value)),
                TxnOp::Delete { table, key } => (table, key, None),
            };
            let meta = *inner.catalog.table(table).expect("validated above");
            let (page_idx, slot) = meta.locate(key, self.profile.page_size);
            let id: PageId = (table, page_idx);
            let fs = self.fs.clone();
            let profile = self.profile.clone();
            let frame = inner.pool.get_or_load(id, || {
                Self::load_page(fs.as_ref(), &profile, &meta, page_idx)
            })?;
            match value {
                Some(v) => frame.page.set_slot(slot, key, v),
                None => frame.page.clear_slot(slot),
            }
            frame.page.lsn = lsn;
            inner.pool.mark_dirty(id, lsn, base_block);
        }

        inner.stats.commits += 1;
        inner.stats.records_written += inner.next_lsn - commit_lsn + 1;
        inner.commits_since_ckpt += 1;

        // Automatic checkpointing.
        if let Some(every) = self.profile.checkpoint_every_commits {
            if inner.commits_since_ckpt >= every {
                inner.commits_since_ckpt = 0;
                match self.profile.kind {
                    ProfileKind::Postgres => self.full_checkpoint(inner)?,
                    ProfileKind::MySql => {
                        self.fuzzy_step(inner)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Flushes all dirty pages and writes a control record — a full
    /// (sharp) checkpoint. For PostgreSQL this is the normal checkpoint;
    /// for MySQL it models the pressure-forced sharp checkpoint.
    fn full_checkpoint(&self, inner: &mut Inner) -> Result<(), DbError> {
        if self.profile.kind == ProfileKind::Postgres {
            self.write_clog(inner)?;
        }
        let dirty = inner.pool.dirty_ids_oldest_first();
        let flushed = dirty.len();
        for id in dirty {
            self.flush_page(inner, id)?;
        }
        self.profile.io_delay.delay_page_flush(flushed);

        inner.redo_block = inner.wal.current_block();
        inner.redo_lsn = inner.next_lsn;
        inner.ckpt_counter += 1;
        let control = ControlData {
            redo_lsn: inner.redo_lsn,
            redo_block: inner.redo_block,
            next_lsn: inner.next_lsn,
            counter: inner.ckpt_counter,
        };
        control.write(self.fs.as_ref(), self.profile.kind)?;

        if self.profile.kind == ProfileKind::Postgres {
            inner.wal.space().clone().delete_segments_before(
                self.fs.as_ref(),
                inner.redo_block,
                self.profile.wal_block_size,
            )?;
        }

        inner.stats.checkpoints += 1;
        inner.stats.pages_flushed += flushed as u64;
        Ok(())
    }

    /// One fuzzy checkpoint step (MySQL profile): flush a small batch of
    /// the oldest dirty pages, advance the checkpoint header. Returns
    /// whether dirty pages remain.
    fn fuzzy_step(&self, inner: &mut Inner) -> Result<bool, DbError> {
        let batch: Vec<PageId> = inner
            .pool
            .dirty_ids_oldest_first()
            .into_iter()
            .take(self.profile.fuzzy_batch_pages)
            .collect();
        let flushed = batch.len();
        for id in batch {
            self.flush_page(inner, id)?;
        }
        self.profile.io_delay.delay_page_flush(flushed);

        let (redo_block, redo_lsn) = inner
            .pool
            .oldest_dirty()
            .unwrap_or((inner.wal.current_block(), inner.next_lsn));
        inner.redo_block = redo_block;
        inner.redo_lsn = redo_lsn;
        inner.ckpt_counter += 1;
        let control = ControlData {
            redo_lsn,
            redo_block,
            next_lsn: inner.next_lsn,
            counter: inner.ckpt_counter,
        };
        control.write(self.fs.as_ref(), self.profile.kind)?;

        inner.stats.fuzzy_steps += 1;
        inner.stats.pages_flushed += flushed as u64;
        Ok(inner.pool.dirty_count() > 0)
    }

    fn write_clog(&self, inner: &Inner) -> Result<(), DbError> {
        // A page of transaction-status bits; content is a stamp of the
        // current commit count (enough for the I/O pattern).
        let mut page = vec![0u8; self.profile.page_size];
        page[..8].copy_from_slice(&inner.stats.commits.to_le_bytes());
        self.fs.write(PG_CLOG_PATH, 0, &page, true)?;
        Ok(())
    }

    fn flush_page(&self, inner: &mut Inner, id: PageId) -> Result<(), DbError> {
        let (table, page_idx) = id;
        let meta = *inner
            .catalog
            .table(table)
            .expect("dirty page of unknown table");
        let Some(frame) = inner.pool.get(&id) else {
            return Ok(());
        };
        let bytes = frame
            .page
            .to_bytes(self.profile.page_size, meta.slot_size as usize);
        let path = meta.file_path(self.profile.kind);
        self.fs.write(
            &path,
            page_idx * self.profile.page_size as u64,
            &bytes,
            true,
        )?;
        inner.pool.mark_clean(&id);
        Ok(())
    }

    /// Runs a full checkpoint (both profiles).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let mut inner = self.inner.lock();
        self.full_checkpoint(&mut inner)
    }

    /// Runs one checkpoint step: a full checkpoint for PostgreSQL, a
    /// fuzzy batch for MySQL. Returns whether dirty pages remain.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn checkpoint_step(&self) -> Result<bool, DbError> {
        let mut inner = self.inner.lock();
        match self.profile.kind {
            ProfileKind::Postgres => {
                self.full_checkpoint(&mut inner)?;
                Ok(false)
            }
            ProfileKind::MySql => self.fuzzy_step(&mut inner),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> DbStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        stats.wal_writes = inner.wal.writes();
        stats
    }

    /// Number of dirty pages in the buffer pool.
    pub fn dirty_pages(&self) -> usize {
        self.inner.lock().pool.dirty_count()
    }

    /// Total size in bytes of the database (non-WAL) files on disk.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn db_size_bytes(&self) -> Result<u64, DbError> {
        let inner = self.inner.lock();
        let mut total = 0u64;
        let mut paths = vec![Catalog::path(self.profile.kind).to_string()];
        for meta in inner.catalog.iter() {
            paths.push(meta.file_path(self.profile.kind));
        }
        if self.profile.kind == ProfileKind::Postgres {
            paths.push(PG_CLOG_PATH.to_string());
            paths.push(crate::control::PG_CONTROL_PATH.to_string());
        }
        for path in paths {
            if let Ok(len) = self.fs.len(&path) {
                total += len;
            }
        }
        Ok(total)
    }

    /// Ids of all tables, ascending.
    pub fn tables(&self) -> Vec<u32> {
        self.inner.lock().catalog.iter().map(|m| m.id).collect()
    }

    /// All rows of `table`, sorted by key — for test verification.
    ///
    /// # Errors
    ///
    /// [`DbError::TableMissing`] if the table does not exist.
    pub fn dump_table(&self, table: u32) -> Result<Vec<(u64, Vec<u8>)>, DbError> {
        let mut inner = self.inner.lock();
        let meta = *inner
            .catalog
            .table(table)
            .ok_or(DbError::TableMissing(table))?;
        let path = meta.file_path(self.profile.kind);
        let disk_pages = self
            .fs
            .len(&path)
            .map(|len| len.div_ceil(self.profile.page_size as u64))
            .unwrap_or(0);
        let pool_pages = inner.pool.max_page_index(table).map_or(0, |p| p + 1);
        let total_pages = disk_pages.max(pool_pages);

        let mut rows = Vec::new();
        for page_idx in 0..total_pages {
            let fs = self.fs.clone();
            let profile = self.profile.clone();
            let frame = inner.pool.get_or_load((table, page_idx), || {
                Self::load_page(fs.as_ref(), &profile, &meta, page_idx)
            })?;
            for (key, value) in frame.page.iter() {
                rows.push((*key, value.clone()));
            }
        }
        rows.sort_by_key(|(k, _)| *k);
        Ok(rows)
    }

    /// Simulates a crash: volatile state (buffer pool, WAL tail buffer)
    /// is dropped; only what reached the file system survives. Returns
    /// the file system for a subsequent [`Database::open`].
    pub fn crash(self) -> Arc<dyn FileSystem> {
        self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_vfs::{InterceptFs, IoProcessor, MemFs, WriteEvent};

    fn fresh(profile: DbProfile) -> Database {
        let db = Database::create(Arc::new(MemFs::new()), profile).unwrap();
        db.create_table(1, 64).unwrap();
        db
    }

    fn val(i: u64) -> Vec<u8> {
        format!("value-{i:06}").into_bytes()
    }

    #[test]
    fn put_get_roundtrip_both_profiles() {
        for profile in [DbProfile::postgres_small(), DbProfile::mysql_small()] {
            let db = fresh(profile);
            db.put(1, 5, val(5)).unwrap();
            assert_eq!(db.get(1, 5).unwrap().unwrap(), val(5));
            assert_eq!(db.get(1, 6).unwrap(), None);
        }
    }

    #[test]
    fn overwrite_and_delete() {
        let db = fresh(DbProfile::postgres_small());
        db.put(1, 5, val(1)).unwrap();
        db.put(1, 5, val(2)).unwrap();
        assert_eq!(db.get(1, 5).unwrap().unwrap(), val(2));
        db.delete(1, 5).unwrap();
        assert_eq!(db.get(1, 5).unwrap(), None);
    }

    #[test]
    fn multi_op_transaction_atomic() {
        let db = fresh(DbProfile::postgres_small());
        let mut txn = db.begin();
        txn.put(1, 1, val(1)).put(1, 2, val(2)).delete(1, 99);
        assert_eq!(txn.len(), 3);
        txn.commit().unwrap();
        assert_eq!(db.get(1, 1).unwrap().unwrap(), val(1));
        assert_eq!(db.stats().commits, 1);
    }

    #[test]
    fn empty_transaction_is_noop() {
        let db = fresh(DbProfile::postgres_small());
        db.begin().commit().unwrap();
        assert_eq!(db.stats().commits, 0);
        assert_eq!(db.stats().wal_writes, 0);
    }

    #[test]
    fn missing_table_rejected() {
        let db = fresh(DbProfile::postgres_small());
        assert!(matches!(
            db.put(9, 1, val(1)),
            Err(DbError::TableMissing(9))
        ));
        assert!(matches!(db.get(9, 1), Err(DbError::TableMissing(9))));
    }

    #[test]
    fn oversized_value_rejected_before_logging() {
        let db = fresh(DbProfile::postgres_small());
        let writes_before = db.stats().wal_writes;
        assert!(matches!(
            db.put(1, 1, vec![0u8; 100]),
            Err(DbError::ValueTooLarge { .. })
        ));
        assert_eq!(db.stats().wal_writes, writes_before);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = fresh(DbProfile::postgres_small());
        assert!(matches!(
            db.create_table(1, 64),
            Err(DbError::TableExists(1))
        ));
    }

    #[test]
    fn invalid_slot_size_rejected() {
        let db = fresh(DbProfile::postgres_small());
        assert!(db.create_table(2, 4).is_err());
        assert!(db.create_table(2, 100_000).is_err());
    }

    #[test]
    fn crash_without_checkpoint_recovers_committed_data() {
        for profile in [DbProfile::postgres_small(), DbProfile::mysql_small()] {
            let db = fresh(profile.clone());
            for i in 0..50 {
                db.put(1, i, val(i)).unwrap();
            }
            let fs = db.crash();
            let db = Database::open(fs, profile).unwrap();
            for i in 0..50 {
                assert_eq!(db.get(1, i).unwrap().unwrap(), val(i), "key {i}");
            }
        }
    }

    #[test]
    fn crash_after_checkpoint_recovers() {
        for profile in [DbProfile::postgres_small(), DbProfile::mysql_small()] {
            let db = fresh(profile.clone());
            for i in 0..30 {
                db.put(1, i, val(i)).unwrap();
            }
            db.checkpoint().unwrap();
            for i in 30..60 {
                db.put(1, i, val(i)).unwrap();
            }
            let fs = db.crash();
            let db = Database::open(fs, profile).unwrap();
            for i in 0..60 {
                assert_eq!(db.get(1, i).unwrap().unwrap(), val(i), "key {i}");
            }
        }
    }

    #[test]
    fn recovery_is_idempotent() {
        let profile = DbProfile::postgres_small();
        let db = fresh(profile.clone());
        for i in 0..20 {
            db.put(1, i, val(i)).unwrap();
        }
        let fs = db.crash();
        let db = Database::open(fs, profile.clone()).unwrap();
        let fs = db.crash();
        let db = Database::open(fs, profile).unwrap();
        for i in 0..20 {
            assert_eq!(db.get(1, i).unwrap().unwrap(), val(i));
        }
    }

    #[test]
    fn updates_after_recovery_work() {
        let profile = DbProfile::mysql_small();
        let db = fresh(profile.clone());
        db.put(1, 1, val(1)).unwrap();
        let fs = db.crash();
        let db = Database::open(fs, profile.clone()).unwrap();
        db.put(1, 2, val(2)).unwrap();
        db.put(1, 1, val(100)).unwrap();
        let fs = db.crash();
        let db = Database::open(fs, profile).unwrap();
        assert_eq!(db.get(1, 1).unwrap().unwrap(), val(100));
        assert_eq!(db.get(1, 2).unwrap().unwrap(), val(2));
    }

    #[test]
    fn checkpoint_cleans_dirty_pages() {
        let db = fresh(DbProfile::postgres_small());
        for i in 0..20 {
            db.put(1, i * 10, val(i)).unwrap();
        }
        assert!(db.dirty_pages() > 0);
        db.checkpoint().unwrap();
        assert_eq!(db.dirty_pages(), 0);
        assert!(db.stats().pages_flushed > 0);
    }

    #[test]
    fn fuzzy_steps_drain_gradually() {
        let mut profile = DbProfile::mysql_small();
        profile.fuzzy_batch_pages = 2;
        let db = Database::create(Arc::new(MemFs::new()), profile).unwrap();
        db.create_table(1, 64).unwrap();
        // Touch many distinct pages.
        for i in 0..20 {
            db.put(1, i * 1000, val(i)).unwrap();
        }
        let initial_dirty = db.dirty_pages();
        assert!(initial_dirty >= 10);
        let more = db.checkpoint_step().unwrap();
        assert!(more);
        assert_eq!(db.dirty_pages(), initial_dirty - 2);
        // Drain fully.
        while db.checkpoint_step().unwrap() {}
        assert_eq!(db.dirty_pages(), 0);
        assert!(db.stats().fuzzy_steps >= 10);
    }

    #[test]
    fn auto_checkpoint_by_commit_count() {
        let profile = DbProfile::postgres_small().with_checkpoint_every(10);
        let db = Database::create(Arc::new(MemFs::new()), profile).unwrap();
        db.create_table(1, 64).unwrap(); // DDL itself checkpoints once
        for i in 0..25 {
            db.put(1, i, val(i)).unwrap();
        }
        assert_eq!(db.stats().checkpoints, 3);
    }

    #[test]
    fn circular_log_pressure_forces_checkpoint() {
        // 64 kB circular pair with 512-byte blocks: fills quickly.
        let mut profile = DbProfile::mysql_small();
        profile.wal_segment_size = 64 * 1024;
        let db = Database::create(Arc::new(MemFs::new()), profile.clone()).unwrap();
        db.create_table(1, 64).unwrap();
        for i in 0..3000 {
            db.put(1, i % 100, val(i)).unwrap();
        }
        assert!(db.stats().forced_checkpoints > 0);
        // And the data survives a crash despite the wraps.
        let fs = db.crash();
        let db = Database::open(fs, profile).unwrap();
        assert_eq!(db.get(1, 42).unwrap().unwrap(), val(2942));
    }

    #[test]
    fn pg_old_segments_deleted_after_checkpoint() {
        let mut profile = DbProfile::postgres_small();
        profile.wal_segment_size = 16 * 1024;
        let db = Database::create(Arc::new(MemFs::new()), profile).unwrap();
        db.create_table(1, 64).unwrap();
        for i in 0..2000 {
            db.put(1, i % 50, val(i)).unwrap();
        }
        let fs = db.fs().clone();
        let segs_before = fs.list("pg_xlog/").unwrap().len();
        db.checkpoint().unwrap();
        let segs_after = fs.list("pg_xlog/").unwrap().len();
        assert!(segs_after < segs_before, "{segs_before} -> {segs_after}");
    }

    #[test]
    fn dump_table_merges_disk_and_pool() {
        let db = fresh(DbProfile::postgres_small());
        for i in 0..10 {
            db.put(1, i, val(i)).unwrap();
        }
        db.checkpoint().unwrap();
        for i in 10..15 {
            db.put(1, i, val(i)).unwrap();
        }
        let rows = db.dump_table(1).unwrap();
        assert_eq!(rows.len(), 15);
        assert_eq!(rows[0], (0, val(0)));
        assert_eq!(rows[14], (14, val(14)));
    }

    #[test]
    fn db_size_grows_with_checkpointed_data() {
        let db = fresh(DbProfile::postgres_small());
        let before = db.db_size_bytes().unwrap();
        for i in 0..100 {
            db.put(1, i, val(i)).unwrap();
        }
        db.checkpoint().unwrap();
        let after = db.db_size_bytes().unwrap();
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn stats_track_activity() {
        let db = fresh(DbProfile::postgres_small());
        db.put(1, 1, val(1)).unwrap();
        db.put(1, 2, val(2)).unwrap();
        let s = db.stats();
        assert_eq!(s.commits, 2);
        assert!(s.wal_writes >= 2);
        assert!(s.records_written >= 4);
    }

    #[test]
    fn tables_and_row_count() {
        let db = fresh(DbProfile::postgres_small());
        db.create_table(9, 64).unwrap();
        assert_eq!(db.tables(), vec![1, 9]);
        assert_eq!(db.dump_table(1).unwrap().len(), 0);
        db.put(1, 3, val(3)).unwrap();
        db.put(1, 4, val(4)).unwrap();
        db.delete(1, 3).unwrap();
        assert_eq!(db.dump_table(1).unwrap().len(), 1);
        assert!(matches!(db.dump_table(7), Err(DbError::TableMissing(7))));
    }

    #[test]
    fn values_at_capacity_accepted() {
        let db = fresh(DbProfile::postgres_small());
        let cap = 64 - crate::table::SLOT_OVERHEAD;
        db.put(1, 1, vec![7u8; cap]).unwrap();
        assert_eq!(db.get(1, 1).unwrap().unwrap().len(), cap);
    }

    /// Every write an [`InterceptFs`] saw, in order.
    #[derive(Default)]
    struct Writes(Mutex<Vec<WriteEvent>>);

    impl IoProcessor for Writes {
        fn on_write(&self, event: &WriteEvent) {
            self.0.lock().push(event.clone());
        }
    }

    fn copy_of(fs: &dyn FileSystem) -> MemFs {
        let copy = MemFs::new();
        for path in fs.list("").unwrap() {
            copy.create(&path).unwrap();
            copy.write(&path, 0, &fs.read_all(&path).unwrap(), true)
                .unwrap();
        }
        copy
    }

    fn rows_of(fs: MemFs, profile: &DbProfile) -> Vec<(u64, Vec<u8>)> {
        Database::open(Arc::new(fs), profile.clone())
            .unwrap()
            .dump_table(1)
            .unwrap()
    }

    /// Commits small transactions until the log tail is a partial block
    /// `tail` that is already on disk, and returns the disk image.
    fn log_with_tail_at(profile: &DbProfile, tail: u64) -> MemFs {
        let fs = Arc::new(MemFs::new());
        let db = Database::create(fs.clone(), profile.clone()).unwrap();
        let value_len = profile.wal_block_size / 5;
        db.create_table(1, value_len + crate::table::SLOT_OVERHEAD)
            .unwrap();
        let mut i = 0;
        while db.inner.lock().wal.current_block() < tail {
            db.put(1, i % 40, vec![i as u8; value_len]).unwrap();
            i += 1;
        }
        copy_of(fs.as_ref())
    }

    /// Commits one transaction of `puts` rows, a fifth of a log block
    /// each, over a copy of `disk`. Returns the copy, the writes the
    /// commit issued and the log tail after it.
    fn commit_rows(disk: &MemFs, profile: &DbProfile, puts: u64) -> (MemFs, Vec<WriteEvent>, u64) {
        let writes = Arc::new(Writes::default());
        let fs = Arc::new(InterceptFs::new(copy_of(disk), writes.clone()));
        let db = Database::open(fs.clone(), profile.clone()).unwrap();
        let value_len = profile.wal_block_size / 5;
        let mut txn = db.begin();
        for i in 0..puts {
            txn.put(1, 100 + i, vec![0xA0 + i as u8; value_len]);
        }
        txn.commit().unwrap();
        let tail = db.inner.lock().wal.current_block();
        let events = writes.0.lock().clone();
        (copy_of(fs.as_ref()), events, tail)
    }

    /// Tears a five-block coalesced log flush after every sector of
    /// every write it issues — the sector-prefix tear of
    /// `JournaledFs::power_cut_torn`, enumerated — and checks that crash
    /// recovery finds exactly the commits acknowledged before the flush,
    /// plus the flush's own commit only once all of its runs landed.
    /// `tail` places the flush: block 2 keeps it in one log file, the
    /// last block of the first file (a PostgreSQL segment end, InnoDB's
    /// `ib_logfile0` → `ib_logfile1` wrap) cuts it in two runs.
    fn tear_every_sector(profile: &DbProfile, tail: u64) {
        let before = log_with_tail_at(profile, tail);
        let acked = rows_of(copy_of(&before), profile);

        // The smallest transaction whose flush spans five blocks: the
        // partial tail on disk (rewritten in place), three full blocks
        // and a new partial tail.
        let (flushed, writes) = (1..)
            .map(|puts| commit_rows(&before, profile, puts))
            .find_map(|(fs, writes, end)| (end == tail + 4).then_some((fs, writes)))
            .unwrap();
        let committed = rows_of(flushed, profile);
        assert_ne!(committed, acked);

        let (journal, runs) = writes.split_first().unwrap();
        assert_eq!(&*journal.path, wal::TAIL_JOURNAL_PATH, "{profile:?}");
        let block = profile.wal_block_size;
        let run_blocks: Vec<usize> = runs.iter().map(|run| run.len() / block).collect();
        let space = Database::log_space(profile);
        if space.locate(tail + 1, block).0 == space.locate(tail, block).0 {
            assert_eq!(run_blocks, [5], "{profile:?}");
        } else {
            assert_eq!(run_blocks, [1, 4], "{profile:?}");
        }

        let sector = ginja_vfs::DEFAULT_SECTOR_SIZE;
        for (torn, write) in writes.iter().enumerate() {
            for kept in 0..=write.len().div_ceil(sector) {
                let crashed = copy_of(&before);
                for landed in &writes[..torn] {
                    crashed
                        .write(&landed.path, landed.offset, &landed.data, true)
                        .unwrap();
                }
                let prefix = &write.data[..write.len().min(kept * sector)];
                crashed
                    .write(&write.path, write.offset, prefix, true)
                    .unwrap();
                let landed = torn == writes.len() - 1 && prefix.len() == write.len();
                let expected = if landed { &committed } else { &acked };
                assert_eq!(
                    &rows_of(crashed, profile),
                    expected,
                    "{:?}: write {torn} of {} torn after {kept} sectors",
                    profile.kind,
                    writes.len()
                );
            }
        }
    }

    #[test]
    fn torn_coalesced_flush_recovers_the_acknowledged_prefix() {
        for profile in [DbProfile::postgres_small(), DbProfile::mysql_small()] {
            tear_every_sector(&profile, 2);
            let space = Database::log_space(&profile);
            let block = profile.wal_block_size;
            let last_of_first_file = (0..)
                .find(|&no| space.locate(no + 1, block).0 != space.locate(0, block).0)
                .unwrap();
            tear_every_sector(&profile, last_of_first_file);
        }
    }

    #[test]
    fn uncommitted_tail_discarded_on_recovery() {
        // Write a valid committed txn, then hand-append a put record
        // without a commit marker; recovery must drop it.
        let profile = DbProfile::postgres_small();
        let db = fresh(profile.clone());
        db.put(1, 1, val(1)).unwrap();
        let fs = db.crash();

        // Forge an uncommitted record at the log tail.
        {
            let space = Database::log_space(&profile);
            let scan = wal::scan(fs.as_ref(), &space, profile.wal_block_size, 0).unwrap();
            let mut w = WalWriter::resume(
                space,
                profile.wal_block_size,
                scan.resume_block,
                scan.resume_payload,
            );
            w.append(&WalRecord {
                lsn: 999,
                op: WalOp::Put {
                    table: 1,
                    key: 77,
                    value: val(77),
                },
            });
            w.flush(fs.as_ref()).unwrap();
        }

        let db = Database::open(fs, profile).unwrap();
        assert_eq!(db.get(1, 1).unwrap().unwrap(), val(1));
        assert_eq!(db.get(1, 77).unwrap(), None, "uncommitted record applied");
    }
}
