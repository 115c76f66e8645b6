//! Write-ahead log: block framing, segmented (PostgreSQL) and circular
//! (InnoDB) log spaces, appending and crash-scan.
//!
//! The log is a stream of fixed-size **blocks** (8 kB for the PostgreSQL
//! profile, 512 B for InnoDB — the "page" granularity of WAL I/O from
//! §4). Each block carries a monotonically increasing block number and a
//! CRC so that a crash scan can find the exact durable frontier. Records
//! are carried as fragments and may span blocks.
//!
//! A partially-filled tail block is (re)written on every flush — this is
//! why the paper observes that WAL "pages are overwritten with more
//! updates" and why Ginja's aggregation (Algorithm 2) coalesces them.

use ginja_vfs::FileSystem;

use crate::crc::crc32;
use crate::record::WalRecord;
use crate::DbError;

/// Per-block header: block number (8) + payload length (2) + CRC (4).
pub const BLOCK_HEADER: usize = 14;

/// Per-fragment header: flags (1) + length (2).
pub const FRAG_HEADER: usize = 3;

/// Bytes reserved at the head of each circular log file (file header +
/// two checkpoint blocks + one spare, as in InnoDB).
pub const CIRCULAR_RESERVED: u64 = 2048;

/// Doublewrite journal for in-place tail-block rewrites.
///
/// Rewriting the partially-filled tail block is the one WAL write that
/// can *lose already-acknowledged records* if it tears: the old block
/// contents (acked) and the new contents (acked + fresh) are mixed, the
/// CRC fails, and a crash scan stops one block early. Before any such
/// rewrite the writer persists `[block number (8 LE)][serialized
/// block]` here with a synchronous write — InnoDB's doublewrite buffer,
/// scoped to the single page that needs it. [`scan`] salvages the block
/// from this file when the on-disk copy fails to parse.
///
/// Lives at the data-directory root so both I/O processors classify
/// writes to it as `IoClass::Other` (it is redundant with the WAL
/// content Ginja already captures).
pub const TAIL_JOURNAL_PATH: &str = "wal_tail.journal";

const FLAG_FIRST: u8 = 0b01;
const FLAG_LAST: u8 = 0b10;

/// How WAL block numbers map onto files.
#[derive(Debug, Clone, PartialEq)]
pub enum LogSpace {
    /// PostgreSQL style: an unbounded series of fixed-size segment
    /// files named `<prefix><24-hex segment index>`.
    Segmented {
        /// Directory-style prefix, e.g. `pg_xlog/`.
        prefix: String,
        /// Segment file size in bytes (multiple of the block size).
        segment_size: u64,
    },
    /// InnoDB style: a fixed pair of preallocated files written
    /// circularly, with [`CIRCULAR_RESERVED`] header bytes in each.
    Circular {
        /// First log file (also holds the checkpoint headers).
        file0: String,
        /// Second log file.
        file1: String,
        /// Size of each file in bytes.
        segment_size: u64,
    },
}

impl LogSpace {
    /// Maps a global block number to `(file, byte offset)`.
    pub fn locate(&self, block_no: u64, block_size: usize) -> (String, u64) {
        let bs = block_size as u64;
        match self {
            LogSpace::Segmented {
                prefix,
                segment_size,
            } => {
                let global = block_no * bs;
                let seg = global / segment_size;
                let off = global % segment_size;
                (format!("{prefix}{seg:024X}"), off)
            }
            LogSpace::Circular {
                file0,
                file1,
                segment_size,
            } => {
                let per_file = (segment_size - CIRCULAR_RESERVED) / bs;
                let idx = block_no % (2 * per_file);
                if idx < per_file {
                    (file0.clone(), CIRCULAR_RESERVED + idx * bs)
                } else {
                    (file1.clone(), CIRCULAR_RESERVED + (idx - per_file) * bs)
                }
            }
        }
    }

    /// Number of blocks the space can hold before wrapping, or `None`
    /// for an unbounded (segmented) space.
    pub fn capacity_blocks(&self, block_size: usize) -> Option<u64> {
        match self {
            LogSpace::Segmented { .. } => None,
            LogSpace::Circular { segment_size, .. } => {
                Some(2 * ((segment_size - CIRCULAR_RESERVED) / block_size as u64))
            }
        }
    }

    /// Segment index holding `block_no` (segmented spaces only).
    pub fn segment_of(&self, block_no: u64, block_size: usize) -> Option<u64> {
        match self {
            LogSpace::Segmented { segment_size, .. } => {
                Some(block_no * block_size as u64 / segment_size)
            }
            LogSpace::Circular { .. } => None,
        }
    }

    /// Deletes segment files that lie entirely before `redo_block`
    /// (PostgreSQL recycles/cleans old `pg_xlog` segments after a
    /// checkpoint). No-op for circular spaces.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn delete_segments_before(
        &self,
        fs: &dyn FileSystem,
        redo_block: u64,
        block_size: usize,
    ) -> Result<usize, DbError> {
        let LogSpace::Segmented { prefix, .. } = self else {
            return Ok(0);
        };
        let Some(live_seg) = self.segment_of(redo_block, block_size) else {
            return Ok(0);
        };
        let mut deleted = 0;
        for file in fs.list(prefix)? {
            let Some(hex) = file.strip_prefix(prefix.as_str()) else {
                continue;
            };
            let Ok(seg) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            if seg < live_seg {
                fs.delete(&file)?;
                deleted += 1;
            }
        }
        Ok(deleted)
    }
}

fn serialize_block(block_no: u64, payload: &[u8], block_size: usize) -> Vec<u8> {
    debug_assert!(payload.len() <= block_size - BLOCK_HEADER);
    let mut out = Vec::with_capacity(block_size);
    out.extend_from_slice(&block_no.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    let mut crc_input = Vec::with_capacity(10 + payload.len());
    crc_input.extend_from_slice(&block_no.to_le_bytes());
    crc_input.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    out.extend_from_slice(payload);
    out.resize(block_size, 0);
    out
}

/// Parses a block, returning its payload if the header and CRC are valid
/// for the expected block number.
fn parse_block(data: &[u8], expected_block_no: u64) -> Option<Vec<u8>> {
    if data.len() < BLOCK_HEADER {
        return None;
    }
    let block_no = u64::from_le_bytes(data[0..8].try_into().unwrap());
    if block_no != expected_block_no {
        return None;
    }
    let len = u16::from_le_bytes(data[8..10].try_into().unwrap()) as usize;
    if BLOCK_HEADER + len > data.len() {
        return None;
    }
    let stored_crc = u32::from_le_bytes(data[10..14].try_into().unwrap());
    let mut crc_input = Vec::with_capacity(10 + len);
    crc_input.extend_from_slice(&data[0..10]);
    crc_input.extend_from_slice(&data[BLOCK_HEADER..BLOCK_HEADER + len]);
    if crc32(&crc_input) != stored_crc {
        return None;
    }
    Some(data[BLOCK_HEADER..BLOCK_HEADER + len].to_vec())
}

/// Appends records to the log, block by block.
///
/// The writer keeps the current (partial) tail block in memory; `flush`
/// writes the completed blocks plus the tail as few synchronous writes
/// as the log space allows — one per run of blocks contiguous in one
/// file, as InnoDB's `log_group_write_buf` and PostgreSQL's `XLogWrite`
/// do. Each such write is one intercepted "update", in Ginja's terms.
#[derive(Debug)]
pub struct WalWriter {
    space: LogSpace,
    block_size: usize,
    block_no: u64,
    payload: Vec<u8>,
    pending: Vec<(u64, Vec<u8>)>,
    tail_dirty: bool,
    writes: u64,
    /// Highest block number known to be on disk, if any. A write at or
    /// below this is an in-place rewrite and goes through the
    /// [`TAIL_JOURNAL_PATH`] doublewrite first.
    written_through: Option<u64>,
    tail_journal_writes: u64,
}

impl WalWriter {
    /// A fresh writer positioned at block 0.
    pub fn new(space: LogSpace, block_size: usize) -> Self {
        assert!(
            block_size > BLOCK_HEADER + FRAG_HEADER,
            "block size too small"
        );
        WalWriter {
            space,
            block_size,
            block_no: 0,
            payload: Vec::new(),
            pending: Vec::new(),
            tail_dirty: false,
            writes: 0,
            written_through: None,
            tail_journal_writes: 0,
        }
    }

    /// Resumes a writer at the position a crash scan found (the last
    /// valid block and its payload).
    pub fn resume(space: LogSpace, block_size: usize, block_no: u64, payload: Vec<u8>) -> Self {
        let mut w = Self::new(space, block_size);
        w.block_no = block_no;
        // A non-empty resume payload means the scan parsed this block
        // off disk, so the next flush rewrites it in place.
        if !payload.is_empty() {
            w.written_through = Some(block_no);
        }
        w.payload = payload;
        w
    }

    /// Current (tail) block number.
    pub fn current_block(&self) -> u64 {
        self.block_no
    }

    /// Synchronous log writes issued so far: one per run of contiguous
    /// blocks a flush wrote, not one per block. The doublewrite journal
    /// is counted apart, by [`Self::tail_journal_writes`].
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Doublewrite-journal writes issued ahead of in-place tail
    /// rewrites.
    pub fn tail_journal_writes(&self) -> u64 {
        self.tail_journal_writes
    }

    /// The log space this writer appends to.
    pub fn space(&self) -> &LogSpace {
        &self.space
    }

    /// Appends one encoded record, fragmenting across blocks as needed.
    pub fn append(&mut self, record: &WalRecord) {
        let bytes = record.encode();
        let mut rest: &[u8] = &bytes;
        let mut first = true;
        loop {
            let space_left = self.block_size - BLOCK_HEADER - self.payload.len();
            if space_left < FRAG_HEADER + 1 {
                self.seal_block();
                continue;
            }
            let take = rest.len().min(space_left - FRAG_HEADER);
            let last = take == rest.len();
            let mut flags = 0u8;
            if first {
                flags |= FLAG_FIRST;
            }
            if last {
                flags |= FLAG_LAST;
            }
            self.payload.push(flags);
            self.payload.extend_from_slice(&(take as u16).to_le_bytes());
            self.payload.extend_from_slice(&rest[..take]);
            self.tail_dirty = true;
            rest = &rest[take..];
            first = false;
            if last {
                break;
            }
            self.seal_block();
        }
    }

    fn seal_block(&mut self) {
        let block = serialize_block(self.block_no, &self.payload, self.block_size);
        self.pending.push((self.block_no, block));
        self.block_no += 1;
        self.payload.clear();
        self.tail_dirty = false;
    }

    /// Writes all completed blocks plus the (dirty) tail block. Returns
    /// the number of synchronous log writes issued.
    ///
    /// The blocks go out as maximal runs that are contiguous under
    /// [`LogSpace::locate`], one synchronous write each: a run is split
    /// only where the space changes file (a segment end, or the
    /// circular log passing from one file to the other). Only the first
    /// block of a flush can already be on disk — the tail an earlier
    /// flush left partial — and its in-place rewrite is preceded by a
    /// synchronous doublewrite to [`TAIL_JOURNAL_PATH`], so a torn
    /// rewrite can never lose acknowledged records.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; the blocks not yet written stay
    /// queued (runs written before the failure are not rewritten).
    pub fn flush(&mut self, fs: &dyn FileSystem) -> Result<usize, DbError> {
        // The tail rides in `pending` for this call only: if its run is
        // not written it leaves again, still dirty, and the next flush
        // serializes it afresh with whatever was appended meanwhile.
        if self.tail_dirty {
            let tail = serialize_block(self.block_no, &self.payload, self.block_size);
            self.pending.push((self.block_no, tail));
        }
        let written = self.write_pending(fs);
        if self
            .pending
            .last()
            .is_some_and(|&(no, _)| no == self.block_no)
        {
            self.pending.pop();
        } else {
            self.tail_dirty = false;
        }
        written
    }

    /// Writes `pending` run by run, dequeuing each run once it landed.
    fn write_pending(&mut self, fs: &dyn FileSystem) -> Result<usize, DbError> {
        if let Some((no, block)) = self.pending.first() {
            if self.written_through.is_some_and(|high| high >= *no) {
                let mut entry = Vec::with_capacity(8 + block.len());
                entry.extend_from_slice(&no.to_le_bytes());
                entry.extend_from_slice(block);
                fs.write(TAIL_JOURNAL_PATH, 0, &entry, true)?;
                self.tail_journal_writes += 1;
            }
        }
        let mut writes = 0;
        while let Some(&(first, _)) = self.pending.first() {
            let (file, offset) = self.space.locate(first, self.block_size);
            let run = 1
                + (1..self.pending.len())
                    .take_while(|&i| {
                        let (next_file, next_offset) =
                            self.space.locate(self.pending[i].0, self.block_size);
                        next_file == file && next_offset == offset + (i * self.block_size) as u64
                    })
                    .count();
            match &self.pending[..run] {
                [(_, block)] => fs.write(&file, offset, block, true)?,
                blocks => {
                    let mut bytes = Vec::with_capacity(blocks.len() * self.block_size);
                    for (_, block) in blocks {
                        bytes.extend_from_slice(block);
                    }
                    fs.write(&file, offset, &bytes, true)?;
                }
            }
            let last = self.pending[run - 1].0;
            self.written_through = Some(self.written_through.map_or(last, |high| high.max(last)));
            self.pending.drain(..run);
            self.writes += 1;
            writes += 1;
        }
        Ok(writes)
    }
}

/// Result of a crash scan: the committed records found and the position
/// at which a resumed writer should continue.
#[derive(Debug)]
pub struct WalScan {
    /// All records recovered, in log order (including commit markers;
    /// trailing fragments of a torn record are dropped).
    pub records: Vec<WalRecord>,
    /// Block number the writer should resume at.
    pub resume_block: u64,
    /// Payload of the resume block (its fragments so far).
    pub resume_payload: Vec<u8>,
    /// Whether the frontier block was unreadable or torn on disk and
    /// was recovered from the [`TAIL_JOURNAL_PATH`] doublewrite.
    pub tail_salvaged: bool,
}

/// Reads the doublewrite journal and returns the raw serialized bytes
/// of block `expected` if the journal holds a CRC-valid copy of exactly
/// that block. A missing, stale, or itself-torn journal yields `None`.
fn salvage_tail(fs: &dyn FileSystem, expected: u64, block_size: usize) -> Option<Vec<u8>> {
    let data = fs.read_all(TAIL_JOURNAL_PATH).ok()?;
    if data.len() < 8 + BLOCK_HEADER || data.len() < 8 + block_size {
        return None;
    }
    let block_no = u64::from_le_bytes(data[0..8].try_into().unwrap());
    if block_no != expected {
        return None;
    }
    let raw = data[8..8 + block_size].to_vec();
    parse_block(&raw, expected).is_some().then_some(raw)
}

/// Scans the log forward from `start_block`, stopping at the first
/// missing, torn, or stale block, and after the first block with room
/// for another fragment: the writer starts block N + 1 only once N is
/// full, so a valid block after a partial one follows a stale copy of a
/// tail rewrite, and replaying it would skip the rewrite's records.
///
/// A block that fails to parse off disk is salvaged from the
/// [`TAIL_JOURNAL_PATH`] doublewrite when the journal holds a valid
/// copy of exactly that block — the torn-tail-rewrite crash. The
/// salvaged contents supersede the torn on-disk copy, and the scan
/// reports [`WalScan::tail_salvaged`].
///
/// # Errors
///
/// [`DbError::Corrupt`] only for impossible states (a CRC-valid block
/// containing an undecodable record); missing/stale blocks end the scan
/// normally.
pub fn scan(
    fs: &dyn FileSystem,
    space: &LogSpace,
    block_size: usize,
    start_block: u64,
) -> Result<WalScan, DbError> {
    let mut records = Vec::new();
    let mut frag_buf: Vec<u8> = Vec::new();
    let mut in_record = false;
    let mut expected = start_block;
    let mut resume_block = start_block;
    let mut resume_payload = Vec::new();
    let mut tail_salvaged = false;

    loop {
        let (file, off) = space.locate(expected, block_size);
        let on_disk = fs
            .read(&file, off, block_size)
            .ok()
            .and_then(|data| parse_block(&data, expected));
        let payload = match on_disk {
            Some(payload) => payload,
            None => match salvage_tail(fs, expected, block_size) {
                Some(raw) => {
                    // Heal the torn on-disk copy from the journal's good
                    // one: the journal holds only a single block, so the
                    // next tail rewrite (of a *later* block) would
                    // overwrite it and strand this block torn forever.
                    // Best effort — if the write fails the journal still
                    // holds the block for the next scan.
                    let _ = fs.write(&file, off, &raw, true);
                    tail_salvaged = true;
                    parse_block(&raw, expected).expect("salvage_tail validated the CRC")
                }
                None => break,
            },
        };

        let tail = block_size - BLOCK_HEADER - payload.len() > FRAG_HEADER;
        // Parse fragments.
        let mut pos = 0usize;
        while pos + FRAG_HEADER <= payload.len() {
            let flags = payload[pos];
            let len = u16::from_le_bytes(payload[pos + 1..pos + 3].try_into().unwrap()) as usize;
            pos += FRAG_HEADER;
            if pos + len > payload.len() {
                return Err(DbError::Corrupt("fragment overruns its block".into()));
            }
            if flags & FLAG_FIRST != 0 {
                frag_buf.clear();
                in_record = true;
            }
            if !in_record {
                // A continuation of a record that began before the scan
                // start (the redo point can fall mid-record). Its effects
                // are already durable in the flushed pages — skip it.
                pos += len;
                continue;
            }
            frag_buf.extend_from_slice(&payload[pos..pos + len]);
            pos += len;
            if flags & FLAG_LAST != 0 {
                records.push(WalRecord::decode(&frag_buf)?);
                frag_buf.clear();
                in_record = false;
            }
        }

        resume_block = expected;
        resume_payload = payload;
        expected += 1;
        if tail {
            break;
        }
    }

    // If no block was valid, resume fresh at the start block.
    if expected == start_block {
        resume_payload.clear();
    }

    Ok(WalScan {
        records,
        resume_block,
        resume_payload,
        tail_salvaged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalOp;
    use ginja_vfs::MemFs;

    fn seg_space() -> LogSpace {
        LogSpace::Segmented {
            prefix: "pg_xlog/".into(),
            segment_size: 4096,
        }
    }

    fn circ_space() -> LogSpace {
        LogSpace::Circular {
            file0: "ib_logfile0".into(),
            file1: "ib_logfile1".into(),
            segment_size: 4096,
        }
    }

    fn put(lsn: u64, key: u64, len: usize) -> WalRecord {
        WalRecord {
            lsn,
            op: WalOp::Put {
                table: 1,
                key,
                value: vec![lsn as u8; len],
            },
        }
    }

    fn prealloc_circular(fs: &MemFs, space: &LogSpace) {
        if let LogSpace::Circular {
            file0,
            file1,
            segment_size,
        } = space
        {
            fs.write(file0, 0, &vec![0u8; *segment_size as usize], false)
                .unwrap();
            fs.write(file1, 0, &vec![0u8; *segment_size as usize], false)
                .unwrap();
        }
    }

    #[test]
    fn segmented_locate() {
        let s = seg_space();
        assert_eq!(
            s.locate(0, 512),
            ("pg_xlog/000000000000000000000000".into(), 0)
        );
        assert_eq!(
            s.locate(7, 512),
            ("pg_xlog/000000000000000000000000".into(), 3584)
        );
        assert_eq!(
            s.locate(8, 512),
            ("pg_xlog/000000000000000000000001".into(), 0)
        );
        assert_eq!(s.capacity_blocks(512), None);
        assert_eq!(s.segment_of(9, 512), Some(1));
    }

    #[test]
    fn circular_locate_wraps() {
        let s = circ_space();
        // (4096 - 2048) / 512 = 4 blocks per file, 8 per cycle.
        assert_eq!(s.capacity_blocks(512), Some(8));
        assert_eq!(s.locate(0, 512), ("ib_logfile0".into(), 2048));
        assert_eq!(s.locate(3, 512), ("ib_logfile0".into(), 3584));
        assert_eq!(s.locate(4, 512), ("ib_logfile1".into(), 2048));
        assert_eq!(s.locate(7, 512), ("ib_logfile1".into(), 3584));
        // Wrap.
        assert_eq!(s.locate(8, 512), ("ib_logfile0".into(), 2048));
        assert_eq!(s.locate(12, 512), ("ib_logfile1".into(), 2048));
    }

    #[test]
    fn block_roundtrip() {
        let block = serialize_block(9, b"payload", 512);
        assert_eq!(block.len(), 512);
        assert_eq!(parse_block(&block, 9).unwrap(), b"payload");
        assert_eq!(parse_block(&block, 10), None);
        let mut bad = block.clone();
        bad[20] ^= 1;
        assert_eq!(parse_block(&bad, 9), None);
    }

    #[test]
    fn append_flush_scan_roundtrip() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        let recs: Vec<WalRecord> = (0..10).map(|i| put(i, i, 50)).collect();
        for r in &recs {
            w.append(r);
        }
        w.flush(&fs).unwrap();
        let scan = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert_eq!(scan.records, recs);
        assert_eq!(scan.resume_block, w.current_block());
    }

    #[test]
    fn record_spanning_blocks() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        // A 2000-byte value cannot fit a 512-byte block: must fragment.
        let rec = put(1, 7, 2000);
        w.append(&rec);
        w.flush(&fs).unwrap();
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert_eq!(s.records, vec![rec]);
        assert!(w.current_block() >= 4, "block {}", w.current_block());
    }

    #[test]
    fn tail_block_rewritten_across_flushes() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        w.append(&put(1, 1, 20));
        assert_eq!(w.flush(&fs).unwrap(), 1);
        w.append(&put(2, 2, 20));
        assert_eq!(w.flush(&fs).unwrap(), 1); // same block, rewritten
        assert_eq!(w.current_block(), 0);
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert_eq!(s.records.len(), 2);
    }

    #[test]
    fn flush_without_new_data_writes_nothing() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        w.append(&put(1, 1, 20));
        w.flush(&fs).unwrap();
        assert_eq!(w.flush(&fs).unwrap(), 0);
    }

    #[test]
    fn scan_stops_at_unwritten_block() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        for i in 0..20 {
            w.append(&put(i, i, 100));
        }
        w.flush(&fs).unwrap();
        // Corrupt a middle block on disk: scan must stop there.
        let (file, off) = seg_space().locate(2, 512);
        fs.write(&file, off + 20, b"XXXX", false).unwrap();
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert!(s.records.len() < 20);
        assert_eq!(s.resume_block, 1); // last valid block
    }

    /// A stale copy of a rewritten tail block (the rewrite lost, the
    /// blocks after it not) ends the scan: the records after it would
    /// otherwise replay without the ones the rewrite carried.
    #[test]
    fn scan_stops_after_a_stale_tail_block() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        w.append(&put(0, 0, 100));
        w.flush(&fs).unwrap();
        let (file, off) = seg_space().locate(0, 512);
        let stale = fs.read(&file, off, 512).unwrap();
        for i in 1..10 {
            w.append(&put(i, i, 100));
        }
        w.flush(&fs).unwrap();
        assert!(w.current_block() >= 2);
        fs.write(&file, off, &stale, true).unwrap();
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert_eq!(s.records, vec![put(0, 0, 100)]);
        assert_eq!(s.resume_block, 0);
    }

    #[test]
    fn scan_from_midpoint() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        for i in 0..20 {
            w.append(&put(i, i, 100));
        }
        w.flush(&fs).unwrap();
        let s_all = scan(&fs, &seg_space(), 512, 0).unwrap();
        let s_mid = scan(&fs, &seg_space(), 512, 3).unwrap();
        assert!(s_mid.records.len() < s_all.records.len());
        assert_eq!(s_mid.resume_block, s_all.resume_block);
        // Every record found from the midpoint is also in the full scan.
        for r in &s_mid.records {
            assert!(s_all.records.contains(r));
        }
    }

    #[test]
    fn resume_continues_where_scan_ended() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        for i in 0..5 {
            w.append(&put(i, i, 60));
        }
        w.flush(&fs).unwrap();

        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        let mut w2 = WalWriter::resume(seg_space(), 512, s.resume_block, s.resume_payload);
        for i in 5..10 {
            w2.append(&put(i, i, 60));
        }
        w2.flush(&fs).unwrap();

        let s2 = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert_eq!(s2.records.len(), 10);
        let lsns: Vec<u64> = s2.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn circular_wrap_scan_sees_only_fresh_blocks() {
        let fs = MemFs::new();
        let space = circ_space();
        prealloc_circular(&fs, &space);
        let mut w = WalWriter::new(space.clone(), 512);
        // Fill 12 blocks; capacity is 8, so blocks 0..4 are overwritten.
        for i in 0..24 {
            w.append(&put(i, i, 200));
        }
        w.flush(&fs).unwrap();
        let tail = w.current_block();
        assert!(tail >= 8, "should have wrapped, at {tail}");
        // Scanning from an overwritten block finds a stale header → no records.
        let s = scan(&fs, &space, 512, 0).unwrap();
        assert!(s.records.is_empty());
        // Scanning from within the live window works.
        let live_start = tail.saturating_sub(3);
        let s = scan(&fs, &space, 512, live_start).unwrap();
        assert!(!s.records.is_empty());
        assert_eq!(s.resume_block, tail);
    }

    #[test]
    fn segment_gc_deletes_old_files() {
        let fs = MemFs::new();
        let space = seg_space(); // 4096-byte segments, 512-byte blocks → 8 blocks/segment
        let mut w = WalWriter::new(space.clone(), 512);
        for i in 0..60 {
            w.append(&put(i, i, 200));
        }
        w.flush(&fs).unwrap();
        let files_before = fs.list("pg_xlog/").unwrap().len();
        assert!(files_before >= 3);
        let redo = w.current_block();
        let deleted = space.delete_segments_before(&fs, redo, 512).unwrap();
        assert!(deleted >= 2);
        let remaining = fs.list("pg_xlog/").unwrap();
        assert_eq!(remaining.len(), files_before - deleted);
        // The live segment must survive.
        let (live_file, _) = space.locate(redo, 512);
        assert!(remaining.contains(&live_file));
    }

    #[test]
    fn scan_of_empty_log() {
        let fs = MemFs::new();
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert!(s.records.is_empty());
        assert_eq!(s.resume_block, 0);
        assert!(s.resume_payload.is_empty());
    }

    /// Builds the torn-tail-rewrite crash state: block 0 is flushed
    /// with `rec1` (acknowledged), then rewritten with `rec1 + rec2`,
    /// and the rewrite tears after `torn_at` bytes — the on-disk block
    /// mixes new header/CRC with old payload bytes and fails to parse.
    /// Returns the fs (journal intact) and the two records.
    fn torn_tail_state(torn_at: usize) -> (MemFs, WalRecord, WalRecord) {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        let rec1 = put(1, 1, 60);
        let rec2 = put(2, 2, 60);
        w.append(&rec1);
        w.flush(&fs).unwrap(); // rec1 is on disk — acknowledged.
        let (file, off) = seg_space().locate(0, 512);
        let v1 = fs.read(&file, off, 512).unwrap();
        w.append(&rec2);
        w.flush(&fs).unwrap(); // journaled doublewrite + in-place rewrite
        let v2 = fs.read(&file, off, 512).unwrap();
        assert_ne!(v1, v2);
        // Tear the in-place rewrite at a sector boundary: new prefix,
        // old suffix.
        let mut torn = v2[..torn_at].to_vec();
        torn.extend_from_slice(&v1[torn_at..]);
        fs.write(&file, off, &torn, false).unwrap();
        (fs, rec1, rec2)
    }

    #[test]
    fn torn_tail_rewrite_without_journal_loses_acked_records() {
        // The pre-hardening failure mode: with the doublewrite journal
        // gone, a torn tail rewrite silently erases record 1 even
        // though its flush had completed (it was acknowledged).
        let (fs, _rec1, _rec2) = torn_tail_state(64);
        fs.delete(TAIL_JOURNAL_PATH).unwrap();
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert!(s.records.is_empty(), "torn block should not parse");
        assert!(!s.tail_salvaged);
    }

    #[test]
    fn torn_tail_rewrite_salvaged_from_doublewrite_journal() {
        let (fs, rec1, rec2) = torn_tail_state(64);
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert!(s.tail_salvaged);
        // The journal holds the full rewrite, so both the acknowledged
        // record and the in-flight one come back.
        assert_eq!(s.records, vec![rec1, rec2]);
        assert_eq!(s.resume_block, 0);

        // A writer resumed from the salvage continues normally and
        // journals its own rewrite of the same block.
        let mut w = WalWriter::resume(seg_space(), 512, s.resume_block, s.resume_payload);
        let journal_writes = w.tail_journal_writes();
        w.append(&put(3, 3, 60));
        w.flush(&fs).unwrap();
        assert_eq!(w.tail_journal_writes(), journal_writes + 1);
        let s2 = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert_eq!(s2.records.len(), 3);
        assert!(!s2.tail_salvaged);
    }

    #[test]
    fn salvaged_tail_is_healed_back_to_disk() {
        // Salvage must repair the torn on-disk block, not just read
        // around it: the journal holds a single block, so the next tail
        // rewrite (of a later block) overwrites it — an unhealed torn
        // block would become unrecoverable at the crash after that.
        let (fs, rec1, rec2) = torn_tail_state(64);
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert!(s.tail_salvaged);
        // Even with the journal gone, the records now survive because
        // the scan wrote the good copy back over the torn one.
        fs.delete(TAIL_JOURNAL_PATH).unwrap();
        let s2 = scan(&fs, &seg_space(), 512, 0).unwrap();
        assert!(!s2.tail_salvaged);
        assert_eq!(s2.records, vec![rec1, rec2]);
    }

    #[test]
    fn stale_journal_does_not_resurrect_other_blocks() {
        // A journal entry for block 0 must not salvage a failure at a
        // different block number.
        let (fs, _rec1, _rec2) = torn_tail_state(64);
        let s = scan(&fs, &seg_space(), 512, 3).unwrap();
        assert!(s.records.is_empty());
        assert!(!s.tail_salvaged);
    }

    #[test]
    fn torn_journal_is_ignored() {
        // If the crash tore the journal write itself (before the
        // in-place write happened), the on-disk block is still the old
        // valid copy and the corrupt journal must be ignored.
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        w.append(&put(1, 1, 60));
        w.flush(&fs).unwrap();
        w.append(&put(2, 2, 60));
        w.flush(&fs).unwrap(); // writes a valid journal entry
        let journal = fs.read_all(TAIL_JOURNAL_PATH).unwrap();
        let mut torn = journal.clone();
        for b in &mut torn[100..] {
            *b ^= 0xFF;
        }
        fs.write(TAIL_JOURNAL_PATH, 0, &torn, false).unwrap();
        let s = scan(&fs, &seg_space(), 512, 0).unwrap();
        // Block 0 on disk is valid (the rewrite completed), so the
        // journal is never consulted; records are intact either way.
        assert_eq!(s.records.len(), 2);
        assert!(!s.tail_salvaged);
    }

    #[test]
    fn first_write_of_a_block_is_not_journaled() {
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        for i in 0..20 {
            w.append(&put(i, i, 100));
        }
        w.flush(&fs).unwrap();
        // One flush of fresh blocks: every write is a first write.
        assert_eq!(w.tail_journal_writes(), 0);
        assert!(!fs.exists(TAIL_JOURNAL_PATH));
    }

    #[test]
    fn blocks_written_counter() {
        // The counter counts writes, not blocks: a flush of contiguous
        // blocks is one write.
        let fs = MemFs::new();
        let mut w = WalWriter::new(seg_space(), 512);
        w.append(&put(1, 1, 1000)); // spans 3 blocks of one segment
        assert_eq!(w.flush(&fs).unwrap(), 1);
        assert!(w.current_block() >= 2);
        assert_eq!(w.writes(), 1);
    }
}
