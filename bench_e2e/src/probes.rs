//! The benchmark's decorators at the layer boundaries. Each wraps a
//! public trait of a layer crate and forwards unchanged:
//!
//! * [`TracedFs`] (`FileSystem`) — placed outside `InterceptFs` and
//!   again around the inner `MemFs`; traced runs only.
//! * [`TracedClassifier`] (`DbmsProcessor`) — handed to `Ginja::boot`;
//!   traced runs only.
//! * [`TapProcessor`] (`IoProcessor`) — around `Ginja`; always present,
//!   because the exposure metrics need the instant each WAL write
//!   returned from `on_write`.
//! * [`OpLog`] (`ObjectStore`) — under Ginja's `ResilientStore` (so a
//!   retry shows up as one more operation); always present: PUT counts,
//!   bytes and completion times are end-to-end inputs.
//! * [`Bucket`] (`ObjectStore`) — the innermost store: a `MemStore`
//!   that can be copied at one instant, which is what a disaster is.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use ginja_cloud::{MemStore, ObjectStore, StoreError};
use ginja_vfs::{DbmsProcessor, FileSystem, FsError, IoClass, IoProcessor, WriteEvent};

use crate::trace::{self, SpanKind};

// ---------------------------------------------------------------- fs

/// Span-recording `FileSystem` wrapper.
pub struct TracedFs<F> {
    inner: F,
    write: SpanKind,
    other: SpanKind,
}

impl<F: FileSystem> TracedFs<F> {
    /// The wrapper the engine talks to (outside `InterceptFs`).
    pub fn outer(inner: F) -> Self {
        TracedFs {
            inner,
            write: SpanKind::FsWrite,
            other: SpanKind::FsOther,
        }
    }

    /// The wrapper around the local file system (inside `InterceptFs`).
    pub fn local(inner: F) -> Self {
        TracedFs {
            inner,
            write: SpanKind::LocalWrite,
            other: SpanKind::LocalOther,
        }
    }
}

impl<F: FileSystem> FileSystem for TracedFs<F> {
    fn create(&self, path: &str) -> Result<(), FsError> {
        let _s = trace::enter(self.other);
        self.inner.create(path)
    }
    fn write(&self, path: &str, offset: u64, data: &[u8], sync: bool) -> Result<(), FsError> {
        let _s = trace::enter(self.write);
        self.inner.write(path, offset, data, sync)
    }
    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let _s = trace::enter(self.other);
        self.inner.read(path, offset, len)
    }
    fn read_all(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let _s = trace::enter(self.other);
        self.inner.read_all(path)
    }
    fn len(&self, path: &str) -> Result<u64, FsError> {
        let _s = trace::enter(self.other);
        self.inner.len(path)
    }
    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        let _s = trace::enter(self.other);
        self.inner.truncate(path, len)
    }
    fn delete(&self, path: &str) -> Result<(), FsError> {
        let _s = trace::enter(self.other);
        self.inner.delete(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let _s = trace::enter(self.other);
        self.inner.rename(from, to)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, FsError> {
        let _s = trace::enter(self.other);
        self.inner.list(prefix)
    }
    fn exists(&self, path: &str) -> bool {
        let _s = trace::enter(self.other);
        self.inner.exists(path)
    }
    fn wipe(&self) -> Result<(), FsError> {
        let _s = trace::enter(self.other);
        self.inner.wipe()
    }
}

// -------------------------------------------------------- classifier

thread_local! {
    /// Class of the last write this thread classified, so the
    /// `on_write` span around it can be labelled.
    static LAST_CLASS: Cell<IoClass> = const { Cell::new(IoClass::Other) };
}

/// Span-recording `DbmsProcessor` wrapper.
pub struct TracedClassifier {
    inner: Arc<dyn DbmsProcessor>,
}

impl TracedClassifier {
    pub fn new(inner: Arc<dyn DbmsProcessor>) -> Self {
        TracedClassifier { inner }
    }
}

impl DbmsProcessor for TracedClassifier {
    fn classify(&self, event: &WriteEvent) -> IoClass {
        let _s = trace::enter(SpanKind::Classify);
        let class = self.inner.classify(event);
        LAST_CLASS.with(|c| c.set(class));
        class
    }
    fn wal_prefix(&self) -> &str {
        self.inner.wal_prefix()
    }
    fn is_db_file(&self, path: &str) -> bool {
        self.inner.is_db_file(path)
    }
    fn checkpoints_flush_all_dirty_pages(&self) -> bool {
        self.inner.checkpoints_flush_all_dirty_pages()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

// --------------------------------------------------------- processor

/// One WAL write as the exposure join sees it: where it landed, when
/// it was handed to `on_write`, and when `on_write` gave control back
/// to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalWriteRec {
    pub entered_ns: u64,
    pub returned_ns: u64,
    /// Index into [`TapProcessor::files`].
    pub file: u32,
    pub offset: u64,
    pub len: u32,
}

#[derive(Default)]
struct TapLog {
    files: Vec<String>,
    writes: Vec<WalWriteRec>,
    wal_bytes: u64,
}

/// `IoProcessor` wrapper around `Ginja`: records every WAL write's
/// return instant, and (traced runs) an `on_write` span.
pub struct TapProcessor {
    inner: Arc<dyn IoProcessor>,
    classifier: Arc<dyn DbmsProcessor>,
    recording: AtomicBool,
    log: Mutex<TapLog>,
}

impl TapProcessor {
    pub fn new(inner: Arc<dyn IoProcessor>, classifier: Arc<dyn DbmsProcessor>) -> Self {
        TapProcessor {
            inner,
            classifier,
            recording: AtomicBool::new(false),
            log: Mutex::new(TapLog::default()),
        }
    }

    /// Starts (clearing earlier records) or stops recording.
    pub fn set_recording(&self, on: bool) {
        if on {
            let mut log = self.log.lock().expect("tap log poisoned");
            log.writes.clear();
            log.wal_bytes = 0;
        }
        self.recording.store(on, Ordering::SeqCst);
    }

    /// `(file names, WAL writes in return order per thread, WAL bytes)`.
    pub fn take(&self) -> (Vec<String>, Vec<WalWriteRec>, u64) {
        let mut log = self.log.lock().expect("tap log poisoned");
        (
            log.files.clone(),
            std::mem::take(&mut log.writes),
            log.wal_bytes,
        )
    }
}

impl IoProcessor for TapProcessor {
    fn on_write(&self, event: &WriteEvent) {
        let entered_ns = trace::now_ns();
        {
            let span = trace::enter(SpanKind::OnWriteOther);
            self.inner.on_write(event);
            if trace::enabled() {
                span.relabel(match LAST_CLASS.with(Cell::get) {
                    IoClass::WalAppend => SpanKind::OnWriteWal,
                    IoClass::DataFile | IoClass::ControlFile => SpanKind::OnWriteData,
                    IoClass::Other => SpanKind::OnWriteOther,
                });
            }
        }
        let returned_ns = trace::now_ns();
        if !self.recording.load(Ordering::Relaxed)
            || self.classifier.classify(event) != IoClass::WalAppend
        {
            return;
        }
        let mut log = self.log.lock().expect("tap log poisoned");
        let file = match log.files.iter().position(|f| **f == *event.path) {
            Some(i) => i,
            None => {
                log.files.push(event.path.to_string());
                log.files.len() - 1
            }
        };
        log.wal_bytes += event.len() as u64;
        log.writes.push(WalWriteRec {
            entered_ns,
            returned_ns,
            file: file as u32,
            offset: event.offset,
            len: event.len() as u32,
        });
    }
    fn on_delete(&self, path: &str) {
        self.inner.on_delete(path);
    }
    fn on_rename(&self, from: &str, to: &str) {
        self.inner.on_rename(from, to);
    }
}

// ------------------------------------------------------------- store

/// `MemStore` whose mutations and copies exclude each other, so
/// [`Bucket::freeze`] sees the bucket as of one instant — a PUT is
/// either wholly in the copy or wholly lost, as in a real disaster.
#[derive(Default)]
pub struct Bucket {
    mem: MemStore,
    cut: RwLock<()>,
}

impl Bucket {
    pub fn new() -> Self {
        Self::default()
    }

    /// An independent copy of the current contents.
    pub fn freeze(&self) -> MemStore {
        let _cut = self.cut.write().expect("bucket gate poisoned");
        copy_store(&self.mem)
    }
}

/// Copies every object of `from` into a fresh `MemStore`.
pub fn copy_store(from: &MemStore) -> MemStore {
    let copy = MemStore::new();
    for name in from.list("").expect("MemStore list cannot fail") {
        let data = from.get(&name).expect("listed object exists");
        copy.put(&name, &data).expect("MemStore put cannot fail");
    }
    copy
}

impl ObjectStore for Bucket {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let _cut = self.cut.read().expect("bucket gate poisoned");
        self.mem.put(name, data)
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.mem.get(name)
    }
    fn delete(&self, name: &str) -> Result<(), StoreError> {
        let _cut = self.cut.read().expect("bucket gate poisoned");
        self.mem.delete(name)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.mem.list(prefix)
    }
}

/// Kind of one cloud operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Put,
    Get,
    List,
    Delete,
}

/// One cloud operation as it reached the store under `ResilientStore`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRec {
    pub kind: OpKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    pub ok: bool,
    /// Object name (PUTs only — the exposure join parses it).
    pub name: Option<String>,
}

/// `ObjectStore` wrapper logging every operation with its start and
/// end instants, and (when asked) keeping PUT payloads for the replay
/// step up to a byte cap.
pub struct OpLog {
    inner: Arc<dyn ObjectStore>,
    ops: Mutex<Vec<OpRec>>,
    /// Payload bytes the capture may still take.
    capture_left: AtomicU64,
    captured: Mutex<Vec<(String, Vec<u8>)>>,
}

impl OpLog {
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        OpLog {
            inner,
            ops: Mutex::new(Vec::new()),
            capture_left: AtomicU64::new(0),
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Keeps copies of PUT payloads until `bytes` have been captured.
    pub fn capture_up_to(&self, bytes: u64) {
        let _captured = self.captured.lock().expect("capture poisoned");
        self.capture_left.store(bytes, Ordering::Relaxed);
    }

    /// Takes the operations logged so far.
    pub fn take_ops(&self) -> Vec<OpRec> {
        std::mem::take(&mut *self.ops.lock().expect("op log poisoned"))
    }

    /// Takes the captured `(name, sealed payload)` pairs.
    pub fn take_captured(&self) -> Vec<(String, Vec<u8>)> {
        std::mem::take(&mut *self.captured.lock().expect("capture poisoned"))
    }

    fn record(&self, rec: OpRec) {
        self.ops.lock().expect("op log poisoned").push(rec);
    }
}

impl ObjectStore for OpLog {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let start_ns = trace::now_ns();
        let result = self.inner.put(name, data);
        let end_ns = trace::now_ns();
        if result.is_ok() && self.capture_left.load(Ordering::Relaxed) > 0 {
            let mut captured = self.captured.lock().expect("capture poisoned");
            // The budget is only ever changed under this lock; the first
            // payload that does not fit ends the capture.
            let left = self.capture_left.load(Ordering::Relaxed);
            if data.len() as u64 <= left {
                self.capture_left
                    .store(left - data.len() as u64, Ordering::Relaxed);
                captured.push((name.to_string(), data.to_vec()));
            } else {
                self.capture_left.store(0, Ordering::Relaxed);
            }
        }
        self.record(OpRec {
            kind: OpKind::Put,
            start_ns,
            end_ns,
            bytes: data.len() as u64,
            ok: result.is_ok(),
            name: Some(name.to_string()),
        });
        result
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let start_ns = trace::now_ns();
        let result = self.inner.get(name);
        self.record(OpRec {
            kind: OpKind::Get,
            start_ns,
            end_ns: trace::now_ns(),
            bytes: result.as_ref().map_or(0, |d| d.len() as u64),
            ok: result.is_ok(),
            name: None,
        });
        result
    }
    fn delete(&self, name: &str) -> Result<(), StoreError> {
        let start_ns = trace::now_ns();
        let result = self.inner.delete(name);
        self.record(OpRec {
            kind: OpKind::Delete,
            start_ns,
            end_ns: trace::now_ns(),
            bytes: 0,
            ok: result.is_ok(),
            name: None,
        });
        result
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let start_ns = trace::now_ns();
        let result = self.inner.list(prefix);
        self.record(OpRec {
            kind: OpKind::List,
            start_ns,
            end_ns: trace::now_ns(),
            bytes: 0,
            ok: result.is_ok(),
            name: None,
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_vfs::{MemFs, NullProcessor, PostgresProcessor};

    #[test]
    fn bucket_freeze_is_an_independent_copy() {
        let bucket = Bucket::new();
        bucket.put("a", b"1").unwrap();
        let frozen = bucket.freeze();
        bucket.put("b", b"2").unwrap();
        bucket.delete("a").unwrap();
        assert_eq!(frozen.list("").unwrap(), vec!["a".to_string()]);
        assert_eq!(bucket.list("").unwrap(), vec!["b".to_string()]);
    }

    #[test]
    fn op_log_records_kinds_bytes_and_captures_up_to_cap() {
        let log = OpLog::new(Arc::new(Bucket::new()));
        log.capture_up_to(5);
        log.put("x", b"abc").unwrap();
        log.put("y", b"defg").unwrap(); // would exceed the cap
        assert_eq!(log.get("x").unwrap(), b"abc");
        assert!(log.get("missing").is_err());
        log.list("").unwrap();
        log.delete("x").unwrap();
        let ops = log.take_ops();
        let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            [
                OpKind::Put,
                OpKind::Put,
                OpKind::Get,
                OpKind::Get,
                OpKind::List,
                OpKind::Delete
            ]
        );
        assert_eq!(ops[0].bytes, 3);
        assert_eq!(ops[0].name.as_deref(), Some("x"));
        assert!(!ops[3].ok);
        assert!(ops.iter().all(|o| o.end_ns >= o.start_ns));
        assert_eq!(
            log.take_captured(),
            vec![("x".to_string(), b"abc".to_vec())]
        );
        assert!(log.take_ops().is_empty());
    }

    #[test]
    fn tap_records_only_wal_writes_while_recording() {
        let pg: Arc<dyn DbmsProcessor> = Arc::new(PostgresProcessor::new());
        let tap = Arc::new(TapProcessor::new(Arc::new(NullProcessor), pg.clone()));
        let fs = ginja_vfs::InterceptFs::new(MemFs::new(), tap.clone());
        let wal = format!("{}000000010000000000000001", pg.wal_prefix());
        fs.write(&wal, 0, &[1u8; 8192], true).unwrap(); // not recording yet
        tap.set_recording(true);
        fs.write(&wal, 8192, &[2u8; 8192], true).unwrap();
        fs.write("base/1", 0, &[3u8; 8192], true).unwrap(); // data file
        fs.write(&wal, 8192, &[4u8; 8192], true).unwrap(); // page rewrite
        let (files, writes, bytes) = tap.take();
        assert_eq!(files, vec![wal]);
        assert_eq!(writes.len(), 2);
        assert_eq!(bytes, 2 * 8192);
        assert_eq!((writes[0].offset, writes[0].len), (8192, 8192));
        assert!(writes[1].returned_ns >= writes[0].returned_ns);
    }
}
