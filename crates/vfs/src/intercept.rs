use std::sync::Arc;

use crate::{FileSystem, FsError};

/// A file write observed by the interception layer.
///
/// This is the unit Ginja's Algorithm 2 receives: "When
/// write(WAL_segment, offset, content) is intercepted".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEvent {
    /// Virtual path of the file written. Shared (`Arc<str>`) so the
    /// intercept → commit-queue handoff clones a refcount, not a heap
    /// string — the DB-facing write path allocates nothing per record
    /// beyond the one event it must build.
    pub path: Arc<str>,
    /// Byte offset of the write.
    pub offset: u64,
    /// The written bytes.
    pub data: Arc<[u8]>,
    /// Whether the write was synchronous (`O_SYNC`/`fsync`); Table 1's
    /// event detection only fires on synchronous writes.
    pub sync: bool,
}

impl WriteEvent {
    /// Length of the written range.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the write carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// End offset (exclusive) of the written range.
    pub fn end(&self) -> u64 {
        self.offset + self.data.len() as u64
    }
}

/// Receiver of intercepted file operations — Ginja's core implements
/// this, taking the role the FUSE callbacks played in the prototype.
///
/// `on_write` is called *after* the write has been applied locally
/// (matching Algorithm 2: `writeLocally` precedes `commitQueue.put`) and
/// may block — that is exactly how Ginja applies back-pressure when the
/// Safety limit is violated.
pub trait IoProcessor: Send + Sync {
    /// Called after a local write completed.
    fn on_write(&self, event: &WriteEvent);

    /// Called after a file deletion.
    fn on_delete(&self, _path: &str) {}

    /// Called after a rename.
    fn on_rename(&self, _from: &str, _to: &str) {}
}

/// A no-op processor (useful to measure the interception overhead alone,
/// the "FUSE" baseline column of Figure 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProcessor;

impl IoProcessor for NullProcessor {
    fn on_write(&self, _event: &WriteEvent) {}
}

/// The FUSE stand-in: forwards every operation to an inner
/// [`FileSystem`] and reports mutations to an [`IoProcessor`].
///
/// ```rust
/// use std::sync::Arc;
/// use ginja_vfs::{FileSystem, InterceptFs, IoProcessor, MemFs, WriteEvent};
///
/// #[derive(Default)]
/// struct Counter(std::sync::atomic::AtomicUsize);
/// impl IoProcessor for Counter {
///     fn on_write(&self, _e: &WriteEvent) {
///         self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
///     }
/// }
///
/// # fn main() -> Result<(), ginja_vfs::FsError> {
/// let counter = Arc::new(Counter::default());
/// let fs = InterceptFs::new(MemFs::new(), counter.clone());
/// fs.write("pg_xlog/0001", 0, b"commit record", true)?;
/// assert_eq!(counter.0.load(std::sync::atomic::Ordering::SeqCst), 1);
/// # Ok(())
/// # }
/// ```
pub struct InterceptFs<F> {
    inner: F,
    processor: Arc<dyn IoProcessor>,
}

impl<F: std::fmt::Debug> std::fmt::Debug for InterceptFs<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterceptFs")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<F: FileSystem> InterceptFs<F> {
    /// Wraps `inner`, reporting to `processor`.
    pub fn new(inner: F, processor: Arc<dyn IoProcessor>) -> Self {
        InterceptFs { inner, processor }
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: FileSystem> FileSystem for InterceptFs<F> {
    fn create(&self, path: &str) -> Result<(), FsError> {
        self.inner.create(path)
    }

    fn write(&self, path: &str, offset: u64, data: &[u8], sync: bool) -> Result<(), FsError> {
        // Algorithm 2 ordering: apply locally first, then hand to the
        // processor (which may block the caller for Safety enforcement).
        self.inner.write(path, offset, data, sync)?;
        let event = WriteEvent {
            path: Arc::from(path),
            offset,
            data: Arc::from(data),
            sync,
        };
        self.processor.on_write(&event);
        Ok(())
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        self.inner.read(path, offset, len)
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.inner.read_all(path)
    }

    fn len(&self, path: &str) -> Result<u64, FsError> {
        self.inner.len(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        self.inner.truncate(path, len)
    }

    fn delete(&self, path: &str) -> Result<(), FsError> {
        self.inner.delete(path)?;
        self.processor.on_delete(path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        self.inner.rename(from, to)?;
        self.processor.on_rename(from, to);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, FsError> {
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;
    use parking_lot::Mutex;

    #[derive(Default)]
    struct Recorder {
        writes: Mutex<Vec<WriteEvent>>,
        deletes: Mutex<Vec<String>>,
        renames: Mutex<Vec<(String, String)>>,
    }

    impl IoProcessor for Recorder {
        fn on_write(&self, event: &WriteEvent) {
            self.writes.lock().push(event.clone());
        }
        fn on_delete(&self, path: &str) {
            self.deletes.lock().push(path.to_string());
        }
        fn on_rename(&self, from: &str, to: &str) {
            self.renames.lock().push((from.to_string(), to.to_string()));
        }
    }

    fn rig() -> (InterceptFs<MemFs>, Arc<Recorder>) {
        let rec = Arc::new(Recorder::default());
        (InterceptFs::new(MemFs::new(), rec.clone()), rec)
    }

    #[test]
    fn writes_forwarded_and_reported() {
        let (fs, rec) = rig();
        fs.write("wal/1", 8, b"data", true).unwrap();
        assert_eq!(fs.inner().read("wal/1", 8, 4).unwrap(), b"data");
        let writes = rec.writes.lock();
        assert_eq!(writes.len(), 1);
        assert_eq!(&*writes[0].path, "wal/1");
        assert_eq!(writes[0].offset, 8);
        assert_eq!(&writes[0].data[..], b"data");
        assert!(writes[0].sync);
        assert_eq!(writes[0].end(), 12);
        assert_eq!(writes[0].len(), 4);
    }

    #[test]
    fn local_write_happens_before_event() {
        // The processor must observe the data already durable locally.
        struct Check {
            fs: Arc<MemFs>,
        }
        impl IoProcessor for Check {
            fn on_write(&self, event: &WriteEvent) {
                let read = self
                    .fs
                    .read(&event.path, event.offset, event.len())
                    .unwrap();
                assert_eq!(read, &event.data[..]);
            }
        }
        let mem = Arc::new(MemFs::new());
        let fs = InterceptFs::new(mem.clone(), Arc::new(Check { fs: mem.clone() }));
        fs.write("f", 0, b"visible", true).unwrap();
    }

    #[test]
    fn failed_write_not_reported() {
        // DirFs with an invalid path fails; no event should be emitted.
        let rec = Arc::new(Recorder::default());
        let dir = crate::DirFs::open(
            std::env::temp_dir().join(format!("ginja-int-{}", std::process::id())),
        )
        .unwrap();
        let fs = InterceptFs::new(dir, rec.clone());
        assert!(fs.write("../bad", 0, b"x", false).is_err());
        assert!(rec.writes.lock().is_empty());
    }

    #[test]
    fn deletes_and_renames_reported() {
        let (fs, rec) = rig();
        fs.write("a", 0, b"1", false).unwrap();
        fs.rename("a", "b").unwrap();
        fs.delete("b").unwrap();
        assert_eq!(
            rec.renames.lock().as_slice(),
            &[("a".to_string(), "b".to_string())]
        );
        assert_eq!(rec.deletes.lock().as_slice(), &["b".to_string()]);
    }

    #[test]
    fn reads_not_intercepted() {
        let (fs, rec) = rig();
        fs.write("f", 0, b"abc", false).unwrap();
        let _ = fs.read("f", 0, 3).unwrap();
        let _ = fs.read_all("f").unwrap();
        let _ = fs.len("f").unwrap();
        let _ = fs.list("").unwrap();
        assert_eq!(rec.writes.lock().len(), 1);
    }

    #[test]
    fn null_processor_is_transparent() {
        let fs = InterceptFs::new(MemFs::new(), Arc::new(NullProcessor));
        fs.write("f", 0, b"x", true).unwrap();
        assert_eq!(fs.read_all("f").unwrap(), b"x");
    }
}
