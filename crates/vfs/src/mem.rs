use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::{FileSystem, FsError};

/// In-memory [`FileSystem`] — the default substrate for tests and
/// simulated experiments (fast and trivially wiped for disaster drills).
///
/// Every write is durable the instant it returns ("sync-transparent"):
/// there is no volatile page cache to lose, so `sync` only affects the
/// [`MemFs::synced_writes`]/[`MemFs::unsynced_writes`] counters. Tests
/// that need the real distinction — un-synced bytes that a power cut
/// destroys — wrap their workload in [`crate::JournaledFs`] instead.
#[derive(Debug, Default)]
pub struct MemFs {
    files: RwLock<BTreeMap<String, Vec<u8>>>,
    synced_writes: AtomicU64,
    unsynced_writes: AtomicU64,
}

impl MemFs {
    /// Creates an empty file system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of all file sizes.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|v| v.len() as u64).sum()
    }

    /// Writes that asked for durability (`sync == true`).
    pub fn synced_writes(&self) -> u64 {
        self.synced_writes.load(Ordering::Relaxed)
    }

    /// Writes that did not ask for durability (`sync == false`) — the
    /// ones a power cut would destroy on a real disk.
    pub fn unsynced_writes(&self) -> u64 {
        self.unsynced_writes.load(Ordering::Relaxed)
    }

    /// A deep copy of the current state — the benchmark harness loads a
    /// database once and forks it for each experiment configuration.
    /// Write counters start at zero in the copy.
    pub fn fork(&self) -> MemFs {
        MemFs {
            files: RwLock::new(self.files.read().clone()),
            synced_writes: AtomicU64::new(0),
            unsynced_writes: AtomicU64::new(0),
        }
    }
}

impl FileSystem for MemFs {
    fn create(&self, path: &str) -> Result<(), FsError> {
        let mut files = self.files.write();
        if files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        files.insert(path.to_string(), Vec::new());
        Ok(())
    }

    fn write(&self, path: &str, offset: u64, data: &[u8], sync: bool) -> Result<(), FsError> {
        if sync {
            self.synced_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.unsynced_writes.fetch_add(1, Ordering::Relaxed);
        }
        let mut files = self.files.write();
        let file = files.entry(path.to_string()).or_default();
        let offset = offset as usize;
        let end = offset + data.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset..end].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let files = self.files.read();
        let file = files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let offset = offset as usize;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| FsError::OutOfBounds {
                path: path.to_string(),
                offset: offset as u64,
                len: file.len() as u64,
            })?;
        if end > file.len() {
            return Err(FsError::OutOfBounds {
                path: path.to_string(),
                offset: offset as u64,
                len: file.len() as u64,
            });
        }
        Ok(file[offset..end].to_vec())
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    fn len(&self, path: &str) -> Result<u64, FsError> {
        self.files
            .read()
            .get(path)
            .map(|f| f.len() as u64)
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        let mut files = self.files.write();
        let file = files
            .get_mut(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        file.resize(len as usize, 0);
        Ok(())
    }

    fn delete(&self, path: &str) -> Result<(), FsError> {
        self.files.write().remove(path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let mut files = self.files.write();
        let data = files
            .remove(from)
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        files.insert(to.to_string(), data);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, FsError> {
        let files = self.files.read();
        Ok(files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_write_read() {
        let fs = MemFs::new();
        fs.create("f").unwrap();
        fs.write("f", 0, b"hello", true).unwrap();
        assert_eq!(fs.read("f", 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read("f", 1, 3).unwrap(), b"ell");
    }

    #[test]
    fn create_existing_fails() {
        let fs = MemFs::new();
        fs.create("f").unwrap();
        assert!(matches!(fs.create("f"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn write_creates_implicitly_and_zero_fills() {
        let fs = MemFs::new();
        fs.write("f", 4, b"ab", false).unwrap();
        assert_eq!(fs.len("f").unwrap(), 6);
        assert_eq!(fs.read_all("f").unwrap(), vec![0, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn overwrite_middle() {
        let fs = MemFs::new();
        fs.write("f", 0, b"aaaaaa", false).unwrap();
        fs.write("f", 2, b"XX", false).unwrap();
        assert_eq!(fs.read_all("f").unwrap(), b"aaXXaa");
    }

    #[test]
    fn read_past_end_is_out_of_bounds() {
        let fs = MemFs::new();
        fs.write("f", 0, b"abc", false).unwrap();
        assert!(matches!(
            fs.read("f", 2, 5),
            Err(FsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            fs.read("f", 10, 1),
            Err(FsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_missing_file() {
        let fs = MemFs::new();
        assert!(matches!(fs.read("nope", 0, 1), Err(FsError::NotFound(_))));
        assert!(matches!(fs.read_all("nope"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.len("nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let fs = MemFs::new();
        fs.write("f", 0, b"abcdef", false).unwrap();
        fs.truncate("f", 3).unwrap();
        assert_eq!(fs.read_all("f").unwrap(), b"abc");
        fs.truncate("f", 5).unwrap();
        assert_eq!(fs.read_all("f").unwrap(), vec![b'a', b'b', b'c', 0, 0]);
    }

    #[test]
    fn rename_moves_content() {
        let fs = MemFs::new();
        fs.write("old", 0, b"x", false).unwrap();
        fs.rename("old", "new").unwrap();
        assert!(!fs.exists("old"));
        assert_eq!(fs.read_all("new").unwrap(), b"x");
        assert!(matches!(
            fs.rename("old", "other"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn list_prefix() {
        let fs = MemFs::new();
        fs.write("pg_xlog/001", 0, b"", false).unwrap();
        fs.write("pg_xlog/002", 0, b"", false).unwrap();
        fs.write("base/t1", 0, b"", false).unwrap();
        assert_eq!(
            fs.list("pg_xlog/").unwrap(),
            vec!["pg_xlog/001", "pg_xlog/002"]
        );
        assert_eq!(fs.list("").unwrap().len(), 3);
    }

    #[test]
    fn delete_and_wipe() {
        let fs = MemFs::new();
        fs.write("a", 0, b"1", false).unwrap();
        fs.write("b", 0, b"2", false).unwrap();
        fs.delete("a").unwrap();
        fs.delete("a").unwrap(); // idempotent
        assert_eq!(fs.list("").unwrap().len(), 1);
        fs.wipe().unwrap();
        assert_eq!(fs.list("").unwrap().len(), 0);
    }

    #[test]
    fn fork_is_independent() {
        let fs = MemFs::new();
        fs.write("a", 0, b"original", false).unwrap();
        let copy = fs.fork();
        copy.write("a", 0, b"modified", false).unwrap();
        copy.write("b", 0, b"new", false).unwrap();
        assert_eq!(fs.read_all("a").unwrap(), b"original");
        assert!(!fs.exists("b"));
        assert_eq!(copy.read_all("a").unwrap(), b"modified");
    }

    #[test]
    fn sync_flag_is_observed() {
        let fs = MemFs::new();
        fs.write("f", 0, b"a", true).unwrap();
        fs.write("f", 1, b"b", false).unwrap();
        fs.write("f", 2, b"c", false).unwrap();
        assert_eq!(fs.synced_writes(), 1);
        assert_eq!(fs.unsynced_writes(), 2);
        // Content is identical either way: MemFs stays sync-transparent.
        assert_eq!(fs.read_all("f").unwrap(), b"abc");
        let copy = fs.fork();
        assert_eq!(copy.synced_writes(), 0);
        assert_eq!(copy.unsynced_writes(), 0);
    }

    #[test]
    fn total_bytes_tracks_content() {
        let fs = MemFs::new();
        fs.write("a", 0, &[0u8; 100], false).unwrap();
        fs.write("b", 0, &[0u8; 20], false).unwrap();
        assert_eq!(fs.total_bytes(), 120);
    }
}
