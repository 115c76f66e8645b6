//! Local-storage fault injection — the disk-side mirror of the cloud
//! crate's `FaultPlan`/`FaultStore` pair, beside the crash-point
//! explorer ([`crate::crashpoint`]) that drives it.
//!
//! A [`VfsFaultPlan`] schedules failures; a [`FaultFs`] wrapper
//! consults it before forwarding each call to the inner
//! [`FileSystem`]. Rules (`fail_next`, `fail_matching`,
//! `fail_randomly`) run on the cloud crate's [`FaultSchedule`] — one
//! fault-rule engine for both layers, so a seed replays the same
//! failure pattern on either. Two fault families:
//!
//! * **Errors the caller sees**: injected `EIO` ([`FsFaultKind::Io`]),
//!   `ENOSPC` ([`FsFaultKind::NoSpace`]), short writes that persist
//!   only a sector prefix ([`FsFaultKind::ShortWrite`]), and failed
//!   fsyncs whose dirty data is silently dropped
//!   ([`FsFaultKind::FsyncLoss`] — the ext4 behavior the fsync-failure
//!   studies documented).
//! * **Process death**: [`VfsFaultPlan::halt_after_op`] and
//!   [`VfsFaultPlan::halt_during_op`] kill the "process" at a chosen
//!   mutating-op index — every later call fails without side effects,
//!   and the mid-write variant leaves the interrupted write volatile so
//!   a [`JournaledFs::power_cut_torn`] decides which of its sectors
//!   hit the platter. The crash-point explorer enumerates these indices
//!   exhaustively.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ginja_cloud::FaultSchedule;
use ginja_vfs::{FileSystem, FsError, JournaledFs, DEFAULT_SECTOR_SIZE};

/// The operation kinds a local fault rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsOpKind {
    /// File creation.
    Create,
    /// Data writes (sync and non-sync alike).
    Write,
    /// Reads (`read`, `read_all`, `len`).
    Read,
    /// Truncations.
    Truncate,
    /// Deletions.
    Delete,
    /// Renames.
    Rename,
    /// Listings.
    List,
}

impl FsOpKind {
    fn is_mutating(self) -> bool {
        !matches!(self, FsOpKind::Read | FsOpKind::List)
    }
}

/// What an injected local fault does to the intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFaultKind {
    /// The operation fails with [`FsError::Io`]; nothing is applied.
    Io,
    /// The operation fails with [`FsError::NoSpace`]; nothing is
    /// applied.
    NoSpace,
    /// A write persists only its first sector before failing with
    /// [`FsError::Io`] (torn at the plan's sector size). Non-write
    /// operations degrade to a plain [`FsFaultKind::Io`].
    ShortWrite,
    /// The write's data reaches the page cache but its fsync fails —
    /// and, as on ext4, the now-clean dirty pages are dropped rather
    /// than retried: the data is *gone* even though the file system
    /// keeps running. Requires [`FaultFs::with_journal`]; without a
    /// journal the data merely stays volatile in the inner fs.
    FsyncLoss,
}

/// What the plan decided for one intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Proceed,
    /// The process is dead: fail with no side effects.
    Halted,
    /// The process dies *during* this write: leave its bytes volatile,
    /// then fail.
    TearAndHalt,
    Inject(FsFaultKind),
}

/// A programmable schedule of local-storage failures shared with a
/// [`FaultFs`] — the same API shape as the cloud `FaultPlan`, plus the
/// crash-point halt controls.
///
/// ```rust
/// use std::sync::Arc;
/// use ginja::fault::{FaultFs, FsFaultKind, FsOpKind, VfsFaultPlan};
/// use ginja::vfs::{FileSystem, MemFs};
///
/// let plan = Arc::new(VfsFaultPlan::new());
/// let fs = FaultFs::new(Arc::new(MemFs::new()), plan.clone());
/// plan.fail_next(FsOpKind::Write, 1, FsFaultKind::NoSpace);
/// assert!(fs.write("f", 0, b"x", true).is_err());
/// assert!(fs.write("f", 0, b"x", true).is_ok());
/// ```
#[derive(Debug)]
pub struct VfsFaultPlan {
    rules: FaultSchedule<FsOpKind, FsFaultKind>,
    /// Mutating-op indices strictly greater than this fail (process
    /// died right after the op at this index). `u64::MAX` disarms.
    halt_after: AtomicU64,
    /// The mutating op at exactly this index is torn-and-halted.
    halt_during: AtomicU64,
    /// The mutating op at this index trips this kind (one-shot).
    fault_at: Mutex<Option<(u64, FsFaultKind)>>,
    ops_seen: AtomicU64,
    injected: AtomicUsize,
    sector_size: usize,
}

/// No code panics while holding `VfsFaultPlan::fault_at`.
const POISONED: &str = "fault_at holder never panics";

impl Default for VfsFaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl VfsFaultPlan {
    /// A plan with no scheduled faults.
    pub fn new() -> Self {
        Self::with_sector_size(DEFAULT_SECTOR_SIZE)
    }

    /// A plan whose short writes keep `sector_size` bytes.
    ///
    /// # Panics
    ///
    /// If `sector_size` is zero.
    pub fn with_sector_size(sector_size: usize) -> Self {
        assert!(sector_size > 0, "sector size must be positive");
        VfsFaultPlan {
            rules: FaultSchedule::new(),
            halt_after: AtomicU64::new(u64::MAX),
            halt_during: AtomicU64::new(u64::MAX),
            fault_at: Mutex::new(None),
            ops_seen: AtomicU64::new(0),
            injected: AtomicUsize::new(0),
            sector_size,
        }
    }

    /// Fails the next `n` operations of kind `op` (any path) with
    /// `kind`.
    pub fn fail_next(&self, op: FsOpKind, n: usize, kind: FsFaultKind) {
        self.rules.fail_next(op, None, n, kind);
    }

    /// Fails the next `n` operations of kind `op` whose path contains
    /// `fragment`.
    pub fn fail_matching(
        &self,
        op: FsOpKind,
        fragment: impl Into<String>,
        n: usize,
        kind: FsFaultKind,
    ) {
        self.rules.fail_next(op, Some(fragment.into()), n, kind);
    }

    /// Fails each operation of kind `op` independently with probability
    /// `p`, forever (until [`VfsFaultPlan::clear`]). Deterministic per
    /// `seed`.
    pub fn fail_randomly(&self, op: FsOpKind, p: f64, seed: u64, kind: FsFaultKind) {
        self.rules.fail_randomly(op, p, seed, kind);
    }

    /// Removes all scheduled rules (halt state is unaffected).
    pub fn clear(&self) {
        self.rules.clear();
    }

    /// Fails the *single* mutating op with index `n` (0-based, counted
    /// from plan creation) with `kind`, then disarms — the crash-point
    /// explorer's "an I/O error struck exactly here, and the process
    /// survived it". Unlike [`VfsFaultPlan::fail_next`], which fires on
    /// the next matching op whenever it happens, this addresses one
    /// fixed point in the op stream, so a seeded replay hits the same
    /// operation every time.
    pub fn fail_at_op(&self, n: u64, kind: FsFaultKind) {
        *self.fault_at.lock().expect(POISONED) = Some((n, kind));
    }

    /// Kills the process right after the mutating op with index `n`
    /// (0-based, counted from plan creation): every later mutating op
    /// and every read fails with no side effects — the crash-point
    /// explorer's "power was cut between two I/Os".
    pub fn halt_after_op(&self, n: u64) {
        self.halt_after.store(n, Ordering::SeqCst);
    }

    /// Kills the process *during* the mutating op with index `n`: that
    /// write's bytes reach the page cache (never the platter — pair
    /// with [`JournaledFs::power_cut_torn`]), everything after
    /// fails — "power was cut mid-write".
    pub fn halt_during_op(&self, n: u64) {
        self.halt_during.store(n, Ordering::SeqCst);
    }

    /// Revives the process: disarms both halt modes.
    pub fn revive(&self) {
        self.halt_after.store(u64::MAX, Ordering::SeqCst);
        self.halt_during.store(u64::MAX, Ordering::SeqCst);
    }

    /// Whether a halt has tripped (the process is "dead").
    pub fn halted(&self) -> bool {
        let seen = self.ops_seen.load(Ordering::SeqCst);
        seen > self.halt_after.load(Ordering::SeqCst)
            || seen > self.halt_during.load(Ordering::SeqCst)
    }

    /// Mutating operations observed so far — the crash-point space.
    pub fn mutating_ops_seen(&self) -> u64 {
        self.ops_seen.load(Ordering::SeqCst)
    }

    /// Number of faults injected so far (halts are not faults).
    pub fn injected_count(&self) -> usize {
        self.injected.load(Ordering::SeqCst)
    }

    fn check(&self, op: FsOpKind, name: &str) -> Verdict {
        if op.is_mutating() {
            let idx = self.ops_seen.fetch_add(1, Ordering::SeqCst);
            let during = self.halt_during.load(Ordering::SeqCst);
            if idx == during {
                return Verdict::TearAndHalt;
            }
            if idx > during || idx > self.halt_after.load(Ordering::SeqCst) {
                return Verdict::Halted;
            }
            let armed = self
                .fault_at
                .lock()
                .expect(POISONED)
                .take_if(|(at, _)| *at == idx);
            if let Some((_, kind)) = armed {
                self.injected.fetch_add(1, Ordering::SeqCst);
                return Verdict::Inject(kind);
            }
        } else if self.halted() {
            // The dead process cannot read either.
            return Verdict::Halted;
        }
        match self.rules.check(op, name) {
            Some(kind) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                Verdict::Inject(kind)
            }
            None => Verdict::Proceed,
        }
    }
}

fn halt_error(op: FsOpKind, name: &str) -> FsError {
    FsError::Io(format!("injected halt: process dead at {op:?} {name}"))
}

fn injected_io(op: FsOpKind, name: &str) -> FsError {
    FsError::Io(format!("injected {op:?} failure for {name}"))
}

/// A [`FileSystem`] decorator that consults a [`VfsFaultPlan`] before
/// every operation — the local mirror of the cloud `FaultStore`.
#[derive(Debug)]
pub struct FaultFs<F> {
    inner: F,
    plan: Arc<VfsFaultPlan>,
    /// Set by [`FaultFs::with_journal`]: lets [`FsFaultKind::FsyncLoss`]
    /// actually drop the dirty data, as ext4 does.
    journal: Option<Arc<JournaledFs>>,
}

impl<F: FileSystem> FaultFs<F> {
    /// Wraps `inner`; faults are scheduled through the shared `plan`.
    pub fn new(inner: F, plan: Arc<VfsFaultPlan>) -> Self {
        FaultFs {
            inner,
            plan,
            journal: None,
        }
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The shared fault plan.
    pub fn plan(&self) -> &Arc<VfsFaultPlan> {
        &self.plan
    }
}

impl FaultFs<Arc<JournaledFs>> {
    /// Wraps a [`JournaledFs`] and remembers it, so
    /// [`FsFaultKind::FsyncLoss`] can discard the lost write's dirty
    /// data immediately (not merely leave it volatile).
    pub fn with_journal(journal: Arc<JournaledFs>, plan: Arc<VfsFaultPlan>) -> Self {
        FaultFs {
            inner: journal.clone(),
            plan,
            journal: Some(journal),
        }
    }
}

impl<F: FileSystem> FaultFs<F> {
    /// Shared handling for mutating non-write operations.
    fn gate(&self, op: FsOpKind, name: &str) -> Result<(), FsError> {
        match self.plan.check(op, name) {
            Verdict::Proceed => Ok(()),
            // There is no data to tear in a metadata op; the process
            // simply dies before it takes effect.
            Verdict::Halted | Verdict::TearAndHalt => Err(halt_error(op, name)),
            Verdict::Inject(FsFaultKind::NoSpace) => Err(FsError::NoSpace(name.to_string())),
            Verdict::Inject(_) => Err(injected_io(op, name)),
        }
    }
}

impl<F: FileSystem> FileSystem for FaultFs<F> {
    fn create(&self, path: &str) -> Result<(), FsError> {
        self.gate(FsOpKind::Create, path)?;
        self.inner.create(path)
    }

    fn write(&self, path: &str, offset: u64, data: &[u8], sync: bool) -> Result<(), FsError> {
        match self.plan.check(FsOpKind::Write, path) {
            Verdict::Proceed => self.inner.write(path, offset, data, sync),
            Verdict::Halted => Err(halt_error(FsOpKind::Write, path)),
            Verdict::TearAndHalt => {
                // The bytes reached the page cache; the fsync (if any)
                // never completed. power_cut_torn() decides which
                // sectors made it to the platter.
                self.inner.write(path, offset, data, false)?;
                Err(FsError::Io(format!(
                    "injected halt: process dead mid-write of {path}"
                )))
            }
            Verdict::Inject(FsFaultKind::Io) => Err(injected_io(FsOpKind::Write, path)),
            Verdict::Inject(FsFaultKind::NoSpace) => Err(FsError::NoSpace(path.to_string())),
            Verdict::Inject(FsFaultKind::ShortWrite) => {
                let keep = data.len().min(self.plan.sector_size);
                if keep > 0 {
                    self.inner.write(path, offset, &data[..keep], sync)?;
                }
                Err(FsError::Io(format!(
                    "injected short write for {path}: {keep} of {} bytes",
                    data.len()
                )))
            }
            Verdict::Inject(FsFaultKind::FsyncLoss) => {
                self.inner.write(path, offset, data, false)?;
                if let Some(journal) = &self.journal {
                    journal.discard_volatile(path);
                }
                Err(FsError::Io(format!(
                    "injected fsync failure for {path}: dirty data dropped"
                )))
            }
        }
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        self.gate(FsOpKind::Read, path)?;
        self.inner.read(path, offset, len)
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.gate(FsOpKind::Read, path)?;
        self.inner.read_all(path)
    }

    fn len(&self, path: &str) -> Result<u64, FsError> {
        self.gate(FsOpKind::Read, path)?;
        self.inner.len(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
        self.gate(FsOpKind::Truncate, path)?;
        self.inner.truncate(path, len)
    }

    fn delete(&self, path: &str) -> Result<(), FsError> {
        self.gate(FsOpKind::Delete, path)?;
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        self.gate(FsOpKind::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, FsError> {
        self.gate(FsOpKind::List, prefix)?;
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_vfs::MemFs;

    fn fs_with_plan() -> (FaultFs<MemFs>, Arc<VfsFaultPlan>) {
        let plan = Arc::new(VfsFaultPlan::new());
        (FaultFs::new(MemFs::new(), plan.clone()), plan)
    }

    #[test]
    fn no_faults_passes_through() {
        let (fs, plan) = fs_with_plan();
        fs.create("a").unwrap();
        fs.write("a", 0, b"123", true).unwrap();
        assert_eq!(fs.read("a", 1, 2).unwrap(), b"23");
        assert_eq!(fs.read_all("a").unwrap(), b"123");
        assert_eq!(fs.len("a").unwrap(), 3);
        fs.truncate("a", 1).unwrap();
        fs.rename("a", "b").unwrap();
        assert_eq!(fs.list("").unwrap(), vec!["b"]);
        assert!(fs.exists("b"));
        fs.delete("b").unwrap();
        fs.wipe().unwrap();
        assert_eq!(plan.injected_count(), 0);
    }

    #[test]
    fn fail_next_write_with_each_kind() {
        let (fs, plan) = fs_with_plan();
        plan.fail_next(FsOpKind::Write, 1, FsFaultKind::Io);
        assert!(matches!(fs.write("f", 0, b"x", true), Err(FsError::Io(_))));
        plan.fail_next(FsOpKind::Write, 1, FsFaultKind::NoSpace);
        assert!(matches!(
            fs.write("f", 0, b"x", true),
            Err(FsError::NoSpace(_))
        ));
        fs.write("f", 0, b"x", true).unwrap();
        assert_eq!(plan.injected_count(), 2);
    }

    #[test]
    fn failed_write_applies_nothing() {
        let (fs, plan) = fs_with_plan();
        plan.fail_next(FsOpKind::Write, 1, FsFaultKind::Io);
        let _ = fs.write("f", 0, b"x", true);
        assert!(!fs.exists("f"));
    }

    #[test]
    fn short_write_persists_one_sector() {
        let plan = Arc::new(VfsFaultPlan::with_sector_size(4));
        let fs = FaultFs::new(MemFs::new(), plan.clone());
        plan.fail_next(FsOpKind::Write, 1, FsFaultKind::ShortWrite);
        assert!(fs.write("f", 0, b"AAAABBBB", true).is_err());
        assert_eq!(fs.read_all("f").unwrap(), b"AAAA");
    }

    #[test]
    fn fsync_loss_drops_dirty_data_through_journal() {
        let plan = Arc::new(VfsFaultPlan::new());
        let journal = Arc::new(JournaledFs::new());
        let fs = FaultFs::with_journal(journal.clone(), plan.clone());
        fs.write("f", 0, b"safe", true).unwrap();
        plan.fail_next(FsOpKind::Write, 1, FsFaultKind::FsyncLoss);
        assert!(fs.write("f", 4, b"gone", true).is_err());
        // The data is not even in the cache view any more.
        assert_eq!(fs.read_all("f").unwrap(), b"safe");
        journal.power_cut();
        assert_eq!(fs.read_all("f").unwrap(), b"safe");
    }

    #[test]
    fn fail_randomly_replays_the_cloud_stream() {
        // The mask `ginja_cloud`'s `FaultPlan::fail_randomly(Put, 0.5, 7)`
        // yields over 64 PUTs: both layers draw from one engine.
        let (fs, plan) = fs_with_plan();
        plan.fail_randomly(FsOpKind::Write, 0.5, 7, FsFaultKind::Io);
        let mask = (0..64).fold(0u64, |mask, i| {
            mask | (u64::from(fs.write(&format!("o{i}"), 0, b"x", false).is_err()) << i)
        });
        assert_eq!(mask, 0xb3b8_3cd3_ace2_07f3);
    }

    #[test]
    fn fail_at_op_targets_one_mutating_index_once() {
        let (fs, plan) = fs_with_plan();
        plan.fail_at_op(2, FsFaultKind::NoSpace);
        fs.write("a", 0, b"x", true).unwrap(); // op 0
        fs.create("b").unwrap(); // op 1
        assert!(matches!(
            fs.write("c", 0, b"x", true), // op 2: the targeted one
            Err(FsError::NoSpace(_))
        ));
        fs.write("c", 0, b"x", true).unwrap(); // op 3: disarmed again
        let _ = fs.read_all("c"); // reads never consume indices
        assert_eq!(plan.injected_count(), 1);
    }

    #[test]
    fn halt_after_op_kills_everything_later() {
        let (fs, plan) = fs_with_plan();
        fs.write("f", 0, b"pre", true).unwrap();
        plan.halt_after_op(1); // ops 0 and 1 proceed
        fs.write("f", 3, b"last", true).unwrap(); // op 1
        assert!(fs.write("f", 7, b"dead", true).is_err()); // op 2
        assert!(fs.read_all("f").is_err());
        assert!(fs.len("f").is_err());
        assert!(fs.list("").is_err());
        assert!(fs.delete("f").is_err());
        assert!(plan.halted());
        plan.revive();
        assert_eq!(fs.read_all("f").unwrap(), b"prelast");
    }

    #[test]
    fn halt_during_op_leaves_bytes_volatile() {
        let plan = Arc::new(VfsFaultPlan::new());
        let journal = Arc::new(JournaledFs::new());
        let fs = FaultFs::with_journal(journal.clone(), plan.clone());
        fs.write("f", 0, b"pre", true).unwrap(); // op 0
        plan.halt_during_op(1);
        assert!(fs.write("f", 3, b"mid", true).is_err()); // op 1: torn
        assert!(fs.write("f", 6, b"post", true).is_err()); // op 2: dead
        plan.revive();
        // The mid-write bytes are in the cache but not on the platter.
        assert_eq!(journal.read_all("f").unwrap(), b"premid");
        journal.power_cut();
        assert_eq!(journal.read_all("f").unwrap(), b"pre");
    }

    #[test]
    fn mutating_op_indices_count_all_mutations() {
        let (fs, plan) = fs_with_plan();
        fs.create("a").unwrap();
        fs.write("a", 0, b"x", false).unwrap();
        fs.truncate("a", 0).unwrap();
        fs.rename("a", "b").unwrap();
        fs.delete("b").unwrap();
        let _ = fs.list("");
        let _ = fs.read_all("b");
        assert_eq!(plan.mutating_ops_seen(), 5);
    }
}
