//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own decorators at the
//! layer boundaries (see `probes`); nothing inside the program is
//! instrumented. Each thread keeps a stack of open spans, so a span's
//! parent is whatever was open on the same thread when it started, and
//! a span's **self time** is its duration minus the time its direct
//! children cover. Closed spans stay in memory as 40-byte structs and
//! are aggregated when the run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which boundary a span was recorded at. The layer is the module of
/// the repo that *owns the time* inside the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// workload: one TPC-C transaction, `run_transaction` entry to exit.
    Txn,
    /// vfs: `InterceptFs::write` as the engine calls it.
    FsWrite,
    /// vfs: any other file operation the engine issues (reads, lists…).
    FsOther,
    /// vfs: the write as it reaches the local `MemFs`.
    LocalWrite,
    /// vfs: any other operation as it reaches the local `MemFs`.
    LocalOther,
    /// core: `Ginja::on_write` for a WAL append (commit-to-unblock).
    OnWriteWal,
    /// core: `Ginja::on_write` for a data or control file write.
    OnWriteData,
    /// core: `Ginja::on_write` for a write Ginja ignores.
    OnWriteOther,
    /// vfs: `DbmsProcessor::classify`.
    Classify,
}

impl SpanKind {
    /// Every kind, for aggregation tables.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Txn,
        SpanKind::FsWrite,
        SpanKind::FsOther,
        SpanKind::LocalWrite,
        SpanKind::LocalOther,
        SpanKind::OnWriteWal,
        SpanKind::OnWriteData,
        SpanKind::OnWriteOther,
        SpanKind::Classify,
    ];

    /// Name and owning layer, as written to `--trace-out`.
    pub fn label(self) -> (&'static str, &'static str) {
        match self {
            SpanKind::Txn => ("txn", "db"),
            SpanKind::FsWrite => ("intercept_write", "vfs"),
            SpanKind::FsOther => ("fs_other", "vfs"),
            SpanKind::LocalWrite => ("local_write", "vfs"),
            SpanKind::LocalOther => ("local_other", "vfs"),
            SpanKind::OnWriteWal => ("on_write_wal", "core"),
            SpanKind::OnWriteData => ("on_write_data", "core"),
            SpanKind::OnWriteOther => ("on_write_other", "core"),
            SpanKind::Classify => ("classify", "vfs"),
        }
    }
}

/// Marks "no parent" / "no transaction".
pub const NONE: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    /// Recording thread (index in registration order).
    pub thread: u32,
    /// Per-thread span id; `(thread, id)` is unique.
    pub id: u32,
    /// Id of the enclosing span on the same thread, or [`NONE`].
    pub parent: u32,
    /// Transaction the span belongs to, or [`NONE`].
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part direct children cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

struct Frame {
    kind: SpanKind,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Local {
    thread: u32,
    next_id: u32,
    txn: u32,
    stack: Vec<Frame>,
    out: Arc<Mutex<Vec<Span>>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Nanoseconds since the process-wide trace epoch (monotonic). Every
/// timestamp the benchmark joins across threads comes from here.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off. Off (the default) makes
/// [`enter`] a single relaxed load.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let out = Arc::new(Mutex::new(Vec::new()));
            let mut buffers = BUFFERS.lock().expect("trace registry poisoned");
            buffers.push(out.clone());
            Local {
                thread: (buffers.len() - 1) as u32,
                next_id: 0,
                txn: NONE,
                stack: Vec::new(),
                out,
            }
        });
        f(local)
    })
}

/// Tags the spans this thread opens from now on with a transaction id.
pub fn set_txn(txn: u32) {
    if enabled() {
        with_local(|l| l.txn = txn);
    }
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    open: bool,
}

/// Opens a span of `kind` on this thread (no-op when tracing is off).
pub fn enter(kind: SpanKind) -> Guard {
    if !enabled() {
        return Guard { open: false };
    }
    let start_ns = now_ns();
    with_local(|l| {
        let id = l.next_id;
        l.next_id += 1;
        l.stack.push(Frame {
            kind,
            id,
            start_ns,
            child_ns: 0,
        });
    });
    Guard { open: true }
}

impl Guard {
    /// Re-labels the open span — `on_write` only learns the I/O class
    /// once the classifier ran inside it.
    pub fn relabel(&self, kind: SpanKind) {
        if self.open {
            with_local(|l| {
                if let Some(frame) = l.stack.last_mut() {
                    frame.kind = kind;
                }
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end_ns = now_ns();
        with_local(|l| {
            let Some(frame) = l.stack.pop() else { return };
            let parent = match l.stack.last_mut() {
                Some(p) => {
                    p.child_ns += end_ns - frame.start_ns;
                    p.id
                }
                None => NONE,
            };
            let span = Span {
                kind: frame.kind,
                thread: l.thread,
                id: frame.id,
                parent,
                txn: l.txn,
                start_ns: frame.start_ns,
                end_ns,
                child_ns: frame.child_ns,
            };
            if let Ok(mut out) = l.out.lock() {
                out.push(span);
            }
        });
    }
}

/// Takes every span recorded so far, from all threads.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("trace registry poisoned");
    let mut all = Vec::new();
    for buf in buffers.iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    all
}

/// Per-kind totals and sample vectors over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct KindAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_total_ns: u64,
    /// Self time per span, unsorted.
    pub self_ns: Vec<u64>,
    /// Full duration per span, unsorted.
    pub dur_ns: Vec<u64>,
}

/// Groups spans by kind.
pub fn aggregate(spans: &[Span]) -> std::collections::BTreeMap<SpanKind, KindAgg> {
    let mut map = std::collections::BTreeMap::new();
    for kind in SpanKind::ALL {
        map.insert(kind, KindAgg::default());
    }
    for s in spans {
        let agg = map.get_mut(&s.kind).expect("every kind pre-inserted");
        agg.count += 1;
        agg.total_ns += s.dur_ns();
        agg.self_total_ns += s.self_ns();
        agg.self_ns.push(s.self_ns());
        agg.dur_ns.push(s.dur_ns());
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64, child: u64) -> Span {
        Span {
            kind,
            thread: 0,
            id: 0,
            parent: NONE,
            txn: NONE,
            start_ns: start,
            end_ns: end,
            child_ns: child,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = span(SpanKind::Txn, 100, 1_100, 400);
        assert_eq!(s.dur_ns(), 1_000);
        assert_eq!(s.self_ns(), 600);
        // Clock skew between nested `now_ns` calls can never underflow.
        assert_eq!(span(SpanKind::Txn, 0, 10, 25).self_ns(), 0);
    }

    #[test]
    fn nested_guards_attribute_child_time_to_the_parent() {
        // Spans record per thread, so a private thread keeps this test
        // independent of others that trace concurrently.
        let spans = std::thread::spawn(|| {
            set_enabled(true);
            set_txn(7);
            {
                let _txn = enter(SpanKind::Txn);
                {
                    let write = enter(SpanKind::FsWrite);
                    {
                        let _leaf = enter(SpanKind::LocalWrite);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    write.relabel(SpanKind::FsOther);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let mine = with_local(|l| l.thread);
            drain()
                .into_iter()
                .filter(|s| s.thread == mine)
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();

        assert_eq!(spans.len(), 3, "{spans:?}");
        // Children close first.
        let (leaf, mid, txn) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(leaf.kind, SpanKind::LocalWrite);
        assert_eq!(mid.kind, SpanKind::FsOther, "relabel applies");
        assert_eq!(txn.kind, SpanKind::Txn);
        assert_eq!(leaf.parent, mid.id);
        assert_eq!(mid.parent, txn.id);
        assert_eq!(txn.parent, NONE);
        assert!(spans.iter().all(|s| s.txn == 7));
        assert_eq!(mid.child_ns, leaf.dur_ns());
        assert_eq!(txn.child_ns, mid.dur_ns());
        // Self times of the chain add up to the root's duration exactly.
        let sum: u64 = spans.iter().map(Span::self_ns).sum();
        assert_eq!(sum, txn.dur_ns());
        let agg = aggregate(&spans);
        assert_eq!(agg[&SpanKind::Txn].count, 1);
        assert_eq!(agg[&SpanKind::Txn].self_total_ns, txn.self_ns());
        assert_eq!(agg[&SpanKind::Classify].count, 0);
    }
}
