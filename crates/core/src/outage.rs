//! Outage endurance beside the S bound: the coalescing checkpoint
//! queue.
//!
//! The paper bounds what a cloud outage can pile up with one mechanism:
//! "any attempt to put an element into a full CommitQueue will block"
//! (§6), capacity S. A commit-queue slot is released only by
//! `CommitQueue::ack_front`, after its object is durable, and an
//! uploader takes its next batch only once its last one is durable, so
//! the commit queue *is* the backlog: at most S un-acked updates — and
//! the DBMS's own WAL file is the durable copy, healed into the cloud by
//! Reboot's resync pass (DESIGN.md §11, §15). An outage changes no
//! setting: B, TB and the dump threshold stay as configured.
//!
//! What S does not bound is checkpoint jobs, which carry page images.
//! [`CkptQueue`] bounds them instead: they are mergeable by construction
//! (the checkpointer already merges timestamp collisions), so at
//! capacity the newest queued job absorbs the incoming one.

use std::collections::VecDeque;

use parking_lot::{Condvar, Mutex};

use crate::bundle::{self, FileRange};
use crate::names::DbObjectKind;

/// A checkpoint ready to become a DB object.
pub(crate) struct CkptJob {
    pub(crate) ts: u64,
    pub(crate) kind: DbObjectKind,
    pub(crate) entries: Vec<FileRange>,
}

/// What [`CkptQueue::push`] did with the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CkptPush {
    /// Enqueued as its own job.
    Queued,
    /// Absorbed into the newest queued job (the queue was at capacity).
    /// The caller must drop its pending-jobs increment: two logical
    /// checkpoints will complete as one.
    Coalesced,
    /// The queue is closed (shutdown); the job was dropped.
    Closed,
}

/// A bounded checkpoint queue — the replacement for the old unbounded
/// checkpoint channel, whose jobs each carry up to a whole database of
/// page images. At capacity the incoming job is written over the newest
/// queued one ([`bundle::overlay`]: last writer wins per byte, each
/// byte carried once), the timestamp takes the max, and Dump-ness is
/// sticky. Applying the merged job gives the image that applying the
/// two in order would.
pub(crate) struct CkptQueue {
    inner: Mutex<CkptInner>,
    not_empty: Condvar,
    capacity: usize,
}

struct CkptInner {
    items: VecDeque<CkptJob>,
    closed: bool,
}

impl CkptQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        CkptQueue {
            inner: Mutex::new(CkptInner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&self, job: CkptJob) -> CkptPush {
        let mut inner = self.inner.lock();
        if inner.closed {
            return CkptPush::Closed;
        }
        if inner.items.len() >= self.capacity {
            let newest = inner
                .items
                .back_mut()
                .expect("capacity >= 1, so a full queue has a back");
            let older = std::mem::take(&mut newest.entries);
            newest.entries = bundle::overlay(older, job.entries);
            newest.ts = newest.ts.max(job.ts);
            if job.kind == DbObjectKind::Dump {
                newest.kind = DbObjectKind::Dump;
            }
            return CkptPush::Coalesced;
        }
        inner.items.push_back(job);
        self.not_empty.notify_one();
        CkptPush::Queued
    }

    /// Blocking pop: `None` only once closed *and* drained.
    pub(crate) fn pop(&self) -> Option<CkptJob> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.items.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn ckpt(ts: u64, kind: DbObjectKind, ranges: &[(&str, u64, &[u8])]) -> CkptJob {
        let entries = ranges
            .iter()
            .map(|&(path, offset, data)| FileRange {
                path: path.into(),
                offset,
                data: data.to_vec(),
            })
            .collect();
        CkptJob { ts, kind, entries }
    }

    /// Each written byte of `entries` applied in order, by (path, offset).
    fn image<'a>(
        entries: impl IntoIterator<Item = &'a FileRange>,
    ) -> std::collections::BTreeMap<(String, u64), u8> {
        let mut image = std::collections::BTreeMap::new();
        for e in entries {
            for (i, byte) in e.data.iter().enumerate() {
                image.insert((e.path.clone(), e.offset + i as u64), *byte);
            }
        }
        image
    }

    #[test]
    fn ckpt_queue_coalesces_at_capacity() {
        use DbObjectKind::{Checkpoint, Dump};
        let q = CkptQueue::new(2);
        let jobs = [
            ckpt(1, Checkpoint, &[("a", 0, b"1111")]),
            ckpt(2, Checkpoint, &[("a", 2, b"2222"), ("b", 0, b"22")]),
            ckpt(3, Dump, &[("a", 0, b"333"), ("c", 0, b"3")]),
            ckpt(4, Checkpoint, &[("a", 5, b"44"), ("b", 1, b"44")]),
        ];
        // What applying the last three one after another writes.
        let want = image(jobs[1..].iter().flat_map(|j| &j.entries));

        let pushed: Vec<CkptPush> = jobs.into_iter().map(|job| q.push(job)).collect();
        use CkptPush::{Coalesced, Queued};
        assert_eq!(pushed, [Queued, Queued, Coalesced, Coalesced]);
        assert_eq!(q.len(), 2);

        let first = q.pop().unwrap();
        assert_eq!(first.ts, 1);
        assert_eq!(first.entries.len(), 1);

        // The newest job absorbed both overflow jobs: max ts, sticky
        // Dump, the same image, and no byte carried twice.
        let merged = q.pop().unwrap();
        assert_eq!(merged.ts, 4);
        assert_eq!(merged.kind, Dump);
        let got = image(&merged.entries);
        assert_eq!(got, want);
        let carried: usize = merged.entries.iter().map(|e| e.data.len()).sum();
        assert_eq!(carried, got.len(), "a byte is carried twice");
    }

    #[test]
    fn ckpt_queue_close_drains_then_ends() {
        let q = CkptQueue::new(4);
        q.push(ckpt(1, DbObjectKind::Checkpoint, &[("a", 0, b"1")]));
        q.close();
        assert_eq!(
            q.push(ckpt(2, DbObjectKind::Checkpoint, &[("a", 0, b"2")])),
            CkptPush::Closed
        );
        assert_eq!(q.pop().unwrap().ts, 1);
        assert!(q.pop().is_none());
    }
}
