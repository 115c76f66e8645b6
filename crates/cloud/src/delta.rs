//! Incremental bucket listing: one LIST per poll, a *delta* out.
//!
//! The warm standby's tail watches a Ginja bucket continuously. It used
//! to rebuild a full name set from every LIST and re-walk the whole
//! bucket each cycle — O(bucket) allocation and downstream work per
//! poll even when nothing changed. [`DeltaLister`] keeps the previously
//! seen name set as its watermark and hands back only what changed
//! since the last poll ([`ListingDelta::added`] /
//! [`ListingDelta::removed`]), so steady state costs one LIST plus
//! O(delta) processing.
//!
//! The helper deliberately stays at the [`ObjectStore`] four-verb
//! level: LIST itself is still a full enumeration (the paper's §5
//! lowest-common-denominator interface has no change feed), but
//! everything *after* the LIST — parsing, classification, fetching —
//! becomes proportional to the change rate, which is what dominates.

use std::collections::BTreeSet;

use crate::error::StoreError;
use crate::store::ObjectStore;

/// What changed in the bucket between two polls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ListingDelta {
    /// Names present now that were absent at the previous poll, in
    /// lexicographic order.
    pub added: Vec<String>,
    /// Names absent now that were present at the previous poll (e.g.
    /// garbage-collected), in lexicographic order.
    pub removed: Vec<String>,
    /// Total names present after this poll.
    pub total: usize,
}

/// A stateful incremental lister over a whole [`ObjectStore`]. See
/// the module docs.
#[derive(Debug, Clone, Default)]
pub struct DeltaLister {
    seen: BTreeSet<String>,
}

impl DeltaLister {
    /// A lister over the whole bucket whose first poll reports
    /// everything as added.
    pub fn new() -> Self {
        DeltaLister::default()
    }

    /// Issues one LIST and returns what changed since the previous
    /// poll, updating the cached name set in place (only the delta is
    /// inserted/removed — the set is never rebuilt).
    ///
    /// # Errors
    ///
    /// The LIST's [`StoreError`] propagates; the cached set is left
    /// untouched on error, so the next successful poll reports the
    /// union of both windows' changes.
    pub fn poll(&mut self, store: &dyn ObjectStore) -> Result<ListingDelta, StoreError> {
        let names = store.list("")?;
        // Both sides are sorted (ObjectStore lists lexicographically;
        // `seen` is a BTreeSet), so one merge walk finds the delta.
        let mut added = Vec::new();
        let mut removed = Vec::new();
        {
            let mut have = self.seen.iter().peekable();
            for name in &names {
                while let Some(h) = have.peek() {
                    if *h < name {
                        removed.push((*h).clone());
                        have.next();
                    } else {
                        break;
                    }
                }
                if have.peek().map(|h| *h == name).unwrap_or(false) {
                    have.next();
                } else {
                    added.push(name.clone());
                }
            }
            for h in have {
                removed.push(h.clone());
            }
        }
        for name in &removed {
            self.seen.remove(name);
        }
        for name in &added {
            self.seen.insert(name.clone());
        }
        Ok(ListingDelta {
            added,
            removed,
            total: self.seen.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;

    #[test]
    fn first_poll_reports_everything_added() {
        let store = MemStore::new();
        store.put("WAL/1_f_0_2", b"aa").unwrap();
        store.put("DB/0_dump_2", b"bb").unwrap();
        let mut lister = DeltaLister::new();
        let delta = lister.poll(&store).unwrap();
        assert_eq!(delta.added, vec!["DB/0_dump_2", "WAL/1_f_0_2"]);
        assert!(delta.removed.is_empty());
        assert_eq!(delta.total, 2);
    }

    #[test]
    fn steady_state_is_empty_delta() {
        let store = MemStore::new();
        store.put("a", b"1").unwrap();
        let mut lister = DeltaLister::new();
        lister.poll(&store).unwrap();
        let delta = lister.poll(&store).unwrap();
        assert!(delta.added.is_empty() && delta.removed.is_empty());
        assert_eq!(delta.total, 1);
    }

    #[test]
    fn adds_and_removes_tracked_incrementally() {
        let store = MemStore::new();
        store.put("a", b"1").unwrap();
        store.put("b", b"2").unwrap();
        let mut lister = DeltaLister::new();
        lister.poll(&store).unwrap();

        store.delete("a").unwrap();
        store.put("c", b"3").unwrap();
        let delta = lister.poll(&store).unwrap();
        assert_eq!(delta.added, vec!["c"]);
        assert_eq!(delta.removed, vec!["a"]);
        assert_eq!(delta.total, 2);
        // The cached set moved with the delta: nothing is re-reported.
        let steady = lister.poll(&store).unwrap();
        assert!(steady.added.is_empty() && steady.removed.is_empty());
    }
}
