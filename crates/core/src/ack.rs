//! The in-order acknowledgement ledger — the paper's Unlocker (§6) as a
//! data structure instead of a thread.
//!
//! The uploader holding the batch turn [`AckLedger::manifest`]s each
//! batch before uploading it; whichever thread makes one of the batch's
//! objects durable calls [`AckLedger::complete`]. The caller that closes the
//! oldest open batch acknowledges it — and every later batch already
//! complete behind it — while still holding the ledger lock, so
//! acknowledgements reach the commit queue strictly in batch order no
//! matter which uploader finishes first.

use std::collections::HashMap;

use parking_lot::Mutex;

#[derive(Default)]
struct BatchState {
    items: usize,
    objects: usize,
    durable: usize,
    manifest_seen: bool,
}

#[derive(Default)]
struct Ledger {
    batches: HashMap<u64, BatchState>,
    next_expected: u64,
}

/// See the module docs. `ack` is `CommitQueue::ack_front` in the
/// pipeline; it is a parameter so the ordering rule is testable alone.
#[derive(Default)]
pub(crate) struct AckLedger {
    ledger: Mutex<Ledger>,
}

impl AckLedger {
    /// Batch `batch_id` was formed: `items` queue entries became
    /// `objects` cloud objects (possibly zero).
    pub(crate) fn manifest(
        &self,
        batch_id: u64,
        items: usize,
        objects: usize,
        ack: impl FnMut(usize),
    ) {
        let mut ledger = self.ledger.lock();
        let state = ledger.batches.entry(batch_id).or_default();
        state.items = items;
        state.objects = objects;
        state.manifest_seen = true;
        ledger.release_ready(ack);
    }

    /// One object of `batch_id` is durable in the cloud.
    pub(crate) fn complete(&self, batch_id: u64, ack: impl FnMut(usize)) {
        let mut ledger = self.ledger.lock();
        ledger.batches.entry(batch_id).or_default().durable += 1;
        ledger.release_ready(ack);
    }
}

impl Ledger {
    /// Acknowledge strictly in batch order: this is what guarantees the
    /// queue only unblocks when every WAL object with a smaller
    /// timestamp is durable (the contiguity rule of §5.3).
    fn release_ready(&mut self, mut ack: impl FnMut(usize)) {
        while let Some(state) = self.batches.get(&self.next_expected) {
            if !(state.manifest_seen && state.durable >= state.objects) {
                break;
            }
            ack(state.items);
            self.batches.remove(&self.next_expected);
            self.next_expected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Arc, Barrier};

    /// Runs `manifest`/`complete` calls and returns what reached `ack`.
    #[derive(Default)]
    struct Recorder {
        ledger: AckLedger,
        acked: Mutex<Vec<usize>>,
    }

    impl Recorder {
        fn manifest(&self, batch_id: u64, items: usize, objects: usize) {
            self.ledger
                .manifest(batch_id, items, objects, |n| self.acked.lock().push(n));
        }

        fn complete(&self, batch_id: u64) {
            self.ledger
                .complete(batch_id, |n| self.acked.lock().push(n));
        }

        fn acked(&self) -> Vec<usize> {
            self.acked.lock().clone()
        }
    }

    #[test]
    fn a_batch_acks_when_its_last_object_is_durable() {
        let r = Recorder::default();
        r.manifest(0, 7, 2);
        r.complete(0);
        assert!(r.acked().is_empty());
        r.complete(0);
        assert_eq!(r.acked(), [7]);
    }

    #[test]
    fn a_later_batch_waits_for_every_earlier_one() {
        let r = Recorder::default();
        r.manifest(0, 1, 1);
        r.manifest(1, 2, 1);
        r.manifest(2, 3, 1);
        r.complete(2);
        r.complete(1);
        assert!(r.acked().is_empty(), "batch 0 still open");
        r.complete(0);
        assert_eq!(r.acked(), [1, 2, 3], "one caller releases the whole run");
    }

    #[test]
    fn an_objectless_batch_acks_from_its_manifest() {
        let r = Recorder::default();
        r.manifest(0, 4, 0);
        assert_eq!(r.acked(), [4]);
        r.manifest(1, 5, 1);
        r.manifest(2, 6, 0);
        assert_eq!(r.acked(), [4], "objectless batch 2 queues behind batch 1");
        r.complete(1);
        assert_eq!(r.acked(), [4, 5, 6]);
    }

    #[test]
    fn a_completion_may_arrive_before_its_manifest() {
        let r = Recorder::default();
        r.complete(0);
        assert!(r.acked().is_empty(), "no manifest, no item count, no ack");
        r.manifest(0, 9, 1);
        assert_eq!(r.acked(), [9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any batch shapes, any arrival order, several threads: one
        /// ack per batch, in batch order, carrying that batch's items.
        #[test]
        fn acks_once_per_batch_in_batch_order(
            shapes in proptest::collection::vec((1usize..50, 0usize..4), 1..24),
            order in proptest::collection::vec(any::<u32>(), 1..128),
            threads in 1usize..5,
        ) {
            // One call per manifest and per object, shuffled by `order`
            // and dealt round-robin to the threads.
            let mut calls: Vec<(u64, Option<(usize, usize)>)> = Vec::new();
            for (id, &(items, objects)) in shapes.iter().enumerate() {
                calls.push((id as u64, Some((items, objects))));
                calls.extend(std::iter::repeat_n((id as u64, None), objects));
            }
            for i in (1..calls.len()).rev() {
                calls.swap(i, order[i % order.len()] as usize % (i + 1));
            }
            let recorder = Arc::new(Recorder::default());
            let start = Arc::new(Barrier::new(threads));
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let mine: Vec<_> = calls.iter().skip(t).step_by(threads).copied().collect();
                    let (recorder, start) = (recorder.clone(), start.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        for (id, call) in mine {
                            match call {
                                Some((items, objects)) => recorder.manifest(id, items, objects),
                                None => recorder.complete(id),
                            }
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("ledger caller panicked");
            }
            let expected: Vec<usize> = shapes.iter().map(|&(items, _)| items).collect();
            prop_assert_eq!(recorder.acked(), expected);
        }
    }
}
