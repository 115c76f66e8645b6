//! The upload stage (the paper's Algorithm 2 and Figure 3's uploaders):
//! the one seal+PUT every cloud write of the pipeline goes through, its
//! fan-out wave, and the uploader thread's two steps — *form a batch*
//! under the batch turn, then *carry one object* per object.

use std::sync::atomic::Ordering;
use std::time::Instant;

use ginja_cloud::{GiveUp, ObjectStore};
use ginja_codec::bufpool;

use crate::agg;
use crate::ginja::Shared;
use crate::names::WalObjectName;
use crate::GinjaError;

/// One object of a seal+PUT wave: the wire name plus raw payload.
pub(crate) struct SealPut {
    pub(crate) name: String,
    pub(crate) raw: Vec<u8>,
}

/// The PUT half of a seal+PUT: callers pass either a direct store PUT
/// (start-up) or [`put_durable`] (the pipeline threads).
pub(crate) type PutFn<'a> = &'a (dyn Fn(&str, &[u8]) -> Result<(), GinjaError> + Sync);

/// A formed batch: its id in the `AckLedger` and its objects, each
/// named with its WAL timestamp, in timestamp order.
type Batch = (u64, Vec<(WalObjectName, Vec<u8>)>);

/// The one seal+PUT: seals `raw` under `name` into a pooled buffer
/// (timed into `stats.seal_histo` and `stats.seal_micros`), PUTs it
/// through `put` (time-to-durable, retries included, into
/// `stats.put_histo` — `put` itself records nothing, so every object
/// lands there once) and recycles the buffer, so the steady-state
/// upload path stops allocating per object. Returns the sealed length.
fn seal_put(shared: &Shared, put: PutFn<'_>, name: &str, raw: &[u8]) -> Result<u64, GinjaError> {
    let stats = &shared.stats;
    let mut sealed = bufpool::take();
    let seal_start = Instant::now();
    shared.codec.seal_into(name, raw, &mut sealed)?;
    let seal_elapsed = seal_start.elapsed();
    stats.seal_histo.record(seal_elapsed);
    stats
        .seal_micros
        .fetch_add(seal_elapsed.as_micros() as u64, Ordering::Relaxed);
    let put_start = Instant::now();
    put(name, &sealed)?;
    stats.put_histo.record(put_start.elapsed());
    let sealed_len = sealed.len() as u64;
    bufpool::recycle(sealed);
    Ok(sealed_len)
}

/// Seals and PUTs a wave of objects through the fan-out executor — what
/// start-up's resync and every DB-object write share.
///
/// Workers run [`seal_put`] concurrently; `on_durable` is called with
/// `(index, sealed_len)` strictly in input order, so callers may
/// register objects in the view as they land and a crash mid-wave
/// leaves only a durable prefix registered. The first error aborts the
/// wave.
pub(crate) fn seal_put_wave(
    shared: &Shared,
    put: PutFn<'_>,
    jobs: Vec<SealPut>,
    on_durable: impl FnMut(usize, u64) -> Result<(), GinjaError>,
) -> Result<(), GinjaError> {
    shared.fanout.run_ordered(
        jobs,
        |_, job| seal_put(shared, put, &job.name, &job.raw),
        on_durable,
    )
}

/// A durable PUT ([`GiveUp::Durable`]): returns once the object is
/// durable, or with [`GinjaError::ShutDown`] once shutdown stopped its
/// retries. It never gives up on its own: a WAL object that is never
/// uploaded blocks the DBMS at the Safety limit, which is exactly the
/// intended behavior (block, don't lose data).
pub(crate) fn put_durable(shared: &Shared, name: &str, sealed: &[u8]) -> Result<(), GinjaError> {
    shared
        .cloud
        .retrying(GiveUp::Durable, &shared.stop)
        .put(name, sealed)
        .map_err(|err| {
            if shared.stop.is_stopped() {
                GinjaError::ShutDown
            } else {
                err.into()
            }
        })
}

/// Figure 3's uploader, and the paper's Aggregator while idle: forms a
/// batch, then carries its objects in order. A partial batch is thus
/// sealed only when an uploader is free to carry it; while all are busy
/// the queue fills, up to S. During an outage `put_durable` simply
/// blocks here.
///
/// A seal failure stops the uploader rather than ack a batch whose bytes
/// never reached the cloud: the DBMS blocks at the Safety limit and the
/// fault surfaces via `Exposure::fatal`, not as silent data loss.
pub(crate) fn uploader_loop(shared: &Shared) {
    while let Some((batch_id, objects)) = form_batch(shared) {
        for (wal, raw) in objects {
            if let Err(err) = carry(shared, batch_id, wal, raw) {
                return shared.stop_on(err);
            }
        }
    }
}

/// Step one, *form a batch*: under the batch turn, take the next batch
/// (no removal) → `agg::aggregate` → one WAL ts per object →
/// `AckLedger::manifest`, so batch order = ts order = ack order however
/// many uploaders race. The turn is taken before, never while holding,
/// the view, ledger or queue lock. `None` once the queue is closed and
/// drained.
fn form_batch(shared: &Shared) -> Option<Batch> {
    let mut turn = shared.batch_turn.lock().expect("batch turn poisoned");
    let batch = shared.queue.take_batch()?;
    let ranges = agg::aggregate(&batch, shared.config.max_object_size);
    let mut view = shared.view.lock();
    let objects: Vec<_> = ranges
        .into_iter()
        .map(|range| {
            let wal = WalObjectName {
                ts: view.alloc_wal_ts(),
                file: range.file,
                offset: range.offset,
                len: range.data.len() as u64,
            };
            (wal, range.data)
        })
        .collect();
    drop(view);
    let batch_id = *turn;
    *turn += 1;
    shared.stats.batches_formed.fetch_add(1, Ordering::Relaxed);
    let ack = |items| shared.queue.ack_front(items);
    shared
        .acks
        .manifest(batch_id, batch.len(), objects.len(), ack);
    Some((batch_id, objects))
}

/// Step two, *carry one object* of batch `batch_id`: seal → PUT until
/// durable → account → `view.add_wal` → `AckLedger::complete`. The view
/// registers the object only once it is durable, so the view, and
/// through it GC and recovery, never names an object the cloud lacks;
/// the caller that closes the oldest open batch acks it.
fn carry(
    shared: &Shared,
    batch_id: u64,
    wal: WalObjectName,
    raw: Vec<u8>,
) -> Result<(), GinjaError> {
    let put = |name: &str, sealed: &[u8]| put_durable(shared, name, sealed);
    let sealed_len = seal_put(shared, &put, &wal.to_name(), &raw)?;
    let stats = &shared.stats;
    stats.wal_objects_uploaded.fetch_add(1, Ordering::Relaxed);
    stats
        .wal_bytes_raw
        .fetch_add(raw.len() as u64, Ordering::Relaxed);
    stats
        .wal_bytes_sealed
        .fetch_add(sealed_len, Ordering::Relaxed);
    bufpool::recycle(raw);
    shared.view.lock().add_wal(wal);
    shared
        .acks
        .complete(batch_id, |items| shared.queue.ack_front(items));
    Ok(())
}
