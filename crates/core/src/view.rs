//! `cloudView` — Ginja's client-side map of what is stored remotely.
//!
//! Because storage clouds expose no server-side logic, "we have to
//! implement all DR control at the primary side" (§5): the view tracks
//! every WAL and DB object believed durable, allocates WAL timestamps,
//! and answers the queries that the recovery and garbage-collection
//! algorithms need.

use std::collections::BTreeMap;

use crate::names::{DbObjectKind, DbObjectName, WalObjectName};
use crate::GinjaError;

/// A DB object (all of its parts) as tracked by the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbEntry {
    /// Dump or incremental checkpoint.
    pub kind: DbObjectKind,
    /// Total uncompressed bundle size (the `size` field of the names).
    pub size: u64,
    /// All part names, in part order.
    pub parts: Vec<DbObjectName>,
}

impl DbEntry {
    /// Whether every declared part is present.
    pub fn is_complete(&self) -> bool {
        let declared = self.parts.first().map_or(0, |p| p.parts as usize);
        self.parts.len() == declared
            && self
                .parts
                .iter()
                .enumerate()
                .all(|(i, p)| p.part as usize == i)
    }
}

/// What [`CloudView::insert_name`] filed a listed name as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listed {
    /// A WAL object with this timestamp.
    Wal(u64),
    /// A part of a DB object generation.
    Db,
}

/// The client-side inventory of cloud objects.
///
/// # Generations
///
/// Several DB object *generations* can share a timestamp: a checkpoint
/// colliding with its predecessor's watermark uploads a merged superset
/// and then deletes the object it replaces, a DELETE can fail, and an
/// upload can die part-way. The view keeps every generation, its parts
/// grouped by `(ts, kind, size)`, and one order picks the one that
/// counts at a timestamp — what every accessor returns there, for
/// Reboot, recovery, the standby and the scrub alike:
///
/// 1. complete before incomplete (a partial generation can never be
///    applied, and the complete one's covering WAL may be collected);
/// 2. dump before checkpoint;
/// 3. larger before smaller (a merge is a strict superset of what it
///    replaces).
///
/// The other generations are garbage: [`CloudView::superseded_parts`]
/// names them, and removing a timestamp removes all of them.
///
/// ```rust
/// use ginja_core::CloudView;
///
/// # fn main() -> Result<(), ginja_core::GinjaError> {
/// let view = CloudView::from_listing([
///     "DB/0_dump_1000",
///     "DB/2_checkpoint_300",
///     "DB/2_checkpoint_500_0_2", // one part of an aborted merge upload
///     "WAL/1_pg_xlog/0001_0_8192",
///     "WAL/2_pg_xlog/0001_8192_8192",
/// ])?;
/// assert_eq!(view.last_wal_ts(), 2);
/// assert_eq!(view.most_recent_dump().unwrap().0, 0);
/// assert_eq!(view.db_entry(2).unwrap().size, 300);
/// assert_eq!(view.superseded_parts().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CloudView {
    wal: BTreeMap<u64, WalObjectName>,
    /// Every generation at each occupied timestamp (never empty).
    db: BTreeMap<u64, Vec<DbEntry>>,
    next_wal_ts: u64,
}

/// The generation that counts among those sharing a timestamp — the
/// one order of [`CloudView`]'s "Generations" section.
fn winner(generations: &[DbEntry]) -> &DbEntry {
    generations
        .iter()
        .max_by_key(|g| (g.is_complete(), g.kind == DbObjectKind::Dump, g.size))
        .expect("an occupied timestamp holds a generation")
}

impl CloudView {
    /// An empty view; WAL timestamps start at 1 (timestamp 0 is reserved
    /// for the initial boot dump, so that "WAL objects newer than the
    /// dump" covers every boot-time segment).
    pub fn new() -> Self {
        CloudView {
            wal: BTreeMap::new(),
            db: BTreeMap::new(),
            next_wal_ts: 1,
        }
    }

    /// Rebuilds a view from a cloud listing (Reboot/Recovery modes,
    /// Algorithm 1): [`CloudView::insert_name`] over every name.
    ///
    /// # Errors
    ///
    /// [`GinjaError::BadObjectName`] for a name that is not Ginja's — a
    /// foreign object in the bucket is a configuration error worth
    /// surfacing.
    pub fn from_listing<I, S>(names: I) -> Result<Self, GinjaError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut view = CloudView::new();
        for name in names {
            view.insert_name(name.as_ref())?;
        }
        Ok(view)
    }

    /// Files one listed object name: a WAL object, or a DB object part
    /// into its generation.
    ///
    /// # Errors
    ///
    /// [`GinjaError::BadObjectName`] for a name that is neither.
    pub fn insert_name(&mut self, name: &str) -> Result<Listed, GinjaError> {
        if name.starts_with(crate::names::WAL_PREFIX) {
            let wal = WalObjectName::parse(name)?;
            let ts = wal.ts;
            self.add_wal(wal);
            Ok(Listed::Wal(ts))
        } else if name.starts_with(crate::names::DB_PREFIX) {
            self.add_db_part(DbObjectName::parse(name)?);
            Ok(Listed::Db)
        } else {
            Err(GinjaError::BadObjectName(name.to_string()))
        }
    }

    /// Allocates the next WAL timestamp (strictly increasing).
    pub fn alloc_wal_ts(&mut self) -> u64 {
        let ts = self.next_wal_ts;
        self.next_wal_ts += 1;
        ts
    }

    /// Records a WAL object as durable.
    pub fn add_wal(&mut self, name: WalObjectName) {
        self.next_wal_ts = self.next_wal_ts.max(name.ts + 1);
        self.wal.insert(name.ts, name);
    }

    /// Records one DB object part as durable, in its generation. WAL
    /// timestamps are allocated above it: a DB object claims the
    /// timestamp of the last WAL object before it, so one allocated at
    /// or below it would sort before a checkpoint it follows — which a
    /// listing whose WAL objects the GC emptied would otherwise allow.
    pub fn add_db_part(&mut self, name: DbObjectName) {
        self.next_wal_ts = self.next_wal_ts.max(name.ts + 1);
        let generations = self.db.entry(name.ts).or_default();
        match generations
            .iter_mut()
            .find(|g| g.kind == name.kind && g.size == name.size)
        {
            Some(generation) => {
                if !generation.parts.iter().any(|p| p.part == name.part) {
                    generation.parts.push(name);
                    generation.parts.sort_by_key(|p| p.part);
                }
            }
            None => generations.push(DbEntry {
                kind: name.kind,
                size: name.size,
                parts: vec![name],
            }),
        }
    }

    /// Timestamp of the most recent durable WAL object (0 if none) —
    /// `cloudView.getLastWALts()` in Algorithm 3.
    pub fn last_wal_ts(&self) -> u64 {
        self.wal.keys().next_back().copied().unwrap_or(0)
    }

    /// Checkpoint/dump watermark: the timestamp a freshly flushed DB
    /// object should claim. Normally this is `last_wal_ts()`, but it
    /// never regresses below the newest DB object: after a checkpoint's
    /// GC empties the WAL map, `last_wal_ts()` falls back to 0 and a
    /// naive caller would stamp the *next* checkpoint below the dump it
    /// must follow — `checkpoints_after` would then never apply it on
    /// recovery, and a later GC of the covering WAL silently loses the
    /// pages. Clamping to the newest DB timestamp instead makes the
    /// post-GC checkpoint collide with its predecessor, which the
    /// checkpointer resolves with a superset merge.
    pub fn watermark(&self) -> u64 {
        self.last_wal_ts()
            .max(self.db.keys().next_back().copied().unwrap_or(0))
    }

    /// Number of tracked WAL objects.
    pub fn wal_count(&self) -> usize {
        self.wal.len()
    }

    /// Number of timestamps that hold a DB object.
    pub fn db_count(&self) -> usize {
        self.db.len()
    }

    /// Total uncompressed size of the DB objects that count —
    /// `cloudView.getTotalDBSize()` in Algorithm 3 (drives the 150 %
    /// dump rule).
    pub fn total_db_size(&self) -> u64 {
        self.db_entries().map(|(_, e)| e.size).sum()
    }

    /// Total raw size of all live WAL objects (cost accounting).
    pub fn total_wal_bytes(&self) -> u64 {
        self.wal.values().map(|w| w.len).sum()
    }

    /// The most recent complete dump, if any.
    pub fn most_recent_dump(&self) -> Option<(u64, &DbEntry)> {
        self.db_entries()
            .rfind(|(_, e)| e.kind == DbObjectKind::Dump && e.is_complete())
    }

    /// Complete incremental checkpoints with `ts > after`, ascending.
    pub fn checkpoints_after(&self, after: u64) -> Vec<(u64, &DbEntry)> {
        self.db
            .range(after + 1..)
            .map(|(ts, generations)| (*ts, winner(generations)))
            .filter(|(_, e)| e.kind == DbObjectKind::Checkpoint && e.is_complete())
            .collect()
    }

    /// Removes (and returns) all WAL objects with `ts <= upto` — the
    /// garbage collection of Algorithm 3 lines 23–25.
    pub fn remove_wal_up_to(&mut self, upto: u64) -> Vec<WalObjectName> {
        let keep = self.wal.split_off(&(upto + 1));
        let removed = std::mem::replace(&mut self.wal, keep);
        removed.into_values().collect()
    }

    /// Removes (and returns, ascending by `ts`) every WAL object with
    /// `ts <= upto` whose byte range lies inside the union of the ranges
    /// of *newer* objects of the same file — the garbage collection for
    /// DBMSs with *fuzzy* checkpoints.
    ///
    /// Algorithm 3 deletes WAL objects up to the checkpoint's timestamp,
    /// which is only sound when a checkpoint flushes **every** dirty
    /// page (PostgreSQL). InnoDB's fuzzy checkpoints flush small batches,
    /// so records on still-dirty pages live *only* in WAL objects the
    /// paper's rule would delete. The file-system-level signal that log
    /// space is truly reclaimable is the DBMS **rewriting** it (circular
    /// log reuse, tail-block rewrites), and every object name carries
    /// its `(file, offset, len)`, so the view alone can tell.
    ///
    /// **Invariant:** for every byte of every WAL file, the newest
    /// durable object that contains it survives. Recovery applies WAL
    /// objects in `ts` order, so the image rebuilt from the survivors
    /// equals the image rebuilt from every object ever registered, byte
    /// for byte and for every disaster cut: a victim leaves the bucket
    /// only after all its coverers are in the view, i.e. durable
    /// (`add_wal` runs after the PUT). The sweep runs newest to oldest
    /// over the whole view, so a coverer may itself be older than
    /// `upto`; coverage is transitive (a coverer that dies later lay
    /// inside the union of still newer survivors), so the view is all
    /// the bookkeeping there is, and garbage whose DELETE was lost in a
    /// crash is found again from a listing. Never-rewritten regions —
    /// the log file headers uploaded at Boot — pin the object that holds
    /// them, as they must.
    ///
    /// `upto` bounds the victims (the checkpoint's watermark, so the
    /// timestamp chain above the newest DB object stays gap-free for the
    /// offline scrubber). `coverers_upto` bounds the coverers: objects
    /// above it are ignored. It is `u64::MAX` unless point-in-time
    /// retention is on, where it is the oldest restorable point — a
    /// restore to `p` applies objects with `ts <= p` only, so a coverer
    /// every restorable point applies must not be newer than the oldest.
    pub fn remove_covered_wal(&mut self, upto: u64, coverers_upto: u64) -> Vec<WalObjectName> {
        let mut newer: BTreeMap<&str, RangeUnion> = BTreeMap::new();
        let mut dead = Vec::new();
        for (ts, name) in self.wal.range(..=coverers_upto).rev() {
            let union = newer.entry(name.file.as_str()).or_default();
            if *ts <= upto && union.contains(name.offset, name.end()) {
                dead.push(*ts);
            } else {
                union.insert(name.offset, name.end());
            }
        }
        dead.iter()
            .rev()
            .filter_map(|ts| self.wal.remove(ts))
            .collect()
    }

    /// Removes (and returns the part names of) every generation of
    /// every DB object with `ts < before` — Algorithm 3 lines 26–29
    /// (after a dump upload).
    pub fn remove_db_before(&mut self, before: u64) -> Vec<DbObjectName> {
        let keep = self.db.split_off(&before);
        let removed = std::mem::replace(&mut self.db, keep);
        removed
            .into_values()
            .flatten()
            .flat_map(|e| e.parts)
            .collect()
    }

    /// Timestamps of all complete dumps, ascending (PITR bookkeeping).
    pub fn dump_timestamps(&self) -> Vec<u64> {
        self.db_entries()
            .filter(|(_, e)| e.kind == DbObjectKind::Dump && e.is_complete())
            .map(|(ts, _)| ts)
            .collect()
    }

    /// The DB object that counts at each occupied timestamp, ascending
    /// by ts.
    pub fn db_entries(&self) -> impl DoubleEndedIterator<Item = (u64, &DbEntry)> {
        self.db.iter().map(|(ts, g)| (*ts, winner(g)))
    }

    /// The DB object that counts at exactly `ts`, if any.
    pub fn db_entry(&self, ts: u64) -> Option<&DbEntry> {
        self.db.get(&ts).map(|g| winner(g))
    }

    /// The parts of every generation that does not count at its
    /// timestamp: garbage a merge's failed DELETE or an aborted upload
    /// left behind.
    pub fn superseded_parts(&self) -> impl Iterator<Item = &DbObjectName> {
        self.db.values().flat_map(|generations| {
            let won = winner(generations);
            generations
                .iter()
                .filter(move |g| (g.kind, g.size) != (won.kind, won.size))
                .flat_map(|g| &g.parts)
        })
    }

    /// Removes every generation at exactly `ts`, returning their part
    /// names.
    pub fn remove_db_at(&mut self, ts: u64) -> Vec<DbObjectName> {
        let generations = self.db.remove(&ts).unwrap_or_default();
        generations.into_iter().flat_map(|e| e.parts).collect()
    }

    /// Removes a single object *by its cloud name* — the standby's
    /// incremental-view maintenance path, driven by the DELETE half of
    /// a listing delta (garbage collection on the live side). Returns
    /// whether anything was removed: a name this view never tracked, a
    /// WAL timestamp now owned by a different generation, or an
    /// unparseable name are all quietly `false` (the object was already
    /// not part of this view's state).
    pub fn remove_object(&mut self, name: &str) -> bool {
        if name.starts_with(crate::names::WAL_PREFIX) {
            if let Ok(parsed) = WalObjectName::parse(name) {
                if self.wal.get(&parsed.ts) == Some(&parsed) {
                    self.wal.remove(&parsed.ts);
                    return true;
                }
            }
            return false;
        }
        let Ok(parsed) = DbObjectName::parse(name) else {
            return false;
        };
        let Some(generations) = self.db.get_mut(&parsed.ts) else {
            return false;
        };
        let Some(generation) = generations
            .iter_mut()
            .find(|g| g.kind == parsed.kind && g.size == parsed.size)
        else {
            return false;
        };
        let before = generation.parts.len();
        generation.parts.retain(|p| *p != parsed);
        let removed = generation.parts.len() != before;
        generations.retain(|g| !g.parts.is_empty());
        if generations.is_empty() {
            self.db.remove(&parsed.ts);
        }
        removed
    }

    /// All WAL object names, ascending by ts.
    pub fn wal_entries(&self) -> impl Iterator<Item = &WalObjectName> {
        self.wal.values()
    }
}

/// A union of half-open byte ranges, kept as disjoint, non-adjacent
/// intervals `start -> end` (touching ranges merge, so containment is
/// always within a single interval).
#[derive(Default)]
struct RangeUnion(BTreeMap<u64, u64>);

impl RangeUnion {
    fn contains(&self, start: u64, end: u64) -> bool {
        self.0
            .range(..=start)
            .next_back()
            .is_some_and(|(_, &e)| e >= end)
    }

    fn insert(&mut self, mut start: u64, mut end: u64) {
        if let Some((&s, &e)) = self.0.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
            }
        }
        while let Some((&s, &e)) = self.0.range(start..=end).next() {
            self.0.remove(&s);
            end = end.max(e);
        }
        self.0.insert(start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal(ts: u64) -> WalObjectName {
        WalObjectName {
            ts,
            file: format!("seg{}", ts / 10),
            offset: ts * 100,
            len: 100,
        }
    }

    fn part(name: &str) -> DbObjectName {
        DbObjectName::parse(name).unwrap()
    }

    #[test]
    fn ts_allocation_is_sequential_and_respects_listing() {
        let mut v = CloudView::new();
        assert_eq!(v.alloc_wal_ts(), 1);
        assert_eq!(v.alloc_wal_ts(), 2);
        v.add_wal(wal(10));
        assert_eq!(v.alloc_wal_ts(), 11);
    }

    #[test]
    fn ts_allocation_stays_above_db_objects_whose_wal_was_collected() {
        let v = CloudView::from_listing(["DB/0_dump_100", "DB/40_checkpoint_10"]).unwrap();
        assert_eq!(v.clone().alloc_wal_ts(), 41);
        let v = CloudView::from_listing(["DB/0_dump_100", "WAL/7_seg0_0_10"]).unwrap();
        assert_eq!(v.clone().alloc_wal_ts(), 8);
    }

    #[test]
    fn last_wal_ts_empty_is_zero() {
        assert_eq!(CloudView::new().last_wal_ts(), 0);
    }

    #[test]
    fn watermark_tracks_wal_while_wal_exists() {
        let mut v = CloudView::new();
        v.add_db_part(part("DB/3_dump_100"));
        v.add_wal(wal(7));
        assert_eq!(v.watermark(), 7);
    }

    #[test]
    fn watermark_never_regresses_below_newest_db_object() {
        // Checkpoint GC empties the WAL map; last_wal_ts falls back to
        // 0 but the watermark must stay at the newest DB ts, or the
        // next checkpoint would be stamped *before* the dump and
        // recovery (`checkpoints_after`) would never apply it.
        let mut v = CloudView::new();
        v.add_db_part(part("DB/3_dump_100"));
        v.add_wal(wal(4));
        v.add_db_part(part("DB/4_checkpoint_50"));
        v.remove_wal_up_to(4);
        assert_eq!(v.last_wal_ts(), 0);
        assert_eq!(v.watermark(), 4);
    }

    #[test]
    fn watermark_empty_view_is_zero() {
        assert_eq!(CloudView::new().watermark(), 0);
    }

    #[test]
    fn from_listing_roundtrip() {
        let names = vec![
            "WAL/1_pg_xlog/0001_0_8192".to_string(),
            "WAL/2_pg_xlog/0001_8192_8192".to_string(),
            "DB/0_dump_1000".to_string(),
            "DB/2_checkpoint_300".to_string(),
        ];
        let v = CloudView::from_listing(&names).unwrap();
        assert_eq!(v.wal_count(), 2);
        assert_eq!(v.db_count(), 2);
        assert_eq!(v.last_wal_ts(), 2);
        assert_eq!(v.total_db_size(), 1300);
        assert_eq!(v.most_recent_dump().unwrap().0, 0);
    }

    #[test]
    fn from_listing_rejects_foreign_objects() {
        assert!(CloudView::from_listing(["somebody-elses-file"]).is_err());
    }

    #[test]
    fn gc_wal_up_to() {
        let mut v = CloudView::new();
        for ts in 1..=10 {
            v.add_wal(wal(ts));
        }
        let removed = v.remove_wal_up_to(4);
        assert_eq!(removed.len(), 4);
        assert_eq!(v.wal_count(), 6);
        assert_eq!(v.wal_entries().next().unwrap().ts, 5);
    }

    #[test]
    fn gc_db_before() {
        let mut v = CloudView::new();
        v.add_db_part(part("DB/0_dump_100"));
        v.add_db_part(part("DB/3_checkpoint_10"));
        v.add_db_part(part("DB/7_dump_120"));
        let removed = v.remove_db_before(7);
        assert_eq!(removed.len(), 2);
        assert_eq!(v.db_count(), 1);
        assert_eq!(v.most_recent_dump().unwrap().0, 7);
    }

    #[test]
    fn checkpoints_after_filters_and_sorts() {
        let mut v = CloudView::new();
        v.add_db_part(part("DB/0_dump_100"));
        v.add_db_part(part("DB/2_checkpoint_10"));
        v.add_db_part(part("DB/5_checkpoint_20"));
        let got: Vec<u64> = v.checkpoints_after(0).iter().map(|(ts, _)| *ts).collect();
        assert_eq!(got, vec![2, 5]);
        let got: Vec<u64> = v.checkpoints_after(2).iter().map(|(ts, _)| *ts).collect();
        assert_eq!(got, vec![5]);
    }

    #[test]
    fn incomplete_multi_part_objects_not_used() {
        let mut v = CloudView::new();
        // A 3-part dump with only 2 parts present must not be chosen.
        v.add_db_part(part("DB/4_dump_100_0_3"));
        v.add_db_part(part("DB/4_dump_100_2_3"));
        assert!(v.most_recent_dump().is_none());
        v.add_db_part(part("DB/4_dump_100_1_3"));
        assert_eq!(v.most_recent_dump().unwrap().0, 4);
    }

    fn wal_range(ts: u64, file: &str, offset: u64, len: u64) -> WalObjectName {
        WalObjectName {
            ts,
            file: file.into(),
            offset,
            len,
        }
    }

    #[test]
    fn wal_bytes_accounted() {
        let mut v = CloudView::new();
        v.add_wal(wal_range(1, "log", 0, 100));
        v.add_wal(wal_range(2, "log", 100, 50));
        assert_eq!(v.total_wal_bytes(), 150);
        v.remove_wal_up_to(1);
        assert_eq!(v.total_wal_bytes(), 50);
    }

    #[test]
    fn remove_object_by_name() {
        let mut v = CloudView::new();
        v.add_wal(wal_range(1, "log", 0, 100));
        v.add_db_part(part("DB/2_checkpoint_10_0_2"));
        v.add_db_part(part("DB/2_checkpoint_10_1_2"));

        // Unknown / unparseable names are quietly ignored.
        assert!(!v.remove_object("WAL/9_log_0_100"));
        assert!(!v.remove_object("garbage"));
        assert_eq!(v.wal_count(), 1);

        // Removing one part leaves an incomplete entry; removing the
        // last part drops the entry.
        assert!(v.remove_object("DB/2_checkpoint_10_0_2"));
        assert!(!v.db_entry(2).unwrap().is_complete());
        assert!(!v.remove_object("DB/2_checkpoint_10_0_2"), "already gone");
        assert!(v.remove_object("DB/2_checkpoint_10_1_2"));
        assert!(v.db_entry(2).is_none());

        assert!(v.remove_object("WAL/1_log_0_100"));
        assert_eq!(v.wal_count(), 0);
    }

    #[test]
    fn covered_gc_keeps_unrewritten_regions() {
        let mut v = CloudView::new();
        v.add_wal(wal_range(1, "log", 0, 100));
        v.add_wal(wal_range(2, "log", 100, 100));
        assert!(
            v.remove_covered_wal(2, u64::MAX).is_empty(),
            "disjoint ranges cover nothing"
        );
        assert_eq!(v.wal_count(), 2);
    }

    #[test]
    fn covered_gc_removes_rewritten_objects() {
        let mut v = CloudView::new();
        // The tail-rewrite pattern: each object re-covers the previous.
        v.add_wal(wal_range(1, "log", 0, 100));
        v.add_wal(wal_range(2, "log", 0, 200));
        v.add_wal(wal_range(3, "log", 0, 300));
        let removed = v.remove_covered_wal(2, u64::MAX);
        let ts: Vec<u64> = removed.iter().map(|w| w.ts).collect();
        assert_eq!(ts, vec![1, 2]);
        assert_eq!(v.wal_count(), 1);
    }

    #[test]
    fn covered_gc_union_of_survivors_counts() {
        let mut v = CloudView::new();
        // Object 1 covers [0, 200); survivors 2 and 3 cover [0,100) and
        // [100,200) — only their union covers object 1.
        v.add_wal(wal_range(1, "log", 0, 200));
        v.add_wal(wal_range(2, "log", 0, 100));
        v.add_wal(wal_range(3, "log", 100, 100));
        let removed = v.remove_covered_wal(1, u64::MAX);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].ts, 1);
    }

    #[test]
    fn covered_gc_gap_in_survivors_blocks() {
        let mut v = CloudView::new();
        v.add_wal(wal_range(1, "log", 0, 200));
        v.add_wal(wal_range(2, "log", 0, 90));
        v.add_wal(wal_range(3, "log", 110, 90)); // hole [90,110)
        assert!(v.remove_covered_wal(1, u64::MAX).is_empty());
    }

    #[test]
    fn covered_gc_respects_files_and_upto() {
        let mut v = CloudView::new();
        v.add_wal(wal_range(1, "log0", 0, 100));
        v.add_wal(wal_range(2, "log1", 0, 100)); // other file: no cover
        v.add_wal(wal_range(3, "log0", 0, 100));
        // upto = 0: nothing is a candidate even though 1 is covered.
        assert!(v.remove_covered_wal(0, u64::MAX).is_empty());
        let removed = v.remove_covered_wal(2, u64::MAX);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].ts, 1);
        // Object 2 survives: nothing newer covers log1.
        assert!(v.wal_entries().any(|w| w.ts == 2));
    }

    #[test]
    fn covered_gc_circular_wrap_pattern() {
        let mut v = CloudView::new();
        // A boot header object that is never rewritten, a first cycle,
        // then a second cycle rewriting the record regions.
        v.add_wal(wal_range(1, "ib_logfile0", 0, 2048)); // header: kept
        v.add_wal(wal_range(2, "ib_logfile0", 2048, 1024));
        v.add_wal(wal_range(3, "ib_logfile1", 2048, 1024));
        v.add_wal(wal_range(4, "ib_logfile0", 2048, 1024));
        v.add_wal(wal_range(5, "ib_logfile1", 2048, 1024));
        let removed = v.remove_covered_wal(3, u64::MAX);
        let ts: Vec<u64> = removed.iter().map(|w| w.ts).collect();
        assert_eq!(
            ts,
            vec![2, 3],
            "the first cycle is reclaimable, the header is not"
        );
        assert!(v.wal_entries().any(|w| w.ts == 1));
    }

    #[test]
    fn range_union_merges_touching_and_overlapping_ranges() {
        let mut u = RangeUnion::default();
        assert!(!u.contains(0, 1));
        u.insert(100, 200);
        u.insert(0, 100); // touches from below
        u.insert(200, 300); // touches from above
        assert!(u.contains(0, 300));
        assert!(!u.contains(0, 301));
        u.insert(400, 500);
        assert!(!u.contains(250, 450), "hole [300, 400)");
        u.insert(250, 450); // bridges both
        assert!(u.contains(0, 500));
        assert_eq!(u.0.len(), 1);
    }

    #[test]
    fn covered_gc_counts_coverers_at_or_below_upto() {
        let mut v = CloudView::new();
        // 1 is overwritten by 2, both older than the checkpoint; 3 is
        // elsewhere. The coverer need not be newer than `upto`.
        v.add_wal(wal_range(1, "log", 0, 100));
        v.add_wal(wal_range(2, "log", 0, 100));
        v.add_wal(wal_range(3, "log", 100, 100));
        let removed = v.remove_covered_wal(3, u64::MAX);
        let ts: Vec<u64> = removed.iter().map(|w| w.ts).collect();
        assert_eq!(ts, vec![1]);
        assert!(v.remove_covered_wal(3, u64::MAX).is_empty(), "idempotent");
    }

    #[test]
    fn covered_gc_header_chunk_pins_only_itself() {
        const MIB: u64 = 1 << 20;
        let mut v = CloudView::new();
        // Boot image of a 4 MiB circular log file in 1 MiB chunks; the
        // first 2 048 bytes are a header the DBMS never rewrites.
        for i in 0..4 {
            v.add_wal(wal_range(i + 1, "ib_logfile0", i * MIB, MIB));
        }
        // One wrap: the record region rewritten in 64 KiB objects.
        let mut ts = 4;
        let mut offset = 2048;
        while offset < 4 * MIB {
            ts += 1;
            let len = (64 * 1024).min(4 * MIB - offset);
            v.add_wal(wal_range(ts, "ib_logfile0", offset, len));
            offset += len;
        }
        let removed = v.remove_covered_wal(ts, u64::MAX);
        let gone: Vec<u64> = removed.iter().map(|w| w.ts).collect();
        assert_eq!(gone, vec![2, 3, 4], "sibling chunks die after one wrap");
        assert!(v.wal_entries().any(|w| w.ts == 1), "header chunk retained");
    }

    #[test]
    fn covered_gc_pitr_ignores_coverers_above_the_floor() {
        let mut v = CloudView::new();
        v.add_wal(wal_range(1, "log", 0, 100));
        v.add_wal(wal_range(2, "log", 100, 100));
        v.add_wal(wal_range(3, "log", 100, 100)); // covers 2, at the floor
        v.add_wal(wal_range(4, "log", 0, 100)); // covers 1, above the floor

        // Oldest restorable point 3: a restore to 3 applies 1..=3, so 1
        // must stay (its only coverer is 4) while 2 may go.
        let removed = v.remove_covered_wal(3, 3);
        let ts: Vec<u64> = removed.iter().map(|w| w.ts).collect();
        assert_eq!(ts, vec![2]);
        // Without retention the same view gives 1 up as well.
        let removed = v.remove_covered_wal(3, u64::MAX);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].ts, 1);
    }

    /// The generation that counts at ts 5 when `names` are listed, in
    /// either order.
    fn winner_of(names: [&str; 2]) -> DbEntry {
        let forward = CloudView::from_listing(names).unwrap();
        let backward = CloudView::from_listing([names[1], names[0]]).unwrap();
        assert_eq!(forward.db_entry(5), backward.db_entry(5));
        forward.db_entry(5).unwrap().clone()
    }

    #[test]
    fn colliding_generations_keep_the_superset() {
        // Two generations at ts 5 (a merge whose replaced object's
        // DELETE failed): the larger checkpoint must win.
        let entry = winner_of(["DB/5_checkpoint_100", "DB/5_checkpoint_260"]);
        assert_eq!(entry.size, 260);
        assert!(entry.is_complete());
    }

    #[test]
    fn listing_prefers_complete_generation_over_larger_partial() {
        // An aborted merge upload left a partial (but larger) generation
        // at ts 5 next to the registered complete one. The complete
        // generation must win: the partial one can never be applied,
        // and the complete one's covering WAL is already gone.
        let entry = winner_of(["DB/5_checkpoint_100", "DB/5_checkpoint_260_0_2"]);
        assert_eq!(entry.size, 100, "partial generation won: {entry:?}");
    }

    #[test]
    fn listing_still_prefers_size_between_complete_generations() {
        // Both generations complete and both dumps: size decides.
        let entry = winner_of(["DB/5_dump_100", "DB/5_dump_260"]);
        assert_eq!(entry.size, 260);
    }

    #[test]
    fn listing_prefers_complete_checkpoint_over_partial_dump() {
        // Even the kind rule yields to completeness: a dump that never
        // finished uploading is garbage, not a base image.
        let entry = winner_of(["DB/5_checkpoint_300", "DB/5_dump_900_0_3"]);
        assert_eq!(entry.kind, DbObjectKind::Checkpoint);
    }

    #[test]
    fn dump_generation_beats_checkpoint() {
        let entry = winner_of(["DB/5_checkpoint_999", "DB/5_dump_500"]);
        assert_eq!((entry.kind, entry.size), (DbObjectKind::Dump, 500));
    }

    #[test]
    fn duplicate_part_ignored() {
        let mut v = CloudView::new();
        v.add_db_part(part("DB/2_dump_10_0_2"));
        v.add_db_part(part("DB/2_dump_10_0_2"));
        assert_eq!(v.db_entry(2).unwrap().parts.len(), 1);
    }

    #[test]
    fn superseded_generations_are_named_and_leave_with_their_timestamp() {
        let mut v = CloudView::from_listing([
            "DB/0_dump_100",
            "DB/0_dump_90_0_2", // aborted upload
            "DB/5_checkpoint_100",
            "DB/5_checkpoint_260", // a merge whose DELETE of 100 failed
            "DB/5_checkpoint_400_0_2",
        ])
        .unwrap();
        assert_eq!(v.db_entry(5).unwrap().size, 260);
        assert_eq!(v.total_db_size(), 360);
        let mut superseded: Vec<String> = v.superseded_parts().map(|p| p.to_name()).collect();
        superseded.sort();
        assert_eq!(
            superseded,
            [
                "DB/0_dump_90_0_2",
                "DB/5_checkpoint_100",
                "DB/5_checkpoint_400_0_2"
            ]
        );

        // Deleting the winner lets the next generation in the order count.
        assert!(v.remove_object("DB/5_checkpoint_260"));
        assert_eq!(v.db_entry(5).unwrap().size, 100);
        assert!(!v.remove_object("DB/5_checkpoint_260"), "already gone");

        // A timestamp leaves the view with every generation it holds.
        assert_eq!(v.remove_db_at(5).len(), 2);
        assert_eq!(v.remove_db_before(1).len(), 2);
        assert_eq!((v.db_count(), v.superseded_parts().count()), (0, 0));
    }

    #[test]
    fn dump_timestamps_ascending() {
        let mut v = CloudView::new();
        v.add_db_part(part("DB/0_dump_1"));
        v.add_db_part(part("DB/9_dump_1"));
        v.add_db_part(part("DB/4_checkpoint_1"));
        assert_eq!(v.dump_timestamps(), vec![0, 9]);
    }
}
