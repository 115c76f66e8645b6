//! The exposure join: how long each acknowledged WAL write stayed
//! outside the cloud — the time form of the paper's RPO.
//!
//! A write's exposure runs from the instant `on_write` returned (the
//! engine may acknowledge the commit) to the completion of the first
//! PUT that *started after the write was handed to `on_write`* and
//! whose `WalObjectName` range covers the write's range. "Started
//! afterwards" matters because PostgreSQL rewrites its 8 kB tail page
//! on every commit: an older PUT may cover the same bytes of the file
//! but carries the page as it was before this write. The hand-over
//! instant, not the return instant, bounds the search because on a busy
//! machine the uploader can start the carrying PUT while the committing
//! thread is still on its way out of `on_write`; such a write is
//! already safe when it is acknowledged and its exposure is 0.
//!
//! Exposure is reported two ways. In **time** (ms) it is what a
//! clock-based RPO promises. In **updates** it is the number of later
//! WAL writes acknowledged before this one became durable — what a
//! disaster at that instant loses behind it, the quantity the paper's
//! Safety parameter S bounds. On a CPU-bound workload a slower machine
//! stretches the time and lowers the update rate by the same factor,
//! so the count repeats where the time does not.
//!
//! The join sees only what crosses the store boundary, so it cannot
//! tell a PUT whose batch was cut just before the write from one that
//! carries it when both cover the same rewritten page; that affects the
//! few writes per batch that land on the previous batch's tail page
//! while it is being sealed, and only shortens their exposure.

use ginja_core::WalObjectName;

use crate::probes::{OpKind, OpRec, WalWriteRec};

/// One successful WAL-object PUT, positioned in its segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalPut {
    pub start_ns: u64,
    pub end_ns: u64,
    pub file: String,
    pub offset: u64,
    pub len: u64,
}

/// Extracts the successful WAL-object PUTs from an operation log.
pub fn wal_puts(ops: &[OpRec]) -> Vec<WalPut> {
    ops.iter()
        .filter(|op| op.kind == OpKind::Put && op.ok)
        .filter_map(|op| {
            let name = WalObjectName::parse(op.name.as_deref()?).ok()?;
            Some(WalPut {
                start_ns: op.start_ns,
                end_ns: op.end_ns,
                file: name.file,
                offset: name.offset,
                len: name.len,
            })
        })
        .collect()
}

/// The exposure of every covered write, and how many were not covered.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Exposure {
    /// Nanoseconds from `on_write` return to the covering PUT's end.
    pub ns: Vec<u64>,
    /// Later WAL writes acknowledged before that PUT ended.
    pub updates: Vec<u64>,
    /// Writes no PUT covered.
    pub uncovered: u64,
}

/// Joins writes to PUTs.
pub fn join(files: &[String], writes: &[WalWriteRec], puts: &[WalPut]) -> Exposure {
    // Per file, PUTs in start order: the first covering PUT at or after
    // a write's hand-over instant is found by a binary search plus a
    // short forward scan (neighbouring PUTs cover neighbouring ranges).
    let mut by_file: Vec<Vec<&WalPut>> = vec![Vec::new(); files.len()];
    for put in puts {
        if let Some(i) = files.iter().position(|f| *f == put.file) {
            by_file[i].push(put);
        }
    }
    for list in &mut by_file {
        list.sort_by_key(|p| p.start_ns);
    }
    // The engine serializes commits, so return order is commit order.
    let mut returned: Vec<u64> = writes.iter().map(|w| w.returned_ns).collect();
    returned.sort_unstable();

    let mut out = Exposure::default();
    for w in writes {
        let list = &by_file[w.file as usize];
        let first = list.partition_point(|p| p.start_ns < w.entered_ns);
        let end = w.offset + u64::from(w.len);
        match list[first..]
            .iter()
            .find(|p| p.offset <= w.offset && p.offset + p.len >= end)
        {
            Some(p) => {
                out.ns.push(p.end_ns.saturating_sub(w.returned_ns));
                let acked_by_end = returned.partition_point(|r| *r <= p.end_ns);
                let acked_by_me = returned.partition_point(|r| *r <= w.returned_ns);
                out.updates
                    .push(acked_by_end.saturating_sub(acked_by_me) as u64);
            }
            None => out.uncovered += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(t: u64, offset: u64, len: u32) -> WalWriteRec {
        WalWriteRec {
            entered_ns: t - 10,
            returned_ns: t,
            file: 0,
            offset,
            len,
        }
    }

    fn put(start: u64, end: u64, offset: u64, len: u64) -> WalPut {
        WalPut {
            start_ns: start,
            end_ns: end,
            file: "pg_xlog/0001".into(),
            offset,
            len,
        }
    }

    #[test]
    fn names_parse_into_positions() {
        let ops = vec![
            OpRec {
                kind: OpKind::Put,
                start_ns: 5,
                end_ns: 9,
                bytes: 10,
                ok: true,
                name: Some(
                    WalObjectName {
                        ts: 3,
                        file: "pg_xlog/0001".into(),
                        offset: 8192,
                        len: 16384,
                    }
                    .to_name(),
                ),
            },
            OpRec {
                kind: OpKind::Put,
                start_ns: 6,
                end_ns: 7,
                bytes: 10,
                ok: true,
                name: Some("DB/0_dump_100".into()),
            },
        ];
        assert_eq!(wal_puts(&ops), vec![put(5, 9, 8192, 16384)]);
    }

    #[test]
    fn first_covering_put_started_after_the_write_wins() {
        let files = vec!["pg_xlog/0001".to_string()];
        // PG rewrites page 1 (offset 8192) three times; two PUTs carry it.
        let writes = [
            write(100, 8192, 8192),
            write(200, 8192, 8192),
            write(300, 8192, 8192),
            write(320, 16384, 8192),
        ];
        let puts = [
            // Started at 150: holds the page as of write #1 only.
            put(150, 400, 8192, 8192),
            // Started at 310: holds writes #2 and #3, not the next page.
            put(310, 700, 8192, 8192),
            // A later object spanning both pages.
            put(500, 900, 8192, 16384),
        ];
        let exp = join(&files, &writes, &puts);
        assert_eq!(exp.uncovered, 0);
        // #1 → PUT@150 (ends 400); #2 started after 150 → PUT@310 (ends
        // 700), although PUT@150 covers the same byte range; #3 → PUT@310;
        // #4 → only the spanning PUT covers page 2.
        assert_eq!(exp.ns, vec![300, 500, 400, 580]);
        // Behind #1, three more writes were acknowledged (at 200, 300,
        // 320) before its PUT ended at 400; behind #4, none.
        assert_eq!(exp.updates, vec![3, 2, 1, 0]);
    }

    #[test]
    fn partial_cover_and_late_writes_are_uncovered() {
        let files = vec!["pg_xlog/0001".to_string(), "pg_xlog/0002".to_string()];
        let writes = [
            write(100, 0, 8192),
            WalWriteRec {
                entered_ns: 90,
                returned_ns: 100,
                file: 1,
                offset: 0,
                len: 512,
            },
            write(1_000, 0, 8192),
        ];
        // Covers only half of write #1's range; other file never PUT;
        // write #3 returned after the last PUT started.
        let puts = [put(150, 200, 0, 4096), put(160, 220, 0, 8192)];
        let exp = join(&files, &writes, &puts);
        assert_eq!(exp.ns, vec![120]);
        assert_eq!(exp.uncovered, 2);
    }
}
