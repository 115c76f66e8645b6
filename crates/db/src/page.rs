//! Slotted table pages.
//!
//! A page holds a fixed number of fixed-size record slots. The header
//! carries the **page LSN** (highest WAL record applied), which makes
//! redo idempotent: "apply the record only if its LSN is newer than the
//! page's" — the standard ARIES redo test. A CRC lets both the DBMS's
//! own restart checks and Ginja's backup verification (§5.4, step 2)
//! detect torn or corrupted pages.

use crate::crc::crc32;
use crate::DbError;

/// Page header size: lsn (8) + crc (4) + used-slot count (2) + reserved (2).
pub const PAGE_HEADER: usize = 16;

/// An in-memory table page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Highest WAL LSN applied to this page.
    pub lsn: u64,
    slots: Vec<Option<(u64, Vec<u8>)>>,
}

impl Page {
    /// An empty page with `slots_per_page` slots.
    pub fn empty(slots_per_page: usize) -> Self {
        Page {
            lsn: 0,
            slots: vec![None; slots_per_page],
        }
    }

    /// Number of occupied slots.
    pub fn used_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The `(key, value)` stored in `slot`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot(&self, slot: usize) -> Option<&(u64, Vec<u8>)> {
        self.slots[slot].as_ref()
    }

    /// Stores `(key, value)` in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set_slot(&mut self, slot: usize, key: u64, value: Vec<u8>) {
        self.slots[slot] = Some((key, value));
    }

    /// Clears `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn clear_slot(&mut self, slot: usize) {
        self.slots[slot] = None;
    }

    /// Iterates over occupied slots as `(key, value)`.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, Vec<u8>)> {
        self.slots.iter().flatten()
    }

    /// Serializes into exactly `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if any stored value exceeds the slot capacity, or if the
    /// slots do not fit the page — both are internal invariants upheld
    /// by [`crate::Database`].
    pub fn to_bytes(&self, page_size: usize, slot_size: usize) -> Vec<u8> {
        let cap = slot_size - crate::table::SLOT_OVERHEAD;
        let mut out = vec![0u8; page_size];
        out[0..8].copy_from_slice(&self.lsn.to_le_bytes());
        // crc at 8..12 filled below.
        out[12..14].copy_from_slice(&(self.used_count() as u16).to_le_bytes());
        for (i, slot) in self.slots.iter().enumerate() {
            let base = PAGE_HEADER + i * slot_size;
            assert!(base + slot_size <= page_size, "slots exceed page size");
            if let Some((key, value)) = slot {
                assert!(value.len() <= cap, "value exceeds slot capacity");
                out[base] = 1;
                out[base + 1..base + 9].copy_from_slice(&key.to_le_bytes());
                out[base + 9..base + 11].copy_from_slice(&(value.len() as u16).to_le_bytes());
                out[base + 11..base + 11 + value.len()].copy_from_slice(value);
            }
        }
        let crc = {
            let mut tmp = out.clone();
            tmp[8..12].fill(0);
            crc32(&tmp)
        };
        out[8..12].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a page from `data`. An all-zero buffer is a valid empty
    /// page (a never-written region of a data file).
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on CRC mismatch or malformed slots.
    pub fn from_bytes(data: &[u8], slot_size: usize) -> Result<Self, DbError> {
        let slots_per_page = (data.len() - PAGE_HEADER) / slot_size;
        if data.iter().all(|&b| b == 0) {
            return Ok(Page::empty(slots_per_page));
        }
        let stored_crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
        let computed = {
            let mut tmp = data.to_vec();
            tmp[8..12].fill(0);
            crc32(&tmp)
        };
        if stored_crc != computed {
            return Err(DbError::Corrupt("table page crc mismatch".into()));
        }
        let lsn = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let cap = slot_size - crate::table::SLOT_OVERHEAD;
        let mut slots = Vec::with_capacity(slots_per_page);
        for i in 0..slots_per_page {
            let base = PAGE_HEADER + i * slot_size;
            if data[base] == 0 {
                slots.push(None);
                continue;
            }
            let key = u64::from_le_bytes(data[base + 1..base + 9].try_into().unwrap());
            let len = u16::from_le_bytes(data[base + 9..base + 11].try_into().unwrap()) as usize;
            if len > cap {
                return Err(DbError::Corrupt("slot length exceeds capacity".into()));
            }
            slots.push(Some((key, data[base + 11..base + 11 + len].to_vec())));
        }
        Ok(Page { lsn, slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 512;
    const SLOT: usize = 62;

    #[test]
    fn empty_page_roundtrip() {
        let p = Page::empty(8);
        let bytes = p.to_bytes(PAGE, SLOT);
        assert_eq!(bytes.len(), PAGE);
        let back = Page::from_bytes(&bytes, SLOT).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn all_zero_buffer_is_empty_page() {
        let p = Page::from_bytes(&vec![0u8; PAGE], SLOT).unwrap();
        assert_eq!(p.used_count(), 0);
        assert_eq!(p.lsn, 0);
        assert_eq!(p.slots.len(), (PAGE - PAGE_HEADER) / SLOT);
    }

    #[test]
    fn populated_roundtrip() {
        let mut p = Page::empty(8);
        p.lsn = 77;
        p.set_slot(0, 100, b"first".to_vec());
        p.set_slot(3, 103, vec![9u8; SLOT - crate::table::SLOT_OVERHEAD]);
        p.set_slot(7, 107, vec![]);
        let back = Page::from_bytes(&p.to_bytes(PAGE, SLOT), SLOT).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.used_count(), 3);
        assert_eq!(back.slot(0).unwrap().1, b"first");
        assert!(back.slot(1).is_none());
    }

    #[test]
    fn clear_slot_removes() {
        let mut p = Page::empty(4);
        p.set_slot(2, 5, b"x".to_vec());
        p.clear_slot(2);
        assert_eq!(p.used_count(), 0);
    }

    #[test]
    fn crc_detects_corruption() {
        let mut p = Page::empty(8);
        p.set_slot(0, 1, b"data".to_vec());
        let mut bytes = p.to_bytes(PAGE, SLOT);
        bytes[PAGE_HEADER + 2] ^= 1;
        assert!(matches!(
            Page::from_bytes(&bytes, SLOT),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn lsn_preserved() {
        let mut p = Page::empty(2);
        p.lsn = u64::MAX - 1;
        p.set_slot(0, 1, b"v".to_vec());
        let back = Page::from_bytes(&p.to_bytes(PAGE, SLOT), SLOT).unwrap();
        assert_eq!(back.lsn, u64::MAX - 1);
    }

    #[test]
    fn iter_yields_occupied_only() {
        let mut p = Page::empty(5);
        p.set_slot(1, 11, b"a".to_vec());
        p.set_slot(4, 44, b"b".to_vec());
        let got: Vec<u64> = p.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, vec![11, 44]);
    }

    #[test]
    #[should_panic(expected = "value exceeds slot capacity")]
    fn oversized_value_panics_at_serialize() {
        let mut p = Page::empty(2);
        p.set_slot(0, 1, vec![0u8; SLOT]); // no room for overhead
        let _ = p.to_bytes(PAGE, SLOT);
    }
}
