//! DB object payloads: a bundle of file ranges.
//!
//! A *dump* bundle carries every database file in full (offset 0, whole
//! content); an *incremental checkpoint* bundle carries the exact byte
//! ranges the DBMS wrote during one checkpoint. Recovery applies bundles
//! with `writeLocally(file.name, file.offset, file.content)` exactly as
//! in Algorithm 1.

use std::collections::BTreeMap;

use crate::GinjaError;

/// One `(file, offset, content)` entry of a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRange {
    /// Target file path.
    pub path: String,
    /// Byte offset within the file.
    pub offset: u64,
    /// Content of the range.
    pub data: Vec<u8>,
}

const MAGIC: [u8; 4] = *b"GDBB";

/// The length of [`encode`]'s output, without encoding.
pub fn encoded_len(entries: &[FileRange]) -> u64 {
    let body: usize = entries
        .iter()
        .map(|e| 2 + e.path.len() + 8 + 4 + e.data.len())
        .sum();
    (MAGIC.len() + 4 + body) as u64
}

/// Serializes a bundle.
pub fn encode(entries: &[FileRange]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(entries) as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for entry in entries {
        let path = entry.path.as_bytes();
        out.extend_from_slice(&(path.len() as u16).to_le_bytes());
        out.extend_from_slice(path);
        out.extend_from_slice(&entry.offset.to_le_bytes());
        out.extend_from_slice(&(entry.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&entry.data);
    }
    out
}

/// Deserializes a bundle.
///
/// # Errors
///
/// [`GinjaError::Recovery`] on malformed input (a bundle is only
/// decoded after its envelope MAC verified, so this indicates a bug or
/// version mismatch, not random corruption).
pub fn decode(data: &[u8]) -> Result<Vec<FileRange>, GinjaError> {
    let bad = |why: &str| GinjaError::Recovery(format!("bad db bundle: {why}"));
    if data.len() < 8 || data[0..4] != MAGIC {
        return Err(bad("missing magic"));
    }
    let count = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    let mut pos = 8usize;
    for _ in 0..count {
        if pos + 2 > data.len() {
            return Err(bad("truncated path length"));
        }
        let path_len = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if pos + path_len + 12 > data.len() {
            return Err(bad("truncated entry header"));
        }
        let path = std::str::from_utf8(&data[pos..pos + path_len])
            .map_err(|_| bad("path not utf-8"))?
            .to_string();
        pos += path_len;
        let offset = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + len > data.len() {
            return Err(bad("truncated entry data"));
        }
        entries.push(FileRange {
            path,
            offset,
            data: data[pos..pos + len].to_vec(),
        });
        pos += len;
    }
    if pos != data.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(entries)
}

/// Splits serialized bytes into chunks of at most `cap` bytes (the
/// 20 MB object-size limit of §5.2).
pub fn chunk(bytes: Vec<u8>, cap: usize) -> Vec<Vec<u8>> {
    if bytes.len() <= cap {
        return vec![bytes];
    }
    bytes.chunks(cap).map(|c| c.to_vec()).collect()
}

/// Reassembles chunks produced by [`chunk`]. A lone part (every
/// bundle under the object-size cap) is returned as is, not copied.
pub fn reassemble(mut parts: Vec<Vec<u8>>) -> Vec<u8> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    parts.concat()
}

/// Flattens per-file range maps (path → offset → bytes, as
/// [`crate::agg::apply`] keeps them) into bundle entries, by path and
/// then offset.
pub(crate) fn from_ranges(ranges: BTreeMap<String, BTreeMap<u64, Vec<u8>>>) -> Vec<FileRange> {
    ranges
        .into_iter()
        .flat_map(|(path, file_ranges)| {
            file_ranges
                .into_iter()
                .map(move |(offset, data)| FileRange {
                    path: path.clone(),
                    offset,
                    data,
                })
        })
        .collect()
}

/// `newer`'s entries written over `older`'s, last writer wins per byte:
/// the bundle whose apply gives the same image as applying `older` and
/// then `newer`, with no byte carried twice.
pub(crate) fn overlay(older: Vec<FileRange>, newer: Vec<FileRange>) -> Vec<FileRange> {
    let mut ranges: BTreeMap<String, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
    for entry in older.into_iter().chain(newer) {
        let file = ranges.entry(entry.path).or_default();
        crate::agg::apply(file, entry.offset, &entry.data);
    }
    from_ranges(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, offset: u64, data: &[u8]) -> FileRange {
        FileRange {
            path: path.into(),
            offset,
            data: data.to_vec(),
        }
    }

    #[test]
    fn roundtrip_multiple_entries() {
        let entries = vec![
            entry("base/16384", 0, b"page-one"),
            entry("base/16384", 8192, b"page-two"),
            entry("global/pg_control", 0, b"ctl"),
            entry("empty", 4, b""),
        ];
        assert_eq!(decode(&encode(&entries)).unwrap(), entries);
        assert_eq!(encoded_len(&entries), encode(&entries).len() as u64);
    }

    #[test]
    fn roundtrip_empty_bundle() {
        assert!(decode(&encode(&[])).unwrap().is_empty());
        assert_eq!(encoded_len(&[]), 8);
    }

    #[test]
    fn corrupt_inputs_rejected_not_panicking() {
        let good = encode(&[entry("f", 0, b"data")]);
        for cut in 0..good.len() {
            assert!(
                decode(&good[..cut]).is_err() || cut == good.len(),
                "cut {cut}"
            );
        }
        let mut extra = good.clone();
        extra.push(0);
        assert!(decode(&extra).is_err());
        assert!(decode(b"XXXX").is_err());
    }

    #[test]
    fn non_utf8_path_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&MAGIC);
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&2u16.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn chunk_and_reassemble() {
        let bytes: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let parts = chunk(bytes.clone(), 4096);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() <= 4096));
        assert_eq!(reassemble(parts), bytes);
    }

    #[test]
    fn overlay_keeps_the_last_writer_of_each_byte_once() {
        let older = vec![entry("a", 0, b"aaaaaa"), entry("b", 4, b"bb")];
        let newer = vec![entry("a", 4, b"AAAA"), entry("a", 1, b"X")];
        let merged = overlay(older, newer);
        assert_eq!(
            merged,
            vec![entry("a", 0, b"aXaaAAAA"), entry("b", 4, b"bb")]
        );
    }

    #[test]
    fn small_payload_single_chunk() {
        let parts = chunk(vec![1, 2, 3], 4096);
        assert_eq!(parts, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn chunked_bundle_survives_roundtrip() {
        let entries = vec![entry("big", 0, &vec![42u8; 9000])];
        let encoded = encode(&entries);
        let parts = chunk(encoded, 4096);
        let back = decode(&reassemble(parts)).unwrap();
        assert_eq!(back, entries);
    }
}
