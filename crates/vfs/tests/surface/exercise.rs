//! The `FileSystem` conformance walk shared by the surface suites:
//! `ginja-vfs`'s own backends and wrappers (`tests/surface.rs`) and the
//! facade's `FaultFs` (the workspace root's `tests/surface.rs`, which
//! includes this file by `#[path]`).

use ginja_vfs::{FileSystem, FsError};

/// Exercises every method of the `FileSystem` trait (including the
/// default-implemented `exists` and `wipe`) against an empty file
/// system, asserting POSIX-pwrite-style semantics throughout.
pub fn exercise(fs: &dyn FileSystem) {
    // create / exists / duplicate create.
    assert!(!fs.exists("a/file"));
    fs.create("a/file").unwrap();
    assert!(fs.exists("a/file"));
    assert!(matches!(
        fs.create("a/file"),
        Err(FsError::AlreadyExists(_))
    ));
    assert_eq!(fs.len("a/file").unwrap(), 0);

    // write (sync and async), sparse gap zero-fill, read, read_all.
    fs.write("a/file", 0, b"hello", true).unwrap();
    fs.write("a/file", 8, b"world", false).unwrap();
    assert_eq!(fs.len("a/file").unwrap(), 13);
    assert_eq!(fs.read("a/file", 0, 5).unwrap(), b"hello");
    assert_eq!(fs.read("a/file", 5, 3).unwrap(), [0, 0, 0]);
    assert_eq!(fs.read_all("a/file").unwrap(), b"hello\0\0\0world".to_vec());

    // Out-of-bounds read and missing-file errors.
    assert!(matches!(
        fs.read("a/file", 10, 10),
        Err(FsError::OutOfBounds { .. })
    ));
    assert!(matches!(fs.read_all("ghost"), Err(FsError::NotFound(_))));
    assert!(matches!(fs.len("ghost"), Err(FsError::NotFound(_))));

    // truncate: shrink, then extend with zeros.
    fs.truncate("a/file", 5).unwrap();
    assert_eq!(fs.read_all("a/file").unwrap(), b"hello");
    fs.truncate("a/file", 7).unwrap();
    assert_eq!(fs.read_all("a/file").unwrap(), b"hello\0\0");
    assert!(matches!(fs.truncate("ghost", 0), Err(FsError::NotFound(_))));

    // rename: moves content, frees the old name, errors on missing.
    fs.rename("a/file", "b/moved").unwrap();
    assert!(!fs.exists("a/file"));
    assert_eq!(fs.read_all("b/moved").unwrap(), b"hello\0\0");
    assert!(matches!(
        fs.rename("a/file", "elsewhere"),
        Err(FsError::NotFound(_))
    ));

    // list: sorted, prefix-filtered.
    fs.write("b/second", 0, b"x", true).unwrap();
    fs.write("c/third", 0, b"y", false).unwrap();
    assert_eq!(fs.list("b/").unwrap(), vec!["b/moved", "b/second"]);
    assert_eq!(fs.list("").unwrap(), vec!["b/moved", "b/second", "c/third"]);

    // delete: removes, and is idempotent on a missing file.
    fs.delete("b/second").unwrap();
    fs.delete("b/second").unwrap();
    assert!(!fs.exists("b/second"));

    // wipe (default method): everything goes.
    fs.wipe().unwrap();
    assert!(fs.list("").unwrap().is_empty());
    assert!(!fs.exists("b/moved"));
}
