use std::error::Error;
use std::fmt;

/// Errors from [`crate::FileSystem`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// The file does not exist.
    NotFound(String),
    /// A file with this path already exists (for `create`).
    AlreadyExists(String),
    /// A read reached past the end of the file.
    OutOfBounds {
        /// File whose bounds were exceeded.
        path: String,
        /// Requested read offset.
        offset: u64,
        /// Actual file length.
        len: u64,
    },
    /// The device is out of space (`ENOSPC` from [`crate::DirFs`], or an
    /// injected fault from the facade's `ginja::fault::FaultFs`).
    NoSpace(String),
    /// An underlying I/O error (from [`crate::DirFs`], or injected by
    /// the facade's `ginja::fault::FaultFs`).
    Io(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(path) => write!(f, "file not found: {path}"),
            FsError::AlreadyExists(path) => write!(f, "file already exists: {path}"),
            FsError::OutOfBounds { path, offset, len } => {
                write!(
                    f,
                    "read past end of {path}: offset {offset}, file length {len}"
                )
            }
            FsError::NoSpace(path) => write!(f, "no space left on device: {path}"),
            FsError::Io(reason) => write!(f, "i/o error: {reason}"),
        }
    }
}

impl Error for FsError {}

impl From<std::io::Error> for FsError {
    fn from(err: std::io::Error) -> Self {
        // ENOSPC deserves structure: callers decide whether to fail the
        // commit or trigger a forced checkpoint, and a stringly match on
        // an OS-localized message would be wrong on every non-C locale.
        if err.kind() == std::io::ErrorKind::StorageFull || err.raw_os_error() == Some(28) {
            return FsError::NoSpace(err.to_string());
        }
        FsError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_path() {
        assert!(FsError::NotFound("a/b".into()).to_string().contains("a/b"));
        assert!(FsError::AlreadyExists("x".into()).to_string().contains('x'));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk on fire");
        let fs: FsError = io.into();
        assert!(matches!(fs, FsError::Io(_)));
        assert!(fs.to_string().contains("disk on fire"));
    }

    #[test]
    fn enospc_converts_to_no_space() {
        let io = std::io::Error::from_raw_os_error(28); // ENOSPC
        let fs: FsError = io.into();
        assert!(matches!(fs, FsError::NoSpace(_)), "{fs:?}");
        let io = std::io::Error::new(std::io::ErrorKind::StorageFull, "full");
        let fs: FsError = io.into();
        assert!(matches!(fs, FsError::NoSpace(_)), "{fs:?}");
        assert!(FsError::NoSpace("f".into()).to_string().contains("space"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<FsError>();
    }
}
