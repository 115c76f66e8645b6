use std::sync::Arc;

use crate::{ObjectStore, StoreError};

/// A tenant-scoped view of a shared bucket.
///
/// Multi-tenant deployments amortize one bucket (and one set of cloud
/// connections) across many protected databases by giving each tenant a
/// name prefix — the same directory-emulation trick the paper's flat
/// namespace already plays with `WAL/` and `DB/`. `PrefixStore` rewrites
/// every operation so a tenant sees the bucket as if it owned it:
///
/// * `put`/`get`/`delete` prepend the prefix to the object name;
/// * `list` queries `prefix + p` and strips the prefix from each result,
///   so listings come back in the tenant's own namespace.
///
/// The isolation guarantee is structural: no tenant-relative name can
/// reach an object outside the prefix, so an offline scrub, a restore
/// drill, or a full detach-and-purge on one tenant can never touch a
/// neighbor's objects.
///
/// ```rust
/// use std::sync::Arc;
/// use ginja_cloud::{MemStore, ObjectStore, PrefixStore};
///
/// # fn main() -> Result<(), ginja_cloud::StoreError> {
/// let bucket = Arc::new(MemStore::new());
/// let a = PrefixStore::new(bucket.clone(), "tenants/a/");
/// let b = PrefixStore::new(bucket.clone(), "tenants/b/");
/// a.put("WAL/1_seg_0", b"alpha")?;
/// b.put("WAL/1_seg_0", b"beta")?;
/// assert_eq!(a.get("WAL/1_seg_0")?, b"alpha");
/// assert_eq!(a.list("")?, vec!["WAL/1_seg_0".to_string()]);
/// assert_eq!(bucket.list("")?.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PrefixStore {
    inner: Arc<dyn ObjectStore>,
    prefix: String,
}

impl PrefixStore {
    /// Scopes `inner` under `prefix`. A trailing `/` is conventional
    /// (`tenants/<name>/`) but not enforced — the prefix is prepended
    /// verbatim.
    pub fn new(inner: Arc<dyn ObjectStore>, prefix: impl Into<String>) -> Self {
        PrefixStore {
            inner,
            prefix: prefix.into(),
        }
    }

    /// The prefix this view prepends.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The unscoped store underneath.
    pub fn inner(&self) -> &Arc<dyn ObjectStore> {
        &self.inner
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}{}", self.prefix, name)
    }
}

impl std::fmt::Debug for PrefixStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixStore")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl ObjectStore for PrefixStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner.put(&self.scoped(name), data)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.get(&self.scoped(name))
    }

    fn delete(&self, name: &str) -> Result<(), StoreError> {
        self.inner.delete(&self.scoped(name))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let scoped = self.scoped(prefix);
        Ok(self
            .inner
            .list(&scoped)?
            .into_iter()
            .filter_map(|name| {
                name.strip_prefix(&self.prefix)
                    .map(|relative| relative.to_string())
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn two_tenants() -> (Arc<MemStore>, PrefixStore, PrefixStore) {
        let bucket = Arc::new(MemStore::new());
        let a = PrefixStore::new(bucket.clone(), "tenants/a/");
        let b = PrefixStore::new(bucket.clone(), "tenants/b/");
        (bucket, a, b)
    }

    #[test]
    fn operations_are_scoped() {
        let (bucket, a, _) = two_tenants();
        a.put("WAL/1_seg_0", b"x").unwrap();
        assert_eq!(bucket.get("tenants/a/WAL/1_seg_0").unwrap(), b"x");
        assert_eq!(a.get("WAL/1_seg_0").unwrap(), b"x");
        a.delete("WAL/1_seg_0").unwrap();
        assert!(bucket.is_empty());
    }

    #[test]
    fn list_strips_prefix_and_preserves_order() {
        let (_, a, _) = two_tenants();
        a.put("WAL/2_b_0", b"").unwrap();
        a.put("WAL/1_a_0", b"").unwrap();
        a.put("DB/0_dump_3", b"").unwrap();
        assert_eq!(a.list("WAL/").unwrap(), vec!["WAL/1_a_0", "WAL/2_b_0"]);
        assert_eq!(
            a.list("").unwrap(),
            vec!["DB/0_dump_3", "WAL/1_a_0", "WAL/2_b_0"]
        );
    }

    #[test]
    fn tenants_are_mutually_invisible() {
        let (_, a, b) = two_tenants();
        a.put("WAL/1_seg_0", b"alpha").unwrap();
        b.put("WAL/1_seg_0", b"beta").unwrap();
        assert_eq!(a.get("WAL/1_seg_0").unwrap(), b"alpha");
        assert_eq!(b.get("WAL/1_seg_0").unwrap(), b"beta");
        assert_eq!(a.list("").unwrap().len(), 1);
        // A's empty-prefix list (the widest query a scrub issues) never
        // surfaces B's objects.
        for name in a.list("").unwrap() {
            assert_eq!(a.get(&name).unwrap(), b"alpha");
        }
    }

    #[test]
    fn delete_cannot_escape_the_prefix() {
        let (bucket, a, b) = two_tenants();
        b.put("WAL/1_seg_0", b"beta").unwrap();
        // Deleting every name A can see leaves B untouched.
        a.put("WAL/1_seg_0", b"alpha").unwrap();
        for name in a.list("").unwrap() {
            a.delete(&name).unwrap();
        }
        assert_eq!(bucket.len(), 1);
        assert_eq!(b.get("WAL/1_seg_0").unwrap(), b"beta");
    }

    #[test]
    fn missing_object_reports_scoped_name() {
        let (_, a, _) = two_tenants();
        match a.get("nope") {
            Err(StoreError::NotFound(name)) => assert_eq!(name, "tenants/a/nope"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn sibling_prefix_is_not_a_match() {
        // "tenants/a" (no slash) must not capture "tenants/ab/...".
        let bucket: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
        let a = PrefixStore::new(bucket.clone(), "tenants/a/");
        let ab = PrefixStore::new(bucket.clone(), "tenants/ab/");
        ab.put("obj", b"x").unwrap();
        assert!(a.list("").unwrap().is_empty());
    }
}
