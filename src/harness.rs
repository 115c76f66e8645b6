//! Convenience harness wiring a [`Database`] behind Ginja protection —
//! the boot sequence every deployment repeats: create/open the database,
//! Boot the middleware over its files, reopen the DBMS through the
//! intercepted file system.

use std::sync::Arc;
use std::time::Duration;

use ginja_cloud::ObjectStore;
use ginja_core::{recover_into, Ginja, GinjaConfig, GinjaError, GinjaStatsSnapshot};
use ginja_db::{Database, DbError, DbProfile};
use ginja_vfs::{FileSystem, InterceptFs, MemFs};

/// Errors from the [`ProtectedDb`] harness.
#[derive(Debug)]
pub enum HarnessError {
    /// The middleware failed.
    Ginja(GinjaError),
    /// The database failed.
    Db(DbError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Ginja(e) => write!(f, "ginja middleware: {e}"),
            HarnessError::Db(e) => write!(f, "database: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Ginja(e) => Some(e),
            HarnessError::Db(e) => Some(e),
        }
    }
}

impl From<GinjaError> for HarnessError {
    fn from(e: GinjaError) -> Self {
        HarnessError::Ginja(e)
    }
}

impl From<DbError> for HarnessError {
    fn from(e: DbError) -> Self {
        HarnessError::Db(e)
    }
}

/// A database running under Ginja protection.
///
/// See the crate-level quickstart for usage; `examples/quickstart.rs`
/// shows the same wiring done by hand.
pub struct ProtectedDb {
    db: Database,
    ginja: Ginja,
    cloud: Arc<dyn ObjectStore>,
    profile: DbProfile,
    config: GinjaConfig,
}

impl std::fmt::Debug for ProtectedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedDb")
            .field("profile", &self.profile.kind)
            .finish()
    }
}

impl ProtectedDb {
    /// Creates (or crash-opens) a database on `local`, Boots Ginja over
    /// it against `cloud`, and reopens the DBMS through the intercepted
    /// file system.
    ///
    /// # Errors
    ///
    /// Middleware and database errors propagate.
    pub fn boot(
        local: Arc<dyn FileSystem>,
        cloud: Arc<dyn ObjectStore>,
        profile: DbProfile,
        config: GinjaConfig,
    ) -> Result<Self, HarnessError> {
        // Initialize the database files first so the Boot dump captures
        // a complete system; an existing database is crash-recovered.
        let pre = if local.exists(ginja_db::control::PG_CONTROL_PATH)
            || local.exists(ginja_db::control::INNODB_LOG0)
        {
            Database::open(local.clone(), profile.clone())?
        } else {
            Database::create(local.clone(), profile.clone())?
        };
        drop(pre);

        let ginja = Ginja::boot(
            local.clone(),
            cloud.clone(),
            profile.kind.processor(),
            config.clone(),
        )?;
        let intercepted: Arc<dyn FileSystem> =
            Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
        let db = Database::open(intercepted, profile.clone())?;
        Ok(ProtectedDb {
            db,
            ginja,
            cloud,
            profile,
            config,
        })
    }

    /// The protected database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The middleware (stats, view inspection).
    pub fn ginja(&self) -> &Ginja {
        &self.ginja
    }

    /// Middleware statistics.
    pub fn stats(&self) -> GinjaStatsSnapshot {
        self.ginja.stats()
    }

    /// Blocks until all pending updates and checkpoints are durable in
    /// the cloud (up to 60 s). Returns whether the pipeline drained.
    pub fn sync(&self) -> bool {
        self.ginja.sync(Duration::from_secs(60))
    }

    /// Simulates a disaster — every local file is lost, the middleware
    /// stops — then rebuilds the database from the cloud alone and
    /// reopens it (unprotected; call [`ProtectedDb::boot`] again to
    /// resume protection).
    ///
    /// # Errors
    ///
    /// Recovery and database errors propagate.
    pub fn disaster_and_recover(self) -> Result<Database, HarnessError> {
        self.ginja.shutdown();
        drop(self.db);
        let rebuilt = Arc::new(MemFs::new());
        recover_into(rebuilt.as_ref(), self.cloud.as_ref(), &self.config)?;
        Ok(Database::open(rebuilt, self.profile)?)
    }

    /// Stops protection cleanly (drains nothing by itself — call
    /// [`ProtectedDb::sync`] first if durability of the tail matters).
    pub fn shutdown(self) -> Database {
        self.ginja.shutdown();
        self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_cloud::MemStore;
    use ginja_vfs::MemFs;

    fn config() -> GinjaConfig {
        GinjaConfig::builder()
            .batch(2)
            .safety(16)
            .batch_timeout(Duration::from_millis(10))
            .build()
            .unwrap()
    }

    #[test]
    fn boot_fresh_write_disaster_recover() {
        let cloud = Arc::new(MemStore::new());
        let harness = ProtectedDb::boot(
            Arc::new(MemFs::new()),
            cloud,
            DbProfile::postgres_small(),
            config(),
        )
        .unwrap();
        harness.db().create_table(1, 64).unwrap();
        for i in 0..12u64 {
            harness
                .db()
                .put(1, i, format!("h{i}").into_bytes())
                .unwrap();
        }
        assert!(harness.sync());
        assert!(harness.stats().updates_intercepted >= 12);
        let recovered = harness.disaster_and_recover().unwrap();
        for i in 0..12u64 {
            assert_eq!(
                recovered.get(1, i).unwrap().unwrap(),
                format!("h{i}").into_bytes()
            );
        }
    }

    #[test]
    fn boot_over_existing_database_crash_recovers_it() {
        // A database that previously crashed: boot must open it (its
        // committed state intact), not re-create it.
        let local = Arc::new(MemFs::new());
        let db = Database::create(local.clone(), DbProfile::mysql_small()).unwrap();
        db.create_table(1, 64).unwrap();
        db.put(1, 7, b"pre-existing".to_vec()).unwrap();
        drop(db); // crash

        let harness = ProtectedDb::boot(
            local,
            Arc::new(MemStore::new()),
            DbProfile::mysql_small(),
            config(),
        )
        .unwrap();
        assert_eq!(harness.db().get(1, 7).unwrap().unwrap(), b"pre-existing");
        let recovered = harness.disaster_and_recover().unwrap();
        assert_eq!(recovered.get(1, 7).unwrap().unwrap(), b"pre-existing");
    }

    #[test]
    fn shutdown_returns_working_unprotected_db() {
        let harness = ProtectedDb::boot(
            Arc::new(MemFs::new()),
            Arc::new(MemStore::new()),
            DbProfile::postgres_small(),
            config(),
        )
        .unwrap();
        harness.db().create_table(1, 64).unwrap();
        let db = harness.shutdown();
        db.put(1, 1, b"post".to_vec()).unwrap();
        assert_eq!(db.get(1, 1).unwrap().unwrap(), b"post");
    }
}
