//! The fleet manager: N tenants, one executor, one ledger, one budget.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use ginja_cloud::{
    ObjectStore, PrefixStore, ResilientStore, RetryConfig, StoreError, UsageLedger, UsageMeter,
};
use ginja_core::{
    rollup, FanoutExecutor, FanoutHandle, Ginja, GinjaConfig, GinjaError, SentinelStats,
};
use ginja_cost::governor::{project_spend, to_microusd, GovernorAction, GovernorPolicy};
use ginja_cost::BudgetConfig;
use ginja_db::{Database, DbError, DbProfile};
use ginja_sentinel::{scrub_bucket, AnomalyKind, ScrubReport};
use ginja_standby::{Standby, StandbyConfig};
use ginja_vfs::{FileSystem, InterceptFs, MemFs};

use crate::snapshot::{FleetSnapshot, TenantSnapshot};

/// Errors from the fleet manager.
#[derive(Debug)]
pub enum FleetError {
    /// The tenant's middleware failed.
    Ginja(GinjaError),
    /// The tenant's database failed.
    Db(DbError),
    /// A cloud operation outside any tenant's pipeline failed (purge,
    /// offline scrub).
    Store(StoreError),
    /// The tenant name is already attached.
    Duplicate(String),
    /// No tenant with that name is attached.
    Unknown(String),
    /// The tenant name is empty or contains `/` (which would let one
    /// tenant's prefix nest inside another's, breaking isolation).
    BadName(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Ginja(e) => write!(f, "tenant middleware: {e}"),
            FleetError::Db(e) => write!(f, "tenant database: {e}"),
            FleetError::Store(e) => write!(f, "fleet cloud operation: {e}"),
            FleetError::Duplicate(name) => write!(f, "tenant {name:?} is already attached"),
            FleetError::Unknown(name) => write!(f, "no tenant named {name:?}"),
            FleetError::BadName(name) => {
                write!(f, "tenant name {name:?} must be nonempty and slash-free")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Ginja(e) => Some(e),
            FleetError::Db(e) => Some(e),
            FleetError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GinjaError> for FleetError {
    fn from(e: GinjaError) -> Self {
        FleetError::Ginja(e)
    }
}

impl From<DbError> for FleetError {
    fn from(e: DbError) -> Self {
        FleetError::Db(e)
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> Self {
        FleetError::Store(e)
    }
}

/// Window for the rate observations feeding spend projections.
const RATE_WINDOW: Duration = Duration::from_secs(60);

/// Fleet-level configuration: the shared resources every tenant
/// multiplexes over.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Width of the shared fair executor — the fleet's total budget of
    /// concurrent cloud transfers, across all tenants. Replaces N
    /// per-tenant pools of `recovery_fanout` threads each.
    pub width: usize,
    /// Resilience policy on the shared store (retry/backoff, one
    /// fleet-wide circuit breaker). Tenants boot with their own retry
    /// disabled so cloud faults are handled exactly once, here.
    pub retry: RetryConfig,
    /// Optional fleet-wide monthly budget. When set, the arbiter
    /// derives per-tenant sub-budgets from fair-share weights and
    /// steers each tenant's B/TB/dump/sentinel knobs — never its S.
    pub budget: Option<BudgetConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            width: 8,
            retry: RetryConfig::default(),
            budget: None,
        }
    }
}

/// Everything needed to attach one tenant.
pub struct TenantSpec {
    /// Unique tenant name; becomes the bucket prefix `tenants/<name>/`.
    pub name: String,
    /// Fair-share weight: this tenant's DRR quantum on the shared
    /// executor and its share of the fleet budget. Defaults to 1.0.
    pub weight: f64,
    /// Database profile (engine kind, sizing).
    pub profile: DbProfile,
    /// The tenant's middleware configuration. Its `retry` and `budget`
    /// are overridden at attach (shared resilience, fleet arbitration);
    /// everything else — including the tenant's own S/TS — is honored
    /// verbatim.
    pub config: GinjaConfig,
    /// The tenant's local file system; a fresh in-memory one if `None`.
    pub local: Option<Arc<dyn FileSystem>>,
    /// Whether to attach a warm standby tailing this tenant's prefix
    /// into a shadow directory (driven by [`Fleet::standby_pass`]).
    pub standby: bool,
}

impl TenantSpec {
    /// A spec with weight 1.0 and a fresh local file system.
    pub fn new(name: impl Into<String>, profile: DbProfile, config: GinjaConfig) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1.0,
            profile,
            config,
            local: None,
            standby: false,
        }
    }

    /// Sets the fair-share weight.
    #[must_use]
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Attaches a warm standby to the tenant.
    #[must_use]
    pub fn standby(mut self, enabled: bool) -> Self {
        self.standby = enabled;
        self
    }
}

impl std::fmt::Debug for TenantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSpec")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// One attached tenant: a full Ginja deployment (own database, own
/// prefix, own S) on shared fleet infrastructure.
pub struct Tenant {
    name: String,
    weight: f64,
    prefix: String,
    store: PrefixStore,
    db: Database,
    ginja: Ginja,
    sentinel: Arc<SentinelStats>,
    standby: Option<Arc<Standby>>,
    decisions: AtomicU64,
    escalations: AtomicU64,
    relaxations: AtomicU64,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .field("lane", &self.lane())
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's fair-share weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The tenant's lane on the shared executor.
    pub fn lane(&self) -> usize {
        self.ginja.fanout().lane()
    }

    /// The tenant's bucket prefix (`tenants/<name>/`).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The tenant's scoped view of the shared bucket. Recovery tooling
    /// reads through this — it structurally cannot see other tenants.
    pub fn store(&self) -> PrefixStore {
        self.store.clone()
    }

    /// The protected database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The tenant's middleware.
    pub fn ginja(&self) -> &Ginja {
        &self.ginja
    }

    /// The tenant's warm standby, when the spec asked for one.
    pub fn standby(&self) -> Option<&Arc<Standby>> {
        self.standby.as_ref()
    }
}

/// A multi-tenant fleet of Ginja deployments over one bucket, one
/// fair-share executor and one budget.
///
/// Shared infrastructure (what the paper provisions per database, the
/// fleet provisions once):
///
/// * **One executor** — a weighted deficit-round-robin scheduler caps
///   the fleet's concurrent cloud transfers at [`FleetConfig::width`]
///   and serves tenant lanes in proportion to their weights, so a
///   bulk-dumping tenant cannot starve a neighbor's commit path.
/// * **One ledger + breaker** — every tenant's traffic lands in one
///   [`ResilientStore`] around the base bucket: exact fleet-wide
///   accounting and a single circuit breaker for the shared provider.
/// * **One budget** — the arbiter splits the fleet's monthly budget
///   into per-tenant sub-budgets by weight and steers each tenant's
///   cost knobs through [`Ginja::apply_knobs`]. A tenant's Safety is
///   never touched: B is hard-clamped to `[1, S]` by the commit queue
///   and S itself has no setter.
/// * **One sentinel rotation** — [`Fleet::scrub_next`] audits tenant
///   prefixes round-robin on the shared store.
pub struct Fleet {
    exec: Arc<FanoutExecutor>,
    ledger: Arc<UsageLedger>,
    shared: Arc<ResilientStore>,
    config: FleetConfig,
    epoch: Instant,
    tenants: RwLock<Vec<Arc<Tenant>>>,
    scrub_cursor: AtomicUsize,
    scrub_cycles: AtomicU64,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("width", &self.config.width)
            .field("tenants", &self.tenants.read().len())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// A fleet over `base` (the shared bucket) with no tenants yet.
    pub fn new(base: Arc<dyn ObjectStore>, config: FleetConfig) -> Self {
        let ledger = Arc::new(UsageLedger::new());
        let shared = Arc::new(ResilientStore::with_ledger(
            base,
            config.retry.clone(),
            ledger.clone(),
        ));
        Fleet {
            exec: Arc::new(FanoutExecutor::fair(config.width)),
            ledger,
            shared,
            config,
            epoch: Instant::now(),
            tenants: RwLock::new(Vec::new()),
            scrub_cursor: AtomicUsize::new(0),
            scrub_cycles: AtomicU64::new(0),
        }
    }

    /// The shared fair executor.
    pub fn executor(&self) -> &Arc<FanoutExecutor> {
        &self.exec
    }

    /// The fleet-wide usage ledger (every tenant's cloud operations,
    /// fully-prefixed names, exact storage accounting).
    pub fn ledger(&self) -> &Arc<UsageLedger> {
        &self.ledger
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Boots a tenant onto the fleet: registers a scheduler lane with
    /// the spec's weight, scopes the shared bucket under
    /// `tenants/<name>/`, creates (or crash-opens) the database and
    /// Boots Ginja over it. The tenant's own retry policy is disabled
    /// (the shared store already retries, with one fleet breaker) and
    /// its in-process budget governor is off (the fleet arbiter owns
    /// the budget); its internal ledger keeps metering its own traffic
    /// for per-tenant spend attribution.
    ///
    /// # Errors
    ///
    /// Bad or duplicate names; a non-empty tenant prefix (Boot demands
    /// a fresh namespace); middleware and database errors.
    pub fn attach(&self, spec: TenantSpec) -> Result<Arc<Tenant>, FleetError> {
        if spec.name.is_empty() || spec.name.contains('/') {
            return Err(FleetError::BadName(spec.name));
        }
        if self.tenant(&spec.name).is_some() {
            return Err(FleetError::Duplicate(spec.name));
        }
        let prefix = format!("tenants/{}/", spec.name);
        let store = PrefixStore::new(self.shared.clone() as Arc<dyn ObjectStore>, prefix.clone());

        let mut config = spec.config;
        config.retry = RetryConfig::disabled();
        config.budget = None;
        let standby_config = spec.standby.then(|| config.clone());

        let local: Arc<dyn FileSystem> = spec.local.unwrap_or_else(|| Arc::new(MemFs::new()));
        // Initialize (or crash-recover) the database files first so the
        // Boot dump captures a complete system.
        let pre = if local.exists(ginja_db::control::PG_CONTROL_PATH)
            || local.exists(ginja_db::control::INNODB_LOG0)
        {
            Database::open(local.clone(), spec.profile.clone())?
        } else {
            Database::create(local.clone(), spec.profile.clone())?
        };
        drop(pre);

        let fanout = FanoutHandle::shared(self.exec.clone(), spec.weight);
        let ginja = Ginja::boot_with(
            local.clone(),
            Arc::new(store.clone()) as Arc<dyn ObjectStore>,
            spec.profile.kind.processor(),
            config,
            fanout,
        )?;
        let sentinel = Arc::new(SentinelStats::default());
        ginja.attach_sentinel(sentinel.clone());
        // The standby tails the tenant's prefix through its own
        // resilient wrapper (fresh ledger → per-standby read
        // attribution; retries stay disabled like the tenant's own
        // lane) but shares the fleet executor, so tail GETs compete
        // under the same fair-share weight as the tenant's uploads.
        let standby = match standby_config {
            Some(standby_cfg) => {
                let tail_store = Arc::new(ResilientStore::new(
                    Arc::new(store.clone()) as Arc<dyn ObjectStore>,
                    RetryConfig::disabled(),
                ));
                let tail_fanout = FanoutHandle::shared(self.exec.clone(), spec.weight);
                let standby = Standby::attach_with(
                    tail_store,
                    tail_fanout,
                    Arc::new(MemFs::new()),
                    standby_cfg,
                    StandbyConfig {
                        lane_weight: spec.weight,
                        ..StandbyConfig::default()
                    },
                )?;
                ginja.attach_standby(standby.counters());
                Some(standby)
            }
            None => None,
        };
        let intercepted: Arc<dyn FileSystem> =
            Arc::new(InterceptFs::new(local, Arc::new(ginja.clone())));
        let db = Database::open(intercepted, spec.profile)?;

        let tenant = Arc::new(Tenant {
            name: spec.name,
            weight: spec.weight,
            prefix,
            store,
            db,
            ginja,
            sentinel,
            standby,
            decisions: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            relaxations: AtomicU64::new(0),
        });
        self.tenants.write().push(tenant.clone());
        Ok(tenant)
    }

    /// The attached tenant with the given name.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().iter().find(|t| t.name == name).cloned()
    }

    /// All attached tenants, in attach order.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.read().clone()
    }

    /// Detaches a tenant: drains its pipeline (up to `timeout` — every
    /// in-flight wave completes; the scheduler simply stops granting to
    /// an empty lane afterwards), shuts its middleware down, and — with
    /// `purge` — deletes the tenant's objects from the shared bucket.
    /// The purge walks the tenant's prefix only, so it structurally
    /// cannot touch another tenant's objects.
    ///
    /// Returns whether the pipeline fully drained before shutdown.
    ///
    /// # Errors
    ///
    /// [`FleetError::Unknown`] for unattached names; cloud errors from
    /// the purge.
    pub fn detach(&self, name: &str, purge: bool, timeout: Duration) -> Result<bool, FleetError> {
        let tenant = {
            let mut tenants = self.tenants.write();
            let idx = tenants
                .iter()
                .position(|t| t.name == name)
                .ok_or_else(|| FleetError::Unknown(name.to_string()))?;
            tenants.remove(idx)
        };
        let drained = tenant.ginja.sync(timeout);
        if let Some(standby) = tenant.standby() {
            standby.shutdown();
        }
        tenant.ginja.shutdown();
        if purge {
            for object in self.shared.list(&tenant.prefix)? {
                self.shared.delete(&object)?;
            }
        }
        Ok(drained)
    }

    /// Drains every tenant's pipeline (each gets up to `timeout`).
    /// Returns whether all drained.
    pub fn sync_all(&self, timeout: Duration) -> bool {
        let mut all = true;
        for tenant in self.tenants() {
            all &= tenant.ginja.sync(timeout);
        }
        all
    }

    /// Shuts every tenant down (without draining — call
    /// [`Fleet::sync_all`] first if tail durability matters).
    pub fn shutdown(&self) {
        for tenant in self.tenants() {
            if let Some(standby) = tenant.standby() {
                standby.shutdown();
            }
            tenant.ginja.shutdown();
        }
    }

    /// One warm-standby tail pass: runs a delta poll + apply cycle on
    /// every standby-equipped tenant. Cycle failures (e.g. the shared
    /// breaker is open during an outage) are tolerated — the standby
    /// records the error and its lag gauges keep aging. Returns the
    /// number of cycles that completed cleanly.
    pub fn standby_pass(&self) -> usize {
        let mut clean = 0;
        for tenant in self.tenants() {
            if let Some(standby) = tenant.standby() {
                if standby.run_cycle().is_ok() {
                    clean += 1;
                }
            }
        }
        clean
    }

    /// This tenant's monthly sub-budget: the fleet budget split by
    /// fair-share weight. `None` without a fleet budget or when the
    /// tenant is unknown.
    pub fn sub_budget(&self, name: &str) -> Option<BudgetConfig> {
        let budget = self.config.budget.as_ref()?;
        let tenants = self.tenants.read();
        let total: f64 = tenants.iter().map(|t| t.weight).sum();
        let tenant = tenants.iter().find(|t| t.name == name)?;
        if total <= 0.0 {
            return None;
        }
        Some(BudgetConfig {
            monthly_usd: budget.monthly_usd * (tenant.weight / total),
            ..budget.clone()
        })
    }

    /// One budget-arbitration pass: for each tenant, derive its
    /// sub-budget from the weights, project its month-end spend from
    /// its own metered ledger, and apply the MIMD governor decision to
    /// its knobs. B/TB/dump-threshold/sentinel-pace can move; the
    /// tenant's S cannot — [`Ginja::apply_knobs`] clamps B to `[1, S]`
    /// and S has no setter at all.
    ///
    /// Returns the number of tenants whose knobs changed. A no-op
    /// without a fleet budget.
    pub fn governor_pass(&self) -> usize {
        let Some(budget) = self.config.budget.clone() else {
            return 0;
        };
        let tenants = self.tenants();
        let total: f64 = tenants.iter().map(|t| t.weight).sum();
        if total <= 0.0 {
            return 0;
        }
        let elapsed = self.epoch.elapsed();
        let mut applied = 0;
        for tenant in &tenants {
            let sub = BudgetConfig {
                monthly_usd: budget.monthly_usd * (tenant.weight / total),
                ..budget.clone()
            };
            let ledger = tenant.ginja.usage_ledger();
            let usage = ledger.usage();
            let rates = ledger.observe_rates(RATE_WINDOW);
            let projection = project_spend(&usage, Some(&rates), elapsed, &sub);
            let policy = GovernorPolicy::new(sub, tenant.ginja.knob_bounds());
            if let Some((knobs, action)) = policy.decide(&tenant.ginja.current_knobs(), &projection)
            {
                tenant.ginja.apply_knobs(&knobs);
                tenant.decisions.fetch_add(1, Ordering::Relaxed);
                match action {
                    GovernorAction::Escalate => tenant.escalations.fetch_add(1, Ordering::Relaxed),
                    GovernorAction::Relax => tenant.relaxations.fetch_add(1, Ordering::Relaxed),
                };
                applied += 1;
            }
        }
        applied
    }

    /// One round-robin sentinel step: audits the next tenant's prefix
    /// on the shared store (offline scrub — list, parse, verify every
    /// payload envelope) and records the result into that tenant's
    /// sentinel counters. Returns the tenant's name and the report, or
    /// `None` with no tenants attached.
    ///
    /// # Errors
    ///
    /// Cloud listing/GET failures propagate; per-object damage is a
    /// finding, not an error.
    pub fn scrub_next(&self) -> Result<Option<(String, ScrubReport)>, FleetError> {
        let tenants = self.tenants();
        if tenants.is_empty() {
            return Ok(None);
        }
        let idx = self.scrub_cursor.fetch_add(1, Ordering::Relaxed) % tenants.len();
        let tenant = &tenants[idx];
        let report = scrub_bucket(&tenant.store, tenant.ginja.config())?;
        tenant.sentinel.record_scrub(
            report.objects_listed as u64,
            (report.count(AnomalyKind::MissingWal) + report.count(AnomalyKind::MissingDb)) as u64,
            report.count(AnomalyKind::Corrupt) as u64,
            report.count(AnomalyKind::Orphan) as u64,
        );
        self.scrub_cycles.fetch_add(1, Ordering::Relaxed);
        Ok(Some((tenant.name.clone(), report)))
    }

    /// A point-in-time view of the whole fleet: per-tenant stats and
    /// scheduler lanes, the exact counter roll-up, and the budget
    /// position (fleet-wide spend priced from the shared ledger,
    /// per-tenant spend from each tenant's own ledger).
    pub fn snapshot(&self) -> FleetSnapshot {
        let tenants = self.tenants();
        let total_weight: f64 = tenants.iter().map(|t| t.weight).sum();
        let elapsed = self.epoch.elapsed();
        let lanes = self.exec.lane_snapshots();
        let budget = self.config.budget.clone();

        let mut tenant_snaps = Vec::with_capacity(tenants.len());
        for tenant in &tenants {
            let stats = tenant.ginja.stats();
            let lane = tenant.lane();
            let (sub_usd, spent, projected) = match &budget {
                Some(b) if total_weight > 0.0 => {
                    let sub = BudgetConfig {
                        monthly_usd: b.monthly_usd * (tenant.weight / total_weight),
                        ..b.clone()
                    };
                    let projection =
                        project_spend(&tenant.ginja.usage_ledger().usage(), None, elapsed, &sub);
                    (
                        sub.monthly_usd,
                        projection.spent_usd,
                        projection.projected_usd,
                    )
                }
                _ => (0.0, 0.0, 0.0),
            };
            tenant_snaps.push(TenantSnapshot {
                name: tenant.name.clone(),
                weight: tenant.weight,
                lane,
                stats,
                scheduler: lanes.iter().find(|l| l.lane == lane).copied(),
                exposure: tenant.ginja.exposure(),
                sub_budget_microusd: to_microusd(sub_usd),
                spent_microusd: to_microusd(spent),
                projected_microusd: to_microusd(projected),
                decisions: tenant.decisions.load(Ordering::Relaxed),
                escalations: tenant.escalations.load(Ordering::Relaxed),
                relaxations: tenant.relaxations.load(Ordering::Relaxed),
            });
        }

        let (budget_microusd, spent_microusd, projected_microusd, over_budget) = match &budget {
            Some(b) => {
                let projection = project_spend(&self.ledger.usage(), None, elapsed, b);
                (
                    to_microusd(b.monthly_usd),
                    to_microusd(projection.spent_usd),
                    to_microusd(projection.projected_usd),
                    projection.projected_usd > b.monthly_usd,
                )
            }
            None => (0, 0, 0, false),
        };

        FleetSnapshot {
            totals: rollup(tenant_snaps.iter().map(|t| &t.stats)),
            tenants: tenant_snaps,
            width: self.exec.width(),
            max_in_flight: self.exec.max_in_flight(),
            budget_microusd,
            spent_microusd,
            projected_microusd,
            over_budget,
            scrub_cycles: self.scrub_cycles.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_cloud::MemStore;

    const SYNC: Duration = Duration::from_secs(30);

    fn tenant_config() -> GinjaConfig {
        GinjaConfig::builder()
            .batch(2)
            .safety(16)
            .batch_timeout(Duration::from_millis(10))
            .build()
            .unwrap()
    }

    fn fleet_on(base: Arc<MemStore>, budget: Option<BudgetConfig>) -> Fleet {
        Fleet::new(
            base,
            FleetConfig {
                width: 4,
                budget,
                ..FleetConfig::default()
            },
        )
    }

    fn spec(name: &str) -> TenantSpec {
        TenantSpec::new(name, DbProfile::postgres_small(), tenant_config())
    }

    fn write_rows(tenant: &Tenant, n: u64) {
        tenant.db().create_table(1, 64).unwrap();
        for i in 0..n {
            tenant
                .db()
                .put(1, i, format!("{}-{i}", tenant.name()).into_bytes())
                .unwrap();
        }
    }

    #[test]
    fn tenants_share_one_bucket_under_disjoint_prefixes() {
        let base = Arc::new(MemStore::new());
        let fleet = fleet_on(base.clone(), None);
        let a = fleet.attach(spec("a")).unwrap();
        let b = fleet.attach(spec("b")).unwrap();
        assert_ne!(a.lane(), b.lane(), "each tenant gets its own lane");
        write_rows(&a, 6);
        write_rows(&b, 6);
        assert!(fleet.sync_all(SYNC));

        let names = base.list("").unwrap();
        assert!(!names.is_empty());
        assert!(names
            .iter()
            .all(|n| n.starts_with("tenants/a/") || n.starts_with("tenants/b/")));
        assert!(names.iter().any(|n| n.starts_with("tenants/a/")));
        assert!(names.iter().any(|n| n.starts_with("tenants/b/")));
        // Each tenant's scoped view only surfaces its own objects.
        for name in a.store().list("").unwrap() {
            assert!(!name.starts_with("tenants/"), "relative names only: {name}");
        }
        fleet.shutdown();
    }

    #[test]
    fn bad_and_duplicate_names_rejected() {
        let fleet = fleet_on(Arc::new(MemStore::new()), None);
        assert!(matches!(
            fleet.attach(spec("")),
            Err(FleetError::BadName(_))
        ));
        assert!(matches!(
            fleet.attach(spec("a/b")),
            Err(FleetError::BadName(_))
        ));
        fleet.attach(spec("a")).unwrap();
        assert!(matches!(
            fleet.attach(spec("a")),
            Err(FleetError::Duplicate(_))
        ));
        fleet.shutdown();
    }

    #[test]
    fn detach_purge_leaves_neighbors_scrub_clean() {
        let base = Arc::new(MemStore::new());
        let fleet = fleet_on(base.clone(), None);
        let a = fleet.attach(spec("a")).unwrap();
        let b = fleet.attach(spec("b")).unwrap();
        write_rows(&a, 8);
        write_rows(&b, 8);
        assert!(fleet.sync_all(SYNC));
        let b_objects = base.list("tenants/b/").unwrap();

        let drained = fleet.detach("a", true, SYNC).unwrap();
        assert!(drained);
        assert!(fleet.tenant("a").is_none());
        assert!(base.list("tenants/a/").unwrap().is_empty(), "a purged");
        assert_eq!(base.list("tenants/b/").unwrap(), b_objects, "b untouched");

        // The survivor's prefix still audits clean on the shared store.
        let (name, report) = fleet.scrub_next().unwrap().unwrap();
        assert_eq!(name, "b");
        assert!(report.is_clean(), "anomalies: {:?}", report.anomalies);
        assert!(report.objects_listed > 0);
        drop(b);
        fleet.shutdown();
    }

    #[test]
    fn detach_unknown_tenant_errors() {
        let fleet = fleet_on(Arc::new(MemStore::new()), None);
        assert!(matches!(
            fleet.detach("ghost", false, SYNC),
            Err(FleetError::Unknown(_))
        ));
    }

    #[test]
    fn scrub_rotates_round_robin_and_feeds_sentinel_counters() {
        let fleet = fleet_on(Arc::new(MemStore::new()), None);
        let a = fleet.attach(spec("a")).unwrap();
        let _b = fleet.attach(spec("b")).unwrap();
        write_rows(&a, 4);
        assert!(fleet.sync_all(SYNC));

        let mut seen = Vec::new();
        for _ in 0..4 {
            let (name, report) = fleet.scrub_next().unwrap().unwrap();
            assert!(report.is_clean());
            seen.push(name);
        }
        assert_eq!(seen, vec!["a", "b", "a", "b"], "strict rotation");
        let snap = fleet.snapshot();
        assert_eq!(snap.scrub_cycles, 4);
        assert_eq!(snap.tenant("a").unwrap().stats.sentinel.scrub_cycles, 2);
        assert_eq!(snap.tenant("b").unwrap().stats.sentinel.scrub_cycles, 2);
        assert!(snap.totals.objects_scrubbed > 0);
        fleet.shutdown();
    }

    #[test]
    fn snapshot_rolls_up_exact_totals_and_bounds_concurrency() {
        let fleet = fleet_on(Arc::new(MemStore::new()), None);
        let a = fleet.attach(spec("a")).unwrap();
        let b = fleet.attach(spec("b")).unwrap();
        write_rows(&a, 10);
        write_rows(&b, 10);
        assert!(fleet.sync_all(SYNC));

        let snap = fleet.snapshot();
        assert!(snap.healthy());
        assert_eq!(snap.width, 4);
        assert!(
            snap.max_in_flight <= snap.width,
            "global width bound violated: {} > {}",
            snap.max_in_flight,
            snap.width
        );
        let sum: u128 = snap
            .tenants
            .iter()
            .map(|t| u128::from(t.stats.updates_intercepted))
            .sum();
        assert_eq!(snap.totals.updates_intercepted, sum);
        assert!(sum >= 20);
        // Without a fleet budget the money fields stay zero.
        assert_eq!(snap.budget_microusd, 0);
        assert!(!snap.over_budget);
        fleet.shutdown();
    }

    #[test]
    fn sub_budgets_split_by_weight() {
        let fleet = fleet_on(Arc::new(MemStore::new()), Some(BudgetConfig::new(1.0)));
        fleet.attach(spec("heavy").weight(3.0)).unwrap();
        fleet.attach(spec("light").weight(1.0)).unwrap();
        let heavy = fleet.sub_budget("heavy").unwrap();
        let light = fleet.sub_budget("light").unwrap();
        assert!((heavy.monthly_usd - 0.75).abs() < 1e-9);
        assert!((light.monthly_usd - 0.25).abs() < 1e-9);
        assert!(fleet.sub_budget("ghost").is_none());
        let snap = fleet.snapshot();
        assert_eq!(snap.tenant("heavy").unwrap().sub_budget_microusd, 750_000);
        assert_eq!(snap.tenant("light").unwrap().sub_budget_microusd, 250_000);
        fleet.shutdown();
    }

    #[test]
    fn arbitration_escalates_b_but_never_touches_s() {
        // A budget far below what the traffic costs: the arbiter must
        // escalate B (and TB), yet S is immutable by construction.
        let mut budget = BudgetConfig::new(0.000_001);
        budget.month = Duration::from_secs(3600);
        let fleet = fleet_on(Arc::new(MemStore::new()), Some(budget));
        let a = fleet.attach(spec("a")).unwrap();
        let baseline_batch = a.ginja().current_knobs().batch;
        write_rows(&a, 32);
        assert!(fleet.sync_all(SYNC));

        let mut escalations = 0;
        for _ in 0..8 {
            escalations += fleet.governor_pass();
        }
        assert!(escalations > 0, "tiny budget must force escalations");
        let knobs = a.ginja().current_knobs();
        assert!(knobs.batch > baseline_batch, "B escalated");
        assert!(
            knobs.batch <= a.ginja().config().safety,
            "B clamped to S: {} > {}",
            knobs.batch,
            a.ginja().config().safety
        );
        assert_eq!(a.ginja().config().safety, 16, "S untouched");
        let snap = fleet.snapshot();
        let ts = snap.tenant("a").unwrap();
        assert_eq!(ts.escalations, escalations as u64);
        assert_eq!(ts.decisions, ts.escalations + ts.relaxations);
        fleet.shutdown();
    }

    #[test]
    fn governor_pass_is_a_noop_without_a_budget() {
        let fleet = fleet_on(Arc::new(MemStore::new()), None);
        let a = fleet.attach(spec("a")).unwrap();
        write_rows(&a, 8);
        assert!(fleet.sync_all(SYNC));
        assert_eq!(fleet.governor_pass(), 0);
        assert_eq!(fleet.snapshot().tenant("a").unwrap().decisions, 0);
        fleet.shutdown();
    }

    #[test]
    fn standby_tenants_tail_and_promote_within_the_fleet() {
        let fleet = fleet_on(Arc::new(MemStore::new()), None);
        let a = fleet.attach(spec("a").standby(true)).unwrap();
        let plain = fleet.attach(spec("b")).unwrap();
        assert!(a.standby().is_some(), "spec asked for a standby");
        assert!(plain.standby().is_none(), "and b did not");

        write_rows(&a, 12);
        write_rows(&plain, 4);
        assert!(fleet.sync_all(SYNC));

        assert_eq!(fleet.standby_pass(), 1, "only a's standby cycles");
        assert_eq!(fleet.standby_pass(), 1);

        let snap = fleet.snapshot();
        let stats = &snap.tenant("a").unwrap().stats;
        let tail = stats.standby;
        assert!(tail.tail_cycles >= 2, "cycles recorded: {tail:?}");
        assert!(tail.gets > 0, "the tail fetched objects");
        assert_eq!(tail.lag_objects, 0, "drained after the passes");
        assert_eq!(
            snap.tenant("b").unwrap().stats.standby.tail_cycles,
            0,
            "no standby gauges on a plain tenant"
        );
        assert_eq!(
            snap.totals.standby_tail_cycles,
            u128::from(tail.tail_cycles)
        );
        assert_eq!(snap.totals.standby_gets, u128::from(tail.gets));

        // Promote a's shadow: the result must be a bootable directory
        // holding everything the tenant had synced.
        let standby = a.standby().unwrap().clone();
        let report = standby.promote().unwrap();
        assert!(report.caught_up, "nothing was in flight: {report:?}");
        let db = Database::open(standby.shadow(), DbProfile::postgres_small()).unwrap();
        for i in 0..12u64 {
            assert_eq!(
                db.get(1, i).unwrap().unwrap(),
                format!("a-{i}").into_bytes()
            );
        }
        assert_eq!(fleet.standby_pass(), 0, "a fenced standby stops cycling");
        assert!(fleet.snapshot().totals.standby_promotions >= 1);
        fleet.shutdown();
    }
}
