//! A TPC-C-style workload over the mini-DBMS.
//!
//! This is not a conformant TPC-C implementation (no think times, no
//! response-time constraints) — it reproduces what the paper needs from
//! BenchmarkSQL / Java TPC-C: the standard transaction mix and its
//! update-heavy write pattern against the nine TPC-C tables.

use ginja_db::{Database, DbError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TPC-C table identifiers.
pub mod tables {
    /// WAREHOUSE.
    pub const WAREHOUSE: u32 = 1;
    /// DISTRICT.
    pub const DISTRICT: u32 = 2;
    /// CUSTOMER.
    pub const CUSTOMER: u32 = 3;
    /// HISTORY.
    pub const HISTORY: u32 = 4;
    /// ORDER.
    pub const ORDER: u32 = 5;
    /// NEW-ORDER.
    pub const NEW_ORDER: u32 = 6;
    /// ORDER-LINE.
    pub const ORDER_LINE: u32 = 7;
    /// STOCK.
    pub const STOCK: u32 = 8;
    /// ITEM.
    pub const ITEM: u32 = 9;
}

/// Districts per warehouse (fixed by the TPC-C specification).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;

/// Scale parameters. TPC-C full scale (100 000 items, 3 000 customers
/// per district) is too large for quick in-memory experiments; the
/// defaults shrink row counts while keeping the access skew and row
/// sizes, which is what drives the I/O pattern Ginja sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccScale {
    /// Items in the catalog (spec: 100 000).
    pub items: u64,
    /// Customers per district (spec: 3 000).
    pub customers_per_district: u64,
    /// Initially loaded orders per district (spec: 3 000).
    pub initial_orders_per_district: u64,
}

impl TpccScale {
    /// A small scale for unit tests (fast load).
    pub fn tiny() -> Self {
        TpccScale {
            items: 100,
            customers_per_district: 30,
            initial_orders_per_district: 10,
        }
    }

    /// The scale used by the benchmark harnesses: large enough for a
    /// realistic working set, small enough to load in seconds.
    pub fn bench() -> Self {
        TpccScale {
            items: 1_000,
            customers_per_district: 300,
            initial_orders_per_district: 100,
        }
    }

    /// Full TPC-C cardinalities (slow to load; used for sizing studies).
    pub fn full() -> Self {
        TpccScale {
            items: 100_000,
            customers_per_district: 3_000,
            initial_orders_per_district: 3_000,
        }
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// New-order (45 % of the mix; the "C" in Tpm-C).
    NewOrder,
    /// Payment (43 %).
    Payment,
    /// Order-status (4 %, read-only).
    OrderStatus,
    /// Delivery (4 %).
    Delivery,
    /// Stock-level (4 %, read-only).
    StockLevel,
}

/// A TPC-C workload instance: schema, initial population, and the
/// weighted transaction mix.
///
/// One `Tpcc` serves one terminal; create several with distinct seeds
/// for multi-terminal runs (order-id allocation is internally disjoint
/// per instance via an id stride).
///
/// ```rust
/// use std::sync::Arc;
/// use ginja_db::{Database, DbProfile};
/// use ginja_vfs::MemFs;
/// use ginja_workload::{Tpcc, TpccScale};
///
/// # fn main() -> Result<(), ginja_db::DbError> {
/// let db = Database::create(Arc::new(MemFs::new()), DbProfile::postgres_small())?;
/// let mut tpcc = Tpcc::new(1, 42, TpccScale::tiny());
/// tpcc.create_schema(&db)?;
/// tpcc.load(&db)?;
/// let kind = tpcc.run_transaction(&db)?;
/// println!("ran a {kind:?} transaction");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tpcc {
    warehouses: u64,
    scale: TpccScale,
    rng: StdRng,
    /// Terminal id and count make order-id allocation collision-free
    /// across concurrent terminals.
    terminal: u64,
    terminals: u64,
    /// Next order sequence number (per this terminal).
    next_order_seq: u64,
    /// Next history sequence number (per this terminal).
    next_history_seq: u64,
    /// Oldest order this terminal delivered.
    delivery_seq: u64,
}

impl Tpcc {
    /// Creates a single-terminal workload.
    pub fn new(warehouses: u64, seed: u64, scale: TpccScale) -> Self {
        Self::for_terminal(warehouses, seed, scale, 0, 1)
    }

    /// Creates the workload view of one terminal out of `terminals`.
    ///
    /// # Panics
    ///
    /// Panics if `terminal >= terminals` or `warehouses == 0`.
    pub fn for_terminal(
        warehouses: u64,
        seed: u64,
        scale: TpccScale,
        terminal: u64,
        terminals: u64,
    ) -> Self {
        assert!(terminal < terminals, "terminal index out of range");
        assert!(warehouses > 0, "at least one warehouse");
        Tpcc {
            warehouses,
            scale,
            rng: StdRng::seed_from_u64(seed ^ (terminal << 32)),
            terminal,
            terminals,
            next_order_seq: 0,
            next_history_seq: 0,
            delivery_seq: 0,
        }
    }

    /// The scale in use.
    pub fn scale(&self) -> &TpccScale {
        &self.scale
    }

    /// Creates the nine TPC-C tables with row sizes proportionate to
    /// the spec's (customer rows are the largest, order-line rows small).
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`].
    pub fn create_schema(&self, db: &Database) -> Result<(), DbError> {
        let page = db.profile().page_size;
        // Slot sizes capped to the page for the MySQL 16 KiB / PG 8 KiB
        // profiles alike.
        let cap = |want: usize| want.min(page - 64);
        db.create_table(tables::WAREHOUSE, cap(96))?;
        db.create_table(tables::DISTRICT, cap(112))?;
        db.create_table(tables::CUSTOMER, cap(560))?;
        db.create_table(tables::HISTORY, cap(64))?;
        db.create_table(tables::ORDER, cap(48))?;
        db.create_table(tables::NEW_ORDER, cap(24))?;
        db.create_table(tables::ORDER_LINE, cap(72))?;
        db.create_table(tables::STOCK, cap(304))?;
        db.create_table(tables::ITEM, cap(96))?;
        Ok(())
    }

    /// Loads the initial population (items, warehouses, districts,
    /// customers, stock, and the first orders).
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`].
    pub fn load(&mut self, db: &Database) -> Result<(), DbError> {
        for i in 0..self.scale.items {
            db.put(tables::ITEM, i, self.item_row(i))?;
        }
        for w in 0..self.warehouses {
            db.put(tables::WAREHOUSE, w, self.warehouse_row(w))?;
            for i in 0..self.scale.items {
                db.put(
                    tables::STOCK,
                    w * self.scale.items + i,
                    self.stock_row(w, i),
                )?;
            }
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                let district = w * DISTRICTS_PER_WAREHOUSE + d;
                db.put(tables::DISTRICT, district, self.district_row(w, d))?;
                for c in 0..self.scale.customers_per_district {
                    db.put(
                        tables::CUSTOMER,
                        district * self.scale.customers_per_district + c,
                        self.customer_row(district, c),
                    )?;
                }
            }
        }
        for _ in 0..self.scale.initial_orders_per_district * DISTRICTS_PER_WAREHOUSE {
            self.new_order(db)?;
        }
        Ok(())
    }

    /// Runs one transaction of the standard mix. Returns its kind.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`].
    pub fn run_transaction(&mut self, db: &Database) -> Result<TxnKind, DbError> {
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=44 => {
                self.new_order(db)?;
                Ok(TxnKind::NewOrder)
            }
            45..=87 => {
                self.payment(db)?;
                Ok(TxnKind::Payment)
            }
            88..=91 => {
                self.order_status(db)?;
                Ok(TxnKind::OrderStatus)
            }
            92..=95 => {
                self.delivery(db)?;
                Ok(TxnKind::Delivery)
            }
            _ => {
                self.stock_level(db)?;
                Ok(TxnKind::StockLevel)
            }
        }
    }

    fn pick_warehouse(&mut self) -> u64 {
        self.rng.gen_range(0..self.warehouses)
    }

    fn pick_district(&mut self, w: u64) -> u64 {
        w * DISTRICTS_PER_WAREHOUSE + self.rng.gen_range(0..DISTRICTS_PER_WAREHOUSE)
    }

    fn pick_customer(&mut self, district: u64) -> u64 {
        // NURand-ish skew: two draws, take the minimum — hot customers.
        let n = self.scale.customers_per_district;
        let a = self.rng.gen_range(0..n);
        let b = self.rng.gen_range(0..n);
        district * n + a.min(b)
    }

    fn alloc_order_key(&mut self) -> u64 {
        // Stride allocation keeps terminals collision-free without
        // shared state, and keys stay dense (table files stay
        // proportional to the data actually stored).
        let seq = self.next_order_seq * self.terminals + self.terminal;
        self.next_order_seq += 1;
        seq
    }

    fn new_order(&mut self, db: &Database) -> Result<(), DbError> {
        let w = self.pick_warehouse();
        let district = self.pick_district(w);
        let customer = self.pick_customer(district);
        let order_key = self.alloc_order_key();
        let lines = self.rng.gen_range(5..=15u64);

        let mut txn = db.begin();
        txn.put(
            tables::DISTRICT,
            district,
            self.district_row(w, district % 10),
        );
        txn.put(tables::ORDER, order_key, self.order_row(customer, lines));
        txn.put(tables::NEW_ORDER, order_key, b"pending".to_vec());
        for line in 0..lines {
            let item = self.rng.gen_range(0..self.scale.items);
            let qty = self.rng.gen_range(1..=10u32);
            txn.put(
                tables::ORDER_LINE,
                order_key * 15 + line,
                self.order_line_row(item, qty),
            );
            txn.put(
                tables::STOCK,
                w * self.scale.items + item,
                self.stock_row(w, item),
            );
        }
        txn.commit()
    }

    fn payment(&mut self, db: &Database) -> Result<(), DbError> {
        let w = self.pick_warehouse();
        let district = self.pick_district(w);
        let customer = self.pick_customer(district);
        let amount = self.rng.gen_range(1..5000u32);
        let history_key = self.next_history_seq * self.terminals + self.terminal;
        self.next_history_seq += 1;

        let mut txn = db.begin();
        txn.put(tables::WAREHOUSE, w, self.warehouse_row(w));
        txn.put(
            tables::DISTRICT,
            district,
            self.district_row(w, district % 10),
        );
        txn.put(
            tables::CUSTOMER,
            customer,
            self.customer_row(district, customer),
        );
        txn.put(
            tables::HISTORY,
            history_key,
            self.history_row(customer, amount),
        );
        txn.commit()
    }

    fn order_status(&mut self, db: &Database) -> Result<(), DbError> {
        let district = {
            let w = self.pick_warehouse();
            self.pick_district(w)
        };
        let customer = self.pick_customer(district);
        let _ = db.get(tables::CUSTOMER, customer)?;
        if self.next_order_seq > 0 {
            let seq = self.rng.gen_range(0..self.next_order_seq);
            let key = seq * self.terminals + self.terminal;
            let _ = db.get(tables::ORDER, key)?;
            let _ = db.get(tables::ORDER_LINE, key * 15)?;
        }
        Ok(())
    }

    fn delivery(&mut self, db: &Database) -> Result<(), DbError> {
        if self.delivery_seq >= self.next_order_seq {
            return Ok(()); // nothing to deliver yet
        }
        let key = self.delivery_seq * self.terminals + self.terminal;
        self.delivery_seq += 1;
        let w = self.pick_warehouse();
        let district = self.pick_district(w);

        let mut txn = db.begin();
        txn.delete(tables::NEW_ORDER, key);
        txn.put(tables::ORDER, key, self.order_row(0, 0));
        let customer = self.pick_customer(district);
        txn.put(
            tables::CUSTOMER,
            customer,
            self.customer_row(district, customer),
        );
        txn.commit()
    }

    fn stock_level(&mut self, db: &Database) -> Result<(), DbError> {
        let w = self.pick_warehouse();
        for _ in 0..10 {
            let item = self.rng.gen_range(0..self.scale.items);
            let _ = db.get(tables::STOCK, w * self.scale.items + item)?;
        }
        Ok(())
    }

    // Row payloads: structured text with embedded counters and a slice
    // of random digits — compresses at a realistic ~1.4×, like real
    // page data (see DESIGN.md).
    fn row(&mut self, prefix: &str, id: u64, len: usize) -> Vec<u8> {
        let mut row = format!("{prefix}:{id:012}|").into_bytes();
        // Half random, half structured filler: this lands near the
        // paper's assumed compression rate of ~1.43 on page data.
        while row.len() < len {
            for _ in 0..8 {
                row.push(self.rng.gen_range(b'0'..=b'z'));
            }
            row.extend_from_slice(b"_padding");
        }
        row.truncate(len);
        row
    }

    fn item_row(&mut self, i: u64) -> Vec<u8> {
        self.row("item", i, 70)
    }

    fn warehouse_row(&mut self, w: u64) -> Vec<u8> {
        self.row("wh", w, 72)
    }

    fn district_row(&mut self, w: u64, d: u64) -> Vec<u8> {
        self.row("dist", w * 100 + d, 84)
    }

    fn customer_row(&mut self, district: u64, c: u64) -> Vec<u8> {
        self.row("cust", district * 100_000 + c, 480)
    }

    fn stock_row(&mut self, w: u64, i: u64) -> Vec<u8> {
        self.row("stock", w * 1_000_000 + i, 260)
    }

    fn order_row(&mut self, customer: u64, lines: u64) -> Vec<u8> {
        self.row("order", customer * 100 + lines, 32)
    }

    fn order_line_row(&mut self, item: u64, qty: u32) -> Vec<u8> {
        self.row("ol", item * 100 + qty as u64, 54)
    }

    fn history_row(&mut self, customer: u64, amount: u32) -> Vec<u8> {
        self.row("hist", customer * 10_000 + amount as u64, 46)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginja_db::DbProfile;
    use ginja_vfs::MemFs;
    use std::sync::Arc;

    fn db() -> Database {
        Database::create(Arc::new(MemFs::new()), DbProfile::postgres_small()).unwrap()
    }

    #[test]
    fn schema_and_load() {
        let db = db();
        let mut tpcc = Tpcc::new(1, 7, TpccScale::tiny());
        tpcc.create_schema(&db).unwrap();
        tpcc.load(&db).unwrap();
        // Spot-check population.
        assert!(db.get(tables::ITEM, 0).unwrap().is_some());
        assert!(db.get(tables::WAREHOUSE, 0).unwrap().is_some());
        assert!(db.get(tables::CUSTOMER, 0).unwrap().is_some());
        assert!(db.get(tables::STOCK, 99).unwrap().is_some());
        // Initial orders were created.
        assert!(db.stats().commits > 100);
    }

    #[test]
    fn mix_is_roughly_standard() {
        let db = db();
        let mut tpcc = Tpcc::new(1, 42, TpccScale::tiny());
        tpcc.create_schema(&db).unwrap();
        tpcc.load(&db).unwrap();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..1000 {
            let kind = tpcc.run_transaction(&db).unwrap();
            *counts.entry(kind).or_insert(0u32) += 1;
        }
        let new_orders = counts[&TxnKind::NewOrder];
        let payments = counts[&TxnKind::Payment];
        assert!((380..=520).contains(&new_orders), "newOrder {new_orders}");
        assert!((360..=500).contains(&payments), "payment {payments}");
        assert!(counts.len() == 5, "{counts:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let db = db();
            let mut tpcc = Tpcc::new(1, seed, TpccScale::tiny());
            tpcc.create_schema(&db).unwrap();
            tpcc.load(&db).unwrap();
            for _ in 0..50 {
                tpcc.run_transaction(&db).unwrap();
            }
            db.stats().records_written
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn terminals_do_not_collide_on_order_keys() {
        let scale = TpccScale::tiny();
        let mut a = Tpcc::for_terminal(1, 1, scale, 0, 2);
        let mut b = Tpcc::for_terminal(1, 1, scale, 1, 2);
        let keys_a: std::collections::HashSet<u64> =
            (0..100).map(|_| a.alloc_order_key()).collect();
        let keys_b: std::collections::HashSet<u64> =
            (0..100).map(|_| b.alloc_order_key()).collect();
        assert!(keys_a.is_disjoint(&keys_b));
    }

    #[test]
    fn rows_compress_realistically() {
        let mut tpcc = Tpcc::new(1, 3, TpccScale::tiny());
        let mut blob = Vec::new();
        for c in 0..200 {
            blob.extend_from_slice(&tpcc.customer_row(1, c));
        }
        let ratio = ginja_codec::glz::ratio(&blob);
        assert!(ratio > 1.05 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "terminal index")]
    fn bad_terminal_rejected() {
        let _ = Tpcc::for_terminal(1, 0, TpccScale::tiny(), 2, 2);
    }

    #[test]
    fn workload_is_update_heavy() {
        // ≈ 90 % of transactions perform writes (the paper's reason for
        // choosing TPC-C).
        let db = db();
        let mut tpcc = Tpcc::new(1, 5, TpccScale::tiny());
        tpcc.create_schema(&db).unwrap();
        tpcc.load(&db).unwrap();
        let commits_before = db.stats().commits;
        let mut writes = 0;
        for _ in 0..500 {
            let kind = tpcc.run_transaction(&db).unwrap();
            if !matches!(kind, TxnKind::OrderStatus | TxnKind::StockLevel) {
                writes += 1;
            }
        }
        assert!(writes >= 420, "writes {writes}");
        assert!(db.stats().commits > commits_before + 400);
    }
}
