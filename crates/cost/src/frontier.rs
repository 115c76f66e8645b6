//! The $1/month capacity frontier of Figure 1.
//!
//! Figure 1 plots, for an S3-based DR solution, the database size and
//! number of cloud synchronizations per hour that a fixed monthly
//! budget affords: `cost = size × C_Storage + syncs/month × C_PUT`.
//! Example points from §3: 4.3 GB at 4 syncs/minute (setup C), 20 GB at
//! 2 syncs/minute (setup B), 35 GB at one sync every 72 s (setup A).
//!
//! The API is the [`Budget`] type: construct one from a monthly dollar
//! figure and a price sheet, then ask it for costs, affordable sizes,
//! and the frontier series.

use crate::pricing::S3Pricing;

/// Hours per 30-day month.
pub(crate) const HOURS_PER_MONTH: f64 = 30.0 * 24.0;

/// A monthly dollar budget against a price sheet — the unit of account
/// for Figure 1.
///
/// ```rust
/// use ginja_cost::{Budget, S3Pricing};
///
/// let budget = Budget::new(1.0); // the paper's one dollar
/// // Setup A from §3: 35 GB synchronized once every 72 s (50/hour).
/// assert!((budget.monthly_cost_simple(35.0, 50.0) - 1.0).abs() < 0.05);
/// assert!(budget.max_db_size_gb(50.0) > 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Dollars per month.
    pub monthly_usd: f64,
    /// Price sheet the budget is spent against.
    pub pricing: S3Pricing,
}

impl Budget {
    /// A budget of `monthly_usd` against the paper's May-2017 S3 sheet.
    pub fn new(monthly_usd: f64) -> Self {
        Budget {
            monthly_usd,
            pricing: S3Pricing::may_2017(),
        }
    }

    /// A budget against an explicit price sheet.
    pub fn with_pricing(monthly_usd: f64, pricing: S3Pricing) -> Self {
        Budget {
            monthly_usd,
            pricing,
        }
    }

    /// Monthly cost of the simple Figure 1 setup: storing `db_size_gb`
    /// and uploading `syncs_per_hour` batches per hour.
    pub fn monthly_cost_simple(&self, db_size_gb: f64, syncs_per_hour: f64) -> f64 {
        db_size_gb * self.pricing.storage_gb_month
            + syncs_per_hour * HOURS_PER_MONTH * self.pricing.put_op
    }

    /// Largest database size affordable at `syncs_per_hour` under this
    /// budget (the Figure 1 curve). Zero when the PUTs alone exceed the
    /// budget.
    pub fn max_db_size_gb(&self, syncs_per_hour: f64) -> f64 {
        let put_cost = syncs_per_hour * HOURS_PER_MONTH * self.pricing.put_op;
        ((self.monthly_usd - put_cost) / self.pricing.storage_gb_month).max(0.0)
    }

    /// Samples the frontier at each of `syncs_per_hour`, returning
    /// `(syncs/hour, max DB size GB)` pairs — the series Figure 1 plots.
    pub fn frontier(&self, syncs_per_hour: impl IntoIterator<Item = f64>) -> Vec<(f64, f64)> {
        syncs_per_hour
            .into_iter()
            .map(|rate| (rate, self.max_db_size_gb(rate)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_dollar() -> Budget {
        Budget::new(1.0)
    }

    #[test]
    fn setup_c_from_section_3() {
        // "4.3GB with four synchronizations per minute" → 240/hour.
        let cost = one_dollar().monthly_cost_simple(4.3, 240.0);
        assert!((cost - 1.0).abs() < 0.05, "got {cost}");
    }

    #[test]
    fn setup_b_from_section_3() {
        // "a 20GB database with two synchronizations per minute".
        let cost = one_dollar().monthly_cost_simple(20.0, 120.0);
        assert!((cost - 1.0).abs() < 0.15, "got {cost}");
    }

    #[test]
    fn setup_a_from_section_3() {
        // "a 35GB database synchronized once every 72 seconds" → 50/hour.
        let cost = one_dollar().monthly_cost_simple(35.0, 50.0);
        assert!((cost - 1.0).abs() < 0.05, "got {cost}");
    }

    #[test]
    fn frontier_is_monotonically_decreasing() {
        let series = one_dollar().frontier((0..=250).step_by(10).map(|x| x as f64));
        for pair in series.windows(2) {
            assert!(pair[1].1 <= pair[0].1, "{pair:?}");
        }
        // Left end: ~$1 of pure storage ≈ 43 GB.
        assert!((series[0].1 - 43.47).abs() < 0.1);
    }

    #[test]
    fn budget_exhausted_by_puts_gives_zero_size() {
        // 280 syncs/hour ≈ $1.008 of PUTs alone.
        assert_eq!(one_dollar().max_db_size_gb(300.0), 0.0);
    }

    #[test]
    fn below_frontier_is_below_budget() {
        let budget = one_dollar();
        for rate in [10.0, 60.0, 120.0, 240.0] {
            let max = budget.max_db_size_gb(rate);
            if max > 0.5 {
                assert!(budget.monthly_cost_simple(max - 0.5, rate) < 1.0);
            }
            assert!(budget.monthly_cost_simple(max + 1.0, rate) > 1.0);
        }
    }

    #[test]
    fn explicit_pricing_agrees_with_default_sheet() {
        // `Budget::new` and `Budget::with_pricing(May-2017)` must be
        // the same budget — the path every migrated shim caller takes.
        let budget = Budget::with_pricing(1.0, S3Pricing::may_2017());
        assert_eq!(
            budget.monthly_cost_simple(20.0, 120.0),
            one_dollar().monthly_cost_simple(20.0, 120.0)
        );
        assert_eq!(
            budget.max_db_size_gb(120.0),
            one_dollar().max_db_size_gb(120.0)
        );
        assert_eq!(
            budget.frontier([50.0, 120.0]),
            one_dollar().frontier([50.0, 120.0])
        );
    }
}
