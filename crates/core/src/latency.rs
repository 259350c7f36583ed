//! Deterministic per-replica service-latency models and the hedging
//! policy built on them.
//!
//! PR 7's serving loop charged every batch the same [`CostModel`] ticks,
//! so a replica that is merely *slow* — the realistic failure mode for a
//! FeFET array whose write-verify retries and scrub cycles stretch
//! service time as cells age — was invisible to every gate. This module
//! makes latency heterogeneity first-class while keeping the virtual
//! tick clock bit-reproducible:
//!
//! * [`LatencyModel`] — a seeded per-replica service-time sampler. The
//!   stochastic part is an integer-only *quantized log-normal*: a
//!   16-entry per-mille multiplier table (the inverse CDF of a σ ≈ 0.25
//!   log-normal at 16 equiprobable bins) indexed by the top bits of a
//!   domain-separated SplitMix64 draw. On top of the jitter sit
//!   deterministic inflation terms coupled to load (queue depth), health
//!   (remapped/quarantined rows via
//!   [`HealthSnapshot::degraded_milli`](crate::health::HealthSnapshot::degraded_milli)),
//!   recent scrubs, and a time-coupled degradation slope for the
//!   aging-replica scenario family.
//! * [`HedgePolicy`] — when the slowest pending quorum read exceeds the
//!   configured quantile of the healthy service distribution, a duplicate
//!   read is issued to the best idle replica, first completion wins, and
//!   a per-mille budget bounds how many batches may hedge so hedges can
//!   never amplify overload.
//!
//! The sampled durations also feed each replica's latency EWMA and its
//! brownout ladder, which live with the rest of a replica's health in
//! [`ReplicaSet`](crate::replica::ReplicaSet) (see
//! [`BrownoutPolicy`](crate::replica::BrownoutPolicy)).
//!
//! All knobs are integers (per-mille fixed point); all randomness flows
//! through `splitmix64(seed ^ splitmix64(draw ^ SALT))` streams disjoint
//! from the replica, query, fault, and load streams.

use crate::error::FerexError;
use crate::serve::CostModel;
use ferex_fefet::math::splitmix64;

/// Domain-separation salt for latency-model draws, disjoint from the
/// replica, query, fault, and load-simulator streams.
const LATENCY_STREAM_SALT: u64 = 0x7A11_1A7E_5C0F_F1CE;

/// Inverse CDF of a σ ≈ 0.25 log-normal at 16 equiprobable bins, in
/// per-mille of the median (bin centers at `p = (2i+1)/32`). Quantized so
/// the sampler stays integer-only: no `f64::exp`/`ln`, which vary across
/// libm implementations and would break byte-reproducibility.
const QLN_MILLI: [i64; 16] =
    [628, 719, 777, 824, 865, 904, 942, 981, 1020, 1061, 1106, 1156, 1214, 1287, 1390, 1593];

/// Ceiling on the effective slowdown multiplier (per-mille): one million
/// milli = 1000x, far past any modeled brownout.
const MAX_SLOW_MILLI: u128 = 1_000_000;

/// Ceiling on the additive inflation terms (per-mille): +4000 milli = a
/// 5x total stretch from load/health/scrub coupling alone.
const MAX_INFLATION_MILLI: u64 = 4000;

/// Per-mille multiplier at the `q_milli` per-mille quantile of the
/// quantized log-normal sampler (e.g. `qln_quantile_milli(950)` is the
/// p95 multiplier, 1593). Saturates at the top bin for `q_milli >= 999`.
pub fn qln_quantile_milli(q_milli: u64) -> u64 {
    let idx = ((q_milli.min(999) as usize) * QLN_MILLI.len()) / 1000;
    QLN_MILLI.get(idx).copied().unwrap_or(1000) as u64
}

/// Seeded service-latency model of one replica.
///
/// The modeled service time of a batch of `B` queries at virtual tick
/// `t` with `q` requests queued behind it is, in per-mille fixed point:
///
/// ```text
/// base.service_ticks(B)
///   x (slow_factor_milli + degrade_milli_per_kilotick * t / 1000)
///   x jitter(draw)                       // quantized log-normal
///   x (1000 + load + health + scrub)     // additive inflation terms
/// ```
///
/// With `slow_factor_milli = 1000`, `jitter_milli = 0`, and zero
/// inflation knobs the model charges exactly `base.service_ticks(B)` —
/// the PR 7 uniform cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Baseline cost model the multipliers scale.
    pub base: CostModel,
    /// Constant slowdown in per-mille (1000 = healthy, 8000 = 8x slow).
    pub slow_factor_milli: u64,
    /// Slowdown growth in per-mille per 1000 virtual ticks — the
    /// degrading-replica (aging) term.
    pub degrade_milli_per_kilotick: u64,
    /// Amplitude of the quantized log-normal jitter, 0..=1000 per-mille
    /// of the table's spread (0 = deterministic, 1000 = full spread).
    pub jitter_milli: u64,
    /// Additive inflation per queued request behind the batch, per-mille.
    pub load_milli_per_queued: u64,
    /// Additive inflation at full health degradation, per-mille; scaled
    /// linearly by the replica's
    /// [`HealthSnapshot::degraded_milli`](crate::health::HealthSnapshot::degraded_milli).
    pub health_milli: u64,
    /// Additive inflation while a scrub ran within the window, per-mille.
    pub scrub_penalty_milli: u64,
    /// Ticks after a scrub during which the penalty applies.
    pub scrub_window_ticks: u64,
    /// Seed of this model's jitter stream (domain-separated internally).
    pub seed: u64,
}

impl LatencyModel {
    /// A healthy replica: no constant slowdown, full jitter, and gentle
    /// default couplings to load, health, and scrub activity.
    pub fn healthy(base: CostModel, seed: u64) -> Self {
        LatencyModel {
            base,
            slow_factor_milli: 1000,
            degrade_milli_per_kilotick: 0,
            jitter_milli: 1000,
            load_milli_per_queued: 2,
            health_milli: 500,
            scrub_penalty_milli: 250,
            scrub_window_ticks: 64,
            seed,
        }
    }

    /// A constantly slow replica: [`LatencyModel::healthy`] stretched by
    /// `factor_milli` per-mille (floored at 1000 = 1x).
    pub fn slowed(base: CostModel, factor_milli: u64, seed: u64) -> Self {
        LatencyModel { slow_factor_milli: factor_milli.max(1000), ..Self::healthy(base, seed) }
    }

    /// A replica whose slowdown grows by `milli_per_kilotick` per 1000
    /// ticks — the aging/degrading scenario family.
    pub fn degrading(base: CostModel, milli_per_kilotick: u64, seed: u64) -> Self {
        LatencyModel { degrade_milli_per_kilotick: milli_per_kilotick, ..Self::healthy(base, seed) }
    }

    /// A fully deterministic model (zero jitter, zero couplings) at a
    /// fixed slowdown — exact tick pins for regression tests.
    pub fn exact(base: CostModel, factor_milli: u64, seed: u64) -> Self {
        LatencyModel {
            base,
            slow_factor_milli: factor_milli.max(1000),
            degrade_milli_per_kilotick: 0,
            jitter_milli: 0,
            load_milli_per_queued: 0,
            health_milli: 0,
            scrub_penalty_milli: 0,
            scrub_window_ticks: 0,
            seed,
        }
    }

    /// Validates the model knobs.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on a slowdown below 1x, jitter above
    /// the table spread, or a base model that charges zero ticks.
    pub fn validate(&self) -> Result<(), FerexError> {
        if self.slow_factor_milli < 1000 {
            return Err(FerexError::InvalidPolicy {
                what: "latency slow factor must be at least 1000 milli (1x)",
            });
        }
        if self.jitter_milli > 1000 {
            return Err(FerexError::InvalidPolicy {
                what: "latency jitter must be at most 1000 milli",
            });
        }
        if self.base.service_ticks(1) == 0 {
            return Err(FerexError::InvalidPolicy {
                what: "latency base cost must charge at least one tick per batch",
            });
        }
        Ok(())
    }

    /// The jitter multiplier of one draw, in per-mille: a quantized
    /// log-normal table entry, pulled toward 1000 by `jitter_milli`.
    /// Exactly 1000 when jitter is disabled.
    pub fn jitter_multiplier_milli(&self, draw: u64) -> u64 {
        if self.jitter_milli == 0 {
            return 1000;
        }
        let r = splitmix64(self.seed ^ splitmix64(draw ^ LATENCY_STREAM_SALT));
        let idx = (r >> 60) as usize;
        let dev = QLN_MILLI.get(idx).copied().unwrap_or(1000) - 1000;
        let scaled = 1000i64 + dev * (self.jitter_milli.min(1000) as i64) / 1000;
        scaled.max(1) as u64
    }

    /// Modeled service ticks of a batch of `batch` queries: draw `draw`
    /// (a batch sequence number — each replica's model seed makes the
    /// streams independent), at virtual tick `tick` (drives the degrade
    /// slope), with `inflation_milli` of additive load/health/scrub
    /// inflation supplied by the caller. Always at least 1 tick.
    pub fn service_ticks(&self, batch: usize, tick: u64, draw: u64, inflation_milli: u64) -> u64 {
        let base = self.base.service_ticks(batch).max(1) as u128;
        let slow = (self.slow_factor_milli as u128)
            .saturating_add(
                (self.degrade_milli_per_kilotick as u128).saturating_mul(tick as u128) / 1000,
            )
            .min(MAX_SLOW_MILLI);
        let jitter = self.jitter_multiplier_milli(draw) as u128;
        let inflate = 1000u128 + inflation_milli.min(MAX_INFLATION_MILLI) as u128;
        let ticks = base * slow / 1000 * jitter / 1000 * inflate / 1000;
        (ticks.min(u64::MAX as u128) as u64).max(1)
    }
}

/// Hedged-request policy of the serving loop.
///
/// When the slowest pending quorum read of a batch is modeled to exceed
/// the `quantile_milli` quantile of the healthiest replica's expected
/// service distribution, the loop issues one duplicate read to the
/// best-ranked replica not already reading the batch. First completion
/// wins and the loser is cancelled; because replica answers depend only
/// on `(query, qid)`, the served payloads are bit-identical either way —
/// hedging is purely a timing overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Per-mille quantile of the healthy service distribution after which
    /// a hedge fires; 50..=999 (e.g. 950 hedges past the p95 tick count).
    pub quantile_milli: u64,
    /// Hedge budget in hedges per 1000 batches; 1..=1000. Bounds the
    /// extra read load so hedges cannot amplify an overload.
    pub budget_milli: u64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy { quantile_milli: 950, budget_milli: 250 }
    }
}

impl HedgePolicy {
    /// Validates the policy knobs.
    ///
    /// # Errors
    ///
    /// [`FerexError::InvalidPolicy`] on a quantile outside 50..=999 or a
    /// budget outside 1..=1000.
    pub fn validate(&self) -> Result<(), FerexError> {
        if !(50..=999).contains(&self.quantile_milli) {
            return Err(FerexError::InvalidPolicy {
                what: "hedge quantile must be between 50 and 999 milli",
            });
        }
        if !(1..=1000).contains(&self.budget_milli) {
            return Err(FerexError::InvalidPolicy {
                what: "hedge budget must be between 1 and 1000 milli",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CostModel {
        CostModel { batch_setup_ticks: 52, per_query_ticks: 10 }
    }

    #[test]
    fn qln_table_is_monotone_and_centered() {
        assert!(QLN_MILLI.windows(2).all(|w| w[0] < w[1]), "table must be strictly increasing");
        // A log-normal's mean sits above its median by e^(sigma^2/2) —
        // about 1032 per-mille at sigma = 0.25.
        let mean: i64 = QLN_MILLI.iter().sum::<i64>() / 16;
        assert!((1020..=1045).contains(&mean), "table mean {mean} drifted off e^(s^2/2)");
        assert_eq!(qln_quantile_milli(500), 1020);
        assert_eq!(qln_quantile_milli(950), 1593);
        assert_eq!(qln_quantile_milli(999), 1593);
        assert_eq!(qln_quantile_milli(50), 628);
    }

    #[test]
    fn exact_model_reproduces_the_base_cost() {
        let m = LatencyModel::exact(base(), 1000, 7);
        for b in [1usize, 8, 16, 64] {
            assert_eq!(m.service_ticks(b, 0, b as u64, 0), base().service_ticks(b));
        }
        let m8 = LatencyModel::exact(base(), 8000, 7);
        assert_eq!(m8.service_ticks(16, 0, 3, 0), base().service_ticks(16) * 8);
    }

    #[test]
    fn jitter_is_seeded_and_spans_the_table() {
        let m = LatencyModel::healthy(base(), 42);
        let draws: Vec<u64> = (0..256).map(|d| m.jitter_multiplier_milli(d)).collect();
        let again: Vec<u64> = (0..256).map(|d| m.jitter_multiplier_milli(d)).collect();
        assert_eq!(draws, again, "same seed, same stream");
        let other = LatencyModel::healthy(base(), 43);
        assert_ne!(draws, (0..256).map(|d| other.jitter_multiplier_milli(d)).collect::<Vec<_>>());
        let lo = draws.iter().min().copied().unwrap_or(0);
        let hi = draws.iter().max().copied().unwrap_or(0);
        assert_eq!((lo, hi), (628, 1593), "256 draws should span the 16-bin table");
    }

    #[test]
    fn degrade_and_inflation_terms_stretch_service() {
        // Jitter off so the slope is exact: +1000 milli per kilotick
        // means the slowdown at tick 4000 is exactly 5x.
        let m = LatencyModel { jitter_milli: 0, ..LatencyModel::degrading(base(), 1000, 5) };
        let fresh = m.service_ticks(16, 0, 0, 0);
        let aged = m.service_ticks(16, 4000, 0, 0);
        assert_eq!(fresh, base().service_ticks(16));
        assert_eq!(aged, fresh * 5);
        let calm = LatencyModel::exact(base(), 1000, 5);
        assert_eq!(calm.service_ticks(16, 0, 0, 1000), base().service_ticks(16) * 2);
        // Inflation is capped: absurd terms cannot run away.
        assert_eq!(
            calm.service_ticks(16, 0, 0, u64::MAX),
            base().service_ticks(16) * 5,
            "inflation cap is +4000 milli"
        );
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        assert!(LatencyModel::healthy(base(), 1).validate().is_ok());
        let sub = LatencyModel { slow_factor_milli: 999, ..LatencyModel::healthy(base(), 1) };
        assert!(sub.validate().is_err());
        let wild = LatencyModel { jitter_milli: 1001, ..LatencyModel::healthy(base(), 1) };
        assert!(wild.validate().is_err());
        let zero = CostModel { batch_setup_ticks: 0, per_query_ticks: 0 };
        assert!(LatencyModel::healthy(zero, 1).validate().is_err());

        assert!(HedgePolicy::default().validate().is_ok());
        assert!(HedgePolicy { quantile_milli: 49, budget_milli: 250 }.validate().is_err());
        assert!(HedgePolicy { quantile_milli: 1000, budget_milli: 250 }.validate().is_err());
        assert!(HedgePolicy { quantile_milli: 950, budget_milli: 0 }.validate().is_err());
        assert!(HedgePolicy { quantile_milli: 950, budget_milli: 1001 }.validate().is_err());
    }
}
