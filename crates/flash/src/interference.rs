//! Program-interference error model.
//!
//! Applying IDA coding re-programs wordlines in place (voltage adjustment),
//! and the repeated high-voltage pulses can disturb cells in the same and
//! neighboring wordlines. The paper does not characterize a specific device;
//! instead its evaluation parameterizes the effect as the probability that a
//! reprogrammed page ends up corrupted beyond light ECC repair and must be
//! written back to a new block (systems IDA-Coding-E0 … E80, Section V-B).
//!
//! This module provides that Bernoulli model plus a raw-bit-error-rate
//! helper used by the read-retry experiments (Section V-F).

use ida_obs::rng::Rng64;

/// Bernoulli page-corruption model for voltage adjustment.
///
/// `IDA-Coding-E20` in the paper corresponds to
/// `InterferenceModel::new(0.20)`.
#[derive(Debug, Clone)]
pub struct InterferenceModel {
    corrupt_prob: f64,
    rng_seed: u64,
    rng: Rng64,
}

impl InterferenceModel {
    /// A model in which each page reprogrammed by IDA coding is corrupted
    /// with probability `corrupt_prob`, seeded at zero. Anything that
    /// needs stream independence (sweep cells in particular) must use
    /// [`InterferenceModel::with_seed`] with a derived per-cell seed.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_prob` is not within `0.0..=1.0`.
    pub fn new(corrupt_prob: f64) -> Self {
        Self::with_seed(corrupt_prob, 0)
    }

    /// Like [`InterferenceModel::new`] with an explicit RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_prob` is not within `0.0..=1.0`.
    pub fn with_seed(corrupt_prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt_prob),
            "corruption probability must be in [0, 1], got {corrupt_prob}"
        );
        InterferenceModel {
            corrupt_prob,
            rng_seed: seed,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// The paper's headline configuration (20 % of reprogrammed pages
    /// corrupted).
    pub fn paper_e20() -> Self {
        Self::new(0.20)
    }

    /// The configured corruption probability.
    pub fn corrupt_prob(&self) -> f64 {
        self.corrupt_prob
    }

    /// Sample whether one reprogrammed page is corrupted by the adjustment.
    pub fn page_corrupted(&mut self) -> bool {
        self.rng.gen_bool(self.corrupt_prob)
    }

    /// Whether the model has sampled since it was seeded (or last
    /// [`reset`](Self::reset)). A model that has not drawn is fully
    /// described by its probability and seed, so it can be replaced by
    /// a fresh one without changing any later draw.
    pub fn has_drawn(&self) -> bool {
        self.rng != Rng64::seed_from_u64(self.rng_seed)
    }

    /// Reset the model's RNG to its seed so a run can be replayed.
    pub fn reset(&mut self) {
        self.rng = Rng64::seed_from_u64(self.rng_seed);
    }
}

// The live RNG is serialized (not just the seed) so a restored model
// continues the exact draw sequence of the captured one.
ida_snap::snap_struct!(InterferenceModel {
    corrupt_prob,
    rng_seed,
    rng,
});

impl PartialEq for InterferenceModel {
    fn eq(&self, other: &Self) -> bool {
        self.corrupt_prob == other.corrupt_prob && self.rng_seed == other.rng_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_corrupts() {
        let mut m = InterferenceModel::new(0.0);
        assert!((0..1000).all(|_| !m.page_corrupted()));
    }

    #[test]
    fn one_rate_always_corrupts() {
        let mut m = InterferenceModel::new(1.0);
        assert!((0..1000).all(|_| m.page_corrupted()));
    }

    #[test]
    fn rate_is_respected_statistically() {
        let mut m = InterferenceModel::new(0.2);
        let hits = (0..20_000).filter(|_| m.page_corrupted()).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn reset_replays_the_same_sequence() {
        let mut m = InterferenceModel::new(0.5);
        let first: Vec<bool> = (0..64).map(|_| m.page_corrupted()).collect();
        m.reset();
        let second: Vec<bool> = (0..64).map(|_| m.page_corrupted()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn has_drawn_tracks_sampling() {
        let mut m = InterferenceModel::with_seed(0.3, 11);
        assert!(!m.has_drawn());
        m.page_corrupted();
        assert!(m.has_drawn());
        m.reset();
        assert!(!m.has_drawn());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_rejected() {
        let _ = InterferenceModel::new(1.5);
    }
}
