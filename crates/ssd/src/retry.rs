//! Read-retry model (paper Section V-F).
//!
//! Late in an SSD's lifetime the raw bit error rate rises and LDPC decoding
//! of a first, coarse sense may fail; the controller then *re-senses* the
//! page with shifted read voltages, possibly several times, before soft
//! decoding succeeds. Each retry repeats the page's full sensing procedure,
//! so a retry on a conventional MSB page costs another 150 µs while a retry
//! on an IDA-coded page costs only its reduced sensing time — which is why
//! the paper measures a *larger* IDA benefit (42.3 %) in the retry-heavy
//! late lifetime.
//!
//! We model decoding failure per sensing attempt as an independent
//! Bernoulli trial with probability `failure_prob`, capped at
//! `max_retries` extra attempts (after which heroic soft decoding is
//! assumed to succeed), following the failure-probability-vs-extra-sensing
//! framing of LDPC-in-SSD \[38\].

use ida_obs::rng::Rng64;

/// Configuration of the retry model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Probability that any given sensing attempt fails to decode.
    pub failure_prob: f64,
    /// Maximum extra attempts charged to one read.
    pub max_retries: u32,
    /// RNG seed.
    pub seed: u64,
}

ida_snap::snap_struct!(RetryConfig {
    failure_prob,
    max_retries,
    seed,
});

impl RetryConfig {
    /// No retries (early lifetime; the paper's default system). The seed
    /// is irrelevant (the sampler never draws) and left at zero.
    pub fn disabled() -> Self {
        RetryConfig {
            failure_prob: 0.0,
            max_retries: 0,
            seed: 0,
        }
    }

    /// A late-lifetime device where `failure_prob` of sensing attempts
    /// need another attempt. Callers supply the seed — sweeps derive it
    /// from the cell's RNG stream so every cell samples independently.
    ///
    /// # Panics
    ///
    /// Panics if `failure_prob` is not in `[0, 1)`.
    pub fn late_lifetime(failure_prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&failure_prob),
            "failure probability must be in [0, 1), got {failure_prob}"
        );
        RetryConfig {
            failure_prob,
            max_retries: 5,
            seed,
        }
    }
}

/// Stateful sampler of per-read retry counts.
#[derive(Debug, Clone)]
pub struct RetryModel {
    cfg: RetryConfig,
    rng: Rng64,
}

ida_snap::snap_struct!(RetryModel { cfg, rng });

impl RetryModel {
    /// A sampler for `cfg`.
    pub fn new(cfg: RetryConfig) -> Self {
        RetryModel {
            rng: Rng64::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RetryConfig {
        &self.cfg
    }

    /// Whether the sampler has drawn since it was seeded. One that has
    /// not is fully described by its configuration.
    pub fn has_drawn(&self) -> bool {
        self.rng != Rng64::seed_from_u64(self.cfg.seed)
    }

    /// Sample the number of *extra* sensing attempts for one host read.
    pub fn sample_retries(&mut self) -> u32 {
        if self.cfg.failure_prob <= 0.0 {
            return 0;
        }
        let mut retries = 0;
        while retries < self.cfg.max_retries && self.rng.gen_bool(self.cfg.failure_prob) {
            retries += 1;
        }
        retries
    }
}

/// The RBER-driven multi-step read-retry ladder (the aging-aware
/// replacement for the flat [`RetryModel`] draw).
///
/// The first-attempt decode-failure probability of one read is
/// `min(rber × senses × gain, 0.9)` — proportional to the wordline's
/// modeled RBER *and* to how many sensing levels the read must resolve,
/// so IDA-coded wordlines (fewer senses) climb a shallower ladder: the
/// paper's mechanism, now reliability-coupled. Each successive retry
/// shifts the read voltages and halves the failure probability; a read
/// still failing after `depth` extra attempts is declared
/// ECC-uncorrectable and handled by relocation-and-remap upstream.
///
/// Determinism: reads with zero ladder probability consume no RNG draw,
/// so arming the ladder does not perturb unrelated random streams.
#[derive(Debug, Clone)]
pub struct ReadLadder {
    gain: f64,
    depth: u32,
    rng: Rng64,
}

ida_snap::snap_struct!(ReadLadder { gain, depth, rng });

impl ReadLadder {
    /// A ladder with the given RBER→failure-probability `gain` and
    /// maximum extra attempts `depth`, drawing from a private seeded
    /// stream.
    pub fn new(gain: f64, depth: u32, seed: u64) -> Self {
        ReadLadder {
            gain,
            depth,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// Maximum extra attempts before a read is uncorrectable.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Sample one read: returns `(extra_attempts, uncorrectable)`.
    /// `uncorrectable` means the ladder exhausted all `depth` steps
    /// (the charged extras equal `depth`).
    pub fn sample(&mut self, rber: f64, senses: u32) -> (u32, bool) {
        let mut p = (rber * senses as f64 * self.gain).min(0.9);
        if p <= 0.0 || self.depth == 0 {
            return (0, false);
        }
        let mut extra = 0;
        while self.rng.gen_bool(p) {
            extra += 1;
            if extra >= self.depth {
                return (self.depth, true);
            }
            p /= 2.0;
        }
        (extra, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_never_retries() {
        let mut m = RetryModel::new(RetryConfig::disabled());
        assert!((0..1000).all(|_| m.sample_retries() == 0));
    }

    #[test]
    fn retries_are_capped() {
        let mut m = RetryModel::new(RetryConfig {
            failure_prob: 0.99,
            max_retries: 3,
            seed: 1,
        });
        assert!((0..1000).all(|_| m.sample_retries() <= 3));
        assert!((0..1000).any(|_| m.sample_retries() == 3));
    }

    #[test]
    fn mean_retries_tracks_geometric_distribution() {
        let p = 0.5;
        let mut m = RetryModel::new(RetryConfig::late_lifetime(p, 0xEE77));
        let n = 50_000;
        let total: u32 = (0..n).map(|_| m.sample_retries()).sum();
        let mean = total as f64 / n as f64;
        // Geometric mean p/(1-p) = 1.0, slightly reduced by the cap.
        assert!((mean - 0.97).abs() < 0.05, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn certain_failure_rejected() {
        let _ = RetryConfig::late_lifetime(1.0, 0);
    }

    #[test]
    fn ladder_is_inert_at_zero_rber_and_draws_nothing() {
        let mut a = ReadLadder::new(40.0, 5, 7);
        for _ in 0..100 {
            assert_eq!(a.sample(0.0, 4), (0, false));
        }
        // No draws were consumed: the next nonzero sample matches a fresh
        // ladder's first sample exactly.
        let mut b = ReadLadder::new(40.0, 5, 7);
        assert_eq!(a.sample(1e-3, 4), b.sample(1e-3, 4));
    }

    #[test]
    fn ladder_depth_scales_with_senses() {
        // More sensing levels → higher first-attempt failure probability
        // → more mean extras: the IDA mechanism, reliability-coupled.
        let n = 20_000;
        let mean = |senses: u32| {
            let mut l = ReadLadder::new(40.0, 5, 0xA9E);
            (0..n).map(|_| l.sample(2e-3, senses).0 as u64).sum::<u64>() as f64 / n as f64
        };
        let one = mean(1);
        let four = mean(4);
        assert!(
            four > one * 1.5,
            "4-sense reads must retry more: {one} vs {four}"
        );
    }

    #[test]
    fn ladder_exhaustion_is_uncorrectable() {
        // Saturated probability (0.9 per step, halving) still exhausts
        // eventually; uncorrectable iff extras == depth.
        let mut l = ReadLadder::new(1e9, 3, 3);
        let mut saw_uncorrectable = false;
        for _ in 0..5_000 {
            let (extra, unc) = l.sample(1.0, 4);
            assert!(extra <= 3);
            assert_eq!(unc, extra == 3);
            saw_uncorrectable |= unc;
        }
        assert!(saw_uncorrectable);
    }
}
