//! Deterministic seed derivation.
//!
//! Every random quantity in the reproduction (dataset prototypes, sample
//! jitter, reservoir masks) is derived from string/context seeds via FNV-1a
//! so that runs are bit-reproducible across machines and independent of
//! iteration order.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64-bit hash of a byte string.
///
/// # Example
///
/// ```
/// let h = dfr_data::rng::fnv1a("ARAB");
/// assert_eq!(h, dfr_data::rng::fnv1a("ARAB"));
/// assert_ne!(h, dfr_data::rng::fnv1a("AUS"));
/// ```
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Combines a base seed with a sequence of context values into a new seed.
///
/// Uses the splitmix64 finalizer so nearby inputs give unrelated outputs.
fn derive_seed(base: u64, context: &[u64]) -> u64 {
    let mut z = base;
    for &c in context {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(c);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// A [`StdRng`] seeded from a string and a context tuple.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = dfr_data::rng::seeded_rng("CHAR", &[0, 7]);
/// let mut b = dfr_data::rng::seeded_rng("CHAR", &[0, 7]);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(name: &str, context: &[u64]) -> StdRng {
    StdRng::seed_from_u64(derive_seed(fnv1a(name), context))
}

/// Draws a standard-normal sample via the Box–Muller transform.
///
/// `rand` 0.8 without `rand_distr` has no normal distribution; this is the
/// classic two-uniform construction (one of the pair is discarded for
/// simplicity — generation speed is irrelevant here).
pub fn randn<R: rand::Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval.
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn fnv_differs_for_different_strings() {
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_ne!(fnv1a(""), fnv1a("a"));
    }

    #[test]
    fn derive_seed_depends_on_every_context_element() {
        let base = fnv1a("x");
        assert_ne!(derive_seed(base, &[1, 2]), derive_seed(base, &[1, 3]));
        assert_ne!(derive_seed(base, &[1, 2]), derive_seed(base, &[2, 1]));
        assert_ne!(derive_seed(base, &[1]), derive_seed(base, &[1, 0]));
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng("ds", &[3]);
        let mut b = seeded_rng("ds", &[3]);
        for _ in 0..10 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn different_context_different_stream() {
        let mut a = seeded_rng("ds", &[0]);
        let mut b = seeded_rng("ds", &[1]);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn randn_moments() {
        let mut rng = seeded_rng("randn", &[]);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
