//! Degenerate stream families: adversarially structured channels that
//! drive the readout's ridge system toward rank deficiency.
//!
//! Real sensor corpora contain dead channels (a stuck accelerometer axis),
//! duplicated channels (the same electrode wired twice) and channels whose
//! variance collapses to measurement noise. Each of those makes the raw
//! series matrix — and, through the (linear-`f`) reservoir, the readout's
//! Gram — exactly or nearly rank-deficient, which is precisely the regime
//! the solver escalation in `dfr-linalg` (`DESIGN.md` §15) exists for.
//! This module builds those families deterministically on top of any
//! [`DatasetSpec`], so the robustness path is exercised by the same sweep
//! harness as the healthy datasets.

use crate::generator::{generate, GeneratorOptions};
use crate::spec::DatasetSpec;
use crate::{DataError, Dataset, Sample};

/// The channel pathology applied on top of a healthy synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Degeneracy {
    /// Channel 0 of every sample is the constant `1.0`: together with the
    /// readout's intercept column this is an exact linear dependence.
    ConstantChannel,
    /// The last channel of every sample is a bitwise copy of channel 0
    /// (requires at least two channels).
    DuplicatedChannel,
    /// Channel 0 of every sample is compressed around its mean by `1e-9`,
    /// leaving a channel whose variance sits at the edge of `f64`
    /// resolution — numerically indistinguishable from constant.
    NearZeroVariance,
}

/// Compression factor of [`Degeneracy::NearZeroVariance`].
const VARIANCE_SQUEEZE: f64 = 1e-9;

impl Degeneracy {
    /// Every family, in declaration order.
    pub const ALL: [Degeneracy; 3] = [
        Degeneracy::ConstantChannel,
        Degeneracy::DuplicatedChannel,
        Degeneracy::NearZeroVariance,
    ];

    /// Stable lowercase name (CLI flags, result files).
    pub fn name(self) -> &'static str {
        match self {
            Degeneracy::ConstantChannel => "constant",
            Degeneracy::DuplicatedChannel => "duplicated",
            Degeneracy::NearZeroVariance => "nearzero",
        }
    }
}

impl std::fmt::Display for Degeneracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates `spec` with the given seed, then applies `kind` to every
/// sample of both splits. Deterministic in `(spec.name, seed, kind)`.
///
/// # Errors
///
/// * [`DataError::InvalidSpec`] for the base spec's usual validity rules,
///   or if `kind` is [`Degeneracy::DuplicatedChannel`] and the spec has
///   fewer than two channels.
///
/// # Example
///
/// ```
/// use dfr_data::{degenerate_dataset, Degeneracy, DatasetSpec};
///
/// # fn main() -> Result<(), dfr_data::DataError> {
/// let spec = DatasetSpec::new("demo", 2, 32, 3, 8, 8, 0.5);
/// let ds = degenerate_dataset(&spec, Degeneracy::ConstantChannel, 0)?;
/// let s = &ds.train()[0].series;
/// assert!((0..s.rows()).all(|t| s[(t, 0)] == 1.0));
/// # Ok(())
/// # }
/// ```
pub fn degenerate_dataset(
    spec: &DatasetSpec,
    kind: Degeneracy,
    seed: u64,
) -> Result<Dataset, DataError> {
    if kind == Degeneracy::DuplicatedChannel && spec.channels < 2 {
        return Err(DataError::InvalidSpec { field: "channels" });
    }
    let mut ds = generate(spec, &GeneratorOptions { seed })?;
    for sample in ds.train_mut().iter_mut() {
        degrade(sample, kind);
    }
    for sample in ds.test_mut().iter_mut() {
        degrade(sample, kind);
    }
    Ok(ds)
}

fn degrade(sample: &mut Sample, kind: Degeneracy) {
    let (rows, cols) = (sample.series.rows(), sample.series.cols());
    match kind {
        Degeneracy::ConstantChannel => {
            for t in 0..rows {
                sample.series[(t, 0)] = 1.0;
            }
        }
        Degeneracy::DuplicatedChannel => {
            for t in 0..rows {
                sample.series[(t, cols - 1)] = sample.series[(t, 0)];
            }
        }
        Degeneracy::NearZeroVariance => {
            let mean =
                (0..rows).map(|t| sample.series[(t, 0)]).sum::<f64>() / (rows as f64).max(1.0);
            for t in 0..rows {
                let v = sample.series[(t, 0)];
                sample.series[(t, 0)] = mean + VARIANCE_SQUEEZE * (v - mean);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_linalg::cholesky::Cholesky;
    use dfr_linalg::Matrix;

    fn spec() -> DatasetSpec {
        DatasetSpec::new("degen-test", 2, 48, 3, 8, 6, 0.4)
    }

    fn channel(series: &Matrix, c: usize) -> Vec<f64> {
        (0..series.rows()).map(|t| series[(t, c)]).collect()
    }

    fn variance(xs: &[f64]) -> f64 {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn constant_channel_is_constant_in_both_splits() {
        let ds = degenerate_dataset(&spec(), Degeneracy::ConstantChannel, 3).unwrap();
        for s in ds.train().iter().chain(ds.test()) {
            assert!(channel(&s.series, 0).iter().all(|&v| v == 1.0));
            // The other channels keep the healthy signal.
            assert!(variance(&channel(&s.series, 1)) > 1e-3);
        }
    }

    #[test]
    fn duplicated_channel_is_bitwise_copy() {
        let ds = degenerate_dataset(&spec(), Degeneracy::DuplicatedChannel, 3).unwrap();
        for s in ds.train().iter().chain(ds.test()) {
            let a = channel(&s.series, 0);
            let b = channel(&s.series, 2);
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn duplicated_needs_two_channels() {
        let narrow = DatasetSpec::new("degen-narrow", 2, 16, 1, 4, 4, 0.4);
        assert!(matches!(
            degenerate_dataset(&narrow, Degeneracy::DuplicatedChannel, 0),
            Err(DataError::InvalidSpec { field: "channels" })
        ));
        assert!(degenerate_dataset(&narrow, Degeneracy::ConstantChannel, 0).is_ok());
    }

    #[test]
    fn near_zero_variance_collapses_channel_zero_only() {
        let base = spec().build(3);
        let ds = degenerate_dataset(&spec(), Degeneracy::NearZeroVariance, 3).unwrap();
        for (s, b) in ds.train().iter().zip(base.train()) {
            let squeezed = variance(&channel(&s.series, 0));
            let healthy = variance(&channel(&b.series, 0));
            assert!(
                squeezed < 1e-15 * healthy.max(1.0),
                "variance {squeezed} not collapsed (healthy {healthy})"
            );
            assert_eq!(channel(&s.series, 1), channel(&b.series, 1));
        }
    }

    #[test]
    fn deterministic_in_seed_and_kind() {
        for kind in Degeneracy::ALL {
            let a = degenerate_dataset(&spec(), kind, 7).unwrap();
            let b = degenerate_dataset(&spec(), kind, 7).unwrap();
            assert_eq!(a, b);
        }
    }

    /// The reason this module exists: the channel-space Gram `XᵀX` of a
    /// degenerate series is exactly rank-deficient (constant/duplicated
    /// channels are linear dependences). In floating point that shows up
    /// either as a Cholesky rejection (non-positive pivot) or as an rcond
    /// below [`dfr_linalg::solver::RCOND_MIN`] — both are exactly the
    /// triggers of the `Auto` solver escalation.
    #[test]
    fn degenerate_grams_defeat_cholesky() {
        for kind in [Degeneracy::ConstantChannel, Degeneracy::DuplicatedChannel] {
            let ds = degenerate_dataset(&spec(), kind, 1).unwrap();
            let s = &ds.train()[0].series;
            // Augment with an intercept column so the constant channel
            // becomes an exact dependence too.
            let mut aug = Matrix::zeros(s.rows(), s.cols() + 1);
            for t in 0..s.rows() {
                aug[(t, 0)] = 1.0;
                for c in 0..s.cols() {
                    aug[(t, c + 1)] = s[(t, c)];
                }
            }
            let gram = aug.t_matmul(&aug).unwrap();
            match Cholesky::factor(&gram) {
                Err(_) => {} // rejected outright: escalation trigger 1
                Ok(chol) => {
                    // Rounding left a tiny positive pivot; the condition
                    // estimate must still flag it: escalation trigger 2.
                    let rcond = chol.rcond_1_est(gram.norm_1(), &mut Vec::new());
                    assert!(
                        rcond < dfr_linalg::solver::RCOND_MIN,
                        "{kind}: rcond {rcond} should be below the escalation threshold"
                    );
                }
            }
        }
    }
}
