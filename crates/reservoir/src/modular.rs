//! The modular DFR model (paper Eq. 13).
//!
//! The modular DFR decomposes the nonlinear element of a digital DFR into
//! blocks so that the whole reservoir update becomes
//!
//! ```text
//! x(k)_n = A·f(j(k)_n + x(k−1)_n) + B·x(k)_{n−1}
//! ```
//!
//! with exactly two reservoir parameters `A` (nonlinear-path gain) and `B`
//! (delay-line leak). The node chain is continuous across input steps: the
//! predecessor of the first virtual node of step `k` is the last virtual
//! node of step `k−1` (`x(k)_0 ≡ x(k−1)_{N_x}`), i.e. flattened over
//! `t = (k−1)·N_x + n` the update is the single recurrence
//! `s_t = A·f(j_t + s_{t−N_x}) + B·s_{t−1}` with `s_{t≤0} = 0`.

use crate::mask::Mask;
use crate::nonlinearity::{Linear, Nonlinearity};
use crate::ReservoirError;
use dfr_linalg::{GemmWorkspace, Matrix};

/// States beyond this magnitude are treated as divergence.
///
/// A healthy DFR operates on O(1) states; a linear reservoir with
/// `A + B > 1` grows exponentially and would otherwise produce astronomical
/// yet technically finite values that poison every downstream computation
/// (DPRR features, ridge Gram matrices). Grid search deliberately probes
/// such unstable corners, so detecting them early — and cheaply — matters.
pub const DIVERGENCE_LIMIT: f64 = 1e6;

/// A modular delayed feedback reservoir.
///
/// Generic over the nonlinearity `f`; [`ModularDfr::linear`] builds the
/// paper's evaluation configuration (`f(z) = z`).
///
/// # Example
///
/// ```
/// use dfr_linalg::Matrix;
/// use dfr_reservoir::mask::Mask;
/// use dfr_reservoir::modular::ModularDfr;
///
/// # fn main() -> Result<(), dfr_reservoir::ReservoirError> {
/// let dfr = ModularDfr::linear(Mask::binary(10, 2, 0), 0.05, 0.2)?;
/// let run = dfr.run(&Matrix::filled(20, 2, 0.5))?;
/// assert_eq!(run.states().shape(), (20, 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModularDfr<N: Nonlinearity = Linear> {
    mask: Mask,
    a: f64,
    b: f64,
    nonlinearity: N,
}

impl ModularDfr<Linear> {
    /// Builds a modular DFR with the identity nonlinearity — the paper's
    /// evaluation setting.
    ///
    /// # Errors
    ///
    /// Returns [`ReservoirError::InvalidParameter`] if `a` or `b` is not
    /// finite.
    pub fn linear(mask: Mask, a: f64, b: f64) -> Result<Self, ReservoirError> {
        ModularDfr::new(mask, a, b, Linear)
    }
}

impl<N: Nonlinearity> ModularDfr<N> {
    /// Builds a modular DFR with an explicit nonlinearity.
    ///
    /// # Errors
    ///
    /// Returns [`ReservoirError::InvalidParameter`] if `a` or `b` is not
    /// finite.
    pub fn new(mask: Mask, a: f64, b: f64, nonlinearity: N) -> Result<Self, ReservoirError> {
        if !a.is_finite() {
            return Err(ReservoirError::InvalidParameter {
                name: "A",
                value: a,
            });
        }
        if !b.is_finite() {
            return Err(ReservoirError::InvalidParameter {
                name: "B",
                value: b,
            });
        }
        Ok(ModularDfr {
            mask,
            a,
            b,
            nonlinearity,
        })
    }

    /// The nonlinear-path gain `A`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// The delay-line leak `B`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Sets `A` and `B` (used by gradient descent between epochs).
    ///
    /// # Errors
    ///
    /// Returns [`ReservoirError::InvalidParameter`] for non-finite values.
    pub fn set_params(&mut self, a: f64, b: f64) -> Result<(), ReservoirError> {
        if !a.is_finite() {
            return Err(ReservoirError::InvalidParameter {
                name: "A",
                value: a,
            });
        }
        if !b.is_finite() {
            return Err(ReservoirError::InvalidParameter {
                name: "B",
                value: b,
            });
        }
        self.a = a;
        self.b = b;
        Ok(())
    }

    /// The input mask.
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// Mutable access to the mask (mask-training extension).
    pub fn mask_mut(&mut self) -> &mut Mask {
        &mut self.mask
    }

    /// The nonlinearity `f`.
    pub fn nonlinearity(&self) -> &N {
        &self.nonlinearity
    }

    /// Number of virtual nodes `N_x`.
    pub fn nodes(&self) -> usize {
        self.mask.nodes()
    }

    /// Runs the reservoir over a `T × C` input series.
    ///
    /// Returns the full state history and the masked drive, both `T × N_x`
    /// (needed later by backpropagation).
    ///
    /// # Errors
    ///
    /// * [`ReservoirError::ChannelMismatch`] if `series.cols()` differs from
    ///   the mask's channel count.
    /// * [`ReservoirError::Diverged`] if any state becomes non-finite.
    pub fn run(&self, series: &Matrix) -> Result<ReservoirRun, ReservoirError> {
        let mut run = ReservoirRun::empty();
        self.run_into(series, &mut run)?;
        Ok(run)
    }

    /// [`ModularDfr::run`] writing into a caller-owned [`ReservoirRun`],
    /// reusing its masked-drive and state storage — forward passes recycle
    /// the same buffers across samples and epochs (allocation-free once the
    /// buffers reach the longest series in the workload).
    ///
    /// On error the run's contents are unspecified; reuse it only after a
    /// later `run_into` succeeds.
    ///
    /// # Errors
    ///
    /// Same as [`ModularDfr::run`].
    pub fn run_into(&self, series: &Matrix, run: &mut ReservoirRun) -> Result<(), ReservoirError> {
        if series.cols() != self.mask.channels() {
            return Err(ReservoirError::ChannelMismatch {
                mask_channels: self.mask.channels(),
                input_channels: series.cols(),
            });
        }
        self.mask.apply_into(series, &mut run.masked, &mut run.gemm);
        run.states.resize(run.masked.rows(), self.nodes());
        self.drive(&run.masked, &mut run.states)
    }

    /// Runs the reservoir on an already-masked `T × N_x` drive, writing
    /// into a caller-owned [`ReservoirRun`] (the drive is copied into the
    /// run's reused buffer, since backpropagation reads it later). This is
    /// the trainer's per-sample fast path: the mask is fixed, so the
    /// epoch-invariant masked inputs stay cached and every forward pass
    /// recycles one run.
    ///
    /// # Errors
    ///
    /// * [`ReservoirError::ChannelMismatch`] if `masked.cols() != N_x`.
    /// * [`ReservoirError::Diverged`] if any state becomes non-finite; the
    ///   run's contents are then unspecified.
    pub fn run_masked_into(
        &self,
        masked: &Matrix,
        run: &mut ReservoirRun,
    ) -> Result<(), ReservoirError> {
        let nx = self.nodes();
        if masked.cols() != nx {
            return Err(ReservoirError::ChannelMismatch {
                mask_channels: nx,
                input_channels: masked.cols(),
            });
        }
        run.masked.copy_from(masked);
        run.states.resize(masked.rows(), nx);
        self.drive(&run.masked, &mut run.states)
    }

    /// The flattened recurrence `s_t = A·f(j_t + s_{t-Nx}) + B·s_{t-1}`
    /// over a `T × N_x` masked drive, into a pre-sized `states` (row `k` is
    /// `x(k+1)` in the paper's 1-based notation). Every entry point funnels
    /// through it, so the owning and buffer-reusing forms are bitwise
    /// identical.
    fn drive(&self, masked: &Matrix, states: &mut Matrix) -> Result<(), ReservoirError> {
        let (a, b) = (self.a, self.b);
        let nx = masked.cols();
        let t_len = masked.rows();
        debug_assert_eq!(states.shape(), (t_len, nx));
        let mut prev_chain = 0.0; // s_{t-1}, carried across rows
        for k in 0..t_len {
            let j_row = masked.row(k);
            // Split off row k so the delayed row k−1 stays borrowable.
            let (head, tail) = states.as_mut_slice().split_at_mut(k * nx);
            let row = &mut tail[..nx];
            let delayed = &head[head.len().saturating_sub(nx)..];
            for n in 0..nx {
                // s_{t-Nx} is the same node at the previous input step.
                let d = if k == 0 { 0.0 } else { delayed[n] };
                let z = j_row[n] + d;
                let s = a * self.nonlinearity.eval(z) + b * prev_chain;
                if !s.is_finite() || s.abs() > DIVERGENCE_LIMIT {
                    return Err(ReservoirError::Diverged { step: k });
                }
                row[n] = s;
                prev_chain = s;
            }
        }
        Ok(())
    }
}

/// The result of one reservoir pass: masked drive and state history.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirRun {
    masked: Matrix,
    states: Matrix,
    /// Packing buffers of the mask product in [`ModularDfr::run_into`].
    gemm: GemmWorkspace,
}

impl Default for ReservoirRun {
    fn default() -> Self {
        ReservoirRun::empty()
    }
}

impl ReservoirRun {
    /// An empty run — the seed value for [`ModularDfr::run_into`] /
    /// [`ModularDfr::run_masked_into`] buffer reuse.
    pub fn empty() -> Self {
        ReservoirRun {
            masked: Matrix::zeros(0, 0),
            states: Matrix::zeros(0, 0),
            gemm: GemmWorkspace::new(),
        }
    }

    /// The `T × N_x` state history; row `k` is the reservoir state
    /// `x(k+1)` of paper Eq. 4 (0-based row indexing).
    pub fn states(&self) -> &Matrix {
        &self.states
    }

    /// The `T × N_x` masked drive (`row k` is `j(k+1)`).
    pub fn masked(&self) -> &Matrix {
        &self.masked
    }

    /// Series length `T`.
    pub fn len(&self) -> usize {
        self.states.rows()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.states.rows() == 0
    }

    /// Number of virtual nodes `N_x`.
    pub fn nodes(&self) -> usize {
        self.states.cols()
    }

    /// The pre-activation `z(k)_n = j(k)_n + x(k−1)_n` fed to `f`
    /// (0-based `k`, `n`; the delayed input `x(k−1)_n` is zero before the
    /// first step — the `f`-path feedback of Eq. 13).
    pub fn preactivation(&self, k: usize, n: usize) -> f64 {
        let delayed = if k > 0 { self.states[(k - 1, n)] } else { 0.0 };
        self.masked[(k, n)] + delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonlinearity::Tanh;

    fn constant_series(t: usize, c: usize) -> Matrix {
        Matrix::filled(t, c, 1.0)
    }

    /// The chain predecessor `x(k)_{n−1}` (0-based `k`, `n`), wrapping to
    /// the last node of the previous step for `n = 0` and to zero before
    /// the first step — exactly the `B`-path input of Eq. 13.
    fn chain_predecessor(run: &ReservoirRun, k: usize, n: usize) -> f64 {
        if n > 0 {
            run.states()[(k, n - 1)]
        } else if k > 0 {
            run.states()[(k - 1, run.nodes() - 1)]
        } else {
            0.0
        }
    }

    #[test]
    fn construction_validates_params() {
        let m = Mask::binary(4, 1, 0);
        assert!(ModularDfr::linear(m.clone(), f64::NAN, 0.1).is_err());
        assert!(ModularDfr::linear(m.clone(), 0.1, f64::INFINITY).is_err());
        assert!(ModularDfr::linear(m, 0.1, 0.1).is_ok());
    }

    #[test]
    fn channel_mismatch_is_error() {
        let dfr = ModularDfr::linear(Mask::binary(4, 2, 0), 0.1, 0.1).unwrap();
        let err = dfr.run(&constant_series(5, 3)).unwrap_err();
        assert!(matches!(err, ReservoirError::ChannelMismatch { .. }));
    }

    #[test]
    fn recurrence_matches_hand_computation() {
        // Nx = 2, mask = [[1],[−1]], A = 0.5, B = 0.25, f = identity, u ≡ 1.
        let mask = Mask::from_matrix(Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap());
        let dfr = ModularDfr::linear(mask, 0.5, 0.25).unwrap();
        let run = dfr.run(&constant_series(2, 1)).unwrap();
        // j(0) = [1, −1]; j(1) = [1, −1].
        // s1 = x(0)_0 = 0.5·f(1 + 0) + 0.25·0      = 0.5
        // s2 = x(0)_1 = 0.5·f(−1 + 0) + 0.25·0.5   = −0.375
        // s3 = x(1)_0 = 0.5·f(1 + 0.5) + 0.25·(−0.375) = 0.75 − 0.09375 = 0.65625
        // s4 = x(1)_1 = 0.5·f(−1 − 0.375) + 0.25·0.65625 = −0.6875 + 0.1640625
        let s = run.states();
        assert!((s[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((s[(0, 1)] + 0.375).abs() < 1e-12);
        assert!((s[(1, 0)] - 0.65625).abs() < 1e-12);
        assert!((s[(1, 1)] + 0.5234375).abs() < 1e-12);
    }

    #[test]
    fn chain_is_continuous_across_steps() {
        let dfr = ModularDfr::linear(Mask::binary(3, 1, 1), 0.1, 0.5).unwrap();
        let run = dfr.run(&constant_series(4, 1)).unwrap();
        // The predecessor of node 0 at step k>0 is node Nx−1 at step k−1.
        assert_eq!(chain_predecessor(&run, 2, 0), run.states()[(1, 2)]);
        assert_eq!(chain_predecessor(&run, 0, 0), 0.0);
        assert_eq!(chain_predecessor(&run, 1, 2), run.states()[(1, 1)]);
    }

    #[test]
    fn zero_gains_give_zero_states() {
        let dfr = ModularDfr::linear(Mask::binary(5, 1, 2), 0.0, 0.0).unwrap();
        let run = dfr.run(&constant_series(6, 1)).unwrap();
        assert!(run.states().as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_input_gives_zero_states() {
        let dfr = ModularDfr::linear(Mask::binary(5, 1, 2), 0.3, 0.4).unwrap();
        let run = dfr.run(&Matrix::zeros(6, 1)).unwrap();
        assert!(run.states().as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn contractive_params_stay_bounded() {
        let dfr = ModularDfr::new(Mask::binary(8, 1, 3), 0.4, 0.5, Tanh).unwrap();
        let run = dfr.run(&constant_series(500, 1)).unwrap();
        // Geometric bound: |s| ≤ |A|·max|f| / (1 − |B|) for tanh (|f| ≤ 1).
        let bound = 0.4 / (1.0 - 0.5) + 1e-9;
        assert!(run.states().max_abs() <= bound);
    }

    #[test]
    fn divergence_is_detected() {
        // |A| + |B| >> 1 with identity f and constant drive diverges.
        let dfr = ModularDfr::linear(Mask::binary(4, 1, 0), 10.0, 10.0).unwrap();
        let big = Matrix::filled(400, 1, 1e300);
        let err = dfr.run(&big).unwrap_err();
        assert!(matches!(err, ReservoirError::Diverged { .. }));
    }

    #[test]
    fn run_into_reuses_buffers_bit_identically() {
        let dfr = ModularDfr::linear(Mask::binary(6, 2, 5), 0.2, 0.3).unwrap();
        let mut run = ReservoirRun::empty();
        // Stale contents from a longer earlier series must not leak.
        dfr.run_into(&constant_series(12, 2), &mut run).unwrap();
        for t in [10usize, 3, 12] {
            let series = constant_series(t, 2);
            dfr.run_into(&series, &mut run).unwrap();
            assert_eq!(run, dfr.run(&series).unwrap(), "t={t}");
            let masked = dfr.mask().apply(&series);
            let mut run2 = ReservoirRun::empty();
            dfr.run_masked_into(&masked, &mut run2).unwrap();
            assert_eq!(run2, run, "t={t}");
        }
    }

    #[test]
    fn run_masked_into_validates_and_detects_divergence() {
        let dfr = ModularDfr::linear(Mask::binary(4, 1, 0), 10.0, 10.0).unwrap();
        let mut run = ReservoirRun::empty();
        assert!(matches!(
            dfr.run_masked_into(&Matrix::zeros(5, 3), &mut run),
            Err(ReservoirError::ChannelMismatch { .. })
        ));
        let big = Matrix::filled(400, 4, 1e300);
        assert!(matches!(
            dfr.run_masked_into(&big, &mut run),
            Err(ReservoirError::Diverged { .. })
        ));
    }

    #[test]
    fn preactivation_consistency() {
        let dfr = ModularDfr::linear(Mask::binary(3, 1, 7), 0.3, 0.2).unwrap();
        let run = dfr.run(&constant_series(5, 1)).unwrap();
        // x(k)_n = A·f(z(k)_n) + B·chain_predecessor — reconstruct and compare.
        for k in 0..run.len() {
            for n in 0..run.nodes() {
                let rebuilt = 0.3 * run.preactivation(k, n) + 0.2 * chain_predecessor(&run, k, n);
                assert!((rebuilt - run.states()[(k, n)]).abs() < 1e-12);
            }
        }
    }
}
