//! Gradient-descent optimizers and the paper's learning-rate schedule.
//!
//! The paper (§4) trains with plain per-sample SGD: the learning rate starts
//! at 1 and is multiplied by 0.1 for the reservoir parameters at epochs 5,
//! 10, 15 and 20, and for the output parameters at epochs 10, 15 and 20.

use crate::backprop::Gradients;
use crate::model::DfrClassifier;
use crate::CoreError;
use dfr_reservoir::nonlinearity::Nonlinearity;

/// A step-decay learning-rate schedule: `initial · factor^(#decays ≤ epoch)`.
///
/// # Example
///
/// ```
/// use dfr_core::optimizer::Schedule;
///
/// let s = Schedule::step_decay(1.0, &[5, 10, 15, 20], 0.1);
/// assert_eq!(s.lr(0), 1.0);
/// assert_eq!(s.lr(5), 0.1);
/// assert!((s.lr(24) - 1e-4).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    initial: f64,
    decay_epochs: Vec<usize>,
    factor: f64,
}

impl Schedule {
    /// Creates a step-decay schedule. `decay_epochs` are the (0-based)
    /// epochs at whose *start* the rate is multiplied by `factor`.
    pub fn step_decay(initial: f64, decay_epochs: &[usize], factor: f64) -> Self {
        let mut decay_epochs = decay_epochs.to_vec();
        decay_epochs.sort_unstable();
        Schedule {
            initial,
            decay_epochs,
            factor,
        }
    }

    /// The paper's reservoir-parameter schedule: 1.0, ×0.1 at 5/10/15/20.
    pub fn paper_reservoir() -> Self {
        Schedule::step_decay(1.0, &[5, 10, 15, 20], 0.1)
    }

    /// The paper's output-parameter schedule: 1.0, ×0.1 at 10/15/20.
    pub fn paper_output() -> Self {
        Schedule::step_decay(1.0, &[10, 15, 20], 0.1)
    }

    /// Learning rate for a (0-based) epoch.
    pub fn lr(&self, epoch: usize) -> f64 {
        let decays = self.decay_epochs.iter().filter(|&&e| e <= epoch).count();
        self.initial * self.factor.powi(decays as i32)
    }
}

/// Box constraints keeping the reservoir parameters in a numerically safe
/// region during optimization.
///
/// The defaults are the paper's grid-search ranges
/// (`A ∈ [10^−3.75, 10^−0.25]`, `B ∈ [10^−2.75, 10^−0.25]`), which the
/// authors chose "to be able to find the optimal parameters for all the
/// datasets"; projecting SGD iterates into the same box keeps the
/// comparison fair and prevents reservoir divergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamBounds {
    /// Inclusive range for `A`.
    pub a: (f64, f64),
    /// Inclusive range for `B`.
    pub b: (f64, f64),
}

impl Default for ParamBounds {
    fn default() -> Self {
        ParamBounds {
            a: (10f64.powf(-3.75), 10f64.powf(-0.25)),
            b: (10f64.powf(-2.75), 10f64.powf(-0.25)),
        }
    }
}

impl ParamBounds {
    /// Clamps `(a, b)` into the box.
    pub fn clamp(&self, a: f64, b: f64) -> (f64, f64) {
        (a.clamp(self.a.0, self.a.1), b.clamp(self.b.0, self.b.1))
    }
}

/// Plain stochastic gradient descent with separate reservoir/readout rates
/// — the paper's optimizer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sgd;

impl Sgd {
    /// Plain SGD (no momentum), as in the paper.
    pub fn new() -> Self {
        Sgd
    }

    /// Applies one update:
    /// reservoir parameters with `lr_reservoir`, readout with `lr_output`,
    /// then projects `(A, B)` into `bounds`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NumericalFailure`] if the update would make any
    /// parameter non-finite.
    pub fn step<N: Nonlinearity + Clone>(
        &mut self,
        model: &mut DfrClassifier<N>,
        grads: &Gradients,
        lr_reservoir: f64,
        lr_output: f64,
        bounds: &ParamBounds,
    ) -> Result<(), CoreError> {
        if !grads.is_finite() {
            return Err(CoreError::NumericalFailure {
                context: "sgd gradients",
            });
        }
        let (a0, b0) = (model.reservoir().a(), model.reservoir().b());
        let (a1, b1) = bounds.clamp(a0 - lr_reservoir * grads.a, b0 - lr_reservoir * grads.b);
        model.reservoir_mut().set_params(a1, b1)?;
        model.w_out_mut().axpy(-lr_output, &grads.w_out)?;
        for (bv, g) in model.bias_mut().iter_mut().zip(&grads.bias) {
            *bv -= lr_output * g;
        }
        if model.w_out().as_slice().iter().any(|w| !w.is_finite()) {
            return Err(CoreError::NumericalFailure {
                context: "sgd readout update",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backprop::{backprop, BackpropOptions};
    use dfr_linalg::Matrix;

    #[test]
    fn paper_schedules_match_section4() {
        let r = Schedule::paper_reservoir();
        // Epochs 0–4: 1; 5–9: 0.1; 10–14: 0.01; 15–19: 1e-3; 20–24: 1e-4.
        assert_eq!(r.lr(0), 1.0);
        assert_eq!(r.lr(4), 1.0);
        assert!((r.lr(5) - 0.1).abs() < 1e-15);
        assert!((r.lr(12) - 0.01).abs() < 1e-16);
        assert!((r.lr(19) - 1e-3).abs() < 1e-17);
        assert!((r.lr(24) - 1e-4).abs() < 1e-18);

        let o = Schedule::paper_output();
        assert_eq!(o.lr(9), 1.0);
        assert!((o.lr(10) - 0.1).abs() < 1e-15);
        assert!((o.lr(24) - 1e-3).abs() < 1e-17);
    }

    #[test]
    fn constant_schedule() {
        let s = Schedule::step_decay(0.3, &[], 1.0);
        assert_eq!(s.lr(0), 0.3);
        assert_eq!(s.lr(100), 0.3);
    }

    #[test]
    fn bounds_default_is_paper_grid_range() {
        let b = ParamBounds::default();
        assert!((b.a.0 - 10f64.powf(-3.75)).abs() < 1e-18);
        assert!((b.a.1 - 10f64.powf(-0.25)).abs() < 1e-15);
        let (a, bb) = b.clamp(5.0, -1.0);
        assert_eq!(a, b.a.1);
        assert_eq!(bb, b.b.0);
    }

    fn toy_setup() -> (DfrClassifier, Matrix, [f64; 2]) {
        let mut m = DfrClassifier::paper_default(3, 1, 2, 0).unwrap();
        m.reservoir_mut().set_params(0.2, 0.2).unwrap();
        for j in 0..m.feature_dim() {
            m.w_out_mut()[(0, j)] = 0.02 * (j as f64 - 5.0);
        }
        let u = Matrix::from_vec(5, 1, vec![0.5, -0.3, 0.8, 0.1, -0.6]).unwrap();
        (m, u, [1.0, 0.0])
    }

    #[test]
    fn sgd_step_decreases_loss() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (loss0, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        let mut sgd = Sgd::new();
        sgd.step(&mut m, &g, 0.01, 0.01, &ParamBounds::default())
            .unwrap();
        let loss1 = m.forward(&u).unwrap().loss(&d);
        assert!(loss1 < loss0, "loss {loss1} should drop below {loss0}");
    }

    #[test]
    fn sgd_rejects_nonfinite_gradients() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        g.a = f64::NAN;
        let mut sgd = Sgd::new();
        assert!(matches!(
            sgd.step(&mut m, &g, 0.1, 0.1, &ParamBounds::default()),
            Err(CoreError::NumericalFailure { .. })
        ));
    }

    #[test]
    fn sgd_clamps_into_bounds() {
        let (mut m, u, d) = toy_setup();
        let cache = m.forward(&u).unwrap();
        let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        g.a = 1e9; // enormous gradient
        let bounds = ParamBounds::default();
        let mut sgd = Sgd::new();
        sgd.step(&mut m, &g, 1.0, 0.0, &bounds).unwrap();
        assert_eq!(m.reservoir().a(), bounds.a.0);
    }
}
