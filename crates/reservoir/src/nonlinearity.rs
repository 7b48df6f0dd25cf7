//! Pluggable nonlinear functions `f` with analytic derivatives.
//!
//! The modular DFR (paper §2.3) reduces the nonlinear element to a one-input
//! one-output function `f`, chosen so that "derivatives can be efficiently
//! obtained" (paper contribution 1). The paper's evaluation uses the
//! identity `f(z) = z` (with the gain `A` applied outside, Eq. 13); the
//! Mackey–Glass fraction and `tanh` are provided for the NL-design space
//! the modular-DFR paper explores.

use std::fmt::Debug;

/// A one-input one-output nonlinearity with an analytic derivative.
///
/// Implementors must be cheap to evaluate and differentiable everywhere the
/// reservoir visits; backpropagation (paper Eqs. 27–29) calls
/// [`Nonlinearity::derivative`] once per virtual-node update.
pub trait Nonlinearity: Debug + Send + Sync {
    /// Evaluates `f(z)`.
    fn eval(&self, z: f64) -> f64;

    /// Evaluates `f′(z)`.
    fn derivative(&self, z: f64) -> f64;

    /// Short display name for reports.
    fn name(&self) -> &'static str;
}

/// The identity `f(z) = z` — the paper's evaluation setting
/// ("`f(x) = Ax` was used consistently", §4, with `A` living in Eq. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Linear;

impl Nonlinearity for Linear {
    fn eval(&self, z: f64) -> f64 {
        z
    }

    fn derivative(&self, _z: f64) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// The Mackey–Glass fraction `f(z) = z / (1 + zᵖ)` with integer exponent
/// `p` (paper Eq. 3, gain `η` handled by the surrounding model).
///
/// # Example
///
/// ```
/// use dfr_reservoir::nonlinearity::{MackeyGlass, Nonlinearity};
/// let mg = MackeyGlass::new(2);
/// assert!((mg.eval(1.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MackeyGlass {
    p: u32,
}

impl MackeyGlass {
    /// Creates the fraction with exponent `p` (commonly 1–10).
    pub fn new(p: u32) -> Self {
        MackeyGlass { p }
    }
}

impl Default for MackeyGlass {
    /// `p = 1`, the mildest saturation.
    fn default() -> Self {
        MackeyGlass::new(1)
    }
}

impl Nonlinearity for MackeyGlass {
    fn eval(&self, z: f64) -> f64 {
        let zp = z.powi(self.p as i32);
        let den = 1.0 + zp;
        // Near the pole (z^p → −1) clamp rather than blow up; physical DFRs
        // operate on the stable branch and never reach it.
        if den.abs() < 1e-9 {
            z / 1e-9_f64.copysign(den)
        } else {
            z / den
        }
    }

    fn derivative(&self, z: f64) -> f64 {
        let p = self.p as i32;
        let zp = z.powi(p);
        let den = 1.0 + zp;
        if den.abs() < 1e-9 {
            return 0.0; // pole region: freeze the gradient rather than emit ±inf
        }
        // d/dz [z/(1+z^p)] = (1 + (1−p)·z^p) / (1+z^p)²
        (1.0 + (1.0 - p as f64) * zp) / (den * den)
    }

    fn name(&self) -> &'static str {
        "mackey-glass"
    }
}

/// Hyperbolic tangent `f(z) = tanh(z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tanh;

impl Nonlinearity for Tanh {
    fn eval(&self, z: f64) -> f64 {
        z.tanh()
    }

    fn derivative(&self, z: f64) -> f64 {
        let t = z.tanh();
        1.0 - t * t
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference of `f` at `z`.
    fn fd<N: Nonlinearity>(nl: &N, z: f64) -> f64 {
        let h = 1e-6;
        (nl.eval(z + h) - nl.eval(z - h)) / (2.0 * h)
    }

    fn check_derivative<N: Nonlinearity>(nl: &N, points: &[f64]) {
        for &z in points {
            let analytic = nl.derivative(z);
            let numeric = fd(nl, z);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + analytic.abs()),
                "{} at z={z}: analytic {analytic} vs numeric {numeric}",
                nl.name()
            );
        }
    }

    #[test]
    fn linear_derivative() {
        check_derivative(&Linear, &[-2.0, -0.5, 0.0, 0.3, 5.0]);
        assert_eq!(Linear.eval(3.5), 3.5);
    }

    #[test]
    fn tanh_derivative() {
        check_derivative(&Tanh, &[-3.0, -1.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn mackey_glass_derivative_various_p() {
        for p in [1, 2, 3, 7] {
            let mg = MackeyGlass::new(p);
            // Positive branch (the physically operated one) plus mild negatives
            // away from the pole.
            check_derivative(&mg, &[0.0, 0.1, 0.5, 1.0, 2.0, 5.0, -0.3]);
        }
    }

    #[test]
    fn mackey_glass_known_values() {
        let mg = MackeyGlass::new(1);
        assert!((mg.eval(1.0) - 0.5).abs() < 1e-12);
        assert!((mg.eval(0.0) - 0.0).abs() < 1e-12);
        // Saturation: f → 1/z^{p-1}·…, for p=1 f → 1 as z → ∞.
        assert!(mg.eval(1e9) < 1.0 + 1e-6);
    }

    #[test]
    fn mackey_glass_pole_is_clamped() {
        let mg = MackeyGlass::new(1);
        // z = -1 is the pole for p = 1.
        assert!(mg.eval(-1.0 + 1e-12).is_finite());
        assert!(mg.derivative(-1.0 + 1e-12).is_finite());
    }

    #[test]
    fn names() {
        assert_eq!(Linear.name(), "linear");
        assert_eq!(MackeyGlass::default().name(), "mackey-glass");
        assert_eq!(Tanh.name(), "tanh");
    }

    #[test]
    fn trait_object_usable() {
        let nls: Vec<Box<dyn Nonlinearity>> = vec![
            Box::new(Linear),
            Box::new(MackeyGlass::new(2)),
            Box::new(Tanh),
        ];
        for nl in &nls {
            assert!(nl.eval(0.5).is_finite());
        }
    }
}
