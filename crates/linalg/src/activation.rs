//! Numerically stable softmax, log-sum-exp and cross-entropy.
//!
//! The DFR output layer (paper Eqs. 14–16) computes class probabilities
//! `y = softmax(W_out r + b)` and the cross-entropy loss
//! `L = −Σ_k d_k log y_k`; combined, their gradient with respect to the
//! logits is the famously simple `y − d` (paper Eq. 16). The whole layer
//! is available as one fused epilogue, [`dense_bias_softmax_into`], the
//! forward hot path's tail.

use crate::{LinalgError, Matrix};

/// Log of the sum of exponentials, computed stably by factoring out the max.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
///
/// # Example
///
/// ```
/// let l = dfr_linalg::activation::log_sum_exp(&[1000.0, 1000.0]);
/// assert!((l - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
/// ```
pub fn log_sum_exp(logits: &[f64]) -> f64 {
    let m = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + logits.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

/// Stable softmax of a logit vector.
///
/// The output sums to 1 and every component is in `(0, 1]`.
///
/// # Example
///
/// ```
/// let p = dfr_linalg::activation::softmax(&[0.0, 0.0]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Softmax written into a caller-owned buffer — the allocation-free form
/// the forward hot path uses. Bitwise identical to [`softmax`] (the same
/// exponentials are summed in the same order).
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn softmax_into(logits: &[f64], out: &mut [f64]) {
    assert_eq!(logits.len(), out.len(), "softmax: length mismatch");
    out.copy_from_slice(logits);
    softmax_in_place(out);
}

/// Softmax computed in place, reusing the input buffer.
pub fn softmax_in_place(logits: &mut [f64]) {
    let m = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in logits.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in logits.iter_mut() {
        *x /= sum;
    }
}

/// The fused dense→bias→softmax epilogue: `probs = softmax(w·x + bias)`,
/// with the pre-activations left in `logits` (backpropagation and the
/// logit-space loss both want them). One pass over `w` through the
/// lockstep matvec kernel, bias added in the epilogue, then the stable
/// softmax — bitwise identical to `matvec_into` + a bias loop +
/// [`softmax_in_place`] run separately.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `w.cols() != x.len()` or
/// `bias`/`logits`/`probs` are not all of length `w.rows()`.
pub fn dense_bias_softmax_into(
    w: &Matrix,
    x: &[f64],
    bias: &[f64],
    logits: &mut [f64],
    probs: &mut [f64],
) -> Result<(), LinalgError> {
    if probs.len() != w.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "dense_bias_softmax",
            lhs: w.shape(),
            rhs: (probs.len(), 1),
        });
    }
    w.matvec_bias_into(x, bias, logits)?;
    softmax_into(logits, probs);
    Ok(())
}

/// The batched readout epilogue: `probs.row(i) = softmax(w·x.row(i) + bias)`
/// for a whole `n × k` batch of feature rows, with the pre-activations left
/// in `logits` (both resized to `n × w.rows()`, allocations reused).
///
/// The dense half runs as **one** `x · wᵀ` product through the register-
/// tiled GEMM microkernel ([`crate::Matrix::matmul_t_into`]) instead of
/// `n` separate matvecs — the batch amortises the packing of `w` across
/// every row, and the product dispatches to whichever SIMD microkernel
/// [`crate::kernels::active`] selects (scalar or AVX2; both produce the
/// same bits). Per output element the accumulation is
/// still a `k`-ascending dot followed by one bias add and the same stable
/// softmax, so every row is **bitwise identical** to a per-sample
/// [`dense_bias_softmax_into`] call on that row — under every kernel.
/// This is the serving layer's batch hot path.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `x.cols() != w.cols()` or
/// `bias.len() != w.rows()`.
pub fn dense_bias_softmax_rows_into(
    w: &Matrix,
    x: &Matrix,
    bias: &[f64],
    logits: &mut Matrix,
    probs: &mut Matrix,
    ws: &mut crate::GemmWorkspace,
) -> Result<(), LinalgError> {
    if bias.len() != w.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "dense_bias_softmax_rows",
            lhs: w.shape(),
            rhs: (bias.len(), 1),
        });
    }
    x.matmul_t_into(w, logits, ws)?;
    probs.resize(x.rows(), w.rows());
    for i in 0..logits.rows() {
        let row = logits.row_mut(i);
        for (l, &b) in row.iter_mut().zip(bias) {
            *l += b;
        }
    }
    for i in 0..logits.rows() {
        softmax_into(logits.row(i), probs.row_mut(i));
    }
    Ok(())
}

/// Cross-entropy loss `−Σ_k d_k log y_k` between a probability vector `y`
/// and a target distribution `d` (usually one-hot), paper Eq. 15.
///
/// Probabilities are clamped to `1e-300` before the log so an exactly-zero
/// probability yields a large finite loss instead of `inf`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cross_entropy(y: &[f64], d: &[f64]) -> f64 {
    assert_eq!(y.len(), d.len(), "cross_entropy: length mismatch");
    -y.iter()
        .zip(d)
        .map(|(&p, &t)| {
            if t == 0.0 {
                0.0
            } else {
                t * p.max(1e-300).ln()
            }
        })
        .sum::<f64>()
}

/// Cross-entropy computed directly from logits via log-sum-exp — more
/// accurate than `cross_entropy(softmax(logits), d)` for extreme logits.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cross_entropy_from_logits(logits: &[f64], d: &[f64]) -> f64 {
    assert_eq!(logits.len(), d.len(), "cross_entropy: length mismatch");
    let lse = log_sum_exp(logits);
    -logits
        .iter()
        .zip(d)
        .map(|(&z, &t)| t * (z - lse))
        .sum::<f64>()
}

/// Gradient of softmax-cross-entropy with respect to the logits, `y − d`
/// (paper Eq. 16), written into a caller-owned buffer.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn softmax_cross_entropy_grad_into(y: &[f64], d: &[f64], out: &mut [f64]) {
    assert_eq!(y.len(), d.len(), "grad: length mismatch");
    assert_eq!(y.len(), out.len(), "grad: length mismatch");
    for (o, (&p, &t)) in out.iter_mut().zip(y.iter().zip(d)) {
        *o = p - t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0, -4.0]);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[-1e308, 0.0, 1e3]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_in_place_matches() {
        let logits = [0.3, -1.2, 2.5];
        let expected = softmax(&logits);
        let mut buf = logits;
        softmax_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn into_forms_match() {
        let logits = [0.3, -1.2, 2.5, 0.0];
        let mut p = [0.0; 4];
        softmax_into(&logits, &mut p);
        for (a, b) in p.iter().zip(&softmax(&logits)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    fn grad(y: &[f64], d: &[f64]) -> Vec<f64> {
        let mut g = vec![9.0; y.len()];
        softmax_cross_entropy_grad_into(y, d, &mut g);
        g
    }

    #[test]
    fn batched_epilogue_matches_per_sample_bitwise() {
        let w =
            Matrix::from_vec(3, 7, (0..21).map(|i| ((i as f64) * 0.31).sin()).collect()).unwrap();
        let bias = [0.2, -0.4, 0.05];
        // Ragged-ish batch: n not a multiple of any tile size.
        let x =
            Matrix::from_vec(5, 7, (0..35).map(|i| ((i as f64) * 0.17).cos()).collect()).unwrap();
        let mut logits = Matrix::zeros(0, 0);
        let mut probs = Matrix::filled(9, 9, 3.0); // stale buffer reuse
        let mut ws = crate::GemmWorkspace::new();
        dense_bias_softmax_rows_into(&w, &x, &bias, &mut logits, &mut probs, &mut ws).unwrap();
        assert_eq!(logits.shape(), (5, 3));
        assert_eq!(probs.shape(), (5, 3));
        let mut l = [0.0; 3];
        let mut p = [0.0; 3];
        for i in 0..5 {
            dense_bias_softmax_into(&w, x.row(i), &bias, &mut l, &mut p).unwrap();
            for j in 0..3 {
                assert_eq!(logits[(i, j)].to_bits(), l[j].to_bits(), "logit ({i},{j})");
                assert_eq!(probs[(i, j)].to_bits(), p[j].to_bits(), "prob ({i},{j})");
            }
        }
        // Shape errors are reported, not panicked.
        assert!(dense_bias_softmax_rows_into(
            &w,
            &Matrix::zeros(2, 6),
            &bias,
            &mut logits,
            &mut probs,
            &mut ws
        )
        .is_err());
        assert!(
            dense_bias_softmax_rows_into(&w, &x, &[0.0; 2], &mut logits, &mut probs, &mut ws)
                .is_err()
        );
    }

    #[test]
    fn log_sum_exp_known() {
        let l = log_sum_exp(&[0.0, 0.0, 0.0]);
        assert!((l - 3.0_f64.ln()).abs() < 1e-12);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        let y = [0.0_f64, 1.0, 0.0];
        let d = [0.0, 1.0, 0.0];
        // log(1) = 0 — but y has exact zeros elsewhere that must be skipped.
        assert_eq!(cross_entropy(&y, &d), 0.0);
    }

    #[test]
    fn cross_entropy_uniform() {
        let y = [0.25; 4];
        let d = [0.0, 1.0, 0.0, 0.0];
        assert!((cross_entropy(&y, &d) - 4.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn logit_form_matches_probability_form() {
        let logits = [0.5, -1.0, 2.0];
        let d = [0.0, 0.0, 1.0];
        let a = cross_entropy(&softmax(&logits), &d);
        let b = cross_entropy_from_logits(&logits, &d);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn grad_is_y_minus_d() {
        let y = [0.2, 0.3, 0.5];
        let d = [0.0, 1.0, 0.0];
        assert_eq!(grad(&y, &d), vec![0.2, -0.7, 0.5]);
    }

    #[test]
    fn grad_matches_finite_difference() {
        // d/dz_i of CE(softmax(z), d) should equal softmax(z) - d.
        let z = [0.1, -0.4, 0.7];
        let d = [1.0, 0.0, 0.0];
        let y = softmax(&z);
        let analytic = grad(&y, &d);
        let h = 1e-6;
        for i in 0..3 {
            let mut zp = z;
            zp[i] += h;
            let mut zm = z;
            zm[i] -= h;
            let num = (cross_entropy_from_logits(&zp, &d) - cross_entropy_from_logits(&zm, &d))
                / (2.0 * h);
            assert!(
                (num - analytic[i]).abs() < 1e-6,
                "component {i}: fd {num} vs analytic {}",
                analytic[i]
            );
        }
    }
}
