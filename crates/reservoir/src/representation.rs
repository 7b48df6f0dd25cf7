//! Reservoir representations: fixed-length features from a state history.
//!
//! Classification needs one feature vector per (variable-length) series, so
//! the `T × N_x` state history is reduced to a fixed-size *reservoir
//! representation* (paper §2.2). [`Dprr`] is the paper's choice — the
//! dot-product reservoir representation, the best known trade-off of
//! accuracy and circuit size. [`LastState`] and [`MeanState`] are simpler
//! baselines used for ablations.

use dfr_linalg::Matrix;

/// Maps a `T × N_x` state history to a fixed-length feature vector.
pub trait Representation: std::fmt::Debug + Send + Sync {
    /// Feature dimension for a reservoir of `nx` virtual nodes.
    fn dim(&self, nx: usize) -> usize;

    /// Writes the features of `states` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim(states.cols())`.
    fn features_into(&self, states: &Matrix, out: &mut [f64]);

    /// Convenience wrapper allocating the output vector.
    fn features(&self, states: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; self.dim(states.cols())];
        self.features_into(states, &mut out);
        out
    }

    /// Short display name for reports.
    fn name(&self) -> &'static str;
}

/// The dot-product reservoir representation (paper Eqs. 10–11, 18–19).
///
/// With 0-based indices the `N_x(N_x+1)` features are
///
/// ```text
/// r[i·N_x + j] = Σ_{k=0}^{T−1} x(k)_i · x(k−1)_j     (x(−1) ≡ 0)
/// r[N_x² + i]  = Σ_{k=0}^{T−1} x(k)_i
/// ```
///
/// i.e. `r = vec(Σ_k x(k)·[x(k−1), 1]ᵀ)`.
///
/// # Example
///
/// ```
/// use dfr_linalg::Matrix;
/// use dfr_reservoir::representation::{Dprr, Representation};
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// let states = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let r = Dprr.features(&states);
/// // r[0] = x(0)_0·0 + x(1)_0·x(0)_0 = 3
/// assert_eq!(r[0], 3.0);
/// // bias block: column sums
/// assert_eq!(r[4], 4.0);
/// assert_eq!(r[5], 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dprr;

impl Representation for Dprr {
    fn dim(&self, nx: usize) -> usize {
        nx * (nx + 1)
    }

    fn features_into(&self, states: &Matrix, out: &mut [f64]) {
        let nx = states.cols();
        let t_len = states.rows();
        assert_eq!(out.len(), self.dim(nx), "output buffer has wrong length");
        out.fill(0.0);
        let (products, sums) = out.split_at_mut(nx * nx);
        let flat = states.as_slice();

        // The product block (Eq. 10 / 18) is the rank-1 accumulation
        // `products += x(k) ⊗ x(k−1)` over all steps (`x(−1) ≡ 0`), and its
        // cost is dominated by re-reading and re-writing the `N_x²`
        // accumulator once per step. Processing FOUR steps per sweep keeps
        // the accumulator element in a register across the four
        // contributions — ~4× less accumulator traffic — while each element
        // still receives its contributions one `+=` at a time in strictly
        // ascending `k`, so the result is bitwise identical to the
        // one-step-at-a-time loop. The bias block (Eq. 11 / 19) is fused
        // the same way. Rows with `x(k)_i = 0` are not skipped: their terms
        // are `±0.0`, and an accumulator that starts at `+0.0` can never
        // become `−0.0`, so adding them changes no bit (states are finite).
        let mut k = 0;
        if t_len > 0 {
            // Step 0 contributes only to the bias block.
            for (s, &xi) in sums.iter_mut().zip(&flat[..nx]) {
                *s += xi;
            }
            k = 1;
        }
        while k + 4 <= t_len {
            let window = &flat[(k - 1) * nx..(k + 4) * nx];
            let (x0, c_rows) = window.split_at(nx); // x(k−1), then x(k)..x(k+3)
            for (i, row) in products.chunks_exact_mut(nx).enumerate() {
                rank4(
                    row,
                    x0,
                    c_rows[i],
                    &c_rows[..nx],
                    c_rows[nx + i],
                    &c_rows[nx..2 * nx],
                    c_rows[2 * nx + i],
                    &c_rows[2 * nx..3 * nx],
                    c_rows[3 * nx + i],
                );
            }
            for (i, s) in sums.iter_mut().enumerate() {
                let mut v = *s;
                v += c_rows[i];
                v += c_rows[nx + i];
                v += c_rows[2 * nx + i];
                v += c_rows[3 * nx + i];
                *s = v;
            }
            k += 4;
        }
        while k < t_len {
            let x_k = &flat[k * nx..(k + 1) * nx];
            for (s, &xi) in sums.iter_mut().zip(x_k) {
                *s += xi;
            }
            let x_prev = &flat[(k - 1) * nx..k * nx];
            for (row, &xi) in products.chunks_exact_mut(nx).zip(x_k) {
                rank1(row, x_prev, xi);
            }
            k += 1;
        }
    }

    fn name(&self) -> &'static str {
        "dprr"
    }
}

/// The final reservoir state `x(T)` as features (`N_x` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LastState;

impl Representation for LastState {
    fn dim(&self, nx: usize) -> usize {
        nx
    }

    fn features_into(&self, states: &Matrix, out: &mut [f64]) {
        let nx = states.cols();
        assert_eq!(out.len(), nx, "output buffer has wrong length");
        if states.rows() == 0 {
            out.fill(0.0);
        } else {
            out.copy_from_slice(states.row(states.rows() - 1));
        }
    }

    fn name(&self) -> &'static str {
        "last-state"
    }
}

/// The time-averaged reservoir state as features (`N_x` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MeanState;

impl Representation for MeanState {
    fn dim(&self, nx: usize) -> usize {
        nx
    }

    fn features_into(&self, states: &Matrix, out: &mut [f64]) {
        let nx = states.cols();
        assert_eq!(out.len(), nx, "output buffer has wrong length");
        out.fill(0.0);
        let t_len = states.rows();
        if t_len == 0 {
            return;
        }
        for k in 0..t_len {
            for (o, &x) in out.iter_mut().zip(states.row(k)) {
                *o += x;
            }
        }
        for o in out.iter_mut() {
            *o /= t_len as f64;
        }
    }

    fn name(&self) -> &'static str {
        "mean-state"
    }
}

/// Accumulates `row += c · x` one element-`+=` at a time.
#[inline]
fn rank1(row: &mut [f64], x: &[f64], c: f64) {
    for (r, &xj) in row.iter_mut().zip(x) {
        *r += c * xj;
    }
}

/// Accumulates four rank-1 contributions in one sweep, keeping each
/// accumulator element in a register across the four `+=` operations (the
/// additions stay separate and ordered — no reassociation, so results are
/// bitwise identical to four [`rank1`] calls).
#[inline]
#[allow(clippy::too_many_arguments)]
fn rank4(
    row: &mut [f64],
    x0: &[f64],
    c0: f64,
    x1: &[f64],
    c1: f64,
    x2: &[f64],
    c2: f64,
    x3: &[f64],
    c3: f64,
) {
    let n = row.len();
    let (x0, x1, x2, x3) = (&x0[..n], &x1[..n], &x2[..n], &x3[..n]);
    for j in 0..n {
        let mut v = row[j];
        v += c0 * x0[j];
        v += c1 * x1[j];
        v += c2 * x2[j];
        v += c3 * x3[j];
        row[j] = v;
    }
}

/// Builds the feature matrix for a batch of state histories (one row per
/// sample) using any representation.
///
/// Samples are independent, so rows are computed in parallel over the
/// [`dfr_pool`] execution layer — each worker owns a contiguous band of
/// output rows and every row is produced by the same per-sample kernel,
/// making the result bit-identical at every thread count.
pub fn feature_matrix<R: Representation + ?Sized>(rep: &R, runs: &[Matrix]) -> Matrix {
    if runs.is_empty() {
        return Matrix::zeros(0, 0);
    }
    let nx = runs[0].cols();
    let dim = rep.dim(nx);
    let mut out = Matrix::zeros(runs.len(), dim);
    if dim == 0 {
        return out;
    }
    dfr_pool::par_chunks_mut(out.as_mut_slice(), dim, |i, row| {
        rep.features_into(&runs[i], row);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states() -> Matrix {
        Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[-0.5, 3.0]]).unwrap()
    }

    /// Naive reference implementation of the DPRR straight from Eqs. 18–19.
    fn dprr_reference(states: &Matrix) -> Vec<f64> {
        let nx = states.cols();
        let t_len = states.rows();
        let mut r = vec![0.0; nx * (nx + 1)];
        for i in 0..nx {
            for j in 0..nx {
                let mut acc = 0.0;
                for k in 1..t_len {
                    acc += states[(k, i)] * states[(k - 1, j)];
                }
                r[i * nx + j] = acc;
            }
        }
        for i in 0..nx {
            let mut acc = 0.0;
            for k in 0..t_len {
                acc += states[(k, i)];
            }
            r[nx * nx + i] = acc;
        }
        r
    }

    #[test]
    fn dprr_matches_reference() {
        let s = states();
        let fast = Dprr.features(&s);
        let slow = dprr_reference(&s);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dprr_dim() {
        assert_eq!(Dprr.dim(30), 930);
        assert_eq!(Dprr.dim(2), 6);
    }

    #[test]
    fn dprr_single_step_products_are_zero() {
        // With T = 1 there is no x(k−1), so the product block is all zero.
        let s = Matrix::from_rows(&[&[2.0, 3.0]]).unwrap();
        let r = Dprr.features(&s);
        assert!(r[..4].iter().all(|&v| v == 0.0));
        assert_eq!(&r[4..], &[2.0, 3.0]);
    }

    #[test]
    fn dprr_is_bilinear_in_scaling() {
        // Scaling states by c scales products by c² and sums by c.
        let s = states();
        let scaled = s.map(|x| 2.0 * x);
        let r = Dprr.features(&s);
        let r2 = Dprr.features(&scaled);
        let nx = 2;
        for idx in 0..nx * nx {
            assert!((r2[idx] - 4.0 * r[idx]).abs() < 1e-12);
        }
        for idx in nx * nx..r.len() {
            assert!((r2[idx] - 2.0 * r[idx]).abs() < 1e-12);
        }
    }

    #[test]
    fn last_state() {
        let r = LastState.features(&states());
        assert_eq!(r, vec![-0.5, 3.0]);
    }

    #[test]
    fn mean_state() {
        let r = MeanState.features(&states());
        assert!((r[0] - (1.0 + 2.0 - 0.5) / 3.0).abs() < 1e-12);
        assert!((r[1] - (-1.0 + 0.5 + 3.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_history() {
        let empty = Matrix::zeros(0, 3);
        assert_eq!(LastState.features(&empty), vec![0.0; 3]);
        assert_eq!(MeanState.features(&empty), vec![0.0; 3]);
        assert_eq!(Dprr.features(&empty), vec![0.0; 12]);
    }

    #[test]
    fn feature_matrix_shapes() {
        let runs = vec![states(), states()];
        let m = feature_matrix(&Dprr, &runs);
        assert_eq!(m.shape(), (2, 6));
        assert_eq!(m.row(0), m.row(1));
        let empty: Vec<Matrix> = vec![];
        assert_eq!(feature_matrix(&Dprr, &empty).shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_buffer_panics() {
        let mut buf = vec![0.0; 3];
        Dprr.features_into(&states(), &mut buf);
    }
}
