//! The reservoir representation: fixed-length features from a state history.
//!
//! Classification needs one feature vector per (variable-length) series, so
//! the `T × N_x` state history is reduced to a fixed-size *reservoir
//! representation* (paper §2.2). [`Dprr`] is the paper's choice — the
//! dot-product reservoir representation, the best known trade-off of
//! accuracy and circuit size.

use dfr_linalg::{GemmWorkspace, Matrix};

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
/// use dfr_reservoir::representation::Dprr;
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

impl Dprr {
    /// Feature dimension `N_x(N_x+1)` for a reservoir of `nx` virtual nodes.
    pub fn dim(&self, nx: usize) -> usize {
        nx * (nx + 1)
    }

    /// Convenience wrapper around [`Dprr::features_into`] allocating the
    /// output vector and the packing workspace.
    pub fn features(&self, states: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; self.dim(states.cols())];
        self.features_into(states, &mut out, &mut GemmWorkspace::new());
        out
    }

    /// Writes the features of the `T × N_x` history `states` into `out`,
    /// packing the product block into the caller-owned `ws`.
    ///
    /// The product block (Eq. 10 / 18) is the packed GEMM
    /// `X[1..T]ᵀ·X[0..T−1]` ([`Matrix::t_matmul_rows_into`]): each element
    /// sums its terms in ascending `k` from `+0.0`, one multiply and one add
    /// per step. Step 0's terms against `x(−1) ≡ 0` are left out; they are
    /// `±0.0`, and adding them to an accumulator that starts at `+0.0`
    /// changes no bit (states are finite), so this equals the per-step sum
    /// the lane kernel folds. The bias block (Eq. 11 / 19) is the column
    /// sums, also in ascending `k`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim(states.cols())`.
    pub fn features_into(&self, states: &Matrix, out: &mut [f64], ws: &mut GemmWorkspace) {
        let nx = states.cols();
        let t_len = states.rows();
        assert_eq!(out.len(), self.dim(nx), "output buffer has wrong length");
        let (products, sums) = out.split_at_mut(nx * nx);
        let pairs = t_len.saturating_sub(1); // steps with a predecessor
        states.t_matmul_rows_into(t_len - pairs..t_len, 0..pairs, products, ws);
        sums.fill(0.0);
        for x_k in states.as_slice().chunks_exact(nx.max(1)) {
            for (s, &xi) in sums.iter_mut().zip(x_k) {
                *s += xi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_linalg::kernels::{available, with_kernel};

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

    /// Bitwise against the reference under every kernel, over shapes that
    /// are not multiples of the `MR × NR` register tile (padded edge tiles)
    /// and over `T ∈ {0, 1}`, where no step has a predecessor. One stale,
    /// NaN-filled output buffer and one workspace are recycled throughout.
    #[test]
    fn dprr_matches_reference() {
        let mut ws = GemmWorkspace::new();
        for kern in available() {
            for nx in [1, 2, 5, 9, 30] {
                for t_len in [0, 1, 2, 3, 5, 37] {
                    let data = (0..t_len * nx).map(|v| (v as f64 * 0.61).sin() - 0.2);
                    let s = Matrix::from_vec(t_len, nx, data.collect()).unwrap();
                    let mut got = vec![f64::NAN; Dprr.dim(nx)];
                    with_kernel(kern.kind(), || Dprr.features_into(&s, &mut got, &mut ws));
                    let want = dprr_reference(&s);
                    for (idx, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} N_x={nx} T={t_len} r[{idx}]: {a} vs {b}",
                            kern.name()
                        );
                    }
                }
            }
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
    fn empty_history() {
        let empty = Matrix::zeros(0, 3);
        assert_eq!(Dprr.features(&empty), vec![0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_buffer_panics() {
        let mut buf = vec![0.0; 3];
        Dprr.features_into(&states(), &mut buf, &mut GemmWorkspace::new());
    }
}
