//! Input masking.
//!
//! In a DFR the digital input `u(k)` (a `C`-channel vector per step) is
//! multiplied by a fixed random mask before entering the delay loop (paper
//! §2.1): `j(k) = M·u(k)` where `M` is `N_x × C`. The mask decorrelates the
//! virtual nodes — without it every node would see the same drive and the
//! reservoir would collapse to one effective dimension. Masks are *fixed*
//! (not trained) in the paper; the `dfr-core` crate offers mask gradients as
//! an extension.

use dfr_linalg::{GemmWorkspace, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed random input mask `M` of shape `N_x × C`.
///
/// # Example
///
/// ```
/// use dfr_reservoir::mask::Mask;
///
/// let m = Mask::binary(8, 3, 7);
/// assert_eq!(m.nodes(), 8);
/// assert_eq!(m.channels(), 3);
/// // Binary masks contain only ±1.
/// assert!(m.matrix().as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mask {
    matrix: Matrix,
}

impl Mask {
    /// Random ±1 mask (the paper's digital mask), deterministic in `seed`.
    pub fn binary(nodes: usize, channels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_736b_5f76_3031);
        let data = (0..nodes * channels)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        Mask {
            matrix: Matrix::from_vec(nodes, channels, data).expect("sized correctly"),
        }
    }

    /// Random uniform mask on `[-1, 1]`, deterministic in `seed`.
    pub fn uniform(nodes: usize, channels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_736b_5f76_3031);
        let data = (0..nodes * channels)
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect();
        Mask {
            matrix: Matrix::from_vec(nodes, channels, data).expect("sized correctly"),
        }
    }

    /// Wraps an explicit mask matrix (`N_x × C`).
    pub fn from_matrix(matrix: Matrix) -> Self {
        Mask { matrix }
    }

    /// Number of virtual nodes `N_x`.
    pub fn nodes(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of input channels `C`.
    pub fn channels(&self) -> usize {
        self.matrix.cols()
    }

    /// The underlying `N_x × C` matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Mutable access to the mask matrix (used by the mask-gradient checks
    /// in `dfr-core`).
    pub fn matrix_mut(&mut self) -> &mut Matrix {
        &mut self.matrix
    }

    /// Applies the mask to a whole `T × C` series, producing the `T × N_x`
    /// masked drive (`row k` is `j(k) = M·u(k)`).
    ///
    /// # Panics
    ///
    /// Panics if `series.cols() != self.channels()`; the reservoir wrappers
    /// validate this and return [`crate::ReservoirError::ChannelMismatch`]
    /// first.
    pub fn apply(&self, series: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.apply_into(series, &mut out, &mut GemmWorkspace::new());
        out
    }

    /// [`Mask::apply`] writing into a caller-owned matrix (resized to
    /// `T x N_x`, allocation reused) and packing into a caller-owned
    /// [`GemmWorkspace`] — the allocation-free form the reservoir's
    /// `run_into` path uses, with the workspace its [`crate::ReservoirRun`]
    /// owns.
    ///
    /// The product `J = U · Mᵀ` runs through the register-tiled GEMM
    /// microkernel of [`dfr_linalg::gemm`] (per element a `k`-ascending
    /// dot over the channels, bitwise equal to the row-by-row loop it
    /// replaced), under whichever SIMD kernel
    /// [`dfr_linalg::kernels::active`] dispatches — every kernel
    /// yields the same bits, so the masked drive is kernel-independent.
    ///
    /// # Panics
    ///
    /// Panics if `series.cols() != self.channels()`; the reservoir wrappers
    /// validate this and return [`crate::ReservoirError::ChannelMismatch`]
    /// first.
    pub fn apply_into(&self, series: &Matrix, out: &mut Matrix, ws: &mut GemmWorkspace) {
        assert_eq!(
            series.cols(),
            self.channels(),
            "mask expects {} channels, series has {}",
            self.channels(),
            series.cols()
        );
        series
            .matmul_t_into(&self.matrix, out, ws)
            .expect("channel count checked above");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_deterministic() {
        assert_eq!(Mask::binary(10, 2, 3), Mask::binary(10, 2, 3));
        assert_ne!(Mask::binary(10, 2, 3), Mask::binary(10, 2, 4));
    }

    #[test]
    fn uniform_in_range() {
        let m = Mask::uniform(20, 3, 1);
        assert!(m
            .matrix()
            .as_slice()
            .iter()
            .all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn binary_is_plus_minus_one() {
        let m = Mask::binary(50, 1, 9);
        assert!(m.matrix().as_slice().iter().all(|&v| v.abs() == 1.0));
        // Both signs should occur in 50 draws.
        assert!(m.matrix().as_slice().contains(&1.0));
        assert!(m.matrix().as_slice().contains(&-1.0));
    }

    #[test]
    fn apply_is_matrix_product() {
        let m =
            Mask::from_matrix(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]).unwrap());
        let series = Matrix::from_rows(&[&[3.0, 4.0], &[1.0, -1.0]]).unwrap();
        let j = m.apply(&series);
        assert_eq!(j.shape(), (2, 3));
        assert_eq!(j.row(0), &[3.0, 8.0, 7.0]);
        assert_eq!(j.row(1), &[1.0, -2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn apply_channel_mismatch_panics() {
        let m = Mask::binary(4, 2, 0);
        m.apply(&Matrix::zeros(3, 3));
    }

    #[test]
    fn apply_is_bit_identical_across_kernels() {
        use dfr_linalg::kernels::{available, with_kernel};
        // DPRR-shaped mask apply (tall series, few channels) — the serve
        // hot path's first product.
        let m = Mask::uniform(30, 13, 5);
        let series = Matrix::from_vec(
            97,
            13,
            (0..97 * 13).map(|i| ((i as f64) * 0.23).sin()).collect(),
        )
        .unwrap();
        let reference = with_kernel(dfr_linalg::kernels::KernelKind::Scalar, || m.apply(&series));
        for kernel in available() {
            let got = with_kernel(kernel.kind(), || m.apply(&series));
            assert_eq!(got, reference, "kernel {}", kernel.name());
        }
    }
}
