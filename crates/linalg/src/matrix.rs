use crate::gemm::{self, GemmWorkspace, MR};
use crate::kernels::{self, Kernel};
use crate::LinalgError;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Range, Sub};

/// Column-block width of [`Matrix::norm_1`]: one block of running column
/// sums lives on the stack while the rows stream past.
const NORM_1_BLOCK: usize = 64;

/// A dense, row-major matrix of `f64`.
///
/// This is the single container type used throughout the DFR pipeline for
/// masks, feature matrices, readout weights and gradients. It intentionally
/// keeps a small API surface: construction, element access, BLAS-2/3 style
/// products and a few convenience transforms.
///
/// # Example
///
/// ```
/// use dfr_linalg::Matrix;
///
/// # fn main() -> Result<(), dfr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use dfr_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows do not all have the
    /// same length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::RaggedRows {
                    expected: ncols,
                    row: i,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Iterates column `j` top to bottom without allocating (a strided walk
    /// of the row-major storage).
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use dfr_linalg::Matrix;
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
    /// assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![2.0, 4.0]);
    /// ```
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.data.iter().skip(j).step_by(self.cols).copied()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// All matrix products run through the register-tiled, panel-packed
    /// microkernel family of [`crate::gemm`]: both operands are packed once
    /// into panel buffers, the output is walked in `MR × NR` register
    /// tiles, and large products band their output rows over the
    /// [`dfr_pool`] execution layer (band heights rounded to
    /// [`gemm::MR`] so bands align with packed panels). Per output element
    /// the accumulation order is `k` ascending regardless of tiling or
    /// banding, so results are bit-identical to the naive loop at every
    /// thread count.
    ///
    /// Packs into a fresh [`GemmWorkspace`]; loops that repeat a product
    /// call [`Matrix::matmul_into`] with one they own.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out, &mut GemmWorkspace::new())?;
        Ok(out)
    }

    /// [`Matrix::matmul`] writing into a caller-owned output matrix, which
    /// is resized to `self.rows() x rhs.cols()` (reusing its allocation) and
    /// overwritten, and packing into a caller-owned [`GemmWorkspace`] —
    /// allocation-free once both reach their high-water mark.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        ws: &mut GemmWorkspace,
    ) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize(m, n);
        if m == 0 || n == 0 {
            return Ok(());
        }
        let kernel = kernels::active();
        let GemmWorkspace { a_pack, b_pack } = ws;
        gemm::pack_a(a_pack, m, k, |i, kk| self.data[i * k + kk]);
        gemm::pack_b(b_pack, n, k, |kk, j| rhs.data[kk * n + j]);
        drive_bands(out, k, a_pack, b_pack, m * k * n, kernel);
        Ok(())
    }

    /// Product of `selfᵀ` with `rhs` without materialising the transpose.
    ///
    /// Same microkernel path and bit-identical-across-thread-counts
    /// guarantee as [`Matrix::matmul`] — packing absorbs the transposed
    /// access pattern.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(rhs, &mut out, &mut GemmWorkspace::new())?;
        Ok(out)
    }

    /// [`Matrix::t_matmul`] into a caller-owned output matrix (resized to
    /// `self.cols() x rhs.cols()`, allocation reused) and
    /// [`GemmWorkspace`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn t_matmul_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        ws: &mut GemmWorkspace,
    ) -> Result<(), LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        out.resize(m, n);
        if m == 0 || n == 0 {
            return Ok(());
        }
        let kernel = kernels::active();
        let GemmWorkspace { a_pack, b_pack } = ws;
        // Left operand is selfᵀ: element (i, kk) of the product's A is
        // self[kk][i]; packing linearises the strided walk once.
        gemm::pack_a(a_pack, m, k, |i, kk| self.data[kk * m + i]);
        gemm::pack_b(b_pack, n, k, |kk, j| rhs.data[kk * n + j]);
        drive_bands(out, k, a_pack, b_pack, m * k * n, kernel);
        Ok(())
    }

    /// `self[a_rows]ᵀ · self[b_rows]`: the [`Matrix::t_matmul`] of two
    /// equal-length row ranges of one matrix, packed straight from the
    /// ranges (neither is copied) into `ws`, and written row-major into the
    /// `cols × cols` slice `out`. Bitwise equal to `t_matmul` of the copied
    /// ranges.
    ///
    /// Runs as one band on the calling thread at every size: training
    /// calls it once per sample from a serial loop, where a banded fan-out
    /// would spawn a thread per call.
    ///
    /// # Panics
    ///
    /// Panics if the ranges differ in length or end past `self.rows()`, or
    /// if `out.len() != self.cols()²`.
    pub fn t_matmul_rows_into(
        &self,
        a_rows: Range<usize>,
        b_rows: Range<usize>,
        out: &mut [f64],
        ws: &mut GemmWorkspace,
    ) {
        let n = self.cols;
        let k = a_rows.len();
        assert!(
            b_rows.len() == k && a_rows.end.max(b_rows.end) <= self.rows,
            "row ranges {a_rows:?} and {b_rows:?} of a {}-row matrix",
            self.rows
        );
        assert_eq!(out.len(), n * n, "output slice has wrong length");
        let (a0, b0) = (a_rows.start, b_rows.start);
        let GemmWorkspace { a_pack, b_pack } = ws;
        gemm::pack_a(a_pack, n, k, |i, kk| self.data[(a0 + kk) * n + i]);
        gemm::pack_b(b_pack, n, k, |kk, j| self.data[(b0 + kk) * n + j]);
        gemm::gemm_band(out, n, n, k, a_pack, b_pack, kernels::active());
    }

    /// Product of `self` with `rhsᵀ` without materialising the transpose.
    ///
    /// Same microkernel path and bit-identical-across-thread-counts
    /// guarantee as [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(rhs, &mut out, &mut GemmWorkspace::new())?;
        Ok(out)
    }

    /// [`Matrix::matmul_t`] into a caller-owned output matrix (resized to
    /// `self.rows() x rhs.rows()`, allocation reused) and
    /// [`GemmWorkspace`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_t_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        ws: &mut GemmWorkspace,
    ) -> Result<(), LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize(m, n);
        if m == 0 || n == 0 {
            return Ok(());
        }
        let kernel = kernels::active();
        let GemmWorkspace { a_pack, b_pack } = ws;
        gemm::pack_a(a_pack, m, k, |i, kk| self.data[i * k + kk]);
        // Right operand is rhsᵀ: element (kk, j) of the product's B is
        // rhs[j][kk].
        gemm::pack_b(b_pack, n, k, |kk, j| rhs.data[j * k + kk]);
        drive_bands(out, k, a_pack, b_pack, m * k * n, kernel);
        Ok(())
    }

    /// The Gram matrix `self · selfᵀ` (`n x n` for an `n x p` matrix) —
    /// the kernel behind the *dual* ridge normal equations.
    ///
    /// Only the lower triangle is computed (through the same microkernel,
    /// banded over the pool with band heights sized for equal triangular
    /// *work* and rounded to [`gemm::MR`]); the upper is mirrored, which is
    /// exact because `dot(rᵢ, rⱼ)` is symmetric in floating point. Entries
    /// are bitwise equal to `self.matmul_t(self)` at every thread count.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gram_into(&mut out, &mut GemmWorkspace::new());
        out
    }

    /// [`Matrix::gram`] into a caller-owned output matrix (resized to
    /// `n x n`, allocation reused) and [`GemmWorkspace`].
    pub fn gram_into(&self, out: &mut Matrix, ws: &mut GemmWorkspace) {
        let (n, k) = (self.rows, self.cols);
        out.resize(n, n);
        if n == 0 {
            return;
        }
        let kernel = kernels::active();
        let GemmWorkspace { a_pack, b_pack } = ws;
        gemm::pack_a(a_pack, n, k, |i, kk| self.data[i * k + kk]);
        gemm::pack_b(b_pack, n, k, |kk, j| self.data[j * k + kk]);
        drive_triangle_bands(out, k, a_pack, b_pack, n * n * k / 2, kernel);
        mirror_lower_to_upper(out);
    }

    /// The Gram matrix `selfᵀ · self` (`p x p` for an `n x p` matrix) —
    /// the kernel behind the *primal* ridge normal equations.
    ///
    /// Lower triangle only (microkernel tiles over work-balanced,
    /// MR-rounded bands, like [`Matrix::gram`]), accumulated over sample
    /// rows in ascending order, then mirrored; entries are bitwise equal to
    /// `self.t_matmul(self)` at every thread count.
    pub fn gram_t(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gram_t_into(&mut out, &mut GemmWorkspace::new());
        out
    }

    /// [`Matrix::gram_t`] into a caller-owned output matrix (resized to
    /// `p x p`, allocation reused) and [`GemmWorkspace`].
    pub fn gram_t_into(&self, out: &mut Matrix, ws: &mut GemmWorkspace) {
        let (p, k) = (self.cols, self.rows);
        out.resize(p, p);
        if p == 0 {
            return;
        }
        let kernel = kernels::active();
        let GemmWorkspace { a_pack, b_pack } = ws;
        gemm::pack_a(a_pack, p, k, |i, kk| self.data[kk * p + i]);
        gemm::pack_b(b_pack, p, k, |kk, j| self.data[kk * p + j]);
        drive_triangle_bands(out, k, a_pack, b_pack, p * p * k / 2, kernel);
        mirror_lower_to_upper(out);
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matvec`] writing into a caller-owned slice of length
    /// `self.rows()` — the allocation-free form hot loops use.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != v.len()`
    /// or `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if self.cols != v.len() || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        matvec_rows(&self.data, self.cols, v, out);
        Ok(())
    }

    /// Fused `self * v + bias` — the readout's pre-activation in one pass,
    /// the front half of the bias+softmax epilogue
    /// ([`crate::activation::dense_bias_softmax_into`]). Per element the
    /// arithmetic is `dot(row, v)` then one bias add, bitwise identical to
    /// [`Matrix::matvec_into`] followed by a `+=` loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != v.len()`
    /// or `bias.len() != self.rows()` or `out.len() != self.rows()`.
    pub fn matvec_bias_into(
        &self,
        v: &[f64],
        bias: &[f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        if self.cols != v.len() || bias.len() != self.rows || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_bias",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        matvec_rows(&self.data, self.cols, v, out);
        for (o, &b) in out.iter_mut().zip(bias) {
            *o += b;
        }
        Ok(())
    }

    /// Transposed matrix-vector product `selfᵀ * v`, written into a
    /// caller-owned slice of length `self.cols()`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != v.len()`
    /// or `out.len() != self.cols()`.
    pub fn t_matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if self.rows != v.len() || out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        out.fill(0.0);
        // No zero-skip on `vi`: dense operands make the branch pure
        // mispredict cost, and adding an exact-zero product never changes
        // the (never negative-zero) accumulator of a finite sum, so the
        // branch-free loop is bit-identical — and vectorisable.
        for (i, &vi) in v.iter().enumerate() {
            for (o, &m) in out.iter_mut().zip(self.row(i)) {
                *o += vi * m;
            }
        }
        Ok(())
    }

    /// Adds `alpha * rhs` to `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<(), LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a new matrix with `f` applied elementwise.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Largest absolute element, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Induced 1-norm: the maximum absolute column sum (`0.0` for an
    /// empty matrix). Feeds [`crate::cholesky::Cholesky::rcond_1_est`].
    ///
    /// Walks the rows over blocks of `NORM_1_BLOCK` columns with stack
    /// accumulators, so memory is read at unit stride while each column
    /// sum still accumulates in ascending row order.
    pub fn norm_1(&self) -> f64 {
        let mut best = 0.0_f64;
        let mut sums = [0.0_f64; NORM_1_BLOCK];
        for j0 in (0..self.cols).step_by(NORM_1_BLOCK) {
            let w = NORM_1_BLOCK.min(self.cols - j0);
            let sums = &mut sums[..w];
            sums.fill(0.0);
            for row in self.data.chunks_exact(self.cols) {
                for (s, v) in sums.iter_mut().zip(&row[j0..j0 + w]) {
                    *s += v.abs();
                }
            }
            for &s in sums.iter() {
                best = best.max(s);
            }
        }
        best
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes the matrix to `rows x cols`, reusing the existing
    /// allocation whenever it is large enough (the workhorse of the
    /// workspace-buffer convention — see `DESIGN.md` §9). Contents after a
    /// resize are unspecified; callers overwrite or [`Matrix::fill_zero`].
    ///
    /// Allocation-free once the buffer has grown to its high-water mark.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation
    /// whenever it is large enough.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `row.len() != self.cols()`
    /// and the matrix is non-empty. Pushing the first row sets the width.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        if self.rows == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "push_row",
                lhs: (self.rows, self.cols),
                rhs: (1, row.len()),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ; use [`Matrix::axpy`] for a fallible variant.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs).expect("shapes already checked");
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ; use [`Matrix::axpy`] for a fallible variant.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        out.axpy(-1.0, rhs).expect("shapes already checked");
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// In-place elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs).expect("add_assign: shape mismatch");
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(dfr_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // An explicit `+0.0` seed: `Iterator::sum` may start from `-0.0`,
    // which would make an empty or all-`-0.0` dot differ in sign from the
    // `+0.0`-seeded lockstep chains of `matvec_rows`.
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// The `0 x 0` matrix — lets workspace types holding matrices derive
/// `Default`.
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

// The lockstep matvec below unrolls exactly four row chains.
const _: () = assert!(MR == 4, "matvec_rows unrolls exactly MR = 4 row chains");

/// The matvec core: walks [`MR`] rows in lockstep so the [`MR`] per-row
/// accumulator chains (each still strictly `k`-ascending, bitwise equal to
/// [`dot`]) run as independent instruction-level streams instead of one
/// latency-bound chain at a time.
fn matvec_rows(data: &[f64], cols: usize, v: &[f64], out: &mut [f64]) {
    if cols == 0 {
        out.fill(0.0);
        return;
    }
    let blocks = out.len() / MR;
    for (quad, aout) in data
        .chunks_exact(MR * cols)
        .zip(out.chunks_exact_mut(MR))
        .take(blocks)
    {
        let (r0, rest) = quad.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = [0.0_f64; MR];
        for ((((&x, &y0), &y1), &y2), &y3) in v.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            acc[0] += y0 * x;
            acc[1] += y1 * x;
            acc[2] += y2 * x;
            acc[3] += y3 * x;
        }
        aout.copy_from_slice(&acc);
    }
    for (row, o) in data
        .chunks_exact(cols)
        .zip(out.iter_mut())
        .skip(blocks * MR)
    {
        *o = dot(row, v);
    }
}

/// Multiply-add count below which a product stays serial: a scoped spawn
/// costs ~10µs, so bands only pay off once there is real arithmetic to
/// split. Size-based only — never thread-count-based — so the banding
/// decision itself is deterministic.
const PAR_MIN_MADDS: usize = 1 << 18;

/// Fans the packed microkernel out over contiguous bands of output rows,
/// one band per pool thread (or a single inline band when the arithmetic
/// is too small to amortise a spawn). Band heights are rounded up to
/// [`gemm::MR`] so every band starts on an A-panel boundary; the per-tile
/// kernel — resolved once at product entry and carried into every band —
/// is identical regardless of banding, so results are bit-identical at
/// every thread count.
fn drive_bands(
    out: &mut Matrix,
    k: usize,
    a_pack: &[f64],
    b_pack: &[f64],
    madds: usize,
    kernel: &'static Kernel,
) {
    let (m, n) = out.shape();
    let threads = if madds < PAR_MIN_MADDS {
        1
    } else {
        dfr_pool::max_threads().clamp(1, m)
    };
    let band_rows = m.div_ceil(threads).next_multiple_of(MR);
    dfr_pool::par_chunks_mut(out.data.as_mut_slice(), band_rows * n, |band, out_band| {
        let rows_here = out_band.len() / n;
        let first_panel = band * band_rows / MR;
        let panels_here = rows_here.div_ceil(MR);
        let a_band = &a_pack[first_panel * k * MR..(first_panel + panels_here) * k * MR];
        gemm::gemm_band(out_band, rows_here, n, k, a_band, b_pack, kernel);
    });
}

/// Fans the lower-triangle microkernel driver out over row bands of an
/// `n x n` output, with band heights chosen so every band owns an equal
/// share of the *triangular* work (row `i` costs `i + 1` multiply-adds, so
/// uniform row counts would leave the last band with ~2× the average load
/// and cap the speedup). Boundary `t` sits at `n·√(t/threads)` — equal
/// area under the triangle per band — rounded to a multiple of
/// [`gemm::MR`] so bands align with A panels. Execution goes through
/// [`dfr_pool::par_parts_mut`], which keeps the pool's worker marking and
/// nested-serial policy; per-element computation is unchanged by the
/// banding, so results stay bit-identical at every thread count.
fn drive_triangle_bands(
    out: &mut Matrix,
    k: usize,
    a_pack: &[f64],
    b_pack: &[f64],
    madds: usize,
    kernel: &'static Kernel,
) {
    let n = out.rows();
    let threads = if madds < PAR_MIN_MADDS {
        1
    } else {
        dfr_pool::max_threads().clamp(1, n.div_ceil(MR))
    };
    if threads <= 1 {
        gemm::gemm_band_lower(out.data.as_mut_slice(), 0, n, k, a_pack, b_pack, kernel);
        return;
    }
    let mut bounds: Vec<usize> = (0..=threads)
        .map(|t| {
            let raw = (n as f64) * (t as f64 / threads as f64).sqrt();
            ((raw.round() as usize).next_multiple_of(MR)).min(n)
        })
        .collect();
    bounds[0] = 0;
    bounds[threads] = n; // rounding guard: the last band must end at n
    for t in 1..threads {
        bounds[t] = bounds[t].max(bounds[t - 1]); // keep bounds monotone
    }
    let part_lens: Vec<usize> = bounds.windows(2).map(|w| (w[1] - w[0]) * n).collect();
    dfr_pool::par_parts_mut(out.data.as_mut_slice(), &part_lens, |b, band| {
        gemm::gemm_band_lower(band, bounds[b], n, k, a_pack, b_pack, kernel)
    });
}

/// Copies the strict lower triangle of a square matrix into the upper.
fn mirror_lower_to_upper(m: &mut Matrix) {
    for i in 0..m.rows() {
        for j in i + 1..m.cols() {
            let v = m[(j, i)];
            m[(i, j)] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_shape_and_content() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diag() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_ragged_is_error() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_vec_wrong_len_is_error() {
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn index_and_row() {
        let m = sample();
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![2.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(); // 3x2
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[4.0, 5.0], &[10.0, 11.0]]).unwrap());
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0]]).unwrap();
        let expected = a.transpose().matmul(&b).unwrap();
        assert_eq!(a.t_matmul(&b).unwrap(), expected);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]).unwrap();
        let expected = a.matmul(&b.transpose()).unwrap();
        assert_eq!(a.matmul_t(&b).unwrap(), expected);
    }

    #[test]
    fn matvec_and_t_matvec() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, 1.0]).unwrap(), vec![4.0, 10.0]);
        let mut t = vec![0.0; 3];
        m.t_matvec_into(&[1.0, 1.0], &mut t).unwrap();
        assert_eq!(t, vec![5.0, 7.0, 9.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.t_matvec_into(&[1.0], &mut t).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 2.0);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 1.5);
    }

    #[test]
    fn operators() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], 2.0);
        let d = &s - &b;
        assert_eq!(d, a);
        let m = &a * 3.0;
        assert_eq!(m[(1, 1)], 3.0);
        let mut acc = Matrix::zeros(2, 2);
        acc += &b;
        assert_eq!(acc, b);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let m = sample().map(|x| -x);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(1, 2)], -6.0);
    }

    #[test]
    fn col_iter_walks_columns() {
        let m = sample();
        for j in 0..3 {
            let want: Vec<f64> = (0..2).map(|i| m[(i, j)]).collect();
            assert_eq!(m.col_iter(j).collect::<Vec<_>>(), want);
        }
        let empty = Matrix::zeros(0, 2);
        assert_eq!(empty.col_iter(1).count(), 0);
    }

    #[test]
    fn gram_matches_matmul_t() {
        let m = sample();
        assert_eq!(m.gram(), m.matmul_t(&m).unwrap());
        assert_eq!(m.gram_t(), m.t_matmul(&m).unwrap());
        assert_eq!(Matrix::zeros(0, 0).gram().shape(), (0, 0));
        assert_eq!(Matrix::zeros(0, 3).gram_t().shape(), (3, 3));
    }

    #[test]
    fn products_identical_across_thread_counts() {
        // Big enough to clear the serial threshold so bands really form.
        let n = 96;
        let a =
            Matrix::from_vec(n, n, (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect()).unwrap();
        let b =
            Matrix::from_vec(n, n, (0..n * n).map(|i| (i as f64 * 0.11).cos()).collect()).unwrap();
        let serial = dfr_pool::with_threads(1, || {
            (
                a.matmul(&b).unwrap(),
                a.t_matmul(&b).unwrap(),
                a.matmul_t(&b).unwrap(),
                a.gram(),
                a.gram_t(),
            )
        });
        for threads in [2, 3, 8] {
            let parallel = dfr_pool::with_threads(threads, || {
                (
                    a.matmul(&b).unwrap(),
                    a.t_matmul(&b).unwrap(),
                    a.matmul_t(&b).unwrap(),
                    a.gram(),
                    a.gram_t(),
                )
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn resize_reuses_and_copy_from_copies() {
        let mut m = Matrix::zeros(4, 4);
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        let src = sample();
        m.copy_from(&src);
        assert_eq!(m, src);
        // Growing works too.
        m.resize(5, 5);
        assert_eq!(m.shape(), (5, 5));
    }

    #[test]
    fn into_forms_match_allocating_forms() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(); // 3x2
        let mut out = Matrix::filled(7, 7, 9.0); // stale shape + contents
        let mut ws = GemmWorkspace::new();
        a.matmul_into(&b, &mut out, &mut ws).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.t_matmul_into(&a, &mut out, &mut ws).unwrap();
        assert_eq!(out, a.t_matmul(&a).unwrap());
        a.matmul_t_into(&a, &mut out, &mut ws).unwrap();
        assert_eq!(out, a.matmul_t(&a).unwrap());
        a.gram_into(&mut out, &mut ws);
        assert_eq!(out, a.gram());
        a.gram_t_into(&mut out, &mut ws);
        assert_eq!(out, a.gram_t());

        // Row ranges of one matrix: rows 2..7 against rows 0..5 of an
        // 8 × 9 matrix (edge tiles in both dimensions).
        let x = Matrix::from_vec(8, 9, (0..72).map(|v| (v as f64 * 0.37).sin()).collect()).unwrap();
        let rows = |r: std::ops::Range<usize>| {
            Matrix::from_vec(r.len(), 9, x.as_slice()[r.start * 9..r.end * 9].to_vec()).unwrap()
        };
        let mut flat = vec![f64::NAN; 81];
        x.t_matmul_rows_into(2..7, 0..5, &mut flat, &mut ws);
        assert_eq!(flat, rows(2..7).t_matmul(&rows(0..5)).unwrap().as_slice());

        let mut v2 = vec![1.0; 2];
        a.matvec_into(&[1.0, 0.0, 1.0], &mut v2).unwrap();
        assert_eq!(v2, a.matvec(&[1.0, 0.0, 1.0]).unwrap());
        let mut v3 = vec![1.0; 3];
        a.t_matvec_into(&[1.0, 1.0], &mut v3).unwrap();
        assert_eq!(v3, a.transpose().matvec(&[1.0, 1.0]).unwrap());
        // Wrong output lengths are shape errors, not panics.
        assert!(a.matvec_into(&[1.0, 0.0, 1.0], &mut v3).is_err());
        assert!(a.t_matvec_into(&[1.0, 1.0], &mut v2).is_err());
    }

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_and_matvec_sums_start_at_positive_zero() {
        assert_eq!(dot(&[], &[]).to_bits(), 0.0_f64.to_bits());
        assert_eq!(dot(&[-1.0], &[0.0]).to_bits(), 0.0_f64.to_bits());
        // Rows 0..4 take the lockstep chains, row 4 the `dot` tail.
        let m = Matrix::filled(5, 1, -1.0);
        for (i, v) in m.matvec(&[0.0]).unwrap().iter().enumerate() {
            assert_eq!(v.to_bits(), 0.0_f64.to_bits(), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", sample());
        assert!(s.contains("Matrix 2x3"));
    }
}
