//! Hand-derived backpropagation through the DFR pipeline (paper §3).
//!
//! The gradient flows backwards through three stages:
//!
//! 1. **Output layer** (§3.1, Eqs. 16–17): softmax + cross-entropy give
//!    `∂L/∂logits = y − d`; then `∂L/∂b = g`, `∂L/∂W = g·rᵀ`,
//!    `∂L/∂r = Wᵀ·g`.
//! 2. **DPRR layer** (§3.2, Eqs. 20–23): each reservoir state value feeds
//!    multiple representation features — as the *left* factor of the
//!    products at time `k`, as the *right* factor at time `k+1`, and the
//!    bias block — so the backpropagated value (bpv) of `x(k)_n` has three
//!    terms (Eq. 23).
//! 3. **Reservoir layer** (§3.3, Eqs. 24–32): the recurrence
//!    `x(k)_n = A·f(j(k)_n + x(k−1)_n) + B·x(k)_{n−1}` is unrolled backwards
//!    over the flattened virtual-node sequence; `∂L/∂A` and `∂L/∂B`
//!    accumulate over all times (Eqs. 31–32).
//!
//! **Truncated backpropagation** (§3.4, Eqs. 33–36) keeps only the last
//! input step: the bpv loses its future term, the recursion runs only along
//! the `B`-chain of the final step, and the parameter gradients collapse to
//! single sums — ~`1/T` of the compute and only two stored reservoir
//! states. [`BackpropMode::Truncated`] generalises this to a window of the
//! last `W` steps (`W = 1` is the paper's method, `W = T` recovers the full
//! gradient exactly).

use crate::model::{DfrClassifier, ForwardCache};
use crate::workspace::BackpropWorkspace;
use crate::CoreError;
use dfr_linalg::activation::{cross_entropy, softmax_cross_entropy_grad_into};
use dfr_linalg::Matrix;
use dfr_reservoir::nonlinearity::Nonlinearity;

/// Which backpropagation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackpropMode {
    /// Exact gradients through the whole history (Eqs. 23, 30–32).
    Full,
    /// Truncated gradients using only the last `window` input steps
    /// (Eqs. 33–36 for `window = 1`, the paper's proposal).
    Truncated {
        /// Number of trailing input steps to backpropagate through (≥ 1).
        window: usize,
    },
}

impl BackpropMode {
    /// The paper's truncation: last step only.
    pub const PAPER_TRUNCATED: BackpropMode = BackpropMode::Truncated { window: 1 };

    /// Number of trailing input steps the mode touches for a series of
    /// length `t_len`.
    pub fn effective_window(self, t_len: usize) -> usize {
        match self {
            BackpropMode::Full => t_len,
            BackpropMode::Truncated { window } => window.clamp(1, t_len.max(1)),
        }
    }
}

impl Default for BackpropMode {
    /// The paper's lightweight proposal (`Truncated { window: 1 }`).
    fn default() -> Self {
        BackpropMode::PAPER_TRUNCATED
    }
}

/// Gradients of the loss with respect to every trainable quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// `∂L/∂A` (Eq. 31 / 35).
    pub a: f64,
    /// `∂L/∂B` (Eq. 32 / 36).
    pub b: f64,
    /// `∂L/∂W_out` (`N_y × N_r`, Eq. 17).
    pub w_out: Matrix,
    /// `∂L/∂b` of the readout (Eq. 17).
    pub bias: Vec<f64>,
    /// `∂L/∂M` (`N_x × C`) — extension beyond the paper, present only when
    /// requested via [`BackpropOptions::mask_gradient`].
    pub mask: Option<Matrix>,
}

impl Gradients {
    /// Whether every component is finite.
    pub fn is_finite(&self) -> bool {
        self.a.is_finite()
            && self.b.is_finite()
            && self.w_out.as_slice().iter().all(|g| g.is_finite())
            && self.bias.iter().all(|g| g.is_finite())
            && self
                .mask
                .as_ref()
                .map_or(true, |m| m.as_slice().iter().all(|g| g.is_finite()))
    }
}

/// Options for one backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BackpropOptions {
    /// Backpropagation variant.
    pub mode: BackpropMode,
    /// Also compute `∂L/∂M` (mask gradients — extension).
    pub mask_gradient: bool,
}

/// Runs one backward pass, returning `(loss, gradients)`.
///
/// `series` is the raw `T × C` input (needed only for mask gradients),
/// `cache` the matching forward pass, `target` the one-hot label.
///
/// # Errors
///
/// Returns [`CoreError::Linalg`] on internal shape mismatches (unreachable
/// for caches produced by the same model).
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub fn backprop<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    series: &Matrix,
    cache: &ForwardCache,
    target: &[f64],
    options: &BackpropOptions,
) -> Result<(f64, Gradients), CoreError> {
    let mut ws = BackpropWorkspace::new();
    let loss = backprop_into(model, series, cache, target, options, &mut ws)?;
    Ok((loss, ws.into_gradients()))
}

/// [`backprop`] writing gradients and every intermediate into a reused
/// [`BackpropWorkspace`] — the allocation-free form the trainer's SGD loop
/// runs per sample. On success `ws.grads` holds the gradients; results are
/// bitwise identical to [`backprop`].
///
/// # Errors
///
/// Same as [`backprop`]; on error the workspace contents are unspecified.
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub fn backprop_into<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    series: &Matrix,
    cache: &ForwardCache,
    target: &[f64],
    options: &BackpropOptions,
    ws: &mut BackpropWorkspace,
) -> Result<f64, CoreError> {
    let nx = model.nodes();
    let t_len = cache.run.len();
    let window = options.mode.effective_window(t_len).min(t_len);
    let k_start = t_len - window; // first input step to backpropagate through
    let view = Trailing {
        before: k_start.checked_sub(1).map(|k| cache.run.states().row(k)),
        states: &cache.run.states().as_slice()[k_start * nx..],
        masked: &cache.run.masked().as_slice()[k_start * nx..],
        t_len,
        features: &cache.features,
        probs: &cache.probs,
    };
    let loss = backward_into(model, &view, target, ws)?;
    if !options.mask_gradient {
        ws.grads.mask = None;
        return Ok(loss);
    }
    let mg = ws.grads.mask.get_or_insert_with(|| Matrix::zeros(0, 0));
    mg.resize(nx, series.cols());
    mg.fill_zero();
    // ∂L/∂j(k)_n = A·f′(z)·ds, and j(k)_n = Σ_c M[n][c]·u(k)_c. Visited in
    // the backward sweep's (k, n) order, so each entry sums its terms in
    // descending k.
    let a = model.reservoir().a();
    let f = model.reservoir().nonlinearity();
    for k in (k_start..t_len).rev() {
        for n in (0..nx).rev() {
            let z = cache.run.preactivation(k, n);
            let dj = a * f.derivative(z) * ws.ds[(k - k_start, n)];
            if dj != 0.0 {
                for (c, &u) in series.row(k).iter().enumerate() {
                    mg[(n, c)] += dj * u;
                }
            }
        }
    }
    Ok(loss)
}

/// What the backward pass reads of a forward pass: the trailing window of
/// `W` input steps `k₀..T`, plus the readout's inputs and outputs. The
/// stored-history pass ([`backprop_into`]) and the history-free one
/// ([`crate::streaming::streaming_backprop_into`], `W = 1`) both build
/// one, so both run [`backward_into`].
pub(crate) struct Trailing<'a> {
    /// The state `x(k₀−1)` before the window; `None` when `k₀ = 0`
    /// (`x(−1) ≡ 0`).
    pub before: Option<&'a [f64]>,
    /// The window's states `x(k₀)..x(T−1)`, `W × N_x` row-major.
    pub states: &'a [f64],
    /// The window's masked drive `j(k₀)..j(T−1)`, `W × N_x` row-major.
    pub masked: &'a [f64],
    /// Series length `T`.
    pub t_len: usize,
    /// The `1/T`-scaled DPRR features.
    pub features: &'a [f64],
    /// Softmax probabilities.
    pub probs: &'a [f64],
}

/// The backward pass over a trailing window: readout gradients, then the
/// DPRR and reservoir stages over the window's steps. Writes every
/// gradient except the mask's into `ws.grads`; `ws.ds` keeps `∂L/∂s` of
/// the window for a caller that wants `∂L/∂M`.
///
/// # Panics
///
/// Panics if `target.len()` differs from the model's class count.
pub(crate) fn backward_into<N: Nonlinearity + Clone>(
    model: &DfrClassifier<N>,
    view: &Trailing<'_>,
    target: &[f64],
    ws: &mut BackpropWorkspace,
) -> Result<f64, CoreError> {
    assert_eq!(
        target.len(),
        model.num_classes(),
        "target length must equal the class count"
    );
    let loss = cross_entropy(view.probs, target);
    let nx = model.nodes();
    let nr = model.feature_dim();
    let ny = model.num_classes();

    // ---- Stage 1: output layer (Eqs. 16–17) -----------------------------
    ws.g.resize(ny, 0.0);
    softmax_cross_entropy_grad_into(view.probs, target, &mut ws.g); // y − d
    ws.grads.bias.resize(ny, 0.0);
    ws.grads.bias.copy_from_slice(&ws.g);
    ws.grads.w_out.resize(ny, nr);
    ws.grads.w_out.fill_zero();
    for (c, &gc) in ws.g.iter().enumerate() {
        if gc == 0.0 {
            continue;
        }
        let row = ws.grads.w_out.row_mut(c);
        for (w, &r) in row.iter_mut().zip(view.features) {
            *w = gc * r;
        }
    }
    // ∂L/∂r = W_outᵀ · g. The model feeds the readout the DPRR scaled by
    // 1/T (see `DfrClassifier::finish_forward`), so the gradient with
    // respect to the *raw* sums of Eqs. 18–19 — what the DPRR backward
    // stage below needs — carries the same 1/T factor.
    ws.dr.resize(nr, 0.0);
    model.w_out().t_matvec_into(&ws.g, &mut ws.dr)?;
    let scale = 1.0 / (view.t_len.max(1) as f64);
    for d in &mut ws.dr {
        *d *= scale;
    }
    ws.grads.a = 0.0;
    ws.grads.b = 0.0;

    // Degenerate empty series: only the readout has gradients.
    if view.t_len == 0 {
        return Ok(loss);
    }

    // Split ∂L/∂r into the product block (N_x × N_x) and the bias block.
    ws.dr_products.resize(nx, nx);
    ws.dr_products
        .as_mut_slice()
        .copy_from_slice(&ws.dr[..nx * nx]);
    let dr_sums = &ws.dr[nx * nx..];

    let window = view.states.len() / nx;
    let state = |r: usize| &view.states[r * nx..(r + 1) * nx];
    // x(k−1) for window row r: the previous window row, or `before`.
    let delayed = |r: usize| (r > 0).then(|| state(r - 1)).or(view.before);
    // z(k)_n = j(k)_n + x(k−1)_n, the pre-activation fed to f.
    let z = |r: usize, n: usize| view.masked[r * nx + n] + delayed(r).map_or(0.0, |x| x[n]);
    let a = model.reservoir().a();
    let b = model.reservoir().b();
    let f = model.reservoir().nonlinearity();

    // ---- Stage 2: DPRR layer (Eq. 23 / Eq. 33) ---------------------------
    // bpv[k][n] for k in the window. Three terms:
    //   Σ_j x(k−1)_j · ∂L/∂r[n·Nx+j]   (x(k)_n as left product factor)
    //   Σ_i x(k+1)_i · ∂L/∂r[i·Nx+n]   (x(k)_n as right factor at k+1)
    //   ∂L/∂r[Nx²+n]                    (bias block)
    // The truncated mode simply has no k+1 for the last step (Eq. 33); for
    // inner window rows the future term is kept (it is available for free).
    ws.bpv.resize(window, nx);
    ws.bpv.fill_zero();
    ws.term.resize(nx, 0.0);
    for r in 0..window {
        if let Some(x_prev) = delayed(r) {
            ws.dr_products.matvec_into(x_prev, &mut ws.term)?;
            ws.bpv.row_mut(r).copy_from_slice(&ws.term);
        }
        if r + 1 < window {
            ws.dr_products.t_matvec_into(state(r + 1), &mut ws.term)?;
            for (o, &t2) in ws.bpv.row_mut(r).iter_mut().zip(&ws.term) {
                *o += t2;
            }
        }
        for (o, &s) in ws.bpv.row_mut(r).iter_mut().zip(dr_sums) {
            *o += s;
        }
    }

    // ---- Stage 3: reservoir layer (Eqs. 24–32 / 34–36) -------------------
    // ∂L/∂s over the flattened node sequence of the window, iterated
    // backwards:  ds[t] = bpv[t] + B·ds[t+1] + A·f′(z_{t+Nx})·ds[t+Nx].
    ws.ds.resize(window, nx);
    ws.ds.fill_zero();
    let mut a_grad = 0.0;
    let mut b_grad = 0.0;
    for r in (0..window).rev() {
        for n in (0..nx).rev() {
            let mut d = ws.bpv[(r, n)];
            // B-chain successor: flattened t+1 is (k, n+1), or (k+1, 0).
            if n + 1 < nx {
                d += b * ws.ds[(r, n + 1)];
            } else if r + 1 < window {
                d += b * ws.ds[(r + 1, 0)];
            }
            // f-path successor: same node, next input step (t + Nx).
            if r + 1 < window {
                d += a * f.derivative(z(r + 1, n)) * ws.ds[(r + 1, n)];
            }
            ws.ds[(r, n)] = d;

            a_grad += f.eval(z(r, n)) * d; // Eq. 31 / 35: ∂(A·f)/∂A = f(z)

            // Eq. 32 / 36: the B-path input x(k)_{n−1}, wrapping to the
            // last node of x(k−1) (zero before the first step).
            let chain = if n > 0 {
                state(r)[n - 1]
            } else {
                delayed(r).map_or(0.0, |x| x[nx - 1])
            };
            b_grad += chain * d;
        }
    }
    ws.grads.a = a_grad;
    ws.grads.b = b_grad;
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_reservoir::mask::Mask;
    use dfr_reservoir::modular::ModularDfr;
    use dfr_reservoir::nonlinearity::Tanh;

    /// A small model with non-trivial readout weights.
    fn model(nx: usize, channels: usize, ny: usize) -> DfrClassifier {
        let mut m = DfrClassifier::paper_default(nx, channels, ny, 3).unwrap();
        m.reservoir_mut().set_params(0.21, 0.17).unwrap();
        // Deterministic non-zero readout so ∂L/∂r ≠ 0.
        let nr = m.feature_dim();
        for c in 0..ny {
            for j in 0..nr {
                m.w_out_mut()[(c, j)] = 0.05 * (((c * nr + j) % 7) as f64 - 3.0);
            }
        }
        for (c, bv) in m.bias_mut().iter_mut().enumerate() {
            *bv = 0.1 * c as f64;
        }
        m
    }

    fn series(t: usize, c: usize) -> Matrix {
        let data: Vec<f64> = (0..t * c)
            .map(|i| ((i as f64) * 0.61).sin() * 0.8)
            .collect();
        Matrix::from_vec(t, c, data).unwrap()
    }

    fn loss_of<N: Nonlinearity + Clone>(m: &DfrClassifier<N>, u: &Matrix, d: &[f64]) -> f64 {
        m.forward(u).unwrap().loss(d)
    }

    /// Central finite difference of the loss with respect to a scalar
    /// reachable through a mutation closure.
    fn fd_param(
        m: &DfrClassifier,
        u: &Matrix,
        d: &[f64],
        mutate: impl Fn(&mut DfrClassifier, f64),
    ) -> f64 {
        let h = 1e-6;
        let mut mp = m.clone();
        mutate(&mut mp, h);
        let mut mm = m.clone();
        mutate(&mut mm, -h);
        (loss_of(&mp, u, d) - loss_of(&mm, u, d)) / (2.0 * h)
    }

    fn check_close(analytic: f64, numeric: f64, what: &str) {
        let tol = 1e-5 * (1.0 + numeric.abs());
        assert!(
            (analytic - numeric).abs() < tol,
            "{what}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn full_gradient_matches_finite_differences() {
        let m = model(3, 2, 2);
        let u = series(6, 2);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (loss, g) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: true,
            },
        )
        .unwrap();
        assert!((loss - cache.loss(&d)).abs() < 1e-12);

        // A and B.
        let num_a = fd_param(&m, &u, &d, |m, h| {
            let (a, b) = (m.reservoir().a(), m.reservoir().b());
            m.reservoir_mut().set_params(a + h, b).unwrap();
        });
        check_close(g.a, num_a, "dL/dA");
        let num_b = fd_param(&m, &u, &d, |m, h| {
            let (a, b) = (m.reservoir().a(), m.reservoir().b());
            m.reservoir_mut().set_params(a, b + h).unwrap();
        });
        check_close(g.b, num_b, "dL/dB");

        // A few readout weights and biases.
        for (c, j) in [(0usize, 0usize), (1, 5), (0, 11)] {
            let num = fd_param(&m, &u, &d, |m, h| {
                m.w_out_mut()[(c, j)] += h;
            });
            check_close(g.w_out[(c, j)], num, &format!("dL/dW[{c}][{j}]"));
        }
        for c in 0..2 {
            let num = fd_param(&m, &u, &d, |m, h| {
                m.bias_mut()[c] += h;
            });
            check_close(g.bias[c], num, &format!("dL/db[{c}]"));
        }

        // Mask entries.
        let mg = g.mask.as_ref().unwrap();
        for (n, c) in [(0usize, 0usize), (2, 1), (1, 0)] {
            let num = fd_param(&m, &u, &d, |m, h| {
                m.reservoir_mut().mask_mut().matrix_mut()[(n, c)] += h;
            });
            check_close(mg[(n, c)], num, &format!("dL/dM[{n}][{c}]"));
        }
    }

    #[test]
    fn full_gradient_matches_fd_with_tanh() {
        // Nonlinear f exercises the f′ cross-step term of Eq. 30.
        let mut m = DfrClassifier::new(
            ModularDfr::new(Mask::binary(3, 1, 5), 0.3, 0.25, Tanh).unwrap(),
            2,
        );
        let nr = m.feature_dim();
        for j in 0..nr {
            m.w_out_mut()[(0, j)] = 0.07 * ((j % 5) as f64 - 2.0);
            m.w_out_mut()[(1, j)] = -0.03 * ((j % 3) as f64);
        }
        let u = series(5, 1);
        let d = [0.0, 1.0];
        let cache = m.forward(&u).unwrap();
        let (_, g) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: false,
            },
        )
        .unwrap();
        let h = 1e-6;
        let loss_at = |a: f64, b: f64| {
            let mut mm = m.clone();
            mm.reservoir_mut().set_params(a, b).unwrap();
            mm.forward(&u).unwrap().loss(&d)
        };
        let (a0, b0) = (0.3, 0.25);
        let num_a = (loss_at(a0 + h, b0) - loss_at(a0 - h, b0)) / (2.0 * h);
        let num_b = (loss_at(a0, b0 + h) - loss_at(a0, b0 - h)) / (2.0 * h);
        check_close(g.a, num_a, "tanh dL/dA");
        check_close(g.b, num_b, "tanh dL/dB");
    }

    #[test]
    fn truncated_equals_full_for_t_equal_one() {
        let m = model(4, 2, 3);
        let u = series(1, 2);
        let d = [0.0, 1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, gf) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: true,
            },
        )
        .unwrap();
        let (_, gt) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::PAPER_TRUNCATED,
                mask_gradient: true,
            },
        )
        .unwrap();
        assert!((gf.a - gt.a).abs() < 1e-14);
        assert!((gf.b - gt.b).abs() < 1e-14);
        assert_eq!(gf.w_out, gt.w_out);
        assert_eq!(gf.bias, gt.bias);
        assert_eq!(gf.mask, gt.mask);
    }

    #[test]
    fn window_t_equals_full() {
        let m = model(3, 2, 2);
        let u = series(7, 2);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, gf) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: false,
            },
        )
        .unwrap();
        let (_, gw) = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Truncated { window: 7 },
                mask_gradient: false,
            },
        )
        .unwrap();
        assert!((gf.a - gw.a).abs() < 1e-12);
        assert!((gf.b - gw.b).abs() < 1e-12);
    }

    #[test]
    fn truncated_gradient_is_a_descent_direction() {
        // The paper's justification for truncation is that the last state
        // cumulatively reflects the past, so the truncated gradient still
        // points downhill. Verify on this fixed configuration: a small step
        // along −(∂L/∂A, ∂L/∂B)_truncated reduces the loss.
        let m = model(4, 1, 2);
        let u = series(40, 1);
        let d = [0.0, 1.0];
        let cache = m.forward(&u).unwrap();
        let trunc = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::PAPER_TRUNCATED,
                mask_gradient: false,
            },
        )
        .unwrap()
        .1;
        assert!(trunc.a != 0.0 || trunc.b != 0.0, "gradient must be nonzero");
        let norm = (trunc.a * trunc.a + trunc.b * trunc.b).sqrt();
        let step = 1e-5 / norm;
        let mut stepped = m.clone();
        stepped
            .reservoir_mut()
            .set_params(
                m.reservoir().a() - step * trunc.a,
                m.reservoir().b() - step * trunc.b,
            )
            .unwrap();
        let before = cache.loss(&d);
        let after = stepped.forward(&u).unwrap().loss(&d);
        assert!(after < before, "loss {after} should drop below {before}");
    }

    #[test]
    fn widening_window_converges_to_full() {
        let m = model(3, 1, 2);
        let u = series(20, 1);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let full = backprop(
            &m,
            &u,
            &cache,
            &d,
            &BackpropOptions {
                mode: BackpropMode::Full,
                mask_gradient: false,
            },
        )
        .unwrap()
        .1;
        let mut prev_err = f64::INFINITY;
        for window in [1, 4, 10, 20] {
            let g = backprop(
                &m,
                &u,
                &cache,
                &d,
                &BackpropOptions {
                    mode: BackpropMode::Truncated { window },
                    mask_gradient: false,
                },
            )
            .unwrap()
            .1;
            let err = (g.a - full.a).abs() + (g.b - full.b).abs();
            assert!(
                err <= prev_err + 1e-12,
                "window {window}: error {err} after {prev_err}"
            );
            prev_err = err;
        }
        assert!(prev_err < 1e-12);
    }

    #[test]
    fn zero_readout_gives_zero_reservoir_gradient() {
        // With W_out = 0 the DPRR gradient is zero, so dA = dB = 0 — this is
        // the paper's initial state (first SGD step only moves the readout).
        let m = DfrClassifier::paper_default(4, 2, 3, 1).unwrap();
        let u = series(6, 2);
        let d = [1.0, 0.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        assert_eq!(g.a, 0.0);
        assert_eq!(g.b, 0.0);
        assert!(g.w_out.max_abs() > 0.0, "readout gradient must be nonzero");
    }

    #[test]
    fn gradients_utilities() {
        let m = model(3, 2, 2);
        let u = series(5, 2);
        let d = [1.0, 0.0];
        let cache = m.forward(&u).unwrap();
        let (_, mut g) = backprop(&m, &u, &cache, &d, &BackpropOptions::default()).unwrap();
        assert!(g.is_finite());
        g.w_out[(0, 0)] = f64::NAN;
        assert!(!g.is_finite());
    }

    #[test]
    fn effective_window_clamps() {
        assert_eq!(BackpropMode::Full.effective_window(9), 9);
        assert_eq!(BackpropMode::Truncated { window: 3 }.effective_window(9), 3);
        assert_eq!(BackpropMode::Truncated { window: 0 }.effective_window(9), 1);
        assert_eq!(
            BackpropMode::Truncated { window: 99 }.effective_window(9),
            9
        );
    }
}
