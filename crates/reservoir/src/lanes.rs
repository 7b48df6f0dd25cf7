//! The history-free feature kernel: `L` equal-length series streamed
//! through mask → recurrence → DPRR → `1/T` at once, one series per SIMD
//! lane.
//!
//! Every forward pass that needs only features runs it: grid search's
//! `dfr_core::trainer::features_for_into` at the dispatched kernel's lane
//! width (one lane for ragged groups and re-runs), and the serving layer
//! (`dfr-serve`) one lane per request.
//!
//! The per-sample path ([`ModularDfr::run_into`] then
//! [`Dprr::features_into`]) stores the `T × N_x` masked drive and state
//! history, and its recurrence is bound by the latency of the serial
//! `B·s_{t−1}` chain. [`dprr_lanes`] stores neither. It keeps
//!
//! * the current input row, lane-interleaved (`C × L`);
//! * a ring of the last five state rows (`5 × N_x × L`): `x(k−1)` and the
//!   block `x(k)..x(k+3)` that one DPRR sweep folds in;
//! * the DPRR accumulator (`N_x(N_x+1) × L`).
//!
//! Element `e` of lane `l` lives at `[e·L + l]`, so every lane operation
//! is one unit-stride load of `L` values. One vector chain carries `L`
//! independent recurrences, so the latency-bound drive costs about what
//! one sample costs on the per-sample path.
//!
//! # Bit-identity
//!
//! Each lane sees exactly the per-sample operation sequence:
//!
//! * the mask dot `j = Σ_c u_c·M_{n,c}` starts at `+0.0` and adds the
//!   channels in ascending order (the GEMM microkernel's order);
//! * `z = j + d` with `d = +0.0` before the first step, then
//!   `s = A·f(z) + B·s_prev`, multiplies and adds never fused;
//! * every DPRR element receives its terms one `+=` at a time in ascending
//!   step order, and is multiplied by `1/max(T, 1)` once, on the way out.
//!
//! Step 0 is folded against the zero row `x(−1)` like any other step. Its
//! product terms are `±0.0`, and adding `±0.0` to an accumulator that
//! starts at `+0.0` changes no bit: such an accumulator can never become
//! `−0.0` (round-to-nearest gives `x + (−x) = +0.0`), and states are
//! finite. [`Dprr::features_into`] relies on the same fact, so neither
//! path skips zero rows.
//!
//! Under the `avx2` kernel `dfr_linalg::kernels::Kernel::run_lanes`
//! compiles this code with four lanes in one `__m256d`; the crate itself
//! stays `unsafe`-free.

use crate::modular::{ModularDfr, DIVERGENCE_LIMIT};
use crate::nonlinearity::Nonlinearity;
use crate::representation::Dprr;
use crate::ReservoirError;
use dfr_linalg::Matrix;

/// Steps folded into the DPRR accumulator per sweep.
const BLOCK: usize = 4;

/// Reusable buffers of [`dprr_lanes`]; none of them grows with `T`.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    input: Vec<f64>,
    ring: Vec<f64>,
    acc: Vec<f64>,
}

impl LaneScratch {
    /// Empty buffers; they grow to `N_x(N_x+1)·L` values on first use.
    pub fn new() -> Self {
        LaneScratch::default()
    }
}

/// Writes the DPRR features of `L` equal-length series, scaled by
/// `1/max(T, 1)`, into `out`: row `l` (`out[l·dim..(l+1)·dim]`,
/// `dim = N_x(N_x+1)`) for `series[l]`.
///
/// Each row is bitwise equal to [`Dprr::features_into`] of the states that
/// [`ModularDfr::run_into`] produces for the same series, each element then
/// multiplied by `1/max(T, 1)` — the feature scaling of the classifier's
/// forward pass. The scaling happens as the rows are copied out of the
/// accumulator: one rounding per element, as in a separate multiply.
///
/// `#[inline(always)]` so that a `dfr_linalg::kernels::LaneBody` calling
/// it is compiled for the dispatched kernel's instruction set.
///
/// # Errors
///
/// * [`ReservoirError::ChannelMismatch`] for the first series whose
///   channel count differs from the mask's.
/// * [`ReservoirError::Diverged`] at the first step where *some* lane
///   diverged. The failing lane is not reported; callers that need the
///   per-series error re-run the series one lane at a time, where the step
///   equals the per-sample path's.
///
/// On error `out` is left untouched.
///
/// # Panics
///
/// Panics unless `series.len() == L`, all series have the same length, and
/// `out.len() == L·dim`.
#[inline(always)]
pub fn dprr_lanes<N: Nonlinearity, const L: usize>(
    dfr: &ModularDfr<N>,
    series: &[&Matrix],
    out: &mut [f64],
    scratch: &mut LaneScratch,
) -> Result<(), ReservoirError> {
    assert_eq!(series.len(), L, "one series per lane");
    let nx = dfr.nodes();
    let channels = dfr.mask().channels();
    let dim = Dprr.dim(nx);
    assert_eq!(out.len(), L * dim, "output holds one feature row per lane");
    if let Some(s) = series.iter().find(|s| s.cols() != channels) {
        return Err(ReservoirError::ChannelMismatch {
            mask_channels: channels,
            input_channels: s.cols(),
        });
    }
    let t_len = series[0].rows();
    assert!(
        series.iter().all(|s| s.rows() == t_len),
        "lanes need equal-length series"
    );

    let width = nx * L;
    let LaneScratch { input, ring, acc } = scratch;
    input.resize(channels * L, 0.0);
    ring.resize((BLOCK + 1) * width, 0.0);
    ring[..width].fill(0.0); // x(−1) ≡ 0
    acc.clear();
    acc.resize(dim * L, 0.0);
    let mask = dfr.mask().matrix().as_slice();
    let (a, b, f) = (dfr.a(), dfr.b(), dfr.nonlinearity());

    let mut chain = [0.0; L]; // s_{t−1} per lane, carried across rows
    let mut k = 0;
    while k < t_len {
        let steps = BLOCK.min(t_len - k);
        for r in 0..steps {
            for (l, s) in series.iter().enumerate() {
                for (c, &u) in s.row(k + r).iter().enumerate() {
                    input[c * L + l] = u;
                }
            }
            let (done, next) = ring.split_at_mut((r + 1) * width);
            let healthy = step(
                (a, b, f),
                mask,
                input,
                &done[r * width..],
                &mut next[..width],
                &mut chain,
            );
            if !healthy {
                return Err(diverged(k + r));
            }
        }
        if steps == BLOCK {
            sweep::<L, BLOCK>(acc, ring, 0, nx);
        } else {
            for r in 0..steps {
                sweep::<L, 1>(acc, ring, r, nx);
            }
        }
        // The block's last state is the next block's x(k−1).
        ring.copy_within(steps * width..(steps + 1) * width, 0);
        k += steps;
    }

    let scale = 1.0 / (t_len.max(1) as f64);
    for (l, row) in out.chunks_exact_mut(dim).enumerate() {
        for (o, v) in row.iter_mut().zip(acc.chunks_exact(L)) {
            *o = v[l] * scale;
        }
    }
    Ok(())
}

/// The divergence error, out of line so the hot loop does not carry it.
#[cold]
#[inline(never)]
fn diverged(step: usize) -> ReservoirError {
    ReservoirError::Diverged { step }
}

/// One input step for every lane: `row[n] = A·f(j_n + delayed[n]) +
/// B·chain` along the node chain, `j = M·u` from the lane-interleaved
/// `input`. Returns whether every new state is finite and within
/// [`DIVERGENCE_LIMIT`] (`|s| ≤ limit` is false exactly when the
/// per-sample check `!s.is_finite() || |s| > limit` fires).
#[inline(always)]
fn step<N: Nonlinearity, const L: usize>(
    (a, b, f): (f64, f64, &N),
    mask: &[f64],
    input: &[f64],
    delayed: &[f64],
    row: &mut [f64],
    chain: &mut [f64; L],
) -> bool {
    let channels = input.len() / L;
    for (n, (d, out)) in delayed
        .chunks_exact(L)
        .zip(row.chunks_exact_mut(L))
        .enumerate()
    {
        let mut j = [0.0; L];
        let m_row = &mask[n * channels..(n + 1) * channels];
        for (&m, u) in m_row.iter().zip(input.chunks_exact(L)) {
            for l in 0..L {
                j[l] += u[l] * m;
            }
        }
        for l in 0..L {
            chain[l] = a * f.eval(j[l] + d[l]) + b * chain[l];
        }
        out.copy_from_slice(chain);
    }
    row.iter().all(|s| s.abs() <= DIVERGENCE_LIMIT)
}

/// Folds `M` consecutive steps into the accumulator: with `x_m` the ring
/// row `first + m` (so `x_0` is the state before the first folded step),
/// `products[i][j] += x_{m+1,i}·x_{m,j}` and `sums[i] += x_{m+1,i}` for
/// `m = 0..M`, one `+=` per term in ascending `m`. Holding the accumulator
/// element in registers across the `M` terms divides its memory traffic
/// by `M` without reordering any sum.
#[inline(always)]
fn sweep<const L: usize, const M: usize>(acc: &mut [f64], ring: &[f64], first: usize, nx: usize) {
    let width = nx * L;
    let x: [&[f64]; M] = std::array::from_fn(|m| &ring[(first + m) * width..][..width]);
    let x_new: [&[f64]; M] = std::array::from_fn(|m| &ring[(first + m + 1) * width..][..width]);
    let (products, sums) = acc.split_at_mut(nx * width);
    for (i, acc_row) in products.chunks_exact_mut(width).enumerate() {
        let c: [[f64; L]; M] = std::array::from_fn(|m| lane(x_new[m], i));
        for (j, v) in acc_row.chunks_exact_mut(L).enumerate() {
            let mut t: [f64; L] = lane(v, 0);
            for m in 0..M {
                let xj: [f64; L] = lane(x[m], j);
                for l in 0..L {
                    t[l] += c[m][l] * xj[l];
                }
            }
            v.copy_from_slice(&t);
        }
    }
    for (i, v) in sums.chunks_exact_mut(L).enumerate() {
        for xm in &x_new {
            let xi: [f64; L] = lane(xm, i);
            for l in 0..L {
                v[l] += xi[l];
            }
        }
    }
}

/// The `L` lanes of element `e` of a lane-interleaved buffer.
#[inline(always)]
fn lane<const L: usize>(buf: &[f64], e: usize) -> [f64; L] {
    buf[e * L..(e + 1) * L]
        .try_into()
        .expect("slice of L lanes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::Mask;
    use crate::nonlinearity::Tanh;
    use crate::ReservoirRun;

    fn series(t: usize, c: usize, phase: f64) -> Matrix {
        Matrix::from_vec(
            t,
            c,
            (0..t * c)
                .map(|i| ((i as f64) * 0.37 + phase).sin())
                .collect(),
        )
        .unwrap()
    }

    /// The per-sample reference: stored run, the DPRR of its states, then
    /// the forward pass's `1/max(T, 1)` scaling.
    fn reference<N: Nonlinearity>(dfr: &ModularDfr<N>, s: &Matrix) -> Vec<f64> {
        let mut run = ReservoirRun::empty();
        dfr.run_into(s, &mut run).unwrap();
        let scale = 1.0 / (s.rows().max(1) as f64);
        let mut r = Dprr.features(run.states());
        for f in &mut r {
            *f *= scale;
        }
        r
    }

    fn check<N: Nonlinearity, const L: usize>(dfr: &ModularDfr<N>, group: &[Matrix]) {
        let refs: Vec<&Matrix> = group.iter().collect();
        let dim = Dprr.dim(dfr.nodes());
        let mut out = vec![f64::NAN; L * dim];
        dprr_lanes::<N, L>(dfr, &refs, &mut out, &mut LaneScratch::new()).unwrap();
        for (l, s) in group.iter().enumerate() {
            let want: Vec<u64> = reference(dfr, s).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = out[l * dim..(l + 1) * dim]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "lane {l} of {L}, T = {}", s.rows());
        }
    }

    #[test]
    fn lanes_match_the_per_sample_path_bitwise() {
        let dfr = ModularDfr::linear(Mask::uniform(7, 3, 1), 0.4, 0.3).unwrap();
        let tanh = ModularDfr::new(Mask::binary(5, 2, 2), 0.9, 0.2, Tanh).unwrap();
        for t in [0usize, 1, 2, 3, 4, 5, 8, 9, 13] {
            let group: Vec<Matrix> = (0..4).map(|l| series(t, 3, l as f64)).collect();
            check::<_, 4>(&dfr, &group);
            check::<_, 1>(&dfr, &group[..1]);
            check::<_, 3>(&dfr, &group[..3]);
            let group: Vec<Matrix> = (0..4).map(|l| series(t, 2, l as f64)).collect();
            check::<_, 4>(&tanh, &group);
        }
    }

    #[test]
    fn errors_match_the_per_sample_path() {
        let dfr = ModularDfr::linear(Mask::binary(4, 1, 0), 0.9, 0.9).unwrap();
        let calm = series(30, 1, 0.0).map(|v| v * 1e-3);
        let wild = Matrix::filled(30, 1, 1e5);
        let want = dfr.run(&wild).unwrap_err();
        let mut out = vec![0.0; 4 * Dprr.dim(4)];
        let mut scratch = LaneScratch::new();
        let got = dprr_lanes::<_, 4>(&dfr, &[&calm, &calm, &wild, &calm], &mut out, &mut scratch);
        assert_eq!(got.unwrap_err(), want);
        assert!(out.iter().all(|&v| v == 0.0), "out untouched on error");

        let narrow = Matrix::zeros(3, 2);
        let want = dfr.run(&narrow).unwrap_err();
        let got = dprr_lanes::<_, 1>(&dfr, &[&narrow], &mut out[..Dprr.dim(4)], &mut scratch);
        assert_eq!(got.unwrap_err(), want);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn ragged_lanes_panic() {
        let dfr = ModularDfr::linear(Mask::binary(2, 1, 0), 0.1, 0.1).unwrap();
        let (short, long) = (Matrix::zeros(2, 1), Matrix::zeros(3, 1));
        let mut out = vec![0.0; 2 * Dprr.dim(2)];
        let _ = dprr_lanes::<_, 2>(&dfr, &[&short, &long], &mut out, &mut LaneScratch::new());
    }
}
