//! Property-based tests for the reservoir substrate.

use dfr_linalg::Matrix;
use dfr_reservoir::mask::Mask;
use dfr_reservoir::modular::ModularDfr;
use dfr_reservoir::nonlinearity::Tanh;
use dfr_reservoir::representation::Dprr;
use proptest::prelude::*;

fn series(t: usize, c: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0_f64..1.0, t * c)
        .prop_map(move |v| Matrix::from_vec(t, c, v).expect("sized correctly"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Linear reservoir response is linear in the input: run(αu) = α·run(u)
    /// for f = identity.
    #[test]
    fn linear_dfr_homogeneous(u in series(12, 2), alpha in -2.0_f64..2.0) {
        let dfr = ModularDfr::linear(Mask::binary(5, 2, 1), 0.3, 0.4).unwrap();
        let base = dfr.run(&u).unwrap();
        let scaled_in = u.map(|x| alpha * x);
        let scaled = dfr.run(&scaled_in).unwrap();
        for (a, b) in scaled.states().as_slice().iter().zip(base.states().as_slice()) {
            prop_assert!((a - alpha * b).abs() < 1e-9, "{a} vs {}", alpha * b);
        }
    }

    /// Contractive reservoirs (|A|·Lip + |B| < 1) stay bounded by the
    /// geometric series bound for bounded input.
    #[test]
    fn contractive_reservoir_is_bounded(
        u in series(40, 1),
        a in 0.01_f64..0.45,
        b in 0.01_f64..0.45,
    ) {
        let nx = 4;
        let dfr = ModularDfr::new(Mask::binary(nx, 1, 2), a, b, Tanh).unwrap();
        prop_assert!(dfr.stability_bound().unwrap() < 1.0);
        let run = dfr.run(&u).unwrap();
        // |s| ≤ a·1/(1−b) since |tanh| ≤ 1.
        let bound = a / (1.0 - b) + 1e-9;
        prop_assert!(run.states().max_abs() <= bound);
    }

    /// Fading memory: two runs whose inputs agree on a long suffix end in
    /// nearly the same final state (contractive linear reservoir).
    #[test]
    fn fading_memory(u in series(60, 1), v_head in series(10, 1)) {
        let dfr = ModularDfr::linear(Mask::binary(4, 1, 3), 0.2, 0.3).unwrap();
        // Input 2 = different first 10 steps, same last 50.
        let mut w = u.clone();
        for t in 0..10 {
            w[(t, 0)] = v_head[(t, 0)];
        }
        let r1 = dfr.run(&u).unwrap();
        let r2 = dfr.run(&w).unwrap();
        let t_last = 59;
        for n in 0..4 {
            let d = (r1.states()[(t_last, n)] - r2.states()[(t_last, n)]).abs();
            // Influence of the divergent prefix decays like (|A|+|B|)^steps.
            prop_assert!(d < 1e-6, "node {n} differs by {d}");
        }
    }

    /// DPRR is invariant to what happens in all-zero state histories and
    /// additive in time-concatenation of the product blocks' summands:
    /// computing on [S; 0-row] equals computing on S for the sum block and
    /// keeps the representation finite.
    #[test]
    fn dprr_finite_and_dimensioned(u in series(15, 1)) {
        let dfr = ModularDfr::linear(Mask::binary(6, 1, 4), 0.25, 0.3).unwrap();
        let run = dfr.run(&u).unwrap();
        let r = Dprr.features(run.states());
        prop_assert_eq!(r.len(), 6 * 7);
        prop_assert!(r.iter().all(|x| x.is_finite()));
    }

    /// The bias block of the DPRR is the column sum of the state history,
    /// added in ascending step order.
    #[test]
    fn dprr_bias_block_is_state_sum(u in series(13, 2)) {
        let dfr = ModularDfr::linear(Mask::binary(5, 2, 5), 0.2, 0.25).unwrap();
        let run = dfr.run(&u).unwrap();
        let r = Dprr.features(run.states());
        let nx = 5;
        for n in 0..nx {
            let sum = (0..run.len()).fold(0.0, |acc, k| acc + run.states()[(k, n)]);
            prop_assert_eq!(r[nx * nx + n].to_bits(), sum.to_bits());
        }
    }

    /// Masks are deterministic in the seed and differ across seeds (with
    /// overwhelming probability for ≥ 16 entries).
    #[test]
    fn mask_determinism(seed in 0u64..1000) {
        prop_assert_eq!(Mask::binary(16, 1, seed), Mask::binary(16, 1, seed));
        prop_assert_eq!(Mask::uniform(16, 1, seed), Mask::uniform(16, 1, seed));
    }

    /// Buffer-reusing forward passes (`run_into` / `run_masked_into`)
    /// reproduce the allocating `run` bit for bit — across random shapes,
    /// nonlinearities, stale reused buffers (one run recycled for every
    /// length) and pool widths 1 / 2 / 8.
    #[test]
    fn run_into_bit_identical_to_run(
        u in series(14, 2),
        seed in 0u64..100,
        a in 0.05_f64..0.4,
        b in 0.05_f64..0.4,
        t1 in 1usize..14,
        t2 in 1usize..14,
    ) {
        let linear = ModularDfr::linear(Mask::binary(5, 2, seed), a, b).unwrap();
        let tanh = ModularDfr::new(Mask::binary(5, 2, seed), a, b, Tanh).unwrap();
        let mut reused = dfr_reservoir::ReservoirRun::empty();
        for t in [t1, t2, t1.max(t2)] {
            let input = Matrix::from_vec(t, 2, u.as_slice()[..t * 2].to_vec()).unwrap();
            for threads in [1usize, 2, 8] {
                dfr_pool::with_threads(threads, || {
                    let fresh = linear.run(&input).unwrap();
                    linear.run_into(&input, &mut reused).unwrap();
                    assert_eq!(reused, fresh, "run_into t={t} threads={threads}");
                    linear.run_masked_into(fresh.masked(), &mut reused).unwrap();
                    assert_eq!(reused, fresh, "run_masked_into t={t} threads={threads}");
                    let fresh_tanh = tanh.run(&input).unwrap();
                    tanh.run_into(&input, &mut reused).unwrap();
                    assert_eq!(reused, fresh_tanh, "tanh t={t} threads={threads}");
                });
            }
        }
    }
}
