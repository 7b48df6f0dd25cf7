//! Drifting-distribution stream families for online continual learning.
//!
//! A batch dataset is exchangeable — sample order carries no
//! information. An online learner's workload is not: deployed streams
//! drift (sensors age, speakers change, seasons turn), and the question
//! a continual learner answers is how fast its readout tracks the
//! moving class-conditional statistics. This module builds such streams
//! deterministically on top of any [`DatasetSpec`]: every (class,
//! channel) pair gets **two** prototypes — where the class starts and
//! where it ends up — and sample `k` of `n` is drawn from their
//! interpolation at a drift weight `w(k)` chosen by the [`DriftKind`].
//! At `w = 0` the stream is statistically identical to the stationary
//! [`generate`](crate::generate) family; as `w` grows the class means,
//! spectra and trends migrate while labels stay round-robin balanced.
//!
//! The online bench (`dfr-bench`) feeds these streams to the
//! exponentially-forgetting `OnlineRidge` learner: with forgetting the
//! published readout tracks the drift, without it the readout averages
//! incompatible regimes.

use crate::generator::{Prototype, AMP_JITTER, PHASE_JITTER};
use crate::rng::{randn, seeded_rng};
use crate::spec::DatasetSpec;
use crate::{DataError, Sample};
use dfr_linalg::Matrix;

/// How the class-conditional statistics move over the stream index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DriftKind {
    /// Linear morph from the start prototypes to the end prototypes over
    /// the whole stream (`w = k / (n − 1)`).
    Gradual,
    /// Stationary at the start statistics for the first half, then an
    /// instant switch to the end statistics — the concept-shift step
    /// that punishes any learner without forgetting.
    Abrupt,
    /// Drifts out to the end statistics by mid-stream and back
    /// (triangular `w`), so early and late samples agree but the middle
    /// regime differs — recurring context, the classic seasonal shape.
    Recurring,
}

impl DriftKind {
    /// Every family, in declaration order.
    pub const ALL: [DriftKind; 3] = [DriftKind::Gradual, DriftKind::Abrupt, DriftKind::Recurring];

    /// Stable lowercase name (CLI flags, result files).
    pub fn name(self) -> &'static str {
        match self {
            DriftKind::Gradual => "gradual",
            DriftKind::Abrupt => "abrupt",
            DriftKind::Recurring => "recurring",
        }
    }

    /// The drift weight `w ∈ [0, 1]` of sample `idx` in a stream of
    /// `size` (a single-sample stream sits at the start statistics).
    fn weight(self, idx: usize, size: usize) -> f64 {
        if size <= 1 {
            return 0.0;
        }
        let progress = idx as f64 / (size - 1) as f64;
        match self {
            DriftKind::Gradual => progress,
            DriftKind::Abrupt => {
                if idx * 2 < size {
                    0.0
                } else {
                    1.0
                }
            }
            DriftKind::Recurring => 1.0 - (1.0 - 2.0 * progress).abs(),
        }
    }
}

impl std::fmt::Display for DriftKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates an **ordered** stream of `size` labelled samples whose
/// class-conditional statistics drift per `kind`. Deterministic in
/// `(spec.name, seed, kind, size)`; labels are round-robin so every
/// prefix is as class-balanced as its length allows. The split sizes of
/// `spec` are ignored — a stream has no train/test split, the online
/// protocol is prequential (test on the next sample, then absorb it).
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] if the spec has zero classes, zero
/// length or zero channels.
///
/// # Example
///
/// ```
/// use dfr_data::{drifting_stream, DatasetSpec, DriftKind};
///
/// # fn main() -> Result<(), dfr_data::DataError> {
/// let spec = DatasetSpec::new("drift-demo", 2, 32, 3, 0, 0, 0.3);
/// let stream = drifting_stream(&spec, DriftKind::Gradual, 0, 40)?;
/// assert_eq!(stream.len(), 40);
/// assert_eq!(stream[7].label, 7 % 2);
/// # Ok(())
/// # }
/// ```
pub fn drifting_stream(
    spec: &DatasetSpec,
    kind: DriftKind,
    seed: u64,
    size: usize,
) -> Result<Vec<Sample>, DataError> {
    if spec.num_classes == 0 {
        return Err(DataError::InvalidSpec {
            field: "num_classes",
        });
    }
    if spec.length == 0 {
        return Err(DataError::InvalidSpec { field: "length" });
    }
    if spec.channels == 0 {
        return Err(DataError::InvalidSpec { field: "channels" });
    }

    // The shared per-channel base signal is stationary; the drift lives
    // entirely in the class deviation prototypes, so it is genuinely
    // class-conditional (matching the stationary generator at w = 0).
    let mut base = Vec::with_capacity(spec.channels);
    for channel in 0..spec.channels {
        let mut rng = seeded_rng(spec.name, &[seed, 0xBA5E, channel as u64]);
        base.push(Prototype::draw(&mut rng));
    }
    // Start prototypes use the stationary generator's stream tag, so a
    // drift weight of zero reproduces its class structure; end
    // prototypes get their own tag.
    let mut start = Vec::with_capacity(spec.num_classes);
    let mut end = Vec::with_capacity(spec.num_classes);
    for class in 0..spec.num_classes {
        let mut from = Vec::with_capacity(spec.channels);
        let mut to = Vec::with_capacity(spec.channels);
        for channel in 0..spec.channels {
            let mut rng = seeded_rng(spec.name, &[seed, 0xC1A5, class as u64, channel as u64]);
            from.push(Prototype::draw(&mut rng));
            let mut rng = seeded_rng(spec.name, &[seed, 0xD41F, class as u64, channel as u64]);
            to.push(Prototype::draw(&mut rng));
        }
        start.push(from);
        end.push(to);
    }

    let mut samples = Vec::with_capacity(size);
    for idx in 0..size {
        let label = idx % spec.num_classes;
        let w = kind.weight(idx, size);
        let mut rng = seeded_rng(spec.name, &[seed, 0xD81F7, idx as u64]);
        let mut series = Matrix::zeros(spec.length, spec.channels);
        for channel in 0..spec.channels {
            let proto = start[label][channel].lerp(&end[label][channel], w);
            let phase_jitter = PHASE_JITTER * randn(&mut rng);
            let amp_scale = 1.0 + AMP_JITTER * randn(&mut rng);
            let mut ar = 0.0;
            for t in 0..spec.length {
                let tau = t as f64 / spec.length as f64;
                ar = spec.noise_ar * ar + spec.noise * randn(&mut rng);
                series[(t, channel)] = base[channel].eval(tau, phase_jitter, amp_scale)
                    + spec.class_sep * proto.eval(tau, phase_jitter, amp_scale)
                    + ar;
            }
        }
        samples.push(Sample::new(series, label));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DatasetSpec {
        DatasetSpec::new("drift-test", 3, 30, 2, 0, 0, 0.05)
    }

    fn dist(a: &Matrix, b: &Matrix) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn deterministic_and_balanced() {
        let a = drifting_stream(&spec(), DriftKind::Gradual, 5, 31).unwrap();
        let b = drifting_stream(&spec(), DriftKind::Gradual, 5, 31).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 31);
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.label, i % 3);
            assert_eq!(s.series.rows(), 30);
            assert_eq!(s.series.cols(), 2);
        }
    }

    #[test]
    fn weights_shape_the_drift() {
        for size in [2usize, 9, 10] {
            assert_eq!(DriftKind::Gradual.weight(0, size), 0.0);
            assert_eq!(DriftKind::Gradual.weight(size - 1, size), 1.0);
            assert_eq!(DriftKind::Abrupt.weight(0, size), 0.0);
            assert_eq!(DriftKind::Abrupt.weight(size - 1, size), 1.0);
            assert_eq!(DriftKind::Recurring.weight(0, size), 0.0);
            assert!(DriftKind::Recurring.weight(size - 1, size) < 1e-12);
        }
        // Abrupt switches exactly at the midpoint.
        assert_eq!(DriftKind::Abrupt.weight(4, 10), 0.0);
        assert_eq!(DriftKind::Abrupt.weight(5, 10), 1.0);
        // Recurring peaks mid-stream.
        assert!((DriftKind::Recurring.weight(5, 11) - 1.0).abs() < 1e-12);
        // Single-sample streams sit at the start statistics.
        assert_eq!(DriftKind::Gradual.weight(0, 1), 0.0);
    }

    #[test]
    fn class_statistics_actually_move() {
        // Low noise, strong separation: the same class early vs late must
        // differ far more than two neighbouring same-class samples.
        let quiet = DatasetSpec::new("drift-move", 2, 60, 1, 0, 0, 0.01);
        let n = 40;
        let stream = drifting_stream(&quiet, DriftKind::Gradual, 0, n).unwrap();
        let early = &stream[0]; // class 0, w ≈ 0
        let near = &stream[2]; // class 0, w ≈ 0.05
        let late = &stream[n - 2]; // class 0, w ≈ 0.95
        assert_eq!(early.label, late.label);
        let drifted = dist(&early.series, &late.series);
        let local = dist(&early.series, &near.series);
        assert!(
            drifted > 2.0 * local,
            "drifted {drifted} should dominate local spread {local}"
        );
    }

    /// Mean series of one class over a slice of the stream — averaging
    /// washes the per-sample phase/amplitude jitter out so prototype
    /// movement is visible above it.
    fn class_mean(stream: &[Sample], label: usize) -> Matrix {
        let picked: Vec<&Sample> = stream.iter().filter(|s| s.label == label).collect();
        let mut mean = Matrix::zeros(picked[0].series.rows(), picked[0].series.cols());
        for s in &picked {
            for (m, v) in mean.as_mut_slice().iter_mut().zip(s.series.as_slice()) {
                *m += v;
            }
        }
        for m in mean.as_mut_slice() {
            *m /= picked.len() as f64;
        }
        mean
    }

    #[test]
    fn abrupt_is_stationary_within_each_half() {
        let quiet = DatasetSpec::new("drift-abrupt", 2, 60, 1, 0, 0, 0.01).with_class_sep(2.0);
        let n = 80;
        let abrupt = drifting_stream(&quiet, DriftKind::Abrupt, 0, n).unwrap();
        let gradual = drifting_stream(&quiet, DriftKind::Gradual, 0, n).unwrap();
        // At w = 0 the two kinds share prototypes AND per-sample RNG
        // streams, so the very first sample is bitwise identical.
        assert_eq!(abrupt[0], gradual[0]);
        // Class-conditional means: the two quarters of the first half
        // agree (stationary regime, only jitter between them), while the
        // first and second halves disagree (the concept switch).
        let q1 = class_mean(&abrupt[..n / 4], 0);
        let q2 = class_mean(&abrupt[n / 4..n / 2], 0);
        let h1 = class_mean(&abrupt[..n / 2], 0);
        let h2 = class_mean(&abrupt[n / 2..], 0);
        let within = dist(&q1, &q2);
        let across = dist(&h1, &h2);
        assert!(
            across > 2.0 * within,
            "switch jump {across} should dominate stationary spread {within}"
        );
    }

    #[test]
    fn kinds_display_their_names() {
        for kind in DriftKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = spec();
        s.num_classes = 0;
        assert!(drifting_stream(&s, DriftKind::Gradual, 0, 4).is_err());
        let mut s = spec();
        s.length = 0;
        assert!(drifting_stream(&s, DriftKind::Gradual, 0, 4).is_err());
        let mut s = spec();
        s.channels = 0;
        assert!(drifting_stream(&s, DriftKind::Gradual, 0, 4).is_err());
        // Empty streams are fine — there is just nothing to drift.
        assert_eq!(
            drifting_stream(&spec(), DriftKind::Abrupt, 0, 0)
                .unwrap()
                .len(),
            0
        );
    }
}
