use crate::DataError;
use dfr_linalg::Matrix;

/// One labelled multivariate time series.
///
/// `series` is a `T x C` matrix: row `t` holds the `C` channel values of the
/// input `u(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The time series, one time step per row.
    pub series: Matrix,
    /// Class label in `0..num_classes`.
    pub label: usize,
}

impl Sample {
    /// Creates a sample from a `T x C` series and a label.
    pub fn new(series: Matrix, label: usize) -> Self {
        Sample { series, label }
    }

    /// Series length `T`.
    pub fn len(&self) -> usize {
        self.series.rows()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.series.rows() == 0
    }

    /// Number of input channels `C`.
    pub fn channels(&self) -> usize {
        self.series.cols()
    }
}

/// A classification dataset with train and test splits.
///
/// # Example
///
/// ```
/// use dfr_data::{Dataset, Sample};
/// use dfr_linalg::Matrix;
///
/// # fn main() -> Result<(), dfr_data::DataError> {
/// let mk = |label| Sample::new(Matrix::filled(10, 2, label as f64), label);
/// let ds = Dataset::new("toy", 2, vec![mk(0), mk(1)], vec![mk(0)])?;
/// assert_eq!(ds.train().len(), 2);
/// assert_eq!(ds.one_hot_train()[(1, 1)], 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    num_classes: usize,
    train: Vec<Sample>,
    test: Vec<Sample>,
}

impl Dataset {
    /// Creates a dataset, validating labels and channel consistency.
    ///
    /// # Errors
    ///
    /// * [`DataError::InvalidSpec`] if `num_classes == 0`.
    /// * [`DataError::LabelOutOfRange`] if any label `>= num_classes`.
    /// * [`DataError::ChannelMismatch`] if samples disagree on channel count.
    pub fn new(
        name: impl Into<String>,
        num_classes: usize,
        train: Vec<Sample>,
        test: Vec<Sample>,
    ) -> Result<Self, DataError> {
        if num_classes == 0 {
            return Err(DataError::InvalidSpec {
                field: "num_classes",
            });
        }
        let channels = train.first().or_else(|| test.first()).map(Sample::channels);
        for s in train.iter().chain(&test) {
            if s.label >= num_classes {
                return Err(DataError::LabelOutOfRange {
                    label: s.label,
                    num_classes,
                });
            }
            if let Some(c) = channels {
                if s.channels() != c {
                    return Err(DataError::ChannelMismatch {
                        expected: c,
                        found: s.channels(),
                    });
                }
            }
        }
        Ok(Dataset {
            name: name.into(),
            num_classes,
            train,
            test,
        })
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of classes `N_y`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of input channels, or 0 if the dataset has no samples.
    pub fn channels(&self) -> usize {
        self.train
            .first()
            .or_else(|| self.test.first())
            .map_or(0, Sample::channels)
    }

    /// Maximum series length over both splits.
    pub fn max_length(&self) -> usize {
        self.train
            .iter()
            .chain(&self.test)
            .map(Sample::len)
            .max()
            .unwrap_or(0)
    }

    /// Training samples.
    pub fn train(&self) -> &[Sample] {
        &self.train
    }

    /// Test samples.
    pub fn test(&self) -> &[Sample] {
        &self.test
    }

    /// Mutable training samples (used by normalisation).
    pub(crate) fn train_mut(&mut self) -> &mut [Sample] {
        &mut self.train
    }

    /// Mutable test samples (used by normalisation).
    pub(crate) fn test_mut(&mut self) -> &mut [Sample] {
        &mut self.test
    }

    /// One-hot target matrix for the training split (`n x num_classes`).
    pub fn one_hot_train(&self) -> Matrix {
        one_hot(&self.train, self.num_classes)
    }

    /// Fraction of the most frequent class in the test split — the accuracy
    /// a majority-class predictor achieves. Useful as a sanity baseline.
    pub fn majority_baseline(&self) -> f64 {
        if self.test.is_empty() {
            return 0.0;
        }
        let mut counts = vec![0usize; self.num_classes];
        for s in &self.test {
            counts[s.label] += 1;
        }
        counts.into_iter().max().unwrap_or(0) as f64 / self.test.len() as f64
    }
}

fn one_hot(samples: &[Sample], num_classes: usize) -> Matrix {
    let mut m = Matrix::zeros(samples.len(), num_classes);
    for (i, s) in samples.iter().enumerate() {
        m[(i, s.label)] = 1.0;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(label: usize, t: usize, c: usize) -> Sample {
        Sample::new(Matrix::filled(t, c, label as f64), label)
    }

    #[test]
    fn new_validates_labels() {
        let err = Dataset::new("d", 2, vec![mk(2, 4, 1)], vec![]).unwrap_err();
        assert!(matches!(err, DataError::LabelOutOfRange { label: 2, .. }));
    }

    #[test]
    fn new_validates_channels() {
        let err = Dataset::new("d", 2, vec![mk(0, 4, 1), mk(1, 4, 2)], vec![]).unwrap_err();
        assert!(matches!(err, DataError::ChannelMismatch { .. }));
    }

    #[test]
    fn new_rejects_zero_classes() {
        let err = Dataset::new("d", 0, vec![], vec![]).unwrap_err();
        assert!(matches!(err, DataError::InvalidSpec { .. }));
    }

    #[test]
    fn accessors() {
        let ds = Dataset::new("d", 3, vec![mk(0, 5, 2), mk(2, 7, 2)], vec![mk(1, 6, 2)]).unwrap();
        assert_eq!(ds.name(), "d");
        assert_eq!(ds.num_classes(), 3);
        assert_eq!(ds.channels(), 2);
        assert_eq!(ds.max_length(), 7);
        assert_eq!(ds.train().len(), 2);
        assert_eq!(ds.test().len(), 1);
    }

    #[test]
    fn one_hot_rows() {
        let ds = Dataset::new("d", 3, vec![mk(0, 2, 1), mk(2, 2, 1)], vec![]).unwrap();
        let y = ds.one_hot_train();
        assert_eq!(y.shape(), (2, 3));
        assert_eq!(y.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(y.row(1), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn majority_baseline_counts_test_split() {
        let ds = Dataset::new("d", 2, vec![], vec![mk(0, 2, 1), mk(0, 2, 1), mk(1, 2, 1)]).unwrap();
        assert!((ds.majority_baseline() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sample_accessors() {
        let s = mk(1, 4, 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.channels(), 3);
        assert!(!s.is_empty());
    }
}
