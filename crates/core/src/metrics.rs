//! Classification metrics.

/// A confusion matrix with `counts[true][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    num_classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix from predictions and labels.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or contain a class index
    /// `>= num_classes`.
    pub fn from_predictions(predictions: &[usize], labels: &[usize], num_classes: usize) -> Self {
        assert_eq!(predictions.len(), labels.len(), "length mismatch");
        let mut counts = vec![0usize; num_classes * num_classes];
        for (&p, &l) in predictions.iter().zip(labels) {
            assert!(p < num_classes && l < num_classes, "class out of range");
            counts[l * num_classes + p] += 1;
        }
        ConfusionMatrix {
            num_classes,
            counts,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Count of samples with true class `label` predicted as `predicted`.
    pub fn count(&self, label: usize, predicted: usize) -> usize {
        self.counts[label * self.num_classes + predicted]
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy (trace / total), `0.0` when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let trace: usize = (0..self.num_classes).map(|i| self.count(i, i)).sum();
        trace as f64 / total as f64
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "true\\pred {}",
            (0..self.num_classes)
                .map(|j| format!("{j:>6}"))
                .collect::<String>()
        )?;
        for i in 0..self.num_classes {
            write!(f, "{i:>9}")?;
            for j in 0..self.num_classes {
                write!(f, "{:>6}", self.count(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 1, 0], &[0, 1, 0, 0], 2);
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert_eq!(cm.count(1, 0), 0);
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.accuracy(), 0.75);
    }

    #[test]
    fn display_is_nonempty() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1], &[0, 1], 2);
        let s = cm.to_string();
        assert!(s.contains("true"));
    }
}
