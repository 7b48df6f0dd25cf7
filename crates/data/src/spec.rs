//! Specifications of the 12 paper datasets and their synthetic stand-ins.
//!
//! The class counts `N_y` and series lengths `T` below are **not guesses**:
//! the paper's Table 2 reports the naive/simplified storage counts, which are
//! affine in `(T, N_y)` for `N_x = 30`
//! (`naive = (T+1)·N_x + N_x(N_x+1) + N_y·(N_x(N_x+1)+1)`), so both values
//! can be solved for exactly per dataset. Channel counts come from the public
//! descriptions of the underlying UCI/UCR corpora. Train/test sizes are
//! scaled down from the originals to fit a single-core CI budget; the paper's
//! Table 1 reports runtime *ratios*, which survive uniform scaling.

use crate::generator::{generate, GeneratorOptions};
use crate::Dataset;

/// The 12 datasets of the paper's evaluation (Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the paper's dataset codes
pub enum PaperDataset {
    Arab,
    Aus,
    Char,
    Cmu,
    Ecg,
    Jpvow,
    Kick,
    Lib,
    Net,
    Uwav,
    Waf,
    Walk,
}

impl PaperDataset {
    /// All 12 datasets in the paper's (alphabetical) order.
    pub const ALL: [PaperDataset; 12] = [
        PaperDataset::Arab,
        PaperDataset::Aus,
        PaperDataset::Char,
        PaperDataset::Cmu,
        PaperDataset::Ecg,
        PaperDataset::Jpvow,
        PaperDataset::Kick,
        PaperDataset::Lib,
        PaperDataset::Net,
        PaperDataset::Uwav,
        PaperDataset::Waf,
        PaperDataset::Walk,
    ];

    /// The short code the paper uses (e.g. `"ARAB"`).
    pub fn code(self) -> &'static str {
        self.spec().name
    }

    /// Parses a paper dataset code (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DataError::UnknownDataset`] for unknown codes.
    pub fn from_code(code: &str) -> Result<Self, crate::DataError> {
        let upper = code.to_ascii_uppercase();
        Self::ALL
            .into_iter()
            .find(|d| d.code() == upper)
            .ok_or(crate::DataError::UnknownDataset { name: upper })
    }

    /// The dataset's specification (dimensions, sizes, difficulty).
    pub fn spec(self) -> DatasetSpec {
        match self {
            // name, classes, length T, channels, train, test, noise;
            // class_sep calibrated so the backpropagation accuracy lands
            // near the paper's Table 1 value for each dataset.
            PaperDataset::Arab => {
                DatasetSpec::new("ARAB", 10, 92, 13, 200, 100, 0.45).with_class_sep(0.70)
            }
            PaperDataset::Aus => {
                DatasetSpec::new("AUS", 95, 135, 22, 285, 190, 0.55).with_class_sep(0.50)
            }
            PaperDataset::Char => {
                DatasetSpec::new("CHAR", 20, 204, 3, 200, 100, 0.60).with_class_sep(1.00)
            }
            PaperDataset::Cmu => {
                DatasetSpec::new("CMU", 2, 579, 62, 40, 40, 0.80).with_class_sep(0.16)
            }
            PaperDataset::Ecg => {
                DatasetSpec::new("ECG", 2, 151, 2, 100, 100, 1.10).with_class_sep(0.60)
            }
            PaperDataset::Jpvow => {
                DatasetSpec::new("JPVOW", 9, 28, 12, 180, 90, 0.40).with_class_sep(0.75)
            }
            PaperDataset::Kick => {
                DatasetSpec::new("KICK", 2, 840, 62, 20, 20, 1.60).with_class_sep(0.30)
            }
            PaperDataset::Lib => {
                DatasetSpec::new("LIB", 15, 44, 2, 180, 90, 0.70).with_class_sep(1.00)
            }
            PaperDataset::Net => {
                DatasetSpec::new("NET", 13, 993, 4, 65, 65, 1.30).with_class_sep(0.55)
            }
            PaperDataset::Uwav => {
                DatasetSpec::new("UWAV", 8, 314, 3, 120, 80, 0.85).with_class_sep(1.00)
            }
            PaperDataset::Waf => {
                DatasetSpec::new("WAF", 2, 197, 6, 100, 100, 0.45).with_class_sep(0.30)
            }
            PaperDataset::Walk => {
                DatasetSpec::new("WALK", 2, 1917, 3, 20, 20, 0.25).with_class_sep(0.30)
            }
        }
    }
}

impl std::fmt::Display for PaperDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Full specification of a synthetic dataset.
///
/// # Example
///
/// ```
/// use dfr_data::DatasetSpec;
///
/// let spec = DatasetSpec::new("toy", 3, 50, 2, 30, 30, 0.5);
/// let ds = spec.build(0);
/// assert_eq!(ds.num_classes(), 3);
/// assert_eq!(ds.train().len(), 30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset code, also the seed namespace for generation.
    pub name: &'static str,
    /// Number of classes `N_y`.
    pub num_classes: usize,
    /// Series length `T`.
    pub length: usize,
    /// Number of input channels.
    pub channels: usize,
    /// Training-split size.
    pub train_size: usize,
    /// Test-split size.
    pub test_size: usize,
    /// Standard deviation of the AR(1) observation noise — the difficulty
    /// knob of the synthetic task.
    pub noise: f64,
    /// Scale of the class-specific deviation from the shared base signal
    /// (1.0 = classes as distinct as the base itself). Smaller values make
    /// classes harder to separate and the accuracy landscape more peaked —
    /// the knob controlling how many grid divisions a search needs.
    pub class_sep: f64,
    /// AR(1) coefficient of the observation noise (default 0.7). Values
    /// near 1 make the noise slowly varying, so classification accuracy
    /// depends strongly on the reservoir's temporal filtering — sharpening
    /// the `(A, B)` accuracy landscape.
    pub noise_ar: f64,
}

impl DatasetSpec {
    /// Creates a spec. Arguments follow the field order.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        num_classes: usize,
        length: usize,
        channels: usize,
        train_size: usize,
        test_size: usize,
        noise: f64,
    ) -> Self {
        DatasetSpec {
            name,
            num_classes,
            length,
            channels,
            train_size,
            test_size,
            noise,
            class_sep: 1.0,
            noise_ar: 0.7,
        }
    }

    /// Sets the class-separation scale (builder style).
    pub fn with_class_sep(mut self, class_sep: f64) -> Self {
        self.class_sep = class_sep;
        self
    }

    /// Generates the dataset with the given seed offset (0 = canonical).
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero classes/length/channels (specs built via
    /// [`PaperDataset::spec`] are always valid).
    pub fn build(&self, seed: u64) -> Dataset {
        generate(self, &GeneratorOptions { seed }).expect("built-in specs are valid")
    }

    /// Scales both split sizes by `factor` (at least 1 sample per split),
    /// for quick smoke runs of the benchmark harness.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.train_size = ((self.train_size as f64 * factor) as usize).max(self.num_classes);
        self.test_size = ((self.test_size as f64 * factor) as usize).max(self.num_classes);
        self
    }
}

/// Builds the canonical synthetic stand-in for a paper dataset (seed 0).
///
/// # Example
///
/// ```
/// use dfr_data::{paper_dataset, PaperDataset};
/// let ds = paper_dataset(PaperDataset::Ecg);
/// assert_eq!(ds.num_classes(), 2);
/// ```
pub fn paper_dataset(which: PaperDataset) -> Dataset {
    which.spec().build(0)
}

/// Builds a paper dataset with a custom seed (for seed-robustness studies).
pub fn paper_dataset_with(which: PaperDataset, seed: u64) -> Dataset {
    which.spec().build(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_match_table2_dimensions() {
        // (code, N_y, T) recovered from the paper's Table 2 — see DESIGN.md §5.
        let expected = [
            ("ARAB", 10, 92),
            ("AUS", 95, 135),
            ("CHAR", 20, 204),
            ("CMU", 2, 579),
            ("ECG", 2, 151),
            ("JPVOW", 9, 28),
            ("KICK", 2, 840),
            ("LIB", 15, 44),
            ("NET", 13, 993),
            ("UWAV", 8, 314),
            ("WAF", 2, 197),
            ("WALK", 2, 1917),
        ];
        for (ds, (code, ny, t)) in PaperDataset::ALL.iter().zip(expected) {
            let spec = ds.spec();
            assert_eq!(spec.name, code);
            assert_eq!(spec.num_classes, ny, "{code} classes");
            assert_eq!(spec.length, t, "{code} length");
        }
    }

    #[test]
    fn from_code_roundtrip() {
        for ds in PaperDataset::ALL {
            assert_eq!(PaperDataset::from_code(ds.code()).unwrap(), ds);
            assert_eq!(
                PaperDataset::from_code(&ds.code().to_lowercase()).unwrap(),
                ds
            );
        }
        assert!(PaperDataset::from_code("BOGUS").is_err());
    }

    #[test]
    fn display_matches_code() {
        assert_eq!(PaperDataset::Jpvow.to_string(), "JPVOW");
    }

    #[test]
    fn scaled_clamps_to_class_count() {
        let spec = PaperDataset::Aus.spec().scaled(0.01);
        assert_eq!(spec.train_size, 95);
        assert_eq!(spec.test_size, 95);
    }

    #[test]
    fn build_produces_declared_shape() {
        let ds = paper_dataset(PaperDataset::Lib);
        let spec = PaperDataset::Lib.spec();
        assert_eq!(ds.train().len(), spec.train_size);
        assert_eq!(ds.test().len(), spec.test_size);
        assert_eq!(ds.channels(), spec.channels);
        assert_eq!(ds.max_length(), spec.length);
    }

    #[test]
    fn different_seed_different_data() {
        let a = paper_dataset_with(PaperDataset::Jpvow, 0);
        let b = paper_dataset_with(PaperDataset::Jpvow, 1);
        assert_ne!(a.train()[0].series, b.train()[0].series);
    }

    #[test]
    fn same_seed_identical_data() {
        let a = paper_dataset_with(PaperDataset::Jpvow, 7);
        let b = paper_dataset_with(PaperDataset::Jpvow, 7);
        assert_eq!(a, b);
    }
}
