//! Synthetic multivariate time-series classification datasets for the DFR
//! reproduction.
//!
//! The paper evaluates on 12 `.npz` datasets from Bianchi et al. (ARAB, AUS,
//! CHAR, CMU, ECG, JPVOW, KICK, LIB, NET, UWAV, WAF, WALK). Those files are
//! not redistributable here, so this crate builds *synthetic stand-ins* with
//! the **same number of classes and series length** as the paper (both
//! recovered exactly from the storage counts of the paper's Table 2 — see
//! `DESIGN.md` §5) and channel counts from the public dataset descriptions.
//! Each class is a deterministic mixture of harmonic components with
//! class-conditional AR noise, so the tasks are genuinely learnable and the
//! optimizer-behaviour comparisons of the paper (backpropagation vs grid
//! search) exercise the same code paths.
//!
//! # Example
//!
//! ```
//! use dfr_data::{paper_dataset, PaperDataset};
//!
//! let ds = paper_dataset(PaperDataset::Jpvow);
//! assert_eq!(ds.num_classes(), 9);
//! assert_eq!(ds.train()[0].series.rows(), 28); // T recovered from Table 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod degenerate;
mod drift;
mod error;
pub mod generator;
pub mod normalize;
pub mod rng;
mod spec;

pub use dataset::{Dataset, Sample};
pub use degenerate::{degenerate_dataset, Degeneracy};
pub use drift::{drifting_stream, DriftKind};
pub use error::DataError;
pub use generator::{generate, GeneratorOptions};
pub use spec::{paper_dataset, paper_dataset_with, DatasetSpec, PaperDataset};
