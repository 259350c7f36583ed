#![forbid(unsafe_code)]
//! # ferex-hdc — hyperdimensional computing on FeReX
//!
//! The vector-symbolic architecture (VSA/HDC) application stack the paper
//! benchmarks in Sec. IV-B:
//!
//! * [`hypervector`] — bipolar hypervectors, binding/bundling/similarity;
//! * [`encoder`] — the [`FeatureEncoder`] trait and the random signed
//!   projection implementation;
//! * [`level`] — the record-based (ID-level) encoder alternative;
//! * [`model`] — single-pass + iterative training and software inference;
//! * [`am`] — inference through a FeReX associative array with a
//!   configurable distance metric (the Fig. 8 experiments).
//!
//! # Examples
//!
//! ```
//! use ferex_hdc::am::{AmClassifier, AmConfig};
//! use ferex_hdc::encoder::ProjectionEncoder;
//! use ferex_hdc::model::HdcModel;
//! use ferex_datasets::spec::UCIHAR;
//! use ferex_datasets::synth::{generate, SynthOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = generate(&UCIHAR.scaled(0.01), &SynthOptions::default());
//! let encoder = ProjectionEncoder::new(data.n_features(), 512, 1);
//! let model = HdcModel::train_single_pass(encoder, &data.train, data.n_classes());
//! let mut am = AmClassifier::from_model(&model, &AmConfig::default())?;
//! let accuracy = am.accuracy(&model, &data.test)?;
//! assert!(accuracy > 0.3);
//! # Ok(())
//! # }
//! ```

pub mod am;
pub mod encoder;
pub mod hypervector;
pub mod level;
pub mod model;

pub use am::{AmClassifier, AmConfig};
pub use encoder::{FeatureEncoder, ProjectionEncoder};
pub use hypervector::{Accumulator, Hypervector};
pub use level::RecordEncoder;
pub use model::{HdcModel, TrainReport};
