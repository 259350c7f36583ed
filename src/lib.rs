#![forbid(unsafe_code)]
//! # ferex — reconfigurable multi-bit ferroelectric compute-in-memory
//!
//! Facade crate of the FeReX reproduction (Xu et al., DATE 2024). It
//! re-exports the whole stack under one roof; applications typically start
//! from [`ferex_core::Ferex`]:
//!
//! ```
//! use ferex::core::{DistanceMetric, Ferex};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Ferex::builder()
//!     .metric(DistanceMetric::Manhattan)
//!     .bits(2)
//!     .dim(8)
//!     .build()?;
//! engine.array_mut().store(vec![0, 1, 2, 3, 3, 2, 1, 0])?;
//! let result = engine.search(&[0, 1, 2, 3, 3, 2, 1, 1])?;
//! assert_eq!(result.nearest, 0);
//! # Ok(())
//! # }
//! ```
//!
//! Layer map (bottom → top):
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`fefet`] | `ferex-fefet` | Preisach FeFET device physics, 1FeFET1R cell |
//! | [`analog`] | `ferex-analog` | crossbar, op-amp, LTA, energy/delay, Monte Carlo |
//! | [`csp`] | `ferex-csp` | backtracking + AC-3 solver |
//! | [`core`] | `ferex-core` | distance matrices, encoding pipeline, AM engine |
//! | [`datasets`] | `ferex-datasets` | Table III synthetic datasets + quantization |
//! | [`hdc`] | `ferex-hdc` | hyperdimensional computing application |
//! | [`knn`] | `ferex-knn` | k-nearest-neighbor application |
//! | [`gpu_model`] | `ferex-gpu-model` | RTX 3090 roofline baseline |

pub use ferex_analog as analog;
pub use ferex_core as core;
pub use ferex_csp as csp;
pub use ferex_datasets as datasets;
pub use ferex_fefet as fefet;
pub use ferex_gpu_model as gpu_model;
pub use ferex_hdc as hdc;
pub use ferex_knn as knn;
