//! # dlpic-nn
//!
//! A from-scratch neural-network library: the substitute for the
//! TensorFlow/Keras substrate of Aguilar & Markidis (CLUSTER 2021).
//!
//! It implements exactly what the paper's §IV.A requires — and is validated
//! far more aggressively than a paper appendix would be:
//!
//! * dense and convolutional layers with hand-written backprop, checked
//!   against central finite differences ([`gradcheck`]);
//! * ReLU / max-pool / flatten / residual blocks;
//! * MSE loss, [`optimizer::Adam`] (the paper's optimizer, lr 1e-4,
//!   batch 64) and SGD;
//! * a deterministic mini-batch [`trainer`] with shuffling and validation
//!   tracking;
//! * MAE / max-error [`metrics`] (the paper's Table I columns);
//! * parameter [`serialize`] for model persistence.
//!
//! The GEMM kernels in [`linalg`] run runtime-detected AVX-512 register
//! tiles with a portable autovectorized fallback; everything is `f32`,
//! matching common DL-framework defaults. Trained networks deploy as an
//! immutable, `Arc`-shareable [`FrozenModel`] ([`frozen`]).

#![warn(missing_docs)]

pub mod bf16;
pub mod data;
pub mod frozen;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod serialize;
pub mod tensor;
pub mod trainer;

pub use data::Dataset;
pub use frozen::{FrozenModel, Precision, PredictWorkspace};
pub use init::Init;
pub use layer::Layer;
pub use layers::{Conv2d, Dense, Flatten, MaxPool2, Relu, ResidualDense};
pub use loss::{Loss, Mse};
pub use network::Sequential;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use tensor::Tensor;
pub use trainer::{train, TrainConfig, TrainHistory};
