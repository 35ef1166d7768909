//! # photon-data
//!
//! Dataset substrate for the ONN experiments: synthetic stand-ins for MNIST
//! and FashionMNIST (the real files are unavailable offline — see DESIGN.md
//! for the substitution argument), a Gaussian-cluster toy task, an
//! arbitrary-length DFT ([`dft`], Bluestein + radix-2, run from plans), and
//! the DFT feature extraction pipeline that turns 28×28 images into
//! `K`-dimensional complex ONN inputs.
//!
//! # Examples
//!
//! End-to-end feature pipeline:
//!
//! ```
//! use rand::SeedableRng;
//! use photon_data::{images_to_dataset, SyntheticMnist};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let images = SyntheticMnist::new().generate_balanced(5, &mut rng);
//! let ds = images_to_dataset(&images, 16, 10)?;
//! assert_eq!(ds.len(), 50);
//! assert_eq!(ds.input_dim(), 16);
//! # Ok::<(), photon_data::DataError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clusters;
mod dataset;
mod features;
mod fft;
mod image;
mod synthetic_fashion;
mod synthetic_mnist;

pub use clusters::GaussianClusters;
pub use dataset::{Batcher, DataError, Dataset};
pub use features::{dft_features, images_to_dataset};
pub use fft::{dft, dft_naive, fft_pow2, idft};
pub use image::Image;
pub use synthetic_fashion::SyntheticFashion;
pub use synthetic_mnist::SyntheticMnist;
