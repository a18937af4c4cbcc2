//! # dhdl-mlp — a small neural network library
//!
//! Substitute for the Encog machine-learning library used by the paper's
//! hybrid area estimator (§IV-B2): fully connected feed-forward networks
//! with RPROP training and min-max feature normalization.
//!
//! The paper's estimator uses "a set of small artificial neural networks
//! ... three fully connected layers with eleven input nodes, six hidden
//! layer nodes, and a single output node", trained once per target device
//! and toolchain on ~200 design samples.
//!
//! ```
//! use dhdl_mlp::{train_rprop, Activation, Dataset, Mlp, TrainConfig};
//!
//! // Fit y = x^2 on [0, 1].
//! let mut data = Dataset::new();
//! for i in 0..=20 {
//!     let x = i as f64 / 20.0;
//!     data.push(&[x], &[x * x]);
//! }
//! let mut net = Mlp::new(&[1, 6, 1], Activation::Sigmoid, 42);
//! let report = train_rprop(&mut net, &data, &TrainConfig::default());
//! assert!(report.mse < 1e-3);
//! ```

#![warn(missing_docs)]

mod network;
mod norm;
mod train;

pub use network::{Activation, Mlp, Scratch};
pub use norm::Normalizer;
pub use train::{mse, train_rprop, Dataset, TrainConfig, TrainReport};

/// A regression model bundling a network with its input/output normalizers,
/// predicting a single scalar from a feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Regressor {
    net: Mlp,
    inputs: Normalizer,
    outputs: Normalizer,
}

impl Regressor {
    /// Fit a regressor on `(features, target)` samples using a
    /// `[n_features, hidden, 1]` network.
    ///
    /// Samples with a non-finite feature or target are skipped (and
    /// counted on the `mlp.train.skipped_nonfinite` obs counter) rather
    /// than fitted: a single NaN target would otherwise poison every
    /// gradient and silently ruin the whole network — exactly what one
    /// degenerate characterization sample must not be able to do to the
    /// estimator's calibration.
    ///
    /// # Panics
    ///
    /// Panics if no finite sample remains.
    pub fn fit(samples: &[(Vec<f64>, f64)], hidden: usize, seed: u64, cfg: &TrainConfig) -> Self {
        let finite: Vec<&(Vec<f64>, f64)> = samples
            .iter()
            .filter(|(x, y)| y.is_finite() && x.iter().all(|v| v.is_finite()))
            .collect();
        let skipped = samples.len() - finite.len();
        if skipped > 0 {
            dhdl_obs::counter!("mlp.train.skipped_nonfinite").add(skipped as u64);
        }
        assert!(
            !finite.is_empty(),
            "cannot fit a regressor to no (finite) data"
        );
        let xs: Vec<Vec<f64>> = finite.iter().map(|(x, _)| x.clone()).collect();
        let ys: Vec<Vec<f64>> = finite.iter().map(|&&(_, y)| vec![y]).collect();
        let inputs = Normalizer::fit(&xs);
        let outputs = Normalizer::fit(&ys);
        let mut data = Dataset::new();
        for ((x, _), y) in finite.iter().zip(&ys) {
            data.push(&inputs.apply(x), &outputs.apply(y));
        }
        let mut net = Mlp::new(&[xs[0].len(), hidden, 1], Activation::Sigmoid, seed);
        train_rprop(&mut net, &data, cfg);
        Regressor {
            net,
            inputs,
            outputs,
        }
    }

    /// Predict the target for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.predict_with(features, &mut Scratch::default())
    }

    /// [`Regressor::predict`] through caller-owned buffers.
    pub fn predict_with(&self, features: &[f64], scratch: &mut Scratch) -> f64 {
        self.inputs.apply_into(features, &mut scratch.cur);
        self.net.forward_in(scratch);
        self.outputs.invert(0, scratch.cur[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regressor_fits_polynomial() {
        // §IV-B2 cites universal approximation of polynomials as the
        // rationale for three-layer networks; verify on a cubic.
        let samples: Vec<(Vec<f64>, f64)> = (0..40)
            .map(|i| {
                let x = i as f64 / 40.0;
                (vec![x], 3.0 * x * x * x - 2.0 * x + 1.0)
            })
            .collect();
        let cfg = TrainConfig {
            max_epochs: 6000,
            ..TrainConfig::default()
        };
        let r = Regressor::fit(&samples, 8, 9, &cfg);
        for (x, y) in &samples {
            assert!((r.predict(x) - y).abs() < 0.08, "x={x:?} y={y}");
        }
    }

    #[test]
    fn training_is_bit_identical_per_seed() {
        // Calibration is a pure function of platform and seed because of
        // this: the same seed and data must yield identical weights — so
        // the whole model, and every prediction, must match bit for bit.
        let samples: Vec<(Vec<f64>, f64)> = (0..30)
            .map(|i| {
                let x = i as f64 / 30.0;
                (vec![x, 1.0 - x], (2.0 * x - 0.3).sin())
            })
            .collect();
        let cfg = TrainConfig::default();
        let a = Regressor::fit(&samples, 6, 1234, &cfg);
        let b = Regressor::fit(&samples, 6, 1234, &cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.predict(&[0.4, 0.6]).to_bits(),
            b.predict(&[0.4, 0.6]).to_bits()
        );
        // A different seed initializes differently.
        let c = Regressor::fit(&samples, 6, 1235, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn non_finite_samples_are_skipped_not_propagated() {
        let mut samples: Vec<(Vec<f64>, f64)> = (0..20)
            .map(|i| {
                let x = i as f64 / 20.0;
                (vec![x], 2.0 * x + 0.5)
            })
            .collect();
        let clean = Regressor::fit(&samples, 4, 7, &TrainConfig::default());
        // Poison the set with NaN/inf targets and a NaN feature: the fit
        // must match a fit on the clean subset exactly.
        samples.push((vec![0.3], f64::NAN));
        samples.push((vec![0.6], f64::INFINITY));
        samples.push((vec![f64::NAN], 1.0));
        let guarded = Regressor::fit(&samples, 4, 7, &TrainConfig::default());
        assert_eq!(clean, guarded);
        assert!(guarded.predict(&[0.5]).is_finite());
        // All-poison data is refused, not fitted.
        let poison = vec![(vec![0.1], f64::NAN)];
        let fit =
            std::panic::catch_unwind(|| Regressor::fit(&poison, 4, 7, &TrainConfig::default()));
        assert!(fit.is_err());
    }
}
