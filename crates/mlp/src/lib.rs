//! # dhdl-mlp — a small neural network library
//!
//! Substitute for the Encog machine-learning library used by the paper's
//! hybrid area estimator (§IV-B2): the one network shape the estimator
//! trains, with RPROP training and min-max feature normalization.
//!
//! The paper's estimator uses "a set of small artificial neural networks
//! ... three fully connected layers with eleven input nodes, six hidden
//! layer nodes, and a single output node", trained once per target device
//! and toolchain on ~200 design samples. [`Mlp`] is that network with its
//! widths set at run time: a sigmoid hidden layer and one linear output.
//!
//! ```
//! use dhdl_mlp::{train_rprop, Dataset, Mlp, TrainConfig};
//!
//! // Fit y = x^2 on [0, 1].
//! let mut data = Dataset::new(1);
//! for i in 0..=20 {
//!     let x = i as f64 / 20.0;
//!     data.push(&[x], x * x);
//! }
//! let mut net = Mlp::new(1, 6, 42);
//! let report = train_rprop(&mut net, &data, &TrainConfig::default());
//! assert!(report.mse < 1e-3);
//! ```

#![warn(missing_docs)]

mod network;
mod norm;
mod train;

pub use network::Mlp;
pub use norm::Normalizer;
pub use train::{train_rprop, Dataset, TrainConfig, TrainReport};

/// A regression model bundling a network with its input/output normalizers,
/// predicting a single scalar from a feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Regressor {
    net: Mlp,
    inputs: Normalizer,
    outputs: Normalizer,
}

/// The buffers of [`Regressor::predict_with`]: the normalized input and
/// the hidden outputs. A caller that predicts repeatedly keeps one, so
/// only the first call allocates.
#[derive(Debug, Default)]
pub struct Scratch {
    input: Vec<f64>,
    hidden: Vec<f64>,
}

impl Regressor {
    /// Fit a regressor on `(features, target)` samples using a
    /// `[n_features, hidden, 1]` network, returning it with its training
    /// report.
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
    pub fn fit(
        samples: &[(Vec<f64>, f64)],
        hidden: usize,
        seed: u64,
        cfg: &TrainConfig,
    ) -> (Self, TrainReport) {
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
        let mut data = Dataset::new(inputs.width());
        for (x, y) in xs.iter().zip(&ys) {
            data.push(&inputs.apply(x), outputs.apply(y)[0]);
        }
        let mut net = Mlp::new(inputs.width(), hidden, seed);
        let report = train_rprop(&mut net, &data, cfg);
        let regressor = Regressor {
            net,
            inputs,
            outputs,
        };
        (regressor, report)
    }

    /// Predict the target for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.predict_with(features, &mut Scratch::default())
    }

    /// [`Regressor::predict`] through caller-owned buffers.
    pub fn predict_with(&self, features: &[f64], scratch: &mut Scratch) -> f64 {
        self.inputs.apply_into(features, &mut scratch.input);
        let y = self.net.forward_with(&scratch.input, &mut scratch.hidden);
        self.outputs.invert(0, y)
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
        let (r, _) = Regressor::fit(&samples, 8, 9, &cfg);
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
        let (a, _) = Regressor::fit(&samples, 6, 1234, &cfg);
        let (b, _) = Regressor::fit(&samples, 6, 1234, &cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.predict(&[0.4, 0.6]).to_bits(),
            b.predict(&[0.4, 0.6]).to_bits()
        );
        // A different seed initializes differently.
        let (c, _) = Regressor::fit(&samples, 6, 1235, &cfg);
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
        let clean = Regressor::fit(&samples, 4, 7, &TrainConfig::default()).0;
        // Poison the set with NaN/inf targets and a NaN feature: the fit
        // must match a fit on the clean subset exactly.
        samples.push((vec![0.3], f64::NAN));
        samples.push((vec![0.6], f64::INFINITY));
        samples.push((vec![f64::NAN], 1.0));
        let guarded = Regressor::fit(&samples, 4, 7, &TrainConfig::default()).0;
        assert_eq!(clean, guarded);
        assert!(guarded.predict(&[0.5]).is_finite());
        // All-poison data is refused, not fitted.
        let poison = vec![(vec![0.1], f64::NAN)];
        let fit =
            std::panic::catch_unwind(|| Regressor::fit(&poison, 4, 7, &TrainConfig::default()));
        assert!(fit.is_err());
    }
}
