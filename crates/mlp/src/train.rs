//! Network training: backpropagated gradients with the RPROP+ update rule
//! (the default trainer of the Encog library the paper used).

use crate::network::Mlp;

/// A supervised training set: input rows stored flat and row-major, one
/// scalar target a row.
#[derive(Debug, Clone)]
pub struct Dataset {
    inputs: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Dataset {
    /// An empty dataset of `inputs`-wide rows.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero.
    pub fn new(inputs: usize) -> Self {
        assert!(inputs > 0, "rows must have at least one input");
        Dataset {
            inputs,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Add one sample.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not as wide as the dataset's rows.
    pub fn push(&mut self, input: &[f64], target: f64) {
        assert_eq!(input.len(), self.inputs, "inconsistent input width");
        self.xs.extend_from_slice(input);
        self.ys.push(target);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// The `(input, target)` pairs in insertion order.
    fn rows(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.xs
            .chunks_exact(self.inputs)
            .zip(self.ys.iter().copied())
    }
}

/// Configuration for [`train_rprop`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Stop once mean squared error falls below this threshold.
    pub target_mse: f64,
    /// RPROP step increase factor (η⁺).
    pub eta_plus: f64,
    /// RPROP step decrease factor (η⁻).
    pub eta_minus: f64,
    /// Initial per-weight step size.
    pub initial_delta: f64,
    /// Maximum per-weight step size.
    pub max_delta: f64,
    /// Minimum per-weight step size.
    pub min_delta: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 2000,
            target_mse: 1e-5,
            eta_plus: 1.2,
            eta_minus: 0.5,
            initial_delta: 0.1,
            max_delta: 50.0,
            min_delta: 1e-8,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs: usize,
    /// Final mean squared error over the training set.
    pub mse: f64,
}

/// Accumulate full-batch gradients of the MSE loss into `grads` (laid out
/// as the network's weights) and return the MSE at the current weights,
/// both from the same forward passes; `h` holds one sample's hidden
/// outputs. Every expression is the one the pinned digests were computed
/// with, down to the back-propagated delta's `0.0 + d * w` (a sum from
/// zero, which is not an identity for −0.0).
fn pass(net: &Mlp, data: &Dataset, grads: &mut [f64], h: &mut [f64]) -> f64 {
    grads.fill(0.0);
    let width = net.inputs + 1;
    let (w_hidden, w_out) = net.layers();
    let (g_hidden, g_out) = grads.split_at_mut(w_hidden.len());
    let mut total = 0.0;
    for (x, t) in data.rows() {
        net.hidden_layer(x, h);
        let y = net.output(h);
        total += (y - t) * (y - t);
        // The linear output's delta; its derivative is exactly 1.
        let d = y - t;
        for (g, hj) in g_out.iter_mut().zip(&*h) {
            *g += d * hj;
        }
        g_out[net.hidden] += d;
        let rows = g_hidden.chunks_exact_mut(width);
        for ((row, w), hj) in rows.zip(w_out).zip(&*h) {
            let delta = (0.0 + d * w) * (hj * (1.0 - hj));
            let (weights, bias) = row.split_at_mut(net.inputs);
            for (g, xi) in weights.iter_mut().zip(x) {
                *g += delta * xi;
            }
            bias[0] += delta;
        }
    }
    total / data.len() as f64
}

/// Train `net` on `data` with resilient backpropagation (RPROP+).
///
/// RPROP adapts a per-weight step size from the *sign* of successive
/// gradients, which makes it robust to feature scaling — the reason Encog
/// uses it as the default trainer.
///
/// # Panics
///
/// Panics if the widths of `net` and `data` differ.
pub fn train_rprop(net: &mut Mlp, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    assert_eq!(data.inputs, net.inputs, "input width mismatch");
    let mut epochs = 0;
    if data.is_empty() {
        return TrainReport { epochs, mse: 0.0 };
    }
    let n = net.weight_count();
    let mut grads = vec![0.0; n];
    let mut prev_grads = vec![0.0; n];
    let mut deltas = vec![cfg.initial_delta; n];
    let mut h = vec![0.0; net.hidden];
    // One pass per epoch: the gradients for the next update and the MSE
    // of the weights the last update left.
    let mut final_mse = pass(net, data, &mut grads, &mut h);
    for epoch in 0..cfg.max_epochs {
        for (w, weight) in net.weights.iter_mut().enumerate() {
            let sign = grads[w] * prev_grads[w];
            if sign > 0.0 {
                deltas[w] = (deltas[w] * cfg.eta_plus).min(cfg.max_delta);
                *weight -= grads[w].signum() * deltas[w];
                prev_grads[w] = grads[w];
            } else if sign < 0.0 {
                deltas[w] = (deltas[w] * cfg.eta_minus).max(cfg.min_delta);
                // RPROP+: revert is skipped; just reset gradient memory.
                prev_grads[w] = 0.0;
            } else {
                *weight -= grads[w].signum() * deltas[w];
                prev_grads[w] = grads[w];
            }
        }
        epochs = epoch + 1;
        final_mse = pass(net, data, &mut grads, &mut h);
        if final_mse < cfg.target_mse {
            break;
        }
    }
    TrainReport {
        epochs,
        mse: final_mse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_xor() {
        let mut data = Dataset::new(2);
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let t = if (a != 0.0) ^ (b != 0.0) { 1.0 } else { 0.0 };
            data.push(&[a, b], t);
        }
        let mut net = Mlp::new(2, 6, 11);
        let untrained = TrainConfig {
            max_epochs: 0,
            ..TrainConfig::default()
        };
        let before = train_rprop(&mut net, &data, &untrained);
        let report = train_rprop(&mut net, &data, &TrainConfig::default());
        assert!(report.mse < before.mse, "training must reduce error");
        assert!(report.mse < 0.01, "xor should be learnable: {report:?}");
    }

    #[test]
    fn learns_linear_function() {
        let mut data = Dataset::new(1);
        for i in 0..20 {
            let x = i as f64 / 20.0;
            data.push(&[x], 2.0 * x + 0.25);
        }
        let mut net = Mlp::new(1, 4, 5);
        let report = train_rprop(&mut net, &data, &TrainConfig::default());
        assert!(report.mse < 1e-4, "{report:?}");
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut net = Mlp::new(2, 2, 0);
        let orig = net.clone();
        let report = train_rprop(&mut net, &Dataset::new(2), &TrainConfig::default());
        assert_eq!(report.epochs, 0);
        assert_eq!(net, orig);
    }

    #[test]
    #[should_panic(expected = "inconsistent input width")]
    fn dataset_rejects_ragged_inputs() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 2.0], 1.0);
        d.push(&[1.0], 1.0);
    }

    /// A uniform draw in `[0, 1)` from the splitmix64 finalizer of `z`.
    fn unit(mut z: u64) -> f64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn training_arithmetic_is_pinned() {
        // RPROP steps by each gradient's sign alone, so a digest of the
        // weights misses a sum that rounds differently but keeps every
        // sign. The final MSE's bits do not: this pins the trainer's
        // arithmetic, on the estimator's shape and epoch budget, to the
        // generic multi-layer trainer it replaced (reversing one hidden
        // node's input sum moves the MSE by five ulps and no weight).
        let mut data = Dataset::new(11);
        for r in 0..200u64 {
            let x: Vec<f64> = (0..11).map(|c| unit(r * 11 + c)).collect();
            let t = 0.25 + 0.5 * x[0] * x[1] - 0.3 * x[2] + 0.2 * x[3] * x[3] + 0.1 * (x[4] - x[5]);
            data.push(&x, t);
        }
        let mut net = Mlp::new(11, 6, 42);
        let cfg = TrainConfig {
            max_epochs: 800,
            target_mse: 1e-6,
            ..TrainConfig::default()
        };
        let report = train_rprop(&mut net, &data, &cfg);
        // FNV-1a over every weight's little-endian bits, in layout order.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for b in net.weights.iter().flat_map(|w| w.to_bits().to_le_bytes()) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(report.epochs, 800);
        assert_eq!(report.mse.to_bits(), 0x3f28_1d0e_6f0d_26c8);
        assert_eq!(digest, 0x15b9_bac1_d07e_c00a);
    }
}
