//! Network training: backpropagated gradients with the RPROP+ update rule
//! (the default trainer of the Encog library the paper used).

use crate::network::Mlp;

/// A supervised training set of `(input, target)` pairs.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    inputs: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample's shape differs from previous samples.
    pub fn push(&mut self, input: &[f64], target: &[f64]) {
        if let Some(first) = self.inputs.first() {
            assert_eq!(input.len(), first.len(), "inconsistent input width");
            assert_eq!(
                target.len(),
                self.targets[0].len(),
                "inconsistent target width"
            );
        }
        self.inputs.push(input.to_vec());
        self.targets.push(target.to_vec());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Iterate over `(input, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        self.inputs
            .iter()
            .zip(&self.targets)
            .map(|(i, t)| (i.as_slice(), t.as_slice()))
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

/// Mean squared error of `net` over `data`.
pub fn mse(net: &Mlp, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (x, t) in data.iter() {
        let y = net.forward(x);
        for (yi, ti) in y.iter().zip(t) {
            total += (yi - ti) * (yi - ti);
            count += 1;
        }
    }
    total / count as f64
}

/// The buffers of [`Backprop::pass`], reused across samples and epochs.
#[derive(Default)]
struct Backprop {
    /// Every layer's output for the current sample; index 0 is the input.
    acts: Vec<Vec<f64>>,
    /// The current layer's deltas.
    deltas: Vec<f64>,
    /// The deltas propagated to the layer below.
    prev: Vec<f64>,
}

impl Backprop {
    /// Accumulate full-batch gradients of the MSE loss into `grads`
    /// (flattened in the same order as the network's weights) and return
    /// the MSE at the current weights, both from the same forward passes:
    /// the sums run in [`mse`]'s order, so the two agree bit for bit.
    fn pass(&mut self, net: &Mlp, data: &Dataset, grads: &mut [f64]) -> f64 {
        grads.fill(0.0);
        let Backprop { acts, deltas, prev } = self;
        acts.resize_with(net.layers.len() + 1, Vec::new);
        let mut total = 0.0;
        let mut count = 0usize;
        for (x, t) in data.iter() {
            assert_eq!(x.len(), net.input_size(), "input width mismatch");
            acts[0].clear();
            acts[0].extend_from_slice(x);
            for (li, layer) in net.layers.iter().enumerate() {
                let (done, rest) = acts.split_at_mut(li + 1);
                layer.forward(&done[li], &mut rest[0]);
            }
            let y = &acts[net.layers.len()];
            for (yi, ti) in y.iter().zip(t) {
                total += (yi - ti) * (yi - ti);
                count += 1;
            }
            // Backward pass: delta for the output layer is (y - t) * f'(y).
            deltas.clear();
            deltas.extend(y.iter().zip(t).map(|(&y, &ti)| y - ti));
            let mut offset = grads.len();
            for (li, layer) in net.layers.iter().enumerate().rev() {
                let input = &acts[li];
                let output = &acts[li + 1];
                let width = layer.inputs + 1;
                offset -= layer.weights.len();
                // Apply activation derivative to deltas.
                for (d, &y) in deltas.iter_mut().zip(output) {
                    *d *= layer.activation.derivative_from_output(y);
                }
                // Weight gradients, the bias last in each row.
                let rows = grads[offset..offset + layer.weights.len()].chunks_exact_mut(width);
                for (row, &delta) in rows.zip(deltas.iter()) {
                    let (weights, bias) = row.split_at_mut(layer.inputs);
                    for (g, &xi) in weights.iter_mut().zip(input) {
                        *g += delta * xi;
                    }
                    bias[0] += delta;
                }
                // Propagate deltas to the previous layer.
                if li > 0 {
                    prev.clear();
                    prev.resize(layer.inputs, 0.0);
                    for (row, &delta) in layer.weights.chunks_exact(width).zip(deltas.iter()) {
                        for (p, &w) in prev.iter_mut().zip(row) {
                            *p += delta * w;
                        }
                    }
                    std::mem::swap(deltas, prev);
                }
            }
        }
        total / count as f64
    }
}

/// Train `net` on `data` with resilient backpropagation (RPROP+).
///
/// RPROP adapts a per-weight step size from the *sign* of successive
/// gradients, which makes it robust to feature scaling — the reason Encog
/// uses it as the default trainer.
pub fn train_rprop(net: &mut Mlp, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    let mut epochs = 0;
    if data.is_empty() {
        return TrainReport {
            epochs,
            mse: mse(net, data),
        };
    }
    let n = net.weight_count();
    let mut grads = vec![0.0; n];
    let mut prev_grads = vec![0.0; n];
    let mut deltas = vec![cfg.initial_delta; n];
    // One pass per epoch: the gradients for the next update and the MSE
    // of the weights the last update left.
    let mut backprop = Backprop::default();
    let mut final_mse = backprop.pass(net, data, &mut grads);
    for epoch in 0..cfg.max_epochs {
        let mut w = 0usize;
        for layer in net.layers.iter_mut() {
            for weight in layer.weights.iter_mut() {
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
                w += 1;
            }
        }
        epochs = epoch + 1;
        final_mse = backprop.pass(net, data, &mut grads);
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
    use crate::network::Activation;

    #[test]
    fn learns_xor() {
        let mut data = Dataset::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let t = if (a != 0.0) ^ (b != 0.0) { 1.0 } else { 0.0 };
            data.push(&[a, b], &[t]);
        }
        let mut net = Mlp::new(&[2, 6, 1], Activation::Sigmoid, 11);
        let before = mse(&net, &data);
        let report = train_rprop(&mut net, &data, &TrainConfig::default());
        assert!(report.mse < before, "training must reduce error");
        assert!(report.mse < 0.01, "xor should be learnable: {report:?}");
    }

    #[test]
    fn learns_linear_function() {
        let mut data = Dataset::new();
        for i in 0..20 {
            let x = i as f64 / 20.0;
            data.push(&[x], &[2.0 * x + 0.25]);
        }
        let mut net = Mlp::new(&[1, 4, 1], Activation::Sigmoid, 5);
        let report = train_rprop(&mut net, &data, &TrainConfig::default());
        assert!(report.mse < 1e-4, "{report:?}");
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut net = Mlp::new(&[2, 2, 1], Activation::Sigmoid, 0);
        let orig = net.clone();
        let report = train_rprop(&mut net, &Dataset::new(), &TrainConfig::default());
        assert_eq!(report.epochs, 0);
        assert_eq!(net, orig);
    }

    #[test]
    #[should_panic(expected = "inconsistent input width")]
    fn dataset_rejects_ragged_inputs() {
        let mut d = Dataset::new();
        d.push(&[1.0, 2.0], &[1.0]);
        d.push(&[1.0], &[1.0]);
    }
}
