//! Feed-forward multilayer perceptron.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Activation function of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (used for regression output layers).
    Linear,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Apply the activation.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative of the activation expressed in terms of the *output* `y`.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// One fully connected layer: `outputs × (inputs + 1)` weights, the last
/// column being the bias.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub(crate) inputs: usize,
    pub(crate) outputs: usize,
    pub(crate) activation: Activation,
    /// Row-major `[out][in+1]` weight matrix.
    pub(crate) weights: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // Xavier-style uniform initialization.
        let scale = (6.0 / (inputs + outputs) as f64).sqrt();
        let weights = (0..outputs * (inputs + 1))
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Layer {
            inputs,
            outputs,
            activation,
            weights,
        }
    }

    pub(crate) fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.outputs);
        for o in 0..self.outputs {
            let row = &self.weights[o * (self.inputs + 1)..(o + 1) * (self.inputs + 1)];
            let mut acc = row[self.inputs]; // bias
            for (w, xi) in row[..self.inputs].iter().zip(x) {
                acc += w * xi;
            }
            out.push(self.activation.apply(acc));
        }
    }
}

/// The two buffers a forward pass alternates between. A caller that
/// predicts repeatedly keeps one and passes it to
/// [`crate::Regressor::predict_with`], so only the first pass allocates.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) cur: Vec<f64>,
    pub(crate) next: Vec<f64>,
}

/// A fully connected feed-forward network.
///
/// The paper's area estimator uses three-layer networks with eleven input
/// nodes, six hidden nodes and one output node (§IV-B2); this type supports
/// arbitrary layer shapes.
///
/// # Examples
///
/// ```
/// use dhdl_mlp::{Activation, Mlp};
///
/// let net = Mlp::new(&[11, 6, 1], Activation::Sigmoid, 42);
/// let y = net.forward(&[0.5; 11]);
/// assert_eq!(y.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    pub(crate) layers: Vec<Layer>,
}

impl Mlp {
    /// Create a network with the given layer sizes (first entry is the
    /// input width), hidden activation, and RNG seed. The output layer is
    /// linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], hidden: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() {
                    Activation::Linear
                } else {
                    hidden
                };
                Layer::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Mlp { layers }
    }

    /// Input width of the network.
    pub fn input_size(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output width of the network.
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Total number of trainable weights (including biases).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len()).sum()
    }

    /// Run the network on one input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_size`].
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = Scratch {
            cur: x.to_vec(),
            next: Vec::new(),
        };
        self.forward_in(&mut scratch);
        scratch.cur
    }

    /// [`Mlp::forward`] on the input held in `scratch.cur`, which holds
    /// the output afterwards.
    pub(crate) fn forward_in(&self, scratch: &mut Scratch) {
        let Scratch { cur, next } = scratch;
        assert_eq!(cur.len(), self.input_size(), "input width mismatch");
        for layer in &self.layers {
            layer.forward(cur, next);
            std::mem::swap(cur, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let net = Mlp::new(&[11, 6, 1], Activation::Sigmoid, 1);
        assert_eq!(net.input_size(), 11);
        assert_eq!(net.output_size(), 1);
        assert_eq!(net.weight_count(), 6 * 12 + 7);
        assert_eq!(net.forward(&[0.0; 11]).len(), 1);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = Mlp::new(&[4, 3, 2], Activation::Tanh, 7);
        let b = Mlp::new(&[4, 3, 2], Activation::Tanh, 7);
        let c = Mlp::new(&[4, 3, 2], Activation::Tanh, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn activations() {
        assert_eq!(Activation::Linear.apply(3.5), 3.5);
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.derivative_from_output(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_checks_width() {
        let net = Mlp::new(&[3, 2], Activation::Sigmoid, 0);
        net.forward(&[1.0]);
    }
}
