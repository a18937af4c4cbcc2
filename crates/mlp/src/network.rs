//! The one network the estimator trains: `[inputs, hidden, 1]`, a
//! sigmoid hidden layer and a linear output node.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hidden layer's activation, the logistic sigmoid.
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One hidden node's output: its bias, plus each weighted input in input
/// order, through the sigmoid. `row` is the node's weights, bias last.
fn hidden_node(row: &[f64], x: &[f64]) -> f64 {
    let (weights, bias) = row.split_at(x.len());
    let mut acc = bias[0];
    for (w, xi) in weights.iter().zip(x) {
        acc += w * xi;
    }
    sigmoid(acc)
}

/// A three-layer perceptron with one linear output (§IV-B2: "three fully
/// connected layers with eleven input nodes, six hidden layer nodes, and
/// a single output node"); the widths are set at construction.
///
/// # Examples
///
/// ```
/// use dhdl_mlp::Mlp;
///
/// let net = Mlp::new(11, 6, 42);
/// assert_eq!(net.weight_count(), 6 * 12 + 7);
/// assert!(net.forward(&[0.5; 11]).is_finite());
/// ```
#[derive(Clone, PartialEq)]
pub struct Mlp {
    pub(crate) inputs: usize,
    pub(crate) hidden: usize,
    /// The hidden layer's `[hidden][inputs + 1]` rows, then the output
    /// node's `hidden + 1` weights; every bias last in its row.
    pub(crate) weights: Vec<f64>,
}

impl Mlp {
    /// Create a network with `inputs` input and `hidden` hidden nodes,
    /// weights drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero.
    pub fn new(inputs: usize, hidden: usize, seed: u64) -> Self {
        assert!(inputs > 0 && hidden > 0, "layer sizes must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(hidden * (inputs + 1) + hidden + 1);
        // Xavier-style uniform initialization, layer by layer.
        for (fan_in, fan_out) in [(inputs, hidden), (hidden, 1)] {
            let scale = (6.0 / (fan_in + fan_out) as f64).sqrt();
            weights.extend((0..fan_out * (fan_in + 1)).map(|_| rng.gen_range(-scale..scale)));
        }
        Mlp {
            inputs,
            hidden,
            weights,
        }
    }

    /// Input width of the network.
    pub fn input_size(&self) -> usize {
        self.inputs
    }

    /// Total number of trainable weights (including biases).
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    /// The hidden layer's weights and the output node's.
    pub(crate) fn layers(&self) -> (&[f64], &[f64]) {
        self.weights.split_at(self.hidden * (self.inputs + 1))
    }

    /// The hidden layer's outputs on input `x`, into `h`.
    #[inline]
    pub(crate) fn hidden_layer(&self, x: &[f64], h: &mut [f64]) {
        // Two nodes at a time: each node's sum is one dependency chain,
        // and two chains in one loop keep the core busy.
        let width = self.inputs + 1;
        let (w_hidden, _) = self.layers();
        let mut pairs = w_hidden.chunks_exact(2 * width);
        for (hp, rows) in h.chunks_exact_mut(2).zip(&mut pairs) {
            let (ra, rb) = rows.split_at(width);
            let (mut a, mut b) = (ra[self.inputs], rb[self.inputs]);
            for ((wa, wb), xi) in ra.iter().zip(rb).zip(x) {
                a += wa * xi;
                b += wb * xi;
            }
            hp[0] = sigmoid(a);
            hp[1] = sigmoid(b);
        }
        if let Some(last) = h.chunks_exact_mut(2).into_remainder().first_mut() {
            *last = hidden_node(pairs.remainder(), x);
        }
    }

    /// The output node on hidden outputs `h`: its bias, plus each
    /// weighted hidden output in node order.
    #[inline]
    pub(crate) fn output(&self, h: &[f64]) -> f64 {
        let (_, w_out) = self.layers();
        let (weights, bias) = w_out.split_at(self.hidden);
        let mut y = bias[0];
        for (w, hj) in weights.iter().zip(h) {
            y += w * hj;
        }
        y
    }

    /// Run the network on one input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_size`].
    pub fn forward(&self, x: &[f64]) -> f64 {
        self.forward_with(x, &mut Vec::new())
    }

    /// [`Mlp::forward`] with the hidden outputs in a caller-owned buffer.
    pub(crate) fn forward_with(&self, x: &[f64], h: &mut Vec<f64>) -> f64 {
        assert_eq!(x.len(), self.inputs, "input width mismatch");
        h.resize(self.hidden, 0.0);
        self.hidden_layer(x, h);
        self.output(h)
    }
}

/// Prints the two layers as the generic network this type replaced did;
/// `dhdl-estimate`'s `calibrated_bits_are_pinned` digests this text.
impl fmt::Debug for Mlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Layer<'a>(usize, usize, &'a str, &'a [f64]);
        impl fmt::Debug for Layer<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("Layer")
                    .field("inputs", &self.0)
                    .field("outputs", &self.1)
                    .field("activation", &format_args!("{}", self.2))
                    .field("weights", &self.3)
                    .finish()
            }
        }
        let (hidden, output) = self.layers();
        let layers = [
            Layer(self.inputs, self.hidden, "Sigmoid", hidden),
            Layer(self.hidden, 1, "Linear", output),
        ];
        f.debug_struct("Mlp").field("layers", &layers).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let net = Mlp::new(11, 6, 1);
        assert_eq!(net.input_size(), 11);
        assert_eq!(net.weight_count(), 6 * 12 + 7);
        assert!(net.forward(&[0.0; 11]).is_finite());
    }

    #[test]
    fn deterministic_by_seed() {
        let a = Mlp::new(4, 3, 7);
        let b = Mlp::new(4, 3, 7);
        let c = Mlp::new(4, 3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn activations() {
        // Sigmoid hidden nodes, a linear output node.
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(hidden_node(&[2.0, -1.0], &[0.5]), 0.5);
        // Nodes computed in pairs and the odd one out agree with one
        // node at a time.
        let (net, x) = (Mlp::new(2, 3, 0), [0.25, -0.5]);
        let mut h = [0.0; 3];
        net.hidden_layer(&x, &mut h);
        for (hj, row) in h.iter().zip(net.layers().0.chunks_exact(3)) {
            assert_eq!(*hj, hidden_node(row, &x));
        }
        let mut net = Mlp::new(1, 2, 0);
        net.weights = vec![0.0, 0.0, 0.0, 0.0, 3.0, -1.0, 0.25];
        assert_eq!(net.forward(&[1.0]), 0.25 + 3.0 * 0.5 - 0.5);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_checks_width() {
        let net = Mlp::new(3, 2, 0);
        net.forward(&[1.0]);
    }
}
