//! Property tests for the neural network library.

use dhdl_mlp::{mse, train_rprop, Activation, Dataset, Mlp, Normalizer, TrainConfig};
use proptest::prelude::*;

proptest! {
    /// Normalizer: apply is bounded on in-range data and invert is the
    /// exact inverse on every column.
    #[test]
    fn normalizer_inverts(rows in prop::collection::vec(
        prop::collection::vec(-1e6f64..1e6, 3), 2..20
    )) {
        let n = Normalizer::fit(&rows);
        for row in &rows {
            let scaled = n.apply(row);
            for (c, (&s, &orig)) in scaled.iter().zip(row).enumerate() {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&s));
                let back = n.invert(c, s);
                prop_assert!((back - orig).abs() < 1e-6 * orig.abs().max(1.0));
            }
        }
    }

    /// Training never increases the final training error relative to the
    /// untrained network (RPROP on a learnable linear target).
    #[test]
    fn training_reduces_error(seed: u64, slope in -2.0f64..2.0) {
        let mut data = Dataset::new();
        for i in 0..16 {
            let x = i as f64 / 16.0;
            data.push(&[x], &[slope * x]);
        }
        let mut net = Mlp::new(&[1, 4, 1], Activation::Sigmoid, seed);
        let before = mse(&net, &data);
        let cfg = TrainConfig { max_epochs: 150, ..TrainConfig::default() };
        let report = train_rprop(&mut net, &data, &cfg);
        prop_assert!(report.mse <= before + 1e-12, "{} -> {}", before, report.mse);
    }

    /// Forward output is finite for any finite input.
    #[test]
    fn forward_is_finite(x in prop::collection::vec(-1e3f64..1e3, 4), seed: u64) {
        let net = Mlp::new(&[4, 6, 1], Activation::Tanh, seed);
        let y = net.forward(&x);
        prop_assert!(y[0].is_finite());
    }
}
