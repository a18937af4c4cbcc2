//! Property tests over the core IR: builder/analysis invariants and
//! parameter-space algebra.

use std::collections::BTreeMap;

use dhdl_core::{by, DType, DesignBuilder, NodeKind, ParamKind, ParamSpace, ParamValues};
use proptest::prelude::*;

/// Parameter names of every length class: one byte, typical, exactly
/// the in-place capacity (22), one past it, much longer, non-ASCII, and
/// more distinct names than an assignment holds in place (8).
const NAMES: [&str; 12] = [
    "a",
    "b",
    "p",
    "ts",
    "tile",
    "mp1",
    "num_fpgas",
    "größe",
    "exactly_twenty_two_b_s",
    "twenty_three_bytes_long",
    "a_parameter_name_far_longer_than_any_benchmark_uses",
    "z",
];

/// Build a representative tiled design from arbitrary-ish knobs.
fn tiled_design(n_pow: u32, tile_pow: u32, par_pow: u32, toggle: bool) -> dhdl_core::Design {
    let n = 1u64 << n_pow;
    let tile = 1u64 << tile_pow.min(n_pow);
    let par = 1u32 << par_pow;
    let mut b = DesignBuilder::new("prop");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    b.sequential(|b| {
        b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
            let i = iters[0];
            let xt = b.bram("xT", DType::F32, &[tile]);
            let yt = b.bram("yT", DType::F32, &[tile]);
            b.tile_load(x, xt, &[i], &[tile], par);
            b.pipe(&[by(tile, 1)], par, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let w = b.mul(v, v);
                b.store(yt, &[it[0]], w);
            });
            b.tile_store(y, yt, &[i], &[tile], par);
        });
    });
    b.finish().expect("valid by construction")
}

proptest! {
    /// Banking always equals the maximum access parallelism.
    #[test]
    fn banking_matches_parallelism(n in 6u32..14, t in 3u32..10, p in 0u32..5, tog: bool) {
        let d = tiled_design(n, t, p, tog);
        for id in d.find_all(|nd| matches!(nd.kind, NodeKind::Bram(_))) {
            let NodeKind::Bram(spec) = d.kind(id) else { unreachable!() };
            prop_assert_eq!(spec.banks, 1u32 << p);
        }
    }

    /// Double-buffering tracks the MetaPipe toggle exactly.
    #[test]
    fn double_buffering_tracks_toggle(n in 6u32..12, t in 3u32..8, tog: bool) {
        let d = tiled_design(n, t, 1, tog);
        for id in d.find_all(|nd| matches!(nd.kind, NodeKind::Bram(_))) {
            let NodeKind::Bram(spec) = d.kind(id) else { unreachable!() };
            prop_assert_eq!(spec.double_buf, tog);
        }
    }

    /// Controller counts and nesting depth are structure-determined.
    #[test]
    fn hierarchy_shape_is_stable(n in 6u32..12, t in 3u32..8, p in 0u32..4, tog: bool) {
        let d = tiled_design(n, t, p, tog);
        // Sequential -> outer -> {TileLd, Pipe, TileSt}.
        prop_assert_eq!(d.controllers().len(), 5);
        prop_assert_eq!(d.nesting_depth(), 3);
        // Rebuilding yields an identical graph (determinism).
        let d2 = tiled_design(n, t, p, tog);
        prop_assert_eq!(d, d2);
    }

    /// Parameter spaces: defaults are always legal, size matches the
    /// product of per-parameter counts, and every enumerated point is
    /// legal.
    #[test]
    fn param_space_algebra(n in 1u64..4096, max_par in 1u64..64) {
        let mut s = ParamSpace::new();
        s.tile("ts", n, 1, n);
        s.par("p", n, max_par);
        s.toggle("m");
        let d = s.defaults();
        prop_assert!(s.is_legal(&d));
        let sizes: u128 = s
            .defs()
            .iter()
            .map(|d| d.kind.legal_values().len() as u128)
            .product();
        prop_assert_eq!(s.size(), sizes);
    }

    /// Tile legal values are closed under the divides relation.
    #[test]
    fn divisor_product_roundtrip(n in 1u64..100_000) {
        let kind = ParamKind::Tile { divides: n, min: 1, max: n };
        let vals = kind.legal_values();
        // 1 and n always present; all divide; sorted and unique.
        prop_assert!(vals.contains(&1));
        prop_assert!(vals.contains(&n));
        prop_assert!(vals.windows(2).all(|w| w[0] < w[1]));
        for v in vals {
            prop_assert_eq!(n % v, 0);
        }
    }

    /// `ParamValues` against a `BTreeMap<String, u64>` model: a later
    /// `set` overwrites, iteration is in name order, and equality does
    /// not depend on insertion order.
    #[test]
    fn param_values_behave_as_a_sorted_map(
        ops in prop::collection::vec((0usize..NAMES.len(), 0u64..1000), 0..40),
        rotate in 0usize..40,
    ) {
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        let mut values = ParamValues::new();
        for &(name, value) in &ops {
            model.insert(NAMES[name].to_string(), value);
            values.set(NAMES[name], value);
            prop_assert_eq!(values.get(NAMES[name]), Some(value));
        }
        let got: Vec<(String, u64)> = values.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let want: Vec<(String, u64)> = model.clone().into_iter().collect();
        prop_assert_eq!(&got, &want);
        for name in NAMES {
            prop_assert_eq!(values.get(name), model.get(name).copied());
        }
        // The final assignment, inserted in another order and collected
        // from an iterator that repeats a name, is the same value.
        let mut shuffled = want.clone();
        shuffled.rotate_left(rotate % want.len().max(1));
        let mut other = ParamValues::new();
        for (name, value) in &shuffled {
            other = other.with(name, *value);
        }
        prop_assert_eq!(&other, &values);
        let stale = want.first().map(|(name, value)| (name.clone(), value + 1));
        let collected: ParamValues = stale.into_iter().chain(want.clone()).collect();
        prop_assert_eq!(&collected, &values);
        prop_assert_eq!(collected.to_string(), values.to_string());
        if let Some((name, value)) = want.first() {
            prop_assert!(other.clone().with(name, value + 1) != values);
        }
    }

    /// ParamValues text form is stable and parseable back by key lookup.
    #[test]
    fn param_values_display(va in 0u64..1000, vb in 0u64..1000) {
        let v = ParamValues::new().with("a", va).with("b", vb);
        let s = v.to_string();
        let key_a = format!("a={va}");
        let key_b = format!("b={vb}");
        prop_assert!(s.contains(&key_a));
        prop_assert!(s.contains(&key_b));
        prop_assert_eq!(v.get("a"), Some(va));
    }
}
