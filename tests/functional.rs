//! Cross-crate functional validation: every benchmark's simulated outputs
//! must match its reference implementation (small instances, multiple
//! parameter points including both MetaPipe-toggle settings).

use dhdl_apps::{
    Benchmark, BlackScholes, DotProduct, Gda, Gemm, KMeans, OuterProduct, Saxpy, TpchQ6,
};
use dhdl_core::ParamValues;
use dhdl_sim::{simulate, Bindings, SimResult};
use dhdl_target::Platform;

fn run(bench: &dyn Benchmark, params: &ParamValues) -> SimResult {
    let design = bench
        .build(params)
        .unwrap_or_else(|e| panic!("{}: build failed: {e}", bench.name()));
    let mut bindings = Bindings::new();
    for (name, data) in bench.inputs() {
        bindings = bindings.bind(&name, data);
    }
    simulate(&design, &Platform::maia(), &bindings)
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", bench.name()))
}

fn assert_outputs_match(bench: &dyn Benchmark, params: &ParamValues, rel_tol: f64) {
    let result = run(bench, params);
    for (name, expected) in bench.reference() {
        let got = result
            .output(&name)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        assert_eq!(
            got.len(),
            expected.len(),
            "{}: output `{name}` length",
            bench.name()
        );
        let scale = expected
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1e-30);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            let err = (g - e).abs() / scale;
            assert!(
                err < rel_tol,
                "{}: `{name}`[{i}] = {g}, expected {e} (rel err {err:.2e}, params {params})",
                bench.name()
            );
        }
    }
    assert!(result.cycles > 0.0, "{}: zero cycles", bench.name());
}

#[test]
fn dotproduct_matches_reference() {
    let b = DotProduct::new(1_920);
    for (mp, ip, op) in [(1, 4, 1), (0, 1, 1), (1, 8, 2)] {
        let p = ParamValues::new()
            .with("ts", 96)
            .with("ip", ip)
            .with("op", op)
            .with("mp", mp);
        assert_outputs_match(&b, &p, 1e-4);
    }
}

#[test]
fn outerprod_matches_reference() {
    let b = OuterProduct::new(128);
    for (m1, m2) in [(0, 0), (1, 1)] {
        let p = ParamValues::new()
            .with("ts1", 32)
            .with("ts2", 64)
            .with("p", 2)
            .with("mp1", m1)
            .with("mp2", m2);
        assert_outputs_match(&b, &p, 1e-9);
    }
}

#[test]
fn gemm_matches_reference() {
    let b = Gemm::new(32, 24, 16);
    for (m1, m2) in [(1, 1), (0, 1), (1, 0)] {
        let p = ParamValues::new()
            .with("tm", 8)
            .with("tn", 12)
            .with("tk", 8)
            .with("p", 2)
            .with("mp1", m1)
            .with("mp2", m2);
        assert_outputs_match(&b, &p, 1e-4);
    }
}

#[test]
fn tpchq6_matches_reference() {
    let b = TpchQ6::new(1_920);
    let p = ParamValues::new()
        .with("ts", 96)
        .with("ip", 4)
        .with("op", 1)
        .with("mp", 1);
    assert_outputs_match(&b, &p, 1e-4);
}

#[test]
fn blackscholes_matches_reference() {
    let b = BlackScholes::new(192);
    let p = ParamValues::new()
        .with("ts", 96)
        .with("ip", 2)
        .with("mp", 1);
    // f32 CND evaluation accumulates a few ulps of error vs. the f64
    // reference; prices are O(10), so 1e-4 relative is ~millicents.
    assert_outputs_match(&b, &p, 1e-3);
}

#[test]
fn gda_matches_reference() {
    let b = Gda::new(96, 8);
    for (m1, m2) in [(1, 1), (0, 0)] {
        let p = ParamValues::new()
            .with("rts", 12)
            .with("p1", 2)
            .with("p2", 4)
            .with("m2p", 1)
            .with("m1p", 1)
            .with("m1", m1)
            .with("m2", m2);
        assert_outputs_match(&b, &p, 1e-4);
    }
}

#[test]
fn kmeans_matches_reference() {
    let b = KMeans::new(192, 4, 8);
    for mp in [0, 1] {
        let p = ParamValues::new()
            .with("pts", 24)
            .with("dp", 2)
            .with("pp", 3)
            .with("mp", mp)
            .with("mp2", 1);
        assert_outputs_match(&b, &p, 1e-4);
    }
}

#[test]
fn saxpy_matches_reference() {
    let b = Saxpy::new(384, 1.5);
    let p = ParamValues::new()
        .with("ts", 96)
        .with("ip", 4)
        .with("mp", 1);
    assert_outputs_match(&b, &p, 1e-9);
}

#[test]
fn sim_cycles_vary_with_parameters() {
    // Timing sanity: more parallelism means fewer cycles for the
    // compute-bound GDA kernel.
    let b = Gda::new(192, 16);
    let slow = run(
        &b,
        &ParamValues::new()
            .with("rts", 24)
            .with("p1", 1)
            .with("p2", 1)
            .with("m2p", 1)
            .with("m1p", 1)
            .with("m1", 0)
            .with("m2", 0),
    );
    let fast = run(
        &b,
        &ParamValues::new()
            .with("rts", 24)
            .with("p1", 4)
            .with("p2", 8)
            .with("m2p", 1)
            .with("m1p", 2)
            .with("m1", 1)
            .with("m2", 1),
    );
    assert!(
        fast.cycles < slow.cycles,
        "fast {} vs slow {}",
        fast.cycles,
        slow.cycles
    );
}

#[test]
fn fixed_point_datapath_quantizes() {
    // An elementwise kernel on a fixed-point type must quantize exactly as
    // the DType model specifies (exercising the Fix datapath end to end).
    use dhdl_core::{by, DType, DesignBuilder};
    let q = DType::fixed(true, 7, 4); // step 1/16, range ~[-128, 128)
    let n = 64u64;
    let mut b = DesignBuilder::new("fixmap");
    let x = b.off_chip("x", q, &[n]);
    let y = b.off_chip("y", q, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", q, &[n]);
        let yt = b.bram("yT", q, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let c = b.constant(0.3, q); // quantizes to 5/16
            let w = b.add(v, c);
            b.store(yt, &[it[0]], w);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let data: Vec<f64> = (0..n).map(|i| (i as f64) / 7.0 - 4.0).collect();
    let r = simulate(
        &d,
        &Platform::maia(),
        &Bindings::new().bind("x", data.clone()),
    )
    .unwrap();
    let out = r.output("y").unwrap();
    for (i, (&got, &orig)) in out.iter().zip(&data).enumerate() {
        let expected = q.quantize(q.quantize(orig) + q.quantize(0.3));
        assert_eq!(got, expected, "index {i}");
        // Outputs land on the fixed-point grid.
        assert_eq!((got * 16.0).fract(), 0.0, "index {i}: {got}");
    }
}
