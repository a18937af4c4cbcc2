//! End-to-end validation of the parallel-pattern frontend: programs
//! written with map/reduce/filter patterns, fused and lowered to DHDL,
//! must simulate to exactly what the pattern interpreter computes.

use std::collections::BTreeMap;

use dhdl_core::{DType, PrimOp, ReduceOp};
use dhdl_patterns::{default_params, fuse, lower, Expr, PatternProgram};
use dhdl_sim::{simulate, Bindings};
use dhdl_target::Platform;

fn run_and_compare(prog: &PatternProgram, name: &str, inputs: &BTreeMap<String, Vec<f64>>) {
    let expected = prog.interpret(inputs);
    let design = lower(prog, name, &default_params(prog)).expect("lowering succeeds");
    let mut bindings = Bindings::new();
    for (k, v) in inputs {
        bindings = bindings.bind(k, v.clone());
    }
    let result = simulate(&design, &Platform::maia(), &bindings).expect("simulation succeeds");
    for off in design.offchips() {
        let Some(arr_name) = design.node(*off).name.as_deref() else {
            continue;
        };
        let Some(exp) = expected.get(arr_name) else {
            continue; // inputs
        };
        let got = result.output(arr_name).expect("output exists");
        assert_eq!(got.len(), exp.len(), "{name}: `{arr_name}` length");
        for (i, (g, e)) in got.iter().zip(exp).enumerate() {
            assert!(
                (g - e).abs() <= 1e-4 * e.abs().max(1.0),
                "{name}: `{arr_name}`[{i}] = {g}, expected {e}"
            );
        }
    }
    assert!(result.cycles > 0.0);
}

fn sample_inputs(names: &[&str], n: usize) -> BTreeMap<String, Vec<f64>> {
    names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let data = (0..n)
                .map(|i| (((i * 31 + k * 7) % 97) as f64 - 48.0) / 8.0)
                .map(|v| v as f32 as f64)
                .collect();
            (name.to_string(), data)
        })
        .collect()
}

#[test]
fn pattern_saxpy_matches_interpreter() {
    let mut p = PatternProgram::new();
    let x = p.input("x", 768, DType::F32);
    let y = p.input("y", 768, DType::F32);
    let ax = p.map("ax", &[x], Expr::mul(Expr::lit(2.5), Expr::input(0)));
    p.map("out", &[ax, y], Expr::add(Expr::input(0), Expr::input(1)));
    let inputs = sample_inputs(&["x", "y"], 768);
    run_and_compare(&p, "pat_saxpy", &inputs);
    run_and_compare(&fuse(&p), "pat_saxpy_fused", &inputs);
}

#[test]
fn pattern_dot_product_matches_interpreter() {
    let mut p = PatternProgram::new();
    let a = p.input("a", 1_536, DType::F32);
    let b = p.input("b", 1_536, DType::F32);
    p.reduce(
        "dot",
        &[a, b],
        Expr::mul(Expr::input(0), Expr::input(1)),
        ReduceOp::Add,
    );
    let inputs = sample_inputs(&["a", "b"], 1_536);
    run_and_compare(&p, "pat_dot", &inputs);
}

#[test]
fn pattern_squared_distance_fuses_and_matches() {
    let mut p = PatternProgram::new();
    let a = p.input("a", 1_024, DType::F32);
    let b = p.input("b", 1_024, DType::F32);
    let d = p.map("d", &[a, b], Expr::sub(Expr::input(0), Expr::input(1)));
    let sq = p.map("sq", &[d], Expr::mul(Expr::input(0), Expr::input(0)));
    p.reduce("dist", &[sq], Expr::input(0), ReduceOp::Add);
    let fused = fuse(&p);
    assert_eq!(fused.ops().len(), 1);
    let inputs = sample_inputs(&["a", "b"], 1_024);
    // Both the unfused (materializing) and fused programs must agree with
    // the interpreter on the surviving output.
    run_and_compare(&p, "pat_dist", &inputs);
    run_and_compare(&fused, "pat_dist_fused", &inputs);
}

#[test]
fn pattern_filter_reduce_matches_interpreter() {
    // A tpchq6-shaped query: sum(price * disc where 0.05 <= disc <= 0.07).
    let mut p = PatternProgram::new();
    let price = p.input("price", 960, DType::F32);
    let disc = p.input("disc", 960, DType::F32);
    let lo = Expr::bin(PrimOp::Ge, Expr::input(1), Expr::lit(-1.0));
    let hi = Expr::bin(PrimOp::Le, Expr::input(1), Expr::lit(1.0));
    let cond = Expr::bin(PrimOp::And, lo, hi);
    p.filter_reduce(
        "revenue",
        &[price, disc],
        cond,
        Expr::mul(Expr::input(0), Expr::input(1)),
        ReduceOp::Add,
    );
    let inputs = sample_inputs(&["price", "disc"], 960);
    run_and_compare(&p, "pat_q6", &inputs);
}

#[test]
fn pattern_max_reduce_matches_interpreter() {
    let mut p = PatternProgram::new();
    let a = p.input("a", 512, DType::F32);
    p.reduce(
        "max",
        &[a],
        Expr::un(PrimOp::Abs, Expr::input(0)),
        ReduceOp::Max,
    );
    let inputs = sample_inputs(&["a"], 512);
    run_and_compare(&p, "pat_max", &inputs);
}

#[test]
fn fused_program_is_cheaper_to_run() {
    let mut p = PatternProgram::new();
    let x = p.input("x", 4_096, DType::F32);
    let s1 = p.map("s1", &[x], Expr::mul(Expr::input(0), Expr::lit(3.0)));
    let s2 = p.map("s2", &[s1], Expr::add(Expr::input(0), Expr::lit(1.0)));
    p.reduce("total", &[s2], Expr::input(0), ReduceOp::Add);
    let fused = fuse(&p);
    let inputs = sample_inputs(&["x"], 4_096);
    let platform = Platform::maia();
    let cycles = |prog: &PatternProgram, name: &str| {
        let d = lower(prog, name, &default_params(prog)).unwrap();
        let mut bind = Bindings::new();
        for (k, v) in &inputs {
            bind = bind.bind(k, v.clone());
        }
        simulate(&d, &platform, &bind).unwrap().cycles
    };
    let full = cycles(&p, "chain_full");
    let short = cycles(&fused, "chain_fused");
    assert!(
        short < full * 0.7,
        "fusion must remove round-trips: {short} vs {full}"
    );
}

#[test]
fn pattern_group_by_reduce_matches_interpreter() {
    // Histogram-style: bucket values by floor(|x|) into 8 groups, sum the
    // values per bucket — the groupBy pattern §II calls out.
    let mut p = PatternProgram::new();
    let x = p.input("x", 768, DType::F32);
    let key = Expr::un(PrimOp::Abs, Expr::input(0));
    p.group_by_reduce("hist", &[x], key, Expr::lit(1.0), ReduceOp::Add, 8);
    let inputs = sample_inputs(&["x"], 768);
    run_and_compare(&p, "pat_hist", &inputs);
}

#[test]
fn pattern_fused_group_by_matches_interpreter() {
    // map producing keys and values, fused into the grouped reduction.
    let mut p = PatternProgram::new();
    let a = p.input("a", 512, DType::F32);
    let scaled = p.map("s", &[a], Expr::un(PrimOp::Abs, Expr::input(0)));
    p.group_by_reduce(
        "gmax",
        &[scaled],
        Expr::input(0),
        Expr::input(0),
        ReduceOp::Max,
        4,
    );
    let fused = fuse(&p);
    assert_eq!(fused.ops().len(), 1);
    let inputs = sample_inputs(&["a"], 512);
    run_and_compare(&fused, "pat_gmax", &inputs);
}

#[test]
fn pattern_benchmark_flows_through_the_whole_toolchain() {
    use dhdl_apps::{Arrays, Benchmark, PatternBenchmark};
    use dhdl_bench::Harness;

    let n = 1_536u64;
    let mut p = PatternProgram::new();
    let a = p.input("a", n, DType::F32);
    let b_arr = p.input("b", n, DType::F32);
    let d = p.map("d", &[a, b_arr], Expr::sub(Expr::input(0), Expr::input(1)));
    let sq = p.map("sq", &[d], Expr::mul(Expr::input(0), Expr::input(0)));
    p.reduce("dist", &[sq], Expr::input(0), ReduceOp::Add);
    let mut inputs = Arrays::new();
    for (name, seed) in [("a", 31u64), ("b", 32)] {
        let data: Vec<f64> = (0..n)
            .map(|i| ((((i + seed) * 37) % 101) as f64 / 50.0 - 1.0) as f32 as f64)
            .collect();
        inputs.insert(name.into(), data);
    }
    let bench = PatternBenchmark::new("pat_toolchain", "pattern e2e", p, inputs);

    let harness = Harness::new(0xFA7, 150);
    let dse = harness.explore(&bench);
    assert!(!dse.pareto.is_empty());
    let best = dse.best().unwrap();
    let design = bench.build(&best.params).unwrap();
    let sim = dhdl_bench::simulate_bench(&harness.platform, &bench, &design);
    let expected = bench.reference()["dist"][0];
    let got = sim.output("dist").unwrap()[0];
    assert!(
        (got - expected).abs() < 1e-3 * expected.abs().max(1.0),
        "{got} vs {expected}"
    );
    // The estimator tracked the simulated runtime for the chosen point.
    let err = (best.cycles - sim.cycles).abs() / sim.cycles;
    assert!(err < 0.3, "estimate {} vs sim {}", best.cycles, sim.cycles);
}
