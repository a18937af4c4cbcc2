//! Differential conformance: the tape-compiled backend must be
//! *bit-identical* to the interpreter — outputs, cycles, transfers,
//! profile, trace, and errors — on every design either can run.
//!
//! Two assumptions both backends lean on are pinned here as well, on
//! the interpreter alone: a constant read from its slot is the constant
//! quantized at the read, and timing is a function of the design, not of
//! the data.
//!
//! And one the tape leans on alone, `width-differential`: a kernel the
//! hazard analysis runs in 32-lane blocks — slice copies, splats,
//! elided quantization, uniform ops and all — computes what the same
//! kernel computes one iteration at a time.

mod common;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use dhdl_core::{by, DType, Design, DesignBuilder, NodeId, NodeKind, PipeSpec, PrimOp, ReduceOp};
use dhdl_sim::{compile, simulate, simulate_compiled, Bindings, Compiled, SimError};
use dhdl_target::Platform;

/// Also holds `timing` to both runs ([`common::assert_timing_entry`]).
fn assert_identical(d: &dhdl_core::Design, bindings: &Bindings) {
    common::assert_timing_entry(d, bindings);
    let p = Platform::maia();
    let interp = simulate(d, &p, bindings);
    let tape = simulate_compiled(d, &p, bindings);
    match (&interp, &tape) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.bit_diff(b), None, "backends diverge on `{}`", d.name());
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "backends raise different errors"),
        _ => panic!("one backend errored: interp={interp:?} tape={tape:?}"),
    }
}

/// `timing-independence`: the interpreter, run on two input sets, may
/// differ in its outputs and in nothing else. The tape stamps one
/// precomputed timing on every run and the interpreter schedules each
/// pipe once per run; both are sound only if this holds.
fn assert_timing_independent(d: &Design, first: &Bindings, second: &Bindings) {
    let p = Platform::maia();
    let a = simulate(d, &p, first).expect("first input set runs");
    let b = simulate(d, &p, second).expect("second input set runs");
    let name = d.name();
    assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "`{name}` cycles");
    assert_eq!(a.transfers, b.transfers, "`{name}` transfers");
    assert_eq!(a.profile(), b.profile(), "`{name}` profile");
    assert_eq!(a.trace().events(), b.trace().events(), "`{name}` trace");
}

/// `width-differential`: `run` against `run_serial`, every kernel held
/// at width 1 — the order that needs no proof. Returns how many kernels
/// the comparison actually covered (the blocked ones).
fn assert_width_independent(name: &str, compiled: &Compiled, bindings: &Bindings) -> usize {
    match (compiled.run(bindings), compiled.run_serial(bindings)) {
        (Ok(a), Ok(b)) => assert_eq!(a.bit_diff(&b), None, "`{name}`: blocks vs width 1"),
        (Err(a), Err(b)) => assert_eq!(a, b, "`{name}`: blocks and width 1 raise different errors"),
        (a, b) => panic!("`{name}`: one width errored: blocks={a:?} width 1={b:?}"),
    }
    compiled.kernels().0
}

fn dot_product() -> dhdl_core::Design {
    let n = 256u64;
    let tile = 64u64;
    let mut b = DesignBuilder::new("dot");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    let out = b.off_chip("out", DType::F32, &[1]);
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F32, 0.0);
        b.outer_fold(true, &[by(n, tile)], 1, acc, ReduceOp::Add, |b, iters| {
            let i = iters[0];
            let xt = b.bram("xT", DType::F32, &[tile]);
            let yt = b.bram("yT", DType::F32, &[tile]);
            let partial = b.reg("partial", DType::F32, 0.0);
            b.parallel(|b| {
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.tile_load(y, yt, &[i], &[tile], 1);
            });
            b.pipe_reduce(&[by(tile, 1)], 2, partial, ReduceOp::Add, |b, it| {
                let a = b.load(xt, &[it[0]]);
                let c = b.load(yt, &[it[0]]);
                b.mul(a, c)
            });
            partial
        });
        let ot = b.bram("outT", DType::F32, &[1]);
        b.pipe(&[by(1, 1)], 1, |b, it| {
            let a = b.load_reg(acc);
            b.store(ot, &[it[0]], a);
        });
        let z = b.index_const(0);
        b.tile_store(out, ot, &[z], &[1], 1);
    });
    b.finish().unwrap()
}

#[test]
fn dot_product_matches_bitwise() {
    let d = dot_product();
    let xs: Vec<f64> = (0..256).map(|i| (i % 7) as f64 * 0.5).collect();
    let ys: Vec<f64> = (0..256).map(|i| (i % 5) as f64 - 2.0).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs).bind("y", ys));
}

#[test]
fn compile_once_run_many_inputs() {
    let d = dot_product();
    let p = Platform::maia();
    let compiled = compile(&d, &p).unwrap();
    assert!(compiled.instruction_count() > 0);
    for seed in 0..4u64 {
        let xs: Vec<f64> = (0..256).map(|i| ((i + seed) % 11) as f64 * 0.25).collect();
        let ys: Vec<f64> = (0..256)
            .map(|i| ((i * 3 + seed) % 13) as f64 - 6.0)
            .collect();
        let bindings = Bindings::new().bind("x", xs).bind("y", ys);
        let a = simulate(&d, &p, &bindings).unwrap();
        let b = compiled.run(&bindings).unwrap();
        assert_eq!(a.bit_diff(&b), None, "seed {seed}");
        assert_timing_independent(&d, &bindings, &Bindings::new());
    }
}

#[test]
fn elementwise_map_matches_bitwise() {
    let n = 128u64;
    let mut b = DesignBuilder::new("sq");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", DType::F32, &[n]);
        let yt = b.bram("yT", DType::F32, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let w = b.mul(v, v);
            b.store(yt, &[it[0]], w);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs));
}

#[test]
fn two_d_tiles_match_bitwise() {
    let (r, c) = (8u64, 16u64);
    let mut b = DesignBuilder::new("t2d");
    let x = b.off_chip("x", DType::F32, &[r, c]);
    let y = b.off_chip("y", DType::F32, &[r, c]);
    b.sequential(|b| {
        b.sequential_ctr(&[by(r, 4)], 1, |b, iters| {
            let i = iters[0];
            let t = b.bram("t", DType::F32, &[4, c]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[i, z], &[4, c], 1);
            b.pipe(&[by(4, 1), by(c, 1)], 1, |b, it| {
                let v = b.load(t, &[it[0], it[1]]);
                let one = b.constant(1.0, DType::F32);
                let w = b.add(v, one);
                b.store(t, &[it[0], it[1]], w);
            });
            b.tile_store(y, t, &[i, z], &[4, c], 1);
        });
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..r * c).map(|i| i as f64).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs));
}

/// A `TileLoad` (or `TileStore`) of `tile` at constant `offsets` on the
/// `F64` array `x` of extent `dims`, run `runs` times by an outer loop;
/// with more than one run, the loop's iterator is the outermost offset
/// (`offsets[0]` is then 0). Both backends must raise `expected`; the
/// interpreter's walk visits elements row-major and checks each element's
/// axes innermost first.
fn tile_overrun(dims: &[u64], tile: &[u64], offsets: &[u64], runs: u64, expected: SimError) {
    assert!(runs == 1 || offsets[0] == 0);
    for load in [true, false] {
        let mut b = DesignBuilder::new("tile_oob");
        let x = b.off_chip("x", DType::F64, dims);
        b.sequential(|b| {
            b.sequential_ctr(&[by(runs, 1)], 1, |b, iters| {
                let t = b.bram("t", DType::F64, tile);
                let mut at: Vec<NodeId> = offsets.iter().map(|&o| b.index_const(o)).collect();
                if runs > 1 {
                    at[0] = iters[0];
                }
                if load {
                    b.tile_load(x, t, &at, tile, 1);
                } else {
                    b.tile_store(x, t, &at, tile, 1);
                }
            });
        });
        let d = b.finish().unwrap();
        let data = Bindings::new().bind("x", vec![1.5; dims.iter().product::<u64>() as usize]);
        let p = Platform::maia();
        let interp = simulate(&d, &p, &data);
        assert_eq!(
            interp.as_ref().err(),
            Some(&expected),
            "load={load}: {interp:?}"
        );
        let tape = compile(&d, &p).expect("the tape compiles").run(&data);
        assert_eq!(
            tape.as_ref().err(),
            Some(&expected),
            "load={load}: {tape:?}"
        );
        common::assert_timing_entry(&d, &data);
    }
}

#[test]
fn a_two_d_tile_overrun_is_reported_at_its_first_element() {
    let x = NodeId::from_raw(0);
    let oob = |index, size| SimError::OutOfBounds {
        mem: x,
        index,
        size,
    };
    // The outer axis leaves the 4×8 array on the tile's second row, in
    // the loop's fourth execution (offset 3).
    tile_overrun(&[4, 8], &[2, 8], &[0, 0], 4, oob(4, 4));
    // The inner axis overruns in the middle of the first row.
    tile_overrun(&[4, 8], &[2, 8], &[0, 4], 1, oob(8, 8));
    // The outer axis leaves it on the tile's third row, mid-execution.
    tile_overrun(&[4, 8], &[3, 6], &[2, 2], 1, oob(4, 4));
    // Both axes out at the first element: the inner one is reported.
    tile_overrun(&[4, 8], &[2, 8], &[4, 8], 1, oob(8, 8));
}

#[test]
fn a_three_d_tile_overrun_is_reported_at_its_first_element() {
    let x = NodeId::from_raw(0);
    let oob = |index, size| SimError::OutOfBounds {
        mem: x,
        index,
        size,
    };
    // The middle axis leaves the 2×3×4 array on the tile's second row.
    tile_overrun(&[2, 3, 4], &[1, 2, 4], &[0, 2, 0], 1, oob(3, 3));
    // The outermost axis leaves it on the second plane, in the loop's
    // second execution.
    tile_overrun(&[2, 3, 4], &[2, 3, 4], &[0, 0, 0], 2, oob(2, 2));
    // The inner axis overruns mid-row, on the array's second plane.
    tile_overrun(&[2, 3, 4], &[1, 2, 4], &[1, 1, 1], 1, oob(4, 4));
    // Every axis out at the first element, then the outer two only: the
    // innermost axis that is out is reported.
    tile_overrun(&[2, 3, 4], &[1, 1, 1], &[5, 6, 7], 1, oob(7, 4));
    tile_overrun(&[2, 3, 4], &[1, 1, 1], &[5, 6, 0], 1, oob(6, 3));
}

#[test]
fn metapipe_schedule_matches_bitwise() {
    for toggle in [false, true] {
        let n = 2048u64;
        let tile = 256u64;
        let mut b = DesignBuilder::new("mp");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.sqrt(v);
                    b.store(yt, &[it[0]], w);
                });
                b.tile_store(y, yt, &[i], &[tile], 1);
            });
        });
        let d = b.finish().unwrap();
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.125).collect();
        assert_identical(&d, &Bindings::new().bind("x", xs));
    }
}

#[test]
fn parallel_outer_fold_matches_bitwise() {
    // par > 1 exercises the wave schedule: untimed replica members must
    // still execute functionally, in the same linear order.
    let mut b = DesignBuilder::new("fold");
    let out = b.off_chip("out", DType::F32, &[4]);
    b.sequential(|b| {
        let acc = b.bram("acc", DType::F32, &[4]);
        b.outer_fold(true, &[by(8, 1)], 2, acc, ReduceOp::Add, |b, iters| {
            let i = iters[0];
            let t = b.bram("t", DType::F32, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let iv = b.prim(PrimOp::Add, &[i, it[0]]);
                b.store(t, &[it[0]], iv);
            });
            t
        });
        let z = b.index_const(0);
        b.tile_store(out, acc, &[z], &[4], 1);
    });
    let d = b.finish().unwrap();
    assert_identical(&d, &Bindings::new());
}

#[test]
fn priority_queue_matches_bitwise() {
    let mut b = DesignBuilder::new("pq");
    let out = b.off_chip("out", DType::F32, &[4]);
    b.sequential(|b| {
        let q = b.priority_queue("q", DType::F32, 8);
        let ot = b.bram("ot", DType::F32, &[4]);
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let four = b.constant(4.0, DType::F32);
            let v = b.sub(four, it[0]);
            b.store(q, &[], v);
        });
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let v = b.load(q, &[]);
            b.store(ot, &[it[0]], v);
        });
        let z = b.index_const(0);
        b.tile_store(out, ot, &[z], &[4], 1);
    });
    let d = b.finish().unwrap();
    assert_identical(&d, &Bindings::new());
}

#[test]
fn mux_and_fixed_point_match_bitwise() {
    let n = 64u64;
    let mut b = DesignBuilder::new("fx");
    let x = b.off_chip("x", DType::fixed(true, 10, 6), &[n]);
    let y = b.off_chip("y", DType::fixed(true, 10, 6), &[n]);
    b.sequential(|b| {
        let ty = DType::fixed(true, 10, 6);
        let xt = b.bram("xT", ty, &[n]);
        let yt = b.bram("yT", ty, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let thresh = b.constant(3.5, ty);
            let sel = b.prim(PrimOp::Gt, &[v, thresh]);
            let half = b.constant(0.5, ty);
            let scaled = b.mul(v, half);
            let picked = b.mux(sel, scaled, v);
            b.store(yt, &[it[0]], picked);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.17 - 3.0).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs));
}

#[test]
fn runtime_out_of_bounds_error_matches() {
    let mut b = DesignBuilder::new("oob");
    let x = b.off_chip("x", DType::F32, &[8]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[8]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[8], 1);
        b.pipe(&[by(8, 1)], 1, |b, it| {
            let v = b.load(t, &[it[0]]);
            let w = b.load(t, &[v]);
            b.store(t, &[it[0]], w);
        });
    });
    let d = b.finish().unwrap();
    // Both the failing case (address 100 out of 8) and a passing one.
    assert_identical(&d, &Bindings::new().bind("x", vec![100.0; 8]));
    assert_identical(&d, &Bindings::new().bind("x", vec![3.0; 8]));
}

#[test]
fn binding_errors_match() {
    let mut b = DesignBuilder::new("bad");
    let x = b.off_chip("x", DType::F32, &[16]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[16]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[16], 1);
    });
    let d = b.finish().unwrap();
    // Shape mismatch.
    assert_identical(&d, &Bindings::new().bind("x", vec![1.0; 3]));
    // Unknown binding name.
    assert_identical(&d, &Bindings::new().bind("nope", vec![1.0; 16]));
}

#[test]
fn unknown_output_lists_names_on_both_backends() {
    let mut b = DesignBuilder::new("out");
    let x = b.off_chip("x", DType::F32, &[4]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[4]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[4], 1);
    });
    let d = b.finish().unwrap();
    common::assert_timing_entry(&d, &Bindings::new());
    let p = Platform::maia();
    for r in [
        simulate(&d, &p, &Bindings::new()).unwrap(),
        simulate_compiled(&d, &p, &Bindings::new()).unwrap(),
    ] {
        let err = r.output("nope").unwrap_err();
        match err {
            SimError::UnknownOutput { name, available } => {
                assert_eq!(name, "nope");
                assert_eq!(available, vec!["x".to_string()]);
            }
            other => panic!("expected UnknownOutput, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// The half of the tape the fuzzer never generates: bodies the hazard
// analysis must hold at width 1, and block-boundary cases of the ones it
// lets run 32 wide. Every case goes through `assert_identical` and
// states the `(blocked, serial)` census it expects, so an analysis that
// changes its mind shows up here and not as a slow (or wrong) row.
// ---------------------------------------------------------------------

/// `x[n]` is tile-loaded into `xT`, `body` builds the pipes, `yT[n]` is
/// tile-stored to `y`; `x[i] = f(i)`. Everything is `F64`, so no
/// quantization step can absorb a wrong low bit. Asserts the kernel
/// census, then bit identity, then that feeding `x` back to front moves
/// no timing.
fn check(
    n: u64,
    f: impl Fn(u64) -> f64,
    census: (usize, usize),
    body: impl FnOnce(&mut DesignBuilder, NodeId, NodeId),
    patch: impl FnOnce(&mut Design),
) {
    let mut b = DesignBuilder::new("case");
    let x = b.off_chip("x", DType::F64, &[n]);
    let y = b.off_chip("y", DType::F64, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", DType::F64, &[n]);
        let yt = b.bram("yT", DType::F64, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        body(b, xt, yt);
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let mut d = b.finish().unwrap();
    patch(&mut d);
    let compiled = compile(&d, &Platform::maia()).unwrap();
    assert_eq!(compiled.kernels(), census, "(blocked, serial) kernels");
    let forward = Bindings::new().bind("x", (0..n).map(&f).collect());
    assert_identical(&d, &forward);
    assert_eq!(
        assert_width_independent("case", &compiled, &forward),
        census.0
    );
    // (A case that pins an error has no timing to compare.)
    if simulate(&d, &Platform::maia(), &forward).is_ok() {
        let backward = Bindings::new().bind("x", (0..n).rev().map(&f).collect());
        assert_timing_independent(&d, &forward, &backward);
    }
}

fn no_patch(_: &mut Design) {}

/// The pipe whose body holds `n`.
fn pipe_of(d: &mut Design, n: NodeId) -> &mut PipeSpec {
    let id = d
        .find_all(|node| matches!(&node.kind, NodeKind::Pipe(p) if p.body.contains(&n)))
        .pop()
        .expect("a pipe holds the node");
    match &mut d.node_mut(id).kind {
        NodeKind::Pipe(p) => p,
        _ => unreachable!(),
    }
}

fn wobble(i: u64) -> f64 {
    ((i * 37) % 23) as f64 * 0.375 - 3.0
}

#[test]
fn register_recurrence_argmin_is_serial() {
    check(
        40,
        |i| wobble(i) - i as f64 * 0.125, // the minimum keeps moving
        (0, 1),
        |b, xt, yt| {
            let best = b.reg("best", DType::F64, 1e9);
            let best_i = b.reg("bestI", DType::F64, 0.0);
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let prev = b.load_reg(best);
                let prev_i = b.load_reg(best_i);
                let better = b.lt(v, prev);
                let nd = b.mux(better, v, prev);
                let ni = b.mux(better, it[0], prev_i);
                b.store_reg(best, nd);
                b.store_reg(best_i, ni);
                // The running argmin, iteration by iteration.
                b.store(yt, &[it[0]], ni);
            });
        },
        no_patch,
    );
}

#[test]
fn accumulate_at_an_inner_invariant_address_is_serial() {
    // acc[c] += x[c * 10 + j] across the innermost j: the address does
    // not move with the innermost counter.
    check(
        40,
        wobble,
        (0, 1),
        |b, xt, yt| {
            b.pipe(&[by(4, 1), by(10, 1)], 1, |b, it| {
                let ten = b.index_const(10);
                let row = b.mul(it[0], ten);
                let i = b.add(row, it[1]);
                let v = b.load(xt, &[i]);
                let prev = b.load(yt, &[it[0]]);
                let s = b.add(prev, v);
                b.store(yt, &[it[0]], s);
            });
        },
        no_patch,
    );
}

#[test]
fn scatter_through_a_loaded_index_is_serial() {
    // y[x[i] mod 8] += 1: a histogram. Colliding indices make every
    // iteration depend on the previous ones.
    check(
        40,
        |i| ((i * 5) % 8) as f64,
        (0, 1),
        |b, xt, yt| {
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let k = b.load(xt, &[it[0]]);
                let prev = b.load(yt, &[k]);
                let one = b.constant(1.0, DType::F64);
                let s = b.add(prev, one);
                b.store(yt, &[k], s);
            });
        },
        no_patch,
    );
}

#[test]
fn reading_a_slot_a_later_op_writes_sees_the_previous_iteration() {
    // s = x[i] + t; t = s * 0.5 — with `s` rewired to read `t`, which the
    // body only produces afterwards: iteration i reads iteration i-1's
    // `t`, and the first iteration whatever the slot held (0.0).
    let nodes = Cell::new(None);
    check(
        40,
        wobble,
        (0, 1),
        |b, xt, yt| {
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let s = b.add(v, v);
                let half = b.constant(0.5, DType::F64);
                let t = b.mul(s, half);
                b.store(yt, &[it[0]], t);
                nodes.set(Some((s, v, t)));
            });
        },
        |d| {
            let (s, v, t) = nodes.get().unwrap();
            d.node_mut(s).kind = NodeKind::Prim {
                op: PrimOp::Add,
                inputs: [v, t].into(),
            };
        },
    );
}

#[test]
fn an_iter_in_the_body_is_requantized_in_place() {
    // The pipe's own iterator, narrowed to ufix2.0 and listed in the
    // body: re-bound every iteration, so lanes are independent (blocked)
    // and everything after it sees min(i, 3).
    let own = Cell::new(None);
    check(
        40,
        wobble,
        (1, 0),
        |b, xt, yt| {
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let w = b.add(v, it[0]);
                b.store(yt, &[it[0]], w);
                own.set(Some((it[0], v)));
            });
        },
        |d| {
            let (it, v) = own.get().unwrap();
            d.node_mut(it).ty = DType::fixed(false, 2, 0);
            let body = &mut pipe_of(d, v).body;
            body.insert(1, it); // after the load, before the add
        },
    );
    // An enclosing controller's iterator: bound once per outer
    // iteration, so the pipe's first iteration reads it raw and every
    // later one clamped — a recurrence through the slot (serial).
    let outer = Cell::new(None);
    check(
        40,
        wobble,
        (0, 1),
        |b, xt, yt| {
            b.sequential_ctr(&[by(40, 8)], 1, |b, oi| {
                b.pipe(&[by(8, 1)], 1, |b, it| {
                    let i = b.add(oi[0], it[0]);
                    let v = b.load(xt, &[i]);
                    b.store(yt, &[i], v);
                    outer.set(Some((oi[0], v)));
                });
            });
        },
        |d| {
            let (oi, v) = outer.get().unwrap();
            d.node_mut(oi).ty = DType::fixed(false, 4, 0);
            pipe_of(d, v).body.push(oi);
        },
    );
}

#[test]
fn queue_pop_and_push_in_one_body_is_serial() {
    check(
        12,
        wobble,
        (0, 2),
        |b, xt, yt| {
            let q = b.priority_queue("q", DType::F64, 16);
            b.pipe(&[by(12, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                b.store(q, &[], v);
            });
            // Pop the minimum, push back its double, emit the popped one.
            b.pipe(&[by(12, 1)], 1, |b, it| {
                let v = b.load(q, &[]);
                let w = b.add(v, v);
                b.store(q, &[], w);
                b.store(yt, &[it[0]], v);
            });
        },
        no_patch,
    );
}

#[test]
fn out_of_bounds_store_raises_the_interpreters_error() {
    // Serial: the scatter index leaves the memory in iteration 3.
    check(
        40,
        |i| if i == 3 { 40.0 } else { (i % 8) as f64 },
        (0, 1),
        |b, xt, yt| {
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let k = b.load(xt, &[it[0]]);
                let prev = b.load(yt, &[k]);
                b.store(yt, &[k], prev);
            });
        },
        no_patch,
    );
    // Blocked: iteration 40 (second block, lane 8) leaves `yT` at the
    // second store; iteration 41 leaves the larger `zT` at the first.
    // Lane-major evaluation meets 41's first, the interpreter 40's.
    check(
        64,
        |i| match i {
            40 => 64.0,
            41 => 200.0,
            _ => i as f64,
        },
        (1, 0),
        |b, xt, yt| {
            let zt = b.bram("zT", DType::F64, &[128]);
            b.pipe(&[by(64, 1)], 1, |b, it| {
                let k = b.load(xt, &[it[0]]);
                b.store(zt, &[k], k);
                b.store(yt, &[k], it[0]);
            });
        },
        no_patch,
    );
}

#[test]
fn structural_abort_after_two_body_ops() {
    // The third body node loses its operands: the interpreter evaluates
    // the two before it, then raises `Malformed` — unless one of those
    // two fails first. The kernel is the two loads, run once.
    for first in [2.0, 99.0] {
        let third = Cell::new(None);
        check(
            8,
            |_| first,
            (1, 0),
            |b, xt, yt| {
                b.pipe(&[by(2, 1), by(4, 1)], 1, |b, it| {
                    let k = b.load(xt, &[it[1]]);
                    let v = b.load(xt, &[k]);
                    let w = b.add(v, v);
                    b.store(yt, &[it[1]], w);
                    third.set(Some(w));
                });
            },
            |d| {
                d.node_mut(third.get().unwrap()).kind = NodeKind::Prim {
                    op: PrimOp::Add,
                    inputs: [].into(),
                };
            },
        );
    }
}

#[test]
fn a_body_of_more_than_64_ops_is_blocked() {
    check(
        100,
        wobble,
        (1, 0),
        |b, xt, yt| {
            b.pipe(&[by(100, 1)], 1, |b, it| {
                let mut v = b.load(xt, &[it[0]]);
                let c = b.constant(1.0625, DType::F64);
                for k in 0..70 {
                    v = if k % 2 == 0 { b.mul(v, c) } else { b.add(v, c) };
                }
                b.store(yt, &[it[0]], v);
            });
        },
        no_patch,
    );
}

#[test]
fn trip_counts_around_the_block_width() {
    for n in [1, 31, 32, 33] {
        check(
            n,
            wobble,
            (2, 0),
            |b, xt, yt| {
                let sum = b.reg("sum", DType::F64, 0.0);
                b.pipe_reduce(&[by(n, 1)], 1, sum, ReduceOp::Add, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    b.mul(v, v)
                });
                b.pipe(&[by(n, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let s = b.load_reg(sum);
                    let w = b.add(v, s);
                    b.store(yt, &[it[0]], w);
                });
            },
            no_patch,
        );
    }
}

#[test]
fn constants_read_from_their_slot_equal_constants_quantized_per_read() {
    // Three constants their types cannot represent: 0.3 at sfix3.2 is
    // 0.25, 0.1 at f32 is 0.100000001490116…, 1.6 and 2.6 at the index
    // type are 2 and 3. `c3` and `c1` are read as body operands before
    // *and* after the body evaluates the `Const` nodes themselves (the
    // patch lists them mid-body, as a parsed design may); `off` and `k`
    // are never in a body: a tile offset and a load address.
    let n = 8u64;
    let consts = Cell::new(None);
    let mut b = DesignBuilder::new("consts");
    let x = b.off_chip("x", DType::F64, &[n + 4]);
    let y = b.off_chip("y", DType::F64, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", DType::F64, &[n]);
        let yt = b.bram("yT", DType::F64, &[n]);
        let off = b.constant(1.6, DType::index());
        b.tile_load(x, xt, &[off], &[n], 1);
        let c3 = b.constant(0.3, DType::fixed(true, 3, 2));
        let c1 = b.constant(0.1, DType::F32);
        let k = b.constant(2.6, DType::index());
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let before = b.add(v, c3);
            let mid = b.add(before, c1);
            let after = b.add(mid, c3);
            let w = b.load(xt, &[k]);
            let sum = b.add(after, w);
            b.store(yt, &[it[0]], sum);
            consts.set(Some((c3, c1, mid)));
        });
        let z = b.index_const(0);
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let mut d = b.finish().unwrap();
    let (c3, c1, mid) = consts.get().unwrap();
    let body = &mut pipe_of(&mut d, mid).body;
    let at = body.iter().position(|&n| n == mid).unwrap();
    body.splice(at..at, [c3, c1]); // after `before`, before `mid`
    let xs: Vec<f64> = (0..n + 4).map(wobble).collect();
    let bindings = Bindings::new().bind("x", xs.clone());
    let r = simulate(&d, &Platform::maia(), &bindings).unwrap();
    let expected: Vec<f64> = (0..n as usize)
        .map(|i| ((xs[i + 2] + 0.25) + f64::from(0.1f32)) + 0.25 + xs[3 + 2])
        .collect();
    assert_eq!(r.output("y").unwrap(), expected);
    assert_identical(&d, &bindings);
}

/// `f(name, design, inputs)` for each of the nine applications at
/// default parameters and dataset sizes. Unoptimized, gemm alone is
/// seconds a run, so the applications run side by side.
fn on_the_nine_applications(f: impl Fn(&str, &Design, BTreeMap<String, Vec<f64>>) + Sync) {
    let names: Vec<&str> = dhdl_apps::all()
        .iter()
        .chain(&dhdl_apps::dnn())
        .map(|bench| bench.name())
        .collect();
    assert_eq!(names.len(), 9);
    std::thread::scope(|s| {
        for name in names {
            let f = &f;
            s.spawn(move || {
                let bench = dhdl_apps::by_name(name).unwrap();
                let d = bench.build(&bench.default_params()).unwrap();
                f(name, &d, bench.inputs());
            });
        }
    });
}

#[test]
fn timing_is_independent_of_the_data_on_the_nine_applications() {
    on_the_nine_applications(|name, d, inputs| {
        // The second set is the first with every array back to
        // front and rotated: new data in every position, each
        // value still in the domain its column was drawn from.
        let (mut first, mut second) = (Bindings::new(), Bindings::new());
        for (i, (array, data)) in inputs.into_iter().enumerate() {
            let mut other = data.clone();
            other.reverse();
            other.rotate_left((7 * i + 3) % data.len());
            assert_ne!(other, data, "{name}: `{array}` did not move");
            first = first.bind(&array, data);
            second = second.bind(&array, other);
        }
        assert_timing_independent(d, &first, &second);
    });
}

#[test]
fn blocks_equal_width_one_on_the_nine_applications() {
    let compared = AtomicUsize::new(0);
    on_the_nine_applications(|name, d, inputs| {
        let compiled = compile(d, &Platform::maia()).unwrap();
        let bindings = inputs
            .into_iter()
            .fold(Bindings::new(), |b, (array, data)| b.bind(&array, data));
        let n = assert_width_independent(name, &compiled, &bindings);
        compared.fetch_add(n, Ordering::Relaxed);
    });
    // All but kmeans' three per-point recurrences.
    assert_eq!(compared.into_inner(), 18, "blocked kernels compared");
}

// ---------------------------------------------------------------------
// The edges of the block path's fast paths (PR 24): where a slice copy,
// a splat, an elided quantization, a uniform op, the f32 reduction or
// the float iterator stops applying, the exact path next to it must take
// over without a seam. Every case is bit-compared with the interpreter
// and with width 1 by `check`.
// ---------------------------------------------------------------------

#[test]
fn a_tail_block_whose_last_live_lane_leaves_the_memory() {
    // Unit-stride store: `n + 1` iterations into an `n`-element buffer,
    // so only the tail block's last live lane (lane 0 of a 1-lane tail,
    // lane 30 of a 31-lane one) is out of bounds and the slice copy must
    // not happen.
    for n in [32, 62] {
        check(
            n,
            wobble,
            (1, 0),
            |b, _, yt| {
                b.pipe(&[by(n + 1, 1)], 1, |b, it| {
                    b.store(yt, &[it[0]], it[0]);
                });
            },
            no_patch,
        );
    }
    // Strided load: the counter steps by 2 through `n + 2`, so the last
    // iteration reads `xT[n]`; the store behind it leaves `yT` in the
    // same lane and must lose to the load.
    for n in [64, 60] {
        check(
            n,
            wobble,
            (1, 0),
            |b, xt, yt| {
                b.pipe(&[by(n + 2, 2)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    b.store(yt, &[it[0]], v);
                });
            },
            no_patch,
        );
    }
}

#[test]
fn an_out_of_bounds_uniform_load_wins_over_a_later_lanes_earlier_op() {
    // `zT[x[i]]` faults in iteration 5 only; `yT[99]` — a constant
    // address, so a uniform load, evaluated once — faults in every
    // iteration. The interpreter meets iteration 0's `yT[99]` first.
    check(
        40,
        |i| if i == 5 { 1000.0 } else { i as f64 },
        (1, 0),
        |b, xt, yt| {
            let zt = b.bram("zT", DType::F64, &[64]);
            let wt = b.bram("wT", DType::F64, &[40]);
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let k = b.load(xt, &[it[0]]);
                let w = b.load(zt, &[k]);
                let far = b.index_const(99);
                let u = b.load(yt, &[far]);
                let s = b.add(w, u);
                b.store(wt, &[it[0]], s);
            });
        },
        no_patch,
    );
}

#[test]
fn an_f32_reduction_of_values_that_are_and_are_not_f32s() {
    // Four 33-iteration reductions (a 1-lane tail each) into an `F32`
    // register declared at 0.1, which no f32 holds. Narrowed to f32
    // first, the values take the f32 chain: tile 0 is zeros of both
    // signs, tile 1 ordinary values and +inf, tile 2 +inf then -inf (a
    // NaN from there on), tile 3 a NaN with a payload f32 cannot hold.
    // Fed raw, the `F64`-typed values are no f32s and take the chain as
    // written: tile 0 ends in 1 + (2^-24 + 2^-50), which rounds up to
    // the next f32, where narrowing the addend first would leave a tie
    // that rounds back down to 1.
    let value = |i: u64| match (i / 33, i % 33) {
        (0, 30) => 1.0,
        (0, 31) => 2f64.powi(-24) + 2f64.powi(-50),
        (0, r) => [-0.0, 0.0][r as usize % 2],
        (1, 7) | (2, 4) => f64::INFINITY,
        (2, 20) => f64::NEG_INFINITY,
        (3, 9) => f64::from_bits(0x7ff8_0000_0000_0001),
        _ => wobble(i) + 0.1,
    };
    for narrow in [true, false] {
        let narrowed = Cell::new(None);
        check(
            132,
            value,
            (2, 0),
            |b, xt, yt| {
                let sum = b.reg("sum", DType::F32, 0.1);
                b.sequential_ctr(&[by(132, 33)], 1, |b, oi| {
                    b.pipe_reduce(&[by(33, 1)], 1, sum, ReduceOp::Add, |b, it| {
                        let i = b.add(oi[0], it[0]);
                        let v = b.load(xt, &[i]);
                        if narrow {
                            // (`v + 0` is an `F64` node to the builder;
                            // the patch below retypes it.)
                            let zero = b.constant(0.0, DType::F32);
                            narrowed.set(Some(b.add(v, zero)));
                        }
                        narrowed.get().unwrap_or(v)
                    });
                    b.pipe(&[by(1, 1)], 1, |b, _| {
                        let s = b.load_reg(sum);
                        b.store(yt, &[oi[0]], s);
                    });
                });
            },
            |d| {
                if let Some(v32) = narrowed.get() {
                    d.node_mut(v32).ty = DType::F32;
                }
            },
        );
    }
}

#[test]
fn an_iterator_past_two_to_the_53_keeps_the_integer_form() {
    // Step 2^53 + 1: iteration 3 is 3 * 2^53 + 3, which rounds *up* to
    // 3 * 2^53 + 4 as an integer converted once, and would be 3 * 2^53
    // as `base + l * step` in f64. The maximum keeps the difference.
    const STEP: u64 = (1 << 53) + 1;
    check(
        4,
        wobble,
        (2, 0),
        |b, _, yt| {
            let top = b.reg("top", DType::F64, 0.0);
            b.pipe_reduce(&[by(4 * STEP, STEP)], 1, top, ReduceOp::Max, |b, it| {
                let zero = b.constant(0.0, DType::F64);
                b.add(it[0], zero)
            });
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let m = b.load_reg(top);
                b.store(yt, &[it[0]], m);
            });
        },
        no_patch,
    );
}

#[test]
fn a_mux_with_a_constant_arm_is_still_quantized() {
    // An `F32` mux between an `F32` value and the `F64` constant 0.1: the
    // constant carries its own type, so the mux's quantization is not
    // idle and must not be elided. (The patch retypes the two nodes the
    // builder would have promoted to `F64`.)
    let f32s = Cell::new(None);
    check(
        40,
        wobble,
        (1, 0),
        |b, xt, yt| {
            b.pipe(&[by(40, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let half = b.constant(0.5, DType::F32);
                let v32 = b.mul(v, half);
                let zero = b.constant(0.0, DType::F64);
                let tenth = b.constant(0.1, DType::F64);
                let neg = b.lt(v, zero);
                let m = b.mux(neg, tenth, v32);
                b.store(yt, &[it[0]], m);
                f32s.set(Some([v32, m]));
            });
        },
        |d| {
            for n in f32s.get().unwrap() {
                d.node_mut(n).ty = DType::F32;
            }
        },
    );
}

#[test]
fn transcendentals_with_a_one_lane_tail() {
    // 33 iterations: the second block has one live lane and 31 stale
    // ones, which exp, ln, sqrt and the division must neither fault on
    // nor leak from. Negative inputs make NaNs of ln and sqrt.
    check(
        33,
        wobble,
        (1, 0),
        |b, xt, yt| {
            b.pipe(&[by(33, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let e = b.exp(v);
                let l = b.ln(v);
                let r = b.sqrt(e);
                let q = b.div(l, r);
                let w = b.add(q, e);
                b.store(yt, &[it[0]], w);
            });
        },
        no_patch,
    );
}
