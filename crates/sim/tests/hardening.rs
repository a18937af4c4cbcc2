//! Structured-error hardening tests: every malformed input the fuzzer
//! can reach must surface as a `SimError`, never a panic.

use dhdl_core::{by, DType, DesignBuilder, ReduceOp};
use dhdl_sim::{simulate, Bindings, SimError};
use dhdl_target::Platform;

fn platform() -> Platform {
    Platform::maia()
}

/// A minimal legal design with one bound input `x`.
fn square_design(n: u64) -> dhdl_core::Design {
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
    b.finish().unwrap()
}

#[test]
fn unknown_binding_is_reported() {
    let d = square_design(16);
    let bindings = Bindings::new()
        .bind("x", vec![1.0; 16])
        .bind("nope", vec![0.0; 4]);
    let r = simulate(&d, &platform(), &bindings);
    assert_eq!(r.err(), Some(SimError::UnknownBinding("nope".into())));
}

#[test]
fn matching_bindings_still_pass() {
    let d = square_design(16);
    let bindings = Bindings::new().bind("x", vec![2.0; 16]);
    let r = simulate(&d, &platform(), &bindings).unwrap();
    assert_eq!(r.output("y").unwrap()[0], 4.0);
}

#[test]
fn zero_trip_pipe_is_reported() {
    let mut b = DesignBuilder::new("zt");
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[8]);
        b.pipe(&[by(0, 1)], 1, |b, it| {
            let v = b.load(t, &[it[0]]);
            b.store(t, &[it[0]], v);
        });
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new());
    assert!(matches!(r, Err(SimError::ZeroTripLoop(_))), "{r:?}");
}

#[test]
fn zero_step_counter_is_reported() {
    // step == 0 makes trip_count() zero: the loop can never advance.
    let mut b = DesignBuilder::new("zs");
    b.sequential(|b| {
        b.sequential_ctr(&[by(8, 0)], 1, |b, _iters| {
            let t = b.bram("t", DType::F32, &[8]);
            b.pipe(&[by(8, 1)], 1, |b, it| {
                let v = b.load(t, &[it[0]]);
                b.store(t, &[it[0]], v);
            });
        });
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new());
    assert!(matches!(r, Err(SimError::ZeroTripLoop(_))), "{r:?}");
}

#[test]
fn zero_trip_outer_loop_is_reported() {
    let mut b = DesignBuilder::new("zo");
    b.sequential(|b| {
        b.sequential_ctr(&[by(0, 1)], 1, |b, _iters| {
            let t = b.bram("t", DType::F32, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let v = b.load(t, &[it[0]]);
                b.store(t, &[it[0]], v);
            });
        });
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new());
    assert!(matches!(r, Err(SimError::ZeroTripLoop(_))), "{r:?}");
}

#[test]
fn nan_in_priority_queue_does_not_panic() {
    // 0/0 pushes a NaN into the queue; popping must use a total order
    // instead of panicking in the comparator.
    let mut b = DesignBuilder::new("pq_nan");
    let out = b.off_chip("out", DType::F32, &[5]);
    b.sequential(|b| {
        let q = b.priority_queue("q", DType::F32, 8);
        let ot = b.bram("ot", DType::F32, &[5]);
        b.pipe(&[by(4, 1)], 1, |b, it| {
            // Pushes 0,1,2,3 — and one explicit NaN below.
            b.store(q, &[], it[0]);
        });
        b.pipe(&[by(1, 1)], 1, |b, _it| {
            let zero = b.constant(0.0, DType::F32);
            let nan = b.div(zero, zero);
            b.store(q, &[], nan);
        });
        b.pipe(&[by(5, 1)], 1, |b, it| {
            let v = b.load(q, &[]);
            b.store(ot, &[it[0]], v);
        });
        let z = b.index_const(0);
        b.tile_store(out, ot, &[z], &[5], 1);
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new()).unwrap();
    // NaN's position in the pop order is a sign-bit artifact; the
    // invariant is that popping is panic-free, deterministic, and
    // loses no element: exactly one NaN and the finite set {0,1,2,3}.
    let popped = r.output("out").unwrap();
    let mut finite: Vec<f64> = popped.iter().copied().filter(|v| v.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    assert_eq!(finite, vec![0.0, 1.0, 2.0, 3.0], "popped {popped:?}");
    assert_eq!(popped.iter().filter(|v| v.is_nan()).count(), 1);
}

#[test]
fn negative_address_is_out_of_bounds() {
    let mut b = DesignBuilder::new("neg");
    let x = b.off_chip("x", DType::F32, &[8]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[8]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[8], 1);
        b.pipe(&[by(8, 1)], 1, |b, it| {
            let five = b.constant(5.0, DType::i32());
            let neg = b.sub(it[0], five);
            let v = b.load(t, &[neg]);
            b.store(t, &[it[0]], v);
        });
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new().bind("x", vec![1.0; 8]));
    match r {
        Err(SimError::OutOfBounds { index, size, .. }) => {
            assert!(index < 0, "index {index}");
            assert_eq!(size, 8);
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn store_out_of_bounds_is_reported() {
    let mut b = DesignBuilder::new("oob_store");
    let x = b.off_chip("x", DType::F32, &[8]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[8]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[8], 1);
        b.pipe(&[by(8, 1)], 1, |b, it| {
            let v = b.load(t, &[it[0]]);
            // Address = data value (100.0): far out of range for a store.
            b.store(t, &[v], v);
        });
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new().bind("x", vec![100.0; 8]));
    assert!(matches!(r, Err(SimError::OutOfBounds { .. })), "{r:?}");
}

#[test]
fn rank_mismatch_in_parsed_design_is_structured() {
    // `from_text` skips builder validation, so the simulator must catch
    // rank mismatches itself. Corrupt a serialized design: drop one
    // address dimension from every 2-D load.
    let (r, c) = (4u64, 4u64);
    let mut b = DesignBuilder::new("rank");
    let x = b.off_chip("x", DType::F32, &[r, c]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[r, c]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z, z], &[r, c], 1);
        b.pipe(&[by(r, 1), by(c, 1)], 1, |b, it| {
            let v = b.load(t, &[it[0], it[1]]);
            b.store(t, &[it[0], it[1]], v);
        });
    });
    let d = b.finish().unwrap();
    let text = dhdl_core::serialize::to_text(&d);
    // Addresses serialize as `addr=i,j`; truncate to rank 1.
    let corrupt: String = text
        .lines()
        .map(|l| {
            if let Some(pos) = l.find("addr=") {
                let (head, rest) = l.split_at(pos + 5);
                let (addr, tail) = rest.split_once(' ').unwrap_or((rest, ""));
                let first = addr.split(',').next().unwrap_or(addr);
                format!("{head}{first} {tail}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let bad = dhdl_core::serialize::from_text(&corrupt).unwrap();
    let res = simulate(&bad, &platform(), &Bindings::new());
    assert!(
        matches!(res, Err(SimError::Malformed(_))),
        "expected structured rank error, got {res:?}"
    );
}

#[test]
fn sim_error_display_is_descriptive() {
    let e = SimError::UnknownBinding("foo".into());
    assert!(e.to_string().contains("foo"));
    let e = SimError::ZeroTripLoop(dhdl_core::NodeId::from_raw(3));
    assert!(e.to_string().contains("zero-trip"));
}

#[test]
fn fold_design_still_simulates_after_hardening() {
    // Regression guard: the new checks must not reject legal designs.
    let mut b = DesignBuilder::new("fold_ok");
    let out = b.off_chip("out", DType::F32, &[1]);
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F32, 0.0);
        b.outer_fold(true, &[by(16, 4)], 1, acc, ReduceOp::Add, |b, _iters| {
            let partial = b.reg("partial", DType::F32, 0.0);
            b.pipe_reduce(&[by(4, 1)], 1, partial, ReduceOp::Add, |b, it| {
                let one = b.constant(1.0, DType::F32);
                b.add(it[0], one)
            });
            partial
        });
        let ot = b.bram("ot", DType::F32, &[1]);
        b.pipe(&[by(1, 1)], 1, |b, it| {
            let a = b.load_reg(acc);
            b.store(ot, &[it[0]], a);
        });
        let z = b.index_const(0);
        b.tile_store(out, ot, &[z], &[1], 1);
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new()).unwrap();
    // Each wave sums (0+1)+(1+1)+(2+1)+(3+1) = 10; 4 waves = 40.
    assert_eq!(r.output("out").unwrap()[0], 40.0);
}

// ---------------------------------------------------------------------
// The interpreter keeps its state in node-indexed tables. A design text
// may point a memory reference at any node at all (`from_text` checks
// nothing), so every table read must answer a wrong reference with the
// structured error it always was — never with an index panic.
// ---------------------------------------------------------------------

/// `acc[j] = Σ_i (i + j)` by a fold of `t` into `acc`, stored to `out`.
/// The node ids the cases below rewrite are asserted, not assumed.
fn fold_text() -> String {
    let mut b = DesignBuilder::new("fold");
    let out = b.off_chip("out", DType::F64, &[4]);
    b.sequential(|b| {
        let acc = b.bram("acc", DType::F64, &[4]);
        b.outer_fold(true, &[by(8, 1)], 1, acc, ReduceOp::Add, |b, iters| {
            let i = iters[0];
            let t = b.bram("t", DType::F64, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let iv = b.add(i, it[0]);
                let w = b.load(t, &[it[0]]);
                let zero = b.sub(w, w);
                let s = b.add(iv, zero);
                b.store(t, &[it[0]], s);
            });
            t
        });
        let z = b.index_const(0);
        b.tile_store(out, acc, &[z], &[4], 1);
    });
    let text = dhdl_core::serialize::to_text(&b.finish().unwrap());
    for line in [
        "offchips 0\n",
        "node 0 ty=f64 w=1 name=out OffChip",
        "node 2 ty=f64 w=1 name=acc Bram",
        "fold=5:2:Add",
        "node 8 ty=ufix32.0 w=1 name= Prim op=Add in=4,7",
        "Load mem=5 addr=7",
        "Store mem=5 addr=7 val=11",
        "node 13 ty=ufix32.0 w=1 name= Const v=0e0",
        "TileStore off=0 local=2 offsets=13",
    ] {
        assert!(text.contains(line), "`{line}` not in:\n{text}");
    }
    text
}

/// Simulate `fold_text()` with `from` rewritten to `to`.
fn run_rewritten(from: &str, to: &str) -> Result<dhdl_sim::SimResult, SimError> {
    let d = dhdl_core::serialize::from_text(&fold_text().replace(from, to)).unwrap();
    simulate(&d, &platform(), &Bindings::new())
}

#[test]
fn a_reference_to_the_wrong_node_is_a_structured_error() {
    let id = dhdl_core::NodeId::from_raw;
    let ok = run_rewritten("fold", "fold").unwrap();
    assert_eq!(ok.output("out").unwrap(), &[28.0, 36.0, 44.0, 52.0]);
    // A `Load`/`Store` whose memory is a primitive, a constant, or the
    // off-chip array (a memory, but not one a body can address).
    for (from, to) in [
        ("Load mem=5", "Load mem=8"),
        ("Load mem=5", "Load mem=0"),
        ("Store mem=5", "Store mem=13"),
        ("Store mem=5", "Store mem=0"),
    ] {
        let r = run_rewritten(from, to);
        assert!(
            matches!(&r, Err(SimError::Malformed(m)) if m.contains("non-memory")),
            "{to}: {r:?}"
        );
    }
    // A fold whose source or accumulator is no memory; a tile transfer
    // whose on-chip side is none.
    for (from, to, culprit) in [
        ("fold=5:2:Add", "fold=13:2:Add", 13),
        ("fold=5:2:Add", "fold=5:13:Add", 13),
        ("fold=5:2:Add", "fold=0:2:Add", 0),
        ("off=0 local=2", "off=0 local=8", 8),
    ] {
        let r = run_rewritten(from, to);
        assert_eq!(r.err(), Some(SimError::Unevaluated(id(culprit))), "{to}");
    }
    // An off-chip array the `offchips` line never declared is a memory
    // the run never allocated. An out-of-range tile on it is still the
    // range error; an in-range one finds no element to move (with the
    // map-based state that one case was an `expect` panic).
    let undeclared = fold_text().replace("offchips 0\n", "offchips\n");
    for (offset, expected) in [
        (
            "Const v=9e0",
            SimError::OutOfBounds {
                mem: id(0),
                index: 9,
                size: 4,
            },
        ),
        ("Const v=0e0", SimError::Unevaluated(id(0))),
    ] {
        let text = undeclared.replace("Const v=0e0", offset);
        let d = dhdl_core::serialize::from_text(&text).unwrap();
        let r = simulate(&d, &platform(), &Bindings::new());
        assert_eq!(r.err(), Some(expected), "{offset}");
    }
}

#[test]
fn a_fold_of_an_accumulator_into_itself_reads_the_pre_fold_contents() {
    // The pipe stores `i + j` straight into `acc` and the fold's source
    // is `acc` too: every wave doubles what the pipe just wrote, each
    // element exactly once, so the last wave (i = 7) leaves 2·(7 + j).
    let text = fold_text()
        .replace("Store mem=5", "Store mem=2")
        .replace("fold=5:2:Add", "fold=2:2:Add");
    let d = dhdl_core::serialize::from_text(&text).unwrap();
    let r = simulate(&d, &platform(), &Bindings::new()).unwrap();
    assert_eq!(r.output("out").unwrap(), &[14.0, 16.0, 18.0, 20.0]);
    let tape = dhdl_sim::simulate_compiled(&d, &platform(), &Bindings::new()).unwrap();
    assert_eq!(r.bit_diff(&tape), None);
}

#[test]
fn a_fold_between_two_buffers_next_to_a_fold_of_one_into_itself() {
    // The tape folds two distinct buffers through a split borrow and a
    // buffer into itself through the in-place loop; both at `F32`, with
    // values (multiples of 0.1) whose sums round at every step. The
    // first fold leaves acc[j] = Σ_i f32(0.1·(i + j)); the second doubles
    // what the pipe just stored, leaving 2·f32(0.1·(7 + j)).
    let mut b = DesignBuilder::new("folds");
    let out = b.off_chip("out", DType::F32, &[8]);
    b.sequential(|b| {
        let acc = b.bram("acc", DType::F32, &[4]);
        let own = b.bram("own", DType::F32, &[4]);
        for (accum, into_itself) in [(acc, false), (own, true)] {
            b.outer_fold(true, &[by(8, 1)], 1, accum, ReduceOp::Add, |b, iters| {
                let t = b.bram("t", DType::F32, &[4]);
                let src = if into_itself { accum } else { t };
                b.pipe(&[by(4, 1)], 1, |b, it| {
                    let ij = b.add(iters[0], it[0]);
                    let tenth = b.constant(0.1, DType::F64);
                    let v = b.mul(ij, tenth);
                    b.store(src, &[it[0]], v);
                });
                src
            });
        }
        let (z, four) = (b.index_const(0), b.index_const(4));
        b.tile_store(out, acc, &[z], &[4], 1);
        b.tile_store(out, own, &[four], &[4], 1);
    });
    let d = b.finish().unwrap();
    let r = simulate(&d, &platform(), &Bindings::new()).unwrap();
    let f32_of = |x: f64| f64::from(x as f32);
    let expected: Vec<f64> = (0..4)
        .map(|j| (0..8).fold(0.0, |a, i| f32_of(a + f32_of(0.1 * f64::from(i + j)))))
        .chain((0..4).map(|j| 2.0 * f32_of(0.1 * f64::from(7 + j))))
        .collect();
    assert_eq!(r.output("out").unwrap(), expected);
    let tape = dhdl_sim::simulate_compiled(&d, &platform(), &Bindings::new()).unwrap();
    assert_eq!(r.bit_diff(&tape), None);
}

#[test]
fn a_bodys_static_error_is_raised_where_the_walk_reaches_it() {
    // Two pipes after a tile load: the first reads an address out of
    // memory (9, past the end of `t`), the second gets a `Bram` in the
    // middle of its body. Each pipe's body is resolved when it first
    // runs, and the resolved `Bram` raises its error only when reached:
    // whichever pipe runs first decides the run's error.
    let mut b = DesignBuilder::new("order");
    let x = b.off_chip("x", DType::F64, &[4]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F64, &[4]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[4], 1);
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let k = b.load(t, &[it[0]]);
            let v = b.load(t, &[k]);
            b.store(t, &[it[0]], v);
        });
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let v = b.load(t, &[it[0]]);
            let w = b.add(v, v);
            b.store(t, &[it[0]], w);
        });
    });
    let text = dhdl_core::serialize::to_text(&b.finish().unwrap());
    for line in [
        "node 2 ty=f64 w=1 name=t Bram",
        "Sequential ctr= par=1 pat=map stages=4,5,10 ",
        "node 5 ty=bool w=1 name= Pipe ctr=4x1 par=1 pat=map body=7,8,9 ",
        "node 10 ty=bool w=1 name= Pipe ctr=4x1 par=1 pat=map body=12,13,14 ",
    ] {
        assert!(text.contains(line), "`{line}` not in:\n{text}");
    }
    let text = text.replace("body=12,13,14", "body=12,2,14");
    let run = |text: &str| {
        let d = dhdl_core::serialize::from_text(text).unwrap();
        let x = Bindings::new().bind("x", vec![9.0; 4]);
        let r = simulate(&d, &platform(), &x).map(|_| ());
        let tape = dhdl_sim::simulate_compiled(&d, &platform(), &x).map(|_| ());
        assert_eq!(r, tape, "the backends disagree");
        r.unwrap_err()
    };
    assert_eq!(
        run(&text),
        SimError::OutOfBounds {
            mem: dhdl_core::NodeId::from_raw(2),
            index: 9,
            size: 4,
        }
    );
    let swapped = run(&text.replace("stages=4,5,10", "stages=4,10,5"));
    assert!(
        matches!(&swapped, SimError::Malformed(m) if m.contains("cannot appear in a pipe body")),
        "{swapped:?}"
    );
}

#[test]
fn a_reduction_into_a_node_past_the_design_is_unevaluated() {
    // `from_text` does not check that a reduce pipe's register exists:
    // the run must end in the structured error, never an index panic.
    let mut b = DesignBuilder::new("red");
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F64, 0.0);
        b.pipe_reduce(&[by(4, 1)], 1, acc, ReduceOp::Add, |b, it| {
            let one = b.constant(1.0, DType::F64);
            b.add(it[0], one)
        });
    });
    let text = dhdl_core::serialize::to_text(&b.finish().unwrap());
    let red = text
        .split_whitespace()
        .find(|t| t.starts_with("red="))
        .expect("a reduce pipe")
        .to_string();
    let (value, rest) = red["red=".len()..].split_once(':').unwrap();
    let (_, op) = rest.split_once(':').unwrap();
    let d = dhdl_core::serialize::from_text(&text.replace(&red, &format!("red={value}:999:{op}")))
        .unwrap();
    let r = simulate(&d, &platform(), &Bindings::new());
    assert_eq!(
        r.err(),
        Some(SimError::Unevaluated(dhdl_core::NodeId::from_raw(999)))
    );
}
