//! Differential conformance for the DNN-frontier constructs: line-buffer
//! convolution tiles and attention-shaped GEMM–softmax–GEMM nests must be
//! bit-identical between the interpreter and the tape-compiled backend
//! (outputs, cycles, transfers, profile, trace via `SimResult::bit_diff`),
//! and bodies the tape compiler cannot handle must *fall back* to the
//! interpreter rather than miscompile.

use dhdl_core::{by, DType, Design, DesignBuilder, PrimOp, ReduceOp};
use dhdl_sim::{compile, simulate, simulate_compiled, Bindings, CompileError};
use dhdl_synth::partition::{Channel, CutKind, Partition, Partitioning};
use dhdl_target::{MultiFpgaPlatform, Platform};

fn assert_identical(d: &Design, bindings: &Bindings) {
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

/// A line-buffer conv2d fragment: row-tiled output with a halo tile load
/// (stride th, extent th + KH - 1) and window accumulation over the two
/// middle (u, v) counters with computed `ii+u` / `j+v` addresses.
fn conv_fragment(size: u64, cout: u64, th: u64, pj: u32, mp: bool) -> Design {
    let (kh, kw) = (3u64, 3u64);
    let (hout, wout) = (size - kh + 1, size - kw + 1);
    let rows = th + kh - 1;
    let mut b = DesignBuilder::new("convfrag");
    let img = b.off_chip("img", DType::F32, &[size, size]);
    let wts = b.off_chip("wt", DType::F32, &[cout, kh, kw]);
    let out = b.off_chip("out", DType::F32, &[cout, hout, wout]);
    b.sequential(|b| {
        let wt = b.bram("wT", DType::F32, &[cout, kh, kw]);
        let z0 = b.index_const(0);
        b.tile_load(wts, wt, &[z0, z0, z0], &[cout, kh, kw], 1);
        b.outer(mp, &[by(hout, th)], 1, |b, iters| {
            let i = iters[0];
            let imt = b.bram("imT", DType::F32, &[rows, size]);
            let ot = b.bram("oT", DType::F32, &[cout, th, wout]);
            let z = b.index_const(0);
            b.tile_load(img, imt, &[i, z], &[rows, size], pj);
            b.sequential_ctr(&[by(cout, 1)], 1, |b, cc| {
                let c = cc[0];
                b.pipe(
                    &[by(th, 1), by(kh, 1), by(kw, 1), by(wout, 1)],
                    pj,
                    |b, it| {
                        let (ii, u, v, j) = (it[0], it[1], it[2], it[3]);
                        let row = b.prim(PrimOp::Add, &[ii, u]);
                        let col = b.prim(PrimOp::Add, &[j, v]);
                        let iv = b.load(imt, &[row, col]);
                        let wv = b.load(wt, &[c, u, v]);
                        let prod = b.mul(iv, wv);
                        let zi = b.index_const(0);
                        let fu = b.eq(u, zi);
                        let fv = b.eq(v, zi);
                        let first = b.and(fu, fv);
                        let zero = b.constant(0.0, DType::F32);
                        let prev_raw = b.load(ot, &[c, ii, j]);
                        let prev = b.mux(first, zero, prev_raw);
                        let sum = b.add(prev, prod);
                        b.store(ot, &[c, ii, j], sum);
                    },
                );
            });
            b.tile_store(out, ot, &[z, i, z], &[cout, th, wout], pj);
        });
    });
    b.finish().unwrap()
}

fn conv_inputs(size: u64, cout: u64) -> (Vec<f64>, Vec<f64>) {
    let img: Vec<f64> = (0..size * size)
        .map(|i| f64::from((i % 13) as f32 * 0.25 - 1.5))
        .collect();
    let wts: Vec<f64> = (0..cout * 9)
        .map(|i| f64::from((i % 7) as f32 * 0.125 - 0.375))
        .collect();
    (img, wts)
}

/// Reference conv with the interpreter's per-op f32 rounding.
fn conv_reference(img: &[f64], wts: &[f64], size: usize, cout: usize) -> Vec<f64> {
    let hout = size - 2;
    let mut out = vec![0.0f64; cout * hout * hout];
    for c in 0..cout {
        for i in 0..hout {
            for j in 0..hout {
                let mut acc = 0.0f64;
                for u in 0..3 {
                    for v in 0..3 {
                        let prod =
                            (img[(i + u) * size + (j + v)] * wts[(c * 3 + u) * 3 + v]) as f32;
                        acc = (acc + f64::from(prod)) as f32 as f64;
                    }
                }
                out[(c * hout + i) * hout + j] = acc;
            }
        }
    }
    out
}

#[test]
fn conv_fragment_matches_bitwise_and_reference() {
    let (size, cout) = (10u64, 2u64);
    let (img, wts) = conv_inputs(size, cout);
    for (th, pj, mp) in [(4, 1, false), (4, 2, true), (8, 4, true), (2, 8, false)] {
        let d = conv_fragment(size, cout, th, pj, mp);
        let bindings = Bindings::new()
            .bind("img", img.clone())
            .bind("wt", wts.clone());
        assert_identical(&d, &bindings);
        let p = Platform::maia();
        let r = simulate(&d, &p, &bindings).unwrap();
        let expected = conv_reference(&img, &wts, size as usize, cout as usize);
        assert_eq!(
            r.output("out").unwrap(),
            &expected[..],
            "th={th} pj={pj} mp={mp}"
        );
    }
}

/// An attention-shaped fragment: chained tiled GEMMs through a per-row
/// log-domain softmax (max-reduce, exp-sum-reduce, ln, normalize).
fn attention_fragment(n: u64, d: u64, tr: u64, pa: u32, mp: bool, mps: bool) -> Design {
    let scale = 1.0 / (d as f64).sqrt();
    let mut b = DesignBuilder::new("attnfrag");
    let q = b.off_chip("q", DType::F32, &[n, d]);
    let k = b.off_chip("k", DType::F32, &[n, d]);
    let v = b.off_chip("v", DType::F32, &[n, d]);
    let o = b.off_chip("out", DType::F32, &[n, d]);
    b.sequential(|b| {
        let kt = b.bram("kT", DType::F32, &[n, d]);
        let vt = b.bram("vT", DType::F32, &[n, d]);
        let z0 = b.index_const(0);
        b.parallel(|b| {
            b.tile_load(k, kt, &[z0, z0], &[n, d], 1);
            b.tile_load(v, vt, &[z0, z0], &[n, d], 1);
        });
        b.outer(mp, &[by(n, tr)], 1, |b, iters| {
            let i = iters[0];
            let qt = b.bram("qT", DType::F32, &[tr, d]);
            let st = b.bram("sT", DType::F32, &[tr, n]);
            let ot = b.bram("oT", DType::F32, &[tr, d]);
            let z = b.index_const(0);
            b.tile_load(q, qt, &[i, z], &[tr, d], 1);
            b.pipe(&[by(tr, 1), by(d, 1), by(n, 1)], pa, |b, it| {
                let (ii, j, r) = (it[0], it[1], it[2]);
                let qv = b.load(qt, &[ii, j]);
                let kv = b.load(kt, &[r, j]);
                let prod = b.mul(qv, kv);
                let zi = b.index_const(0);
                let first = b.eq(j, zi);
                let zero = b.constant(0.0, DType::F32);
                let prev_raw = b.load(st, &[ii, r]);
                let prev = b.mux(first, zero, prev_raw);
                let sum = b.add(prev, prod);
                b.store(st, &[ii, r], sum);
            });
            b.outer(mps, &[by(tr, 1)], 1, |b, rr| {
                let ii = rr[0];
                let mreg = b.reg("rowMax", DType::F32, 0.0);
                b.pipe_reduce(&[by(n, 1)], pa, mreg, ReduceOp::Max, |b, it| {
                    b.load(st, &[ii, it[0]])
                });
                let sreg = b.reg("rowSum", DType::F32, 0.0);
                b.pipe_reduce(&[by(n, 1)], pa, sreg, ReduceOp::Add, |b, it| {
                    let s = b.load(st, &[ii, it[0]]);
                    let m = b.load_reg(mreg);
                    let dlt = b.sub(s, m);
                    let c = b.constant(scale, DType::F32);
                    let sc = b.mul(dlt, c);
                    b.exp(sc)
                });
                let lreg = b.reg("rowLse", DType::F32, 0.0);
                b.pipe(&[by(1, 1)], 1, |b, _it| {
                    let s = b.load_reg(sreg);
                    let l = b.ln(s);
                    b.store_reg(lreg, l);
                });
                b.pipe(&[by(n, 1)], pa, |b, it| {
                    let s = b.load(st, &[ii, it[0]]);
                    let m = b.load_reg(mreg);
                    let dlt = b.sub(s, m);
                    let c = b.constant(scale, DType::F32);
                    let sc = b.mul(dlt, c);
                    let l = b.load_reg(lreg);
                    let e = b.sub(sc, l);
                    let p = b.exp(e);
                    b.store(st, &[ii, it[0]], p);
                });
            });
            b.pipe(&[by(tr, 1), by(n, 1), by(d, 1)], pa, |b, it| {
                let (ii, r, jd) = (it[0], it[1], it[2]);
                let pv = b.load(st, &[ii, r]);
                let vv = b.load(vt, &[r, jd]);
                let prod = b.mul(pv, vv);
                let zi = b.index_const(0);
                let first = b.eq(r, zi);
                let zero = b.constant(0.0, DType::F32);
                let prev_raw = b.load(ot, &[ii, jd]);
                let prev = b.mux(first, zero, prev_raw);
                let sum = b.add(prev, prod);
                b.store(ot, &[ii, jd], sum);
            });
            b.tile_store(o, ot, &[i, z], &[tr, d], 1);
        });
    });
    b.finish().unwrap()
}

fn attn_inputs(n: u64, d: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let gen = |salt: u64| -> Vec<f64> {
        (0..n * d)
            .map(|i| f64::from(((i * 7 + salt) % 19) as f32 * 0.125 - 1.0))
            .collect()
    };
    (gen(0), gen(3), gen(11))
}

#[test]
fn attention_fragment_matches_bitwise() {
    let (n, d) = (16u64, 8u64);
    let (q, k, v) = attn_inputs(n, d);
    // Per column of V, its smallest and largest entry. Computed row by
    // row, once: the per-output strided min/max scan over `v[row * d +
    // col]` that stood here crashed rustc 1.95 in LLVM's LoopVectorizePass
    // at opt-level 3 (TESTING.md, "Release builds").
    let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); d as usize];
    for row in v.chunks(d as usize) {
        for (b, &x) in bounds.iter_mut().zip(row) {
            *b = (b.0.min(x), b.1.max(x));
        }
    }
    for (tr, pa, mp, mps) in [
        (4, 1, false, false),
        (4, 2, true, false),
        (8, 4, false, true),
        (16, 8, true, true),
    ] {
        let de = attention_fragment(n, d, tr, pa, mp, mps);
        let bindings = Bindings::new()
            .bind("q", q.clone())
            .bind("k", k.clone())
            .bind("v", v.clone());
        assert_identical(&de, &bindings);
        // Softmax rows must be normalized: each output row is a convex
        // combination of V rows, so row sums of P are 1 and the outputs
        // stay within V's column bounds.
        let p = Platform::maia();
        let r = simulate(&de, &p, &bindings).unwrap();
        let out = r.output("out").unwrap();
        for (i, x) in out.iter().enumerate() {
            let (lo, hi) = bounds[i % d as usize];
            assert!(
                *x >= lo - 1e-5 && *x <= hi + 1e-5,
                "tr={tr} pa={pa}: out[{i}] = {x} outside [{lo}, {hi}]"
            );
        }
    }
}

/// exp/ln lane batching in the tape backend must make exactly the libm
/// calls the interpreter makes per element: compare a fused exp/ln pipe
/// bitwise against a scalar libm mirror.
#[test]
fn exp_ln_lanes_are_bit_identical_to_libm() {
    let n = 256u64;
    let mut b = DesignBuilder::new("expln");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", DType::F32, &[n]);
        let yt = b.bram("yT", DType::F32, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let e = b.exp(v);
            let one = b.constant(1.0, DType::F32);
            let shifted = b.add(e, one);
            let l = b.ln(shifted);
            b.store(yt, &[it[0]], l);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..n).map(|i| f64::from(i as f32 * 0.03 - 4.0)).collect();
    let bindings = Bindings::new().bind("x", xs.clone());
    assert_identical(&d, &bindings);
    // Scalar libm mirror with the interpreter's f32 rounding per op.
    let expected: Vec<f64> = xs
        .iter()
        .map(|&v| {
            let e = v.exp() as f32 as f64;
            let s = (e + 1.0) as f32 as f64;
            s.ln() as f32 as f64
        })
        .collect();
    let p = Platform::maia();
    for r in [
        simulate(&d, &p, &bindings).unwrap(),
        simulate_compiled(&d, &p, &bindings).unwrap(),
    ] {
        assert_eq!(r.output("y").unwrap(), &expected[..]);
    }
}

/// A conv-shaped body whose per-row partial sums fold through a priority
/// queue is outside the tape compiler's model: `compile` must refuse
/// with `Unsupported`, and `simulate_compiled` must fall back to
/// interpreter-identical results — never miscompile. The fallback
/// composes with a cut: under a two-device plan the run is still the
/// interpreter's, plus the plan's link cycles.
///
/// The builder's structural validation (rightly) refuses to construct a
/// queue-sourced fold, so the design is produced the way a hostile or
/// future frontend could produce it: serialize a valid fold design, then
/// retarget the fold source at the queue before re-parsing (`from_text`
/// is parse-level only).
#[test]
fn unsupported_conv_body_falls_back() {
    let size = 6u64;
    let hout = size - 2;
    let mut qid = None;
    let mut ptid = None;
    let mut b = DesignBuilder::new("convpq");
    let img = b.off_chip("img", DType::F32, &[size, size]);
    let out = b.off_chip("out", DType::F32, &[hout * hout]);
    b.sequential(|b| {
        let imt = b.bram("imT", DType::F32, &[size, size]);
        let z = b.index_const(0);
        b.tile_load(img, imt, &[z, z], &[size, size], 1);
        let acc = b.bram("acc", DType::F32, &[hout * hout]);
        // Horizontal 3-tap sums per kernel row, folded into `acc` over
        // the kernel-row counter; a priority queue shadows the partial
        // buffer and becomes the fold source after the text surgery.
        b.outer_fold(false, &[by(3, 1)], 1, acc, ReduceOp::Add, |b, uu| {
            let u = uu[0];
            let q = b.priority_queue("q", DType::F32, 64);
            let pt = b.bram("pT", DType::F32, &[hout * hout]);
            qid = Some(q);
            ptid = Some(pt);
            b.pipe(&[by(hout, 1), by(hout, 1)], 1, |b, it| {
                let (ii, j) = (it[0], it[1]);
                let row = b.prim(PrimOp::Add, &[ii, u]);
                let one = b.index_const(1);
                let two = b.index_const(2);
                let c1 = b.prim(PrimOp::Add, &[j, one]);
                let c2 = b.prim(PrimOp::Add, &[j, two]);
                let a = b.load(imt, &[row, j]);
                let m = b.load(imt, &[row, c1]);
                let r = b.load(imt, &[row, c2]);
                let s0 = b.add(a, m);
                let s = b.add(s0, r);
                let hh = b.index_const(hout);
                let flat = b.prim(PrimOp::Mul, &[ii, hh]);
                let at = b.prim(PrimOp::Add, &[flat, j]);
                b.store(pt, &[at], s);
                b.store(q, &[], s);
            });
            pt
        });
        b.tile_store(out, acc, &[z], &[hout * hout], 1);
    });
    let d = b.finish().unwrap();
    let (q, pt) = (qid.unwrap(), ptid.unwrap());
    let text = dhdl_core::serialize::to_text(&d);
    let patched = text.replace(
        &format!("fold={}:", pt.index()),
        &format!("fold={}:", q.index()),
    );
    assert_ne!(text, patched, "fold line not found in serialized design");
    let d = dhdl_core::serialize::from_text(&patched).unwrap();
    let p = Platform::maia();
    match compile(&d, &p) {
        Err(CompileError::Unsupported(_)) => {}
        other => panic!(
            "expected Unsupported for a queue-sourced fold, got {:?}",
            other.map(|_| "Ok(Compiled)")
        ),
    }
    let (img_data, _) = conv_inputs(size, 1);
    let bindings = Bindings::new().bind("img", img_data);
    assert_identical(&d, &bindings);

    let on = |device| Partition {
        device,
        units: vec![],
        net: Default::default(),
        endpoints: Default::default(),
    };
    let parts = Partitioning {
        num_devices: 2,
        cut: CutKind::LeafRanges,
        partitions: vec![on(0), on(1)],
        channels: vec![Channel {
            src: 0,
            dst: 1,
            mem: pt,
            words: hout * hout,
            word_bits: 32,
            transfers: 3,
            overlapped: false,
        }],
    };
    let multi = MultiFpgaPlatform::from_platform(&p, 2);
    let link = parts.link_cycles(&multi.link);
    assert!(link > 0.0);
    // The run under the plan: the tape-side run (here the fallback) plus
    // the plan's link cycles, and otherwise the interpreter's run.
    let base = simulate(&d, &p, &bindings).unwrap();
    let mut cut = simulate_compiled(&d, &multi.base, &bindings).unwrap();
    cut.cycles += link;
    assert_eq!(cut.cycles, base.cycles + link);
    cut.cycles = base.cycles;
    assert_eq!(base.bit_diff(&cut), None);
}
