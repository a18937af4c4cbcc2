//! Attention-shaped GEMM–softmax–GEMM pipeline (DNN frontier).
//!
//! The transformer building block as a DHDL metaprogram: scores
//! `S = Q·Kᵀ / √d`, a numerically stable row softmax in the log domain
//! (`p = exp((s − m)/√d − ln Σ exp((s − m)/√d))`), and the value
//! contraction `O = P·V`. Q is tiled by rows with K and V resident on
//! chip; the softmax runs as a per-row controller nest (max-reduce,
//! exp-sum-reduce, log, normalize), so the design exercises the exp/ln
//! datapaths and a MetaPipe nest three controllers deep — well outside
//! the Table III calibration set.

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp, Result};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// Fixed head dimension: the suite convention is d = 32 (the CPU kernel
/// in `dhdl-cpu` infers `n` from array lengths under this convention).
pub const HEAD_DIM: u64 = 32;

/// The attention benchmark over `n` rows with the fixed head dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attention {
    /// Sequence length (rows of Q, K, V).
    pub n: u64,
}

impl Default for Attention {
    /// The scaled default: a 128-row sequence at head dimension 32.
    fn default() -> Self {
        Attention { n: 128 }
    }
}

impl Attention {
    /// An attention block over an `n`-row sequence.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "sequence must be nonempty");
        Attention { n }
    }
}

impl Benchmark for Attention {
    fn name(&self) -> &'static str {
        "attention"
    }

    fn description(&self) -> &'static str {
        "GEMM-softmax-GEMM attention pipeline"
    }

    fn paper_dataset(&self) -> &'static str {
        "- (post-paper DNN workload)"
    }

    fn dataset_desc(&self) -> String {
        format!("N={} d={}", self.n, HEAD_DIM)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("tr", self.n, 2, 32.min(self.n));
        s.par("pa", HEAD_DIM, 8);
        s.par("lp", HEAD_DIM, 4);
        s.toggle("mp");
        s.toggle("mps");
        s
    }

    fn default_params(&self) -> ParamValues {
        let tr = if self.n % 8 == 0 { 8 } else { 1 };
        ParamValues::new()
            .with("tr", tr)
            .with("pa", 2)
            .with("lp", 2)
            .with("mp", 1)
            .with("mps", 0)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let (n, d) = (self.n, HEAD_DIM);
        let tr = p.dim("tr")?;
        let pa = p.par("pa")?;
        let lp = p.par("lp")?;
        let mp = p.toggle("mp")?;
        let mps = p.toggle("mps")?;
        let scale = 1.0 / (d as f64).sqrt();
        let mut b = DesignBuilder::new("attention");
        let q = b.off_chip("q", DType::F32, &[n, d]);
        let k = b.off_chip("k", DType::F32, &[n, d]);
        let v = b.off_chip("v", DType::F32, &[n, d]);
        let o = b.off_chip("out", DType::F32, &[n, d]);
        b.sequential(|b| {
            let kt = b.bram("kT", DType::F32, &[n, d]);
            let vt = b.bram("vT", DType::F32, &[n, d]);
            let z0 = b.index_const(0);
            b.parallel(|b| {
                b.tile_load(k, kt, &[z0, z0], &[n, d], lp);
                b.tile_load(v, vt, &[z0, z0], &[n, d], lp);
            });
            b.outer(mp, &[by(n, tr)], 1, |b, iters| {
                let i = iters[0];
                let qt = b.bram("qT", DType::F32, &[tr, d]);
                let st = b.bram("sT", DType::F32, &[tr, n]);
                let ot = b.bram("oT", DType::F32, &[tr, d]);
                let z = b.index_const(0);
                b.tile_load(q, qt, &[i, z], &[tr, d], lp);
                // S = Q·Kᵀ: sT[ii,r] accumulates over the middle j
                // counter; lanes vectorize over r (innermost).
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
                // Row softmax in the log domain, one controller execution
                // per score row.
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
                // O = P·V: oT[ii,jd] accumulates over the middle r
                // counter; lanes vectorize over jd (innermost).
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
                b.tile_store(o, ot, &[i, z], &[tr, d], lp);
            });
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let len = (self.n * HEAD_DIM) as usize;
        let mut arrays = Arrays::new();
        arrays.insert("q".into(), data::uniform(311, len, -1.0, 1.0));
        arrays.insert("k".into(), data::uniform(312, len, -1.0, 1.0));
        arrays.insert("v".into(), data::uniform(313, len, -1.0, 1.0));
        arrays
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let (q, k, v) = (&inputs["q"], &inputs["k"], &inputs["v"]);
        let (n, d) = (self.n as usize, HEAD_DIM as usize);
        let scale = f64::from((1.0 / (d as f64).sqrt()) as f32);
        let mut out = vec![0.0f64; n * d];
        let mut s = vec![0.0f64; n];
        // Mirror the accelerator's single-precision datapath: every
        // primitive result is rounded to f32, in the same order the
        // design's pipes evaluate (scores over j, softmax over r in the
        // log domain, values over r).
        for i in 0..n {
            for (r, sr) in s.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for j in 0..d {
                    let prod = (q[i * d + j] * k[r * d + j]) as f32;
                    acc = (acc + f64::from(prod)) as f32 as f64;
                }
                *sr = acc;
            }
            let mut m = f64::NEG_INFINITY;
            for &sr in &s {
                m = m.max(sr) as f32 as f64;
            }
            let mut sum = 0.0f64;
            for &sr in &s {
                let dlt = (sr - m) as f32 as f64;
                let sc = (dlt * scale) as f32 as f64;
                let e = sc.exp() as f32 as f64;
                sum = (sum + e) as f32 as f64;
            }
            let lse = sum.ln() as f32 as f64;
            for sr in s.iter_mut() {
                let dlt = (*sr - m) as f32 as f64;
                let sc = (dlt * scale) as f32 as f64;
                let e = (sc - lse) as f32 as f64;
                *sr = e.exp() as f32 as f64;
            }
            for jd in 0..d {
                let mut acc = 0.0f64;
                for (r, &pr) in s.iter().enumerate() {
                    let prod = (pr * v[r * d + jd]) as f32;
                    acc = (acc + f64::from(prod)) as f32 as f64;
                }
                out[i * d + jd] = acc;
            }
        }
        let mut arrays = Arrays::new();
        arrays.insert("out".into(), out);
        arrays
    }

    fn work(&self) -> WorkProfile {
        let (n, d) = (self.n as f64, HEAD_DIM as f64);
        WorkProfile {
            flops: 4.0 * n * n * d + 5.0 * n * n,
            exps: 2.0 * n * n,
            lns: n,
            bytes_read: 4.0 * 3.0 * n * d,
            bytes_written: 4.0 * n * d,
            ..WorkProfile::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_and_params_are_legal() {
        let a = Attention::default();
        let space = a.param_space();
        assert!(space.size() >= 8);
        assert!(space.is_legal(&a.default_params()));
    }

    #[test]
    fn small_instance_builds_for_all_toggles() {
        let a = Attention::new(8);
        for (m1, m2) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let p = ParamValues::new()
                .with("tr", 4)
                .with("pa", 2)
                .with("lp", 1)
                .with("mp", m1)
                .with("mps", m2);
            assert!(a.build(&p).is_ok(), "mp={m1} mps={m2}");
        }
    }

    #[test]
    fn reference_rows_are_convex_combinations() {
        // Each output row is a softmax-weighted average of V's rows, so
        // it must lie inside V's per-column bounds.
        let a = Attention::new(8);
        let inputs = a.inputs();
        let v = &inputs["v"];
        let out = &a.reference()["out"];
        let d = HEAD_DIM as usize;
        for col in 0..d {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for r in 0..8 {
                lo = lo.min(v[r * d + col]);
                hi = hi.max(v[r * d + col]);
            }
            for i in 0..8 {
                let x = out[i * d + col];
                assert!(x >= lo - 1e-5 && x <= hi + 1e-5, "col {col} row {i}: {x}");
            }
        }
    }
}
