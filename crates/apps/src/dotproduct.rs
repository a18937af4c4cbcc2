//! Vector dot product (Table II: dataset 187,200,000 elements).
//!
//! A memory-bound streaming benchmark: tiles of both vectors are loaded in
//! parallel, multiplied and summed through a reduction tree, and partial
//! sums fold into a global accumulator across tiles (§V-C1: "Peak
//! execution time is reached by balancing tile loads and computation").

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// The dot-product benchmark at a configurable vector length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotProduct {
    /// Vector length.
    pub n: u64,
}

impl Default for DotProduct {
    /// The scaled default: 98,304 elements (paper: 187,200,000; scale
    /// ≈ 1/1900 — the kernel is linear in N so boundedness is preserved).
    fn default() -> Self {
        DotProduct { n: 98_304 }
    }
}

impl DotProduct {
    /// A dot product over vectors of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "vector length must be nonzero");
        DotProduct { n }
    }
}

impl Benchmark for DotProduct {
    fn name(&self) -> &'static str {
        "dotproduct"
    }

    fn description(&self) -> &'static str {
        "Vector dot product"
    }

    fn paper_dataset(&self) -> &'static str {
        "187,200,000"
    }

    fn dataset_desc(&self) -> String {
        format!("N={}", self.n)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("ts", self.n, 96, 9_600.min(self.n));
        s.par("ip", 96, 32); // inner pipe parallelization
        s.par("op", 16, 8); // outer (tile-level) parallelization
        s.toggle("mp");
        s
    }

    fn default_params(&self) -> ParamValues {
        ParamValues::new()
            .with("ts", if self.n % 1536 == 0 { 1536 } else { 96 })
            .with("ip", 8)
            .with("op", 1)
            .with("mp", 1)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let n = self.n;
        let ts = p.dim("ts")?;
        let ip = p.par("ip")?;
        let op = p.par("op")?;
        let mp = p.toggle("mp")?;
        let mut b = DesignBuilder::new("dotproduct");
        let va = b.off_chip("a", DType::F32, &[n]);
        let vb = b.off_chip("b", DType::F32, &[n]);
        let out = b.off_chip("out", DType::F32, &[1]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.outer_fold(mp, &[by(n, ts)], op, acc, ReduceOp::Add, |b, iters| {
                let i = iters[0];
                let at = b.bram("aT", DType::F32, &[ts]);
                let bt = b.bram("bT", DType::F32, &[ts]);
                let partial = b.reg("partial", DType::F32, 0.0);
                b.parallel(|b| {
                    b.tile_load(va, at, &[i], &[ts], ip);
                    b.tile_load(vb, bt, &[i], &[ts], ip);
                });
                b.pipe_reduce(&[by(ts, 1)], ip, partial, ReduceOp::Add, |b, it| {
                    let x = b.load(at, &[it[0]]);
                    let y = b.load(bt, &[it[0]]);
                    b.mul(x, y)
                });
                partial
            });
            let ot = b.bram("outT", DType::F32, &[1]);
            b.pipe(&[by(1, 1)], 1, |b, it| {
                let v = b.load_reg(acc);
                b.store(ot, &[it[0]], v);
            });
            let z = b.index_const(0);
            b.tile_store(out, ot, &[z], &[1], 1);
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let n = self.n as usize;
        let mut m = Arrays::new();
        m.insert("a".into(), data::uniform(101, n, -1.0, 1.0));
        m.insert("b".into(), data::uniform(102, n, -1.0, 1.0));
        m
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let dot: f64 = inputs["a"]
            .iter()
            .zip(&inputs["b"])
            .map(|(x, y)| x * y)
            .sum();
        let mut m = Arrays::new();
        m.insert("out".into(), vec![dot]);
        m
    }

    fn work(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile {
            flops: 2.0 * n,
            bytes_read: 8.0 * n,
            bytes_written: 4.0,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        let body = vec![
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Mul, &[0, 1]),
            HlsOp::new(HlsOpKind::Add, &[2]).accumulating(),
        ];
        Some(
            HlsKernel::new("dotproduct")
                .with_loop(HlsLoop::new("L1", self.n).with_body(body).pipelined(true)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_prunes_to_divisors() {
        let b = DotProduct::default();
        let space = b.param_space();
        for def in space.defs() {
            for v in def.kind.legal_values() {
                if def.name == "ts" {
                    assert_eq!(b.n % v, 0, "tile {v} does not divide N");
                }
            }
        }
    }

    #[test]
    fn builds_across_param_combinations() {
        let b = DotProduct::new(768);
        for ts in [96, 384] {
            for mp in [0, 1] {
                let p = ParamValues::new()
                    .with("ts", ts)
                    .with("ip", 4)
                    .with("op", 2)
                    .with("mp", mp);
                assert!(b.build(&p).is_ok(), "ts={ts} mp={mp}");
            }
        }
    }

    #[test]
    fn reference_matches_manual_sum() {
        let b = DotProduct::new(96);
        let r = b.reference();
        assert_eq!(r["out"].len(), 1);
        assert!(r["out"][0].is_finite());
    }
}
