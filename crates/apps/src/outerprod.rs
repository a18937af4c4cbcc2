//! Vector outer product (Table II: 38,400 × 38,400).
//!
//! Both BRAM- and memory-bound (§V-C1): for 2N inputs the design holds
//! 2N + N² tile elements on chip, so BRAM requirements grow quadratically
//! with tile size. The paper observes that the best designs do *not*
//! overlap tile loads and stores with MetaPipes, because main-memory
//! contention costs more than sequential execution — a behaviour the
//! DRAM contention models reproduce.

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// The outer-product benchmark at a configurable vector length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterProduct {
    /// Input vector length (output is `n × n`).
    pub n: u64,
}

impl Default for OuterProduct {
    /// The scaled default: 768 × 768 (paper: 38,400 × 38,400, scale 1/50
    /// per dimension).
    fn default() -> Self {
        OuterProduct { n: 768 }
    }
}

impl OuterProduct {
    /// An outer product of two `n`-element vectors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "vector length must be nonzero");
        OuterProduct { n }
    }
}

impl Benchmark for OuterProduct {
    fn name(&self) -> &'static str {
        "outerprod"
    }

    fn description(&self) -> &'static str {
        "Vector outer product"
    }

    fn paper_dataset(&self) -> &'static str {
        "38,400 x 38,400"
    }

    fn dataset_desc(&self) -> String {
        format!("N={} (output {}x{})", self.n, self.n, self.n)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("ts1", self.n, 32, 384.min(self.n));
        s.tile("ts2", self.n, 32, 384.min(self.n));
        s.par("p", 64, 64);
        s.toggle("mp1");
        s.toggle("mp2");
        s
    }

    fn default_params(&self) -> ParamValues {
        let t = if self.n % 96 == 0 { 96 } else { 32.min(self.n) };
        ParamValues::new()
            .with("ts1", t)
            .with("ts2", t)
            .with("p", 4)
            .with("mp1", 0)
            .with("mp2", 0)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let n = self.n;
        let ts1 = p.dim("ts1")?;
        let ts2 = p.dim("ts2")?;
        let par = p.par("p")?;
        let mp1 = p.toggle("mp1")?;
        let mp2 = p.toggle("mp2")?;
        let mut b = DesignBuilder::new("outerprod");
        let v1 = b.off_chip("v1", DType::F32, &[n]);
        let v2 = b.off_chip("v2", DType::F32, &[n]);
        let out = b.off_chip("out", DType::F32, &[n, n]);
        b.sequential(|b| {
            b.outer(mp1, &[by(n, ts1)], 1, |b, oi| {
                let i = oi[0];
                let v1t = b.bram("v1T", DType::F32, &[ts1]);
                b.tile_load(v1, v1t, &[i], &[ts1], par);
                b.outer(mp2, &[by(n, ts2)], 1, |b, oj| {
                    let j = oj[0];
                    let v2t = b.bram("v2T", DType::F32, &[ts2]);
                    let ot = b.bram("oT", DType::F32, &[ts1, ts2]);
                    b.tile_load(v2, v2t, &[j], &[ts2], par);
                    b.pipe(&[by(ts1, 1), by(ts2, 1)], par, |b, it| {
                        let a = b.load(v1t, &[it[0]]);
                        let c = b.load(v2t, &[it[1]]);
                        let m = b.mul(a, c);
                        b.store(ot, &[it[0], it[1]], m);
                    });
                    b.tile_store(out, ot, &[i, j], &[ts1, ts2], par);
                });
            });
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let n = self.n as usize;
        let mut m = Arrays::new();
        m.insert("v1".into(), data::uniform(201, n, -2.0, 2.0));
        m.insert("v2".into(), data::uniform(202, n, -2.0, 2.0));
        m
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let (a, c) = (&inputs["v1"], &inputs["v2"]);
        let n = self.n as usize;
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                out[i * n + j] = (a[i] * c[j]) as f32 as f64;
            }
        }
        let mut m = Arrays::new();
        m.insert("out".into(), out);
        m
    }

    fn work(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile {
            flops: n * n,
            bytes_read: 8.0 * n,
            bytes_written: 4.0 * n * n,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        let inner = HlsLoop::new("L2", self.n)
            .with_body(vec![
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Mul, &[0, 1]),
                HlsOp::new(HlsOpKind::Store, &[2]),
            ])
            .pipelined(true);
        Some(HlsKernel::new("outerprod").with_loop(HlsLoop::new("L1", self.n).with_child(inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bram_grows_quadratically_with_tile() {
        use dhdl_core::NodeKind;
        let b = OuterProduct::new(384);
        let small = b
            .build(
                &ParamValues::new()
                    .with("ts1", 32)
                    .with("ts2", 32)
                    .with("p", 1)
                    .with("mp1", 0)
                    .with("mp2", 0),
            )
            .unwrap();
        let bits = |d: &Design| {
            d.iter()
                .filter_map(|(_, n)| match &n.kind {
                    NodeKind::Bram(s) => Some(s.elements()),
                    _ => None,
                })
                .sum::<u64>()
        };
        let large = b
            .build(
                &ParamValues::new()
                    .with("ts1", 128)
                    .with("ts2", 128)
                    .with("p", 1)
                    .with("mp1", 0)
                    .with("mp2", 0),
            )
            .unwrap();
        // 4x tile => ~16x output tile elements.
        assert!(bits(&large) > bits(&small) * 8);
    }

    #[test]
    fn reference_is_rank_one() {
        let b = OuterProduct::new(8);
        let r = b.reference();
        let inputs = b.inputs();
        let out = &r["out"];
        assert_eq!(out.len(), 64);
        let expected = (inputs["v1"][3] * inputs["v2"][5]) as f32 as f64;
        assert_eq!(out[3 * 8 + 5], expected);
    }
}
