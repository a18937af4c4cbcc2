//! Gaussian discriminant analysis (Table II: R = 360,000, D = 96).
//!
//! The paper's running example (Figures 2–4): for each input row, subtract
//! the class mean selected by the label and accumulate the outer product
//! of the residual into a covariance matrix. The DHDL formulation nests
//! two MetaPipes with fold accumulators, exactly as in Figure 4, and its
//! parameter bubble diagram (Figure 3) is reproduced by the parameter
//! space here: parallelism factors `P1Par`/`P2Par`/`M1Par`/`M2Par`, tile
//! size `inTileSize`, and MetaPipe toggles `M1toggle`/`M2toggle`.

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// The GDA benchmark at configurable row count and dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gda {
    /// Number of input rows.
    pub r: u64,
    /// Feature dimension (the paper's `C`/`muSize`).
    pub d: u64,
}

impl Default for Gda {
    /// The scaled default: R = 4608, D = 32 (paper: R = 360,000, D = 96).
    fn default() -> Self {
        Gda { r: 4_608, d: 32 }
    }
}

impl Gda {
    /// A GDA instance over `r` rows of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `d` is zero.
    pub fn new(r: u64, d: u64) -> Self {
        assert!(r > 0 && d > 0, "dimensions must be nonzero");
        Gda { r, d }
    }
}

impl Benchmark for Gda {
    fn name(&self) -> &'static str {
        "gda"
    }

    fn description(&self) -> &'static str {
        "Gaussian discriminant analysis"
    }

    fn paper_dataset(&self) -> &'static str {
        "R=360,000 D=96"
    }

    fn dataset_desc(&self) -> String {
        format!("R={} D={}", self.r, self.d)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("rts", self.r, 4, 192.min(self.r)); // inTileSize
        s.par("p1", self.d, 16.min(self.d)); // P1Par
        s.par("p2", self.d, 16.min(self.d)); // P2Par
        s.par("m2p", 4, 4); // M2Par
        s.par("m1p", 4, 4); // M1Par
        s.toggle("m1"); // M1toggle
        s.toggle("m2"); // M2toggle
        s
    }

    fn default_params(&self) -> ParamValues {
        ParamValues::new()
            .with("rts", if self.r % 96 == 0 { 96 } else { 4.min(self.r) })
            .with("p1", 4.min(self.d))
            .with("p2", 4.min(self.d))
            .with("m2p", 1)
            .with("m1p", 1)
            .with("m1", 1)
            .with("m2", 1)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let (r, d) = (self.r, self.d);
        let rts = p.dim("rts")?;
        let p1 = p.par("p1")?;
        let p2 = p.par("p2")?;
        let m2p = p.par("m2p")?;
        let m1p = p.par("m1p")?;
        let m1 = p.toggle("m1")?;
        let m2 = p.toggle("m2")?;
        let mut b = DesignBuilder::new("gda");
        let x = b.off_chip("x", DType::F32, &[r, d]);
        let y = b.off_chip("y", DType::Bool, &[r]);
        let mu0 = b.off_chip("mu0", DType::F32, &[d]);
        let mu1 = b.off_chip("mu1", DType::F32, &[d]);
        let sigma = b.off_chip("sigma", DType::F32, &[d, d]);
        b.sequential(|b| {
            let mu0t = b.bram("mu0T", DType::F32, &[d]);
            let mu1t = b.bram("mu1T", DType::F32, &[d]);
            let z = b.index_const(0);
            b.parallel(|b| {
                b.tile_load(mu0, mu0t, &[z], &[d], p1);
                b.tile_load(mu1, mu1t, &[z], &[d], p1);
            });
            let sigt = b.bram("sigT", DType::F32, &[d, d]);
            b.outer_fold(m1, &[by(r, rts)], m1p, sigt, ReduceOp::Add, |b, ri| {
                let rr = ri[0];
                let yt = b.bram("yT", DType::Bool, &[rts]);
                let xt = b.bram("xT", DType::F32, &[rts, d]);
                let z2 = b.index_const(0);
                b.parallel(|b| {
                    b.tile_load(x, xt, &[rr, z2], &[rts, d], p1);
                    b.tile_load(y, yt, &[rr], &[rts], 1);
                });
                let sigma_blk = b.bram("sigmaBlk", DType::F32, &[d, d]);
                b.outer_fold(
                    m2,
                    &[by(rts, 1)],
                    m2p,
                    sigma_blk,
                    ReduceOp::Add,
                    |b, rri| {
                        let row = rri[0];
                        let subt = b.bram("subT", DType::F32, &[d]);
                        let sigma_tile = b.bram("sigmaTile", DType::F32, &[d, d]);
                        b.pipe(&[by(d, 1)], p1, |b, it| {
                            let cc = it[0];
                            let label = b.load(yt, &[row]);
                            let m1v = b.load(mu1t, &[cc]);
                            let m0v = b.load(mu0t, &[cc]);
                            let mu = b.mux(label, m1v, m0v);
                            let xv = b.load(xt, &[row, cc]);
                            let sub = b.sub(xv, mu);
                            b.store(subt, &[cc], sub);
                        });
                        b.pipe(&[by(d, 1), by(d, 1)], p2, |b, it| {
                            let (ii, jj) = (it[0], it[1]);
                            let a = b.load(subt, &[ii]);
                            let c = b.load(subt, &[jj]);
                            let m = b.mul(a, c);
                            b.store(sigma_tile, &[ii, jj], m);
                        });
                        sigma_tile
                    },
                );
                sigma_blk
            });
            let z3 = b.index_const(0);
            b.tile_store(sigma, sigt, &[z3, z3], &[d, d], p2);
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let (r, d) = (self.r as usize, self.d as usize);
        let mut m = Arrays::new();
        m.insert("x".into(), data::uniform(601, r * d, -1.0, 1.0));
        m.insert("y".into(), data::booleans(602, r, 0.4));
        m.insert("mu0".into(), data::uniform(603, d, -0.5, 0.5));
        m.insert("mu1".into(), data::uniform(604, d, -0.5, 0.5));
        m
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let (r, d) = (self.r as usize, self.d as usize);
        let (x, y, mu0, mu1) = (&inputs["x"], &inputs["y"], &inputs["mu0"], &inputs["mu1"]);
        let mut sigma = vec![0.0f64; d * d];
        let mut sub = vec![0.0f64; d];
        for row in 0..r {
            for c in 0..d {
                let mu = if y[row] != 0.0 { mu1[c] } else { mu0[c] };
                sub[c] = ((x[row * d + c] - mu) as f32) as f64;
            }
            for i in 0..d {
                for j in 0..d {
                    sigma[i * d + j] += ((sub[i] * sub[j]) as f32) as f64;
                }
            }
        }
        let mut m = Arrays::new();
        m.insert("sigma".into(), sigma);
        m
    }

    fn work(&self) -> WorkProfile {
        let (r, d) = (self.r as f64, self.d as f64);
        WorkProfile {
            flops: 2.0 * r * d * d + r * d,
            bytes_read: 4.0 * (r * d + 2.0 * d) + r,
            bytes_written: 4.0 * d * d,
            cache_hostile: true,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        // Figure 2's loop nest: L1 over rows; L11 computes sub; L121/L122
        // accumulate the outer product.
        let l11 = HlsLoop::new("L11", self.d)
            .with_body(vec![
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Cmp, &[0]),
                HlsOp::new(HlsOpKind::Add, &[1, 2]),
                HlsOp::new(HlsOpKind::Store, &[3]),
            ])
            .pipelined(true);
        let l122 = HlsLoop::new("L122", self.d)
            .with_body(vec![
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Mul, &[0, 1]),
                HlsOp::new(HlsOpKind::Add, &[2]).accumulating(),
                HlsOp::new(HlsOpKind::Store, &[3]),
            ])
            .pipelined(true);
        let l121 = HlsLoop::new("L121", self.d).with_child(l122);
        let l1 = HlsLoop::new("L1", self.r).with_child(l11).with_child(l121);
        Some(HlsKernel::new("gda").with_loop(l1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_structure() {
        use dhdl_core::NodeKind;
        let g = Gda::new(96, 8);
        let d = g
            .build(
                &ParamValues::new()
                    .with("rts", 12)
                    .with("p1", 2)
                    .with("p2", 2)
                    .with("m2p", 1)
                    .with("m1p", 1)
                    .with("m1", 1)
                    .with("m2", 1),
            )
            .unwrap();
        // Two nested MetaPipes with fold accumulators (M1, M2).
        let metas = d.find_all(|n| matches!(n.kind, NodeKind::MetaPipe(_)));
        assert_eq!(metas.len(), 2);
        for m in metas {
            let NodeKind::MetaPipe(spec) = d.kind(m) else {
                unreachable!()
            };
            assert!(spec.fold.is_some());
        }
        // Toggles off turn them into Sequentials.
        let d2 = g
            .build(
                &ParamValues::new()
                    .with("rts", 12)
                    .with("p1", 2)
                    .with("p2", 2)
                    .with("m2p", 1)
                    .with("m1p", 1)
                    .with("m1", 0)
                    .with("m2", 0),
            )
            .unwrap();
        assert!(d2
            .find_all(|n| matches!(n.kind, NodeKind::MetaPipe(_)))
            .is_empty());
    }

    #[test]
    fn reference_sigma_is_symmetric() {
        let g = Gda::new(64, 6);
        let r = g.reference();
        let s = &r["sigma"];
        for i in 0..6 {
            for j in 0..6 {
                assert!((s[i * 6 + j] - s[j * 6 + i]).abs() < 1e-9);
            }
        }
        // Diagonal entries are sums of squares: nonnegative.
        for i in 0..6 {
            assert!(s[i * 6 + i] >= 0.0);
        }
    }
}
