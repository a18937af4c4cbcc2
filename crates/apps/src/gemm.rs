//! Tiled matrix multiplication (Table II: 1536 × 1536).
//!
//! A compute- and locality-rich kernel: the paper finds Pareto-optimal
//! gemm designs "occupy almost all BRAM resources on the board" because
//! good designs retain large two-dimensional chunks on chip (§V-C1). The
//! DHDL formulation tiles all three loops, accumulating partial tile
//! products into a C tile with a MetaPipe fold over the K dimension.

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// The gemm benchmark at configurable dimensions (`C[M,N] = A[M,K]·B[K,N]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Rows of A and C.
    pub m: u64,
    /// Columns of B and C.
    pub n: u64,
    /// Inner dimension.
    pub k: u64,
}

impl Default for Gemm {
    /// The scaled default: 192³ (paper: 1536³, scale 1/8 per dimension).
    fn default() -> Self {
        Gemm {
            m: 192,
            n: 192,
            k: 192,
        }
    }
}

impl Gemm {
    /// A gemm of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(m: u64, n: u64, k: u64) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "dimensions must be nonzero");
        Gemm { m, n, k }
    }
}

impl Benchmark for Gemm {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn description(&self) -> &'static str {
        "Tiled matrix multiplication"
    }

    fn paper_dataset(&self) -> &'static str {
        "1536 x 1536"
    }

    fn dataset_desc(&self) -> String {
        format!("M={} N={} K={}", self.m, self.n, self.k)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("tm", self.m, 8, 192.min(self.m));
        s.tile("tn", self.n, 8, 192.min(self.n));
        s.tile("tk", self.k, 8, 192.min(self.k));
        s.par("p", 48, 48);
        s.toggle("mp1");
        s.toggle("mp2");
        s
    }

    fn default_params(&self) -> ParamValues {
        let t = |d: u64| if d % 48 == 0 { 48 } else { 8.min(d) };
        ParamValues::new()
            .with("tm", t(self.m))
            .with("tn", t(self.n))
            .with("tk", t(self.k))
            .with("p", 2)
            .with("mp1", 1)
            .with("mp2", 1)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let (m, n, k) = (self.m, self.n, self.k);
        let tm = p.dim("tm")?;
        let tn = p.dim("tn")?;
        let tk = p.dim("tk")?;
        let par = p.par("p")?;
        let mp1 = p.toggle("mp1")?;
        let mp2 = p.toggle("mp2")?;
        let mut b = DesignBuilder::new("gemm");
        let a = b.off_chip("a", DType::F32, &[m, k]);
        let bb = b.off_chip("b", DType::F32, &[k, n]);
        let c = b.off_chip("c", DType::F32, &[m, n]);
        b.sequential(|b| {
            b.outer(mp1, &[by(m, tm), by(n, tn)], 1, |b, ij| {
                let (i, j) = (ij[0], ij[1]);
                let ct = b.bram("cT", DType::F32, &[tm, tn]);
                b.outer_fold(mp2, &[by(k, tk)], 1, ct, ReduceOp::Add, |b, kk| {
                    let kt = kk[0];
                    let at = b.bram("aT", DType::F32, &[tm, tk]);
                    let bt = b.bram("bT", DType::F32, &[tk, tn]);
                    let pt = b.bram("pT", DType::F32, &[tm, tn]);
                    b.parallel(|b| {
                        b.tile_load(a, at, &[i, kt], &[tm, tk], par);
                        b.tile_load(bb, bt, &[kt, j], &[tk, tn], par);
                    });
                    // pT[ii,jj] accumulates over the kk2 (middle) counter;
                    // the first kk2 iteration resets the running value.
                    b.pipe(&[by(tm, 1), by(tk, 1), by(tn, 1)], par, |b, it| {
                        let (ii, kk2, jj) = (it[0], it[1], it[2]);
                        let av = b.load(at, &[ii, kk2]);
                        let bv = b.load(bt, &[kk2, jj]);
                        let prod = b.mul(av, bv);
                        let zero_idx = b.index_const(0);
                        let first = b.eq(kk2, zero_idx);
                        let zero = b.constant(0.0, DType::F32);
                        let prev_raw = b.load(pt, &[ii, jj]);
                        let prev = b.mux(first, zero, prev_raw);
                        let sum = b.add(prev, prod);
                        b.store(pt, &[ii, jj], sum);
                    });
                    pt
                });
                b.tile_store(c, ct, &[i, j], &[tm, tn], par);
            });
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let mut arrays = Arrays::new();
        arrays.insert(
            "a".into(),
            data::uniform(301, (self.m * self.k) as usize, -1.0, 1.0),
        );
        arrays.insert(
            "b".into(),
            data::uniform(302, (self.k * self.n) as usize, -1.0, 1.0),
        );
        arrays
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let (a, b) = (&inputs["a"], &inputs["b"]);
        let (m, n, k) = (self.m as usize, self.n as usize, self.k as usize);
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        let mut out = Arrays::new();
        out.insert("c".into(), c);
        out
    }

    fn work(&self) -> WorkProfile {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        WorkProfile {
            flops: 2.0 * m * n * k,
            bytes_read: 4.0 * (m * k + k * n),
            bytes_written: 4.0 * m * n,
            blas3: true,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        let inner = HlsLoop::new("L3", self.k)
            .with_body(vec![
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Mul, &[0, 1]),
                HlsOp::new(HlsOpKind::Add, &[2]).accumulating(),
            ])
            .pipelined(true);
        Some(HlsKernel::new("gemm").with_loop(
            HlsLoop::new("L1", self.m).with_child(HlsLoop::new("L2", self.n).with_child(inner)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tiles_divide_dimensions() {
        let g = Gemm::default();
        let p = g.default_params();
        assert_eq!(g.m % p.dim("tm").unwrap(), 0);
        assert_eq!(g.n % p.dim("tn").unwrap(), 0);
        assert_eq!(g.k % p.dim("tk").unwrap(), 0);
    }

    #[test]
    fn small_instance_builds_for_all_toggles() {
        let g = Gemm::new(16, 16, 16);
        for (m1, m2) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let p = ParamValues::new()
                .with("tm", 8)
                .with("tn", 8)
                .with("tk", 8)
                .with("p", 2)
                .with("mp1", m1)
                .with("mp2", m2);
            assert!(g.build(&p).is_ok(), "m1={m1} m2={m2}");
        }
    }

    #[test]
    fn reference_matches_identity() {
        // A = I => C = B.
        let g = Gemm::new(4, 4, 4);
        let mut inputs = g.inputs();
        let ident: Vec<f64> = (0..16).map(|i| f64::from(u8::from(i % 5 == 0))).collect();
        inputs.insert("a".into(), ident);
        // Manual check with the same algorithm shape.
        let b = &inputs["b"];
        let mut c = [0.0f64; 16];
        for i in 0..4 {
            for kk in 0..4 {
                let av = inputs["a"][i * 4 + kk];
                for j in 0..4 {
                    c[i * 4 + j] += av * b[kk * 4 + j];
                }
            }
        }
        assert_eq!(&c[..], &b[..]);
    }
}
