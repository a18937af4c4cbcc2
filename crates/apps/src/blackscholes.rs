//! Black-Scholes-Merton option pricing (Table II: N = 9,995,328).
//!
//! A financial-analytics benchmark whose core kernel "is amenable to deep
//! pipelining": the FPGA exploits far more instruction-level parallelism
//! than a CPU through its long dataflow pipeline, producing the paper's
//! largest speedup (16.7×, §V-D). The kernel streams through multiple
//! large arrays and performs complex floating point computation per
//! element, including `exp`, `ln`, `sqrt` and divides.

use dhdl_core::{by, DType, Design, DesignBuilder, NodeId, ParamSpace, ParamValues, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
const CND_A1: f64 = 0.319_381_530;
const CND_A2: f64 = -0.356_563_782;
const CND_A3: f64 = 1.781_477_937;
const CND_A4: f64 = -1.821_255_978;
const CND_A5: f64 = 1.330_274_429;
const CND_K: f64 = 0.231_641_9;

/// The Black-Scholes benchmark at a configurable option count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackScholes {
    /// Number of options priced.
    pub n: u64,
}

impl Default for BlackScholes {
    /// The scaled default: 49,152 options (paper: 9,995,328, scale ≈ 1/200).
    fn default() -> Self {
        BlackScholes { n: 49_152 }
    }
}

impl BlackScholes {
    /// A Black-Scholes instance pricing `n` options.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "option count must be nonzero");
        BlackScholes { n }
    }

    /// Scalar reference implementation of one option price.
    pub fn price_one(s: f64, k: f64, r: f64, v: f64, t: f64, is_put: bool) -> f64 {
        fn cnd(d: f64) -> f64 {
            let x = d.abs();
            let kk = 1.0 / (1.0 + CND_K * x);
            let poly = kk * (CND_A1 + kk * (CND_A2 + kk * (CND_A3 + kk * (CND_A4 + kk * CND_A5))));
            let n = 1.0 - INV_SQRT_2PI * (-x * x / 2.0).exp() * poly;
            if d < 0.0 {
                1.0 - n
            } else {
                n
            }
        }
        let sqrt_t = t.sqrt();
        let d1 = ((r + v * v / 2.0) * t + (s / k).ln()) / (v * sqrt_t);
        let d2 = d1 - v * sqrt_t;
        let n1 = cnd(d1);
        let n2 = cnd(d2);
        let fut = k * (-r * t).exp();
        if is_put {
            fut * (1.0 - n2) - s * (1.0 - n1)
        } else {
            s * n1 - fut * n2
        }
    }
}

/// Emit the CND dataflow for `d`, returning the result node.
fn build_cnd(b: &mut DesignBuilder, d: NodeId) -> NodeId {
    let x = b.abs(d);
    let one = b.constant(1.0, DType::F32);
    let ck = b.constant(CND_K, DType::F32);
    let kx = b.mul(ck, x);
    let denom = b.add(one, kx);
    let kk = b.div(one, denom);
    // Horner evaluation of the quintic polynomial.
    let a5 = b.constant(CND_A5, DType::F32);
    let a4 = b.constant(CND_A4, DType::F32);
    let a3 = b.constant(CND_A3, DType::F32);
    let a2 = b.constant(CND_A2, DType::F32);
    let a1 = b.constant(CND_A1, DType::F32);
    let mut poly = a5;
    for c in [a4, a3, a2, a1] {
        let m = b.mul(poly, kk);
        poly = b.add(c, m);
    }
    let poly = b.mul(poly, kk);
    let xx = b.mul(x, x);
    let half = b.constant(0.5, DType::F32);
    let e_arg0 = b.mul(xx, half);
    let e_arg = b.neg(e_arg0);
    let e = b.exp(e_arg);
    let inv = b.constant(INV_SQRT_2PI, DType::F32);
    let tail0 = b.mul(inv, e);
    let tail = b.mul(tail0, poly);
    let n = b.sub(one, tail);
    let zero = b.constant(0.0, DType::F32);
    let neg = b.lt(d, zero);
    let flipped = b.sub(one, n);
    b.mux(neg, flipped, n)
}

impl Benchmark for BlackScholes {
    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn description(&self) -> &'static str {
        "Black-Scholes-Merton model"
    }

    fn paper_dataset(&self) -> &'static str {
        "N=9,995,328"
    }

    fn dataset_desc(&self) -> String {
        format!("N={}", self.n)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("ts", self.n, 96, 6_144.min(self.n));
        s.par("ip", 96, 16);
        s.toggle("mp");
        s
    }

    fn default_params(&self) -> ParamValues {
        ParamValues::new()
            .with("ts", if self.n % 1536 == 0 { 1536 } else { 96 })
            .with("ip", 2)
            .with("mp", 1)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let n = self.n;
        let ts = p.dim("ts")?;
        let ip = p.par("ip")?;
        let mp = p.toggle("mp")?;
        let mut b = DesignBuilder::new("blackscholes");
        let sprice = b.off_chip("sptprice", DType::F32, &[n]);
        let strike = b.off_chip("strike", DType::F32, &[n]);
        let rate = b.off_chip("rate", DType::F32, &[n]);
        let vol = b.off_chip("volatility", DType::F32, &[n]);
        let time = b.off_chip("otime", DType::F32, &[n]);
        let otype = b.off_chip("otype", DType::F32, &[n]);
        let out = b.off_chip("price", DType::F32, &[n]);
        b.sequential(|b| {
            b.outer(mp, &[by(n, ts)], 1, |b, iters| {
                let i = iters[0];
                let st = b.bram("sT", DType::F32, &[ts]);
                let kt = b.bram("kT", DType::F32, &[ts]);
                let rt = b.bram("rT", DType::F32, &[ts]);
                let vt = b.bram("vT", DType::F32, &[ts]);
                let tt = b.bram("tT", DType::F32, &[ts]);
                let yt = b.bram("yT", DType::F32, &[ts]);
                let ot = b.bram("oT", DType::F32, &[ts]);
                b.parallel(|b| {
                    b.tile_load(sprice, st, &[i], &[ts], ip);
                    b.tile_load(strike, kt, &[i], &[ts], ip);
                    b.tile_load(rate, rt, &[i], &[ts], ip);
                    b.tile_load(vol, vt, &[i], &[ts], ip);
                    b.tile_load(time, tt, &[i], &[ts], ip);
                    b.tile_load(otype, yt, &[i], &[ts], ip);
                });
                b.pipe(&[by(ts, 1)], ip, |b, it| {
                    let idx = it[0];
                    let s = b.load(st, &[idx]);
                    let k = b.load(kt, &[idx]);
                    let r = b.load(rt, &[idx]);
                    let v = b.load(vt, &[idx]);
                    let t = b.load(tt, &[idx]);
                    let y = b.load(yt, &[idx]);
                    let sqrt_t = b.sqrt(t);
                    let ratio = b.div(s, k);
                    let logv = b.ln(ratio);
                    let vv = b.mul(v, v);
                    let half = b.constant(0.5, DType::F32);
                    let pow = b.mul(vv, half);
                    let rp = b.add(r, pow);
                    let rpt = b.mul(rp, t);
                    let num = b.add(rpt, logv);
                    let vst = b.mul(v, sqrt_t);
                    let d1 = b.div(num, vst);
                    let d2 = b.sub(d1, vst);
                    let n1 = build_cnd(b, d1);
                    let n2 = build_cnd(b, d2);
                    let rt_ = b.mul(r, t);
                    let nrt = b.neg(rt_);
                    let e = b.exp(nrt);
                    let fut = b.mul(k, e);
                    let sn1 = b.mul(s, n1);
                    let fn2 = b.mul(fut, n2);
                    let call = b.sub(sn1, fn2);
                    let one = b.constant(1.0, DType::F32);
                    let om1 = b.sub(one, n1);
                    let om2 = b.sub(one, n2);
                    let fom2 = b.mul(fut, om2);
                    let som1 = b.mul(s, om1);
                    let put = b.sub(fom2, som1);
                    let zero = b.constant(0.0, DType::F32);
                    let is_put = b.gt(y, zero);
                    let price = b.mux(is_put, put, call);
                    b.store(ot, &[idx], price);
                });
                b.tile_store(out, ot, &[i], &[ts], ip);
            });
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let n = self.n as usize;
        let mut m = Arrays::new();
        m.insert("sptprice".into(), data::uniform(501, n, 20.0, 120.0));
        m.insert("strike".into(), data::uniform(502, n, 20.0, 120.0));
        m.insert("rate".into(), data::uniform(503, n, 0.01, 0.1));
        m.insert("volatility".into(), data::uniform(504, n, 0.05, 0.7));
        m.insert("otime".into(), data::uniform(505, n, 0.1, 2.0));
        m.insert("otype".into(), data::booleans(506, n, 0.5));
        m
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let n = self.n as usize;
        let mut out = vec![0.0; n];
        for i in 0..n {
            out[i] = Self::price_one(
                inputs["sptprice"][i],
                inputs["strike"][i],
                inputs["rate"][i],
                inputs["volatility"][i],
                inputs["otime"][i],
                inputs["otype"][i] != 0.0,
            );
        }
        let mut m = Arrays::new();
        m.insert("price".into(), out);
        m
    }

    fn work(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile {
            flops: 40.0 * n,
            divs: 4.0 * n,
            sqrts: n,
            exps: 3.0 * n,
            lns: n,
            bytes_read: 24.0 * n,
            bytes_written: 4.0 * n,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        // One option's dataflow in the coarse HLS IR.
        let mut ops = vec![
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Div, &[0, 1]),
            HlsOp::new(HlsOpKind::Mul, &[2, 2]),
        ];
        for k in 0..12 {
            let d = ops.len();
            ops.push(HlsOp::new(
                if k % 3 == 0 {
                    HlsOpKind::Div
                } else {
                    HlsOpKind::Mul
                },
                &[d - 1, d - 2],
            ));
            ops.push(HlsOp::new(HlsOpKind::Add, &[d, d - 1]));
        }
        let last = ops.len() - 1;
        ops.push(HlsOp::new(HlsOpKind::Store, &[last]));
        Some(
            HlsKernel::new("blackscholes")
                .with_loop(HlsLoop::new("L1", self.n).with_body(ops).pipelined(true)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_put_parity_roughly_holds() {
        // call - put = S - K e^{-rT}.
        let (s, k, r, v, t) = (100.0, 95.0, 0.05, 0.3, 1.0);
        let call = BlackScholes::price_one(s, k, r, v, t, false);
        let put = BlackScholes::price_one(s, k, r, v, t, true);
        let parity = s - k * (-r * t).exp();
        assert!((call - put - parity).abs() < 1e-9);
    }

    #[test]
    fn prices_are_positive_and_bounded() {
        let b = BlackScholes::new(96);
        let r = b.reference();
        for &p in &r["price"] {
            assert!(p > -1e-6, "price {p}");
            assert!(p < 200.0, "price {p}");
        }
    }

    #[test]
    fn deep_pipeline_body() {
        let b = BlackScholes::new(96);
        let d = b
            .build(
                &ParamValues::new()
                    .with("ts", 96)
                    .with("ip", 1)
                    .with("mp", 1),
            )
            .unwrap();
        use dhdl_core::NodeKind;
        let pipes = d.find_all(|n| matches!(n.kind, NodeKind::Pipe(_)));
        let NodeKind::Pipe(spec) = d.kind(pipes[0]) else {
            unreachable!()
        };
        assert!(spec.body.len() > 50, "body has {} nodes", spec.body.len());
    }
}
