//! TPC-H Query 6 (Table II: N = 18,720,000).
//!
//! A data-analytics benchmark that "streams through a collection of
//! records and performs a reduction on records filtered by a condition".
//! On the FPGA the data-dependent branches become multiplexers that never
//! stall the dataflow pipeline, which is why the accelerator beats the CPU
//! despite being memory-bound (§V-D).

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// Query constants (the TPC-H Q6 predicate, with ship dates encoded as
/// days since 1970-01-01 so they remain exactly representable in f32).
const DATE_LO: f64 = 8766.0; // 1994-01-01
const DATE_HI: f64 = 9131.0; // 1995-01-01
const DISC_LO: f64 = 0.05;
const DISC_HI: f64 = 0.07;
const QTY_LIMIT: f64 = 24.0;

/// The TPC-H Q6 benchmark at a configurable record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchQ6 {
    /// Number of lineitem records.
    pub n: u64,
}

impl Default for TpchQ6 {
    /// The scaled default: 98,304 records (paper: 18,720,000, scale
    /// ≈ 1/190).
    fn default() -> Self {
        TpchQ6 { n: 98_304 }
    }
}

impl TpchQ6 {
    /// A Q6 instance over `n` records.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "record count must be nonzero");
        TpchQ6 { n }
    }

    fn predicate(date: f64, disc: f64, qty: f64) -> bool {
        (DATE_LO..DATE_HI).contains(&date) && (DISC_LO..=DISC_HI).contains(&disc) && qty < QTY_LIMIT
    }
}

impl Benchmark for TpchQ6 {
    fn name(&self) -> &'static str {
        "tpchq6"
    }

    fn description(&self) -> &'static str {
        "TPC-H Query 6"
    }

    fn paper_dataset(&self) -> &'static str {
        "N=18,720,000"
    }

    fn dataset_desc(&self) -> String {
        format!("N={}", self.n)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("ts", self.n, 96, 9_600.min(self.n));
        s.par("ip", 96, 32);
        s.par("op", 16, 8);
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
        let mut b = DesignBuilder::new("tpchq6");
        let price = b.off_chip("price", DType::F32, &[n]);
        let disc = b.off_chip("discount", DType::F32, &[n]);
        let qty = b.off_chip("quantity", DType::F32, &[n]);
        let date = b.off_chip("shipdate", DType::F32, &[n]);
        let out = b.off_chip("revenue", DType::F32, &[1]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.outer_fold(mp, &[by(n, ts)], op, acc, ReduceOp::Add, |b, iters| {
                let i = iters[0];
                let pt = b.bram("priceT", DType::F32, &[ts]);
                let dt = b.bram("discT", DType::F32, &[ts]);
                let qt = b.bram("qtyT", DType::F32, &[ts]);
                let st = b.bram("dateT", DType::F32, &[ts]);
                let partial = b.reg("partial", DType::F32, 0.0);
                b.parallel(|b| {
                    b.tile_load(price, pt, &[i], &[ts], ip);
                    b.tile_load(disc, dt, &[i], &[ts], ip);
                    b.tile_load(qty, qt, &[i], &[ts], ip);
                    b.tile_load(date, st, &[i], &[ts], ip);
                });
                b.pipe_reduce(&[by(ts, 1)], ip, partial, ReduceOp::Add, |b, it| {
                    let pv = b.load(pt, &[it[0]]);
                    let dv = b.load(dt, &[it[0]]);
                    let qv = b.load(qt, &[it[0]]);
                    let sv = b.load(st, &[it[0]]);
                    let d_lo = b.constant(DATE_LO, DType::F32);
                    let d_hi = b.constant(DATE_HI, DType::F32);
                    let x_lo = b.constant(DISC_LO, DType::F32);
                    let x_hi = b.constant(DISC_HI, DType::F32);
                    let q_lim = b.constant(QTY_LIMIT, DType::F32);
                    let c1 = b.prim(dhdl_core::PrimOp::Ge, &[sv, d_lo]);
                    let c2 = b.lt(sv, d_hi);
                    let c3 = b.prim(dhdl_core::PrimOp::Ge, &[dv, x_lo]);
                    let c4 = b.le(dv, x_hi);
                    let c5 = b.lt(qv, q_lim);
                    let c12 = b.and(c1, c2);
                    let c34 = b.and(c3, c4);
                    let c1234 = b.and(c12, c34);
                    let cond = b.and(c1234, c5);
                    let rev = b.mul(pv, dv);
                    let zero = b.constant(0.0, DType::F32);
                    b.mux(cond, rev, zero)
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
        m.insert("price".into(), data::uniform(401, n, 100.0, 10_000.0));
        m.insert("discount".into(), data::uniform(402, n, 0.0, 0.1));
        m.insert("quantity".into(), data::ints(403, n, 1, 50));
        m.insert("shipdate".into(), data::ints(404, n, 8_401, 9_862));
        m
    }

    // Lane `i` is gathered from four input arrays at once; an iterator
    // chain would obscure the predicate, so keep the indexed loop.
    #[allow(clippy::needless_range_loop)]
    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let mut revenue = 0.0f64;
        for i in 0..self.n as usize {
            if Self::predicate(
                inputs["shipdate"][i],
                inputs["discount"][i],
                inputs["quantity"][i],
            ) {
                revenue += inputs["price"][i] * inputs["discount"][i];
            }
        }
        let mut m = Arrays::new();
        m.insert("revenue".into(), vec![revenue]);
        m
    }

    fn work(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile {
            flops: 8.0 * n, // five compares, ands, one multiply-add
            bytes_read: 16.0 * n,
            bytes_written: 4.0,
            branchy: true,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        let body = vec![
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Load, &[]),
            HlsOp::new(HlsOpKind::Cmp, &[3]),
            HlsOp::new(HlsOpKind::Cmp, &[1]),
            HlsOp::new(HlsOpKind::Cmp, &[2]),
            HlsOp::new(HlsOpKind::Mul, &[0, 1]),
            HlsOp::new(HlsOpKind::Cmp, &[4, 5]),
            HlsOp::new(HlsOpKind::Add, &[7, 8]).accumulating(),
        ];
        Some(
            HlsKernel::new("tpchq6")
                .with_loop(HlsLoop::new("L1", self.n).with_body(body).pipelined(true)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_filters() {
        assert!(TpchQ6::predicate(8_900.0, 0.06, 10.0));
        assert!(!TpchQ6::predicate(8_500.0, 0.06, 10.0)); // too early
        assert!(!TpchQ6::predicate(8_900.0, 0.2, 10.0)); // discount high
        assert!(!TpchQ6::predicate(8_900.0, 0.06, 30.0)); // qty high
    }

    #[test]
    fn reference_is_selective() {
        let q = TpchQ6::new(960);
        let rev = q.reference()["revenue"][0];
        // Some but not all records match.
        assert!(rev > 0.0);
        let total: f64 = {
            let i = q.inputs();
            i["price"]
                .iter()
                .zip(&i["discount"])
                .map(|(p, d)| p * d)
                .sum()
        };
        assert!(rev < total);
    }

    #[test]
    fn design_contains_muxes_not_branches() {
        use dhdl_core::NodeKind;
        let q = TpchQ6::new(960);
        let d = q
            .build(
                &ParamValues::new()
                    .with("ts", 96)
                    .with("ip", 4)
                    .with("op", 1)
                    .with("mp", 1),
            )
            .unwrap();
        let muxes = d.find_all(|n| matches!(n.kind, NodeKind::Mux { .. }));
        assert!(!muxes.is_empty());
    }
}
