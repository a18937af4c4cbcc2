//! The sweep the runner's integration tests share: a dot-product
//! metaprogram over a 96-point space, one calibrated estimator, and
//! bit-level views of a result for exact comparisons. Each test file
//! that includes it uses its own part.

#![allow(dead_code)]

use std::sync::OnceLock;

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp};
use dhdl_dse::{DseError, DseResult};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::Platform;

pub fn build_dot(p: &ParamValues) -> dhdl_core::Result<Design> {
    let n = 4096u64;
    let tile = p.dim("tile")?;
    let par = p.par("par")?;
    let toggle = p.toggle("mp")?;
    let mut b = DesignBuilder::new("dot");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F32, 0.0);
        b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
            let i = iters[0];
            let xt = b.bram("xT", DType::F32, &[tile]);
            let yt = b.bram("yT", DType::F32, &[tile]);
            b.parallel(|b| {
                b.tile_load(x, xt, &[i], &[tile], par);
                b.tile_load(y, yt, &[i], &[tile], par);
            });
            b.pipe_reduce(&[by(tile, 1)], par, acc, ReduceOp::Add, |b, it| {
                let a = b.load(xt, &[it[0]]);
                let c = b.load(yt, &[it[0]]);
                b.mul(a, c)
            });
        });
    });
    b.finish()
}

pub fn space() -> ParamSpace {
    let mut s = ParamSpace::new();
    s.tile("tile", 4096, 16, 1024);
    s.par("par", 16, 16);
    s.toggle("mp");
    s
}

/// Calibration is the slow part; share one estimator across all tests.
pub fn estimator() -> &'static Estimator {
    static EST: OnceLock<Estimator> = OnceLock::new();
    EST.get_or_init(|| Estimator::calibrate_with(&Platform::maia(), 30, 11).0)
}

/// Byte-level view of a Pareto front, for exact comparisons.
pub fn front_bits(r: &DseResult) -> Vec<(String, u64, u64)> {
    r.pareto_points()
        .map(|p| {
            (
                p.params.to_string(),
                p.cycles.to_bits(),
                p.area.alms.to_bits(),
            )
        })
        .collect()
}

/// A point as its parameters, estimate bit patterns and validity.
pub type PointBits = (String, [u64; 5], bool);

/// A sweep's outcomes in sample order, a point as its bit patterns or
/// the error that discarded it. A deadline stops workers claiming
/// indices, which they claim in order, so a truncated sweep holds a
/// prefix.
pub fn by_index(r: &DseResult) -> Vec<Result<PointBits, DseError>> {
    let mut points = r.points.iter();
    let mut errors = r.errors.iter().peekable();
    (0..r.points.len() + r.errors.len())
        .map(|i| match errors.next_if(|(at, _)| *at == i) {
            Some((_, err)) => Err(err.clone()),
            None => {
                let p = points.next().expect("one point per unerrored index");
                let est = Estimate {
                    cycles: p.cycles,
                    area: p.area,
                };
                Ok((p.params.to_string(), est.to_bits(), p.valid))
            }
        })
        .collect()
}
