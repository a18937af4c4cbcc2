//! SAXPY (`y ← a·x + y`): a user-authored kernel outside the paper's
//! benchmark suite, used by the `custom_kernel` example to show how a new
//! accelerator is built, explored and simulated with the public API.

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, Result};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// The SAXPY kernel at a configurable length and scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saxpy {
    /// Vector length.
    pub n: u64,
    /// The scalar `a`.
    pub a: f64,
}

impl Default for Saxpy {
    fn default() -> Self {
        Saxpy { n: 24_576, a: 2.5 }
    }
}

impl Saxpy {
    /// A SAXPY over vectors of length `n` with scalar `a`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, a: f64) -> Self {
        assert!(n > 0, "vector length must be nonzero");
        Saxpy { n, a }
    }
}

impl Benchmark for Saxpy {
    fn name(&self) -> &'static str {
        "saxpy"
    }

    fn description(&self) -> &'static str {
        "Scalar a times x plus y"
    }

    fn paper_dataset(&self) -> &'static str {
        "(not in the paper)"
    }

    fn dataset_desc(&self) -> String {
        format!("N={} a={}", self.n, self.a)
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
            .with("ip", 4)
            .with("mp", 1)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let n = self.n;
        let ts = p.dim("ts")?;
        let ip = p.par("ip")?;
        let mp = p.toggle("mp")?;
        let a = self.a;
        let mut b = DesignBuilder::new("saxpy");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        let out = b.off_chip("out", DType::F32, &[n]);
        b.sequential(|b| {
            b.outer(mp, &[by(n, ts)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[ts]);
                let yt = b.bram("yT", DType::F32, &[ts]);
                let ot = b.bram("oT", DType::F32, &[ts]);
                b.parallel(|b| {
                    b.tile_load(x, xt, &[i], &[ts], ip);
                    b.tile_load(y, yt, &[i], &[ts], ip);
                });
                b.pipe(&[by(ts, 1)], ip, |b, it| {
                    let xv = b.load(xt, &[it[0]]);
                    let yv = b.load(yt, &[it[0]]);
                    let av = b.constant(a, DType::F32);
                    let ax = b.mul(av, xv);
                    let s = b.add(ax, yv);
                    b.store(ot, &[it[0]], s);
                });
                b.tile_store(out, ot, &[i], &[ts], ip);
            });
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let n = self.n as usize;
        let mut m = Arrays::new();
        m.insert("x".into(), data::uniform(801, n, -10.0, 10.0));
        m.insert("y".into(), data::uniform(802, n, -10.0, 10.0));
        m
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let a32 = self.a as f32 as f64;
        let out: Vec<f64> = inputs["x"]
            .iter()
            .zip(&inputs["y"])
            .map(|(x, y)| ((a32 * x) as f32 as f64 + y) as f32 as f64)
            .collect();
        let mut m = Arrays::new();
        m.insert("out".into(), out);
        m
    }

    fn work(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile {
            flops: 2.0 * n,
            bytes_read: 8.0 * n,
            bytes_written: 4.0 * n,
            ..WorkProfile::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_references() {
        let s = Saxpy::new(192, 3.0);
        let d = s.build(
            &ParamValues::new()
                .with("ts", 96)
                .with("ip", 2)
                .with("mp", 1),
        );
        assert!(d.is_ok());
        let r = s.reference();
        let i = s.inputs();
        assert_eq!(r["out"].len(), 192);
        let expected = ((3.0f32 * i["x"][7] as f32) as f64 + i["y"][7]) as f32 as f64;
        assert!((r["out"][7] - expected).abs() < 1e-12);
    }
}
