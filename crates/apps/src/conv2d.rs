//! 2-D single-channel convolution with line-buffer tiling (DNN frontier).
//!
//! A post-paper workload: accelerator-generation evaluation moved from the
//! 2016 kernel suite to DNN layers (AutoDNNchip, HybridDNN), and a direct
//! convolution is the canonical first step. The DHDL formulation tiles the
//! output rows and loads a *line buffer* of `th + KH - 1` input rows per
//! tile, so vertically adjacent sliding windows reuse the same on-chip
//! rows; output channels run under a tile-parallel outer controller and
//! the kernel window accumulates gemm-style into the output tile.
//!
//! `out[c, i, j] = Σ_{u,v} img[i+u, j+v] · wt[c, u, v]` (valid padding).

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, PrimOp, Result};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// Fixed kernel height/width: the suite convention is a 3×3 window (the
/// CPU kernel in `dhdl-cpu` infers dimensions from array lengths under
/// this convention, like kmeans' fixed k = 8).
pub const KERNEL: u64 = 3;

/// The conv2d benchmark on a square `size`×`size` image with `cout`
/// output channels and a fixed 3×3 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2d {
    /// Image height and width (square).
    pub size: u64,
    /// Number of output channels.
    pub cout: u64,
}

impl Default for Conv2d {
    /// The scaled default: a 66×66 image (64×64 valid output) with 16
    /// output channels.
    fn default() -> Self {
        Conv2d { size: 66, cout: 16 }
    }
}

impl Conv2d {
    /// A conv2d over a `size`×`size` image with `cout` output channels.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than the 3×3 kernel or `cout` is 0.
    pub fn new(size: u64, cout: u64) -> Self {
        assert!(size >= KERNEL, "image must cover the kernel window");
        assert!(cout > 0, "need at least one output channel");
        Conv2d { size, cout }
    }

    /// Valid-padding output height/width.
    pub fn out_size(&self) -> u64 {
        self.size - KERNEL + 1
    }
}

impl Benchmark for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn description(&self) -> &'static str {
        "2-D convolution with line-buffer tiles"
    }

    fn paper_dataset(&self) -> &'static str {
        "- (post-paper DNN workload)"
    }

    fn dataset_desc(&self) -> String {
        format!("H=W={} K={} C={}", self.size, KERNEL, self.cout)
    }

    fn param_space(&self) -> ParamSpace {
        let hout = self.out_size();
        let mut s = ParamSpace::new();
        s.tile("th", hout, 2, 32.min(hout));
        s.par("pc", self.cout, 16);
        s.par("pj", self.out_size(), 16);
        s.toggle("mp");
        s.toggle("mpc");
        s
    }

    fn default_params(&self) -> ParamValues {
        let hout = self.out_size();
        let th = if hout % 8 == 0 { 8 } else { 1 };
        ParamValues::new()
            .with("th", th)
            .with("pc", 1)
            .with("pj", if hout % 2 == 0 { 2 } else { 1 })
            .with("mp", 1)
            .with("mpc", 0)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let (h, w, kh, kw, cout) = (self.size, self.size, KERNEL, KERNEL, self.cout);
        let (hout, wout) = (self.out_size(), self.out_size());
        let th = p.dim("th")?;
        let pc = p.par("pc")?;
        let pj = p.par("pj")?;
        let mp = p.toggle("mp")?;
        let mpc = p.toggle("mpc")?;
        // Line buffer: the th output rows of one tile read th + KH - 1
        // consecutive input rows; the tile load's stride (th) is smaller
        // than its extent, so adjacent tiles re-read the KH - 1 halo rows.
        let rows = th + kh - 1;
        let mut b = DesignBuilder::new("conv2d");
        let img = b.off_chip("img", DType::F32, &[h, w]);
        let wts = b.off_chip("wt", DType::F32, &[cout, kh, kw]);
        let out = b.off_chip("out", DType::F32, &[cout, hout, wout]);
        b.sequential(|b| {
            let wt = b.bram("wT", DType::F32, &[cout, kh, kw]);
            let z0 = b.index_const(0);
            b.tile_load(wts, wt, &[z0, z0, z0], &[cout, kh, kw], 1);
            b.outer(mp, &[by(hout, th)], 1, |b, iters| {
                let i = iters[0];
                let imt = b.bram("imT", DType::F32, &[rows, w]);
                let ot = b.bram("oT", DType::F32, &[cout, th, wout]);
                let z = b.index_const(0);
                b.tile_load(img, imt, &[i, z], &[rows, w], pj);
                // Output channels are independent: a tile-parallel outer
                // controller replicates the window pipe pc ways.
                b.outer(mpc, &[by(cout, 1)], pc, |b, cc| {
                    let c = cc[0];
                    // oT[c,ii,j] accumulates over the (u,v) kernel window
                    // (middle counters); the first window tap resets the
                    // running value. Lanes vectorize over j (innermost).
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
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let mut arrays = Arrays::new();
        arrays.insert(
            "img".into(),
            data::uniform(321, (self.size * self.size) as usize, -1.0, 1.0),
        );
        arrays.insert(
            "wt".into(),
            data::uniform(322, (self.cout * KERNEL * KERNEL) as usize, -1.0, 1.0),
        );
        arrays
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let (img, wts) = (&inputs["img"], &inputs["wt"]);
        let (w, kh, kw) = (self.size as usize, KERNEL as usize, KERNEL as usize);
        let (hout, wout) = (self.out_size() as usize, self.out_size() as usize);
        let cout = self.cout as usize;
        let mut out = vec![0.0f64; cout * hout * wout];
        // Mirror the accelerator's single-precision datapath per operation
        // (multiply, then accumulate over the window in (u, v) order).
        for c in 0..cout {
            for i in 0..hout {
                for j in 0..wout {
                    let mut acc = 0.0f64;
                    for u in 0..kh {
                        for v in 0..kw {
                            let prod =
                                (img[(i + u) * w + (j + v)] * wts[(c * kh + u) * kw + v]) as f32;
                            acc = (acc + f64::from(prod)) as f32 as f64;
                        }
                    }
                    out[(c * hout + i) * wout + j] = acc;
                }
            }
        }
        let mut arrays = Arrays::new();
        arrays.insert("out".into(), out);
        arrays
    }

    fn work(&self) -> WorkProfile {
        let (hout, k, c) = (self.out_size() as f64, KERNEL as f64, self.cout as f64);
        let (h, w) = (self.size as f64, self.size as f64);
        WorkProfile {
            flops: 2.0 * c * hout * hout * k * k,
            bytes_read: 4.0 * (h * w + c * k * k),
            bytes_written: 4.0 * c * hout * hout,
            ..WorkProfile::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_and_params_are_legal() {
        let c = Conv2d::default();
        let space = c.param_space();
        assert!(space.size() >= 8);
        assert!(space.is_legal(&c.default_params()));
    }

    #[test]
    fn small_instance_builds_for_all_toggles() {
        let c = Conv2d::new(10, 4);
        for (m1, m2) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let p = ParamValues::new()
                .with("th", 4)
                .with("pc", 2)
                .with("pj", 2)
                .with("mp", m1)
                .with("mpc", m2);
            assert!(c.build(&p).is_ok(), "mp={m1} mpc={m2}");
        }
    }

    #[test]
    fn reference_identity_kernel_crops_image() {
        // A kernel with a single centre tap copies the image interior.
        let c = Conv2d::new(6, 1);
        let inputs = c.inputs();
        let img = &inputs["img"];
        let mut delta = [0.0f64; 9];
        delta[4] = 1.0; // centre of the 3x3 window
                        // Recompute with the same per-op algorithm shape.
        let mut out = [0.0f64; 16];
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = 0.0f64;
                for u in 0..3 {
                    for v in 0..3 {
                        let prod = (img[(i + u) * 6 + (j + v)] * delta[u * 3 + v]) as f32;
                        acc = (acc + f64::from(prod)) as f32 as f64;
                    }
                }
                out[i * 4 + j] = acc;
            }
        }
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(out[i * 4 + j], img[(i + 1) * 6 + (j + 1)]);
            }
        }
    }
}
