//! Seeded generation of DNN-shaped design fragments (conv2d/attention).
//!
//! The elementwise [`crate::gen`] generator never produces the design
//! shapes the DNN frontier relies on: line-buffer tile loads whose halo
//! rows overlap, window accumulation through a mux-reset BRAM, and the
//! exp/ln softmax nest between two chained GEMM pipes. A [`DnnSpec`]
//! samples exactly those shapes — a `conv2d` or `attention` instance at
//! a randomized size with parameters drawn from the benchmark's own
//! [`ParamSpace`] — and carries a bit-exact plain-Rust reference over
//! case-seeded inputs, so the oracle can hold the simulator to bitwise
//! equality (the hand-benchmark differential in [`crate::apps`] is only
//! tolerance-based and only covers the default parameter point).

use dhdl_apps::{attention::HEAD_DIM, conv2d::KERNEL, Arrays, Attention, Benchmark, Conv2d};
use dhdl_core::{DType, Design, ParamKind, ParamSpace, ParamValues};
use dhdl_sim::Bindings;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{Conformance, Violation};

/// Which DNN workload family a spec instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnnKind {
    /// 3×3 valid convolution with line-buffer row tiles.
    Conv,
    /// GEMM–softmax–GEMM attention block at head dimension 32.
    Attn,
}

/// A generated DNN-shaped fragment: one benchmark instance plus one
/// sampled parameter point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnnSpec {
    /// Case identity (drives naming and input data).
    pub case_id: u64,
    /// The workload family.
    pub kind: DnnKind,
    /// Conv: image side length. Attn: sequence rows.
    pub size: u64,
    /// Conv: output channels. Attn: unused (kept at 1).
    pub cout: u64,
    /// Conv: `th` row tile. Attn: `tr` row tile.
    pub tile: u64,
    /// Conv: `pj` lane parallelism. Attn: `pa` lane parallelism.
    pub par: u32,
    /// Conv: `pc` channel parallelism. Attn: `lp` transfer parallelism.
    pub par2: u32,
    /// The outer row-tile loop is a MetaPipe.
    pub metapipe: bool,
    /// Conv: `mpc` channel-loop toggle. Attn: `mps` softmax-loop toggle.
    pub metapipe2: bool,
}

impl DnnSpec {
    /// The benchmark instance this spec parameterizes.
    pub fn bench(&self) -> Box<dyn Benchmark> {
        match self.kind {
            DnnKind::Conv => Box::new(Conv2d::new(self.size, self.cout)),
            DnnKind::Attn => Box::new(Attention::new(self.size)),
        }
    }

    /// The benchmark's own parameter space at this spec's size.
    pub fn param_space(&self) -> ParamSpace {
        self.bench().param_space()
    }

    /// The sampled parameter point.
    pub fn param_values(&self) -> ParamValues {
        match self.kind {
            DnnKind::Conv => ParamValues::new()
                .with("th", self.tile)
                .with("pc", u64::from(self.par2))
                .with("pj", u64::from(self.par))
                .with("mp", u64::from(self.metapipe))
                .with("mpc", u64::from(self.metapipe2)),
            DnnKind::Attn => ParamValues::new()
                .with("tr", self.tile)
                .with("pa", u64::from(self.par))
                .with("lp", u64::from(self.par2))
                .with("mp", u64::from(self.metapipe))
                .with("mps", u64::from(self.metapipe2)),
        }
    }

    /// Instantiate the fragment through the benchmark's builder.
    ///
    /// # Errors
    ///
    /// Propagates builder validation errors (a generator bug: the oracle
    /// reports any failure here as a violation).
    pub fn build(&self) -> dhdl_core::Result<Design> {
        self.bench().build(&self.param_values())
    }

    /// The same fragment with every parallelism collapsed to 1 (for the
    /// `par-monotonic` estimator check).
    pub fn serial(&self) -> DnnSpec {
        DnnSpec {
            par: 1,
            par2: 1,
            ..*self
        }
    }

    /// Deterministic case-seeded input arrays, pre-quantized to f32 so
    /// the reference's per-op rounding mirrors the datapath exactly.
    pub fn inputs(&self) -> Arrays {
        let mut rng = StdRng::seed_from_u64(self.case_id ^ 0xD44A_5EED);
        let mut draw = |len: u64| -> Vec<f64> {
            (0..len)
                .map(|_| DType::F32.quantize(f64::from(rng.gen_range(-8i32..=8)) * 0.125))
                .collect()
        };
        let mut arrays = Arrays::new();
        match self.kind {
            DnnKind::Conv => {
                arrays.insert("img".into(), draw(self.size * self.size));
                arrays.insert("wt".into(), draw(self.cout * KERNEL * KERNEL));
            }
            DnnKind::Attn => {
                arrays.insert("q".into(), draw(self.size * HEAD_DIM));
                arrays.insert("k".into(), draw(self.size * HEAD_DIM));
                arrays.insert("v".into(), draw(self.size * HEAD_DIM));
            }
        }
        arrays
    }

    /// The expected `out` array: an independent plain-Rust evaluation
    /// mirroring the simulator's per-node f32 rounding in the same order
    /// the design's pipes evaluate.
    pub fn reference(&self, inputs: &Arrays) -> Vec<f64> {
        match self.kind {
            DnnKind::Conv => conv_reference(self.size, self.cout, &inputs["img"], &inputs["wt"]),
            DnnKind::Attn => attn_reference(self.size, &inputs["q"], &inputs["k"], &inputs["v"]),
        }
    }
}

/// `out[c,i,j] = Σ_{u,v} img[i+u, j+v] · wt[c,u,v]`, accumulated in
/// window order with every primitive result rounded to f32.
fn conv_reference(size: u64, cout: u64, img: &[f64], wts: &[f64]) -> Vec<f64> {
    let (w, kh, kw) = (size as usize, KERNEL as usize, KERNEL as usize);
    let hout = (size - KERNEL + 1) as usize;
    let wout = hout;
    let cout = cout as usize;
    let mut out = vec![0.0f64; cout * hout * wout];
    for c in 0..cout {
        for i in 0..hout {
            for j in 0..wout {
                let mut acc = 0.0f64;
                for u in 0..kh {
                    for v in 0..kw {
                        let prod = (img[(i + u) * w + (j + v)] * wts[(c * kh + u) * kw + v]) as f32;
                        acc = (acc + f64::from(prod)) as f32 as f64;
                    }
                }
                out[(c * hout + i) * wout + j] = acc;
            }
        }
    }
    out
}

/// Log-domain softmax attention (`p = exp((s − m)/√d − ln Σ exp)`) with
/// every primitive result rounded to f32: scores over `j`, softmax over
/// `r`, value contraction over `r` — the pipe evaluation order.
fn attn_reference(n: u64, q: &[f64], k: &[f64], v: &[f64]) -> Vec<f64> {
    let (n, d) = (n as usize, HEAD_DIM as usize);
    let scale = f64::from((1.0 / (d as f64).sqrt()) as f32);
    let mut out = vec![0.0f64; n * d];
    let mut s = vec![0.0f64; n];
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
    out
}

impl Conformance {
    /// Run the layered oracle on one DNN-shaped fragment: build,
    /// structural stability, bitwise sim-vs-reference and determinism,
    /// the tape-backend differential, estimator sanity and parallelism
    /// monotonicity, synthesis capacity, cache transparency, and
    /// parameter-space legality.
    pub fn check_dnn(&self, spec: &DnnSpec) -> Vec<Violation> {
        let mut v = Vec::new();
        let design = match spec.build() {
            Ok(d) => d,
            Err(e) => {
                v.push(Violation {
                    invariant: "build",
                    detail: format!("builder rejected generated DNN spec: {e}"),
                });
                return v;
            }
        };
        self.check_structure(&design, spec.build(), &mut v);
        let inputs = spec.inputs();
        let mut bindings = Bindings::new();
        for (name, data) in &inputs {
            bindings = bindings.bind(name, data.clone());
        }
        let expected = spec.reference(&inputs);
        if let Some((first, _)) = self.check_backends(&design, &bindings, Some(&expected), &mut v) {
            self.check_determinism(&design, &bindings, &first, &mut v);
        }
        let derived = self.derive(&design);
        self.check_estimate_sane(&design, &derived, &mut v);
        let serial = spec.serial().build().ok();
        self.check_latency_plan(&design, &derived, serial.as_ref(), &mut v);
        if spec.par.max(spec.par2) > 1 {
            if let Some(sd) = &serial {
                self.check_par_monotonic(&derived, sd, spec.par.max(spec.par2), &mut v);
            }
        }
        self.check_synth(&design, &derived, &mut v);
        self.check_cache(&design, &derived, &mut v);
        self.check_params(&spec.param_space(), &spec.param_values(), &mut v);
        v
    }
}

fn pick(rng: &mut StdRng, values: &[u64]) -> u64 {
    values[rng.gen_range(0usize..values.len())]
}

/// Generate the DNN fragment for fuzz case `case_id` under `master_seed`.
///
/// Deterministic: the same `(master_seed, case_id)` always yields the
/// same spec, independent of any other case. Every sampled parameter is
/// drawn from the benchmark's own legal values, so the builder must
/// accept the spec.
pub fn generate_dnn(master_seed: u64, case_id: u64) -> DnnSpec {
    let mut rng = StdRng::seed_from_u64(
        master_seed ^ case_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD44E_C0DE,
    );
    if rng.gen_bool(0.5) {
        let size = pick(&mut rng, &[6, 8, 10, 14]);
        let cout = pick(&mut rng, &[2, 3, 4]);
        let hout = size - KERNEL + 1;
        let tiles = ParamKind::Tile {
            divides: hout,
            min: 2,
            max: 32.min(hout),
        }
        .legal_values();
        let pjs = ParamKind::Par {
            divides: hout,
            max: 16,
        }
        .legal_values();
        let pcs = ParamKind::Par {
            divides: cout,
            max: 16,
        }
        .legal_values();
        DnnSpec {
            case_id,
            kind: DnnKind::Conv,
            size,
            cout,
            tile: pick(&mut rng, &tiles),
            par: pick(&mut rng, &pjs) as u32,
            par2: pick(&mut rng, &pcs) as u32,
            metapipe: rng.gen_bool(0.5),
            metapipe2: rng.gen_bool(0.5),
        }
    } else {
        let n = pick(&mut rng, &[4, 8, 12, 16]);
        let tiles = ParamKind::Tile {
            divides: n,
            min: 2,
            max: 32.min(n),
        }
        .legal_values();
        let pas = ParamKind::Par {
            divides: HEAD_DIM,
            max: 8,
        }
        .legal_values();
        let lps = ParamKind::Par {
            divides: HEAD_DIM,
            max: 4,
        }
        .legal_values();
        DnnSpec {
            case_id,
            kind: DnnKind::Attn,
            size: n,
            cout: 1,
            tile: pick(&mut rng, &tiles),
            par: pick(&mut rng, &pas) as u32,
            par2: pick(&mut rng, &lps) as u32,
            metapipe: rng.gen_bool(0.5),
            metapipe2: rng.gen_bool(0.5),
        }
    }
}
