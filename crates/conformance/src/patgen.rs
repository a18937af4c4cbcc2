//! Seeded generation of parallel-pattern programs and their
//! frontend-level differential checks.
//!
//! Where [`crate::gen`] fuzzes raw DHDL structure, this module fuzzes
//! the `dhdl-patterns` frontend: random map chains with an optional
//! terminal reduction, checked three ways —
//!
//! - `fuse-semantics`: interpreting the fused program must match the
//!   unfused interpretation bit-for-bit (fusion only removes
//!   materialization; every node still quantizes identically),
//! - `pattern-sim-vs-interp`: lowering to DHDL and simulating must match
//!   the interpreter within the frontend's documented tolerance, for
//!   randomly sampled *legal* parameters (both fused and unfused),
//! - `pattern-build`: lowering never fails on a legal program/parameter
//!   combination.

use std::collections::BTreeMap;

use dhdl_core::{DType, PrimOp, ReduceOp};
use dhdl_patterns::{fuse, lower, param_space, Expr, PatternProgram};
use dhdl_sim::{simulate, Bindings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{Conformance, Violation};

/// Relative tolerance for simulator-vs-interpreter comparison — matches
/// the `patterns_e2e` integration suite.
const SIM_TOL: f64 = 1e-4;

/// The right-hand side of one pattern map step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatRhs {
    /// A literal constant.
    Lit(f64),
    /// The primary input array element.
    In0,
    /// The second input array element (two-input programs only).
    In1,
}

/// One map step: `cur = op(cur, rhs)` as a standalone `map` pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatStep {
    /// The binary primitive.
    pub op: PrimOp,
    /// The right-hand operand.
    pub rhs: PatRhs,
}

/// A generated pattern-frontend program: a chain of single-op maps with
/// an optional terminal reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSpec {
    /// Case identity (drives naming, data and parameter sampling).
    pub case_id: u64,
    /// Input array length.
    pub len: u64,
    /// Whether a second input array `b` exists.
    pub two_inputs: bool,
    /// The map chain (at least one step unless `reduce` is set).
    pub steps: Vec<PatStep>,
    /// Optional terminal reduction.
    pub reduce: Option<ReduceOp>,
}

impl PatternSpec {
    /// Build the `PatternProgram` for this spec. The final op is always
    /// named `out`; intermediates are `m0`, `m1`, ….
    pub fn program(&self) -> PatternProgram {
        let mut p = PatternProgram::new();
        let a = p.input("a", self.len, DType::F32);
        let b = self.two_inputs.then(|| p.input("b", self.len, DType::F32));
        let mut cur = a;
        let last_map = self.steps.len().checked_sub(1);
        for (i, step) in self.steps.iter().enumerate() {
            let name = if Some(i) == last_map && self.reduce.is_none() {
                "out".to_string()
            } else {
                format!("m{i}")
            };
            let (ins, rhs) = match step.rhs {
                PatRhs::Lit(c) => (vec![cur], Expr::lit(c)),
                PatRhs::In0 => (vec![cur, a], Expr::input(1)),
                PatRhs::In1 => {
                    let b = b.expect("In1 implies a two-input program");
                    (vec![cur, b], Expr::input(1))
                }
            };
            cur = p.map(&name, &ins, Expr::bin(step.op, Expr::input(0), rhs));
        }
        if let Some(op) = self.reduce {
            p.reduce("out", &[cur], Expr::input(0), op);
        }
        p
    }

    /// Deterministic input arrays for this case (pre-quantized to F32).
    pub fn inputs(&self) -> BTreeMap<String, Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.case_id ^ 0x5EED_DA7A);
        let mut draw = || -> Vec<f64> {
            (0..self.len)
                .map(|_| DType::F32.quantize(f64::from(rng.gen_range(-32i32..=32)) * 0.125))
                .collect()
        };
        let a = draw();
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), a);
        if self.two_inputs {
            m.insert("b".to_string(), draw());
        }
        m
    }
}

const PAT_OPS: [PrimOp; 5] = [
    PrimOp::Add,
    PrimOp::Sub,
    PrimOp::Mul,
    PrimOp::Min,
    PrimOp::Max,
];

/// Generate the pattern spec for fuzz case `case_id` under `master_seed`.
///
/// Deterministic and independent per `(master_seed, case_id)`.
pub fn generate_pattern(master_seed: u64, case_id: u64) -> PatternSpec {
    let mut rng = StdRng::seed_from_u64(
        master_seed ^ case_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7A77_E271,
    );
    let len = [64u64, 128, 256][rng.gen_range(0usize..3)];
    let two_inputs = rng.gen_bool(0.5);
    let reduce = if rng.gen_bool(0.4) {
        Some(match rng.gen_range(0u32..4) {
            0..=1 => ReduceOp::Add,
            2 => ReduceOp::Min,
            _ => ReduceOp::Max,
        })
    } else {
        None
    };
    let min_steps = usize::from(reduce.is_none());
    let n_steps = rng.gen_range(min_steps..=3);
    let steps = (0..n_steps)
        .map(|_| PatStep {
            op: PAT_OPS[rng.gen_range(0usize..PAT_OPS.len())],
            rhs: match rng.gen_range(0u32..10) {
                0..=4 => {
                    PatRhs::Lit(DType::F32.quantize(f64::from(rng.gen_range(-12i32..=12)) * 0.5))
                }
                5..=7 if two_inputs => PatRhs::In1,
                _ => PatRhs::In0,
            },
        })
        .collect();
    PatternSpec {
        case_id,
        len,
        two_inputs,
        steps,
        reduce,
    }
}

impl Conformance {
    /// Run the pattern-frontend invariants for one generated spec.
    pub fn check_pattern(&self, spec: &PatternSpec) -> Vec<Violation> {
        let mut v = Vec::new();
        let prog = spec.program();
        let inputs = spec.inputs();
        let plain = prog.interpret(&inputs);
        let fused = fuse(&prog);
        let fused_out = fused.interpret(&inputs);
        match (plain.get("out"), fused_out.get("out")) {
            (Some(a), Some(b)) => {
                let same =
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                if !same {
                    v.push(Violation {
                        invariant: "fuse-semantics",
                        detail: "fused interpretation diverged from unfused".to_string(),
                    });
                }
            }
            _ => v.push(Violation {
                invariant: "fuse-semantics",
                detail: "interpreter lost the `out` array".to_string(),
            }),
        }
        self.check_lowered(spec, &prog, &inputs, &plain, "unfused", &mut v);
        self.check_lowered(spec, &fused, &inputs, &fused_out, "fused", &mut v);
        v
    }

    fn check_lowered(
        &self,
        spec: &PatternSpec,
        prog: &PatternProgram,
        inputs: &BTreeMap<String, Vec<f64>>,
        expected: &BTreeMap<String, Vec<f64>>,
        label: &str,
        v: &mut Vec<Violation>,
    ) {
        // Sample *legal* parameters, seeded per case (and per op count,
        // so fused and unfused draws differ but stay deterministic).
        let space = param_space(prog);
        let mut rng =
            StdRng::seed_from_u64(spec.case_id ^ (prog.ops().len() as u64) << 32 ^ 0xBEA7);
        let mut params = dhdl_core::ParamValues::new();
        for def in space.defs() {
            let legal = def.kind.legal_values();
            params.set(&def.name, legal[rng.gen_range(0usize..legal.len())]);
        }
        let name = format!("pz{:x}_{label}", spec.case_id);
        let design = match lower(prog, &name, &params) {
            Ok(d) => d,
            Err(e) => {
                v.push(Violation {
                    invariant: "pattern-build",
                    detail: format!("{label} lowering failed with legal params {params}: {e}"),
                });
                return;
            }
        };
        // Bind only arrays the lowered design declares: an input the
        // program never reads (a legal spec) has no off-chip memory,
        // and the simulator rejects bindings that match nothing.
        let mut bindings = Bindings::new();
        for (k, data) in inputs {
            let declared = design
                .offchips()
                .iter()
                .any(|&off| design.node(off).name.as_deref() == Some(k.as_str()));
            if declared {
                bindings = bindings.bind(k, data.clone());
            }
        }
        let result = match simulate(&design, self.platform(), &bindings) {
            Ok(r) => r,
            Err(e) => {
                v.push(Violation {
                    invariant: "pattern-sim-vs-interp",
                    detail: format!("{label} simulation failed: {e}"),
                });
                return;
            }
        };
        for off in design.offchips() {
            let Some(arr) = design.node(*off).name.as_deref() else {
                continue;
            };
            let Some(exp) = expected.get(arr) else {
                continue; // inputs have no interpreter output
            };
            let got = match result.output(arr) {
                Ok(g) => g,
                Err(e) => {
                    v.push(Violation {
                        invariant: "pattern-sim-vs-interp",
                        detail: format!("{label}: {e}"),
                    });
                    continue;
                }
            };
            if got.len() != exp.len() {
                v.push(Violation {
                    invariant: "pattern-sim-vs-interp",
                    detail: format!(
                        "{label}: `{arr}` length {} != interpreter {}",
                        got.len(),
                        exp.len()
                    ),
                });
                continue;
            }
            for (i, (g, e)) in got.iter().zip(exp).enumerate() {
                if (g - e).abs() > SIM_TOL * e.abs().max(1.0) {
                    v.push(Violation {
                        invariant: "pattern-sim-vs-interp",
                        detail: format!(
                            "{label}: `{arr}`[{i}] = {g}, interpreter says {e} (params {params})"
                        ),
                    });
                    break;
                }
            }
        }
    }
}
