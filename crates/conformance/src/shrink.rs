//! Greedy structural shrinking of failing fuzz cases.
//!
//! The vendored proptest is deterministic but does not shrink, so the
//! harness shrinks itself: starting from a failing [`DesignSpec`], try a
//! fixed menu of simplifications (drop the reduction, drop datapath
//! steps, clear controller flags, lower parallelism, shrink sizes,
//! collapse the dtype to F32) and keep any candidate that still violates
//! the *same* invariant. Repeats to a fixpoint with a hard iteration cap
//! so a pathological oracle cannot loop forever.

use crate::dnn::{DnnKind, DnnSpec};
use crate::gen::{DesignSpec, MapStep};
use crate::oracle::{Conformance, Violation};
use crate::patgen::{PatRhs, PatternSpec};

/// Upper bound on accepted shrink steps (safety net; real cases converge
/// in far fewer).
const MAX_ROUNDS: usize = 64;

/// The greedy loop every spec kind shares: take the first of
/// `candidates(best)` that differs from `best` and still violates
/// `invariant`, until no candidate does (or the round cap is hit).
fn greedy<S: Clone + PartialEq>(
    start: &S,
    candidates: impl Fn(&S) -> Vec<S>,
    check: impl Fn(&S) -> Vec<Violation>,
    invariant: &str,
) -> S {
    let mut best = start.clone();
    for _ in 0..MAX_ROUNDS {
        let next = candidates(&best)
            .into_iter()
            .find(|cand| *cand != best && check(cand).iter().any(|v| v.invariant == invariant));
        match next {
            Some(cand) => best = cand,
            None => break,
        }
    }
    best
}

/// Make `spec` self-consistent after a structural edit: parallelism must
/// divide the (possibly shrunk) tile, the tile must divide `n`, and
/// parallel loads require a second input.
fn normalize(spec: &mut DesignSpec) {
    if spec.n % spec.tile != 0 {
        spec.tile = 2;
    }
    if u64::from(spec.par) > spec.tile || spec.tile % u64::from(spec.par) != 0 {
        spec.par = 1;
    }
    if u64::from(spec.load_par) > spec.tile || spec.tile % u64::from(spec.load_par) != 0 {
        spec.load_par = 1;
    }
    spec.parallel_loads &= spec.uses_second();
}

/// Candidate one-step simplifications of a design spec, in decreasing
/// order of how much structure they remove.
fn candidates(spec: &DesignSpec) -> Vec<DesignSpec> {
    let mut out = Vec::new();
    let mut push = |mut s: DesignSpec| {
        normalize(&mut s);
        out.push(s);
    };
    if spec.reduce.is_some() {
        let mut s = spec.clone();
        s.reduce = None;
        push(s);
    }
    if !spec.stage2.is_empty() {
        let mut s = spec.clone();
        s.stage2.clear();
        push(s);
    }
    for i in 0..spec.stage1.len() {
        let mut s = spec.clone();
        s.stage1.remove(i);
        push(s);
    }
    for i in 0..spec.stage2.len() {
        let mut s = spec.clone();
        s.stage2.remove(i);
        push(s);
    }
    // Replace structured steps with the simplest binary step.
    for (stage_idx, steps) in [&spec.stage1, &spec.stage2].into_iter().enumerate() {
        for (i, step) in steps.iter().enumerate() {
            if matches!(step, MapStep::Select { .. } | MapStep::Un { .. }) {
                let mut s = spec.clone();
                let stage = if stage_idx == 0 {
                    &mut s.stage1
                } else {
                    &mut s.stage2
                };
                stage[i] = MapStep::Bin {
                    op: dhdl_core::PrimOp::Add,
                    rhs: crate::gen::Operand::Lit(1.0),
                };
                push(s);
            }
        }
    }
    for flag in 0..3 {
        let mut s = spec.clone();
        let changed = match flag {
            0 => std::mem::take(&mut s.metapipe),
            1 => std::mem::take(&mut s.nested_seq),
            _ => std::mem::take(&mut s.parallel_loads),
        };
        if changed {
            push(s);
        }
    }
    if spec.par > 1 {
        let mut s = spec.clone();
        s.par = 1;
        push(s);
    }
    if spec.load_par > 1 {
        let mut s = spec.clone();
        s.load_par = 1;
        push(s);
    }
    if spec.tile > 2 {
        for t in [2, spec.tile / 2] {
            if t >= 2 && t < spec.tile && spec.n % t == 0 {
                let mut s = spec.clone();
                s.tile = t;
                push(s);
            }
        }
    }
    if spec.n > 64 {
        for n in [64, spec.n / 2] {
            if n < spec.n && n % spec.tile == 0 {
                let mut s = spec.clone();
                s.n = n;
                push(s);
            }
        }
    }
    if spec.ty != dhdl_core::DType::F32 {
        let mut s = spec.clone();
        s.ty = dhdl_core::DType::F32;
        push(s);
    }
    out
}

/// Greedily shrink a failing design spec while preserving the violated
/// invariant. Returns the smallest spec found (possibly the input).
pub fn shrink(conf: &Conformance, spec: &DesignSpec, invariant: &str) -> DesignSpec {
    greedy(spec, candidates, |s| conf.check_design(s), invariant)
}

/// Make a DNN spec self-consistent after a structural edit: the tile
/// must divide the (possibly shrunk) row dimension and the parallelisms
/// must divide their bases.
fn dnn_normalize(spec: &mut DnnSpec) {
    let rows = match spec.kind {
        // Valid 3x3 convolution: hout = size - 2.
        DnnKind::Conv => spec.size - 2,
        DnnKind::Attn => spec.size,
    };
    if spec.tile < 2 || spec.tile > rows || rows % spec.tile != 0 {
        spec.tile = 2;
    }
    match spec.kind {
        DnnKind::Conv => {
            // par lanes vectorize over wout (== hout for square images);
            // par2 replicates over output channels.
            if rows % u64::from(spec.par) != 0 {
                spec.par = 1;
            }
            if spec.cout % u64::from(spec.par2) != 0 {
                spec.par2 = 1;
            }
        }
        DnnKind::Attn => {
            if spec.par > 8 || 32 % spec.par != 0 {
                spec.par = 1;
            }
            if spec.par2 > 4 || 32 % spec.par2 != 0 {
                spec.par2 = 1;
            }
        }
    }
}

/// Candidate one-step simplifications of a DNN fragment spec, in
/// decreasing order of how much structure they remove.
fn dnn_candidates(spec: &DnnSpec) -> Vec<DnnSpec> {
    let mut out = Vec::new();
    let mut push = |mut s: DnnSpec| {
        dnn_normalize(&mut s);
        out.push(s);
    };
    let min_size = match spec.kind {
        DnnKind::Conv => 6,
        DnnKind::Attn => 4,
    };
    if spec.size > min_size {
        let mut s = *spec;
        s.size = min_size;
        push(s);
    }
    if spec.kind == DnnKind::Conv && spec.cout > 2 {
        let mut s = *spec;
        s.cout = 2;
        push(s);
    }
    for flag in 0..2 {
        let mut s = *spec;
        let changed = match flag {
            0 => std::mem::take(&mut s.metapipe),
            _ => std::mem::take(&mut s.metapipe2),
        };
        if changed {
            push(s);
        }
    }
    if spec.par > 1 {
        let mut s = *spec;
        s.par = 1;
        push(s);
    }
    if spec.par2 > 1 {
        let mut s = *spec;
        s.par2 = 1;
        push(s);
    }
    if spec.tile > 2 {
        let mut s = *spec;
        s.tile = 2;
        push(s);
    }
    out
}

/// Greedily shrink a failing DNN fragment spec while preserving the
/// violated invariant. Returns the smallest spec found.
pub fn shrink_dnn(conf: &Conformance, spec: &DnnSpec, invariant: &str) -> DnnSpec {
    greedy(spec, dnn_candidates, |s| conf.check_dnn(s), invariant)
}

fn pattern_candidates(spec: &PatternSpec) -> Vec<PatternSpec> {
    let mut out = Vec::new();
    if spec.reduce.is_some() && !spec.steps.is_empty() {
        let mut s = spec.clone();
        s.reduce = None;
        out.push(s);
    }
    let min_steps = usize::from(spec.reduce.is_none());
    if spec.steps.len() > min_steps {
        for i in 0..spec.steps.len() {
            let mut s = spec.clone();
            s.steps.remove(i);
            out.push(s);
        }
    }
    if spec.two_inputs {
        let mut s = spec.clone();
        s.two_inputs = false;
        for step in &mut s.steps {
            if step.rhs == PatRhs::In1 {
                step.rhs = PatRhs::In0;
            }
        }
        out.push(s);
    }
    if spec.len > 64 {
        let mut s = spec.clone();
        s.len = 64;
        out.push(s);
    }
    out
}

/// Greedily shrink a failing pattern spec, preserving the invariant.
pub fn shrink_pattern(conf: &Conformance, spec: &PatternSpec, invariant: &str) -> PatternSpec {
    greedy(
        spec,
        pattern_candidates,
        |s| conf.check_pattern(s),
        invariant,
    )
}
