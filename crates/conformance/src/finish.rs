//! The `finish-analyses` oracle: what `DesignBuilder::finish` wrote on
//! every memory, re-derived from the set-based definitions.
//!
//! `dhdl-core` infers banking and double-buffering with one visitor over
//! node-indexed tables, because it does so once per design point. This
//! module states the same three rules the way the paper does — as sets of
//! accessors and of memories read and written — shares no code with the
//! fast pass (as `interp.rs` shares none with the tape), and is compared
//! with it on every design the harness builds:
//!
//! * **banks** = the widest accessor of the BRAM (§III-B2): a `Pipe`
//!   touching it counts with its parallelization factor, a tile transfer
//!   with its port factor, a folding controller with its own;
//! * **cyclic** iff one of those accessors is a `Pipe` of factor > 1,
//!   **blocked** otherwise;
//! * **double-buffered** iff the memory is a local of a `MetaPipe` and is
//!   written in a stage *w* and read in a stage *r* > *w* (§III-B3), or is
//!   the source or accumulator of a `MetaPipe`'s fold.

use std::collections::{BTreeMap, BTreeSet};

use dhdl_core::{Design, Interleaving, NodeId, NodeKind};

use crate::oracle::{Conformance, Violation};

/// What the analyses decide about one on-chip memory. `banks` and
/// `interleave` mean something for BRAMs only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inferred {
    banks: u32,
    interleave: Interleaving,
    double_buf: bool,
}

/// The memories read and written (transitively) by a controller subtree.
fn mem_accesses(design: &Design, ctrl: NodeId) -> (BTreeSet<NodeId>, BTreeSet<NodeId>) {
    fn collect(
        design: &Design,
        ctrl: NodeId,
        reads: &mut BTreeSet<NodeId>,
        writes: &mut BTreeSet<NodeId>,
    ) {
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => {
                for &n in &p.body {
                    match design.kind(n) {
                        NodeKind::Load { mem, .. } => {
                            reads.insert(*mem);
                        }
                        NodeKind::Store { mem, .. } => {
                            writes.insert(*mem);
                        }
                        _ => {}
                    }
                }
                if let Some(r) = &p.reduce {
                    writes.insert(r.reg);
                    reads.insert(r.reg);
                }
            }
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                for &st in &s.stages {
                    collect(design, st, reads, writes);
                }
                if let Some(f) = &s.fold {
                    reads.insert(f.src);
                    reads.insert(f.accum);
                    writes.insert(f.accum);
                }
            }
            NodeKind::ParallelCtrl { stages, .. } => {
                for &st in stages {
                    collect(design, st, reads, writes);
                }
            }
            NodeKind::TileLoad(t) => {
                writes.insert(t.local);
            }
            NodeKind::TileStore(t) => {
                reads.insert(t.local);
            }
            _ => {}
        }
    }
    let (mut reads, mut writes) = (BTreeSet::new(), BTreeSet::new());
    collect(design, ctrl, &mut reads, &mut writes);
    (reads, writes)
}

/// All `Pipe`/`TileLd`/`TileSt`/fold accessors of each on-chip memory,
/// with their parallelization factors.
fn accessors(design: &Design) -> BTreeMap<NodeId, Vec<(NodeId, u32)>> {
    let mut out: BTreeMap<NodeId, Vec<(NodeId, u32)>> = BTreeMap::new();
    for ctrl in design.controllers() {
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => {
                let (reads, writes) = mem_accesses(design, ctrl);
                for m in reads.union(&writes) {
                    out.entry(*m).or_default().push((ctrl, p.par));
                }
            }
            NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
                out.entry(t.local).or_default().push((ctrl, t.par));
            }
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                if let Some(f) = &s.fold {
                    out.entry(f.src).or_default().push((ctrl, s.par));
                    out.entry(f.accum).or_default().push((ctrl, s.par));
                }
            }
            _ => {}
        }
    }
    out
}

/// The memories that hold live data across a stage boundary of some
/// `MetaPipe`.
fn double_buffered(design: &Design) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    for ctrl in design.controllers() {
        let NodeKind::MetaPipe(spec) = design.kind(ctrl) else {
            continue;
        };
        let stage_accesses: Vec<_> = spec
            .stages
            .iter()
            .map(|&s| mem_accesses(design, s))
            .collect();
        for &mem in &spec.locals {
            let stages_that = |writes: bool| -> Vec<usize> {
                stage_accesses
                    .iter()
                    .enumerate()
                    .filter(|(_, (r, w))| if writes { w } else { r }.contains(&mem))
                    .map(|(i, _)| i)
                    .collect()
            };
            let (writers, readers) = (stages_that(true), stages_that(false));
            if writers.iter().any(|&w| readers.iter().any(|&r| r > w)) {
                out.insert(mem);
            }
        }
        if let Some(f) = &spec.fold {
            out.insert(f.src);
            out.insert(f.accum);
        }
    }
    out
}

/// The reference verdict for every on-chip memory of `design`.
fn reference(design: &Design) -> BTreeMap<NodeId, Inferred> {
    let acc = accessors(design);
    let double = double_buffered(design);
    design
        .onchip_mems()
        .into_iter()
        .map(|mem| {
            let accs = acc.get(&mem).map_or(&[][..], Vec::as_slice);
            let banks = accs.iter().map(|&(_, p)| p).max().unwrap_or(1).max(1);
            let pipe_parallel = accs
                .iter()
                .any(|&(c, p)| p > 1 && matches!(design.kind(c), NodeKind::Pipe(_)));
            let inferred = Inferred {
                banks,
                interleave: if pipe_parallel {
                    Interleaving::Cyclic
                } else {
                    Interleaving::Blocked
                },
                double_buf: double.contains(&mem),
            };
            (mem, inferred)
        })
        .collect()
}

/// How often the `finish-analyses` oracle saw each verdict: a campaign in
/// which one of them never occurred compared nothing that rule decides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FinishCoverage {
    /// Designs compared.
    pub designs: u64,
    /// BRAMs with more than one bank.
    pub banked: u64,
    /// Memories marked double-buffered.
    pub double_buffered: u64,
    /// BRAMs interleaved cyclically.
    pub cyclic: u64,
    /// BRAMs interleaved in blocks.
    pub blocked: u64,
}

impl FinishCoverage {
    /// Whether every verdict occurred at least once.
    pub fn is_complete(&self) -> bool {
        let FinishCoverage {
            designs,
            banked,
            double_buffered,
            cyclic,
            blocked,
        } = *self;
        [designs, banked, double_buffered, cyclic, blocked]
            .iter()
            .all(|&n| n > 0)
    }
}

impl std::fmt::Display for FinishCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} designs, {} banked, {} double-buffered, {} cyclic / {} blocked",
            self.designs, self.banked, self.double_buffered, self.cyclic, self.blocked
        )
    }
}

impl Conformance {
    /// Compare what `finish()` wrote on every on-chip memory of `design`
    /// with the set-based definitions.
    pub fn check_finish_analyses(&self, design: &Design, v: &mut Vec<Violation>) {
        let mut seen = FinishCoverage {
            designs: 1,
            ..FinishCoverage::default()
        };
        for (mem, expected) in reference(design) {
            let node = design.node(mem);
            let got = match &node.kind {
                NodeKind::Bram(b) => {
                    seen.banked += u64::from(b.banks > 1);
                    seen.cyclic += u64::from(b.interleave == Interleaving::Cyclic);
                    seen.blocked += u64::from(b.interleave == Interleaving::Blocked);
                    Inferred {
                        banks: b.banks,
                        interleave: b.interleave,
                        double_buf: b.double_buf,
                    }
                }
                // Banking does not apply; only the flag is compared.
                NodeKind::Reg(r) => Inferred {
                    double_buf: r.double_buf,
                    ..expected
                },
                NodeKind::PriorityQueue(q) => Inferred {
                    double_buf: q.double_buf,
                    ..expected
                },
                _ => continue,
            };
            seen.double_buffered += u64::from(got.double_buf);
            if got != expected {
                v.push(Violation {
                    invariant: "finish-analyses",
                    detail: format!(
                        "{} {mem}: finish() set {got:?}, the set-based definitions give \
                         {expected:?}",
                        node.kind.template_name()
                    ),
                });
            }
        }
        let mut total = self
            .finish
            .lock()
            .expect("no check panics holding the lock");
        total.designs += seen.designs;
        total.banked += seen.banked;
        total.double_buffered += seen.double_buffered;
        total.cyclic += seen.cyclic;
        total.blocked += seen.blocked;
    }

    /// What the `finish-analyses` oracle has compared so far.
    pub fn finish_coverage(&self) -> FinishCoverage {
        *self
            .finish
            .lock()
            .expect("no check panics holding the lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};

    fn streaming(toggle: bool, par: u32) -> Design {
        let mut b = DesignBuilder::new("t");
        let x = b.off_chip("x", DType::F32, &[64]);
        let y = b.off_chip("y", DType::F32, &[64]);
        b.sequential(|b| {
            let acc = b.bram("acc", DType::F32, &[16]);
            b.outer_fold(toggle, &[by(64, 16)], 1, acc, ReduceOp::Add, |b, iters| {
                let t = b.bram("t", DType::F32, &[16]);
                let o = b.bram("o", DType::F32, &[16]);
                b.tile_load(x, t, &[iters[0]], &[16], 2);
                b.pipe(&[by(16, 1)], par, |b, it| {
                    let v = b.load(t, &[it[0]]);
                    b.store(o, &[it[0]], v);
                });
                o
            });
            let z = b.index_const(0);
            b.tile_store(y, acc, &[z], &[16], 1);
        });
        b.finish().unwrap()
    }

    #[test]
    fn the_reference_states_the_three_rules() {
        let d = streaming(true, 4);
        let brams = d.find_all(|n| matches!(n.kind, NodeKind::Bram(_)));
        let (acc, t, o) = (brams[0], brams[1], brams[2]);
        let r = reference(&d);
        // `t`: TileLd par 2, Pipe par 4 → 4 banks, cyclic; written in
        // stage 0, read in stage 1 → double-buffered.
        assert_eq!(
            r[&t],
            Inferred {
                banks: 4,
                interleave: Interleaving::Cyclic,
                double_buf: true
            }
        );
        // `o` is the fold source, `acc` the accumulator (touched by the
        // par-1 fold and a par-1 TileSt only → one bank, blocked).
        assert!(r[&o].double_buf && r[&acc].double_buf);
        assert_eq!(
            (r[&acc].banks, r[&acc].interleave),
            (1, Interleaving::Blocked)
        );
        // The same program as a Sequential double-buffers nothing.
        assert!(reference(&streaming(false, 4))
            .values()
            .all(|i| !i.double_buf));
    }

    #[test]
    fn a_disagreement_is_reported_and_every_verdict_is_counted() {
        let conf = Conformance::new();
        let mut v = Vec::new();
        let d = streaming(true, 4);
        conf.check_finish_analyses(&d, &mut v);
        assert!(v.is_empty(), "{v:?}");
        let seen = conf.finish_coverage();
        assert_eq!((seen.designs, seen.banked, seen.cyclic), (1, 2, 2));
        assert_eq!((seen.double_buffered, seen.blocked), (3, 1));
        assert!(seen.is_complete());
        assert_eq!(
            seen.to_string(),
            "1 designs, 2 banked, 3 double-buffered, 2 cyclic / 1 blocked"
        );
        // Undo one verdict by hand: the oracle names the memory.
        let mut wrong = d.clone();
        let t = d.find_all(|n| matches!(n.kind, NodeKind::Bram(_)))[1];
        if let NodeKind::Bram(b) = &mut wrong.node_mut(t).kind {
            b.double_buf = false;
        }
        conf.check_finish_analyses(&wrong, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "finish-analyses");
        assert!(
            v[0].detail.contains(&format!("BRAM {t}")),
            "{}",
            v[0].detail
        );
    }
}
