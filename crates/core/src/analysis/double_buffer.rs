//! Double-buffering inference for MetaPipe inter-stage communication.
//!
//! "Communication buffers used in between stages are converted to double
//! buffers" (§III-B3). The MetaPipe toggle parameters thereby also control
//! whether the buffers internal to a controller are double-buffered
//! (§III-C): the same program built with `toggle = false` produces
//! `Sequential` controllers whose buffers stay single-buffered.

use crate::analysis::traversal::{for_each_access, CtrlTree};
use crate::design::Design;
use crate::node::NodeKind;

/// Per node: what the stages of the `MetaPipe` being looked at do to a
/// memory — the first stage writing it and the last stage reading it —
/// and the verdict so far.
#[derive(Clone, Copy, Default)]
struct MemUse {
    first_write: Option<u32>,
    last_read: Option<u32>,
    double: bool,
}

/// Infer and set the `double_buf` flag on memories that communicate between
/// MetaPipe stages (including fold sources and accumulators).
pub fn infer(design: &mut Design, tree: &CtrlTree) {
    let mut uses = vec![MemUse::default(); design.len()];
    for &ctrl in tree.order() {
        let NodeKind::MetaPipe(spec) = design.kind(ctrl) else {
            continue;
        };
        for &mem in &spec.locals {
            let u = &mut uses[mem.index()];
            (u.first_write, u.last_read) = (None, None);
        }
        for (stage, &s) in spec.stages.iter().enumerate() {
            let stage = stage as u32;
            for_each_access(design, s, &mut |_, mem, read, write| {
                let u = &mut uses[mem.index()];
                if write && u.first_write.is_none() {
                    u.first_write = Some(stage);
                }
                if read {
                    u.last_read = Some(stage);
                }
            });
        }
        // A buffer written in one stage and read in a later stage holds
        // live data across the stage boundary of a pipelined controller,
        // so it must be double-buffered.
        for &mem in &spec.locals {
            let u = &mut uses[mem.index()];
            u.double |= matches!((u.first_write, u.last_read), (Some(w), Some(r)) if r > w);
        }
        // The fold source buffer is produced by the body while the previous
        // iteration's value is still being accumulated.
        if let Some(f) = &spec.fold {
            uses[f.src.index()].double = true;
            uses[f.accum.index()].double = true;
        }
    }
    for (node, mem) in design.nodes_mut().iter_mut().zip(uses) {
        if mem.double {
            match &mut node.kind {
                NodeKind::Bram(s) => s.double_buf = true,
                NodeKind::Reg(s) => s.double_buf = true,
                NodeKind::PriorityQueue(s) => s.double_buf = true,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DesignBuilder;
    use crate::design::Design;
    use crate::node::{by, NodeKind, ReduceOp};
    use crate::types::DType;

    fn build(toggle: bool) -> Design {
        let mut b = DesignBuilder::new("t");
        let x = b.off_chip("x", DType::F32, &[64]);
        let y = b.off_chip("y", DType::F32, &[64]);
        b.sequential(|b| {
            b.outer(toggle, &[by(64, 16)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[16]);
                let o = b.bram("o", DType::F32, &[16]);
                b.tile_load(x, t, &[i], &[16], 1); // stage 0 writes t
                b.pipe(&[by(16, 1)], 1, |b, it| {
                    let v = b.load(t, &[it[0]]); // stage 1 reads t
                    let w = b.mul(v, v);
                    b.store(o, &[it[0]], w); // stage 1 writes o
                });
                b.tile_store(y, o, &[i], &[16], 1); // stage 2 reads o
            });
        });
        b.finish().unwrap()
    }

    fn double_buffered(d: &Design) -> Vec<bool> {
        d.find_all(|n| matches!(n.kind, NodeKind::Bram(_)))
            .iter()
            .map(|&id| match d.kind(id) {
                NodeKind::Bram(s) => s.double_buf,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn metapipe_buffers_are_double() {
        let d = build(true);
        assert!(double_buffered(&d).iter().all(|&x| x));
    }

    #[test]
    fn sequential_buffers_stay_single() {
        let d = build(false);
        assert!(double_buffered(&d).iter().all(|&x| !x));
    }

    #[test]
    fn fold_buffers_are_double() {
        let mut b = DesignBuilder::new("t");
        b.sequential(|b| {
            let acc = b.bram("acc", DType::F32, &[4]);
            b.outer_fold(true, &[by(8, 1)], 1, acc, ReduceOp::Add, |b, _| {
                let t = b.bram("t", DType::F32, &[4]);
                b.pipe(&[by(4, 1)], 1, |b, it| {
                    let c = b.constant(1.0, DType::F32);
                    b.store(t, &[it[0]], c);
                });
                t
            });
        });
        let d = b.finish().unwrap();
        assert!(double_buffered(&d).iter().all(|&x| x));
    }
}
