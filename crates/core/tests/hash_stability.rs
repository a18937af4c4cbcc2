//! Golden-value regression tests for [`dhdl_core::structural_hash`].
//!
//! The structural hash keys the estimate cache and recorded
//! fault-injection schedules. If its word stream ever changes — a field
//! hashed in a different order, a renumbered template tag, a reordered
//! `PrimOp` — recorded schedules would silently stop matching. These
//! tests pin exact hash values for fixed designs so any such drift fails
//! loudly; if one fails, either revert the change or update these golden
//! values and the schedules together.

use dhdl_core::{by, structural_hash, DType, DesignBuilder, ReduceOp};

fn dotproduct(tile: u64, par: u32) -> dhdl_core::Design {
    let mut b = DesignBuilder::new("dotproduct");
    let va = b.off_chip("a", DType::F32, &[4096]);
    let vb = b.off_chip("b", DType::F32, &[4096]);
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F32, 0.0);
        b.meta_pipe(&[by(4096, tile)], 1, |b, iters| {
            let i = iters[0];
            let at = b.bram("aT", DType::F32, &[tile]);
            let bt = b.bram("bT", DType::F32, &[tile]);
            b.parallel(|b| {
                b.tile_load(va, at, &[i], &[tile], par);
                b.tile_load(vb, bt, &[i], &[tile], par);
            });
            b.pipe_reduce(&[by(tile, 1)], par, acc, ReduceOp::Add, |b, it| {
                let x = b.load(at, &[it[0]]);
                let y = b.load(bt, &[it[0]]);
                b.mul(x, y)
            });
        });
    });
    b.finish().unwrap()
}

fn scalar(name: &str) -> dhdl_core::Design {
    let mut b = DesignBuilder::new(name);
    b.sequential(|b| {
        let acc = b.reg("r", DType::i32(), 0.0);
        b.pipe_reduce(&[by(16, 1)], 1, acc, ReduceOp::Add, |b, it| {
            let c = b.constant(2.0, DType::i32());
            b.mul(it[0], c)
        });
    });
    b.finish().unwrap()
}

/// Golden values. Computed once and pinned; see module docs for the
/// upgrade procedure if these legitimately need to change.
///
/// Cache format v3 is the intentional break: the key stopped being FNV
/// over the nodes' `Debug` text and became a field-wise word stream with
/// a finisher (`crates/core/src/hash.rs`), so all four values moved and
/// v2 files retire through the cache's rebuild-on-mismatch path.
#[test]
fn structural_hash_golden_values() {
    let cases: [(&str, u64, u64); 4] = [
        (
            "dot-64-4",
            structural_hash(&dotproduct(64, 4)),
            GOLD_DOT_64_4,
        ),
        (
            "dot-128-4",
            structural_hash(&dotproduct(128, 4)),
            GOLD_DOT_128_4,
        ),
        (
            "dot-64-8",
            structural_hash(&dotproduct(64, 8)),
            GOLD_DOT_64_8,
        ),
        ("scalar", structural_hash(&scalar("s")), GOLD_SCALAR),
    ];
    for (name, got, want) in cases {
        assert_eq!(
            got, want,
            "structural_hash drifted for {name}: got {got:#018x}, want {want:#018x} \
             (cached artifacts keyed by the old stream will no longer match)"
        );
    }
}

const GOLD_DOT_64_4: u64 = 0xde6f_4394_3076_e56f;
const GOLD_DOT_128_4: u64 = 0x4cd9_b7e3_bd95_a27c;
const GOLD_DOT_64_8: u64 = 0x1e60_9f04_1673_8406;
const GOLD_SCALAR: u64 = 0x0c88_0e52_c743_a0ef;

/// The hash must be a pure function of the design, not of process state.
#[test]
fn structural_hash_is_reproducible_within_process() {
    assert_eq!(
        structural_hash(&dotproduct(64, 4)),
        structural_hash(&dotproduct(64, 4))
    );
    assert_ne!(
        structural_hash(&dotproduct(64, 4)),
        structural_hash(&dotproduct(64, 2))
    );
}
