//! The two properties the DSE miss path leans on, checked against the
//! formulations they replaced: `structural_hash` keys exactly as the
//! historical `Debug`-text hash did, and the planned latency walk
//! allocates nothing while agreeing with the reference walk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use dhdl_apps::Benchmark;
use dhdl_core::{structural_hash, Design, Fnv64};
use dhdl_dse::LegalSpace;
use dhdl_estimate::{estimate_cycles, estimate_cycles_net};
use dhdl_synth::elaborate;
use dhdl_target::Platform;

fn b9() -> impl Iterator<Item = Box<dyn Benchmark>> {
    dhdl_apps::all().into_iter().chain(dhdl_apps::dnn())
}

/// The key up to cache format v2, kept as the reference: byte-wise
/// FNV-1a over the name and the `Debug` text of every `(id, node)`.
fn debug_text_hash(design: &Design) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv64::new();
    h.write(design.name().as_bytes());
    for (id, node) in design.iter() {
        let _ = write!(h, "{id:?}{node:?}");
    }
    h.finish()
}

/// equal key ⇔ equal structure, with "structure" as the old key saw it:
/// over the sampled points of the nine applications and 2 000 generated
/// designs, two designs share a new key exactly when they shared an old.
#[test]
fn structural_hash_keys_exactly_as_the_debug_text_hash_did() {
    let sampled = b9().flat_map(|b| {
        let points = LegalSpace::new(&b.param_space()).sample(3000, 1);
        let built: Vec<Design> = points.iter().filter_map(|p| b.build(p).ok()).collect();
        assert!(
            built.len() * 2 > points.len(),
            "{}: few points build",
            b.name()
        );
        built
    });
    let generated = (0..2000).filter_map(|i| dhdl_conformance::generate(9, i).build().ok());
    let (mut new_of_old, mut old_of_new) = (HashMap::new(), HashMap::new());
    for design in sampled.chain(generated) {
        let (old, new) = (debug_text_hash(&design), structural_hash(&design));
        assert_eq!(
            *new_of_old.entry(old).or_insert(new),
            new,
            "one old key, two new"
        );
        assert_eq!(
            *old_of_new.entry(new).or_insert(old),
            old,
            "one new key, two old"
        );
    }
    assert!(
        new_of_old.len() > 12_000,
        "only {} distinct designs",
        new_of_old.len()
    );
}

thread_local! {
    /// Heap allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// `const`-initialized thread-local `Cell`, which neither allocates nor
// runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn planned_latency_walk_allocates_nothing() {
    let platform = Platform::maia();
    for b in b9() {
        let design = b.build(&b.default_params()).unwrap();
        // Skeleton, plan and netlist exist before the walk is measured.
        let net = elaborate(&design, &platform.fpga);
        assert!(
            net.latency.is_some(),
            "{}: no plan on the netlist",
            b.name()
        );
        let before = ALLOCATIONS.with(Cell::get);
        let planned = std::hint::black_box(estimate_cycles_net(&design, &platform, &net));
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(allocated, 0, "{}: the planned walk allocated", b.name());
        assert_eq!(
            planned.to_bits(),
            estimate_cycles(&design, &platform).to_bits()
        );
        let before = ALLOCATIONS.with(Cell::get);
        std::hint::black_box(estimate_cycles(&design, &platform));
        assert!(
            ALLOCATIONS.with(Cell::get) > before,
            "the counter counts nothing"
        );
    }
}
