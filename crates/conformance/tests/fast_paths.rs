//! The properties the DSE miss path leans on, checked against the
//! formulations they replaced: `structural_hash` keys exactly as the
//! historical `Debug`-text hash did, the planned latency walk allocates
//! nothing while agreeing with the reference walk, a cold design
//! point — build, estimate, a whole `explore` — stays inside its heap
//! allocation budget (DESIGN.md, "Node memory layout"), and the sweep's
//! workers, which decode their own sample indices, evaluate exactly the
//! assignments `LegalSpace::sample` lists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dhdl_apps::Benchmark;
use dhdl_core::{structural_hash, Design, Fnv64, Node, ParamSpace, ParamValues};
use dhdl_dse::{explore, DseOptions, DseResult, LegalSpace};
use dhdl_estimate::{estimate_cycles, estimate_cycles_net, Estimator};
use dhdl_synth::elaborate;
use dhdl_target::Platform;

fn b9() -> impl Iterator<Item = Box<dyn Benchmark>> {
    dhdl_apps::all().into_iter().chain(dhdl_apps::dnn())
}

/// The key up to cache format v2, kept as the reference: byte-wise
/// [`Fnv64`] over the name and the `Debug` text of every `(id, node)`.
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
    let _alone = one_at_a_time();
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

/// Heap allocations made by every thread of the process: `explore`
/// evaluates on worker threads of its own. Only meaningful while no
/// other test runs, which [`one_at_a_time`] arranges.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

/// Held by every test of this file for its whole body.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the others still get their turn.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counters are
// a `const`-initialized thread-local `Cell`, which neither allocates nor
// runs a destructor, and an atomic. `realloc` is the default one, which
// comes back through `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        ALL_THREADS.fetch_add(1, Ordering::Relaxed);
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
    let _alone = one_at_a_time();
    let platform = Platform::maia();
    for b in b9() {
        let design = b.build(&b.default_params()).unwrap();
        // Skeleton, plan and netlist exist before the walk is measured.
        let net = elaborate(&design, &platform.fpga);
        assert!(
            !net.latency.ctrls.is_empty(),
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

/// Allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = std::hint::black_box(f());
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Upper bounds on heap allocations per application: one `build` and one
/// `estimate` at the default point, and a whole single-threaded `explore`
/// of 3 000 sampled points divided by its points. Measured values at the
/// time of writing in the comment; at the parent commit the third column
/// read 100 / 96 / 111 / 149 / 280 / 158 / 205 / 113 / 222.
const BUDGET: [(&str, u64, u64, f64); 9] = [
    ("dotproduct", 11, 6, 16.0),   // 8, 5, 12.1
    ("outerprod", 10, 6, 15.0),    // 7, 4, 11.1
    ("gemm", 11, 6, 16.0),         // 8, 4, 12.2
    ("tpchq6", 11, 6, 16.0),       // 8, 4, 12.1
    ("blackscholes", 17, 6, 23.0), // 13, 4, 18.1
    ("gda", 11, 6, 16.0),          // 8, 4, 12.2
    ("kmeans", 16, 6, 21.0),       // 12, 4, 16.1
    ("conv2d", 11, 6, 16.0),       // 8, 4, 12.2
    ("attention", 19, 6, 25.0),    // 15, 4, 19.9
];

/// The whole-mix mean the issue that introduced the budget asked for
/// (141 allocations per point before it).
const MIX_MEAN_BUDGET: f64 = 40.0;

#[test]
fn a_cold_point_stays_inside_its_allocation_budget() {
    let _alone = one_at_a_time();
    let (estimator, _) = Estimator::calibrate_with(&Platform::maia(), 40, 7);
    let (mut mix_allocations, mut mix_points) = (0u64, 0u64);
    for (bench, (name, build_max, estimate_max, explore_max)) in b9().zip(BUDGET) {
        assert_eq!(bench.name(), name, "BUDGET lists the nine in suite order");
        let params = bench.default_params();
        let (built, design) = allocations_of(|| bench.build(&params));
        let design = design.unwrap();
        assert!(
            built <= build_max,
            "{name}: one build made {built} allocations, budget {build_max}"
        );
        // The first estimate of a shape also builds its skeleton.
        estimator.estimate(&design);
        let (estimated, _) = allocations_of(|| estimator.estimate(&design));
        assert!(
            estimated <= estimate_max,
            "{name}: one estimate made {estimated} allocations, budget {estimate_max}"
        );
        let opts = DseOptions {
            max_points: 3000,
            seed: 1,
            threads: 1,
            ..DseOptions::default()
        };
        let space = bench.param_space();
        let build = |p: &ParamValues| bench.build(p);
        let before = ALL_THREADS.load(Ordering::Relaxed);
        let result = explore(build, &space, &estimator, &opts);
        let explored = ALL_THREADS.load(Ordering::Relaxed) - before;
        let points = (result.points.len() + result.discarded) as u64;
        assert!(points >= 200, "{name}: only {points} points");
        let per_point = explored as f64 / points as f64;
        assert!(
            per_point <= explore_max,
            "{name}: explore made {per_point:.1} allocations per point, budget {explore_max}"
        );
        mix_allocations += explored;
        mix_points += points;
    }
    let mean = mix_allocations as f64 / mix_points as f64;
    assert!(
        mean <= MIX_MEAN_BUDGET,
        "{mean:.1} allocations per cold point over {mix_points} points"
    );
    // The counters count: this thread's sees a `Vec`, the process-wide
    // one also sees a `Vec` made on another thread.
    let (here, _) = allocations_of(|| vec![0u8; 64]);
    assert_eq!(here, 1, "the thread's counter counts nothing");
    let before = ALL_THREADS.load(Ordering::Relaxed);
    let (there, _) = allocations_of(|| {
        std::thread::scope(|s| s.spawn(|| drop(std::hint::black_box(vec![0u8; 64]))).join())
    });
    assert!(
        ALL_THREADS.load(Ordering::Relaxed) - before > there,
        "the process-wide counter misses other threads"
    );
}

/// Every legal point of `space` in index order, built name by name in
/// def order by an odometer over the legal values (the last def turns
/// fastest) — the construction `LegalSpace::try_point` must equal.
fn points_name_by_name(space: &ParamSpace) -> Vec<ParamValues> {
    let legal: Vec<Vec<u64>> = space.defs().iter().map(|d| d.kind.legal_values()).collect();
    let mut digits = vec![0usize; legal.len()];
    let mut points = Vec::new();
    loop {
        points.push(
            space
                .defs()
                .iter()
                .zip(&legal)
                .zip(&digits)
                .fold(ParamValues::new(), |v, ((d, vals), &k)| {
                    v.with(&d.name, vals[k])
                }),
        );
        let Some(turn) = (0..legal.len())
            .rev()
            .find(|&i| digits[i] + 1 < legal[i].len())
        else {
            return points;
        };
        digits[turn] += 1;
        digits[turn + 1..].iter_mut().for_each(|k| *k = 0);
    }
}

/// The sweep decodes indices on its workers through `try_point`; the
/// nine applications' 51 360 legal points decode to the assignments built
/// name by name, and `sample_indices` decoded is `sample` on either side
/// of the enumerate-everything cut-over.
#[test]
fn every_legal_point_decodes_to_its_name_by_name_assignment() {
    let _alone = one_at_a_time();
    let mut total = 0;
    for b in b9() {
        let space = b.param_space();
        let ls = LegalSpace::new(&space);
        let reference = points_name_by_name(&space);
        assert_eq!(reference.len() as u128, ls.size(), "{}", b.name());
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(
                ls.try_point(i as u128).as_ref(),
                Some(want),
                "{} #{i}",
                b.name()
            );
        }
        let size = reference.len();
        for n in [size / 2, size - 1, size, size + 1, 3000] {
            for seed in [1, 7] {
                let indices = ls.sample_indices(n, seed);
                let decoded: Vec<ParamValues> = indices
                    .iter()
                    .map(|&i| reference[i as usize].clone())
                    .collect();
                assert_eq!(decoded, ls.sample(n, seed), "{} n={n}", b.name());
                if n >= size {
                    assert!(indices.iter().copied().eq(0..size as u128));
                } else {
                    assert_eq!(indices.len(), n, "{} n={n}", b.name());
                }
            }
        }
        total += size;
    }
    assert_eq!(total, 51_360);
}

/// `explore` evaluates exactly the points `LegalSpace::sample` returns,
/// in its order, for any thread count: the evaluated points and the
/// discarded sample indices interleave back into the sample.
#[test]
fn explore_evaluates_the_sample_in_order_on_any_thread_count() {
    let _alone = one_at_a_time();
    let (estimator, _) = Estimator::calibrate_with(&Platform::maia(), 40, 7);
    for b in b9() {
        let space = b.param_space();
        let sample = LegalSpace::new(&space).sample(3000, 1);
        let build = |p: &ParamValues| b.build(p);
        let runs: Vec<DseResult> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let opts = DseOptions {
                    max_points: 3000,
                    seed: 1,
                    threads,
                    ..DseOptions::default()
                };
                explore(build, &space, &estimator, &opts)
            })
            .collect();
        let r = &runs[0];
        assert!(!r.truncated);
        assert_eq!(
            r.points.len() + r.errors.len(),
            sample.len(),
            "{}",
            b.name()
        );
        let mut points = r.points.iter();
        let mut errors = r.errors.iter().map(|&(i, _)| i).peekable();
        for (i, want) in sample.iter().enumerate() {
            if errors.next_if_eq(&i).is_none() {
                let got = points.next().expect("a point per sampled index");
                assert_eq!(&got.params, want, "{} #{i}", b.name());
            }
        }
        assert!(errors.next().is_none(), "{}: stray error index", b.name());
        assert_eq!(runs[1], runs[0], "{}: 2 threads", b.name());
        assert_eq!(runs[2], runs[0], "{}: 4 threads", b.name());
    }
}

#[test]
fn a_node_stays_within_three_cache_lines() {
    let size = std::mem::size_of::<Node>();
    assert!(size <= 192, "size_of::<Node>() = {size}");
}
