//! Equality and selection semantics of the sweep result types.
//!
//! `DseResult` equality deliberately ignores `stats` (two sweeps that
//! produce identical points compare equal however fast they ran and
//! wherever their estimates came from), and `best()` must only ever
//! return a *valid* point. These contracts are what the conformance
//! harness and the bit-identity tests lean on, so they get pinned here.

use dhdl_core::ParamValues;
use dhdl_dse::{CacheStats, DesignPoint, DseResult, OutcomeCounts, SweepStats};
use dhdl_target::AreaReport;

fn area(alms: f64) -> AreaReport {
    AreaReport {
        alms,
        regs: alms * 2.0,
        dsps: 4.0,
        brams: 8.0,
    }
}

fn point(cycles: f64, alms: f64, valid: bool) -> DesignPoint {
    DesignPoint {
        params: ParamValues::new().with("tile", 8).with("par", 2),
        cycles,
        area: area(alms),
        valid,
    }
}

fn result(points: Vec<DesignPoint>, stats: SweepStats) -> DseResult {
    DseResult {
        points,
        pareto: vec![],
        space_size: 64,
        discarded: 0,
        counts: OutcomeCounts::default(),
        errors: vec![],
        truncated: false,
        stats,
    }
}

#[test]
fn equality_ignores_stats() {
    let pts = vec![point(100.0, 50.0, true), point(200.0, 25.0, true)];
    let fast = result(
        pts.clone(),
        SweepStats {
            elapsed_secs: 0.01,
            evaluated: 2,
            cache: Some(CacheStats {
                hits: 2,
                misses: 0,
                inserts: 0,
                entries: 2,
            }),
        },
    );
    let slow = result(
        pts,
        SweepStats {
            elapsed_secs: 42.0,
            evaluated: 2,
            cache: None,
        },
    );
    assert_eq!(fast, slow);
}

#[test]
fn equality_compares_everything_else() {
    let a = result(vec![point(100.0, 50.0, true)], SweepStats::default());
    let mut b = a.clone();
    b.points[0].cycles = 101.0;
    assert_ne!(a, b);
    let mut c = a.clone();
    c.truncated = true;
    assert_ne!(a, c);
    let mut d = a.clone();
    d.space_size = 65;
    assert_ne!(a, d);
    let mut e = a.clone();
    e.discarded = 1;
    assert_ne!(a, e);
}

#[test]
fn best_returns_fastest_valid_point() {
    let r = result(
        vec![
            point(50.0, 10.0, false), // fastest overall but invalid
            point(100.0, 50.0, true),
            point(80.0, 70.0, true), // fastest valid
            point(200.0, 5.0, true),
        ],
        SweepStats::default(),
    );
    let b = r.best().expect("has valid points");
    assert!(b.valid);
    assert_eq!(b.cycles, 80.0);
}

#[test]
fn best_breaks_cycle_ties_by_smaller_area() {
    let r = result(
        vec![
            point(100.0, 90.0, true),
            point(100.0, 40.0, true),
            point(100.0, 60.0, true),
        ],
        SweepStats::default(),
    );
    assert_eq!(r.best().unwrap().area.alms, 40.0);
}

#[test]
fn best_is_none_when_nothing_valid() {
    let r = result(
        vec![point(50.0, 10.0, false), point(60.0, 20.0, false)],
        SweepStats::default(),
    );
    assert!(r.best().is_none());
    let empty = result(vec![], SweepStats::default());
    assert!(empty.best().is_none());
}

#[test]
fn points_per_sec_handles_instant_sweeps() {
    let s = SweepStats {
        elapsed_secs: 0.0,
        evaluated: 100,
        cache: None,
    };
    assert_eq!(s.points_per_sec(), 0.0);
    let s = SweepStats {
        elapsed_secs: 2.0,
        evaluated: 100,
        cache: None,
    };
    assert_eq!(s.points_per_sec(), 50.0);
}
