//! The `timing` entry held to both backends, shared by the test files
//! that build designs.

use dhdl_core::Design;
use dhdl_sim::{compile, simulate, timing, Bindings, SimError, SimResult, Timing};
use dhdl_target::Platform;

/// `timing` and `run` agree bit for bit in cycles, transfers and profile.
fn assert_same_timing(name: &str, t: &Timing, run: &SimResult) {
    assert_eq!(t.cycles.to_bits(), run.cycles.to_bits(), "`{name}` cycles");
    assert_eq!(t.transfers, run.transfers, "`{name}` transfers");
    let bits = |p: &[dhdl_sim::ProfileEntry]| -> Vec<_> {
        p.iter()
            .map(|e| (e.ctrl, e.label.clone(), e.executions, e.cycles.to_bits()))
            .collect()
    };
    assert_eq!(bits(t.profile()), bits(run.profile()), "`{name}` profile");
}

/// `timing(d)` against `compile(d)` and a run of each backend on
/// `bindings`: `timing` rejects exactly what `compile` rejects; where it
/// reports timing, every run that succeeds reports the same timing and
/// none fails on the design's structure (only on its data or bindings);
/// where it reports none, every run fails. Returns how many runs it
/// compared.
pub fn assert_timing_entry(d: &Design, bindings: &Bindings) -> usize {
    let p = Platform::maia();
    let name = d.name();
    match (timing(d, &p), compile(d, &p)) {
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "`{name}`: timing and compile reject differently");
            0
        }
        (Ok(t), Ok(compiled)) => {
            let runs = [compiled.run(bindings), simulate(d, &p, bindings)];
            match t {
                Some(t) => {
                    for e in runs.iter().filter_map(|r| r.as_ref().err()) {
                        assert!(
                            !matches!(
                                e,
                                SimError::ZeroTripLoop(_)
                                    | SimError::Unevaluated(_)
                                    | SimError::Malformed(_)
                            ),
                            "`{name}`: timing, but a run fails on the design: {e}"
                        );
                    }
                    let ok: Vec<&SimResult> = runs.iter().flatten().collect();
                    for run in &ok {
                        assert_same_timing(name, &t, run);
                    }
                    ok.len()
                }
                None => {
                    assert!(
                        runs.iter().all(Result::is_err),
                        "`{name}`: no timing, but a run succeeded"
                    );
                    0
                }
            }
        }
        (t, c) => panic!(
            "`{name}`: timing {} but compile {}",
            if t.is_ok() { "accepts" } else { "rejects" },
            if c.is_ok() { "accepts" } else { "rejects" }
        ),
    }
}
