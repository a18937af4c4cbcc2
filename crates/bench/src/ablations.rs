//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **MetaPipe value** — best design with coarse-grained pipelining
//!    explored vs. all MetaPipe toggles forced off (Sequential only);
//! 2. **Hybrid estimator value** — ALM error of the hybrid (NN-corrected)
//!    estimator vs. the raw analytical estimate, against synthesis truth;
//! 3. **Pruning value** — size of the divisor-pruned legal space vs. the
//!    unpruned integer box, i.e. how much sampling the heuristics save.

use dhdl_apps::Benchmark;
use dhdl_core::ParamKind;
use dhdl_estimate::{random_design, raw_estimate};
use dhdl_synth::{design_hash, elaborate, place_and_route};

use crate::experiments::Harness;
use crate::report::{pct, times, Report, Table};

/// Harness seed of the ablation run.
pub const SEED: u64 = 0xAB1A;

/// Held-out random designs the hybrid ablation averages over.
const HELD_OUT: usize = 60;

/// Run the three ablations over `benches` on `harness`.
pub fn ablations(harness: &Harness, benches: &[Box<dyn Benchmark>]) -> Report {
    let mut r = Report::default();
    let mut section = |title: &str, file: &str, t: Table| {
        r.say(format_args!("\n{title}\n"));
        r.say(t.render());
        r.file(file, t.to_csv());
    };
    section(
        "Ablation 1: MetaPipe (coarse-grained pipelining) value",
        "ablation_metapipe.csv",
        ablation_metapipe(harness, benches),
    );
    section(
        &format!("Ablation 2: hybrid estimation vs raw analytical ({HELD_OUT} held-out designs)"),
        "ablation_hybrid.csv",
        ablation_hybrid(harness),
    );
    section(
        "Ablation 3: legal-subspace pruning (§IV-C heuristics)",
        "ablation_pruning.csv",
        ablation_pruning(benches),
    );
    r
}

/// 1: value of coarse-grained pipelining.
fn ablation_metapipe(harness: &Harness, benches: &[Box<dyn Benchmark>]) -> Table {
    let mut t = Table::new(&[
        "Benchmark",
        "best cycles (MetaPipe explored)",
        "best cycles (Sequential only)",
        "MetaPipe advantage",
    ]);
    for bench in benches {
        let dse = harness.explore(bench.as_ref());
        let toggles: Vec<String> = bench
            .param_space()
            .defs()
            .iter()
            .filter(|d| matches!(d.kind, ParamKind::Toggle))
            .map(|d| d.name.clone())
            .collect();
        let Some(any) = dse.best().map(|p| p.cycles) else {
            continue;
        };
        let seq = dse
            .points
            .iter()
            .filter(|p| p.valid && toggles.iter().all(|n| p.params.get(n) == Some(0)))
            .map(|p| p.cycles)
            .fold(f64::INFINITY, f64::min);
        t.row(&[
            bench.name().to_string(),
            format!("{any:.0}"),
            if seq.is_finite() {
                format!("{seq:.0}")
            } else {
                "(none sampled)".into()
            },
            if (seq / any).is_finite() {
                times(seq / any)
            } else {
                "-".into()
            },
        ]);
    }
    t
}

/// 2: value of the learned correction in the hybrid area estimator.
fn ablation_hybrid(harness: &Harness) -> Table {
    let target = &harness.platform.fpga;
    let model = harness.estimator.area_model();
    let mut hybrid_err = 0.0f64;
    let mut raw_err = 0.0f64;
    for k in 0..HELD_OUT {
        // Held-out random designs (different seed stream from training).
        let design = random_design(0xE0_0000 + k as u64);
        let net = elaborate(&design, target);
        let truth = place_and_route(design_hash(&design), &net, target).area_report();
        let hybrid = model.estimate_net(&net);
        let raw = raw_estimate(&net, target);
        hybrid_err += ((hybrid.alms - truth.alms) / truth.alms).abs();
        raw_err += ((raw.alms - truth.alms) / truth.alms).abs();
    }
    let mut t = Table::new(&["Estimator", "avg ALM error (held-out designs)"]);
    t.row(&[
        "hybrid (analytical + NN)".into(),
        pct(hybrid_err / HELD_OUT as f64),
    ]);
    t.row(&["raw analytical only".into(), pct(raw_err / HELD_OUT as f64)]);
    t
}

/// 3: value of the divisor pruning heuristics.
fn ablation_pruning(benches: &[Box<dyn Benchmark>]) -> Table {
    let mut t = Table::new(&[
        "Benchmark",
        "unpruned box size",
        "legal (pruned) size",
        "reduction",
    ]);
    for bench in benches {
        let space = bench.param_space();
        let mut unpruned: f64 = 1.0;
        let mut pruned: f64 = 1.0;
        for def in space.defs() {
            let legal = def.kind.legal_values().len() as f64;
            pruned *= legal;
            unpruned *= match def.kind {
                ParamKind::Tile { min, max, .. } => (max - min + 1) as f64,
                ParamKind::Par { max, .. } => max as f64,
                ParamKind::Toggle => 2.0,
                // Naive range: any device count 1..=max.
                ParamKind::Devices { max } => max as f64,
            };
        }
        t.row(&[
            bench.name().to_string(),
            format!("{unpruned:.3e}"),
            format!("{pruned:.0}"),
            format!("{:.0}x", unpruned / pruned),
        ]);
    }
    t
}
