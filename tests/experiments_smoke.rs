//! Smoke tests for the experiment harness itself: the functions behind
//! `dhdl table3`, `dhdl fig5`, ... run at miniature configurations under
//! `cargo test`, so the reproduction pipeline is covered without a
//! full-scale run.

use dhdl_apps::Benchmark;
use dhdl_bench::partbench::Scenario;
use dhdl_bench::{
    diagnose, energy, fig5, fig6, partbench, table2, table3, table4, Harness, Report,
};
use dhdl_core::{Fnv64, ParamSpace};
use std::sync::OnceLock;

/// One calibration for the whole test binary.
fn mini_harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| Harness::new(0x51))
}

fn only(bench: impl Benchmark + 'static) -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(bench)]
}

#[test]
fn mini_table3_errors_are_single_digit_ish() {
    let table = table3(mini_harness(), &only(dhdl_apps::DotProduct::new(9_600)), 3);
    let evals = &table.evals[0];
    assert!(!evals.is_empty());
    // Loose bound: every error under 30% on a mini run.
    for eval in evals {
        for (i, e) in eval.errors().into_iter().enumerate() {
            assert!(e < 0.30, "axis {i}: {e}");
        }
    }
    assert!(table.report.text.contains("Average"));
}

#[test]
fn mini_table4_ordering_holds() {
    // Our estimator must beat both HLS modes; full must cost more than
    // restricted — the Table IV ordering, at toy scale, with every point
    // pipelining the outer loop (Figure 2's L1) as Table IV's "full"
    // column does.
    let t = table4(mini_harness(), &dhdl_apps::Gda::new(192, 32), 5, 5);
    // Full mode completely unrolls the inner loops: a much larger
    // scheduling problem (wall-clock comparisons are too noisy for CI).
    assert!(
        t.full_ops > t.restricted_ops * 10,
        "{} vs {}",
        t.full_ops,
        t.restricted_ops
    );
    assert!(
        t.full > t.ours,
        "full HLS {}s must cost more than ours {}s",
        t.full,
        t.ours
    );
}

#[test]
fn mini_fig5_scatter_renders() {
    let fig = fig5(mini_harness(), &only(dhdl_apps::BlackScholes::new(4_608)));
    let plot = &fig.text;
    assert!(plot.contains('#'), "pareto points must render:\n{plot}");
    assert!(plot.lines().count() >= 12);
    let files: Vec<&str> = fig.files.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(files, ["fig5_blackscholes.csv", "fig5_summary.csv"]);
    assert!(fig.files[0].1.lines().count() > 1, "no points in the CSV");
}

#[test]
fn mini_fig6_speedup_is_finite_and_positive() {
    let fig = fig6(mini_harness(), &only(dhdl_apps::TpchQ6::new(9_600)));
    let speedup = fig.speedups[0];
    assert!(speedup.is_finite() && speedup > 0.0);
    // At 1/10 scale tpchq6 stays in the same order of magnitude as parity.
    assert!((0.1..=10.0).contains(&speedup), "speedup {speedup}");
}

#[test]
fn mini_energy_fpga_wins() {
    let e = energy(mini_harness(), &only(dhdl_apps::BlackScholes::new(4_608)));
    assert!(
        e.advantages[0] > 10.0,
        "blackscholes energy advantage should be large: {}",
        e.advantages[0]
    );
}

#[test]
fn every_sweep_is_the_whole_space_and_its_front_dominates_a_sample() {
    let one_chip = mini_harness();
    let mut four_chips = one_chip.clone();
    four_chips.num_fpgas = 4;
    let gemm: Box<dyn Benchmark> = Box::new(dhdl_apps::Gemm::default());
    let runs = dhdl_apps::all()
        .into_iter()
        .chain(dhdl_apps::dnn())
        .map(|bench| (one_chip, bench))
        .chain([(&four_chips, gemm)]);
    let mut space_size = 0;
    for (harness, bench) in runs {
        let name = format!("{} at K={}", bench.name(), harness.num_fpgas);
        let whole = harness.explore(bench.as_ref());
        assert!(!whole.truncated, "{name}");
        assert_eq!(
            (whole.points.len() + whole.discarded) as u128,
            whole.space_size,
            "{name}: not every legal point was evaluated"
        );
        space_size = whole.space_size;
        // A seeded 1 000-point sample of the same space.
        let mut sampling = harness.clone();
        sampling.dse.max_points = 1_000;
        let sample = sampling.explore(bench.as_ref());
        for p in sample.pareto_points() {
            assert!(
                whole
                    .pareto_points()
                    .any(|q| q.cycles <= p.cycles && q.area.alms <= p.area.alms),
                "{name}: sampled front point {} is not dominated by the whole space's front",
                p.params
            );
        }
    }
    // Larger than the paper's 75 000-point budget and `DseOptions`'
    // default: the harness must not fall back on either.
    assert_eq!(space_size, 87_480, "gemm at K=4");
}

#[test]
fn report_tables_render_for_experiment_shapes() {
    let suite = dhdl_apps::all();
    let t = table2(&suite);
    // Title, blank, header, rule, one row per benchmark, blank, `wrote`.
    assert_eq!(t.text.lines().count(), 6 + suite.len());
    assert!(t.files[0].1.lines().count() == 1 + suite.len());
}

/// FNV-64 of a report: its text without the lines that name a path or a
/// wall-clock rate, then each file's name and contents.
fn report_digest(report: &Report) -> u64 {
    let mut h = Fnv64::new();
    let stable = report
        .text
        .lines()
        .filter(|l| !l.contains("wrote ") && !l.starts_with("sweep throughput"));
    for line in stable {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    for (name, contents) in &report.files {
        h.write_u64(name.len() as u64);
        h.write(name.as_bytes());
        h.write_u64(contents.len() as u64);
        h.write(contents.as_bytes());
    }
    h.finish()
}

/// A GDA tiling space whose largest row tiles overflow one device and
/// which a two-device cut rescues onto the front: `partbench` at test
/// size.
fn gda_scenario() -> Scenario {
    let gda = dhdl_apps::Gda::new(16_384, 256);
    let mut space = ParamSpace::new();
    space.tile("rts", gda.r, 256, 512);
    space.par("p1", gda.d, 2);
    space.par("p2", gda.d, 2);
    space.par("m2p", 4, 1);
    space.par("m1p", 4, 2);
    space.toggle("m1");
    space.toggle("m2");
    Scenario {
        bench: Box::new(gda),
        space,
    }
}

/// The outputs of every experiment that evaluates a point's ground
/// truth, at miniature scale, pinned byte for byte by one FNV-64 digest
/// each: the report text and every `results/` file of `table3`, `fig5`,
/// `energy` and `partbench`, the table of `diagnose`, and `fig6.csv`
/// (`fig6`'s text holds a measured host-CPU time). A change to how a
/// point is built, estimated, synthesized, timed or classified that
/// moves a digit fails here.
#[test]
fn experiment_outputs_are_pinned() {
    let h = mini_harness();
    let t3 = table3(h, &only(dhdl_apps::DotProduct::new(9_600)), 3).report;
    let f5 = fig5(h, &only(dhdl_apps::BlackScholes::new(4_608)));
    let f6 = fig6(h, &only(dhdl_apps::TpchQ6::new(9_600))).report;
    let f6_csv = Report {
        files: f6.files,
        ..Report::default()
    };
    let en = energy(h, &only(dhdl_apps::BlackScholes::new(4_608))).report;
    let dg = diagnose(h, &dhdl_apps::Gda::new(192, 32), 3);
    let dg = Report {
        text: dg.render() + &dg.to_csv(),
        ..Report::default()
    };
    let pb = partbench(h, &[gda_scenario()]);
    // The gate: a cut rescues a front point at K=2 and at K=4.
    assert!(pb.failures.is_empty(), "{:?}\n{}", pb.failures, pb.text);
    let pinned = [
        ("table3", &t3, 0xd702_fb2c_497b_dde4),
        ("fig5", &f5, 0x7eef_25a9_d3c9_ab88),
        ("fig6", &f6_csv, 0xa345_8c66_b9a9_a162),
        ("energy", &en, 0xe31b_6a70_6a6a_a5fc),
        ("diagnose", &dg, 0x15c2_9566_7b63_d618),
        ("partbench", &pb, 0xa3c1_8bbe_ea90_6223),
    ];
    for (name, report, want) in pinned {
        let got = report_digest(report);
        assert_eq!(got, want, "{name} digest {got:#018x}");
    }
}
