//! The `dhdl` command-line tool: regenerate any table or figure of the
//! evaluation, or estimate, explore, simulate, profile and generate code
//! for any benchmark of the suite, from the shell.
//!
//! ```text
//! dhdl table2 | table3 | table4 | fig5 | fig6 | ablations | energy
//! dhdl dnnbench | partbench
//! dhdl diagnose [benchmark] [pareto_points]
//! dhdl sweep    <benchmark> <param>
//! dhdl list
//! dhdl estimate <benchmark> [param=value ...]
//! dhdl explore  <benchmark> [--num-fpgas K]
//! dhdl simulate <benchmark> [param=value ...] [--profile]
//! dhdl codegen  <benchmark> [param=value ...]
//! dhdl bottleneck <benchmark> [param=value ...]
//! dhdl trace    <benchmark> [param=value ...]   # writes results/<bench>.vcd
//! dhdl hls      <benchmark>                     # Figure 2 style C source
//! ```
//!
//! Every sweep evaluates the whole legal space of its benchmark; the
//! `DHDL_*` knobs of README.md's environment table set threads, the
//! sweep deadline and Table IV's point count.

use std::process::ExitCode;

use dhdl_apps::Benchmark;
use dhdl_bench::report::Table;
use dhdl_bench::{knob, simulate_bench, Harness, Report};
use dhdl_core::ParamValues;
use dhdl_synth::{maxj, synthesize};
use dhdl_target::Platform;

fn main() -> ExitCode {
    dhdl_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage();
        return ExitCode::SUCCESS;
    };
    if let Some(code) = experiment(cmd, &args[1..]) {
        return code;
    }
    let tool: fn(&dyn Benchmark, &[String]) = match cmd {
        "estimate" => estimate,
        "explore" => explore,
        "simulate" => sim,
        "codegen" => codegen,
        "bottleneck" => bottleneck,
        "trace" => trace,
        "hls" => hls,
        "list" | "--help" | "-h" | "help" => {
            if cmd == "list" {
                list()
            } else {
                usage()
            }
            dhdl_obs::finish("dhdl");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.get(1) else {
        eprintln!("missing benchmark name");
        usage();
        return ExitCode::from(2);
    };
    let Some(bench) = dhdl_apps::by_name(name) else {
        eprintln!("unknown benchmark `{name}` (try `dhdl list`)");
        return ExitCode::from(2);
    };
    tool(bench.as_ref(), &args[2..]);
    dhdl_obs::finish("dhdl");
    ExitCode::SUCCESS
}

fn usage() {
    eprintln!(
        "usage:\n  dhdl table2 | table3 | table4 | fig5 | fig6 | ablations | energy\n  \
         dhdl dnnbench | partbench\n  \
         dhdl diagnose [benchmark] [pareto_points]\n  \
         dhdl sweep    <benchmark> <param>\n  \
         dhdl list\n  dhdl estimate <benchmark> [param=value ...]\n  \
         dhdl explore  <benchmark> [--num-fpgas K]\n  \
         dhdl simulate <benchmark> [param=value ...] [--profile]\n  \
         dhdl codegen  <benchmark> [param=value ...]\n  \
         dhdl bottleneck <benchmark> [param=value ...]\n  \
         dhdl trace    <benchmark> [param=value ...]   # writes results/<bench>.vcd\n  \
         dhdl hls      <benchmark>                     # Figure 2 style C source"
    );
}

/// A calibrated harness for an experiment or a tool.
fn harness(seed: u64) -> Harness {
    eprintln!("calibrating estimator (one-time, application independent)...");
    Harness::new(seed)
}

/// Run `cmd` if it names an experiment of the evaluation: print its
/// report, write its files and apply its gate.
fn experiment(cmd: &str, rest: &[String]) -> Option<ExitCode> {
    use dhdl_bench::{
        ablations, dnnbench, energy, fig5, fig6, partbench, sweep, table2, table3, table4,
    };
    let suite = dhdl_apps::all();
    let report = match cmd {
        "table2" => table2(&suite),
        "table3" => {
            let h = harness(table3::SEED);
            // Five spread-out Pareto points per benchmark.
            table3(&h, &suite, 5).report
        }
        "table4" => {
            // The paper's GDA dimension for the HLS comparison (C = 96);
            // the row count only scales trip counts linearly and is kept
            // modest.
            let gda = dhdl_apps::Gda::new(1_536, 96);
            let n = knob("DHDL_T4_POINTS").unwrap_or(250);
            // The first 30 points carry an outer-loop PIPELINE directive.
            table4(&harness(table4::SEED), &gda, n, 30).report
        }
        "fig5" => fig5(&harness(fig5::SEED), &suite),
        "fig6" => fig6(&harness(fig6::SEED), &suite).report,
        "ablations" => ablations(&harness(ablations::SEED), &suite),
        "energy" => energy(&harness(energy::SEED), &suite).report,
        "diagnose" => {
            let name = rest.first().map_or("gda", String::as_str);
            let n = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
            let Some(bench) = dhdl_apps::by_name(name) else {
                eprintln!("unknown benchmark `{name}`");
                return Some(ExitCode::FAILURE);
            };
            let h = harness(table3::SEED);
            let mut r = Report::default();
            r.say(dhdl_bench::diagnose(&h, bench.as_ref(), n).render());
            r
        }
        "sweep" => {
            let (Some(name), Some(param)) = (rest.first(), rest.get(1)) else {
                eprintln!("usage: dhdl sweep <benchmark> <param>");
                return Some(ExitCode::from(2));
            };
            let Some(bench) = dhdl_apps::by_name(name) else {
                eprintln!("unknown benchmark `{name}`");
                return Some(ExitCode::from(2));
            };
            match sweep(&harness(sweep::SEED), bench.as_ref(), param) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return Some(ExitCode::from(2));
                }
            }
        }
        "dnnbench" => {
            let h = harness(dnnbench::SEED);
            dnnbench(&h, &dhdl_apps::dnn(), dnnbench::PARETO_N).report
        }
        "partbench" => {
            let h = harness(partbench::SEED);
            partbench(&h, &partbench::scenarios())
        }
        _ => return None,
    };
    report.emit();
    dhdl_obs::finish(cmd);
    if report.failures.is_empty() {
        return Some(ExitCode::SUCCESS);
    }
    eprintln!("{cmd} FAILED:");
    for f in &report.failures {
        eprintln!("  {f}");
    }
    Some(ExitCode::FAILURE)
}

/// Parse `key=value` overrides on top of the benchmark's defaults. An
/// argument that is neither one of the tool's `flags` nor `name=<integer>`
/// exits 2: carrying on would answer for the defaults instead.
fn params_from(bench: &dyn Benchmark, rest: &[String], flags: &[&str]) -> ParamValues {
    let mut p = bench.default_params();
    for arg in rest.iter().filter(|a| !flags.contains(&a.as_str())) {
        let parsed = arg
            .split_once('=')
            .and_then(|(k, v)| Some((k, v.parse::<u64>().ok()?)));
        let Some((k, v)) = parsed else {
            eprintln!("bad argument `{arg}`: expected <param>=<integer>");
            std::process::exit(2);
        };
        p.set(k, v);
    }
    if !bench.param_space().is_legal(&p) {
        eprintln!("warning: {p} is outside the legal (pruned) space");
    }
    p
}

fn list() {
    let mut t = Table::new(&["benchmark", "description", "scaled dataset", "space size"]);
    for b in dhdl_apps::all().into_iter().chain(dhdl_apps::dnn()) {
        t.row(&[
            b.name().to_string(),
            b.description().to_string(),
            b.dataset_desc(),
            b.param_space().size().to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn estimate(bench: &dyn Benchmark, rest: &[String]) {
    let p = params_from(bench, rest, &[]);
    let harness = harness(0xC11);
    let design = bench.build(&p).expect("design builds");
    let est = harness.estimator.estimate(&design);
    let platform = &harness.platform;
    println!("design:  {} with {p}", design.name());
    println!(
        "cycles:  {:.0} ({:.4} ms at {} MHz)",
        est.cycles,
        est.seconds(platform) * 1e3,
        platform.fpga.fabric_clock_hz / 1e6
    );
    println!(
        "area:    {:.0} ALMs ({:.1}%), {:.0} DSPs, {:.0} BRAMs, {:.0} regs",
        est.area.alms,
        100.0 * est.area.alms / platform.fpga.alms as f64,
        est.area.dsps,
        est.area.brams,
        est.area.regs
    );
    println!(
        "power:   {:.2} W ({:.3} mJ per run)",
        est.watts(platform),
        est.joules(platform) * 1e3
    );
    let truth = synthesize(&design, &platform.fpga);
    println!(
        "synth:   {:.0} ALMs, {:.0} DSPs, {:.0} BRAMs (place-and-route model)",
        truth.alms, truth.dsps, truth.brams
    );
    println!(
        "class:   {}",
        dhdl_estimate::classify(&design, &est, platform)
    );
}

/// Print the benchmark in the C-like HLS form (Figure 2 of the paper).
fn hls(bench: &dyn Benchmark, _rest: &[String]) {
    match bench.hls_kernel() {
        Some(k) => println!("{}", dhdl_hls::to_c(&k)),
        None => eprintln!("{} has no HLS form", bench.name()),
    }
}

/// `explore`'s one flag, `--num-fpgas <integer>`. Any other argument
/// exits 2 naming it, as in [`params_from`]: carrying on would sweep the
/// defaults instead.
fn explore_flags(rest: &[String]) -> Option<usize> {
    let bad = |arg: &str| -> ! {
        eprintln!("bad argument `{arg}`: expected --num-fpgas <integer>");
        std::process::exit(2);
    };
    let mut num_fpgas = None;
    let mut args = rest.iter();
    while let Some(flag) = args.next() {
        if flag != "--num-fpgas" {
            bad(flag);
        }
        match args.next() {
            Some(v) => num_fpgas = Some(v.parse().unwrap_or_else(|_| bad(&format!("{flag} {v}")))),
            None => bad(flag),
        }
    }
    num_fpgas
}

fn explore(bench: &dyn Benchmark, rest: &[String]) {
    let num_fpgas = explore_flags(rest);
    let mut harness = harness(0xC12);
    // `--num-fpgas` > 1 adds the `num_fpgas` partitioning axis to the
    // swept space.
    if let Some(k) = num_fpgas {
        harness.num_fpgas = k.clamp(1, u32::MAX as usize) as u32;
    }
    if harness.num_fpgas > 1 {
        eprintln!("multi-FPGA axis: up to {} devices", harness.num_fpgas);
    }
    let dse = harness.explore(bench);
    println!(
        "space {} points; {}; {} Pareto-optimal:",
        dse.space_size,
        dse.counts.summary(),
        dse.pareto.len()
    );
    println!("sweep throughput: {}", dse.stats.summary());
    let mut t = Table::new(&["params", "cycles", "ALMs", "DSPs", "BRAMs"]);
    for p in dse.pareto_points().take(15) {
        t.row(&[
            p.params.to_string(),
            format!("{:.0}", p.cycles),
            format!("{:.0}", p.area.alms),
            format!("{:.0}", p.area.dsps),
            format!("{:.0}", p.area.brams),
        ]);
    }
    println!("{}", t.render());
}

fn sim(bench: &dyn Benchmark, rest: &[String]) {
    let p = params_from(bench, rest, &["--profile"]);
    let platform = Platform::maia();
    let design = bench.build(&p).expect("design builds");
    let result = simulate_bench(&platform, bench, &design);
    println!(
        "simulated {} with {p}: {:.0} cycles ({:.4} ms), {} off-chip transfers",
        bench.name(),
        result.cycles,
        result.seconds(&platform) * 1e3,
        result.transfers
    );
    // Validate against the reference.
    let mut worst: f64 = 0.0;
    for (name, expected) in bench.reference() {
        if let Ok(got) = result.output(&name) {
            let scale = expected.iter().map(|v| v.abs()).fold(1e-30, f64::max);
            for (g, e) in got.iter().zip(&expected) {
                worst = worst.max((g - e).abs() / scale);
            }
        }
    }
    println!("worst relative output error vs reference: {worst:.2e}");
    if rest.iter().any(|a| a == "--profile") {
        println!("\nper-controller cycles (heaviest first):");
        for e in result.profile().iter().take(12) {
            println!(
                "{:>14.0} cycles  {:>8} runs  {}",
                e.cycles, e.executions, e.label
            );
        }
    }
}

fn codegen(bench: &dyn Benchmark, rest: &[String]) {
    let p = params_from(bench, rest, &[]);
    let design = bench.build(&p).expect("design builds");
    println!("{}", maxj::generate(&design));
}

/// Simulate and write a VCD waveform of controller activity.
fn trace(bench: &dyn Benchmark, rest: &[String]) {
    let p = params_from(bench, rest, &[]);
    let design = bench.build(&p).expect("design builds");
    let result = simulate_bench(&Platform::maia(), bench, &design);
    let mut r = Report::default();
    let path = r.file(
        &format!("{}.vcd", bench.name()),
        result.trace().to_vcd(&design),
    );
    r.say(format_args!(
        "simulated {:.0} cycles; wrote {} ({} events)",
        result.cycles,
        path.display(),
        result.trace().len()
    ));
    r.emit();
}

/// Attribute estimated runtime and area to controllers and template
/// classes — the "balance compute with memory bandwidth" analysis of §I.
fn bottleneck(bench: &dyn Benchmark, rest: &[String]) {
    use dhdl_estimate::estimate_breakdown;
    use dhdl_synth::elaborate;
    let p = params_from(bench, rest, &[]);
    let platform = Platform::maia();
    let design = bench.build(&p).expect("design builds");
    println!("estimated cycle attribution (heaviest controllers first):");
    for e in estimate_breakdown(&design, &platform).iter().take(10) {
        println!(
            "{:>14.0} cycles  {:>10.0} runs x {:>10.0}  {}",
            e.total, e.executions, e.per_execution, e.label
        );
    }
    let net = elaborate(&design, &platform.fpga);
    println!("\nraw area by template class (LUTs / regs / DSPs / BRAMs):");
    let rows = [
        ("primitives", net.breakdown.primitives),
        ("memories", net.breakdown.memories),
        ("control", net.breakdown.control),
        ("transfers", net.breakdown.transfers),
        ("delays", net.breakdown.delays),
    ];
    for (name, r) in rows {
        println!(
            "  {name:<11} {:>10.0} {:>10.0} {:>6.0} {:>6.0}",
            r.luts(),
            r.regs,
            r.dsps,
            r.brams
        );
    }
}
