//! `dhdl-fuzz` — the differential-conformance fuzzing entry point.
//!
//! Default mode generates `--designs` design specs, `--patterns`
//! pattern specs and `--dnn` DNN-shaped fragments (conv2d/attention)
//! from `--seed`, runs the full layered oracle on each,
//! greedily shrinks any failure, persists it as a replayable case under
//! `--out` (default `tests/corpus`), and finishes with the benchmark
//! differentials. Stdout is byte-deterministic for a fixed seed: all
//! timing goes to stderr.
//!
//! `--replay DIR` instead re-runs the oracle over every `*.case` file in
//! `DIR` (sorted), which is how CI pins the corpus. `--emit-corpus DIR`
//! writes the standard seed corpus. `--budget-ms T` time-boxes the fuzz
//! loops (for CI smoke jobs; cases are never cut short mid-oracle).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dhdl_conformance::corpus::{load_dir, write_case, CaseKind, CorpusCase};
use dhdl_conformance::{generate, generate_dnn, generate_pattern, Conformance, Violation};

struct Args {
    designs: u64,
    patterns: u64,
    dnn: u64,
    seed: u64,
    budget_ms: Option<u64>,
    replay: Option<PathBuf>,
    emit_corpus: Option<PathBuf>,
    out: PathBuf,
    skip_benches: bool,
}

const USAGE: &str = "usage: dhdl-fuzz [--designs N] [--patterns N] [--dnn N] [--seed S] \
[--budget-ms T] [--replay DIR] [--emit-corpus DIR] [--out DIR] [--skip-benches]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        designs: 200,
        patterns: 50,
        dnn: 25,
        seed: 0,
        budget_ms: None,
        replay: None,
        emit_corpus: None,
        out: PathBuf::from("tests/corpus"),
        skip_benches: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--designs" => args.designs = parse_num(&value("--designs")?)?,
            "--patterns" => args.patterns = parse_num(&value("--patterns")?)?,
            "--dnn" => args.dnn = parse_num(&value("--dnn")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--budget-ms" => args.budget_ms = Some(parse_num(&value("--budget-ms")?)?),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--emit-corpus" => args.emit_corpus = Some(PathBuf::from(value("--emit-corpus")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--skip-benches" => args.skip_benches = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unrecognized flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("invalid number `{s}`"))
}

fn print_violations(kind: &str, line: &str, violations: &[Violation]) {
    for v in violations {
        println!("FAIL {kind} {line}");
        println!("  {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    dhdl_obs::init_from_env();
    let start = Instant::now();
    eprintln!("dhdl-fuzz: calibrating estimator...");
    let conf = Conformance::new();
    eprintln!("dhdl-fuzz: ready in {:.1}s", start.elapsed().as_secs_f64());

    if let Some(dir) = &args.replay {
        let code = replay(&conf, dir);
        dhdl_obs::finish("dhdl-fuzz");
        return code;
    }
    if let Some(dir) = &args.emit_corpus {
        return emit_corpus(&conf, dir, args.seed);
    }

    let budget = args.budget_ms.map(std::time::Duration::from_millis);
    let out_of_time = |done: u64, what: &str| -> bool {
        let over = budget.is_some_and(|b| start.elapsed() > b);
        if over {
            println!("budget exhausted after {done} {what}");
        }
        over
    };

    // One campaign per kind of spec: how many, the kind's name in the
    // `FAIL`, `N checked` and `budget exhausted` lines, and its generator.
    type Generate = fn(u64, u64) -> CaseKind;
    let kinds: [(u64, [&str; 3], Generate); 3] = [
        (
            args.designs,
            ["design", "designs", "designs"],
            |seed, id| CaseKind::Design(generate(seed, id)),
        ),
        (
            args.patterns,
            ["pattern", "patterns", "patterns"],
            |seed, id| CaseKind::Pattern(generate_pattern(seed, id)),
        ),
        (args.dnn, ["dnn", "dnn", "dnn fragments"], |seed, id| {
            CaseKind::Dnn(generate_dnn(seed, id))
        }),
    ];
    let mut total_violations = 0usize;
    let mut designs_checked = 0;
    for (count, [label, counted, budgeted], generate) in kinds {
        let mut run = 0u64;
        for case_id in 0..count {
            if out_of_time(case_id, budgeted) {
                break;
            }
            let spec = generate(args.seed, case_id);
            let violations = spec.check(&conf);
            if !violations.is_empty() {
                total_violations += violations.len();
                let invariant = violations[0].invariant;
                let case = CorpusCase {
                    invariant: invariant.to_string(),
                    kind: spec.shrink(&conf, invariant),
                };
                print_violations(label, &spec.to_line(), &violations);
                persist(&args.out, &case);
            }
            run += 1;
            if run % 50 == 0 {
                eprintln!(
                    "dhdl-fuzz: {run} {budgeted} in {:.1}s",
                    start.elapsed().as_secs_f64()
                );
            }
        }
        println!("{counted}: {run} checked");
        if label == "design" {
            designs_checked = run;
        }
    }

    let mut benches_run = 0u64;
    if !args.skip_benches && !out_of_time(0, "benchmarks") {
        for bench in dhdl_conformance::apps::default_benchmarks() {
            let violations = conf.check_benchmark(bench.as_ref());
            total_violations += violations.len();
            print_violations("bench", bench.name(), &violations);
            benches_run += 1;
        }
    }
    println!("benchmarks: {benches_run} checked");
    // Non-vacuity of the `latency-plan` oracle: a campaign in which no
    // planned design had competing transfers compared nothing that the
    // plan decides.
    let (planned, contended) = conf.latency_plan_coverage();
    println!("latency-plan: {planned} planned, {contended} with competing transfers");
    if planned > 0 && contended == 0 {
        println!("FAIL latency-plan: no planned design had competing transfers");
        total_violations += 1;
    }
    // `backend-differential`: a campaign in which the tape compiled no
    // design compared the interpreter with nothing.
    let (compiled, fell_back) = conf.backend_coverage();
    println!("backend-differential: {compiled} compiled, {fell_back} fell back");
    if compiled == 0 && fell_back > 0 {
        println!("FAIL backend-differential: the tape compiled no design");
        total_violations += 1;
    }
    // What the tape ran them as: with no blocked kernel the comparison
    // never reached the lane-major fast path.
    let (blocked, serial) = conf.kernel_coverage();
    println!("tape kernels: {blocked} blocked, {serial} serial");
    // `partition-sim` on generated designs: with no forced cut spanning
    // two devices it compared single-device plans only.
    let (cut, channels) = conf.cut_coverage();
    println!("partition-sim: {cut} cut, {channels} channels");
    if designs_checked > 0 && cut == 0 {
        println!("FAIL partition-sim: no forced cut spanned two devices");
        total_violations += 1;
    }
    // Likewise `finish-analyses`: every verdict the three rules can
    // reach must have been compared at least once.
    let finish = conf.finish_coverage();
    println!("finish-analyses: {finish}");
    if finish.designs > 0 && !finish.is_complete() {
        println!("FAIL finish-analyses: a verdict was never compared");
        total_violations += 1;
    }
    println!("violations: {total_violations}");
    eprintln!("dhdl-fuzz: done in {:.1}s", start.elapsed().as_secs_f64());
    dhdl_obs::finish("dhdl-fuzz");
    if total_violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn persist(dir: &Path, case: &CorpusCase) {
    match write_case(dir, case) {
        Ok(path) => println!("  shrunk case written to {}", path.display()),
        Err(e) => eprintln!("dhdl-fuzz: failed to persist case: {e}"),
    }
}

fn replay(conf: &Conformance, dir: &Path) -> ExitCode {
    let cases = match load_dir(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dhdl-fuzz: replay failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut total = 0usize;
    for (path, case) in &cases {
        let violations = case.kind.check(conf);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if violations.is_empty() {
            println!("replay {name}: ok");
        } else {
            total += violations.len();
            println!("replay {name}: {} violations", violations.len());
            for v in &violations {
                println!("  {v}");
            }
        }
    }
    println!("replayed: {} cases, {total} violations", cases.len());
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Seed the corpus with representative *passing* cases: they pin the
/// zero-violation baseline, the corpus file format, and the replay
/// plumbing from day one (shrunk failures join them if a bug appears).
fn emit_corpus(conf: &Conformance, dir: &Path, seed: u64) -> ExitCode {
    let mut cases = Vec::new();
    for case_id in 0..6 {
        cases.push(CorpusCase {
            invariant: "none".to_string(),
            kind: CaseKind::Design(generate(seed, case_id)),
        });
    }
    for case_id in 0..4 {
        cases.push(CorpusCase {
            invariant: "none".to_string(),
            kind: CaseKind::Pattern(generate_pattern(seed, case_id)),
        });
    }
    // At least one conv and one attention seed case: `generate_dnn`
    // alternates kinds pseudo-randomly, so take the first of each.
    let mut kinds_seen = std::collections::BTreeSet::new();
    for case_id in 0..16 {
        let spec = generate_dnn(seed, case_id);
        if kinds_seen.insert(format!("{:?}", spec.kind)) {
            cases.push(CorpusCase {
                invariant: "none".to_string(),
                kind: CaseKind::Dnn(spec),
            });
        }
        if kinds_seen.len() == 2 {
            break;
        }
    }
    for case in &cases {
        let violations = case.kind.check(conf);
        if !violations.is_empty() {
            eprintln!(
                "dhdl-fuzz: refusing to emit a failing seed case ({} violations)",
                violations.len()
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
        match write_case(dir, case) {
            Ok(path) => println!("emitted {}", path.display()),
            Err(e) => {
                eprintln!("dhdl-fuzz: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("emitted: {} cases", cases.len());
    ExitCode::SUCCESS
}
