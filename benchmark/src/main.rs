//! The repository's benchmark: six workloads, end-to-end and per-layer
//! metrics, measured from outside the crates through their public
//! functions. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   and prints one JSON object as the last line of standard output (the
//!   contract `BENCHMARK.json` is written to);
//! * without `--workload`, every workload runs in a child process of its
//!   own (so peak memory and the per-thread skeleton caches are per
//!   workload), untraced and then traced, and the results are printed as
//!   a table and written to `out/result.json`. `--runs N` repeats each
//!   with seeds `seed..seed+N` and prints the spread; `--repeat` does the
//!   whole set twice and compares the medians.

mod common;
mod fuzz;
mod names;
mod rng;
mod serve;
mod sim;
mod stats;
mod sweep;
mod sys;
mod trace;
mod yard;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use dhdl_serve::Json;

use common::Ctx;
use names::WORKLOADS;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--runs N] [--repeat] [--out DIR]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both kinds of run (all-workloads mode only).
    trace: Option<bool>,
    runs: u64,
    repeat: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: None,
        runs: 1,
        repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--repeat" => args.repeat = true,
            // `--trace` alone means a traced run; the contract passes 0 or 1.
            "--trace" => {
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The crates read `DHDL_*` knobs from the environment; none may leak
    // into a measurement.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("DHDL_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let ok = match &args.workload {
        Some(w) => run_one(&Ctx {
            workload: w.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace.unwrap_or(false),
            out_dir: args.out_dir.clone(),
            nproc: sys::nproc(),
        }),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload and print its result line. `false` when an operation
/// or a check failed.
fn run_one(ctx: &Ctx) -> bool {
    let (report, defs) = if ctx.trace {
        let (mut report, tracer) = match ctx.workload.as_str() {
            "sweep_cold" => sweep::trace_cold(ctx),
            "sweep_warm" => sweep::trace_warm(ctx),
            "sim_steady" => sim::trace(ctx),
            "fuzz" => fuzz::trace(ctx),
            "serve_hot" => serve::trace(ctx, true),
            "serve_cold" => serve::trace(ctx, false),
            other => unreachable!("workload `{other}` passed argument checking"),
        };
        let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
        if let Err(e) = std::fs::write(&path, tracer.render(&ctx.workload)) {
            report.fail(format!("cannot write {}: {e}", path.display()));
        }
        (report, names::per_layer())
    } else {
        let mut report = match ctx.workload.as_str() {
            "sweep_cold" => sweep::run_cold(ctx),
            "sweep_warm" => sweep::run_warm(ctx),
            "sim_steady" => sim::run(ctx),
            "fuzz" => fuzz::run(ctx),
            "serve_hot" => serve::run_hot(ctx),
            "serve_cold" => serve::run_cold(ctx),
            other => unreachable!("workload `{other}` passed argument checking"),
        };
        // In-process workloads are their own system under test; the
        // serve workloads have already recorded the server's peak.
        if !report.metrics.contains_key("peak_rss_mb") {
            report.set("peak_rss_mb", sys::peak_rss_mb(None).unwrap_or(0.0));
        }
        (report, names::end_to_end())
    };
    for name in report.metrics.keys() {
        assert!(
            defs.iter().any(|d| &d.name == name),
            "`{name}` is not a declared metric"
        );
    }

    eprintln!(
        "== {} (seed {}, {} s, {}, {} cores) ==",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        if ctx.trace { "traced" } else { "untraced" },
        ctx.nproc,
    );
    let mut metrics = BTreeMap::new();
    for d in &defs {
        // A traced run reports 0 for a layer its workload never calls;
        // an untraced run must have measured every end-to-end metric.
        let value = match report.metrics.get(&d.name) {
            Some(v) => *v,
            None if ctx.trace => 0.0,
            None => panic!("{} did not report `{}`", ctx.workload, d.name),
        };
        if report.metrics.contains_key(&d.name) {
            eprintln!("{:<32} {:>16.4} {}", d.name, value, d.unit);
        }
        metrics.insert(
            d.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(d.unit.to_string())),
            ]),
        );
    }
    for note in &report.notes {
        eprintln!("  {note}");
    }
    eprintln!(
        "attempted {} operations, {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    report.failed == 0
}

/// One child run's result line, parsed.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let quiet = args.runs > 1 || args.repeat;
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(if quiet {
            Stdio::null()
        } else {
            Stdio::inherit()
        })
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let json = Json::parse(line.as_bytes())
        .map_err(|e| format!("{workload} (seed {seed}) printed no result line: {e}"))?;
    let n = |k: &str| json.get(k).and_then(Json::as_u64).unwrap_or(0);
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no `metrics`")?
        .iter()
        .filter_map(|(k, v)| match v.get("value") {
            Some(Json::Num(x)) => Some((k.clone(), *x)),
            _ => None,
        })
        .collect();
    if !out.status.success() {
        eprintln!(
            "{workload} (seed {seed}, trace {}) exited with {}",
            u8::from(trace),
            out.status
        );
    }
    Ok(ChildResult {
        attempted: n("attempted"),
        failed: n("failed") + u64::from(!out.status.success() && n("failed") == 0),
        metrics,
    })
}

/// Every run of one workload and kind in one set: values per metric, in
/// run order.
#[derive(Default)]
struct Series {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, Vec<f64>>,
}

/// `(workload, traced)` → series.
type Set = BTreeMap<(String, bool), Series>;

fn run_set(args: &Args, kinds: &[bool]) -> Set {
    let mut set = Set::new();
    for &trace in kinds {
        for w in WORKLOADS {
            let series = set.entry((w.to_string(), trace)).or_default();
            for run in 0..args.runs {
                match run_child(args, w, args.seed + run, trace) {
                    Ok(r) => {
                        series.attempted += r.attempted;
                        series.failed += r.failed;
                        for (k, v) in r.metrics {
                            series.values.entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        series.failed += 1;
                    }
                }
            }
        }
    }
    set
}

/// The `bound` of each end-to-end metric, from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> BTreeMap<String, f64> {
    let doc = std::fs::read("BENCHMARK.json")
        .ok()
        .and_then(|b| Json::parse(&b).ok());
    let Some(list) = doc
        .as_ref()
        .and_then(|d| d.get("end_to_end"))
        .and_then(Json::as_arr)
    else {
        eprintln!("warning: no BENCHMARK.json in the working directory; assuming a bound of 0.10");
        return BTreeMap::new();
    };
    list.iter()
        .filter_map(|m| match (m.get("name")?.as_str()?, m.get("bound")?) {
            (name, Json::Num(b)) => Some((name.to_string(), *b)),
            _ => None,
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// `out/result.json`: the medians of the first set, with the machine
/// they were measured on.
fn result_json(args: &Args, set: &Set) -> Json {
    let mut workloads = BTreeMap::new();
    for w in WORKLOADS {
        let mut entry = BTreeMap::new();
        for (trace, key, defs) in [
            (false, "end_to_end", names::end_to_end()),
            (true, "per_layer", names::per_layer()),
        ] {
            let Some(series) = set.get(&(w.to_string(), trace)) else {
                continue;
            };
            let metrics = defs
                .iter()
                .filter_map(|d| {
                    let v = series.values.get(&d.name)?;
                    let m = Json::obj([
                        ("value", Json::Num(stats::median(v))),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]);
                    Some((d.name.clone(), m))
                })
                .collect();
            entry.insert(key.to_string(), Json::Obj(metrics));
            let counts = if trace {
                "traced_operations"
            } else {
                "operations"
            };
            entry.insert(
                counts.to_string(),
                Json::obj([
                    ("attempted", Json::Num(series.attempted as f64)),
                    ("failed", Json::Num(series.failed as f64)),
                ]),
            );
        }
        workloads.insert(w.to_string(), Json::Obj(entry));
    }
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("runs", Json::Num(args.runs as f64)),
        (
            "fingerprint",
            Json::obj([
                ("nproc", Json::Num(sys::nproc() as f64)),
                ("rustc", Json::Str(command_line("rustc", &["-V"]))),
                (
                    "commit",
                    Json::Str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("profile", Json::Str("release".to_string())),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn print_set(args: &Args, set: &Set, bounds: &BTreeMap<String, f64>) {
    let kinds = [
        (false, "end to end", names::end_to_end()),
        (true, "per layer, traced", names::per_layer()),
    ];
    for (w, (trace, kind, defs)) in WORKLOADS
        .iter()
        .flat_map(|w| kinds.iter().map(move |k| (w, k)))
    {
        let Some(series) = set.get(&(w.to_string(), *trace)) else {
            continue;
        };
        println!(
            "\n{w} ({kind}; {} operations, {} failed, failed_frac {})",
            series.attempted,
            series.failed,
            series.failed as f64 / series.attempted.max(1) as f64
        );
        for d in defs {
            let Some(v) = series.values.get(&d.name) else {
                continue;
            };
            // A traced run prints 0 for layers the workload bypasses;
            // the table leaves those rows out.
            if *trace && v.iter().all(|x| *x == 0.0) {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(v);
            if args.runs == 1 {
                println!("  {:<32} {:>16.4} {}", d.name, q2, d.unit);
            } else if *trace {
                println!(
                    "  {:<32} {:>16.4} {:<6} (q1 {q1:.4}, q3 {q3:.4})",
                    d.name, q2, d.unit
                );
            } else {
                let bound = bounds.get(&d.name).copied().unwrap_or(0.10);
                let spread = stats::spread(v);
                println!(
                    "  {:<32} {:>16.4} {:<6} (q1 {q1:.4}, q3 {q3:.4}) spread {:.2}% of a {:.0}% bound: {}",
                    d.name,
                    q2,
                    d.unit,
                    spread * 100.0,
                    bound * 100.0,
                    if spread <= bound / 3.0 { "steady" } else { "NOISY" },
                );
            }
        }
    }
}

/// Compare the end-to-end medians of two sets of the same code. A row is
/// `within` when the second median is no worse than the first by more
/// than the bound and neither set's own spread exceeds it; anything else
/// cannot be told from noise and is `unresolved`.
fn compare(first: &Set, second: &Set, bounds: &BTreeMap<String, f64>) -> bool {
    println!(
        "\n{:<12} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    let mut all_within = true;
    for w in WORKLOADS {
        let key = (w.to_string(), false);
        let (Some(a), Some(b)) = (first.get(&key), second.get(&key)) else {
            continue;
        };
        for d in names::end_to_end() {
            let empty = Vec::new();
            let (va, vb) = (
                a.values.get(&d.name).unwrap_or(&empty),
                b.values.get(&d.name).unwrap_or(&empty),
            );
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let bound = bounds.get(&d.name).copied().unwrap_or(0.10);
            let worse = if d.better == "higher" {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let within = ma > 0.0
                && worse <= bound
                && stats::spread(va) <= bound
                && stats::spread(vb) <= bound;
            all_within &= within;
            println!(
                "{w:<12} {:<16} {ma:>14.4} {mb:>14.4} {:>8.4} {:>5.0}%  {}",
                d.name,
                mb / ma,
                bound * 100.0,
                if within { "within" } else { "unresolved" }
            );
        }
    }
    all_within
}

fn run_all(args: &Args) -> bool {
    // `--repeat` compares end-to-end medians, so it runs untraced only.
    let kinds: Vec<bool> = match args.trace {
        _ if args.repeat => vec![false],
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let bounds = bounds();
    let first = run_set(args, &kinds);
    print_set(args, &first, &bounds);
    let path = args.out_dir.join("result.json");
    match std::fs::write(&path, result_json(args, &first).render()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    let mut ok = first.values().all(|s| s.failed == 0);
    if args.repeat {
        let second = run_set(args, &kinds);
        ok &= second.values().all(|s| s.failed == 0);
        ok &= compare(&first, &second, &bounds);
    }
    ok
}
