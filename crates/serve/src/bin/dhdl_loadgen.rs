//! `dhdl-loadgen`: replay a Zipf-skewed mixed-benchmark request trace
//! against a running `dhdl-serve` and measure tail latency.
//!
//! Several client threads hammer the server with point-estimate
//! requests drawn Zipf-style over a per-benchmark population of legal
//! design points (a few hot points dominate, a long tail keeps missing
//! the cache — the realistic DSE-frontend access pattern), mixed with
//! occasional small sweeps and health probes. Every response is validated; anything that is not a
//! well-formed protocol answer counts as a *protocol violation* and
//! fails the run — this is the assertion the CI smoke job leans on
//! while chaos is armed on the server side.
//!
//! Results (p50/p99 split by cache hit/miss, throughput, retry and
//! rejection counts) are written as JSON to `DHDL_LOADGEN_OUT`
//! (default `results/BENCH_serve.json`).
//!
//! Knobs: first CLI argument or `DHDL_SERVE_ADDR` picks the server;
//! `DHDL_LOADGEN_SECS` (default 10), `DHDL_LOADGEN_CLIENTS` (default
//! 4), `DHDL_LOADGEN_SEED` (default 42), `DHDL_LOADGEN_SHUTDOWN=1`
//! sends a `shutdown` op when done. Every client sends one keyed sweep
//! per `SWEEP_EVERY` (150) requests.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dhdl_core::ParamValues;
use dhdl_dse::LegalSpace;
use dhdl_serve::json::Json;
use dhdl_serve::{Client, ClientError, Op, Request, RetryPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests per client between two keyed sweeps.
const SWEEP_EVERY: u64 = 150;

/// Per-benchmark population of legal points the trace draws from.
struct Population {
    bench: &'static str,
    points: Vec<ParamValues>,
}

fn populations(seed: u64) -> Vec<Population> {
    dhdl_apps::all()
        .into_iter()
        .map(|b| {
            let space = b.param_space();
            let legal = LegalSpace::new(&space);
            Population {
                bench: b.name(),
                points: legal.sample(64, seed ^ 0x9E37),
            }
        })
        .filter(|p| !p.points.is_empty())
        .collect()
}

/// Zipf(s=1) rank sampling over `n` items: rank r has weight 1/(r+1).
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    debug_assert!(n > 0);
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut u = rng.gen_range(0.0f64..total);
    for r in 0..n {
        u -= 1.0 / (r + 1) as f64;
        if u <= 0.0 {
            return r;
        }
    }
    n - 1
}

#[derive(Default)]
struct Tally {
    hit_us: Vec<u64>,
    miss_us: Vec<u64>,
    sweeps: u64,
    sweep_points: u64,
    violations: Vec<String>,
    rejected_final: u64,
    transport_retries: u64,
    rejections: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn client_loop(
    addr: SocketAddr,
    pops: &[Population],
    seed: u64,
    until: Instant,
    requests: &AtomicU64,
) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::new(
        addr,
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
    )
    .with_timeout(Duration::from_secs(10));
    let mut tally = Tally::default();
    let mut n = 0u64;
    while Instant::now() < until {
        n += 1;
        let global = requests.fetch_add(1, Ordering::Relaxed);
        if n % SWEEP_EVERY == 0 {
            // An occasional small sweep: a retry re-runs it, mostly
            // from the server's estimate cache.
            let pop = &pops[zipf(&mut rng, pops.len())];
            let mut req = Request::new(Op::Sweep {
                bench: pop.bench.to_string(),
                points: 40,
                seed: seed ^ n,
                strategy: None,
                num_fpgas: None,
            });
            req.header.tenant = format!("loadgen-{}", seed & 0xF);
            req.header.priority = u8::from(n % 3 == 0);
            match client.request(&req) {
                Ok(resp) => match resp.get("status").and_then(Json::as_str) {
                    Some("ok") => {
                        tally.sweeps += 1;
                        tally.sweep_points += resp
                            .get("points")
                            .and_then(Json::as_arr)
                            .map_or(0, |a| a.len() as u64);
                    }
                    Some("error") => tally
                        .violations
                        .push(format!("sweep answered error: {}", resp.render())),
                    _ => tally
                        .violations
                        .push(format!("sweep answered non-status: {}", resp.render())),
                },
                Err(ClientError::Rejected(_)) => tally.rejected_final += 1,
                Err(e) => tally.violations.push(format!("sweep failed: {e}")),
            }
            continue;
        }
        if global % 501 == 0 {
            // Sprinkle health probes through the trace.
            let _ = client.request(&Request::new(Op::Health));
            continue;
        }
        let pop = &pops[zipf(&mut rng, pops.len())];
        let point = &pop.points[zipf(&mut rng, pop.points.len())];
        let mut req = Request::new(Op::Estimate {
            bench: pop.bench.to_string(),
            params: point.clone(),
        });
        req.header.tenant = format!("loadgen-{}", seed & 0xF);
        let t0 = Instant::now();
        match client.request(&req) {
            Ok(resp) => {
                let us = t0.elapsed().as_micros() as u64;
                match resp.get("status").and_then(Json::as_str) {
                    Some("ok") => {
                        if resp.get("cached").and_then(Json::as_bool) == Some(true) {
                            tally.hit_us.push(us);
                        } else {
                            tally.miss_us.push(us);
                        }
                    }
                    Some("error") => {
                        let code = resp.get("code").and_then(Json::as_str).unwrap_or("?");
                        if code != "deadline_exceeded" {
                            tally
                                .violations
                                .push(format!("estimate answered error `{code}`"));
                        }
                    }
                    _ => tally
                        .violations
                        .push(format!("estimate answered non-status: {}", resp.render())),
                }
            }
            Err(ClientError::Rejected(_)) => tally.rejected_final += 1,
            Err(e) => tally.violations.push(format!("estimate failed: {e}")),
        }
    }
    tally.transport_retries = client.transport_retries;
    tally.rejections = client.rejections;
    tally
}

/// Parse a knob's value; the error is the warning to print, worded as
/// the `dhdl` binary words its own.
fn parse_knob(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("warning: {key}: `{value}` is not a valid number; using the default"))
}

fn env_u64(key: &str, default: u64) -> u64 {
    let Ok(value) = std::env::var(key) else {
        return default;
    };
    parse_knob(key, &value).unwrap_or_else(|warning| {
        eprintln!("{warning}");
        default
    })
}

fn main() {
    dhdl_obs::init_from_env();
    let addr_str = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("DHDL_SERVE_ADDR").ok())
        .unwrap_or_else(|| "127.0.0.1:7436".to_string());
    let addr: SocketAddr = match addr_str.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("dhdl-loadgen: cannot resolve `{addr_str}`");
            std::process::exit(1);
        }
    };
    let secs = env_u64("DHDL_LOADGEN_SECS", 10);
    let clients = env_u64("DHDL_LOADGEN_CLIENTS", 4).max(1);
    let seed = env_u64("DHDL_LOADGEN_SEED", 42);
    let out = std::env::var("DHDL_LOADGEN_OUT")
        .unwrap_or_else(|_| "results/BENCH_serve.json".to_string());

    let pops = Arc::new(populations(seed));
    if pops.is_empty() {
        eprintln!("dhdl-loadgen: no benchmark populations");
        std::process::exit(1);
    }
    println!(
        "dhdl-loadgen: {clients} clients × {secs}s against {addr} ({} benchmarks)",
        pops.len()
    );
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs(secs);
    let requests = Arc::new(AtomicU64::new(0));
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let pops = Arc::clone(&pops);
                let requests = Arc::clone(&requests);
                s.spawn(move || client_loop(addr, &pops, seed + i, until, &requests))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut merged = Tally::default();
    for t in tallies {
        merged.hit_us.extend(t.hit_us);
        merged.miss_us.extend(t.miss_us);
        merged.sweeps += t.sweeps;
        merged.sweep_points += t.sweep_points;
        merged.violations.extend(t.violations);
        merged.rejected_final += t.rejected_final;
        merged.transport_retries += t.transport_retries;
        merged.rejections += t.rejections;
    }
    merged.hit_us.sort_unstable();
    merged.miss_us.sort_unstable();
    let answered = merged.hit_us.len() + merged.miss_us.len();
    let throughput = answered as f64 / wall.max(1e-9);

    let mut report = BTreeMap::new();
    let num = |v: f64| Json::Num(v);
    report.insert("bench".to_string(), Json::Str("serve-loadgen".to_string()));
    report.insert("duration_s".to_string(), num(wall));
    report.insert("clients".to_string(), num(clients as f64));
    report.insert("seed".to_string(), num(seed as f64));
    report.insert("estimates_answered".to_string(), num(answered as f64));
    report.insert("throughput_rps".to_string(), num(throughput));
    report.insert(
        "estimate_hit_count".to_string(),
        num(merged.hit_us.len() as f64),
    );
    report.insert(
        "estimate_hit_p50_us".to_string(),
        num(percentile(&merged.hit_us, 0.50) as f64),
    );
    report.insert(
        "estimate_hit_p99_us".to_string(),
        num(percentile(&merged.hit_us, 0.99) as f64),
    );
    report.insert(
        "estimate_miss_count".to_string(),
        num(merged.miss_us.len() as f64),
    );
    report.insert(
        "estimate_miss_p50_us".to_string(),
        num(percentile(&merged.miss_us, 0.50) as f64),
    );
    report.insert(
        "estimate_miss_p99_us".to_string(),
        num(percentile(&merged.miss_us, 0.99) as f64),
    );
    report.insert("sweeps_completed".to_string(), num(merged.sweeps as f64));
    report.insert(
        "sweep_points_returned".to_string(),
        num(merged.sweep_points as f64),
    );
    report.insert(
        "transport_retries".to_string(),
        num(merged.transport_retries as f64),
    );
    report.insert(
        "rejections_absorbed".to_string(),
        num(merged.rejections as f64),
    );
    report.insert(
        "rejections_final".to_string(),
        num(merged.rejected_final as f64),
    );
    report.insert(
        "protocol_violations".to_string(),
        num(merged.violations.len() as f64),
    );
    let rendered = Json::Obj(report).render();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &rendered) {
        eprintln!("dhdl-loadgen: cannot write {out}: {e}");
    } else {
        println!("dhdl-loadgen: wrote {out}");
    }
    println!(
        "dhdl-loadgen: {answered} answered ({:.0} rps), hits p50/p99 {}/{} µs, \
         misses p50/p99 {}/{} µs, {} sweeps, {} retries, {} rejections",
        throughput,
        percentile(&merged.hit_us, 0.50),
        percentile(&merged.hit_us, 0.99),
        percentile(&merged.miss_us, 0.50),
        percentile(&merged.miss_us, 0.99),
        merged.sweeps,
        merged.transport_retries,
        merged.rejections,
    );

    if env_u64("DHDL_LOADGEN_SHUTDOWN", 0) == 1 {
        let mut client = Client::new(addr, RetryPolicy::default());
        match client.request(&Request::new(Op::Shutdown)) {
            Ok(_) => println!("dhdl-loadgen: sent shutdown"),
            Err(e) => eprintln!("dhdl-loadgen: shutdown failed: {e}"),
        }
    }
    if !merged.violations.is_empty() {
        for v in merged.violations.iter().take(10) {
            eprintln!("dhdl-loadgen: violation: {v}");
        }
        eprintln!(
            "dhdl-loadgen: {} protocol violations",
            merged.violations.len()
        );
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn a_typo_warns_with_the_variable_and_the_value() {
        assert_eq!(parse_knob("DHDL_LOADGEN_SECS", "10"), Ok(10));
        let warning = parse_knob("DHDL_LOADGEN_SECS", "1O").unwrap_err();
        assert_eq!(
            warning,
            "warning: DHDL_LOADGEN_SECS: `1O` is not a valid number; using the default"
        );
    }
}
