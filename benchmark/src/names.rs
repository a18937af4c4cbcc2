//! Every name the harness emits: workloads, end-to-end metrics and
//! per-layer metrics, with unit and direction. `BENCHMARK.json` declares
//! the same set; `tests::schema_matches_benchmark_json` holds the two
//! together.

/// The nine applications every workload draws from: the seven Table II
/// benchmarks plus conv2d and attention.
pub const BENCHES: [&str; 9] = [
    "dotproduct",
    "outerprod",
    "gemm",
    "tpchq6",
    "blackscholes",
    "gda",
    "kmeans",
    "conv2d",
    "attention",
];

pub const WORKLOADS: [&str; 6] = [
    "sweep_cold",
    "sweep_warm",
    "sim_steady",
    "fuzz",
    "serve_hot",
    "serve_cold",
];

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// The end-to-end metrics; every workload reports all of them.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("ops_per_s", "1/s", "higher"),
        def("cpu_us_per_op", "us", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("setup_s", "s", "lower"),
    ]
}

/// The per-layer metrics, grouped by the workload whose traced run
/// measures them; a workload that does not call a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        // Every workload.
        def("estimate.calibrate_ms", "ms", "lower"),
        def("trace_overhead_pct", "%", "lower"),
        def("machine.yardstick_us", "us", "lower"),
        // sweep_cold and the fill pass of sweep_warm.
        def("apps.build_ns", "ns", "lower"),
        def("synth.elaborate_ns", "ns", "lower"),
        def("estimate.latency_ns", "ns", "lower"),
        def("estimate.area_ns", "ns", "lower"),
        def("dse.sample_ns", "ns", "lower"),
        def("dse.pareto_us", "us", "lower"),
        def("core.design_nodes", "count", "lower"),
        def("dse.points.discarded", "count", "lower"),
        // sweep_cold only.
        def("dse.runner.unattributed_ns", "ns", "lower"),
        def("dse.runner.parallel_eff", "ratio", "higher"),
        // sweep_warm only.
        def("core.hash_ns", "ns", "lower"),
        def("dse.cache.insert_ns", "ns", "lower"),
        def("dse.params_key_ns", "ns", "lower"),
        def("dse.cache.l1_get_ns", "ns", "lower"),
        def("dse.cache.hit_rate", "ratio", "higher"),
        def("dse.fill_points_per_s", "1/s", "higher"),
        def("dse.warm_points_per_s", "1/s", "higher"),
        // sim_steady.
        def("sim.tape_runs_per_s", "1/s", "higher"),
        def("sim.interp_runs_per_s", "1/s", "higher"),
        def("sim.compile_ms", "ms", "lower"),
        def("sim.tape.instrs", "count", "lower"),
        def("sim.cycles_total", "cycles", "lower"),
        def("estimate.cycles_err_pct", "%", "lower"),
        def("estimate.alm_err_pct", "%", "lower"),
        // fuzz.
        def("conformance.check_us", "us", "lower"),
        def("conformance.build_us", "us", "lower"),
        def("conformance.unattributed_us", "us", "lower"),
        def("synth.skeleton_us", "us", "lower"),
        def("synth.pnr_us", "us", "lower"),
        def("synth.partition_us", "us", "lower"),
        def("core.serialize_us", "us", "lower"),
        def("sim.oneshot.compile_us", "us", "lower"),
        def("sim.oneshot.tape_run_us", "us", "lower"),
        def("sim.oneshot.interp_run_us", "us", "lower"),
        def("sim.oneshot.unsupported", "count", "lower"),
        // serve_hot and serve_cold.
        def("serve.client.p50_us", "us", "lower"),
        def("serve.client.p99_us", "us", "lower"),
        def("serve.transport_us", "us", "lower"),
        def("serve.work_us", "us", "lower"),
        def("serve.protocol.render_ns", "ns", "lower"),
        def("serve.json.parse_ns", "ns", "lower"),
        def("serve.protocol.parse_ns", "ns", "lower"),
        def("serve.admission.admit_ns", "ns", "lower"),
        def("serve.json.render_ns", "ns", "lower"),
        def("serve.frame.rw_ns", "ns", "lower"),
        def("serve.req_bytes", "bytes", "lower"),
        def("serve.resp_bytes", "bytes", "lower"),
        def("serve.cache.hit_ratio", "ratio", "higher"),
        def("serve.pinned", "count", "higher"),
    ];
    for bench in BENCHES {
        v.push(def(&format!("dse.points_per_s.{bench}"), "1/s", "higher"));
        v.push(def(&format!("sim.tape_run_ms.{bench}"), "ms", "lower"));
        v.push(def(&format!("sim.interp_run_ms.{bench}"), "ms", "lower"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_serve::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read(path).expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);

        for (key, emitted) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let emitted: BTreeSet<_> = emitted
                .into_iter()
                .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
                .collect();
            let declared: BTreeSet<_> = declared(&doc, key).into_iter().collect();
            assert_eq!(
                emitted, declared,
                "`{key}` differs from what the harness emits"
            );
        }
    }

    #[test]
    fn names_are_unique_and_match_the_pattern() {
        let all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .chain(WORKLOADS.map(String::from))
            .collect();
        for n in &all {
            assert!(name_ok(n), "bad name `{n}`");
        }
        let unique: BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(per_layer().len() <= 128);
    }
}
