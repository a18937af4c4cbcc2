//! Table II: the evaluation benchmarks and dataset sizes.

use dhdl_apps::Benchmark;

use crate::report::{Report, Table};

/// Tabulate `benches`: description, datasets and design parameters.
pub fn table2(benches: &[Box<dyn Benchmark>]) -> Report {
    let mut t = Table::new(&[
        "Benchmark",
        "Description",
        "Paper dataset",
        "Scaled dataset (this run)",
        "Design parameters",
    ]);
    for b in benches {
        let space = b.param_space();
        let params: Vec<String> = space
            .defs()
            .iter()
            .map(|d| format!("{} ({} values)", d.name, d.kind.legal_values().len()))
            .collect();
        t.row(&[
            b.name().to_string(),
            b.description().to_string(),
            b.paper_dataset().to_string(),
            b.dataset_desc(),
            params.join(", "),
        ]);
    }
    let mut r = Report::default();
    r.say("Table II: evaluation benchmarks\n");
    r.say(t.render());
    r.wrote("table2.csv", t.to_csv());
    r
}
