#!/usr/bin/env python3
"""Fail when a results table in EXPERIMENTS.md disagrees with the files
`dhdl` wrote.

A checked table is the markdown table right after a marker line

    <!-- results: fig6 -->

where ``fig6`` names one of the BLOCKS below. Each block reads one file
of the results directory and gives the table's header and rows: CSV
columns are copied cell for cell, JSON values keep the text the file
holds. The doc table must have exactly that header and those rows, in
order; a cell may be wrapped in backticks. Every block must appear once.

Only deterministic results are checked: wall-clock values (Table IV,
Fig. 6's measured host-CPU times) have no block.

Usage: scripts/check_results.py RESULTS_DIR [EXPERIMENTS.md]

RESULTS_DIR is what ``DHDL_RESULTS_DIR=RESULTS_DIR dhdl <experiment>``
wrote for table2, table3, fig5, fig6, energy, ablations, dnnbench and
partbench. Exits non-zero naming file, block, row and column of every
disagreement. No dependencies beyond the standard library.
"""

import csv
import json
import re
import sys
from pathlib import Path

MARKER = re.compile(r"^<!--\s*results:\s*(\S+)\s*-->\s*$")


def columns(name, *picked):
    """A block of the CSV `name`: the `picked` columns, or all of them."""

    def block(results):
        with open(results / name, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        header = rows[0]
        keep = [header.index(c) for c in picked] if picked else range(len(header))
        return [[row[i] for i in keep] for row in rows]

    block.source = name
    return block


def load_json(path):
    # Numbers keep the text the writer chose.
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_float=str, parse_int=str)


def dnn_designs(results):
    header = ["name", "space_size", "best_params", "sim_cycles", "fpga_ms",
              "cpu_model_ms", "speedup", "bottleneck"]
    benches = load_json(results / "BENCH_dnn.json")["benchmarks"]
    rows = [[b["name"], b["space_size"], b["strategies"][0]["best_params"],
             b["sim_cycles"], b["fpga_ms"], b["cpu_model_ms"], b["speedup"],
             b["bottleneck"]] for b in benches]
    return [header] + rows


def dnn_errors(results):
    kinds = ["alm", "dsp", "bram", "runtime"]
    doc = load_json(results / "BENCH_dnn.json")
    rows = [[b["name"]] + [b["model_errors"][k] for k in kinds] for b in doc["benchmarks"]]
    mean = ["mean"] + [doc["mean_model_errors"][k] for k in kinds]
    return [["name"] + kinds] + rows + [mean]


def part_runs(results):
    header = ["name", "dataset", "k", "valid", "infeasible", "front_size",
              "rescued on front", "rescued_total", "best cycles"]
    rows = [
        [s["name"], s["dataset"], r["k"], r["valid"], r["infeasible"],
         r["front_size"], str(len(r["rescued"])), r["rescued_total"],
         r["best"]["cycles"]]
        for s in load_json(results / "BENCH_part.json")["scenarios"]
        for r in s["runs"]
    ]
    return [header] + rows


dnn_designs.source = dnn_errors.source = "BENCH_dnn.json"
part_runs.source = "BENCH_part.json"

BLOCKS = {
    "table2": columns("table2.csv", "Benchmark", "Description", "Paper dataset",
                      "Scaled dataset (this run)"),
    "table3": columns("table3.csv"),
    "fig5": columns("fig5_summary.csv", "Benchmark", "space size", "valid", "pareto",
                    "binding resource on front", "best-design class",
                    "paper's finding"),
    "fig6": columns("fig6.csv", "benchmark", "speedup", "paper_speedup"),
    "dnn-designs": dnn_designs,
    "dnn-errors": dnn_errors,
    "partbench": part_runs,
    "ablation-metapipe": columns("ablation_metapipe.csv"),
    "ablation-hybrid": columns("ablation_hybrid.csv"),
    "ablation-pruning": columns("ablation_pruning.csv"),
    "energy": columns("energy.csv", "benchmark", "fpga_w", "cpu_w", "energy_ratio"),
}


def cells(line):
    return [c.strip().strip("`") for c in line.strip().strip("|").split("|")]


def doc_tables(doc):
    """(block name, line number of the marker, [(line number, cells)])
    for every marker in `doc`; the separator row is dropped."""
    lines = doc.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        m = MARKER.match(line)
        if not m:
            continue
        table = []
        for n, row in enumerate(lines[i + 1:], i + 2):
            if not row.startswith("|"):
                break
            if not re.fullmatch(r"\|[\s:|-]*", row.strip()):
                table.append((n, cells(row)))
        yield m.group(1), i + 1, table


def compare(doc, name, marker_line, table, want):
    source = BLOCKS[name].source
    where = f'{doc}:{{}}: block "{name}" ({source})'
    if not table:
        return [where.format(marker_line) + ": no table after the marker"]
    problems = []
    (_, header), rows = table[0], table[1:]
    if header != want[0]:
        problems.append(where.format(table[0][0]) + f": header {header}, results have {want[0]}")
        return problems
    for k in range(max(len(rows), len(want) - 1)):
        if k >= len(rows):
            problems.append(where.format(table[-1][0]) + f': row "{want[k + 1][0]}" missing')
            continue
        n, got = rows[k]
        if k + 1 >= len(want):
            problems.append(where.format(n) + f': row "{got[0]}" is not in the results')
            continue
        expect = want[k + 1]
        if len(got) != len(expect):
            problems.append(where.format(n) + f': row "{expect[0]}" has {len(got)} cells, not {len(expect)}')
            continue
        for col, g, e in zip(header, got, expect):
            if g != e:
                problems.append(
                    where.format(n) + f': row "{expect[0]}", column "{col}": '
                    f'doc has "{g}", results have "{e}"'
                )
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = Path(argv[1])
    doc = Path(argv[2]) if len(argv) == 3 else Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    problems = []
    seen = {}
    for name, marker_line, table in doc_tables(doc):
        if name not in BLOCKS:
            problems.append(f'{doc}:{marker_line}: unknown block "{name}"')
            continue
        if name in seen:
            problems.append(f'{doc}:{marker_line}: block "{name}" again (first at line {seen[name]})')
            continue
        seen[name] = marker_line
        try:
            want = BLOCKS[name](results)
        except (OSError, KeyError, ValueError, IndexError) as e:
            problems.append(f'{doc}:{marker_line}: block "{name}": cannot read {results / BLOCKS[name].source}: {e!r}')
            continue
        problems += compare(doc, name, marker_line, table, want)
    problems += [f'{doc}: block "{name}" is missing' for name in BLOCKS if name not in seen]
    if problems:
        print(f"{len(problems)} result(s) disagree:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"results ok: {len(seen)} blocks of {doc.name} match {results}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
