"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric is emitted with its unit for its workloads, that
every output check runs, that two runs with one seed give identical Monte
Carlo counts and CLI output, and that the benchmark refuses to run without
the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import FULL, TINY  # noqa: E402

WORKLOADS = ("linalg-queries", "samplers", "nearcrit-mc")

END_TO_END = {
    "linalg-queries": {"float_queries_per_s": "1/s",
                       "exact_queries_per_s": "1/s"},
    "samplers": {"forests_per_s": "1/s", "forests_per_s_t2": "1/s",
                 "matchings_per_s": "1/s"},
    "nearcrit-mc": {"crossing_walkers_per_s": "1/s",
                    "exit_walkers_per_s": "1/s",
                    "brownian_walkers_per_s": "1/s",
                    "branches_per_s": "1/s"},
}
COMMON_END_TO_END = {"setup_s": "s", "wall_s": "s", "error_rate": "fraction",
                     "peak_rss_mb": "MB"}

# layers whose calls the passes time (the rest only import and set up)
PASS_LAYERS = {
    "linalg-queries": {"linalg"},
    "samplers": {"walks", "dimers", "nearcrit", "cli"},
    "nearcrit-mc": {"nearcrit"},
}

CHECKS = {
    "linalg-queries": {"row_sum_float", "row_sum_exact", "probability_range",
                       "exact_det_forest_sum"},
    "samplers": {"thread_invariance", "edge_marginals", "height_variance"},
    "nearcrit-mc": {"crossing_mass_order", "exit_uniform",
                    "exit_tv_brownian", "branch_simple_path"},
}


def per_layer_names(workload, sz):
    """{metric: unit} of the per-layer catalogue for input sizes `sz`."""
    names = {"cli.import_s": "s"}
    if workload == "linalg-queries":
        ns = [side * side for side in sz.float_sides]
        names.update({"graphs.build_s": "s", "linalg.exact_assemble_s": "s",
                      "linalg.exact_query_s": "s", "linalg.exact_det_s": "s",
                      "linalg.det_overflow": "count"})
        for n in ns:
            for m in ("assemble", "logdet", "det", "edge_probability"):
                names[f"linalg.{m}_s.n{n}"] = "s"
            if n in sz.potential_sizes:
                names[f"linalg.potential_s.n{n}"] = "s"
    elif workload == "samplers":
        big = sz.wilson_side ** 2
        names.update({
            "cli.grid_s": "s", "io.load_graph_s": "s", "walks.table_s": "s",
            f"walks.table_s.n{big}": "s", "graphs.build_s": "s",
            "isoradial.grid_s": "s", "graphs.collapse_s": "s",
            "planar.double_graph_s": "s", "isoradial.exponential_s": "s",
            "dimers.reference_matching_s": "s",
            "cli.sample_forest_s.t1": "s", "cli.sample_forest_s.t2": "s",
            "nearcrit.height_field_stats_s": "s",
            f"walks.wilson_us_per_vertex.n{sz.cli_n}": "us",
            f"walks.wilson_us_per_vertex.n{big}": "us",
            "dimers.sample_matching_s": "s", "dimers.height_function_s": "s"})
    else:
        names.update({
            "elliptic.kernel_s": "s", "nearcrit.crossing_cell_s.M0": "s",
            "nearcrit.crossing_cell_s.M1": "s", "nearcrit.exit_walk_s": "s",
            "nearcrit.exit_brownian_s": "s", "nearcrit.branch_s": "s",
            "nearcrit.branch_acceptance": "fraction",
            "nearcrit.crossing_hits": "count",
            "nearcrit.exit_counts": "count"})
    return names


def run(workload, seed, trace, cwd=REPO):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


_cache = {}


def tiny_run(workload, seed, trace, rep=0):
    """(result line, results file) of a tiny run, memoized per test session."""
    key = (workload, seed, trace, rep)
    if key not in _cache:
        out = run(workload, seed, trace)
        assert out.returncode == 0, out.stderr[-3000:]
        line = json.loads(out.stdout.strip().splitlines()[-1])
        path = BENCH / "results" / \
            f"{workload}-tiny-seed{seed}-trace{trace}.json"
        _cache[key] = (line, json.loads(path.read_text()))
    return _cache[key]


def test_full_sizes_name_the_issue_metrics():
    la = per_layer_names("linalg-queries", FULL)
    for name in ("linalg.assemble_s.n400", "linalg.assemble_s.n3600",
                 "linalg.potential_s.n1600",
                 "linalg.edge_probability_s.n1600", "linalg.logdet_s.n3600"):
        assert name in la
    assert "linalg.potential_s.n400" not in la
    sa = per_layer_names("samplers", FULL)
    assert "walks.wilson_us_per_vertex.n221" in sa
    assert "walks.wilson_us_per_vertex.n1600" in sa


def test_result_line_matches_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            line, _ = tiny_run(w, 1, trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, (w, trace)
            assert line["correct"] and line["failed"] == 0
            assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload):
    _, rec = tiny_run(workload, 1, 1)
    e2e = {k: v["unit"] for k, v in rec["end_to_end"].items()}
    assert e2e == {**COMMON_END_TO_END, **END_TO_END[workload]}
    layer = {k: v["unit"] for k, v in rec["per_layer"].items()}
    assert layer == per_layer_names(workload, TINY)
    times = rec["layer_self_times"]
    for layer_name in ("graphs", "isoradial", "elliptic", "planar", "linalg",
                       "walks", "dimers", "io", "cli", "nearcrit"):
        d = times[layer_name]
        assert d["setup_s"] > 0
        assert d["self_s"] == d["setup_s"] + d["pass_s"]
        assert (d["pass_s"] > 0) == (layer_name in PASS_LAYERS[workload])
    assert 0 < times["trace"]["overhead_s"] < 0.01


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_check_runs(workload):
    _, rec = tiny_run(workload, 1, 0)
    assert set(rec["checks"]) == CHECKS[workload]
    for name, d in rec["checks"].items():
        assert d["evaluated"] >= 1, name
        assert d["failed"] == 0, (name, d["detail"])


def test_same_seed_same_counts():
    a = tiny_run("nearcrit-mc", 7, 0, rep=0)[1]["per_layer"]
    b = tiny_run("nearcrit-mc", 7, 0, rep=1)[1]["per_layer"]
    for name in ("nearcrit.crossing_hits", "nearcrit.exit_counts"):
        assert a[name] == b[name]
    a = tiny_run("samplers", 7, 0, rep=0)[1]["csv_sha256_pass0_t1"]
    b = tiny_run("samplers", 7, 0, rep=1)[1]["csv_sha256_pass0_t1"]
    assert a == b


def test_refuses_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run("samplers", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
