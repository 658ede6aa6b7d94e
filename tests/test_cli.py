import dataclasses
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from massiveforests.cli import _load_lambda_or_die, main
from massiveforests.io import (
    GraphFormatError,
    load_graph,
    save_graph,
    save_periodic_graph,
)
from massiveforests.graphs import symmetric_graph

from test_graphs import typed


def write_two_vertex(path):
    # Z-line window {0, 1} wired: c = 1, m = 3/2; exact rationals
    g = symmetric_graph(2, [(0, 1, Fraction(1))],
                        [Fraction(3, 2), Fraction(3, 2)],
                        positions=[(0.0, 0.0), (1.0, 0.0)])
    save_graph(path, g)
    return g


class TestIO:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "g.json"
        g = write_two_vertex(str(p))
        g2 = load_graph(str(p))
        assert g2.n == 2
        assert typed(g2.masses) == typed([Fraction(3, 2), Fraction(3, 2)])
        assert g2.edge_conductance(0, 1) == 1

    def test_reverse_closure(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "vertices": [{"id": 0, "mass": 1}, {"id": 1, "mass": 1}],
            "edges": [{"from": 0, "to": 1, "conductance": 2.0}],
        }))
        g = load_graph(str(p))
        assert g.edge_conductance(1, 0) == 2.0

    def test_malformed_line_anchored(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [\n  {"id": 0}\n  BAD\n]}')
        with pytest.raises(GraphFormatError) as err:
            load_graph(str(p))
        assert err.value.line is not None

    def test_periodic_round_trip(self, tmp_path):
        from massiveforests.periodic import square_lattice

        p = tmp_path / "per.json"
        save_periodic_graph(str(p), square_lattice(0.5))
        pg = load_graph(str(p))
        from massiveforests.periodic import PeriodicGraph

        assert isinstance(pg, PeriodicGraph)
        assert pg.masses == [0.5]

    def test_parallel_one_way_edges_get_one_reverse_each(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "vertices": [{"id": 0, "mass": 1}, {"id": 1, "mass": 1}],
            "edges": [{"from": 0, "to": 1, "conductance": c}
                      for c in (1.0, 2.0)]}))
        g = load_graph(str(p))
        assert list(zip(g.tail.tolist(), g.head.tolist(), g.cond)) == [
            (0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0), (1, 0, 2.0)]
        assert g.edge_conductance(1, 0) == g.edge_conductance(0, 1) == 3.0

    @staticmethod
    def charpoly_csv(tmp_path, name, path):
        out = tmp_path / f"{name}.csv"
        assert main(["charpoly", "--periodic-graph", str(path),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("seed", [None, 3, 7])
    def test_periodic_save_load_keeps_columns(self, tmp_path, monkeypatch,
                                              seed):
        # the honeycomb, then seeded random domains of test_periodic
        import massiveforests.cli as cli
        from massiveforests.periodic import honeycomb
        from test_periodic import random_periodic_graph

        pg = honeycomb(0.5) if seed is None else random_periodic_graph(seed)
        p = tmp_path / "per.json"
        save_periodic_graph(str(p), pg)
        loaded = load_graph(str(p))
        for name in ("tail", "head", "off", "cond"):
            assert getattr(loaded, name).tolist() == \
                getattr(pg, name).tolist()
        assert typed(loaded.masses) == typed(pg.masses)
        assert loaded.masses.dtype == pg.masses.dtype == np.float64
        from_file = self.charpoly_csv(tmp_path, "file", p)
        monkeypatch.setattr(cli, "_load_graph_or_die",
                            lambda path, periodic: pg)
        assert self.charpoly_csv(tmp_path, "direct", p) == from_file

    @pytest.mark.parametrize("lattice", ["square", "honeycomb"])
    def test_periodic_file_without_reverses(self, tmp_path, lattice):
        # the full file lists the reverses after the edges, where the
        # loader appends them to the file without reverses, so both load
        # to the same columns and the same Bloch sums
        if lattice == "square":
            edges = [{"from": 0, "to": 0, "offset": o, "conductance": 1.0}
                     for o in ([1, 0], [0, 1], [-1, 0], [0, -1])]
            data = {"vertices": [{"id": 0, "mass": 1.0}], "edges": edges}
        else:
            from massiveforests.periodic import honeycomb

            save_periodic_graph(str(tmp_path / "honeycomb.json"),
                                honeycomb(1.0))
            data = json.loads((tmp_path / "honeycomb.json").read_text())
        full = tmp_path / "full.json"
        full.write_text(json.dumps(data))
        half = tmp_path / "half.json"
        half.write_text(json.dumps(
            {**data, "edges": data["edges"][:len(data["edges"]) // 2]}))
        for name in ("tail", "head", "off", "cond"):
            assert getattr(load_graph(str(half)), name).tolist() == \
                getattr(load_graph(str(full)), name).tolist()
        assert self.charpoly_csv(tmp_path, "half", half) == \
            self.charpoly_csv(tmp_path, "full", full)


class TestDispatch:
    def test_verify_elliptic_exit_zero(self, capsys):
        assert main(["verify", "elliptic"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_doob_builtin(self, capsys):
        assert main(["verify", "doob", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "21/4" in out

    DOOB_CLAIMS = ["gauge identity", "Martin kernel reciprocity",
                   "LERW ratio"]

    @pytest.mark.parametrize("argv, lines", [
        (["doob"], DOOB_CLAIMS),
        (["doob", "--exact"], DOOB_CLAIMS),
        (["dimers"], ["killed/drifted gauge"]),
        (["elliptic"], ["approximation property"]),
    ], ids=["doob", "doob-exact", "dimers", "elliptic"])
    def test_verify_claim_lines(self, capsys, argv, lines):
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        for line in lines:
            assert f"  {line}: ok" in out

    def test_verify_periodic(self, capsys):
        assert main(["verify", "periodic"]) == 0

    def test_verify_dimers(self, capsys):
        assert main(["verify", "dimers"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  |det K|^2 - Z^2 = 0" in lines

    @pytest.mark.parametrize("text", [
        "{nonsense",
        json.dumps({"vertices": [{"id": 0}, {"mass": 1}], "edges": []}),
        json.dumps({"vertices": [{"id": 0, "x": 0.0, "y": 0.0},
                                 {"id": 1, "x": 1.0}], "edges": []}),
        json.dumps({"vertices": [{"id": 0, "mass": 1}],
                    "edges": [{"from": 0, "to": 0, "conductance": 1,
                               "offset": [1, 0]},
                              {"from": 0, "to": 0, "conductance": 1}]}),
        json.dumps({"vertices": [{"id": 0}, {"id": 1}],
                    "edges": [{"from": 0, "to": 1, "conductance": 1,
                               "alpha": 0.5}]}),
    ], ids=["nonsense", "vertex-without-id", "x-without-y",
            "edge-without-offset", "alpha-without-beta"])
    def test_malformed_graph_exit_two(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["edge-prob", "--graph", str(p), "--edges", "0-1"]) == 2

    @pytest.mark.parametrize("vertex, edge, extra", [
        ({}, {"conductance": -1}, []),
        ({}, {"conductance": "1/0"}, []),
        ({"mass": -1}, {}, []),
        ({"mass": "abc"}, {}, []),
        ({"mass": "1/0"}, {}, []),
        ({"mass": [1]}, {}, []),
        ({}, {}, [{"id": 2, "mass": 1, "x": 2.0, "y": 0.0}]),
        ({"id": "a"}, {}, []),
        ({"id": 0.0}, {}, []),
        ({"x": "abc"}, {}, []),
        ({"mass": float("nan")}, {}, []),
        ({}, {"conductance": float("inf")}, []),
        ({}, {"conductance": 10 ** 400}, []),
    ], ids=["negative-conductance", "conductance-zero-denominator",
            "negative-mass", "mass-not-a-number", "mass-zero-denominator",
            "mass-list", "disconnected", "string-id", "float-id",
            "string-x", "nan-mass", "infinite-conductance",
            "float-overflowing-conductance"])
    @pytest.mark.parametrize("command", ["edge-prob", "sample-forest"])
    def test_bad_graph_values_exit_two(self, tmp_path, capsys, command,
                                       vertex, edge, extra):
        # each once exited 1 or died with a traceback
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "vertices": [{"id": 0, "mass": 1, "x": 0.0, "y": 0.0, **vertex},
                         {"id": 1, "mass": 1, "x": 1.0, "y": 0.0}, *extra],
            "edges": [{"from": 0, "to": 1, "conductance": 1, **edge}]}))
        with pytest.raises(GraphFormatError):
            load_graph(str(p))
        out = tmp_path / "out.csv"
        argv = {"edge-prob": ["--edges", "0-1", "--dump-matrix", str(out)],
                "sample-forest": ["--n", "5", "--out", str(out)]}[command]
        assert main([command, "--graph", str(p), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}: ")
        assert captured.out == ""
        assert not out.exists()

    def test_charpoly_negative_conductance_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "vertices": [{"id": 0, "mass": 1.0}],
            "edges": [{"from": 0, "to": 0, "offset": list(o),
                       "conductance": -1.0} for o in ((1, 0), (-1, 0))]}))
        out = tmp_path / "charpoly.csv"
        assert main(["charpoly", "--periodic-graph", str(p),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {p}: conductances must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "{nonsense", "[1, 2]"],
                             ids=["missing", "malformed", "not-an-object"])
    def test_bad_experiment_config_exit_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["experiment", "girsanov", "--config", str(cfg),
                     "--out", str(tmp_path / "gir.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_lambda_file_exit_two(self, tmp_path, capsys):
        g = str(tmp_path / "g.json")
        write_two_vertex(g)
        assert main(["verify", "doob", "--graph", g,
                     "--lambda", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, cfg", [
        ("girsanov", {"M": "x"}),
        ("girsanov", {"deltas": 0.5}),
        ("exitlaw", {"n": "5"}),
        ("exitlaw", {"n": 2.0}),
        ("crossing", {"n": 0}),
        ("crossing", {"translations": [[0.0, 0.0, 1.0]]}),
        ("branch", {"target_arc": True}),
        ("exitlaw", {"seed": -1}),
        ("crossing", {"seed": 2**48}),
    ], ids=["M-string", "deltas-scalar", "n-string", "n-float", "n-zero",
            "translation-triple", "arc-bool", "seed-negative",
            "seed-past-stream-range"])
    def test_bad_config_value_exit_two(self, tmp_path, capsys, name, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", name, "--config", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 2
        key = json.dumps(next(iter(cfg)))
        assert capsys.readouterr().err.startswith(f"error: {path}: {key} ")
        assert not (tmp_path / "out.csv").exists()

    def test_branch_target_arc_out_of_range_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"M": 1.0, "delta": 0.0625, "radius": 0.5,
                                    "target_arc": 99, "n": 5, "seed": 7}))
        assert main(["experiment", "branch", "--config", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: target_arc 99 ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("table", [{"0": "abc"}, {"x": 1}, {"0": None},
                                       {"0": "1/0"}, {"0": True}],
                             ids=["value-string", "key-string", "null",
                                  "zero-denominator", "bool"])
    def test_bad_lambda_value_exit_two(self, tmp_path, capsys, table):
        g = str(tmp_path / "g.json")
        write_two_vertex(g)
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps(table))
        assert main(["verify", "doob", "--graph", g,
                     "--lambda", str(lam)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {lam}: entry ")

    @pytest.mark.parametrize("table", [{"0": 1, "1": 0, "2": 1},
                                       {"0": -1, "1": -1, "2": -1},
                                       {"0": 1, "1": "-3/2", "2": 1}],
                             ids=["zero", "all-negative", "negative-string"])
    def test_nonpositive_lambda_exit_two(self, tmp_path, capsys, table):
        g = tmp_path / "g.json"
        save_graph(str(g), symmetric_graph(
            3, [(0, 1, Fraction(1)), (1, 2, Fraction(1))],
            [Fraction(1, 2)] * 3, positions=[(0.0, 0.0), (1.0, 0.0),
                                             (2.0, 0.0)]))
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps(table))
        assert main(["verify", "doob", "--graph", str(g),
                     "--lambda", str(lam)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {lam}: entry ")

    def test_lambda_table_of_rationals(self, tmp_path):
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps({"0": 1, "1": "3/2", "2": 0.25}))
        assert _load_lambda_or_die(str(lam), 3) == {
            0: Fraction(1), 1: Fraction(3, 2), 2: Fraction(1, 4)}

    def test_unknown_subcommand_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_edge_prob(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        g = symmetric_graph(2, [(0, 1, Fraction(1))],
                            [Fraction(1), Fraction(1)])
        save_graph(str(p), g)
        assert main(["edge-prob", "--graph", str(p), "--edges", "0-1",
                     "--exact"]) == 0
        assert "1/3" in capsys.readouterr().out

    @pytest.mark.parametrize("edges, problem", [
        ("0-x", "is not a pair like 0-1 or 2-R"),
        ("0", "is not a pair like 0-1 or 2-R"),
        ("0-7", "names a vertex outside 0..1"),
        ("0-1,0-1", "is given twice"),
        ("0-1,0-0", "names no edge of the graph"),
    ], ids=["non-integer", "no-dash", "vertex-out-of-range", "duplicate",
            "loop-not-in-graph"])
    def test_edge_prob_bad_edges_exit_two(self, tmp_path, capsys, edges,
                                          problem):
        p = tmp_path / "g.json"
        write_two_vertex(str(p))
        dump = tmp_path / "L.csv"
        assert main(["edge-prob", "--graph", str(p), "--edges", edges,
                     "--dump-matrix", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: --edges: {edges.split(',')[-1]!r} {problem}\n"
        assert captured.out == ""
        assert not dump.exists()

    @pytest.mark.parametrize("edges, bad", [
        ("0-1,20-21", "0-1"), ("0-11,20-30,0-22", "0-22"),
    ], ids=["first", "last"])
    def test_edge_prob_refuses_pair_naming_no_edge(self, tmp_path, capsys,
                                                   edges, bad):
        # on the CLI grid vertex 0's only neighbour is 11: 0-1 once printed
        # P(0-1,20-21) = 0.0 and exited 0
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--kind", "square", "--delta", "0.05",
                     "--window", "20", "--M", "1.0", "--out", gpath]) == 0
        capsys.readouterr()
        assert main(["edge-prob", "--graph", gpath, "--edges", edges]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: --edges: {bad!r} names no edge of the graph\n"
        assert captured.out == ""

    def test_edge_prob_refuses_root_edge_of_massless_vertex(self, tmp_path,
                                                            capsys):
        p = tmp_path / "g.json"
        save_graph(str(p), symmetric_graph(
            3, [(0, 1, Fraction(1)), (1, 2, Fraction(1))],
            [Fraction(1), Fraction(0), Fraction(1)]))
        assert main(["edge-prob", "--graph", str(p), "--edges", "0-R",
                     "--exact"]) == 0
        assert capsys.readouterr().out.startswith("P(0-R) = ")
        assert main(["edge-prob", "--graph", str(p),
                     "--edges", "0-R,1-R"]) == 2
        assert capsys.readouterr().err == \
            "error: --edges: '1-R' names no edge of the graph\n"

    def test_dump_matrix_bytes_pinned(self, tmp_path):
        # every entry of the CLI grid's 221 x 221 Laplacian, zeros included,
        # each the repr of a Python float, never numpy 2's np.float64(...)
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--kind", "square", "--delta", "0.05",
                     "--window", "20", "--M", "1.0", "--out", gpath]) == 0
        dump = tmp_path / "L.csv"
        assert main(["edge-prob", "--graph", gpath, "--edges", "20-30",
                     "--dump-matrix", str(dump)]) == 0
        data = dump.read_bytes()
        assert data.count(b"\n") == 221**2 + 1
        assert b"np." not in data
        assert hashlib.sha256(data).hexdigest() == \
            "d9e5133088f633155ad178bc94280bd203b764c3f209cac75cabb1261d7dd509"

    @pytest.mark.parametrize("kind, delta, window, digest", [
        ("square", "0.05", "20",
         "0f713401a985cbddfed328a4eddc46c6b1111f46fb8d9fb8304121bdf8856946"),
        ("rhombic", "0.015625", "64",
         "952d37e2f6e5faffdc7a62d7d6692cb24c441d6c06094ad5190d007749bee039"),
    ], ids=["square", "rhombic"])
    def test_grid_bytes_pinned(self, tmp_path, kind, delta, window, digest):
        # the grid files of the CI steps, as written when the grid was
        # built one lozenge at a time
        gpath = tmp_path / "grid.json"
        assert main(["grid", "--kind", kind, "--delta", delta, "--window",
                     window, "--M", "1.0", "--out", str(gpath)]) == 0
        assert hashlib.sha256(gpath.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("option, value, message", [
        ("--delta", "0", "mesh delta = 0.0 must be finite and > 0"),
        ("--delta", "-0.1", "mesh delta = -0.1 must be finite and > 0"),
        ("--delta", "nan", "mesh delta = nan must be finite and > 0"),
        ("--M", "-1", "mass parameter M = -1.0 must be nonnegative"),
        ("--k", "1.5", "modulus k must lie in [0, 1)"),
    ], ids=["delta-zero", "delta-negative", "delta-nan", "M-negative",
            "k-past-one"])
    def test_grid_refuses_bad_input(self, tmp_path, capsys, option, value,
                                    message):
        # each once wrote a grid (delta, M) or exited 1 (k)
        args = {"--delta": "0.25", "--window": "4", option: value}
        out = tmp_path / "grid.json"
        assert main(["grid", *(a for kv in args.items() for a in kv),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, window", [("square", "0"),
                                              ("rhombic", "-3")])
    def test_grid_refuses_nonpositive_window(self, tmp_path, kind, window):
        out = tmp_path / "grid.json"
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--kind", kind, "--delta", "0.25", "--window",
                  window, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid_args, exact, message", [
        (["--M", "1.0"], ["--exact"],
         "exact potential needs rational graph data"),
        ([], [], "m == 0 on a finite component"),
    ], ids=["exact-on-float-data", "massless"])
    def test_edge_prob_input_errors_exit_two(self, tmp_path, capsys,
                                             grid_args, exact, message):
        # both once exited 1, the code of a failed verification
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.25", "--window", "4", *grid_args,
                     "--out", gpath]) == 0
        g = load_graph(gpath)
        capsys.readouterr()
        dump = tmp_path / "L.csv"
        assert main(["edge-prob", "--graph", gpath, "--edges",
                     f"{g.tail[0]}-{g.head[0]}", *exact,
                     "--dump-matrix", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not dump.exists()

    def test_rhombic_grid_past_64_half_angles_samples(self, tmp_path):
        # 81 distinct half-angles; every mass stays nonnegative
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--kind", "rhombic", "--delta", "0.1",
                     "--window", "9", "--M", "1.0", "--out", gpath]) == 0
        assert min(load_graph(gpath).masses) >= 0
        assert main(["sample-forest", "--graph", gpath, "--n", "20",
                     "--out", str(tmp_path / "counts.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["experiment", "crossing",
         {"masses": [-1.0, 0.0], "n": 10, "delta_ratio": 0.125}],
        ["experiment", "exitlaw", {"M": -1.0, "n": 10, "delta": 0.25}],
        ["experiment", "girsanov", {"M": -1.0}],
        ["experiment", "branch", {"M": -1.0, "n": 2}],
        ["experiment", "height", {"M": -1.0, "n": 2}],
        ["sample-dimers", "--M", "-1", "--n", "2"],
    ], ids=["crossing", "exitlaw", "girsanov", "branch", "height",
            "sample-dimers"])
    def test_negative_mass_exit_two(self, tmp_path, capsys, argv):
        # M < 0 was once run as the critical model M = 0
        if argv[0] == "experiment":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(argv[2]))
            argv = [*argv[:2], "--config", str(cfg)]
        else:
            grid = str(tmp_path / "grid.json")
            assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                         "1.0", "--out", grid]) == 0
            argv = [*argv, "--graph", grid]
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "M = -1.0" in err
        assert not out.exists()

    def test_grid_and_sample_forest(self, tmp_path):
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.1", "--window", "6", "--M",
                     "1.0", "--out", gpath]) == 0
        out = str(tmp_path / "counts.csv")
        assert main(["--seed", "7", "sample-forest", "--graph", gpath,
                     "--n", "100", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "tail,head,count,n_samples"
        assert len(lines) > 10
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["seed"] == 7
        assert manifest["command"] == "sample-forest"

    def test_determinism_across_threads(self, tmp_path):
        gpath = str(tmp_path / "grid.json")
        main(["grid", "--delta", "0.2", "--window", "5", "--M", "1.0",
              "--out", gpath])
        outs = []
        for threads, name in ((1, "a.csv"), (4, "b.csv")):
            out = str(tmp_path / name)
            assert main(["--seed", "11", "--threads", str(threads),
                         "sample-forest", "--graph", gpath, "--n", "300",
                         "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_sample_tree_via_root(self, tmp_path):
        p = tmp_path / "g.json"
        g = symmetric_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                            [0.0, 0.0, 0.0])
        save_graph(str(p), g)
        out = str(tmp_path / "t.csv")
        assert main(["sample-tree", "--graph", str(p), "--root", "0",
                     "--n", "200", "--out", out]) == 0
        rows = [line.split(",") for line in
                open(out).read().splitlines()[1:]]
        by_tail = {}
        for tail, head, count, n in rows:
            by_tail[tail] = by_tail.get(tail, 0) + int(count)
        assert by_tail["1"] == 200 and by_tail["2"] == 200
        assert by_tail.get("0", 0) == 0

    def test_root_outside_graph_is_usage_error(self, tmp_path):
        p = tmp_path / "g.json"
        save_graph(str(p), symmetric_graph(2, [(0, 1, 1.0)], [0.0, 0.0]))
        out = tmp_path / "t.csv"
        assert main(["sample-tree", "--graph", str(p), "--root", "2",
                     "--n", "5", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "-3", str(2**48), "x"])
    @pytest.mark.parametrize("command", ["sample-forest", "sample-dimers"])
    def test_seed_outside_stream_range_exit_two(self, tmp_path, capsys,
                                                command, seed):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, command, "--graph", str(tmp_path / "g.json"),
                  "--n", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --seed: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        p = tmp_path / "g.json"
        save_graph(str(p), symmetric_graph(2, [(0, 1, 1.0)], [1.0, 1.0]))
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--threads", threads, "sample-forest", "--graph", str(p),
                  "--n", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --threads: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-5", "2.5"])
    @pytest.mark.parametrize("command", [
        ["sample-forest"], ["sample-tree", "--root", "0"], ["sample-dimers"]],
        ids=["sample-forest", "sample-tree", "sample-dimers"])
    def test_sample_count_below_one_exit_two(self, tmp_path, capsys, command,
                                             n):
        p = tmp_path / "g.json"
        save_graph(str(p), symmetric_graph(2, [(0, 1, 1.0)], [1.0, 1.0]))
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--graph", str(p), "--n", n, "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --n: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, n, limit", [
        (["sample-forest"], 65_536_001, 65_536_000),
        (["sample-tree", "--root", "0"], 65_536_001, 65_536_000),
        (["sample-dimers", "--M", "1.0", "--delta", "0.25"], 2**24 + 1,
         2**24)], ids=["sample-forest", "sample-tree", "sample-dimers"])
    def test_sample_count_past_task_range_exit_two(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   command, n, limit):
        # a seed's 2**16 task streams hold 1000 forests or 256 matchings
        # each; a larger --n is refused before anything is drawn
        import massiveforests.dimers as dimers
        import massiveforests.walks as walks

        def draw(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(walks, "_wilson_successors", draw)
        monkeypatch.setattr(dimers, "_wilson_successors", draw)
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.25", "--window", "4", "--M",
                     "1.0", "--out", gpath]) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main(command + ["--graph", gpath, "--n", str(n),
                               "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --n {n}: n = {n} is past the limit {limit}: ")
        assert not out.exists()

    def test_charpoly_cli(self, tmp_path):
        from massiveforests.periodic import square_lattice

        p = str(tmp_path / "per.json")
        save_periodic_graph(p, square_lattice(1.0))
        out = str(tmp_path / "coeffs.csv")
        assert main(["charpoly", "--periodic-graph", p, "--out", out]) == 0
        txt = open(out).read()
        assert "0,0,5.0" in txt.replace(" ", "")

    def test_experiment_girsanov(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 1.0, "u_bars": [0.0],
                                   "deltas": [1 / 16, 1 / 32]}))
        out = str(tmp_path / "gir.csv")
        assert main(["experiment", "girsanov", "--config", str(cfg),
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 3

    def test_experiment_crossing_cells_seeded_apart(self, tmp_path):
        # two identical cells (same r, z, M, orientation) must not share a
        # stream: cell k runs on rng_stream(7, k); reruns of one invocation
        # stay byte-identical
        from massiveforests.nearcrit import CrossingSpec, _crossing_cell
        from massiveforests.walks import rng_stream

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "radii": [0.3], "masses": [1.0], "delta_ratio": 1 / 8,
            "translations": [[0.0, 0.0], [0.0, 0.0]], "n": 400,
            "seed": 7}))
        outs = [str(tmp_path / f"cross{i}.csv") for i in (1, 2)]
        for out in outs:
            assert main(["experiment", "crossing", "--config", str(cfg),
                         "--out", out]) == 0
        texts = [open(out).read() for out in outs]
        assert texts[0] == texts[1]
        rows = texts[0].splitlines()[1:]
        assert len(rows) == 4
        assert rows[0].split(",")[:6] == rows[1].split(",")[:6]
        for k, row in enumerate(rows):
            horizontal = row.split(",")[3] == "True"
            est, _ = _crossing_cell(
                CrossingSpec(r=0.3, horizontal=horizontal), 0.3 / 8, 1.0,
                400, rng_stream(7, k))
            assert float(row.split(",")[6]) == est

    def test_experiment_streams_never_repeat_across_seeds(self, tmp_path,
                                                           monkeypatch):
        # runs at seeds 7 and 8 of one kind share no (seed, task) stream:
        # crossing cell 1 at seed 7 once ran on cell 0's seed at 8, and the
        # exitlaw Brownian leg at 7 on the walk leg's seed at 8
        import massiveforests.nearcrit as nearcrit
        from massiveforests.walks import rng_stream

        keys = []

        def recording_stream(seed, task_id=0):
            keys.append((seed, task_id))
            return rng_stream(seed, task_id)

        monkeypatch.setattr(nearcrit, "rng_stream", recording_stream)
        configs = {
            "crossing": ({"radii": [0.3], "masses": [0.0, 1.0],
                          "delta_ratio": 1 / 8, "n": 50}, 8),
            "exitlaw": ({"n": 200, "delta": 0.25}, 4),
        }
        for name, (cfg, n_streams) in configs.items():
            keys.clear()
            for seed in (7, 8):
                code, _, _ = run_experiment(tmp_path, name, cfg, "--seed",
                                            str(seed))
                assert code == 0
            assert len(keys) == n_streams
            assert len(set(keys)) == len(keys), (name, keys)

    def test_experiment_exitlaw_reruns_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 1.0, "u_bar": 0.3, "delta": 1 / 16,
                                   "n": 2000, "seed": 5}))
        outs = [str(tmp_path / f"exit{i}.csv") for i in (1, 2)]
        for out in outs:
            assert main(["experiment", "exitlaw", "--config", str(cfg),
                         "--out", out]) == 0
        blobs = [open(out, "rb").read() for out in outs]
        assert blobs[0] == blobs[1]
        lines = blobs[0].decode().splitlines()
        assert lines[0] == "experiment,arc,walk_count,brownian_count,tv"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 16
        assert [int(r[1]) for r in rows] == list(range(16))
        assert sum(int(r[3]) for r in rows) == 2000
        assert len({r[4] for r in rows}) == 1
        assert 0 < float(rows[0][4]) < 1

    def test_sample_dimers(self, tmp_path):
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                     "1.0", "--out", gpath]) == 0
        out = str(tmp_path / "dimers.csv")
        assert main(["--seed", "3", "sample-dimers", "--graph", gpath,
                     "--u", "0.5", "--M", "1.0", "--delta", "0.125",
                     "--n", "5", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "sample,kind,key1,key2,value"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert kinds == {"match", "height"}

    @pytest.mark.parametrize("kind, seed, u, n, digest", [
        # 300 samples cross the 256-sample task boundary
        ("square", "3", "0.5", "300",
         "e73b9377921138f5fcdcd3a378df486081887028eb076c75b95f9fea71b5b3a6"),
        ("rhombic", "4", "0.3", "5",
         "d95beb12ad350737e8c6c79d9c687361f2b6afc4b5e8bc5711b89b8151bf717b"),
    ], ids=["square", "rhombic"])
    def test_sample_dimers_bytes_pinned(self, tmp_path, kind, seed, u, n,
                                        digest):
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--kind", kind, "--delta", "0.125", "--window",
                     "8", "--M", "1.0", "--out", gpath]) == 0
        out = tmp_path / "dimers.csv"
        assert main(["--seed", seed, "sample-dimers", "--graph", gpath,
                     "--u", u, "--M", "1.0", "--delta", "0.125", "--n", n,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("edge", [0, 5])
    def test_sample_dimers_refuses_partial_rays(self, tmp_path, monkeypatch,
                                                capsys, edge):
        # a grid file with one edge stripped of its rays is malformed: an
        # input error, refused before the first matching is drawn
        import massiveforests.dimers as dimers

        def draw(*args):
            raise AssertionError("a matching was drawn")

        gpath = tmp_path / "grid.json"
        assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                     "1.0", "--out", str(gpath)]) == 0
        data = json.loads(gpath.read_text())
        del data["edges"][edge]["alpha"], data["edges"][edge]["beta"]
        gpath.write_text(json.dumps(data))
        monkeypatch.setattr(dimers, "_wilson_successors", draw)
        out = tmp_path / "dimers.csv"
        capsys.readouterr()
        assert main(["--seed", "3", "sample-dimers", "--graph", str(gpath),
                     "--u", "0.5", "--M", "1.0", "--delta", "0.125", "--n",
                     "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"edge {edge}: rays" in err
        assert not out.exists()

    def test_loader_turns_added_reverse_rays_by_pi(self, tmp_path):
        # a grid file that keeps only each grid edge's tail -> head (the
        # even edges) loads with the reverses' rays turned by pi, as
        # `grid_to_graph` writes them, and samples dimers
        gpath = tmp_path / "grid.json"
        assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                     "1.0", "--out", str(gpath)]) == 0
        full = load_graph(str(gpath))
        data = json.loads(gpath.read_text())
        data["edges"] = data["edges"][0::2]
        half = tmp_path / "half.json"
        half.write_text(json.dumps(data))
        g = load_graph(str(half))
        assert g.edge_rays.shape == (g.m_edges, 2) == full.edge_rays.shape

        def rays(h):
            return dict(zip(zip(h.tail.tolist(), h.head.tolist()),
                            map(tuple, h.edge_rays.tolist())))
        assert rays(g) == rays(full)
        out = tmp_path / "dimers.csv"
        assert main(["--seed", "3", "sample-dimers", "--graph", str(half),
                     "--u", "0.5", "--M", "1.0", "--delta", "0.125",
                     "--n", "5", "--out", str(out)]) == 0

    def test_sample_dimers_refuses_mismatched_drift(self, tmp_path, capsys):
        # the default --M 0 field is not massive harmonic for an M = 1 grid
        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                     "1.0", "--out", gpath]) == 0
        out = tmp_path / "dimers.csv"
        assert main(["--seed", "3", "sample-dimers", "--graph", gpath,
                     "--u", "0.5", "--n", "5", "--out", str(out)]) == 2
        assert "residual" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_dimers_refuses_window_without_interior_quads(
            self, tmp_path, monkeypatch, capsys):
        # 13 vertices: a double graph with no interior quad has no heights;
        # an input error, refused before the first matching is drawn
        import massiveforests.dimers as dimers

        def draw(*args):
            raise AssertionError("a matching was drawn")

        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.25", "--window", "4", "--M",
                     "1.0", "--out", gpath]) == 0
        monkeypatch.setattr(dimers, "_wilson_successors", draw)
        out = tmp_path / "dimers.csv"
        capsys.readouterr()
        assert main(["--seed", "3", "sample-dimers", "--graph", gpath,
                     "--u", "0.5", "--M", "1.0", "--delta", "0.25",
                     "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: window has no interior double-graph faces\n"
        assert not out.exists()

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "massiveforests.cli", "verify",
             "periodic"], capture_output=True, text=True)
        assert proc.returncode == 0


def write_z_line(path):
    # the built-in `verify doob` ambient graph: Z-line 0..5, c = 1, m = 1/2
    save_graph(path, symmetric_graph(
        6, [(i, i + 1, Fraction(1)) for i in range(5)], [Fraction(1, 2)] * 6,
        positions=[(float(i), 0.0) for i in range(6)]))


def no_sampling(monkeypatch):
    """Make every forest draw, edge probability and grid build fail."""
    import massiveforests.isoradial as isoradial
    import massiveforests.linalg as linalg
    import massiveforests.walks as walks

    def ran(*args, **kwargs):
        raise AssertionError("the command ran")

    for module, name in ((walks, "_wilson_successors"),
                         (linalg, "edge_probability"),
                         (isoradial, "build_square_grid")):
        monkeypatch.setattr(module, name, ran)


class TestRefusals:
    """Inputs a command cannot read exit 2 with one `error:` line and
    write nothing; each once ended in a traceback or exit 1."""

    @staticmethod
    def refused(tmp_path, capsys, argv, message):
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", [
        ["sample-forest", "--n", "5", "--out", "{out}"],
        ["sample-tree", "--root", "0", "--n", "5", "--out", "{out}"],
        ["edge-prob", "--edges", "0-0", "--dump-matrix", "{out}"],
        ["verify", "doob"]],
        ids=["sample-forest", "sample-tree", "edge-prob", "verify-doob"])
    def test_periodic_file_refused(self, tmp_path, monkeypatch, capsys,
                                   command):
        p = tmp_path / "periodic.json"
        p.write_text(json.dumps({
            "vertices": [{"id": 0, "mass": 1.0, "x": 0.0, "y": 0.0}],
            "edges": [{"from": 0, "to": 0, "offset": [1, 0],
                       "conductance": 1.0}]}))
        no_sampling(monkeypatch)
        argv = [a.format(out=tmp_path / "out.csv") for a in command]
        self.refused(tmp_path, capsys, [*argv, "--graph", str(p)],
                     f"{p}: edges with offsets make a periodic graph; "
                     f"need a finite graph")

    @pytest.mark.parametrize("lam", [[], ["--lambda", "pow2"]],
                             ids=["default", "pow2"])
    def test_verify_doob_graph_needs_lambda_table(self, tmp_path,
                                                  monkeypatch, capsys, lam):
        # pow2 puts lambda on every vertex of the file, and no positive
        # lambda is massive harmonic on a whole finite graph with mass, so
        # the check could only fail: refused before any determinant
        import massiveforests.doob as doob

        def ran(*args, **kwargs):
            raise AssertionError("the check ran")

        p = tmp_path / "line.json"
        write_z_line(str(p))
        monkeypatch.setattr(doob, "verify_partition_equality", ran)
        self.refused(tmp_path, capsys,
                     ["verify", "doob", "--graph", str(p), *lam],
                     "--graph needs --lambda TABLE; pow2 is the built-in "
                     "Z-line's lambda")

    def test_sample_dimers_needs_coordinates(self, tmp_path, monkeypatch,
                                             capsys):
        import massiveforests.dimers as dimers

        def draw(*args):
            raise AssertionError("a matching was drawn")

        gpath = tmp_path / "grid.json"
        assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                     "1.0", "--out", str(gpath)]) == 0
        (tmp_path / "grid.json.manifest.json").unlink()
        data = json.loads(gpath.read_text())
        for v in data["vertices"]:
            del v["x"], v["y"]
        gpath.write_text(json.dumps(data))
        monkeypatch.setattr(dimers, "_wilson_successors", draw)
        capsys.readouterr()
        self.refused(tmp_path, capsys, [
            "sample-dimers", "--graph", str(gpath), "--M", "1.0",
            "--delta", "0.125", "--n", "2",
            "--out", str(tmp_path / "dimers.csv")],
            f"{gpath}: need vertex coordinates x and y")

    @pytest.mark.parametrize("exact, lines", [
        (["--exact"], ["  Z_RSF = 21/4", "  Z_RST^o = 21/4", "  gap = 0"]),
        ([], ["  (sign, log|Z_RSF|) = (1.0, 1.6582280766035324)",
              "  (sign, log|Z_RST^o|) = (1.0, 1.6582280766035324)",
              "  gap = 0.0"]),
    ], ids=["exact", "float"])
    def test_verify_doob_lambda_table_on_window(self, tmp_path, capsys,
                                                exact, lines):
        # lambda = 2^x on vertices 1..4 only: the window is {2, 3}, and the
        # tilt reads lambda there and on 1 and 4; log(21/4) = 1.658...
        g, lam = tmp_path / "line.json", tmp_path / "window.json"
        write_z_line(str(g))
        lam.write_text(json.dumps({str(i): 2**i for i in range(1, 5)}))
        assert main(["verify", "doob", "--graph", str(g),
                     "--lambda", str(lam), *exact]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == lines
        assert out[3].startswith("verify doob: ok (")

    @pytest.mark.parametrize("table, problem", [
        ({"1": 2, "2": 4}, "no vertex has lambda on itself and on all its "
                           "neighbours"),
        ({"0": 1, "2": 4}, "no vertex has lambda on itself and on all its "
                           "neighbours"),
        ({"0": 1, "6": 2}, 'entry "6": vertex 6 is outside 0..5'),
        ({"-1": 1, "0": 2}, 'entry "-1": vertex -1 is outside 0..5'),
    ], ids=["empty-window", "candidate-without-lambda", "id-past-n",
            "negative-id"])
    def test_verify_doob_lambda_table_refused(self, tmp_path, capsys, table,
                                              problem):
        # vertex 1 has lambda on both neighbours but none of its own: it
        # once joined the window and died with a KeyError
        g, lam = tmp_path / "line.json", tmp_path / "lam.json"
        write_z_line(str(g))
        lam.write_text(json.dumps(table))
        self.refused(tmp_path, capsys, ["verify", "doob", "--graph", str(g),
                                        "--lambda", str(lam)],
                     f"{lam}: {problem}")

    @pytest.mark.parametrize("argv, missing", [
        (["sample-forest", "--graph", "{g}", "--n", "5", "--out", "{m}"],
         "{m}"),
        (["--manifest", "{m}", "sample-forest", "--graph", "{g}", "--n",
          "5", "--out", "{d}/f.csv"], "{m}"),
        (["edge-prob", "--graph", "{g}", "--edges", "0-1", "--dump-matrix",
          "{m}"], "{m}"),
        (["grid", "--delta", "0.25", "--window", "4", "--out", "{m}"],
         "{m}"),
    ], ids=["out", "manifest", "dump-matrix", "grid-out"])
    def test_output_in_missing_directory(self, tmp_path, monkeypatch, capsys,
                                         argv, missing):
        g = tmp_path / "line.json"
        write_z_line(str(g))
        no_sampling(monkeypatch)
        names = dict(g=g, d=tmp_path, m=tmp_path / "missing" / "f.csv")
        self.refused(tmp_path, capsys,
                     [a.format(**names) for a in argv],
                     f"{missing.format(**names)}: no such directory")

    @pytest.mark.parametrize("argv", [
        ["sample-forest", "--graph", "{g}", "--n", "5", "--out", "{a}"],
        ["--manifest", "{a}", "sample-forest", "--graph", "{g}", "--n",
         "5", "--out", "{d}/f.csv"],
        ["edge-prob", "--graph", "{g}", "--edges", "0-1", "--dump-matrix",
         "{a}"],
        ["grid", "--delta", "0.25", "--window", "4", "--out", "{a}"],
    ], ids=["out", "manifest", "dump-matrix", "grid-out"])
    def test_output_path_is_a_directory(self, tmp_path, monkeypatch, capsys,
                                        argv):
        # once every forest was sampled, then writing the CSV died with an
        # IsADirectoryError traceback and exit 1
        g, a = tmp_path / "line.json", tmp_path / "adir"
        write_z_line(str(g))
        a.mkdir()
        no_sampling(monkeypatch)
        self.refused(tmp_path, capsys,
                     [s.format(g=g, d=tmp_path, a=a) for s in argv],
                     f"{a}: is a directory")
        assert not any(a.iterdir())


# a small config of every experiment kind and the sha256 of its CSV,
# recorded before the kinds became one table (crossing and exitlaw again
# when each cell and leg got its own task stream); height takes its seed
# from --seed, the others from the config
PINNED_CONFIGS = {
    "girsanov": {"M": 1.0, "u_bars": [0.0, 0.5], "deltas": [1 / 16, 1 / 32]},
    "crossing": {"radii": [0.3], "masses": [0.0, 1.0], "delta_ratio": 1 / 8,
                 "n": 400, "seed": 3},
    "exitlaw": {"M": 1.0, "u_bar": 0.3, "delta": 1 / 16, "n": 500, "seed": 5},
    "branch": {"M": 1.0, "delta": 0.0625, "radius": 0.5, "target_arc": 0,
               "n": 5, "seed": 7},
    "height": {"M": 1.0, "u_bar": 0.5, "delta": 0.125, "block": 3, "n": 20},
}
PINNED_SHA256 = {
    "girsanov":
        "cc04d6139487967b1f29ebbf90259fce15ad2541669f2e7656e94f232f79f29e",
    "crossing":
        "0087910df7d1c5419870639d6192f683157acd45523391a6f4a46e1742066191",
    "exitlaw":
        "2b6d890d7403ae40dbe5dd54dc684a7a6557dd11b96dc9b4037b3af1a9171c9a",
    "branch":
        "db8f0db9e492500f0a08bca73d9413e6b230530d492c9e2e5c0655155225ab1a",
    "height":
        "a9eaf562848456b7052da0b9757ebe3c8dfcb058261d814ddda761e28a4ce60b",
}


def run_experiment(tmp_path, name, cfg, *options):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    code = main([*options, "experiment", name, "--config", str(path),
                 "--out", str(out)])
    return code, path, out


class TestExperimentKinds:
    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_csv_bytes_pinned(self, tmp_path, name):
        code, _, out = run_experiment(tmp_path, name, PINNED_CONFIGS[name],
                                      "--seed", "2")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            PINNED_SHA256[name]

    @pytest.mark.parametrize("cfg, seed", [
        ({"n": 20, "delta": 0.25, "seed": 5}, 5),
        ({"n": 20, "delta": 0.25}, 9),
    ], ids=["config-seed", "option-seed"])
    def test_manifest_records_seed_of_run(self, tmp_path, cfg, seed):
        code, _, out = run_experiment(tmp_path, "exitlaw", cfg, "--seed", "9")
        assert code == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["seed"] == seed

    # each error names where its input came from: the config or --seed;
    # 2**30 + 1 walkers take 65537 walk tasks and the Brownian leg one more,
    # past the 2**16 task streams of a seed: n is at fault, not the seed;
    # a mesh delta that is not positive is refused before any walker runs
    @pytest.mark.parametrize("name, cfg, options, where", [
        ("exitlaw", {"n": 2**30 + 1, "delta": 0.25},
         ["--seed", str(2**48 - 1)], "{path}: "),
        ("height", {"block": 2, "n": 2}, [], "{path}: "),
        ("exitlaw", {"delta": 0.0, "n": 20}, [],
         "{path}: mesh delta = 0.0 must be finite and > 0\n"),
        ("exitlaw", {"delta": -0.0625, "n": 20}, [],
         "{path}: mesh delta = -0.0625 must be finite and > 0\n"),
        ("crossing", {"delta_ratio": 0.0, "n": 20}, [],
         "{path}: mesh delta = 0.0 must be finite and > 0\n"),
        ("branch", {"delta": 0.0, "n": 2}, [],
         "{path}: mesh delta = 0.0 must be finite and > 0\n"),
    ], ids=["exitlaw-n-past-task-range", "height-block-without-faces",
            "exitlaw-delta-zero", "exitlaw-delta-negative",
            "crossing-delta-zero", "branch-delta-zero"])
    def test_input_error_inside_run_exit_two(self, tmp_path, monkeypatch,
                                             capsys, name, cfg, options,
                                             where):
        import massiveforests.nearcrit as nearcrit

        def walk(*args, **kwargs):
            raise AssertionError("a walker ran")

        monkeypatch.setattr(nearcrit, "_walk", walk)
        code, path, out = run_experiment(tmp_path, name, cfg, *options)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {where.format(path=path)}")
        assert list(tmp_path.iterdir()) == [path]

    def test_exitlaw_n_past_task_range_never_enters_walk_leg(self, tmp_path,
                                                             monkeypatch,
                                                             capsys):
        # n = 2**30 + 1 needs 65537 walk tasks and one Brownian task; that
        # was once reported as a bad --seed
        import massiveforests.nearcrit as nearcrit

        def leg(*args, **kwargs):
            raise AssertionError("a leg ran")

        monkeypatch.setattr(nearcrit, "exit_law_walk", leg)
        monkeypatch.setattr(nearcrit, "_brownian_exits", leg)
        n = 2**30 + 1
        for cfg, options in (({"n": n}, ("--seed", str(2**48 - 1))),
                             ({"n": n, "seed": 2**48 - 1}, ())):
            code, path, out = run_experiment(tmp_path, "exitlaw", cfg,
                                             *options)
            assert code == 2
            assert not out.exists()
            assert capsys.readouterr().err.startswith(
                f"error: {path}: n = {n} is past the limit 1073725440: ")

    def test_crossing_past_task_range_exit_two(self, tmp_path, monkeypatch,
                                               capsys):
        import massiveforests.nearcrit as nearcrit

        def cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(nearcrit, "_crossing_cell", cell)
        # 2 radii x 2 orientations x 1 translation x 16385 masses
        cfg = {"radii": [0.1, 0.3], "masses": [0.0] * (2**14 + 1),
               "translations": [[0, 0]]}
        code, path, out = run_experiment(tmp_path, "crossing", cfg)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            f"error: {path}: cells = 65540 is past the limit 65536: ")

    def test_height_past_task_range_exit_two(self, tmp_path, monkeypatch,
                                             capsys):
        # more matchings than the 2**16 task streams of 256 hold: refused
        # before the first draw, and blamed on n, not on the seed
        import massiveforests.dimers as dimers

        def draw(*args):
            raise AssertionError("a matching was drawn")

        monkeypatch.setattr(dimers, "_wilson_successors", draw)
        n = 2**24 + 1
        code, path, out = run_experiment(tmp_path, "height", {"n": n})
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            f"error: {path}: n = {n} is past the limit 16777216: ")

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        code, path, _ = run_experiment(
            tmp_path, "exitlaw", {"M": 1.0, "detla": 0.0625, "n": 200})
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f'error: {path}: unknown key "detla"')
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_every_default_passes_its_key_check(self, name):
        from massiveforests.cli import _CONFIG_CHECKS, EXPERIMENTS

        config = EXPERIMENTS[name][0]
        for key, value in config.items():
            what, ok = _CONFIG_CHECKS[key]
            assert ok(value), (name, key, what)

    def test_import_loads_no_kind_module(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, massiveforests.cli; print(sorted(m for m in "
             "('massiveforests.nearcrit', 'massiveforests.dimers', 'scipy')"
             " if m in sys.modules))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"


def test_verify_elliptic_names_the_failed_check(monkeypatch, capsys):
    from massiveforests import elliptic

    real = elliptic.modulus_from_nome
    monkeypatch.setattr(elliptic, "modulus_from_nome",
                        lambda q: dataclasses.replace(real(q), q=2 * q))
    assert main(["verify", "elliptic"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.endswith(": FAIL")]
    assert failed == ["  nome round trip: FAIL"]
    assert sum(line.endswith(": ok") for line in lines) == 6
