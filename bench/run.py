"""Benchmark of massiveforests: one workload per process, one client, closed loop.

    python3 bench/run.py --workload linalg-queries --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
The run builds the workload's inputs from the seed, then runs a fixed
number of passes over the workload's fixed list of calls, timing each
call, then checks the outputs.  `--seconds` sets the number of passes from
the workload's nominal pass time.  The set-up (a fresh-interpreter import
plus building the inputs) is repeated several times, spread evenly
between the calls, and timed.  The run prints every metric with its unit and, as its
last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with `--trace 0`, and its
per-layer metrics with `--trace 1`.  With `--trace 1` every import, set-up
step and call runs inside a span, and the run reports each layer's self
time and the cost of the spans.  Full results (all metrics, check
details, machine record, raw call times) and the spans are written to
bench/results/.  `--size tiny` runs the self-test's small inputs.
"""

import os

# BLAS pinned to one thread; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
RESULTS = BENCH / "results"

# modules of massiveforests timed as layers, in import order
LAYERS = ("graphs", "elliptic", "isoradial", "linalg", "walks", "planar",
          "dimers", "io", "nearcrit", "cli")
# third-party modules the layers import; loaded before any timer starts
THIRD_PARTY = "numpy, scipy, scipy.linalg"
# the metrics of the result line (BENCHMARK.json end_to_end / per_layer)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple((f"{layer}.{m}", "s") for layer in LAYERS
                  for m in ("self_s", "setup_s")) + (
    ("trace.overhead_s", "s"), ("trace.span_us", "us"))

IMPORT_PROBE = (f"import time, {THIRD_PARTY}; t = time.perf_counter(); import "
                + ", ".join(f"massiveforests.{m}" for m in LAYERS)
                + "; print(time.perf_counter() - t)")


def fresh_import_seconds():
    """Import time of every layer module in a fresh interpreter, numpy and
    scipy already loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=REPO, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.split()[-1])


def git_commit():
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = REPO / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine_record(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (d / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


class Timings:
    """Times of one run: set-ups and calls."""

    def __init__(self):
        self.calls = defaultdict(list)      # kind -> seconds per call
        self.setup = []                     # seconds per set-up
        self.imports = []                   # fresh import part of each
        self.steps = defaultdict(list)      # set-up step -> seconds
        self.attempted = 0
        self.failed = 0

    def wall(self, passes):
        """Time of one pass: every call time of the run over the passes."""
        return sum(map(sum, self.calls.values())) / passes


def set_up(wl, tr, tm):
    imp = fresh_import_seconds()
    t0 = time.perf_counter()
    with tr.span("setup", "bench"):
        steps = wl.setup(tr)
    tm.setup.append(imp + time.perf_counter() - t0)
    tm.imports.append(imp)
    for k, v in steps.items():
        tm.steps[k].append(v)


def measure(wl, tr, passes):
    """Run `passes` passes of the workload's calls, timing each call.

    The set-ups are spread evenly over the calls, the first before any.
    """
    tm = Timings()
    set_up(wl, tr, tm)
    ops = [op for p in range(passes) for op in wl.ops(p)]
    reps = wl.sizes.setup_reps
    setups_at = Counter(len(ops) * i // reps for i in range(1, reps))
    for i, op in enumerate(ops):
        for _ in range(setups_at[i]):
            set_up(wl, tr, tm)
        tm.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span(op.kind, op.layer):
                op.fn()
        except Exception:
            tm.failed += 1
            traceback.print_exc(file=sys.stderr)
        tm.calls[op.kind].append(time.perf_counter() - t0)
    return tm


def layer_seconds(tr, sweep):
    """Per layer: (import plus one set-up, one pass) of self time.

    The set-up part is the layer's import span plus the median over the
    set-ups of its step spans; the pass part weights the median self time
    of each kind of call by its count in one pass.
    """
    own = tr.self_seconds()
    name = {s["id"]: s["name"] for s in tr.spans}
    imports = defaultdict(float)
    setups = defaultdict(lambda: defaultdict(float))    # set-up -> layer -> s
    calls = defaultdict(list)
    for s in tr.spans:
        if s["name"].endswith(".import"):
            imports[s["layer"]] += own[s["id"]]
        elif s["parent"] is not None and name[s["parent"]] == "setup":
            setups[s["parent"]][s["layer"]] += own[s["id"]]
        elif s["name"] in sweep:
            calls[s["name"]].append(own[s["id"]])
    per_pass = defaultdict(float)
    for kind, k in sweep.items():
        per_pass[kind.split(".")[0]] += k * statistics.median(calls[kind])
    return {layer: (imports[layer] + statistics.median(
                        rep[layer] for rep in setups.values()),
                    per_pass[layer]) for layer in LAYERS}


def fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, dict)):
        return json.dumps(v)
    return str(v)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "massiveforests" / "__init__.py").is_file():
        print(f"error: {SRC / 'massiveforests'} not found; run from the "
              f"root of a massiveforests checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from tracer import NullTracer, Tracer, span_seconds
    from workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = TINY if args.size == "tiny" else FULL
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tr = Tracer(run_id) if args.trace else NullTracer()

    for mod in THIRD_PARTY.split(", "):
        importlib.import_module(mod)
    for layer in LAYERS:
        with tr.span(f"{layer}.import", layer):
            importlib.import_module(f"massiveforests.{layer}")
    env = machine_record(args.seed)

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        wl = WORKLOADS[args.workload](args.seed, sizes, workdir)
        passes = wl.passes(args.seconds)
        tm = measure(wl, tr, passes)
        finish_failed = 0
        try:
            with tr.span("checks", "bench"):
                wl.finish()
        except Exception:
            finish_failed = 1
            traceback.print_exc(file=sys.stderr)
        attempted = tm.attempted + wl.log.attempted() + 1
        failed = tm.failed + wl.log.failed() + finish_failed

        sweep = wl.sweep()
        e2e = {
            "setup_s": (statistics.median(tm.setup), "s"),
            "wall_s": (tm.wall(passes), "s"),
            "error_rate": (failed / attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        specific, catalogue = wl.metrics(tm.calls)
        e2e.update(specific)
        per_layer = {"cli.import_s": (statistics.median(tm.imports), "s")}
        per_layer.update({k: (statistics.median(v), "s")
                          for k, v in tm.steps.items()})
        per_layer.update(catalogue)

        stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
        layer_self = {}
        if args.trace:
            span_s = span_seconds()
            for layer, (setup_part, pass_part) in layer_seconds(
                    tr, sweep).items():
                layer_self[layer] = {"setup_s": setup_part,
                                     "pass_s": pass_part,
                                     "self_s": setup_part + pass_part}
            layer_self["trace"] = {
                "overhead_s": span_s * sum(sweep.values()),
                "span_us": span_s * 1e6}
            result_metrics = {}
            for name, unit in PER_LAYER:
                layer_name, m = name.split(".", 1)
                result_metrics[name] = {"value": layer_self[layer_name][m],
                                        "unit": unit}
            tr.write(RESULTS / f"{stem}.spans.json")
        else:
            result_metrics = {name: {"value": e2e[name][0], "unit": unit}
                              for name, unit in END_TO_END}

        checks = wl.log.summary()
        record = {
            "workload": args.workload, "size": args.size, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "machine": env,
            "end_to_end": {k: {"value": v, "unit": u}
                           for k, (v, u) in e2e.items()},
            "per_layer": {k: {"value": v, "unit": u}
                          for k, (v, u) in per_layer.items()},
            "layer_self_times": layer_self,
            "checks": checks,
            "attempted": attempted, "failed": failed,
            "setup": {"totals_s": tm.setup, "import_s": tm.imports,
                      "steps_s": dict(tm.steps)},
            "call_times_s": dict(tm.calls),
            **wl.fingerprint(),
        }
        out_path = RESULTS / f"{stem}.json"
        with open(out_path, "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"massiveforests benchmark: workload {args.workload}, seed "
          f"{args.seed}, {args.seconds:g} s ({passes} passes), trace "
          f"{args.trace}, size {args.size}")
    print(f"machine: nproc {env['nproc']}, {env['cpu_model']}, caches "
          f"{env['caches']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, commit {env['git_commit']}")
    print("end-to-end" + (" (traced)" if args.trace else "") + ":")
    for k, (v, u) in e2e.items():
        print(f"  {k:<44} {fmt(v):>14} {u}")
    print("per-layer" + (" (traced)" if args.trace else "") + ":")
    for k, (v, u) in per_layer.items():
        print(f"  {k:<44} {fmt(v):>14} {u}")
    if args.trace:
        print("layer self time (import + one set-up, one pass):")
        for name in LAYERS:
            d = layer_self[name]
            print(f"  {name:<20} set-up {d['setup_s']:>11.6g} s  pass "
                  f"{d['pass_s']:>11.6g} s")
        print(f"  span cost {layer_self['trace']['span_us']:.3g} us, "
              f"{layer_self['trace']['overhead_s']:.3g} s per pass")
    print("checks:")
    for k, d in checks.items():
        print(f"  {k:<30} evaluated {d['evaluated']:>5}  failed "
              f"{d['failed']}  {d['detail']}")
    print(f"results: {out_path.relative_to(REPO)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
