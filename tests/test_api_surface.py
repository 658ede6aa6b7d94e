"""Every option of the public API has a caller outside the tests.

An AST scan of `src/massiveforests` lists the default-valued parameters
of its public functions, of the public methods of its public classes
and of their `__init__`s.  A parameter counts as set when a call in
`src/`, `bench/` or `demos/` to a function of its name passes it, by
keyword or by position (a `*` or `**` argument sets every parameter it
can reach).  Handing on one's own default (`f(x=x)` inside a function
whose default-valued parameter x it is and never reassigns) sets the
callee's parameter only if something sets the caller's.  Calls resolve
by name alone, so a call to any function of the same name counts.

The parameters that no call sets are the options that only tests set.
Each one kept says why below; any other such option is a value that
should become the constant it defaults to.

The same scan over definitions: a module-level function or class, or a
public method of a class, counts as read when a name, an attribute or
an import in `src/`, `bench/` or `demos/` spells its name.  The ones
that nothing there reads are kept below, each with its reason; any
other definition with no reader is code that only tests run.

And every name that an import in a module of `src/`, `tests/` or `demos/`
binds is loaded somewhere in that module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "massiveforests"

EXACT = "float against exact arithmetic is the oracle design"

# (owner, parameter) -> why it stays, though no call outside the tests
# sets it
KEPT = {
    ("dimers.matching_weight", "exact"): EXACT,
    ("doob.tilted_transfer", "exact"): EXACT,
    ("walks.lerw_exact_probability", "exact"): EXACT,
    ("nearcrit.exit_law_walk", "drifted"):
        "the killed walk's exit law, which the exact finite-delta "
        "oracles of the killed and drifted laws need",
    ("walks.wilson_sample", "order"): "Wilson's order invariance",
    ("walks.wilson_sample", "roots"): "trees rooted at given vertices",
    ("periodic.perron_search", "axis"): "the crossing along the j axis",
    ("dimers.check_kasteleyn_property", "phases"):
        "the negative control: phases that break the Kasteleyn property",
    ("planar.DoubleGraph.__init__", "r"): "the removed dual vertex",
    ("dimers.local_statistics", "Kinv"):
        "a dense inverse computed once for many queries, until the "
        "statistics read the forest potential instead",
    ("graphs.grid_graph", "c"): "the grid's conductance",
}

# (owner, parameter) -> the demo that sets it, the only caller outside
# the tests; the enumeration caps are handed on from `enumerate_cap`
DEMO_SET = {
    ("dimers.resolve_tree", "rng"): "04_temperley_dimers",
    ("doob.verify_partition_equality", "enumerate_cap"):
        "02_doob_transform",
    ("graphs.enumerate_forests", "cap"): "02_doob_transform",
    ("graphs.enumerate_trees_rooted_at", "cap"): "02_doob_transform",
    ("graphs.forest_partition_function", "cap"): "02_doob_transform",
    ("graphs.tree_partition_function", "cap"): "02_doob_transform",
    ("isoradial.drift_field_and_conductances", "ambient"):
        "03_elliptic_isoradial",
}


# definition -> why it stays, though nothing outside the tests reads it
KEPT_DEFINITIONS = {
    "dimers.self_duality_residuals":
        "the self-duality of the killed weights, whose check needs the "
        "double graph's faces matched to the isoradial dual, which the "
        "tests build",
    "dimers.recover_fields_from_weights":
        "the fields behind a killed weight system, whose check needs the "
        "spokes' ambient targets, which the tests read",
    "dimers.tree_weight":
        "the tree side of the weight identity of Temperley's bijection",
    "dimers.matching_weight":
        "the matching side of the weight identity of Temperley's bijection",
    "dimers.TemperleySampler.samples":
        "the per-sample dicts of `batches`, the sampler's public view",
    "dimers.local_statistics":
        "determinantal dimer statistics, until they read the forest "
        "potential",
    "doob.tilted_transfer":
        "the tilted transfer currents from the untilted potential",
    "graphs.WeightedGraph.total_conductance":
        "c(x) of one vertex, the public accessor beside `ck`",
    "io.save_periodic_graph":
        "the writer of the periodic graph files that `load_graph` reads",
    "walks.wilson_edge_marginals":
        "Wilson's empirical edge marginals against `edge_probability`",
}


def _defaults(fn, method):
    a = fn.args
    pos = a.posonlyargs + a.args
    pos = pos[1:] if method else pos
    named = [p.arg for p in pos[len(pos) - len(a.defaults):]] \
        if a.defaults else []
    named += [k.arg for k, v in zip(a.kwonlyargs, a.kw_defaults)
              if v is not None]
    return [p.arg for p in pos], named


def _owners():
    """name a call uses -> [(owner, positional names, defaulted names,
    public)] over every module-level function and class method."""
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                owners.setdefault(node.name, []).append(
                    (f"{path.stem}.{node.name}", *_defaults(node, False),
                     not node.name.startswith("_")))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    call = node.name if m.name == "__init__" else m.name
                    public = not node.name.startswith("_") and (
                        m.name == "__init__" or not m.name.startswith("_"))
                    owners.setdefault(call, []).append(
                        (f"{path.stem}.{node.name}.{m.name}",
                         *_defaults(m, True), public))
    return owners


def _calls(path):
    """(owner name, def, call) of every call in the file at `path`; the
    owner is the enclosing module-level function or method, or None."""
    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            inner, deeper = owner, prefix
            if isinstance(child, ast.ClassDef) and owner is None:
                deeper = f"{prefix}.{child.name}"
            elif isinstance(child, ast.FunctionDef) and owner is None:
                inner = (f"{prefix}.{child.name}", child)
            if isinstance(child, ast.Call):
                yield *(owner or (None, None)), child
            yield from visit(child, deeper, inner)

    yield from visit(ast.parse(path.read_text()), path.stem, None)


def _handed_on(owner, value):
    """The default-valued parameter of `owner` that `value` hands on
    unchanged, or None."""
    if owner is None or not isinstance(value, ast.Name):
        return None
    if value.id not in _defaults(owner, False)[1]:
        return None
    for node in ast.walk(owner):
        if isinstance(node, ast.Name) and node.id == value.id \
                and isinstance(node.ctx, ast.Store):
            return None
    return value.id


def unset_options(dirs):
    """Public (owner, parameter) pairs that no call under `dirs` sets."""
    owners = _owners()
    done, edges = set(), []
    files = [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
    for path in files:
        for encl_name, encl, call in _calls(path):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            for owner, pos, named, _ in owners.get(name, ()):
                passed = []  # (parameter, value)
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        passed += [(p, None) for p in pos[i:]]
                    elif i < len(pos):
                        passed.append((pos[i], arg))
                for kw in call.keywords:
                    passed += [(kw.arg, kw.value)] if kw.arg else \
                        [(p, None) for p in named]
                for param, value in passed:
                    source = _handed_on(encl, value)
                    if source is None:
                        done.add((owner, param))
                    else:
                        edges.append(((encl_name, source), (owner, param)))
    while True:  # a handed-on default is set where its source is
        more = {dst for src, dst in edges if src in done} - done
        if not more:
            break
        done |= more
    return {(owner, p) for entries in owners.values()
            for owner, _, named, public in entries if public
            for p in named} - done


def test_every_option_has_a_caller_or_a_reason():
    assert unset_options(["src", "bench", "demos"]) == set(KEPT)


def test_options_only_demos_set():
    assert unset_options(["src", "bench"]) - set(KEPT) == set(DEMO_SET)


def unread_definitions(dirs):
    """Module-level definitions and public methods of classes, as
    `module.name` or `module.Class.method`, whose name no name, attribute
    or import in a file under `dirs` reads."""
    read = set()
    for path in (p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and \
                    isinstance(node.ctx, ast.Load):
                read.add(getattr(node, "id", None) or node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not m.name.startswith("_")]
            unread |= {f"{path.stem}.{qual}" for qual, name in found
                       if name not in read}
    return unread


def test_every_definition_has_a_reader_or_a_reason():
    assert unread_definitions(["src", "bench", "demos"]) == \
        set(KEPT_DEFINITIONS)


def unused_imports(dirs):
    """`path: name` for each name an import binds in a file under `dirs`
    (`from __future__` aside) that no name in the file loads; `import a.b`
    binds `a`."""
    unused = set()
    for path in (p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and
                  isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused |= {f"{path.relative_to(ROOT)}: {name}"
                           for name in ((a.asname or a.name).split(".")[0]
                                        for a in node.names)
                           if name not in loaded}
    return unused


def test_no_unused_imports():
    assert unused_imports(["src", "tests", "demos"]) == set()
