import math
import warnings
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from massiveforests.dimers import (
    TemperleySampler,
    _float_ends,
    _log_det_relation_constant,
    _reference_tree,
    _temperley_map,
    _tilted_window,
    check_kasteleyn_property,
    drifted_weights,
    dual_operator,
    enumerate_matchings,
    height_function,
    kasteleyn_abs2_exact,
    kasteleyn_matrix,
    kasteleyn_phases,
    killed_drifted_gauge,
    killed_weights,
    local_statistics,
    matching_weight,
    partition_check,
    recover_fields_from_weights,
    reference_matching,
    resolve_tree,
    sample_matching,
    self_duality_residuals,
    temperley_forward,
    temperley_inverse,
    tree_weight,
    verify_block_identity,
    verify_det_relation,
)
from massiveforests.graphs import (
    collapse_boundary,
    enumerate_trees_rooted_at,
    wired_restriction,
)
from massiveforests.linalg import (
    _csc_from_triplets,
    assemble_massive_laplacian,
)
from massiveforests.walks import UniformReader, rng_stream, wilson_sample

from test_graphs import grid_graph
from test_planar import (
    ambient_ends,
    build_dual_and_double,
    white_dicts,
)


def window_setup(nx, ny, cols, rows, c=Fraction(1), mass=Fraction(0)):
    amb = grid_graph(nx, ny, c=c, m=mass)
    subset = [amb.positions.tolist().index([float(i), float(j)])
              for j in rows for i in cols]
    col = collapse_boundary(amb, subset)
    window = wired_restriction(amb, subset)
    _, dg = build_dual_and_double(col, amb.positions)
    return amb, col, window, dg


def window_adjacency(dg):
    """Window vertex -> [(adjacent vertex, white between them)] over the
    whites off o, in white order, read off the white table."""
    adj, t = {}, dg.white_table
    for w, (x, y) in enumerate(zip(t.x.tolist(), t.y.tolist())):
        if y != dg.col.o:
            adj.setdefault(x, []).append((y, w))
            adj.setdefault(y, []).append((x, w))
    return adj


def ones_lambda(amb):
    return {v: Fraction(1) for v in range(amb.n)}


def pow4_lambda(amb):
    # 4^(column index): massive harmonic on Z^2 with m = 9/4
    return {v: Fraction(4) ** int(round(amb.positions[v][0]))
            for v in range(amb.n)}


class TestPhases:
    def test_kasteleyn_property_all_quads(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        assert check_kasteleyn_property(dg) == []

    def test_larger_window(self):
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        assert check_kasteleyn_property(dg) == []

    def test_perturbed_assignment_rejected(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        phases = kasteleyn_phases(dg)
        phases[(0, 0)] = -phases[(0, 0)]
        assert len(check_kasteleyn_property(dg, phases)) > 0


class TestWeights:
    def test_trivial_killed_weights(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
        ws = killed_weights(dg, ones_lambda(amb), lam_star)
        for val in ws.values[dg.white_table.mask]:
            assert val == pytest.approx(1.0)

    def test_gauge_functions_reproduce_killed(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        lam_star = {f: 0.5 + 0.1 * f for f in range(len(dg.structure.faces))}
        wd = drifted_weights(dg, lam)
        wk = killed_weights(dg, lam, lam_star)
        phi, psi = killed_drifted_gauge(dg, lam, lam_star)
        for w in range(dg.n_white):
            for (b, kind, slot) in dg.white_neighbours(w):
                got = float(wk.weight(w, slot))
                expect = phi[w] * psi[b] * float(wd.weight(w, slot))
                assert got == pytest.approx(expect, rel=1e-12)


class TestWhiteEnds:
    def test_ambient_ends_read_through_spokes(self):
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        t = dg.white_table
        spokes = 0
        for info, ends in zip(white_dicts(dg), zip(t.ax, t.ay)):
            x, y, edge = info["x"], info["y"], info["edge"]
            if y == "o":
                spokes += 1
                assert ends == (col.ambient_ids[x], edge.ambient_target)
                assert edge.ambient_target not in col.ambient_ids
                assert edge.ambient_target in amb.neighbours(ends[0])
            else:
                assert ends == (col.ambient_ids[x], col.ambient_ids[y])
        # two spokes at each of the 4 corners, one at each of the 4 sides
        assert spokes == 12

    def test_window_adjacency_lists_each_window_edge_from_both_ends(self):
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        adj = window_adjacency(dg)
        infos = white_dicts(dg)
        visits = {}
        for x, row in adj.items():
            whites = [w for _, w in row]
            assert whites == sorted(whites)
            for y, w in row:
                info = infos[w]
                assert (info["x"], info["y"]) in ((x, y), (y, x))
                visits[w] = visits.get(w, 0) + 1
        off_o = [w for w, info in enumerate(infos) if info["y"] != "o"]
        assert len(off_o) == 12
        assert sorted(visits) == off_o
        assert set(visits.values()) == {2}


# -- the per-white loops that the white table replaced, as references ---------


def loop_ends(dg, lam):
    return [(info["edge"].cond, lam[ax], lam[ay])
            for info, (ax, ay) in zip(white_dicts(dg), ambient_ends(dg))]


def loop_drifted_weights(dg, lam):
    values = {}
    for w, (info, (c, lx, ly)) in enumerate(
            zip(white_dicts(dg), loop_ends(dg, lam))):
        values[(w, 0)] = c * ly / lx
        if info["y"] != "o":
            values[(w, 2)] = c * lx / ly
        one = Fraction(1) if isinstance(c, (int, Fraction)) else 1.0
        if info["left"] != dg.r:
            values[(w, 1)] = one
        if info["right"] != dg.r:
            values[(w, 3)] = one
    return values


def loop_killed_weights(dg, lam, lam_star):
    values = {}
    for w, (info, ends) in enumerate(zip(white_dicts(dg),
                                         loop_ends(dg, lam))):
        c, lx, ly = map(float, ends)
        root = math.sqrt(c * lx * ly)
        values[(w, 0)] = math.sqrt(c * ly / lx)
        if info["y"] != "o":
            values[(w, 2)] = math.sqrt(c * lx / ly)
        if info["left"] != dg.r:
            values[(w, 1)] = 1.0 / (float(lam_star[info["left"]]) * root)
        if info["right"] != dg.r:
            values[(w, 3)] = 1.0 / (float(lam_star[info["right"]]) * root)
    return values


def dual_slot(dg, f):
    """Face f's index among the kept dual vertices, r left out."""
    return f - (f > dg.r)


def face_black(dg, f):
    """Face f's black: the window vertices come first."""
    return dg.col.n + dual_slot(dg, f)


def loop_gauge(dg, lam, lam_star):
    phi = {}
    for w, ends in enumerate(loop_ends(dg, lam)):
        c, lx, ly = map(float, ends)
        phi[w] = 1.0 / math.sqrt(c * lx * ly)
    psi = {}
    for x in range(dg.col.n):
        psi[x] = float(lam[dg.col.ambient_ids[x]])
    for f in dg.dual_ids:
        psi[face_black(dg, f)] = 1.0 / float(lam_star[f])
    return phi, psi


def loop_white_neighbours(dg, info):
    out = [(info["x"], "primal", 0)]
    if info["left"] != dg.r:
        out.append((face_black(dg, info["left"]), "dual", 1))
    if info["y"] != "o":
        out.append((info["y"], "primal", 2))
    if info["right"] != dg.r:
        out.append((face_black(dg, info["right"]), "dual", 3))
    return out


def loop_kasteleyn(dg, values):
    whites, blacks, slots, nu = [], [], [], []
    for w, info in enumerate(white_dicts(dg)):
        for (b, _, slot) in loop_white_neighbours(dg, info):
            whites.append(w)
            blacks.append(b)
            slots.append(slot)
            nu.append(values[(w, slot)])
    K = np.zeros((dg.n_white, dg.n_black), dtype=complex)
    np.add.at(K, (whites, blacks),
              np.array([1, 1j, -1, -1j])[slots] * np.array(nu, dtype=float))
    return K


def loop_tilted_window(dg, lam):
    edges = []
    masses = [0.0] * dg.col.n
    for info, ends in zip(white_dicts(dg), loop_ends(dg, lam)):
        c, lx, ly = map(float, ends)
        x, y = info["x"], info["y"]
        if y == "o":
            masses[x] += c * ly / lx
        else:
            edges.append((x, y, c * ly / lx))
            edges.append((y, x, c * lx / ly))
    return edges, masses


def loop_dual_operator(dg, lam, lam_star):
    nd = len(dg.dual_ids)
    D = np.zeros((nd, nd))
    for info, ends in zip(white_dicts(dg), loop_ends(dg, lam)):
        c, lx, ly = map(float, ends)
        ctilde_star = 1.0 / (c * lx * ly)
        a, b = info["left"], info["right"]
        for f in (a, b):
            if f == dg.r:
                continue
            i = dual_slot(dg, f)
            D[i, i] += ctilde_star / float(lam_star[f]) ** 2
        if a != dg.r and b != dg.r and a != b:
            i, j = dual_slot(dg, a), dual_slot(dg, b)
            val = ctilde_star / (float(lam_star[a]) * float(lam_star[b]))
            D[i, j] -= val
            D[j, i] -= val
    return D


def loop_log_det_relation_constant(dg, lam, lam_star):
    col = dg.col
    logc = 0.0
    deg = [0] * col.n
    for info, ends in zip(white_dicts(dg), loop_ends(dg, lam)):
        c, _, ly = map(float, ends)
        logc -= 0.5 * math.log(c)
        deg[info["x"]] += 1
        if info["y"] == "o":
            logc -= 0.5 * math.log(ly)
        else:
            deg[info["y"]] += 1
    for x in range(col.n):
        lx = float(lam[col.ambient_ids[x]])
        logc += (1.0 - 0.5 * deg[x]) * math.log(lx)
    for f in dg.dual_ids:
        logc -= math.log(float(lam_star[f]))
    return logc


def loop_self_duality_residuals(dg, lam, lam_star):
    boundary = set(dg.structure.o_faces) | {dg.r}
    out = []
    for w, (info, ends) in enumerate(zip(white_dicts(dg),
                                         loop_ends(dg, lam))):
        if info["y"] == "o":
            continue
        if info["left"] in boundary or info["right"] in boundary:
            continue
        _, lx, ly = map(float, ends)
        ls1 = float(lam_star[info["left"]])
        ls2 = float(lam_star[info["right"]])
        out.append((w, abs(lx * ly * ls1 * ls2 - 1.0)))
    return out


def dual_block_vs_inverse_conductances(dg, lam_ambient, lam_star):
    """Off-diagonal of the dual block against -1/c_xy (self-dual form).

    Returns (max off-diagonal gap over interior dual pairs, implied dual
    masses); self-duality demands the masses be nonnegative (and ~0 at
    criticality).
    """
    t = dg.white_table
    D = dual_operator(dg, lam_ambient, lam_star)
    nd = len(dg.dual_ids)
    pair = t.mask[:, 1] & t.mask[:, 3] & (t.left != t.right)
    faces = t.black[pair][:, [1, 3]] - dg.col.n  # dual indices (a, b)
    inv_c = 1.0 / _float_ends(dg, lam_ambient)[0][pair]
    # 1/c at (a, b) and at (b, a) of each such white, in white order
    cstar = _csc_from_triplets(faces.ravel(), faces[:, ::-1].ravel(),
                               np.repeat(inv_c, 2), (nd, nd))
    gap = (D + cstar).tocoo()
    interior = ~np.isin(dg.dual_ids, dg.structure.o_faces)
    inside = interior[gap.row] & interior[gap.col] & (gap.row != gap.col)
    off_gap = float(np.max(np.abs(gap.data[inside]), initial=0.0))
    return off_gap, D.diagonal() - np.asarray(cstar.sum(axis=1)).ravel()


def loop_dual_block_vs_inverse_conductances(dg, lam, lam_star):
    D = loop_dual_operator(dg, lam, lam_star)
    nd = len(dg.dual_ids)
    boundary = set(dg.structure.o_faces) | {dg.r}
    keep = {dual_slot(dg, f) for f in dg.dual_ids if f not in boundary}
    cstar = np.zeros((nd, nd))
    for w, info in enumerate(white_dicts(dg)):
        a, b = info["left"], info["right"]
        if a == dg.r or b == dg.r or a == b:
            continue
        i, j = dual_slot(dg, a), dual_slot(dg, b)
        cstar[i, j] += 1.0 / float(info["edge"].cond)
        cstar[j, i] += 1.0 / float(info["edge"].cond)
    off_gap = 0.0
    for i in keep:
        for j in keep:
            if i != j and cstar[i, j] > 0:
                off_gap = max(off_gap, abs(-D[i, j] - cstar[i, j]))
    masses = np.array([D[i, i] - cstar[i].sum() for i in range(nd)])
    return off_gap, masses


def loop_block_gaps(dg, lam, lam_star, window):
    K = loop_kasteleyn(dg, loop_killed_weights(dg, lam, lam_star))
    A = K.conj().T @ K
    n = dg.col.n
    off = max(float(np.max(np.abs(A[:n, n:]))),
              float(np.max(np.abs(A[n:, :n]))))
    diff = A[:n, :n].real - assemble_massive_laplacian(window).toarray()
    v_offdiag = float(np.max(np.abs(diff - np.diag(np.diag(diff)))))
    v_diag_defect = float(np.max(np.abs(np.diag(diff))))
    dual_ref = loop_dual_operator(dg, lam, lam_star)
    dual_dev = float(np.max(np.abs(A[n:, n:].real - dual_ref)))
    return off, v_offdiag, dual_dev, v_diag_defect


def isoradial_window(kind, k=0.45, size=10, margin=1.5):
    """Z-invariant window with the discrete exponential at u = 0.9."""
    from massiveforests.elliptic import complete_integrals
    from massiveforests.isoradial import (
        build_rhombic_grid,
        build_square_grid,
        discrete_exponential,
        random_rhombic_angles,
        z_invariant_weights,
    )

    mod = complete_integrals(k)
    if kind == "square":
        grid = build_square_grid(0.5, size)
    else:
        angles = random_rhombic_angles(np.random.default_rng(70), size)
        grid = build_rhombic_grid(0.5, *angles)
    ambient = z_invariant_weights(grid, mod)
    cx, cy = grid.positions.mean(axis=0)
    bulk = set(grid.bulk_vertices())
    subset = [v for v in grid.rectangle_window(cx - margin, cx + margin,
                                               cy - margin, cy + margin)
              if v in bulk]
    col = collapse_boundary(ambient, subset)
    window = wired_restriction(ambient, subset)
    _, dg = build_dual_and_double(col, ambient.positions)
    return dg, window, discrete_exponential(grid, mod, 0.9).primal


def table_case(name):
    """(double graph, wired window, lambda, lambda*) of a reference case."""
    if name == "unit-grid":
        amb, col, window, dg = window_setup(8, 8, range(1, 7), range(1, 7),
                                            mass=Fraction(9, 4))
        lam, seed = pow4_lambda(amb), 71
    elif name == "sparse-kasteleyn":  # the old sparse-against-dense case
        amb, col, window, dg = window_setup(5, 4, [1, 2, 3], [1, 2],
                                            mass=Fraction(9, 4))
        lam, seed = pow4_lambda(amb), 45
    else:
        dg, window, lam = isoradial_window(name.split("-")[0])
        seed = 72
    rng = np.random.default_rng(seed)
    lam_star = {f: float(rng.uniform(0.5, 2.0))
                for f in range(len(dg.structure.faces))}
    return dg, window, lam, lam_star


def assert_weights_equal(dg, ws, reference):
    mask = dg.white_table.mask
    assert set(zip(*np.nonzero(mask))) == set(reference)
    assert not ws.values[~mask].any()
    for (w, slot), value in reference.items():
        got = ws.weight(w, slot)
        assert got == value
        assert isinstance(got, Fraction) == isinstance(value, Fraction)


def close(a, b):
    return a == pytest.approx(b, rel=1e-14, abs=0.0)


class TestWhiteTable:
    @pytest.mark.parametrize("name", ["unit-grid", "sparse-kasteleyn",
                                      "square-zinvariant",
                                      "rhombic-zinvariant"])
    def test_matches_loop_reference(self, name):
        dg, window, lam, lam_star = table_case(name)
        lam_float = {v: float(lam[v]) for v in range(len(lam))} \
            if isinstance(lam, dict) else lam

        for w, info in enumerate(white_dicts(dg)):
            assert dg.white_neighbours(w) == loop_white_neighbours(dg, info)
        drifted = loop_drifted_weights(dg, lam)
        assert_weights_equal(dg, drifted_weights(dg, lam), drifted)
        assert_weights_equal(dg, drifted_weights(dg, lam_float),
                             loop_drifted_weights(dg, lam_float))
        killed = loop_killed_weights(dg, lam, lam_star)
        assert_weights_equal(dg, killed_weights(dg, lam, lam_star), killed)

        for ws, values in ((drifted_weights(dg, lam), drifted),
                           (killed_weights(dg, lam, lam_star), killed)):
            K = kasteleyn_matrix(dg, ws)
            assert K.format == "csc"
            assert np.array_equal(K.toarray(), loop_kasteleyn(dg, values))

        D = dual_operator(dg, lam, lam_star)
        assert D.format == "csc"
        assert np.array_equal(D.toarray(), loop_dual_operator(dg, lam,
                                                              lam_star))

        phi, psi = killed_drifted_gauge(dg, lam, lam_star)
        ref_phi, ref_psi = loop_gauge(dg, lam, lam_star)
        assert phi.tolist() == [ref_phi[w] for w in range(dg.n_white)]
        assert psi.tolist() == [ref_psi[b] for b in range(dg.n_black)]

        tw = _tilted_window(dg, lam)
        edges, masses = loop_tilted_window(dg, lam)
        assert list(zip(tw.tail.tolist(), tw.head.tolist(),
                        tw.cond.tolist())) == edges
        assert tw.masses.tolist() == masses
        assert tw.cond.dtype == tw.masses.dtype == np.float64
        assert {type(v) for v in tw.cond.tolist() + tw.masses.tolist()} \
            == {float}
        assert np.array_equal(tw.positions, dg.col.positions)

        assert self_duality_residuals(dg, lam, lam_star) == \
            loop_self_duality_residuals(dg, lam, lam_star)

        # C is the exp of a sum of logs over whites, vertices and faces, so
        # the sums compare within 1e-14: one ulp of log C = -241.3 on the
        # unit grid is already 2.8e-14 of C
        assert close(_log_det_relation_constant(dg, lam, lam_star),
                     loop_log_det_relation_constant(dg, lam, lam_star))
        off_gap, masses = dual_block_vs_inverse_conductances(dg, lam,
                                                             lam_star)
        ref_gap, ref_masses = loop_dual_block_vs_inverse_conductances(
            dg, lam, lam_star)
        assert close(off_gap, ref_gap)
        assert all(map(close, masses, ref_masses))
        gaps = verify_block_identity(dg, lam, lam_star, window)
        assert all(map(close, gaps,
                       loop_block_gaps(dg, lam, lam_star, window)))


class TestPartitionFunction:
    def test_single_white_toy(self):
        # degenerate 1-vertex window: unique matching
        from massiveforests.graphs import symmetric_graph
        amb = symmetric_graph(2, [(0, 1, Fraction(1))], [0, 0],
                              positions=[(0, 0), (1, 0)])
        col = collapse_boundary(amb, [0])
        _, dg = build_dual_and_double(col, amb.positions)
        ws = drifted_weights(dg, ones_lambda(amb))
        det, z, gap = partition_check(dg, ws, exact=True)
        assert z == 1 and gap == 0

    def test_2x2_block_exact_and_float(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        ws = drifted_weights(dg, ones_lambda(amb))
        det, z, gap = partition_check(dg, ws, exact=True)
        assert gap == 0
        # the partition function equals the tree count of G^o at o
        from massiveforests.graphs import tree_partition_function
        go = col.as_weighted_graph()
        assert z == tree_partition_function(go, col.o)
        detf, zf, gapf = partition_check(dg, ws)
        assert gapf <= 1e-10

    def test_tilted_exact(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        ws = drifted_weights(dg, pow4_lambda(amb))
        det, z, gap = partition_check(dg, ws, exact=True)
        assert gap == 0

    def test_all_ones_counts_matchings(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        ws = drifted_weights(dg, ones_lambda(amb))
        # weights are already all ones here (c = 1, lambda = 1)
        matchings = enumerate_matchings(dg, ws, exact=True)
        det, z, gap = partition_check(dg, ws, exact=True)
        assert z == len(matchings)

    def test_forest_tree_dimer_chain(self):
        # Z_RSF(window) = Z_RST(G^o, c~) = Z_dim(drifted) with harmonic lam
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        from massiveforests.linalg import (
            assemble_massive_laplacian_exact,
            determinant_exact,
        )
        z_forest = determinant_exact(assemble_massive_laplacian_exact(window))
        ws = drifted_weights(dg, lam)
        det, z_dim, gap = partition_check(dg, ws, exact=True)
        assert gap == 0
        assert z_dim == z_forest

    @pytest.mark.parametrize("exact", [True, False])
    def test_unbalanced_double_graph_refused(self, exact):
        # the whole 3x3 grid as the window: 12 whites against 13 blacks
        amb = grid_graph(3, 3)
        col = collapse_boundary(amb, range(9))
        _, dg = build_dual_and_double(col, amb.positions)
        assert (dg.n_white, dg.n_black) == (12, 13)
        ws = drifted_weights(dg, ones_lambda(amb))
        with pytest.raises(ValueError, match="must be square"):
            partition_check(dg, ws, exact=exact)

    def test_exact_abs2_past_enumeration_cap(self):
        # 24 whites: no enumeration oracle, so check against the float det
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3],
                                            mass=Fraction(9, 4))
        assert dg.n_white == 24
        ws = drifted_weights(dg, pow4_lambda(amb))
        det2 = kasteleyn_abs2_exact(dg, ws)
        assert isinstance(det2, Fraction)
        ref = abs(np.linalg.det(kasteleyn_matrix(dg, ws).toarray())) ** 2
        assert float(det2) == pytest.approx(ref, rel=1e-12)


class TestTemperley:
    def test_round_trip_on_wilson_samples(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        rng = rng_stream(31)
        from massiveforests.dimers import _tilted_window
        lam = ones_lambda(amb)
        tw = _tilted_window(dg, lam)
        for _ in range(300):
            forest = wilson_sample(tw, rng)
            tree = resolve_tree(dg, forest.outgoing, rng=rng)
            matching, dual_tree = temperley_forward(dg, tree)
            tree2, dual2 = temperley_inverse(dg, matching)
            assert tree2 == tree
            assert dual2 == dual_tree

    def test_weight_preservation_exact(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        ws = drifted_weights(dg, lam)
        from massiveforests.dimers import _tilted_window
        tw = _tilted_window(dg, lam)
        rng = rng_stream(32)
        for _ in range(100):
            forest = wilson_sample(tw, rng)
            tree = resolve_tree(dg, forest.outgoing, rng=rng)
            matching, _ = temperley_forward(dg, tree)
            wt_tree = tree_weight(dg, tree, lam)
            wt_match = matching_weight(dg, ws, matching, exact=True)
            assert Fraction(wt_tree) == wt_match

    def test_inverse_refuses_half_edges_off_the_double_graph(self, tmp_path):
        # a sample on the CLI's dimer grid: white 40 is a spoke matched to
        # the face on its right, and its left slot faces the removed face r
        from massiveforests.cli import main
        from massiveforests.dimers import TemperleySampler
        from massiveforests.io import load_graph
        from massiveforests.isoradial import drift_field_from_rays
        from massiveforests.nearcrit import near_critical_modulus

        gpath = str(tmp_path / "grid.json")
        assert main(["grid", "--delta", "0.125", "--window", "8", "--M",
                     "1.0", "--out", gpath]) == 0
        g = load_graph(gpath)
        bulk, lam = drift_field_from_rays(
            g, near_critical_modulus(1, 0.125), 0.5)
        sampler = TemperleySampler.on_window(g, bulk, lam)
        dg, t = sampler.dg, sampler.dg.white_table
        m = sampler.sample(rng_stream(1, 0))
        assert m[40] == (t.black[40, 3], 3) and t.left[40] == dg.r
        tree, dual_tree = temperley_inverse(dg, m)
        assert temperley_forward(dg, tree) == (m, dual_tree)
        for moved, match in [
                ((dg.n_black, 1), "not in the double graph"),  # faces r
                ((t.black[40, 0], 3), "not in the double graph"),
                ((t.black[40, 3], -1), "not in the double graph"),
                ((t.black[40, 0], 0), "each black exactly once")]:
            with pytest.raises(ValueError, match=match):
                temperley_inverse(dg, {**m, 40: moved})

    def test_single_edge_window_bijection(self):
        amb, col, window, dg = window_setup(4, 3, [1, 2], [1])
        ws = drifted_weights(dg, ones_lambda(amb))
        matchings = enumerate_matchings(dg, ws, exact=True)
        go = col.as_weighted_graph()
        trees = enumerate_trees_rooted_at(go, col.o)
        # parallel spokes are separate whites, so matchings refine trees
        assert len(matchings) >= len(trees)
        z_match = sum((w for _, w in matchings), Fraction(0))
        z_tree = sum((w for _, w in trees), Fraction(0))
        assert z_match == z_tree


class TestLocalStatistics:
    def test_matches_enumeration(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        ws = drifted_weights(dg, ones_lambda(amb))
        K = kasteleyn_matrix(dg, ws).toarray()
        Kinv = np.linalg.inv(K)
        matchings = enumerate_matchings(dg, ws, exact=True)
        Z = sum((w for _, w in matchings), Fraction(0))
        # single half-edge probabilities
        for w in range(dg.n_white):
            for (b, kind, slot) in dg.white_neighbours(w):
                num = sum((wt for m, wt in matchings if m[w][0] == b),
                          Fraction(0))
                p = local_statistics(dg, K, [(w, b)], Kinv=Kinv)
                assert p == pytest.approx(float(num / Z), abs=1e-10)

    def test_pair_statistics(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        ws = drifted_weights(dg, ones_lambda(amb))
        K = kasteleyn_matrix(dg, ws).toarray()
        Kinv = np.linalg.inv(K)
        matchings = enumerate_matchings(dg, ws, exact=True)
        Z = sum((w for _, w in matchings), Fraction(0))
        pairs = [((0, dg.white_neighbours(0)[0][0]),
                  (3, dg.white_neighbours(3)[0][0])),
                 ((1, dg.white_neighbours(1)[-1][0]),
                  (2, dg.white_neighbours(2)[0][0]))]
        for (e1, e2) in pairs:
            num = sum((wt for m, wt in matchings
                       if m[e1[0]][0] == e1[1] and m[e2[0]][0] == e2[1]),
                      Fraction(0))
            p = local_statistics(dg, K, [e1, e2], Kinv=Kinv)
            assert p == pytest.approx(float(num / Z), abs=1e-10)

    def test_partition_of_unity_at_white(self):
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        ws = drifted_weights(dg, ones_lambda(amb))
        K = kasteleyn_matrix(dg, ws).toarray()
        Kinv = np.linalg.inv(K)
        w = dg.n_white // 2
        total = sum(local_statistics(dg, K, [(w, b)], Kinv=Kinv)
                    for (b, _, _) in dg.white_neighbours(w))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_gauge_preserves_local_statistics(self):
        # probabilities from K^d and K^k agree: gauge equivalence
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        rng = np.random.default_rng(44)
        lam_star = {f: float(rng.uniform(0.5, 2.0))
                    for f in range(len(dg.structure.faces))}
        Kd = kasteleyn_matrix(dg, drifted_weights(dg, lam)).toarray()
        Kk = kasteleyn_matrix(dg, killed_weights(dg, lam, lam_star)).toarray()
        Kd_inv, Kk_inv = np.linalg.inv(Kd), np.linalg.inv(Kk)
        for w in range(dg.n_white):
            for (b, kind, slot) in dg.white_neighbours(w):
                pd = local_statistics(dg, Kd, [(w, b)], Kinv=Kd_inv)
                pk = local_statistics(dg, Kk, [(w, b)], Kinv=Kk_inv)
                assert abs(pd - pk) <= 1e-10

    def test_tree_probability_consistency(self):
        # P(tree edge) via tilted transfer = P(half-edge) via K^{-1}
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        ws = drifted_weights(dg, lam)
        K = kasteleyn_matrix(dg, ws).toarray()
        Kinv = np.linalg.inv(K)
        from massiveforests.doob import tilted_transfer
        lam_w = {i: lam[v] for i, v in enumerate(col.ambient_ids)}
        entry = tilted_transfer(window, lam_w, exact=True)
        for w, info in enumerate(white_dicts(dg)):
            if info["y"] == "o" or info["x"] == "o":
                continue
            x, y = info["x"], info["y"]
            e = (x, y)
            ctilde = Fraction(window.edge_conductance(x, y)) * \
                lam_w[y] / lam_w[x]
            p_tree = float(entry(e, e) * ctilde)
            p_dimer = local_statistics(dg, K, [(w, x)], Kinv=Kinv)
            assert abs(p_tree - p_dimer) <= 1e-10


class TestBlockIdentity:
    def test_off_blocks_vanish_for_random_fields(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(1, 3))
        rng = np.random.default_rng(40)
        lam = {v: float(rng.uniform(0.5, 2.0)) for v in range(amb.n)}
        lam_star = {f: float(rng.uniform(0.5, 2.0))
                    for f in range(len(dg.structure.faces))}
        off, v_off, dual_dev, v_diag = verify_block_identity(
            dg, lam, lam_star, window)
        assert off <= 1e-12
        assert v_off <= 1e-12      # off-diagonal V-block: any lambda
        assert dual_dev <= 1e-12   # dual block: any lambda*
        assert v_diag > 1e-6       # random lambda is not harmonic

    def test_full_identity_with_harmonic_lambda(self):
        amb, col, window, dg = window_setup(5, 4, [1, 2, 3], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
        off, v_off, dual_dev, v_diag = verify_block_identity(
            dg, lam, lam_star, window)
        assert off <= 1e-12
        assert v_off <= 1e-12
        assert dual_dev <= 1e-12
        assert v_diag <= 1e-10

    def test_unit_dual_field_gives_dual_laplacian(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        lam = ones_lambda(amb)
        lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
        from massiveforests.dimers import dual_operator
        D = dual_operator(dg, lam, lam_star)
        # with c = 1, lambda = 1: ctilde* = 1; diagonal counts incidences,
        # off-diagonal counts shared edges between kept faces
        for i in range(len(dg.dual_ids)):
            assert D[i, i] >= -sum(D[i, j] for j in range(len(dg.dual_ids))
                                   if j != i)

    def test_reciprocal_recovery(self):
        amb, col, window, dg = window_setup(5, 4, [1, 2, 3], [1, 2],
                                            mass=Fraction(9, 4))
        lam = {v: float(val) for v, val in pow4_lambda(amb).items()}
        rng = np.random.default_rng(41)
        lam_star = {f: float(rng.uniform(0.5, 2.0))
                    for f in range(len(dg.structure.faces))}
        ws = killed_weights(dg, lam, lam_star)
        lam_rec, lam_star_rec = recover_fields_from_weights(dg, ws)
        # recovered fields reproduce the weights exactly up to gauge: the
        # rebuilt weight system must match entrywise after normalization
        lam_full = {}
        for x, val in lam_rec.items():
            lam_full[col.ambient_ids[x]] = val
        # boundary targets: recover from spoke weights
        for w, info in enumerate(white_dicts(dg)):
            if info["y"] == "o":
                x = info["x"]
                c = float(info["edge"].cond)
                nu = float(ws.weight(w, 0))
                lam_full[info["edge"].ambient_target] = \
                    nu**2 * lam_rec[x] / c
        ws2 = killed_weights(dg, lam_full, lam_star_rec)
        for key in zip(*np.nonzero(dg.white_table.mask)):
            assert float(ws2.weight(*key)) == pytest.approx(
                float(ws.weight(*key)), rel=1e-9)


class TestDetRelation:
    def test_trivial_weights(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        lam = ones_lambda(amb)
        lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
        detK, rhs, gap = verify_det_relation(dg, lam, lam_star, window)
        assert gap <= 1e-10

    def test_harmonic_exponential_window(self):
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        rng = np.random.default_rng(43)
        lam_star = {f: float(rng.uniform(0.5, 2.0))
                    for f in range(len(dg.structure.faces))}
        detK, rhs, gap = verify_det_relation(dg, lam, lam_star, window)
        assert gap <= 1e-8

    def test_rational_2x2_window(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                            mass=Fraction(9, 4))
        lam = pow4_lambda(amb)
        lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
        detK, rhs, gap = verify_det_relation(dg, lam, lam_star, window)
        assert gap <= 1e-12

    def test_finite_gap_on_large_window(self):
        # both determinants overflow float64 on this 676-vertex window
        amb, col, window, dg = window_setup(28, 28, range(1, 27),
                                            range(1, 27))
        lam = ones_lambda(amb)
        lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_det_k, log_rhs, gap = verify_det_relation(dg, lam, lam_star,
                                                          window)
        assert np.isfinite(log_det_k) and log_det_k > 709.8  # > log(max float)
        assert gap <= 1e-10


class TestSelfDuality:
    def grid_window_isoradial(self, k_or_mod, size=10, margin=1.1):
        from massiveforests.elliptic import complete_integrals
        from massiveforests.isoradial import (
            build_square_grid,
            discrete_exponential,
            z_invariant_weights,
        )
        mod = complete_integrals(k_or_mod) if isinstance(k_or_mod, float) \
            else k_or_mod
        grid = build_square_grid(0.5, size)
        ambient = z_invariant_weights(grid, mod)
        cx = grid.positions[:, 0].mean()
        cy = grid.positions[:, 1].mean()
        bulk = set(grid.bulk_vertices())
        subset = [v for v in grid.rectangle_window(cx - margin, cx + margin,
                                                   cy - margin, cy + margin)
                  if v in bulk]
        col = collapse_boundary(ambient, subset)
        window = wired_restriction(ambient, subset)
        _, dg = build_dual_and_double(col, ambient.positions)
        field = discrete_exponential(grid, mod, 0.9)
        return grid, ambient, col, window, dg, field

    def match_faces(self, dg, grid, col):
        """face id -> grid dual id for interior faces, by edge crossing."""
        boundary = set(dg.structure.o_faces)
        edge_lookup = {}
        for eid in range(grid.m_edges):
            a, b = grid.edge_tail[eid], grid.edge_head[eid]
            edge_lookup[(min(a, b), max(a, b))] = eid
        out = {}
        for w, info in enumerate(white_dicts(dg)):
            if info["y"] == "o":
                continue
            a1 = col.ambient_ids[info["x"]]
            a2 = col.ambient_ids[info["y"]]
            eid = edge_lookup[(min(a1, a2), max(a1, a2))]
            d1, d2 = grid.edge_duals[eid]
            # left dual: positive cross product with the canonical direction
            px = grid.positions[a1]
            py = grid.positions[a2]
            for d in (d1, d2):
                pd = grid.dual_positions[d]
                cross = ((py[0] - px[0]) * (pd[1] - px[1])
                         - (py[1] - px[1]) * (pd[0] - px[0]))
                side = "left" if cross > 0 else "right"
                fid = info[side]
                if fid in boundary:
                    continue  # merged boundary face, no single lattice dual
                if fid in out:
                    assert out[fid] == d
                else:
                    out[fid] = d
        return out

    def test_critical_self_duality(self):
        grid, ambient, col, window, dg, field = \
            self.grid_window_isoradial(0.0)
        face_map = self.match_faces(dg, grid, col)
        lam = field.primal
        lam_star = {f: (field.dual[face_map[f]] if f in face_map else 1.0)
                    for f in range(len(dg.structure.faces))}
        res = self_duality_residuals(dg, lam, lam_star)
        assert res and max(r for _, r in res) <= 1e-10

    def test_zinvariant_self_duality(self):
        from massiveforests.elliptic import complete_integrals
        grid, ambient, col, window, dg, field = \
            self.grid_window_isoradial(0.45)
        face_map = self.match_faces(dg, grid, col)
        lam = field.primal
        lam_star = {f: (field.dual[face_map[f]] if f in face_map else 1.0)
                    for f in range(len(dg.structure.faces))}
        res = self_duality_residuals(dg, lam, lam_star)
        assert res and max(r for _, r in res) <= 1e-10
        off_gap, masses = dual_block_vs_inverse_conductances(
            dg, lam, lam_star)
        interior = [dual_slot(dg, f) for f in face_map if f != dg.r]
        assert off_gap <= 1e-10
        assert all(masses[i] > -1e-12 for i in interior)

    def test_perturbed_dual_field_detected(self):
        grid, ambient, col, window, dg, field = \
            self.grid_window_isoradial(0.45)
        face_map = self.match_faces(dg, grid, col)
        lam_star = {f: (field.dual[face_map[f]] if f in face_map else 1.0)
                    for f in range(len(dg.structure.faces))}
        some_interior = next(iter(face_map))
        lam_star[some_interior] *= 1.01
        res = self_duality_residuals(dg, field.primal, lam_star)
        assert max(r for _, r in res) > 1e-3

    def test_block_identity_isoradial(self):
        grid, ambient, col, window, dg, field = \
            self.grid_window_isoradial(0.3)
        face_map = self.match_faces(dg, grid, col)
        lam_star = {f: (field.dual[face_map[f]] if f in face_map else 1.0)
                    for f in range(len(dg.structure.faces))}
        off, v_off, dual_dev, v_diag = verify_block_identity(
            dg, field.primal, lam_star, window)
        assert off <= 1e-12
        assert v_off <= 1e-12
        assert dual_dev <= 1e-12
        assert v_diag <= 1e-10


class TestSamplingAndHeights:
    def test_sampled_frequencies_match_local_statistics(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        lam = ones_lambda(amb)
        ws = drifted_weights(dg, lam)
        K = kasteleyn_matrix(dg, ws).toarray()
        Kinv = np.linalg.inv(K)
        rng = rng_stream(50)
        n = 20000
        counts = {}
        for _ in range(n):
            m = sample_matching(dg, lam, rng)
            for w, (b, slot) in m.items():
                counts[(w, b)] = counts.get((w, b), 0) + 1
        for (w, b), cnt in counts.items():
            p = local_statistics(dg, K, [(w, b)], Kinv=Kinv)
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / n)
            assert abs(cnt / n - p) <= 4 * sigma + 1e-9

    def test_heights_curl_free_and_integer(self):
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        lam = ones_lambda(amb)
        rng = rng_stream(51)
        ref = reference_matching(dg)
        for _ in range(50):
            m = sample_matching(dg, lam, rng)
            h = height_function(dg, m, reference=ref)  # raises on curl
            for v in h.values():
                assert v == pytest.approx(round(v))

    def test_mean_height_difference_vs_inverse_kasteleyn(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        lam = ones_lambda(amb)
        ws = drifted_weights(dg, lam)
        K = kasteleyn_matrix(dg, ws).toarray()
        Kinv = np.linalg.inv(K)
        ref = reference_matching(dg)
        rng = rng_stream(52)
        n = 4000
        sums = {}
        quads = None
        for _ in range(n):
            m = sample_matching(dg, lam, rng)
            h = height_function(dg, m, reference=ref)
            if quads is None:
                quads = sorted(h.keys())
            for q in quads:
                sums[q] = sums.get(q, 0.0) + h[q]
        # expected height: E[h] computed edge by edge along a quad path is
        # heavy; instead check the sampled mean of h at each quad against a
        # second independent run within combined error
        rng2 = rng_stream(53)
        sums2 = {q: 0.0 for q in quads}
        for _ in range(n):
            m = sample_matching(dg, lam, rng2)
            h = height_function(dg, m, reference=ref)
            for q in quads:
                sums2[q] += h[q]
        for q in quads:
            a, b = sums[q] / n, sums2[q] / n
            assert abs(a - b) < 6 * math.sqrt(2.0 / n) + 5e-2


class TestTemperleySampler:
    @pytest.mark.parametrize("field", ["float", "pow4"])
    def test_draw_order_matches_step_by_step_pipeline(self, field):
        from massiveforests.dimers import TemperleySampler, _tilted_window

        if field == "float":
            amb, col, window, dg = window_setup(5, 4, [1, 2, 3], [1, 2])
            lam = {v: 1.5 ** amb.positions[v][0] for v in range(amb.n)}
        else:
            amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2],
                                                mass=Fraction(9, 4))
            lam = pow4_lambda(amb)
        sampler = TemperleySampler(dg, lam)
        rng = rng_stream(60)
        drawn = [sampler.sample(rng) for _ in range(50)]
        # corner vertices have parallel spokes, so rng.choice was exercised
        assert sampler.laws
        rng = rng_stream(60)
        tw = _tilted_window(dg, lam)
        for m in drawn:
            forest = wilson_sample(tw, rng)
            tree = resolve_tree(dg, forest.outgoing, rng=rng)
            assert temperley_forward(dg, tree)[0] == m

    def test_samples_split_into_tasks(self):
        from massiveforests.dimers import TemperleySampler

        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        sampler = TemperleySampler(dg, ones_lambda(amb))
        pairs = list(sampler.samples(258, 9))
        assert len(pairs) == 258
        ref = reference_matching(dg)
        for i, task, k in ((0, 0, 0), (255, 0, 255), (256, 1, 0),
                           (257, 1, 1)):
            rng = rng_stream(9, task)
            for _ in range(k + 1):
                m = sampler.sample(rng)
            assert pairs[i][0] == m
            assert pairs[i][1] == height_function(dg, m, ref)

    def test_samples_past_task_range_refused_on_call(self, monkeypatch):
        # 2**16 task streams of 256 matchings hold 2**24 matchings
        from massiveforests.dimers import TemperleySampler

        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        sampler = TemperleySampler(dg, ones_lambda(amb))

        def draw(reader):
            raise AssertionError("a matching was drawn")

        monkeypatch.setattr(sampler, "_draw", draw)
        with pytest.raises(ValueError, match="^n = 16777217 is past the "
                                             "limit 16777216: "):
            sampler.samples(2**24 + 1, 9)

    def test_seeded_heights(self):
        # pinned to recorded values; the window's corners have parallel
        # spokes, and 258 samples span two tasks
        from massiveforests.dimers import TemperleySampler

        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3],
                                            mass=Fraction(9, 4))
        sampler = TemperleySampler(dg, pow4_lambda(amb))
        heights = [[h[q] for q in sorted(h)]
                   for _, h in sampler.samples(258, 11)]
        assert np.sum(heights, axis=0).tolist() == [
            0, 52, 21, 54, 88, 257, 54, -168, 52, 14, 54, 53, 100, 54, 90, 53]
        assert heights[0] == [0, 0, 0, 0, 0, 1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0]
        assert heights[255] == [0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0,
                                0]
        assert heights[256] == [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                0]
        assert heights[257] == [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0,
                                0]

    def test_spoke_cdf_reads_like_rng_choice(self):
        # each law picks the index rng.choice picks and leaves the stream
        # where rng.choice leaves it
        from massiveforests.planar import _choice_cdf
        from massiveforests.walks import UniformReader

        laws = np.random.default_rng(62)
        for i in range(2000):
            k = int(laws.integers(2, 7))
            weights = laws.uniform(0.01, 3.0, k) ** 3
            p = weights / weights.sum()
            cdf = _choice_cdf(weights)
            rng, rng_ref = rng_stream(63, i), rng_stream(63, i)
            reader = UniformReader(rng, shared=True)
            picks = [bisect_right(cdf, reader.next()) for _ in range(50)]
            reader.hand_back()
            assert picks == [int(rng_ref.choice(k, p=p)) for _ in range(50)]
            assert rng.random() == rng_ref.random()

    def test_heights_match_loop_reference(self):
        # the flow of each adjacency from the per-white dictionary rule,
        # summed along the same spanning tree
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        adj = dg.quad_adjacency
        ref = reference_matching(dg)
        rng = rng_stream(61)
        for _ in range(30):
            m = sample_matching(dg, ones_lambda(amb), rng)
            flow = {}
            for w in range(dg.n_white):
                if ref[w][0] != m[w][0]:
                    flow[(w, ref[w][0])] = 1
                    flow[(w, m[w][0])] = -1
            values = {0: 0.0}
            for j, i, e in adj.tree:
                values[j] = values[i] + adj.sign[e] * flow.get(
                    (adj.white[e], adj.black[e]), 0)
            expected = {adj.quads[k]: v for k, v in values.items()}
            assert height_function(dg, m, ref) == expected

    def test_height_detects_every_unbalanced_black(self):
        # rewiring one white leaves a unit source and sink at two blacks;
        # the heights must refuse it exactly when one of them is ringed by
        # interior quads, whose loop around it then has curl
        amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3])
        ref = reference_matching(dg)
        assert set(height_function(dg, ref, ref).values()) == {0.0}
        outer = set(dg.structure.o_faces) | {dg.r}
        corners, faces, s = {}, {}, dg.structure
        # the corner and face of every half along the face walks, o and r
        # included
        for c, f in zip(s.tail[s.walk ^ 1].tolist(), s.face[s.walk].tolist()):
            faces.setdefault(c, set()).add(f)
            corners.setdefault(f, set()).add(c)
        ringed = {x for x in range(col.n)
                  if not faces[x] & outer}
        ringed |= {face_black(dg, f) for f in dg.dual_ids
                   if f not in outer and col.o not in corners[f]}
        refused = 0
        for w in range(dg.n_white):
            for (b, _, slot) in dg.white_neighbours(w):
                if b == ref[w][0]:
                    continue
                bad = dict(ref)
                bad[w] = (b, slot)
                if b in ringed or ref[w][0] in ringed:
                    refused += 1
                    with pytest.raises(ValueError, match="curl"):
                        height_function(dg, bad, ref)
                else:
                    height_function(dg, bad, ref)
        assert refused > 0


def dfs_temperley_forward(dg, tree_whites):
    """Temperley's bijection one sample at a time: a depth-first search
    from r over the dual edges of the unused whites (the per-sample
    reference for the batched map)."""
    t, n = dg.white_table, dg.col.n
    whites = np.array([tree_whites[x] for x in range(n)], dtype=np.int64)
    xs = np.arange(n)
    at_x = t.x[whites] == xs
    if not np.all(at_x | (t.y[whites] == xs)):
        raise ValueError("tree edge does not start at its vertex")
    matching = dict(zip(whites.tolist(),
                        zip(range(n), np.where(at_x, 0, 2).tolist())))
    used = set(matching)
    adj = {}  # face -> [(adjacent face, white between them)], white order
    for w, (a, b) in enumerate(zip(t.left.tolist(), t.right.tolist())):
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    seen = {dg.r}
    stack = [dg.r]
    dual_tree = {}
    while stack:
        f = stack.pop()
        for (g2, w) in adj.get(f, ()):
            if w in used or g2 in seen:
                continue
            seen.add(g2)
            dual_tree[g2] = w
            stack.append(g2)
    if any(f not in dual_tree for f in dg.dual_ids):
        raise ValueError("dual complement is not spanning: input was "
                         "not a tree rooted at o")
    whites = np.array([dual_tree[f] for f in dg.dual_ids], dtype=np.int64)
    slots = np.where(t.left[whites] == np.array(dg.dual_ids, np.int64), 1, 3)
    matching.update(zip(whites.tolist(), zip(range(n, dg.n_black),
                                             slots.tolist())))
    if len(matching) != dg.n_white:
        raise ValueError("Temperley image is not perfect")
    return matching, dual_tree


def loop_heights(dg, reference, matching):
    """Heights integrated along the quad tree in a Python loop, one
    sample at a time (the reference for the batched height map)."""
    adj = dg.quad_adjacency
    ref, cur = (np.array([m[w][0] for w in range(dg.n_white)])
                for m in (reference, matching))
    flow = (adj.black == ref[adj.white]).astype(float) - \
        (adj.black == cur[adj.white])
    dh = adj.sign * flow
    h = np.zeros(len(adj.quads))
    for j, i, e in adj.tree:
        h[j] = h[i] + dh[e]
    if np.any(np.abs(h[adj.dst] - (h[adj.src] + dh)) > 1e-9):
        raise ValueError("height increments have curl")
    return dict(zip(adj.quads, h.tolist()))


class TestBatchedMaps:
    @pytest.mark.parametrize("name", ["square", "rhombic", "parallel-spokes"])
    def test_equal_to_per_sample_references(self, name):
        if name == "parallel-spokes":
            amb, col, window, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3],
                                                mass=Fraction(9, 4))
            lam = pow4_lambda(amb)
        else:
            dg, window, lam = isoradial_window(name)
        sampler = TemperleySampler(dg, lam)
        # the trees of 258 samples, drawn as `batches` draws two tasks
        trees = []
        for task, size in ((0, 256), (1, 2)):
            reader = UniformReader(rng_stream(12, task))
            trees += [sampler._draw(reader) for _ in range(size)]
        matched = _temperley_map(dg, np.array(trees))
        reference, _ = dfs_temperley_forward(
            dg, dict(enumerate(_reference_tree(dg)[0].tolist())))
        assert reference_matching(dg) == reference
        pairs = list(sampler.samples(258, 12))
        assert len(pairs) == 258
        for tree, row, (m, h) in zip(trees, matched, pairs):
            expect, dual = dfs_temperley_forward(dg, dict(enumerate(tree)))
            assert m == expect
            assert dict(zip(dg.dual_ids, row[dg.col.n:].tolist())) == dual
            assert temperley_forward(dg, dict(enumerate(tree))) == \
                (expect, dual)
            assert h == loop_heights(dg, reference, expect)
            assert height_function(dg, expect, reference) == h

    def test_forward_refusals(self):
        amb, col, window, dg = window_setup(4, 4, [1, 2], [1, 2])
        t, adj = dg.white_table, window_adjacency(dg)
        tree = dict(enumerate(_reference_tree(dg)[0].tolist()))
        stray = next(w for w in range(dg.n_white) if 0 not in (t.x[w], t.y[w]))
        # the four window vertices around their square, each pointing at
        # the next: a primal cycle, which cuts the face inside it off r
        (b, wb), (c, wc) = adj[0]
        (d, wd), = [(y, w) for y, w in adj[b] if y != 0]
        (we,) = [w for y, w in adj[c] if y == d]
        cycle = {0: wb, b: wd, d: we, c: wc}
        for bad, match in [({**tree, 0: stray}, "tree edge does not start "
                            "at its vertex"),
                           ({**tree, **cycle}, "dual complement is not "
                            "spanning")]:
            with pytest.raises(ValueError, match=match):
                dfs_temperley_forward(dg, bad)
            with pytest.raises(ValueError, match=match):
                temperley_forward(dg, bad)
            rows = np.array([[tree[x] for x in range(4)],
                             [bad[x] for x in range(4)]])
            with pytest.raises(ValueError, match=match):
                _temperley_map(dg, rows)
