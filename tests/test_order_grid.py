"""The order stacks' facet pass, one grid over the solve's arrays, against
the flat pass it replaced (``order_reference``), against HiGHS on per-pair
tables, and the stacked label infima against the per-label loop.

Every stack (the order matrix, ``order_queries`` itself, the conclusions of
a solve, the graph oracle, the start section and the graph conclusions)
must give the reference's matrices, first uncovered queries (its ``(first,
lam, row)`` read as cells) and InputError texts, and must never run more
phase-1 LPs: asked whole, on a grid with every cell open, and read from the
one grid of a solve.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from evpkit import geometry, instances
from evpkit.errors import InputError
from evpkit.geometry import (DEFAULT_TOL, LinearFunctional, Polytope,
                             stack_rows)
from evpkit.instances import (ExtensionalFamily, FiniteInstance, MetricSpace,
                              OPEN, OrderGrid, PolytopeDirection,
                              QuasiMetric, QuasiMetricDirection, SetValuedMap,
                              label_infima, order_arrays, order_queries,
                              relation_matrix, scalar_inf)
from evpkit.product import (FMap, ProductInstance, _graph_conclusions,
                            _graph_oracle, _section_of_start, anchored_values,
                            graph_arrays)
from evpkit.solvers import _order_conclusions

import order_reference
from conftest import random_cone
from test_batched_sweeps import (KINDS, _all_of, _cone, _distances,
                                 _polytope, as_cells, band_direction,
                                 band_family, bare_order_query, highs_covers,
                                 notch_direction, on_open_grid, open_grid,
                                 random_instance, random_product)


def _outcome(fn, *args):
    """The result of ``fn(*args)`` as plain data, or its InputError text."""
    try:
        result = fn(*args)
    except InputError as exc:
        return "InputError", str(exc)
    if isinstance(result, tuple):
        # an oracle and its matrix
        return [r.tolist() for r in result if isinstance(r, np.ndarray)]
    if isinstance(result, np.ndarray):
        return result.tolist()
    return [c.to_dict() for c in result]


def _work_and_outcome(monkeypatch, fn, *args):
    """The _phase1 calls of ``fn(*args)``, the queries it hands to
    ``covered_queries`` (in ``evpkit.instances`` or in the reference), and
    its :func:`_outcome`."""
    lps, sent = [0], [0]
    phase1, covered = geometry._phase1, geometry.covered_queries

    def counted(*a, **kw):
        lps[0] += 1
        return phase1(*a, **kw)

    def counting(Y, *a, **kw):
        sent[0] += len(Y)
        return covered(Y, *a, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(geometry, "_phase1", counted)
        mp.setattr(instances, "covered_queries", counting)
        mp.setattr(order_reference, "covered_queries", counting)
        outcome = _outcome(fn, *args)
    return lps[0], sent[0], outcome


def _as_reference(mp):
    """Route the order stacks that a grid asks through the reference, its
    ``(first, lam, row)`` read as cells."""
    mp.setattr(instances, "order_queries",
               as_cells(order_reference.order_queries))


def assert_same(monkeypatch, budget, fn, ref, *args):
    """``fn(*args)`` with ``_BLOCK_QUERIES`` at ``budget`` gives the
    outcome of ``ref(*args)`` through the reference, with no more _phase1
    calls; where both stand, the two hand the same number of queries to
    ``covered_queries``. ``ref`` None runs ``fn`` with the stacks routed
    to the reference."""
    with monkeypatch.context() as mp:
        if budget is not None:
            mp.setattr(instances, "_BLOCK_QUERIES", budget)
            mp.setattr(order_reference, "_BLOCK_QUERIES", budget)
        got_lps, got_sent, got = _work_and_outcome(monkeypatch, fn, *args)
        if ref is None:
            _as_reference(mp)
        want_lps, want_sent, want = _work_and_outcome(monkeypatch, ref or fn,
                                                      *args)
    assert got == want, (fn.__name__, got, want)
    assert got_lps <= want_lps, (fn.__name__, got_lps, want_lps)
    assert got_sent == want_sent or got[0] == "InputError", (
        fn.__name__, got_sent, want_sent)
    return got


def negative_scale_instance(rng, n, m, vertices):
    """A quasi-metric family whose matrix, never validated, holds zero,
    sub-tol and one negative scale: no facets, and the screen raises."""
    C, k0 = _cone(rng, m)
    p = rng.uniform(0.0, 2.0, size=(n, n))
    p[rng.random((n, n)) < 0.2] = 0.0
    p[rng.random((n, n)) < 0.1] = 5e-10
    p[rng.integers(n), rng.integers(n)] = -0.5
    labels = tuple(f"q{i}" for i in range(n))
    fmap = SetValuedMap({x: rng.normal(size=(int(rng.integers(1, 4)), m))
                         for x in labels})
    inst = FiniteInstance(MetricSpace(labels, _distances(rng, n, True)),
                          fmap, C)
    return inst, QuasiMetricDirection(_polytope(rng, C, k0, vertices),
                                      QuasiMetric(p))


def wide_table(rng, n, m, L):
    """A ragged table of L indices whose entries have 1 to 4 vertices near
    d(x2, x1) k0, so that targets of three or more vertices stand beside
    those of one and two, over ragged value sets."""
    C, k0 = _cone(rng, m)
    labels = tuple(f"q{i}" for i in range(n))
    d = _distances(rng, n, True)
    table = {(lam, x2, x1): _polytope(rng, C, k0, int(rng.integers(1, 5)),
                                      scale=0.7 * d[i, j] + 0.1 * (i != j))
             for lam in ("L0", "L1")[:L]
             for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}
    fmap = SetValuedMap({x: rng.normal(size=(int(rng.integers(1, 5)), m))
                         for x in labels})
    return (FiniteInstance(MetricSpace(labels, d), fmap, C),
            ExtensionalFamily(labels, ("L0", "L1")[:L], table))


def grid_cases(rng):
    """Label instances: every family kind, ragged value sets or not, on
    metric and non-metric distances; tables of one and two indices with 1
    to 4 vertices per entry; direction sets and tables in the tolerance
    band; and families with a negative scale, which have no facets."""
    cases = [random_instance(rng, n=3 + t % 4, m=1 + t % 3,
                             kind=KINDS[t % 5], metric=t % 3 != 2,
                             ragged=t % 4 != 1)[:2] for t in range(15)]
    cases += [wide_table(rng, 3 + t % 3, 1 + t % 3, 1 + t % 2)
              for t in range(4)]
    cases += [band_family(rng, 3 + t % 3, 2, 1 + t % 3, DEFAULT_TOL)
              for t in range(3)]
    cases += [band_direction(rng, 3 + t % 3, 1 + t % 3, DEFAULT_TOL,
                             count=1 + t % 3) for t in range(3)]
    cases += [notch_direction(rng, 3 + t % 3, 2 + t % 2, DEFAULT_TOL,
                              count=2 + t % 2) for t in range(2)]
    cases += [negative_scale_instance(rng, 3 + t % 3, 1 + t % 3, 1 + t % 3)
              for t in range(3)]
    return cases


def pair_lists(rng, n):
    """Random label pairs with repeats, and the pairs of every row."""
    k = int(rng.integers(1, 2 * n))
    yield rng.integers(n, size=k), rng.integers(n, size=k)
    yield np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


def test_grid_pass_equals_the_flat_pass(monkeypatch):
    """On :func:`grid_cases`, with ``_BLOCK_QUERIES`` at 1 to 64 (so that
    the grid runs in several blocks) or at its default: the order matrix,
    ``order_queries`` on random pair lists, with a witness and (as the
    order matrix asks them) without, and the conclusions of (xhat, x0)
    pairs on a grid with every cell open equal the reference's, outcome for outcome, with no more _phase1
    calls. Some matrices stand and some raise the screen's InputError."""
    rng = np.random.default_rng(3200)
    seen = set()
    for inst, fam in grid_cases(rng):
        budget = int(rng.integers(1, 65)) if rng.random() < 0.75 else None
        got = assert_same(monkeypatch, budget, relation_matrix,
                          order_reference.relation_matrix, inst, fam)
        seen.add(got[0] if got[0] == "InputError" else "matrix")
        try:
            arrays = order_arrays(inst, fam)
        except InputError:
            continue
        for x2s, x1s in pair_lists(rng, len(inst.labels)):
            assert_same(monkeypatch, budget, order_queries,
                        as_cells(order_reference.order_queries), inst,
                        arrays, x2s, x1s)
            assert_same(monkeypatch, budget, bare_order_query,
                        lambda *a: order_reference.order_queries(
                            *a, witness=False)[0] < 0, inst, arrays, x2s, x1s)
        for xhat, x0 in itertools.islice(
                itertools.product(inst.labels, repeat=2), 0, None, 3):
            assert_same(monkeypatch, budget,
                        on_open_grid(_order_conclusions, 2), None, inst, fam,
                        arrays, xhat, x0)
    assert seen == {"InputError", "matrix"}, seen


def as_graph(inst, fam):
    """The product instance of every (label, value) pair of a label
    instance, started at the first, with the one-index family ``fam`` as
    its pair map and a linear functional positive on the cone."""
    graph = tuple((x, y) for x in inst.labels for y in inst.fmap.at(x))
    A = inst.cone.halfspaces
    return (ProductInstance(graph, inst.space, graph[0], inst.cone),
            FMap(fam, LinearFunctional(A.T @ np.ones(len(A)))))


def graph_cases(rng):
    """Product instances: random pair maps of 1 to 3 vertices, ragged or
    not, linear or the cone scalarization, and the graphs of band
    direction sets and two-index band tables."""
    cases = [random_product(rng, n=3 + t % 2, m=1 + t % 3,
                            metric=t % 3 != 2, ragged=t % 2 == 0,
                            nonlinear=t % 3 == 1, vertices=1 + t % 3)
             for t in range(6)]
    for t in range(3):
        cases.append(as_graph(*(
            band_family(rng, 3 + t, 1, 1 + t, DEFAULT_TOL) if t % 2
            else band_direction(rng, 3 + t, 1 + t, DEFAULT_TOL))))
    return cases


def test_graph_stacks_equal_the_flat_pass(monkeypatch):
    """The graph oracle, the start sections and the graph conclusions of
    :func:`graph_cases`, each on a grid with every cell open (so that it
    asks its whole stack), with ``_BLOCK_QUERIES`` at 1 to 64 or at its
    default, equal their outcomes through the reference with no more
    _phase1 calls."""
    rng = np.random.default_rng(3300)
    for pi, fm in graph_cases(rng):
        budget = int(rng.integers(1, 65)) if rng.random() < 0.75 else None
        arrays = graph_arrays(pi, fm)
        assert_same(monkeypatch, budget, on_open_grid(_graph_oracle, 1), None,
                    pi, arrays, anchored_values(pi, fm.xi))
        for start in range(len(pi.graph)):
            assert_same(monkeypatch, budget,
                        on_open_grid(_section_of_start, 1), None, pi, arrays,
                        start)
            for ihat in range(start % 2, len(pi.graph), 3):
                assert_same(monkeypatch, budget,
                            on_open_grid(_graph_conclusions, 1), None, pi,
                            arrays, ihat, start, start % 2 == 0)


def untied_instance(rng, n):
    """A shared polytope of 8 random vertices in m = 4, which has more tie
    systems than ``_TIE_SYSTEMS``: no facets, so every query is open."""
    C, k0 = _cone(rng, 4)
    labels = tuple(f"q{i}" for i in range(n))
    fmap = SetValuedMap({x: rng.normal(size=(int(rng.integers(1, 4)), 4))
                         for x in labels})
    inst = FiniteInstance(MetricSpace(labels, _distances(rng, n, True)),
                          fmap, C)
    return inst, PolytopeDirection(_polytope(rng, C, k0, 8),
                                   float(rng.uniform(0.3, 1.2)))


def every_pair(n):
    return np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


def assert_held_cells(grid):
    """Each cell a grid holds other than ``OPEN`` is the cell that
    ``order_queries`` and the reference give its pair. Returns those cells
    of every pair and the mask of the held ones; None where both raise the
    screen's InputError, as a negative scale makes them, and the facets
    have then decided no cell."""
    inst, arrays = grid.inst, grid.arrays
    x2s, x1s = every_pair(len(grid.cells))
    want, ref = (_outcome(fn, inst, arrays, x2s, x1s) for fn in (
        order_queries, as_cells(order_reference.order_queries)))
    assert want == ref, (want, ref)
    held = grid.cells.ravel() != OPEN
    if want[0] == "InputError":
        assert not held.any()
        return None
    want = np.array(want)
    assert grid.cells.ravel()[held].tolist() == want[held].tolist()
    return want, held


def _lps(monkeypatch, fn, *args):
    """The _phase1 calls of ``fn(*args)`` and its result, or its InputError
    text."""
    lps, phase1 = [0], geometry._phase1

    def counted(*a, **kw):
        lps[0] += 1
        return phase1(*a, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(geometry, "_phase1", counted)
        try:
            result = fn(*args)
        except InputError as exc:
            result = "InputError", str(exc)
    return lps[0], result


def _dicts(conclusions):
    if conclusions[0] == "InputError":
        return conclusions
    return [c.to_dict() for c in conclusions]


def test_grid_cells_equal_the_stacks(monkeypatch):
    """The cells of a solve's grid against ``order_queries`` and the
    reference, on :func:`grid_cases` (every family kind, ragged value sets,
    tables of one and two indices, values within 2 tol of a facet, a
    negative scale) and on shared polytopes with no facets
    (:func:`untied_instance`), and on the graphs of :func:`graph_cases` and
    of those. Each exact cell of the grid is the cell of its pair; an
    ``OPEN`` cell of the order matrix's grid is a pair that is not
    covered; reading every pair gives every cell. A label solve (the order
    matrix, then the conclusions of one (xhat, x0)) and a graph solve (the
    start section, the oracle and the conclusions of one (ihat, start), on
    one grid) give the witnesses, matrices and InputError texts of the
    same stacks each asked whole through the reference, with no more
    _phase1 calls."""
    rng = np.random.default_rng(3400)
    labels = grid_cases(rng) + [untied_instance(rng, 3 + t % 3)
                                for t in range(3)]
    seen, opened, asked = set(), 0, 0
    for inst, fam in labels:
        try:
            arrays = order_arrays(inst, fam)
        except InputError:
            continue
        n_grid, got = _lps(monkeypatch, relation_matrix, inst, fam, arrays)
        n_rel, rel = _lps(monkeypatch, order_reference.relation_matrix, inst,
                          fam, arrays)
        if isinstance(rel, tuple):
            assert got == rel, (got, rel)
            seen.add("label InputError")
            continue
        assert got.tolist() == rel.tolist()
        grid = relation_matrix(inst, fam, arrays, grid=True)
        seen.add("untied" if arrays[5] is None else "facets")
        want, held = assert_held_cells(grid)
        assert (want[~held] >= 0).all()
        opened += int((~held).sum())
        for xhat, x0 in itertools.islice(
                itertools.product(inst.labels, repeat=2), 0, None, 4):
            solve = OrderGrid(inst, arrays, grid.cells.copy())
            n_new, got = _lps(monkeypatch, _order_conclusions, inst, fam,
                              solve, xhat, x0)
            with monkeypatch.context() as mp:
                _as_reference(mp)
                n_old, old = _lps(monkeypatch,
                                  on_open_grid(_order_conclusions, 2), inst,
                                  fam, arrays, xhat, x0)
            assert _dicts(got) == _dicts(old), (xhat, x0)
            assert n_grid + n_new <= n_rel + n_old, (n_grid, n_new, n_rel,
                                                     n_old)
            asked += n_rel + n_old
        x2s, x1s = every_pair(len(inst.labels))
        assert grid.read(x2s, x1s).tolist() == want.tolist()
        assert (grid.cells != OPEN).all()

    def graph_solve(pi, arrays, eta, start, ihat, make):
        grid = make(pi, arrays)
        return [_section_of_start(pi, grid, start).tolist(),
                _graph_oracle(pi, grid, eta)[1].tolist(),
                *_dicts(_graph_conclusions(pi, grid, ihat, start,
                                           start % 2 == 0))]

    graphs = graph_cases(rng) + [as_graph(*untied_instance(rng, 3))] + [
        as_graph(*negative_scale_instance(rng, 3 + t, 1 + t, 1 + t))
        for t in range(2)]
    for pi, fm in graphs:
        arrays = graph_arrays(pi, fm)
        grid = instances.order_grid(pi, arrays, False)
        cells = assert_held_cells(grid)
        opened += int((grid.cells == OPEN).sum())
        eta = anchored_values(pi, fm.xi)
        P = len(pi.graph)
        for start, ihat in ((0, P - 1), (P // 2, 0), (P - 1, P // 2)):
            n_new, got = _lps(monkeypatch, graph_solve, pi, arrays, eta,
                              start, ihat,
                              lambda p, a: instances.order_grid(p, a, False))
            with monkeypatch.context() as mp:
                _as_reference(mp)
                n_old, old = _lps(monkeypatch, graph_solve, pi, arrays, eta,
                                  start, ihat, open_grid)
            assert got == old, (start, ihat, got, old)
            assert n_new <= n_old, (n_new, n_old)
            asked += n_old
            seen.add("graph InputError" if got[0] == "InputError"
                     else "graph")
        if cells is not None:
            x2s, x1s = every_pair(P)
            assert grid.read(x2s, x1s).tolist() == cells[0].tolist()
    assert seen == {"label InputError", "untied", "facets",
                    "graph InputError", "graph"}, seen
    assert opened > 0 and asked > 0, (opened, asked)


def highs_table(rng, n, m, L, magnitude):
    """Labels on a line at distances |p - q| and a table of L indices whose
    entry (index, x2, x1) is d(x2, x1) times 0.9 to 1.1 times a direction
    set of one or two vertices per index, in a random pointed cone, all
    scaled by ``magnitude``. Each label p has one to three values p h plus
    a random offset of 1e-4 to 1e-1 of the magnitude, for one point h on
    the boundary of conv(H) + C of the first index, found by HiGHS, so
    that many queries lie near a target's face."""
    C, k0 = random_cone(rng, m)
    A = C.halfspaces
    sets = []
    for _ in range(L):
        H = []
        while len(H) < int(rng.integers(1, 3)):
            h = rng.uniform(0.2, 1.0) * k0 + rng.normal(size=m)
            if np.all(A @ h >= 0.0):
                H.append(magnitude * h)
        sets.append(np.array(H))
    H = sets[0]
    c, u = rng.dirichlet(np.ones(len(H))) @ H, k0 + 0.5 * rng.normal(size=m)
    # the largest t with c - t u in conv(H) + C: variables (weights, t)
    res = linprog(np.r_[np.zeros(len(H)), -1.0],
                  A_ub=np.hstack([A @ H.T, (A @ u)[:, None]]), b_ub=A @ c,
                  A_eq=np.r_[np.ones(len(H)), 0.0][None], b_eq=[1.0],
                  bounds=[(0, None)] * (len(H) + 1), method="highs")
    h = c - res.x[-1] * u if res.status == 0 else c
    labels = tuple(f"p{i}" for i in range(n))
    position = rng.permutation(np.sort(rng.uniform(0.0, 3.0, size=n)))
    d = np.abs(position[:, None] - position[None])
    values = {x: np.array([p * h + magnitude * 10.0 ** rng.uniform(-4, -1)
                           * rng.normal(size=m)
                           for _ in range(int(rng.integers(1, 4)))])
              for x, p in zip(labels, position)}
    table = {(f"L{k}", x2, x1): Polytope(d[i, j] * rng.uniform(0.9, 1.1)
                                         * sets[k])
             for k in range(L)
             for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}
    return (FiniteInstance(MetricSpace(labels, d), SetValuedMap(values), C),
            ExtensionalFamily(labels, tuple(f"L{k}" for k in range(L)),
                              table))


def test_per_pair_order_matrices_match_highs(monkeypatch):
    """Tables of one and two indices over ragged value sets, in random
    pointed cones of m = 1 to 4 dimensions, at magnitudes from 1e-6 to
    1e6, against an LP that shares no code with evpkit: the order matrix
    decides each pair as the HiGHS margins do wherever those lie outside
    the band of ``highs_covers``, and the facets decide some queries."""
    rng = np.random.default_rng(6160)
    checked = decided = 0
    real = instances.covered_queries
    sent = []

    def counting(Y, *args, **kwargs):
        sent.append(len(Y))
        return real(Y, *args, **kwargs)

    monkeypatch.setattr(instances, "covered_queries", counting)
    for trial in range(12):
        n, m, L = 3 + trial % 3, 1 + trial % 4, 1 + trial % 2
        inst, fam = highs_table(rng, n, m, L, 10.0 ** rng.uniform(-6.0, 6.0))
        C, tol, labels = inst.cone, inst.tol, inst.labels
        sent.clear()
        rel = relation_matrix(inst, fam)
        decided += L * n * sum(map(len, inst.fmap.values.values())) \
            - sum(sent)
        for a, b in itertools.product(range(n), repeat=2):
            want = _all_of(
                highs_covers(y, inst.fmap.at(labels[a]), 1.0, P.vertices, C,
                             tol)
                for _, _, P in fam.sets(inst.space, labels[a], labels[b])
                for y in inst.fmap.at(labels[b]))
            if want is not None:
                assert rel[a, b] == want, (trial, a, b)
                checked += 1
    assert checked > 0 and decided > 0, (checked, decided)


_MAGNITUDE = st.builds(lambda sign, mantissa, exponent:
                       sign * mantissa * 10.0 ** exponent,
                       st.sampled_from([-1.0, 1.0]),
                       st.floats(1.0, 10.0, allow_nan=False),
                       st.integers(-6, 6))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_stacked_infima_are_the_per_label_ones(data):
    """The label infima of a linear functional, stacked by row count over
    the values of m = 1 to 4 dimensions, 1 to 5 rows per label and
    magnitudes from 1e-6 to 1e6, are the per-label ``scalar_inf`` loop bit
    for bit, with the value stack built here or taken from the arrays."""
    m = data.draw(st.integers(1, 4))
    counts = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    entries = st.lists(_MAGNITUDE, min_size=m, max_size=m)
    labels = tuple(f"q{i}" for i in range(len(counts)))
    values = {x: np.array(data.draw(st.lists(entries, min_size=k,
                                             max_size=k)))
              for x, k in zip(labels, counts)}
    xi = LinearFunctional(np.array(data.draw(entries)))
    n = len(labels)
    inst = FiniteInstance(MetricSpace(labels, 1.0 - np.eye(n)),
                          SetValuedMap(values), geometry.orthant(m))
    want = np.array([scalar_inf(xi, inst.fmap.at(x)) for x in labels])
    B, nb = stack_rows([inst.fmap.at(x) for x in labels])
    for got in (label_infima(inst, xi),
                label_infima(inst, xi, (None, None, None, B, nb, None))):
        assert np.array(got).tobytes() == want.tobytes()
