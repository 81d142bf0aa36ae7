"""The order stacks' facet pass, one grid of rows over columns of the
solve's arrays, against the flat pass it replaced (``order_reference``),
against HiGHS on per-pair tables, and the stacked label infima against the
per-label loop.

Every stack (the order matrix, the column re-ask ``_ask_column`` itself,
the conclusions of a solve, the graph oracle, the start section and the
graph conclusions) must give the reference's matrices, first uncovered
queries (its ``(first, lam, row)`` read as cells) and InputError texts, and
must never run more phase-1 LPs: asked whole, on a grid with every cell
open, and read from the one grid of a solve, which passes each column the
first time it is read; a solve passes only the columns it reads, and each
read asks only the open cells it reads: ``precedes`` the ``OPEN`` ones
without a witness, ``column`` the ``OPEN`` and ``OUT`` ones with one.

The facet work of a solve is done once: ``tie_conditions`` equals the copy
that ``order_reference`` keeps byte for byte, and builds one- and
two-vertex ties with no target table and no linear algebra; a per-pair
solve builds one target table, and its triangle verdicts equal
``triangle_reference``; each direction solve checks its direction set
once.
"""

import functools
import importlib.util
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from evpkit import cli, geometry, instances
from evpkit.engine import PreorderOracle, solve
from evpkit.errors import HypothesisError, InputError
from evpkit.geometry import (DEFAULT_TOL, LinearFunctional, Polytope,
                             stack_rows, strictly_positive_functional)
from evpkit.instances import (OPEN, OUT, UNPASSED, ExtensionalFamily,
                              FiniteInstance, MetricSpace,
                              PolytopeDirection, QuasiMetric,
                              QuasiMetricDirection, SetValuedMap,
                              check_assumptions, label_infima, order_arrays,
                              order_grid, relation_matrix, scalar_inf,
                              ti_check)
from evpkit.product import (FMap, ProductInstance, _graph_conclusions,
                            anchored_values, fmap_from_rate, graph_arrays,
                            solve_minimal_point, solve_strict_minimal,
                            validate_fmap)
from evpkit.io import generate, load_validate
from evpkit.solvers import (_order_conclusions, _solve_order,
                            solve_evp_direction, solve_evp_general,
                            solve_evp_quasimetric, solve_evp_set_direction)

import order_reference
import triangle_reference
from conftest import (direction_polytope, generated_bundle, grow_epsilon,
                      matrix_grid, random_cone)
from test_batched_sweeps import (KINDS, _all_of, _cone, _distances,
                                 _polytope, as_cells, as_column,
                                 band_direction,
                                 band_family, bare_order_query,
                                 graph_grid, graph_oracle_matrix,
                                 highs_covers, notch_direction, on_open_grid,
                                 open_grid, random_instance, random_product,
                                 start_section)


def _outcome(fn, *args):
    """The result of ``fn(*args)`` as plain data, or its InputError text."""
    try:
        result = fn(*args)
    except InputError as exc:
        return "InputError", str(exc)
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
    """Route the column re-asks of a grid through the reference, its
    ``(first, lam, row)`` read as cells."""
    mp.setattr(instances, "_ask_column",
               as_column(order_reference.order_queries))


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


def grid_pairs(n, rows, cols):
    """The pairs of the rows ``rows`` over the columns ``cols`` (each a
    slice or an index array) of an order matrix of n labels, as pair lists
    in row-major order."""
    labels = np.arange(n)
    return (a.ravel() for a in np.meshgrid(labels[rows], labels[cols],
                                           indexing="ij"))


def bare_reference(inst, arrays, rows, cols):
    """The reference's covered pairs of the rows ``rows`` over the columns
    ``cols``, asked without a witness, as its order matrix asks them."""
    return order_reference.order_queries(
        inst, arrays, *grid_pairs(len(arrays[3]), rows, cols),
        witness=False)[0] < 0


def row_lists(rng, n):
    """Rows of a column: random rows with repeats, in no order, and every
    row; each with a random column."""
    k = int(rng.integers(1, 2 * n))
    yield rng.integers(n, size=k), int(rng.integers(n))
    yield np.arange(n), int(rng.integers(n))


def grid_matrix(inst, fam):
    """The order matrix read from a new grid of the solve, every column
    read whole with ``OrderGrid.precedes``."""
    grid = order_grid(inst, order_arrays(inst, fam))
    n = len(inst.labels)
    return np.array([grid.precedes(j) for j in range(n)],
                    dtype=bool).reshape(n, n).T


def bool_column(inst, arrays, rows, cols):
    """Whether each row of ``rows`` precedes the one column of ``cols``, as
    ``OrderGrid.precedes`` asks it: the column re-ask without a witness."""
    return instances._ask_column(inst, arrays, rows, cols[0], False) == -1


def test_grid_pass_equals_the_flat_pass(monkeypatch):
    """On :func:`grid_cases`, with ``_BLOCK_QUERIES`` at 1 to 64 (so that
    the grid runs in several blocks) or at its default: the order matrix,
    built whole and read from a solve's grid with ``precedes`` over every
    column, the column re-ask ``_ask_column`` on random rows of a column,
    with a witness and (as the order matrix and ``precedes`` ask them)
    without, and the conclusions of (xhat, x0) pairs on a grid with every
    cell open equal the reference's, outcome for outcome, with no more
    _phase1 calls. Some matrices stand and some raise the screen's
    InputError."""
    rng = np.random.default_rng(3200)
    seen = set()
    for inst, fam in grid_cases(rng):
        budget = int(rng.integers(1, 65)) if rng.random() < 0.75 else None
        got = assert_same(monkeypatch, budget, relation_matrix,
                          order_reference.relation_matrix, inst, fam)
        assert_same(monkeypatch, budget, grid_matrix,
                    order_reference.relation_matrix, inst, fam)
        seen.add(got[0] if got[0] == "InputError" else "matrix")
        try:
            arrays = order_arrays(inst, fam)
        except InputError:
            continue
        for rows, j in row_lists(rng, len(inst.labels)):
            assert_same(monkeypatch, budget, instances._ask_column,
                        as_column(order_reference.order_queries), inst,
                        arrays, rows, j, True)
            for bare in (bare_order_query, bool_column):
                assert_same(monkeypatch, budget, bare, bare_reference, inst,
                            arrays, rows, np.array([j]))
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
        assert_same(monkeypatch, budget, on_open_grid(graph_oracle_matrix, 1),
                    None, pi, arrays, anchored_values(pi, fm.xi))
        for start in range(len(pi.graph)):
            assert_same(monkeypatch, budget,
                        on_open_grid(start_section, 1), None, pi, arrays,
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


def by_columns(ask, inst, arrays):
    """The cells of every pair, flat in (x2, x1) order, each column asked
    whole through the column re-ask ``ask``."""
    n = len(arrays[3])
    return np.stack([ask(inst, arrays, np.arange(n), j, True)
                     for j in range(n)], axis=1).ravel()


def read_columns(grid, cols):
    """The cells of every row of the columns ``cols``, read one column at a
    time with ``OrderGrid.column``, over (x2, column)."""
    return np.stack([grid.column(j) for j in cols], axis=1)


def read_bools(grid, cols):
    """Whether each row precedes each column of ``cols``, read one column
    at a time with ``OrderGrid.precedes``, over (x2, column)."""
    return np.stack([grid.precedes(j) for j in cols], axis=1)


def assert_held_cells(grid):
    """Each cell a grid holds exact (not ``OPEN`` or ``OUT``) is the cell
    that the column re-ask ``_ask_column`` and the reference give its
    pair, and each ``OUT`` cell is a pair that is not covered. Returns
    the cells of every pair and the mask of the exact ones; None where
    both raise the screen's InputError."""
    inst, arrays = grid.inst, grid.arrays
    want, ref = (_outcome(by_columns, ask, inst, arrays) for ask in (
        instances._ask_column, as_column(order_reference.order_queries)))
    assert want == ref, (want, ref)
    if want[0] == "InputError":
        return None
    cells, want = grid.cells.ravel(), np.array(want)
    held = (cells != OPEN) & (cells != OUT)
    assert cells[held].tolist() == want[held].tolist()
    assert (want[cells == OUT] >= 0).all()
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


def column_chunks(rng, n):
    """The columns 0 to n - 1 in a random order, in chunks of one to n
    columns, some with a column of another chunk or a repeat added."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), replace=False,
                              size=int(rng.integers(0, n))))
    for cols in np.split(order, cuts):
        if rng.random() < 0.3:
            cols = np.append(cols, rng.choice(order, size=2))
        yield cols


def pass_in_chunks(grid, rng):
    """Pass every column of ``grid`` by :func:`column_chunks`."""
    for cols in column_chunks(rng, len(grid.cells)):
        grid.pass_columns(cols)


def bools_in_chunks(grid, rng):
    """Pass every column of ``grid`` by :func:`column_chunks`, then read
    every column whole with ``OrderGrid.precedes``: the order matrix."""
    pass_in_chunks(grid, rng)
    return read_bools(grid, range(len(grid.cells)))


def test_grid_cells_equal_the_stacks(monkeypatch):
    """The cells of a solve's grid against ``_ask_column`` and the
    reference, on :func:`grid_cases` (every family kind, ragged value sets,
    tables of one and two indices, values within 2 tol of a facet, a
    negative scale) and on shared polytopes with no facets
    (:func:`untied_instance`), and on the graphs of :func:`graph_cases` and
    of those, every column passed in a random order (:func:`pass_in_chunks`).
    Each exact cell of the grid is the cell of its pair, and each ``OUT``
    cell a pair that is not covered, after the pass and after the bool
    reads; the bool reads of every column give the reference's matrix,
    leave no ``OPEN`` cell and run, with the pass, no more _phase1 calls
    than the reference's matrix; reading every pair with a witness gives
    every cell. A grid raises the reference's InputError when it is built.
    A label solve (the conclusions of one (xhat, x0) on a new grid, which
    passes the columns they read) and a graph solve (the start section,
    the oracle with every column read and the conclusions of one (ihat,
    start), on one new grid) give the witnesses, matrices and InputError
    texts of the same stacks each asked whole through the reference, the
    label solve's after the reference's matrix, with no more _phase1
    calls."""
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
        _, grid = _lps(monkeypatch, order_grid, inst, arrays)
        if isinstance(rel, tuple):
            assert got == rel == grid, (got, rel, grid)
            seen.add("label InputError")
            continue
        assert got.tolist() == rel.tolist()
        assert (grid.cells == UNPASSED).all()
        pass_in_chunks(grid, rng)
        _, held = assert_held_cells(grid)
        opened += int((~held).sum())
        n_pass, matrix = _lps(monkeypatch, bools_in_chunks, grid, rng)
        assert n_pass <= n_rel, (n_pass, n_rel)
        assert matrix.tolist() == rel.tolist()
        assert (grid.cells != OPEN).all()
        seen.add("untied" if arrays[5] is None else "facets")
        want, _ = assert_held_cells(grid)
        for xhat, x0 in itertools.islice(
                itertools.product(inst.labels, repeat=2), 0, None, 4):
            solve = order_grid(inst, arrays)
            n_new, got = _lps(monkeypatch, _order_conclusions, inst, fam,
                              solve, xhat, x0)
            with monkeypatch.context() as mp:
                _as_reference(mp)
                n_old, old = _lps(monkeypatch,
                                  on_open_grid(_order_conclusions, 2), inst,
                                  fam, arrays, xhat, x0)
            assert _dicts(got) == _dicts(old), (xhat, x0)
            assert n_new <= n_rel + n_old, (n_new, n_rel, n_old)
            asked += n_rel + n_old
        n = len(inst.labels)
        assert read_columns(grid, range(n)).ravel().tolist() == want.tolist()
        assert (grid.cells >= -1).all()

    def graph_solve(pi, arrays, eta, start, ihat, make):
        grid = make(pi, arrays)
        return [start_section(pi, grid, start).tolist(),
                graph_oracle_matrix(pi, grid, eta).tolist(),
                *_dicts(_graph_conclusions(pi, grid, ihat, start,
                                           start % 2 == 0))]

    graphs = graph_cases(rng) + [as_graph(*untied_instance(rng, 3))] + [
        as_graph(*negative_scale_instance(rng, 3 + t, 1 + t, 1 + t))
        for t in range(2)]
    for pi, fm in graphs:
        arrays = graph_arrays(pi, fm)
        _, grid = _lps(monkeypatch, order_grid, pi, arrays)
        cells = None
        if not isinstance(grid, tuple):
            pass_in_chunks(grid, rng)
            cells = assert_held_cells(grid)
            opened += int((grid.cells == OPEN).sum())
        eta = anchored_values(pi, fm.xi)
        P = len(pi.graph)
        for start, ihat in ((0, P - 1), (P // 2, 0), (P - 1, P // 2)):
            n_new, got = _lps(monkeypatch, graph_solve, pi, arrays, eta,
                              start, ihat, order_grid)
            with monkeypatch.context() as mp:
                _as_reference(mp)
                n_old, old = _lps(monkeypatch, graph_solve, pi, arrays, eta,
                                  start, ihat, open_grid)
            assert got == old, (start, ihat, got, old)
            assert n_new <= n_old, (n_new, n_old)
            asked += n_old
            seen.add("graph InputError" if got[0] == "InputError"
                     else "graph")
        if isinstance(grid, tuple):
            assert grid == old, (grid, old)
        else:
            assert read_columns(grid, range(P)).ravel().tolist() == \
                cells[0].tolist()
    assert seen == {"label InputError", "untied", "facets",
                    "graph InputError", "graph"}, seen
    assert opened > 0 and asked > 0, (opened, asked)


def wrong_dimension_instance(rng, n, m, negative):
    """A quasi-metric family, never validated, whose polytope has m + 1
    coordinates in a cone of m, so that it has no facets and the screen
    raises; with ``negative``, a scale in the last row is negative too."""
    C, k0 = _cone(rng, m)
    p = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(p, 0.0)
    if negative:
        p[-1, 0] = -0.5
    labels = tuple(f"q{i}" for i in range(n))
    fmap = SetValuedMap({x: rng.normal(size=(int(rng.integers(1, 3)), m))
                         for x in labels})
    inst = FiniteInstance(MetricSpace(labels, _distances(rng, n, True)),
                          fmap, C)
    return inst, QuasiMetricDirection(
        Polytope(rng.uniform(0.1, 1.0, size=(2, m + 1))), QuasiMetric(p))


def assert_passed(grid, want, read):
    """The columns ``read`` (a mask) of ``grid`` are passed and no other,
    with no ``OPEN`` cell left; their exact cells are ``want``'s, and
    their ``OUT`` cells are pairs that are not covered."""
    assert (grid.cells[:, ~read] == UNPASSED).all()
    got, ref = grid.cells[:, read], want[:, read]
    assert (got != OPEN).all()
    held = got != OUT
    assert got[held].tolist() == ref[held].tolist()
    assert (ref[~held] >= 0).all()


def test_columns_read_in_any_order_equal_the_reference():
    """A new grid decides no column until one is read. The columns of the
    order matrices of :func:`grid_cases` and of shared polytopes of 8
    vertices, beyond ``_TIE_SYSTEMS`` (:func:`untied_instance`), read in
    random orders and chunks with ``OrderGrid.precedes``, are the columns
    of ``relation_matrix`` and of the reference's matrix, and only the
    columns read are passed; each exact cell is the cell of
    ``_ask_column`` and of the reference. The graph grids of
    :func:`graph_cases` and of those, read so with ``OrderGrid.column``,
    give the reference's cells. Where the reference raises the screen's
    InputError, as a negative scale or a polytope of the wrong dimension
    makes it, the order matrix's grid raises its text when it is
    built."""
    rng = np.random.default_rng(3500)
    labels = grid_cases(rng) + [untied_instance(rng, 3 + t % 4)
                                for t in range(4)]
    labels += [wrong_dimension_instance(rng, 3 + t, 1 + t, t == 1)
               for t in range(2)]
    seen = set()
    for inst, fam in labels:
        try:
            arrays = order_arrays(inst, fam)
        except InputError:
            continue
        rel = _outcome(order_reference.relation_matrix, inst, fam, arrays)
        if rel[0] == "InputError":
            for build in (lambda: relation_matrix(inst, fam, arrays),
                          lambda: order_grid(inst, arrays)):
                with pytest.raises(InputError) as err:
                    build()
                assert str(err.value) == rel[1]
            seen.add(rel[1])
            continue
        rel = np.array(rel)
        assert relation_matrix(inst, fam, arrays).tolist() == rel.tolist()
        n = len(inst.labels)
        want = by_columns(as_column(order_reference.order_queries), inst,
                          arrays)
        assert by_columns(instances._ask_column, inst, arrays).tolist() == \
            want.tolist()
        want = want.reshape(n, n)
        grid, read = order_grid(inst, arrays), np.zeros(n, dtype=bool)
        assert_passed(grid, want, read)
        for cols in column_chunks(rng, n):
            assert read_bools(grid, cols).tolist() == rel[:, cols].tolist()
            read[cols] = True
            assert_passed(grid, want, read)
        assert grid.precedes(cols[0]).tolist() == rel[:, cols[0]].tolist()
        seen.add("untied" if arrays[5] is None else "facets")

    graphs = graph_cases(rng) + [as_graph(*untied_instance(rng, 3))]
    for pi, fm in graphs:
        arrays = graph_arrays(pi, fm)
        P = len(pi.graph)
        want = as_cells(order_reference.order_queries)(
            pi, arrays, *every_pair(P)).reshape(P, P)
        grid, read = graph_grid(pi, fm), np.zeros(P, dtype=bool)
        for cols in column_chunks(rng, P):
            assert read_columns(grid, cols).tolist() == \
                want[:, cols].tolist()
            read[cols] = True
            assert (grid.cells[:, ~read] == UNPASSED).all()
            assert grid.cells[:, read].tolist() == want[:, read].tolist()
        seen.add("graph")
    assert seen == {"facets", "untied", "graph", "scale must be nonnegative",
                    "polytope dimension does not match the cone"}, seen


def read_rule_cases(rng):
    """The label orders of :func:`grid_cases` and of shared polytopes of 8
    vertices (:func:`untied_instance`), with their arrays, each followed
    by its graph (:func:`as_graph`) where the family has one index; those
    whose arrays raise are left out."""
    for inst, fam in grid_cases(rng) + [untied_instance(rng, 3 + t % 3)
                                        for t in range(3)]:
        try:
            arrays = order_arrays(inst, fam)
        except InputError:
            continue
        yield inst, arrays
        if len(fam.lambdas()) == 1:
            pi, fm = as_graph(inst, fam)
            yield pi, graph_arrays(pi, fm)


def test_each_read_asks_only_the_open_cells_it_reads(monkeypatch):
    """Random bool reads (``precedes``) and witness reads (``column``) of
    random rows of random columns of one grid, on both orders of
    :func:`read_rule_cases`: ``precedes`` asks exactly the ``OPEN`` cells
    among the rows it reads, without a witness, and never an ``OUT`` cell;
    ``column`` asks exactly the ``OPEN`` and ``OUT`` cells among its rows,
    with a witness, so that no cell is asked with a witness twice. Each
    read gives the reference's answers, and all the reads of a grid run no
    more _phase1 calls than the reference asking every pair once without a
    witness and once with one."""
    rng = np.random.default_rng(3900)
    asked, real = [], instances._ask_column

    def recording(inst, arrays, rows, j, witness):
        asked.append((rows.tolist(), j, witness))
        return real(inst, arrays, rows, j, witness)

    monkeypatch.setattr(instances, "_ask_column", recording)
    cells = as_cells(order_reference.order_queries)

    def bools(inst, arrays, x2s, x1s):
        return cells(inst, arrays, x2s, x1s, witness=False)

    seen = dict.fromkeys(("open asked", "out kept", "out asked", "graph"), 0)
    for inst, arrays in read_rule_cases(rng):
        try:
            grid = order_grid(inst, arrays)
        except InputError:
            continue
        n = len(arrays[3])
        n_bool, covered = _lps(monkeypatch, bools, inst, arrays,
                               *every_pair(n))
        n_witness, want = _lps(monkeypatch, cells, inst, arrays,
                               *every_pair(n))
        covered, want = covered.reshape(n, n) < 0, want.reshape(n, n)
        witnessed, n_reads = set(), 0
        for _ in range(4 * n):
            j = int(rng.integers(n))
            rows = (None if rng.random() < 0.3 else
                    rng.permutation(n)[:int(rng.integers(1, n + 1))])
            read = np.arange(n) if rows is None else rows
            grid.pass_columns(j)
            before = grid.cells[read, j]
            asked.clear()
            if rng.random() < 0.5:
                lps, got = _lps(monkeypatch, grid.precedes, j, rows)
                assert got.tolist() == covered[read, j].tolist()
                ask, witness = read[before == OPEN], False
                seen["out kept"] += int((before == OUT).sum())
            else:
                lps, got = _lps(monkeypatch, grid.column, j, rows)
                assert got.tolist() == want[read, j].tolist()
                ask, witness = read[(before == OPEN) | (before == OUT)], True
                assert not witnessed & {(r, j) for r in ask.tolist()}
                witnessed |= {(r, j) for r in ask.tolist()}
                seen["out asked"] += int((before == OUT).sum())
            assert asked == ([(ask.tolist(), j, witness)] if ask.size
                             else []), (asked, ask, j, witness)
            seen["open asked"] += int((before == OPEN).sum())
            n_reads += lps
        assert n_reads <= n_bool + n_witness, (n_reads, n_bool, n_witness)
        seen["graph"] += not isinstance(inst, FiniteInstance)
    assert min(seen.values()) > 0, seen


def test_a_negative_graph_scale_raises_before_any_read(monkeypatch):
    """The graph arrays of pair maps with a negative scale
    (:func:`negative_scale_instance` graphs, and those with a zero
    diagonal, which pass the reflexive check) make ``order_grid`` raise
    ``InputError("scale must be nonnegative")`` with no facet pass and no
    stack run. 5.1 and 5.2 from every start raise the error of the pair-map
    checks where those fail, as they do here before the order is read, or
    else that InputError."""
    rng = np.random.default_rng(4000)

    def no_read(*args, **kwargs):
        raise AssertionError("an order cell was read")

    texts = set()
    for t in range(12):
        inst, fam = negative_scale_instance(rng, 3 + t % 4, 1 + t % 3,
                                            1 + t % 3)
        if t % 2:
            p = fam.p.mat.copy()
            np.fill_diagonal(p, 0.0)
            p[0, -1] = -0.5
            fam = QuasiMetricDirection(fam.H, QuasiMetric(p))
        pi, fm = as_graph(inst, fam)
        arrays = graph_arrays(pi, fm)
        with monkeypatch.context() as mp:
            mp.setattr(instances, "_facet_pass", no_read)
            mp.setattr(instances, "covered_queries", no_read)
            with pytest.raises(InputError) as err:
                order_grid(pi, arrays)
        assert str(err.value) == "scale must be nonnegative"
        try:
            validate_fmap(pi, fm)
            want = InputError, "scale must be nonnegative"
        except (HypothesisError, InputError) as exc:
            want = type(exc), str(exc)
        texts.add(want[1].partition(":")[0])
        for start in pi.graph:
            at = ProductInstance(pi.graph, pi.base, start, pi.cone, pi.tol)
            for solve_ in (solve_minimal_point, solve_strict_minimal):
                with pytest.raises(want[0]) as err:
                    solve_(at, fm)
                assert str(err.value) == want[1], (t, solve_.__name__)
    assert len(texts) > 1, texts


def reference_solve(inst, fam, xi, x0):
    """``solvers._solve_order`` as it was before its grid decided columns
    when they are read: the reference's whole order matrix, the engine
    oracle and the hypothesis gate over that matrix, and the conclusions
    on a grid with every cell open, whose one stack goes through the
    reference."""
    arrays = order_arrays(inst, fam)
    ok, witness = ti_check(inst, fam)
    if not ok:
        raise HypothesisError(
            "triangle_inclusion", "the perturbation family fails the "
            "triangle inclusion property", witness={"triple": witness})
    eta = label_infima(inst, xi, arrays)
    rel = order_reference.relation_matrix(inst, fam, arrays)
    oracle = PreorderOracle.from_columns(inst.labels, lambda j: rel[:, j],
                                         eta)
    if not oracle.section(x0):
        raise HypothesisError("nonempty_start",
                              f"the lower section of {x0!r} is empty")
    report = check_assumptions(inst, fam, xi, x0,
                               matrix_grid(inst, arrays, rel), eta)
    if not report.solvable():
        raise HypothesisError(report.failed_name(), "assumption gate failed",
                              witness=report.to_dict())
    xhat, trace = solve(oracle, x0, "greedy")
    return (xhat, _order_conclusions(inst, fam, open_grid(inst, arrays),
                                     xhat, x0), report, trace)


def _solve_data(fn, *args):
    """A solve's terminal label, conclusions, report and trace as plain
    data, or its error's type, text, name and witness."""
    try:
        xhat, conclusions, report, trace = fn(*args)
    except (HypothesisError, InputError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "name", None),
                getattr(exc, "witness", None))
    return (xhat, [c.to_dict() for c in conclusions], report.to_dict(),
            trace.to_dict())


def test_label_solves_equal_the_reference_solve(monkeypatch):
    """``_solve_order`` from several starts of :func:`grid_cases` and of
    shared polytopes of 8 vertices, with a linear functional positive on
    the cone, gives the terminal label, conclusions and witnesses,
    hypothesis report, trace and error texts of :func:`reference_solve`,
    with no more _phase1 calls; so does ``check_assumptions`` left to build
    its own order against the reference's matrix."""
    rng = np.random.default_rng(3600)
    cases = grid_cases(rng) + [untied_instance(rng, 3 + t % 3)
                               for t in range(3)]
    seen = set()
    for inst, fam in cases:
        A = inst.cone.halfspaces
        xi = LinearFunctional(A.T @ np.ones(len(A)))
        for x0 in inst.labels[::2]:
            n_new, got = _lps(monkeypatch, _solve_data, _solve_order, inst,
                              fam, xi, x0, "greedy")
            with monkeypatch.context() as mp:
                _as_reference(mp)
                n_old, want = _lps(monkeypatch, _solve_data, reference_solve,
                                   inst, fam, xi, x0)
            assert got == want, (x0, got, want)
            assert n_new <= n_old, (n_new, n_old)
            seen.add("solved" if isinstance(got[1], list) else got[0])
            try:
                rel = order_reference.relation_matrix(inst, fam)
            except InputError as exc:
                with pytest.raises(InputError) as err:
                    check_assumptions(inst, fam, xi, x0)
                assert str(err.value) == str(exc)
                seen.add("check InputError")
                continue
            assert check_assumptions(inst, fam, xi, x0).to_dict() == \
                check_assumptions(inst, fam, xi, x0, matrix_grid(
                    inst, order_arrays(inst, fam), rel)).to_dict()
    assert seen == {"solved", "HypothesisError", "check InputError"}, seen


def counted_pairs(monkeypatch):
    """Count the pairs that ``_facet_pass`` sees: those of whole columns
    (a slice of rows) and those of column re-asks (rows as an index
    array)."""
    seen = {"columns": 0, "stacks": 0}
    real = instances._facet_pass

    def counting(inst, arrays, x2, x1, witness):
        if isinstance(x2, slice):
            labels = range(len(arrays[3]))
            seen["columns"] += len(labels[x2]) * len(
                labels[x1] if isinstance(x1, slice) else x1)
        else:
            seen["stacks"] += len(x2)
        return real(inst, arrays, x2, x1, witness)

    monkeypatch.setattr(instances, "_facet_pass", counting)
    return seen


def test_a_solve_passes_only_the_columns_it_reads(monkeypatch):
    """A label solve passes the columns of its start section, n pairs each,
    and asks at most n more pairs in its conclusions: at most 2n pairs when
    the start section is {x0}. A graph solve (5.1, 5.2) passes the start
    column, the columns of the sections the engine walks and the column of
    its terminal pair: at most 2 columns when the start section is the
    start pair alone."""
    lone = {"label": 0, "graph": 0}
    for seed in range(8):
        b = generated_bundle(3700 + seed, n=6 + seed % 5, m=2 + seed % 2,
                             values_per_point=2,
                             variant=("polytope", "singleton",
                                      "quasimetric")[seed % 3])
        inst, fam = b.instance, b.family
        xi = strictly_positive_functional(direction_polytope(b), inst.cone,
                                          inst.tol)
        rel = relation_matrix(inst, fam)
        n = len(inst.labels)
        for j, x0 in enumerate(inst.labels):
            with monkeypatch.context() as mp:
                seen = counted_pairs(mp)
                assert solve_evp_general(inst, fam, xi, x0).all_hold()
            size = int(rel[:, j].sum())
            assert seen["columns"] == n * size, (seed, x0, seen, size)
            assert seen["stacks"] <= n, (seed, x0, seen)
            if size == 1:
                assert sum(seen.values()) <= 2 * n, (seed, x0, seen)
                lone["label"] += 1
        pi = b.product
        H = direction_polytope(b)
        fm = fmap_from_rate(pi.base, H, 0.4,
                            strictly_positive_functional(H, pi.cone, pi.tol))
        P = len(pi.graph)
        grid = graph_grid(pi, fm)
        for start in range(P):
            size = int(grid.precedes(start).sum())
            at = ProductInstance(pi.graph, pi.base, pi.graph[start],
                                 pi.cone, pi.tol)
            for solve_ in (solve_minimal_point, solve_strict_minimal):
                with monkeypatch.context() as mp:
                    seen = counted_pairs(mp)
                    try:
                        steps = len(solve_(at, fm).trace.steps)
                    except HypothesisError:
                        continue
                assert seen["columns"] <= P * (2 + steps), (seed, seen)
                if size == 1:
                    assert seen["columns"] <= 2 * P, (seed, start, seen)
                    lone["graph"] += 1
    assert min(lone.values()) > 0, lone


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


# ---------------------------------------------------------------------------
# The grid indexers, and the order traffic of the benchmark's inputs.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def indexer_cases():
    """The label instances of :func:`grid_cases` and of
    :func:`untied_instance` with their arrays (those whose arrays raise
    left out), then the graphs of :func:`graph_cases` with theirs; built
    once."""
    rng = np.random.default_rng(3800)
    cases = []
    for inst, fam in grid_cases(rng) + [untied_instance(rng, 3 + t % 3)
                                        for t in range(3)]:
        try:
            cases.append((inst, order_arrays(inst, fam)))
        except InputError:
            continue
    return cases + [(pi, graph_arrays(pi, fm)) for pi, fm in graph_cases(rng)]


def draw_lines(data, n, forms):
    """Rows or columns of an order matrix of n labels in one of ``forms``:
    a slice (forward or backward, every line or every other), or an index
    array that is sorted, unsorted, or has a line twice."""
    form = data.draw(st.sampled_from(forms))
    if form == "slice":
        return slice(data.draw(st.integers(0, n - 1)), None,
                     data.draw(st.sampled_from((1, 2, -1, -2))))
    lines = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n, unique=True))
    if form == "sorted":
        lines.sort()
    elif form == "repeated":
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(lines)))
    return np.array(lines, dtype=int)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_grid_indexers_equal_the_reference(data):
    """The facet pass of a grid block and the column re-ask take rows as a
    slice or as a sorted, unsorted or repeated index array, over columns
    given as a slice or an index array, on label instances with and
    without facets and on graphs (:func:`indexer_cases`), with
    ``_BLOCK_QUERIES`` at 1 to 64 or at its default. Pair for pair, a
    block's exact cells are the reference's and its ``OUT`` cells are not
    covered, its covered pairs (asked as ``relation_matrix`` asks them)
    are the reference's, and the re-ask of each column gives the
    reference's cells with a witness and its covered pairs without, each
    with no more _phase1 calls; where the reference raises the screen's
    InputError, so does each stack, and the block has decided no cell."""
    cases = indexer_cases()
    inst, arrays = cases[data.draw(st.integers(0, len(cases) - 1))]
    n = len(arrays[3])
    rows = draw_lines(data, n, ("slice", "sorted", "unsorted", "repeated"))
    cols = draw_lines(data, n, ("slice", "sorted", "unsorted"))
    budget = data.draw(st.one_of(st.none(), st.integers(1, 64)))
    labels = np.arange(n)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(instances, "_BLOCK_QUERIES", budget)
            mp.setattr(order_reference, "_BLOCK_QUERIES", budget)
        block = instances._grid_block(inst, arrays, rows, cols)
        want = _outcome(as_cells(order_reference.order_queries), inst,
                        arrays, *grid_pairs(n, rows, cols))
        held = (block != OPEN) & (block != OUT)
        if want[0] == "InputError":
            assert not held.any()
        else:
            assert block[held].tolist() == np.array(want)[held].tolist()
            assert (np.array(want)[block == OUT] >= 0).all()
    assert_same(pytest.MonkeyPatch, budget, bare_order_query, bare_reference,
                inst, arrays, rows, cols)
    for j in labels[cols]:
        assert_same(pytest.MonkeyPatch, budget, instances._ask_column,
                    as_column(order_reference.order_queries), inst, arrays,
                    labels[rows], j, True)
        assert_same(pytest.MonkeyPatch, budget, bool_column, bare_reference,
                    inst, arrays, labels[rows], np.array([j]))


def _bench_workloads():
    """``bench/workloads.py``, which builds the benchmark's inputs and
    operations, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["evp-scaled", "extensional-lp",
                                      "graph-minimal", "cli-batch"])
def test_the_benchmark_inputs_reask_no_order_cell(monkeypatch, tmp_path,
                                                  workload):
    """On the inputs of each benchmark workload, built as the benchmark
    builds them (the same variants, sizes and admission) at fixed seeds,
    no operation re-asks an order cell (``instances._ask_column``) or runs
    a phase-1 LP: the facet pass decides every cell the label solves (3.1,
    4.1, 4.2, 4.4), the graph solves (5.1, 5.2, 5.6) and the CLI commands
    read. A change that leaves such cells open fails here."""
    workloads = _bench_workloads()
    counts = {"reask": 0, "phase1": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(instances, "_ask_column",
                        counted("reask", instances._ask_column))
    monkeypatch.setattr(geometry, "_phase1",
                        counted("phase1", geometry._phase1))
    kinds = set()
    for seed in (1, 99, 4242):
        directory = tmp_path / str(seed)
        directory.mkdir()
        items = workloads.build(workload, seed, str(directory))
        for op in workloads.operations(workload, items, str(directory)):
            op.run()
            assert counts == {"reask": 0, "phase1": 0}, (seed, op.kind,
                                                         counts)
            # a solve's theorem, or a CLI command
            kinds.add(op.kind.partition("/")[0])
    assert kinds >= {"evp-scaled": {"3.1", "4.1", "4.2", "4.4"},
                     "extensional-lp": {"3.1"},
                     "graph-minimal": {"5.1", "5.2", "5.6"},
                     "cli-batch": {"solve-evp", "check-assumptions",
                                   "solve-minimal-point"}}[workload], kinds


# ---------------------------------------------------------------------------
# Facet work once per solve: the two-vertex ties in closed form, and one
# target table for the order and the triangle search of a per-pair solve.
# ---------------------------------------------------------------------------

def _same_ties(got, want):
    """Whether two ``tie_conditions`` results are the same bytes: both
    None, or equal ``W`` and ``theta0`` to the bit and the same ``solve``."""
    if want is None or got is None:
        return got is want
    return (got[0].shape == want[0].shape
            and got[0].tobytes() == want[0].tobytes()
            and got[1].tobytes() == want[1].tobytes()
            and type(got[2]) is type(want[2]) and got[2] == want[2])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_tie_conditions_equal_the_verbatim_copy(data):
    """``tie_conditions`` of ``A H`` over 1 to 8 cone rows and 1 to 5
    vertices, at magnitudes from 1e-6 to 1e6, with exact ties (a vertex
    repeated), zero entries of ``d`` (a row equal at two vertices), rows of
    opposite sign and integer entries, is the copy that
    ``order_reference`` keeps byte for byte: ``W`` in the same row order,
    ``theta0``, ``solve``, and None over ``_TIE_SYSTEMS``."""
    k, J = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    AH = rng.normal(size=(k, J)) * 10.0 ** rng.uniform(-6, 6, size=(k, J))
    if J > 1 and data.draw(st.booleans()):
        a, b = rng.choice(J, 2, replace=False)
        AH[:, b] = AH[:, a]
    if J > 1 and data.draw(st.booleans()):
        a, b = rng.choice(J, 2, replace=False)
        AH[rng.integers(k), b] = AH[rng.integers(k), a]
    if k > 1 and data.draw(st.booleans()):
        i, l = rng.choice(k, 2, replace=False)
        AH[l] = -rng.uniform(0.5, 2.0) * AH[i]
    if data.draw(st.booleans()):
        AH = np.round(AH)
    assert _same_ties(instances.tie_conditions(AH),
                      order_reference.tie_conditions(AH))


@pytest.mark.parametrize("k, J", [(24, 2), (8, 5), (4, 4)])
def test_tie_conditions_over_the_cap_equal_the_copy(k, J):
    """Over ``_TIE_SYSTEMS`` candidates H is left to the screen as the copy
    leaves it, two vertices over 24 cone rows included."""
    AH = np.random.default_rng(k * J).normal(size=(k, J))
    assert _same_ties(instances.tie_conditions(AH),
                      order_reference.tie_conditions(AH))
    assert (instances.tie_conditions(AH) is None) == (k * J != 16)


class _NoLinalg:
    """``np.linalg`` while a tie build must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} reached")


def test_one_and_two_vertex_ties_build_no_table_and_solve_nothing(
        monkeypatch):
    """``tie_conditions`` of one and two vertices over 1 to 8 cone rows
    reaches neither ``target_tables`` nor ``np.linalg``, and gives the
    copy's conditions."""
    rng = np.random.default_rng(3800)
    cases = [rng.normal(size=(k, J)) * 10.0 ** rng.uniform(-6, 6)
             for k in range(1, 9) for J in (1, 2) for _ in range(3)]
    want = [order_reference.tie_conditions(AH) for AH in cases]

    def no_table(*args):
        raise AssertionError("target_tables reached")

    monkeypatch.setattr(instances, "target_tables", no_table)
    monkeypatch.setattr(np, "linalg", _NoLinalg())
    got = [instances.tie_conditions(AH) for AH in cases]
    monkeypatch.undo()
    assert all(map(_same_ties, got, want))


def counted_tables(monkeypatch):
    """Count the calls of ``instances.target_tables``."""
    calls, real = [0], instances.target_tables

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(instances, "target_tables", counting)
    return calls


def test_a_per_pair_solve_builds_one_target_table(monkeypatch, tmp_path,
                                                  capsys):
    """Theorem 3.1 on extensional tables builds one target table, shared
    by the order and the triangle search, through the API and through
    ``solve-evp --theorem 3.1`` (two were built before); and
    ``check-assumptions``, which runs no triangle search, builds one."""
    for seed in (7, 8, 9):
        doc = generate(seed, n=5 + seed % 3, m=3, values_per_point=2,
                       variant="extensional")
        path = tmp_path / f"table{seed}.json"
        path.write_text(json.dumps(doc))
        b = load_validate(doc)
        inst = b.instance
        xi = strictly_positive_functional(direction_polytope(b), inst.cone,
                                          inst.tol)
        runs = {"api": lambda: solve_evp_general(inst, b.family, xi,
                                                  b.params.x0).all_hold(),
                "solve-evp": lambda: cli.main(
                    ["solve-evp", "--theorem", "3.1", str(path)]) == 0,
                "check-assumptions": lambda: cli.main(
                    ["check-assumptions", str(path)]) == 0}
        for name, run in runs.items():
            with monkeypatch.context() as mp:
                calls = counted_tables(mp)
                assert run(), (seed, name)
            assert calls[0] == 1, (seed, name, calls)
    capsys.readouterr()


def at_tolerance(inst, fam, tol):
    """The instance and family of ``(inst, fam)`` at ``tol``."""
    return FiniteInstance(inst.space, inst.fmap, inst.cone, tol), fam


def reference_ti(inst, fam):
    """``ti_check`` from ``triangle_reference``'s search and its own
    ``facet_tables``."""
    hit = triangle_reference.triangle_failure(*fam.arrays(inst.space),
                                              inst.cone, inst.tol)
    if hit is None:
        return True, None
    lam, a, b, c = hit
    labels = inst.labels
    return False, (labels[a], labels[b], labels[c], fam.lambdas()[lam])


def test_per_pair_solves_on_one_table_equal_both_references(monkeypatch):
    """On extensional tables, at the default tolerance and at tolerances of
    1 and above (where the order asks every target as the cone test, and
    the search builds its own table), ``ti_check`` on the solve's arrays
    gives the verdict and witness of ``triangle_reference`` and of a
    search that builds its own table, with no more _phase1 calls; and the
    solve equals :func:`reference_solve` in cells, witnesses, reports,
    error texts and _phase1 calls, with one table built below tolerance 1
    and two from 1 up."""
    rng = np.random.default_rng(3900)
    cases = [wide_table(rng, 3 + t % 3, 1 + t % 3, 1 + t % 2)
             for t in range(4)]
    cases += [highs_table(rng, 3 + t % 3, 2 + t % 2, 1 + t % 2, 1.0)[:2]
              for t in range(2)]
    cases += [(generated_bundle(3900 + t, n=4 + t, m=2,
                                variant="extensional").instance,
               generated_bundle(3900 + t, n=4 + t, m=2,
                                variant="extensional").family)
              for t in range(2)]
    seen = set()
    for base, fam in cases:
        for tol in (DEFAULT_TOL, 1.0, 4.0):
            inst, _ = at_tolerance(base, fam, tol)
            arrays = order_arrays(inst, fam)
            n_new, got = _lps(monkeypatch, ti_check, inst, fam, arrays)
            n_old, want = _lps(monkeypatch, reference_ti, inst, fam)
            assert got == want == ti_check(inst, fam), (tol, got, want)
            assert n_new <= n_old, (tol, n_new, n_old)
            A = inst.cone.halfspaces
            xi = LinearFunctional(A.T @ np.ones(len(A)))
            x0 = inst.labels[0]
            with monkeypatch.context() as mp:
                calls = counted_tables(mp)
                n_new, got = _lps(monkeypatch, _solve_data, _solve_order,
                                  inst, fam, xi, x0, "greedy")
            with monkeypatch.context() as mp:
                _as_reference(mp)
                n_old, want = _lps(monkeypatch, _solve_data,
                                   reference_solve, inst, fam, xi, x0)
            assert got == want, (tol, got, want)
            assert n_new <= n_old, (tol, n_new, n_old)
            assert calls[0] == (1 if tol < 1 else 2), (tol, calls)
            seen.add((tol < 1, "solved" if isinstance(got[1], list)
                      else got[0]))
    assert {(True, "solved"), (False, "solved")} <= seen, seen


def test_each_direction_solve_validates_its_direction_set_once(monkeypatch):
    """Theorems 3.5 (pointwise), 4.2 and 4.4 check their direction set
    once per solve: the family's ``validate`` or the functional, not
    both."""
    calls, real = [0], geometry.validate_direction_set

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(geometry, "validate_direction_set", counting)
    monkeypatch.setattr(instances, "validate_direction_set", counting)
    for seed in range(3):
        single = generated_bundle(4000 + seed, n=4, m=2, variant="singleton")
        poly = generated_bundle(4000 + seed, n=4, m=2, variant="polytope")
        quasi = generated_bundle(4000 + seed, n=4, m=2,
                                 variant="quasimetric")
        k0 = single.raw["perturbation"]["k0"]
        H = Polytope(poly.raw["perturbation"]["vertices"])
        solves = {
            "3.5": lambda eps: solve_evp_direction(
                single.instance, k0, eps, single.params.lam,
                single.params.x0, premise="pointwise"),
            "4.2": lambda eps: solve_evp_set_direction(
                poly.instance, H, poly.params.gamma, poly.params.x0),
            "4.4": lambda eps: solve_evp_quasimetric(
                quasi.instance, quasi.family.H, quasi.family.p,
                quasi.params.x0)}
        for name, solve_ in solves.items():
            eps, _ = grow_epsilon(solve_)
            calls[0] = 0
            solve_(eps)
            assert calls[0] == 1, (seed, name, calls)
