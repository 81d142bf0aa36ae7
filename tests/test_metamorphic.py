"""Decisions do not depend on how equivalent data is written.

An instance file is loaded as generated and again with its labels in a
random order: the space's labels and coordinates, the value map, the
quasi-metric's rows and columns and an extensional table's rows are all
listed in that order. The order matrix (permuted the same way), the
triangle-inclusion verdict, the assumption gate, the booleans of the 3.1
conclusions, and the order conclusions of every (xhat, x0) with their
witnesses named by label must come out the same. An extensional table may have the
sets of one pair shrunk, so that triangle inclusion can fail, and the start
and the linear scalarization are drawn too, so that the gate can fail.

A direction set of two vertices is also loaded with one of them listed
twice: the same polytope, whose targets the facet pass of the order
stacks and the facet test of the triangle search then leave to
the screen and the LP. The same decisions must come out.

The separating functional is checked the same way. Scaling the cone's
halfspace rows by positive factors leaves the cone as it is, so whether a
functional exists must not change, and the one found for the scaled rows
must be valid for the original ones. Relabelling an extensional table only
reorders its pooled direction vertices, so the functional must not move by
a single bit.

Translating every value by one vector moves f(x1) and f(x2) + F(x2, x1) + C
alike, so the order matrix and the Pareto minima must not change. The
values and the vector are taken on a dyadic grid, so that the translated
values are exact.
"""

import copy
import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from evpkit import solvers
from evpkit.errors import HypothesisError
from evpkit.geometry import (DEFAULT_TOL, LinearFunctional, Polytope, cone,
                             strictly_positive_functional)
from evpkit.instances import (check_assumptions, order_arrays, order_grid,
                              relation_matrix, ti_check)
from evpkit.io import generate, load_validate
from evpkit.product import pareto_min

from conftest import VARIANT_CYCLE, direction_polytope, random_cone


def _permuted(raw, perm):
    """``raw`` with its labels listed in the order ``labels[perm]``."""
    out = copy.deepcopy(raw)
    space = out["space"]
    labels = [space["labels"][i] for i in perm]
    space["labels"] = labels
    space["coordinates"] = [space["coordinates"][i] for i in perm]
    out["map"] = {x: out["map"][x] for x in labels}
    spec = out["perturbation"]
    if spec["variant"] == "quasimetric":
        spec["matrix"] = np.asarray(spec["matrix"])[np.ix_(perm, perm)].tolist()
    if spec["variant"] == "extensional":
        spec["table"] = {lam: {f"{x2}|{x1}": rows[f"{x2}|{x1}"]
                               for x2 in labels for x1 in labels}
                         for lam, rows in spec["table"].items()}
    return out


def _decisions(bundle, xi):
    """What must not move: the order matrix, the triangle-inclusion
    verdict, the gate and the 3.1 conclusion booleans (or the name of the
    hypothesis that stops the solve)."""
    inst, fam, x0 = bundle.instance, bundle.family, bundle.params.x0
    try:
        cert = solvers.solve_evp_general(inst, fam, xi, x0)
        solved = [c.holds for c in cert.conclusions]
    except HypothesisError as exc:
        solved = exc.name
    return (relation_matrix(inst, fam), ti_check(inst, fam)[0],
            check_assumptions(inst, fam, xi, x0).solvable(), solved)


def _conclusions(bundle):
    """``_order_conclusions`` of every (xhat, x0) on the grid of the
    solve, by label names: (a), and (b) with its violations as a set and
    its separations keyed by x."""
    inst, fam = bundle.instance, bundle.family
    grid = order_grid(inst, order_arrays(inst, fam))
    out = {}
    for xhat, x0 in itertools.product(inst.labels, repeat=2):
        a, b = solvers._order_conclusions(inst, fam, grid, xhat, x0)
        out[xhat, x0] = (a.holds, a.witness, b.holds,
                         set(b.witness["violations"]),
                         {w["x"]: w for w in b.witness["separations"]})
    return out


@st.composite
def permuted_instances(draw):
    variant = draw(st.sampled_from(VARIANT_CYCLE))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    raw = generate(draw(st.integers(0, 10_000)), n=n, m=m,
                   values_per_point=draw(st.integers(1, 3)), variant=variant)
    table = raw["perturbation"].get("table", {})
    if table and draw(st.booleans()):
        x2, x1 = draw(st.permutations(raw["space"]["labels"]))[:2]
        for rows in table.values():
            rows[f"{x2}|{x1}"] = (0.05 * np.asarray(rows[f"{x2}|{x1}"])).tolist()
    raw["params"]["x0"] = draw(st.sampled_from(raw["space"]["labels"]))
    del raw["product"]                      # its start pair is at p0
    weights = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=m,
                                        max_size=m))
    return raw, weights, draw(st.permutations(range(n)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(permuted_instances())
def test_label_order_changes_no_decision(case):
    raw, weights, perm = case
    bundle = load_validate(raw)
    inst = bundle.instance
    xi = (strictly_positive_functional(direction_polytope(bundle), inst.cone,
                                       inst.tol) if weights is None
          else LinearFunctional(weights))
    rel, ti, solvable, solved = _decisions(bundle, xi)
    permuted = load_validate(_permuted(raw, perm))
    moved = _decisions(permuted, xi)
    assert np.array_equal(moved[0], rel[np.ix_(perm, perm)])
    assert moved[1:] == (ti, solvable, solved)
    assert _conclusions(permuted) == _conclusions(bundle)


@st.composite
def duplicated_vertex_instances(draw):
    variant = draw(st.sampled_from(("polytope", "open_polytope",
                                    "quasimetric")))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    raw = generate(draw(st.integers(0, 10_000)), n=n, m=m,
                   values_per_point=draw(st.integers(1, 3)), variant=variant)
    spec = raw["perturbation"]
    assume(len(spec["vertices"]) >= 2)
    spec["vertices"] = spec["vertices"][:2]
    raw["params"]["x0"] = draw(st.sampled_from(raw["space"]["labels"]))
    del raw["product"]                      # its start pair is at p0
    twice = copy.deepcopy(raw)
    vertices = twice["perturbation"]["vertices"]
    vertices.insert(draw(st.integers(0, 2)), vertices[draw(st.integers(0, 1))])
    weights = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=m,
                                        max_size=m))
    return raw, twice, weights


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(duplicated_vertex_instances())
def test_a_repeated_direction_vertex_changes_no_decision(case):
    raw, twice, weights = case
    bundle = load_validate(raw)
    inst = bundle.instance
    xi = (strictly_positive_functional(direction_polytope(bundle), inst.cone,
                                       inst.tol) if weights is None
          else LinearFunctional(weights))
    repeated = load_validate(twice)
    assert len(direction_polytope(repeated).vertices) == 3
    rel, ti, solvable, solved = _decisions(bundle, xi)
    moved = _decisions(repeated, xi)
    assert np.array_equal(moved[0], rel)
    assert moved[1:] == (ti, solvable, solved)


@st.composite
def scaled_cones(draw):
    """Halfspace rows, a direction set inside their cone and one positive
    factor per row: a generated instance's pooled direction vertices, a
    random pointed cone, or ``{y_1, ..., y_{m-1} >= 0}``, whose lineality
    line ``e_m`` may hold a vertex that no functional separates."""
    source = draw(st.sampled_from(("generated", "pointed", "lineality")))
    m = draw(st.integers(1 if source == "pointed" else 2, 3))
    if source == "generated":
        bundle = load_validate(generate(
            draw(st.integers(0, 10_000)), n=draw(st.integers(2, 5)), m=m,
            values_per_point=draw(st.integers(1, 3)),
            variant=draw(st.sampled_from(VARIANT_CYCLE))))
        A, H = bundle.instance.cone.halfspaces, direction_polytope(bundle)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if source == "pointed":
            C, k0 = random_cone(rng, m)
            A = C.halfspaces
        else:
            A, k0 = np.eye(m)[:-1], np.r_[np.ones(m - 1), 0.0]
        count = draw(st.integers(1, 12))
        V = []
        while len(V) < count:
            v = rng.uniform(0.1, 2.0) * k0 + rng.normal(scale=0.3, size=m)
            if np.all(A @ v >= 0.01):
                V.append(v)
        if source == "lineality" and draw(st.booleans()):
            V[0] = np.eye(m)[-1] * draw(st.sampled_from((-1.0, 1.0)))
        H = Polytope(V)
    factors = draw(st.lists(st.floats(0.5, 4.0), min_size=len(A),
                            max_size=len(A)))
    return A, H, np.array(factors)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(scaled_cones())
def test_positive_row_scaling_keeps_the_separation(case):
    A, H, factors = case
    xi = strictly_positive_functional(H, cone(A))
    got = strictly_positive_functional(H, cone(factors[:, None] * A))
    assert (got is None) == (xi is None)
    if got is not None:
        # valid for the original rows: >= 1 - tol on every vertex, and
        # A^T mu for some mu >= 0
        assert np.all(H.vertices @ got.weights >= 1 - DEFAULT_TOL)
        res = linprog(np.zeros(len(A)), A_eq=A.T, b_eq=got.weights,
                      bounds=(0, None), method="highs")
        assert res.status == 0


@st.composite
def relabelled_tables(draw):
    n = draw(st.integers(2, 6))
    raw = generate(draw(st.integers(0, 10_000)), n=n,
                   m=draw(st.integers(1, 3)),
                   values_per_point=draw(st.integers(1, 4)),
                   variant="extensional")
    return raw, draw(st.permutations(range(n)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(relabelled_tables())
def test_relabelling_a_table_keeps_the_pooled_functional(case):
    raw, perm = case
    functionals = []
    for bundle in (load_validate(raw), load_validate(_permuted(raw, perm))):
        H = direction_polytope(bundle)
        functionals.append(strictly_positive_functional(
            H, bundle.instance.cone, bundle.tol))
    xi, moved = functionals
    assert moved.weights.tobytes() == xi.weights.tobytes()
    assert moved.alpha == xi.alpha


# translated values sit on multiples of 2**-_GRID, at most 2**12 apart
_GRID = 6


@st.composite
def translated_instances(draw):
    m = draw(st.integers(1, 3))
    raw = generate(draw(st.integers(0, 10_000)), n=draw(st.integers(2, 6)),
                   m=m, values_per_point=draw(st.integers(1, 4)),
                   variant=draw(st.sampled_from(VARIANT_CYCLE)))
    del raw["product"]                      # its start pair is at p0
    raw["map"] = {x: (np.round(np.asarray(v) * 2 ** _GRID)
                      / 2 ** _GRID).tolist() for x, v in raw["map"].items()}
    shift = draw(st.lists(st.integers(-2 ** 12, 2 ** 12), min_size=m,
                          max_size=m))
    moved = copy.deepcopy(raw)
    moved["map"] = {x: (np.asarray(v) + np.asarray(shift) / 2 ** _GRID
                        ).tolist() for x, v in raw["map"].items()}
    return raw, moved, np.asarray(shift) / 2 ** _GRID


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(translated_instances())
def test_translating_every_value_keeps_the_order(case):
    raw, moved, shift = case
    bundle, translated = load_validate(raw), load_validate(moved)
    for x, values in bundle.instance.fmap.values.items():
        assert np.array_equal(translated.instance.fmap.at(x), values + shift)
    assert np.array_equal(relation_matrix(translated.instance,
                                          translated.family),
                          relation_matrix(bundle.instance, bundle.family))
    C = bundle.instance.cone
    points = bundle.instance.fmap.all_points()
    minima = np.array(pareto_min(points, C)).reshape(-1, C.dim)
    assert np.array_equal(
        np.array(pareto_min(points + shift, C)).reshape(-1, C.dim),
        minima + shift)
