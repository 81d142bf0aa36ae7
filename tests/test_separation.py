"""The separating functional by row generation against the full tableau
and against HiGHS.

``loop_separation`` is the earlier ``geometry.strictly_positive_functional``,
copied verbatim apart from its name: one ``_phase1`` call on every
``(A h) . mu >= 1`` row at once. The generated rows must reach the same
decisions; where both find a functional, each is >= 1 - tol on every vertex
and carries ``alpha = min_H w . h``. The weights themselves may differ in
their last digits, since the two solve different tableaux.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from evpkit import geometry
from evpkit.geometry import (DEFAULT_TOL, LinearFunctional, Polytope,
                             PolyhedralCone, _feasible_nonneg, cone,
                             strictly_positive_functional,
                             validate_direction_set)

from conftest import direction_polytope, generated_bundle, random_cone


def loop_separation(H: Polytope, C: PolyhedralCone, tol=DEFAULT_TOL):
    """A functional in the dual cone of C that is >= 1 on every vertex of H.

    Searches ``w = A^T mu`` with ``mu >= 0`` (exactly the dual cone of a
    halfspace-form C) subject to ``w . h >= 1`` per vertex. Returns a
    LinearFunctional carrying ``alpha = min_H w . h``, or None when the LP is
    infeasible, which in the polyhedral setting certifies that 0 lies in the
    closure of H + C.
    """
    validate_direction_set(H, C, tol)
    A = C.halfspaces
    rows = H.vertices @ A.T  # per vertex h: coefficients (A h) . mu
    mu = _feasible_nonneg(None, None, rows, np.ones(rows.shape[0]), tol)
    if mu is None:
        return None
    w = A.T @ mu
    alpha = float(np.min(H.vertices @ w))
    return LinearFunctional(w, alpha=alpha)


def highs_separates(H, C):
    """Whether HiGHS finds ``mu >= 0`` with ``(A h) . mu >= 1`` per vertex."""
    rows = H.vertices @ C.halfspaces.T
    res = linprog(np.zeros(rows.shape[1]), A_ub=-rows,
                  b_ub=-np.ones(rows.shape[0]), bounds=(0, None),
                  method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def lp_sizes(monkeypatch, fn, *args):
    """Row counts of the ``_phase1`` tableaux ``fn(*args)`` solves, and its
    result."""
    sizes = []
    original = geometry._phase1

    def record(M, rhs, tol):
        sizes.append(np.shape(M)[0])
        return original(M, rhs, tol)

    monkeypatch.setattr(geometry, "_phase1", record)
    result = fn(*args)
    monkeypatch.setattr(geometry, "_phase1", original)
    return sizes, result


def assert_agree(H, C, tol):
    """Equal decisions of the generated rows, the full tableau and HiGHS;
    returns the new functional."""
    got = strictly_positive_functional(H, C, tol)
    want = loop_separation(H, C, tol)
    assert (got is None) == (want is None)
    assert (got is None) == (not highs_separates(H, C))
    V = H.vertices
    for xi in (got, want):
        if xi is not None:
            assert np.all(V @ xi.weights >= 1 - tol)
            assert xi.alpha == float(np.min(V @ xi.weights))
    return got


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", range(6, 15))
def test_extensional_separation_matches_full_tableau(n, m):
    """Pooled extensional direction vertices: 120 rows at n = 6 to 728 at
    n = 14."""
    bundle = generated_bundle(300 + n, n=n, m=m, values_per_point=4,
                              variant="extensional")
    H = direction_polytope(bundle)
    assert H.vertices.shape[0] == 4 * n * (n - 1)
    assert assert_agree(H, bundle.instance.cone, bundle.tol) is not None


def test_random_separation_matches_full_tableau():
    """Random cones, every third one the non-pointed ``{y_1, ..., y_{m-1}
    >= 0}``, with 3 to 40 random direction vertices inside. Half of the
    non-pointed cases get a vertex on the lineality line, which no
    functional separates, so both answers occur."""
    rng = np.random.default_rng(61)
    decisions = []
    for trial in range(120):
        m = int(rng.integers(2, 4))
        if trial % 3:
            C, k0 = random_cone(rng, m)
        else:
            # {y : y_1 >= 0, ..., y_{m-1} >= 0}, lineality along e_m
            C, k0 = cone(np.eye(m)[:-1]), np.r_[np.ones(m - 1), 0.0]
        count = int(rng.integers(3, 41))
        V = []
        while len(V) < count:
            v = rng.uniform(0.1, 2.0) * k0 + rng.normal(scale=0.3, size=m)
            if np.all(C.halfspaces @ v >= 0) and np.abs(v).max() > 0.1:
                V.append(v)
        if trial % 3 == 0 and trial % 2 == 0:
            V[int(rng.integers(count))] = np.eye(m)[-1] * rng.choice([-1, 1])
        decisions.append(assert_agree(Polytope(V), C, DEFAULT_TOL) is None)
    assert 0 < sum(decisions) < len(decisions)


def test_seed_rows_alone_are_infeasible(monkeypatch):
    """The non-pointed cone ``{y1 >= 0}`` in R^2 with vertices (0, 1) and
    (0, -1) on its lineality line and ten more: the eight seed rows hold
    both zero rows, so the seed decides, and the full system agrees."""
    C = cone([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    H = Polytope([[0.0, 1.0], [0.0, -1.0]]
                 + [[1.0 + i, 0.5 * i] for i in range(10)])
    sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C)
    assert xi is None and sizes == [8]
    assert assert_agree(H, C, DEFAULT_TOL) is None


def test_infeasibility_found_past_the_seed_rows(monkeypatch):
    """Eight rows ``(-e, e)`` of row sum 0 make the seed and admit
    ``mu = (0, 1 / e)``; the row ``(e, -e)`` of a later vertex cancels them,
    and only the second round, on nine rows, is infeasible."""
    tol = 1e-6
    C = cone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    e = 5e-7 * (1.0 + np.arange(8) / 8.0)
    H = Polytope(np.vstack([
        np.c_[-e, e, np.ones(8)],
        [[1.0 + i, 2.0, 0.5] for i in range(5)],
        [[5e-7, -5e-7, -1.0]]]))
    sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C, tol)
    assert xi is None and sizes == [8, 9]
    assert assert_agree(H, C, tol) is None


@pytest.mark.parametrize("full_short", [False, True])
def test_short_solved_rows_fall_back_to_the_full_system(monkeypatch,
                                                        full_short):
    """A subset witness shrunk by 1e-6 leaves rows short that are already
    solved; once no unsolved row is short, the last round solves all rows.
    A full-system witness that still leaves a row short is no witness."""
    bundle = generated_bundle(7, n=6, m=3, values_per_point=4,
                              variant="extensional")
    H, C = direction_polytope(bundle), bundle.instance.cone
    n = H.vertices.shape[0]
    original = geometry._feasible_nonneg
    sizes = []

    def shrunk(A_eq, b_eq, A_ge, b_ge, tol):
        sizes.append(len(A_ge))
        mu = original(A_eq, b_eq, A_ge, b_ge, tol)
        return mu * (1 - 1e-6) if full_short or len(A_ge) < n else mu

    monkeypatch.setattr(geometry, "_feasible_nonneg", shrunk)
    xi = strictly_positive_functional(H, C, bundle.tol)
    assert sizes[0] == 8 and sizes[-1] == n and len(sizes) <= n
    assert sizes[-2] < n and sorted(sizes) == sizes
    if full_short:
        assert xi is None
    else:
        want = loop_separation(H, C, bundle.tol)
        assert xi.weights.tobytes() == want.weights.tobytes()


def test_small_direction_sets_solve_the_full_tableau():
    """At most eight vertices: the rows are not generated, so the weights
    are those of the full tableau byte for byte."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        C, k0 = random_cone(rng, m)
        V = [rng.uniform(0.2, 1.5) * k0 for _ in range(int(rng.integers(1, 9)))]
        got = strictly_positive_functional(Polytope(V), C)
        want = loop_separation(Polytope(V), C)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.alpha == want.alpha
