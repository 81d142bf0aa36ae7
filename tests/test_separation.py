"""The separating functional in closed form against the full tableau and
against HiGHS.

``loop_separation`` is the earlier ``geometry.strictly_positive_functional``,
copied verbatim apart from its name: one ``_phase1`` call on every
``(A h) . mu >= 1`` row at once. ``strictly_positive_functional`` takes the
uniform ``mu = 1 / least`` of the least row sum when that is positive and
solves the same full tableau otherwise. The two must reach the same
decisions; where both find a functional, each is >= 1 - tol on every vertex
and carries ``alpha = min_H w . h``. In closed form the weights are
``A^T mu`` of that uniform ``mu``; on the full tableau they are
``loop_separation``'s byte for byte.
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
    """Equal decisions of the new functional, the full tableau and HiGHS;
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


def uniform_weights(H, C):
    """``A^T mu`` of the uniform ``mu = 1 / least``, or None when the least
    row sum is not positive."""
    A = C.halfspaces
    least = (H.vertices @ A.T).sum(axis=1).min()
    return A.T @ np.full(A.shape[0], 1 / least) if least > 0 else None


def test_seed_rows_alone_are_infeasible(monkeypatch):
    """The non-pointed cone ``{y1 >= 0}`` in R^2 with vertices (0, 1) and
    (0, -1) on its lineality line and ten more. Row generation once decided
    this from its eight seed rows, which held both zero rows. Their row sum
    is 0, so there is no closed form: the full twelve-row system is solved
    once, and it is infeasible."""
    C = cone([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    H = Polytope([[0.0, 1.0], [0.0, -1.0]]
                 + [[1.0 + i, 0.5 * i] for i in range(10)])
    sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C)
    assert xi is None and sizes == [12]
    assert assert_agree(H, C, DEFAULT_TOL) is None


def test_infeasibility_found_past_the_seed_rows(monkeypatch):
    """Eight rows ``(-e, e)`` of row sum 0, which admit ``mu = (0, 1 / e)``
    on their own, and the row ``(e, -e)`` of a later vertex that cancels
    them. Row generation once needed a second round to find this
    infeasible; the least row sum is 0, so the full fourteen-row system is
    solved once."""
    tol = 1e-6
    C = cone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    e = 5e-7 * (1.0 + np.arange(8) / 8.0)
    H = Polytope(np.vstack([
        np.c_[-e, e, np.ones(8)],
        [[1.0 + i, 2.0, 0.5] for i in range(5)],
        [[5e-7, -5e-7, -1.0]]]))
    sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C, tol)
    assert xi is None and sizes == [14]
    assert assert_agree(H, C, tol) is None


def test_closed_form_on_pointed_cones(monkeypatch):
    """Random pointed cones (as many rows as dimensions or more, every row
    positive on k0) with 1 to 40 random direction vertices inside: every
    least row sum is positive, no LP runs, and the weights are
    ``A^T (1 / least, ..., 1 / least)`` byte for byte. They do not depend on
    the order of the vertices."""
    rng = np.random.default_rng(23)
    for _ in range(150):
        m = int(rng.integers(1, 5))
        C, k0 = random_cone(rng, m)
        count = int(rng.integers(1, 41))
        V = []
        while len(V) < count:
            v = (rng.uniform(0.01, 3.0) * k0
                 + rng.normal(scale=rng.choice([0.0, 0.1, 0.5]), size=m))
            if np.all(C.halfspaces @ v >= 0) and np.abs(v).max() > 0.01:
                V.append(v)
        H = Polytope(V)
        sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C)
        assert sizes == []
        assert xi.weights.tobytes() == uniform_weights(H, C).tobytes()
        assert assert_agree(H, C, DEFAULT_TOL).weights.tobytes() == \
            xi.weights.tobytes()
        shuffled = Polytope(rng.permutation(H.vertices))
        again = strictly_positive_functional(shuffled, C)
        assert again.weights.tobytes() == xi.weights.tobytes()
        assert again.alpha == xi.alpha


def fallback_cases(rng):
    """Direction sets whose least row sum is at most 0, with their cones:
    vertices on the lineality line of ``{y_1 >= 0}`` or of ``{y_1, y_2 >=
    0}`` in R^3, and orthant vertices within tol of 0 in every row."""
    yield cone([[1.0, 0.0]]), Polytope([[0.0, 1.0]])
    yield cone([[1.0, 0.0]]), Polytope([[0.0, 1.0], [1.0, 0.5]])
    yield geometry.orthant(3), Polytope([[2e-9, -1e-9, -1e-9]])
    yield geometry.orthant(3), Polytope([[2e-9, -1e-9, -1e-9], [1.0, 1.0, 1.0]])
    for _ in range(60):
        if rng.integers(2):
            # {y_1, ..., y_{m-1} >= 0}: e_m spans the lineality line
            m = int(rng.integers(2, 4))
            C = cone(np.eye(m)[:-1])
            odd = np.eye(m)[-1] * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2)
            odd[:-1] -= rng.choice([0.0, 1e-10])
        else:
            # the orthant and a vertex in the tolerance band of two faces,
            # in multiples of 2^-32 so that its row sum is exactly 0 or
            # -2^-32
            m = 3
            C = geometry.orthant(m)
            k = rng.integers(3, 5, size=2)
            odd = np.r_[k.sum() - rng.integers(2), -k] * 2.0 ** -32
        V = [odd] + [rng.uniform(0.1, 2.0, size=m)
                     for _ in range(int(rng.integers(0, 12)))]
        yield C, Polytope(rng.permutation(V))


def test_fallback_solves_the_full_tableau(monkeypatch):
    """A least row sum of at most 0 leaves no closed form: the full system
    is solved once, and the weights are ``loop_separation``'s byte for byte,
    or None where it gives None. Both answers occur."""
    rng = np.random.default_rng(29)
    found = []
    for C, H in fallback_cases(rng):
        least = (H.vertices @ C.halfspaces.T).sum(axis=1).min()
        assert least <= 0
        sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C)
        assert sizes == [H.vertices.shape[0]]
        want = loop_separation(H, C)
        assert (xi is None) == (want is None)
        if xi is not None:
            assert xi.weights.tobytes() == want.weights.tobytes()
            assert xi.alpha == want.alpha
        assert_agree(H, C, DEFAULT_TOL)
        found.append(xi is None)
    assert 0 < sum(found) < len(found)


def test_closed_form_overflow_falls_back(monkeypatch):
    """A least row sum so small that ``1 / least`` overflows: the uniform
    ``mu`` is not finite, so the full tableau decides, as in
    ``loop_separation``."""
    C = cone([[1.0, 0.0]])
    H = Polytope([[1e-320, 0.0]])
    sizes, xi = lp_sizes(monkeypatch, strictly_positive_functional, H, C, 0.0)
    assert sizes == [1]
    want = loop_separation(H, C, 0.0)
    assert (xi is None) == (want is None)
    if xi is not None:
        assert xi.weights.tobytes() == want.weights.tobytes()
