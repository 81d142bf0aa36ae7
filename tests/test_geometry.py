"""Membership kernel: contract examples, invariants, and independent
oracles (brute-force convex-weight grids and scipy's LP)."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from evpkit import geometry
from evpkit.errors import InputError
from evpkit.geometry import (Polytope, cone, cone_contains, lp_feasible,
                             minkowski_member, orthant, polytope_contains,
                             singleton, strictly_positive_functional,
                             validate_direction_set)

from conftest import random_cone, sample_cone_member

TOL = 1e-9


class TestConeContains:
    def test_orthant_member(self):
        assert cone_contains(orthant(2), [1.0, 2.0], TOL)

    def test_orthant_nonmember(self):
        assert not cone_contains(orthant(2), [-1.0, 0.0], TOL)

    def test_skew_cone_by_hand(self):
        C = cone([[1, -1], [1, 1]])
        assert cone_contains(C, [1.0, 0.0], TOL)  # A y = (1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cone_contains(orthant(2), [1.0, 2.0, 3.0], TOL)

    def test_generators_are_members(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            C, k0 = random_cone(rng, m)
            assert cone_contains(C, k0, TOL)
        for m in (1, 2, 3):
            C = orthant(m)
            for g in C.generators:
                assert cone_contains(C, g, TOL)

    def test_trivial_cones_rejected(self):
        with pytest.raises(InputError):
            cone([[0.0, 0.0]])  # whole space
        with pytest.raises(InputError):
            cone([[1.0], [-1.0]])  # {0} in R^1
        # {0} in R^2: y1 >= 0, -y1 >= 0, y2 >= 0, -y2 >= 0
        with pytest.raises(InputError):
            cone([[1, 0], [-1, 0], [0, 1], [0, -1]])


def _grid_oracle(y, base, scale, H, C, tol, steps=60):
    """Dense search over convex weights; exact enough for 1-2 vertices and a
    cross-check for more."""
    y = np.asarray(y, float)
    V = H.vertices
    J = V.shape[0]
    weights = []
    if J == 1:
        weights = [np.array([1.0])]
    elif J == 2:
        ts = np.linspace(0.0, 1.0, steps)
        weights = [np.array([t, 1.0 - t]) for t in ts]
    else:
        ts = np.linspace(0.0, 1.0, 25)
        for combo in itertools.product(ts, repeat=J - 1):
            if sum(combo) <= 1.0 + 1e-12:
                weights.append(np.array(list(combo) +
                                        [max(0.0, 1.0 - sum(combo))]))
    for b in np.atleast_2d(np.asarray(base, float)):
        for w in weights:
            if cone_contains(C, y - b - scale * (w @ V), tol):
                return True
    return False


class TestMinkowskiMember:
    def test_vertex_choice(self):
        H = Polytope([[1, 0], [0, 1]])
        assert minkowski_member([1, 1], [[0, 0]], 1.0, H, orthant(2), TOL)
        assert _grid_oracle([1, 1], [[0, 0]], 1.0, H, orthant(2), TOL)

    def test_zero_scale(self):
        assert minkowski_member([0, 0], [[0, 0]], 0.0,
                                Polytope([[9, 9]]), orthant(2), TOL)

    def test_negative_remainder(self):
        assert not minkowski_member([0, 0], [[1, 1]], 1.0,
                                    singleton([1, 1]), orthant(2), TOL)
        assert not _grid_oracle([0, 0], [[1, 1]], 1.0,
                                singleton([1, 1]), orthant(2), TOL)

    def test_empty_base_rejected(self):
        with pytest.raises(InputError):
            minkowski_member([0, 0], [], 1.0, None, orthant(2), TOL)

    def test_fractional_weights_need_lp(self):
        # equality-like cone: remainder must vanish in the first coordinate
        line = cone([[1, 1], [-1, -1]])
        H = Polytope([[1, 0], [0, 1]])
        assert minkowski_member([0.5, 0.5], [[0, 0]], 1.0, H, line, TOL)
        assert not minkowski_member([0.6, 0.5], [[0, 0]], 1.0, H, line, TOL)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(17)
        agree = 0
        for _ in range(150):
            m = int(rng.integers(1, 4))
            C, k0 = random_cone(rng, m)
            J = int(rng.integers(1, 4))
            V = np.array([sample_cone_member(rng, C, k0) for _ in range(J)])
            H = Polytope(V)
            base = rng.normal(size=(int(rng.integers(1, 3)), m))
            y = rng.normal(size=m)
            scale = float(rng.uniform(0.0, 2.0))
            got = minkowski_member(y, base, scale, H, C, TOL)
            ref = _grid_oracle(y, base, scale, H, C, TOL)
            if ref:
                # grid hits are sound: the LP must also succeed
                assert got, (y, base, scale, V)
            if not got:
                assert not ref
            agree += got == ref
        assert agree >= 140  # the grid may miss thin fractional solutions

    def test_monotone_in_scale(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = int(rng.integers(1, 4))
            C, k0 = random_cone(rng, m)
            H = Polytope([sample_cone_member(rng, C, k0) for _ in
                          range(int(rng.integers(1, 3)))])
            base = rng.normal(size=(2, m))
            y = rng.normal(size=m)
            s = float(rng.uniform(0.1, 2.0))
            if minkowski_member(y, base, s, H, C, TOL):
                for frac in (0.5, 0.1, 0.0):
                    assert minkowski_member(y, base, frac * s, H, C, TOL)


def single_query_member(y, base, scale, H, C, tol=geometry.DEFAULT_TOL):
    """``minkowski_member`` as it was before it became one
    ``covered_queries`` query: the screen on the single query (the cone test
    alone when H is absent or the scale at most tol), then the LP over its
    candidate base rows."""
    y = geometry.as_point(y, C.dim)
    B = geometry._as_matrix(base, m=C.dim, name="base") if len(base) else None
    if B is None:
        raise InputError("empty base set")
    if scale < 0:
        raise InputError("scale must be nonnegative")

    if H is None or scale <= tol:
        _, answer, _ = geometry.screen_members(y, B, None, None, None, C, tol)
        return bool(answer)
    V = H.vertices
    if V.shape[1] != C.dim:
        raise InputError("polytope dimension does not match the cone")
    decided, answer, candidates = geometry.screen_members(
        y, B, np.float64(scale), V, V.shape[0], C, tol)
    if decided:
        return bool(answer)
    return geometry.lp_member(y, B, scale, V, C, tol,
                              np.nonzero(candidates)[0])


def _recorded(monkeypatch, fn, *args):
    """``fn(*args)`` (its answer or its InputError text) and the
    ``lp_member`` calls it made: their point, scale and base rows."""
    calls = []
    lp = geometry.lp_member

    def recording(y, B, scale, V, C, tol, rows):
        calls.append((y.tobytes(), float(scale), list(map(int, rows))))
        return lp(y, B, scale, V, C, tol, rows)

    monkeypatch.setattr(geometry, "lp_member", recording)
    try:
        out = fn(*args)
    except InputError as exc:
        out = f"InputError: {exc}"
    finally:
        monkeypatch.setattr(geometry, "lp_member", lp)
    return out, calls


def test_one_query_stack_matches_the_single_query_member(monkeypatch):
    """Answers and LP calls of ``minkowski_member`` equal the single-query
    screen-then-LP form's: H absent or of 1 to 4 vertices (inside the cone
    or not), 1 to 4 base rows, scales 0, tol/2, tol, 2 tol and larger, and
    points within 2 tol of a cone row of some base row plus a scaled
    vertex."""
    rng = np.random.default_rng(4242)
    lp_calls = 0
    for trial in range(600):
        m = int(rng.integers(1, 4))
        C, k0 = random_cone(rng, m)
        J = int(rng.integers(1, 5))
        V = np.array([sample_cone_member(rng, C, k0) if rng.uniform() < 0.6
                      else rng.normal(size=m) for _ in range(J)])
        H = None if trial % 7 == 0 else Polytope(V)
        base = rng.normal(size=(int(rng.integers(1, 5)), m))
        scale = [0.0, TOL / 2, TOL, 2 * TOL,
                 float(rng.uniform(0.1, 2.0))][trial % 5]
        # y - b - scale v on a cone row i, moved off it by at most 2 tol
        A = C.halfspaces
        i = int(rng.integers(len(A)))
        z = rng.normal(size=m)
        z += (rng.uniform(-2 * TOL, 2 * TOL) - A[i] @ z) / (A[i] @ A[i]) * A[i]
        y = base[int(rng.integers(len(base)))] + z
        if rng.uniform() < 0.7:
            y = y + scale * V[int(rng.integers(J))]
        want = _recorded(monkeypatch, single_query_member, y, base, scale, H,
                         C, TOL)
        got = _recorded(monkeypatch, minkowski_member, y, base, scale, H, C,
                        TOL)
        assert got == want, trial
        lp_calls += len(want[1])
    assert lp_calls > 20


@pytest.mark.parametrize("args", [
    ([0, 0], [], 1.0, None),
    ([0, 0], [], -1.0, Polytope([[1, 2, 3]])),
    ([0, 0], [[0, 0]], -1.0, None),
    ([0, 0], [[0, 0]], -1e-12, Polytope([[1, 2, 3]])),
    ([0, 0], [[0, 0]], 1.0, Polytope([[1, 2, 3]])),
    ([0, 0], [[0, 0]], 2 * TOL, Polytope([[1, 2, 3]])),
    ([0, 0], [[0, 0]], TOL, Polytope([[1, 2, 3]])),
    ([0, 0], [[0, 0]], 0.0, Polytope([[1, 2, 3]])),
    ([1, 1], [[0, 0]], 0.0, Polytope([[-1]])),
    ([0, 0, 0], [[0, 0]], 1.0, None),
    ([0, 0], [[0, 0, 0]], 1.0, None),
    ([0, 0], [[0, np.inf]], 1.0, None),
], ids=["empty-base", "empty-base-first", "negative-scale",
        "negative-scale-first", "polytope-dimension", "polytope-2tol",
        "polytope-at-tol", "polytope-at-zero", "polytope-at-zero-member",
        "point-dimension", "base-dimension", "base-infinite"])
def test_one_query_stack_keeps_the_error_texts(monkeypatch, args):
    """Every error of ``minkowski_member``, in the same order, with the same
    text; a polytope of the wrong dimension is not looked at, and raises
    nothing, at a scale at most tol."""
    want = _recorded(monkeypatch, single_query_member, *args, orthant(2), TOL)
    got = _recorded(monkeypatch, minkowski_member, *args, orthant(2), TOL)
    assert got == want
    if 0 <= args[2] <= TOL:
        assert isinstance(got[0], bool)


class TestStrictlyPositiveFunctional:
    def test_diagonal_cone(self):
        w = strictly_positive_functional(singleton([1, 1]), orthant(2), TOL)
        assert w is not None
        assert w.weights @ [1, 1] >= 1 - TOL
        assert w.alpha >= 1 - TOL

    def test_vertex_outside_cone_rejected(self):
        with pytest.raises(InputError):
            strictly_positive_functional(singleton([1, -1]), orthant(2), TOL)

    def test_zero_vertex_rejected(self):
        with pytest.raises(InputError):
            strictly_positive_functional(singleton([0, 0]), orthant(2), TOL)

    def test_infeasible_separation(self):
        halfplane = cone([[0, 1]])
        assert strictly_positive_functional(singleton([1, 0]),
                                            halfplane, TOL) is None

    def test_certificate_on_sampled_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            C, k0 = random_cone(rng, m)
            H = Polytope([sample_cone_member(rng, C, k0) + 0.2 * k0
                          for _ in range(int(rng.integers(1, 4)))])
            w = strictly_positive_functional(H, C, TOL)
            if w is None:
                continue
            for _ in range(20):
                h = H.vertices[rng.integers(0, H.vertices.shape[0])]
                d = sample_cone_member(rng, C, k0,
                                       scale=float(rng.uniform(0, 3)))
                assert w.value(h + d) >= w.alpha - TOL > 0


class TestLpFeasible:
    def test_interval(self):
        ok, w = lp_feasible([((1.0,), 0.0), ((-1.0,), -1.0)], TOL)
        assert ok and -TOL <= w[0] <= 1 + TOL

    def test_empty_interval(self):
        ok, w = lp_feasible([((1.0,), 1.0), ((-1.0,), 0.0)], TOL)
        assert not ok and w is None

    def test_third_minkowski_example_infeasible(self):
        # weight w for the single vertex (1,1): w >= 0, w = 1, and
        # (0,0) - (1,1) - w*(1,1) >= 0 per coordinate, i.e. -w >= 1
        ineqs = [((1.0,), 0.0), ((1.0,), 1.0), ((-1.0,), -1.0),
                 ((-1.0,), 1.0)]
        ok, _ = lp_feasible(ineqs, TOL)
        assert not ok

    def test_witness_satisfies_everything(self):
        rng = np.random.default_rng(41)
        feasible_seen = 0
        for _ in range(120):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            G = rng.normal(size=(k, n))
            h = rng.normal(size=k)
            ok, w = lp_feasible(list(zip(G, h)), TOL)
            if ok:
                feasible_seen += 1
                assert np.min(G @ w - h) >= -TOL
        assert feasible_seen > 10

    def test_matches_scipy(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            G = rng.normal(size=(k, n))
            h = rng.normal(size=k)
            ok, _ = lp_feasible(list(zip(G, h)), TOL)
            res = linprog(np.zeros(n), A_ub=-G, b_ub=-h,
                          bounds=[(None, None)] * n, method="highs")
            assert ok == res.success, (G, h)


class TestPolytopeContains:
    def test_triangle(self):
        P = Polytope([[0, 0], [1, 0], [0, 1]])
        assert polytope_contains(P, [0.25, 0.25], TOL)
        assert not polytope_contains(P, [0.75, 0.75], TOL)

    def test_vertex(self):
        P = Polytope([[2, 3]])
        assert polytope_contains(P, [2, 3], TOL)
        assert not polytope_contains(P, [2, 3.5], TOL)


@pytest.mark.parametrize("vertices, message", [
    ([[1.0, 1.0], [0.0, 0.0], [-1.0, 1.0]], "vertex 1 is zero"),
    ([[1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]], "vertex 1 lies outside the cone"),
    ([[1.0, 1.0], [1e-10, 0.0], [-1.0, 1.0]], "vertex 1 is zero"),
])
def test_direction_set_reports_its_first_bad_vertex(vertices, message):
    """All vertices are checked at once; the first failing one is named, and
    a vertex that is zero (within tol) is reported as zero."""
    with pytest.raises(InputError, match=message):
        validate_direction_set(Polytope(vertices), orthant(2))


def vstack_rows(arrays):
    """``stack_rows`` as it was: each short array padded by its own
    ``np.vstack`` of repeated last rows, then the list stacked."""
    counts = np.array([A.shape[0] for A in arrays])
    R = counts.max()
    stack = np.array([A if c == R else np.vstack([A] + [A[-1:]] * (R - c))
                      for A, c in zip(arrays, counts)])
    return stack, counts


@pytest.mark.parametrize("counts", [
    [3, 1, 2, 3, 1], [1, 4], [2, 2, 2], [1, 1, 1], [1], [3], [5, 1, 1, 1]])
def test_stack_rows_is_the_vstack_padding(counts):
    """Ragged, uniform, single-row and one-array lists give the stack and
    the counts of the per-array padding, bit for bit."""
    rng = np.random.default_rng(sum(counts) * 31 + len(counts))
    for m in (1, 3):
        arrays = [rng.normal(size=(c, m)) for c in counts]
        got, want = geometry.stack_rows(arrays), vstack_rows(arrays)
        assert got[0].shape == want[0].shape == (len(counts), max(counts), m)
        assert got[0].dtype == want[0].dtype
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
