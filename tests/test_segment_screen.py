"""The exact two-vertex test of ``screen_members`` against the LP.

Every query the screen decides must get the answer of ``lp_member`` (the
fallback it replaces, called directly on the screen's candidate base rows)
and of an independent HiGHS LP. HiGHS computes the largest margin t* with
``A(y - b - s V^T w) >= t*`` over convex weights w and base rows b; the
query is a member iff ``t* >= -tol``. Where t* lies within ``BAND`` of
``-tol`` the two LPs may read the tolerance differently, so there only
``lp_member`` is compared, and only there may the screen leave a two-vertex
query undecided. A scale at most ``tol`` reads as scale 0 (the cone test),
as in ``minkowski_member``.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from evpkit.geometry import lp_member, orthant, screen_members

from conftest import random_cone, sample_cone_member

TOL = 1e-9
BAND = 1e-7


def lp_scale(s):
    return s if s > TOL else 0.0


def highs_margin(y, B, s, V, C):
    """max over base rows and convex w of min_i A(y - b - s V^T w)_i."""
    A = C.halfspaces
    s = lp_scale(s)
    J = V.shape[0]
    best = -np.inf
    for b in B:
        # variables (w, t): maximize t with t + s (A V^T w)_i <= A(y - b)_i
        A_ub = np.hstack([s * (A @ V.T), np.ones((A.shape[0], 1))])
        res = linprog(np.r_[np.zeros(J), -1.0], A_ub=A_ub, b_ub=A @ (y - b),
                      A_eq=np.r_[np.ones(J), 0.0][None, :], b_eq=[1.0],
                      bounds=[(0, None)] * J + [(None, None)],
                      method="highs")
        assert res.status == 0, res.message
        best = max(best, -res.fun)
    return best


def _cone(rng, m, orthant_cone):
    if orthant_cone:
        return orthant(m), rng.uniform(0.5, 1.5, size=m)
    return random_cone(rng, m)


def _queries(rng, m, orthant_cone):
    """(y, B, s, V, nv, case) tuples over one cone, boundary cases included."""
    C, k0 = _cone(rng, m, orthant_cone)
    A = C.halfspaces
    out = []
    for _ in range(24):
        nb = int(rng.integers(1, 4))
        B = rng.normal(size=(nb, m))
        v1 = sample_cone_member(rng, C, k0)
        v2 = sample_cone_member(rng, C, k0)
        s = float(rng.uniform(0.1, 2.0))
        y = B[0] + rng.normal(size=m)
        out.append((y, B, s, np.array([v1, v2]), 2, "random"))
        # on the segment, pushed onto a facet and nudged off it
        t0 = float(rng.uniform(0.0, 1.0))
        h = t0 * v1 + (1 - t0) * v2
        i = int(rng.integers(A.shape[0]))
        a = A[i] / (A[i] @ A[i])
        for nudge in (-2.0, -1.0, 0.0, 1.0, 2.0):
            z = sample_cone_member(rng, C, k0)
            z = z - (A[i] @ z) * a                  # on facet i (or outside)
            y = B[-1] + s * h + z + nudge * TOL * a
            out.append((y, B, s, np.array([v1, v2]), 2, "facet"))
            y = B[-1] + s * h + nudge * TOL * a    # the apex of the cone
            out.append((y, B, s, np.array([v1, v2]), 2, "facet"))
        # a degenerate segment and a scale at or below tol
        out.append((B[0] + s * v1 + rng.normal(scale=1e-3, size=m), B, s,
                    np.array([v1, v1]), 2, "v1 = v2"))
        out.append((B[0] + rng.normal(scale=1e-9, size=m), B,
                    float(rng.choice([0.0, TOL, 0.5 * TOL])),
                    np.array([v1, v2]), 2, "s <= tol"))
        # rows with A(v1 - v2) = 0: the difference lies in a row's kernel
        if m > 1:
            e = rng.normal(size=m)
            e -= (A[i] @ e) * a
            w2 = v1 + 0.3 * e
            out.append((B[0] + s * (0.5 * v1 + 0.5 * w2)
                        + rng.normal(scale=0.05, size=m), B, s,
                        np.array([v1, w2]), 2, "A(v1 - v2) = 0"))
        # a vertex outside C: the conv(V) inside C filter is off
        out.append((B[0] + rng.normal(size=m), B, s,
                    np.array([v1, -0.3 * k0]), 2, "vertex outside C"))
    return C, out


def _screen_one(y, B, s, V, nv, C):
    decided, answer, candidates = screen_members(
        y, B, np.float64(s), V, nv, C, TOL)
    return bool(decided), bool(answer), np.flatnonzero(candidates)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("orthant_cone", [True, False])
def test_segment_screen_matches_lp_and_highs(m, orthant_cone):
    rng = np.random.default_rng(31 * m + orthant_cone)
    C, queries = _queries(rng, m, orthant_cone)
    answers = {True: 0, False: 0}
    cases = set()
    for y, B, s, V, nv, case in queries:
        decided, answer, rows = _screen_one(y, B, s, V, nv, C)
        t = highs_margin(y, B, s, V, C)
        near = abs(t + TOL) <= BAND * (1.0 + np.abs(y).max())
        if not near:
            # away from the tolerance edge the screen decides, as HiGHS does
            assert decided, (case, t)
            assert answer == (t >= -TOL), (case, t)
        if decided:
            assert answer == lp_member(y, B, lp_scale(s), V, C, TOL, rows), \
                (case, t)
            answers[answer] += 1
            cases.add(case)
    # both answers occur, and every kind of query was decided at least once
    assert answers[True] > 0 and answers[False] > 0
    assert cases >= {"random", "facet", "v1 = v2", "s <= tol",
                     "vertex outside C"}


def test_stacked_and_padded_queries_match_single_ones():
    """A whole stack screened at once, with one-vertex polytopes padded to
    J = 2 and two-vertex ones padded to J = 3 by repeating the last vertex,
    decides every query as the unpadded single query does."""
    rng = np.random.default_rng(5)
    for m, orthant_cone in ((1, True), (2, False), (3, True), (3, False)):
        C, queries = _queries(rng, m, orthant_cone)
        Y = np.array([q[0] for q in queries])
        nb = max(q[1].shape[0] for q in queries)
        B = np.array([np.vstack([q[1]] + [q[1][-1:]] * (nb - len(q[1])))
                      for q in queries])
        S = np.array([q[2] for q in queries])
        for drop in (True, False):
            # nv = 1 padded to J = 2, or nv = 2 padded to J = 3
            V = np.array([np.vstack([q[3][:1]] * 2) if drop
                          else np.vstack([q[3], q[3][1:]]) for q in queries])
            nv = np.full(len(queries), 1 if drop else 2)
            decided, answer, _ = screen_members(Y, B, S, V, nv, C, TOL)
            for k, (y, b, s, V1, _, case) in enumerate(queries):
                real = V1[:1] if drop else V1
                one = _screen_one(y, b, s, real, real.shape[0], C)
                assert (decided[k], answer[k] if decided[k] else None) == \
                    (one[0], one[1] if one[0] else None), (case, drop)
                if decided[k]:
                    assert answer[k] == lp_member(y, b, lp_scale(s), real, C,
                                                  TOL, one[2])


def test_only_queries_at_the_tolerance_edge_reach_the_lp():
    """Two-vertex queries left undecided lie within the fall-back margin of
    the tolerance edge; far from it none is."""
    rng = np.random.default_rng(11)
    undecided = total = 0
    for m in (1, 2, 3):
        for orthant_cone in (True, False):
            C, queries = _queries(rng, m, orthant_cone)
            total += len(queries)
            for y, B, s, V, nv, case in queries:
                if not _screen_one(y, B, s, V, nv, C)[0]:
                    undecided += 1
                    t = highs_margin(y, B, s, V, C)
                    assert abs(t + TOL) <= 1e-7 * (1.0 + np.abs(y).max()), \
                        (case, t)
    assert undecided < 0.02 * total
