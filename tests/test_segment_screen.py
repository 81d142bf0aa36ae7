"""The screen of ``covered_queries`` against the LP.

``covered_queries``, the screen and then ``lp_member`` on the queries the
screen leaves undecided, must decide every query as an independent HiGHS LP
does. HiGHS computes the largest margin t* with ``A(y - b - s V^T w) >=
t*`` over convex weights w and base rows b; the query is a member iff ``t*
>= -tol``. Where t* lies within ``BAND`` of ``-tol`` the two LPs may read
the tolerance differently, so there HiGHS is not compared. Every query the
screen decides must get the answer of ``lp_member`` on the screen's
candidate base rows. A scale at most ``tol`` reads as scale 0 (the cone
test), as in ``minkowski_member``.

``loop_screen``, the screen as it was when it ran one stacked product, and
``slack_screen``, the screen as it was before it ran one cone row at a
time, must give the same three arrays bit for bit on the stacks below,
broadcast or not; ``loop_screen`` rounds ``A(y - b)`` otherwise than the
screen, so only ``slack_screen`` is compared at the tolerance edge. Both
reject on ``y - b`` in C up to tol when conv(V) lies in C up to tol; the
screen widens that test by ``S * max(0, -min A v)``, so they are the screen
only where the widening moves no rejection or candidate, as on every stack
they are compared on below. Vertices in the band ``-tol <= A_i v < 0`` are
checked against ``lp_member`` instead.
"""

import numpy as np
import pytest

from evpkit.geometry import (Polytope, _over_rows, covered_queries, lp_member,
                             minkowski_member, orthant, screen_members,
                             stack_rows)

from conftest import highs_margin, random_cone, sample_cone_member

TOL = 1e-9
BAND = 1e-7


def lp_scale(s):
    return s if s > TOL else 0.0


def _cone(rng, m, orthant_cone):
    if orthant_cone:
        return orthant(m), rng.uniform(0.5, 1.5, size=m)
    return random_cone(rng, m)


def _queries(rng, m, orthant_cone, magnitude=1.0, count=24):
    """(y, B, s, V, nv, case) tuples over one cone, boundary cases included,
    ``count`` of each kind, with ``y``, ``B`` and ``V`` scaled by
    ``magnitude``."""
    C, k0 = _cone(rng, m, orthant_cone)
    A = C.halfspaces
    out = []
    for _ in range(count):
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
    return C, [(magnitude * y, magnitude * B, s, magnitude * V, nv, case)
               for y, B, s, V, nv, case in out]


def _screen_one(y, B, s, V, nv, C):
    decided, answer, candidates = screen_members(
        y, B, np.float64(s), V, nv, C, TOL)
    return bool(decided), bool(answer), np.flatnonzero(candidates)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("orthant_cone", [True, False])
def test_segment_screen_matches_lp_and_highs(m, orthant_cone):
    """At magnitudes 1e-6, 1 and 1e6, one ``covered_queries`` stack of the
    queries decides each as HiGHS does away from the tolerance edge, and
    every query the screen decides gets ``lp_member``'s answer."""
    rng = np.random.default_rng(31 * m + orthant_cone)
    cases = set()
    for magnitude, count in ((1e-6, 8), (1.0, 24), (1e6, 8)):
        C, queries = _queries(rng, m, orthant_cone, magnitude, count)
        B, nb = stack_rows([q[1] for q in queries])
        first = covered_queries(
            np.array([q[0] for q in queries]), B, nb,
            np.array([q[2] for q in queries]),
            np.array([q[3] for q in queries]), np.full(len(queries), 2), C,
            TOL, np.arange(len(queries)))
        answers = {True: 0, False: 0}
        for (y, B, s, V, nv, case), covered in zip(queries, first < 0):
            decided, answer, rows = _screen_one(y, B, s, V, nv, C)
            if decided:
                assert answer == lp_member(y, B, lp_scale(s), V, C, TOL,
                                           rows), (magnitude, case)
            t = highs_margin(y, B, lp_scale(s), V, C)
            if abs(t + TOL) > 1e-8 + BAND * (magnitude + np.abs(y).max()):
                # away from the tolerance edge, the decision is HiGHS's
                assert covered == (t >= -TOL), (magnitude, case, t)
                answers[bool(covered)] += 1
                cases.add(case)
        # both answers occur at every magnitude
        assert answers[True] > 0 and answers[False] > 0, (magnitude, answers)
    # every kind of query was compared with HiGHS at least once
    assert cases >= {"random", "facet", "v1 = v2", "s <= tol",
                     "vertex outside C"}


def test_highs_margin_reads_small_magnitudes():
    """Cone tests (scale 0) at magnitudes 1e-8 to 1e-4, where HiGHS's
    absolute tolerances let an LP on the unscaled query read a margin off
    by more than the query's own size: ``highs_margin`` gives ``min A(y -
    b)`` within 1e-7 of the magnitude."""
    rng = np.random.default_rng(808)
    for magnitude in (1e-8, 1e-6, 1e-4):
        for _ in range(20):
            C, k0 = random_cone(rng, 2, rows=2)
            y = magnitude * rng.normal(size=2)
            want = (C.halfspaces @ y).min()
            got = highs_margin(y, np.zeros((1, 2)), 0.0, k0[None], C)
            assert abs(got - want) <= 1e-7 * magnitude, (magnitude, got, want)


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


def _band_queries(rng, m, orthant_cone):
    """(y, B, s, V) tuples whose vertices lie in the tolerance band outside
    C: each is a cone member put on a facet i and pushed out of it by the
    same u tol, u from 0.1 to 1, so that ``A_i v = -u tol`` on every vertex.
    Each query lies on that facet through a point of s conv(V) off a random
    base row, nudged by -6..4 tol off it, so its margin on row i is the
    nudge for every convex weight: a non-member stays at least 3 tol below
    the edge at -tol, where the phase-1 slack reads the tolerance its own
    way. Scales of 1 to 20 carry s u tol past tol, so y - b leaves C by more
    than tol at a member."""
    C, k0 = _cone(rng, m, orthant_cone)
    A = C.halfspaces
    out = []
    for _ in range(24):
        i = int(rng.integers(A.shape[0]))
        a = A[i] / (A[i] @ A[i])
        u = rng.uniform(0.1, 1.0)
        V = np.array([v - (A[i] @ v + u * TOL) * a
                      for v in (sample_cone_member(rng, C, k0)
                                for _ in range(int(rng.integers(1, 4))))])
        B = rng.normal(size=(int(rng.integers(1, 4)), m))
        s = float(rng.uniform(1.0, 20.0))
        h = rng.dirichlet(np.ones(len(V))) @ V
        b = B[int(rng.integers(len(B)))]
        out.append((b + s * h, B, s, V))            # the apex of the cone
        for nudge in (-6.0, -4.0, 0.0, 2.0, 4.0):
            z = sample_cone_member(rng, C, k0)
            z = z - (A[i] @ z) * a
            out.append((b + s * h + z + nudge * TOL * a, B, s, V))
    return C, out


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("orthant_cone", [True, False])
def test_screen_matches_lp_with_vertices_in_the_tolerance_band(
        m, orthant_cone):
    """Vertices with ``-tol <= A_i v < 0`` and queries near them: every
    query the screen decides gets ``lp_member``'s answer over all base
    rows, and an undecided one gets it over the candidate rows alone. Some
    members have no base row b with y - b in C up to tol; they are the
    queries a screen that rejects on ``y - b`` in C alone gets wrong."""
    rng = np.random.default_rng(97 * m + orthant_cone)
    C, queries = _band_queries(rng, m, orthant_cone)
    A = C.halfspaces
    answers, band_members = {True: 0, False: 0}, 0
    for y, B, s, V in queries:
        decided, answer, rows = _screen_one(y, B, s, V, len(V), C)
        member = lp_member(y, B, s, V, C, TOL, range(len(B)))
        if decided:
            assert answer == member, (y, s)
            answers[answer] += 1
        else:
            assert lp_member(y, B, s, V, C, TOL, rows) == member, (y, s)
        if member and ((y - B) @ A.T).min(axis=1).max() < -TOL:
            band_members += 1
    assert answers[True] > 0 and answers[False] > 0
    assert band_members > 0


def test_screen_keeps_a_member_that_only_convex_weights_reach():
    """Two vertices 5e-10 outside the orthant in R^3 at scale 10: y - b
    leaves the cone by 2 tol, but the weights (0.5, 0.5) put y in b + 10
    conv(V) + C, and no single vertex does."""
    C = orthant(3)
    V = np.array([[-5e-10, 2.0, 0.0], [-5e-10, 0.0, 2.0]])
    y, B = np.array([-2e-9, 10.0, 10.0]), np.zeros((1, 3))
    decided, answer, rows = _screen_one(y, B, 10.0, V, 2, C)
    assert lp_member(y, B, 10.0, V, C, TOL, [0])
    assert list(rows) == [0] and (not decided or answer)
    assert minkowski_member(y, B, 10.0, Polytope(V), C, TOL)


# ---------------------------------------------------------------------------
# The screen against its earlier form, which ran one stacked product on every
# query of the stack (kept verbatim, less the two-vertex segment test that
# the screen no longer runs).
# ---------------------------------------------------------------------------

def loop_screen(Y, B, S, V, nv, C, tol):
    """The screen with ``A(y - b)`` rounded as the stacked product ``(Y[...,
    None, :] - B) @ A_T``, which can differ by one unit in the last place
    from the screen's 2-D product. At a point on the tolerance edge that
    flips an answer, so a test that may meet such a point compares with
    ``slack_screen``."""
    A_T = C.halfspaces.T
    rows = (Y[..., None, :] - B) @ A_T                  # A(y - b)
    in_cone = _over_rows(np.minimum, rows) >= -tol
    found = in_cone.any(axis=-1)
    if V is None:
        return np.ones(found.shape, dtype=bool), found, in_cone
    AV = V @ A_T                                        # A v
    h_in = AV.min(axis=(-2, -1)) >= -tol
    SAV = S[..., None, None] * AV                       # S A v
    # A(y - b - S v) for every base row and vertex
    slack = rows[..., :, None, :] - SAV[..., None, :, :]
    hit = (_over_rows(np.minimum, slack) >= -tol).any(axis=(-2, -1))
    cone_only = S <= tol
    # one vertex: the single-vertex test was exact; conv(V) inside C: then
    # S*conv(V) + C lies in C, so only base rows with y - b in C can cover
    rejected = (nv == 1) | (h_in & ~found)
    decided = cone_only | hit | rejected
    answer = np.where(cone_only, found, hit)
    candidates = in_cone | ~h_in[..., None]
    return decided, answer, candidates


# ---------------------------------------------------------------------------
# The screen against its form before it ran over one cone row at a time: one
# 2-D product for A(y - b), then the whole (..., nb, J, k) slack array,
# reduced over its cone rows and then over base rows and vertices (kept
# verbatim, less the segment test). Its 2-D product can round a row of
# A(y - b) one unit apart from the stacked product of ``loop_screen``, so at
# the tolerance edge only this form is the screen bit for bit.
# ---------------------------------------------------------------------------

def slack_screen(Y, B, S, V, nv, C, tol):
    A = C.halfspaces
    D = Y[..., None, :] - B
    # A(y - b) as one 2-D product, sized by len(A): -1 fails on empty stacks
    rows = (D.reshape(-1, D.shape[-1]) @ A.T).reshape(*D.shape[:-1], len(A))
    in_cone = _over_rows(np.minimum, rows) >= -tol
    found = in_cone.any(axis=-1)
    if V is None:
        return np.ones(found.shape, dtype=bool), found, in_cone
    AV = V @ A.T                                        # A v
    h_in = AV.min(axis=(-2, -1)) >= -tol
    SAV = S[..., None, None] * AV                       # S A v
    # A(y - b - S v) for every base row and vertex
    slack = rows[..., :, None, :] - SAV[..., None, :, :]
    hit = (_over_rows(np.minimum, slack) >= -tol).any(axis=(-2, -1))
    cone_only = S <= tol
    # one vertex: the single-vertex test was exact; conv(V) inside C: then
    # S*conv(V) + C lies in C, so only base rows with y - b in C can cover
    rejected = (nv == 1) | (h_in & ~found)
    decided = cone_only | hit | rejected
    candidates = in_cone | ~h_in[..., None]
    return decided, np.where(cone_only, found, hit), candidates


def same_screen(Y, B, S, V, nv, C, reference=slack_screen):
    """The screen's arrays, after checking them against ``reference``."""
    got = screen_members(Y, B, S, V, nv, C, TOL)
    want = reference(Y, B, S, V, nv, C, TOL)
    for name, g, w in zip(("decided", "answer", "candidates"), got, want):
        assert np.shape(g) == np.shape(w), name
        assert np.array_equal(g, w), name
    return got


def _pad(rows, size):
    return np.vstack([rows] + [rows[-1:]] * (size - len(rows)))


SCALES = (0.0, 0.5 * TOL, TOL, 2 * TOL)


def _facet_groups(rng, m, orthant_cone):
    """Groups of ten points that share (B, s, V): each on a facet through a
    point of s conv(V) and nudged by -2..2 tol off it, at the cone's apex
    too. ``nv`` is 1 to 3, padded to J = 3, and ``nb`` 1 to 3, padded."""
    C, k0 = _cone(rng, m, orthant_cone)
    A = C.halfspaces
    groups = []
    for g in range(24):
        nb, nv = int(rng.integers(1, 4)), 1 + g % 3
        B = rng.normal(size=(nb, m))
        V = np.array([sample_cone_member(rng, C, k0) for _ in range(nv)])
        if g % 5 == 4:
            V[-1] = -0.3 * k0                   # a vertex outside C
        s = float(SCALES[g % 8] if g % 8 < 4 else rng.uniform(0.1, 2.0))
        w = rng.dirichlet(np.ones(nv))
        i = int(rng.integers(A.shape[0]))
        a = A[i] / (A[i] @ A[i])
        ys = []
        for nudge in (-2.0, -1.0, 0.0, 1.0, 2.0):
            z = sample_cone_member(rng, C, k0)
            z = z - (A[i] @ z) * a
            ys.append(B[-1] + s * (w @ V) + z + nudge * TOL * a)
            ys.append(B[-1] + s * (w @ V) + nudge * TOL * a)
        groups.append((np.array(ys), _pad(B, 3), nb, s, _pad(V, 3), nv))
    return C, groups


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("orthant_cone", [True, False])
def test_screen_matches_loop_screen_on_flat_and_broadcast_stacks(
        m, orthant_cone):
    """One flat stack of all queries, and the same queries as a (group,
    point) stack whose B, S, V and nv broadcast over the points; a scale of
    0, tol/2, tol, 2 tol or more; 1 to 3 vertices; points within 2 tol of a
    cone row."""
    rng = np.random.default_rng(400 + 10 * m + orthant_cone)
    C, groups = _facet_groups(rng, m, orthant_cone)
    Y = np.array([g[0] for g in groups])                    # (G, 10, m)
    B = np.array([g[1] for g in groups])[:, None]           # (G, 1, 3, m)
    S = np.array([g[3] for g in groups])[:, None]           # (G, 1)
    V = np.array([g[4] for g in groups])[:, None]           # (G, 1, 3, m)
    nv = np.array([g[5] for g in groups])[:, None]          # (G, 1)
    decided, answer, _ = same_screen(Y, B, S, V, nv, C)
    points = Y.shape[1]
    flat = same_screen(Y.reshape(-1, m), np.repeat(B[:, 0], points, axis=0),
                       np.repeat(S[:, 0], points),
                       np.repeat(V[:, 0], points, axis=0),
                       np.repeat(nv[:, 0], points), C)
    assert np.array_equal(flat[0], decided.ravel())
    # both answers, and queries the screen leaves to the LP, are compared
    assert answer[decided].any() and not answer[decided].all()
    # every group's scale and polytope against the points of every group,
    # over their own base rows: a (G, G, 10) stack
    same_screen(Y[None], B, S[:, :, None], V[:, None], nv[:, None], C)
    # no polytope: the cone test alone
    same_screen(Y, B, S, None, nv, C)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_screen_matches_loop_screen_on_triangle_slabs(m):
    """The stacks of the extensional triangle search: every vertex sum of a
    random ragged table against the targets of one (index, x1) slab, and
    against those of all slabs at once. No sum lies on the tolerance edge,
    so ``loop_screen`` gives the screen's arrays too."""
    rng = np.random.default_rng(500 + m)
    C, k0 = _cone(rng, m, m == 2)
    n, L, J = 4, 2, 3
    counts = rng.integers(1, J + 1, size=(n, n, L))
    E = np.array([_pad(np.array([sample_cone_member(rng, C, k0)
                                 for _ in range(c)]), J)
                  for c in counts.ravel()]).reshape(n, n, L, J, m)
    sums = (E[:, None, :, :, None, :, None, :]
            + E.transpose(1, 0, 2, 3, 4)[None, :, :, None, :, None, :, :])
    origin = np.zeros((1, m))
    one = np.float64(1.0)
    for a in range(n):
        for lam in range(L):
            same_screen(sums[a], origin, one,
                        E[a, :, lam][:, None, None, None, None, None],
                        counts[a, :, lam][:, None, None, None, None, None], C,
                        loop_screen)
    tail = (None,) * 5
    T, tn = E.transpose(2, 0, 1, 3, 4), counts.transpose(2, 0, 1)
    decided, _, _ = same_screen(sums[None], origin, one,
                                T[(..., *tail, slice(None), slice(None))],
                                tn[(..., *tail)], C, loop_screen)
    # a scale per target: 0, tol or larger
    S = rng.choice(SCALES + (0.7, 1.3), size=(L, n, n))[(..., *tail)]
    same_screen(sums[None], origin, S,
                T[(..., *tail, slice(None), slice(None))], tn[(..., *tail)],
                C, loop_screen)
    assert decided.shape == (L, n, n, n, L, L, J, J)


def test_screen_matches_loop_screen_on_one_query_and_an_empty_stack():
    rng = np.random.default_rng(9)
    C, groups = _facet_groups(rng, 2, False)
    for Y, B, nb, s, V, nv in groups:
        for y in Y:
            same_screen(y, B[:nb], np.float64(s), V[:nv], nv, C)
    # an empty stack keeps its shape
    decided, answer, candidates = same_screen(
        np.zeros((0, 2)), np.zeros((0, 3, 2)), np.zeros(0),
        np.zeros((0, 3, 2)), np.zeros(0, dtype=int), C)
    assert decided.shape == answer.shape == (0,)
    assert candidates.shape == (0, 3)


def _ragged_stack(rng, C, k0, Q, nb, J):
    """Q queries with ``nb`` base rows and ``J`` vertices each, of which 1
    to nb and 1 to J are real (the rest repeat the last real one); each
    point sits on a facet through a point of s conv(V) of one of its base
    rows, nudged by -2..2 tol off it, and a fifth of the queries have a
    vertex outside C."""
    A, m = C.halfspaces, C.dim
    Y, B, S, V = (np.empty((Q, m)), np.empty((Q, nb, m)), np.empty(Q),
                  np.empty((Q, J, m)))
    nv = rng.integers(1, J + 1, size=Q)
    for q in range(Q):
        rows = int(rng.integers(1, nb + 1))
        B[q] = _pad(rng.normal(size=(rows, m)), nb)
        real = np.array([sample_cone_member(rng, C, k0)
                         for _ in range(nv[q])])
        if q % 5 == 4:
            real[-1] = -0.3 * k0
        V[q] = _pad(real, J)
        S[q] = SCALES[q % 8] if q % 8 < 4 else rng.uniform(0.1, 2.0)
        i = int(rng.integers(len(A)))
        a = A[i] / (A[i] @ A[i])
        z = sample_cone_member(rng, C, k0) if q % 2 else np.zeros(m)
        Y[q] = (B[q, int(rng.integers(rows))] + S[q] * (
            rng.dirichlet(np.ones(nv[q])) @ real) + z - (A[i] @ z) * a
            + rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]) * TOL * a)
    return Y, B, S, V, nv


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("orthant_cone", [True, False])
def test_screen_matches_loop_screen_over_base_rows_and_vertices(
        m, orthant_cone):
    """Every base row count nb = 1 to 4 with every vertex count J = 1 to 3,
    the real vertex counts mixed within a stack: the screen's reductions
    over cone rows, vertices and base rows give the arrays of
    ``slack_screen``, at the tolerance edge too."""
    rng = np.random.default_rng(700 + 10 * m + orthant_cone)
    C, k0 = _cone(rng, m, orthant_cone)
    answers = set()
    for nb in (1, 2, 3, 4):
        for J in (1, 2, 3):
            Y, B, S, V, nv = _ragged_stack(rng, C, k0, 40, nb, J)
            decided, answer, _ = same_screen(Y, B, S, V, nv, C)
            answers.update(answer[decided].tolist())
            # one base and one polytope shared by the stack, broadcast
            same_screen(Y, B[0], S, V[0], nv[0], C)
    assert answers == {True, False}


def test_screen_matches_loop_screen_on_a_relation_matrix_block():
    """A stack of ``relation_matrix``'s block size: 1024 queries over four
    base rows and up to three vertices each."""
    rng = np.random.default_rng(733)
    for m, orthant_cone in ((2, True), (3, False)):
        C, k0 = _cone(rng, m, orthant_cone)
        Y, B, S, V, nv = _ragged_stack(rng, C, k0, 1024, 4, 3)
        decided, answer, _ = same_screen(Y, B, S, V, nv, C)
        assert answer[decided].any() and not answer[decided].all()
        assert not decided.all()


def test_screen_reads_a_nan_row_as_any_does():
    """A base row or a vertex whose products overflow to NaN is not a hit,
    and it leaves the hit of another row or vertex standing, as the
    boolean any of ``slack_screen`` does."""
    C = orthant(2)
    huge = np.finfo(float).max
    Y = np.array([[huge, 1.0], [huge, 1.0], [1.0, 1.0], [1.0, 1.0]])
    # (y - b) overflows to (inf, 0) on the first base row: A(y - b) has NaN
    B = np.array([[[-huge, 0.0], [huge, 0.0]], [[huge, 0.0], [-huge, 0.0]],
                  [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    # a vertex with an infinite coordinate gives A v with NaN
    V = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                  [[np.inf, 0.0], [0.5, 0.5]], [[0.5, 0.5], [np.inf, 0.0]]])
    S = np.full(4, 0.5)
    nv = np.full(4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        decided, answer, _ = same_screen(Y, B, S, V, nv, C)
    assert decided.all() and answer.all()
