"""Polyhedral geometry kernel: cones, polytopes, linear functionals, and the
small dense LP feasibility routine every order test reduces to.

Conventions
-----------
* Points are 1-D float ndarrays of a fixed ambient dimension ``m``.
* A cone is given in halfspace form ``{y : A y >= 0}`` (rows are inward
  normals); an optional generator list is cross-validated against ``A``.
* All membership predicates take an explicit tolerance ``tol`` and accept a
  slack of ``-tol`` on every inequality, so oracle comparisons are consistent.
* Everything here is immutable after construction and free of shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, LinearProgramError

DEFAULT_TOL = 1e-9

_PIVOT_EPS = 1e-11
# segment_band widens its outer edge by this many times the phase-1
# acceptance slack, scaled by the magnitudes of the rows: phase 1 accepts a
# query through that slack when convex weights miss no cone row i by more
# than about _feas_tol * (1 + |A_i(y - b)| + max_j |S A_i v_j|)
_SEGMENT_MARGIN = 4.0
_MAX_SIMPLEX_ITERATIONS = 5000


def float_array(x, name):
    """``x`` as a float ndarray; nesting that is not rectangular (or an entry
    that is no number) raises InputError instead of numpy's ValueError."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a rectangular array of numbers"
                         ) from None


def as_point(y, m=None):
    """Coerce to a finite 1-D float array, optionally checking the dimension."""
    arr = float_array(y, "point")
    if arr.ndim != 1:
        raise InputError(f"point must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("point has non-finite entries")
    if m is not None and arr.shape[0] != m:
        raise InputError(f"dimension mismatch: expected {m}, got {arr.shape[0]}")
    return arr


def _as_matrix(rows, m=None, name="matrix"):
    arr = float_array(rows, name)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError(f"{name} must be a nonempty 2-D array")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    if m is not None and arr.shape[1] != m:
        raise InputError(f"{name}: dimension mismatch (expected {m} columns)")
    return arr


# ---------------------------------------------------------------------------
# LP kernel: phase-1 simplex with Bland's rule.
# ---------------------------------------------------------------------------

def _feas_tol(tol):
    """Slack :func:`_phase1` allows on the artificial sum."""
    return max(tol, 1e-10)


def _phase1(M, rhs, tol):
    """Find ``z >= 0`` with ``M z = rhs`` or return None.

    Rows with negative right-hand side are flipped; one artificial variable
    per row forms the starting basis; Bland's rule (lowest entering index,
    lowest basic index on ratio ties) guarantees termination, with a hard
    iteration cap as a backstop.

    Each pivot is one rank-1 update of the rows with a nonzero entry in the
    entering column, as a row-by-row elimination would do them, so the
    pivot sequence and the witness bytes are those of that elimination.
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m, n = M.shape
    sign = np.where(rhs < 0, -1.0, 1.0)
    M = M * sign[:, None]
    rhs = rhs * sign

    # tableau: [M | I | rhs] with the phase-1 objective row appended
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = M
    basis = np.arange(n, n + m)
    T[np.arange(m), basis] = 1.0
    T[:m, -1] = rhs
    T[m, :n] = -M.sum(axis=0)
    T[m, -1] = -rhs.sum()
    reduced = T[m, :-1]

    for _ in range(_MAX_SIMPLEX_ITERATIONS):
        improving = reduced < -_PIVOT_EPS
        entering = improving.argmax()
        if not improving[entering]:
            break
        col = T[:m, entering]
        rows = (col > _PIVOT_EPS).nonzero()[0]
        if rows.size == 0:
            # the phase-1 objective is bounded below, so an unbounded column
            # is round-off: stop and let the artificial sum decide
            break
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + _PIVOT_EPS]
        leave = ties[basis[ties].argmin()]
        T[leave] /= T[leave, entering]
        f = T[:, entering].copy()
        f[leave] = 0.0
        np.subtract(T, np.multiply.outer(f, T[leave]), out=T,
                    where=(f != 0.0)[:, None])
        basis[leave] = entering
    else:
        raise LinearProgramError("phase-1 simplex exceeded its iteration cap")

    # feasibility is read from the basic artificial values alone: the
    # objective row's right-hand side, minus their sum, drifts over many
    # pivots, and once read -3.8e-6 with no artificial variable basic
    feas_tol = _feas_tol(tol)
    z = np.zeros(n + m)
    # max(x, 0.0) per basic row, keeping -0.0 as the builtin max does
    z[basis] = np.where(T[:m, -1] < 0.0, 0.0, T[:m, -1])
    if z[n:].sum() > feas_tol:
        return None
    miss = np.abs(M @ z[:n] - rhs).max(initial=0.0)
    if miss > feas_tol and (basis < n).all():
        # the right-hand sides drift too: a witness that misses M z = rhs
        # by more than feas_tol gives way to the basis solved again, when
        # that misses by less. The decision stands either way
        x = z.copy()
        try:
            x[basis] = np.maximum(np.linalg.solve(M[:, basis], rhs), 0.0)
        except np.linalg.LinAlgError:
            pass
        if np.abs(M @ x[:n] - rhs).max() < miss:
            z = x
    return z[:n]


def _feasible_nonneg(A_eq, b_eq, A_ge, b_ge, tol):
    """Existence of ``z >= 0`` with ``A_eq z = b_eq`` and ``A_ge z >= b_ge``.

    Returns the witness ``z`` or None. Either block may be empty.
    """
    blocks = []
    rhs = []
    n = None
    n_ge = 0
    if A_ge is not None and len(A_ge) > 0:
        A_ge = np.asarray(A_ge, dtype=float)
        b_ge = np.asarray(b_ge, dtype=float)
        n = A_ge.shape[1]
        n_ge = A_ge.shape[0]
    if A_eq is not None and len(A_eq) > 0:
        A_eq = np.asarray(A_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        n = A_eq.shape[1]
    if n is None:
        raise InputError("empty system")
    # surplus variables turn A_ge z >= b_ge into equalities
    if n_ge:
        top = np.hstack([A_ge, -np.eye(n_ge)])
        blocks.append(top)
        rhs.append(b_ge)
    if A_eq is not None and len(A_eq) > 0:
        blocks.append(np.hstack([A_eq, np.zeros((A_eq.shape[0], n_ge))]))
        rhs.append(b_eq)
    M = np.vstack(blocks)
    r = np.concatenate(rhs)
    z = _phase1(M, r, tol)
    if z is None:
        return None
    return z[:n]


def lp_feasible(ineqs, tol=DEFAULT_TOL):
    """Decide feasibility of ``a_i . x >= b_i`` over free variables.

    ``ineqs`` is a sequence of ``(coefficients, rhs)`` pairs. Returns
    ``(True, witness)`` with a witness satisfying every inequality within
    ``tol``, or ``(False, None)``. Deterministic for fixed input.
    """
    if not ineqs:
        raise InputError("no inequalities given")
    G = _as_matrix([a for a, _ in ineqs], name="inequality coefficients")
    h = np.asarray([b for _, b in ineqs], dtype=float)
    if not np.all(np.isfinite(h)):
        raise InputError("inequality rhs has non-finite entries")
    n = G.shape[1]
    # free x = u - v with u, v >= 0
    A_ge = np.hstack([G, -G])
    z = _feasible_nonneg(None, None, A_ge, h, tol)
    if z is None:
        return False, None
    x = z[:n] - z[n:]
    if np.min(G @ x - h) < -tol:
        # the tableau solution drifted past the caller's tolerance
        return False, None
    return True, x


# ---------------------------------------------------------------------------
# Domain types.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyhedralCone:
    """Closed convex cone ``{y : halfspaces @ y >= 0}`` with optional generators.

    The cone must be nontrivial: neither ``{0}`` nor the whole space. When
    generators are supplied each must satisfy the halfspace rows (within the
    construction tolerance).
    """

    halfspaces: np.ndarray
    generators: np.ndarray | None = None

    def __post_init__(self):
        A = _as_matrix(self.halfspaces, name="halfspaces")
        object.__setattr__(self, "halfspaces", A)
        if self.generators is not None:
            G = _as_matrix(self.generators, m=A.shape[1], name="generators")
            object.__setattr__(self, "generators", G)

    @property
    def dim(self):
        return self.halfspaces.shape[1]

    def validate(self, tol=DEFAULT_TOL):
        """Check nontriviality and generator consistency; raise InputError."""
        A = self.halfspaces
        if (np.abs(A) <= tol).all():
            raise InputError("cone is the whole space (all halfspace rows vanish)")
        if self.generators is not None:
            prods = A @ self.generators.T
            if prods.min() < -tol:
                i, j = np.unravel_index(np.argmin(prods), prods.shape)
                raise InputError(
                    f"generator {j} violates halfspace row {i} "
                    f"(value {prods[i, j]:.3g})"
                )
            if (np.linalg.norm(self.generators, axis=1) > tol).any():
                return self
        # no nonzero generator certificate: look for any nonzero member
        m = self.dim
        for j in range(m):
            for sign in (1.0, -1.0):
                e = np.zeros(m)
                e[j] = sign
                ineqs = [(row, 0.0) for row in A] + [(e, 1.0)]
                ok, _ = lp_feasible(ineqs, tol)
                if ok:
                    return self
        raise InputError("cone is trivial ({0})")


def cone(halfspaces, generators=None):
    """Build and validate a PolyhedralCone."""
    return PolyhedralCone(halfspaces, generators).validate()


def orthant(m):
    """The nonnegative orthant of dimension m."""
    return PolyhedralCone(np.eye(m), np.eye(m))


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a nonempty finite vertex list."""

    vertices: np.ndarray

    def __post_init__(self):
        V = _as_matrix(self.vertices, name="vertices")
        object.__setattr__(self, "vertices", V)

    @property
    def dim(self):
        return self.vertices.shape[1]


def singleton(point):
    return Polytope(np.asarray(point, dtype=float).reshape(1, -1))


def validate_direction_set(H: Polytope, C: PolyhedralCone, tol=DEFAULT_TOL):
    """Check the perturbation-set role invariants: vertices in C, none zero."""
    if H.dim != C.dim:
        raise InputError("direction set dimension does not match the cone")
    V = H.vertices
    zero = np.abs(V).max(axis=1) <= tol
    outside = ~np.all(C.halfspaces @ V.T >= -tol, axis=0)
    bad = np.flatnonzero(zero | outside)
    if bad.size:
        j = int(bad[0])
        raise InputError(f"direction-set vertex {j} is zero" if zero[j] else
                         f"direction-set vertex {j} lies outside the cone")
    return H


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """``y -> weights . y``, optionally carrying the positivity margin alpha
    certified on a direction set (min over its vertices)."""

    weights: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        w = as_point(self.weights)
        object.__setattr__(self, "weights", w)

    is_linear = True

    def value(self, y):
        return float(self.weights @ np.asarray(y, dtype=float))

    def scaled(self, s):
        return LinearFunctional(s * self.weights,
                                None if self.alpha is None else s * self.alpha)


# ---------------------------------------------------------------------------
# Membership operations.
# ---------------------------------------------------------------------------

def cone_contains(C: PolyhedralCone, y, tol=DEFAULT_TOL):
    """True iff every halfspace row of C evaluates to >= -tol at y."""
    y = as_point(y, C.dim)
    return bool(np.all(C.halfspaces @ y >= -tol))


def first_outside(C: PolyhedralCone, W, tol=DEFAULT_TOL):
    """Index of the first array of the padded ``(P, J, m)`` stack ``W``
    with a row outside C (:func:`cone_contains`), or None."""
    inside = C.halfspaces @ W.reshape(-1, C.dim).T >= -tol
    out = np.flatnonzero(~inside.all(axis=0).reshape(W.shape[:2]).all(axis=1))
    return int(out[0]) if out.size else None


def _over_rows(ufunc, x):
    """``ufunc`` reduced over the last axis of ``x``, a short one such as
    the few cone rows, by one elementwise call per entry: on these stacks
    several times faster than a numpy reduction over a short last axis, and
    the same result for minimum, maximum, logical and and logical or."""
    out = x[..., 0]
    for i in range(1, x.shape[-1]):
        out = ufunc(out, x[..., i])
    return out


def screen_members(Y, B, S, V, nv, C: PolyhedralCone, tol=DEFAULT_TOL):
    """The cheap tests of :func:`covered_queries` for a stack of queries
    ``Y[q] in B[q] + S[q] * conv(V[q]) + C``.

    Leading axes broadcast: ``Y`` is ``(..., m)``, ``B`` ``(..., nb, m)``,
    ``S`` and ``nv`` ``(...)``, ``V`` ``(..., J, m)`` or None when no
    polytope is given. ``nv`` counts the real vertices of ``V``, which come
    first; padding rows of ``V`` and ``B`` must repeat an existing row, which
    leaves every any/all test unchanged. Three tests run on all queries at
    once: the cone test when the scale is at most ``tol``, the single-vertex
    sufficient test, and the conv(V) inside C necessary filter; each of
    their numpy calls runs over the whole stack, one cone row and one vertex
    at a time. A query they leave undecided, of any vertex count, is the
    LP's.

    Returns ``(decided, answer, candidates)``: ``answer`` is meaningful
    where ``decided``; ``candidates`` marks the base rows an undecided query
    still has to test with the LP (:func:`lp_member`).
    """
    A = C.halfspaces
    D = Y[..., None, :] - B
    # A(y - b) as one 2-D product, sized by len(A): -1 fails on empty stacks
    rows = (D.reshape(-1, D.shape[-1]) @ A.T).reshape(*D.shape[:-1], len(A))
    margin = _over_rows(np.minimum, rows)               # min_i A(y - b)
    in_cone = margin >= -tol
    found = in_cone.any(axis=-1)
    if V is None:
        return np.ones(found.shape, dtype=bool), found, in_cone
    AV = V @ A.T                                        # A v
    out = np.maximum(-AV.min(axis=(-2, -1)), 0.0)       # conv(V) leaves C by
    h_in = out <= tol
    SAV = S[..., None, None] * AV                       # S A v
    # min_i A(y - b - S v)_i for every base row, one vertex at a time and
    # one cone row at a time, so that each call runs over the whole stack;
    # fmax skips a NaN as the any over booleans does
    best = None
    for j in range(SAV.shape[-2]):
        low = rows[..., 0] - SAV[..., None, j, 0]
        for i in range(1, len(A)):
            low = np.minimum(low, rows[..., i] - SAV[..., None, j, i])
        best = low if best is None else np.fmax(best, low)
    hit = _over_rows(np.fmax, best) >= -tol
    cone_only = S <= tol
    # one vertex: the single-vertex test was exact; conv(V) inside C up to
    # tol: A conv(V) >= -out, so only base rows with A(y - b) >= -tol - S out
    # can cover
    near = margin >= -tol - (S * out)[..., None]
    rejected = (nv == 1) | (h_in & ~near.any(axis=-1))
    decided = cone_only | hit | rejected
    candidates = near | ~h_in[..., None]
    return decided, np.where(cone_only, found, hit), candidates


def segment_band(size, terms, tol, solve=0.0):
    """The band of margins in which the screen and the LP may decide a
    query against one base point and a polytope, at a scale above ``tol``,
    otherwise than by the sign of its margin ``mu``: the largest ``mu`` such
    that some convex weights meet every cone row of ``y - b - S conv(V) in
    C`` with ``mu`` to spare, or by minimax the least ``w . A(y - b) -
    min_j w . A S v_j`` over convex row weights ``w``. ``size`` bounds
    ``|A||y|`` by 2 size and ``|A||S v|`` by size, for the cone rows A and
    every vertex v; ``terms`` bounds the length of every dot product in the
    margin's arithmetic (the dimension, plus the cone rows where a condition
    ``w`` sums over them).

    Returns ``(inside, outside)``. A margin of at least ``inside`` is a
    member for the screen and for phase 1: the weights that attain it meet
    every row, so ``A(y - b) >= -S out`` and the rejection keeps the base
    row, a polytope of one vertex hits, and phase 1 finds the weights. A
    margin below ``-outside`` is a non-member for both: no vertex hits, so
    the screen rejects the query or leaves it to phase 1, and phase 1
    accepts through its slack only weights that miss no row by more than
    about ``_feas_tol(tol)`` times the row's magnitudes, at most ``1 + 4
    size``. ``widen`` is ``_SEGMENT_MARGIN`` times that; without it the
    band would call dead some queries that phase 1 accepts. ``ulps`` allows
    for the rounding of the screen's arithmetic and of a margin computed
    another way, as in ``settled_triples`` or as ``fl(w . fl(A y)) - fl(w .
    fl(A b)) - (fl(s theta0) - tol)`` with ``w`` fixed and ``theta0 = min_j
    w . A v_j`` taken once for every scale: each of these steps errs by at
    most ``(terms + 1)`` ulps of ``4 size + tol``, and ``ulps`` is (16
    terms + 64) of them, about twice their sum. ``solve`` bounds the l1
    distance from each weight vector that attains a least margin to some
    condition ``w`` the margin is taken over (0 when the conditions are
    exact, as a closed form gives them): the margin is ``3 size``-Lipschitz
    in ``w``, so a least margin taken over the conditions overstates the
    true one by at most ``6 size solve`` after clipping and normalizing,
    which only ``inside`` adds. A condition is a valid bound whatever its
    error.
    """
    widen = _SEGMENT_MARGIN * _feas_tol(tol) * (1.0 + 4.0 * size)
    ulps = (16 * terms + 64) * np.finfo(float).eps * (4.0 * size + tol
                                                      + widen)
    return ulps + 6.0 * size * solve, widen + ulps


def lp_member(y, B, scale, V, C: PolyhedralCone, tol, rows):
    """Exact LP part of :func:`covered_queries` over the candidate base
    rows (in order): convex weights w with ``y - B[r] - scale * V^T w`` in C.
    """
    A = C.halfspaces
    AV = A @ V.T  # k x J
    ones = np.ones((1, V.shape[0]))
    for r in rows:
        target = A @ (y - B[r])
        # weights w >= 0, sum w = 1, A(y-b) - scale*AV w >= -tol
        witness = _feasible_nonneg(
            A_eq=ones, b_eq=np.array([1.0]),
            A_ge=-scale * AV, b_ge=-(target + tol),
            tol=tol,
        )
        if witness is not None:
            return True
    return False


def stack_rows(arrays):
    """Several row arrays (vertex lists, value sets) as one ``(P, R, m)``
    stack plus the real row counts; shorter arrays are padded by repeating
    their last row, as :func:`screen_members` requires. Arrays of one row
    count are stacked as they are; ragged ones are joined once and read
    back through the row index ``min(k, count - 1)``."""
    counts = np.array([A.shape[0] for A in arrays])
    R = counts.max()
    if counts.min() == R:
        return np.array(arrays), counts
    first = np.cumsum(counts) - counts
    rows = first[:, None] + np.minimum(np.arange(R), counts[:, None] - 1)
    return np.concatenate(arrays)[rows], counts


def screen_faults(S, V, C: PolyhedralCone, tol=DEFAULT_TOL):
    """Raise the InputError of a screen for a negative scale in ``S``, or
    else for polytopes ``V`` (``(..., m)``) of a dimension that is not the
    cone's at a scale above ``tol`` (at most tol, the screen ignores V)."""
    if (S < 0).any():
        raise InputError("scale must be nonnegative")
    if V.shape[-1] != C.dim and not (S <= tol).all():
        raise InputError("polytope dimension does not match the cone")


def covered_queries(Y, B, nb, S, V, nv, C: PolyhedralCone, tol, group,
                    witness=True):
    """Decide a flat stack of memberships ``Y[q] in B[q] + S[q] * conv(V[q])
    + C``: the cheap tests of :func:`screen_members` on the whole stack,
    then :func:`lp_member` for the undecided queries in stack order.

    ``Y`` is ``(Q, m)`` and ``S`` ``(Q,)``. ``B`` is a ``(Q, R, m)`` stack
    of base rows with ``nb`` ``(Q,)`` real ones (:func:`stack_rows`), or one
    ``(R, m)`` base of every query. ``V`` is a ``(Q, J, m)`` vertex stack
    with ``nv`` ``(Q,)`` real ones, or one ``(J, m)`` polytope of every
    query; ``nb`` and ``nv`` are not read for a shared base or polytope. The
    LP sees only the real rows and vertices of a query.

    ``group`` gives each query a group id in 0..G-1. The queries of a
    group are asked in stack order up to its first uncovered one, so no LP
    runs that a query-by-query loop would have skipped. With
    ``witness=False`` only whether a group is covered is wanted, and a
    group with a screened failure is out without any LP.

    Returns ``(G,)`` ints: the first uncovered query of each group (with
    ``witness=False``, some uncovered query), or -1 when all are covered.
    """
    screen_faults(S, V, C, tol)
    if V.shape[-1] != C.dim:
        V = None                        # every scale is at most tol
    own_b, own_v = B.ndim == 3, V is not None and V.ndim == 3
    if V is not None and not own_v:
        nv = len(V)
    decided, answer, candidates = screen_members(Y, B, S, V, nv, C, tol)
    first = np.full(int(group.max()) + 1 if len(group) else 0, -1)
    # the first screened failure of each group
    fails = np.flatnonzero(decided & ~answer)
    failed, at = np.unique(group[fails], return_index=True)
    first[failed] = fails[at]
    for q in np.flatnonzero(~decided):
        g = group[q]
        if first[g] >= 0 and (first[g] < q or not witness):
            continue
        rows = candidates[q, :nb[q]] if own_b else candidates[q]
        if not lp_member(Y[q], B[q] if own_b else B, S[q],
                         V[q, :nv[q]] if own_v else V, C, tol,
                         np.flatnonzero(rows)):
            first[g] = q
    return first


def minkowski_member(y, base, scale, H: Polytope | None, C: PolyhedralCone,
                     tol=DEFAULT_TOL):
    """Membership of ``y`` in ``base + scale*conv(H) + C``.

    True iff some base point ``b`` and convex weights over the vertices of H
    put ``y - b - scale * sum(w_j h_j)`` inside C. With H absent (or zero
    scale) this reduces to ``y - b in C``. Asked as a one-query
    :func:`covered_queries` stack; an absent H is the zero vertex at scale 0.
    """
    y = as_point(y, C.dim)
    B = _as_matrix(base, m=C.dim, name="base") if len(base) else None
    if B is None:
        raise InputError("empty base set")
    if scale < 0:
        raise InputError("scale must be nonnegative")
    V, S = ((np.zeros((1, C.dim)), 0.0) if H is None
            else (H.vertices, scale))
    first = covered_queries(y[None], B, None, np.array([S], dtype=float), V,
                            None, C, tol, np.zeros(1, dtype=int))
    return bool(first[0] < 0)


def polytope_contains(P: Polytope, y, tol=DEFAULT_TOL):
    """Exact membership of y in conv(P.vertices), via LP within tol."""
    y = as_point(y, P.dim)
    V = P.vertices
    if np.any(np.linalg.norm(V - y, ord=np.inf, axis=1) <= tol):
        return True
    J, m = V.shape
    if J == 1:
        return False
    A_eq = np.vstack([V.T, np.ones((1, J))])
    b_eq = np.concatenate([y, [1.0]])
    return _feasible_nonneg(A_eq, b_eq, None, None, tol) is not None


def strictly_positive_functional(H: Polytope, C: PolyhedralCone,
                                 tol=DEFAULT_TOL):
    """A functional in the dual cone of C that is >= 1 on every vertex of H.

    Searches ``w = A^T mu`` with ``mu >= 0`` (exactly the dual cone of a
    halfspace-form C) subject to ``(A h) . mu >= 1`` per vertex h. Returns a
    LinearFunctional carrying ``alpha = min_H w . h``, or None when no such
    ``mu`` exists, which in the polyhedral setting certifies that 0 lies in
    the closure of H + C.

    The uniform ``mu = 1 / least``, with ``least`` the least row sum
    ``min_h sum(A h)``, gives every row ``(A h) . mu = sum(A h) / least >= 1``
    whenever ``least > 0``. Every vertex lies in C, so every ``A h`` is
    ``>= -tol``, and ``least`` is positive unless some vertex lies within
    ``tol`` of 0 or of the cone's lineality space. That ``mu`` is taken when
    ``w`` is finite and every row reaches ``1 - tol``; otherwise (no positive
    row sum, an overflow, or a row short by round-off) the full system is
    solved once by phase 1.
    """
    return positive_functional(validate_direction_set(H, C, tol), C, tol)


def positive_functional(H: Polytope, C: PolyhedralCone, tol=DEFAULT_TOL):
    """:func:`strictly_positive_functional` of a direction set ``H`` that
    :func:`validate_direction_set` has passed, without a second check."""
    A = C.halfspaces
    rows = H.vertices @ A.T  # per vertex h: coefficients (A h) . mu
    w = None
    with np.errstate(over="ignore", invalid="ignore"):
        least = rows.sum(axis=1).min()
        if least > 0:
            mu = np.full(A.shape[0], 1.0 / least)
            w = A.T @ mu
            if not (np.isfinite(w).all() and (rows @ mu >= 1 - tol).all()):
                w = None
    if w is None:
        mu = _feasible_nonneg(None, None, rows, np.ones(rows.shape[0]), tol)
        if mu is None:
            return None
        w = A.T @ mu
    return LinearFunctional(w, alpha=float(np.min(H.vertices @ w)))
