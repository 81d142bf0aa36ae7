"""Finite instances: metric space, set-valued objective, perturbation
families, the set-inclusion pre-order they induce, and the hypothesis
checkers used by the solvers.

The pre-order is ``x2 before x1`` iff every value of f at x1 lies in
``f(x2) + F(x2, x1) + cone`` for every member F of the perturbation family.
All order tests reduce to LP memberships from :mod:`evpkit.geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (DEFAULT_TOL, PolyhedralCone, Polytope, as_point,
                       covered_queries, first_outside, first_uncovered,
                       lp_member, minkowski_member, screen_members, singleton,
                       stack_rows, validate_direction_set)


# ---------------------------------------------------------------------------
# Spaces and maps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Finite metric space given by labels and a distance matrix."""

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) == 0:
            raise InputError("space needs at least one point")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate labels")
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", d)

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}") from None

    def d(self, a, b):
        return float(self.dist[self.index(a), self.index(b)])

    def validate(self, tol=DEFAULT_TOL):
        d = self.dist
        n = self.n
        if d.shape != (n, n):
            raise InputError(f"distance matrix must be {n}x{n}")
        if not np.all(np.isfinite(d)):
            raise InputError("distance matrix has non-finite entries")
        if np.any(np.abs(np.diag(d)) > tol):
            i = int(np.argmax(np.abs(np.diag(d))))
            raise InputError(f"nonzero self-distance at {self.labels[i]!r}")
        if np.max(np.abs(d - d.T)) > tol:
            i, j = np.unravel_index(np.argmax(np.abs(d - d.T)), d.shape)
            raise InputError(
                f"asymmetric distance between {self.labels[i]!r} and "
                f"{self.labels[j]!r}")
        off = d + np.diag([np.inf] * n)
        if np.min(off) <= tol:
            i, j = np.unravel_index(np.argmin(off), d.shape)
            raise InputError(
                f"distinct points {self.labels[i]!r}, {self.labels[j]!r} "
                f"at zero distance")
        # triangle inequality on all triples, vectorized:
        # viol[i, j, k] = d(i, k) - d(i, j) - d(j, k)
        viol = d[:, None, :] - d[:, :, None] - d[None, :, :]
        worst = np.unravel_index(np.argmax(viol), viol.shape)
        if viol[worst] > tol:
            i, j, k = worst
            raise InputError(
                "triangle inequality fails on "
                f"({self.labels[i]!r}, {self.labels[j]!r}, {self.labels[k]!r})")
        return self

    def min_positive_distance(self):
        if self.n == 1:
            return math.inf
        off = self.dist + np.diag([np.inf] * self.n)
        return float(np.min(off))


def metric_from_coordinates(labels, coords):
    """Euclidean metric induced by an embedding (axioms by construction)."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != len(labels):
        raise InputError("coordinates must be one row per label")
    diff = pts[:, None, :] - pts[None, :, :]
    return MetricSpace(tuple(labels), np.linalg.norm(diff, axis=2))


@dataclass(frozen=True, eq=False)
class QuasiMetric:
    """Nonnegative pair weight satisfying the directed triangle inequality
    and positivity off the diagonal. The Cauchy-style axiom is vacuous on
    finite spaces and is recorded, not checked."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=float))

    def validate(self, tol=DEFAULT_TOL):
        p = self.mat
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("quasi-metric matrix must be square")
        if not np.all(np.isfinite(p)):
            raise InputError("quasi-metric has non-finite entries")
        if np.min(p) < -tol:
            raise InputError("quasi-metric has negative entries")
        n = p.shape[0]
        off = p + np.diag([np.inf] * n)
        if n > 1 and np.min(off) <= tol:
            i, j = np.unravel_index(np.argmin(off), p.shape)
            raise InputError(
                f"quasi-metric vanishes on distinct indices ({i}, {j})")
        viol = p[:, None, :] - p[:, :, None] - p[None, :, :]
        worst = np.unravel_index(np.argmax(viol), viol.shape)
        if viol[worst] > tol:
            raise InputError(
                f"directed triangle inequality fails on indices {worst}")
        return self


@dataclass(frozen=True, eq=False)
class SetValuedMap:
    """Label -> nonempty finite list of points, stored as row stacks."""

    values: dict

    def __post_init__(self):
        out = {}
        m = None
        for label, pts in self.values.items():
            arr = np.asarray(pts, dtype=float)
            if arr.size == 0:
                raise InputError(f"value set of {label!r} must be nonempty")
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            if arr.ndim != 2:
                raise InputError(f"value set of {label!r} must be a point list")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"value set of {label!r} has non-finite entries")
            if m is None:
                m = arr.shape[1]
            elif arr.shape[1] != m:
                raise InputError(f"value set of {label!r} has dimension "
                                 f"{arr.shape[1]}, expected {m}")
            out[label] = arr
        if not out:
            raise InputError("empty set-valued map")
        object.__setattr__(self, "values", out)
        object.__setattr__(self, "dim", m)

    def at(self, label):
        try:
            return self.values[label]
        except KeyError:
            raise InputError(f"no value set for label {label!r}") from None

    def all_points(self):
        return np.vstack(list(self.values.values()))


@dataclass(frozen=True, eq=False)
class FiniteInstance:
    """A metric space, a set-valued objective on it, and the ordering cone."""

    space: MetricSpace
    fmap: SetValuedMap
    cone: PolyhedralCone
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.fmap.dim != self.cone.dim:
            raise InputError("value dimension does not match the cone")
        missing = [x for x in self.space.labels if x not in self.fmap.values]
        if missing:
            raise InputError(f"labels without value sets: {missing}")
        extra = [x for x in self.fmap.values if x not in self.space.labels]
        if extra:
            raise InputError(f"value sets for unknown labels: {extra}")

    @property
    def labels(self):
        return self.space.labels


@dataclass(frozen=True)
class EvpParams:
    """Solver scalars; each supplied value must be strictly positive."""

    x0: object
    epsilon: float | None = None
    lam: float | None = None
    gamma: float | None = None
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        for name in ("epsilon", "lam", "gamma"):
            v = getattr(self, name)
            if v is not None and not (v > 0):
                raise InputError(f"{name} must be strictly positive")
        if not (self.tolerance > 0):
            raise InputError("tolerance must be strictly positive")


# ---------------------------------------------------------------------------
# Perturbation families.  Each family enumerates, for an ordered pair of
# labels, the sets F(x2, x1) as (index, scale, polytope) triples meaning
# ``scale * conv(polytope)``. The distance-scaled families (all but the
# extensional one) have the single index "*" and also give their whole pair
# map at once: ``pair_map(space)`` returns the (n, n) scales S, with S[i, j]
# that of F(labels[i], labels[j]), and the shared polytope H.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SingletonDirection:
    """F(x2, x1) = rate * d(x2, x1) * {k0}."""

    k0: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "k0", as_point(self.k0))
        if not self.rate > 0:
            raise InputError("rate must be strictly positive")
        object.__setattr__(self, "_H", singleton(self.k0))

    kind = "singleton"
    open_scaled = False

    def lambdas(self):
        return ("*",)

    def sets(self, space, x2, x1):
        return (("*", self.rate * space.d(x2, x1), self._H),)

    def pair_map(self, space):
        return self.rate * space.dist, self._H

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        validate_direction_set(self._H, cone_, tol)
        return self


@dataclass(frozen=True, eq=False)
class PolytopeDirection:
    """F(x2, x1) = rate * d(x2, x1) * H for a fixed direction polytope H."""

    H: Polytope
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise InputError("rate must be strictly positive")

    kind = "polytope"
    open_scaled = False

    def lambdas(self):
        return ("*",)

    def sets(self, space, x2, x1):
        return (("*", self.rate * space.d(x2, x1), self.H),)

    def pair_map(self, space):
        return self.rate * space.dist, self.H

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        validate_direction_set(self.H, cone_, tol)
        return self


@dataclass(frozen=True, eq=False)
class OpenPolytopeFamily(PolytopeDirection):
    """The family {rate' * d * H : 0 < rate' < rate}.

    For polyhedral data the feasible rates of any membership query form a
    closed interval starting at 0, so quantifying over the open interval is
    equivalent to testing the endpoint; the sets enumerated here are the
    endpoint sets and callers interpret conclusions accordingly.
    """

    kind = "open_polytope"
    open_scaled = True


@dataclass(frozen=True, eq=False)
class QuasiMetricDirection:
    """F(x2, x1) = p(x1, x2) * H (argument order per the quasi-metric form)."""

    H: Polytope
    p: QuasiMetric

    kind = "quasimetric"
    open_scaled = False

    def lambdas(self):
        return ("*",)

    def sets(self, space, x2, x1):
        scale = float(self.p.mat[space.index(x1), space.index(x2)])
        return (("*", scale, self.H),)

    def pair_map(self, space):
        return self.p.mat.T, self.H

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        validate_direction_set(self.H, cone_, tol)
        self.p.validate(tol)
        if self.p.mat.shape[0] != space.n:
            raise InputError("quasi-metric size does not match the space")
        return self


@dataclass(frozen=True, eq=False)
class ExtensionalFamily:
    """An explicit table (index, x2, x1) -> polytope over a finite index set."""

    indices: tuple
    table: dict  # (index, x2, x1) -> Polytope

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if not self.indices:
            raise InputError("extensional family needs at least one index")

    kind = "extensional"
    open_scaled = False

    def lambdas(self):
        return self.indices

    def sets(self, space, x2, x1):
        out = []
        for lam in self.indices:
            try:
                P = self.table[(lam, x2, x1)]
            except KeyError:
                raise InputError(
                    f"extensional family is not total: missing "
                    f"({lam!r}, {x2!r}, {x1!r})") from None
            out.append((lam, 1.0, P))
        return tuple(out)

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        # the sets up to the first missing one, in (x2, x1, index) order; a
        # value leaving the cone before that entry is reported first
        keys, polys, missing = [], [], None
        try:
            for x2 in space.labels:
                for x1 in space.labels:
                    for lam, _, P in self.sets(space, x2, x1):
                        keys.append((lam, x2, x1))
                        polys.append(P.vertices)
        except InputError as exc:
            missing = exc
        bad = first_outside(cone_, polys, tol)
        if bad is not None:
            lam, x2, x1 = keys[bad]
            raise InputError(f"family value for ({lam!r}, {x2!r}, {x1!r}) "
                             f"leaves the cone")
        if missing is not None:
            raise missing
        return self


# ---------------------------------------------------------------------------
# The induced pre-order.
# ---------------------------------------------------------------------------

def _covered(inst, base_values, scale, H, y):
    return minkowski_member(y, base_values, scale, H, inst.cone, inst.tol)


def preceq(inst: FiniteInstance, fam, x2, x1):
    """True iff f(x1) lies in f(x2) + F(x2, x1) + cone for every family set."""
    vals1 = inst.fmap.at(x1)
    vals2 = inst.fmap.at(x2)
    for _, scale, H in fam.sets(inst.space, x2, x1):
        for y in vals1:
            if not _covered(inst, vals2, scale, H, y):
                return False
    return True


def family_arrays(space, fam):
    """A family over all ordered label pairs as arrays ``(S, V, nv)``.

    ``S[i, j, l]`` is the scale of the set of index l (in ``fam.lambdas()``
    order) of F(labels[i], labels[j]). A distance-scaled family gives its
    pair map at once (``pair_map``): ``V`` is H's ``(J, m)`` vertex array and
    ``nv`` its vertex count. An extensional family has unit scales, ``V`` is
    the ``(n, n, L, J, m)`` stack of :func:`stack_rows` over its table and
    ``nv`` the ``(n, n, L)`` real vertex counts.
    """
    if fam.kind != "extensional":
        S, H = fam.pair_map(space)
        return S[..., None], H.vertices, H.vertices.shape[0]
    labels = space.labels
    n, L = len(labels), len(fam.lambdas())
    V, nv = stack_rows([P.vertices for x2 in labels for x1 in labels
                        for _, _, P in fam.sets(space, x2, x1)])
    return (np.ones((n, n, L)), V.reshape(n, n, L, *V.shape[1:]),
            nv.reshape(n, n, L))


def order_arrays(inst: FiniteInstance, fam):
    """What :func:`order_queries` reads: :func:`family_arrays` followed by
    the value sets of all labels as one stack (:func:`stack_rows`). A solver
    builds them once and hands them to every order test it makes; each
    function that takes ``arrays`` builds them itself when they are not
    given."""
    return (*family_arrays(inst.space, fam),
            *stack_rows([inst.fmap.at(x) for x in inst.labels]))


def order_queries(inst: FiniteInstance, arrays, x2s, x1s, witness=True):
    """The order tests ``labels[x2s[p]] before labels[x1s[p]]`` of several
    label pairs as one :func:`covered_queries` stack, ``arrays`` as
    :func:`order_arrays` gives them.

    Each pair is a group of its (family index, value of x1) queries in
    :func:`preceq`'s loop order, over the base f(x2). Returns
    ``(first, lam, row)``: each pair's first uncovered query (-1 when x2
    precedes x1; with ``witness=False`` some uncovered query), and each
    query's position in ``fam.lambdas()`` and value row of x1.
    """
    S, V, nv, B, nb = arrays
    counts = S.shape[-1] * nb[x1s]
    pair = np.repeat(np.arange(len(x1s)), counts)
    pos = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = x2s[pair], x1s[pair]
    lam, row = np.divmod(pos, nb[j])
    own = V.ndim > 2
    first = covered_queries(
        B[j, row], B[i], nb[i], S[i, j, lam],
        V[i, j, lam] if own else V, nv[i, j, lam] if own else nv,
        inst.cone, inst.tol, group=pair, witness=witness)
    return first, lam, row


# relation_matrix stacks whole rows of the order matrix up to this many
# queries, so that its arrays stay small at any n
_BLOCK_QUERIES = 1024


def relation_matrix(inst: FiniteInstance, fam, arrays=None):
    """rel[i, j] = True iff labels[i] precedes labels[j] in the order.

    Decided for blocks of rows (x2) at a time, each one
    :func:`order_queries` stack: a pair with a screened failure is out, and
    the undecided queries of the other pairs go to the LP in
    :func:`preceq`'s loop order until one is uncovered. A block holds as
    many whole rows as fit in ``_BLOCK_QUERIES`` queries, and at least one.
    """
    n = len(inst.labels)
    if arrays is None:
        arrays = order_arrays(inst, fam)
    S, _, _, _, nb = arrays
    step = max(1, _BLOCK_QUERIES // (S.shape[-1] * int(nb.sum())))
    rel = np.zeros((n, n), dtype=bool)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        first, _, _ = order_queries(inst, arrays, np.repeat(rows, n),
                                    np.tile(np.arange(n), len(rows)),
                                    witness=False)
        rel[rows] = (first < 0).reshape(len(rows), n)
    return rel


def s_set(inst: FiniteInstance, fam, x):
    """The lower section of x: all labels that precede it."""
    return [x2 for x2 in inst.labels if preceq(inst, fam, x2, x)]


def ti_check(inst: FiniteInstance, fam, arrays=None):
    """Triangle-inclusion property of the family over all label triples.

    A distance-scaled family is one pair map F(x2, x1), swept by
    :func:`triangle_failure`; an extensional family is searched over its
    index pairs by :func:`_extensional_failure`. Returns ``(True, None)`` or
    ``(False, witness)``, the first failing (x1, x2, x3, index) in loop
    order.
    """
    space = inst.space
    S, V, nv = (family_arrays(space, fam) if arrays is None
                else arrays[:3])
    if fam.kind == "extensional":
        witness = _extensional_failure(fam, space, V, nv, inst.cone, inst.tol)
        return (True, None) if witness is None else (False, witness)
    triple = triangle_failure(inst.labels, S[..., 0], V, nv, inst.cone,
                              inst.tol)
    return (True, None) if triple is None else (False, (*triple, "*"))


def _extensional_failure(fam, space, E, counts, C, tol):
    """First (x1, x2, x3, index) with no index pair (mu, nu) that puts every
    vertex sum of F_mu(x1, x2) + F_nu(x2, x3) in F_index(x1, x3) + C, in the
    loop order index, x1, x3, x2; None when there is none.

    One (index, x1) slab at a time, :func:`screen_members` screens the
    queries (x3, x2, mu, nu, u, v) at once. A pair (x3, x2) is covered when
    some (mu, nu) has every sum screened in, and dead when every (mu, nu)
    has a sum screened out. The pairs before the first dead one are walked
    in loop order; an uncovered one tries its (mu, nu) in order on the LP,
    skipping those with a sum screened out, until one has every undecided
    sum covered. ``E[x2, x1, index]`` holds the vertices of F_index(x2, x1)
    padded to J, and ``counts`` the real ones (:func:`family_arrays`).
    """
    labels = space.labels
    n = len(labels)
    lams = fam.lambdas()
    L = len(lams)
    # every sum F_mu(x1, x2)[u] + F_nu(x2, x3)[v] as (x1, x3, x2, mu, nu, u, v)
    Et, ct = E.transpose(1, 0, 2, 3, 4), counts.transpose(1, 0, 2)
    sums = (E[:, None, :, :, None, :, None, :]
            + Et[None, :, :, None, :, None, :, :])
    k = np.arange(E.shape[3])
    pads = ((k[:, None] >= counts[:, None, :, :, None, None, None])
            | (k >= ct[None, :, :, None, :, None, None]))
    origin = np.zeros((1, C.dim))
    for c_lam, lam in enumerate(lams):
        for a, x1 in enumerate(labels):
            Y, pad = sums[a], pads[a]
            T = E[a, :, c_lam]                        # F_index(x1, x3)
            decided, answer, candidates = screen_members(
                Y, origin, np.float64(1.0),
                T[:, None, None, None, None, None],
                counts[a, :, c_lam][:, None, None, None, None, None], C, tol)
            out = (decided & ~answer & ~pad).any(axis=(-2, -1))
            covered = ((decided & answer) | pad).all(axis=(-2, -1)).any(
                axis=(-2, -1))
            dead = np.flatnonzero(out.all(axis=(-2, -1)))
            stop = int(dead[0]) if dead.size else None

            def covers(c, b, mu, nu):
                # (mu, nu) puts every sum of the pair (x3, x2) = (c, b) in
                # the target, the undecided sums by LP in (u, v) order
                if out[c, b, mu, nu]:
                    return False
                settled = pad[c, b, mu, nu].ravel()
                points = Y[c, b, mu, nu].reshape(-1, C.dim)
                rows = candidates[c, b, mu, nu].reshape(len(points), -1)
                target = T[c, :counts[a, c, c_lam]]
                return first_uncovered(
                    decided[c, b, mu, nu].ravel() | settled,
                    answer[c, b, mu, nu].ravel() | settled,
                    lambda q: lp_member(points[q], origin, 1.0, target, C,
                                        tol, np.flatnonzero(rows[q]))) is None

            for p in np.flatnonzero(~covered.ravel()[:stop]):
                c, b = divmod(int(p), n)
                if not any(covers(c, b, mu, nu)
                           for mu in range(L) for nu in range(L)):
                    return x1, labels[b], labels[c], lam
            if stop is not None:
                c, b = divmod(stop, n)
                return x1, labels[b], labels[c], lam
    return None


# ---------------------------------------------------------------------------
# Pair maps.  A pair map is a callable ``value_set(x2, x1) -> (scale, H)``
# meaning ``scale * conv(H)``, such as ``FMap.value_set`` for the graph
# order; a distance-scaled family's ``pair_map`` gives the same map as
# arrays.
# ---------------------------------------------------------------------------

def pair_arrays(labels, value_set):
    """A pair map over all ordered label pairs as arrays ``(S, V, nv)``.

    ``S[i, j]`` is the scale of F(labels[i], labels[j]). When every pair
    value has the same polytope H (a distance-scaled map), ``V`` is H's
    ``(J, m)`` vertex array and ``nv`` its vertex count; otherwise ``V`` is
    the ``(n, n, J, m)`` stack of :func:`stack_rows` and ``nv`` the
    ``(n, n)`` real vertex counts.
    """
    n = len(labels)
    entries = [value_set(x2, x1) for x2 in labels for x1 in labels]
    S = np.array([scale for scale, _ in entries], dtype=float).reshape(n, n)
    polys = [H for _, H in entries]
    if all(H is polys[0] for H in polys):
        return S, polys[0].vertices, polys[0].vertices.shape[0]
    V, nv = stack_rows([H.vertices for H in polys])
    return S, V.reshape(n, n, *V.shape[1:]), nv.reshape(n, n)


def settled_triples(S, V, C, tol):
    """``settled[a, b, c]``: every query that :func:`triangle_failure`
    screens for the triple (labels[a], labels[b], labels[c]) of the pair map
    ``S`` over one shared polytope with vertices ``V`` is covered, read from
    ``S`` and ``A V`` alone, without assuming H in C or a metric ``S``.

    With s = s12 + s23, the screen asks s v in s13 H + C for each vertex v,
    and its single-vertex test at v computes A(s v) - s13 A v = r A v with
    r = s - s13; when s13 <= tol it asks s v in C, so r = s. The test hits
    when min(r min(AV), r max(AV)) is at least -tol, less an allowance for
    the rounding of both products: (2 m + 6) ulps of
    (|s| + |s13|) max |A||v| + tol. So a settled triple is one the screen
    already covers. Triples the sweep skips (s and s13 at most ``tol``) are
    settled; any other triple with a negative s13 is not.
    """
    A = C.halfspaces
    AV = V @ A.T
    size = np.max(np.abs(V) @ np.abs(A).T)
    s13 = S[:, None, :]
    s = S[:, :, None] + S[None, :, :]
    r = np.where(s13 > tol, s - s13, s)
    low = np.minimum(r * AV.min(), r * AV.max())
    allowance = (2 * C.dim + 6) * np.finfo(float).eps * (
        (np.abs(s) + np.abs(s13)) * size + tol)
    skip = (s <= tol) & (s13 <= tol)
    return skip | ((s13 >= 0) & (low - allowance >= -tol))


def triangle_failure(labels, S, V, nv, C, tol):
    """First triple (x1, x2, x3), in loop order, with F(x1, x2) + F(x2, x3)
    outside F(x1, x3) + C, or None when the pair map ``(S, V, nv)`` (as
    :func:`pair_arrays` gives it) has the triangle inclusion.

    Screened one x1 at a time by :func:`screen_members`; undecided queries
    go to the LP in loop order until one is uncovered. With one shared
    polytope H every sum s12 u + s23 v lies in (s12 + s23) H, so only the
    vertices of (s12 + s23) H are tested against s13 H, and only the x1
    that hold a triple :func:`settled_triples` leaves open are screened at
    all; otherwise every vertex sum s12 u + s23 v is tested against
    s13 H13. A triple with both s12 + s23 and s13 at most ``tol`` is
    covered; any other negative s13 raises InputError when the sweep
    reaches it.
    """
    origin = np.zeros((1, C.dim))
    slabs = range(len(labels))
    if V.ndim == 2:
        slabs = np.flatnonzero(~settled_triples(S, V, C, tol).all(axis=(1, 2)))
    for a in slabs:
        x1 = labels[a]
        s = S[a][:, None] + S                    # s12 + s23 over (x2, x3)
        skip = (s <= tol) & (S[a] <= tol)
        negative = (S[a] < 0) & ~skip
        if V.ndim == 2:
            # queries (x2, x3, -, v): (s12 + s23) v in s13 H + C
            W = s[..., None, None, None] * V
            T, tn, pad = V, nv, False
        else:
            # queries (x2, x3, u, v): s12 u + s23 v in s13 H13 + C
            W = (S[a][:, None, None, None, None] * V[a][:, None, :, None, :]
                 + S[:, :, None, None, None] * V[:, :, None, :, :])
            T, tn = V[a][None, :, None, None], nv[a][None, :, None, None]
            k = np.arange(V.shape[2])
            pad = ((k[:, None] >= nv[a][:, None, None, None])
                   | (k >= nv[:, :, None, None]))
        decided, answer, candidates = screen_members(
            W, origin, S[a][None, :, None, None], T, tn, C, tol)
        settled = skip[..., None, None] | pad
        decided = (decided | settled) & ~negative[..., None, None]

        def lp(q):
            b, c, u, v = np.unravel_index(q, decided.shape)
            if S[a, c] < 0:
                raise InputError("scale must be nonnegative")
            return lp_member(W[b, c, u, v], origin, S[a, c],
                             V if V.ndim == 2 else V[a, c, :nv[a, c]], C,
                             tol, np.flatnonzero(candidates[b, c, u, v]))

        q = first_uncovered(decided.ravel(), (answer | settled).ravel(), lp)
        if q is not None:
            b, c, _, _ = np.unravel_index(q, decided.shape)
            return x1, labels[b], labels[c]
    return None


# ---------------------------------------------------------------------------
# Hypothesis checkers.
# ---------------------------------------------------------------------------

def scalar_inf(xi, values):
    """inf of the scalarization over a finite stack of value rows."""
    if getattr(xi, "is_linear", False):
        return float(np.min(values @ xi.weights))
    return min(xi.value(v) for v in values)


@dataclass
class AssumptionReport:
    """Per-hypothesis booleans with witness data.

    ``bounded``              finite scalar infimum over the start section
    ``strict_decrease``      the scalarized objective strictly drops along
                             every strict order step inside the section
    ``separated_pairs``      every distinct ordered pair admits a family set
                             with strictly positive scalar infimum
    ``separated_pointwise``  same with positivity at every point of the set
                             (coincides with the pair form on closed polytopes)
    ``separated_uniform``    a single family index is uniformly positive over
                             all pairs at any positive distance
    ``chains_stabilize``     recorded structurally: finite decreasing chains
                             of sections stabilize
    """

    start: object
    section: list
    bounded: bool
    inf_value: float
    strict_decrease: bool
    strict_decrease_witness: tuple | None
    separated_pairs: bool | None
    separated_pointwise: bool | None
    separated_uniform: bool | None
    separation_witness: dict | None
    chains_stabilize: str = "structural: finite instance"
    notes: tuple = ()

    def solvable(self):
        alternatives = [self.strict_decrease, self.separated_pairs,
                        self.separated_pointwise, self.separated_uniform]
        return self.bounded and any(a for a in alternatives if a is not None)

    def failed_name(self):
        if not self.bounded:
            return "bounded"
        return "strict_decrease"

    def to_dict(self):
        return {
            "start": self.start,
            "section": list(self.section),
            "bounded": self.bounded,
            "inf_value": self.inf_value,
            "strict_decrease": self.strict_decrease,
            "strict_decrease_witness": (
                list(self.strict_decrease_witness)
                if self.strict_decrease_witness else None),
            "separated_pairs": self.separated_pairs,
            "separated_pointwise": self.separated_pointwise,
            "separated_uniform": self.separated_uniform,
            "separation_witness": self.separation_witness,
            "chains_stabilize": self.chains_stabilize,
            "notes": list(self.notes),
        }


def check_assumptions(inst: FiniteInstance, fam, xi, x0, rel=None,
                      arrays=None):
    """Evaluate every named hypothesis by enumeration.

    Lower sections are read from the order matrix ``rel`` (as built by
    :func:`relation_matrix`, which runs when it is not given; ``arrays`` as
    :func:`order_arrays` gives them). Infima of a
    linear functional over polytopes are taken over vertices, for every pair
    and family index at once (:func:`vertex_minima`); the separation
    conditions are linear-functional-only and are reported as None for
    nonlinear scalarizations.
    """
    tol = inst.tol
    labels = inst.labels
    if rel is None:
        rel = relation_matrix(inst, fam, arrays)

    def lower_section(x):
        return [labels[i] for i in np.flatnonzero(rel[:, inst.space.index(x)])]

    section = lower_section(x0)
    if not section:
        return AssumptionReport(
            start=x0, section=[], bounded=False, inf_value=math.inf,
            strict_decrease=False, strict_decrease_witness=None,
            separated_pairs=None, separated_pointwise=None,
            separated_uniform=None, separation_witness=None,
            notes=("start section is empty",))

    eta = {x: scalar_inf(xi, inst.fmap.at(x)) for x in inst.labels}
    inf_value = min(eta[x] for x in section)
    bounded = math.isfinite(inf_value)

    strict = True
    strict_witness = None
    for x in section:
        if not math.isfinite(eta[x]):
            continue
        for xp in lower_section(x):
            if xp == x:
                continue
            if not eta[x] - eta[xp] > tol:
                strict = False
                strict_witness = (x, xp, eta[x], eta[xp])
                break
        if not strict:
            break

    linear = getattr(xi, "is_linear", False)
    sep_pairs = sep_point = sep_uniform = None
    sep_witness = None
    notes = []
    if linear:
        minima = vertex_minima(inst, fam, xi, arrays)
        sep_pairs, sep_point, pair_witness = _pairwise_separation(
            inst, minima, section)
        sep_uniform, uniform_witness = _uniform_separation(inst, fam, minima)
        sep_witness = {"pairs": pair_witness, "uniform": uniform_witness}
        notes.append("pair separation: infimum over a closed polytope equals "
                     "its vertex minimum, so the pair and pointwise forms "
                     "coincide here")
    else:
        notes.append("separation conditions apply to linear functionals only")
    return AssumptionReport(
        start=x0, section=section, bounded=bounded, inf_value=inf_value,
        strict_decrease=strict, strict_decrease_witness=strict_witness,
        separated_pairs=sep_pairs, separated_pointwise=sep_point,
        separated_uniform=sep_uniform, separation_witness=sep_witness,
        notes=tuple(notes))


def vertex_minima(inst, fam, xi, arrays=None):
    """``M[i, j, l]``: the infimum of the linear functional ``xi`` over the
    set of index l of F(labels[i], labels[j]), its scale times the minimum
    of ``xi`` over the set's vertices, for every pair and index at once."""
    S, V, _ = (family_arrays(inst.space, fam) if arrays is None
               else arrays[:3])
    # padding vertices repeat a real one and leave every minimum unchanged
    return S * np.min(V @ xi.weights, axis=-1)


def _pairwise_separation(inst, minima, section):
    """Every ordered pair (x, x') of distinct section labels has a family
    set of F(x', x) with vertex minimum above ``tol``; the first pair that
    has none, in loop order, is the witness."""
    idx = [inst.space.index(x) for x in section]
    # best[a, b]: the largest minimum over the sets of F(section[b], section[a])
    best = minima.max(axis=-1)[np.ix_(idx, idx)].T
    bad = ~(best > inst.tol)
    np.fill_diagonal(bad, False)
    fails = np.flatnonzero(bad)
    if not fails.size:
        return True, True, None
    a, b = divmod(int(fails[0]), len(idx))
    return False, False, {"pair": [section[a], section[b]],
                          "inf": float(best[a, b])}


def _uniform_separation(inst, fam, minima):
    """The family index whose vertex minimum over all pairs at distance at
    least the smallest positive one is largest (the first on ties), and
    whether that minimum exceeds ``tol``."""
    space = inst.space
    delta = space.min_positive_distance()
    if not math.isfinite(delta):
        return True, {"delta": None, "inf": math.inf,
                      "note": "no pairs at positive distance"}
    # the pair at distance delta itself qualifies, so no minimum is empty
    worst = minima[space.dist >= delta].min(axis=0)
    best_over_lams = -math.inf
    best_witness = None
    for lam, w in zip(fam.lambdas(), worst):
        if w > best_over_lams:
            best_over_lams = float(w)
            best_witness = {"index": lam, "delta": delta,
                            "inf": best_over_lams}
    return best_over_lams > inst.tol, best_witness


# ---------------------------------------------------------------------------
# Probes and efficiency tests.
# ---------------------------------------------------------------------------

def _included_up_to_cone(fmap, a, b, C, tol):
    """f(a) subset of f(b) + cone."""
    base = fmap.at(b)
    return all(minkowski_member(y, base, 0.0, None, C, tol)
               for y in fmap.at(a))


def slm_probe(fmap: SetValuedMap, chain, limit, C: PolyhedralCone,
              tol=DEFAULT_TOL):
    """Sequential-lower-monotonicity probe along an explicit chain.

    True iff the decreasing premise ``f(x_n) subset f(x_{n+1}) + cone`` holds
    along the chain and every chain value set sits inside
    ``f(limit) + cone``; vacuously true when the premise already fails.
    """
    chain = list(chain)
    if len(chain) < 2:
        raise InputError("chain needs at least two elements")
    for a, b in zip(chain, chain[1:]):
        if not _included_up_to_cone(fmap, a, b, C, tol):
            return True  # premise fails: vacuous
    return all(_included_up_to_cone(fmap, a, limit, C, tol) for a in chain)


def epi_closed_probe(pairs, limit_pair, fmap: SetValuedMap,
                     C: PolyhedralCone, tol=DEFAULT_TOL):
    """Closedness probe for the cone-epigraph along a sampled sequence.

    Each chain pair must already lie in the epigraph (precondition, enforced);
    the probe reports whether the limit pair does too.
    """
    for x, y in pairs:
        if not minkowski_member(as_point(y), fmap.at(x), 0.0, None, C, tol):
            raise InputError(
                f"chain pair at {x!r} is not in the epigraph")
    xbar, ybar = limit_pair
    return minkowski_member(as_point(ybar), fmap.at(xbar), 0.0, None, C, tol)


def eps_h_efficient(inst: FiniteInstance, x0, epsilon, H: Polytope):
    """Approximate-efficiency test with direction set H.

    True iff some value of f at x0 escapes ``f(X) + epsilon*H + cone``; the
    first escaping value is returned as the witness. All values of f at x0
    are one :func:`covered_queries` group over the shared base f(X).
    """
    if not epsilon > 0:
        raise InputError("epsilon must be strictly positive")
    Y0 = inst.fmap.at(x0)
    first = covered_queries(Y0, inst.fmap.all_points(), None,
                            np.full(len(Y0), float(epsilon)), H.vertices,
                            None, inst.cone, inst.tol,
                            group=np.zeros(len(Y0), dtype=int))
    if first[0] < 0:
        return False, None
    return True, Y0[first[0]]


def d_bounded_certificate(inst: FiniteInstance):
    """A bounded set M with f(X) inside M + cone: the value points themselves."""
    return Polytope(inst.fmap.all_points())
