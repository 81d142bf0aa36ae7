"""Finite instances: metric space, set-valued objective, perturbation
families, the set-inclusion pre-order they induce, and the hypothesis
checkers used by the solvers.

The pre-order is ``x2 before x1`` iff every value of f at x1 lies in
``f(x2) + F(x2, x1) + cone`` for every member F of the perturbation family.
All order tests reduce to LP memberships from :mod:`evpkit.geometry`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InputError
from .geometry import (DEFAULT_TOL, PolyhedralCone, Polytope, _over_rows,
                       as_point, covered_queries, first_outside,
                       float_array, lp_member, minkowski_member,
                       screen_members, segment_band, singleton,
                       stack_rows, validate_direction_set)


# ---------------------------------------------------------------------------
# Spaces and maps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Finite metric space given by labels and a distance matrix.

    ``validate`` keeps the triangle excess, the largest violation ``d[i, k]
    - d[i, j] - d[j, k]``, as ``_excess`` (None before; a bound on it for
    :func:`metric_from_coordinates`), and searches the triples only while
    no excess below ``tol`` is kept. It keeps the smallest distance between
    distinct points too, for :meth:`min_positive_distance`. ``dist`` is a
    read-only copy of the given matrix, so what is kept stays true of
    ``dist``."""

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) == 0:
            raise InputError("space needs at least one point")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", _read_only(self.dist,
                                                    "distance matrix"))
        object.__setattr__(self, "_excess", None)
        object.__setattr__(self, "_least", None)

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
        if not np.isfinite(d).all():
            raise InputError("distance matrix has non-finite entries")
        diag = np.diag(d)
        bad = (diag < 0) | (diag > tol)
        if bad.any():
            i = int(np.argmax(np.where(bad, np.abs(diag), -1.0)))
            raise InputError(f"nonzero self-distance at {self.labels[i]!r}")
        if np.max(np.abs(d - d.T)) > tol:
            i, j = np.unravel_index(np.argmax(np.abs(d - d.T)), d.shape)
            raise InputError(
                f"asymmetric distance between {self.labels[i]!r} and "
                f"{self.labels[j]!r}")
        off = d + np.diag([np.inf] * n)
        least = float(np.min(off))
        if least <= tol:
            i, j = np.unravel_index(np.argmin(off), d.shape)
            raise InputError(
                f"distinct points {self.labels[i]!r}, {self.labels[j]!r} "
                f"at zero distance")
        object.__setattr__(self, "_least", least)
        excess = self._excess
        if excess is None or not excess < tol:
            worst, excess = _worst_triangle(d)
            if excess > tol:
                i, j, k = worst
                raise InputError(
                    "triangle inequality fails on "
                    f"({self.labels[i]!r}, {self.labels[j]!r}, "
                    f"{self.labels[k]!r})")
        object.__setattr__(self, "_excess", float(excess))
        return self

    def min_positive_distance(self):
        """The smallest distance between distinct points, +inf for one
        point: kept by ``validate``, or computed once here."""
        if self._least is None:
            object.__setattr__(self, "_least", math.inf if self.n == 1 else
                               float(np.min(self.dist + np.diag(
                                   [np.inf] * self.n))))
        return self._least


def metric_from_coordinates(labels, coords):
    """Euclidean metric induced by an embedding (axioms by construction).

    The computed norms meet the triangle inequality up to their rounding:
    each is within ``(m + 4) eps / 4`` of the exact distance, relative, and
    ``sqrt(m) 2**-537.5`` absolute where squares underflow. The space keeps
    ``(3 m + 16) eps max d + 4 m 2**-537``, which bounds both the exact
    violation and the one :func:`_worst_triangle` computes, as its
    ``_excess``, and ``validate`` searches the triples only when that
    reaches ``tol``."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != len(labels):
        raise InputError("coordinates must be one row per label")
    diff = pts[:, None, :] - pts[None, :, :]
    space = MetricSpace(tuple(labels), np.linalg.norm(diff, axis=2))
    m = pts.shape[1]
    object.__setattr__(space, "_excess", float(
        (3 * m + 16) * np.finfo(float).eps * space.dist.max()
        + 4 * m * 2.0 ** -537))
    return space


@dataclass(frozen=True, eq=False)
class QuasiMetric:
    """Nonnegative pair weight satisfying the directed triangle inequality,
    positivity off the diagonal and a diagonal in ``[0, tol]``. The
    Cauchy-style axiom is vacuous on finite spaces and is recorded, not
    checked."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _read_only(self.mat,
                                                   "quasi-metric matrix"))
        object.__setattr__(self, "_excess", None)

    def validate(self, tol=DEFAULT_TOL):
        """Keeps the directed triangle excess as ``_excess``, and searches
        the triples only while no excess below ``tol`` is kept, as
        :meth:`MetricSpace.validate` does; ``mat`` is a read-only copy."""
        p = self.mat
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("quasi-metric matrix must be square")
        if not np.all(np.isfinite(p)):
            raise InputError("quasi-metric has non-finite entries")
        if np.min(p) < 0:
            raise InputError("quasi-metric has negative entries")
        if (np.diag(p) > tol).any():
            raise InputError("quasi-metric has a nonzero diagonal entry at "
                             f"index {int(np.argmax(np.diag(p) > tol))}")
        n = p.shape[0]
        off = p + np.diag([np.inf] * n)
        if n > 1 and np.min(off) <= tol:
            i, j = np.unravel_index(np.argmin(off), p.shape)
            raise InputError(
                f"quasi-metric vanishes on distinct indices ({i}, {j})")
        excess = self._excess
        if excess is None or not excess < tol:
            worst, excess = _worst_triangle(p)
            if excess > tol:
                raise InputError("directed triangle inequality fails on "
                                 f"indices ({', '.join(map(str, worst))})")
        object.__setattr__(self, "_excess", float(excess))
        return self


def _read_only(x, name):
    """A read-only float copy of ``x``."""
    a = float_array(x, name).copy()
    a.flags.writeable = False
    return a


# _worst_triangle builds the violations of blocks of whole rows up to this
# many triples at a time, so that its arrays stay small at any n
_TRIANGLE_TRIPLES = 1 << 20


def _worst_triangle(d):
    """The first (i, j, k) in loop order with the largest violation
    ``d[i, k] - d[i, j] - d[j, k]`` of the triangle inequality, and that
    violation. The rows i are taken in blocks of at most
    ``_TRIANGLE_TRIPLES`` triples, and at least one row."""
    n = len(d)
    step = max(1, _TRIANGLE_TRIPLES // (n * n))
    worst, excess = None, -math.inf
    for start in range(0, n, step):
        rows = d[start:start + step]
        viol = rows[:, None, :] - rows[:, :, None] - d[None, :, :]
        at = np.argmax(viol)
        if worst is None or viol.flat[at] > excess:
            i, j, k = np.unravel_index(at, viol.shape)
            worst, excess = (start + int(i), int(j), int(k)), viol.flat[at]
    return worst, excess


@dataclass(frozen=True, eq=False)
class SetValuedMap:
    """Label -> nonempty finite list of points, stored as row stacks."""

    values: dict

    def __post_init__(self):
        out = {}
        m = None
        for label, pts in self.values.items():
            arr = float_array(pts, f"value set of {label!r}")
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


def check_positive(name, value):
    """The check of every API scalar: finite and strictly positive."""
    if not 0 < value < math.inf:
        raise InputError(f"{name} must be strictly positive and finite")


@dataclass(frozen=True)
class EvpParams:
    """Solver scalars; each supplied value must be finite and positive."""

    x0: object
    epsilon: float | None = None
    lam: float | None = None
    gamma: float | None = None
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        for name, v in (("epsilon", self.epsilon), ("lambda", self.lam),
                        ("gamma", self.gamma),
                        ("tolerance", self.tolerance)):
            if v is not None:
                check_positive(name, v)


# ---------------------------------------------------------------------------
# Perturbation families.  Each family enumerates, for an ordered pair of
# labels, the sets F(x2, x1) as (index, scale, polytope) triples meaning
# ``scale * conv(polytope)``, and gives them for all pairs at once as
# ``arrays(space) = (S, V, nv)``: ``S[i, j, l]`` is the scale of the set of
# index l of F(labels[i], labels[j]), and ``V`` one ``(J, m)`` polytope with
# ``nv`` vertices or an ``(n, n, L, J, m)`` :func:`stack_rows` stack with
# ``(n, n, L)`` counts. The distance-scaled families (all but the extensional
# one) have the single index "*".
# ---------------------------------------------------------------------------

class _DistanceScaled:
    """The single index "*", a direction set ``H`` inside the cone, and
    F(x2, x1) = rate * d(x2, x1) * H unless a family says otherwise. F is
    stated twice, per pair in ``sets`` (read by :func:`preceq`) and as
    arrays in ``arrays``, so that each checks the other."""

    def lambdas(self):
        return ("*",)

    def sets(self, space, x2, x1):
        return (("*", self.rate * space.d(x2, x1), self.H),)

    def arrays(self, space):
        V = self.H.vertices
        return (self.rate * space.dist)[..., None], V, len(V)

    def _excess(self, space):
        """The triangle excess of the scales ``S`` of ``arrays(space)`` that
        the load kept, before the rounding of ``rate * d``, or None."""
        return None if space._excess is None else self.rate * space._excess

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        validate_direction_set(self.H, cone_, tol)
        return self


@dataclass(frozen=True, eq=False)
class SingletonDirection(_DistanceScaled):
    """F(x2, x1) = rate * d(x2, x1) * {k0}."""

    k0: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "k0", as_point(self.k0))
        check_positive("rate", self.rate)
        object.__setattr__(self, "H", singleton(self.k0))

    kind = "singleton"


@dataclass(frozen=True, eq=False)
class PolytopeDirection(_DistanceScaled):
    """F(x2, x1) = rate * d(x2, x1) * H for a fixed direction polytope H."""

    H: Polytope
    rate: float

    def __post_init__(self):
        check_positive("rate", self.rate)

    kind = "polytope"


@dataclass(frozen=True, eq=False)
class OpenPolytopeFamily(PolytopeDirection):
    """The family {rate' * d * H : 0 < rate' < rate}.

    For polyhedral data the feasible rates of any membership query form a
    closed interval starting at 0, so quantifying over the open interval is
    equivalent to testing the endpoint; the sets enumerated here are the
    endpoint sets and callers interpret conclusions accordingly.
    """

    kind = "open_polytope"


@dataclass(frozen=True, eq=False)
class QuasiMetricDirection(_DistanceScaled):
    """F(x2, x1) = p(x1, x2) * H (argument order per the quasi-metric form)."""

    H: Polytope
    p: QuasiMetric

    kind = "quasimetric"

    def sets(self, space, x2, x1):
        scale = float(self.p.mat[space.index(x1), space.index(x2)])
        return (("*", scale, self.H),)

    def arrays(self, space):
        return self.p.mat.T[..., None], self.H.vertices, len(self.H.vertices)

    def _excess(self, space):
        # S = p^T, and S's triangle at (x1, x2, x3) is p's directed
        # triangle at (x3, x2, x1)
        return self.p._excess

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        super().validate(space, cone_, tol)
        self.p.validate(tol)
        if self.p.mat.shape[0] != space.n:
            raise InputError("quasi-metric size does not match the space")
        return self


@dataclass(frozen=True, eq=False)
class ExtensionalFamily:
    """An explicit table (index, x2, x1) -> polytope over a finite index set
    and a space's labels. Its ``arrays`` are stacked when it is made, in one
    walk in (x2, x1, index) order that stops at the first pair with a
    missing entry or at the first entry of another dimension than the
    first's; ``validate`` and ``arrays`` raise that fault. A table key that
    names an index or a label the family does not list is rejected when the
    family is made. ``table`` is a read-only copy of the given table."""

    labels: tuple
    indices: tuple
    table: dict  # (index, x2, x1) -> Polytope

    def __post_init__(self):
        n, L = len(self.labels), len(self.indices)
        if not L:
            raise InputError("extensional family needs at least one index")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        known = set(itertools.product(self.indices, self.labels, self.labels))
        extra = [key for key in self.table if key not in known]
        if extra:
            raise InputError(f"extensional family table key {extra[0]!r} "
                             "names an index or a label the family does not "
                             "list")
        polys, fault = [], None
        for x2, x1 in itertools.product(self.labels, self.labels):
            try:
                polys += [P.vertices for _, _, P in self.sets(None, x2, x1)]
            except InputError as exc:
                fault = str(exc)
                break
        m = [V.shape[1] for V in polys]
        if (k := next((k for k, d in enumerate(m) if d != m[0]), 0)):
            polys = polys[:k]
            fault = f"dimension mismatch: expected {m[0]}, got {m[k]}"
        V, nv = stack_rows(polys) if polys else (None, None)
        object.__setattr__(self, "_flat", V)          # (P, J, m) or None
        object.__setattr__(self, "_fault", fault)
        object.__setattr__(self, "_arrays", None if fault or V is None else (
            np.ones((n, n, L)), V.reshape(n, n, L, *V.shape[1:]),
            nv.reshape(n, n, L)))

    kind = "extensional"

    def lambdas(self):
        return self.indices

    def sets(self, space, x2, x1):
        try:
            return tuple([(lam, 1.0, self.table[(lam, x2, x1)])
                          for lam in self.indices])
        except KeyError as exc:
            raise InputError("extensional family is not total: missing "
                             f"{exc.args[0]!r}") from None

    def _reject(self, space, fault=None):
        if space.labels != self.labels:
            raise InputError("the space's labels are not the extensional "
                             "family's, in its order")
        if fault is not None:
            raise InputError(fault)

    def arrays(self, space):
        self._reject(space, self._fault)
        return self._arrays

    def _excess(self, space):
        return None

    def validate(self, space, cone_, tol=DEFAULT_TOL):
        """A value outside the cone is named before the walk's fault."""
        self._reject(space)
        V = self._flat
        if V is not None and V.shape[-1] != cone_.dim:
            raise InputError(f"dimension mismatch: expected {cone_.dim}, "
                             f"got {V.shape[-1]}")
        if V is not None and (bad := first_outside(cone_, V, tol)) is not None:
            pair, lam = divmod(bad, len(self.indices))
            raise InputError(
                f"family value for ({self.indices[lam]!r}, "
                f"{self.labels[pair // len(self.labels)]!r}, "
                f"{self.labels[pair % len(self.labels)]!r}) leaves the cone")
        self._reject(space, self._fault)
        return self


# ---------------------------------------------------------------------------
# The induced pre-order.
# ---------------------------------------------------------------------------

def preceq(inst: FiniteInstance, fam, x2, x1):
    """True iff f(x1) lies in f(x2) + F(x2, x1) + cone for every family set."""
    vals1 = inst.fmap.at(x1)
    vals2 = inst.fmap.at(x2)
    for _, scale, H in fam.sets(inst.space, x2, x1):
        for y in vals1:
            if not minkowski_member(y, vals2, scale, H, inst.cone, inst.tol):
                return False
    return True


def order_arrays(inst: FiniteInstance, fam):
    """What the order's facet pass reads (:func:`_facet_pass`): the
    family's ``arrays``, the value sets of all labels as one stack
    (:func:`stack_rows`) and the :func:`order_facets` of these. A solver
    builds them once for every order test it makes; a function that takes
    ``arrays`` builds them when they are not given."""
    S, V, nv = fam.arrays(inst.space)
    B, nb = stack_rows([inst.fmap.at(x) for x in inst.labels])
    return S, V, nv, B, nb, order_facets(S, V, nv, B, inst.cone, inst.tol)


@np.errstate(all="ignore")
def order_facets(S, V, nv, B, C, tol):
    """The facet conditions of every order query of a solve, built once
    from its arrays ``(S, V, nv)`` and its value stack ``B`` (``(labels,
    rows, m)``) and read by :func:`_facet_masks`; None when a scale is
    negative (:func:`_screen_faults` raises for it), the polytopes'
    dimension is not the cone's, a margin could overflow, or a shared
    polytope has no :func:`tie_conditions`.

    ``size`` bounds ``|A||y|`` over the values and ``|A||s v|`` over every
    scale and vertex. A shared polytope H gives ``(W A y, theta0, s,
    band)``: the conditions ``w . A q >= s theta0 - tol`` of every target
    ``s conv(H) + C``, with ``W A y`` over (condition, value row, label)
    and the scales ``s`` over (index, x2, x1), a scale at most ``tol`` the
    cone test (``s = 0``). Per-pair polytopes give ``(A y, R, (i, k, w,
    theta), fit, band)``: :func:`target_tables` over the (index, x2, x1)
    targets ``s A v``, where a target with ``s <= tol`` has row minima 0
    and no row pair, and is fit (the middle three are :func:`ti_check`'s
    table). Every table over targets has the pairs last, so that
    whole rows of the order matrix are views with their pairs contiguous.
    ``band`` is :func:`geometry.segment_band` over products of ``k + m``
    terms, with the tie conditions' ``solve``."""
    A, m = C.halfspaces, C.dim
    k, n = len(A), len(B)
    size = max(np.abs(B).max(), np.abs(S).max(initial=0.0)
               * np.abs(V).max(initial=0.0)) * np.abs(A).sum(axis=1).max()
    if V.shape[-1] != m or not np.isfinite(8.0 * size) or (S < 0).any():
        return None
    AB = np.ascontiguousarray((B @ A.T).T)      # (k, value row, label)
    s = np.where(S > tol, S, 0.0)
    if V.ndim == 2:
        conditions = tie_conditions(A @ V.T)
        if conditions is None:
            return None
        W, theta0, solve = conditions
        WAB = (W @ AB.reshape(k, -1)).reshape(len(W), -1, n)
        return WAB, theta0, _by_index(s), segment_band(size, k + m, tol, solve)
    AV = (A @ V.reshape(-1, m).T).reshape(k, *V.shape[:-1])
    R, pairs, fit = _index_tables(s[..., None] * AV, S, nv, tol)
    return (AB, R, pairs, fit | _by_index(S <= tol),
            segment_band(size, k + m, tol))


def _by_index(a):
    # a table over (..., x2, x1, index) over (..., index, x2, x1)
    return np.ascontiguousarray(np.moveaxis(a, -1, -3))


def _index_tables(ASV, S, nv, tol):
    """:func:`target_tables` with every table over targets laid out by
    :func:`_by_index`."""
    R, (i, k, w, th), fit = target_tables(ASV, S, nv, tol)
    return _by_index(R), (i, k, _by_index(w), _by_index(th)), _by_index(fit)


def _facet_pass(inst, arrays, x2, x1, witness):
    """The order tests of the grid of rows ``x2`` over columns ``x1`` of the
    order matrix, on the (family index, value row of x1, row, column) grid,
    decided by the :func:`order_facets` of the solve where they can be.
    Each of ``x2`` and ``x1`` is a slice or an index array; rows may be
    unsorted or repeated.

    Returns ``(first, open)``. ``first`` holds, over the flat (row, column)
    pairs, the cell ``lam * R + row`` of each pair's first dead query, with
    R the rows of the value stack, -1 when it has none. ``open`` is None
    when no query is left to ask, else ``(pair, x2, x1, cell)``, the flat
    position in ``first`` and the query of every cell still to ask, in
    loop order: the real cells that are not covered, of each pair before
    its first dead one (without ``witness``, of each pair with none, as
    only whether a pair is covered is wanted).
    """
    S, _, _, B, nb, facets = arrays
    L, R = S.shape[-1], B.shape[1]
    labels = np.arange(len(S))
    i, j = labels[x2][:, None], labels[x1][None, :]
    shape = (len(i), j.shape[1])
    # the cells lam * R + row, in loop order
    cell = np.arange(L * R).reshape(L, R, 1, 1)
    if facets is None:
        covered = dead = np.zeros((L, R) + shape, dtype=bool)
    else:
        covered, dead = _facet_masks(inst, arrays, x2, x1)
    if nb.min() < R:
        # a padding cell, past the rows of x1, is neither asked nor dead
        real = cell % R < nb[j]
        covered, dead = covered | ~real, dead & real
    cut = np.minimum.reduce(np.where(dead, cell, L * R).reshape(L * R, -1))
    first = np.where(cut < L * R, cut, -1)
    if (covered | dead).all():
        return first, None
    cut = cut.reshape(shape)
    ask = ~covered & (cell < cut)
    if not witness:
        # a pair with a dead query is not covered, whatever precedes it
        ask &= cut == L * R
    if not ask.any():
        return first, None
    # the open cells pair by pair, each pair's in loop order
    p, c = np.nonzero(ask.reshape(L * R, -1).T)
    return first, (p, np.broadcast_to(i, shape).flat[p],
                   np.broadcast_to(j, shape).flat[p], c)


@np.errstate(all="ignore")
def _facet_masks(inst, arrays, x2, x1):
    """Masks ``(covered, dead)`` over the (family index, value row of x1,
    row, column) grid of the rows ``x2`` over the columns ``x1`` that
    :func:`_facet_pass` takes, in f(x2) + F_lam(x2, x1) + C, from the
    :func:`order_facets` of the solve. A query is covered when some base
    row's least margin ``w . (A y - A b) - theta`` is at least the inner
    edge of :func:`geometry.segment_band`, and dead when every base row's
    is below its outer edge. Per-pair targets of three or more vertices are
    left to the screen.

    The margins are one broadcast over (condition, base row, index, value
    row, row, column): the products of the values of x1 and of the base
    rows of x2 are read once per label, and the scales and target tables
    once per pair, as views where rows and columns are slices."""
    V, facets = arrays[1], arrays[5]
    P, (inside, outside) = facets[0], facets[-1]
    # the products W A y or A y of the values y of x1 over (condition, 1,
    # 1, value row, 1, column), and of the base rows b of x2 over
    # (condition, base row, 1, 1, row, 1)
    Ay = P[:, :, x1][:, None, None, :, None]
    Ab = P[:, :, x2][:, :, None, None, :, None]

    def at_pairs(a):
        # a table over (..., index, x2, x1) at the grid, over (..., index,
        # row, column)
        return a[..., x2, :][..., x1]

    tol = inst.tol
    if V.ndim == 2:
        # w . A y - (s theta0 - tol) - w . A b, least over the conditions
        _, theta0, s, _ = facets
        s = np.multiply.outer(theta0, at_pairs(s)) - tol
        low = np.minimum.reduce((Ay - s[:, None, :, None]) - Ab)
        fit = True
    else:
        _, R, (ci, ck, w, th), fit, _ = facets
        # A(y - b), then the row conditions and the row pairs of each
        # query's target, over (..., 1, index, 1, row, column)
        D = Ay - Ab
        low = np.minimum.reduce(D - (at_pairs(R) - tol)[:, None, :, None])
        if len(w):
            Dk = D[ck]
            low = np.minimum(low, np.minimum.reduce(
                Dk + at_pairs(w)[:, None, :, None] * (D[ci] - Dk)
                - at_pairs(th)[:, None, :, None]))
        fit = at_pairs(fit)[:, None]
    # the best base row of each query
    best = np.maximum.reduce(low)
    if fit is True:
        return best >= inside, best < -outside
    return fit & (best >= inside), fit & (best < -outside)


def _ask_open(inst, arrays, first, open_, witness):
    """The open queries ``open_`` of :func:`_facet_pass`, from one or more
    blocks, as one :func:`covered_queries` stack in loop order, one group
    per pair; a pair's first uncovered query, when it finds one, is the
    pair's ``first`` (its cell), which it sets in place."""
    p, i, j, cell = map(np.concatenate, zip(*open_))
    S, V, nv, B, nb, _ = arrays
    lam, row = np.divmod(cell, B.shape[1])
    own, at = V.ndim > 2, (i, j, lam)
    sub = covered_queries(
        B[j, row], B[i], nb[i], S[at], V[at] if own else V,
        nv[at] if own else nv, inst.cone, inst.tol, group=p, witness=witness)
    g = np.flatnonzero(sub >= 0)
    first[g] = cell[sub[g]]


def _ask_column(inst, arrays, rows, j, witness):
    """The cells of the pairs ``(rows[p], j)``, ``rows`` a nonempty index
    array, as one stack: the facet pass decides what it can, in blocks of
    rows whose (row, family index, value row) grid over the column holds
    at most ``_BLOCK_QUERIES`` cells, and the queries it leaves open are one
    :func:`covered_queries` stack (:func:`_ask_open`), so that every fault
    of the screen raises before any LP. With ``witness``, each pair's cell
    is its first uncovered query ``lam * R + row``, -1 when x2 precedes
    x1; without, only the pairs with no dead query are asked, and every
    pair that is not covered has some cell other than -1."""
    step, column = _lines_per_block(arrays, 1), np.array([j])
    first, open_ = [], []
    for at in range(0, len(rows), step):
        block, asked = _facet_pass(inst, arrays, rows[at:at + step], column,
                                   witness)
        first.append(block)
        if asked is not None:
            open_.append((asked[0] + at, *asked[1:]))
    first = np.concatenate(first)
    if open_:
        _ask_open(inst, arrays, first, open_, witness)
    return first


# a block of the facet pass holds at most this many cells of its (row,
# column, family index, value row) grid: an OrderGrid passes as many whole
# columns of the order matrix at a time and re-asks as many rows of one,
# and relation_matrix passes as many whole rows, up to this many, so that
# their arrays stay small at any n
_BLOCK_QUERIES = 1024

# the cell of a pair with no dead query and some open ones
OPEN = -2

# the cell of a pair that is not covered, whose first dead query has an
# open one before it
OUT = -3

# the cells of a column that no facet pass has decided yet
UNPASSED = -4


@dataclass(frozen=True, eq=False)
class OrderGrid:
    """The order of a solve as one cell per (x2, x1) label pair, read by
    columns, as the order's lower sections are. ``inst`` and ``arrays``
    are what the cells are asked from (:func:`order_arrays`, or a product
    instance and its :func:`evpkit.product.graph_arrays`);
    :func:`order_grid` builds the grid.

    The cells of a column x1 are ``UNPASSED`` until the column is first
    read. It is then passed whole by the facets (:func:`_grid_block`), the
    columns that one read needs in blocks of :func:`_lines_per_block`
    columns, and each cell is then one of:

    * -1: x2 precedes x1;
    * ``lam * R + row``: the first uncovered query of x2 over x1;
    * ``OUT``: x2 does not precede x1, but an open query comes before the
      first dead one;
    * ``OPEN``: no query is dead, and some are open.

    Each read asks the open cells it reads and no others, as one stack
    over its column (:func:`_ask_column`), and writes the answers into the
    grid: :meth:`precedes` asks ``OPEN`` cells without a witness,
    :meth:`column` asks ``OPEN`` and ``OUT`` cells with one. A solve passes
    the columns of the start section, of the sections the engine walks and
    of xhat, and no other."""

    inst: object
    arrays: tuple
    cells: np.ndarray

    def pass_columns(self, x1s):
        """Decide the columns ``x1s`` (a column index or an index array)
        that no facet pass has decided yet."""
        new = self.cells[0, x1s] == UNPASSED
        if not new.any():
            return
        todo = sorted(set(np.extract(new, x1s).tolist()))
        n = len(self.cells)
        step = _lines_per_block(self.arrays, n)
        for at in range(0, len(todo), step):
            cols = todo[at:at + step]
            # a run of columns, whose tables the pass reads as views
            cols = (slice(cols[0], cols[-1] + 1)
                    if cols[-1] - cols[0] == len(cols) - 1 else np.array(cols))
            self.cells[:, cols] = _grid_block(
                self.inst, self.arrays, slice(None), cols).reshape(n, -1)

    def precedes(self, j, rows=None):
        """Whether each row of ``rows`` (an index array, every row when
        None) precedes column ``j``, the column passed first. Its ``OPEN``
        cells among them are asked without a witness and written as -1 or
        ``OUT``."""
        self.pass_columns(j)
        got = self.cells[:, j] if rows is None else self.cells[rows, j]
        ask = (got == OPEN).nonzero()[0]
        if ask.size:
            at = ask if rows is None else rows[ask]
            got[ask] = self.cells[at, j] = np.where(
                _ask_column(self.inst, self.arrays, at, j, False) < 0,
                -1, OUT)
        return got == -1

    def column(self, j, rows=None):
        """The cells of the rows ``rows`` (an index array, every row when
        None) of column ``j``, the column passed first, each -1 or its
        first uncovered query. Its ``OPEN`` and ``OUT`` cells among them
        are asked with a witness and written into the grid."""
        self.pass_columns(j)
        if rows is None:
            rows = np.arange(len(self.cells))
        got = self.cells[rows, j]
        # a passed cell below -1 is OPEN or OUT
        ask = (got < -1).nonzero()[0]
        if ask.size:
            got[ask] = self.cells[rows[ask], j] = _ask_column(
                self.inst, self.arrays, rows[ask], j, True)
        return got


def order_grid(inst, arrays):
    """A new :class:`OrderGrid` over ``arrays`` (:func:`order_arrays`, or
    :func:`evpkit.product.graph_arrays`), each column passed when it is
    first read; building it runs no facet pass, and the InputError of
    :func:`_screen_faults` comes first."""
    _screen_faults(inst, arrays)
    S, B = arrays[0], arrays[3]
    n, LR = len(B), S.shape[-1] * B.shape[1]
    return OrderGrid(inst, arrays, np.full(
        (n, n), UNPASSED, dtype=np.min_scalar_type(-LR)))


def _screen_faults(inst, arrays):
    """Raise the InputError of the screen for a negative scale, or else for
    polytopes whose dimension is not the cone's at a scale above ``tol``,
    in the order matrix's ``arrays``. Either leaves :func:`order_facets`
    None, so that every query is asked and the screen raises at the first
    such scale it meets; checked over every pair at once, the text does
    not hang on which pairs are read first."""
    S, V, facets = arrays[0], arrays[1], arrays[5]
    if facets is not None:
        return
    if (S < 0).any():
        raise InputError("scale must be nonnegative")
    if V.shape[-1] != inst.cone.dim and (S > inst.tol).any():
        raise InputError("polytope dimension does not match the cone")


def _lines_per_block(arrays, pairs):
    """How many lines of ``pairs`` pairs each (whole rows or columns of the
    order matrix of ``arrays``, or single pairs) go in one block of the
    facet pass: as many as fit in ``_BLOCK_QUERIES`` cells of its (pair,
    family index, value row) grid, and at least one."""
    S, B = arrays[0], arrays[3]
    return max(1, _BLOCK_QUERIES // (pairs * S.shape[-1] * B.shape[1]))


def _grid_block(inst, arrays, x2, x1):
    """The cells of one :func:`_facet_pass` block of whole columns of an
    :class:`OrderGrid`: a pair with open queries is ``OUT`` when it has a
    dead query, else ``OPEN``."""
    first, open_ = _facet_pass(inst, arrays, x2, x1, True)
    if open_ is not None:
        p = open_[0]
        first[p] = np.where(first[p] < 0, OPEN, OUT)
    return first


def relation_matrix(inst: FiniteInstance, fam, arrays=None):
    """rel[i, j] = True iff labels[i] precedes labels[j] in the order, as
    one bool matrix.

    Every pair is decided on the :func:`order_arrays` ``arrays`` (built
    here when not given) by the facet pass, in blocks of
    :func:`_lines_per_block` whole rows, and the open queries of the pairs
    with no dead query by the screen and the LP, without a witness; the
    InputError of :func:`_screen_faults` comes first. A solve does not
    build it: it reads the columns it needs from its own
    :func:`order_grid`.
    """
    if arrays is None:
        arrays = order_arrays(inst, fam)
    _screen_faults(inst, arrays)
    n = len(arrays[3])
    step = _lines_per_block(arrays, n)
    rel = np.empty((n, n), dtype=bool)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        first, open_ = _facet_pass(inst, arrays, rows, slice(None), False)
        if open_ is not None:
            _ask_open(inst, arrays, first, [open_], False)
        rel[rows] = (first == -1).reshape(-1, n)
    return rel


def ti_check(inst: FiniteInstance, fam, arrays=None):
    """Triangle-inclusion property of the family over all label triples,
    searched by :func:`triangle_failure` on the family's ``arrays`` with
    the triangle excess of its scales that the load kept.
    Returns ``(True, None)`` or ``(False, witness)``, the first failing
    (x1, x2, x3, index) in the loop order index, x1, x3, x2.

    Given the solve's :func:`order_arrays` ``arrays``, a per-pair search
    reads the order's target table when every scale is 1 (an extensional
    table) and above ``tol``: its targets ``s A v`` are then ``A (s v)``.
    """
    S, V, nv = fam.arrays(inst.space) if arrays is None else arrays[:3]
    facets = None if arrays is None else arrays[5]
    same = (facets is not None and V.ndim > 2 and inst.tol < 1
            and (S == 1).all())
    hit = triangle_failure(S, V, nv, inst.cone, inst.tol,
                           fam._excess(inst.space),
                           facets[1:4] if same else None)
    if hit is None:
        return True, None
    lam, a, b, c = hit
    labels = inst.labels
    return False, (labels[a], labels[b], labels[c], fam.lambdas()[lam])


# ---------------------------------------------------------------------------
# Triangle inclusion, F(x1, x2) + F(x2, x3) inside F(x1, x3) + C, on a
# family's ``arrays`` ``(S, V, nv)`` (see "Perturbation families" above). A
# pair map (``product.FMap``) is a family of one index.
# ---------------------------------------------------------------------------

# triangle_failure's structural pass takes whole (index, x1) slabs in blocks
# of up to this many queries, and at least one slab, so that its arrays stay
# small at any n; a screen holds one slab
_TRIANGLE_QUERIES = 1 << 16


def vertex_bounds(V, C):
    """What :func:`settled_triples` reads of a shared polytope with
    vertices ``V``: the least and the largest entry of ``A V`` over the cone
    rows A, and the largest entry of ``|A||V|``."""
    A = C.halfspaces
    AV = V @ A.T
    return AV.min(), AV.max(), np.max(np.abs(V) @ np.abs(A).T)


def settled_triples(s, s13, bounds, C, tol):
    """``settled``: every query that :func:`triangle_failure` screens for an
    index pair of a triple with the scales ``s = s12 + s23`` and ``s13``
    (arrays that broadcast), over one shared polytope with
    :func:`vertex_bounds` ``bounds``, is covered, read from the scales and
    ``A V`` alone, without assuming H in C or a metric ``S``.

    The screen asks s v in s13 H + C for each vertex v, and its
    single-vertex test at v computes A(s v) - s13 A v = r A v with
    r = s - s13; when s13 <= tol it asks s v in C, so r = s. The test hits
    when min(r min(AV), r max(AV)) is at least -tol, less an allowance for
    the rounding of both products: (2 m + 6) ulps of
    (|s| + |s13|) max |A||v| + tol. So a settled triple is one the screen
    already covers. Triples the search skips (s and s13 at most ``tol``)
    are settled; any other triple with a negative s13 is not.
    """
    lo, hi, size = bounds
    r = np.where(s13 > tol, s - s13, s)
    low = np.minimum(r * lo, r * hi)
    allowance = (2 * C.dim + 6) * np.finfo(float).eps * (
        (np.abs(s) + np.abs(s13)) * size + tol)
    skip = (s <= tol) & (s13 <= tol)
    return skip | ((s13 >= 0) & (low - allowance >= -tol))


@np.errstate(all="ignore")
def excess_settles(S, excess, bounds, C, tol):
    """True when :func:`settled_triples` settles every triple of the
    ``(n, n)`` scales ``S`` over one shared polytope with
    :func:`vertex_bounds` ``bounds``, read from two endpoints: ``S``'s
    triangle excess ``excess`` (the largest ``s13 - s12 - s23``, or a bound
    on it before the rounding of ``rate * d``), or None to find it with
    :func:`_worst_triangle`.

    With ``min S >= 0`` every triple's ``r`` (``s - s13``, or ``s`` when
    ``s13 <= tol``) lies in ``[r_lo, r_hi]``: ``r_lo = min(0, -(excess +
    slack))`` and ``r_hi = 2 max S + slack``, where ``slack = 8 eps (max S +
    |excess|)`` covers the rounding of ``rate * d``, of the excess and of
    ``(s12 + s23) - s13``. The settle's ``min(r lo, r hi)`` is concave in
    ``r``, and as computed it is monotone on each side of 0, where it is 0;
    its allowance grows with ``|s| + |s13| <= 3 max S``. So when both
    endpoints pass at that allowance, every triple passes."""
    top = S.max()
    if not S.min() >= 0:
        return False
    if excess is None:
        excess = _worst_triangle(S)[1]
    eps = np.finfo(float).eps
    slack = 8 * eps * (top + abs(excess))
    r = np.array([np.minimum(0.0, -(excess + slack)), 2 * top + slack])
    lo, hi, size = bounds
    low = np.minimum(r * lo, r * hi).min()
    allowance = (2 * C.dim + 6) * eps * (3 * top * size + tol)
    return bool(low - allowance >= -tol)


@np.errstate(all="ignore")
def target_tables(ASV, S, nv, tol):
    """The facet conditions of targets ``s conv{t1, t2} + C``, given as
    ``ASV``, the products ``A s t_j`` over (cone row, ..., vertex), with
    their scales ``S`` and vertex counts ``nv`` over (...).

    With ``t`` the weight of ``t1``, a target asks ``c_i - t d_i >= 0`` of
    every cone row i, with ``c = A(q - s t2) + tol`` and ``d = A s(t1 -
    t2)``.
    Eliminating ``t`` leaves conditions ``w . A q >= theta`` on the query
    ``q``, each with ``w >= 0`` and ``sum w = 1``: one per cone row, ``A_i
    q >= min_j A_i s t_j - tol``, and one per pair of rows (i, k) whose
    ``d`` have opposite signs, with ``w`` proportional to ``|d_k| e_i +
    |d_i| e_k`` and ``theta = w . A s t2 - tol``. The least ``w . A q -
    theta`` over them is the margin of :func:`geometry.segment_band`.

    Returns ``(R, (i, k, w, theta), fit)``: the row minima ``min_j A s
    t_j`` over (cone row, ...); the row pairs (i, k) with opposite signs in
    some target, and per pair and target the weight ``w_i`` of row i
    (``1 - w_i`` is that of row k) and ``theta``, ``-inf`` where the
    target's signs do not oppose; and the targets of a scale above ``tol``
    and at most two vertices, which these conditions describe. A padding
    vertex repeats the last real one, so a one-vertex target has no pair.
    """
    J = ASV.shape[-1]
    R = _over_rows(np.minimum, ASV)
    t2 = ASV[..., min(1, J - 1)]
    d = ASV[..., 0] - t2
    i, j = np.array([*itertools.combinations(range(len(ASV)), 2)],
                    dtype=int).reshape(-1, 2).T
    pair = d[i] * d[j] < 0
    live = pair.any(axis=tuple(range(1, pair.ndim)))
    i, j, pair = i[live], j[live], pair[live]
    di, dj = np.abs(d[i]), np.abs(d[j])
    w = np.where(pair, dj / (di + dj), 0.0)
    th = np.where(pair, w * t2[i] + (1.0 - w) * t2[j] - tol, -np.inf)
    return R, (i, j, w, th), (S > tol) & (nv <= 2)


# tie_conditions takes at most this many candidate conditions of a shared
# polytope, and leaves one that needs more to the screen
_TIE_SYSTEMS = 256
# tie_conditions keeps a solved condition whose weights it bounds within
# this l1 distance of the exact ones, and leaves a polytope with a worse one
# to the screen
_TIE_ERROR = 2.0 ** -20


@np.errstate(all="ignore")
def tie_conditions(AH):
    """The facet conditions of the targets ``s conv(H) + C``, ``s > 0``, of
    one polytope H, from ``AH``, the products ``A h_j`` over (cone row,
    vertex): ``(W, theta0, solve)``, or None when H is left to the screen.

    By minimax, ``q`` lies in ``s conv(H) + C`` up to ``tol`` iff the least
    ``g(w) = w . A q - s min_j w . A h_j`` over the simplex of row weights
    ``w`` is at least ``-tol``. ``g`` is convex and piecewise linear, so its
    least value is at a vertex of the cells that the ties ``w . A(h_j -
    h_l) = 0`` cut from the simplex. At such a vertex some rows ``G`` may
    have ``w_i > 0`` and the others have ``w_i = 0``, and ``|G| - 1`` ties
    of a vertex set ``T`` with its first vertex fix ``w`` on ``G`` with
    ``sum w = 1``. So the candidates are the simplex vertices ``e_i``
    (``|G| = 1``) and one square system per pair ``(T, G)`` with ``|T| =
    |G| >= 2``, none of which changes with ``s``. Each row ``w`` of ``W`` is
    one condition ``w . A q >= s theta0 - tol`` with ``theta0 = min_j w . A
    h_j``.

    A tie of two vertices on two rows is taken in closed form: the rows
    ``i < l`` where ``d = A(h_a - h_b)`` of a vertex pair ``a < b`` has
    opposite signs give ``w_i = |d_l| / (|d_i| + |d_l|)`` and ``w_l = 1 -
    w_i``, by row pair, then vertex pair, as the row pairs of
    :func:`target_tables`; for two vertices these and the simplex vertices
    are all the conditions. A larger system is solved: one whose condition
    number (of rows scaled to unit length) makes its LU error bound reach
    1/2 is singular up to the rounding of its rows and is skipped, as an
    exact vertex is met by an independent system too; a solution below 0
    by more than its bound lies outside the simplex and is dropped; the
    others are clipped to the simplex, and ``solve`` is the largest bound
    kept. H is left to the screen when it has more than ``_TIE_SYSTEMS``
    candidates or a kept bound exceeds ``_TIE_ERROR``. A condition that the
    ties of several vertex pairs give is kept once."""
    k, J = AH.shape
    sizes = range(2, min(J, k) + 1)
    if sum(math.comb(J, r) * math.comb(k, r) for r in sizes) > _TIE_SYSTEMS:
        return None
    # few ties: Python floats round as numpy does, at less cost per call
    pairs = [*itertools.combinations(range(J), 2)]
    d = [[h[a] - h[b] for a, b in pairs] for h in AH.tolist()]
    ties = [(i, l, abs(dl) / (abs(di) + abs(dl)))
            for i, l in itertools.combinations(range(k), 2)
            for di, dl in zip(d[i], d[l]) if di * dl < 0]
    W = np.eye(k + len(ties), k)
    for at, (i, l, w) in enumerate(ties, k):
        W[at, i], W[at, l] = w, 1.0 - w
    if J <= 2:
        return W, (W @ AH).min(axis=1), 0.0
    eps, solve, W = np.finfo(float).eps, 0.0, [W]
    for r in sizes[1:]:
        T, G = (np.array([*itertools.combinations(range(c), r)], dtype=int)
                for c in (J, k))
        T, G = np.repeat(T, len(G), axis=0), np.tile(G, (len(T), 1))
        # rows A_G (h_j - h_T0) for the vertices j of T after its first,
        # then the weights' sum, each of unit length
        M = AH[G[:, None, :], T[:, 1:, None]] - AH[G, T[:, :1]][:, None, :]
        norm = np.linalg.norm(M, axis=-1, keepdims=True)
        M = np.concatenate([np.divide(M, norm, out=np.zeros_like(M),
                                      where=norm > 0),
                            np.full((len(M), 1, r), r ** -0.5)], axis=1)
        sv = np.linalg.svd(M, compute_uv=False)
        # forward error of a partial-pivoting solve, relative to |w|
        rel = 2.0 ** (r + 3) * r * eps * sv[:, 0] / sv[:, -1]
        live = rel < 0.5
        M, G, rel = M[live], G[live], rel[live]
        rhs = np.zeros((len(M), r, 1))
        rhs[:, -1] = r ** -0.5
        w = np.linalg.solve(M, rhs)[..., 0]
        err = rel / (1.0 - rel) * np.abs(w).sum(axis=1)
        keep = w.min(axis=1) >= -err
        if (err[keep] > _TIE_ERROR).any():
            return None
        solve = max(solve, err[keep].max(initial=0.0))
        w = np.maximum(w[keep], 0.0)
        full = np.zeros((len(w), k))
        np.put_along_axis(full, G[keep], w / w.sum(axis=1, keepdims=True),
                          axis=1)
        W.append(full)
    W = np.concatenate(W)
    # the ties of several vertex pairs can give one condition again
    first = {}
    for at, w in enumerate(W):
        first.setdefault(w.tobytes(), at)
    W = W[list(first.values())]
    return W, (W @ AH).min(axis=1), solve


@np.errstate(all="ignore")
def facet_tables(S, SV, nv, C, tol, table=None):
    """What :func:`facet_verdicts` reads of a per-pair stack, built once
    per search from the scales ``S``, the scaled vertices ``SV = S * V``
    (``(n, n, L, J, m)``) and the counts ``nv``: the conditions of every
    target, ``table`` (:func:`_index_tables` of the targets ``A s v``) or
    built here when None, and what the sources need of them.

    The row minima of a scaled set do not depend on the target, and a pair
    condition weighs ``A s v`` as ``base + w_i * slope`` with the
    target-free ``base = A_k s v`` and ``slope = (A_i - A_k) s v``. Returns
    ``(rows, pairs, fit, band)``, every table laid out so that (x3, x2)
    come last, as :func:`facet_verdicts` reads them:

    * ``rows``: the row minima per cone row as ``(k, x1, mu, x2)`` and
      ``(k, nu, x3, x2)``, and less ``tol`` as ``(k, index, x1, x3)``;
    * ``pairs``: ``base`` and ``slope`` per row pair and scaled vertex as
      ``(K, x1, mu, u, x2)`` and ``(K, nu, v, x3, x2)``, and ``w_i`` and
      ``theta`` as ``(K, index, x1, x3)``. A pair with opposite signs in
      no target is left out; where a target's signs do not oppose,
      ``theta`` is ``-inf``;
    * ``fit``: the targets the facets may decide, ``(index, x1, x3)``:
      ``s13`` above ``tol`` and at most two vertices, and none when a
      margin, at most ``7 size + tol`` in magnitude, could overflow;
    * ``band``: :func:`geometry.segment_band`.

    Overflow and invalid values raise no warning here: a NaN margin is
    neither covered nor dead, so its triple goes to the screen.
    """
    A, m = C.halfspaces, C.dim
    n, _, L, J, _ = SV.shape
    ASV = (A @ SV.reshape(-1, m).T).reshape(len(A), n, n, L, J)
    if table is None:
        table = _index_tables(ASV, S, nv, tol)
    R, (i, j, w, th), fit = table               # R: (k, L, x, y)
    rows = (np.ascontiguousarray(R.transpose(0, 2, 1, 3)),
            np.ascontiguousarray(R.transpose(0, 1, 3, 2)), R - tol)
    base, slope = ASV[j], ASV[i] - ASV[j]
    pairs = (tuple(np.ascontiguousarray(x.transpose(axes))
                   for axes in ((0, 1, 3, 4, 2), (0, 3, 4, 2, 1))
                   for x in (base, slope)), w, th)
    # |A||y| <= 2 size for a vertex sum y, and |A||s v| <= size
    size = np.abs(SV).max() * np.abs(A).sum(axis=1).max()
    return rows, pairs, fit & np.isfinite(8.0 * size), segment_band(size, m,
                                                                    tol)


@np.errstate(all="ignore")
def facet_verdicts(tables, at):
    """The facet test of the (index, x1) slabs ``at`` (two slices), from
    :func:`facet_tables`: masks ``(covered, dead)`` over (index, x1, x3,
    x2). A pair (x3, x2) is covered when some (mu, nu) has a margin of at
    least the band's inner edge at every vertex sum ``s12 u + s23 v``, and
    dead when every (mu, nu) has a vertex sum whose margin is below its
    outer edge (:func:`geometry.segment_band`); a pair whose target the
    facets may not decide is neither. A condition is linear in the query,
    so every vertex sum meets it when the least ``w . A s12 u`` plus the
    least ``w . A s23 v`` does: no vertex sum is built. Every array keeps
    (x3, x2) last, so each numpy call runs over whole label pairs.
    """
    (R12, R23, R13), ((b12, s12, b23, s23), w, th), fit, band = tables
    l, a = at
    # margins over (index, x1, mu, nu, x3, x2): the row conditions, then
    # the row pairs, one vertex of each source at a time
    low = ((R12[:, None, a, :, None, None] - R13[:, l, a, None, None, :, None])
           + R23[:, None, None, None]).min(axis=0)
    if len(w):
        b12, s12 = b12[:, None, a, :, :, None], s12[:, None, a, :, :, None]
        b23, s23 = b23[:, None, None], s23[:, None, None]
        w = w[:, l, a, None, :, None]           # (K, index, x1, 1, x3, 1)
        lo12 = lo23 = None
        for u in range(b23.shape[4]):
            # over (K, index, x1, mu, x3, x2) and (K, index, x1, nu, x3, x2)
            x = b12[..., u, :, :] + w * s12[..., u, :, :]
            y = b23[..., u, :, :] + w * s23[..., u, :, :]
            lo12 = x if lo12 is None else np.minimum(lo12, x)
            lo23 = y if lo23 is None else np.minimum(lo23, y)
        lo12 -= th[:, l, a, None, :, None]
        low = np.minimum(low, (lo12[:, :, :, :, None]
                               + lo23[:, :, :, None]).min(axis=0))
    low = low.reshape(low.shape[0], low.shape[1], -1, *low.shape[-2:])
    fit = fit[at][..., None]
    return (fit & (low >= band[0]).any(axis=2),
            fit & (low < -band[1]).all(axis=2))


def triangle_failure(S, V, nv, C, tol, excess=None, table=None):
    """The first failing triple of the arrays ``(S, V, nv)`` as positions
    ``(index, x1, x2, x3)``, in the loop order index, x1, x3, x2, or None
    when the triangle inclusion holds. A triple fails for an index when no
    index pair (mu, nu) puts every query of F_mu(x1, x2) + F_nu(x2, x3) in
    F_index(x1, x3) + C.

    Only the queries depend on the input. With one shared polytope H every
    sum s12 u + s23 v lies in (s12 + s23) H, so the queries are the vertices
    of (s12 + s23) H; otherwise they are the vertex sums s12 u + s23 v of
    the padded stacks. A padding query repeats a real one, so it changes no
    screen result, and it is never sent to the LP. A triple with both
    s12 + s23 and s13 at most ``tol`` is covered; any other negative s13
    raises InputError when the walk reaches it.

    A shared polytope of one index first tries :func:`excess_settles` with
    ``excess``, the triangle excess of ``S`` that the load kept (found here
    when None), and returns None at once when it settles every triple.
    Otherwise the search goes on as follows.

    The (index, x1) slabs are taken in blocks of at most
    ``_TRIANGLE_QUERIES`` queries, and at least one slab: runs of indices
    with all their slabs when those fit, else runs of x1 of one index. A
    block's structural pass marks pairs (x3, x2) covered or dead without a
    query, and only where the screen would: :func:`settled_triples` covers
    a pair settled for some (mu, nu) of a shared polytope, and
    :func:`facet_verdicts` decides the pairs of a stack, on the
    :func:`facet_tables` of ``table`` (built when None). A block with every
    pair covered is skipped. The walk screens a slab with an open pair
    before its first dead one alone, by one :func:`screen_members` call,
    when it reaches it: a pair is then covered when some (mu, nu) has every
    query screened in, and dead when every (mu, nu) has one screened out.
    Each slab's pairs before its first dead one are walked in loop order;
    an uncovered one tries its (mu, nu) in order on the LP, skipping those
    with a query screened out, until one has every undecided query covered.
    So no LP runs that a loop over the triples would skip, and no slab is
    screened past the one the search stops in.
    """
    n, _, L = S.shape
    shared = V.ndim == 2
    if shared:
        bounds = vertex_bounds(V, C)
        if L == 1 and excess_settles(S[..., 0], excess, bounds, C, tol):
            return None
    J = V.shape[-2]
    per_slab = n * n * L * L * (J if shared else J * J)
    run = max(1, _TRIANGLE_QUERIES // per_slab)     # slabs per block
    lrun = max(1, run // n)
    blocks = [(slice(l0, l0 + lrun), slice(a0, a0 + run))
              for l0 in range(0, L, lrun) for a0 in range(0, n, min(run, n))]
    origin = np.zeros((1, C.dim))
    St, S23 = S.transpose(2, 0, 1), S.transpose(1, 0, 2)
    if not shared:
        SV, k = S[..., None, None] * V, np.arange(J)   # scaled vertices
        SVt, nvt = SV.transpose(1, 0, 2, 3, 4), nv.transpose(1, 0, 2)
        facets = facet_tables(S, SV, nv, C, tol, table)

    def first(mask):
        return int(mask.argmax()) if mask.any() else mask.size

    def screen(l, x):
        # the slab (index, x1) = (l, x) alone: its flat masks (covered,
        # dead) over (x3, x2), and covers(c, b, g): (mu, nu) = divmod(g, L)
        # has no query of the pair (x3, x2) = (c, b) screened out, and the
        # LP covers its undecided ones but padding, in order
        s13 = St[l, x]
        s = (S[x][None, :, :, None] + S23[:, :, None, :]).reshape(n, n, -1)
        if shared:
            # queries (x3, x2, (mu, nu), v): (s12 + s23) v
            W, pad = s[..., None, None] * V, False
            T, nT = np.broadcast_to(V, (n, J, C.dim)), np.full(n, nv)
            target = V, nv
        else:
            # queries (x3, x2, (mu, nu), (u, v)): s12 u + s23 v
            W = (SV[x][None, :, :, None, :, None]
                 + SVt[:, :, None, :, None, :]).reshape(n, n, -1, J * J,
                                                         C.dim)
            pad = ((k >= nv[x][..., None])[None, :, :, None, :, None]
                   | (k >= nvt[..., None])[:, :, None, :, None, :]
                   ).reshape(n, n, -1, J * J)
            T, nT = V[x, :, l], nv[x, :, l]
            target = T[:, None, None, None], nT[:, None, None, None]
        dec, ans, cand = screen_members(W, origin, s13[:, None, None, None],
                                        *target, C, tol)
        skip = (s <= tol) & (s13[:, None, None] <= tol)
        free = skip[..., None] | pad            # covered without a test
        dec = dec & ~((s13[:, None, None] < 0) & ~skip)[..., None]
        out = _over_rows(np.logical_or, dec & ~ans & ~free)
        hit = _over_rows(np.logical_or, _over_rows(
            np.logical_and, (dec & ans) | free))
        todo = ~(dec | free)

        def covers(c, b, g):
            if out[c, b, g]:
                return False
            if s13[c] < 0:
                raise InputError("scale must be nonnegative")
            return all(lp_member(W[c, b, g, q], origin, s13[c],
                                 T[c, :nT[c]], C, tol,
                                 np.flatnonzero(cand[c, b, g, q]))
                       for q in np.flatnonzero(todo[c, b, g]))

        return (hit.ravel(), _over_rows(np.logical_and, out).ravel(),
                covers)

    for at in blocks:                       # (index, x1) slices
        lams, a = np.arange(L)[at[0]], np.arange(n)[at[1]]
        s13 = St[at]                        # s13 over (index, x1, x3)
        if shared:
            # s12 + s23 over (x1, x2, x3, (mu, nu))
            s = (S[at[1]][:, :, None, :, None]
                 + S[None, :, :, None, :]).reshape(len(a), n, n, -1)
            covered = _over_rows(np.logical_or, settled_triples(
                s, s13[:, :, None, :, None], bounds, C, tol)).swapaxes(2, 3)
            dead = np.zeros(covered.shape, dtype=bool)
        else:
            covered, dead = facet_verdicts(facets, at)
        if covered.all():
            continue
        covered, dead = (x.reshape(-1, n * n) for x in (covered, dead))
        # only slabs with an uncovered pair (a dead one included) are
        # walked, each up to its first dead pair (n * n when none)
        for p in np.flatnonzero(~covered.all(axis=1)):
            l, x = int(lams[p // len(a)]), int(a[p % len(a)])
            cov, dd = covered[p], dead[p]
            if not cov[:first(dd)].all():
                cov, dd, covers = screen(l, x)
                for q in np.flatnonzero(~cov[:first(dd)]):
                    c, b = divmod(int(q), n)
                    if not any(covers(c, b, g) for g in range(L * L)):
                        return l, x, b, c
            if (stop := first(dd)) < n * n:
                c, b = divmod(stop, n)
                return l, x, b, c
    return None


# ---------------------------------------------------------------------------
# Hypothesis checkers.
# ---------------------------------------------------------------------------

def scalar_inf(xi, values):
    """inf of the scalarization over a finite stack of value rows."""
    if getattr(xi, "is_linear", False):
        return float(np.min(values @ xi.weights))
    return min(xi.value(v) for v in values)


def label_infima(inst: FiniteInstance, xi, arrays=None):
    """:func:`scalar_inf` of ``xi`` over f(x) of every label, in label
    order. For a linear functional these are products over the value stack
    ``B`` of the :func:`order_arrays` ``arrays`` (stacked here when not
    given), one per row count: the labels with ``k`` rows are one stacked
    product of (k, m) rows, whose every row rounds as the per-label
    ``values @ w`` does, so the infima are :func:`scalar_inf`'s bit for
    bit. A shorter label padded to a longer row count could round its rows
    otherwise, as the product would take another BLAS path."""
    if not getattr(xi, "is_linear", False):
        return [scalar_inf(xi, inst.fmap.at(x)) for x in inst.labels]
    B, nb = (arrays[3:5] if arrays is not None
             else stack_rows([inst.fmap.at(x) for x in inst.labels]))
    if nb.min() == B.shape[1]:
        # no padding: one product over the whole stack
        return (B @ xi.weights).min(axis=1).tolist()
    eta = np.empty(len(nb))
    for k in np.unique(nb):
        at = nb == k
        eta[at] = (B[at, :k] @ xi.weights).min(axis=1)
    return eta.tolist()


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


def check_assumptions(inst: FiniteInstance, fam, xi, x0, grid=None,
                      eta=None):
    """Evaluate every named hypothesis by enumeration.

    Lower sections are read from the :class:`OrderGrid` ``grid`` of a
    solve (a new :func:`order_grid` over the :func:`order_arrays` when not
    given) with :meth:`OrderGrid.precedes`: the column of x0, then the
    columns of its section, and no other. The separation minima read the
    grid's arrays. ``eta`` are the :func:`label_infima`, computed here
    when not given. The strict decrease witness is the first (section
    label x of finite ``eta``, label x' before x) with ``eta(x) - eta(x')``
    not above ``tol``. Infima of a linear functional over polytopes are
    taken over vertices, for every pair and family index at once
    (:func:`vertex_minima`); the separation conditions are
    linear-functional-only and are reported as None for nonlinear
    scalarizations.
    """
    tol = inst.tol
    labels, n = inst.labels, len(inst.labels)
    if grid is None:
        grid = order_grid(inst, order_arrays(inst, fam))
    arrays = grid.arrays

    section_at = np.flatnonzero(grid.precedes(inst.space.index(x0)))
    section = [labels[i] for i in section_at]
    if not section:
        return AssumptionReport(
            start=x0, section=[], bounded=False, inf_value=math.inf,
            strict_decrease=False, strict_decrease_witness=None,
            separated_pairs=None, separated_pointwise=None,
            separated_uniform=None, separation_witness=None,
            notes=("start section is empty",))

    eta = np.asarray(label_infima(inst, xi, arrays) if eta is None else eta,
                     dtype=float)
    inf_value = float(eta[section_at].min())
    bounded = math.isfinite(inf_value)

    # x' before x and not x; a finite eta(x) makes no difference inf - inf
    at = section_at[np.isfinite(eta[section_at])]
    # one facet pass for the columns of the section
    grid.pass_columns(at)
    below = np.array([grid.precedes(j) for j in at], dtype=bool)
    fails = np.flatnonzero(below.reshape(len(at), n)
                           & (np.arange(n) != at[:, None])
                           & ~(eta[at, None] - eta > tol))
    strict = not fails.size
    strict_witness = None
    if not strict:
        x, xp = at[fails[0] // n], fails[0] % n
        strict_witness = (labels[x], labels[xp], float(eta[x]),
                          float(eta[xp]))

    linear = getattr(xi, "is_linear", False)
    sep_pairs = sep_point = sep_uniform = None
    sep_witness = None
    notes = []
    if linear:
        minima = vertex_minima(*arrays[:2], xi)
        sep_pairs, sep_point, pair_witness = _pairwise_separation(
            inst, minima, section_at)
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


def vertex_minima(S, V, xi):
    """The infimum of ``xi`` over each set ``S * conv(V)`` of a family's or a
    pair map's arrays: scale times the vertex minimum, exact for a linear
    ``xi`` and for the positively homogeneous cone scalarization, whose
    +inf branch is decided at the scaled vertex ``s v`` as
    :func:`scalarize.gz_value` decides it; 0 at a zero scale."""
    # padding vertices repeat a real one and leave every minimum unchanged
    if xi.is_linear:
        values = V @ xi.weights
    else:
        # the zero rows (a . k0 <= tol) are read at s v, as gz_value does
        A = xi.cone.halfspaces
        values = xi.from_products(np.where(
            A @ xi.k0 > xi.tol, V @ A.T,
            (A @ (S[..., None, None] * V)[..., None])[..., 0]))
    low = np.min(values, axis=-1)
    return np.multiply(S, low, out=np.zeros(np.broadcast(S, low).shape),
                       where=S != 0)


def _pairwise_separation(inst, minima, at):
    """Every ordered pair (x, x') of distinct section labels, at the label
    positions ``at``, has a family set of F(x', x) with vertex minimum above
    ``tol``; the first pair that has none, in loop order, is the
    witness."""
    # best[a, b]: the largest minimum over the sets of F(x_b, x_a), x_a the
    # label at at[a]
    best = minima.max(axis=-1)[at][:, at].T
    bad = ~(best > inst.tol)
    np.fill_diagonal(bad, False)
    fails = np.flatnonzero(bad)
    if not fails.size:
        return True, True, None
    a, b = divmod(int(fails[0]), len(at))
    labels = inst.labels
    return False, False, {"pair": [labels[at[a]], labels[at[b]]],
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
    check_positive("epsilon", epsilon)
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
