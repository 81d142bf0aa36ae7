"""Graph-space orders and Pareto minima.

A product instance is a finite subset of (label, value) pairs over a metric
base space, a distinguished start pair, and the ordering cone. The pair map
F assigns each ordered label pair a polytope inside the cone; together with
an additive scalarization it induces the graph quasi-order (value covered up
to F plus cone) and its strict refinement (same, plus a strict drop of the
anchored scalarization), which is a partial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine as eng
from .errors import HypothesisError, InputError, PremiseError
from .geometry import (DEFAULT_TOL, PolyhedralCone, Polytope, as_point,
                       cone_contains, covered_queries, first_outside,
                       minkowski_member, polytope_contains, singleton,
                       stack_rows)
from .instances import MetricSpace, pair_arrays, triangle_failure
from .scalarize import GerstewitzFn
from .solvers import Certificate, Conclusion, _jsonable


# ---------------------------------------------------------------------------
# Pareto minima of a finite point set.
# ---------------------------------------------------------------------------

def _below(C, y, ybar, tol):
    """y is below ybar in the cone order: ybar - y in C."""
    return cone_contains(C, np.asarray(ybar, dtype=float) -
                         np.asarray(y, dtype=float), tol)


def pareto_min(B, C: PolyhedralCone, tol=DEFAULT_TOL):
    """Points of B minimal in the cone order: anything below them is also
    above them. Pairwise tests over list positions; returns the points."""
    B = [as_point(y, C.dim) for y in B]
    if not B:
        raise InputError("empty point set")
    out = []
    for i, ybar in enumerate(B):
        minimal = True
        for j, y in enumerate(B):
            if i == j:
                continue
            if _below(C, y, ybar, tol) and not _below(C, ybar, y, tol):
                minimal = False
                break
        if minimal:
            out.append(ybar)
    return out


def strict_pareto_min(B, C: PolyhedralCone, tol=DEFAULT_TOL):
    """Points of B with no other list member below them.

    Read position-wise: a duplicated value sees its twin below it (zero is
    in the cone), so both copies are excluded. Equals pareto_min whenever the
    cone is pointed and B has no duplicates."""
    B = [as_point(y, C.dim) for y in B]
    if not B:
        raise InputError("empty point set")
    out = []
    for i, ybar in enumerate(B):
        if all(not _below(C, y, ybar, tol)
               for j, y in enumerate(B) if j != i):
            out.append(ybar)
    return out


def domination_check(B, C: PolyhedralCone, strict=False, tol=DEFAULT_TOL):
    """Every point of B sits above some (strict) minimal point of B.

    Returns ``(True, None)`` or ``(False, uncovered_point)``."""
    minimals = (strict_pareto_min if strict else pareto_min)(B, C, tol)
    for y in B:
        y = as_point(y, C.dim)
        if not any(_below(C, m, y, tol) for m in minimals):
            return False, y
    return True, None


# ---------------------------------------------------------------------------
# Product instances and pair maps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductInstance:
    """Finite graph A of (label, value) pairs with a start pair in it."""

    graph: tuple           # tuple of (label, ndarray)
    base: MetricSpace
    start: tuple           # (label, ndarray)
    cone: PolyhedralCone
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        pairs = []
        seen = set()
        for x, y in self.graph:
            y = as_point(y, self.cone.dim)
            if x not in self.base.labels:
                raise InputError(f"graph label {x!r} is not in the base space")
            key = (x, tuple(y))
            if key in seen:
                raise InputError(f"duplicate graph pair {key}")
            seen.add(key)
            pairs.append((x, y))
        if not pairs:
            raise InputError("empty graph")
        object.__setattr__(self, "graph", tuple(pairs))
        x0, y0 = self.start
        y0 = as_point(y0, self.cone.dim)
        object.__setattr__(self, "start", (x0, y0))
        if (x0, tuple(y0)) not in seen:
            raise InputError("start pair is not a member of the graph")

    @property
    def x0(self):
        return self.start[0]

    @property
    def y0(self):
        return self.start[1]

    def slice_values(self, x):
        return [y for (xl, y) in self.graph if xl == x]

    def all_values(self):
        return np.vstack([y for _, y in self.graph])


@dataclass(frozen=True, eq=False)
class FMap:
    """Pair map (x2, x1) -> scale * conv(H) plus the additive scalarization.

    ``table`` maps ordered label pairs to ``(scale, Polytope)``. The
    scalarization must be additive on every pair-map value: exact for a
    linear functional; for the cone scalarization this is enforced by
    requiring all pair-map vertices to sit on the direction ray, where
    translation-additivity makes values exact."""

    table: dict
    xi: object

    def value_set(self, x2, x1):
        try:
            return self.table[(x2, x1)]
        except KeyError:
            raise InputError(f"pair map is not total: missing ({x2!r}, {x1!r})"
                             ) from None


def fmap_from_rate(base: MetricSpace, H: Polytope, rate, xi):
    """Distance-scaled pair map rate * d(x2, x1) * H over the whole base."""
    if not rate > 0:
        raise InputError("rate must be strictly positive")
    d = base.dist.tolist()
    table = {(x2, x1): (rate * d[i][j], H)
             for i, x2 in enumerate(base.labels)
             for j, x1 in enumerate(base.labels)}
    return FMap(table, xi)


def validate_fmap(pi: ProductInstance, fm: FMap):
    """Check the three pair-map conditions; raise HypothesisError on failure.

    Returns a report dict with the positivity margin of the scalarization at
    the smallest positive base distance."""
    base = pi.base
    C = pi.cone
    tol = pi.tol
    zero = np.zeros(C.dim)
    # containment in the cone and reflexive zero membership
    scaled = [(key, scale * H.vertices)
              for key, (scale, H) in fm.table.items() if scale > tol]
    bad = first_outside(C, [W for _, W in scaled], tol)
    if bad is not None:
        x2, x1 = scaled[bad][0]
        raise HypothesisError(
            "pair_map_in_cone",
            f"pair-map value for ({x2!r}, {x1!r}) leaves the cone")
    # values at scale <= tol skip the cone check; their dimension must still
    # match before the triangle sweep stacks all vertex arrays
    for (x2, x1), (_, H) in fm.table.items():
        if H.dim != C.dim:
            raise InputError(f"pair-map value for ({x2!r}, {x1!r}) has "
                             f"dimension {H.dim}, expected {C.dim}")
    for x in base.labels:
        scale, H = fm.value_set(x, x)
        if scale <= tol:
            contains_zero = True
        else:
            contains_zero = polytope_contains(H.scaled(scale), zero, tol)
        if not contains_zero:
            raise HypothesisError(
                "reflexive_zero",
                f"pair-map value at ({x!r}, {x!r}) does not contain 0")
    triple = triangle_failure(base.labels,
                              *pair_arrays(base.labels, fm.value_set), C, tol)
    if triple is not None:
        raise HypothesisError("triangle_inclusion",
                              "pair map fails the triangle inclusion",
                              witness={"triple": triple})
    # additivity of the scalarization on pair-map values
    xi = fm.xi
    if not getattr(xi, "is_linear", False):
        if not isinstance(xi, GerstewitzFn):
            raise HypothesisError(
                "additive_scalarization",
                "pair maps require a linear functional or the cone "
                "scalarization")
        k0 = xi.k0
        k0n = float(k0 @ k0)
        for (x2, x1), (scale, H) in fm.table.items():
            for v in H.vertices:
                c = float(v @ k0) / k0n
                if np.linalg.norm(v - c * k0, ord=np.inf) > 1e-7:
                    raise HypothesisError(
                        "additive_scalarization",
                        f"pair-map vertex for ({x2!r}, {x1!r}) is off the "
                        "scalarization ray, so additivity is unavailable")
    margin = zeta(fm, base.min_positive_distance(), base, tol)
    if not margin > tol:
        raise HypothesisError(
            "positive_separation",
            "the scalarization is not positively separated on pair-map "
            "values at positive distance", witness={"zeta": margin})
    return {"reflexive_zero": True, "triangle_inclusion": True,
            "additive_scalarization": True, "zeta": margin}


def zeta(fm: FMap, delta, base: MetricSpace, tol=DEFAULT_TOL):
    """Infimum of the scalarization over pair-map values at base distance at
    least delta; +inf when no pair qualifies. Vertex evaluation is exact for
    linear functionals and for ray-valued maps under the cone scalarization."""
    if not delta > 0:
        raise InputError("delta must be strictly positive")
    best = math.inf
    d = base.dist.tolist()
    for i, x2 in enumerate(base.labels):
        for j, x1 in enumerate(base.labels):
            if d[i][j] < delta:
                continue
            scale, H = fm.value_set(x2, x1)
            for v in H.vertices:
                best = min(best, fm.xi.value(scale * v))
    return best


# ---------------------------------------------------------------------------
# Graph orders.
# ---------------------------------------------------------------------------

def prec_f(pi: ProductInstance, fm: FMap, pair2, pair1):
    """(x2, y2) precedes (x1, y1): y1 is covered by y2 + F(x2, x1) + cone."""
    x2, y2 = pair2
    x1, y1 = pair1
    scale, H = fm.value_set(x2, x1)
    return minkowski_member(as_point(y1, pi.cone.dim), [as_point(y2)],
                            scale, H, pi.cone, pi.tol)


def _same_pair(pair2, pair1):
    return pair2[0] == pair1[0] and np.array_equal(
        np.asarray(pair2[1], dtype=float), np.asarray(pair1[1], dtype=float))


def prec_fstar(pi: ProductInstance, fm: FMap, pair2, pair1):
    """The strict refinement: equal pairs, or coverage plus a strict drop of
    the anchored scalarization (gap larger than the tolerance)."""
    if _same_pair(pair2, pair1):
        return True
    if not prec_f(pi, fm, pair2, pair1):
        return False
    y0 = pi.y0
    v2 = fm.xi.value(np.asarray(pair2[1], dtype=float) - y0)
    v1 = fm.xi.value(np.asarray(pair1[1], dtype=float) - y0)
    return v1 - v2 > pi.tol


# ---------------------------------------------------------------------------
# Certificates and solvers.  The graph solvers return the certificate type of
# the label-order solvers, with ``yhat`` set.
# ---------------------------------------------------------------------------

ProductCertificate = Certificate


def _graph_oracle(pi, fm):
    """Engine oracle over graph pair indices under the strict order.

    ``rel[i, j]`` is :func:`prec_fstar` of pairs i and j: the anchored
    scalarization is evaluated once per pair, and coverage is asked only
    for the pairs with a strict drop, all in one :func:`covered_queries`
    stack.
    """
    pairs = pi.graph
    n = len(pairs)
    S, V, nv = pair_arrays(pi.base.labels, fm.value_set)
    lab = np.array([pi.base.index(x) for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    y0 = pi.y0
    eta = [fm.xi.value(y - y0) for _, y in pairs]
    eta_arr = np.array(eta)
    rel = np.eye(n, dtype=bool)
    # prec_f looks at the scale of every other pair, strict drop or not
    if np.any((S[lab[:, None], lab] < 0) & ~rel):
        raise InputError("scale must be nonnegative")
    i, j = np.nonzero((eta_arr[None, :] - eta_arr[:, None] > pi.tol) & ~rel)
    a, b = lab[i], lab[j]
    own = V.ndim > 2
    first = covered_queries(Y[j], Y[i][:, None], np.ones(len(i), dtype=int),
                            S[a, b], V[a, b] if own else V,
                            nv[a, b] if own else nv, pi.cone, pi.tol)
    rel[i, j] = first < 0
    successors = {j: [i for i in range(n) if rel[i, j]] for j in range(n)}
    labels_idx = tuple(range(n))
    return eng.PreorderOracle(labels_idx, successors,
                              dict(enumerate(eta))), rel


def _start_index(pi):
    x0, y0 = pi.start
    for i, (x, y) in enumerate(pi.graph):
        if x == x0 and np.array_equal(y, y0):
            return i
    raise InputError("start pair not found")  # unreachable after validation


def _covered_by_pairs(pi, fm, pairs, x1, y):
    """:func:`prec_f` of each graph pair in ``pairs`` against the pair
    ``(x1, y)``: whether y lies in v + F(x, x1) + C, for all pairs (x, v) in
    one :func:`covered_queries` stack."""
    C, tol = pi.cone, pi.tol
    values = [fm.value_set(x, x1) for x, _ in pairs]
    polys = []
    for scale, H in values:
        if H.dim != C.dim:
            # as in minkowski_member, a zero scale never looks at H
            if scale > tol:
                raise InputError("polytope dimension does not match the cone")
            H = singleton(np.zeros(C.dim))
        polys.append(H.vertices)
    V, nv = (polys[0], None) if all(P is polys[0] for P in polys) \
        else stack_rows(polys)
    S = np.array([scale for scale, _ in values], dtype=float)
    B = np.array([v for _, v in pairs])[:, None, :]
    first = covered_queries(np.tile(y, (len(pairs), 1)), B,
                            np.ones(len(pairs), dtype=int), S, V, nv, C, tol)
    return first < 0


def _section_of_start(pi, fm):
    covered = _covered_by_pairs(pi, fm, pi.graph, pi.x0, pi.y0)
    return [p for p, c in zip(pi.graph, covered) if c]


def solve_minimal_point(pi: ProductInstance, fm: FMap, mode="greedy"):
    """Minimal pair of the graph under the strict order, certified against
    the plain order conclusions: start coverage and separation of every
    other base label."""
    checks = validate_fmap(pi, fm)
    return _minimal_point(pi, fm, mode, checks, _section_of_start(pi, fm))


def _minimal_point(pi, fm, mode, checks, section):
    """:func:`solve_minimal_point` after the pair-map checks, given the
    start section."""
    inf_val = min(fm.xi.value(y - pi.y0) for _, y in section)
    if not math.isfinite(inf_val):
        raise HypothesisError("bounded",
                              "scalarization unbounded on the start section")
    oracle, rel = _graph_oracle(pi, fm)
    i0 = _start_index(pi)
    ihat, trace = eng.solve(oracle, i0, mode)
    xhat, yhat = pi.graph[ihat]
    conclusions = [
        _coverage_conclusion(pi, fm, xhat, yhat, name="a"),
        _separation_conclusion(pi, fm, xhat, yhat, exclude_label_only=True,
                               name="b"),
    ]
    assumptions = dict(checks)
    assumptions["scalar_inf_on_start_section"] = inf_val
    assumptions["chain_conditions"] = "structural: finite graph"
    return Certificate("5.1", xhat, conclusions, assumptions, trace,
                       yhat=yhat)


def _coverage_conclusion(pi, fm, xhat, yhat, name):
    scale, H = fm.value_set(xhat, pi.x0)
    holds = minkowski_member(pi.y0, [yhat], scale, H, pi.cone, pi.tol)
    return Conclusion(name, holds, {"start_value": pi.y0, "yhat": yhat})


def _separation_conclusion(pi, fm, xhat, yhat, exclude_label_only, name):
    """No other pair pulls yhat down: for label-only exclusion the quantifier
    skips the whole xhat slice, otherwise only the pair itself. All the
    other pairs are tested in one stack."""
    def skipped(x, y):
        return x == xhat and (exclude_label_only or np.array_equal(y, yhat))

    others = [(x, y) for x, y in pi.graph if not skipped(x, y)]
    covered = (_covered_by_pairs(pi, fm, others, xhat, yhat) if others
               else [])
    violations = [{"x": x, "y": y} for (x, y), c in zip(others, covered)
                  if c]
    return Conclusion(name, not violations, {"violations": violations})


def solve_strict_minimal(pi: ProductInstance, fm: FMap, mode="greedy"):
    """Minimal pair post-processed down to a strict Pareto minimum of its
    label slice; the separation conclusion then excludes only the pair
    itself. Requires the strict domination property on every slice the start
    section touches."""
    section = _section_of_start(pi, fm)
    slice_report = {}
    for x in sorted({p[0] for p in section}, key=str):
        values = pi.slice_values(x)
        ok, uncovered = domination_check(values, pi.cone, strict=True,
                                         tol=pi.tol)
        slice_report[x] = ok
        if not ok:
            raise HypothesisError(
                "strict_domination",
                f"the value slice at {x!r} lacks the strict domination "
                "property", witness={"x": x, "uncovered": _jsonable(uncovered)})
    base_cert = _minimal_point(pi, fm, mode, validate_fmap(pi, fm), section)
    xhat, ytilde = base_cert.xhat, base_cert.yhat
    slice_vals = pi.slice_values(xhat)
    smin = strict_pareto_min(slice_vals, pi.cone, pi.tol)
    yhat = None
    for cand in smin:
        if cone_contains(pi.cone, ytilde - cand, pi.tol):
            yhat = cand
            break
    if yhat is None:
        raise HypothesisError(
            "strict_domination",
            f"no strict Pareto minimum of the {xhat!r} slice sits below the "
            "engine value")
    in_smin = any(np.array_equal(yhat, m) for m in smin)
    cover = _coverage_conclusion(pi, fm, xhat, yhat, name="a")
    conclusions = [
        Conclusion("a", cover.holds and in_smin,
                   {"start_value": pi.y0, "yhat": yhat,
                    "slice_strict_minimum": in_smin}),
        _separation_conclusion(pi, fm, xhat, yhat, exclude_label_only=False,
                               name="b"),
    ]
    assumptions = dict(base_cert.assumptions)
    assumptions["slice_strict_domination"] = slice_report
    return Certificate("5.2", xhat, conclusions, assumptions, base_cert.trace,
                       yhat=yhat)


def solve_pareto_evp(pi: ProductInstance, k0, epsilon, lam, mode="greedy"):
    """Single-direction pair map with the global escape premise; returns the
    strict-minimal certificate extended with the distance bound."""
    k0 = as_point(k0, pi.cone.dim)
    if not (epsilon > 0 and lam > 0):
        raise InputError("epsilon and lambda must be strictly positive")
    all_values = pi.all_values()
    covered = minkowski_member(pi.y0, all_values, epsilon, singleton(k0),
                               pi.cone, pi.tol)
    if covered:
        raise PremiseError(
            "the start value is covered by the graph values plus "
            "epsilon*k0 + cone", witness={"y0": _jsonable(pi.y0)})
    xi = GerstewitzFn(pi.cone, k0, pi.tol)
    fm = fmap_from_rate(pi.base, singleton(k0), epsilon / lam, xi)
    cert = solve_strict_minimal(pi, fm, mode)
    d = pi.base.d(pi.x0, cert.xhat)
    conclusions = list(cert.conclusions)
    conclusions.append(Conclusion(
        "c", d <= lam + pi.tol,
        {"distance": d, "bound": lam, "strict": False, "boundary": False}))
    return Certificate("5.6", cert.xhat, conclusions, cert.assumptions,
                       cert.trace, yhat=cert.yhat,
                       premise={"form": "global-escape", "epsilon": epsilon})
