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
                       first_outside, minkowski_member, polytope_contains,
                       singleton)
from .instances import (MetricSpace, PolytopeDirection, check_positive,
                        order_facets, order_grid, triangle_failure,
                        vertex_minima)
from .scalarize import GerstewitzFn
from .solvers import Certificate, Conclusion, _jsonable


# ---------------------------------------------------------------------------
# Pareto minima of a finite point set.
# ---------------------------------------------------------------------------

# _under decides blocks of whole rows up to this many point pairs at a time,
# so that its arrays stay small at any point count
_UNDER_PAIRS = 65536


def _under(B, C: PolyhedralCone, tol):
    """The points of B and ``under[i, j]``: B[j] is below B[i] in the cone
    order (``B[i] - B[j]`` in C), for all list positions from stacked
    products, which round as :func:`cone_contains` does pair by pair. The
    rows are decided in blocks of at most ``_UNDER_PAIRS`` pairs, and at
    least one row."""
    B = [as_point(y, C.dim) for y in B]
    if not B:
        raise InputError("empty point set")
    Y = np.array(B)
    P = len(Y)
    step = max(1, _UNDER_PAIRS // P)
    under = np.empty((P, P), dtype=bool)
    for start in range(0, P, step):
        D = Y[start:start + step, None, :] - Y[None, :, :]
        under[start:start + step] = np.all(
            (C.halfspaces @ D[..., None])[..., 0] >= -tol, axis=-1)
    return B, under


def _minimal(under, strict):
    """Mask of the (strict) minimal positions of an :func:`_under` matrix."""
    if strict:
        return ~(under & ~np.eye(len(under), dtype=bool)).any(axis=1)
    return ~(under & ~under.T).any(axis=1)


def pareto_min(B, C: PolyhedralCone, tol=DEFAULT_TOL):
    """Points of B minimal in the cone order: anything below them is also
    above them. Pairwise tests over list positions; returns the points."""
    B, under = _under(B, C, tol)
    return [B[i] for i in np.flatnonzero(_minimal(under, False))]


def strict_pareto_min(B, C: PolyhedralCone, tol=DEFAULT_TOL):
    """Points of B with no other list member below them.

    Read position-wise: a duplicated value sees its twin below it (zero is
    in the cone), so both copies are excluded. Equals pareto_min whenever the
    cone is pointed and B has no duplicates."""
    B, under = _under(B, C, tol)
    return [B[i] for i in np.flatnonzero(_minimal(under, True))]


def domination_check(B, C: PolyhedralCone, strict=False, tol=DEFAULT_TOL):
    """Every point of B sits above some (strict) minimal point of B.

    Returns ``(True, None)`` or ``(False, uncovered_point)``, the first one
    in list order."""
    B, under = _under(B, C, tol)
    bare = np.flatnonzero(~under[:, _minimal(under, strict)].any(axis=1))
    return (False, B[bare[0]]) if bare.size else (True, None)


# ---------------------------------------------------------------------------
# Product instances and pair maps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductInstance:
    """Finite graph A of (label, value) pairs with a start pair in it.
    ``values`` stacks the graph's values, one read-only row per pair, and
    ``label_index`` holds each pair's position in the base labels."""

    graph: tuple           # tuple of (label, ndarray)
    base: MetricSpace
    start: tuple           # (label, ndarray)
    cone: PolyhedralCone
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m, labels = self.cone.dim, self.base.labels
        graph = tuple(self.graph)
        position = {x: p for p, x in enumerate(labels)}
        # every value at once: one float array, checked for shape and
        # finiteness once, and the pairs keyed by its plain float rows; any
        # fault sends the graph to the pair-by-pair pass, which names it
        try:
            xs = [x for x, _ in graph]
            values = np.array([y for _, y in graph], dtype=float)
            index = [position[x] for x in xs]
            keys = (values.shape == (len(graph), m)
                    and np.isfinite(values).all()
                    and set(zip(xs, map(tuple, values.tolist()))))
        except (TypeError, ValueError, KeyError):
            keys = None
        if not keys or len(keys) != len(graph):
            xs, values, index, keys = _graph_pairs(graph, labels, position, m)
        values.flags.writeable = False
        object.__setattr__(self, "graph", tuple(zip(xs, values.copy())))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "label_index", np.array(index))
        x0, y0 = self.start
        y0 = as_point(y0, m)
        object.__setattr__(self, "start", (x0, y0))
        if (x0, tuple(y0.tolist())) not in keys:
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
        return self.values


def _graph_pairs(graph, labels, position, m):
    """The labels, values, label positions and pair keys of ``graph`` taken
    pair by pair: each pair's value is checked, then its label, then that
    it does not repeat an earlier pair, and the first fault is raised as an
    InputError."""
    xs, rows, keys = [], [], set()
    for x, y in graph:
        y = as_point(y, m)
        if x not in labels:
            raise InputError(f"graph label {x!r} is not in the base space")
        key = (x, tuple(y.tolist()))
        if key in keys:
            raise InputError(f"duplicate graph pair {key}")
        keys.add(key)
        xs.append(x)
        rows.append(y)
    if not rows:
        raise InputError("empty graph")
    return xs, np.array(rows), [position[x] for x in xs], keys


@dataclass(frozen=True, eq=False)
class FMap:
    """Pair map (x2, x1) -> F(x2, x1) plus the additive scalarization.

    ``family`` is a perturbation family of one index: a distance-scaled one
    (:func:`fmap_from_rate`) or an :class:`ExtensionalFamily` whose
    polytopes carry their scale. The scalarization must be additive on every
    pair-map value: exact for a linear functional; for the cone
    scalarization this is enforced by requiring all pair-map vertices to sit
    on the direction ray, where translation-additivity makes values exact."""

    family: object
    xi: object

    def __post_init__(self):
        if len(self.family.lambdas()) != 1:
            raise InputError("a pair map is a family of one index")


def fmap_from_rate(base: MetricSpace, H: Polytope, rate, xi):
    """Distance-scaled pair map rate * d(x2, x1) * H over the whole base.
    The family reads d from the space it is given when it is used, the
    product instance's base, which ``base`` must be."""
    return FMap(PolytopeDirection(H, rate), xi)


def validate_fmap(pi: ProductInstance, fm: FMap):
    """Check the pair-map conditions on the family's ``arrays``; raise
    HypothesisError naming the first failing pair in label order. A value
    whose dimension is not the cone's raises InputError before any check.
    Returns a report dict with the positivity margin of the scalarization
    at the smallest positive base distance."""
    base, C, tol = pi.base, pi.cone, pi.tol
    labels = base.labels
    S, V, nv = fm.family.arrays(base)
    n, (J, m) = len(labels), V.shape[-2:]
    if m != C.dim:
        raise InputError(f"pair-map value for ({labels[0]!r}, "
                         f"{labels[0]!r}) has dimension {m}, "
                         f"expected {C.dim}")
    W = S[..., None, None] * V            # every scaled value, (n, n, 1, J, m)
    # containment in the cone of the values at a scale above tol
    big = np.flatnonzero(S > tol)
    bad = first_outside(C, W.reshape(n * n, J, m)[big], tol)
    if bad is not None:
        x2, x1 = labels[big[bad] // n], labels[big[bad] % n]
        raise HypothesisError(
            "pair_map_in_cone",
            f"pair-map value for ({x2!r}, {x1!r}) leaves the cone")
    # reflexive zero membership, on the diagonal
    counts = np.broadcast_to(nv, S.shape)
    for i, x in enumerate(labels):
        if S[i, i, 0] > tol and not polytope_contains(
                Polytope(W[i, i, 0, :counts[i, i, 0]]), np.zeros(m), tol):
            raise HypothesisError(
                "reflexive_zero",
                f"pair-map value at ({x!r}, {x!r}) does not contain 0")
    hit = triangle_failure(S, V, nv, C, tol, fm.family._excess(base))
    if hit is not None:
        raise HypothesisError("triangle_inclusion",
                              "pair map fails the triangle inclusion",
                              witness={"triple": tuple(labels[k]
                                                       for k in hit[1:])})
    # additivity of the scalarization on pair-map values
    xi = fm.xi
    if not getattr(xi, "is_linear", False):
        if not isinstance(xi, GerstewitzFn):
            raise HypothesisError(
                "additive_scalarization",
                "pair maps require a linear functional or the cone "
                "scalarization")
        k0 = xi.k0
        c = (V @ k0) / float(k0 @ k0)
        off = np.max(np.abs(V - c[..., None] * k0), axis=-1) > 1e-7
        if off.any():
            first = np.argmax(np.broadcast_to(off.any(axis=-1), S.shape))
            x2, x1 = labels[first // n], labels[first % n]
            raise HypothesisError(
                "additive_scalarization",
                f"pair-map vertex for ({x2!r}, {x1!r}) is off the "
                "scalarization ray, so additivity is unavailable")
    margin = zeta(S, V, xi, base.dist, base.min_positive_distance())
    if not margin > tol:
        raise HypothesisError(
            "positive_separation",
            "the scalarization is not positively separated on pair-map "
            "values at positive distance", witness={"zeta": margin})
    return {"reflexive_zero": True, "triangle_inclusion": True,
            "additive_scalarization": True, "zeta": margin}


def zeta(S, V, xi, dist, delta):
    """Infimum of the scalarization ``xi`` over the pair-map values
    ``S * conv(V)`` of a pair map's arrays at base distance ``dist`` at least
    delta, the masked minimum of :func:`instances.vertex_minima`; +inf when
    no pair qualifies."""
    if not delta > 0:
        raise InputError("delta must be strictly positive")
    minima = vertex_minima(S, V, xi)[dist >= delta]
    return float(minima.min()) if minima.size else math.inf


# ---------------------------------------------------------------------------
# Graph orders.
# ---------------------------------------------------------------------------

def prec_f(pi: ProductInstance, fm: FMap, pair2, pair1):
    """(x2, y2) precedes (x1, y1): y1 is covered by y2 + F(x2, x1) + cone."""
    x2, y2 = pair2
    x1, y1 = pair1
    (_, scale, H), = fm.family.sets(pi.base, x2, x1)
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


def graph_arrays(pi, fm):
    """What the order's facet pass reads, for the graph order (as
    :func:`evpkit.instances.order_arrays` for the label order): each graph
    pair is a label with its one value (``B = Y[:, None]``, ``nb = 1``),
    ``S, V, nv`` are the pair map's ``arrays`` at the labels of two pairs,
    a shared polytope staying one ``(J, m)`` array, and last their
    :func:`order_facets`."""
    S, V, nv = fm.family.arrays(pi.base)
    lab = pi.label_index
    at = (lab[:, None], lab)
    if V.ndim > 2:
        V, nv = V[at], nv[at]
    S, B = S[at], pi.values[:, None]
    return (S, V, nv, B, np.ones(len(lab), dtype=int),
            order_facets(S, V, nv, B, pi.cone, pi.tol))


def anchored_values(pi, xi):
    """``xi.value(y - y0)`` of every graph value ``y`` as one array, bit for
    bit: the stacked products ``w . d`` and ``A d`` round as the per-pair
    ones do (a plain ``D @ w`` or ``D @ A.T`` does not). ``xi`` is a linear
    functional or the cone scalarization."""
    D = pi.values - pi.y0
    if getattr(xi, "is_linear", False):
        return (D[:, None, :] @ xi.weights[:, None])[:, 0, 0]
    return xi.from_products((xi.cone.halfspaces @ D[..., None])[..., 0])


def _graph_oracle(pi, grid, eta):
    """Engine oracle over graph pair indices under the strict order,
    :func:`prec_fstar` of pairs i and j, read by columns: ``eta`` is the
    :func:`anchored_values` array, and the section of pair j holds j and
    the pairs i with a strict drop ``eta[j] - eta[i] > tol`` that precede
    it in the graph order's grid ``grid``. A column is read the first time
    the engine asks for its section, and only its pairs with a strict drop
    (:meth:`evpkit.instances.OrderGrid.precedes`).
    """
    n = len(pi.graph)

    def column(j):
        drop = eta[j] - eta > pi.tol
        drop[j] = False
        rows = np.flatnonzero(drop)
        rel = np.zeros(n, dtype=bool)
        rel[j] = True
        rel[rows] = grid.precedes(j, rows)
        return rel

    return eng.PreorderOracle.from_columns(range(n), column, eta.tolist())


def _pair_index(pi, x, y):
    """Position of the graph pair (x, y), which is one of the graph's; the
    pairs are distinct."""
    at = (pi.label_index == pi.base.index(x)) & (pi.values == y).all(axis=1)
    return int(np.flatnonzero(at)[0])


def solve_minimal_point(pi: ProductInstance, fm: FMap, mode="greedy"):
    """Minimal pair of the graph under the strict order, certified against
    the plain order conclusions: start coverage and separation of every
    other base label."""
    checks = validate_fmap(pi, fm)
    grid = order_grid(pi, graph_arrays(pi, fm))
    start = _pair_index(pi, *pi.start)
    ihat, trace, assumptions = _minimal_point(pi, fm, mode, checks, grid,
                                              start, grid.precedes(start))
    xhat, yhat = pi.graph[ihat]
    conclusions = _graph_conclusions(pi, grid, ihat, start,
                                     exclude_label_only=True)
    return Certificate("5.1", xhat, conclusions, assumptions, trace,
                       yhat=yhat)


def _minimal_point(pi, fm, mode, checks, grid, start, section):
    """The engine run of :func:`solve_minimal_point` after the pair-map
    checks, given the graph order's grid, the start pair's position and
    the start section's mask: ``(ihat, trace, assumptions)``."""
    eta = anchored_values(pi, fm.xi)
    inf_val = float(eta[section].min())
    if not math.isfinite(inf_val):
        raise HypothesisError("bounded",
                              "scalarization unbounded on the start section")
    oracle = _graph_oracle(pi, grid, eta)
    ihat, trace = eng.solve(oracle, start, mode)
    assumptions = dict(checks)
    assumptions["scalar_inf_on_start_section"] = inf_val
    assumptions["chain_conditions"] = "structural: finite graph"
    return ihat, trace, assumptions


def _graph_conclusions(pi, grid, ihat, start, exclude_label_only):
    """Conclusions (a) and (b) for the terminal pair at position ``ihat``
    from two column reads (:meth:`evpkit.instances.OrderGrid.precedes`) of
    the graph order's grid ``grid``: the cell (ihat, start) of column
    ``start`` decides whether pair ihat covers the start pair at that
    position, and the cells (p, ihat) of column ihat whether each other
    pair p precedes pair ihat, a violation of (b). For label-only
    exclusion the quantifier skips the whole xhat slice, otherwise only
    the pair itself."""
    xhat, yhat = pi.graph[ihat]
    others = np.array([p for p, (x, _) in enumerate(pi.graph)
                       if (x != xhat if exclude_label_only else p != ihat)],
                      dtype=int)
    covers = grid.precedes(start, np.array([ihat]))[0]
    violations = [{"x": pi.graph[p][0], "y": pi.graph[p][1]}
                  for p in others[grid.precedes(ihat, others)]]
    return [Conclusion("a", bool(covers),
                       {"start_value": pi.y0, "yhat": yhat}),
            Conclusion("b", not violations, {"violations": violations})]


def solve_strict_minimal(pi: ProductInstance, fm: FMap, mode="greedy"):
    """Minimal pair post-processed down to a strict Pareto minimum of its
    label slice; the separation conclusion then excludes only the pair
    itself. Requires the strict domination property on every slice the start
    section touches, checked after the pair map."""
    checks = validate_fmap(pi, fm)
    grid = order_grid(pi, graph_arrays(pi, fm))
    start = _pair_index(pi, *pi.start)
    section = grid.precedes(start)
    slice_report = {}
    for x in sorted({pi.graph[p][0] for p in np.flatnonzero(section)},
                    key=str):
        values = pi.slice_values(x)
        ok, uncovered = domination_check(values, pi.cone, strict=True,
                                         tol=pi.tol)
        slice_report[x] = ok
        if not ok:
            raise HypothesisError(
                "strict_domination",
                f"the value slice at {x!r} lacks the strict domination "
                "property", witness={"x": x, "uncovered": _jsonable(uncovered)})
    ihat, trace, assumptions = _minimal_point(pi, fm, mode, checks, grid,
                                              start, section)
    xhat = pi.graph[ihat][0]
    # the xhat slice by graph position; row ``at.index(ihat)`` of its order
    # holds the slice values below the engine value
    at = [p for p, (x, _) in enumerate(pi.graph) if x == xhat]
    _, under = _under([pi.graph[p][1] for p in at], pi.cone, pi.tol)
    below = np.flatnonzero(_minimal(under, True) & under[at.index(ihat)])
    if not below.size:
        raise HypothesisError(
            "strict_domination",
            f"no strict Pareto minimum of the {xhat!r} slice sits below the "
            "engine value")
    ihat = at[below[0]]
    yhat = pi.graph[ihat][1]
    cover, separation = _graph_conclusions(pi, grid, ihat, start,
                                           exclude_label_only=False)
    conclusions = [
        Conclusion("a", cover.holds, {**cover.witness,
                                      "slice_strict_minimum": True}),
        separation,
    ]
    assumptions["slice_strict_domination"] = slice_report
    return Certificate("5.2", xhat, conclusions, assumptions, trace,
                       yhat=yhat)


def solve_pareto_evp(pi: ProductInstance, k0, epsilon, lam, mode="greedy"):
    """Single-direction pair map with the global escape premise; returns the
    strict-minimal certificate extended with the distance bound."""
    k0 = as_point(k0, pi.cone.dim)
    check_positive("epsilon", epsilon)
    check_positive("lambda", lam)
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
