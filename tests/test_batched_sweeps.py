"""The batched sweeps against query-by-query loops.

``relation_matrix``, ``ti_check``, the triangle sweep of
``validate_fmap`` and the graph order of ``_graph_oracle`` screen whole
stacks of membership queries at once, and so do the start section
(``start_section``), the certificate conclusions of each solve
(``_order_conclusions``, ``_graph_conclusions``), the premises and the
separation checks of the hypothesis gate. The loops below ask the same questions one
``minkowski_member`` call (or one vertex minimum) at a time, in the same
order; the batched code must return the same matrices, witnesses and
conclusions, and must never run more phase-1 LPs than the loops.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from evpkit import geometry, instances, product, scalarize, solvers
from evpkit.errors import HypothesisError, InputError, PremiseError
from evpkit.geometry import (DEFAULT_TOL, LinearFunctional, Polytope,
                             as_point, cone, cone_contains, covered_queries,
                             lp_member, minkowski_member, orthant,
                             screen_members,
                             singleton, stack_rows,
                             strictly_positive_functional)
from evpkit.instances import (OPEN, ExtensionalFamily, FiniteInstance,
                              MetricSpace, OpenPolytopeFamily, OrderGrid,
                              PolytopeDirection, QuasiMetric,
                              QuasiMetricDirection, SetValuedMap,
                              SingletonDirection, _pairwise_separation,
                              _uniform_separation, eps_h_efficient,
                              _BLOCK_QUERIES, order_arrays, order_grid,
                              preceq,
                              facet_tables, facet_verdicts, relation_matrix,
                              settled_triples, ti_check, tie_conditions,
                              triangle_failure, vertex_bounds, vertex_minima)
from evpkit.product import (FMap, ProductInstance, _graph_conclusions,
                            _graph_oracle, _pair_index,
                            anchored_values, domination_check,
                            fmap_from_rate, graph_arrays,
                            pareto_min,
                            prec_f,
                            prec_fstar, solve_minimal_point, solve_pareto_evp,
                            solve_strict_minimal, strict_pareto_min,
                            validate_fmap, zeta)
from evpkit.scalarize import GerstewitzFn, gz_bisect_oracle
from evpkit.solvers import (Conclusion, _order_conclusions,
                            _pointwise_premise, solve_evp_general,
                            solve_evp_quasimetric, solve_evp_set_direction)

from conftest import (direction_polytope, generated_bundle, highs_margin,
                      random_cone, sample_cone_member)
import triangle_reference
from evpkit.io import generate, load_validate

KINDS = ("singleton", "polytope", "open_polytope", "quasimetric",
         "extensional")


# ---------------------------------------------------------------------------
# Query-by-query reference loops.
# ---------------------------------------------------------------------------

def loop_relation_matrix(inst, fam):
    labels = inst.labels
    return np.array([[preceq(inst, fam, x2, x1) for x1 in labels]
                     for x2 in labels])


def screen_order_queries(inst, arrays, x2s, x1s, witness=True):
    """``order_queries`` as it was before its facet pass, kept verbatim
    apart from its name and this docstring: every query of the pairs is one
    ``covered_queries`` stack, screen then LP."""
    S, V, nv, B, nb = arrays[:5]
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


def open_grid(inst, arrays):
    """An ``OrderGrid`` over ``arrays`` with every cell ``OPEN``: a stack
    that reads it asks all the rows it reads of a column as one re-ask
    (``instances._ask_column``), as the stacks did before they read the
    grid of their solve."""
    n = len(arrays[3])
    return OrderGrid(inst, arrays, np.full((n, n), OPEN))


def on_open_grid(stack, at):
    """The order stack ``stack`` (``_order_conclusions``,
    ``graph_oracle_matrix``, ``start_section`` or
    ``_graph_conclusions``) given the arrays in the place of its grid,
    argument ``at``, and run on a fresh ``open_grid`` over them: it asks
    every pair it reads, each column read as one ``instances._ask_column``
    stack."""
    def run(*args):
        return stack(*args[:at], open_grid(args[0], args[at]),
                     *args[at + 1:])
    run.__name__ = stack.__name__
    return run


def as_cells(reference):
    """An order stack ``reference`` over pair lists that returns ``(first,
    lam, row)``, as the old ``order_queries`` did, returning instead each
    pair's first uncovered query as its cell ``lam * R + row`` (R the rows
    of the value stack), -1 kept, as the grid holds it."""
    def cells(inst, arrays, x2s, x1s, *args, **kwargs):
        first, lam, row = reference(inst, arrays, x2s, x1s, *args, **kwargs)
        return np.where(first >= 0,
                        lam[first] * arrays[3].shape[1] + row[first], -1)
    return cells


def as_column(reference):
    """An order stack ``reference`` over pair lists (as for ``as_cells``)
    in the place of the column re-ask ``instances._ask_column``: the pairs
    ``(rows[p], j)`` as one stack, with a witness or without, their cells
    returned."""
    cells = as_cells(reference)

    def column(inst, arrays, rows, j, witness):
        return cells(inst, arrays, rows, np.full(len(rows), j),
                     witness=witness)
    return column


def screen_relation_matrix(inst, fam, arrays=None):
    """``relation_matrix`` as it was before its facet pass, kept verbatim
    apart from its name, this docstring and ``screen_order_queries`` in
    place of ``order_queries``: every pair of a block is one stack that
    goes straight to the screen."""
    n = len(inst.labels)
    if arrays is None:
        arrays = order_arrays(inst, fam)
    S, _, _, _, nb, _ = arrays
    step = max(1, _BLOCK_QUERIES // (S.shape[-1] * int(nb.sum())))
    rel = np.zeros((n, n), dtype=bool)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        first, _, _ = screen_order_queries(inst, arrays, np.repeat(rows, n),
                                           np.tile(np.arange(n), len(rows)),
                                           witness=False)
        rel[rows] = (first < 0).reshape(len(rows), n)
    return rel


def loop_ti_check(inst, fam):
    labels, space, C, tol = inst.labels, inst.space, inst.cone, inst.tol
    if fam.kind == "extensional":
        return loop_ti_extensional(inst, fam)
    for x1 in labels:
        for x3 in labels:
            for x2 in labels:
                (_, s12, H) = fam.sets(space, x1, x2)[0]
                (_, s23, _) = fam.sets(space, x2, x3)[0]
                (_, s13, _) = fam.sets(space, x1, x3)[0]
                s = s12 + s23
                if s <= tol and s13 <= tol:
                    continue
                for v in H.vertices:
                    if not minkowski_member(s * v, [np.zeros(C.dim)], s13, H,
                                            C, tol):
                        return False, (x1, x2, x3, "*")
    return True, None


def loop_ti_extensional(inst, fam):
    labels, C, tol = inst.labels, inst.cone, inst.tol
    zero = [np.zeros(C.dim)]

    def search(x1, x2, x3, target):
        for mu in fam.lambdas():
            for nu in fam.lambdas():
                F12 = fam.table[(mu, x1, x2)]
                F23 = fam.table[(nu, x2, x3)]
                if all(minkowski_member(u + v, zero, 1.0, target, C, tol)
                       for u in F12.vertices for v in F23.vertices):
                    return True
        return False

    for lam in fam.lambdas():
        for x1 in labels:
            for x3 in labels:
                target = fam.table[(lam, x1, x3)]
                for x2 in labels:
                    if not search(x1, x2, x3, target):
                        return False, (x1, x2, x3, lam)
    return True, None


def first_uncovered(decided, answer, lp):
    """Index of the first uncovered query of a flat, ordered stack, or None
    (the walk of ``slab_extensional_failure``, once a library helper).

    ``decided``/``answer`` come from ``screen_members``. Undecided
    queries before the first decided failure are settled by ``lp(q)`` in
    order, so no LP runs that a query-by-query loop would have skipped.
    """
    fails = np.flatnonzero(decided & ~answer)
    stop = int(fails[0]) if fails.size else None
    for q in np.flatnonzero(~decided[:stop]):
        if not lp(int(q)):
            return int(q)
    return stop


def slab_ti_extensional(inst, fam):
    """The extensional search with one screen per (index, x1) slab, as it
    was before slabs were screened together (kept verbatim below):
    ``triangle_failure`` walks the same way, so it finds the same witnesses
    with the same LP calls."""
    _, E, counts = fam.arrays(inst.space)
    witness = slab_extensional_failure(fam, inst.space, E, counts, inst.cone,
                                       inst.tol)
    return (True, None) if witness is None else (False, witness)


def slab_extensional_failure(fam, space, E, counts, C, tol):
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


def pair_set(pi, fm, x2, x1):
    """``(scale, polytope)`` of F(x2, x1), the one set of the pair map's
    family at that pair."""
    (_, scale, H), = fm.family.sets(pi.base, x2, x1)
    return scale, H


def loop_fmap_triangle(pi, fm):
    C, tol = pi.cone, pi.tol
    zero = np.zeros(C.dim)
    labels = pi.base.labels
    for x1 in labels:
        for x3 in labels:
            for x2 in labels:
                s12, H12 = pair_set(pi, fm, x1, x2)
                s23, H23 = pair_set(pi, fm, x2, x3)
                s13, H13 = pair_set(pi, fm, x1, x3)
                for u in H12.vertices:
                    for v in H23.vertices:
                        w = s12 * u + s23 * v
                        if s13 <= tol:
                            ok = cone_contains(C, w, tol)
                        else:
                            ok = minkowski_member(w, [zero], s13, H13, C, tol)
                        if not ok:
                            return (x1, x2, x3)
    return None


def loop_graph_order(pi, fm):
    pairs = pi.graph
    return np.array([[prec_fstar(pi, fm, p2, p1) for p1 in pairs]
                     for p2 in pairs])


def loop_conclusion_strict(inst, fam, xhat, name="b"):
    """For every other label some family member separates it from xhat."""
    failures = []
    witnesses = []
    for x in inst.labels:
        if x == xhat:
            continue
        if preceq(inst, fam, x, xhat):
            failures.append(x)
            continue
        for lam, scale, H in fam.sets(inst.space, x, xhat):
            escaped = [
                i for i, y in enumerate(inst.fmap.at(xhat))
                if not minkowski_member(y, inst.fmap.at(x), scale, H,
                                        inst.cone, inst.tol)]
            if escaped:
                witnesses.append({"x": x, "index": lam,
                                  "value_row": escaped[0]})
                break
    return Conclusion(name, not failures,
                      {"violations": failures, "separations": witnesses})


def loop_coverage_conclusion(pi, fm, xhat, yhat):
    """(xhat, yhat) covers the start pair."""
    return Conclusion("a", prec_f(pi, fm, (xhat, yhat), pi.start),
                      {"start_value": pi.y0, "yhat": yhat})


def loop_section_of_start(pi, fm):
    return [p for p in pi.graph if prec_f(pi, fm, p, pi.start)]


def loop_separation_conclusion(pi, fm, xhat, yhat, exclude_label_only, name):
    """No other pair pulls yhat down: for label-only exclusion the quantifier
    skips the whole xhat slice, otherwise only the pair itself."""
    violations = []
    for x, y in pi.graph:
        if exclude_label_only:
            if x == xhat:
                continue
        else:
            if x == xhat and np.array_equal(y, yhat):
                continue
        scale, H = pair_set(pi, fm, x, xhat)
        if minkowski_member(yhat, [y], scale, H, pi.cone, pi.tol):
            violations.append({"x": x, "y": y})
    return Conclusion(name, not violations, {"violations": violations})


def oracle_matrix(oracle):
    """The order matrix of a graph-order oracle, read section by section:
    column j holds the section of pair j, which the oracle reads from its
    grid when it is asked for."""
    n = len(oracle.labels)
    rel = np.zeros((n, n), dtype=bool)
    for j in range(n):
        rel[oracle.section(j), j] = True
    return rel


def graph_oracle_matrix(pi, grid, eta):
    """The order matrix of ``_graph_oracle`` on ``grid``, every column
    read (``oracle_matrix``)."""
    return oracle_matrix(_graph_oracle(pi, grid, eta))


def graph_grid(pi, fm):
    """The order grid a graph solve builds over the pairs of its graph."""
    return order_grid(pi, graph_arrays(pi, fm))


def start_section(pi, grid, start):
    """The mask of the graph pairs that precede the pair at position
    ``start``, as a graph solve reads its start section: the column
    ``start`` of ``grid``, read whole with ``OrderGrid.precedes``."""
    return grid.precedes(start)


def graph_order(pi, fm):
    """``_graph_oracle`` on the grid a graph solve hands it, and its order
    matrix, every column read from that grid."""
    oracle = _graph_oracle(pi, graph_grid(pi, fm), anchored_values(pi, fm.xi))
    return oracle, oracle_matrix(oracle)


def section_of_start(pi, fm):
    return start_section(pi, graph_grid(pi, fm), _pair_index(pi, *pi.start))


def graph_conclusions(pi, fm, xhat, yhat, exclude_label_only):
    """``_graph_conclusions`` of the pair (xhat, yhat) on the grid a graph
    solve hands it, as dicts."""
    return [c.to_dict() for c in _graph_conclusions(
        pi, graph_grid(pi, fm), _pair_index(pi, xhat, yhat),
        _pair_index(pi, *pi.start), exclude_label_only)]


def loop_graph_conclusions(pi, fm, xhat, yhat, exclude_label_only):
    return [loop_coverage_conclusion(pi, fm, xhat, yhat).to_dict(),
            loop_separation_conclusion(pi, fm, xhat, yhat,
                                       exclude_label_only, "b").to_dict()]


def order_conclusions(inst, fam, xhat, x0, grid=None):
    """``_order_conclusions`` on the grid a label solve hands it (built
    here when not given), as dicts."""
    if grid is None:
        grid = order_grid(inst, order_arrays(inst, fam))
    return [c.to_dict() for c in _order_conclusions(inst, fam, grid, xhat,
                                                    x0)]


def loop_order_conclusions(inst, fam, xhat, x0):
    return [Conclusion("a", preceq(inst, fam, xhat, x0),
                       {"dominates": x0, "dominated_by": xhat}).to_dict(),
            loop_conclusion_strict(inst, fam, xhat).to_dict()]


def _family_vertex_min(xi, scale, H):
    return float(scale * np.min(H.vertices @ xi.weights))


def loop_pairwise_separation(inst, fam, xi, section):
    tol = inst.tol
    witness = None
    ok = True
    for x in section:
        for xp in section:
            if x == xp:
                continue
            best = -math.inf
            for _, scale, H in fam.sets(inst.space, xp, x):
                best = max(best, _family_vertex_min(xi, scale, H))
            if not best > tol:
                ok = False
                witness = {"pair": [x, xp], "inf": best}
                return ok, ok, witness
    return ok, ok, witness


def loop_uniform_separation(inst, fam, xi):
    space = inst.space
    delta = space.min_positive_distance()
    if not math.isfinite(delta):
        return True, {"delta": None, "inf": math.inf,
                      "note": "no pairs at positive distance"}
    tol = inst.tol
    best_over_lams = -math.inf
    best_witness = None
    for lam in fam.lambdas():
        worst = math.inf
        for x in space.labels:
            for xp in space.labels:
                if space.d(x, xp) < delta:
                    continue
                for l2, scale, H in fam.sets(space, x, xp):
                    if l2 != lam:
                        continue
                    worst = min(worst, _family_vertex_min(xi, scale, H))
        if worst > best_over_lams:
            best_over_lams = worst
            best_witness = {"index": lam, "delta": delta, "inf": worst}
    return best_over_lams > tol, best_witness


def loop_zeta(pi, fm, delta):
    best = math.inf
    base = pi.base
    d = base.dist.tolist()
    for i, x2 in enumerate(base.labels):
        for j, x1 in enumerate(base.labels):
            if d[i][j] < delta:
                continue
            scale, H = pair_set(pi, fm, x2, x1)
            for v in H.vertices:
                best = min(best, fm.xi.value(scale * v))
    return best


def loop_pointwise_premise(inst, x0, epsilon, H):
    """Escape of f(x0) from f(x) + epsilon*H + cone for every single x."""
    for x in inst.labels:
        escapes = any(
            not minkowski_member(y0, inst.fmap.at(x), epsilon, H, inst.cone,
                                 inst.tol)
            for y0 in inst.fmap.at(x0))
        if not escapes:
            raise PremiseError(
                f"every value of f({x0!r}) is covered by "
                f"f({x!r}) + epsilon*H + cone", witness={"x": x})


def loop_eps_h_efficient(inst, x0, epsilon, H):
    all_values = inst.fmap.all_points()
    for y0 in inst.fmap.at(x0):
        if not minkowski_member(y0, all_values, epsilon, H, inst.cone,
                                inst.tol):
            return True, y0
    return False, None


def _below(C, y, ybar, tol):
    """y is below ybar in the cone order: ybar - y in C."""
    return cone_contains(C, np.asarray(ybar, dtype=float) -
                         np.asarray(y, dtype=float), tol)


def loop_pareto_min(B, C, tol=DEFAULT_TOL):
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


def loop_strict_pareto_min(B, C, tol=DEFAULT_TOL):
    """Points of B with no other list member below them (position-wise)."""
    B = [as_point(y, C.dim) for y in B]
    if not B:
        raise InputError("empty point set")
    out = []
    for i, ybar in enumerate(B):
        if all(not _below(C, y, ybar, tol)
               for j, y in enumerate(B) if j != i):
            out.append(ybar)
    return out


def loop_domination_check(B, C, strict=False, tol=DEFAULT_TOL):
    """``(True, None)`` or ``(False, first uncovered point)``."""
    minimals = (loop_strict_pareto_min if strict else loop_pareto_min)(B, C,
                                                                       tol)
    for y in B:
        y = as_point(y, C.dim)
        if not any(_below(C, m, y, tol) for m in minimals):
            return False, y
    return True, None


def batched_fmap_triangle(pi, fm):
    """The triangle witness of validate_fmap, or None when that check
    passes (a later check may still fail)."""
    try:
        validate_fmap(pi, fm)
    except HypothesisError as exc:
        if exc.name == "triangle_inclusion":
            return exc.witness["triple"]
        assert exc.name in ("positive_separation", "additive_scalarization")
    return None


# ---------------------------------------------------------------------------
# Random data: ragged value sets, optional non-metric distances, cones that
# are orthants or random polyhedral cones.
# ---------------------------------------------------------------------------

def _cone(rng, m):
    if rng.random() < 0.5:
        return orthant(m), rng.uniform(0.5, 1.5, size=m)
    return random_cone(rng, m)


def _distances(rng, n, metric):
    coords = rng.uniform(0.0, 3.0, size=(n, 2))
    d = np.linalg.norm(coords[:, None] - coords[None], axis=2)
    if not metric:
        # symmetric, positive off the diagonal, triangle inequality broken
        d = d * rng.uniform(0.3, 1.7, size=(n, n))
        d = np.triu(d, 1) + np.triu(d, 1).T
    return d


def _polytope(rng, C, k0, count, scale=1.0):
    return Polytope([sample_cone_member(rng, C, k0, scale)
                     for _ in range(count)])


def random_instance(rng, n, m, kind, metric=True, ragged=True):
    C, k0 = _cone(rng, m)
    labels = tuple(f"q{i}" for i in range(n))
    d = _distances(rng, n, metric)
    space = MetricSpace(labels, d)
    counts = rng.integers(1, 5, size=n) if ragged else np.full(n, 3)
    fmap = SetValuedMap({lab: rng.normal(size=(int(c), m)) * 1.5
                         for lab, c in zip(labels, counts)})
    inst = FiniteInstance(space, fmap, C)
    rate = float(rng.uniform(0.3, 1.2))
    H = _polytope(rng, C, k0, int(rng.integers(1, 4)))
    if kind in ("polytope", "quasimetric") and rng.random() < 0.3:
        # a vertex outside the cone disables the conv(H) inside C filter
        H = Polytope(np.vstack([H.vertices, -0.3 * k0]))
    if kind == "singleton":
        fam = SingletonDirection(H.vertices[0], rate)
    elif kind == "polytope":
        fam = PolytopeDirection(H, rate)
    elif kind == "open_polytope":
        fam = OpenPolytopeFamily(H, rate)
    elif kind == "quasimetric":
        phi = rng.uniform(0.0, 1.0, size=n)
        p = d + np.maximum(phi[None, :] - phi[:, None], 0.0)
        np.fill_diagonal(p, 0.0)
        fam = QuasiMetricDirection(H, QuasiMetric(p))
    else:
        table = {}
        for lam, c in (("L0", 0.1), ("L1", 0.3)):
            for i, x2 in enumerate(labels):
                for j, x1 in enumerate(labels):
                    if i == j:
                        table[(lam, x2, x1)] = Polytope([[0.0] * m])
                        continue
                    table[(lam, x2, x1)] = _polytope(
                        rng, C, k0, int(rng.integers(1, 4)),
                        scale=rate * d[i, j] + c)
        fam = ExtensionalFamily(labels, ("L0", "L1"), table)
    return inst, fam, k0


def random_product(rng, n, m, metric=True, ragged=True, nonlinear=False,
                   vertices=2):
    """Product instance over a random base with a hand-built pair map whose
    vertex lists have 1 to 3 vertices per pair, scaled by the distance (or
    fmap_from_rate over a polytope with ``vertices`` vertices)."""
    inst, _, k0 = random_instance(rng, n, m, "singleton", metric=metric,
                                  ragged=ragged)
    C, space = inst.cone, inst.space
    graph = [(x, y) for x in space.labels for y in inst.fmap.at(x)]
    pi = ProductInstance(tuple(graph), space, graph[0], C)
    xi = (GerstewitzFn(C, k0, pi.tol) if nonlinear
          else LinearFunctional(C.halfspaces.T @ np.ones(C.halfspaces.shape[0])))
    if ragged:
        table = {}
        for i, x2 in enumerate(space.labels):
            for j, x1 in enumerate(space.labels):
                H = _polytope(rng, C, k0, int(rng.integers(1, 4)))
                scale = 0.0 if i == j else float(space.dist[i, j])
                table[("F", x2, x1)] = Polytope(scale * H.vertices)
        return pi, FMap(ExtensionalFamily(space.labels, ("F",), table), xi)
    return pi, fmap_from_rate(space, _polytope(rng, C, k0, vertices), 0.8, xi)


# ---------------------------------------------------------------------------
# Agreement.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_relation_matrix_matches_loop(m, kind):
    rng = np.random.default_rng(1000 * m + KINDS.index(kind))
    for trial in range(3):
        inst, fam, _ = random_instance(rng, n=5, m=m, kind=kind,
                                       metric=trial != 2,
                                       ragged=trial != 1)
        np.testing.assert_array_equal(relation_matrix(inst, fam),
                                      loop_relation_matrix(inst, fam))


def generated_extensional(seed, n, m):
    """A generated extensional instance; its table has one vertex on the
    diagonal and two off it, and it passes the triangle inclusion."""
    bundle = generated_bundle(seed, n=n, m=m, values_per_point=2,
                              variant="extensional")
    return bundle.instance, bundle.family


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ti_check_matches_loop(m):
    """Random tables (ragged, 1 to 3 vertices) mostly fail; generated
    extensional tables (n = 4 to 7) pass, so the search over every index
    pair of every triple is compared too."""
    rng = np.random.default_rng(77 + m)
    outcomes = {True: 0, False: 0}
    for trial in range(20):
        kind = KINDS[trial % 5]
        inst, fam, _ = random_instance(rng, n=6, m=m, kind=kind,
                                       metric=trial % 3 != 0)
        got = ti_check(inst, fam)
        assert got == loop_ti_check(inst, fam), (trial, kind)
        outcomes[got[0]] += 1
    for n in range(4, 8):
        inst, fam = generated_extensional(10 * m + n, n, m)
        got = ti_check(inst, fam)
        assert got == loop_ti_extensional(inst, fam), n
        outcomes[got[0]] += 1
    # the failing branch with its witness and the passing branch were compared
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_validate_fmap_triangle_matches_loop(m):
    """Ragged hand-built maps take the vertex-sum sweep, fmap_from_rate maps
    (16 of 24 trials, 1 to 3 vertices) the shared-polytope sweep."""
    rng = np.random.default_rng(500 + m)
    failures = {True: 0, False: 0}
    for trial in range(24):
        ragged = trial < 10 and trial % 5 != 0
        pi, fm = random_product(rng, n=5, m=m, metric=trial % 2 == 0,
                                ragged=ragged, vertices=1 + trial % 3)
        got = batched_fmap_triangle(pi, fm)
        assert got == loop_fmap_triangle(pi, fm), trial
        failures[ragged] += got is not None
    assert failures[True] > 0 and failures[False] > 0


def test_hand_built_fmap_fails_triangle_inclusion():
    """F(a, b) + F(b, c) = 2 * conv{(1, 0), (0, 1)} does not fit into
    F(a, c) + C = 0.5 * (1, 1) + C: the first failing triple is (a, b, c)."""
    C = orthant(2)
    labels = ("a", "b", "c")
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    space = MetricSpace(labels, d).validate()
    square = Polytope([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    table = {("F", x2, x1): Polytope(2.0 * d[i, j] * square.vertices)
             for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}
    table[("F", "a", "c")] = Polytope([[0.5, 0.5]])
    fm = FMap(ExtensionalFamily(labels, ("F",), table),
              LinearFunctional([1.0, 1.0]))
    graph = (("a", np.zeros(2)), ("b", np.ones(2)), ("c", 2 * np.ones(2)))
    pi = ProductInstance(graph, space, graph[0], C)
    assert loop_fmap_triangle(pi, fm) == ("a", "b", "c")
    with pytest.raises(HypothesisError) as err:
        validate_fmap(pi, fm)
    assert err.value.name == "triangle_inclusion"
    assert err.value.witness == {"triple": ("a", "b", "c")}


def test_negative_self_distance_raises_like_the_loops():
    """A self-distance of -1e-10 fails metric validation; on a space that
    was never validated it gives a negative scale, and every sweep raises
    the loops' InputError."""
    labels = ("a", "b", "c")
    d = np.array([[-1e-10, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    space = MetricSpace(labels, d)
    with pytest.raises(InputError, match="nonzero self-distance at 'a'"):
        space.validate()
    C = orthant(2)
    fmap = SetValuedMap({"a": [[0.0, 0.0], [1.0, 0.5]], "b": [[1.0, 1.0]],
                         "c": [[2.0, 0.0]]})
    inst = FiniteInstance(space, fmap, C)
    H = Polytope([[1.0, 0.0], [0.0, 1.0]])
    fam = PolytopeDirection(H, 0.5)
    for batched, loop in ((ti_check, loop_ti_check),
                          (relation_matrix, loop_relation_matrix)):
        for fn in (batched, loop):
            with pytest.raises(InputError, match="nonnegative"):
                fn(inst, fam)
    graph = tuple((x, y) for x in labels for y in fmap.at(x))
    pi = ProductInstance(graph, space, graph[0], C)
    fm = fmap_from_rate(space, H, 0.5, LinearFunctional([1.0, 1.0]))
    for fn in (lambda: validate_fmap(pi, fm), lambda: graph_order(pi, fm),
               lambda: loop_graph_order(pi, fm)):
        with pytest.raises(InputError, match="nonnegative"):
            fn()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_order_matches_loop(m):
    rng = np.random.default_rng(900 + m)
    for trial in range(6):
        pi, fm = random_product(rng, n=4, m=m, metric=trial % 3 != 2,
                                ragged=trial % 2 == 0,
                                nonlinear=trial % 3 == 1)
        oracle, rel = graph_order(pi, fm)
        np.testing.assert_array_equal(rel, loop_graph_order(pi, fm))
        for j in range(len(pi.graph)):
            assert oracle.successors[j] == list(np.flatnonzero(rel[:, j]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zeta_matches_loop(m):
    """zeta, the masked minimum of vertex_minima, against the per-vertex
    loop: linear and cone scalarizations, ragged and shared-polytope maps,
    at the smallest positive distance, a middle one and one beyond the
    diameter. ``scale * min(xi(V))`` may round otherwise than
    ``min(xi(scale * v))``, by a few ulps, never across ``tol``."""
    rng = np.random.default_rng(1700 + m)
    for trial in range(12):
        pi, fm = random_product(rng, n=5, m=m, metric=trial % 3 != 2,
                                ragged=trial % 2 == 0,
                                nonlinear=trial % 4 >= 2,
                                vertices=1 + trial % 3)
        S, V, _ = fm.family.arrays(pi.base)
        dist = pi.base.dist
        for delta in (pi.base.min_positive_distance(), float(np.median(dist)),
                      2 * dist.max()):
            got = zeta(S, V, fm.xi, dist, delta)
            want = loop_zeta(pi, fm, delta)
            if want == math.inf:
                assert got == math.inf, (trial, delta)
                continue
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
            assert (got > TOL) == (want > TOL), (trial, delta)


def _same_pairs(got, want):
    return len(got) == len(want) and all(p is q for p, q in zip(got, want))


def _premise_outcome(fn, *args):
    try:
        fn(*args)
    except PremiseError as exc:
        return exc.witness
    return None


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conclusion_strict_matches_loop(m):
    """Conclusion (b) of ``_order_conclusions``, every label as xhat, on
    every family kind over ragged value sets and orthant or random cones;
    both violations and separations occur. Conclusion (a) of the same stack,
    with the next label as x0, is preceq's."""
    rng = np.random.default_rng(1300 + m)
    seen = {"violations": 0, "separations": 0}
    for trial in range(10):
        kind = KINDS[trial % 5]
        inst, fam, _ = random_instance(rng, n=5, m=m, kind=kind,
                                       metric=trial % 3 != 2,
                                       ragged=trial % 4 != 1)
        labels = inst.labels
        for k, xhat in enumerate(labels):
            x0 = labels[(k + 1) % len(labels)]
            got = order_conclusions(inst, fam, xhat, x0)
            assert got == loop_order_conclusions(inst, fam, xhat, x0), \
                (trial, kind, xhat)
            for key in seen:
                seen[key] += len(got[1]["witness"][key])
    assert all(seen.values()), seen


@pytest.mark.parametrize("m", [1, 2, 3])
def test_separation_checks_match_loop(m):
    """The pair and uniform separation checks read one vertex-minimum array
    per family index; functionals positive on the cone pass, random ones
    mostly fail, on whole and partial sections."""
    rng = np.random.default_rng(1400 + m)
    outcomes = {True: 0, False: 0}
    for trial in range(15):
        inst, fam, _ = random_instance(rng, n=5, m=m, kind=KINDS[trial % 5],
                                       metric=trial % 3 != 2)
        A = inst.cone.halfspaces
        weights = (A.T @ rng.uniform(0.5, 1.5, size=A.shape[0])
                   if trial % 2 else rng.normal(size=m))
        xi = LinearFunctional(weights)
        S, V, _ = fam.arrays(inst.space)
        minima = vertex_minima(S, V, xi)
        for section in (list(inst.labels),
                        [x for x in inst.labels if rng.random() < 0.6]):
            at = np.array([inst.space.index(x) for x in section], dtype=int)
            got = _pairwise_separation(inst, minima, at)
            assert got == loop_pairwise_separation(inst, fam, xi, section)
            outcomes[got[0]] += 1
        got = _uniform_separation(inst, fam, minima)
        assert got == loop_uniform_separation(inst, fam, xi), trial
        outcomes[got[0]] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_certificates_match_loop(m):
    """The start section and both separation conclusions, over every pair
    as (xhat, yhat), on ragged hand-built maps with 1 to 3 vertices per pair
    and fmap_from_rate maps; violations occur."""
    rng = np.random.default_rng(1500 + m)
    violations = 0
    for trial in range(6):
        pi, fm = random_product(rng, n=4, m=m, metric=trial % 3 != 2,
                                ragged=trial % 2 == 0,
                                nonlinear=trial % 3 == 1,
                                vertices=1 + trial % 3)
        for start in pi.graph[::3]:
            moved = ProductInstance(pi.graph, pi.base, start, pi.cone)
            section = section_of_start(moved, fm)
            assert _same_pairs([p for p, c in zip(moved.graph, section) if c],
                               loop_section_of_start(moved, fm))
        for xhat, yhat in pi.graph:
            for label_only in (True, False):
                got = graph_conclusions(pi, fm, xhat, yhat, label_only)
                assert got == loop_graph_conclusions(pi, fm, xhat, yhat,
                                                     label_only)
                violations += len(got[1]["witness"]["violations"])
    assert violations > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_premises_match_loop(m):
    """The pointwise premise names the same first covered label and the
    global one returns the same first escaping value, at epsilons where
    both hold and fail."""
    rng = np.random.default_rng(1600 + m)
    outcomes = {"pointwise": set(), "global": set()}
    for trial in range(8):
        inst, _, k0 = random_instance(rng, n=5, m=m, kind="singleton",
                                      ragged=trial % 2 == 0)
        H = (singleton(k0) if trial % 3 == 0 else
             Polytope([k0, 0.5 * k0 + 0.1 * rng.uniform(size=m)]))
        for x0 in inst.labels[:2]:
            for eps in (0.05, 0.5, 3.0):
                got = _premise_outcome(_pointwise_premise, inst, x0, eps, H)
                assert got == _premise_outcome(loop_pointwise_premise, inst,
                                               x0, eps, H)
                outcomes["pointwise"].add(got is None)
                ok, y0 = eps_h_efficient(inst, x0, eps, H)
                want_ok, want_y0 = loop_eps_h_efficient(inst, x0, eps, H)
                assert ok == want_ok and (y0 is want_y0 or
                                          np.array_equal(y0, want_y0))
                outcomes["global"].add(ok)
    assert outcomes == {"pointwise": {True, False}, "global": {True, False}}


# ---------------------------------------------------------------------------
# The structural settle of the triangle sweep.
# ---------------------------------------------------------------------------

TOL = 1e-9


def settled_over_triples(S, V, C, tol):
    """``settled_triples`` of every triple (x1, x2, x3) of the ``(n, n)``
    scales ``S``, as ``settled[a, b, c]``."""
    return settled_triples(S[:, :, None] + S[None], S[:, None, :],
                           vertex_bounds(V, C), C, tol)


def pair_map_triangle(pi, fm):
    """``triangle_failure`` on the family arrays of ``fm``, as a label
    triple."""
    hit = triangle_failure(*fm.family.arrays(pi.base), pi.cone, pi.tol)
    return None if hit is None else tuple(pi.base.labels[k] for k in hit[1:])


def screen_covers(S, V, C, tol):
    """``covered[a, b, c]``: the screen of the shared-polytope triangle
    search decides every query of the triple as covered (or the search
    skips it), from one screen_members call per slab x1 = a."""
    origin = np.zeros((1, C.dim))
    out = []
    for a in range(len(S)):
        s = S[a][:, None] + S
        skip = (s <= tol) & (S[a] <= tol)
        decided, answer, _ = geometry.screen_members(
            s[..., None, None, None] * V, origin, S[a][None, :, None, None],
            V, len(V), C, tol)
        out.append(skip | (decided & answer).all(axis=(-2, -1)))
    return np.array(out)


def _line(xs):
    xs = np.asarray(xs, dtype=float)
    return np.abs(xs[:, None] - xs[None, :])


def settle_cases():
    """(name, distances, rate, H, C, quasi-metric or None): knife-edge
    polytopes, large scales, collinear points, metrics broken by less and
    by more than the tolerance, quasi-metrics and vertices outside C."""
    rng = np.random.default_rng(2024)
    C2 = orthant(2)
    C3, k0 = random_cone(rng, 3)
    coords = rng.uniform(0.0, 3.0, size=(6, 2))
    d = np.linalg.norm(coords[:, None] - coords[None], axis=2)
    broken = _line([0.0, 1.0, 2.0, 3.5])
    broken[0, 2] = broken[2, 0] = 2.0 + TOL / 2
    worse = _line([0.0, 1.0, 2.0, 3.5])
    worse[0, 2] = worse[2, 0] = 2.0 + 10 * TOL
    phi = rng.uniform(0.0, 1.0, size=6)
    quasi = d + np.maximum(phi[None, :] - phi[:, None], 0.0)
    np.fill_diagonal(quasi, 0.0)
    out_of_cone = Polytope([sample_cone_member(rng, C3, k0), -0.3 * k0])
    # S[i, j] = 0.6 tol for i < j: an increasing triple has s13 <= tol, so
    # the screen asks (s12 + s23) v = 1.2 tol v in C, which fails for v
    # outside C although (s12 + s23 - s13) v is within tol of C
    tiny = np.triu(np.full((4, 4), 0.6 * TOL), 1)
    return [
        ("knife-zero", d, 0.7, Polytope([[1.0, 0.0], [0.0, 1.0]]), C2, None),
        ("knife-half-tol", d, 0.7,
         Polytope([[1.0, -TOL / 2], [-TOL / 2, 1.0]]), C2, None),
        ("knife-tol", d, 1.0, Polytope([[1.0, -TOL], [0.5, 0.5]]), C2, None),
        ("large", 1e3 * d, 1e3,
         Polytope([[1e6, 1e-6], [1e-6, 1e-6]]), C2, None),
        ("small", 1e-3 * d, 1e-3, Polytope([[1e-6, 2e-6]]), C2, None),
        ("collinear", _line([0.0, 1.0, 2.0, 3.0, 5.0]), 0.5,
         Polytope([[1.0, 0.5], [0.2, 1.0]]), C2, None),
        ("collinear-rounded", _line(0.1 * np.arange(7)), 1.3,
         Polytope([sample_cone_member(rng, C3, k0) for _ in range(2)]), C3,
         None),
        ("broken-within-tol", broken, 1.0, Polytope([[1.0, 1.0]]), C2, None),
        ("broken-beyond-tol", worse, 1.0,
         Polytope([[1.0, 0.0], [0.0, 1.0]]), C2, None),
        ("quasimetric", d, 1.0,
         Polytope([sample_cone_member(rng, C3, k0) for _ in range(3)]), C3,
         quasi),
        ("quasimetric-outside", d, 1.0, out_of_cone, C3, quasi),
        ("outside", d, 0.8, out_of_cone, C3, None),
        ("tiny-scales-outside", _line(range(4)), 1.0,
         Polytope([[-1.0, 1.0]]), C2, tiny.T),
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return "InputError", str(exc)


def _settle_problem(d, rate, H, C, quasi):
    """The label-order instance and family, and the graph-order instance
    and fmap_from_rate map, of one settle case."""
    labels = tuple(f"t{i}" for i in range(len(d)))
    space = MetricSpace(labels, d)
    zero = np.zeros(C.dim)
    inst = FiniteInstance(space, SetValuedMap({x: [zero] for x in labels}), C)
    fam = (PolytopeDirection(H, rate) if quasi is None
           else QuasiMetricDirection(H, QuasiMetric(quasi)))
    graph = tuple((x, zero) for x in labels)
    pi = ProductInstance(graph, space, graph[0], C)
    fm = fmap_from_rate(space, H, rate, LinearFunctional(np.ones(C.dim)))
    return inst, fam, pi, fm


@pytest.mark.parametrize("case", settle_cases(), ids=lambda c: c[0])
def test_settle_matches_loops(case):
    """ti_check and the triangle sweep of an fmap_from_rate map give the
    loops' result and witness, and every settled triple is one the screen
    covers."""
    _, d, rate, H, C, quasi = case
    inst, fam, pi, fm = _settle_problem(d, rate, H, C, quasi)
    assert _outcome(ti_check, inst, fam) == _outcome(loop_ti_check, inst, fam)
    S, V, _ = fam.arrays(inst.space)
    settled = settled_over_triples(S[..., 0], V, C, TOL)
    assert not (settled & ~screen_covers(S[..., 0], V, C, TOL)).any()
    if quasi is None:
        got = _outcome(pair_map_triangle, pi, fm)
        assert got == _outcome(loop_fmap_triangle, pi, fm)


def test_settle_cases_settle_and_leave_open():
    """The cases settle every triple where the structural argument holds
    with room for rounding, and leave triples to the screen where it does
    not. A vertex tol/2 outside C settles a triple only while
    (s12 + s23 - s13) tol/2 stays within tol; at scales near 1e12 the
    rounding allowance exceeds tol, so a triple with s12 + s23 close to s13
    is left to the screen."""
    left = {}
    for name, d, rate, H, C, quasi in settle_cases():
        inst, fam, _, _ = _settle_problem(d, rate, H, C, quasi)
        S, V, _ = fam.arrays(inst.space)
        left[name] = int((~settled_over_triples(S[..., 0], V, C,
                                                TOL)).sum())
    for name in ("knife-zero", "small", "collinear", "collinear-rounded",
                 "broken-within-tol", "quasimetric"):
        assert left[name] == 0, name
    for name in ("knife-half-tol", "large"):
        assert 0 < left[name] < 6 ** 3, name
    for name in ("knife-tol", "broken-beyond-tol", "quasimetric-outside",
                 "outside", "tiny-scales-outside"):
        assert left[name] > 0, name


def test_settled_triples_are_screened_covered():
    """Random scale matrices (metric, broken, with negative entries, from
    1e-6 to 1e6) and polytopes (inside C, on its boundary within tol,
    outside it): the screen covers every triple the settle settles."""
    rng = np.random.default_rng(31337)
    counts = {True: 0, False: 0}
    for trial in range(60):
        m = 1 + trial % 3
        n = int(rng.integers(2, 7))
        C, k0 = _cone(rng, m)
        S = _distances(rng, n, metric=trial % 2 == 0)
        S = S * 10.0 ** rng.uniform(-6, 6)
        if trial % 5 == 0:
            S[rng.integers(n), rng.integers(n)] *= -1
        if trial % 7 == 0:
            S[rng.integers(n), rng.integers(n)] += rng.choice([-1, 1]) * TOL
        V = np.array([sample_cone_member(rng, C, k0)
                      for _ in range(int(rng.integers(1, 4)))])
        V = V * 10.0 ** rng.uniform(-6, 6)
        if trial % 3 == 1:
            V = np.vstack([V, -0.3 * k0])
        elif trial % 3 == 2:
            # a vertex on the cone's boundary, off by a fraction of tol
            row = C.halfspaces[0]
            V[0] -= (row @ V[0] + rng.uniform(0, TOL)) * row / (row @ row)
        settled = settled_over_triples(S, V, C, TOL)
        assert not (settled & ~screen_covers(S, V, C, TOL)).any(), trial
        counts[True] += int(settled.sum())
        counts[False] += int((~settled).sum())
    assert counts[True] > 0 and counts[False] > 0


def test_negative_scale_raises_past_settled_slabs():
    """A scale of -1e-10 in the last row of a hand-built quasi-metric family
    raises as in the loop, after the earlier x1 were settled: the triples
    before (c, b, a) in that row are covered."""
    C = orthant(2)
    labels = ("a", "b", "c")
    p = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    p[0, 2] = -1e-10    # S = p.T, so F(c, a) has scale -1e-10
    inst = FiniteInstance(MetricSpace(labels, np.abs(p)),
                          SetValuedMap({x: [[0.0, 0.0]] for x in labels}), C)
    fam = QuasiMetricDirection(Polytope([[1.0, 0.0], [0.0, 1.0]]),
                               QuasiMetric(p))
    S, V, _ = fam.arrays(inst.space)
    settled = settled_over_triples(S[..., 0], V, C, TOL)
    assert settled[:2].all() and not settled[2].all()
    for fn in (ti_check, loop_ti_check):
        with pytest.raises(InputError, match="nonnegative"):
            fn(inst, fam)


@pytest.mark.parametrize("variant", ["singleton", "polytope", "open_polytope",
                                     "quasimetric"])
def test_generated_instances_need_no_screen(monkeypatch, variant):
    """The load-time invariants of generated instances (H in C, a metric or
    quasi-metric) settle every triple: the sweep screens no x1."""
    for seed in (3, 4):
        bundle = generated_bundle(seed, n=16, m=1 + seed % 3, variant=variant)
        calls, got = _calls(monkeypatch, instances, "screen_members",
                            ti_check, bundle.instance, bundle.family)
        assert got == (True, None) and calls == 0, (seed, calls)


def test_non_metric_instance_is_screened(monkeypatch):
    """Distances that break the triangle inequality leave triples open: the
    search screens exactly the pairs (x3, x2) that settled_triples leaves
    open, one call per x1 slab that holds one, up to the witness's slab,
    and the witness is one of them."""
    rng = np.random.default_rng(8)
    inst, fam, _ = random_instance(rng, n=6, m=2, kind="polytope",
                                   metric=False)
    arrays = fam.arrays(inst.space)
    calls, hit, got = _screened(monkeypatch, arrays, ti_check, inst, fam)
    S, V, _ = arrays
    n = len(S)
    settled = settled_over_triples(S[..., 0], V, inst.cone, inst.tol)
    last = n if got[0] else inst.labels.index(got[1][0])
    opened = [[(0, a, c, b) for c, b in itertools.product(range(n), repeat=2)
               if not settled[a, b, c]] for a in range(n) if a <= last]
    assert calls == [pairs for pairs in opened if pairs]
    assert calls and got == loop_ti_check(inst, fam)
    assert got[0] or hit in calls[-1]


# ---------------------------------------------------------------------------
# The endpoint check of shared polytopes: excess_settles.
# ---------------------------------------------------------------------------

def _excess_case(rng, trial):
    """(S, excess, V, C) for one trial: the scales of a metric, of a broken
    one, of a line with one pair c tol off (an excess near c tol, |c| <= 2)
    or with a diagonal of c tol (an excess near -c tol), from 1e-6 to 1e6;
    the excess as found, as a validated space keeps it (``rate`` times the
    distances' excess) or None; vertices inside C, within tol outside it or
    far outside it."""
    m = 1 + trial % 3
    n = int(rng.integers(3, 7))
    C, k0 = _cone(rng, m)
    rate = 10.0 ** rng.uniform(-6, 6)
    kind = trial % 4
    d = (_line(np.sort(rng.uniform(0.0, 3.0, size=n))) if kind >= 2
         else _distances(rng, n, metric=kind != 1))
    S = rate * d
    if kind == 2:
        S[0, 2] = S[2, 0] = S[0, 1] + S[1, 2] + rng.uniform(-2, 2) * TOL
    elif kind == 3:
        np.fill_diagonal(S, rng.uniform(0.0, 2.0) * TOL)
    V = np.array([sample_cone_member(rng, C, k0)
                  for _ in range(int(rng.integers(1, 4)))])
    V = V * 10.0 ** rng.uniform(-6, 6) / max(rate, 1.0)
    if trial % 3 == 1:
        row = C.halfspaces[0]
        V[0] -= (row @ V[0] + rng.uniform(0, TOL)) * row / (row @ row)
    elif trial % 7 == 2:
        V = np.vstack([V, -0.3 * k0])
    how = trial % 3
    if how == 0:
        excess = None
    elif how == 1 or kind >= 2:
        excess = instances._worst_triangle(S)[1]
    else:
        excess = rate * instances._worst_triangle(d)[1]
    return S, excess, V, C


def test_excess_settles_only_where_every_triple_settles():
    """Whenever the two endpoints settle, settled_triples settles every
    triple (x1, x2, x3): metric and broken scales, excesses near +-tol,
    magnitudes 1e-6 to 1e6, vertices inside C and within tol outside it."""
    rng = np.random.default_rng(3131)
    verdicts = {True: 0, False: 0}
    for trial in range(600):
        S, excess, V, C = _excess_case(rng, trial)
        settles = instances.excess_settles(S, excess, vertex_bounds(V, C),
                                           C, TOL)
        if settles:
            assert settled_over_triples(S, V, C, TOL).all(), trial
        verdicts[settles] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_excess_settles_needs_nonnegative_finite_scales():
    """A negative, an infinite or a NaN scale leaves the triples to the
    sweep whatever excess is given."""
    C = orthant(2)
    V = np.array([[1.0, 0.5]])
    S = _line([0.0, 1.0, 2.0])
    assert instances.excess_settles(S, 0.0, vertex_bounds(V, C), C, TOL)
    for at, value in (((0, 0), -1e-300), ((0, 2), np.inf), ((1, 2), np.nan)):
        bad = S.copy()
        bad[at] = value
        for excess in (None, 0.0):
            assert not instances.excess_settles(bad, excess,
                                                vertex_bounds(V, C), C, TOL)


def _reference_outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return "InputError", str(exc)
    except HypothesisError as exc:
        return exc.name, exc.witness


def _reference_cases():
    """Label-order instances and families of the four shared kinds, metric
    and broken, the settle cases and generated instances."""
    rng = np.random.default_rng(4242)
    cases = [random_instance(rng, n=int(rng.integers(3, 7)), m=1 + t % 3,
                             kind=KINDS[t % 4], metric=t % 3 != 2)[:2]
             for t in range(24)]
    cases += [_settle_problem(*case[1:])[:2] for case in settle_cases()]
    for seed in range(6):
        bundle = generated_bundle(seed, n=6, m=1 + seed % 3,
                                  variant=KINDS[seed % 4])
        space = bundle.instance.space
        inst = FiniteInstance(MetricSpace(space.labels, space.dist),
                              bundle.instance.fmap, bundle.instance.cone)
        fam = bundle.family
        if fam.kind == "quasimetric":
            fam = QuasiMetricDirection(fam.H, QuasiMetric(fam.p.mat))
        cases.append((inst, fam))
    return cases


def _kept(inst, fam):
    """Validate the space (and a quasi-metric) of a case in place, so that
    they keep their excess; False when validation rejects them."""
    try:
        inst.space.validate(inst.tol)
        if fam.kind == "quasimetric":
            fam.p.validate(inst.tol)
    except InputError:
        return False
    return True


def test_search_with_excess_equals_the_reference(monkeypatch):
    """ti_check and validate_fmap give the results, witnesses and _phase1
    counts of the search before it read the excess (kept verbatim in
    ``triangle_reference``), with the excess found in the call and with
    the excess a validated space or quasi-metric keeps."""
    reference = triangle_reference.triangle_failure

    def reference_ti(inst, fam):
        hit = reference(*fam.arrays(inst.space), inst.cone, inst.tol)
        if hit is None:
            return True, None
        labels = inst.labels
        return False, tuple(labels[k] for k in hit[1:]) + ("*",)

    def reference_fmap(pi, fm):
        with monkeypatch.context() as patch:
            patch.setattr(product, "triangle_failure",
                          lambda S, V, nv, C, tol, excess: reference(
                              S, V, nv, C, tol))
            return _reference_outcome(validate_fmap, pi, fm)

    kept = settled = 0
    cases = _reference_cases()
    for inst, fam in cases:
        graph = tuple((x, y) for x in inst.labels for y in inst.fmap.at(x))
        pi = ProductInstance(graph, inst.space, graph[0], inst.cone)
        fm = FMap(fam, LinearFunctional(inst.cone.halfspaces.sum(axis=0)))
        for _ in range(2):
            for fn, ref, args in ((ti_check, reference_ti, (inst, fam)),
                                  (validate_fmap, reference_fmap, (pi, fm))):
                lps, got = _lp_calls(monkeypatch, _reference_outcome, fn,
                                     *args)
                lps_ref, want = _lp_calls(monkeypatch, _reference_outcome,
                                          ref, *args)
                assert got == want and lps == lps_ref, (got, want)
            if not _kept(inst, fam):
                break
            kept += 1
        S, V, _ = fam.arrays(inst.space)
        settled += instances.excess_settles(
            S[..., 0], fam._excess(inst.space),
            vertex_bounds(V, inst.cone), inst.cone, inst.tol)
    assert kept > 10 and 10 < settled < len(cases), (kept, settled)


def test_writing_into_the_given_matrix_changes_nothing():
    """A space and a quasi-metric keep read-only copies of their matrices:
    breaking the triangle inequality in the caller's array after validate
    changes neither ``dist`` (or ``mat``) nor the verdict, which a family
    on the broken matrix does not share."""
    C = orthant(2)
    labels = ("a", "b", "c", "d")
    d = _line([0.0, 1.0, 2.0, 3.0])
    space = MetricSpace(labels, d).validate()
    p = d.copy()
    quasi = QuasiMetric(p).validate()
    inst = FiniteInstance(space, SetValuedMap({x: [[0.0, 0.0]]
                                               for x in labels}), C)
    H = Polytope([[1.0, 0.0], [0.0, 1.0]])
    families = (PolytopeDirection(H, 0.5), QuasiMetricDirection(H, quasi))
    before = [ti_check(inst, fam) for fam in families]
    assert before == [(True, None)] * 2
    d[0, 3] = d[3, 0] = p[3, 0] = 10.0
    assert space.dist[0, 3] == 3.0 and quasi.mat[3, 0] == 3.0
    assert [ti_check(inst, fam) for fam in families] == before
    for held in (space.dist, quasi.mat):
        with pytest.raises(ValueError):
            held[0, 1] = 5.0
    broken = FiniteInstance(MetricSpace(labels, d), inst.fmap, C)
    assert not ti_check(broken, families[0])[0]
    assert not ti_check(inst, QuasiMetricDirection(H, QuasiMetric(p)))[0]


def test_validated_shared_searches_settle_nothing(monkeypatch):
    """Generated instances of the four shared kinds, loaded: the search
    settles them from the kept excess, calling settled_triples and
    _worst_triangle for no block."""
    for seed in range(8):
        bundle = generated_bundle(seed, n=12, m=1 + seed % 3,
                                  variant=KINDS[seed % 4])
        for name in ("settled_triples", "_worst_triangle"):
            calls, got = _calls(monkeypatch, instances, name, ti_check,
                                bundle.instance, bundle.family)
            assert got == (True, None) and calls == 0, (seed, name)


# ---------------------------------------------------------------------------
# Work: the sweeps never run more phase-1 LPs than the loops.
# ---------------------------------------------------------------------------

def _calls(monkeypatch, owner, name, fn, *args):
    """How often ``fn(*args)`` calls ``owner.name``, and its result."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*a, **kw):
        calls[0] += 1
        return original(*a, **kw)

    monkeypatch.setattr(owner, name, counted)
    try:
        result = fn(*args)
    finally:
        monkeypatch.setattr(owner, name, original)
    return calls[0], result


def _lp_calls(monkeypatch, fn, *args):
    return _calls(monkeypatch, geometry, "_phase1", fn, *args)


def loop_slab_queries(S, V, x):
    """The queries of the slabs (index, x1 = x) of the triangle search, one
    at a time, over (x3, x2, (mu, nu), vertex): (s12 + s23) v for each
    vertex v of a shared polytope, else the vertex sums s12 u + s23 v of the
    padded stacks, u of F_mu(x1, x2) and v of F_nu(x2, x3)."""
    n, _, L = S.shape
    Y = []
    for c, b, mu, nu in itertools.product(range(n), range(n), range(L),
                                          range(L)):
        s12, s23 = S[x, b, mu], S[b, c, nu]
        if V.ndim == 2:
            Y.append([(s12 + s23) * v for v in V])
        else:
            Y.append([s12 * u + s23 * v for u in V[x, b, mu]
                      for v in V[b, c, nu]])
    return np.array(Y).reshape(n, n, L * L, -1, V.shape[-1])


def screened_pairs(arrays):
    """The (index, x1, x3, x2) pairs of the search arrays, keyed by what one
    row of a screen_members call holds for each: the bytes of its queries
    (:func:`loop_slab_queries`), its scale s13, and the bytes of its target
    (None for a shared polytope); -0.0 is read as 0.0."""
    S, V, _ = arrays
    n, _, L = S.shape
    pairs = {}
    for x in range(n):
        Y = loop_slab_queries(S, V, x) + 0.0
        for lam, c, b in itertools.product(range(L), range(n), range(n)):
            target = None if V.ndim == 2 else (V[x, c, lam] + 0.0).tobytes()
            pairs.setdefault((Y[c, b].tobytes(), float(S[x, c, lam]),
                              target), []).append((lam, x, c, b))
    return pairs


def _screened(monkeypatch, arrays, fn, *args):
    """What ``fn(*args)`` screens in its triangle search on ``arrays``: the
    (index, x1, x3, x2) pairs each screen_members call holds, one list per
    call in call order; the search's failing pair in that form, or None;
    and the result. The screened pairs must come in walk order, each after
    the one before: a row whose inputs several pairs share (over symmetric
    scales, x1 and x3 swapped) is read as the first of them after the
    previous row's pair."""
    V = arrays[1]
    pairs = screened_pairs(arrays)
    calls, hits, last = [], [], [(-1,)]
    search = instances.triangle_failure

    def recording(Y, B, s13, target, *rest):
        assert target is V if V.ndim == 2 else target.shape[1:3] == (1, 1)
        calls.append([])
        for p in range(len(Y)):
            found = pairs.get(((Y[p] + 0.0).tobytes(), float(s13[p, 0, 0]),
                               None if V.ndim == 2 else
                               (target[p, 0, 0] + 0.0).tobytes()), [])
            later = sorted(pair for pair in found if pair > last[0])
            assert later, (np.shape(Y), p, found, last[0])
            last[0] = later[0]
            calls[-1].append(later[0])
        return screen_members(Y, B, s13, target, *rest)

    def searching(*a, **kw):
        hit = search(*a, **kw)
        hits.append(None if hit is None else (hit[0], hit[1], hit[3], hit[2]))
        return hit

    monkeypatch.setattr(instances, "screen_members", recording)
    for owner in (instances, product):
        monkeypatch.setattr(owner, "triangle_failure", searching)
    try:
        result = fn(*args)
    finally:
        monkeypatch.setattr(instances, "screen_members", screen_members)
        for owner in (instances, product):
            monkeypatch.setattr(owner, "triangle_failure", search)
    assert len(hits) <= 1
    return calls, hits[0] if hits else None, result


def walked(calls, hit):
    """The screened pairs of :func:`_screened` in call order, up to the
    failing pair ``hit`` when it was screened."""
    flat = [pair for call in calls for pair in call]
    return flat[:flat.index(hit) + 1] if hit in flat else flat


def test_sweeps_never_run_more_lps_than_loops(monkeypatch):
    rng = np.random.default_rng(4242)
    totals = {"batched": 0, "loop": 0}
    for trial in range(12):
        m = 1 + trial % 3
        kind = KINDS[trial % 5]
        inst, fam, _ = random_instance(rng, n=5, m=m, kind=kind,
                                       metric=trial % 4 != 3)
        for batched, loop in ((relation_matrix, loop_relation_matrix),
                              (ti_check, loop_ti_check)):
            nb, got = _lp_calls(monkeypatch, batched, inst, fam)
            nl, want = _lp_calls(monkeypatch, loop, inst, fam)
            assert np.array_equal(got, want) if batched is relation_matrix \
                else got == want
            assert nb <= nl, (trial, kind, batched.__name__, nb, nl)
            totals["batched"] += nb
            totals["loop"] += nl
        if trial < 8:
            inst, fam = generated_extensional(trial, 4 + trial % 4, m)
            nb, got = _lp_calls(monkeypatch, ti_check, inst, fam)
            nl, want = _lp_calls(monkeypatch, loop_ti_extensional, inst, fam)
            assert got == want and nb <= nl, (trial, nb, nl)
            totals["batched"] += nb
            totals["loop"] += nl
        # the conclusions read a label solve's grid of the order
        grid = order_grid(inst, order_arrays(inst, fam))
        for xhat in inst.labels[:3]:
            x0 = inst.labels[-1]
            nb, got = _lp_calls(monkeypatch, order_conclusions, inst, fam,
                                xhat, x0, grid)
            nl, want = _lp_calls(monkeypatch, loop_order_conclusions, inst,
                                 fam, xhat, x0)
            assert got == want and nb <= nl, (trial, nb, nl)
            totals["batched"] += nb
            totals["loop"] += nl
        pi, fm = random_product(rng, n=4, m=m, metric=trial % 2 == 0)
        xhat, yhat = pi.graph[-1]
        # the start section and the graph conclusions ask each pair's one
        # query once, as the loops do; the facets take some of the loops'
        # LPs from them
        for batched, loop in (
                (batched_fmap_triangle, loop_fmap_triangle),
                (lambda p, f: graph_order(p, f)[1], loop_graph_order),
                (section_of_start, loop_section_of_start),
                (lambda p, f: graph_conclusions(p, f, xhat, yhat, True),
                 lambda p, f: loop_graph_conclusions(p, f, xhat, yhat, True)),
                (lambda p, f: graph_conclusions(p, f, xhat, yhat, False),
                 lambda p, f: loop_graph_conclusions(p, f, xhat, yhat,
                                                     False))):
            nb, _ = _lp_calls(monkeypatch, batched, pi, fm)
            nl, _ = _lp_calls(monkeypatch, loop, pi, fm)
            assert nb <= nl, (trial, nb, nl)
            totals["batched"] += nb
            totals["loop"] += nl
    assert totals["loop"] > 0  # the LP fallback was exercised


def facet_open_pairs(inst, fam):
    """The (index, x1) slabs of a table, in walk order, that hold a pair
    ``facet_verdicts`` leaves open before their first dead pair, each with
    those open pairs as (index, x1, x3, x2) in walk order, up to the first
    slab whose first dead pair has no open pair before it (a failure the
    facets decide); and that slab, or None."""
    S, V, nv = fam.arrays(inst.space)
    n, _, L = S.shape
    tables = facet_tables(S, S[..., None, None] * V, nv, inst.cone, inst.tol)
    covered, dead = facet_verdicts(tables, (slice(0, L), slice(0, n)))
    opened = {}
    for slab in itertools.product(range(L), range(n)):
        pairs = list(zip(covered[slab].ravel(), dead[slab].ravel()))
        stop = next((p for p, (_, d) in enumerate(pairs) if d), len(pairs))
        open_ = [(*slab, *divmod(p, n)) for p, (c, d) in enumerate(pairs)
                 if p < stop and not c]
        if open_:
            opened[slab] = open_
        elif stop < len(pairs):
            return opened, slab
    return opened, None


def _screened_tables(monkeypatch):
    """For failing random tables and passing generated ones at n = 3 to 8:
    n, whether the table is generated, what ti_check screens
    (:func:`_screened`: the pairs of each call and the failing pair), the
    facets' open pairs and failing slab (:func:`facet_open_pairs`), the
    slabs the search reaches, in walk order up to the one it stops in, and
    whether the table passes."""
    rng = np.random.default_rng(61)
    out = []
    for n in range(3, 9):
        for generated, (inst, fam) in (
                (False, random_instance(rng, n=n, m=1 + n % 3,
                                        kind="extensional")[:2]),
                (True, generated_extensional(n, n, 1 + n % 3))):
            calls, hit, (ok, _) = _screened(
                monkeypatch, fam.arrays(inst.space), ti_check, inst, fam)
            slabs = list(itertools.product(range(len(fam.lambdas())),
                                           range(n)))
            stop = len(slabs) if ok else slabs.index(hit[:2]) + 1
            opened, failed = facet_open_pairs(inst, fam)
            assert failed is None or slabs[stop - 1] <= failed
            out.append((n, generated, calls, hit, opened, failed,
                        slabs[:stop], ok))
    assert {ok for *_, ok in out} == {True, False}
    return out


@pytest.mark.parametrize("budget", [None, 1])
def test_extensional_search_screens_each_reached_slab_alone(monkeypatch,
                                                            budget):
    """Whatever the block budget, a search screens only the facet-open
    pairs of each slab the walk reaches, before the slab's first dead pair,
    in walk order, and no slab after the one it stops in: at the default
    budget each slab's open pairs in one call, at a budget of one query
    each pair alone, up to the failing pair. The facet test decides every
    triple of the generated passing tables, so their searches screen
    nothing. The random table at n = 4 leaves two slabs open before the
    facets' failing one, and its search stops in the first: it screens
    one."""
    if budget is not None:
        monkeypatch.setattr(instances, "_TRIANGLE_QUERIES", budget)
    screened_total = unreached = decided_total = 0
    for n, generated, calls, hit, opened, failed, reached, ok in (
            _screened_tables(monkeypatch)):
        want = [opened[s] for s in reached if s in opened]
        if budget is None:
            assert calls == want, (n, calls, want)
        else:
            assert calls == [[p] for p in walked(want, hit)], (n, calls)
        assert hit is None or hit[:2] == reached[-1]
        if generated:
            assert ok and opened == {} and calls == []
            continue
        screened = {pair[:2] for call in calls for pair in call}
        if n == 4:
            assert len(screened) == 1 and not ok
            assert len([s for s in opened if s < failed]) == 2
        screened_total += len(screened)
        unreached += len([s for s in opened
                          if (failed is None or s < failed)
                          and s not in reached])
        decided_total += len(set(reached) - set(opened))
    assert screened_total > 0 and unreached > 0 and decided_total > 0


@pytest.mark.parametrize("budget", [1, 50, 1 << 20])
def test_triangle_search_blocks_change_nothing(monkeypatch, budget):
    """Whatever the block budget, the search returns the same witnesses,
    runs the same _phase1 calls and screens the same pairs, in the same
    order up to the failing pair (:func:`walked`), as with the default one:
    on random tables and families of every kind (non-metric ones are
    screened), passing generated tables, and ragged and shared-polytope
    pair maps."""
    rng = np.random.default_rng(2718)
    cases = []
    for trial in range(10):
        inst, fam, _ = random_instance(rng, n=5, m=1 + trial % 3,
                                       kind=KINDS[trial % 5],
                                       metric=trial % 2 == 0)
        cases.append((fam.arrays(inst.space), ti_check, inst, fam))
    for n in (4, 6):
        inst, fam = generated_extensional(n, n, 2)
        cases.append((fam.arrays(inst.space), ti_check, inst, fam))
    for trial in range(6):
        pi, fm = random_product(rng, n=4, m=1 + trial % 3,
                                metric=trial % 3 == 0, ragged=trial % 2 == 0)
        cases.append((fm.family.arrays(pi.base), batched_fmap_triangle, pi,
                      fm))

    def outcomes():
        out = []
        for case in cases:
            lps, (calls, hit, result) = _lp_calls(
                monkeypatch, _screened, monkeypatch, *case)
            out.append((lps, walked(calls, hit), hit, result))
        return out

    want = outcomes()
    monkeypatch.setattr(instances, "_TRIANGLE_QUERIES", budget)
    assert outcomes() == want
    results = [result for *_, result in want]
    assert sum(lps for lps, *_ in want) > 0
    assert sum(len(pairs) for _, pairs, *_ in want) > 0
    assert (True, None) in results and None in results
    assert any(r not in ((True, None), None) for r in results)


def test_triangle_screen_holds_at_most_its_budget(monkeypatch):
    """At a budget of 50 queries, no screen_members call of the triangle
    search holds more than 50 queries, or than the L^2 J (shared polytope)
    or L^2 J^2 queries of one pair when a pair alone has more, on
    non-metric families of every kind at n = 6, whose slabs hold 36 pairs
    each; some calls hold several pairs. (A budget below one pair's
    queries screens each pair alone: see
    :func:`test_extensional_search_screens_each_reached_slab_alone`.)"""
    rng = np.random.default_rng(1414)
    held, per_pair = [], [0]

    def recording(Y, *rest):
        held.append((len(Y), math.prod(Y.shape[:-1]), per_pair[0]))
        return screen_members(Y, *rest)

    monkeypatch.setattr(instances, "_TRIANGLE_QUERIES", 50)
    monkeypatch.setattr(instances, "screen_members", recording)
    for trial in range(15):
        inst, fam, _ = random_instance(rng, n=6, m=1 + trial % 3,
                                       kind=KINDS[trial % 5], metric=False)
        S, V, _ = fam.arrays(inst.space)
        L, J = S.shape[2], V.shape[-2]
        per_pair[0] = L * L * (J if V.ndim == 2 else J * J)
        ti_check(inst, fam)
    assert held and all(queries <= max(50, one)
                        for _, queries, one in held), held
    assert any(pairs > 1 for pairs, *_ in held)


HIGHS_BAND = 1e-7


def highs_triple(S, V, nv, C, tol, lam, a, b, c):
    """Whether F_mu(x1, x2) + F_nu(x2, x3) lies in F_lam(x1, x3) + C for
    some (mu, nu), for (x1, x2, x3) = (a, b, c), from the HiGHS margins of
    the real vertex sums (of (s12 + s23) H with a shared H): True, False,
    or None when the deciding margin lies within HIGHS_BAND of -tol. A
    scale s13 at most tol asks the cone alone; a (mu, nu) with s12 + s23
    and s13 at most tol covers."""
    shared = V.ndim == 2
    s13 = S[a, c, lam]
    T = V if shared else V[a, c, lam, :nv[a, c, lam]]
    verdict = False
    for mu, nu in itertools.product(range(S.shape[2]), repeat=2):
        s12, s23 = S[a, b, mu], S[b, c, nu]
        if s12 + s23 <= tol and s13 <= tol:
            return True
        queries = ([(s12 + s23) * v for v in V] if shared else
                   [s12 * u + s23 * v for u in V[a, b, mu, :nv[a, b, mu]]
                    for v in V[b, c, nu, :nv[b, c, nu]]])
        low = min(highs_margin(q, np.zeros((1, len(q))),
                               s13 if s13 > tol else 0.0, T, C)
                  for q in queries)
        if low >= -tol + HIGHS_BAND:
            return True
        if low > -tol - HIGHS_BAND:
            verdict = None
    return verdict


@pytest.mark.parametrize("kind", ["polytope", "extensional"])
def test_triangle_search_matches_highs(kind):
    """ti_check against an LP that shares no code with evpkit, on
    non-metric shared-polytope instances and ragged random tables at n = 3
    to 6, m = 1 to 3: every triple before the witness, in the loop order
    index, x1, x3, x2, has some (mu, nu) with every HiGHS margin at least
    -tol, and the witness has none. A case whose deciding margin lies
    within HIGHS_BAND of -tol is skipped. The instances take tol = 1e-6:
    a triple with x2 = x1 or x2 = x3 has a vertex sum on a target vertex,
    a margin of exactly 0, which would lie in that band at tol = 1e-9."""
    rng = np.random.default_rng(3141 + len(kind))
    checked = before = 0
    outcomes = set()
    for trial in range(24):
        n, m = 3 + trial % 4, 1 + trial % 3
        inst, fam, _ = random_instance(rng, n=n, m=m, kind=kind,
                                       metric=kind == "extensional"
                                       and trial % 2 == 0)
        inst = FiniteInstance(inst.space, inst.fmap, inst.cone, tol=1e-6)
        S, V, nv = fam.arrays(inst.space)
        ok, witness = ti_check(inst, fam)
        hit = None if ok else (fam.lambdas().index(witness[3]),
                               *map(inst.labels.index, witness[:3]))
        verdicts = []
        for lam, a, c, b in itertools.product(range(S.shape[2]), range(n),
                                              range(n), range(n)):
            verdicts.append(highs_triple(S, V, nv, inst.cone, inst.tol,
                                         lam, a, b, c))
            if (lam, a, b, c) == hit:
                break
        if None in verdicts:
            continue
        assert verdicts == [True] * (len(verdicts) - (not ok)) + [False] * (
            not ok), (trial, witness, verdicts)
        checked += 1
        before += len(verdicts) - (not ok)
        outcomes.add(ok)
    assert checked >= 16 and before > 0 and outcomes == {True, False}, (
        checked, before, outcomes)


def settled_reading_vertices(s, s13, V, C, tol):
    """``settled_triples`` as it was when it read ``V`` itself and computed
    ``A V``, ``|A||V|`` and their extremes in every block."""
    A = C.halfspaces
    AV = V @ A.T
    size = np.max(np.abs(V) @ np.abs(A).T)
    r = np.where(s13 > tol, s - s13, s)
    low = np.minimum(r * AV.min(), r * AV.max())
    allowance = (2 * C.dim + 6) * np.finfo(float).eps * (
        (np.abs(s) + np.abs(s13)) * size + tol)
    skip = (s <= tol) & (s13 <= tol)
    return skip | ((s13 >= 0) & (low - allowance >= -tol))


@pytest.mark.parametrize("budget", [1, 100])
def test_shared_search_bounds_vertices_once(monkeypatch, budget):
    """With blocks of one slab or a few, a shared-polytope search takes
    ``vertex_bounds`` once and settles each block as the settle did when it
    read the vertices in every block: the same masks, and the witnesses of
    the default budget."""
    rng = np.random.default_rng(1618)
    cases = [random_instance(rng, n=6, m=1 + t % 3, kind=KINDS[t % 4],
                             metric=t % 3 != 2)[:2] for t in range(12)]
    # a metric at scales where the rounding allowance reaches tol passes,
    # but excess_settles leaves it to the sweep, which walks every slab
    cases += [_settle_problem(*case[1:])[:2] for case in settle_cases()
              if case[0] == "large"]
    want = [ti_check(inst, fam) for inst, fam in cases]
    masks, bounds = [], []
    settle, vertex = instances.settled_triples, instances.vertex_bounds

    def recording(s, s13, b, C, tol):
        masks.append((settle(s, s13, b, C, tol), s, s13))
        return masks[-1][0]

    monkeypatch.setattr(instances, "_TRIANGLE_QUERIES", budget)
    monkeypatch.setattr(instances, "settled_triples", recording)
    monkeypatch.setattr(instances, "vertex_bounds",
                        lambda V, C: bounds.append(V) or vertex(V, C))
    blocks = []
    for (inst, fam), result in zip(cases, want):
        masks.clear(), bounds.clear()
        assert ti_check(inst, fam) == result
        V = fam.arrays(inst.space)[1]
        assert len(bounds) == 1 and bounds[0] is V
        for got, s, s13 in masks:
            assert np.array_equal(got, settled_reading_vertices(
                s, s13, V, inst.cone, inst.tol))
        blocks.append(len(masks))
    assert max(blocks) > 2 and {ok for ok, _ in want} == {True, False}
    assert min(blocks[12:]) > 2, blocks


def test_one_index_table_and_pair_map_search_alike(monkeypatch):
    """An extensional table with one index and the pair map of that table
    are one search: the same witness and the same _phase1 count, on each
    index of failing random tables and of passing generated ones."""
    rng = np.random.default_rng(404)
    outcomes, lps = set(), 0
    for trial in range(8):
        m = 2 + trial % 2
        inst, fam = (random_instance(rng, n=6, m=m, kind="extensional",
                                     metric=trial % 2 == 0)[:2]
                     if trial % 4 else generated_extensional(trial, 5, m))
        labels = inst.labels
        graph = tuple((x, y) for x in labels for y in inst.fmap.at(x))
        pi = ProductInstance(graph, inst.space, graph[0], inst.cone)
        for lam in fam.lambdas():
            one = ExtensionalFamily(labels, (lam,),
                                    {key: P for key, P in fam.table.items()
                                     if key[0] == lam})
            fm = FMap(one, LinearFunctional(np.ones(m)))
            nt, (ok, witness) = _lp_calls(monkeypatch, ti_check, inst, one)
            npair, triple = _lp_calls(monkeypatch, pair_map_triangle, pi, fm)
            assert triple == (None if ok else witness[:3]), (trial, lam)
            assert nt == npair, (trial, lam, nt, npair)
            outcomes.add(ok)
            lps += nt
    assert outcomes == {True, False} and lps > 0, (outcomes, lps)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_extensional_search_matches_slab_search_and_loop(monkeypatch, m):
    """Failing, ragged random tables at n = 3 to 8: the witness is the
    loop's, and the _phase1 count is at most that of the slab-by-slab
    search, which is at most the loop's (the loop tries every index pair on
    the LP, the searches skip those the screen rules out or covers, and the
    facets decide some pairs the slab search sends to the LP)."""
    rng = np.random.default_rng(900 + m)
    lps = {"got": 0, "loop": 0}
    failing = 0
    for trial in range(12):
        inst, fam, _ = random_instance(rng, n=3 + trial % 6, m=m,
                                       kind="extensional",
                                       metric=trial % 3 != 0,
                                       ragged=trial % 4 != 1)
        nb, got = _lp_calls(monkeypatch, ti_check, inst, fam)
        ns, slab = _lp_calls(monkeypatch, slab_ti_extensional, inst, fam)
        nl, want = _lp_calls(monkeypatch, loop_ti_extensional, inst, fam)
        assert got == slab == want, trial
        assert nb <= ns <= nl, (trial, nb, ns, nl)
        failing += not got[0]
        lps["got"] += nb
        lps["loop"] += nl
    assert failing >= 6 and lps["got"] > 0, (failing, lps)


def screen_pair_verdicts(S, V, nv, C, tol):
    """Each pair's verdict by the screen and then the LP, one
    ``covered_queries`` stack per (index, x1) slab with every vertex sum a
    query of its own: masks ``(covered, dead)`` over (index, x1, x3, x2),
    covered when some (mu, nu) has every vertex sum in the target, and dead
    otherwise."""
    n, _, L = S.shape
    SV = S[..., None, None] * V
    origin = np.zeros((1, C.dim))
    covered = np.zeros((L, n, n, n), dtype=bool)
    for lam, x1 in itertools.product(range(L), range(n)):
        # sums over (x3, x2, mu, nu, u, v)
        Y = (SV[x1][None, :, :, None, :, None]
             + SV.transpose(1, 0, 2, 3, 4)[:, :, None, :, None, :])
        x3 = np.broadcast_to(np.arange(n)[:, None, None, None, None, None],
                             Y.shape[:-1]).ravel()
        first = covered_queries(Y.reshape(-1, C.dim), origin, None,
                                S[x1, x3, lam], V[x1, x3, lam],
                                nv[x1, x3, lam], C, tol, np.arange(x3.size))
        member = (first < 0).reshape(Y.shape[:-1])
        covered[lam, x1] = member.all(axis=(-2, -1)).any(axis=(-2, -1))
    return covered, ~covered


def assert_facets_agree_with_screen(S, V, nv, C, tol):
    """Every pair the facet test covers, the screen and the LP cover, and
    every pair it finds dead, they find dead. Returns the number of pairs
    it decides and of pairs of targets it may decide that it leaves
    open."""
    n, _, L = S.shape
    covered, dead = facet_verdicts(
        facet_tables(S, S[..., None, None] * V, nv, C, tol),
        (slice(0, L), slice(0, n)))
    screen_covered, screen_dead = screen_pair_verdicts(S, V, nv, C, tol)
    assert not (covered & ~screen_covered).any()
    assert not (dead & ~screen_dead).any()
    fit = ((S > tol) & (nv <= 2)).transpose(2, 0, 1)[..., None]
    return int((covered | dead).sum()), int((fit & ~covered & ~dead).sum())


def assert_search_matches_slab_and_loop(monkeypatch, inst, fam):
    """``ti_check`` returns the slab search's witness with no more _phase1
    calls, which run no more than the loop's; returns the witness and
    count."""
    nb, got = _lp_calls(monkeypatch, ti_check, inst, fam)
    ns, slab = _lp_calls(monkeypatch, slab_ti_extensional, inst, fam)
    nl, want = _lp_calls(monkeypatch, loop_ti_extensional, inst, fam)
    assert got == slab == want
    assert nb <= ns <= nl, (nb, ns, nl)
    return got, nb


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_facet_search_matches_slab_search(monkeypatch, m):
    """Random tables at n = 3 to 6, ragged (1 to 3 vertices a target) or
    not, over metric and non-metric distances, failing ones included, and
    generated passing ones: the facet search finds the slab search's
    witnesses with its _phase1 counts, and its verdicts agree with the
    screen's."""
    rng = np.random.default_rng(1300 + m)
    outcomes, decided = set(), 0
    for trial in range(8):
        inst, fam, _ = random_instance(rng, n=3 + trial % 4, m=m,
                                       kind="extensional",
                                       metric=trial % 2 == 0,
                                       ragged=trial % 4 != 1)
        cases = [(inst, fam)]
        if m < 4 and trial < 2:
            cases.append(generated_extensional(trial, 4 + trial, m))
        for inst, fam in cases:
            (ok, _), _ = assert_search_matches_slab_and_loop(
                monkeypatch, inst, fam)
            outcomes.add(ok)
            decided += assert_facets_agree_with_screen(
                *fam.arrays(inst.space), inst.cone, inst.tol)[0]
    assert decided > 0 and False in outcomes
    assert outcomes == {True, False} or m == 4


def test_facet_search_mixes_two_and_three_vertex_targets(monkeypatch):
    """Generated tables with a third vertex added to some entries: the
    triples with a three-vertex target go to the screen and the walk, the
    others are decided by facets, and the search is the slab search."""
    rng = np.random.default_rng(3141)
    outcomes = set()
    for trial in range(6):
        m = 2 + trial % 2
        inst, fam = generated_extensional(40 + trial, 4 + trial % 3, m)
        table = dict(fam.table)
        for key, P in fam.table.items():
            if key[1] != key[2] and rng.random() < 0.3:
                mid = P.vertices.mean(axis=0)
                # against the cone's direction a source can leave a target
                grow = rng.uniform(-1.5 if trial % 2 else 0.0, 0.5, size=m)
                table[key] = Polytope(np.vstack([P.vertices, mid + grow]))
        fam = ExtensionalFamily(fam.labels, fam.indices, table)
        nv = fam.arrays(inst.space)[2]
        assert set(np.unique(nv)) == {1, 2, 3}
        (ok, _), _ = assert_search_matches_slab_and_loop(monkeypatch, inst,
                                                         fam)
        outcomes.add(ok)
        decided, _ = assert_facets_agree_with_screen(
            *fam.arrays(inst.space), inst.cone, inst.tol)
        assert decided > 0
    assert outcomes == {True, False}, outcomes


def band_family(rng, n, L, m, tol):
    """A table near the tolerance band: labels on a line, so that F(x1, x2)
    + F(x2, x3) = d(x1, x3) H13 when x2 lies between, with F(x, y) = d(x,
    y) H of a polytope H per index whose 1 to 3 vertices lie 0.1 to 1 tol
    outside a facet of the cone, and most entries shifted 1 to 3 tol off
    that facet, to one side or the other."""
    C, k0 = (orthant(m), None) if rng.random() < 0.5 else random_cone(rng, m)
    A = C.halfspaces
    labels = tuple(f"p{i}" for i in range(n))
    position = rng.permutation(np.sort(rng.uniform(0.0, 3.0, size=n)))
    d = np.abs(position[:, None] - position[None])
    table = {}
    for lam in ("L0", "L1")[:L]:
        row = A[rng.integers(len(A))]
        a = row / (row @ row)           # moves row . y by one unit
        vertices = []
        for _ in range(int(rng.integers(1, 4))):
            for _ in range(100):
                h = (rng.uniform(0.2, 1.5, size=m) if k0 is None
                     else sample_cone_member(rng, C, k0))
                h = h - (row @ h) * a   # on the facet
                if np.all(A @ h >= -1e-12):
                    break
            vertices.append(h - rng.uniform(0.1, 1.0) * tol * a)
        H = np.array(vertices)
        for i, x in enumerate(labels):
            for j, y in enumerate(labels):
                shift = (rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0) * tol
                         * a * (rng.random() < 0.7))
                table[(lam, x, y)] = Polytope(d[i, j] * H + shift if i != j
                                              else shift[None])
    space = MetricSpace(labels, d)
    fmap = SetValuedMap({x: np.zeros((1, m)) for x in labels})
    return (FiniteInstance(space, fmap, C),
            ExtensionalFamily(labels, ("L0", "L1")[:L], table))


def test_facet_search_in_the_tolerance_band(monkeypatch):
    """Tables whose vertices lie 0.1 to 1 tol outside a facet, with vertex
    sums 1 to 3 tol off the targets' facets: the facet test leaves such
    triples open, decides none otherwise than the screen, and the search
    is the slab search."""
    rng = np.random.default_rng(2024)
    opened = decided = 0
    for trial in range(18):
        inst, fam = band_family(rng, 3 + trial % 3, 1 + trial % 2,
                                1 + trial % 3, DEFAULT_TOL)
        assert_search_matches_slab_and_loop(monkeypatch, inst, fam)
        d, o = assert_facets_agree_with_screen(
            *fam.arrays(inst.space), inst.cone, inst.tol)
        decided += d
        opened += o
    assert opened > 0 and decided > 0, (opened, decided)


def test_facet_search_with_zero_and_negative_scales(monkeypatch):
    """Pair maps with zero, sub-tol and negative scales: the targets with
    s13 at most tol go to the screen and the walk, so the search returns
    the witness, or raises the InputError, of a search whose facet test
    decides nothing, with no more _phase1 calls."""
    real = instances.facet_verdicts

    def search(S, V, nv, C, tol):
        try:
            return triangle_failure(S, V, nv, C, tol)
        except InputError as exc:
            return str(exc)

    rng = np.random.default_rng(8080)
    results = []
    for trial in range(24):
        n, m = 3 + trial % 4, 1 + trial % 3
        C, k0 = _cone(rng, m)
        S = rng.uniform(0.0, 2.0, size=(n, n))
        S[rng.random((n, n)) < 0.2] = 0.0
        S[rng.random((n, n)) < 0.1] = 5e-10
        if trial % 2:
            np.fill_diagonal(S, 0.0)
        if trial % 3 == 0:
            S[0, rng.integers(2)] = -0.5    # a target of the first slab
        V, nv = stack_rows([np.array([sample_cone_member(rng, C, k0)
                                      for _ in range(rng.integers(1, 4))])
                            for _ in range(n * n)])
        arrays = (S[..., None], V.reshape(n, n, 1, *V.shape[1:]),
                  nv.reshape(n, n, 1), C, 1e-9)
        lps, got = _lp_calls(monkeypatch, search, *arrays)
        monkeypatch.setattr(instances, "facet_verdicts", lambda t, at: tuple(
            np.zeros_like(x) for x in real(t, at)))
        screened, want = _lp_calls(monkeypatch, search, *arrays)
        assert got == want and lps <= screened, (trial, lps, screened)
        monkeypatch.setattr(instances, "facet_verdicts", real)
        results.append(got)
    assert any(isinstance(r, str) for r in results)
    assert any(isinstance(r, tuple) for r in results)


# ---------------------------------------------------------------------------
# The facet pass of the order stacks against the screen it runs before.
# ---------------------------------------------------------------------------

def assert_order_matches_screen(monkeypatch, inst, fam, budget=None):
    """``relation_matrix`` gives ``screen_relation_matrix``'s order matrix,
    or its InputError text, with its _phase1 count, and so does
    ``loop_relation_matrix``, with no fewer; ``budget`` sets the block size
    of ``relation_matrix`` alone. Returns ``(left, total)``: the number of
    queries the facet pass of ``relation_matrix`` left to
    ``covered_queries``, and the number of queries of the order matrix."""
    left = []
    real = instances.covered_queries

    def counting(Y, *args, **kwargs):
        left.append(len(Y))
        return real(Y, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(instances, "covered_queries", counting)
        if budget is not None:
            mp.setattr(instances, "_BLOCK_QUERIES", budget)
        nb, got = _lp_calls(monkeypatch, _outcome, relation_matrix,
                            inst, fam)
    ns, want = _lp_calls(monkeypatch, _outcome, screen_relation_matrix,
                         inst, fam)
    nl, slow = _lp_calls(monkeypatch, _outcome, loop_relation_matrix,
                         inst, fam)
    assert type(got) is type(want) and np.array_equal(got, want), (got, want)
    assert type(slow) is type(want) and np.array_equal(slow, want)
    assert nb <= ns <= nl, (nb, ns, nl)
    S, _, _, _, counts, _ = order_arrays(inst, fam)
    return sum(left), len(inst.labels) * S.shape[-1] * int(counts.sum())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_facet_pass_matches_screen_and_loop(monkeypatch, m, kind):
    """Random instances of every family kind at n = 4 to 6, ragged value
    sets or not, on metric and non-metric distances, with 1 to 3 vertices
    (a shared polytope sometimes has one more, outside the cone), in one
    block and in blocks of one row: the order matrix and the _phase1 count
    are the screen's, and the facet pass decides some queries."""
    rng = np.random.default_rng(4400 + 10 * m + KINDS.index(kind))
    decided = 0
    for trial in range(4):
        n = 4 + trial % 3
        inst, fam, _ = random_instance(rng, n=n, m=m, kind=kind,
                                       metric=trial % 2 == 0,
                                       ragged=trial != 1)
        sent, total = assert_order_matches_screen(
            monkeypatch, inst, fam, budget=1 if trial == 3 else None)
        decided += total - sent
    assert decided > 0


def band_direction(rng, n, m, tol, count=None):
    """The shared-polytope analogue of ``band_family`` for the order:
    labels on a line at distances |p - q|, and a direction set H (rate 1)
    of ``count`` vertices (1 to 3 when not given) 0.1 to 1 tol outside a
    facet of the cone. Each label p has the value p h, for a point h of
    conv(H), shifted 1 to 3 tol off that facet to one side or the other,
    and a random value; so y - b - d h lies 0 to 6 tol off the facet for
    many pairs."""
    C, k0 = (orthant(m), None) if rng.random() < 0.5 else random_cone(rng, m)
    A = C.halfspaces
    row = A[rng.integers(len(A))]
    a = row / (row @ row)               # moves row . y by one unit
    vertices = []
    for _ in range(count or int(rng.choice([1, 2, 2, 3]))):
        for _ in range(100):
            h = (rng.uniform(0.2, 1.5, size=m) if k0 is None
                 else sample_cone_member(rng, C, k0))
            h = h - (row @ h) * a       # on the facet
            if np.all(A @ h >= -1e-12):
                break
        vertices.append(h - rng.uniform(0.1, 1.0) * tol * a)
    H = np.array(vertices)
    h = rng.dirichlet(np.ones(len(H))) @ H
    labels = tuple(f"p{i}" for i in range(n))
    position = rng.permutation(np.sort(rng.uniform(0.0, 3.0, size=n)))
    values = {x: np.vstack([p * h + rng.choice([-1.0, 1.0])
                            * rng.uniform(1.0, 3.0) * tol * a,
                            rng.normal(size=m)])
              for x, p in zip(labels, position)}
    space = MetricSpace(labels, np.abs(position[:, None] - position[None]))
    return (FiniteInstance(space, SetValuedMap(values), C),
            PolytopeDirection(Polytope(H), 1.0))


def notch_direction(rng, n, m, tol, count=2):
    """A direction set H (rate 1) of ``count`` vertices on a face ``w . h =
    1`` of conv(H) + C, for a w of the dual cone, and labels on a line at
    distances |p - q| whose values p h sit 0.3, 3 tol, tol or 0 off that
    face, to one side or the other, for one point h strictly inside
    conv(H). So y - b - d h lies along w, where the row-pair or tie
    conditions of the targets separate the members: a point just below the
    face can meet every row condition."""
    C, k0 = (orthant(m), np.ones(m)) if rng.random() < 0.5 \
        else random_cone(rng, m)
    A = C.halfspaces
    w = A.T @ rng.uniform(0.2, 1.0, size=len(A))
    H = np.array([v / (w @ v) for v in (sample_cone_member(rng, C, k0)
                                        for _ in range(count))])
    h = (rng.uniform(0.2, 0.8) * (H[0] - H[1]) + H[1] if count == 2
         else rng.dirichlet(np.full(count, 4.0)) @ H)
    labels = tuple(f"p{i}" for i in range(n))
    position = rng.permutation(np.sort(rng.uniform(0.0, 3.0, size=n)))
    offsets = np.array([0.3, 3 * tol, tol, 0.0])
    values = {x: p * h + rng.choice([-1.0, 1.0]) * rng.choice(offsets) * w
              / (w @ w) for x, p in zip(labels, position)}
    space = MetricSpace(labels, np.abs(position[:, None] - position[None]))
    return (FiniteInstance(space, SetValuedMap(values), C),
            PolytopeDirection(Polytope(H), 1.0))


def test_facet_pass_in_the_tolerance_band(monkeypatch):
    """Direction sets and tables whose vertices lie 0.1 to 1 tol outside a
    facet, against values 1 to 3 tol off it, and direction sets of two and
    three vertices whose values sit on either side of a face that only the
    row-pair or tie conditions describe: the pass leaves the pairs inside
    the band to the screen, on shared polytopes of three vertices too,
    decides the others, and decides none otherwise than the screen."""
    rng = np.random.default_rng(2025)
    left = dict.fromkeys(("table", "shared", "notch", "shared3", "notch3"), 0)
    decided = dict.fromkeys(left, 0)
    for trial in range(60):
        n = 3 + trial % 4
        kind = (("table", "shared", "notch")[trial % 3] if trial < 36
                else ("shared3", "notch3")[trial % 2])
        if kind == "table":
            inst, fam = band_family(rng, n, 1 + trial % 2, 1 + trial % 3,
                                    DEFAULT_TOL)
        elif kind.startswith("shared"):
            inst, fam = band_direction(rng, n, 1 + trial % 3, DEFAULT_TOL,
                                       count=3 if kind == "shared3" else None)
        else:
            inst, fam = notch_direction(rng, n, 2 + trial % 3, DEFAULT_TOL,
                                        count=3 if kind == "notch3" else 2)
        sent, total = assert_order_matches_screen(monkeypatch, inst, fam)
        left[kind] += sent
        decided[kind] += total - sent
    assert min(left.values()) > 0 and min(decided.values()) > 0, (left,
                                                                  decided)


def test_facet_pass_with_zero_and_negative_scales(monkeypatch):
    """Quasi-metric families whose matrix, never validated, holds zero,
    sub-tol and negative scales, over 1 to 3 vertices, in one block and in
    blocks of one row: a target with a scale at most tol is the cone test,
    and a negative scale raises the screen's InputError, after the blocks
    before it."""
    rng = np.random.default_rng(8181)
    outcomes = set()
    for trial in range(24):
        n, m = 3 + trial % 4, 1 + trial % 3
        C, k0 = _cone(rng, m)
        p = rng.uniform(0.0, 2.0, size=(n, n))
        p[rng.random((n, n)) < 0.2] = 0.0
        p[rng.random((n, n)) < 0.1] = 5e-10
        if trial % 3 == 0:
            p[rng.integers(n), rng.integers(n)] = -0.5
        labels = tuple(f"q{i}" for i in range(n))
        fmap = SetValuedMap({x: rng.normal(size=(int(rng.integers(1, 4)), m))
                             for x in labels})
        inst = FiniteInstance(MetricSpace(labels, _distances(rng, n, True)),
                              fmap, C)
        fam = QuasiMetricDirection(_polytope(rng, C, k0, 1 + trial % 3),
                                   QuasiMetric(p))
        assert_order_matches_screen(monkeypatch, inst, fam,
                                    budget=1 if trial % 2 else None)
        outcomes.add(_outcome(relation_matrix, inst, fam).__class__)
    assert outcomes == {tuple, np.ndarray}


def test_facet_pass_leaves_overflowing_values_to_the_screen(monkeypatch):
    """Values of +-1.5e308 make A y, y - b and the margins overflow to inf
    or NaN: the pass leaves every query to the screen, whose matrix stands.
    Overflow warnings are off here, as the screen raises them."""
    rng = np.random.default_rng(9090)
    for trial in range(10):
        n, m = 3 + trial % 3, 1 + trial % 3
        inst, fam, _ = random_instance(rng, n=n, m=m, kind=KINDS[trial % 5],
                                       metric=trial % 2 == 0)
        values = {x: np.where(rng.random(Y.shape) < 0.3,
                              np.sign(Y) * 1.5e308, Y)
                  for x, Y in inst.fmap.values.items()}
        inst = FiniteInstance(inst.space, SetValuedMap(values), inst.cone)
        with np.errstate(all="ignore"):
            sent, total = assert_order_matches_screen(monkeypatch, inst, fam)
            assert sent == total


def test_three_vertex_shared_stacks_need_no_screen(monkeypatch):
    """Generated shared polytopes of three vertices, whose queries lie
    outside the tolerance band: the facets decide every query of the order
    matrix and of every (xhat, x0) conclusion stack, read from the solve's
    grid or asked as a whole stack, and no query reaches covered_queries;
    the matrix is the screen's."""
    seen = 0
    for seed in range(200):
        raw = generate(seed, n=5 + seed % 4, m=3, values_per_point=3,
                       variant="polytope")
        if len(raw["perturbation"]["vertices"]) != 3:
            continue
        bundle = load_validate(raw)
        inst, fam = bundle.instance, bundle.family
        sent, total = assert_order_matches_screen(monkeypatch, inst, fam)
        assert sent == 0 < total, (seed, sent, total)
        arrays = order_arrays(inst, fam)
        with monkeypatch.context() as mp:
            mp.setattr(instances, "covered_queries", None)
            grid = order_grid(inst, arrays)
            for xhat, x0 in itertools.product(inst.labels, repeat=2):
                _order_conclusions(inst, fam, grid, xhat, x0)
                _order_conclusions(inst, fam, open_grid(inst, arrays), xhat,
                                   x0)
        seen += 1
        if seen == 4:
            break
    assert seen == 4


def test_tie_conditions_keep_each_condition_once():
    """Three vertices on three cone rows: the ties of each vertex pair on
    rows 0 and 1 all give the weights (0.5, 0.5, 0), which are one
    condition and kept once, next to the simplex vertices and the other
    ties; each condition's theta0 is its least product."""
    AH = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.3, 0.2, 0.9]])
    W, theta0, solve = tie_conditions(AH)
    assert len(W) == len(np.unique(W, axis=0)) == 7
    assert np.array_equal(W[:3], np.eye(3))
    assert (W == [0.5, 0.5, 0.0]).all(axis=1).sum() == 1
    assert np.array_equal(theta0, (W @ AH).min(axis=1))
    assert solve > 0.0


def highs_direction(rng, n, m, count, magnitude):
    """Labels on a line at distances |p - q| and a direction set H (rate 1)
    of ``count`` vertices spread over a random pointed cone, H and every
    value scaled by ``magnitude``. Each label p has one to three values p h
    plus a random offset of 1e-4 to 1e-1 of the magnitude, for one point h
    on the boundary of conv(H) + C, found by HiGHS from a point of conv(H)
    along a random direction, so that y - b - d h lies near the face that
    h meets, where the ties of its vertices often decide."""
    C, k0 = random_cone(rng, m)
    A = C.halfspaces
    H = []
    while len(H) < count:
        h = rng.uniform(0.2, 1.0) * k0 + rng.normal(size=m)
        if np.all(A @ h >= 0.0):
            H.append(magnitude * h)
    H = np.array(H)
    c, u = rng.dirichlet(np.ones(count)) @ H, k0 + 0.5 * rng.normal(size=m)
    # the largest t with c - t u in conv(H) + C: variables (weights, t)
    res = linprog(np.r_[np.zeros(count), -1.0],
                  A_ub=np.hstack([A @ H.T, (A @ u)[:, None]]), b_ub=A @ c,
                  A_eq=np.r_[np.ones(count), 0.0][None], b_eq=[1.0],
                  bounds=[(0, None)] * (count + 1), method="highs")
    h = c - res.x[-1] * u if res.status == 0 else c
    labels = tuple(f"p{i}" for i in range(n))
    position = rng.permutation(np.sort(rng.uniform(0.0, 3.0, size=n)))
    values = {x: np.array([p * h + magnitude * 10.0 ** rng.uniform(-4, -1)
                           * rng.normal(size=m)
                           for _ in range(int(rng.integers(1, 4)))])
              for x, p in zip(labels, position)}
    space = MetricSpace(labels, np.abs(position[:, None] - position[None]))
    return (FiniteInstance(space, SetValuedMap(values), C),
            PolytopeDirection(Polytope(H), 1.0))


def highs_covers(y, B, s, H, C, tol):
    """Whether ``y`` lies in ``B + s conv(H) + C`` by the HiGHS margin:
    True, False, or None within 1e-8 plus 1e-6 of the query's magnitude
    of -tol, where the LP's slack may decide either way. A scale at most
    tol is the cone test."""
    s = s if s > tol else 0.0
    size = max(np.abs(y).max(), np.abs(B).max(), s * np.abs(H).max())
    t = highs_margin(y, B, s, H, C)
    if abs(t + tol) <= 1e-8 + 1e-6 * size:
        return None
    return bool(t >= -tol)


def _all_of(verdicts):
    """True when every verdict is, False when one is not, else None."""
    verdicts = list(verdicts)
    if False in verdicts:
        return False
    return None if None in verdicts else True


@pytest.mark.parametrize("count", [3, 4, 5])
def test_shared_order_stacks_match_highs(monkeypatch, count):
    """Shared polytopes of ``count`` vertices in random pointed cones of m
    = 1 to 4 dimensions and up to m + 2 rows, at magnitudes from 1e-6 to
    1e6, against an LP that shares no code with evpkit: the order matrix,
    and the graph oracle, start sections and graph conclusions of the
    product instance of every (label, value) pair, decide each pair as the
    HiGHS margins do wherever those lie outside the band of
    ``highs_covers``; the facets decide some queries of each stack."""
    rng = np.random.default_rng(5150 + count)
    checked, decided = 0, {"matrix": 0, "graph": 0}
    real = instances.covered_queries
    sent = []

    def counting(Y, *args, **kwargs):
        sent.append(len(Y))
        return real(Y, *args, **kwargs)

    monkeypatch.setattr(instances, "covered_queries", counting)
    for trial in range(8):
        n, m = 3 + trial % 3, 1 + trial % 4
        inst, fam = highs_direction(rng, n, m, count,
                                    10.0 ** rng.uniform(-6.0, 6.0))
        C, tol, H = inst.cone, inst.tol, fam.H.vertices
        d = inst.space.dist
        sent.clear()
        rel = relation_matrix(inst, fam)
        decided["matrix"] += n * sum(map(len, inst.fmap.values.values())) \
            - sum(sent)
        for a, b in itertools.product(range(n), repeat=2):
            want = _all_of(highs_covers(y, inst.fmap.at(inst.labels[a]),
                                        d[a, b], H, C, tol)
                           for y in inst.fmap.at(inst.labels[b]))
            if want is not None:
                assert rel[a, b] == want, (trial, a, b)
                checked += 1
        graph = tuple((x, y) for x in inst.labels for y in inst.fmap.at(x))
        A = C.halfspaces
        pi = ProductInstance(graph, inst.space, graph[0], C)
        fm = FMap(fam, LinearFunctional(A.T @ np.ones(len(A))))
        lab = [inst.labels.index(x) for x, _ in graph]
        cover = np.array([[highs_covers(y1, y2[None], d[l2, l1], H, C, tol)
                           for l1, (_, y1) in zip(lab, graph)]
                          for l2, (_, y2) in zip(lab, graph)])
        grid = graph_grid(pi, fm)
        eta = anchored_values(pi, fm.xi)
        sent.clear()
        order = graph_oracle_matrix(pi, grid, eta)
        strict = eta[None, :] - eta[:, None] > tol
        drop = strict & (cover != None)  # noqa: E711, elementwise
        assert np.array_equal(order[drop], cover[drop].astype(bool))
        decided["graph"] += int(strict.sum()) - sum(sent)
        for start in range(len(graph)):
            section = start_section(pi, grid, start)
            known = cover[:, start] != None  # noqa: E711, elementwise
            assert np.array_equal(section[known],
                                  cover[known, start].astype(bool))
            for ihat in range(len(graph)):
                a, b = _graph_conclusions(pi, grid, ihat, start, False)
                if cover[ihat, start] is not None:
                    assert a.holds == cover[ihat, start]
                others = [p for p in range(len(graph)) if p != ihat]
                if None not in cover[others, ihat]:
                    assert [(v["x"], list(v["y"]))
                            for v in b.witness["violations"]] == [
                        (graph[p][0], list(graph[p][1]))
                        for p in others if cover[p, ihat]]
    assert checked > 0 and min(decided.values()) > 0, (checked, decided)


def _as_data(result):
    """Conclusions as their dicts, arrays as lists."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    return [c.to_dict() for c in result]


def order_stack_cases(rng):
    """Label instances and product instances with their pair maps: every
    family kind, ragged value sets or not, on metric and non-metric
    distances, with 1 to 3 vertices per polytope or table entry, and
    direction sets and tables whose vertices and values lie in the
    tolerance band."""
    labels, graphs = [], []
    for trial in range(15):
        labels.append(random_instance(rng, n=4 + trial % 3, m=1 + trial % 3,
                                      kind=KINDS[trial % 5],
                                      metric=trial % 3 != 2,
                                      ragged=trial % 4 != 1)[:2])
    for trial in range(9):
        n, m = 3 + trial % 3, 1 + trial % 3
        labels.append(band_family(rng, n, 2, m, DEFAULT_TOL)
                      if trial % 3 == 0 else
                      band_direction(rng, n, m, DEFAULT_TOL)
                      if trial % 3 == 1 else
                      notch_direction(rng, n, 1 + m, DEFAULT_TOL))
    for trial in range(9):
        graphs.append(random_product(rng, n=4, m=1 + trial % 3,
                                     metric=trial % 3 != 2,
                                     ragged=trial % 2 == 0,
                                     nonlinear=trial % 3 == 1,
                                     vertices=1 + trial % 3))
    for trial in range(6):
        n, m = 3 + trial % 3, 1 + trial % 3
        inst, fam = (band_family(rng, n, 1, m, DEFAULT_TOL) if trial % 2
                     else band_direction(rng, n, m, DEFAULT_TOL))
        graph = tuple((x, y) for x in inst.labels for y in inst.fmap.at(x))
        A = inst.cone.halfspaces
        graphs.append((ProductInstance(graph, inst.space, graph[0],
                                       inst.cone),
                       FMap(fam, LinearFunctional(A.T @ np.ones(len(A))))))
    return labels, graphs


def test_order_stacks_match_the_screen(monkeypatch):
    """``_order_conclusions`` of every (xhat, x0), and ``_graph_oracle``
    (its every column read), ``start_section`` and
    ``_graph_conclusions`` of every start and terminal pair, on grids with
    every cell open (so that each asks every pair it reads), give the
    witnesses and matrices of their screen-only versions, whose order
    stacks go straight to ``covered_queries`` (``screen_order_queries``
    in the place of each column re-ask),
    with the same _phase1 count, on ``order_stack_cases``; the facet pass
    decides some queries of each."""
    labels, graphs = order_stack_cases(np.random.default_rng(2727))
    sent = {"pass": 0, "screen": 0}
    real = instances.covered_queries

    def counting(key):
        def count(Y, *args, **kwargs):
            sent[key] += len(Y)
            return real(Y, *args, **kwargs)
        return count

    def assert_same(fn, *args):
        on_open = on_open_grid(fn, 2 if fn is _order_conclusions else 1)
        with monkeypatch.context() as mp:
            mp.setattr(instances, "covered_queries", counting("pass"))
            n, got = _lp_calls(monkeypatch, on_open, *args)
        with monkeypatch.context() as mp:
            mp.setattr(instances, "_ask_column",
                       as_column(screen_order_queries))
            mp.setattr(sys.modules[__name__], "covered_queries",
                       counting("screen"))
            ns, want = _lp_calls(monkeypatch, on_open, *args)
        assert _as_data(got) == _as_data(want) and n <= ns, (fn.__name__, n,
                                                            ns)

    for inst, fam in labels:
        arrays = order_arrays(inst, fam)
        for xhat, x0 in itertools.product(inst.labels, repeat=2):
            assert_same(_order_conclusions, inst, fam, arrays, xhat, x0)
    assert 0 < sent["pass"] < sent["screen"], sent
    sent.update(dict.fromkeys(sent, 0))
    for pi, fm in graphs:
        arrays = graph_arrays(pi, fm)
        assert_same(graph_oracle_matrix, pi, arrays,
                    anchored_values(pi, fm.xi))
        for start in range(len(pi.graph)):
            assert_same(start_section, pi, arrays, start)
            for ihat in range(0, len(pi.graph), 2):
                assert_same(_graph_conclusions, pi, arrays, ihat, start,
                            start % 2 == 0)
    assert 0 < sent["pass"] < sent["screen"], sent


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conclusion_order_matches_preceq(m):
    """Conclusion (a) of ``_order_conclusions`` decides every ordered label
    pair of random instances of each family kind as preceq does, on pairs
    where the first label precedes the second and on pairs where it does
    not."""
    rng = np.random.default_rng(1500 + m)
    outcomes = set()
    for trial, kind in enumerate(KINDS * 2):
        inst, fam, _ = random_instance(rng, n=4, m=m, kind=kind,
                                       metric=trial % 3 != 2,
                                       ragged=trial % 2 == 0)
        grid = order_grid(inst, order_arrays(inst, fam))
        for xhat in inst.labels:
            for x0 in inst.labels:
                got = _order_conclusions(inst, fam, grid, xhat, x0)[0]
                want = preceq(inst, fam, xhat, x0)
                assert got == Conclusion("a", want, {
                    "dominates": x0, "dominated_by": xhat}), (kind, xhat, x0)
                outcomes.add(want)
    assert outcomes == {True, False}


def _label_order_solve(name, seed):
    """A certificate and its bundle: 3.1 on an extensional, polytope or
    quasi-metric instance, 4.1 and 4.2 on a polytope one, 4.4 on a
    quasi-metric one."""
    theorem, _, variant = name.partition(" ")
    b = generated_bundle(seed, n=5, m=2, variant=variant)
    inst, x0 = b.instance, b.params.x0
    if theorem == "3.1":
        xi = strictly_positive_functional(direction_polytope(b), inst.cone,
                                          b.tol)
        return solve_evp_general(inst, b.family, xi, x0), b
    if theorem == "4.4":
        return solve_evp_quasimetric(inst, b.family.H, b.family.p, x0), b
    H = Polytope(b.raw["perturbation"]["vertices"])
    return solve_evp_set_direction(inst, H, b.params.gamma, x0,
                                   open_family=theorem == "4.1"), b


@pytest.mark.parametrize("name", ["3.1 extensional", "3.1 polytope",
                                  "3.1 quasimetric", "4.1 polytope",
                                  "4.2 polytope", "4.4 quasimetric"])
def test_label_order_solves_ask_no_single_membership(monkeypatch, name):
    """A label-order solve asks every order test as a stack, conclusion (a)
    included, so it makes no minkowski_member call, and it takes the scalar
    infima of the labels in one label_infima call; with a linear functional
    that call makes no per-label scalar_inf call."""
    def single(*args, **kwargs):
        raise AssertionError("minkowski_member called")

    for owner in (geometry, instances, solvers):
        monkeypatch.setattr(owner, "minkowski_member", single)
    for seed in (1600, 1601, 1602):
        infima, (per_label, (cert, bundle)) = _calls(
            monkeypatch, solvers, "label_infima", _calls, monkeypatch,
            instances, "scalar_inf", _label_order_solve, name, seed)
        assert cert.all_hold(), (name, seed)
        assert cert.scalarization["kind"] == "linear", (name, seed)
        assert (infima, per_label) == (1, 0), (name, seed, infima, per_label)


def bare_order_query(inst, arrays, rows, cols):
    """Whether each pair of the rows ``rows`` over the columns ``cols`` is
    covered, asked as ``relation_matrix`` asks a block of its rows: the
    facet pass, then the open queries of the pairs without a dead one as
    one stack, with no witness."""
    first, open_ = instances._facet_pass(inst, arrays, rows, cols, False)
    if open_ is not None:
        instances._ask_open(inst, arrays, first, [open_], False)
    return first == -1


def test_order_conclusions_run_the_lps_of_their_parts(monkeypatch):
    """The column reads of (a) and (b), from a grid with every cell open,
    run the phase-1 LPs of a re-ask of (a)'s column alone plus those of a
    re-ask of (b)'s alone, on every ordered label pair. (a) is a bool read,
    asked without a witness as ``relation_matrix`` asks it; (b) is asked
    with one."""
    rng = np.random.default_rng(5000)
    lps = {True: 0, False: 0}
    for trial in range(10):
        inst, fam, _ = random_instance(rng, n=5, m=1 + trial % 3,
                                       kind=KINDS[trial % 5],
                                       metric=trial % 3 != 2)
        arrays = order_arrays(inst, fam)
        index = inst.space.index
        for xhat in inst.labels:
            j = index(xhat)
            others = np.delete(np.arange(len(inst.labels)), j)
            nb, _ = _lp_calls(monkeypatch, instances._ask_column, inst,
                              arrays, others, j, True)
            for x0 in inst.labels:
                rows, col = np.array([j]), index(x0)
                n, (a, _) = _lp_calls(monkeypatch, _order_conclusions, inst,
                                      fam, open_grid(inst, arrays), xhat, x0)
                na, _ = _lp_calls(monkeypatch, instances._ask_column, inst,
                                  arrays, rows, col, False)
                bare, _ = _lp_calls(monkeypatch, bare_order_query, inst,
                                    arrays, rows, np.array([col]))
                assert n == na + nb, (trial, xhat, x0, n, na, nb)
                assert na == bare, (trial, xhat, x0)
                lps[a.holds] += n
    assert all(lps.values()), lps


def _graph_solve(name, seed):
    """A 5.1 or 5.2 certificate on a generated product, or a 5.6 one on a
    two-pair product (``seed`` unused)."""
    if name == "5.6":
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        graph = (("a", [1.0]), ("b", [0.0]))
        pi = ProductInstance(graph, base, graph[0], cone([[1.0]], [[1.0]]))
        return solve_pareto_evp(pi, [1.0], 1.5, 2.0)
    pi = generated_bundle(seed, n=3, m=2, values_per_point=2).product
    H = singleton([1.0, 1.0])
    fm = fmap_from_rate(pi.base, H, 0.4,
                        strictly_positive_functional(H, pi.cone, pi.tol))
    solve = solve_minimal_point if name == "5.1" else solve_strict_minimal
    return solve(pi, fm)


@pytest.mark.parametrize("name", ["5.1", "5.2", "5.6"])
def test_graph_solves_ask_no_single_membership(monkeypatch, name):
    """5.1 and 5.2 ask coverage of the start pair in the stack of their
    conclusions, so they make no minkowski_member call; 5.6 makes exactly
    one, its global escape premise."""
    for seed in (950, 951, 952):
        for owner in (geometry, instances, product):
            calls, cert = _calls(monkeypatch, owner, "minkowski_member",
                                 _graph_solve, name, seed)
            want = int(name == "5.6" and owner is product)
            assert calls == want and cert.all_hold(), (name, seed, owner)


def _stacks_inside(monkeypatch, owner, name, fn, *args):
    """The column reads, both the bool reads (``OrderGrid.precedes``) and
    the witness reads (``OrderGrid.column``), and the column re-asks
    (``instances._ask_column``) made inside each ``owner.name`` call of
    ``fn(*args)``, as ``(reads, re-asks)``, and its result."""
    stacks = []
    original = getattr(owner, name)

    def counted(*a, **kw):
        bools, (witnesses, (asks, result)) = _calls(
            monkeypatch, OrderGrid, "precedes", _calls, monkeypatch,
            OrderGrid, "column", _calls, monkeypatch, instances,
            "_ask_column", lambda: original(*a, **kw))
        stacks.append((bools + witnesses, asks))
        return result

    monkeypatch.setattr(owner, name, counted)
    try:
        result = fn(*args)
    finally:
        monkeypatch.setattr(owner, name, original)
    return stacks, result


@pytest.mark.parametrize("name", ["3.1 extensional", "3.1 polytope",
                                  "4.1 polytope", "4.4 quasimetric",
                                  "5.1", "5.2", "5.6"])
def test_each_solve_asks_its_conclusions_as_one_stack(monkeypatch, name):
    """Every solve builds its order conclusions once, from two column
    reads of its grid, (a) and (b), each with at most one re-ask for the
    cells the grid holds open."""
    for seed in (950, 951, 952):
        if name.startswith("5"):
            stacks, cert = _stacks_inside(monkeypatch, product,
                                          "_graph_conclusions", _graph_solve,
                                          name, seed)
        else:
            stacks, (cert, _) = _stacks_inside(
                monkeypatch, solvers, "_order_conclusions",
                _label_order_solve, name, seed)
        assert len(stacks) == 1 and stacks[0][0] == 2, (name, seed, stacks)
        assert stacks[0][1] <= 2 and cert.all_hold(), (name, seed, stacks)


def test_graph_solves_read_the_pair_map_arrays_only(monkeypatch):
    """A graph solve on a hand-built pair map reads the table's held stack,
    calling ``ExtensionalFamily.sets`` for no pair, and an fmap_from_rate
    map reaches the triangle search with its one shared ``(J, m)``
    polytope."""
    shapes = []

    def seen(S, V, nv, C, tol, excess):
        shapes.append(V.shape)
        return triangle_failure(S, V, nv, C, tol, excess)

    monkeypatch.setattr(product, "triangle_failure", seen)
    for seed in (950, 951, 952):
        pi = generated_bundle(seed, n=3, m=2, values_per_point=2).product
        H = Polytope([[1.0, 1.0], [0.5, 1.5]])
        xi = strictly_positive_functional(H, pi.cone, pi.tol)
        rate = fmap_from_rate(pi.base, H, 0.4, xi)
        labels = pi.base.labels
        S = rate.family.arrays(pi.base)[0][..., 0]
        fm = FMap(ExtensionalFamily(labels, ("F",), {
            ("F", x2, x1): Polytope(S[i, j] * H.vertices)
            for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}),
            xi)
        for solve in (solve_minimal_point, solve_strict_minimal):
            calls, cert = _calls(monkeypatch, ExtensionalFamily, "sets",
                                 solve, pi, fm)
            assert calls == 0 and cert.all_hold(), (seed, solve.__name__)
            shapes.clear()
            assert solve(pi, rate).all_hold(), (seed, solve.__name__)
            assert shapes == [H.vertices.shape], (seed, shapes)
    base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    graph = (("a", [1.0]), ("b", [0.0]))
    pi = ProductInstance(graph, base, graph[0], cone([[1.0]], [[1.0]]))
    shapes.clear()
    assert solve_pareto_evp(pi, [1.0], 1.5, 2.0).all_hold()
    assert shapes == [(1, 1)]


def _as_table(pi, fm):
    """The pair map ``fm`` as the equal one-index extensional table, with
    the polytope ``s * H`` at every pair of scale ``s``."""
    S, V, _ = fm.family.arrays(pi.base)
    labels = pi.base.labels
    return FMap(ExtensionalFamily(labels, ("F",), {
        ("F", x2, x1): Polytope(S[i, j, 0] * V)
        for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}),
        fm.xi)


def _graph_outcome(fn, *args):
    try:
        return fn(*args)
    except (HypothesisError, InputError) as exc:
        return type(exc).__name__, getattr(exc, "name", None), str(exc)


@pytest.mark.parametrize("variant", ["polytope", "singleton"])
def test_rate_map_and_its_table_agree(variant):
    """On generated products at n = 3 to 8, an fmap_from_rate map and the
    one-index extensional table with the vertices ``rate * d * H`` give the
    same validate_fmap verdict, graph order matrix and 5.1 and 5.2 results.
    ``zeta`` agrees to 1e-12 relative: scale times the vertex minimum may
    round otherwise than the minimum over the scaled vertices."""
    solved = 0
    for seed in range(12):
        b = generated_bundle(7100 + seed, n=3 + seed % 6, m=2 + seed % 2,
                             values_per_point=2, variant=variant)
        pi, H = b.product, b.family.H
        xi = strictly_positive_functional(H, pi.cone, pi.tol)
        rate = fmap_from_rate(pi.base, H, b.params.gamma, xi)
        table = _as_table(pi, rate)
        assert table.family.arrays(pi.base)[1].ndim == 5
        checks = [_graph_outcome(validate_fmap, pi, fm)
                  for fm in (rate, table)]
        if isinstance(checks[0], dict):
            a, z = checks[0].pop("zeta"), checks[1].pop("zeta")
            assert abs(a - z) <= 1e-12 * abs(a), (seed, a, z)
        assert checks[0] == checks[1], seed
        np.testing.assert_array_equal(graph_order(pi, rate)[1],
                                      graph_order(pi, table)[1])
        for solve in (solve_minimal_point, solve_strict_minimal):
            got = [_graph_outcome(solve, pi, fm) for fm in (rate, table)]
            if isinstance(got[0], tuple):
                assert got[0] == got[1], (seed, solve.__name__)
                continue
            (a, b_), solved = got, solved + 1
            assert a.xhat == b_.xhat and np.array_equal(a.yhat, b_.yhat)
            assert ([c.holds for c in a.conclusions]
                    == [c.holds for c in b_.conclusions])
    assert solved > 0


# ---------------------------------------------------------------------------
# Pareto minima from one (P, P, k) array, anchored values from one product.
# ---------------------------------------------------------------------------

def _same_points(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a, b) for a, b in zip(got, want))


def _assert_pareto_like_loops(B, C, tol):
    for fn, loop in ((pareto_min, loop_pareto_min),
                     (strict_pareto_min, loop_strict_pareto_min)):
        assert _same_points(fn(B, C, tol), loop(B, C, tol)), (B, tol)
    for strict in (False, True):
        ok, point = domination_check(B, C, strict, tol)
        want_ok, want_point = loop_domination_check(B, C, strict, tol)
        assert ok == want_ok and (point is None if want_point is None
                                  else np.array_equal(point, want_point))


def _scaled_rows(C, rng):
    """C with every halfspace row scaled by 1e-3 or 1e3."""
    A = C.halfspaces * rng.choice([1e-3, 1e3], size=(len(C.halfspaces), 1))
    return cone(A)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pareto_minima_match_loops(m):
    """Random sets of 1 to 12 points, on a coarse grid (so duplicates and
    comparable pairs are common) or spread, over orthants and random cones,
    their rows scaled by 1e-3 and 1e3, at tol 0 and 1e-9."""
    rng = np.random.default_rng(3100 + m)
    outcomes = set()
    for trial in range(60):
        C, _ = _cone(rng, m)
        if trial % 3 == 2:
            C = _scaled_rows(C, rng)
        P = 1 + trial % 12
        B = (rng.integers(0, 3, size=(P, m)).astype(float) if trial % 2
             else rng.normal(size=(P, m)))
        for tol in (0.0, 1e-9):
            _assert_pareto_like_loops(list(B), C, tol)
            outcomes.add(domination_check(list(B), C, True, tol)[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_pareto_minima_at_the_tolerance_edge(tol):
    """Points exactly tol above and below a cone row's boundary, twins, and
    rows scaled by 1e-3 and 1e3: the stacked test decides each pair as
    cone_contains does."""
    rng = np.random.default_rng(3200)
    for C in (orthant(2), cone([[1e-3, 0.0], [0.0, 1e3]]),
              cone([[1e3, 0.0], [0.0, 1e-3]])):
        for edge in (tol, -tol, 2 * tol, -2 * tol):
            B = [[0.0, 0.0], [1.0, edge], [edge, 1.0], [1.0, edge],
                 [2.0, 2.0 + edge]]
            _assert_pareto_like_loops(B, C, tol)
            for _ in range(4):
                _assert_pareto_like_loops(
                    [B[i] for i in rng.permutation(len(B))], C, tol)


@pytest.mark.parametrize("budget", [1, 5, 64])
def test_pareto_minima_in_row_blocks_match_loops(monkeypatch, budget):
    """With a pair budget of 1, 5 or 64, the below matrix is built in
    blocks of one row, of fewer rows than the points and of whole rows with
    a short last block; the minima are the loops'."""
    monkeypatch.setattr(product, "_UNDER_PAIRS", budget)
    rng = np.random.default_rng(3200 + budget)
    for trial in range(12):
        m = 1 + trial % 3
        C, _ = _cone(rng, m)
        P = 3 + 2 * trial
        B = (rng.integers(0, 3, size=(P, m)).astype(float) if trial % 2
             else rng.normal(size=(P, m)))
        _assert_pareto_like_loops(list(B), C, 1e-9)


def test_strict_pareto_min_excludes_both_twins():
    B = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    C = orthant(2)
    assert _same_points(strict_pareto_min(B, C), [np.array([0.0, 1.0])])
    assert len(pareto_min(B, C)) == 3
    _assert_pareto_like_loops(B, C, DEFAULT_TOL)
    ok, point = domination_check(B, C, strict=True)
    assert not ok and np.array_equal(point, [1.0, 0.0])


def test_pareto_minima_of_an_empty_list_raise():
    for fn in (pareto_min, strict_pareto_min, domination_check,
               loop_pareto_min, loop_strict_pareto_min,
               loop_domination_check):
        with pytest.raises(InputError, match="empty point set"):
            fn([], orthant(2))


def _loop_anchored(pi, xi):
    return np.array([xi.value(y - pi.y0) for _, y in pi.graph])


def test_anchored_values_are_the_per_pair_values():
    """Bit for bit, for linear functionals and the cone scalarization, on
    random products (m = 1 to 3) and a graph with values on the +inf branch;
    the finite cone-scalarization values agree with the bisection oracle."""
    rng = np.random.default_rng(3300)
    base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    graph = (("a", [0.0, 0.0]), ("a", [1.0, 1.0]), ("b", [2.0, -1.0]),
             ("b", [-1.0, 0.5]))
    edge = ProductInstance(graph, base, graph[0], orthant(2))
    cases = [(edge, GerstewitzFn(edge.cone, [1.0, 0.0]))]
    for trial in range(24):
        pi, fm = random_product(rng, n=4, m=1 + trial % 3,
                                nonlinear=trial % 2 == 1)
        cases.append((pi, fm.xi))
    kinds = set()
    for pi, xi in cases:
        got = anchored_values(pi, xi)
        assert got.tobytes() == _loop_anchored(pi, xi).tobytes()
        kinds.add(type(xi).__name__)
        if isinstance(xi, GerstewitzFn):
            for (_, y), v in zip(pi.graph, got):
                if math.isfinite(v):
                    want = gz_bisect_oracle(xi, y - pi.y0, tol=1e-12)
                    assert abs(v - want) <= pi.tol, (v, want)
    assert kinds == {"LinearFunctional", "GerstewitzFn"}
    assert np.isinf(anchored_values(edge, cases[0][1])).tolist() == [
        False, True, False, True]


def test_strict_graph_solves_ask_three_stacks_and_no_gz_value(monkeypatch):
    """5.1, 5.2 and 5.6 make one facet pass over the graph order, and read
    it by columns for the start section, the graph order and their own
    conclusions only (the 5.1 conclusions are not built by 5.2), each
    column read (``OrderGrid.precedes``) with at most one re-ask for the
    cells it leaves open, and at most three in all; 5.6 reads the cone
    scalarization from one stacked product, with no per-pair gz_value."""
    def solve_counts(solve, *args):
        grids, (reads, (stacks, cert)) = _calls(
            monkeypatch, product, "order_grid", _calls, monkeypatch,
            OrderGrid, "precedes", _calls, monkeypatch, instances,
            "_ask_column", solve, *args)
        assert grids == 1 and stacks <= min(3, reads) and cert.all_hold(), (
            grids, reads, stacks)
        return stacks

    for seed in (950, 951, 952):
        pi = generated_bundle(seed, n=3, m=2, values_per_point=2).product
        H = singleton([1.0, 1.0])
        fm = fmap_from_rate(pi.base, H, 0.4,
                            strictly_positive_functional(H, pi.cone, pi.tol))
        solve_counts(solve_strict_minimal, pi, fm)
        solve_counts(solve_minimal_point, pi, fm)
    base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    graph = (("a", [1.0]), ("b", [0.0]))
    pi = ProductInstance(graph, base, graph[0], cone([[1.0]], [[1.0]]))
    solve_counts(solve_pareto_evp, pi, [1.0], 1.5, 2.0)
    calls, cert = _calls(monkeypatch, scalarize, "gz_value", solve_pareto_evp,
                         pi, [1.0], 1.5, 2.0)
    assert calls == 0 and cert.all_hold()


def test_strict_minimal_takes_the_first_strict_minimum_below():
    """5.2's yhat is the first strict Pareto minimum of the xhat slice, in
    list order, below the engine's value (the yhat of 5.1), as the loops
    find it. In some cases the first one below the slice's first value is
    another point, so the row of the engine value is the one read."""
    other_row = 0
    for seed in range(960, 1000):
        pi = generated_bundle(seed, n=4, m=2, values_per_point=3 + seed % 2
                              ).product
        H = singleton([1.0, 1.0])
        fm = fmap_from_rate(pi.base, H, 0.4,
                            strictly_positive_functional(H, pi.cone, pi.tol))
        cert = solve_strict_minimal(pi, fm)
        engine = solve_minimal_point(pi, fm)
        assert cert.xhat == engine.xhat and cert.trace == engine.trace
        values = pi.slice_values(cert.xhat)
        smin = loop_strict_pareto_min(values, pi.cone, pi.tol)
        below = [y for y in smin if _below(pi.cone, y, engine.yhat, pi.tol)]
        assert np.array_equal(cert.yhat, below[0]), seed
        decoy = [y for y in smin if _below(pi.cone, y, values[0], pi.tol)]
        other_row += not decoy or not np.array_equal(decoy[0], below[0])
    assert other_row > 0
