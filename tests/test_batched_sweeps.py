"""The batched order-construction sweeps against query-by-query loops.

``relation_matrix``, ``ti_check``, the triangle sweep of
``validate_fmap`` and the graph order of ``_graph_oracle`` screen whole
stacks of membership queries at once. The loops below ask the same questions
one ``minkowski_member`` call at a time, in the same order; the sweeps must
return the same matrices and the same first failing triple, and must never
run more phase-1 LPs than the loops.
"""

import numpy as np
import pytest

from evpkit import geometry
from evpkit.errors import HypothesisError, InputError
from evpkit.geometry import (LinearFunctional, Polytope, cone_contains,
                             minkowski_member, orthant)
from evpkit.instances import (ExtensionalFamily, FiniteInstance, MetricSpace,
                              OpenPolytopeFamily, PolytopeDirection,
                              QuasiMetric, QuasiMetricDirection, SetValuedMap,
                              SingletonDirection, preceq, relation_matrix,
                              ti_check)
from evpkit.product import (FMap, ProductInstance, _graph_oracle,
                            fmap_from_rate, prec_fstar, validate_fmap)
from evpkit.scalarize import GerstewitzFn

from conftest import generated_bundle, random_cone, sample_cone_member

KINDS = ("singleton", "polytope", "open_polytope", "quasimetric",
         "extensional")


# ---------------------------------------------------------------------------
# Query-by-query reference loops.
# ---------------------------------------------------------------------------

def loop_relation_matrix(inst, fam):
    labels = inst.labels
    return np.array([[preceq(inst, fam, x2, x1) for x1 in labels]
                     for x2 in labels])


def loop_ti_check(inst, fam):
    labels, space, C, tol = inst.labels, inst.space, inst.cone, inst.tol
    if fam.kind == "extensional":
        return loop_ti_extensional(inst, fam)
    for x1 in labels:
        for x2 in labels:
            for x3 in labels:
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


def loop_fmap_triangle(pi, fm):
    C, tol = pi.cone, pi.tol
    zero = np.zeros(C.dim)
    labels = pi.base.labels
    for x1 in labels:
        for x2 in labels:
            for x3 in labels:
                s12, H12 = fm.value_set(x1, x2)
                s23, H23 = fm.value_set(x2, x3)
                s13, H13 = fm.value_set(x1, x3)
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
        fam = ExtensionalFamily(("L0", "L1"), table)
    return inst, fam, k0


def random_product(rng, n, m, metric=True, ragged=True, nonlinear=False,
                   vertices=2):
    """Product instance over a random base with a pair map whose vertex
    lists have 1 to 3 vertices per pair (or fmap_from_rate over a polytope
    with ``vertices`` vertices)."""
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
                table[(x2, x1)] = (0.0 if i == j else float(space.dist[i, j]),
                                   H)
        return pi, FMap(table, xi)
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
    table = {(x2, x1): (2.0 * d[i, j], square)
             for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}
    table[("a", "c")] = (1.0, Polytope([[0.5, 0.5]]))
    fm = FMap(table, LinearFunctional([1.0, 1.0]))
    graph = (("a", np.zeros(2)), ("b", np.ones(2)), ("c", 2 * np.ones(2)))
    pi = ProductInstance(graph, space, graph[0], C)
    assert loop_fmap_triangle(pi, fm) == ("a", "b", "c")
    with pytest.raises(HypothesisError) as err:
        validate_fmap(pi, fm)
    assert err.value.name == "triangle_inclusion"
    assert err.value.witness == {"triple": ("a", "b", "c")}


def test_negative_self_distance_raises_like_the_loops():
    """A self-distance of -1e-10 passes metric validation at tol 1e-9 but
    gives a negative scale: every sweep raises the loops' InputError."""
    labels = ("a", "b", "c")
    d = np.array([[-1e-10, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    space = MetricSpace(labels, d).validate()
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
    for fn in (lambda: validate_fmap(pi, fm), lambda: _graph_oracle(pi, fm),
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
        oracle, rel = _graph_oracle(pi, fm)
        np.testing.assert_array_equal(rel, loop_graph_order(pi, fm))
        for j in range(len(pi.graph)):
            assert oracle.successors[j] == list(np.flatnonzero(rel[:, j]))


# ---------------------------------------------------------------------------
# Work: the sweeps never run more phase-1 LPs than the loops.
# ---------------------------------------------------------------------------

def _lp_calls(monkeypatch, fn, *args):
    calls = [0]
    original = geometry._phase1

    def counted(*a, **kw):
        calls[0] += 1
        return original(*a, **kw)

    monkeypatch.setattr(geometry, "_phase1", counted)
    try:
        result = fn(*args)
    finally:
        monkeypatch.setattr(geometry, "_phase1", original)
    return calls[0], result


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
        pi, fm = random_product(rng, n=4, m=m, metric=trial % 2 == 0)
        for batched, loop in ((batched_fmap_triangle, loop_fmap_triangle),
                              (lambda p, f: _graph_oracle(p, f)[1],
                               loop_graph_order)):
            nb, _ = _lp_calls(monkeypatch, batched, pi, fm)
            nl, _ = _lp_calls(monkeypatch, loop, pi, fm)
            assert nb <= nl, (trial, nb, nl)
            totals["batched"] += nb
            totals["loop"] += nl
    assert totals["loop"] > 0  # the LP fallback was exercised
