"""The batched sweeps against query-by-query loops.

``relation_matrix``, ``ti_check``, the triangle sweep of
``validate_fmap`` and the graph order of ``_graph_oracle`` screen whole
stacks of membership queries at once, and so do the certificate
conclusions (``_conclusion_strict``, ``_section_of_start``,
``_separation_conclusion``), the premises and the separation checks of the
hypothesis gate. The loops below ask the same questions one
``minkowski_member`` call (or one vertex minimum) at a time, in the same
order; the batched code must return the same matrices, witnesses and
conclusions, and must never run more phase-1 LPs than the loops.
"""

import math

import numpy as np
import pytest

from evpkit import geometry, instances
from evpkit.errors import HypothesisError, InputError, PremiseError
from evpkit.geometry import (LinearFunctional, Polytope, cone_contains,
                             minkowski_member, orthant, singleton)
from evpkit.instances import (ExtensionalFamily, FiniteInstance, MetricSpace,
                              OpenPolytopeFamily, PolytopeDirection,
                              QuasiMetric, QuasiMetricDirection, SetValuedMap,
                              SingletonDirection, _pairwise_separation,
                              _uniform_separation, eps_h_efficient,
                              family_arrays, pair_arrays, preceq,
                              relation_matrix, settled_triples, ti_check,
                              triangle_failure, vertex_minima)
from evpkit.product import (FMap, ProductInstance, _graph_oracle,
                            _section_of_start, _separation_conclusion,
                            fmap_from_rate, prec_f, prec_fstar, validate_fmap)
from evpkit.scalarize import GerstewitzFn
from evpkit.solvers import Conclusion, _conclusion_strict, _pointwise_premise

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
        scale, H = fm.value_set(x, xhat)
        if minkowski_member(yhat, [y], scale, H, pi.cone, pi.tol):
            violations.append({"x": x, "y": y})
    return Conclusion(name, not violations, {"violations": violations})


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
    """Every label as xhat, on every family kind over ragged value sets and
    orthant or random cones; both violations and separations occur."""
    rng = np.random.default_rng(1300 + m)
    seen = {"violations": 0, "separations": 0}
    for trial in range(10):
        kind = KINDS[trial % 5]
        inst, fam, _ = random_instance(rng, n=5, m=m, kind=kind,
                                       metric=trial % 3 != 2,
                                       ragged=trial % 4 != 1)
        for xhat in inst.labels:
            got = _conclusion_strict(inst, fam, xhat).to_dict()
            assert got == loop_conclusion_strict(inst, fam, xhat).to_dict(), \
                (trial, kind, xhat)
            for key in seen:
                seen[key] += len(got["witness"][key])
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
        minima = vertex_minima(inst, fam, xi)
        for section in (list(inst.labels),
                        [x for x in inst.labels if rng.random() < 0.6]):
            got = _pairwise_separation(inst, minima, section)
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
            assert _same_pairs(_section_of_start(moved, fm),
                               loop_section_of_start(moved, fm))
        for xhat, yhat in pi.graph:
            for label_only in (True, False):
                got = _separation_conclusion(pi, fm, xhat, yhat, label_only,
                                             "b").to_dict()
                assert got == loop_separation_conclusion(
                    pi, fm, xhat, yhat, label_only, "b").to_dict()
                violations += len(got["witness"]["violations"])
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


def screen_covers(S, V, C, tol):
    """``covered[a, b, c]``: the screen of the shared-polytope triangle sweep
    decides every query of the triple as covered (or the sweep skips it),
    from the same screen_members call the sweep makes for x1 = a."""
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
    S, V, _ = family_arrays(inst.space, fam)
    settled = settled_triples(S[..., 0], V, C, TOL)
    assert not (settled & ~screen_covers(S[..., 0], V, C, TOL)).any()
    if quasi is None:
        labels = pi.base.labels
        got = _outcome(triangle_failure, labels,
                       *pair_arrays(labels, fm.value_set), C, TOL)
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
        S, V, _ = family_arrays(inst.space, fam)
        left[name] = int((~settled_triples(S[..., 0], V, C, TOL)).sum())
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
        settled = settled_triples(S, V, C, TOL)
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
    S, V, _ = family_arrays(inst.space, fam)
    settled = settled_triples(S[..., 0], V, C, TOL)
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
    rng = np.random.default_rng(8)
    inst, fam, _ = random_instance(rng, n=6, m=2, kind="polytope",
                                   metric=False)
    calls, got = _calls(monkeypatch, instances, "screen_members", ti_check,
                        inst, fam)
    assert calls >= 1 and got == loop_ti_check(inst, fam)


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
        for xhat in inst.labels[:3]:
            nb, got = _lp_calls(monkeypatch, _conclusion_strict, inst, fam,
                                xhat)
            nl, want = _lp_calls(monkeypatch, loop_conclusion_strict, inst,
                                 fam, xhat)
            assert got.to_dict() == want.to_dict() and nb <= nl, (trial, nb,
                                                                  nl)
            totals["batched"] += nb
            totals["loop"] += nl
        pi, fm = random_product(rng, n=4, m=m, metric=trial % 2 == 0)
        xhat, yhat = pi.graph[-1]
        for batched, loop in (
                (batched_fmap_triangle, loop_fmap_triangle),
                (lambda p, f: _graph_oracle(p, f)[1], loop_graph_order),
                (_section_of_start, loop_section_of_start),
                (lambda p, f: _separation_conclusion(p, f, xhat, yhat, True,
                                                     "b").to_dict(),
                 lambda p, f: loop_separation_conclusion(
                     p, f, xhat, yhat, True, "b").to_dict()),
                (lambda p, f: _separation_conclusion(p, f, xhat, yhat, False,
                                                     "b").to_dict(),
                 lambda p, f: loop_separation_conclusion(
                     p, f, xhat, yhat, False, "b").to_dict())):
            nb, _ = _lp_calls(monkeypatch, batched, pi, fm)
            nl, _ = _lp_calls(monkeypatch, loop, pi, fm)
            assert nb <= nl, (trial, nb, nl)
            totals["batched"] += nb
            totals["loop"] += nl
    assert totals["loop"] > 0  # the LP fallback was exercised
