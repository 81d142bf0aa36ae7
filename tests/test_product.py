"""Graph-space orders, Pareto minima, domination, and the product solvers."""

import math

import numpy as np
import pytest

from evpkit.errors import HypothesisError, InputError, PremiseError
from evpkit.geometry import (LinearFunctional, Polytope, cone, orthant,
                             singleton, strictly_positive_functional)
from evpkit.instances import MetricSpace, metric_from_coordinates
from evpkit.product import (FMap, ProductInstance, domination_check,
                            fmap_from_rate, pair_arrays, pareto_min, prec_f,
                            prec_fstar, solve_minimal_point, solve_pareto_evp,
                            solve_strict_minimal, strict_pareto_min,
                            validate_fmap, zeta)
from evpkit.scalarize import GerstewitzFn

from conftest import generated_bundle

D2 = orthant(2)


def as_set(points):
    return {tuple(np.round(p, 9)) for p in points}


class TestParetoMin:
    def test_basic_front(self):
        B = [[0, 1], [1, 0], [1, 1]]
        assert as_set(pareto_min(B, D2)) == {(0, 1), (1, 0)}

    def test_singleton(self):
        assert as_set(pareto_min([[3, 4]], D2)) == {(3, 4)}

    def test_coarser_cone_larger_front(self):
        ray = cone([[1, 0], [0, 1], [0, -1]])  # {y : y1 >= 0, y2 = 0}
        B = [[0, 1], [1, 2]]
        assert len(pareto_min(B, D2)) == 1
        assert len(pareto_min(B, ray)) == 2

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            pareto_min([], D2)


class TestStrictParetoMin:
    def test_pointed_cone_agrees(self):
        B = [[0, 1], [1, 0], [1, 1]]
        assert as_set(strict_pareto_min(B, D2)) == as_set(pareto_min(B, D2))

    def test_duplicates_disqualify_both(self):
        B = [[1, 1], [1, 1], [0, 2]]
        assert as_set(strict_pareto_min(B, D2)) == {(0, 2)}
        assert len(pareto_min(B, D2)) == 3

    def test_non_pointed_cone_strictly_smaller(self):
        halfplane = cone([[0, 1]])
        B = [[0, 0], [1, 0], [0, 1]]
        mins = pareto_min(B, halfplane)
        smins = strict_pareto_min(B, halfplane)
        assert len(smins) < len(mins)
        assert as_set(smins) == set()


class TestDomination:
    def test_finite_pointed_always_dominates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            B = rng.normal(size=(int(rng.integers(1, 9)), m))
            ok, wit = domination_check(B, orthant(m))
            assert ok and wit is None
            ok, wit = domination_check(B, orthant(m), strict=True)
            assert ok

    def test_single_point(self):
        ok, _ = domination_check([[5, 5]], D2)
        assert ok

    def test_strict_fails_without_strict_minima(self):
        halfplane = cone([[0, 1]])
        ok, wit = domination_check([[0, 0], [1, 0], [0, 1]], halfplane,
                                   strict=True)
        assert not ok and wit is not None


@pytest.fixture
def plane_pi():
    base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    graph = (("a", [1.0, 1.0]), ("b", [0.0, 0.5]), ("b", [0.5, 0.0]))
    return ProductInstance(graph, base, ("a", [1.0, 1.0]), D2)


@pytest.fixture
def plane_fm(plane_pi):
    gz = GerstewitzFn(D2, [1.0, 1.0])
    return fmap_from_rate(plane_pi.base, singleton([1.0, 1.0]), 0.25, gz)


class TestGraphOrders:
    def test_reflexive(self, plane_pi, plane_fm):
        for pair in plane_pi.graph:
            assert prec_f(plane_pi, plane_fm, pair, pair)
            assert prec_fstar(plane_pi, plane_fm, pair, pair)

    def test_dominated_pair_detected(self, plane_pi, plane_fm):
        assert prec_f(plane_pi, plane_fm, ("b", [0.0, 0.5]),
                      ("a", [1.0, 1.0]))

    def test_transitive_over_triples(self, plane_pi, plane_fm):
        pairs = plane_pi.graph
        for p in pairs:
            for q in pairs:
                for r in pairs:
                    if (prec_f(plane_pi, plane_fm, p, q)
                            and prec_f(plane_pi, plane_fm, q, r)):
                        assert prec_f(plane_pi, plane_fm, p, r)

    def test_fstar_needs_strict_drop(self, plane_pi):
        # linear functional constant on the difference: tie blocks the order
        base = plane_pi.base
        fm = fmap_from_rate(base, singleton([1.0, 1.0]), 0.25,
                            GerstewitzFn(D2, [1.0, 1.0]))
        p2, p1 = ("b", [0.0, 0.5]), ("b", [0.5, 0.0])
        # the two slice values are incomparable: no coverage either way
        assert not prec_fstar(plane_pi, fm, p2, p1)
        assert not prec_fstar(plane_pi, fm, p1, p2)

    def test_fstar_tie_blocks_while_plain_holds(self):
        # same-label pairs ordered by the cone but tied under the
        # functional: the plain order holds, the strict refinement refuses
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        graph = (("a", [0.0, 1.0]), ("a", [1.0, 1.0]), ("b", [0.0, 0.0]))
        pi = ProductInstance(graph, base, ("a", [1.0, 1.0]), D2)
        xi = strictly_positive_functional(singleton([0.0, 1.0]), D2, pi.tol)
        fm = fmap_from_rate(pi.base, singleton([0.0, 1.0]), 1.0, xi)
        low, high = ("a", [0.0, 1.0]), ("a", [1.0, 1.0])
        assert prec_f(pi, fm, low, high)
        assert not prec_fstar(pi, fm, low, high)

    def test_antisymmetry_enumerated(self):
        for seed in range(8):
            b = generated_bundle(seed + 800, n=3, m=2, values_per_point=2)
            pi = b.product
            H = singleton(b.raw["perturbation"]["k0"]
                          if b.raw["perturbation"].get("k0")
                          else [1.0, 1.0])
            xi = strictly_positive_functional(H, pi.cone, pi.tol)
            fm = fmap_from_rate(pi.base, H, 0.5, xi)
            for p in pi.graph:
                for q in pi.graph:
                    if (prec_fstar(pi, fm, p, q) and prec_fstar(pi, fm, q, p)):
                        assert p[0] == q[0] and np.array_equal(p[1], q[1])


def _zeta(pi, fm, delta):
    S, V, _ = pair_arrays(pi, fm)
    return zeta(S, V, fm.xi, pi.base.dist, delta)


class TestZeta:
    def test_ray_closed_form(self, plane_pi, plane_fm):
        # rate * delta * value(k0) = 0.25 * 1 * 1
        assert abs(_zeta(plane_pi, plane_fm, 1.0) - 0.25) <= 1e-12

    def test_beyond_diameter(self, plane_pi, plane_fm):
        assert _zeta(plane_pi, plane_fm, 99.0) == math.inf

    def test_linear_vertex_form(self):
        base = metric_from_coordinates(("a", "b"), [[0, 0], [2, 0]]).validate()
        H = Polytope([[1.0, 0.0], [0.0, 3.0]])
        xi = strictly_positive_functional(H, D2, 1e-9)
        fm = fmap_from_rate(base, H, 0.5, xi)
        pi = ProductInstance((("a", [0.0, 0.0]),), base, ("a", [0.0, 0.0]),
                             D2)
        expected = min(xi.value(0.5 * 2.0 * v) for v in H.vertices)
        assert abs(_zeta(pi, fm, 2.0) - expected) <= 1e-9


class TestValidateFmap:
    def test_valid(self, plane_pi, plane_fm):
        rep = validate_fmap(plane_pi, plane_fm)
        assert rep["zeta"] > 0

    def test_off_ray_rejected_for_cone_scalarization(self, plane_pi):
        gz = GerstewitzFn(D2, [1.0, 1.0])
        fm = fmap_from_rate(plane_pi.base, Polytope([[1.0, 0.5]]), 0.5, gz)
        with pytest.raises(HypothesisError) as err:
            validate_fmap(plane_pi, fm)
        assert err.value.name == "additive_scalarization"

    def test_missing_zero_rejected(self, plane_pi):
        gz = GerstewitzFn(D2, [1.0, 1.0])
        table = {(x2, x1): (1.0, singleton([1.0, 1.0]))
                 for x2 in plane_pi.base.labels
                 for x1 in plane_pi.base.labels}
        with pytest.raises(HypothesisError) as err:
            validate_fmap(plane_pi, FMap(table, gz))
        assert err.value.name == "reflexive_zero"


class TestMinimalPoint:
    def test_three_pair_instance(self, plane_pi, plane_fm):
        cert = solve_minimal_point(plane_pi, plane_fm)
        assert cert.theorem == "5.1"
        assert cert.all_hold()
        # brute-force check: the result is minimal in the strict order
        for p in plane_pi.graph:
            if p[0] == cert.xhat and np.array_equal(p[1], cert.yhat):
                continue
            assert not prec_fstar(plane_pi, plane_fm, p,
                                  (cert.xhat, cert.yhat))

    def test_singleton_graph(self):
        base = MetricSpace(("a",), [[0.0]]).validate()
        pi = ProductInstance((("a", [0.0, 0.0]),), base, ("a", [0.0, 0.0]), D2)
        fm = fmap_from_rate(base, singleton([1.0, 1.0]), 1.0,
                            GerstewitzFn(D2, [1.0, 1.0]))
        cert = solve_minimal_point(pi, fm)
        assert cert.xhat == "a" and cert.all_hold()

    def test_shared_label_pairs(self):
        # two pairs share the terminal label; the separation conclusion
        # quantifies other labels only
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        graph = (("a", [2.0, 2.0]), ("b", [0.0, 1.0]), ("b", [1.0, 0.0]))
        pi = ProductInstance(graph, base, ("a", [2.0, 2.0]), D2)
        fm = fmap_from_rate(base, singleton([1.0, 1.0]), 0.25,
                            GerstewitzFn(D2, [1.0, 1.0]))
        cert = solve_minimal_point(pi, fm)
        assert cert.xhat == "b"
        assert cert.all_hold()

    def test_brute_force_containment_random(self):
        for seed in range(10):
            b = generated_bundle(seed + 900, n=3, m=2, values_per_point=2)
            pi = b.product
            H = singleton([1.0, 1.0])
            xi = strictly_positive_functional(H, pi.cone, pi.tol)
            fm = fmap_from_rate(pi.base, H, 0.4, xi)
            cert = solve_minimal_point(pi, fm)
            minimal = [
                p for p in pi.graph
                if all(not prec_fstar(pi, fm, q, p)
                       or (q[0] == p[0] and np.array_equal(q[1], p[1]))
                       for q in pi.graph)]
            assert any(cert.xhat == p[0] and np.array_equal(cert.yhat, p[1])
                       for p in minimal)


class TestStrictMinimal:
    def test_post_processing_moves_down(self):
        base = MetricSpace(("a", "b"), [[0.0, 4.0], [4.0, 0.0]]).validate()
        # slice at 'a' has two comparable values; far-away 'b' stays isolated
        graph = (("a", [1.0, 1.0]), ("a", [0.5, 0.5]), ("b", [9.0, 9.0]))
        pi = ProductInstance(graph, base, ("a", [1.0, 1.0]), D2)
        fm = fmap_from_rate(base, singleton([1.0, 1.0]), 1.0,
                            GerstewitzFn(D2, [1.0, 1.0]))
        cert = solve_strict_minimal(pi, fm)
        assert cert.theorem == "5.2"
        assert cert.xhat == "a"
        assert np.allclose(cert.yhat, [0.5, 0.5])
        assert cert.all_hold()

    def test_singleton_slices_reduce_to_minimal_point(self, plane_pi,
                                                      plane_fm):
        # 'b' has two values, but they are incomparable; the post-processing
        # keeps the engine's pick
        strict = solve_strict_minimal(plane_pi, plane_fm)
        plain = solve_minimal_point(plane_pi, plane_fm)
        assert strict.xhat == plain.xhat
        assert np.array_equal(strict.yhat, plain.yhat)

    def test_random_pointed_instances(self):
        for seed in range(8):
            b = generated_bundle(seed + 950, n=3, m=2, values_per_point=2)
            pi = b.product
            H = singleton([1.0, 1.0])
            xi = strictly_positive_functional(H, pi.cone, pi.tol)
            fm = fmap_from_rate(pi.base, H, 0.4, xi)
            cert = solve_strict_minimal(pi, fm)
            assert cert.all_hold(), seed
            slice_vals = pi.slice_values(cert.xhat)
            assert any(np.array_equal(cert.yhat, y)
                       for y in strict_pareto_min(slice_vals, pi.cone, pi.tol))


class TestParetoEvp:
    def test_two_point_scalar(self):
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        D1 = cone([[1.0]], generators=[[1.0]])
        graph = (("a", [1.0]), ("b", [0.0]))
        pi = ProductInstance(graph, base, ("a", [1.0]), D1)
        cert = solve_pareto_evp(pi, [1.0], 1.5, 2.0)
        assert cert.theorem == "5.6"
        assert cert.xhat == "b" and cert.all_hold()
        assert cert.conclusion("c").witness["distance"] <= 2.0

    def test_premise_failure(self):
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        D1 = cone([[1.0]], generators=[[1.0]])
        graph = (("a", [1.0]), ("b", [0.0]))
        pi = ProductInstance(graph, base, ("a", [1.0]), D1)
        with pytest.raises(PremiseError):
            solve_pareto_evp(pi, [1.0], 0.5, 2.0)

    def test_tiny_budget_forces_start_label(self):
        base = MetricSpace(("a", "b"), [[0.0, 8.0], [8.0, 0.0]]).validate()
        D1 = cone([[1.0]], generators=[[1.0]])
        graph = (("a", [1.0]), ("a", [0.5]), ("b", [0.0]))
        pi = ProductInstance(graph, base, ("a", [1.0]), D1)
        # epsilon/lambda = 2: covering b needs 1 in 0 + 16 + D, impossible
        cert = solve_pareto_evp(pi, [1.0], 4.0, 2.0)
        assert cert.xhat == "a"
        assert cert.conclusion("c").witness["distance"] == 0.0
        assert cert.all_hold()


class TestInstanceValidation:
    def test_duplicate_pairs_rejected(self):
        base = MetricSpace(("a",), [[0.0]]).validate()
        with pytest.raises(InputError):
            ProductInstance((("a", [1.0, 1.0]), ("a", [1.0, 1.0])), base,
                            ("a", [1.0, 1.0]), D2)

    def test_start_must_be_in_graph(self):
        base = MetricSpace(("a",), [[0.0]]).validate()
        with pytest.raises(InputError):
            ProductInstance((("a", [1.0, 1.0]),), base, ("a", [0.0, 0.0]), D2)


def test_pair_map_in_cone_names_the_first_value_leaving_the_cone():
    """Values at a scale above tol are checked together; the first pair in
    label order is named, a value at scale 0 is not checked, and a vertex
    of the wrong dimension raises an InputError naming its pair before any
    check runs."""
    labels = ("a", "b", "c")
    d = np.ones((3, 3)) - np.eye(3)
    space = MetricSpace(labels, d).validate()
    graph = (("a", np.zeros(2)), ("b", np.ones(2)), ("c", 2 * np.ones(2)))
    pi = ProductInstance(graph, space, graph[0], D2)

    def fmap(changes):
        table = {(x2, x1): (float(d[i, j]), Polytope([[0.5, 0.5], [1.0, 0.0]]))
                 for i, x2 in enumerate(labels)
                 for j, x1 in enumerate(labels)}
        table.update(changes)
        return FMap(table, LinearFunctional([1.0, 1.0]))

    with pytest.raises(HypothesisError, match=r"\('b', 'a'\) leaves") as err:
        validate_fmap(pi, fmap({("b", "a"): (1.0, Polytope([[1.0, -1.0]])),
                                ("c", "a"): (1.0, Polytope([[-1.0, 1.0]]))}))
    assert err.value.name == "pair_map_in_cone"
    validate_fmap(pi, fmap({("a", "a"): (0.0, Polytope([[1.0, -1.0]]))}))
    with pytest.raises(InputError, match=r"\('b', 'c'\) has dimension 3"):
        validate_fmap(pi, fmap({("b", "c"): (1.0, Polytope([[1.0, 1.0, 1.0]])),
                                ("c", "a"): (1.0, Polytope([[-1.0, 1.0]]))}))
    # a value at scale 0 skips the cone check but not the dimension check
    for scale in (0.0, 1e-12):
        with pytest.raises(InputError, match=r"\('a', 'a'\) has dimension 3"):
            validate_fmap(pi, fmap({("a", "a"): (scale,
                                                 Polytope([[1.0, 1.0, 1.0]]))}))


def _ragged_fmap(labels, d, changes):
    """Pair map over ``labels`` with 1 to 3 vertices per value, all between
    (0.5, 0.5) and (1, 1), with ``changes`` applied."""
    shapes = ([[1.0, 1.0]], [[0.5, 0.5], [1.0, 0.5]],
              [[0.5, 1.0], [1.0, 0.5], [0.5, 0.5]])
    table = {(x2, x1): (float(d[i, j]), Polytope(shapes[(i + j) % 3]))
             for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}
    table.update(changes)
    return FMap(table, LinearFunctional([1.0, 1.0]))


def test_graph_solvers_name_a_wrong_dimension_value_at_scale_zero():
    """A value of the wrong dimension at scale 0 skips the cone check; both
    graph solvers still stop at the dimension check that names the pair,
    before any stack of the ragged map is built."""
    labels = ("a", "b", "c")
    d = np.ones((3, 3)) - np.eye(3)
    space = MetricSpace(labels, d).validate()
    graph = (("a", 2 * np.ones(2)), ("b", np.ones(2)), ("c", np.zeros(2)))
    pi = ProductInstance(graph, space, graph[0], D2)
    for key in (("b", "a"), ("c", "c")):
        fm = _ragged_fmap(labels, d, {key: (0.0, Polytope([[1.0, 1.0, 1.0]]))})
        for solve in (solve_minimal_point, solve_strict_minimal):
            with pytest.raises(InputError,
                               match=rf"\({key[0]!r}, {key[1]!r}\) has "
                                     "dimension 3, expected 2"):
                solve(pi, fm)
    # the same map with the right dimension solves
    cert = solve_strict_minimal(pi, _ragged_fmap(labels, d, {}))
    assert cert.xhat == "c" and cert.all_hold()


def test_strict_minimal_checks_the_pair_map_before_the_slices():
    """5.2 validates the pair map before it takes the start section, so a
    map leaving the cone is reported even where a slice also lacks the
    strict domination property."""
    base = MetricSpace(("a",), [[0.0]]).validate()
    halfplane = cone([[0.0, 1.0]])
    graph = (("a", [0.0, 0.0]), ("a", [1.0, 0.0]))
    pi = ProductInstance(graph, base, graph[0], halfplane)
    with pytest.raises(HypothesisError) as err:
        solve_strict_minimal(pi, FMap({("a", "a"): (0.0, singleton([0, 1]))},
                                      LinearFunctional([0.0, 1.0])))
    assert err.value.name == "strict_domination"
    bad = FMap({("a", "a"): (1.0, singleton([0.0, -1.0]))},
               LinearFunctional([0.0, 1.0]))
    with pytest.raises(HypothesisError) as err:
        solve_strict_minimal(pi, bad)
    assert err.value.name == "pair_map_in_cone"


def _reversed_fmap(labels, d, value, changes, xi):
    """Pair map with ``value`` at every pair, scaled by distance, whose table
    lists the pairs in reverse label order, with ``changes`` applied."""
    table = {(x2, x1): (float(d[i, j]), value)
             for i, x2 in reversed(list(enumerate(labels)))
             for j, x1 in reversed(list(enumerate(labels)))}
    table.update(changes)
    return FMap(table, xi)


def test_pair_map_checks_name_the_first_pair_in_label_order():
    """The cone and additivity checks read the pair arrays and name the
    first failing pair in label order, whatever the table's order: here
    (c, a) comes before (b, c) in the table."""
    labels = ("a", "b", "c")
    d = np.ones((3, 3)) - np.eye(3)
    space = MetricSpace(labels, d).validate()
    graph = (("a", 2 * np.ones(2)), ("b", np.ones(2)), ("c", np.zeros(2)))
    pi = ProductInstance(graph, space, graph[0], D2)
    ray = Polytope([[0.5, 0.5], [1.0, 1.0]])
    changes = {("c", "a"): (1.0, Polytope([[1.0, 1.0], [-1.0, 1.0]])),
               ("b", "c"): (1.0, Polytope([[1.0, 1.0], [1.0, -1.0]]))}
    fm = _reversed_fmap(labels, d, ray, changes, LinearFunctional([1, 1]))
    assert list(fm.table).index(("c", "a")) < list(fm.table).index(("b", "c"))
    with pytest.raises(HypothesisError, match=r"\('b', 'c'\) leaves") as err:
        validate_fmap(pi, fm)
    assert err.value.name == "pair_map_in_cone"
    gz = GerstewitzFn(D2, [1.0, 1.0])
    changes = {("c", "a"): (1.0, Polytope([[1.0, 1.0], [1.0, 0.5]])),
               ("b", "c"): (1.0, Polytope([[1.0, 0.5], [1.0, 1.0]]))}
    with pytest.raises(HypothesisError, match=r"\('b', 'c'\) is off") as err:
        validate_fmap(pi, _reversed_fmap(labels, d, ray, changes, gz))
    assert err.value.name == "additive_scalarization"
    # on the ray everywhere, the same map passes with the cone scalarization
    rep = validate_fmap(pi, _reversed_fmap(labels, d, ray, {}, gz))
    assert rep["zeta"] == 0.5


def test_pair_map_key_outside_the_base_or_missing_is_rejected():
    """A key naming a label outside the base space is an InputError naming
    the key, in a direct check and in both graph solvers, even where its
    value would leave the cone; so is a missing pair."""
    labels = ("a", "b")
    d = np.ones((2, 2)) - np.eye(2)
    space = MetricSpace(labels, d).validate()
    graph = (("a", np.ones(2)), ("b", np.zeros(2)))
    pi = ProductInstance(graph, space, graph[0], D2)
    fm = _reversed_fmap(labels, d, singleton([1.0, 1.0]),
                        {("a", "z"): (1.0, singleton([-1.0, -1.0]))},
                        LinearFunctional([1.0, 1.0]))
    for check in (validate_fmap, solve_minimal_point, solve_strict_minimal):
        with pytest.raises(InputError, match=r"key \('a', 'z'\) names a "
                                             "label outside the base space"):
            check(pi, fm)
    del fm.table[("a", "z")], fm.table[("b", "a")]
    for check in (validate_fmap, solve_minimal_point, solve_strict_minimal):
        with pytest.raises(InputError, match=r"^pair map is not total: "
                                             r"missing \('b', 'a'\)$"):
            check(pi, fm)


def test_dimension_error_text_is_one_for_all_callers():
    """A value of the wrong dimension gives the same InputError text from a
    direct check and from both graph solvers."""
    labels = ("a", "b")
    d = np.ones((2, 2)) - np.eye(2)
    space = MetricSpace(labels, d).validate()
    graph = (("a", np.ones(2)), ("b", np.zeros(2)))
    pi = ProductInstance(graph, space, graph[0], D2)
    fm = _reversed_fmap(labels, d, singleton([1.0, 1.0]),
                        {("b", "a"): (1.0, singleton([1.0, 1.0, 1.0]))},
                        LinearFunctional([1.0, 1.0]))
    for check in (validate_fmap, solve_minimal_point, solve_strict_minimal):
        with pytest.raises(InputError) as err:
            check(pi, fm)
        assert str(err.value) == ("pair-map value for ('b', 'a') has "
                                  "dimension 3, expected 2")


def test_margin_of_a_zero_scale_value_is_zero():
    """A value at scale 0 is the set {0}, whose cone scalarization is 0 even
    when its vertex is at +inf (here (1, 1e-8) along k0 = (1, 0)); the
    margin is then 0 and the separation check fails."""
    space = MetricSpace(("a", "b"), np.ones((2, 2)) - np.eye(2)).validate()
    graph = (("a", [1.0, 0.0]), ("b", [0.0, 0.0]))
    pi = ProductInstance(graph, space, graph[0], D2)
    gz = GerstewitzFn(D2, [1.0, 0.0])
    P = Polytope([[1.0, 1e-8]])
    assert gz.value(P.vertices[0]) == math.inf
    table = {("a", "a"): (0.0, P), ("a", "b"): (0.0, P),
             ("b", "a"): (1.0, P), ("b", "b"): (0.0, P)}
    with pytest.raises(HypothesisError) as err:
        validate_fmap(pi, FMap(table, gz))
    assert err.value.name == "positive_separation"
    assert err.value.witness == {"zeta": 0.0}
