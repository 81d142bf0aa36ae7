"""Graph-space orders, Pareto minima, domination, and the product solvers."""

import math

import numpy as np
import pytest

from evpkit.errors import HypothesisError, InputError, PremiseError
from evpkit.geometry import (LinearFunctional, Polytope, as_point, cone,
                             orthant, singleton, strictly_positive_functional)
from evpkit.instances import (ExtensionalFamily, MetricSpace,
                              metric_from_coordinates, vertex_minima)
from evpkit.product import (FMap, ProductInstance, _pair_index,
                            domination_check, fmap_from_rate, graph_arrays,
                            pareto_min, prec_f,
                            prec_fstar, solve_minimal_point, solve_pareto_evp,
                            solve_strict_minimal, strict_pareto_min,
                            validate_fmap, zeta)
from evpkit.scalarize import GerstewitzFn, gz_value

from conftest import generated_bundle

D2 = orthant(2)


def pair_map(labels, values, xi):
    """The hand-built pair map of ``values``, ``{(x2, x1): Polytope}`` in
    the given key order, as an extensional family of the one index "F"."""
    return FMap(ExtensionalFamily(labels, ("F",), {
        ("F", *key): P for key, P in values.items()}), xi)


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
    def test_graph_is_stacked_once(self, plane_pi, plane_fm):
        """``values`` and ``label_index`` hold the graph's values and the
        base positions of their labels, read-only; ``all_values``,
        ``graph_arrays`` and ``_pair_index`` read them."""
        pi = plane_pi
        assert np.array_equal(pi.values, np.array([y for _, y in pi.graph]))
        assert pi.label_index.tolist() == [0, 1, 1]
        assert not pi.values.flags.writeable
        assert pi.all_values() is pi.values
        assert np.array_equal(graph_arrays(pi, plane_fm)[3][:, 0], pi.values)
        assert [_pair_index(pi, x, y) for x, y in pi.graph] == [0, 1, 2]

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
        # w . (0, 1) ties the two values; the closed-form functional of
        # H = {(0, 1)} would be w = (1, 1), which breaks the tie
        xi = LinearFunctional([0.0, 1.0], alpha=1.0)
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
    S, V, _ = fm.family.arrays(pi.base)
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
        labels = plane_pi.base.labels
        values = {(x2, x1): singleton([1.0, 1.0])
                  for x2 in labels for x1 in labels}
        with pytest.raises(HypothesisError) as err:
            validate_fmap(plane_pi, pair_map(labels, values, gz))
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

    @pytest.mark.parametrize("faults,text", [
        ((("zz", [1.0, 1.0]), ("a", [1.0, 1.0, 1.0])),
         "graph label 'zz' is not in the base space"),
        ((("a", [1.0, 1.0, 1.0]), ("zz", [1.0, 1.0])),
         "dimension mismatch: expected 2, got 3"),
    ], ids=["label-first", "dimension-first"])
    def test_the_first_faulty_pair_is_named(self, faults, text):
        base = MetricSpace(("a",), [[0.0]]).validate()
        graph = faults + (("a", [0.0, 0.0]),)
        with pytest.raises(InputError) as err:
            ProductInstance(graph, base, ("a", [0.0, 0.0]), D2)
        assert str(err.value) == text

    def test_array_build_equals_the_pair_loop(self):
        """Random graphs with faults in random pairs, given as lists or
        arrays: the instance rejects each with the text of the pair-by-pair
        loop, or accepts it with the loop's pairs."""
        rng = np.random.default_rng(30)
        base = MetricSpace(("a", "b", "c"),
                           np.ones((3, 3)) - np.eye(3)).validate()
        faults = ([1.0, 2.0, 3.0], [1.0], 1.0, [[1.0, 2.0]], [math.nan, 1.0],
                  [1.0, -math.inf], [], ["1", "2"], [1, 2], "12", None,
                  [None, 1.0])
        outcomes = set()
        for trial in range(600):
            graph = [(str(rng.choice(["a", "b", "c"])),
                      rng.choice([0.0, -0.0, 1.0, 2.5], size=2))
                     for _ in range(rng.integers(0, 6))]
            for _ in range(rng.integers(0, 3)):
                if not graph:
                    break
                p = int(rng.integers(len(graph)))
                kind = rng.integers(3)
                if kind == 0:
                    graph[p] = ("zz", graph[p][1])
                elif kind == 1:
                    graph[p] = (graph[p][0], faults[rng.integers(len(faults))])
                else:
                    graph.insert(p + 1, graph[int(rng.integers(p + 1))])
            if trial % 2:
                graph = [(x, y.tolist() if isinstance(y, np.ndarray) else y)
                         for x, y in graph]
            start = (graph[int(rng.integers(len(graph)))] if graph
                     and rng.random() < 0.8 else ("a", [0.5, 0.5]))
            try:
                want = loop_product_pairs(graph, base, start, D2)
            except InputError as exc:
                want = str(exc)
            try:
                pi = ProductInstance(tuple(graph), base, start, D2)
                got = [(x, y.tolist()) for x, y in pi.graph]
                assert pi.values.tolist() == [y for _, y in got]
                assert pi.label_index.tolist() == [
                    base.labels.index(x) for x, _ in got]
            except InputError as exc:
                got = str(exc)
            if not isinstance(want, str):
                want = [(x, y.tolist()) for x, y in want]
            assert got == want, (trial, graph, start)
            outcomes.add(want if isinstance(want, str) else "accepted")
        assert len(outcomes) >= 8, outcomes

    def test_start_pair_membership(self):
        """The start pair is a member by label and value, whatever form the
        value takes: -0.0 equals 0.0, and an integer list its floats."""
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        graph = (("a", [0.0, 1.0]), ("b", np.array([2.0, 3.0])))
        for start in (("a", [-0.0, 1.0]), ("a", np.array([0, 1])),
                      ("b", (2, 3.0))):
            pi = ProductInstance(graph, base, start, D2)
            assert pi.y0.tolist() == [float(v) for v in start[1]]
        for start in (("b", [0.0, 1.0]), ("a", [0.0, 1.0 + 1e-12])):
            with pytest.raises(InputError, match="start pair is not"):
                ProductInstance(graph, base, start, D2)
        with pytest.raises(InputError, match="dimension mismatch"):
            ProductInstance(graph, base, ("a", [0.0]), D2)

    def test_fields_keep_their_contents_and_writeability(self):
        """Lists and arrays give the same instance: ``graph`` holds one
        writeable float row per pair, apart from the read-only ``values``;
        ``label_index`` and the start value are writeable arrays."""
        base = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        lists = (("b", [0, 1]), ("a", [2.5, -1.0]), ("b", [0.5, 0.5]))
        arrays = tuple((x, np.array(y, dtype=float)) for x, y in lists)
        for graph, start in ((lists, ("a", [2.5, -1.0])),
                             (arrays, ("a", np.array([2.5, -1.0])))):
            pi = ProductInstance(graph, base, start, D2)
            assert [x for x, _ in pi.graph] == ["b", "a", "b"]
            assert pi.values.tolist() == [[0.0, 1.0], [2.5, -1.0],
                                          [0.5, 0.5]]
            assert pi.values.dtype == float and not pi.values.flags.writeable
            assert pi.label_index.tolist() == [1, 0, 1]
            assert pi.label_index.flags.writeable
            for p, (_, y) in enumerate(pi.graph):
                assert y.dtype == float and y.shape == (2,)
                assert y.flags.writeable
                assert y.tolist() == pi.values[p].tolist()
            assert pi.start[0] == "a" and pi.y0.tolist() == [2.5, -1.0]
            assert pi.y0.flags.writeable
            pi.graph[0][1][0] = 7.0
            assert pi.values[0, 0] == 0.0


def loop_product_pairs(graph, base, start, C):
    """The checks of :class:`ProductInstance` made pair by pair, in graph
    order: each pair's value, then its label, then that it repeats no
    earlier pair; then that the start pair is one of them. Returns the
    pairs, or raises the InputError of the first fault."""
    pairs, seen = [], set()
    for x, y in graph:
        y = as_point(y, C.dim)
        if x not in base.labels:
            raise InputError(f"graph label {x!r} is not in the base space")
        key = (x, tuple(y.tolist()))
        if key in seen:
            raise InputError(f"duplicate graph pair {key}")
        seen.add(key)
        pairs.append((x, y))
    if not pairs:
        raise InputError("empty graph")
    x0, y0 = start
    if (x0, tuple(as_point(y0, C.dim).tolist())) not in seen:
        raise InputError("start pair is not a member of the graph")
    return pairs


def _three_labels(values):
    """A product instance over three labels at distance 1 with ``values``
    at a, b, c."""
    labels = ("a", "b", "c")
    d = np.ones((3, 3)) - np.eye(3)
    space = MetricSpace(labels, d).validate()
    graph = tuple(zip(labels, values))
    return labels, d, ProductInstance(graph, space, graph[0], D2)


def test_pair_map_in_cone_names_the_first_value_leaving_the_cone():
    """Values at a scale above tol are checked together and the first pair
    in label order is named; a distance-scaled value at scale 0 is not
    checked, and a value of the wrong dimension raises an InputError before
    any check runs."""
    labels, d, pi = _three_labels((np.zeros(2), np.ones(2), 2 * np.ones(2)))
    V = np.array([[0.5, 0.5], [1.0, 0.0]])

    def fmap(changes):
        values = {(x2, x1): Polytope(d[i, j] * V)
                  for i, x2 in enumerate(labels)
                  for j, x1 in enumerate(labels)}
        values.update(changes)
        return pair_map(labels, values, LinearFunctional([1.0, 1.0]))

    with pytest.raises(HypothesisError, match=r"\('b', 'a'\) leaves") as err:
        validate_fmap(pi, fmap({("b", "a"): Polytope([[1.0, -1.0]]),
                                ("c", "a"): Polytope([[-1.0, 1.0]])}))
    assert err.value.name == "pair_map_in_cone"
    validate_fmap(pi, fmap({}))
    with pytest.raises(InputError,
                       match=r"^dimension mismatch: expected 2, got 3$"):
        validate_fmap(pi, fmap({("b", "c"): Polytope([[1.0, 1.0, 1.0]]),
                                ("c", "a"): Polytope([[-1.0, 1.0]])}))
    # over one label every scale is 0: H outside the cone is not checked
    base = MetricSpace(("a",), [[0.0]]).validate()
    one = ProductInstance((("a", np.zeros(2)),), base, ("a", np.zeros(2)), D2)
    out = fmap_from_rate(base, Polytope([[1.0, -1.0]]), 1.0,
                         LinearFunctional([1.0, 1.0]))
    assert validate_fmap(one, out)["zeta"] == math.inf
    # a value at scale 0 or 1e-12 skips the cone check but not the
    # dimension check
    for space, rate in ((base, 1.0), (pi.base, 1e-12)):
        one = ProductInstance((("a", np.zeros(2)),), space,
                              ("a", np.zeros(2)), D2)
        fm = fmap_from_rate(space, Polytope([[1.0, 1.0, 1.0]]), rate,
                            LinearFunctional([1.0, 1.0]))
        with pytest.raises(InputError, match=r"\('a', 'a'\) has dimension 3"):
            validate_fmap(one, fm)


def _ragged_fmap(labels, d, changes):
    """Pair map over ``labels`` with 1 to 3 vertices per value, all between
    (0.5, 0.5) and (1, 1) times the distance, with ``changes`` applied."""
    shapes = ([[1.0, 1.0]], [[0.5, 0.5], [1.0, 0.5]],
              [[0.5, 1.0], [1.0, 0.5], [0.5, 0.5]])
    values = {(x2, x1): Polytope(d[i, j] * np.array(shapes[(i + j) % 3]))
              for i, x2 in enumerate(labels) for j, x1 in enumerate(labels)}
    values.update(changes)
    return pair_map(labels, values, LinearFunctional([1.0, 1.0]))


def test_graph_solvers_name_a_wrong_dimension_value_at_scale_zero():
    """Both graph solvers stop at the dimension check, before any order
    test: a distance-scaled map names the pair (a, a), whose scale is 0, and
    a hand-built map gives its family's walk text."""
    labels, d, pi = _three_labels((2 * np.ones(2), np.ones(2), np.zeros(2)))
    rate = fmap_from_rate(pi.base, Polytope([[1.0, 1.0, 1.0]]), 0.5,
                          LinearFunctional([1.0, 1.0]))
    for solve in (solve_minimal_point, solve_strict_minimal):
        with pytest.raises(InputError, match=r"^pair-map value for \('a', "
                                             r"'a'\) has dimension 3, "
                                             "expected 2$"):
            solve(pi, rate)
        for key in (("b", "a"), ("c", "c")):
            fm = _ragged_fmap(labels, d, {key: Polytope([[1.0, 1.0, 1.0]])})
            with pytest.raises(InputError, match="^dimension mismatch: "
                                                 "expected 2, got 3$"):
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
    xi = LinearFunctional([0.0, 1.0])
    with pytest.raises(HypothesisError) as err:
        solve_strict_minimal(pi, pair_map(("a",), {("a", "a"): singleton(
            [0.0, 0.0])}, xi))
    assert err.value.name == "strict_domination"
    bad = pair_map(("a",), {("a", "a"): singleton([0.0, -1.0])}, xi)
    with pytest.raises(HypothesisError) as err:
        solve_strict_minimal(pi, bad)
    assert err.value.name == "pair_map_in_cone"


def _reversed_fmap(labels, d, value, changes, xi):
    """Pair map with ``value`` at every pair, scaled by distance, whose table
    lists the pairs in reverse label order, with ``changes`` applied."""
    values = {(x2, x1): Polytope(d[i, j] * value.vertices)
              for i, x2 in reversed(list(enumerate(labels)))
              for j, x1 in reversed(list(enumerate(labels)))}
    values.update(changes)
    return pair_map(labels, values, xi)


def test_pair_map_checks_name_the_first_pair_in_label_order():
    """The cone and additivity checks read the pair arrays and name the
    first failing pair in label order, whatever the table's order: here
    (c, a) comes before (b, c) in the table."""
    labels, d, pi = _three_labels((2 * np.ones(2), np.ones(2), np.zeros(2)))
    ray = Polytope([[0.5, 0.5], [1.0, 1.0]])
    changes = {("c", "a"): Polytope([[1.0, 1.0], [-1.0, 1.0]]),
               ("b", "c"): Polytope([[1.0, 1.0], [1.0, -1.0]])}
    fm = _reversed_fmap(labels, d, ray, changes, LinearFunctional([1, 1]))
    keys = list(fm.family.table)
    assert keys.index(("F", "c", "a")) < keys.index(("F", "b", "c"))
    with pytest.raises(HypothesisError, match=r"\('b', 'c'\) leaves") as err:
        validate_fmap(pi, fm)
    assert err.value.name == "pair_map_in_cone"
    gz = GerstewitzFn(D2, [1.0, 1.0])
    changes = {("c", "a"): Polytope([[1.0, 1.0], [1.0, 0.5]]),
               ("b", "c"): Polytope([[1.0, 0.5], [1.0, 1.0]])}
    with pytest.raises(HypothesisError, match=r"\('b', 'c'\) is off") as err:
        validate_fmap(pi, _reversed_fmap(labels, d, ray, changes, gz))
    assert err.value.name == "additive_scalarization"
    # on the ray everywhere, the same map passes with the cone scalarization
    rep = validate_fmap(pi, _reversed_fmap(labels, d, ray, {}, gz))
    assert rep["zeta"] == 0.5


def test_pair_map_key_outside_the_base_or_missing_is_rejected():
    """A key naming a label outside the map's labels is an InputError naming
    the key when the map is made, even where its value would leave the
    cone; a missing pair and labels other than the base's are InputErrors
    from a direct check and from both graph solvers."""
    labels = ("a", "b")
    d = np.ones((2, 2)) - np.eye(2)
    space = MetricSpace(labels, d).validate()
    graph = (("a", np.ones(2)), ("b", np.zeros(2)))
    pi = ProductInstance(graph, space, graph[0], D2)
    xi = LinearFunctional([1.0, 1.0])
    H = singleton([1.0, 1.0])
    with pytest.raises(InputError, match=r"key \('F', 'a', 'z'\) names an "
                                         "index or a label"):
        _reversed_fmap(labels, d, H, {("a", "z"): singleton([-1.0, -1.0])},
                       xi)
    values = {(x2, x1): H for x2 in labels for x1 in labels
              if (x2, x1) != ("b", "a")}
    other = {(x2, x1): H for x2 in ("a", "z") for x1 in ("a", "z")}
    for fm, text in (
            (pair_map(labels, values, xi),
             r"^extensional family is not total: missing \('F', 'b', 'a'\)$"),
            (pair_map(("a", "z"), other, xi),
             "^the space's labels are not the extensional family's")):
        for check in (validate_fmap, solve_minimal_point,
                      solve_strict_minimal):
            with pytest.raises(InputError, match=text):
                check(pi, fm)


def test_pair_map_is_a_family_of_one_index():
    """A family with two indices is no pair map."""
    labels = ("a",)
    two = ExtensionalFamily(labels, ("F", "G"), {
        (lam, "a", "a"): singleton([0.0, 0.0]) for lam in ("F", "G")})
    with pytest.raises(InputError, match="^a pair map is a family of one "
                                         "index$"):
        FMap(two, LinearFunctional([1.0, 1.0]))


def test_dimension_error_text_is_one_for_all_callers():
    """A value of the wrong dimension gives the same InputError text from a
    direct check and from both graph solvers, with no numpy error: an
    fmap_from_rate map names the pair (a, a) whatever its H, a hand-built
    map with mixed dimensions gives its family's walk text, and one whose
    values all have the wrong dimension names its first pair, (a, a)."""
    labels = ("a", "b")
    d = np.ones((2, 2)) - np.eye(2)
    space = MetricSpace(labels, d).validate()
    graph = (("a", np.ones(2)), ("b", np.zeros(2)))
    pi = ProductInstance(graph, space, graph[0], D2)
    xi = LinearFunctional([1.0, 1.0])
    flat = singleton([1.0, 1.0, 1.0])
    pair_text = "pair-map value for ('a', 'a') has dimension 3, expected 2"
    cases = [(fmap_from_rate(space, Polytope([[1, 1, 1]]), 0.5, xi),
              pair_text),
             (fmap_from_rate(space, Polytope([[1, 1, 1], [2, 1, 1]]), 0.5,
                             xi), pair_text),
             (_reversed_fmap(labels, d, singleton([1.0, 1.0]),
                             {("b", "a"): flat}, xi),
              "dimension mismatch: expected 2, got 3"),
             (_reversed_fmap(labels, d, flat, {}, xi), pair_text)]
    for fm, text in cases:
        for check in (validate_fmap, solve_minimal_point,
                      solve_strict_minimal):
            with pytest.raises(InputError) as err:
                check(pi, fm)
            assert str(err.value) == text


def test_margin_of_a_zero_scale_value_is_zero():
    """A zero value has cone scalarization 0, so the margin is 0 and the
    separation check fails. The value at scale 0 of a distance-scaled set is
    that set too: its minimum is 0 even where its vertex is at +inf (here
    (1, 1e-8) along k0 = (1, 0))."""
    space = MetricSpace(("a", "b"), np.ones((2, 2)) - np.eye(2)).validate()
    graph = (("a", [1.0, 0.0]), ("b", [0.0, 0.0]))
    pi = ProductInstance(graph, space, graph[0], D2)
    gz = GerstewitzFn(D2, [1.0, 0.0])
    P, zero = Polytope([[1.0, 1e-8]]), singleton([0.0, 0.0])
    assert gz.value(P.vertices[0]) == math.inf
    assert vertex_minima(np.zeros(1), P.vertices, gz)[0] == 0.0
    values = {("a", "a"): zero, ("a", "b"): zero,
              ("b", "a"): P, ("b", "b"): zero}
    with pytest.raises(HypothesisError) as err:
        validate_fmap(pi, pair_map(("a", "b"), values, gz))
    assert err.value.name == "positive_separation"
    assert err.value.witness == {"zeta": 0.0}


def test_margin_decides_infinity_at_the_scaled_value():
    """The cone scalarization's +inf branch is decided at the scaled value,
    as gz_value decides it: (1, 1e-8) along k0 = (1, 0) is +inf, but at
    scale 0.05 its zero row reads 5e-10 <= tol, so the value is 0.05 and
    the finite branch keeps its bytes, scale times the vertex value."""
    gz = GerstewitzFn(orthant(2), [1.0, 0.0])
    V, S = np.array([[1.0, 1e-8]]), np.array([0.05, 2.0])
    assert gz.value(V[0]) == math.inf
    got = vertex_minima(S, V, gz)
    assert got[0] == gz_value(gz, 0.05 * V[0]) == 0.05
    assert got[1] == gz_value(gz, 2.0 * V[0]) == math.inf
    base = MetricSpace(("a", "b"), np.ones((2, 2)) - np.eye(2)).validate()
    P = Polytope([[1.0, 1e-8], [2.0, 2e-8]])
    assert zeta(np.full((2, 2, 1), 0.05), P.vertices, gz, base.dist,
                1.0) == 0.05
