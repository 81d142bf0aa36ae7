"""Instance model: the induced order, family triangle inclusion, hypothesis
checkers, probes, and efficiency tests."""

import math
import warnings

import numpy as np
import pytest

from evpkit import instances
from evpkit.errors import InputError
from evpkit.geometry import (LinearFunctional, PolyhedralCone, Polytope,
                             as_point, cone, orthant, singleton)
from evpkit.instances import (ExtensionalFamily, FiniteInstance, MetricSpace,
                              PolytopeDirection, QuasiMetric,
                              SetValuedMap,
                              SingletonDirection, check_assumptions,
                              d_bounded_certificate, epi_closed_probe,
                              eps_h_efficient, label_infima,
                              metric_from_coordinates, order_arrays, preceq,
                              relation_matrix, slm_probe, ti_check)
from evpkit.scalarize import GerstewitzFn

from conftest import VARIANT_CYCLE, generated_bundle, matrix_grid

D1 = cone([[1.0]], generators=[[1.0]])


def s_set(inst, fam, x):
    """The lower section of x: all labels that precede it."""
    return [x2 for x2 in inst.labels if preceq(inst, fam, x2, x)]


@pytest.fixture
def two_point():
    space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    fmap = SetValuedMap({"a": [[1.0]], "b": [[0.0]]})
    return FiniteInstance(space, fmap, D1)


def test_min_positive_distance_is_the_masked_minimum():
    """The smallest distance between distinct points, kept by ``validate``
    or computed once on a space never validated, is the minimum of ``dist
    + diag(inf)`` that each call once recomputed: on random spaces of 1 to
    9 points, +inf for one point."""
    rng = np.random.default_rng(4100)
    for trial in range(45):
        n = 1 + trial % 9
        coords = rng.normal(size=(n, 1 + trial % 3))
        d = np.linalg.norm(coords[:, None] - coords[None], axis=2)
        old = (math.inf if n == 1
               else float(np.min(d + np.diag([np.inf] * n))))
        labels = tuple(f"p{i}" for i in range(n))
        kept = MetricSpace(labels, d).validate()
        assert kept._least == old
        for space in (kept, MetricSpace(labels, d)):
            assert space.min_positive_distance() == old
            assert space.min_positive_distance() == old


def test_instance_map_keys_match_the_labels():
    """Labels without value sets and value sets for unknown labels are both
    InputErrors of the instance itself, missing labels checked first."""
    space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    with pytest.raises(InputError, match=r"labels without value sets: \['b'\]"):
        FiniteInstance(space, SetValuedMap({"a": [[1.0]], "z": [[0.0]]}), D1)
    with pytest.raises(InputError,
                       match=r"value sets for unknown labels: \['z'\]"):
        FiniteInstance(space, SetValuedMap({"a": [[1.0]], "b": [[0.0]],
                                            "z": [[0.0]]}), D1)


class TestPreceq:
    def test_cross_relation(self, two_point):
        fam = SingletonDirection([1.0], 1.0)
        assert preceq(two_point, fam, "b", "a")

    def test_reflexive_for_distance_scaled(self, two_point):
        fam = SingletonDirection([1.0], 1.0)
        assert preceq(two_point, fam, "a", "a")
        assert preceq(two_point, fam, "b", "b")

    def test_large_rate_kills_relation(self, two_point):
        fam = SingletonDirection([1.0], 3.0)
        assert not preceq(two_point, fam, "b", "a")

    def test_rate_monotonicity(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            b = generated_bundle(seed, n=4, m=2, variant="polytope")
            inst = b.instance
            H = Polytope(b.raw["perturbation"]["vertices"])
            g1 = PolytopeDirection(H, 0.3)
            g2 = PolytopeDirection(H, 1.1)
            rel_small = relation_matrix(inst, g1)
            rel_large = relation_matrix(inst, g2)
            # larger rate demands more: its relation set is contained
            assert np.all(~rel_large | rel_small)


class TestSSet:
    def test_two_point(self, two_point):
        fam = SingletonDirection([1.0], 1.0)
        assert s_set(two_point, fam, "a") == ["a", "b"]

    def test_singleton_space(self):
        space = MetricSpace(("x",), [[0.0]]).validate()
        inst = FiniteInstance(space, SetValuedMap({"x": [[0.0]]}), D1)
        assert s_set(inst, SingletonDirection([1.0], 1.0), "x") == ["x"]

    def test_rate_scan_empties_cross_relations(self, two_point):
        for rate in (0.5, 1.0):
            assert "b" in s_set(two_point, SingletonDirection([1.0], rate), "a")
        for rate in (1.5, 4.0):
            fam = SingletonDirection([1.0], rate)
            assert s_set(two_point, fam, "a") == ["a"]
            assert s_set(two_point, fam, "b") == ["b"]

    def test_nesting_along_order(self):
        for seed in range(8):
            b = generated_bundle(seed, n=5, m=2,
                                 variant=VARIANT_CYCLE[seed % 5])
            inst, fam = b.instance, b.family
            ok, _ = ti_check(inst, fam)
            assert ok
            sections = {x: set(s_set(inst, fam, x)) for x in inst.labels}
            for x in inst.labels:
                for xp in sections[x]:
                    assert sections[xp] <= sections[x], (seed, x, xp)


class TestTiCheck:
    def test_polytope_over_metric(self):
        space = metric_from_coordinates(("a", "b", "c"),
                                        [[0, 0], [1, 0], [0, 2]]).validate()
        fmap = SetValuedMap({x: [[0.0, 0.0]] for x in space.labels})
        inst = FiniteInstance(space, fmap, orthant(2))
        fam = PolytopeDirection(Polytope([[1, 0], [0, 1]]), 0.7)
        ok, witness = ti_check(inst, fam)
        assert ok and witness is None

    def test_single_point(self):
        space = MetricSpace(("x",), [[0.0]]).validate()
        inst = FiniteInstance(space, SetValuedMap({"x": [[0.0]]}), D1)
        ok, _ = ti_check(inst, SingletonDirection([1.0], 1.0))
        assert ok

    def test_enlarged_extensional_fails_with_witness(self):
        space = MetricSpace(("a", "b", "c"),
                            [[0, 1, 2], [1, 0, 1], [2, 1, 0]]).validate()
        fmap = SetValuedMap({x: [[0.0]] for x in space.labels})
        inst = FiniteInstance(space, fmap, D1)
        table = {}
        for x2 in space.labels:
            for x1 in space.labels:
                d = space.d(x2, x1)
                table[("L", x2, x1)] = Polytope([[d if d else 0.0]])
        # demand far more along the long edge than the two short ones give
        table[("L", "a", "c")] = Polytope([[9.0]])
        fam = ExtensionalFamily(space.labels, ("L",), table)
        ok, witness = ti_check(inst, fam)
        assert not ok
        assert witness[0] == "a" and witness[2] == "c"

    def test_transitivity_follows(self):
        for seed in range(10):
            b = generated_bundle(seed + 50, n=5, m=2,
                                 variant=VARIANT_CYCLE[seed % 5])
            ok, _ = ti_check(b.instance, b.family)
            assert ok
            rel = relation_matrix(b.instance, b.family)
            n = rel.shape[0]
            for i in range(n):
                for j in range(n):
                    if not rel[i, j]:
                        continue
                    for k in range(n):
                        if rel[j, k]:
                            assert rel[i, k], (seed, i, j, k)

    def test_transitivity_on_random_cones(self):
        from conftest import random_cone_instance
        rng = np.random.default_rng(321)
        for _ in range(12):
            inst, fam, _ = random_cone_instance(rng, n=4, values=2)
            ok, _ = ti_check(inst, fam)
            assert ok
            rel = relation_matrix(inst, fam)
            comp = rel @ rel  # boolean composition
            assert np.all(~comp | rel)


class TestCheckAssumptions:
    def test_identity_functional(self, two_point):
        fam = SingletonDirection([1.0], 1.0)
        rep = check_assumptions(two_point, fam, LinearFunctional([1.0]), "a")
        assert rep.bounded and rep.inf_value == 0.0
        assert rep.strict_decrease
        assert rep.separated_pairs and rep.separated_pointwise

    def test_uniform_separation_closed_form(self, two_point):
        # rate * min-distance * value-at-direction = 0.6 * 1 * 1
        fam = SingletonDirection([1.0], 0.6)
        rep = check_assumptions(two_point, fam, LinearFunctional([1.0]), "a")
        assert rep.separated_uniform
        assert abs(rep.separation_witness["uniform"]["inf"] - 0.6) <= 1e-12

    def test_unbounded_scalarization(self):
        # every value hits the +inf branch of the scalarization
        space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        fmap = SetValuedMap({"a": [[-1.0, 1.0]], "b": [[-2.0, 2.0]]})
        inst = FiniteInstance(space, fmap, orthant(2))
        xi = GerstewitzFn(orthant(2), [1.0, 0.0])
        fam = SingletonDirection([1.0, 0.0], 1.0)
        rep = check_assumptions(inst, fam, xi, "a")
        assert not rep.bounded
        assert rep.separated_pairs is None  # linear-only condition

    def test_separation_fails_on_vanishing_functional(self):
        # a functional vanishing on the direction cannot separate the pair
        space = metric_from_coordinates(("a", "b"), [[0, 0], [1, 0]]).validate()
        fmap = SetValuedMap({"a": [[0.0, 1.0]], "b": [[0.0, 0.0]]})
        inst = FiniteInstance(space, fmap, orthant(2))
        fam = SingletonDirection([0.0, 1.0], 1.0)
        rep = check_assumptions(inst, fam, LinearFunctional([1.0, 0.0]), "a")
        assert rep.section == ["a", "b"]
        assert rep.separated_pairs is False
        assert rep.separated_uniform is False
        assert rep.strict_decrease is False  # equal scalar values

    def test_implication_chain_observed(self):
        rng = np.random.default_rng(2)
        for seed in range(12):
            b = generated_bundle(seed + 100, n=4, m=2,
                                 variant=VARIANT_CYCLE[seed % 5])
            w = np.abs(rng.normal(size=2))
            if seed % 3 == 0:
                w[rng.integers(0, 2)] = 0.0  # sometimes degenerate
            rep = check_assumptions(b.instance, b.family,
                                    LinearFunctional(w), b.params.x0)
            if rep.separated_uniform:
                assert rep.separated_pairs
            if rep.separated_pairs:
                assert rep.strict_decrease
            if rep.separated_pointwise:
                assert rep.strict_decrease


def loop_strict_decrease(inst, rel, eta, x0):
    """The start section, its infimum and the strict-decrease check of
    ``check_assumptions`` as they were before it read the section by
    position, kept verbatim apart from this signature, this docstring and
    the returns: ``(section, inf_value, strict, witness)``."""
    tol = inst.tol
    labels = inst.labels

    def lower_section(x):
        return [labels[i] for i in np.flatnonzero(rel[:, inst.space.index(x)])]

    section = lower_section(x0)
    if not section:
        return [], math.inf, False, None

    eta = dict(zip(labels, eta))
    inf_value = min(eta[x] for x in section)

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
    return section, inf_value, strict, strict_witness


def gate_cases(rng):
    """Instances in the orthant of m = 1 to 3 dimensions with 1 to 4 values
    per label, a linear functional or the cone scalarization along the
    first axis (``+inf`` at a label whose every value has a positive later
    coordinate), and a direction set of one or two vertices. Yields each
    with its order matrix, or a random boolean matrix that need be no
    pre-order, and its label infima, some moved within 2 tol of another
    label's."""
    for t in range(60):
        n, m = 2 + t % 5, 1 + t % 3
        labels = tuple(f"q{i}" for i in range(n))
        space = metric_from_coordinates(labels, rng.normal(size=(n, 2)))
        values = {x: rng.normal(size=(int(rng.integers(1, 5)), m))
                  for x in labels}
        inst = FiniteInstance(space, SetValuedMap(values), orthant(m))
        xi = (GerstewitzFn(orthant(m), np.eye(m)[0])
              if m > 1 and rng.random() < 0.5
              else LinearFunctional(rng.uniform(0.1, 1.0, size=m)))
        fam = PolytopeDirection(
            Polytope(rng.uniform(0.1, 1.0, size=(int(rng.integers(1, 3)),
                                                  m))),
            float(rng.uniform(0.1, 0.5)))
        rel = (relation_matrix(inst, fam) if rng.random() < 0.6
               else rng.random((n, n)) < rng.uniform(0.2, 0.9))
        eta = np.array(label_infima(inst, xi))
        for i in np.flatnonzero(rng.random(n) < 0.4):
            k = int(rng.integers(n))
            if math.isfinite(eta[k]):
                eta[i] = eta[k] + rng.uniform(-2.0, 2.0) * inst.tol
        yield inst, fam, xi, rel, eta.tolist()


def test_strict_decrease_matches_the_label_loop():
    """On :func:`gate_cases`, from every start label: the start section,
    its infimum, strict decrease and its witness are the label loop's
    (:func:`loop_strict_decrease`), the witness's values plain floats, and
    no numpy warning is raised. The cases hold failing and holding gates,
    one-label sections, infinite infima and witnesses at one."""
    rng = np.random.default_rng(3300)
    seen = set()
    for inst, fam, xi, rel, eta in gate_cases(rng):
        arrays = order_arrays(inst, fam)
        for x0 in inst.labels:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = check_assumptions(inst, fam, xi, x0,
                                        matrix_grid(inst, arrays, rel), eta)
            section, inf_value, strict, witness = loop_strict_decrease(
                inst, rel, eta, x0)
            got = rep.section, rep.inf_value, rep.strict_decrease
            assert got == (section, inf_value, strict), (got, section)
            assert rep.strict_decrease_witness == witness
            if witness is not None:
                assert all(type(v) is float for v in witness[2:]), witness
                seen.add("infinite witness" if math.isinf(witness[3])
                         else "witness")
            seen.add(("empty", "one label")[len(section)]
                     if len(section) < 2 else "longer")
            seen.add("holds" if strict else "fails")
            if math.isinf(inf_value):
                seen.add("infinite infimum")
    assert seen == {"empty", "one label", "longer", "holds", "fails",
                    "witness", "infinite witness", "infinite infimum"}, seen


def test_strict_decrease_skips_an_infinite_label_only():
    """With b before a and both in the section: a finite a above an
    infinite b fails, its witness holding +inf; an infinite a is skipped,
    and b has no other label below it."""
    space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    inst = FiniteInstance(space, SetValuedMap({"a": [[1.0]], "b": [[0.0]]}),
                          D1)
    fam = SingletonDirection([1.0], 1.0)
    xi = LinearFunctional([1.0])
    grid = matrix_grid(inst, order_arrays(inst, fam),
                       np.array([[True, False], [True, True]]))
    rep = check_assumptions(inst, fam, xi, "a", grid, eta=[1.0, math.inf])
    assert rep.strict_decrease_witness == ("a", "b", 1.0, math.inf)
    rep = check_assumptions(inst, fam, xi, "a", grid, eta=[math.inf, 1.0])
    assert rep.strict_decrease and rep.strict_decrease_witness is None


class TestProbes:
    def _chain_instance(self, samples=6):
        labels = [f"s{k}" for k in range(1, samples + 1)] + ["lim"]
        xs = [-1.0 / k for k in range(1, samples + 1)] + [0.0]
        fmap = SetValuedMap(
            {lab: [[x]] for lab, x in zip(labels[:-1], xs[:-1])}
            | {"lim": [[1.0]]})
        return labels, xs, fmap

    def test_monotone_premise_fails_vacuous(self):
        labels, xs, fmap = self._chain_instance()
        assert slm_probe(fmap, labels[:-1], "lim", D1)

    def test_constant_chain(self):
        fmap = SetValuedMap({f"s{k}": [[0.0]] for k in range(4)}
                            | {"lim": [[0.0]]})
        assert slm_probe(fmap, [f"s{k}" for k in range(4)], "lim", D1)

    def test_wrong_limit_detected(self):
        fmap = SetValuedMap({f"s{k}": [[1.0 / k]] for k in range(1, 5)}
                            | {"lim": [[1.0]]})
        assert not slm_probe(fmap, [f"s{k}" for k in range(1, 5)], "lim", D1)

    def test_epigraph_limit_escapes(self):
        labels, xs, fmap = self._chain_instance()
        pairs = [(lab, [x]) for lab, x in zip(labels[:-1], xs[:-1])]
        assert not epi_closed_probe(pairs, ("lim", [0.0]), fmap, D1)

    def test_epigraph_repeated_limit(self):
        fmap = SetValuedMap({"a": [[0.0]], "b": [[1.0]]})
        pairs = [("a", [0.5]), ("b", [1.0])]
        assert epi_closed_probe(pairs, ("b", [1.0]), fmap, D1)

    def test_epigraph_above_constant(self):
        fmap = SetValuedMap({f"s{k}": [[0.0]] for k in range(1, 4)}
                            | {"lim": [[0.0]]})
        pairs = [(f"s{k}", [1.0 / k]) for k in range(1, 4)]
        assert epi_closed_probe(pairs, ("lim", [0.0]), fmap, D1)

    def test_epigraph_precondition(self):
        fmap = SetValuedMap({"a": [[0.0]], "lim": [[0.0]]})
        with pytest.raises(InputError):
            epi_closed_probe([("a", [-1.0])], ("lim", [0.0]), fmap, D1)


class TestEfficiency:
    def test_escape(self):
        space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        inst = FiniteInstance(space,
                              SetValuedMap({"a": [[0.0]], "b": [[0.0]]}), D1)
        ok, y0 = eps_h_efficient(inst, "a", 0.5, singleton([1.0]))
        assert ok and y0[0] == 0.0

    def test_covered(self, two_point):
        ok, y0 = eps_h_efficient(two_point, "a", 0.5, singleton([1.0]))
        assert not ok and y0 is None

    def test_pareto_optimal_point(self):
        space = metric_from_coordinates(("a", "b", "c"),
                                        [[0, 0], [1, 0], [0, 1]]).validate()
        fmap = SetValuedMap({"a": [[0.0, 1.0]], "b": [[1.0, 0.0]],
                             "c": [[2.0, 2.0]]})
        inst = FiniteInstance(space, fmap, orthant(2))
        eps = 0.5
        H = Polytope([[1.0, 0.0], [0.0, 1.0]])
        ok, y0 = eps_h_efficient(inst, "a", eps, H)
        assert ok
        # brute force: no value point sits inside y0 - eps*conv(H) - cone
        for y in fmap.all_points():
            for t in np.linspace(0.0, 1.0, 101):
                h = t * H.vertices[0] + (1 - t) * H.vertices[1]
                assert not np.all(y0 - eps * h - y >= -1e-9)


class TestBoundedCertificate:
    def test_all_points(self, two_point):
        M = d_bounded_certificate(two_point)
        assert M.vertices.shape == (2, 1)

    def test_counts_add_up(self):
        b = generated_bundle(5, n=3, m=2, values_per_point=3)
        M = d_bounded_certificate(b.instance)
        assert M.vertices.shape[0] == 9


class TestValidationErrors:
    def test_quasimetric_zero_offdiag(self):
        with pytest.raises(InputError):
            QuasiMetric([[0.0, 0.0], [1.0, 0.0]]).validate()

    def test_quasimetric_triangle(self):
        with pytest.raises(InputError):
            QuasiMetric([[0.0, 5.0, 1.0], [1.0, 0.0, 1.0],
                         [1.0, 1.0, 0.0]]).validate()

    def test_metric_asymmetry(self):
        with pytest.raises(InputError):
            MetricSpace(("a", "b"), [[0.0, 1.0], [2.0, 0.0]]).validate()

    def test_empty_value_set(self):
        with pytest.raises(InputError):
            SetValuedMap({"a": []})


@pytest.mark.parametrize("changes, message", [
    ({("L1", "a", "b"): [[1.0, -1.0]], ("L0", "b", "a"): None},
     r"value for \('L1', 'a', 'b'\) leaves the cone"),
    ({("L1", "c", "b"): [[1.0, -1.0]], ("L0", "b", "a"): None},
     r"not total: missing \('L0', 'b', 'a'\)"),
    ({("L1", "a", "c"): [[1.0, 1.0, 1.0]], ("L0", "b", "c"): [[-1.0, 0.0]]},
     "dimension mismatch: expected 2, got 3"),
    ({("L1", "a", "a"): [[1.0, -1.0]], ("L0", "b", "c"): [[1.0, 0.0, 0.0]]},
     r"value for \('L1', 'a', 'a'\) leaves the cone"),
    ({("L1", "b", "a"): [[1.0, 1.0], [1.0, -1.0]],
      ("L0", "b", "a"): [[1.0, 0.0], [-1.0, 0.0]]},
     r"value for \('L0', 'b', 'a'\) leaves the cone"),
    # a missing entry hides the rest of its pair
    ({("L0", "b", "a"): None, ("L1", "b", "a"): [[1.0, -1.0]]},
     r"not total: missing \('L0', 'b', 'a'\)"),
    ({("L0", "a", "c"): [[1.0, -1.0]], ("L1", "a", "c"): None},
     r"not total: missing \('L1', 'a', 'c'\)"),
    ({("L0", "a", "c"): [[1.0, 1.0, 1.0]], ("L1", "a", "c"): None},
     r"not total: missing \('L1', 'a', 'c'\)"),
])
def test_extensional_validate_reports_the_first_failure(changes, message):
    """Every vertex is checked at once, but the error is the first one met
    in (x2, x1, index) order: a value leaving the cone, a missing entry or a
    vertex of the wrong dimension."""
    labels = ("a", "b", "c")
    space = MetricSpace(labels, np.ones((3, 3)) - np.eye(3)).validate()
    table = {(lam, x2, x1): Polytope([[0.5, 0.5], [1.0, 0.0]])
             for lam in ("L0", "L1") for x2 in labels for x1 in labels}
    for key, vertices in changes.items():
        if vertices is None:
            del table[key]
        else:
            table[key] = Polytope(vertices)
    with pytest.raises(InputError, match=message):
        ExtensionalFamily(space.labels, ("L0", "L1"), table).validate(
            space, orthant(2))


@pytest.mark.parametrize("check", [
    lambda inst, fam: ti_check(inst, fam),
    lambda inst, fam: relation_matrix(inst, fam),
    lambda inst, fam: fam.validate(inst.space, inst.cone, inst.tol),
], ids=["ti_check", "relation_matrix", "validate"])
def test_mixed_dimension_table_is_an_input_error(check):
    """A hand-built table with one 3-D entry among 2-D ones is an
    InputError naming the dimensions, not numpy's ValueError, whichever
    reader meets it first."""
    labels = ("a", "b", "c")
    space = MetricSpace(labels, np.ones((3, 3)) - np.eye(3)).validate()
    inst = FiniteInstance(space, SetValuedMap({x: [[1.0, 1.0]]
                                               for x in labels}), orthant(2))
    table = {(lam, x2, x1): Polytope([[0.5, 0.5], [1.0, 0.0]])
             for lam in ("L0", "L1") for x2 in labels for x1 in labels}
    table[("L1", "b", "c")] = Polytope([[1.0, 1.0, 1.0]])
    fam = ExtensionalFamily(labels, ("L0", "L1"), table)
    with pytest.raises(InputError, match="dimension mismatch: expected 2, "
                                         "got 3"):
        check(inst, fam)


def test_extensional_family_reads_its_own_label_order():
    """The stack is in the family's label order, so a space that lists the
    labels in another order is rejected by every reader of the stack."""
    labels = ("a", "b")
    table = {("L", x2, x1): Polytope([[1.0]]) for x2 in labels
             for x1 in labels}
    fam = ExtensionalFamily(labels, ("L",), table)
    space = MetricSpace(("b", "a"), [[0.0, 1.0], [1.0, 0.0]]).validate()
    inst = FiniteInstance(space, SetValuedMap({"a": [[0.0]], "b": [[1.0]]}),
                          D1)
    for check in (lambda: fam.validate(space, D1),
                  lambda: fam.arrays(space), lambda: ti_check(inst, fam),
                  lambda: relation_matrix(inst, fam)):
        with pytest.raises(InputError, match="labels"):
            check()
    # the table is the family's own copy: changing the given one moves
    # neither the stack nor the sets
    table[("L", "a", "b")] = Polytope([[5.0]])
    assert fam.table[("L", "a", "b")].vertices[0, 0] == 1.0
    with pytest.raises(TypeError):
        fam.table[("L", "a", "b")] = Polytope([[5.0]])



def test_extensional_family_rejects_keys_it_does_not_list():
    """A table entry under a label or an index the family does not list is
    an InputError naming the first such key, raised when the family is made
    and so before any check of the entry's value: ('L', 'a', 'z') lies
    outside the cone, and ('M', 'a', 'b') has dimension 3."""
    labels = ("a", "b")
    table = {("L", x2, x1): Polytope([[0.0, 0.0]] if x2 == x1 else
                                     [[1.0, 1.0]])
             for x2 in labels for x1 in labels}
    ExtensionalFamily(labels, ("L",), table).validate(
        MetricSpace(labels, [[0.0, 1.0], [1.0, 0.0]]).validate(), orthant(2))
    extra = {("L", "a", "z"): Polytope([[-1.0, -1.0]]),
             ("M", "a", "b"): Polytope([[-1.0, -1.0, 5.0]])}
    for keys in (list(extra), list(extra)[::-1]):
        with pytest.raises(InputError) as err:
            ExtensionalFamily(labels, ("L",),
                              {**table, **{k: extra[k] for k in keys}})
        assert str(err.value) == (f"extensional family table key {keys[0]!r} "
                                  "names an index or a label the family "
                                  "does not list")

def whole_array_triangle(d):
    """The first largest triangle violation ``d[i, k] - d[i, j] - d[j, k]``
    and its (i, j, k), from one (n, n, n) array."""
    viol = d[:, None, :] - d[:, :, None] - d[None, :, :]
    worst = np.unravel_index(np.argmax(viol), viol.shape)
    return tuple(int(i) for i in worst), viol[worst]


@pytest.mark.parametrize("budget", [1, 50, 130, 1 << 20])
def test_triangle_blocks_match_the_whole_array(monkeypatch, budget):
    """The triangle checks of both metric types, in row blocks of any size,
    name the triple that the whole (n, n, n) array names: the first
    largest violation in (i, j, k) order. Small integer distances tie the
    largest violation often."""
    monkeypatch.setattr("evpkit.instances._TRIANGLE_TRIPLES", budget)
    rng = np.random.default_rng(budget)
    fails = 0
    for _ in range(150):
        n = int(rng.integers(1, 9))
        p = rng.integers(1, 5, size=(n, n)).astype(float)
        np.fill_diagonal(p, 0.0)
        d = p + p.T
        labels = tuple(f"x{i}" for i in range(n))
        for matrix, check in ((p, lambda: QuasiMetric(p).validate()),
                              (d, lambda: MetricSpace(labels, d).validate())):
            (i, j, k), excess = whole_array_triangle(matrix)
            if excess <= 1e-9:
                check()
                continue
            fails += 1
            want = (f"directed triangle inequality fails on indices "
                    f"({i}, {j}, {k})" if matrix is p else
                    "triangle inequality fails on "
                    f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})")
            with pytest.raises(InputError) as err:
                check()
            assert str(err.value) == want
    assert fails > 100


def test_triangle_check_memory_is_bounded():
    """At n = 200 the whole (n, n, n) array of violations would be 64 MB;
    the row blocks keep the peak of the check far below that."""
    import tracemalloc
    rng = np.random.default_rng(5)
    # a distance matrix, not coordinates, so that validate searches triples
    space = MetricSpace(tuple(range(200)), metric_from_coordinates(
        tuple(range(200)), rng.uniform(0.0, 4.0, size=(200, 2))).dist)
    tracemalloc.start()
    try:
        space.validate(1e-12)
        QuasiMetric(space.dist).validate(1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_coordinate_bound_covers_the_triangle_excess():
    """The excess bound a coordinate metric keeps is at least the excess
    _worst_triangle computes, on random and collinear coordinates (where
    rounding makes violations above 0), m = 1 to 3, distances 1e-3 to 1e8,
    and on points offset far from the origin."""
    rng = np.random.default_rng(77)
    positive = 0
    for trial in range(240):
        m, n = 1 + trial % 3, int(rng.integers(2, 12))
        scale = 10.0 ** rng.uniform(-3, 8)
        if trial % 2:
            coords = rng.uniform(0.0, 1.0, size=(n, 1)) * rng.normal(size=m)
        else:
            coords = rng.normal(size=(n, m))
        coords = coords * scale
        if trial % 3 == 0:
            coords = coords + 10.0 ** rng.uniform(0, 4) * scale
        labels = tuple(range(n))
        space = metric_from_coordinates(labels, coords)
        excess = instances._worst_triangle(space.dist)[1]
        assert space._excess >= excess, (trial, space._excess, excess)
        positive += excess > 0
    assert positive > 20


def test_coordinate_metric_validates_without_the_triple_search(monkeypatch):
    """validate searches the triples of a coordinate metric only when its
    excess bound reaches tol, and keeps the bound or the found excess."""
    calls = []
    found = instances._worst_triangle
    monkeypatch.setattr(instances, "_worst_triangle",
                        lambda d: calls.append(len(d)) or found(d))
    rng = np.random.default_rng(3)
    coords = rng.uniform(0.0, 4.0, size=(30, 2))
    space = metric_from_coordinates(tuple(range(30)), coords)
    bound = space._excess
    assert 0 < bound < 1e-9
    assert space.validate(1e-9)._excess == bound and calls == []
    assert space.validate(bound)._excess <= bound and calls == [30]
    far = metric_from_coordinates(tuple(range(30)), 1e8 * coords)
    assert far._excess >= 1e-9
    assert far.validate(1e-9)._excess <= far._excess and calls == [30, 30]
    plain = MetricSpace(tuple(range(30)), space.dist)
    assert plain._excess is None
    assert plain.validate()._excess <= bound and calls == [30, 30, 30]


def test_triangle_search_memory_is_bounded():
    """At n = 32 (two indices, two vertices per set) the triangle search
    asks over a million queries; its blocks keep the tracemalloc peak of
    ti_check under 20 MB, where screening every slab at once took 85 MB."""
    import tracemalloc
    bundle = generated_bundle(7, n=32, m=3, values_per_point=2,
                              variant="extensional")
    inst, fam = bundle.instance, bundle.family
    tracemalloc.start()
    try:
        assert ti_check(inst, fam) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("build", [
    lambda: Polytope([[1.0, 0.0], [1.0]]),
    lambda: PolyhedralCone([[1.0, 0.0], [1.0]]),
    lambda: SetValuedMap({"a": [[1.0], [1.0, 2.0]]}),
    lambda: MetricSpace(("a", "b"), [[0.0, 1.0], [1.0]]),
    lambda: QuasiMetric([[0.0, 1.0], [1.0]]),
    lambda: as_point([1.0, [2.0]]),
], ids=["Polytope", "PolyhedralCone", "SetValuedMap", "MetricSpace",
        "QuasiMetric", "as_point"])
def test_ragged_input_raises_input_error(build):
    """Ragged nesting is an input error of the library constructors, not
    numpy's ValueError."""
    with pytest.raises(InputError, match="rectangular array of numbers"):
        build()
