"""Solver front-ends: contract examples, fail-fast hypothesis handling, and
cross-solver consistency."""

import math

import pytest

from evpkit.cli import run_command
from evpkit.errors import HypothesisError, InputError, PremiseError
from evpkit.geometry import (LinearFunctional, Polytope, cone, orthant,
                             singleton, strictly_positive_functional)
from evpkit.instances import (EvpParams, FiniteInstance, MetricSpace,
                              QuasiMetric, SetValuedMap, SingletonDirection,
                              eps_h_efficient)
from evpkit.io import load_validate
from evpkit.product import solve_pareto_evp
from evpkit.solvers import (solve_evp_approx, solve_evp_direction,
                            solve_evp_general, solve_evp_quasimetric,
                            solve_evp_set_direction)

from conftest import (VARIANT_CYCLE, brute_force_minimals, build_preorder,
                      direction_polytope, fixture_path, generated_bundle,
                      grow_epsilon)

D1 = cone([[1.0]], generators=[[1.0]])


def scalar_two_point(fa=1.0, fb=0.0, d=1.0):
    space = MetricSpace(("a", "b"), [[0.0, d], [d, 0.0]]).validate()
    return FiniteInstance(space, SetValuedMap({"a": [[fa]], "b": [[fb]]}), D1)


class TestGeneral:
    def test_two_point(self):
        inst = scalar_two_point()
        cert = solve_evp_general(inst, SingletonDirection([1.0], 1.0),
                                 LinearFunctional([1.0]), "a")
        assert cert.xhat == "b" and cert.all_hold()
        assert cert.theorem == "3.1"

    def test_singleton_space(self):
        space = MetricSpace(("x",), [[0.0]]).validate()
        inst = FiniteInstance(space, SetValuedMap({"x": [[0.0]]}), D1)
        cert = solve_evp_general(inst, SingletonDirection([1.0], 1.0),
                                 LinearFunctional([1.0]), "x")
        assert cert.xhat == "x" and cert.all_hold()

    def test_matches_brute_force(self):
        for seed in range(10):
            b = generated_bundle(seed + 600, n=4, m=2,
                                 variant=VARIANT_CYCLE[seed % 5])
            xi = strictly_positive_functional(direction_polytope(b),
                                              b.instance.cone, b.tol)
            cert = solve_evp_general(b.instance, b.family, xi, b.params.x0)
            oracle, _ = build_preorder(b.instance, b.family, xi)
            assert cert.xhat in brute_force_minimals(oracle, b.params.x0)
            assert cert.all_hold()

    def test_gate_failure_named(self):
        # the zero functional cannot strictly decrease along the order
        inst = scalar_two_point()
        with pytest.raises(HypothesisError) as err:
            solve_evp_general(inst, SingletonDirection([1.0], 1.0),
                              LinearFunctional([0.0]), "a")
        assert err.value.name == "strict_decrease"


class TestDirection:
    def test_pointwise_two_point(self):
        inst = scalar_two_point()
        cert = solve_evp_direction(inst, [1.0], 1.5, 2.0, "a",
                                   premise="pointwise")
        assert cert.theorem == "3.5"
        assert cert.xhat == "b" and cert.all_hold()
        assert cert.conclusion("c").witness["distance"] <= 2.0

    def test_premise_counterexample(self):
        inst = scalar_two_point()
        with pytest.raises(PremiseError) as err:
            solve_evp_direction(inst, [1.0], 0.5, 2.0, "a")
        assert err.value.witness == {"x": "b"}

    def test_constant_map_fixed_point(self):
        inst = scalar_two_point(fa=0.0, fb=0.0)
        cert = solve_evp_direction(inst, [1.0], 0.5, 2.0, "a")
        assert cert.xhat == "a" and cert.all_hold()
        assert cert.conclusion("c").witness["distance"] == 0.0

    def test_global_form(self):
        inst = scalar_two_point()
        cert = solve_evp_direction(inst, [1.0], 1.5, 2.0, "a",
                                   premise="global")
        assert cert.theorem == "3.6"
        assert cert.xhat == "b" and cert.all_hold()
        assert cert.scalarization["kind"] == "gerstewitz"

    def test_global_premise_implies_pointwise(self):
        # escape from the whole value union implies escape from each point
        for seed in range(12):
            b = generated_bundle(seed + 700, n=4, m=2, variant="singleton")
            k0 = b.raw["perturbation"]["k0"]
            lam = 2.0

            def run_global(eps):
                return solve_evp_direction(b.instance, k0, eps, lam,
                                           b.params.x0, premise="global")
            eps, cert = grow_epsilon(run_global)
            assert cert.all_hold()
            pointwise = solve_evp_direction(b.instance, k0, eps, lam,
                                            b.params.x0, premise="pointwise")
            assert pointwise.all_hold()

    def test_huge_epsilon_trivial_fixed_point(self):
        inst = scalar_two_point()
        cert = solve_evp_direction(inst, [1.0], 64.0, 2.0, "a")
        assert cert.xhat == "a"
        assert cert.conclusion("c").witness["distance"] == 0.0

    def test_bad_direction(self):
        inst = scalar_two_point()
        with pytest.raises(InputError):
            solve_evp_direction(inst, [-1.0], 1.5, 2.0, "a")


class TestSetDirection:
    def _plane_instance(self):
        space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        fmap = SetValuedMap({"a": [[1.0, 1.0]], "b": [[0.0, 0.0]]})
        return FiniteInstance(space, fmap, orthant(2))

    def test_closed_family(self):
        inst = self._plane_instance()
        H = Polytope([[1, 0], [0, 1]])
        cert = solve_evp_set_direction(inst, H, 1.0, "a")
        assert cert.theorem == "4.2"
        assert cert.xhat == "b" and cert.all_hold()

    def test_open_family_endpoint(self):
        inst = self._plane_instance()
        H = Polytope([[1, 0], [0, 1]])
        cert = solve_evp_set_direction(inst, H, 1.0, "a", open_family=True)
        assert cert.theorem == "4.1"
        assert cert.xhat == "b" and cert.all_hold()

    def test_separation_failure(self):
        space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        fmap = SetValuedMap({"a": [[1.0, 1.0]], "b": [[0.0, 0.0]]})
        halfplane = cone([[0.0, 1.0]])
        inst = FiniteInstance(space, fmap, halfplane)
        with pytest.raises(HypothesisError) as err:
            solve_evp_set_direction(inst, singleton([1.0, 0.0]), 1.0, "a")
        assert err.value.name == "separation"

    def test_single_point_space(self):
        space = MetricSpace(("x",), [[0.0]]).validate()
        inst = FiniteInstance(space, SetValuedMap({"x": [[1.0]]}), D1)
        cert = solve_evp_set_direction(inst, singleton([1.0]), 1.0, "x")
        assert cert.xhat == "x" and cert.all_hold()

    def test_singleton_matches_direction_solver(self):
        inst = scalar_two_point()
        direction = solve_evp_direction(inst, [1.0], 1.5, 2.0, "a")
        setdir = solve_evp_set_direction(inst, singleton([1.0]), 0.75, "a")
        assert direction.xhat == setdir.xhat
        for name in ("a", "b"):
            assert (direction.conclusion(name).holds
                    == setdir.conclusion(name).holds)


class TestQuasimetric:
    def _plane_instance(self):
        space = MetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]).validate()
        fmap = SetValuedMap({"a": [[1.0, 1.0]], "b": [[0.0, 0.0]]})
        return FiniteInstance(space, fmap, orthant(2))

    def test_metric_weight_matches_set_direction(self):
        inst = self._plane_instance()
        H = Polytope([[1, 0], [0, 1]])
        p = QuasiMetric(inst.space.dist.copy())
        qm = solve_evp_quasimetric(inst, H, p, "a")
        sd = solve_evp_set_direction(inst, H, 1.0, "a")
        assert qm.xhat == sd.xhat
        assert ([c.holds for c in qm.conclusions]
                == [c.holds for c in sd.conclusions])

    def test_asymmetric_weight(self):
        inst = self._plane_instance()
        H = Polytope([[1, 0], [0, 1]])
        p = QuasiMetric([[0.0, 1.0], [5.0, 0.0]])
        cert = solve_evp_quasimetric(inst, H, p, "a")
        assert cert.xhat == "b" and cert.all_hold()

    def test_zero_offdiagonal_rejected(self):
        inst = self._plane_instance()
        with pytest.raises(InputError):
            solve_evp_quasimetric(inst, Polytope([[1, 0], [0, 1]]),
                                  QuasiMetric([[0.0, 0.0], [1.0, 0.0]]), "a")

    def test_family_checks_direction_set_then_weight(self):
        """The quasi-metric family is checked once, direction set first: a
        bad H is named even when p is bad too, and a p of the wrong size is
        still rejected."""
        inst = self._plane_instance()
        bad_p = QuasiMetric([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InputError, match="vertex 0 lies outside"):
            solve_evp_quasimetric(inst, Polytope([[1.0, -1.0]]), bad_p, "a")
        with pytest.raises(InputError, match="vanishes"):
            solve_evp_quasimetric(inst, Polytope([[1.0, 1.0]]), bad_p, "a")
        with pytest.raises(InputError, match="size"):
            solve_evp_quasimetric(inst, Polytope([[1.0, 1.0]]),
                                  QuasiMetric([[0.0]]), "a")


class TestApprox:
    def test_two_point_bound(self):
        inst = scalar_two_point(fa=0.0, fb=0.0)
        cert = solve_evp_approx(inst, singleton([1.0]), 0.5, 1.0, "a")
        assert cert.theorem == "4.5" and cert.all_hold()
        c = cert.conclusion("c").witness
        assert c["distance"] <= c["bound"] == 0.5

    def test_premise_failure(self):
        inst = scalar_two_point()  # f(a)={1} covered by f(b)+0.5+D
        with pytest.raises(PremiseError):
            solve_evp_approx(inst, singleton([1.0]), 0.5, 1.0, "a")

    def test_strict_variant(self):
        inst = scalar_two_point(fa=1.0, fb=0.0, d=0.75)
        cert = solve_evp_approx(inst, singleton([1.0]), 1.25, 1.25, "a",
                                strict=True)
        assert cert.theorem == "4.6" and cert.all_hold()
        c = cert.conclusion("c").witness
        assert c["strict"] and c["distance"] == 0.75 and c["bound"] == 1.0

    def test_small_budget_forces_start(self):
        # bound below the smallest distance pins the start point
        inst = scalar_two_point(fa=0.0, fb=0.0)
        cert = solve_evp_approx(inst, singleton([1.0]), 0.5, 2.0, "a")
        assert cert.conclusion("c").witness["bound"] == 0.25
        assert cert.xhat == "a"


class TestDeskScale:
    def test_largest_profile_stays_fast(self):
        import time
        from conftest import generated_bundle
        started = time.perf_counter()
        b = generated_bundle(99, n=12, m=3, values_per_point=4,
                             variant="polytope")
        xi = strictly_positive_functional(
            Polytope(b.raw["perturbation"]["vertices"]), b.instance.cone,
            b.tol)
        cert = solve_evp_general(b.instance, b.family, xi, b.params.x0)
        assert cert.all_hold()
        assert time.perf_counter() - started < 10.0


class TestCertificateShape:
    def test_json_round_trip(self):
        inst = scalar_two_point()
        cert = solve_evp_direction(inst, [1.0], 1.5, 2.0, "a")
        as_dict = cert.to_dict()
        import json
        assert json.loads(json.dumps(as_dict)) == as_dict

    def test_conclusions_independent_of_trace(self):
        # conclusions re-derive from raw memberships: tampering with the
        # trace does not change them
        inst = scalar_two_point()
        cert = solve_evp_direction(inst, [1.0], 1.5, 2.0, "a")
        assert all(c.holds for c in cert.conclusions)
        assert cert.trace.terminal == cert.xhat


# (entry point, parameter): the call passes the value under test as that
# parameter and valid values for every other one, on two_point.json
API_SCALARS = (
    ("EvpParams", "epsilon"), ("EvpParams", "lambda"), ("EvpParams", "gamma"),
    ("EvpParams", "tolerance"),
    ("solve_evp_direction", "epsilon"), ("solve_evp_direction", "lambda"),
    ("solve_evp_direction-global", "epsilon"),
    ("solve_evp_set_direction", "gamma"),
    ("solve_evp_approx", "epsilon"), ("solve_evp_approx", "gamma"),
    ("eps_h_efficient", "epsilon"),
    ("solve_pareto_evp", "epsilon"), ("solve_pareto_evp", "lambda"),
)


GOOD = {"epsilon": 1.5, "lambda": 2.0, "gamma": 0.75, "tolerance": 1e-9}


def _api_call(entry, param, value):
    bundle = load_validate(fixture_path("two_point.json"))
    inst, pi, H = bundle.instance, bundle.product, singleton([1.0])
    eps, lam, gamma, tol = (value if param == p else good
                            for p, good in GOOD.items())
    if entry == "EvpParams":
        return EvpParams("a", epsilon=eps, lam=lam, gamma=gamma,
                         tolerance=tol)
    if entry.startswith("solve_evp_direction"):
        premise = "global" if entry.endswith("global") else "pointwise"
        return solve_evp_direction(inst, [1.0], eps, lam, "a", premise)
    if entry == "solve_evp_set_direction":
        return solve_evp_set_direction(inst, H, gamma, "a")
    if entry == "solve_evp_approx":
        return solve_evp_approx(inst, H, eps, gamma, "a")
    if entry == "eps_h_efficient":
        return eps_h_efficient(inst, "a", eps, H)
    return solve_pareto_evp(pi, [1.0], eps, lam)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0],
                         ids=["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("entry,param", API_SCALARS,
                         ids=[f"{e}-{p}" for e, p in API_SCALARS])
def test_api_scalars_are_checked_before_any_premise(entry, param, value,
                                                    monkeypatch):
    """Each API scalar must be finite and strictly positive; the error names
    the parameter and comes before any premise or order test runs."""
    _api_call(entry, param, GOOD[param])  # runs with the fixture's value

    def no_query(*args, **kwargs):
        raise AssertionError("a membership ran before the scalar check")

    for module in ("evpkit.instances", "evpkit.solvers"):
        monkeypatch.setattr(f"{module}.covered_queries", no_query)
    monkeypatch.setattr("evpkit.product.minkowski_member", no_query)
    with pytest.raises(InputError,
                       match=f"^{param} must be strictly positive and finite$"):
        _api_call(entry, param, value)


def test_approximate_bound_must_be_finite(tmp_path):
    """epsilon / gamma overflows at epsilon 1e308 and gamma 1e-308: the
    solver and the CLI refuse it as an input error (exit 3)."""
    inst = load_validate(fixture_path("two_point.json")).instance
    with pytest.raises(InputError, match=r"^epsilon / gamma must be "):
        solve_evp_approx(inst, singleton([1.0]), 1e308, 1e-308, "a",
                         strict=True)
    with open(fixture_path("two_point.json"), encoding="utf-8") as fh:
        text = fh.read().replace(
            '"epsilon": 1.5, "lambda": 2.0, "gamma": 0.75',
            '"epsilon": 1e308, "lambda": 2.0, "gamma": 1e-308')
    path = tmp_path / "overflow.json"
    path.write_text(text, encoding="utf-8")
    code, (report,) = run_command(["solve-evp", "--theorem", "4.6",
                                   str(path)])
    assert code == 3 and report.status == "input_error"
    assert report.payload["error"].startswith("epsilon / gamma must be")
