"""Acceptance gate: one test per criterion, each printing a PASS line with
its observed statistics. Everything here is oracle-based: engine outputs are
checked against exhaustive enumeration, certificates against raw LP
memberships, and the scalarization against its bisection oracle.
"""

import math
import time

import numpy as np
import pytest

from evpkit.engine import solve
from evpkit.errors import HypothesisError, PremiseError
from evpkit.geometry import (Polytope, cone_contains, orthant, singleton,
                             strictly_positive_functional)
from evpkit.geometry import LinearFunctional
from evpkit.instances import check_assumptions, relation_matrix, ti_check
from evpkit.io import builtin, example41_probes, load_validate
from evpkit.product import (fmap_from_rate, pareto_min, prec_f, prec_fstar,
                            domination_check, solve_minimal_point,
                            solve_pareto_evp, solve_strict_minimal,
                            strict_pareto_min)
from evpkit.scalarize import GerstewitzFn, gz_bisect_oracle, gz_value
from evpkit.solvers import (solve_evp_approx, solve_evp_direction,
                            solve_evp_general, solve_evp_quasimetric,
                            solve_evp_set_direction)

from conftest import (VARIANT_CYCLE, brute_force_minimals, build_preorder,
                      direction_polytope, fixture_path, generated_bundle,
                      grow_epsilon, pointed_cone, random_cone,
                      sample_cone_member, verify_conclusions)

MEMBERSHIP_TOL = 1e-9
PROP_TOL = 1e-8


def _separating_xi(bundle):
    xi = strictly_positive_functional(direction_polytope(bundle),
                                      bundle.instance.cone, bundle.tol)
    assert xi is not None
    return xi


def test_criterion_1_engine_soundness():
    """Engine output always lies in the enumerated minimal set."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    count = 0
    seed = 0
    while count < 200:
        seed += 1
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 4))
        vpp = int(rng.integers(1, 5))
        variant = VARIANT_CYCLE[seed % len(VARIANT_CYCLE)]
        bundle = generated_bundle(seed, n=n, m=m, values_per_point=vpp,
                                  variant=variant)
        xi = _separating_xi(bundle)
        oracle, _ = build_preorder(bundle.instance, bundle.family, xi)
        minimals = brute_force_minimals(oracle, bundle.params.x0)
        for mode in ("faithful", "greedy"):
            xhat, _ = solve(oracle, bundle.params.x0, mode)
            assert xhat in minimals, (seed, mode)
            assert verify_conclusions(oracle, bundle.params.x0, xhat)["ok"]
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"engine soundness run took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS - {count} instances, both modes, "
          f"{elapsed:.1f}s")


def _assert_certified(cert):
    assert cert.all_hold(), cert.to_dict()
    return cert


def _collect(solver_fn, needed=50, start_seed=0, max_seed=3000):
    """Run a solver over generated instances until `needed` certify."""
    done = 0
    skipped = 0
    seed = start_seed
    while done < needed:
        seed += 1
        assert seed < max_seed, "instance generation budget exhausted"
        try:
            cert = solver_fn(seed)
        except (PremiseError, HypothesisError):
            skipped += 1
            continue
        if cert is None:
            skipped += 1
            continue
        _assert_certified(cert)
        done += 1
    return done, skipped


def test_criterion_2_certificates_all_solvers():
    """Each theorem front-end certifies its conclusions on 50 instances, and
    the distance bounds are exact on a dyadic-rational fixture."""
    stats = {}

    def general(seed):
        b = generated_bundle(seed, n=int(2 + seed % 4), m=int(1 + seed % 3),
                             values_per_point=int(1 + seed % 3),
                             variant=VARIANT_CYCLE[seed % 5])
        return solve_evp_general(b.instance, b.family, _separating_xi(b),
                                 b.params.x0)
    stats["3.1"] = _collect(general)

    def direction(premise):
        def run(seed):
            b = generated_bundle(seed, n=int(2 + seed % 4),
                                 m=int(1 + seed % 3),
                                 values_per_point=int(1 + seed % 2),
                                 variant="singleton")
            k0 = b.raw["perturbation"]["k0"]
            _, cert = grow_epsilon(
                lambda eps: solve_evp_direction(
                    b.instance, k0, eps, b.params.lam, b.params.x0,
                    premise=premise))
            return cert
        return run
    stats["3.5"] = _collect(direction("pointwise"))
    stats["3.6"] = _collect(direction("global"))

    def setdir(open_family):
        def run(seed):
            b = generated_bundle(seed, n=int(2 + seed % 4),
                                 m=int(1 + seed % 3),
                                 values_per_point=int(1 + seed % 2),
                                 variant="polytope")
            H = Polytope(b.raw["perturbation"]["vertices"])
            return solve_evp_set_direction(b.instance, H, b.params.gamma,
                                           b.params.x0,
                                           open_family=open_family)
        return run
    stats["4.1"] = _collect(setdir(True))
    stats["4.2"] = _collect(setdir(False))

    def quasimetric(seed):
        b = generated_bundle(seed, n=int(2 + seed % 4), m=int(1 + seed % 3),
                             values_per_point=int(1 + seed % 2),
                             variant="quasimetric")
        fam = b.family
        return solve_evp_quasimetric(b.instance, fam.H, fam.p, b.params.x0)
    stats["4.4"] = _collect(quasimetric)

    def approx(strict):
        def run(seed):
            b = generated_bundle(seed, n=int(2 + seed % 4),
                                 m=int(1 + seed % 3),
                                 values_per_point=int(1 + seed % 2),
                                 variant="polytope")
            H = Polytope(b.raw["perturbation"]["vertices"])
            _, cert = grow_epsilon(
                lambda eps: solve_evp_approx(b.instance, H, eps,
                                             b.params.gamma, b.params.x0,
                                             strict=strict))
            return cert
        return run
    stats["4.5"] = _collect(approx(False))
    stats["4.6"] = _collect(approx(True))

    def minimal_point(strict):
        def run(seed):
            b = generated_bundle(seed, n=int(2 + seed % 3), m=2,
                                 values_per_point=int(1 + seed % 2),
                                 variant="singleton")
            pi = b.product
            k0 = b.raw["perturbation"]["k0"]
            xi = strictly_positive_functional(singleton(k0), pi.cone, pi.tol)
            fm = fmap_from_rate(pi.base, singleton(k0),
                                b.raw["perturbation"]["gamma"], xi)
            solver = solve_strict_minimal if strict else solve_minimal_point
            return solver(pi, fm)
        return run
    stats["5.1"] = _collect(minimal_point(False))
    stats["5.2"] = _collect(minimal_point(True))

    def pareto_evp(seed):
        b = generated_bundle(seed, n=int(2 + seed % 3), m=2,
                             values_per_point=int(1 + seed % 2),
                             variant="singleton")
        pi = b.product
        k0 = b.raw["perturbation"]["k0"]
        _, cert = grow_epsilon(
            lambda eps: solve_pareto_evp(pi, k0, eps, b.params.lam))
        return cert
    stats["5.6"] = _collect(pareto_evp)

    # exact dyadic distance bounds on the rational fixture, zero slack
    bundle = load_validate(fixture_path("tight_bound.json"))
    cert = solve_evp_direction(bundle.instance, [1.0], 1.25, 1.0, "a")
    w = cert.conclusion("c").witness
    assert w["distance"] == 0.75 and w["bound"] == 1.0
    assert w["distance"] <= w["bound"]
    cert = solve_evp_approx(bundle.instance, singleton([1.0]), 1.25, 1.25,
                            "a", strict=True)
    w = cert.conclusion("c").witness
    assert w["distance"] == 0.75 and w["bound"] == 1.0
    assert w["distance"] < w["bound"]

    summary = ", ".join(f"{k}:{v[0]}" for k, v in sorted(stats.items()))
    print(f"\n[criterion 2] PASS - certified per solver: {summary}; "
          "dyadic bounds exact")


def test_criterion_3_scalarization_suite():
    """Calculus of the cone scalarization over 10 cones x 1000 points."""
    rng = np.random.default_rng(77)
    cones = 0
    checked_pairs = 0
    while cones < 10:
        m = int(rng.integers(1, 4))
        C, k0 = random_cone(rng, m)
        g = GerstewitzFn(C, k0)
        assert abs(gz_value(g, k0) - 1.0) <= PROP_TOL
        assert abs(gz_value(g, np.zeros(m))) <= PROP_TOL
        ys = rng.normal(size=(1000, m)) * 3.0
        for y in ys:
            v = gz_value(g, y)
            o = gz_bisect_oracle(g, y)
            if math.isfinite(v):
                assert abs(v - o) <= PROP_TOL, (y, v, o)
                # level sets: membership switches at the value
                assert cone_contains(C, (v + 1e-7) * k0 - y, MEMBERSHIP_TOL)
                assert not cone_contains(C, (v - 1e-4) * k0 - y,
                                         MEMBERSHIP_TOL)
            else:
                assert o == math.inf
        # algebra on random pairs
        for _ in range(1000):
            y1, y2 = rng.normal(size=(2, m)) * 3.0
            v1, v2 = gz_value(g, y1), gz_value(g, y2)
            if math.isfinite(v1) and math.isfinite(v2):
                v12 = gz_value(g, y1 + y2)
                assert v12 <= v1 + v2 + PROP_TOL
            lam = float(rng.uniform(-4, 4))
            if math.isfinite(v1):
                assert abs(gz_value(g, y1 + lam * k0) - (v1 + lam)) <= PROP_TOL
            d = sample_cone_member(rng, C, k0, scale=float(rng.uniform(0, 2)))
            assert gz_value(g, y1) <= gz_value(g, y1 + d) + PROP_TOL
            checked_pairs += 1
        cones += 1
    print(f"\n[criterion 3] PASS - {cones} cones, 1000 points each, "
          f"{checked_pairs} algebra pairs")


def test_criterion_4_order_algebra():
    """Transitivity of the instance order on all triples; the graph order is
    a quasi order and its strict refinement is antisymmetric."""
    transitive_checked = 0
    for seed in range(30):
        bundle = generated_bundle(seed + 4000, n=int(3 + seed % 4), m=2,
                                  values_per_point=int(1 + seed % 3),
                                  variant=VARIANT_CYCLE[seed % 5])
        ok, _ = ti_check(bundle.instance, bundle.family)
        assert ok
        rel = relation_matrix(bundle.instance, bundle.family)
        n = rel.shape[0]
        for i in range(n):
            for j in range(n):
                if not rel[i, j]:
                    continue
                for k in range(n):
                    if rel[j, k]:
                        assert rel[i, k], (seed, i, j, k)
                        transitive_checked += 1

    product_instances = 0
    for seed in range(50):
        bundle = generated_bundle(seed + 4500, n=3, m=2, values_per_point=2,
                                  variant="singleton")
        pi = bundle.product
        k0 = bundle.raw["perturbation"]["k0"]
        xi = strictly_positive_functional(singleton(k0), pi.cone, pi.tol)
        fm = fmap_from_rate(pi.base, singleton(k0), 0.5, xi)
        pairs = pi.graph
        N = len(pairs)
        relf = np.zeros((N, N), dtype=bool)
        rels = np.zeros((N, N), dtype=bool)
        for i in range(N):
            for j in range(N):
                relf[i, j] = prec_f(pi, fm, pairs[i], pairs[j])
                rels[i, j] = prec_fstar(pi, fm, pairs[i], pairs[j])
        assert np.all(np.diag(relf)) and np.all(np.diag(rels))
        for i in range(N):
            for j in range(N):
                if relf[i, j]:
                    for k in range(N):
                        if relf[j, k]:
                            assert relf[i, k], (seed, i, j, k)
                if i != j:
                    assert not (rels[i, j] and rels[j, i]), (seed, i, j)
        product_instances += 1
    print(f"\n[criterion 4] PASS - {transitive_checked} transitive triples, "
          f"{product_instances} product instances enumerated")


def _degenerate_direction_reports():
    """Instances whose perturbation direction is orthogonal to the
    functional: separation fails, so the implication antecedents go false."""
    from evpkit.instances import (FiniteInstance, SetValuedMap,
                                  SingletonDirection, metric_from_coordinates)
    reports = []
    rng = np.random.default_rng(900)
    for trial in range(12):
        n = int(rng.integers(2, 5))
        coords = rng.uniform(0, 3, size=(n, 2))
        labels = tuple(f"q{i}" for i in range(n))
        space = metric_from_coordinates(labels, coords).validate()
        drop = rng.uniform(0.2, 1.0)
        values = {lab: [[0.0, float(n - i) * drop]]
                  for i, lab in enumerate(labels)}
        inst = FiniteInstance(space, SetValuedMap(values), orthant(2))
        fam = SingletonDirection([0.0, 1.0], float(rng.uniform(0.1, 0.5)))
        xi = LinearFunctional([1.0, 0.0])  # vanishes on the direction
        reports.append(check_assumptions(inst, fam, xi, labels[0]))
    return reports


def test_criterion_5_implication_chain():
    """No report has a true antecedent with a false consequent."""
    rng = np.random.default_rng(55)
    reports = []
    for seed in range(120):
        bundle = generated_bundle(seed + 5000, n=int(2 + seed % 4), m=2,
                                  values_per_point=int(1 + seed % 2),
                                  variant=VARIANT_CYCLE[seed % 5])
        if seed % 3 == 0:
            xi = _separating_xi(bundle)
        else:
            w = np.abs(rng.normal(size=2))
            if seed % 3 == 1:
                w[rng.integers(0, 2)] = 0.0  # degrade: may kill separation
            xi = LinearFunctional(w)
        reports.append(check_assumptions(bundle.instance, bundle.family, xi,
                                         bundle.params.x0))
    reports.extend(_degenerate_direction_reports())
    uniform_true = pairs_true = pointwise_true = antecedent_false = 0
    for rep in reports:
        if rep.separated_uniform:
            uniform_true += 1
            assert rep.separated_pairs, rep.to_dict()
        if rep.separated_pairs:
            pairs_true += 1
            assert rep.strict_decrease, rep.to_dict()
        if rep.separated_pointwise:
            pointwise_true += 1
            assert rep.strict_decrease, rep.to_dict()
        if rep.separated_uniform is False:
            antecedent_false += 1
    assert uniform_true > 10 and pairs_true > 10
    assert antecedent_false > 0, "need antecedent-false reports in the mix"
    print(f"\n[criterion 5] PASS - {len(reports)} reports; antecedents seen: "
          f"uniform {uniform_true}, pairs {pairs_true}, "
          f"pointwise {pointwise_true}, false {antecedent_false}")


def test_criterion_6_example_distinction():
    """The bundled sampled chain separates lower monotonicity from epigraph
    closedness at every sample count."""
    for n in range(4, 33):
        bundle = load_validate(builtin("example41", samples=n))
        probes = example41_probes(bundle)
        assert probes == {"slm": True, "epi_closed": False}, n
    print("\n[criterion 6] PASS - sample counts 4..32")


def test_criterion_7_cross_solver_consistency():
    """A singleton direction set makes the set-direction solver agree with
    the single-direction solver, point for point and boolean for boolean."""
    shared = 0
    seed = 0
    while shared < 50:
        seed += 1
        bundle = generated_bundle(seed + 7000, n=int(2 + seed % 4),
                                  m=int(1 + seed % 3),
                                  values_per_point=int(1 + seed % 2),
                                  variant="singleton")
        k0 = bundle.raw["perturbation"]["k0"]
        lam = bundle.params.lam
        try:
            eps, direction = grow_epsilon(
                lambda e: solve_evp_direction(bundle.instance, k0, e, lam,
                                              bundle.params.x0))
        except AssertionError:
            continue
        setdir = solve_evp_set_direction(bundle.instance, singleton(k0),
                                         eps / lam, bundle.params.x0)
        assert direction.xhat == setdir.xhat, seed
        for name in ("a", "b"):
            assert (direction.conclusion(name).holds
                    == setdir.conclusion(name).holds), (seed, name)
        shared += 1
    print(f"\n[criterion 7] PASS - {shared} shared instances agree")


def test_criterion_8_pareto_suite():
    """Strict minima refine minima; they coincide under pointed cones; and
    finite sets always have the domination property under pointed cones."""
    rng = np.random.default_rng(88)
    sets_checked = 0
    for trial in range(100):
        m = int(rng.integers(1, 4))
        B = rng.normal(size=(int(rng.integers(1, 10)), m)) * 2.0
        C = orthant(m) if trial % 2 == 0 else pointed_cone(rng, m)
        mins = {tuple(p) for p in pareto_min(B, C)}
        smins = {tuple(p) for p in strict_pareto_min(B, C)}
        assert smins <= mins
        assert smins == mins  # pointed cones throughout this suite
        ok, wit = domination_check(B, C)
        assert ok, (trial, wit)
        ok, wit = domination_check(B, C, strict=True)
        assert ok, (trial, wit)
        sets_checked += 1
    print(f"\n[criterion 8] PASS - {sets_checked} random point sets")
