"""Minimal-point engine: contract examples, trace audits, brute-force
containment, and determinism."""

import math

import pytest

from evpkit.engine import PreorderOracle, solve
from evpkit.errors import HypothesisError, InputError
from evpkit.geometry import strictly_positive_functional
from conftest import (VARIANT_CYCLE, assert_monotone, audit_trace,
                      brute_force_minimals, build_preorder, direction_polytope,
                      generated_bundle, verify_conclusions)


@pytest.fixture
def chain():
    return PreorderOracle(
        ("a", "b", "c"),
        {"a": ["a", "b", "c"], "b": ["b", "c"], "c": ["c"]},
        {"a": 2.0, "b": 1.0, "c": 0.0})


class TestSolve:
    def test_chain_bottom(self, chain):
        for mode in ("faithful", "greedy"):
            xhat, trace = solve(chain, "a", mode)
            assert xhat == "c"
            assert trace.terminal == "c"
            assert brute_force_minimals(chain, "a") == {"c"}

    def test_self_loop_immediate(self):
        o = PreorderOracle(("a", "b"), {"a": ["a"], "b": ["a", "b"]},
                           {"a": 0.0, "b": 1.0})
        xhat, trace = solve(o, "a")
        assert xhat == "a" and len(trace.steps) == 1

    def test_instance_order(self):
        b = generated_bundle(3, n=4, m=2, variant="singleton")
        xi = strictly_positive_functional(direction_polytope(b),
                                          b.instance.cone, b.tol)
        oracle, _ = build_preorder(b.instance, b.family, xi)
        xhat, _ = solve(oracle, b.params.x0)
        assert set(oracle.section(xhat)) <= {xhat}
        assert xhat in set(oracle.section(b.params.x0))

    def test_empty_start_section(self):
        o = PreorderOracle(("a", "b"), {"a": [], "b": ["b"]},
                           {"a": 0.0, "b": 0.0})
        with pytest.raises(HypothesisError) as err:
            solve(o, "a")
        assert err.value.name == "nonempty_start"

    def test_unbounded_potential(self):
        o = PreorderOracle(("a", "b"), {"a": ["a", "b"], "b": ["b"]},
                           {"a": math.inf, "b": math.inf})
        with pytest.raises(HypothesisError) as err:
            solve(o, "a")
        assert err.value.name == "bounded"

    def test_infinite_entries_allowed_when_bounded(self):
        o = PreorderOracle(("a", "b", "c"),
                           {"a": ["a", "b", "c"], "b": ["b"], "c": ["c"]},
                           {"a": math.inf, "b": 1.0, "c": math.inf})
        xhat, _ = solve(o, "a")
        assert xhat == "b"

    def test_cycle_diagnostic(self):
        o = PreorderOracle(("a", "b"),
                           {"a": ["a", "b"], "b": ["a", "b"]},
                           {"a": 1.0, "b": 1.0})
        with pytest.raises(HypothesisError) as err:
            solve(o, "a", "faithful")
        assert err.value.name == "strict_decrease"
        assert "cycle" in err.value.witness

    def test_non_reflexive_terminal_with_empty_section(self):
        o = PreorderOracle(("a", "b"), {"a": ["b"], "b": []},
                           {"a": 1.0, "b": 0.0})
        xhat, _ = solve(o, "a")
        assert xhat == "b"
        assert verify_conclusions(o, "a", "b")["ok"]

    def test_unknown_mode(self, chain):
        with pytest.raises(InputError):
            solve(chain, "a", "sideways")


class TestBruteForce:
    def test_antichain(self):
        o = PreorderOracle(("a", "b", "c"),
                           {"a": ["a"], "b": ["b"], "c": ["c"]},
                           {"a": 0.0, "b": 1.0, "c": 2.0})
        assert brute_force_minimals(o, "a") == {"a"}

    def test_two_minimals(self):
        o = PreorderOracle(("x", "p", "q"),
                           {"x": ["x", "p", "q"], "p": ["p"], "q": ["q"]},
                           {"x": 2.0, "p": 0.0, "q": 0.0})
        assert brute_force_minimals(o, "x") == {"p", "q"}

    def test_containment_on_random_instances(self):
        for seed in range(15):
            b = generated_bundle(seed + 300, n=6, m=2,
                                 variant=VARIANT_CYCLE[seed % 5])
            xi = strictly_positive_functional(direction_polytope(b),
                                              b.instance.cone, b.tol)
            oracle, _ = build_preorder(b.instance, b.family, xi)
            minimals = brute_force_minimals(oracle, b.params.x0)
            for mode in ("faithful", "greedy"):
                xhat, trace = solve(oracle, b.params.x0, mode)
                assert xhat in minimals, (seed, mode)
                assert verify_conclusions(oracle, b.params.x0, xhat)["ok"]
                assert audit_trace(oracle, trace, tol=1e-12)

    def test_containment_on_random_cones(self):
        import numpy as np
        from conftest import random_cone_instance
        rng = np.random.default_rng(777)
        for _ in range(12):
            inst, fam, xi = random_cone_instance(rng, n=5, values=2)
            oracle, _ = build_preorder(inst, fam, xi)
            x0 = inst.labels[0]
            minimals = brute_force_minimals(oracle, x0)
            for mode in ("faithful", "greedy"):
                xhat, _ = solve(oracle, x0, mode)
                assert xhat in minimals
                assert verify_conclusions(oracle, x0, xhat)["ok"]


class TestFromMatrix:
    @staticmethod
    def loop_successors(labels, rel):
        """The successor lists as the solvers built them before
        ``from_columns``: column j's rows in label order."""
        import numpy as np
        return {x1: [labels[i] for i in np.nonzero(rel[:, j])[0]]
                for j, x1 in enumerate(labels)}

    def test_matches_the_column_loop(self):
        import numpy as np
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 9, 16, 40):
            mats = [np.zeros((n, n), dtype=bool), np.eye(n, dtype=bool)]
            mats += [rng.random((n, n)) < p for p in (0.2, 0.5, 0.9)]
            # a transposed, non-contiguous view, and an all-false column
            mats.append((rng.random((2 * n, n)) < 0.5).T[:, ::2])
            assert not mats[-1].flags.c_contiguous or n == 1
            mats.append(rng.random((n, n)) < 0.5)
            mats[-1][:, n // 2] = False
            for labels in (tuple(f"x{i}" for i in range(n)), tuple(range(n))):
                eta = rng.normal(size=n).tolist()
                for rel in mats:
                    o = PreorderOracle.from_columns(
                        labels, lambda j, rel=rel: rel[:, j], eta)
                    assert o.labels == labels
                    assert o.successors == self.loop_successors(labels, rel)
                    assert o.eta == dict(zip(labels, eta))
                    # plain labels, so reports serialize as before
                    assert all(type(z) is type(labels[0])
                               for s in o.successors.values() for z in s)

    def test_accepts_a_label_range(self):
        import numpy as np
        rel = np.array([[True, True], [False, True]])
        o = PreorderOracle.from_columns(range(2), lambda j: rel[:, j],
                                        [0.0, 1.0])
        assert o.labels == (0, 1)
        assert o.successors == {0: [0], 1: [0, 1]}
        assert solve(o, 1)[0] == 0

    def test_reads_only_the_columns_of_the_sections_it_walks(self):
        """A solve reads the column of each label whose section it walks,
        once each, and no other: on a chain 0 > 1 > ... > n - 1 with labels
        beyond n - 1 that no walk reaches, from every start."""
        import numpy as np
        n, extra = 6, 3
        rel = np.triu(np.ones((n + extra, n + extra), dtype=bool)).T
        rel[n:, :n] = rel[:n, n:] = False
        eta = [float(-i) for i in range(n)] + [0.0] * extra
        for start in range(n):
            for mode in ("faithful", "greedy"):
                read = []

                def column(j):
                    read.append(j)
                    return rel[:, j]

                o = PreorderOracle.from_columns(range(n + extra), column, eta)
                xhat, trace = solve(o, start, mode)
                walked = [s.label for s in trace.steps]
                assert xhat == n - 1
                assert read == sorted(set(walked)), (start, mode, read)


class TestTraceProperties:
    def test_faithful_slack_schedule(self, chain):
        _, trace = solve(chain, "a", "faithful")
        for n, step in enumerate(trace.steps[1:], start=1):
            assert step.slack == 2.0 ** (-n)
            assert step.eta < step.inf_prev + step.slack

    def test_monotone_potential_along_trace(self):
        for seed in range(10):
            b = generated_bundle(seed + 400, n=6, m=2,
                                 variant=VARIANT_CYCLE[seed % 5])
            xi = strictly_positive_functional(direction_polytope(b),
                                              b.instance.cone, b.tol)
            oracle, _ = build_preorder(b.instance, b.family, xi)
            assert_monotone(oracle, tol=1e-7)
            _, trace = solve(oracle, b.params.x0, "faithful")
            etas = [s.eta for s in trace.steps]
            labels = [s.label for s in trace.steps]
            for (e1, l1), (e2, l2) in zip(zip(etas, labels),
                                          zip(etas[1:], labels[1:])):
                assert e2 <= e1 + 1e-12
                if l1 != l2:
                    assert e2 < e1  # strict drop across distinct iterates

    def test_determinism(self):
        for seed in (5, 11):
            b = generated_bundle(seed + 500, n=7, m=2, variant="polytope")
            xi = strictly_positive_functional(direction_polytope(b),
                                              b.instance.cone, b.tol)
            oracle, _ = build_preorder(b.instance, b.family, xi)
            runs = [solve(oracle, b.params.x0, "faithful") for _ in range(3)]
            assert all(r[0] == runs[0][0] for r in runs)
            assert all(r[1] == runs[0][1] for r in runs)
