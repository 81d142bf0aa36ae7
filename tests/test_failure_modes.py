"""Defined outcomes at the edges of the LP kernel: no false infeasibility
from round-off in phase 1, and a report with exit code 4 when the simplex
iteration cap is hit."""

import json

import numpy as np
import pytest
from scipy.optimize import linprog

from evpkit import geometry
from evpkit.cli import _family_direction_vertices, run_command
from evpkit.geometry import strictly_positive_functional

from conftest import direction_polytope, fixture_path, generated_bundle


def test_phase1_round_off_is_not_infeasibility():
    """The pooled extensional vertices of this instance once drove phase 1
    into a column with no entry above the pivot threshold after hundreds of
    pivots; that was read as infeasible although a functional exists."""
    bundle = generated_bundle(0, n=14, m=3, values_per_point=1,
                              variant="extensional")
    H = direction_polytope(bundle)
    C = bundle.instance.cone
    tol = bundle.tol
    A = C.halfspaces
    V = H.vertices

    # HiGHS: some mu >= 0 gives (A^T mu) . h >= 1 on every vertex
    res = linprog(np.zeros(A.shape[0]), A_ub=-(V @ A.T),
                  b_ub=-np.ones(V.shape[0]), bounds=(0, None), method="highs")
    assert res.status == 0

    xi = strictly_positive_functional(H, C, tol)
    assert xi is not None
    w = xi.weights
    assert np.all(V @ w >= 1 - tol)
    # w lies in the dual cone: w = A^T mu for some mu >= 0
    res = linprog(np.zeros(A.shape[0]), A_eq=A.T, b_eq=w, bounds=(0, None),
                  method="highs")
    assert res.status == 0


@pytest.mark.parametrize("seed, n, m", [
    (7, 6, 3), (7, 8, 3), (7, 10, 3),
    # once declared infeasible by round-off (``generate --values 4
    # --variant extensional``)
    (20, 12, 2), (78, 12, 2), (81, 12, 2), (84003000, 9, 2),
    (20, 12, 3), (78, 12, 3), (81, 12, 3),
    # the full tableau drifts (``test_phase1_objective_row_drift``)
    (84003000, 9, 3),
])
def test_separation_matches_highs(seed, n, m):
    """``strictly_positive_functional`` on 120- to 528-row pooled
    extensional tableaux: feasible exactly when HiGHS finds some mu >= 0
    with (A^T mu) . h >= 1 on every pooled vertex h, and then the returned
    w is >= 1 - tol on every one of them. Their least row sums are
    positive, so these systems are solved in closed form."""
    bundle = generated_bundle(seed, n=n, m=m, values_per_point=4,
                              variant="extensional")
    H = _family_direction_vertices(bundle)
    C = bundle.instance.cone
    tol = bundle.tol
    A = C.halfspaces
    V = H.vertices
    assert 120 <= V.shape[0] <= 528
    res = linprog(np.zeros(A.shape[0]), A_ub=-(V @ A.T),
                  b_ub=-np.ones(V.shape[0]), bounds=(0, None), method="highs")
    assert res.status in (0, 2)
    xi = strictly_positive_functional(H, C, tol)
    assert (xi is not None) == (res.status == 0)
    if xi is not None:
        assert np.all(V @ xi.weights >= 1 - tol)
        assert xi.alpha == float(np.min(V @ xi.weights))


def test_phase1_objective_row_drift():
    """``_phase1`` on the full 288-row separation system of ``generate
    --seed 84003000 --n 9 --m 3 --values 4 --variant extensional``, which
    HiGHS finds feasible: ``[A h | -I] (mu, s) = 1`` with ``mu, s >= 0``.
    After 373 pivots no artificial variable is basic, but the objective
    row's right-hand side has drifted to -3.8e-6 and the basic values miss
    ``M z = rhs`` by 4.7e-6. Feasibility is read from the artificial
    values, and the witness is the basis solved again: it meets the system
    within the kernel's slack, and ``mu`` separates every vertex."""
    bundle = generated_bundle(84003000, n=9, m=3, values_per_point=4,
                              variant="extensional")
    rows = (_family_direction_vertices(bundle).vertices
            @ bundle.instance.cone.halfspaces.T)
    assert rows.shape[0] == 288
    res = linprog(np.zeros(rows.shape[1]), A_ub=-rows,
                  b_ub=-np.ones(rows.shape[0]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    M = np.hstack([rows, -np.eye(rows.shape[0])])
    z = geometry._phase1(M, np.ones(rows.shape[0]), bundle.tol)
    assert z is not None and z.min() >= 0.0
    assert np.abs(M @ z - 1.0).max() <= geometry._feas_tol(bundle.tol)
    assert (rows @ z[:rows.shape[1]]).min() >= 1.0 - bundle.tol


def test_lp_iteration_cap_gives_report_and_exit_4(monkeypatch, tmp_path):
    """The direction ``k0 = (0, 1)`` lies on the lineality line of the cone
    ``{y_1 >= 0}``, so its row sum is 0 and the separating functional is
    left to the LP: without a cap it finds none, and with a cap of 0 pivots
    the run ends in a report with exit code 4."""
    with open(fixture_path("two_point.json")) as fh:
        doc = json.load(fh)
    doc.update(dimension=2,
               cone={"halfspaces": [[1.0, 0.0]],
                     "generators": [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]},
               map={"a": [[1.0, 0.0]], "b": [[0.0, 0.0]]},
               perturbation={"variant": "singleton", "k0": [0.0, 1.0],
                             "gamma": 0.75},
               product={"graph": [["a", [1.0, 0.0]], ["b", [0.0, 0.0]]],
                        "y0": [1.0, 0.0]})
    path = tmp_path / "lineality.json"
    path.write_text(json.dumps(doc))
    argv = ["solve-evp", "--theorem", "3.1", str(path)]
    code, reports = run_command(argv)
    assert code == 2
    assert reports[0].payload["failed_hypothesis"] == "separation"
    monkeypatch.setattr(geometry, "_MAX_SIMPLEX_ITERATIONS", 0)
    out = tmp_path / "r.json"
    code, reports = run_command(argv + ["--out", str(out)])
    assert code == 4
    assert len(reports) == 1
    assert reports[0].status == "lp_error"
    assert reports[0].exit_code == 4
    assert "iteration cap" in reports[0].payload["error"]
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["status"] == "lp_error"
