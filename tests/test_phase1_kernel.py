"""The vectorized phase-1 kernel against the row-by-row elimination it
replaced.

``_phase1_rowloop`` is the earlier ``geometry._phase1``, copied verbatim
apart from its name: a Python scan for the entering column and a Python loop
over every tableau row per pivot. ``geometry._phase1`` must reach the same
decisions and return witnesses equal byte for byte, since functional weights
and ``alpha`` are written into reports.

One difference is intended, and the reference keeps the old behaviour:
the reference also rejects a system whose objective row's right-hand side
ends below ``-feas_tol``, while ``geometry._phase1`` reads feasibility from
the basic artificial values alone and, when no artificial variable is basic
and the witness misses ``M z = rhs`` by more than ``feas_tol``, solves the
basis again. Only a tableau whose right-hand sides drift over many pivots
tells the two apart (``test_objective_row_drift_is_the_one_difference``);
no system of the other tests here does.
"""

import sys

import numpy as np
import pytest

from evpkit import geometry
from evpkit.errors import LinearProgramError
from evpkit.geometry import lp_feasible, lp_member

from conftest import direction_polytope, generated_bundle, random_cone
from evpkit.cli import _family_direction_vertices

_PIVOT_EPS = geometry._PIVOT_EPS
_MAX_SIMPLEX_ITERATIONS = geometry._MAX_SIMPLEX_ITERATIONS


def _phase1_rowloop(M, rhs, tol):
    """Find ``z >= 0`` with ``M z = rhs`` or return None.

    Rows with negative right-hand side are flipped; one artificial variable
    per row forms the starting basis; Bland's rule (lowest entering index,
    lowest basic index on ratio ties) guarantees termination, with a hard
    iteration cap as a backstop.
    """
    M = np.array(M, dtype=float)
    rhs = np.array(rhs, dtype=float)
    m, n = M.shape
    flip = rhs < 0
    M[flip] *= -1.0
    rhs[flip] *= -1.0

    # tableau: [M | I | rhs] with the phase-1 objective row appended
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = M
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = rhs
    T[m, :n] = -M.sum(axis=0)
    T[m, -1] = -rhs.sum()
    basis = list(range(n, n + m))

    for _ in range(_MAX_SIMPLEX_ITERATIONS):
        reduced = T[m, :-1]
        entering = -1
        for j in range(n + m):
            if reduced[j] < -_PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            break
        col = T[:m, entering]
        rows = np.nonzero(col > _PIVOT_EPS)[0]
        if rows.size == 0:
            # the phase-1 objective is bounded below, so an unbounded column
            # is round-off: stop and let the artificial sum decide
            break
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _PIVOT_EPS]
        leave = min(ties, key=lambda r: basis[r])
        piv = T[leave, entering]
        T[leave] /= piv
        for r in range(m + 1):
            if r != leave:
                f = T[r, entering]
                if f != 0.0:
                    T[r] -= f * T[leave]
        basis[leave] = entering
    else:
        raise LinearProgramError("phase-1 simplex exceeded its iteration cap")

    feas_tol = max(tol, 1e-10)
    if T[m, -1] < -feas_tol:
        return None
    z = np.zeros(n + m)
    for r, bv in enumerate(basis):
        z[bv] = max(T[r, -1], 0.0)
    if z[n:].sum() > feas_tol:
        return None
    return z[:n]


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

def recorded_calls(fn, *args):
    """``(M, rhs, tol)`` of every ``_phase1`` call ``fn(*args)`` makes."""
    calls = []
    original = geometry._phase1

    def record(M, rhs, tol):
        calls.append((np.array(M), np.array(rhs), tol))
        return original(M, rhs, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_phase1", record)
        fn(*args)
    return calls


def separation_system(bundle):
    """The full separation system over the pooled direction vertices, one
    ``(A h) . mu - s_h = 1`` row per vertex ``h``, as one ``(M, rhs, tol)``
    call: the tableau ``strictly_positive_functional`` solves when the
    least row sum leaves no closed form."""
    rows = (direction_polytope(bundle).vertices
            @ bundle.instance.cone.halfspaces.T)
    n = rows.shape[0]
    return [(np.hstack([rows, -np.eye(n)]), np.ones(n), bundle.tol)]


def solve_both(M, rhs, tol):
    """Both kernels on one system; the vectorized one must not write to its
    inputs."""
    M_before, rhs_before = M.copy(), rhs.copy()
    got = geometry._phase1(M, rhs, tol)
    assert M.tobytes() == M_before.tobytes()
    assert rhs.tobytes() == rhs_before.tobytes()
    return got, _phase1_rowloop(M, rhs, tol)


def assert_same(calls):
    """Equal decisions and byte-equal witnesses; returns the reference
    results."""
    results = []
    for M, rhs, tol in calls:
        got, want = solve_both(M, rhs, tol)
        assert (got is None) == (want is None), (M, rhs)
        if want is not None:
            assert got.tobytes() == want.tobytes(), (M, rhs)
        results.append(want)
    return results


@pytest.fixture
def iteration_cap(monkeypatch):
    """Set the iteration cap of both kernels."""
    def set_cap(cap):
        monkeypatch.setattr(geometry, "_MAX_SIMPLEX_ITERATIONS", cap)
        monkeypatch.setattr(sys.modules[__name__], "_MAX_SIMPLEX_ITERATIONS",
                            cap)
    return set_cap


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(6, 13))
def test_functional_lp_of_extensional_instance(n):
    """The full separation LP over the pooled direction vertices of
    ``solve-evp --theorem 3.1``: 120 to 528 rows, the largest tableaux the
    kernel is given."""
    bundle = generated_bundle(7, n=n, m=3, values_per_point=4,
                              variant="extensional")
    calls = separation_system(bundle)
    assert 120 <= calls[0][0].shape[0] <= 528
    assert assert_same(calls)[0] is not None


def test_lp_member_shaped_systems():
    """Convex weights on 1 to 4 vertices against random cones in dimension
    1 to 3: the small tableaux of the membership fallback (4 x 5 for three cone rows and
    two vertices); points near the covered boundary give both answers."""
    rng = np.random.default_rng(2024)
    calls = []
    for _ in range(150):
        m = int(rng.integers(1, 4))
        C, k0 = random_cone(rng, m)
        V = rng.uniform(0.2, 1.5, size=(int(rng.integers(1, 5)), 1)) * k0 \
            + rng.normal(scale=0.3, size=(1, m))
        B = rng.normal(size=(int(rng.integers(1, 4)), m))
        y = B[0] + rng.normal(scale=1.0, size=m) + 0.8 * k0
        calls += recorded_calls(lp_member, y, B, float(rng.uniform(0.1, 2.0)),
                                V, C, 1e-9, range(len(B)))
    feasible = [z is not None for z in assert_same(calls)]
    assert 0 < sum(feasible) < len(feasible)


def test_lp_feasible_shaped_systems():
    """Free variables split as u - v; small integer data make degenerate
    vertices and ratio ties, so Bland's tie-break is exercised."""
    rng = np.random.default_rng(77)
    calls = []
    for trial in range(150):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        if trial % 2:
            G = rng.integers(-2, 3, size=(k, n)).astype(float)
            h = rng.integers(-1, 2, size=k).astype(float)
        else:
            G = rng.normal(size=(k, n))
            h = rng.normal(size=k)
        calls += recorded_calls(lp_feasible, list(zip(G, h)), 1e-9)
    feasible = [z is not None for z in assert_same(calls)]
    assert 0 < sum(feasible) < len(feasible)


@pytest.mark.parametrize("pad", [0, 50])
def test_signed_zeros(pad):
    """Entries and right-hand sides drawn from -0.0, 0.0, 1, -1 and 2: many
    witnesses hold -0.0, which only an elimination that skips exactly the
    rows with a zero entering entry, and updates the right-hand side of
    every other row, reproduces. ``pad`` identity rows make the tableau
    large and mostly zero."""
    rng = np.random.default_rng(5)
    values = np.array([-0.0, 0.0, 1.0, -1.0, 2.0])
    calls = []
    for _ in range(300):
        m, n = (int(v) for v in rng.integers(2, 5, size=2))
        M = np.zeros((m + pad, n + pad))
        M[:m, :n] = rng.choice(values, size=(m, n))
        M[m:, n:] = np.eye(pad)
        rhs = np.concatenate([rng.choice(values, size=m), np.ones(pad)])
        calls.append((M, rhs, 1e-9))
    assert sum(z is not None and bool(np.any(np.signbit(z) & (z == 0)))
               for z in assert_same(calls)) >= 10


def test_round_off_instance():
    """The 728-row separation LP of ``test_failure_modes``, whose entering
    column once had no entry above the pivot threshold."""
    bundle = generated_bundle(0, n=14, m=3, values_per_point=1,
                              variant="extensional")
    [z] = assert_same(separation_system(bundle))
    assert z is not None


@pytest.mark.parametrize("n", [None, 6])
def test_iteration_cap_still_raises(iteration_cap, n):
    """With the cap at the pivot count both kernels raise; one more
    iteration lets both finish with the same witness. ``n=None`` is a small
    dense tableau, ``n=6`` the 120-row separation LP."""
    if n is None:
        G = np.array([[1.0, 2.0], [3.0, -1.0], [-1.0, 4.0]])
        calls = recorded_calls(lp_feasible, [(g, 1.0) for g in G], 1e-9)
    else:
        bundle = generated_bundle(7, n=n, m=3, values_per_point=4,
                                  variant="extensional")
        calls = separation_system(bundle)
    M, rhs, tol = calls[0]

    def raises(cap):
        iteration_cap(cap)
        try:
            _phase1_rowloop(M, rhs, tol)
        except LinearProgramError:
            return True
        return False

    # smallest cap at which the reference finishes: its pivot count + 1
    lo, hi = 0, geometry._MAX_SIMPLEX_ITERATIONS
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if raises(mid) else (lo, mid)
    assert lo > 1
    iteration_cap(lo - 1)
    with pytest.raises(LinearProgramError, match="iteration cap"):
        geometry._phase1(M, rhs, tol)
    iteration_cap(lo)
    got, want = solve_both(M, rhs, tol)
    assert want is not None and got.tobytes() == want.tobytes()


def test_objective_row_drift_is_the_one_difference():
    """The 288-row separation system of ``generate --seed 84003000 --n 9
    --m 3 --values 4 --variant extensional``: both kernels pivot alike to a
    basis with no artificial variable, whose objective row has drifted to
    -3.8e-6. The reference rejects it on that entry; ``_phase1`` returns
    the basis solved again, which meets the system within ``feas_tol``."""
    bundle = generated_bundle(84003000, n=9, m=3, values_per_point=4,
                              variant="extensional")
    rows = (_family_direction_vertices(bundle).vertices
            @ bundle.instance.cone.halfspaces.T)
    n = rows.shape[0]
    M, rhs = np.hstack([rows, -np.eye(n)]), np.ones(n)
    got, want = solve_both(M, rhs, bundle.tol)
    assert want is None and got is not None
    assert np.abs(M @ got - rhs).max() <= geometry._feas_tol(bundle.tol)
