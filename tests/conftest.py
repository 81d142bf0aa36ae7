"""Shared helpers for the test suite: deterministic random cones, instances,
and scalarizations, and the enumeration oracles of the minimal-point
engine."""

import os

import numpy as np
from scipy.optimize import linprog

from evpkit.cli import _family_direction_vertices
from evpkit.engine import PreorderOracle
from evpkit.errors import PremiseError
from evpkit.geometry import cone, singleton
from evpkit.instances import OUT, OrderGrid, label_infima, relation_matrix
from evpkit.io import generate, load_validate

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def random_cone(rng, m, rows=None):
    """A validated random polyhedral cone plus a direction k0 inside it with
    -k0 outside (every row strictly positive on k0)."""
    k0 = rng.uniform(0.5, 1.5, size=m)
    rows = rows or int(rng.integers(m, m + 3))
    A = []
    while len(A) < rows:
        a = rng.normal(size=m)
        a /= np.linalg.norm(a)
        if abs(a @ k0) < 0.2:
            continue
        if a @ k0 < 0:
            a = -a
        A.append(a)
    return cone(np.array(A)), k0


def highs_margin(y, B, s, V, C):
    """max over base rows b and convex w of min_i A(y - b - s V^T w)_i, by
    scipy's HiGHS: ``y`` is in ``B + s conv(V) + C`` up to tol iff it is at
    least ``-tol``. HiGHS's tolerances are absolute, so it solves the query
    scaled to magnitude 1, and the margin is scaled back."""
    size = max(np.abs(y).max(), np.abs(B).max(), s * np.abs(V).max())
    size = size if size > 0 else 1.0
    y, B, V = y / size, B / size, V / size
    A = C.halfspaces
    J = V.shape[0]
    best = -np.inf
    for b in B:
        # variables (w, t): maximize t with t + s (A V^T w)_i <= A(y - b)_i
        A_ub = np.hstack([s * (A @ V.T), np.ones((A.shape[0], 1))])
        res = linprog(np.r_[np.zeros(J), -1.0], A_ub=A_ub, b_ub=A @ (y - b),
                      A_eq=np.r_[np.ones(J), 0.0][None, :], b_eq=[1.0],
                      bounds=[(0, None)] * J + [(None, None)],
                      method="highs")
        assert res.status == 0, res.message
        best = max(best, -res.fun)
    return size * best


def pointed_cone(rng, m):
    """Invertible-row cone: A y >= 0 and -A y >= 0 force y = 0."""
    while True:
        A = np.eye(m) + rng.uniform(-0.25, 0.25, size=(m, m))
        if abs(np.linalg.det(A)) > 0.1:
            return cone(A)


def sample_cone_member(rng, C, k0, scale=1.0):
    """Rejection-sample a cone member near the k0 direction."""
    for _ in range(200):
        d = scale * (rng.uniform(0.0, 1.0) * k0 +
                     rng.normal(scale=0.2 * scale, size=C.dim))
        if np.all(C.halfspaces @ d >= 0):
            return d
    return scale * rng.uniform(0.0, 1.0) * k0


VARIANT_CYCLE = ("singleton", "polytope", "open_polytope", "quasimetric",
                 "extensional")


def generated_bundle(seed, n=4, m=2, values_per_point=2, variant="singleton"):
    return load_validate(generate(seed, n=n, m=m,
                                  values_per_point=values_per_point,
                                  variant=variant))


def direction_polytope(bundle):
    """The direction vertices the CLI separates for a bundle."""
    return _family_direction_vertices(bundle)


def random_cone_instance(rng, n=4, values=2):
    """Instance over a non-orthant random cone with a matching direction
    family and separating functional."""
    from evpkit.geometry import strictly_positive_functional
    from evpkit.instances import (FiniteInstance, SetValuedMap,
                                  SingletonDirection, metric_from_coordinates)
    m = int(rng.integers(1, 4))
    C, k0 = random_cone(rng, m)
    labels = tuple(f"r{i}" for i in range(n))
    coords = rng.uniform(0.0, 3.0, size=(n, 2))
    for i in range(1, n):
        while np.min(np.linalg.norm(coords[:i] - coords[i], axis=1)) < 0.05:
            coords[i] = rng.uniform(0.0, 3.0, size=2)
    space = metric_from_coordinates(labels, coords).validate()
    fmap = SetValuedMap({lab: rng.normal(size=(values, m)) * 2.0
                         for lab in labels})
    inst = FiniteInstance(space, fmap, C)
    fam = SingletonDirection(k0, float(rng.uniform(0.3, 1.2)))
    xi = strictly_positive_functional(singleton(k0), C)
    assert xi is not None
    return inst, fam, xi


def grow_epsilon(fn, start=0.25, cap=1e6):
    """Double epsilon until the premise-checking callable succeeds."""
    eps = start
    while eps < cap:
        try:
            return eps, fn(eps)
        except PremiseError:
            eps *= 2.0
    raise AssertionError("no epsilon satisfied the premise")


# ---------------------------------------------------------------------------
# Oracles of the minimal-point engine, from the raw successor lists of a
# PreorderOracle and independent of the iterative construction.
# ---------------------------------------------------------------------------

def matrix_grid(inst, arrays, rel):
    """The order grid of a known order matrix ``rel`` over ``arrays``:
    every cell passed, -1 where ``rel`` holds and ``OUT`` elsewhere, so
    that a bool read (``OrderGrid.precedes``) asks no cell."""
    return OrderGrid(inst, arrays, np.where(rel, -1, OUT))


def build_preorder(inst, fam, xi):
    """Engine oracle plus the boolean order matrix (rel[i, j]: label i
    precedes label j) for an instance, family, and scalarization."""
    rel = relation_matrix(inst, fam)
    return PreorderOracle.from_columns(inst.labels, lambda j: rel[:, j],
                                       label_infima(inst, xi)), rel


def _terminal(oracle, x):
    return all(z == x for z in oracle.section(x))


def brute_force_minimals(oracle, x0):
    """All members of S(x0) whose own section is contained in themselves,
    by full enumeration."""
    return {x for x in oracle.section(x0) if _terminal(oracle, x)}


def verify_conclusions(oracle, x0, xhat):
    """Re-derive both conclusions from the raw successor function."""
    in_start_section = xhat in set(oracle.section(x0))
    section_trivial = _terminal(oracle, xhat)
    return {
        "in_start_section": in_start_section,
        "section_trivial": section_trivial,
        "ok": in_start_section and section_trivial,
    }


def audit_trace(oracle, trace, tol=0.0):
    """Post-hoc check that every recorded step obeys the selection rule's
    inequality and that the potential never increased along the run."""
    steps = trace.steps
    for prev, step in zip(steps, steps[1:]):
        section = oracle.section(prev.label)
        if step.label not in set(section):
            return False
        inf_here = min(oracle.eta[z] for z in section)
        if trace.mode == "faithful":
            if not step.eta < inf_here + step.slack:
                return False
        else:
            if step.eta > inf_here + tol:
                return False
        if step.eta > prev.eta + tol:
            return False
    return True


def assert_monotone(oracle, tol=0.0):
    """Sweep: eta may not increase along the order."""
    for x in oracle.labels:
        for xp in oracle.successors[x]:
            assert oracle.eta[xp] <= oracle.eta[x] + tol, \
                f"potential is not monotone: eta({xp!r}) > eta({x!r})"
