"""Theorem front-ends: assemble an (order, potential) pair from instance
data, run the minimal-point engine, and certify the advertised conclusions
by re-deriving each one from raw LP memberships (never from engine state).

Solvers refuse to run when a checkable hypothesis fails, raising a
HypothesisError naming it; premise-carrying variants verify their premise
first and raise PremiseError with a counterexample otherwise.

Theorem tags used by certificates and the CLI selector:

=====  ======================================================================
tag    variant
=====  ======================================================================
3.1    general family order with a supplied monotone scalarization
3.5    single-direction perturbation, pointwise escape premise
3.6    single-direction perturbation, global escape premise (anchored
       nonlinear scalarization)
4.1    set-direction perturbation, open rate family
4.2    set-direction perturbation, fixed rate
4.4    set-direction perturbation scaled by a quasi-metric
4.5    approximate-efficiency premise on top of 4.1 (bound is non-strict)
4.6    approximate-efficiency premise on top of 4.2 (bound is strict)
=====  ======================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine as eng
from .errors import HypothesisError, InputError, PremiseError
from .geometry import (Polytope, as_point, covered_queries, singleton,
                       stack_rows, strictly_positive_functional)
from .instances import (FiniteInstance, OpenPolytopeFamily, PolytopeDirection,
                        QuasiMetric, QuasiMetricDirection, SingletonDirection,
                        check_assumptions, d_bounded_certificate,
                        eps_h_efficient, order_arrays, order_queries, preceq,
                        relation_matrix, scalar_inf, ti_check)
# bench/spans.py traces per-call memberships under this name here
from .instances import minkowski_member  # noqa: F401
from .scalarize import GerstewitzFn, ShiftedGerstewitz


@dataclass(frozen=True)
class Conclusion:
    name: str
    holds: bool
    witness: dict

    def to_dict(self):
        return {"name": self.name, "holds": self.holds,
                "witness": _jsonable(self.witness)}


@dataclass
class Certificate:
    """A solver's terminal point, its re-derived conclusions, the checked
    assumptions and the engine trace. The graph solvers (5.1, 5.2, 5.6) set
    ``yhat``, the value of the terminal pair; the label-order solvers record
    their ``scalarization``. ``to_dict`` writes each only when set."""

    theorem: str
    xhat: object
    conclusions: list
    assumptions: object
    trace: eng.EngineTrace
    yhat: np.ndarray | None = None
    scalarization: dict = field(default_factory=dict)
    premise: dict | None = None
    notes: tuple = ()

    def all_hold(self):
        return all(c.holds for c in self.conclusions)

    def conclusion(self, name):
        for c in self.conclusions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        out = {
            "theorem": self.theorem,
            "xhat": self.xhat,
            "conclusions": [c.to_dict() for c in self.conclusions],
            "assumptions": (self.assumptions.to_dict()
                            if hasattr(self.assumptions, "to_dict")
                            else _jsonable(self.assumptions)),
            "trace": self.trace.to_dict(),
            "premise": _jsonable(self.premise),
            "notes": list(self.notes),
        }
        if self.yhat is not None:
            out["yhat"] = _jsonable(self.yhat)
        if self.scalarization:
            out["scalarization"] = _jsonable(self.scalarization)
        return out


EvpCertificate = Certificate


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Shared machinery.
# ---------------------------------------------------------------------------

def build_preorder(inst, fam, xi, arrays=None):
    """Engine oracle plus the boolean order matrix (rel[i, j]: label i
    precedes label j) for an instance, family, and scalarization."""
    labels = inst.labels
    rel = relation_matrix(inst, fam, arrays)
    successors = {
        x1: [labels[i] for i in np.nonzero(rel[:, j])[0]]
        for j, x1 in enumerate(labels)
    }
    eta = {x: scalar_inf(xi, inst.fmap.at(x)) for x in labels}
    return eng.PreorderOracle(labels, successors, eta), rel


def _gate(inst, fam, xi, x0):
    """Order construction plus the hypothesis gate shared by all solvers.

    Returns the engine oracle, the assumption report and the
    :func:`order_arrays`, built once here for every order test of the
    solve."""
    arrays = order_arrays(inst, fam)
    ok, witness = ti_check(inst, fam, arrays)
    if not ok:
        raise HypothesisError("triangle_inclusion",
                              "the perturbation family fails the triangle "
                              "inclusion property", witness={"triple": witness})
    oracle, rel = build_preorder(inst, fam, xi, arrays)
    if not oracle.section(x0):
        raise HypothesisError("nonempty_start",
                              f"the lower section of {x0!r} is empty")
    report = check_assumptions(inst, fam, xi, x0, rel, arrays)
    if not report.solvable():
        raise HypothesisError(report.failed_name(),
                              "assumption gate failed",
                              witness=report.to_dict())
    return oracle, report, arrays


def _conclusion_order(inst, fam, xhat, x0, name="a"):
    holds = preceq(inst, fam, xhat, x0)
    return Conclusion(name, holds, {"dominates": x0, "dominated_by": xhat})


def _conclusion_strict(inst, fam, xhat, name="b", arrays=None):
    """For every other label some family member separates it from xhat.

    One :func:`order_queries` stack asks whether each other label x
    precedes xhat. The first uncovered (family set, value of xhat) query of
    x is its separation witness; an x with none is a violation. ``arrays``
    are the :func:`order_arrays`, built here when not given.
    """
    labels, lams = inst.labels, fam.lambdas()
    j = inst.space.index(xhat)
    others = np.delete(np.arange(len(labels)), j)
    if arrays is None:
        arrays = order_arrays(inst, fam)
    first, lam, row = order_queries(inst, arrays, others,
                                    np.full(len(others), j))
    failures = []
    witnesses = []
    for x, q in zip(others, first):
        if q < 0:
            failures.append(labels[x])
        else:
            witnesses.append({"x": labels[x], "index": lams[lam[q]],
                              "value_row": int(row[q])})
    return Conclusion(name, not failures,
                      {"violations": failures, "separations": witnesses})


def _distance_conclusion(inst, x0, xhat, bound, strict, tol, name="c"):
    d = inst.space.d(x0, xhat)
    if strict:
        holds = d < bound - tol
        boundary = abs(d - bound) <= tol
    else:
        holds = d <= bound + tol
        boundary = False
    return Conclusion(name, holds, {"distance": d, "bound": bound,
                                    "strict": strict, "boundary": boundary})


def _scalarization_info(xi):
    if getattr(xi, "is_linear", False):
        return {"kind": "linear", "weights": xi.weights,
                "alpha": xi.alpha}
    if isinstance(xi, ShiftedGerstewitz):
        return {"kind": "gerstewitz", "k0": xi.base.k0, "shift": xi.shift}
    if isinstance(xi, GerstewitzFn):
        return {"kind": "gerstewitz", "k0": xi.k0, "shift": None}
    return {"kind": type(xi).__name__}


def _separating_functional(H, cone_, tol):
    xi = strictly_positive_functional(H, cone_, tol)
    if xi is None:
        raise HypothesisError(
            "separation",
            "no strictly positive functional exists for the direction set: "
            "0 lies in the closure of H + cone")
    return xi


# ---------------------------------------------------------------------------
# Solvers.
# ---------------------------------------------------------------------------

def solve_evp_general(inst: FiniteInstance, fam, xi, x0, mode="greedy"):
    """Order from an arbitrary validated family plus a monotone scalarization."""
    fam.validate(inst.space, inst.cone, inst.tol)
    oracle, report, arrays = _gate(inst, fam, xi, x0)
    xhat, trace = eng.solve(oracle, x0, mode)
    conclusions = [
        _conclusion_order(inst, fam, xhat, x0),
        _conclusion_strict(inst, fam, xhat, arrays=arrays),
    ]
    return Certificate("3.1", xhat, conclusions, report, trace,
                       scalarization=_scalarization_info(xi))


def _pointwise_premise(inst, x0, epsilon, H):
    """Escape of f(x0) from f(x) + epsilon*H + cone for every single x: one
    stack of the (x, value of x0) queries, grouped by x; the first x with
    every value covered is the counterexample."""
    labels = inst.labels
    B, nb = stack_rows([inst.fmap.at(x) for x in labels])
    Y0 = inst.fmap.at(x0)
    q_x = np.repeat(np.arange(len(labels)), len(Y0))
    first = covered_queries(np.tile(Y0, (len(labels), 1)), B[q_x], nb[q_x],
                            np.full(len(q_x), float(epsilon)), H.vertices,
                            None, inst.cone, inst.tol, group=q_x)
    covered = np.flatnonzero(first < 0)
    if covered.size:
        x = labels[covered[0]]
        raise PremiseError(
            f"every value of f({x0!r}) is covered by "
            f"f({x!r}) + epsilon*H + cone", witness={"x": x})


def _global_premise(inst, x0, epsilon, H):
    """One value of f(x0) escaping f(X) + epsilon*H + cone; returns it."""
    ok, y0 = eps_h_efficient(inst, x0, epsilon, H)
    if ok:
        return y0
    raise PremiseError(
        f"f({x0!r}) is covered by f(X) + epsilon*H + cone",
        witness={"x0": x0})


def solve_evp_direction(inst: FiniteInstance, k0, epsilon, lam, x0,
                        premise="pointwise", mode="greedy"):
    """Single-direction perturbation at rate epsilon/lam with a distance
    bound conclusion. ``premise`` selects the pointwise or the global escape
    hypothesis; the global variant scalarizes with the anchored nonlinear
    functional, the pointwise variant with a separating linear one."""
    k0 = as_point(k0, inst.cone.dim)
    if premise not in ("pointwise", "global"):
        raise InputError(f"unknown premise form {premise!r}")
    if not (epsilon > 0 and lam > 0):
        raise InputError("epsilon and lambda must be strictly positive")
    H = singleton(k0)
    fam = SingletonDirection(k0, epsilon / lam).validate(
        inst.space, inst.cone, inst.tol)

    premise_info = {"form": premise, "epsilon": epsilon}
    if premise == "pointwise":
        _pointwise_premise(inst, x0, epsilon, H)
        xi = _separating_functional(H, inst.cone, inst.tol)
        xi = xi.scaled(1.0 / float(xi.weights @ k0))  # value(k0) = 1
        theorem = "3.5"
    else:
        y0 = _global_premise(inst, x0, epsilon, H)
        xi = ShiftedGerstewitz(GerstewitzFn(inst.cone, k0, inst.tol), y0)
        premise_info["witness_value"] = y0
        theorem = "3.6"

    oracle, report, arrays = _gate(inst, fam, xi, x0)
    xhat, trace = eng.solve(oracle, x0, mode)
    conclusions = [
        _conclusion_order(inst, fam, xhat, x0),
        _conclusion_strict(inst, fam, xhat, arrays=arrays),
        _distance_conclusion(inst, x0, xhat, lam, False, inst.tol),
    ]
    return Certificate(theorem, xhat, conclusions, report, trace,
                       scalarization=_scalarization_info(xi),
                       premise=premise_info)


def solve_evp_set_direction(inst: FiniteInstance, H: Polytope, gamma, x0,
                            open_family=False, mode="greedy"):
    """Perturbation by a direction polytope scaled by rate*distance.

    With ``open_family`` the order quantifies over all rates below gamma;
    for polyhedral data that is equivalent to the gamma endpoint, which is
    what both the order tests and the certificate evaluate.
    """
    if not gamma > 0:
        raise InputError("gamma must be strictly positive")
    xi = _separating_functional(H, inst.cone, inst.tol)
    cls = OpenPolytopeFamily if open_family else PolytopeDirection
    fam = cls(H, gamma).validate(inst.space, inst.cone, inst.tol)
    oracle, report, arrays = _gate(inst, fam, xi, x0)
    xhat, trace = eng.solve(oracle, x0, mode)
    bounded_by = d_bounded_certificate(inst)
    conclusions = [
        _conclusion_order(inst, fam, xhat, x0),
        _conclusion_strict(inst, fam, xhat, arrays=arrays),
    ]
    notes = (
        "value boundedness: finite value set of "
        f"{bounded_by.vertices.shape[0]} points",
        "lower monotonicity and closed-value hypotheses hold structurally "
        "on finite instances with a polyhedral cone",
    )
    if open_family:
        notes += ("open rate family evaluated at its endpoint; the feasible "
                  "rate set of each membership is a closed interval from 0",)
    return Certificate("4.1" if open_family else "4.2", xhat, conclusions,
                       report, trace,
                       scalarization=_scalarization_info(xi), notes=notes)


def solve_evp_quasimetric(inst: FiniteInstance, H: Polytope, p: QuasiMetric,
                          x0, mode="greedy"):
    """Set-direction perturbation scaled by a quasi-metric pair weight."""
    fam = QuasiMetricDirection(H, p).validate(inst.space, inst.cone, inst.tol)
    xi = _separating_functional(H, inst.cone, inst.tol)
    oracle, report, arrays = _gate(inst, fam, xi, x0)
    xhat, trace = eng.solve(oracle, x0, mode)
    conclusions = [
        _conclusion_order(inst, fam, xhat, x0),
        _conclusion_strict(inst, fam, xhat, arrays=arrays),
    ]
    return Certificate("4.4", xhat, conclusions, report, trace,
                       scalarization=_scalarization_info(xi))


def solve_evp_approx(inst: FiniteInstance, H: Polytope, epsilon, gamma, x0,
                     strict=False, mode="greedy"):
    """Approximate-efficiency premise plus the set-direction solver and the
    distance bound epsilon/gamma (strict when the fixed-rate order is used)."""
    ok, y0 = eps_h_efficient(inst, x0, epsilon, H)
    if not ok:
        raise PremiseError(
            f"{x0!r} is not an approximate-efficiency start: every value of "
            f"f({x0!r}) is covered by f(X) + epsilon*H + cone",
            witness={"x0": x0})
    base = solve_evp_set_direction(inst, H, gamma, x0,
                                   open_family=not strict, mode=mode)
    bound = epsilon / gamma
    conclusions = list(base.conclusions)
    conclusions.append(
        _distance_conclusion(inst, x0, base.xhat, bound, strict, inst.tol))
    return Certificate("4.6" if strict else "4.5", base.xhat, conclusions,
                       base.assumptions, base.trace,
                       scalarization=base.scalarization,
                       premise={"form": "approximate-efficiency",
                                "epsilon": epsilon,
                                "witness_value": y0},
                       notes=base.notes)
