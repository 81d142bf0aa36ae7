"""Instance files, random generators, bundled demonstration instances, and
the report type the CLI emits.

Instance files are UTF-8 JSON with schema version ``evpkit/1``. Loading
checks each fact once: ``_check`` walks the document against
``INSTANCE_SPEC`` for its keys and JSON types (no unknown keys, required
keys present, finite numbers that are not booleans, non-empty lists, matrix
rows of one length), then the builders check the values and every
invariant. Either names the field at fault, as in
``$.params.epsilon: expected a number``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError
from .geometry import DEFAULT_TOL, PolyhedralCone, Polytope
from .instances import (EvpParams, ExtensionalFamily, FiniteInstance,
                        MetricSpace, OpenPolytopeFamily, PolytopeDirection,
                        QuasiMetric, QuasiMetricDirection, SetValuedMap,
                        SingletonDirection, check_positive, epi_closed_probe,
                        metric_from_coordinates, slm_probe)
from .product import ProductInstance

SCHEMA_VERSION = "evpkit/1"
TOLERANCE_ENV = "EVPKIT_TOLERANCE"


class _Leaf(NamedTuple):
    """A scalar spec: ``accepts`` tells whether a value fits, ``what`` names
    what fits."""

    accepts: Callable
    what: str


def _number(v):
    """A real, not a boolean, within the float range: RFC 8259 JSON has no
    Infinity or NaN, and a larger integer has no float value."""
    if type(v) is float or isinstance(v, float):
        return math.isfinite(v)
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _positive_integer(v):
    return _number(v) and v >= 1 and (isinstance(v, numbers.Integral)
                                      or float(v).is_integer())


def _one_of(*values):
    return _Leaf(lambda v: isinstance(v, str) and v in values,
                 " or ".join(map(repr, values)))


_NUM = _Leaf(_number, "a number")
_STR = _Leaf(lambda v: isinstance(v, str), "a string")
_VEC = [_NUM]
_MAT = [_VEC]

# A spec is a _Leaf; [item] for a non-empty list of items; a tuple for a
# list of exactly those items; or {key: (required, spec)} for an object with
# no other keys, where the key "*" stands for any key and, if required, asks
# for at least one.
INSTANCE_SPEC = {
    "version": (True, _one_of(SCHEMA_VERSION)),
    "dimension": (True, _Leaf(_positive_integer, "a positive integer")),
    "cone": (True, {"halfspaces": (True, _MAT), "generators": (False, _MAT)}),
    "space": (True, {"labels": (True, [_STR]), "distances": (False, _MAT),
                     "coordinates": (False, _MAT),
                     "metric": (False, _one_of("euclidean"))}),
    "map": (True, {"*": (True, _MAT)}),
    "perturbation": (True, {
        "variant": (True, _one_of("singleton", "polytope", "quasimetric",
                                  "extensional")),
        "k0": (False, _VEC), "vertices": (False, _MAT),
        "gamma": (False, _NUM), "matrix": (False, _MAT),
        "open": (False, _Leaf(lambda v: isinstance(v, bool), "a boolean")),
        "lambdas": (False, [_STR]),
        "table": (False, {"*": (False, {"*": (False, _MAT)})}),
    }),
    "params": (True, {"x0": (True, _STR), "epsilon": (False, _NUM),
                      "lambda": (False, _NUM), "gamma": (False, _NUM),
                      "tolerance": (False, _NUM)}),
    "product": (False, {"graph": (True, [(_STR, _VEC)]), "y0": (True, _VEC)}),
}


class _Fault(Exception):
    """A place where a value breaks its spec: ``text`` says how, and
    ``parts`` gathers the path parts from the inside out as the fault passes
    up through :func:`_walk`."""

    def __init__(self, text, *parts):
        self.text = text
        self.parts = list(parts)


def _check(value, spec):
    """Raise InputError naming the first place where ``value`` breaks
    ``spec``; values are only checked for JSON type and shape here. The
    path is built only when a check fails."""
    try:
        _walk(value, spec)
    except _Fault as fault:
        raise InputError("$" + "".join(reversed(fault.parts))
                         + fault.text) from None


def _walk(value, spec):
    """:func:`_check` without the path: raise a _Fault at the first place
    where ``value`` breaks ``spec``, each level adding its part."""
    if type(spec) is _Leaf:
        if not spec.accepts(value):
            raise _Fault(f": expected {spec.what}")
    elif type(spec) is dict:
        if not isinstance(value, dict):
            raise _Fault(": expected an object")
        if not value and spec.get("*", (False,))[0]:
            raise _Fault(": expected a non-empty object")
        for key, (required, _) in spec.items():
            if required and key != "*" and key not in value:
                raise _Fault(": required but missing", f".{key}")
        for key, item in value.items():
            if key not in spec and "*" not in spec:
                raise _Fault(": unknown key", f".{key}")
            try:
                _walk(item, spec.get(key, spec.get("*"))[1])
            except _Fault as fault:
                fault.parts.append(f".{key}")
                raise
    else:
        exact = type(spec) is tuple
        if not (isinstance(value, list) and value
                and (not exact or len(value) == len(spec))):
            raise _Fault(": expected " + (
                f"a list of {len(spec)} items" if exact
                else "a non-empty list"))
        if not exact and type(spec[0]) is _Leaf:
            # a list of scalars, such as a _VEC row: one loop, no recursion
            accepts = spec[0].accepts
            for i, item in enumerate(value):
                if not accepts(item):
                    raise _Fault(f": expected {spec[0].what}", f"[{i}]")
            return
        rows = not exact and type(spec[0]) is list
        for i, item in enumerate(value):
            try:
                _walk(item, spec[i] if exact else spec[0])
            except _Fault as fault:
                fault.parts.append(f"[{i}]")
                raise
            if rows and len(item) != len(value[0]):
                raise _Fault(f": expected a list of {len(value[0])} items",
                             f"[{i}]")


@dataclass
class InstanceBundle:
    """Everything a solver needs, parsed and invariant-checked."""

    raw: dict
    instance: FiniteInstance
    family: object
    params: EvpParams
    product: ProductInstance | None = None

    @property
    def tol(self):
        return self.instance.tol


def default_tolerance():
    env = os.environ.get(TOLERANCE_ENV)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            raise InputError(f"{TOLERANCE_ENV} is not a number: {env!r}")
        check_positive(TOLERANCE_ENV, value)
        return value
    return DEFAULT_TOL


def _build_space(spec):
    labels = tuple(spec["labels"])
    if "distances" in spec:
        if "coordinates" in spec:
            raise InputError("space: give distances or coordinates, not both")
        return MetricSpace(labels, spec["distances"])
    if "coordinates" in spec:
        return metric_from_coordinates(labels, spec["coordinates"])
    raise InputError("space needs a distance matrix or coordinates")


def _require(spec, *groups):
    """Raise for the first group of perturbation keys missing from spec."""
    for keys in groups:
        if any(key not in spec for key in keys):
            names = " and ".join(f"perturbation.{key}" for key in keys)
            raise InputError(f"{names} {'is' if len(keys) == 1 else 'are'} "
                             f"required for {spec['variant']!r}")


def _build_family(spec, space, cone_, tol):
    variant = spec["variant"]
    if variant == "singleton":
        _require(spec, ["k0"], ["gamma"])
        fam = SingletonDirection(spec["k0"], spec["gamma"])
    elif variant == "polytope":
        _require(spec, ["vertices"], ["gamma"])
        cls = OpenPolytopeFamily if spec.get("open") else PolytopeDirection
        fam = cls(Polytope(spec["vertices"]), spec["gamma"])
    elif variant == "quasimetric":
        _require(spec, ["vertices", "matrix"])
        fam = QuasiMetricDirection(Polytope(spec["vertices"]),
                                   QuasiMetric(spec["matrix"]))
    else:  # extensional; INSTANCE_SPEC admits no other variant
        _require(spec, ["lambdas", "table"])
        unlisted = [lam for lam in spec["table"]
                    if lam not in spec["lambdas"]]
        if unlisted:
            raise InputError(f"perturbation.table index {unlisted[0]!r} is "
                             "not listed in perturbation.lambdas")
        table = {}
        for lam in spec["lambdas"]:
            rows = spec["table"].get(lam)
            if rows is None:
                raise InputError(f"perturbation.table is missing index {lam!r}")
            for key, vertices in rows.items():
                parts = key.split("|")
                if len(parts) != 2:
                    raise InputError(
                        f"perturbation.table key {key!r} is not 'x2|x1'")
                x2, x1 = parts
                for x in (x2, x1):
                    if x not in space.labels:
                        raise InputError(
                            f"perturbation.table references unknown label {x!r}")
                table[(lam, x2, x1)] = Polytope(vertices)
        fam = ExtensionalFamily(space.labels, tuple(spec["lambdas"]), table)
    return fam.validate(space, cone_, tol)


def load_validate(source):
    """Load an instance from a path, JSON text, or dict; check everything.

    A string is JSON text when its first non-blank character is ``{`` or
    ``[``, and a path otherwise; any other source is an InputError.

    Raises InputError naming the failing field; returns an InstanceBundle.
    """
    if isinstance(source, dict):
        data = source
    elif not isinstance(source, (str, os.PathLike)):
        raise InputError("instance source must be a path, JSON text or an "
                         f"object, got {type(source).__name__}")
    else:
        text = source
        if isinstance(source, os.PathLike) or not source.lstrip().startswith(
                ("{", "[")):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                raise InputError(f"instance file not found: {source}") \
                    from None
            except (OSError, UnicodeDecodeError) as e:
                raise InputError(
                    f"cannot read instance file {source}: {e}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise InputError(f"not valid JSON: {e}") from None
    _check(data, INSTANCE_SPEC)

    params_spec = data["params"]
    params = EvpParams(
        x0=params_spec["x0"], epsilon=params_spec.get("epsilon"),
        lam=params_spec.get("lambda"), gamma=params_spec.get("gamma"),
        tolerance=(params_spec["tolerance"] if "tolerance" in params_spec
                   else default_tolerance()))
    tol = params.tolerance

    cone_ = PolyhedralCone(data["cone"]["halfspaces"],
                           data["cone"].get("generators"))
    if cone_.dim != data["dimension"]:
        raise InputError("cone.halfspaces: dimension mismatch with 'dimension'")
    cone_.validate(tol)

    space = _build_space(data["space"]).validate(tol)

    inst = FiniteInstance(space, SetValuedMap(data["map"]), cone_, tol)
    family = _build_family(data["perturbation"], space, cone_, tol)

    x0 = params.x0
    if x0 not in space.labels:
        raise InputError(f"params.x0: unknown label {x0!r}")

    product = None
    if "product" in data:
        pspec = data["product"]
        product = ProductInstance(pspec["graph"], space, (x0, pspec["y0"]),
                                  cone_, tol)
    return InstanceBundle(raw=data, instance=inst, family=family,
                          params=params, product=product)


# ---------------------------------------------------------------------------
# Deterministic random instances.
# ---------------------------------------------------------------------------

VARIANTS = ("singleton", "polytope", "open_polytope", "quasimetric",
            "extensional")
# generate gives up on a point after this many redraws; at 4000 points the
# worst one needs a few thousand
_MAX_REDRAWS = 100_000
# generated points are drawn at least this far apart
_SPACING = 0.05


def _place(rng, n):
    """``n`` points of the generator's square, rounded to 6 digits, each
    redrawn until it lies at least ``_SPACING`` from the points before it.

    A candidate is measured only against the points placed in the 5 x 5
    cells of side ``_SPACING`` around its own. A point within ``_SPACING``
    of it lies at most one cell away, and one more cell covers any rounding
    of the cell index, so the test decides as one against every point
    would: the same redraws, and the same points."""
    coords = np.round(rng.uniform(0.0, 4.0, size=(n, 2)), 6)
    near = {}       # cell -> the points placed in the 5 x 5 cells around it

    def cell(i):
        x, y = coords[i].tolist()
        return int(x // _SPACING), int(y // _SPACING)

    for i in range(n):
        redraws = 0
        while (close := near.get(cell(i))) and np.min(np.linalg.norm(
                coords[close] - coords[i], axis=1)) < _SPACING:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise InputError(f"cannot place {n} points 0.05 apart in "
                                 "the generator's square; ask for fewer")
            coords[i] = np.round(rng.uniform(0.0, 4.0, size=2), 6)
        cx, cy = cell(i)
        for a in range(cx - 2, cx + 3):
            for b in range(cy - 2, cy + 3):
                near.setdefault((a, b), []).append(i)
    return coords


def generate(seed, n=4, m=2, values_per_point=2, variant="singleton"):
    """Deterministic instance dict for a seed and profile.

    Distances come from a planar embedding, so the metric axioms hold by
    construction; emitted instances pass load_validate, which callers run
    (it is not repeated here). The points are drawn at least 0.05 apart;
    when one point needs more than ``_MAX_REDRAWS`` redraws, generation
    stops with an InputError.
    """
    if n < 1 or m < 1 or values_per_point < 1:
        raise InputError("n, m and values_per_point must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r} (choose from {VARIANTS})")
    rng = np.random.default_rng(seed)
    labels = [f"p{i}" for i in range(n)]
    # keep points apart so the metric positivity margin is comfortable
    coords = _place(rng, n)

    value_sets = {
        lab: np.round(rng.uniform(-2.0, 2.0, size=(values_per_point, m)), 6)
        for lab in labels
    }
    gamma = round(float(rng.uniform(0.25, 1.5)), 6)
    k0 = np.round(rng.uniform(0.5, 1.5, size=m), 6)

    perturbation = {"variant": "singleton", "k0": k0.tolist(), "gamma": gamma}
    if variant in ("polytope", "open_polytope"):
        nv = int(rng.integers(2, 4))
        vertices = np.round(rng.uniform(0.2, 1.5, size=(nv, m)), 6)
        perturbation = {"variant": "polytope", "vertices": vertices.tolist(),
                        "gamma": gamma, "open": variant == "open_polytope"}
    elif variant == "quasimetric":
        nv = int(rng.integers(1, 3))
        vertices = np.round(rng.uniform(0.2, 1.5, size=(nv, m)), 6)
        dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        phi = rng.uniform(0.0, 1.0, size=n)
        # positive-part potential differences keep the directed triangle
        # inequality exact; no rounding, or it breaks at the tolerance
        p = dist + np.maximum(phi[None, :] - phi[:, None], 0.0)
        perturbation = {"variant": "quasimetric",
                        "vertices": vertices.tolist(),
                        "matrix": p.tolist()}
    elif variant == "extensional":
        vertices = np.round(rng.uniform(0.2, 1.5, size=(2, m)), 6)
        dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        offsets = {"L0": 0.1, "L1": round(float(rng.uniform(0.2, 0.5)), 6)}
        table = {}
        for lam, c in offsets.items():
            rows = {}
            for i, x2 in enumerate(labels):
                for j, x1 in enumerate(labels):
                    if i == j:
                        # zero diagonal keeps the induced order reflexive
                        rows[f"{x2}|{x1}"] = [[0.0] * m]
                        continue
                    scale = gamma * dist[i, j] + c
                    rows[f"{x2}|{x1}"] = np.round(scale * vertices, 6).tolist()
            table[lam] = rows
        perturbation = {"variant": "extensional",
                        "lambdas": list(offsets), "table": table}

    data = {
        "version": SCHEMA_VERSION,
        "dimension": m,
        "cone": {"halfspaces": np.eye(m).tolist(),
                 "generators": np.eye(m).tolist()},
        "space": {"labels": labels, "coordinates": coords.tolist(),
                  "metric": "euclidean"},
        "map": {lab: v.tolist() for lab, v in value_sets.items()},
        "perturbation": perturbation,
        "params": {"x0": labels[0],
                   "epsilon": round(float(rng.uniform(0.3, 1.0)), 6),
                   "lambda": round(float(rng.uniform(1.0, 3.0)), 6),
                   "gamma": gamma},
    }
    graph = []
    for lab in labels:
        for v in value_sets[lab]:
            graph.append([lab, v.tolist()])
    data["product"] = {"graph": graph,
                       "y0": value_sets[labels[0]][0].tolist()}
    return data


# ---------------------------------------------------------------------------
# Bundled demonstration instances.
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("example41", "chain", "antichain", "pareto-demo")


def builtin(name, samples=8):
    """Hand-built instances exercising specific behaviors.

    ``example41`` samples the scalar map that is sequentially lower monotone
    while its cone-epigraph fails to be closed: the chain sits at -1/k with
    the limit point at 0, where the value jumps to 1 + cone.
    """
    if name == "example41":
        if samples < 2:
            raise InputError("example41 needs at least 2 samples")
        labels = [f"s{k}" for k in range(1, samples + 1)] + ["lim"]
        xs = [-1.0 / k for k in range(1, samples + 1)] + [0.0]
        data = {
            "version": SCHEMA_VERSION,
            "dimension": 1,
            "cone": {"halfspaces": [[1.0]], "generators": [[1.0]]},
            "space": {"labels": labels, "coordinates": [[x] for x in xs],
                      "metric": "euclidean"},
            "map": {lab: [[x]] for lab, x in zip(labels[:-1], xs[:-1])}
                   | {"lim": [[1.0]]},
            "perturbation": {"variant": "singleton", "k0": [1.0],
                             "gamma": 1.0},
            "params": {"x0": labels[0], "epsilon": 0.5, "lambda": 2.0},
        }
    elif name == "chain":
        data = {
            "version": SCHEMA_VERSION,
            "dimension": 1,
            "cone": {"halfspaces": [[1.0]], "generators": [[1.0]]},
            "space": {"labels": ["a", "b", "c"],
                      "coordinates": [[0.0], [1.0], [2.0]],
                      "metric": "euclidean"},
            "map": {"a": [[2.0]], "b": [[1.0]], "c": [[0.0]]},
            "perturbation": {"variant": "singleton", "k0": [1.0],
                             "gamma": 0.25},
            "params": {"x0": "a", "epsilon": 3.0, "lambda": 12.0},
            "product": {"graph": [["a", [2.0]], ["b", [1.0]], ["c", [0.0]]],
                        "y0": [2.0]},
        }
    elif name == "antichain":
        data = {
            "version": SCHEMA_VERSION,
            "dimension": 2,
            "cone": {"halfspaces": [[1.0, 0.0], [0.0, 1.0]],
                     "generators": [[1.0, 0.0], [0.0, 1.0]]},
            "space": {"labels": ["a", "b", "c"],
                      "coordinates": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                      "metric": "euclidean"},
            "map": {"a": [[0.0, 3.0]], "b": [[3.0, 0.0]], "c": [[2.0, 2.0]]},
            "perturbation": {"variant": "singleton", "k0": [1.0, 1.0],
                             "gamma": 1.0},
            "params": {"x0": "a", "epsilon": 1.0, "lambda": 1.0},
        }
    elif name == "pareto-demo":
        data = {
            "version": SCHEMA_VERSION,
            "dimension": 2,
            "cone": {"halfspaces": [[1.0, 0.0], [0.0, 1.0]],
                     "generators": [[1.0, 0.0], [0.0, 1.0]]},
            "space": {"labels": ["a", "b", "c"],
                      "coordinates": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                      "metric": "euclidean"},
            "map": {"a": [[0.0, 1.0], [1.0, 1.0]], "b": [[1.0, 0.0]],
                    "c": [[0.5, 0.5]]},
            "perturbation": {"variant": "polytope",
                             "vertices": [[1.0, 0.0], [0.0, 1.0]],
                             "gamma": 1.0},
            "params": {"x0": "a", "epsilon": 0.25, "lambda": 1.0,
                       "gamma": 1.0},
            "product": {"graph": [["a", [0.0, 1.0]], ["a", [1.0, 1.0]],
                                  ["b", [1.0, 0.0]], ["c", [0.5, 0.5]]],
                        "y0": [1.0, 1.0]},
        }
    else:
        raise InputError(f"unknown builtin {name!r} "
                         f"(choose from {BUILTIN_NAMES})")
    return data


def example41_probes(bundle: InstanceBundle):
    """Run both probes on the sampled chain of the example41 instance."""
    labels = list(bundle.instance.labels)
    if labels[-1] != "lim":
        raise InputError("not an example41 instance")
    chain = labels[:-1]
    fmap = bundle.instance.fmap
    C = bundle.instance.cone
    tol = bundle.tol
    slm = slm_probe(fmap, chain, "lim", C, tol)
    pairs = [(x, fmap.at(x)[0]) for x in chain]
    epi = epi_closed_probe(pairs, ("lim", np.zeros(1)), fmap, C, tol)
    return {"slm": bool(slm), "epi_closed": bool(epi)}


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """One CLI action's outcome: machine block plus human rendering."""

    command: str
    status: str
    exit_code: int
    instance: str | None = None
    theorem: str | None = None
    payload: dict = field(default_factory=dict)
    timing_s: float = 0.0
    tolerance: float = DEFAULT_TOL

    def to_dict(self):
        return {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "instance": self.instance,
            "theorem": self.theorem,
            "payload": self.payload,
            "timing_s": self.timing_s,
            "tolerance": self.tolerance,
        }


def render(report: Report):
    """Human-readable rendering of a report."""
    head = report.command
    if report.theorem:
        head += f" [{report.theorem}]"
    if report.instance:
        head += f" {report.instance}"
    lines = [f"{head}: {report.status} ({report.timing_s:.3f} s)"]
    payload = report.payload
    if "error" in payload:
        lines.append(f"  error: {payload['error']}")
        if payload.get("witness"):
            lines.append(f"  witness: {payload['witness']}")
    cert = payload.get("certificate")
    if cert:
        target = f"  terminal point: {cert['xhat']}"
        if cert.get("yhat") is not None:
            target += f" with value {cert['yhat']}"
        lines.append(target)
        for c in cert["conclusions"]:
            mark = "PASS" if c["holds"] else "FAIL"
            lines.append(f"  conclusion ({c['name']}): {mark}")
        assumptions = cert.get("assumptions") or {}
        flags = {k: v for k, v in assumptions.items()
                 if isinstance(v, (bool, int, float)) or v is None}
        if flags:
            rendered = ", ".join(f"{k}={v}" for k, v in flags.items())
            lines.append(f"  assumptions: {rendered}")
    if "assumptions" in payload and "certificate" not in payload:
        for k, v in payload["assumptions"].items():
            lines.append(f"  {k}: {v}")
    if "minimal" in payload:
        lines.append(f"  minimal points ({len(payload['minimal'])}):")
        for p in payload["minimal"]:
            lines.append(f"    {p}")
    if "value" in payload:
        lines.append(f"  value: {payload['value']}"
                     f" (oracle: {payload.get('oracle')})")
    if "probes" in payload:
        for k, v in payload["probes"].items():
            lines.append(f"  probe {k}: {v}")
    if "written" in payload:
        lines.append(f"  wrote {payload['written']}")
    return "\n".join(lines)
