"""Instance files, random generators, bundled demonstration instances, and
the report type the CLI emits.

Instance files are UTF-8 JSON with schema version ``evpkit/1``. Structural
validation goes through jsonschema; every module-level invariant is then
re-checked on load, with errors naming the offending field.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
from jsonschema import Draft202012Validator

from .errors import InputError
from .geometry import DEFAULT_TOL, PolyhedralCone, Polytope
from .instances import (EvpParams, ExtensionalFamily, FiniteInstance,
                        MetricSpace, OpenPolytopeFamily, PolytopeDirection,
                        QuasiMetric, QuasiMetricDirection, SetValuedMap,
                        SingletonDirection, epi_closed_probe,
                        metric_from_coordinates, slm_probe)
from .product import ProductInstance

SCHEMA_VERSION = "evpkit/1"
TOLERANCE_ENV = "EVPKIT_TOLERANCE"

_NUM = {"type": "number"}
_VEC = {"type": "array", "items": _NUM, "minItems": 1}
_MAT = {"type": "array", "items": _VEC, "minItems": 1}

INSTANCE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "dimension", "cone", "space", "map",
                 "perturbation", "params"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "dimension": {"type": "integer", "minimum": 1},
        "cone": {
            "type": "object",
            "required": ["halfspaces"],
            "additionalProperties": False,
            "properties": {"halfspaces": _MAT, "generators": _MAT},
        },
        "space": {
            "type": "object",
            "required": ["labels"],
            "additionalProperties": False,
            "properties": {
                "labels": {"type": "array", "items": {"type": "string"},
                           "minItems": 1},
                "distances": _MAT,
                "coordinates": _MAT,
                "metric": {"const": "euclidean"},
            },
        },
        "map": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": _MAT,
        },
        "perturbation": {
            "type": "object",
            "required": ["variant"],
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["singleton", "polytope", "quasimetric",
                                     "extensional"]},
                "k0": _VEC,
                "vertices": _MAT,
                "gamma": _NUM,
                "open": {"type": "boolean"},
                "matrix": _MAT,
                "lambdas": {"type": "array", "items": {"type": "string"},
                            "minItems": 1},
                "table": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object", "additionalProperties": _MAT},
                },
            },
        },
        "params": {
            "type": "object",
            "required": ["x0"],
            "additionalProperties": False,
            "properties": {
                "x0": {"type": "string"},
                "epsilon": _NUM,
                "lambda": _NUM,
                "gamma": _NUM,
                "tolerance": _NUM,
            },
        },
        "product": {
            "type": "object",
            "required": ["graph", "y0"],
            "additionalProperties": False,
            "properties": {
                "graph": {
                    "type": "array", "minItems": 1,
                    "items": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "prefixItems": [{"type": "string"}, _VEC],
                    },
                },
                "y0": _VEC,
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(INSTANCE_SCHEMA)


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
        if not value > 0:
            raise InputError(f"{TOLERANCE_ENV} must be positive")
        return value
    return DEFAULT_TOL


def _schema_check(data):
    errors = sorted(_VALIDATOR.iter_errors(data), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise InputError(f"schema violation at {e.json_path}: {e.message}")


def _build_space(spec):
    labels = tuple(spec["labels"])
    if "distances" in spec:
        if "coordinates" in spec:
            raise InputError("space: give distances or coordinates, not both")
        return MetricSpace(labels, spec["distances"])
    if "coordinates" in spec:
        if spec.get("metric", "euclidean") != "euclidean":
            raise InputError("space.metric: only 'euclidean' is supported")
        return metric_from_coordinates(labels, spec["coordinates"])
    raise InputError("space needs a distance matrix or coordinates")


def _build_family(spec, space, cone_, tol):
    variant = spec["variant"]
    if variant == "singleton":
        if "k0" not in spec:
            raise InputError("perturbation.k0 is required for 'singleton'")
        gamma = spec.get("gamma")
        if gamma is None:
            raise InputError("perturbation.gamma is required for 'singleton'")
        fam = SingletonDirection(spec["k0"], gamma)
    elif variant == "polytope":
        if "vertices" not in spec:
            raise InputError("perturbation.vertices is required for 'polytope'")
        gamma = spec.get("gamma")
        if gamma is None:
            raise InputError("perturbation.gamma is required for 'polytope'")
        cls = OpenPolytopeFamily if spec.get("open") else PolytopeDirection
        fam = cls(Polytope(spec["vertices"]), gamma)
    elif variant == "quasimetric":
        if "vertices" not in spec or "matrix" not in spec:
            raise InputError("perturbation.vertices and perturbation.matrix "
                             "are required for 'quasimetric'")
        fam = QuasiMetricDirection(Polytope(spec["vertices"]),
                                   QuasiMetric(spec["matrix"]))
    elif variant == "extensional":
        if "lambdas" not in spec or "table" not in spec:
            raise InputError("perturbation.lambdas and perturbation.table "
                             "are required for 'extensional'")
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
        fam = ExtensionalFamily(tuple(spec["lambdas"]), table)
    else:  # unreachable given the schema
        raise InputError(f"unknown perturbation variant {variant!r}")
    return fam.validate(space, cone_, tol)


def load_validate(source):
    """Load an instance from a path, JSON text, or dict; check everything.

    A string is JSON text when its first non-blank character is ``{``, and
    a path otherwise.

    Raises InputError naming the failing field; returns an InstanceBundle.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if isinstance(source, os.PathLike) or (
                isinstance(source, str)
                and not source.lstrip().startswith("{")):
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
    _schema_check(data)

    m = data["dimension"]
    params_spec = data["params"]
    tol = params_spec.get("tolerance", default_tolerance())
    if not tol > 0:
        raise InputError("params.tolerance must be strictly positive")

    cone_ = PolyhedralCone(data["cone"]["halfspaces"],
                           data["cone"].get("generators"))
    if cone_.dim != m:
        raise InputError("cone.halfspaces: dimension mismatch with 'dimension'")
    cone_.validate(tol)

    space = _build_space(data["space"]).validate(tol)

    fmap_spec = data["map"]
    missing = [x for x in space.labels if x not in fmap_spec]
    if missing:
        raise InputError(f"map: labels without value sets: {missing}")
    extra = [x for x in fmap_spec if x not in space.labels]
    if extra:
        raise InputError(f"map: value sets for unknown labels: {extra}")
    fmap = SetValuedMap(fmap_spec)
    if fmap.dim != m:
        raise InputError("map: value dimension mismatch with 'dimension'")

    inst = FiniteInstance(space, fmap, cone_, tol)
    family = _build_family(data["perturbation"], space, cone_, tol)

    x0 = params_spec["x0"]
    if x0 not in space.labels:
        raise InputError(f"params.x0: unknown label {x0!r}")
    params = EvpParams(x0=x0, epsilon=params_spec.get("epsilon"),
                       lam=params_spec.get("lambda"),
                       gamma=params_spec.get("gamma"), tolerance=tol)

    product = None
    if "product" in data:
        pspec = data["product"]
        graph = tuple((x, np.asarray(y, dtype=float))
                      for x, y in pspec["graph"])
        y0 = np.asarray(pspec["y0"], dtype=float)
        product = ProductInstance(graph, space, (x0, y0), cone_, tol)
    return InstanceBundle(raw=data, instance=inst, family=family,
                          params=params, product=product)


def emit(bundle: InstanceBundle):
    """Canonical plain-JSON form of a bundle (round-trips through load)."""
    return json.loads(json.dumps(bundle.raw))


# ---------------------------------------------------------------------------
# Deterministic random instances.
# ---------------------------------------------------------------------------

VARIANTS = ("singleton", "polytope", "open_polytope", "quasimetric",
            "extensional")


def generate(seed, n=4, m=2, values_per_point=2, variant="singleton",
             include_product=True):
    """Deterministic instance dict for a seed and profile.

    Distances come from a planar embedding, so the metric axioms hold by
    construction; emitted instances pass load_validate, which callers run
    (it is not repeated here).
    """
    if n < 1 or m < 1 or values_per_point < 1:
        raise InputError("n, m and values_per_point must be at least 1")
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r} (choose from {VARIANTS})")
    rng = np.random.default_rng(seed)
    labels = [f"p{i}" for i in range(n)]
    coords = np.round(rng.uniform(0.0, 4.0, size=(n, 2)), 6)
    # keep points apart so the metric positivity margin is comfortable
    for i in range(1, n):
        while np.min(np.linalg.norm(coords[:i] - coords[i], axis=1)) < 0.05:
            coords[i] = np.round(rng.uniform(0.0, 4.0, size=2), 6)

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
    if include_product:
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

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


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
