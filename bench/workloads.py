"""The four workloads: seeded inputs, the timed operation, and the answer
each operation hands to the checker.

Inputs are made with ``evpkit.io.generate`` from instance seeds derived from
the benchmark seed and loaded with ``evpkit.io.load_validate``. Every call
into evpkit goes through the module attribute (``evpkit.solvers.solve_...``)
so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import json
import os

import evpkit.cli
import evpkit.geometry
import evpkit.io
import evpkit.product
import evpkit.solvers
import numpy as np

WORKLOADS = ("evp-scaled", "extensional-lp", "graph-minimal", "cli-batch")

M = 3
VALUES = 4
CLI_FILES = 100
CLI_VALUES = 2
PREMISE_MARGIN = 1e-6
MAX_CANDIDATES = 200

# The cost of an order test grows with n and with the number of direction
# vertices, so a slot fixes both: (theorem, variant, n, vertex count or None
# where the variant fixes it).
_POLYTOPE_KINDS = (("3.1", "polytope"), ("3.1", "open_polytope"),
                   ("3.1", "quasimetric"), ("4.2", "polytope"),
                   ("4.1", "open_polytope"), ("4.4", "quasimetric"))

# evp-scaled: 8 one-vertex instances at n = 16, 24 two-vertex ones at
# n = 16 (the median falls in their middle), and 8 at n = 24
EVP_SLOTS = (
    (("3.1", "singleton", 16, None),) * 4
    + (("3.1", "quasimetric", 16, 1),) * 2 + (("4.4", "quasimetric", 16, 1),) * 2
    + tuple((th, var, 16, 2) for th, var in _POLYTOPE_KINDS for _ in range(4))
    + (("3.1", "singleton", 24, None),)
    + tuple((th, var, 24, 2) for th, var in _POLYTOPE_KINDS)
    + (("4.2", "polytope", 24, 3),)
)

# extensional-lp: 18, 24 and 12 instances at n = 6, 7 and 8
EXT_SLOTS = tuple(("3.1", "extensional", n, None)
                  for n in (6,) * 18 + (7,) * 24 + (8,) * 12)

# graph-minimal: 34 instances at n = 8 and 17 at n = 16, pair maps over
# 2-vertex direction sets; the median falls among the n = 8 pair maps
GRAPH_SLOTS = tuple(
    (th, "polytope", 8, 2) for th in ("5.1", "5.2") for _ in range(11)
) + (("5.6", "singleton", 8, None),) * 12 + tuple(
    (th, "polytope", 16, 2) for th in ("5.1", "5.2") for _ in range(7)
) + (("5.6", "singleton", 16, None),) * 3

CLI_COMMANDS = (
    ("validate", ()),
    ("solve-evp", ("--theorem", "3.1")),
    ("check-assumptions", ()),
    ("pareto", ()),
    ("solve-minimal-point", ("--theorem", "5.1")),
)


def instance_seed(seed, slot, candidate):
    return seed * 1_000_000 + slot * 1_000 + candidate


def _vertex_count(raw):
    spec = raw["perturbation"]
    return len(spec["vertices"]) if "vertices" in spec else 1


def escape_premise(raw):
    """Premise of 5.6, checked on the raw data without evpkit: the start
    value escapes every graph value plus epsilon*k0 plus the cone by more
    than PREMISE_MARGIN on some cone row."""
    A = np.asarray(raw["cone"]["halfspaces"], dtype=float)
    k0 = np.asarray(raw["perturbation"]["k0"], dtype=float)
    eps = raw["params"]["epsilon"]
    y0 = np.asarray(raw["product"]["y0"], dtype=float)
    values = np.asarray([y for _, y in raw["product"]["graph"]], dtype=float)
    slack = (y0 - values - eps * k0) @ A.T       # one row per graph value
    return bool(np.all(slack.min(axis=1) < -PREMISE_MARGIN))


class Item:
    """One input of the pool: the generated document and its bundle."""

    def __init__(self, theorem, raw, bundle, path=None):
        self.theorem = theorem
        self.raw = raw
        self.bundle = bundle
        self.path = path
        self.n = len(raw["space"]["labels"])


def _admit(slots, seed):
    items = []
    for slot, (theorem, variant, n, nv) in enumerate(slots):
        for cand in range(MAX_CANDIDATES):
            raw = evpkit.io.generate(instance_seed(seed, slot, cand), n=n, m=M,
                                     values_per_point=VALUES, variant=variant)
            if nv is not None and _vertex_count(raw) != nv:
                continue
            if theorem == "5.6" and not escape_premise(raw):
                continue
            break
        else:
            raise RuntimeError(f"no admissible input for slot {slot}")
        items.append(Item(theorem, raw, evpkit.io.load_validate(raw)))
    return items


def _cli_files(seed, directory):
    items = []
    for i in range(CLI_FILES):
        variant = evpkit.io.VARIANTS[(i // 5) % 5]
        n = 2 + i % 5
        m = 1 + (i + i // 25) % 3
        raw = evpkit.io.generate(instance_seed(seed, i, 0), n=n, m=m,
                                 values_per_point=CLI_VALUES, variant=variant)
        path = os.path.join(directory, f"in-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        items.append(Item(None, raw, evpkit.io.load_validate(path), path))
    return items


def build(workload, seed, directory):
    """The workload's inputs; ``directory`` receives any files it writes."""
    if workload == "evp-scaled":
        return _admit(EVP_SLOTS, seed)
    if workload == "extensional-lp":
        return _admit(EXT_SLOTS, seed)
    if workload == "graph-minimal":
        return _admit(GRAPH_SLOTS, seed)
    if workload == "cli-batch":
        return _cli_files(seed, directory)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------

def _pooled_directions(bundle):
    """Direction vertices for the separating functional, pooled over the
    family sets of distinct label pairs as ``solve-evp --theorem 3.1``
    does."""
    spec = bundle.raw["perturbation"]
    if spec["variant"] == "singleton":
        return evpkit.geometry.singleton(spec["k0"])
    if "vertices" in spec:
        return evpkit.geometry.Polytope(spec["vertices"])
    space = bundle.instance.space
    rows = []
    for x2 in space.labels:
        for x1 in space.labels:
            if x1 != x2:
                for _, scale, H in bundle.family.sets(space, x2, x1):
                    rows.extend((scale * H.vertices).tolist())
    return evpkit.geometry.Polytope(rows)


def _solve_evp(item):
    b = item.bundle
    inst = b.instance
    x0 = b.params.x0
    if item.theorem == "3.1":
        H = _pooled_directions(b)
        xi = evpkit.geometry.strictly_positive_functional(H, inst.cone,
                                                          inst.tol)
        if xi is None:
            raise RuntimeError("no separating functional")
        return evpkit.solvers.solve_evp_general(inst, b.family, xi, x0)
    H = evpkit.geometry.Polytope(item.raw["perturbation"]["vertices"])
    if item.theorem in ("4.1", "4.2"):
        return evpkit.solvers.solve_evp_set_direction(
            inst, H, b.params.gamma, x0, open_family=item.theorem == "4.1")
    return evpkit.solvers.solve_evp_quasimetric(inst, H, b.family.p, x0)


def _solve_graph(item):
    b = item.bundle
    pi = b.product
    spec = item.raw["perturbation"]
    if item.theorem == "5.6":
        return evpkit.product.solve_pareto_evp(pi, spec["k0"],
                                               b.params.epsilon, b.params.lam)
    H = evpkit.geometry.Polytope(spec["vertices"])
    xi = evpkit.geometry.strictly_positive_functional(H, pi.cone, pi.tol)
    if xi is None:
        raise RuntimeError("no separating functional")
    fm = evpkit.product.fmap_from_rate(pi.base, H, b.params.gamma, xi)
    if item.theorem == "5.1":
        return evpkit.product.solve_minimal_point(pi, fm)
    return evpkit.product.solve_strict_minimal(pi, fm)


def answer_of(cert):
    """The parts of a certificate the checker verifies."""
    answer = {"xhat": cert.xhat,
              "holds": [[c.name, bool(c.holds)] for c in cert.conclusions]}
    if getattr(cert, "yhat", None) is not None:
        answer["yhat"] = [float(v) for v in cert.yhat]
    weights = getattr(cert, "scalarization", {}).get("weights")
    if weights is not None:
        answer["weights"] = [float(v) for v in weights]
    return answer


class LibraryOp:
    """A loaded instance taken to a certified answer."""

    def __init__(self, index, item, solve):
        self.index = index
        self.item = item
        self.solve = solve
        self.kind = f"{item.theorem}/n{item.n}"

    def run(self):
        return self.solve(self.item)

    def record(self, cert):
        """``(key, check data)`` for the answer; the key identifies it."""
        answer = answer_of(cert)
        key = json.dumps([self.index, answer], sort_keys=True)
        return key, ("library", self.item.raw, self.item.theorem, answer)


def strip_timing(doc):
    for rep in doc.get("reports", []):
        rep.pop("timing_s", None)
    return doc


class CliOp:
    """One ``run_command`` call on one file, plus rendering its reports."""

    def __init__(self, index, item, command, options, out_path):
        self.index = index
        self.item = item
        self.command = command
        self.out_path = out_path
        self.argv = [command, *options, item.path, "--out", out_path]
        self.theorem = options[1] if options else None
        self.kind = command

    def run(self):
        code, reports = evpkit.cli.run_command(self.argv)
        for report in reports:
            evpkit.io.render(report)
        return code

    def record(self, code):
        with open(self.out_path, encoding="utf-8") as fh:
            doc = strip_timing(json.load(fh))
        key = json.dumps([self.index, code, doc], sort_keys=True)
        return key, ("cli", self.item.raw, self.command, self.theorem, code,
                     doc)


def operations(workload, items, directory):
    """The operations of one round, in order."""
    if workload == "cli-batch":
        ops = []
        for i, item in enumerate(items):
            for command, options in CLI_COMMANDS:
                if command == "solve-minimal-point" and \
                        item.raw["perturbation"]["variant"] == "extensional":
                    continue    # no direction set to build the pair map from
                out = os.path.join(directory, f"out-{i:03d}-{command}.json")
                ops.append(CliOp(len(ops), item, command, options, out))
        return ops
    solve = _solve_graph if workload == "graph-minimal" else _solve_evp
    return [LibraryOp(i, item, solve) for i, item in enumerate(items)]
