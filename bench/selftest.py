"""Checker self-test: wrong answers must be marked failed.

For each workload, genuine answers from one operation of every kind are
checked first (they must pass), then deliberately wrong variants of them:

* a flipped conclusion;
* a non-minimal x-hat: a label (or graph pair) that evpkit's own order
  places below another one, offered as the answer started from itself;
* a separating functional scaled below 1 on the direction vertices;
* for ``cli-batch``, a nonzero exit code, an extra dominated Pareto point
  and an unsolvable assumption report as well.

    python3 bench/run.py --self-test [--workload NAME] [--seed N]
"""

import copy
import sys

import checker
import evpkit.geometry
import evpkit.instances
import evpkit.product
import numpy as np


def _non_minimal_label(item):
    """A label some other label precedes, by evpkit's relation matrix."""
    b = item.bundle
    fam = b.family
    if item.theorem in ("4.1", "4.2"):
        cls = (evpkit.instances.OpenPolytopeFamily if item.theorem == "4.1"
               else evpkit.instances.PolytopeDirection)
        fam = cls(evpkit.geometry.Polytope(
            item.raw["perturbation"]["vertices"]), b.params.gamma)
    rel = evpkit.instances.relation_matrix(b.instance, fam)
    np.fill_diagonal(rel, False)
    below = np.nonzero(rel.any(axis=0))[0]
    return b.instance.labels[below[0]] if below.size else None


def _non_minimal_pair(item):
    """A graph pair another pair with a different label covers."""
    b = item.bundle
    pi = b.product
    spec = item.raw["perturbation"]
    if item.theorem == "5.6":
        H = evpkit.geometry.singleton(spec["k0"])
        rate = b.params.epsilon / b.params.lam
    else:
        H = evpkit.geometry.Polytope(spec["vertices"])
        rate = b.params.gamma
    fm = evpkit.product.fmap_from_rate(pi.base, H, rate, None)
    for p1 in pi.graph:
        for p2 in pi.graph:
            if p2[0] != p1[0] and evpkit.product.prec_f(pi, fm, p2, p1):
                return p1
    return None


def _below_another(op):
    """The label or graph pair of ``op``'s input that lies below another,
    by evpkit's own order, or None; computed once per operation."""
    if not hasattr(op, "below"):
        command = getattr(op, "command", None)     # None for library ops
        if command not in (None, "solve-evp"):
            op.below = None
        elif op.kind.startswith("5."):
            op.below = _non_minimal_pair(op.item)
        else:
            op.below = _non_minimal_label(op.item)
    return op.below


def _below_one(raw, weights):
    """The functional scaled to 0.9 on its weakest direction vertex."""
    w = np.asarray(weights)
    inst = checker.Instance(raw)
    return (w * 0.9 / float(np.min(checker.direction_vertices(inst) @ w))
            ).tolist()


def _library_mutants(op, answer):
    item = op.item
    out = []
    flipped = copy.deepcopy(answer)
    flipped["holds"][-1][1] = not flipped["holds"][-1][1]
    out.append(("flipped conclusion", item.raw, flipped))
    raw = copy.deepcopy(item.raw)
    moved = copy.deepcopy(answer)
    if item.theorem.startswith("5."):
        pair = _below_another(op)
        if pair is not None:
            raw["params"]["x0"] = pair[0]
            raw["product"]["y0"] = pair[1].tolist()
            moved.update(xhat=pair[0], yhat=pair[1].tolist())
            out.append(("non-minimal pair", raw, moved))
    else:
        label = _below_another(op)
        if label is not None:
            raw["params"]["x0"] = label
            moved["xhat"] = label
            out.append(("non-minimal x-hat", raw, moved))
    if answer.get("weights") is not None:
        scaled = copy.deepcopy(answer)
        scaled["weights"] = _below_one(item.raw, answer["weights"])
        out.append(("functional below 1", item.raw, scaled))
    return [(name, ("library", raw_, item.theorem, ans))
            for name, raw_, ans in out]


def _cli_mutants(op, data):
    _, raw, command, theorem, code, doc = data

    def variant(raw_, code_, doc_):
        return ("cli", raw_, command, theorem, code_, doc_)

    out = [("nonzero exit", variant(raw, 2, doc))]
    payload = doc["reports"][0]["payload"]
    if "certificate" in payload:
        flipped = copy.deepcopy(doc)
        conc = flipped["reports"][0]["payload"]["certificate"]["conclusions"]
        conc[0]["holds"] = not conc[0]["holds"]
        out.append(("flipped conclusion", variant(raw, code, flipped)))
        label = _below_another(op)
        if label is not None:
            moved_raw = copy.deepcopy(raw)
            moved_raw["params"]["x0"] = label
            moved = copy.deepcopy(doc)
            moved["reports"][0]["payload"]["certificate"]["xhat"] = label
            out.append(("non-minimal x-hat", variant(moved_raw, code, moved)))
        weights = payload["certificate"].get("scalarization", {}).get(
            "weights")
        if weights is not None:
            scaled = copy.deepcopy(doc)
            cert = scaled["reports"][0]["payload"]["certificate"]
            cert["scalarization"]["weights"] = _below_one(raw, weights)
            out.append(("functional below 1", variant(raw, code, scaled)))
    if command == "pareto":
        extra = copy.deepcopy(doc)
        minimal = extra["reports"][0]["payload"]["minimal"]
        pts = np.vstack([np.asarray(v) for v in raw["map"].values()])
        dominated = [p.tolist() for p in pts if p.tolist() not in minimal]
        if dominated:
            minimal.append(dominated[0])
            out.append(("dominated Pareto point", variant(raw, code, extra)))
    if command == "check-assumptions":
        unsolvable = copy.deepcopy(doc)
        unsolvable["reports"][0]["payload"]["solvable"] = False
        out.append(("unsolvable gate", variant(raw, code, unsolvable)))
    return out


def run(args, workloads, run_dir):
    names = [args.workload] if args.workload else workloads.WORKLOADS
    ok = True
    for workload in names:
        items = workloads.build(workload, args.seed, run_dir)
        # one operation per kind, on an input where some label (or pair)
        # lies below another one, so that a non-minimal answer exists
        chosen = {}
        for op in workloads.operations(workload, items, run_dir):
            if op.kind not in chosen or (
                    _below_another(chosen[op.kind]) is None and
                    _below_another(op) is not None):
                chosen[op.kind] = op
        caught = total = 0
        for op in chosen.values():
            _, data = op.record(op.run())
            genuine = checker.check_record(data)
            if genuine:
                print(f"{workload} {op.kind}: genuine answer rejected: "
                      f"{genuine}")
                ok = False
            if data[0] == "cli":
                mutants = _cli_mutants(op, data)
            else:
                mutants = _library_mutants(op, data[3])
            for name, bad in mutants:
                total += 1
                problems = checker.check_record(bad)
                caught += bool(problems)
                mark = "caught" if problems else "MISSED"
                print(f"{workload} {op.kind} {name}: {mark} "
                      f"{problems[:1]}")
        ok = ok and caught == total and total > 0
        print(f"{workload}: {caught} of {total} wrong answers caught")
    print("self-test", "passed" if ok else "FAILED", file=sys.stderr)
    return 0 if ok else 1
