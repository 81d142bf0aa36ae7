"""Answer checker that shares no code with evpkit.

It reads the raw instance JSON and decides every membership it needs with
scipy's HiGHS ``linprog``: ``y`` lies in ``b + s*conv(V) + C`` exactly when
the largest margin

    t*(y, b, s, V) = max { t : A (y - b - s V^T w) >= t, w >= 0, sum w = 1 }

is nonnegative, where ``C = {z : A z >= 0}``. All margins a check needs are
solved as one block-diagonal LP (the blocks share no variable, so maximizing
the sum of the margins maximizes each one). A margin within ``BAND`` of zero
is on the boundary at the LP's precision and is accepted either way; every
other membership has to agree with the answer under test.

Each ``check_*`` function returns a list of problems; an empty list means
the answer is verified.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

BAND = 1e-7          # membership margins within this of 0 count as boundary
FUNCTIONAL_TOL = 1e-7
CONE_TOL = 1e-9


class CheckerError(RuntimeError):
    """The oracle LP itself did not solve."""


# ---------------------------------------------------------------------------
# Instance data, read straight from the JSON document.
# ---------------------------------------------------------------------------

class Instance:
    def __init__(self, raw):
        self.A = np.asarray(raw["cone"]["halfspaces"], dtype=float)
        gens = raw["cone"].get("generators")
        self.G = None if gens is None else np.asarray(gens, dtype=float)
        space = raw["space"]
        self.labels = list(space["labels"])
        self.index = {x: i for i, x in enumerate(self.labels)}
        if "distances" in space:
            self.dist = np.asarray(space["distances"], dtype=float)
        else:
            pts = np.asarray(space["coordinates"], dtype=float)
            self.dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2)
                                .sum(axis=2))
        self.values = {x: np.asarray(v, dtype=float)
                       for x, v in raw["map"].items()}
        self.params = raw["params"]
        self.pert = raw["perturbation"]

    def d(self, a, b):
        return float(self.dist[self.index[a], self.index[b]])

    def cone_member(self, z):
        return bool(np.min(self.A @ z) >= -CONE_TOL)


def family(inst, theorem):
    """``sets(x2, x1)``: the list of ``(scale, vertices)`` of F(x2, x1) that
    the order of ``theorem`` quantifies over, built from the raw document."""
    spec = inst.pert
    params = inst.params
    variant = spec["variant"]

    def scaled(H, rate):
        H = np.asarray(H, dtype=float)
        return lambda x2, x1: [(rate * inst.d(x2, x1), H)]

    def quasi():
        H = np.asarray(spec["vertices"], dtype=float)
        p = np.asarray(spec["matrix"], dtype=float)
        # the pair weight is read as p(x1, x2) for the set F(x2, x1)
        return lambda x2, x1: [(float(p[inst.index[x1], inst.index[x2]]), H)]

    def direction():
        return [spec["k0"]] if variant == "singleton" else spec["vertices"]

    if theorem == "3.1":
        if variant == "extensional":
            table = spec["table"]
            return lambda x2, x1: [
                (1.0, np.asarray(table[lam][f"{x2}|{x1}"], dtype=float))
                for lam in spec["lambdas"]]
        if variant == "quasimetric":
            return quasi()
        return scaled(direction(), spec["gamma"])
    if theorem in ("4.1", "4.2"):
        return scaled(spec["vertices"], params["gamma"])
    if theorem == "4.4":
        return quasi()
    if theorem in ("5.1", "5.2"):
        gamma = params.get("gamma", spec.get("gamma"))
        return scaled(direction(), gamma)
    if theorem == "5.6":
        return scaled([spec["k0"]], params["epsilon"] / params["lambda"])
    raise ValueError(f"no family for theorem {theorem}")


def direction_vertices(inst):
    """Vertices the separating functional must be >= 1 on: the direction
    set, or every pooled vertex of an extensional table."""
    spec = inst.pert
    if spec["variant"] == "extensional":
        rows = []
        for lam in spec["lambdas"]:
            for key, verts in spec["table"][lam].items():
                x2, x1 = key.split("|")
                if x2 != x1:
                    rows.extend(verts)
        return np.asarray(rows, dtype=float)
    if spec["variant"] == "singleton":
        return np.asarray([spec["k0"]], dtype=float)
    return np.asarray(spec["vertices"], dtype=float)


# ---------------------------------------------------------------------------
# The LP oracle.
# ---------------------------------------------------------------------------

def margins(A, queries):
    """Largest margins ``t*`` for queries ``(y - b, s * V)``, one LP."""
    k = A.shape[0]
    rows, cols, vals = [], [], []
    b_ub, eq_rows, eq_cols = [], [], []
    t_index = []
    col = 0
    for q, (diff, SV) in enumerate(queries):
        J = SV.shape[0]
        ASV = A @ SV.T                      # k x J
        r0 = q * k
        for i in range(k):
            rows.extend([r0 + i] * (J + 1))
            cols.extend(range(col, col + J + 1))
            vals.extend(ASV[i].tolist())
            vals.append(1.0)
        b_ub.extend((A @ diff).tolist())
        eq_rows.extend([q] * J)
        eq_cols.extend(range(col, col + J))
        t_index.append(col + J)
        col += J + 1
    nq = len(queries)
    A_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(nq * k, col))
    A_eq = sparse.csr_matrix((np.ones(len(eq_rows)), (eq_rows, eq_cols)),
                             shape=(nq, col))
    c = np.zeros(col)
    c[t_index] = -1.0
    bounds = np.zeros((col, 2))
    bounds[:, 1] = np.inf
    bounds[t_index, 0] = -np.inf
    res = linprog(c, A_ub=A_ub, b_ub=np.asarray(b_ub), A_eq=A_eq,
                  b_eq=np.ones(nq), bounds=bounds, method="highs")
    if res.status != 0:
        raise CheckerError(f"oracle LP failed: {res.message}")
    return res.x[t_index]


class Memberships:
    """Collects membership questions, then answers them with one LP."""

    def __init__(self, inst):
        self.inst = inst
        self.queries = []
        self.t = None

    def ask(self, y, b, scale, V):
        self.queries.append((np.asarray(y, dtype=float) -
                             np.asarray(b, dtype=float), scale * V))
        return len(self.queries) - 1

    def solve(self):
        self.t = (margins(self.inst.A, self.queries) if self.queries
                  else np.zeros(0))

    def may_hold(self, q):
        return self.t[q] >= -BAND

    def may_fail(self, q):
        return self.t[q] <= BAND


class OrderTest:
    """``x2 precedes x1``: every y in f(x1) lies in f(x2) + F + C for every
    family set F in F(x2, x1). Tracks both readings within the band."""

    def __init__(self, mem, sets, x2, x1):
        inst = mem.inst
        self.mem = mem
        self.groups = []            # per (set, y): query ids over b
        for scale, V in sets(x2, x1):
            for y in inst.values[x1]:
                self.groups.append([mem.ask(y, b, scale, V)
                                    for b in inst.values[x2]])

    def may_hold(self):
        return all(any(self.mem.may_hold(q) for q in g) for g in self.groups)

    def may_fail(self):
        return any(all(self.mem.may_fail(q) for q in g) for g in self.groups)


def _functional_problems(inst, weights):
    problems = []
    w = np.asarray(weights, dtype=float)
    low = float(np.min(direction_vertices(inst) @ w))
    if low < 1.0 - FUNCTIONAL_TOL:
        problems.append(f"functional is {low:.6g} < 1 on a direction vertex")
    if inst.G is None:
        problems.append("cone has no generators to check the functional on")
    elif float(np.min(inst.G @ w)) < -FUNCTIONAL_TOL:
        problems.append("functional is negative on a cone generator")
    return problems


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

def check_evp(raw, theorem, answer):
    """EVP answer: x-hat precedes x0 and no other label precedes x-hat."""
    inst = Instance(raw)
    x0 = inst.params["x0"]
    xhat = answer["xhat"]
    if xhat not in inst.index:
        return [f"x-hat {xhat!r} is not a label"]
    problems = [f"conclusion {name} reported false"
                for name, holds in answer["holds"] if not holds]
    sets = family(inst, theorem)
    mem = Memberships(inst)
    reach = OrderTest(mem, sets, xhat, x0)
    others = {x: OrderTest(mem, sets, x, xhat)
              for x in inst.labels if x != xhat}
    mem.solve()
    if not reach.may_hold():
        problems.append(f"x-hat {xhat!r} does not precede x0 {x0!r}")
    below = [x for x, test in others.items() if not test.may_fail()]
    if below:
        problems.append(f"labels {below[:3]} precede x-hat {xhat!r}")
    if answer.get("weights") is not None:
        problems += _functional_problems(inst, answer["weights"])
    return problems


def lower_section(raw, theorem, x):
    """For every label x2, whether "x2 precedes x" may hold and may fail
    within the band."""
    inst = Instance(raw)
    sets = family(inst, theorem)
    mem = Memberships(inst)
    tests = {x2: OrderTest(mem, sets, x2, x) for x2 in inst.labels}
    mem.solve()
    return {x2: (t.may_hold(), t.may_fail()) for x2, t in tests.items()}


def check_graph(raw, theorem, answer):
    """Graph answer: y0 is covered from (x-hat, y-hat) and no other pair
    covers y-hat; for 5.2 and 5.6 y-hat is a strict Pareto minimum of its
    slice, and for 5.6 the distance bound holds."""
    inst = Instance(raw)
    graph = [(x, np.asarray(y, dtype=float))
             for x, y in raw["product"]["graph"]]
    x0 = inst.params["x0"]
    y0 = np.asarray(raw["product"]["y0"], dtype=float)
    xhat = answer["xhat"]
    yhat = np.asarray(answer["yhat"], dtype=float)
    problems = [f"conclusion {name} reported false"
                for name, holds in answer["holds"] if not holds]
    if not any(x == xhat and np.array_equal(y, yhat) for x, y in graph):
        return problems + ["(x-hat, y-hat) is not a graph pair"]
    sets = family(inst, theorem)
    whole_slice = theorem == "5.1"
    mem = Memberships(inst)
    cover = [mem.ask(y0, yhat, s, V) for s, V in sets(xhat, x0)]
    rivals = []
    for x, y in graph:
        if x == xhat and (whole_slice or np.array_equal(y, yhat)):
            continue
        rivals.append(((x, y.tolist()),
                       [mem.ask(yhat, y, s, V) for s, V in sets(x, xhat)]))
    mem.solve()
    if not all(mem.may_hold(q) for q in cover):
        problems.append("y0 is not covered from (x-hat, y-hat)")
    covering = [pair for pair, qs in rivals
                if not any(mem.may_fail(q) for q in qs)]
    if covering:
        problems.append(f"pairs {covering[:2]} cover y-hat")
    if theorem in ("5.2", "5.6"):
        for x, y in graph:
            if x == xhat and not np.array_equal(y, yhat) and \
                    inst.cone_member(yhat - y):
                problems.append("y-hat is not a strict Pareto minimum of "
                                "its slice")
                break
    if theorem == "5.6":
        if inst.d(x0, xhat) > inst.params["lambda"] + CONE_TOL:
            problems.append("distance bound d(x0, x-hat) <= lambda fails")
    return problems


def pareto_set(inst):
    """Value points no other value point lies strictly below."""
    pts = np.vstack(list(inst.values.values()))
    out = []
    for i, y in enumerate(pts):
        dominated = any(inst.cone_member(y - z) and not inst.cone_member(z - y)
                        for j, z in enumerate(pts) if j != i)
        if not dominated:
            out.append(tuple(float(v) for v in y))
    return sorted(out)


def check_cli(command, theorem, raw, exit_code, doc):
    """One ``run_command`` call on one file: exit code, the ``--out`` report
    and the certificate or payload it carries (``theorem`` is the one the
    command asked for, or None)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    reports = doc.get("reports", [])
    if len(reports) != 1:
        return [f"{len(reports)} reports in --out"]
    rep = reports[0]
    if rep["exit_code"] != 0 or rep["status"] not in ("ok", "certified"):
        return [f"report status {rep['status']} ({rep['exit_code']})"]
    inst = Instance(raw)
    payload = rep["payload"]
    if command == "validate":
        want = {"labels": len(inst.labels), "dimension": raw["dimension"],
                "variant": inst.pert["variant"],
                "has_product": "product" in raw}
        return [] if payload.get("summary") == want else ["summary differs"]
    if command == "pareto":
        got = sorted(tuple(p) for p in payload["minimal"])
        return [] if got == pareto_set(inst) else ["Pareto minima differ"]
    if command == "check-assumptions":
        rep_a = payload["assumptions"]
        problems = [] if payload.get("solvable") else ["not solvable"]
        if not rep_a.get("bounded"):
            problems.append("not bounded")
        section = set(rep_a["section"])
        for x, (may_hold, may_fail) in lower_section(
                raw, "3.1", inst.params["x0"]).items():
            if (x in section and not may_hold) or \
                    (x not in section and not may_fail):
                problems.append(f"lower section differs at {x!r}")
        return problems
    cert = payload["certificate"]
    if cert["theorem"] != theorem:
        return [f"certificate for theorem {cert['theorem']}, not {theorem}"]
    answer = {"xhat": cert["xhat"],
              "holds": [[c["name"], c["holds"]] for c in cert["conclusions"]]}
    if command == "solve-evp":
        answer["weights"] = cert["scalarization"].get("weights")
        return check_evp(raw, theorem, answer)
    answer["yhat"] = cert["yhat"]
    return check_graph(raw, theorem, answer)


def check_record(data):
    """Dispatch one recorded answer to its check."""
    try:
        if data[0] == "cli":
            _, raw, command, theorem, code, doc = data
            return check_cli(command, theorem, raw, code, doc)
        _, raw, theorem, answer = data
        if theorem.startswith("5."):
            return check_graph(raw, theorem, answer)
        return check_evp(raw, theorem, answer)
    except CheckerError as exc:
        return [str(exc)]
