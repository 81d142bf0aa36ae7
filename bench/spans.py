"""In-memory span tracing around evpkit's layer boundaries.

The program is not modified: ``Tracer.install`` replaces each traced
function in the module namespace where its callers look it up (for example
``evpkit.solvers.ti_check``, which the solvers call through their own module
globals) and ``uninstall`` restores the originals.

Every traced call is aggregated per operation and group: call count,
outermost count, inclusive time of the outermost calls (a group nested in
itself, such as ``prec_fstar`` calling ``prec_f``, is counted once) and self
time (duration minus the time covered by traced children). Calls of the
coarse groups are also kept as individual spans (id, parent, operation,
name, start, end) and written out when the run ends; the high-frequency
leaf groups (memberships, order tests, scalarization values) are kept as
per-operation aggregates only, so a run does not hold millions of spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

# (group, module, attribute, keep individual spans)
TARGETS = (
    ("io.load", "evpkit.io", "load_validate", True),
    ("io.report", "evpkit.io", "render", True),
    ("io.report", "evpkit.cli", "render", True),
    ("io.report", "evpkit.io", "Report.to_dict", True),
    ("io.report", "evpkit.solvers", "EvpCertificate.to_dict", True),
    ("io.report", "evpkit.product", "ProductCertificate.to_dict", True),
    ("io.report", "evpkit.cli", "json.dump", True),
    ("cli.dispatch", "evpkit.cli", "run_command", True),
    ("geometry.minkowski", "evpkit.instances", "minkowski_member", False),
    ("geometry.minkowski", "evpkit.solvers", "minkowski_member", False),
    ("geometry.minkowski", "evpkit.product", "minkowski_member", False),
    ("geometry.functional", "evpkit.geometry",
     "strictly_positive_functional", True),
    ("geometry.functional", "evpkit.solvers",
     "strictly_positive_functional", True),
    ("geometry.functional", "evpkit.cli", "strictly_positive_functional", True),
    ("scalarize.gz", "evpkit.scalarize", "gz_value", False),
    ("instances.ti_check", "evpkit.solvers", "ti_check", True),
    ("instances.relation_matrix", "evpkit.solvers", "relation_matrix", True),
    ("instances.check_assumptions", "evpkit.solvers", "check_assumptions",
     True),
    ("instances.check_assumptions", "evpkit.cli", "check_assumptions", True),
    ("instances.preceq", "evpkit.instances", "preceq", False),
    ("instances.preceq", "evpkit.solvers", "preceq", False),
    ("engine.solve", "evpkit.engine", "solve", True),
    ("solvers.front", "evpkit.solvers", "solve_evp_general", True),
    ("solvers.front", "evpkit.solvers", "solve_evp_set_direction", True),
    ("solvers.front", "evpkit.solvers", "solve_evp_quasimetric", True),
    ("product.validate_fmap", "evpkit.product", "validate_fmap", True),
    ("product.graph_order", "evpkit.product", "prec_f", False),
    ("product.graph_order", "evpkit.product", "prec_fstar", False),
)


class _Agg:
    __slots__ = ("count", "outer", "incl", "self_s")

    def __init__(self):
        self.count = 0
        self.outer = 0
        self.incl = 0.0
        self.self_s = 0.0

    def to_dict(self):
        return {"count": self.count, "outer": self.outer, "incl_s": self.incl,
                "self_s": self.self_s}


class Tracer:
    """Collects spans for one benchmark process; nothing is shared."""

    def __init__(self):
        self.stack = []
        self.depth = defaultdict(int)
        self.setup = defaultdict(_Agg)
        self.ops = []              # one dict group -> _Agg per operation
        self.current = self.setup
        self.engine_steps = []     # per operation
        self.spans = []
        self._op_index = None
        self._saved = []

    # -- operations ---------------------------------------------------------
    def begin_op(self):
        self.current = defaultdict(_Agg)
        self._op_index = len(self.ops)
        self._steps = 0

    def end_op(self):
        self.ops.append(self.current)
        self.engine_steps.append(self._steps)
        self.current = self.setup
        self._op_index = None

    # -- spans --------------------------------------------------------------
    def _wrap(self, group, name, fn, keep):
        tracer = self
        stack = self.stack
        depth = self.depth
        clock = time.perf_counter
        on_result = self._count_steps if group == "engine.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0, len(tracer.spans) if keep else None]
            if keep:
                parent = next((f[2] for f in reversed(stack)
                               if f[2] is not None), None)
                tracer.spans.append([frame[2], parent, tracer._op_index, name,
                                     frame[0], None])
            stack.append(frame)
            depth[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[group] -= 1
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                agg = tracer.current[group]
                agg.count += 1
                agg.self_s += dur - frame[1]
                if depth[group] == 0:
                    agg.outer += 1
                    agg.incl += dur
                if keep:
                    tracer.spans[frame[2]][5] = end
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _count_steps(self, result):
        if self._op_index is not None:
            self._steps += len(result[1].steps)

    def install(self):
        """Replace every target with its traced wrapper."""
        for group, module_name, attr, keep in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name == "json":
                # cli writes --out reports through its own ``json`` global
                original_module = module.json
                proxy = types.ModuleType("json")
                proxy.__dict__.update(original_module.__dict__)
                proxy.dump = self._wrap(group, f"{module_name}.{attr}",
                                        original_module.dump, keep)
                self._saved.append((module, "json", original_module))
                module.json = proxy
                continue
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(group, f"{module_name}.{attr}",
                                            original, keep))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- results ------------------------------------------------------------
    def per_op_totals(self, factors):
        """Sum of every group's aggregate over the traced operations, the
        times of operation ``i`` multiplied by ``factors[i]``."""
        totals = defaultdict(_Agg)
        for op, factor in zip(self.ops, factors):
            for group, agg in op.items():
                t = totals[group]
                t.count += agg.count
                t.outer += agg.outer
                t.incl += agg.incl * factor
                t.self_s += agg.self_s * factor
        return totals

    def write(self, path, meta):
        doc = {
            "meta": meta,
            "setup": {g: a.to_dict() for g, a in self.setup.items()},
            "ops": [{g: a.to_dict() for g, a in op.items()}
                    for op in self.ops],
            "engine_steps": self.engine_steps,
            "spans_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
