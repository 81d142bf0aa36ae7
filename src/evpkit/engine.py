"""Constructive minimal-point engine over a finite pre-order.

Given an oracle enumerating lower sections S(x) and a monotone potential,
produce a terminal point: a member of S(x0) whose own lower section contains
nothing but itself. Two selection modes are provided:

* ``faithful`` picks, at step n, any successor whose potential is within
  ``2**-n`` of the section infimum (preferring a point different from the
  current iterate, then lowest label order), mirroring the recurrence the
  existence argument is built on;
* ``greedy`` picks the potential argmin outright (label order on ties),
  which finite instances always attain.

Under the strict-decrease hypothesis both modes terminate within |X| outer
steps; longer runs are converted into a strict-decrease violation diagnostic
carrying the offending cycle.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, InputError

MODES = ("faithful", "greedy")


class _Columns(Mapping):
    """The successor lists by label, each read from ``column(j)``, the mask
    over the labels of the section of labels[j], the first time it is
    asked for."""

    def __init__(self, labels, column):
        self._labels, self._column = labels, column
        self._at = {x: j for j, x in enumerate(labels)}
        self._lists = {}

    def __getitem__(self, x):
        lists = self._lists
        if x not in lists:
            rows = np.flatnonzero(self._column(self._at[x])).tolist()
            lists[x] = [self._labels[i] for i in rows]
        return lists[x]

    def __contains__(self, x):
        return x in self._at

    def __iter__(self):
        return iter(self._labels)

    def __len__(self):
        return len(self._labels)


@dataclass(frozen=True, eq=False)
class PreorderOracle:
    """Raw order data: per-label successor lists (lower sections) and the
    potential eta. Labels are hashables; list order fixes tie-breaking.
    ``successors`` maps every label to its list: a dict, or, from
    :meth:`from_columns`, a mapping that reads a label's list from its
    column of the order the first time the list is asked for, so that the
    engine decides only the sections it walks."""

    labels: tuple
    successors: Mapping
    eta: dict

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        known = set(labels)
        # from_columns reads every label's list from a column, whose rows
        # are labels
        given = not isinstance(self.successors, _Columns)
        for x in labels:
            if given and x not in self.successors:
                raise InputError(f"no successor list for {x!r}")
            if x not in self.eta:
                raise InputError(f"no potential value for {x!r}")
            for xp in self.successors[x] if given else ():
                if xp not in known:
                    raise InputError(f"successor {xp!r} of {x!r} is not a label")
        order = {x: i for i, x in enumerate(labels)}
        object.__setattr__(self, "_order", order)

    @classmethod
    def from_columns(cls, labels, column, eta):
        """The oracle of the order read by columns and the potentials
        ``eta`` in label order: ``column(j)`` is the bool mask over
        ``labels`` of the labels that precede labels[j], as
        :meth:`evpkit.instances.OrderGrid.precedes` reads it. The section
        of labels[j] holds those labels, ascending, and its column is read
        the first time the section is asked for."""
        labels = tuple(labels)
        return cls(labels, _Columns(labels, column), dict(zip(labels, eta)))

    def section(self, x):
        return self.successors[x]

    def rank(self, x):
        return self._order[x]


@dataclass(frozen=True)
class EngineStep:
    label: object
    eta: float
    inf_prev: float
    slack: float


@dataclass(frozen=True)
class EngineTrace:
    mode: str
    steps: tuple
    terminal: object

    def to_dict(self):
        return {
            "mode": self.mode,
            "terminal": self.terminal,
            "steps": [
                {"label": s.label, "eta": s.eta, "inf_prev": s.inf_prev,
                 "slack": s.slack}
                for s in self.steps
            ],
        }


def _section_inf(oracle, x):
    return min(oracle.eta[z] for z in oracle.section(x))


def _terminal(oracle, x):
    return all(z == x for z in oracle.section(x))


def solve(oracle: PreorderOracle, x0, mode="greedy"):
    """Return ``(terminal_label, EngineTrace)``.

    Raises HypothesisError when the start section is empty, when its
    potential infimum is not finite, or when the iteration fails to settle
    within |X|+1 outer steps (a strict-decrease violation; the repeated
    cycle is attached as the witness).
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if x0 not in oracle._order:
        raise InputError(f"unknown start label {x0!r}")
    start_section = oracle.section(x0)
    if not start_section:
        raise HypothesisError("nonempty_start",
                              f"the lower section of {x0!r} is empty")
    inf0 = _section_inf(oracle, x0)
    if not math.isfinite(inf0):
        raise HypothesisError(
            "bounded",
            f"potential infimum over the start section is {inf0}")

    steps = [EngineStep(x0, oracle.eta[x0], math.inf, math.inf)]
    current = x0
    visited = [x0]
    cap = len(oracle.labels) + 1
    for n in range(1, cap + 1):
        if _terminal(oracle, current):
            return current, EngineTrace(mode, tuple(steps), current)
        section = oracle.section(current)
        inf_here = min(oracle.eta[z] for z in section)
        if mode == "greedy":
            slack = 0.0
            candidates = [z for z in section if oracle.eta[z] <= inf_here]
            nxt = min(candidates, key=oracle.rank)
        else:
            slack = 2.0 ** (-n)
            candidates = [z for z in section
                          if oracle.eta[z] < inf_here + slack]
            others = [z for z in candidates if z != current]
            pool = others if others else candidates
            nxt = min(pool, key=oracle.rank)
        steps.append(EngineStep(nxt, oracle.eta[nxt], inf_here, slack))
        visited.append(nxt)
        current = nxt
    # out of budget: extract the repeated segment as the offending cycle
    seen = {}
    cycle = visited
    for i, lab in enumerate(visited):
        if lab in seen:
            cycle = visited[seen[lab]:i + 1]
            break
        seen[lab] = i
    raise HypothesisError(
        "strict_decrease",
        f"no terminal point within {cap} steps",
        witness={"cycle": cycle})
