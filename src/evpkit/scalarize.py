"""Nonlinear scalarization along a cone direction.

For a closed polyhedral cone ``D = {y : A y >= 0}`` and a direction
``k0 in D \\ -D``, the functional ``inf {t : y in t*k0 - D}`` has the closed
form ``max_i (a_i . y) / (a_i . k0)`` over rows with ``a_i . k0 > 0``; a row
with ``a_i . k0 = 0`` and ``a_i . y > 0`` forces the value ``+inf``. The
direction condition guarantees at least one strictly positive row, so the
value is never ``-inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import DEFAULT_TOL, PolyhedralCone, as_point, cone_contains


@dataclass(frozen=True, eq=False)
class GerstewitzFn:
    """Scalarization ``y -> inf {t : y in t*k0 - cone}``.

    Construction requires ``k0`` in the cone and ``-k0`` outside it. Rows of
    the cone with ``0 < a_i . k0 <= tol`` are conservatively treated as zero
    rows (they route through the ``+inf`` branch) and reported in
    ``flagged_rows`` so callers can rescale k0.
    """

    cone: PolyhedralCone
    k0: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        k0 = as_point(self.k0, self.cone.dim)
        object.__setattr__(self, "k0", k0)
        prods = self.cone.halfspaces @ k0
        if prods.min() < -self.tol:
            raise InputError("k0 is not in the cone")
        pos = prods > self.tol
        if not np.any(pos):
            raise InputError("-k0 is in the cone (no halfspace row is "
                             "strictly positive on k0)")
        object.__setattr__(self, "_pos_rows", pos)
        object.__setattr__(self, "_pos_prods", prods[pos])
        flagged = np.nonzero((prods > 0) & ~pos)[0]
        object.__setattr__(self, "flagged_rows", tuple(int(i) for i in flagged))

    is_linear = False

    def value(self, y):
        return gz_value(self, y)

    def from_products(self, prods):
        """:func:`gz_value` read from the cone-row products ``A y`` on the
        last axis of ``prods``: ``+inf`` where a zero row exceeds ``tol``,
        else the maximum over the positive rows."""
        # array methods: np.max and np.any add a third to a point's cost
        top = (prods[..., self._pos_rows] / self._pos_prods).max(axis=-1)
        inf = (prods[..., ~self._pos_rows] > self.tol).any(axis=-1)
        return np.where(inf, math.inf, top)


def gz_value(g: GerstewitzFn, y):
    """Closed-form value of the scalarization (finite or ``+inf``)."""
    return float(g.from_products(g.cone.halfspaces @ as_point(y, g.cone.dim)))


@dataclass(frozen=True, eq=False)
class ShiftedGerstewitz:
    """``y -> gz(y - shift)``: the scalarization anchored at a base value."""

    base: GerstewitzFn
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shift", as_point(self.shift, self.base.cone.dim))

    is_linear = False

    def value(self, y):
        return gz_value(self.base, np.asarray(y, dtype=float) - self.shift)


def gz_bisect_oracle(g: GerstewitzFn, y, tol=None):
    """Independent oracle: binary search for ``inf {t : t*k0 - y in cone}``.

    Membership is monotone in ``t`` (upward closed), so once a bracket
    ``lo < t* <= hi`` is found bisection converges linearly. The bracket
    starts at ``[-s, s]`` with ``s = max |y_i| + 1``; reports ``+inf`` when
    no upper bracket exists after 80 doublings.
    """
    tol = g.tol if tol is None else tol
    y = as_point(y, g.cone.dim)

    def member(t):
        return cone_contains(g.cone, t * g.k0 - y, tol)

    hi = float(np.max(np.abs(y))) + 1.0
    lo = -hi
    expansions = 0
    while not member(hi):
        hi *= 2.0
        expansions += 1
        if expansions > 80:
            return math.inf
    expansions = 0
    while member(lo):
        lo *= 2.0
        expansions += 1
        if expansions > 80:
            raise InputError("lower bracket expansion cap exceeded; "
                             "the scalarization would be -inf")
    for _ in range(200):
        if hi - lo <= 0.5 * tol:
            break
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi
