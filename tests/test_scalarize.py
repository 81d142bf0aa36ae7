"""Scalarization calculus: closed form vs the bisection oracle, plus the
level-set, subadditivity, translation, and monotonicity properties."""

import math

import numpy as np
import pytest

from evpkit.errors import InputError
from evpkit.geometry import cone, cone_contains, orthant
from evpkit.scalarize import (GerstewitzFn, ShiftedGerstewitz,
                              gz_bisect_oracle, gz_value)

from conftest import random_cone, sample_cone_member

TOL = 1e-9


def gz_level_classify(g, y, r):
    """Place y relative to the level r of the scalarization.

    Returns ``"below"`` (value < r), ``"above"`` (value > r), or
    ``"boundary"`` when |value - r| <= g.tol; the strict sides of a level
    set are not decidable closer than the tolerance, so ties are reported
    rather than forced."""
    v = gz_value(g, y)
    if v == math.inf:
        return "above"
    if abs(v - r) <= g.tol:
        return "boundary"
    return "below" if v < r else "above"


@pytest.fixture
def diag():
    return GerstewitzFn(orthant(2), [1.0, 1.0])


class TestValue:
    def test_max_coordinate(self, diag):
        assert gz_value(diag, [2.0, 3.0]) == 3.0

    def test_unit_and_zero(self, diag):
        assert abs(gz_value(diag, diag.k0) - 1.0) <= 1e-12
        assert gz_value(diag, [0.0, 0.0]) == 0.0

    def test_infinite_branch(self):
        g = GerstewitzFn(orthant(2), [1.0, 0.0])
        assert gz_value(g, [0.0, 1.0]) == math.inf
        assert math.isfinite(gz_value(g, [1.0, 0.0]))

    def test_invalid_direction_rejected(self):
        with pytest.raises(InputError):
            GerstewitzFn(orthant(2), [-1.0, 0.0])  # k0 outside the cone
        halfplane = cone([[0.0, 1.0]])
        with pytest.raises(InputError):
            GerstewitzFn(halfplane, [1.0, 0.0])  # -k0 also inside

    def test_near_zero_rows_flagged(self):
        C = cone([[1.0, 0.0], [1e-10, 1.0]])
        g = GerstewitzFn(C, [1.0, 0.0])
        assert g.flagged_rows == (1,)


class TestBisectOracle:
    def test_matches_closed_form(self, diag):
        assert abs(gz_bisect_oracle(diag, [2.0, 3.0]) - 3.0) <= 1e-8

    def test_translation_of_direction(self, diag):
        assert abs(gz_bisect_oracle(diag, 5.0 * diag.k0) - 5.0) <= 1e-8

    def test_negative_cone_points(self, diag):
        rng = np.random.default_rng(3)
        for _ in range(30):
            y = -rng.uniform(0.0, 4.0, size=2)
            assert gz_value(diag, y) <= TOL
            assert gz_bisect_oracle(diag, y) <= 1e-8

    def test_infinite_verdict(self):
        g = GerstewitzFn(orthant(2), [1.0, 0.0])
        assert gz_bisect_oracle(g, [0.0, 1.0]) == math.inf


class TestProperties:
    def test_level_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            C, k0 = random_cone(rng, m)
            g = GerstewitzFn(C, k0)
            for _ in range(40):
                y = rng.normal(size=m) * 3
                v = gz_value(g, y)
                if not math.isfinite(v):
                    continue
                assert cone_contains(C, v * k0 - y, 1e-7)
                assert not cone_contains(C, (v - 1e-3) * k0 - y, TOL)
                r = v + float(rng.uniform(-2, 2))
                member = cone_contains(C, r * k0 - y, TOL)
                assert member == (v <= r + 1e-7)

    def test_subadditive_translation_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            m = int(rng.integers(1, 4))
            C, k0 = random_cone(rng, m)
            g = GerstewitzFn(C, k0)
            for _ in range(40):
                y1 = rng.normal(size=m) * 2
                y2 = rng.normal(size=m) * 2
                v1, v2 = gz_value(g, y1), gz_value(g, y2)
                v12 = gz_value(g, y1 + y2)
                if math.isfinite(v1) and math.isfinite(v2):
                    assert v12 <= v1 + v2 + 1e-8
                lam = float(rng.uniform(-3, 3))
                shifted = gz_value(g, y1 + lam * k0)
                if math.isfinite(v1):
                    assert abs(shifted - (v1 + lam)) <= 1e-8
                else:
                    assert shifted == math.inf
                d = sample_cone_member(rng, C, k0,
                                       scale=float(rng.uniform(0, 2)))
                below, above = gz_value(g, y1), gz_value(g, y1 + d)
                # y1 is below y1 + d in the cone order
                assert below <= above + 1e-8

    def test_shifted_wrapper(self, diag):
        sh = ShiftedGerstewitz(diag, [1.0, 1.0])
        assert sh.value([1.0, 1.0]) == 0.0
        assert abs(sh.value([2.0, 2.0]) - 1.0) <= 1e-12

    def test_level_classification(self, diag):
        assert gz_level_classify(diag, [2.0, 3.0], 4.0) == "below"
        assert gz_level_classify(diag, [2.0, 3.0], 2.0) == "above"
        assert gz_level_classify(diag, [2.0, 3.0], 3.0) == "boundary"
        assert gz_level_classify(diag, [2.0, 3.0], 3.0 + 1e-12) == "boundary"
        g = GerstewitzFn(orthant(2), [1.0, 0.0])
        assert gz_level_classify(g, [0.0, 1.0], 1e9) == "above"
