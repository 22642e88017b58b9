"""Hand-computed checks of the benchmark's reference optimum.

Run with ``python -m pytest bench/test_reference.py``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from instances import Instance, criterion2_batch  # noqa: E402
import reference  # noqa: E402


def make(a, noise, times, horizon, e1, e2):
    return Instance("hand", "general", a, 1.0, noise, np.array(times, float),
                    horizon, np.array(e1, float), np.array(e2, float))


@pytest.mark.parametrize("a, noise, horizon, e1, e2, bits", [
    # the cone binds: p1 = 1, p2 = (a^2-1)*p1 = 3 < 5 and R = C(a^2*p1/N)
    (2.0, 1.0, 2.0, 2.0, 10.0, math.log2(5.0)),
    # the relay's energy binds: p1 = p2 = 1, sqrt(3) + sqrt(3) gives SNR 3
    (2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    # a <= 1: broadcast bound alone, C(p1/N) with p1 = 3, N = 2
    (0.5, 2.0, 2.0, 6.0, 1.0, math.log2(2.5)),
])
def test_single_epoch(a, noise, horizon, e1, e2, bits):
    value, p1, p2 = reference.optimum(make(a, noise, [0.0], horizon, [e1], [e2]))
    assert value == pytest.approx(bits, rel=1e-12)
    assert p1[0] == pytest.approx(e1 / horizon, rel=1e-9)


def test_worked_proportional_staircase():
    # t = {0, 2, 4}, T = 6, E1 = [2, 8, 2], relay harvests half as much:
    # the string-tautening staircase is p1 = [1, 5/2, 5/2] and p2 = p1/2
    inst = make(2.0, 1.0, [0.0, 2.0, 4.0], 6.0, [2.0, 8.0, 2.0],
                [1.0, 4.0, 1.0])
    value, p1, p2 = reference.optimum(inst)
    np.testing.assert_allclose(p1, [1.0, 2.5, 2.5], rtol=1e-7)
    np.testing.assert_allclose(p2, [0.5, 1.25, 1.25], rtol=1e-7)
    slope = (math.sqrt(3.5) + math.sqrt(1.5)) ** 2 / 4.0
    exact = 2.0 * 0.5 * math.log2(1.0 + slope) + 4.0 * 0.5 * math.log2(1.0 + 2.5 * slope)
    assert value == pytest.approx(exact, rel=1e-12)


def test_rate_branches_meet_on_the_boundary():
    a, noise, p1 = 1.7, 0.8, 2.3
    boundary = (a * a - 1.0) * p1
    assert reference.rate_ma(a, noise, p1, boundary) == pytest.approx(
        float(reference.rate_bc(a, noise, p1)), rel=1e-12)
    assert reference.rate(a, noise, p1, 2.0 * boundary) == reference.rate_bc(a, noise, p1)


def test_batch_optimum_beats_feasible_schedules():
    rng = np.random.default_rng(5)
    for inst in criterion2_batch()[:10]:
        value = reference.optimum(inst)[0]
        for _ in range(20):
            # random powers below the tightest prefix average are feasible
            p1 = rng.uniform(0.0, 1.0, inst.lengths.size) * np.min(
                inst.caps1 / np.cumsum(inst.lengths))
            p2 = rng.uniform(0.0, 1.0, inst.lengths.size) * np.min(
                inst.caps2 / np.cumsum(inst.lengths))
            assert reference.feasible(inst, p1, p2)
            assert reference.total_bits(inst, p1, p2) <= value + 1e-12
