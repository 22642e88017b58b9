"""Rate-formula tests.

High-precision expected values were computed with mpmath (40 digits):
    C(2+sqrt(3)) = 1.121232781918536969...
    C(4)         = 1.160964047443681173...
"""

import warnings

import numpy as np
import pytest

from ehrelay import (
    BROADCAST,
    MULTI_ACCESS,
    BranchUndefinedError,
    ChannelParams,
    active_rate,
    c_awgn,
    cap_proportional,
    cap_relay_only,
    cap_source_only,
    capacity_min,
    rate_broadcast,
    rate_multi_access,
    rho_maxmin,
    weighted_rate,
    weighted_rate_grad,
)
from ehrelay.capacity import LN2

C_2_SQRT3 = 1.1212327819185368   # C(2+sqrt(3)), mpmath
C_4 = 1.160964047443681          # C(4) = 0.5*log2(5), mpmath

CH = ChannelParams(a=2.0, b=1.0, noise=1.0)


class TestCAwgn:
    def test_zero(self):
        assert c_awgn(0.0) == 0.0

    def test_exact_one(self):
        assert c_awgn(3.0) == 1.0

    def test_high_precision(self):
        assert c_awgn(2.0 + np.sqrt(3.0)) == pytest.approx(C_2_SQRT3, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            c_awgn(-1e-9)
        with pytest.raises(ValueError):
            c_awgn(np.inf)
        with pytest.raises(ValueError):
            c_awgn(np.nan)

    def test_monotone_concave(self):
        x = np.linspace(0.0, 50.0, 400)
        y = c_awgn(x)
        assert np.all(np.diff(y) > 0)
        assert np.all(np.diff(y, 2) < 1e-15)


class TestMultiAccess:
    def test_worked_value(self):
        # radicands: sqrt(2) + sqrt(6), squared = 8 + 4*sqrt(3); /4 = 2+sqrt(3)
        assert rate_multi_access(CH, 1.0, 2.0) == pytest.approx(C_2_SQRT3, abs=1e-15)

    def test_relay_silent_collapses_to_direct(self):
        assert rate_multi_access(CH, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_source_limit(self):
        assert rate_multi_access(CH, 0.0, 1.0) == 0.0

    def test_small_gain_rejected(self):
        ch = ChannelParams(a=0.9, b=1.0, noise=1.0)
        with pytest.raises(BranchUndefinedError):
            rate_multi_access(ch, 1.0, 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            rate_multi_access(CH, -1.0, 1.0)

    def test_vectorized_matches_scalar(self):
        p1 = np.array([0.0, 0.5, 1.0, 2.0])
        p2 = np.array([1.0, 0.0, 2.0, 3.0])
        vec = rate_multi_access(CH, p1, p2)
        for i in range(len(p1)):
            assert vec[i] == rate_multi_access(CH, float(p1[i]), float(p2[i]))


class TestBroadcast:
    def test_worked_value(self):
        assert rate_broadcast(CH, 1.0) == pytest.approx(C_4, abs=1e-15)

    def test_weak_gain_uses_unity(self):
        ch = ChannelParams(a=0.5, b=1.0, noise=1.0)
        assert rate_broadcast(ch, 3.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_power(self):
        assert rate_broadcast(CH, 0.0) == 0.0


class TestCapacityMin:
    def test_multi_access_active(self):
        rb = capacity_min(CH, 1.0, 2.0)
        assert rb.tag == MULTI_ACCESS
        assert rb.active == pytest.approx(C_2_SQRT3, abs=1e-15)
        assert rb.broadcast == pytest.approx(C_4, abs=1e-15)

    def test_small_gain_always_broadcast(self):
        ch = ChannelParams(a=0.5, b=1.0, noise=1.0)
        rb = capacity_min(ch, 3.0, 7.0)
        assert rb.tag == BROADCAST
        assert rb.active == pytest.approx(1.0, abs=1e-15)
        assert rb.multi_access is None

    def test_relay_silent(self):
        rb = capacity_min(CH, 1.0, 0.0)
        assert rb.tag == MULTI_ACCESS
        assert rb.active == pytest.approx(0.5, abs=1e-15)

    def test_zero_source(self):
        rb = capacity_min(CH, 0.0, 1.0)
        assert rb.tag == BROADCAST
        assert rb.active == 0.0

    def test_active_is_min_inside_condition_region(self):
        # provable via Cauchy-Schwarz for b = 1 under the branch condition
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            p1 = rng.uniform(0.01, 10.0)
            p2 = rng.uniform(0.0, (a * a - 1.0) * p1)
            rb = capacity_min(ch, p1, p2)
            assert rb.tag == MULTI_ACCESS
            assert rb.active <= min(rb.multi_access, rb.broadcast) + 1e-12
            assert rb.active == pytest.approx(min(rb.multi_access, rb.broadcast), abs=1e-12)


class TestWeightedRate:
    def test_endpoints(self):
        assert weighted_rate(CH, 1.0, 2.0, 1.0) == rate_multi_access(CH, 1.0, 2.0)
        assert weighted_rate(CH, 1.0, 2.0, 0.0) == rate_broadcast(CH, 1.0)

    def test_midpoint(self):
        expect = 0.5 * (C_2_SQRT3 + C_4)
        assert weighted_rate(CH, 1.0, 2.0, 0.5) == pytest.approx(expect, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            weighted_rate(CH, 1.0, 2.0, 1.5)
        ch = ChannelParams(a=0.9, b=1.0, noise=1.0)
        with pytest.raises(BranchUndefinedError):
            weighted_rate(ch, 1.0, 2.0, 0.5)
        assert weighted_rate(ch, 3.0, 2.0, 0.0) == rate_broadcast(ch, 3.0)


class TestSpecializations:
    def test_proportional_worked(self):
        assert cap_proportional(CH, 1.0, 2.0) == pytest.approx(C_2_SQRT3, abs=1e-15)

    def test_relay_only_silent(self):
        assert cap_relay_only(CH, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_source_only_zero(self):
        assert cap_source_only(CH, 0.0, 1.0) == 0.0

    def test_specialization_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a = rng.uniform(0.5, 3.0)
            ch = ChannelParams(a=a, b=rng.uniform(0.5, 2.0), noise=rng.uniform(0.5, 2.0))
            p1 = rng.uniform(0.0, 10.0)
            p2 = rng.uniform(0.0, 10.0)
            gamma = rng.uniform(0.1, 10.0)
            base = capacity_min(ch, p1, p2).active
            assert cap_relay_only(ch, p1, p2) == pytest.approx(base, abs=1e-12)
            assert cap_source_only(ch, p1, p2) == pytest.approx(base, abs=1e-12)
            expect = capacity_min(ch, p1, gamma * p1).active
            assert cap_proportional(ch, p1, gamma) == pytest.approx(expect, abs=1e-12)


class TestProperties:
    def test_monotone_in_source_power(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.uniform(0.5, 3.0)
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            p2 = rng.uniform(0.0, 8.0)
            grid = np.sort(rng.uniform(0.0, 10.0, size=60))
            vals = active_rate(ch, grid, np.full_like(grid, p2))
            assert np.all(np.diff(vals) >= -1e-10)

    def test_monotone_in_source_power_general_b_reported(self):
        # the branch formulas do not meet at the switch point when b != 1,
        # so a downward jump can occur there; measured, not asserted
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=rng.uniform(0.5, 2.0), noise=rng.uniform(0.5, 2.0))
            p2 = rng.uniform(0.0, 8.0)
            grid = np.sort(rng.uniform(0.0, 10.0, size=60))
            vals = active_rate(ch, grid, np.full_like(grid, p2))
            worst = max(worst, -float(np.min(np.diff(vals))))
        if worst > 1e-10:
            print("\nlargest rate drop in p1 across the branch switch (b != 1): %.3e"
                  % worst)

    def test_midpoint_concavity_condition_region_b1(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            lam = rng.uniform(0.0, 1.0)
            pts = []
            for _ in range(2):
                p1 = rng.uniform(0.05, 10.0)
                p2 = rng.uniform(0.0, (a * a - 1.0) * p1)
                pts.append((p1, p2))
            mid = (0.5 * (pts[0][0] + pts[1][0]), 0.5 * (pts[0][1] + pts[1][1]))
            f = [weighted_rate(ch, p, q, lam) for p, q in (pts[0], pts[1], mid)]
            worst = max(worst, 0.5 * (f[0] + f[1]) - f[2])
        assert worst <= 1e-9

    def test_midpoint_concavity_general_b_reported(self):
        # outside b = 1 the claim is only measured, never asserted
        rng = np.random.default_rng(4)
        violations = []
        for _ in range(300):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=rng.uniform(0.5, 2.0), noise=1.0)
            lam = rng.uniform(0.0, 1.0)
            p = rng.uniform(0.01, 10.0, size=2)
            q = rng.uniform(0.0, 10.0, size=2)
            mid = weighted_rate(ch, 0.5 * (p[0] + p[1]), 0.5 * (q[0] + q[1]), lam)
            avg = 0.5 * (weighted_rate(ch, p[0], q[0], lam)
                         + weighted_rate(ch, p[1], q[1], lam))
            if avg - mid > 1e-9:
                violations.append((ch.a, ch.b, float(avg - mid)))
        if violations:
            print("\nmidpoint concavity violations for general b: %d/300, worst %.3e"
                  % (len(violations), max(v[2] for v in violations)))

    def test_branch_continuity_at_b1_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            p1 = rng.uniform(0.05, 10.0)
            p2 = (a * a - 1.0) * p1
            ma = rate_multi_access(ch, p1, p2)
            bc = rate_broadcast(ch, p1)
            assert abs(ma - bc) <= 1e-9

    def test_rho_oracle_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            p1 = rng.uniform(0.05, 10.0)
            p2 = rng.uniform(0.0, (a * a - 1.0) * p1)
            closed = capacity_min(ch, p1, p2).active
            assert abs(closed - rho_maxmin(ch, p1, p2, 10 ** 5)) <= 1e-5


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=rng.uniform(0.5, 1.5), noise=rng.uniform(0.5, 2.0))
            lam = rng.uniform(0.0, 1.0)
            p1 = rng.uniform(0.1, 8.0)
            p2 = rng.uniform(0.05, 8.0)
            d1, d2 = weighted_rate_grad(ch, p1, p2, lam)
            h = 1e-6
            fd1 = (weighted_rate(ch, p1 + h, p2, lam)
                   - weighted_rate(ch, p1 - h, p2, lam)) / (2 * h)
            fd2 = (weighted_rate(ch, p1, p2 + h, lam)
                   - weighted_rate(ch, p1, p2 - h, lam)) / (2 * h)
            assert float(d1) == pytest.approx(fd1, rel=2e-5, abs=2e-7)
            assert float(d2) == pytest.approx(fd2, rel=2e-5, abs=2e-7)


# ---------------------------------------------------------------------------
# The argument checks and the gradient against their full, masked forms


def _as_power_reference(x, name, allow_zero=True):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s must be finite" % name)
    if np.any(arr < 0.0):
        raise ValueError("%s must be nonnegative" % name)
    if not allow_zero and np.any(arr == 0.0):
        raise ValueError("%s must be positive" % name)
    return arr


def _weighted_args_reference(ch, p1, p2, lam):
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0.0) or np.any(lam_arr > 1.0) or not np.all(np.isfinite(lam_arr)):
        raise ValueError("lam must lie in [0, 1]")
    if ch.a <= 1.0:
        if np.any(lam_arr > 0.0):
            raise BranchUndefinedError(
                "lam > 0 requires a > 1 (multi-access bound undefined)")
        return _as_power_reference(p1, "p1"), None, lam_arr
    return (_as_power_reference(p1, "p1"), _as_power_reference(p2, "p2"),
            lam_arr)


def _multi_access_grad_reference(ch, p1, p2):
    """The masked gradient: only the p1 > 0 entries are differentiated."""
    a, b, N = ch.a, ch.b, ch.noise
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p1b, p2b = np.broadcast_arrays(p1, p2)
    d1 = np.zeros_like(p1b)
    d2 = np.zeros_like(p1b)
    pos = p1b > 0.0
    if not np.any(pos):
        return d1, d2
    x = p1b[pos]
    y = p2b[pos]
    s1 = x * (a * a * x - b * b * y)
    clamped = s1 <= 0.0
    s1c = np.maximum(s1, 0.0)
    s2 = b * b * (a * a - 1.0) * x * y
    u = np.sqrt(s1c)
    v = np.sqrt(s2)
    w = u + v
    snr = w * w / (a * a * x * N)
    cp = 1.0 / (2.0 * LN2 * (1.0 + snr))
    with np.errstate(divide="ignore", invalid="ignore"):
        du1 = np.where(clamped, 0.0, (2.0 * a * a * x - b * b * y) / (2.0 * u))
        du2 = np.where(clamped, 0.0, -b * b * x / (2.0 * u))
        dv1 = np.where(s2 > 0.0, b * b * (a * a - 1.0) * y / (2.0 * v), 0.0)
        dv2 = np.where(s2 > 0.0, b * b * (a * a - 1.0) * x / (2.0 * v),
                       np.where((a > 1.0) & (x > 0.0), np.inf, 0.0))
    dw1 = du1 + dv1
    dw2 = du2 + dv2
    dsnr1 = w * (2.0 * dw1 * x - w) / (a * a * N * x * x)
    with np.errstate(invalid="ignore"):
        dsnr2 = 2.0 * w * dw2 / (a * a * x * N)
    origin = (w == 0.0)
    if np.any(origin):
        dsnr1 = np.where(origin, 1.0 / N, dsnr1)
        dsnr2 = np.where(origin, np.inf if a > 1.0 else 0.0, dsnr2)
    d1[pos] = cp * dsnr1
    d2[pos] = cp * dsnr2
    return d1, d2


def _weighted_rate_grad_reference(ch, p1, p2, lam):
    a, N = ch.a, ch.noise
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    q = max(1.0, a * a)
    dbc = q / (2.0 * LN2 * (N + q * p1))
    if a <= 1.0:
        z = np.zeros(np.broadcast_shapes(p1.shape, p2.shape, lam_arr.shape))
        return dbc + z, z.copy()
    dma1, dma2 = _multi_access_grad_reference(ch, p1, p2)
    d1 = lam_arr * dma1 + (1.0 - lam_arr) * dbc
    with np.errstate(invalid="ignore"):
        d2 = lam_arr * dma2
    return d1, np.where(lam_arr == 0.0, 0.0, d2)


def _exact(value):
    """Type, dtype, shape and bytes of a result (None stays None)."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if value is None:
        return None
    arr = np.asarray(value)
    return type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes()


def _outcome(fn, *args):
    try:
        return _exact(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


NAN, INF = float("nan"), float("inf")
# valid and invalid power arguments: NaN, +-inf, negative, -0.0, empty, 0-d
POWERS = [
    [1.0, 2.0], [0.0, 3.0], [-0.0], [-0.0, 2.0], 0.0, -0.0, 3.5,
    np.float64(2.0), [], np.array([]), [NAN], [1.0, NAN], NAN, [INF], INF,
    [2.0, -INF], [-1.0], -1e-300, [1.0, -1e-12], [[1.0, 2.0], [0.5, 0.0]], [1, 2],
]


class TestArgumentChecksMatchFullCheck:
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_as_power(self, allow_zero):
        from ehrelay.capacity import _as_power
        for x in POWERS:
            assert (_outcome(_as_power, x, "p1", allow_zero)
                    == _outcome(_as_power_reference, x, "p1", allow_zero)), x

    @pytest.mark.parametrize("a", [0.8, 1.0, 2.0])
    def test_weighted_args(self, a):
        from ehrelay.capacity import _weighted_args
        ch = ChannelParams(a=a, b=1.0, noise=1.0)
        lams = [[0.5, 1.0], [0.0, 0.0], [-0.0], 0.0, 1.0, np.float64(0.3), [],
                [NAN], NAN, [1.5], [-0.1, 0.2], [INF], [0.2, -INF],
                [1.0 + 1e-16, 1.0], [[0.0, 1.0], [0.5, 0.5]]]
        seen = set()
        for lam in lams:
            for p1, p2 in [([1.0, 2.0], [0.5, 0.0]), ([0.0, 1.0], [1.0, NAN]),
                           ([1.0, -1e-12], [0.0, 1.0]), ([1.0, 1.0], [-1.0, 0.0]),
                           ([INF, 1.0], [1.0, 1.0]), (0.0, -0.0), ([], [])]:
                got = _outcome(_weighted_args, ch, p1, p2, lam)
                assert got == _outcome(_weighted_args_reference, ch, p1, p2,
                                       lam), (lam, p1, p2)
                seen.add(got[0] if isinstance(got[0], type) else "ok")
        assert seen == {"ok", ValueError} | (
            {BranchUndefinedError} if a <= 1.0 else set())

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.4, 1.0), (2.7, 1.0),
                                      (2.0, 0.6)])
    def test_gradient_byte_equal_to_masked_form(self, a, b):
        # every p1 > 0 (whole arrays) and some p1 = 0 (masked), with clamped
        # radicands, p2 = 0, 0-d and broadcast arguments and zero weights
        ch = ChannelParams(a=a, b=b, noise=0.7)
        rng = np.random.default_rng(int(100 * a + 10 * b))
        seen = dict(whole=False, masked=False, clamped=False, flat=False)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            p1 = rng.uniform(0.01, 5.0, n)
            p2 = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.8)
            if rng.random() < 0.4:
                p1 *= rng.random(n) < 0.7
            if rng.random() < 0.3:  # clamped radicands: p2 > a^2*p1
                p2 = np.maximum(p2, a * a * p1 * rng.uniform(1.0, 3.0, n))
            lam = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
            args = [(p1, p2, lam), (p1[0], p2[0], lam[0]), (p1[0], p2, lam)]
            for x, y, w in args:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = _exact(weighted_rate_grad(ch, x, y, w))
                    ref = _exact(_weighted_rate_grad_reference(ch, x, y, w))
                assert got == ref, (x, y, w)
            seen["whole"] |= bool(np.all(p1 > 0.0))
            seen["masked"] |= bool(np.any(p1 == 0.0) and np.any(p1 > 0.0))
            seen["clamped"] |= bool(np.any((p1 > 0.0) & (p2 > a * a * p1)))
            seen["flat"] |= bool(np.any((p1 > 0.0) & (p2 == 0.0)))
        assert all(seen.values()), seen


class TestActiveRateKernel:
    @pytest.mark.parametrize("a, b", [(0.7, 1.0), (1.0, 1.0), (1.8, 1.0),
                                      (2.4, 0.6)])
    def test_kernel_equals_public_float_for_float(self, a, b):
        # p1 = 0, clamped radicands (p2 > a^2*p1), points on the branch
        # boundary p2 = (a^2-1)*p1, 0-d and broadcast arguments
        from ehrelay.capacity import _active_rate
        ch = ChannelParams(a=a, b=b, noise=0.8)
        rng = np.random.default_rng(int(100 * a + 10 * b))
        seen = dict(zero=False, clamped=False, boundary=False)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            p1 = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.8)
            p2 = rng.uniform(0.0, 5.0, n)
            pick = rng.random(n)
            p2 = np.where(pick < 0.3, (a * a - 1.0) * p1, p2)
            p2 = np.where(pick > 0.8, a * a * p1 * rng.uniform(1.0, 3.0, n),
                          p2)
            p2 = np.maximum(p2, 0.0)
            for x, y in [(p1, p2), (p1[0], p2[0]), (p1[:, None], p2[None, :])]:
                got = _active_rate(ch, np.asarray(x), np.asarray(y))
                assert isinstance(got, np.ndarray) or np.ndim(x) == 0
                assert _exact(np.asarray(got)) == _exact(
                    np.asarray(active_rate(ch, x, y))), (x, y)
            seen["zero"] |= bool(np.any(p1 == 0.0))
            seen["clamped"] |= bool(np.any((p1 > 0.0) & (p2 > a * a * p1)))
            seen["boundary"] |= bool(np.any((p1 > 0.0)
                                            & (p2 == (a * a - 1.0) * p1)))
        # the boundary lies at p2 >= 0 only for a >= 1
        want = {"zero", "clamped"} | ({"boundary"} if a >= 1.0 else set())
        assert want <= {k for k, v in seen.items() if v}, seen
