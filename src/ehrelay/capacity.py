"""Rate formulas for the full-duplex degraded Gaussian relay link.

The link model is Y1 = a*X1 + Z1 at the relay and Y2 = X1 + b*X2 + Z2 at the
destination, with the direct source-destination gain normalized to 1 and both
noises of power N.  With source power P1 and relay power P2 the achievable
rate is the smaller of two cut bounds:

* multi-access bound (everything arriving at the destination)::

      C( (sqrt(P1*(a^2*P1 - b^2*P2)) + sqrt(b^2*(a^2-1)*P1*P2))^2 / (a^2*P1*N) )

  valid while (a^2 - 1)*P1 >= P2 (relay power small relative to source),

* broadcast bound (what the relay can decode)::

      C( max(1, a^2) * P1 / N )      otherwise.

Rates are bits per second under a 1 Hz bandwidth convention, i.e.
C(x) = 0.5*log2(1 + x); multiplying a rate by an epoch length in seconds
gives bits.  All functions are pure and accept scalars or numpy arrays for
the power arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

MULTI_ACCESS = "multi_access_limited"
BROADCAST = "broadcast_limited"

__all__ = [
    "LN2",
    "MULTI_ACCESS",
    "BROADCAST",
    "BranchUndefinedError",
    "ChannelParams",
    "RateBranch",
    "c_awgn",
    "rate_multi_access",
    "rate_broadcast",
    "capacity_min",
    "active_rate",
    "branch_values",
    "weighted_rate",
    "weighted_rate_grad",
    "cap_relay_only",
    "cap_source_only",
    "cap_proportional",
]


class BranchUndefinedError(ValueError):
    """The multi-access branch was requested where its radicand is negative (a < 1)."""


@dataclass(frozen=True)
class ChannelParams:
    """Amplitude gains and noise power of the relay link.

    a is the source-relay gain, b the relay-destination gain, noise the
    per-receiver noise power in watts.  The source-destination gain is fixed
    to 1 by normalization.
    """

    a: float
    b: float
    noise: float

    def __post_init__(self):
        for name in ("a", "b", "noise"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError("ChannelParams.%s must be finite and > 0, got %r"
                                 % (name, getattr(self, name)))
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class RateBranch:
    """Both cut-bound values at one operating point plus the active one.

    multi_access is None when a < 1 (the branch is undefined there).  The tag
    records which bound the branch condition selects; for b = 1 inside the
    condition region the active value provably equals the minimum of the two.
    """

    tag: str
    multi_access: float | None
    broadcast: float

    @property
    def active(self):
        if self.tag == MULTI_ACCESS:
            return self.multi_access
        return self.broadcast


def _as_power(x, name, allow_zero=True):
    arr = np.asarray(x, dtype=float)
    # valid input passes on its min and max alone; NaN fails both tests, and
    # empty, non-finite, negative or zero input takes the full check below
    if arr.size:
        lo = arr.min()
        if lo >= 0.0 and arr.max() < np.inf and (allow_zero or lo > 0.0):
            return arr
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s must be finite" % name)
    if np.any(arr < 0.0):
        raise ValueError("%s must be nonnegative" % name)
    if not allow_zero and np.any(arr == 0.0):
        raise ValueError("%s must be positive" % name)
    return arr


def _maybe_scalar(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def c_awgn(snr):
    """AWGN capacity 0.5*log2(1 + snr) in bits per channel use.

    Strictly increasing and strictly concave; c_awgn(0) = 0.  Raises on
    negative or non-finite input.
    """
    x = np.asarray(snr, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("snr must be finite")
    if np.any(x < 0.0):
        raise ValueError("snr must be nonnegative")
    return _maybe_scalar(0.5 * np.log2(1.0 + x), snr)


def _multi_access_snr(ch, p1, p2):
    """SNR argument of the multi-access bound, with the radicand clamp.

    p1*(a^2*p1 - b^2*p2) is clamped at 0 where negative so the expression
    stays real and continuous; the value at p1 = 0 is fixed to 0 (continuous
    limit from inside the branch condition region).
    """
    a, b, N = ch.a, ch.b, ch.noise
    s1 = np.maximum(p1 * (a * a * p1 - b * b * p2), 0.0)
    s2 = b * b * (a * a - 1.0) * p1 * p2
    w = np.sqrt(s1) + np.sqrt(s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = w * w / (a * a * p1 * N)
    return np.where(p1 > 0.0, snr, 0.0)


def _branch_rates(ch, p1, p2):
    """(multi_access, broadcast) rates of finite nonnegative powers, unchecked.

    multi_access is None for a < 1, where it is undefined, and when p2 is
    None.  Every public rate function evaluates its bounds here after its
    own argument checks.
    """
    bc = 0.5 * np.log2(1.0 + max(1.0, ch.a * ch.a) * p1 / ch.noise)
    if ch.a < 1.0 or p2 is None:
        return None, bc
    return 0.5 * np.log2(1.0 + _multi_access_snr(ch, p1, p2)), bc


def rate_multi_access(ch, p1, p2):
    """Multi-access cut bound in bits/s.

    Requires a >= 1; for a < 1 the inner square root has no real value and a
    BranchUndefinedError is raised.  p1 = 0 returns 0 by the limit convention.
    """
    if ch.a < 1.0:
        raise BranchUndefinedError(
            "multi-access bound undefined for a=%g < 1" % ch.a)
    p1 = _as_power(p1, "p1")
    p2 = _as_power(p2, "p2")
    return _maybe_scalar(_branch_rates(ch, p1, p2)[0], p1, p2)


def rate_broadcast(ch, p1):
    """Broadcast cut bound C(max(1, a^2)*p1/N) in bits/s."""
    p1 = _as_power(p1, "p1")
    return _maybe_scalar(_branch_rates(ch, p1, None)[1], p1)


def branch_values(ch, p1, p2):
    """Vectorized (multi_access, broadcast) values; multi_access is NaN for a < 1."""
    if ch.a < 1.0:
        bc = rate_broadcast(ch, p1)
        return np.full_like(np.asarray(bc, dtype=float), np.nan), bc
    p1a = _as_power(p1, "p1")
    p2a = _as_power(p2, "p2")
    ma, bc = _branch_rates(ch, p1a, p2a)
    return _maybe_scalar(ma, p1a, p2a), _maybe_scalar(bc, p1a)


def capacity_min(ch, p1, p2):
    """Active cut bound at one operating point, with both branch values.

    The multi-access branch is active when a > 1 and (a^2-1)*p1 >= p2
    (vacuously so at p2 = 0); otherwise the broadcast branch is.  For a < 1
    the multi-access value is reported as None.
    """
    p1 = float(_as_power(p1, "p1"))
    p2 = float(_as_power(p2, "p2"))
    ma, bc = _branch_rates(ch, p1, p2)
    ma = None if ma is None else float(ma)
    if ch.a > 1.0 and (ch.a * ch.a - 1.0) * p1 >= p2:
        return RateBranch(MULTI_ACCESS, ma, float(bc))
    return RateBranch(BROADCAST, ma, float(bc))


def _active_rate(ch, p1, p2):
    """Active cut bound of finite nonnegative power arrays, unchecked.

    :func:`active_rate` evaluates here after its argument checks; callers
    whose powers are valid by construction call it directly.
    """
    if ch.a <= 1.0:
        return _branch_rates(ch, p1, None)[1] + 0.0 * p2
    ma, bc = _branch_rates(ch, p1, p2)
    return np.where((ch.a * ch.a - 1.0) * p1 >= p2, ma, bc)


def active_rate(ch, p1, p2):
    """Vectorized active cut bound (the rate actually achieved)."""
    p1a = _as_power(p1, "p1")
    p2a = _as_power(p2, "p2")
    return _maybe_scalar(_active_rate(ch, p1a, p2a), p1, p2)


def _weighted_args(ch, p1, p2, lam):
    """The argument checks of :func:`weighted_rate`: (p1, p2, lam) as float
    arrays, p2 unchecked for a <= 1, where the broadcast bound ignores it."""
    lam_arr = np.asarray(lam, dtype=float)
    # weights in [0, 1] pass on their min and max alone; NaN fails both
    # tests, and empty or out-of-range weights take the full check
    valid = lam_arr.size and lam_arr.min() >= 0.0 and lam_arr.max() <= 1.0
    if not valid and (np.any(lam_arr < 0.0) or np.any(lam_arr > 1.0)
                      or not np.all(np.isfinite(lam_arr))):
        raise ValueError("lam must lie in [0, 1]")
    if ch.a <= 1.0:
        if np.any(lam_arr > 0.0):
            raise BranchUndefinedError(
                "lam > 0 requires a > 1 (multi-access bound undefined)")
        return _as_power(p1, "p1"), None, lam_arr
    return _as_power(p1, "p1"), _as_power(p2, "p2"), lam_arr


def weighted_rate(ch, p1, p2, lam):
    """Convex combination lam*multi_access + (1-lam)*broadcast, lam in [0, 1].

    lam > 0 with a <= 1 is rejected: there the multi-access branch plays no
    role and schedules must place all weight on the broadcast bound.
    """
    p1a, p2a, lam_arr = _weighted_args(ch, p1, p2, lam)
    ma, bc = _branch_rates(ch, p1a, p2a)
    if ma is None:
        return _maybe_scalar(bc, p1)
    return _maybe_scalar(lam_arr * ma + (1.0 - lam_arr) * bc, p1, p2, lam)


def _multi_access_grad(ch, p1, p2):
    """Elementwise (d/dp1, d/dp2) of the multi-access bound.

    Uses the clamp subgradient 0 for the clamped radicand.  At p2 = 0 (a > 1)
    the p2-derivative is +inf (square-root marginal); at p1 = 0 both partials
    are reported as 0, matching the fixed value at that point.  The whole
    arrays are differentiated, so every positive entry gets the floats it
    would get alone; entries with p1 <= 0 (whose NaN and inf are silenced
    here) are then set to 0.  The clamp and p2 = 0 cases are selected only
    where they occur.
    """
    a, b, N = ch.a, ch.b, ch.noise
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        p1, p2 = np.broadcast_arrays(p1, p2)
    x, y = p1, p2

    with np.errstate(divide="ignore", invalid="ignore"):
        a2x = a * a * x
        b2y = b * b * y
        cx = b * b * (a * a - 1.0) * x
        s1 = x * (a2x - b2y)
        s2 = cx * y
        u = np.sqrt(np.maximum(s1, 0.0))
        v = np.sqrt(s2)
        w = u + v
        a2xn = a2x * N
        snr = w * w / a2xn
        cp = 1.0 / (2.0 * LN2 * (1.0 + snr))

        u2 = 2.0 * u
        du1 = (2.0 * a * a * x - b2y) / u2
        du2 = -b * b * x / u2
        clamped = s1 <= 0.0
        if clamped.any():
            du1 = np.where(clamped, 0.0, du1)
            du2 = np.where(clamped, 0.0, du2)
        v2 = 2.0 * v
        dv1 = b * b * (a * a - 1.0) * y / v2
        dv2 = cx / v2
        flat = ~(s2 > 0.0)
        if flat.any():
            dv1 = np.where(flat, 0.0, dv1)
            # d sqrt(c*x*y)/dy at y=0 is +inf for x > 0 and a > 1
            dv2 = np.where(flat, np.where((a > 1.0) & (x > 0.0), np.inf, 0.0),
                           dv2)
        dw1 = du1 + dv1
        dw2 = du2 + dv2
        dsnr1 = w * (2.0 * dw1 * x - w) / (a * a * N * x * x)
        dsnr2 = 2.0 * w * dw2 / a2xn
        # w = 0 with y = 0 (fresh origin): inf * 0 above; the limit slope
        # is finite
        origin = (w == 0.0)
        if origin.any():
            dsnr1 = np.where(origin, 1.0 / N, dsnr1)
            dsnr2 = np.where(origin, np.inf if a > 1.0 else 0.0, dsnr2)
        d1 = cp * dsnr1
        d2 = cp * dsnr2
    pos = p1 > 0.0
    if pos.all():
        return d1, d2
    return np.where(pos, d1, 0.0), np.where(pos, d2, 0.0)


def weighted_rate_grad(ch, p1, p2, lam):
    """Elementwise gradient of weighted_rate with respect to (p1, p2).

    Vectorized; returns arrays matching the broadcast shape of the inputs.
    Entries can be +inf where the multi-access marginal diverges (p2 = 0 with
    positive weight); callers that need finite ascent directions should floor
    p2 before differentiating.
    """
    a, N = ch.a, ch.noise
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    q = max(1.0, a * a)
    dbc = q / (2.0 * LN2 * (N + q * p1))
    if a <= 1.0:
        z = np.zeros(np.broadcast_shapes(p1.shape, p2.shape, lam_arr.shape))
        return dbc + z, z.copy()
    dma1, dma2 = _multi_access_grad(ch, p1, p2)
    d1 = lam_arr * dma1 + (1.0 - lam_arr) * dbc
    with np.errstate(invalid="ignore"):
        d2 = lam_arr * dma2
    # 0 * inf at lam = 0: the broadcast bound does not involve p2
    d2 = np.where(lam_arr == 0.0, 0.0, d2)
    return d1, d2


def cap_relay_only(ch, p_fixed, p2):
    """Rate when the source runs at fixed power p_fixed and the relay at p2."""
    return capacity_min(ch, p_fixed, p2).active


def cap_source_only(ch, p1, p_fixed):
    """Rate when the relay runs at fixed power p_fixed and the source at p1."""
    return capacity_min(ch, p1, p_fixed).active


def cap_proportional(ch, p1, gamma):
    """Rate along the ray p2 = gamma*p1 (identical harvest shapes)."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be finite and > 0")
    return capacity_min(ch, p1, gamma * p1).active
