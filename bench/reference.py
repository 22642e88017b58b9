"""Reference optimum and schedule checks for b = 1, built on numpy and scipy.

Nothing here imports ``ehrelay``: the formulas are written out from the
paper so that the benchmark can judge the package's schedules on its own.

For b = 1 and a > 1 the multi-access bound is

    R_ma = C( (sqrt(p1*(a^2*p1 - p2)) + sqrt((a^2-1)*p1*p2))^2 / (a^2*p1*N) )

and the broadcast bound is R_bc = C(max(1, a^2)*p1/N), C(x) = 0.5*log2(1+x).
R_ma <= R_bc wherever p2 <= a^2*p1 (Cauchy-Schwarz), with equality on the
branch boundary p2 = (a^2-1)*p1, so the optimal schedule maximizes
sum_i l_i*R_ma over the two causality polytopes plus the cone
p2 <= (a^2-1)*p1, a concave program.  For a <= 1 the rate is R_bc alone and
only the source schedule matters.
"""

import math

import numpy as np
import scipy.optimize

LN2 = math.log(2.0)

# a schedule may overspend a prefix by this share of the node's total energy
FEAS_RTOL = 1e-9
# total_bits must equal the recomputed throughput to this relative precision
BITS_RTOL = 1e-9
# a schedule's value must lie within this share of the reference optimum
VALUE_RTOL = 1e-6


def _c(snr):
    return 0.5 * np.log2(1.0 + snr)


def rate_ma(a, noise, p1, p2):
    """Multi-access bound for b = 1, the paper's formula; 0 at p1 = 0."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    w = (np.sqrt(np.maximum(p1 * (a * a * p1 - p2), 0.0))
         + np.sqrt((a * a - 1.0) * p1 * p2))
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(p1 > 0.0, w * w / (a * a * p1 * noise), 0.0)
    return _c(snr)


def rate_bc(a, noise, p1):
    return _c(max(1.0, a * a) * np.asarray(p1, dtype=float) / noise)


def rate(a, noise, p1, p2):
    """Per-epoch rate: R_ma where a > 1 and (a^2-1)*p1 >= p2, else R_bc."""
    p1 = np.maximum(np.asarray(p1, dtype=float), 0.0)
    p2 = np.maximum(np.asarray(p2, dtype=float), 0.0)
    if a <= 1.0:
        return rate_bc(a, noise, p1)
    return np.where((a * a - 1.0) * p1 >= p2, rate_ma(a, noise, p1, p2),
                    rate_bc(a, noise, p1))


def total_bits(inst, p1, p2):
    return float(np.sum(inst.lengths * rate(inst.a, inst.noise, p1, p2)))


def feasible(inst, p1, p2):
    """True when both power vectors respect nonnegativity and causality."""
    for p, caps in ((p1, inst.caps1), (p2, inst.caps2)):
        p = np.asarray(p, dtype=float)
        tol = FEAS_RTOL * max(1.0, float(caps[-1]))
        if p.shape != inst.lengths.shape or np.any(p < -tol):
            return False
        if np.any(np.cumsum(p * inst.lengths) > caps + tol):
            return False
    return True


def _start(lengths, caps):
    """A strictly feasible constant power: half the tightest prefix average."""
    return np.full(len(lengths), 0.5 * float(np.min(caps / np.cumsum(lengths))))


def optimum(inst):
    """(total bits, p1, p2) of an optimal schedule (scipy SLSQP).

    Requires positive first harvests for both nodes, so that every power can
    be strictly positive at the optimum.
    """
    if inst.b != 1.0:
        raise ValueError("the reference covers b = 1 only")
    if inst.caps1[0] <= 0.0 or inst.caps2[0] <= 0.0:
        raise ValueError("the reference needs positive first harvests")
    a, noise, l = inst.a, inst.noise, inst.lengths
    n = len(l)
    prefix = np.tril(np.ones((n, n))) * l[None, :]
    p1_0 = _start(l, inst.caps1)

    if a <= 1.0:
        q = max(1.0, a * a)

        def f(x):
            return -float(np.sum(l * _c(q * x / noise)))

        def g(x):
            return -l * q / (2.0 * LN2 * (noise + q * x))

        cons = [{"type": "ineq", "fun": lambda x: inst.caps1 - prefix @ x,
                 "jac": lambda x: -prefix}]
        x0 = p1_0
    else:
        k = a * a - 1.0
        p2_0 = np.minimum(_start(l, inst.caps2), k * p1_0)

        # R_ma for b = 1 with the factor p1 cancelled; identical for p1 > 0
        def parts(x):
            p1 = np.maximum(x[:n], 0.0)
            p2 = np.maximum(x[n:], 1e-300)
            u = np.sqrt(np.maximum(a * a * p1 - p2, 1e-300))
            v = np.sqrt(k * p2)
            return u, v, (u + v) ** 2 / (a * a * noise)

        def f(x):
            return -float(np.sum(l * _c(parts(x)[2])))

        def g(x):
            u, v, snr = parts(x)
            dc = l / (2.0 * LN2 * (1.0 + snr))
            d1 = (u + v) / (u * noise)
            d2 = (u + v) * (k / v - 1.0 / u) / (a * a * noise)
            return -np.concatenate([dc * d1, dc * d2])

        zero = np.zeros((n, n))
        cone = np.hstack([k * np.eye(n), -np.eye(n)])
        cons = [
            {"type": "ineq", "fun": lambda x: inst.caps1 - prefix @ x[:n],
             "jac": lambda x: np.hstack([-prefix, zero])},
            {"type": "ineq", "fun": lambda x: inst.caps2 - prefix @ x[n:],
             "jac": lambda x: np.hstack([zero, -prefix])},
            {"type": "ineq", "fun": lambda x: cone @ x,
             "jac": lambda x: cone},
        ]
        x0 = np.concatenate([p1_0, p2_0])

    res = scipy.optimize.minimize(f, x0, jac=g, constraints=cons,
                                  bounds=[(0.0, None)] * len(x0),
                                  method="SLSQP",
                                  options={"ftol": 1e-15, "maxiter": 1000})
    x = np.maximum(res.x, 0.0)
    p1 = x[:n]
    p2 = x[n:] if a > 1.0 else np.zeros(n)
    if not feasible(inst, p1, p2):
        raise RuntimeError("reference solve left the feasible set: %s"
                           % res.message)
    return total_bits(inst, p1, p2), p1, p2


def within(value, ref):
    """|value - ref| within VALUE_RTOL of the reference."""
    return abs(value - ref) <= VALUE_RTOL * max(1.0, abs(ref))


def short_of(value, ref):
    """value below the reference by more than VALUE_RTOL."""
    return value < ref - VALUE_RTOL * max(1.0, abs(ref))
