"""Closed-form schedules for special harvest profiles.

Three cases avoid the general min-max machinery:

* proportional harvests (e_relay = gamma * e_source at every event): the
  per-epoch rate is an AWGN capacity with a constant SNR slope, so the
  optimal source schedule is the classic string-tautening staircase and the
  relay simply scales it;
* only the relay harvests (source has one battery at t=0): the source runs
  flat at E/T and the relay schedule is the staircase capped at the power
  where the rate saturates;
* only the source harvests: the relay runs flat and the source schedule is
  the staircase of its own harvests.

The staircase recursion picks, from the current segment start, the reach
with the smallest average-energy slope (ties resolved to the farthest
reach); segment powers strictly increase and every interior breakpoint has
a tight cumulative-energy constraint.  The water-filling form
[1/(2*A) - 1/K]^+ is what KKT stationarity yields for these AWGN-slope
rates; it is exposed so the functional form can be tested directly.

Each special case returns the same Solution as :func:`solver.solve_minmax`,
built by the same code: multipliers from :func:`solver.recover_duals`
(nonnegative least squares) and the certificate of
:func:`solver.kkt_residual`.  Unlike solve_minmax, a closed form is labelled
converged whatever that certificate says.  The single-harvester schedules
are not always optimal (a flat spend of the single battery can be beaten),
and their kkt_residual then shows the shortfall.
"""

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .capacity import active_rate
from .profile import RELAY, SOURCE, proportionality, require_valid
from .solver import Allocation, _solution

__all__ = [
    "Breakpoints",
    "WaterfillConstants",
    "UnboundedPowerError",
    "staircase",
    "segment_powers",
    "waterfill_power",
    "k1_constant",
    "k2_constant",
    "relay_saturation_power",
    "solve_proportional",
    "solve_relay_only",
    "solve_source_only",
]


class UnboundedPowerError(ValueError):
    """Water-filling with a vanishing cumulative multiplier (vacuous dual)."""


@dataclass(frozen=True)
class Breakpoints:
    """Staircase segments: indices o_0=0 < ... < o_V = K+1 and one power per
    segment (strictly increasing)."""

    indices: tuple
    powers: tuple

    @property
    def n_segments(self):
        return len(self.powers)


def staircase(times, energies):
    """String-tautening schedule for one node.

    times has K+2 entries (the K+1 harvest instants followed by the horizon),
    energies has K+1 entries.  Works with any exact numeric type (fractions
    included); no floating-point is introduced beyond the inputs.

    Segment v reaches to the index with the smallest average slope
    sum(E[o_{v-1}:i]) / (t[i] - t[o_{v-1}]), farthest index on ties, and the
    segment power is that minimal slope.
    """
    n = len(energies)
    if len(times) != n + 1:
        raise ValueError("need len(times) == len(energies) + 1")
    for j in range(n):
        if energies[j] < 0:
            raise ValueError("energies must be nonnegative")
    for j in range(n):
        if not times[j + 1] > times[j]:
            raise ValueError("times must be strictly increasing")
    if all(e == 0 for e in energies):
        _warnings.warn("all harvests are zero; schedule is a single zero-power segment")
        return Breakpoints(indices=(0, n), powers=(energies[0] * 0,))

    indices = [0]
    powers = []
    start = 0
    while start < n:
        cum = energies[0] * 0  # zero of the input numeric type
        best_i = None
        best_ratio = None
        for i in range(start + 1, n + 1):
            cum = cum + energies[i - 1]
            ratio = cum / (times[i] - times[start])
            if best_ratio is None or ratio <= best_ratio:
                best_ratio = ratio
                best_i = i
        indices.append(best_i)
        powers.append(best_ratio)
        start = best_i
    return Breakpoints(indices=tuple(indices), powers=tuple(powers))


def segment_powers(bp, n_epochs):
    """Expand breakpoints to one power per epoch."""
    out = []
    for v in range(bp.n_segments):
        out.extend([bp.powers[v]] * (bp.indices[v + 1] - bp.indices[v]))
    if len(out) != n_epochs:
        raise ValueError("breakpoints cover %d epochs, expected %d"
                         % (len(out), n_epochs))
    return out


@dataclass(frozen=True)
class WaterfillConstants:
    """SNR slopes of the two rate regimes and per-epoch cumulative multipliers."""

    k1: float
    k2: float
    a: np.ndarray

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError("slopes must be positive")
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if np.any(self.a < 0):
            raise ValueError("cumulative multipliers must be nonnegative")


def waterfill_power(consts, regime):
    """Per-epoch power [1/(2*a_i) - 1/k]^+ for the chosen regime slope."""
    if regime == "K1":
        k = consts.k1
    elif regime == "K2":
        k = consts.k2
    else:
        raise ValueError("regime must be 'K1' or 'K2'")
    if np.any(consts.a == 0.0):
        raise UnboundedPowerError("zero cumulative multiplier leaves the power unbounded")
    return np.maximum(1.0 / (2.0 * consts.a) - 1.0 / k, 0.0)


def k1_constant(ch, gamma):
    """SNR slope of the proportional-ray rate in the relay-assisted regime:
    (sqrt(a^2 - b^2*gamma) + b*sqrt(gamma*(a^2-1)))^2 / (a^2*N), with the
    first radicand clamped at zero like the underlying rate formula."""
    a, b, N = ch.a, ch.b, ch.noise
    if a < 1.0:
        raise ValueError("relay-assisted slope requires a >= 1")
    r1 = max(a * a - b * b * gamma, 0.0)
    return (math.sqrt(r1) + b * math.sqrt(gamma * (a * a - 1.0))) ** 2 / (a * a * N)


def k2_constant(ch):
    """SNR slope of the broadcast-limited rate: max(1, a^2)/N."""
    return max(1.0, ch.a * ch.a) / ch.noise


def relay_saturation_power(ch, p_source):
    """Relay power beyond which more relay power cannot raise the rate.

    For a <= 1 the relay never helps (0).  Otherwise the relay-assisted
    bound, as a function of relay power at fixed source power P, peaks at

        p* = (a^2-1) * a^2 * P / (b^2 * (b^2 + a^2 - 1))

    capped at the branch-condition boundary (a^2-1)*P; for b = 1 the two
    coincide and the rate meets C(a^2*P/N) there.
    """
    a, b = ch.a, ch.b
    if a <= 1.0 or p_source <= 0.0:
        return 0.0
    boundary = (a * a - 1.0) * p_source
    interior = (a * a - 1.0) * a * a * p_source / (b * b * (b * b + a * a - 1.0))
    psat = min(boundary, interior)
    # if the flat branch beyond the boundary is strictly better (possible for
    # b != 1 where the two branches do not meet), saturate just beyond it
    just_past = np.nextafter(boundary, np.inf)
    if active_rate(ch, p_source, just_past) > active_rate(ch, p_source, psat):
        return float(just_past)
    return float(psat)


def solve_proportional(ch, profile, gamma):
    """Optimal schedule when e_relay = gamma * e_source at every event.

    The source follows its staircase, the relay scales it by gamma, and the
    active regime is decided globally by a >= sqrt(gamma + 1) (relay-assisted
    slope K1) versus the broadcast slope K2.
    """
    require_valid(profile)
    detected = proportionality(profile)
    if detected is None or not math.isclose(detected, gamma, rel_tol=1e-9):
        raise ValueError("profile is not proportional with gamma=%r (detected %r)"
                         % (gamma, detected))
    times = list(profile.times) + [profile.horizon]
    bp = staircase(times, list(profile.e_source))
    p1 = np.array(segment_powers(bp, profile.n_epochs), dtype=float)
    p2 = gamma * p1
    relay_assisted = ch.a > 1.0 and (ch.a * ch.a - 1.0) >= gamma
    lam = np.full(profile.n_epochs, 1.0 if relay_assisted else 0.0)
    return _solution(ch, profile, Allocation(p1=p1, p2=p2), lam)


def _single_battery_power(profile, node):
    e = profile.e_source if node == SOURCE else profile.e_relay
    bad = [i for i in range(len(e)) if e[i] > 0 and i > 0]
    if e[0] <= 0 or bad:
        raise ValueError(
            "%s must harvest exactly once at t=0; offending events: %s"
            % (node, bad if bad else [0]))
    return float(e[0] / profile.horizon)


def _single_harvester(ch, profile, node):
    """Only node harvests after t = 0; the other node spends its single
    battery flat, and node runs the staircase of its own harvests.  The relay
    staircase is capped at the saturation power, above which extra relay
    power cannot raise the rate (the excess energy is left unused)."""
    require_valid(profile)
    P = _single_battery_power(profile, RELAY if node == SOURCE else SOURCE)
    n = profile.n_epochs
    cap = relay_saturation_power(ch, P) if node == RELAY else np.inf
    if cap <= 0.0:
        p = np.zeros(n)
    else:
        times = list(profile.times) + [profile.horizon]
        e = profile.e_source if node == SOURCE else profile.e_relay
        p = np.minimum(np.array(segment_powers(staircase(times, list(e)), n),
                                dtype=float), cap)
    flat = np.full(n, P)
    p1, p2 = (p, flat) if node == SOURCE else (flat, p)
    # weight 1 exactly where capacity_min selects the multi-access branch
    lam = ((ch.a > 1.0) & ((ch.a * ch.a - 1.0) * p1 >= p2)).astype(float)
    return _solution(ch, profile, Allocation(p1=p1, p2=p2), lam)


def solve_relay_only(ch, profile):
    """Only the relay harvests; the source spends its single battery flat and
    the relay runs its staircase capped at the saturation power."""
    return _single_harvester(ch, profile, RELAY)


def solve_source_only(ch, profile):
    """Only the source harvests; the relay spends its single battery flat.

    Both rate branches increase with source power, so the source staircase
    needs no saturation cap."""
    return _single_harvester(ch, profile, SOURCE)
