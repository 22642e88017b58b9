"""Schedule solver for b = 1 with KKT certification.

The delivered rate of an epoch is min(R_ma, R_bc), so the schedule problem
is a min-max.  For b = 1, Cauchy-Schwarz gives R_ma <= R_bc wherever
p2 <= a^2*p1, with equality on the cone boundary p2 = (a^2-1)*p1, where
dR_ma/dp2 = 0.  The optimal schedule therefore maximizes the concave program

    sum_i l_i * R_ma(p1_i, p2_i)

over the two energy-causality polytopes (one per node: every prefix of the
consumed energy stays below the harvested prefix, powers are nonnegative)
and the cone p2 <= (a^2-1)*p1.  :func:`solve_minmax` first repairs the
per-node staircase start exactly onto the feasible set and returns it when
the certificate below accepts it at tol_inner; proportional harvests and
many others need nothing more.  Otherwise it solves the program through its
dual (:func:`_dual_program`): each epoch's best powers at the prices of its
prefix multipliers have a closed form, and the multipliers are found by
projected Newton; the powers at the dual optimum are repaired the same
way.  If a <= 1 the rate is R_bc(p1) alone and the source staircase is
exact.

The weights of the min-max form are lambda_i = 1 on every epoch (a > 1) or
0 (a <= 1): inside the cone R_ma < R_bc, and on its boundary dR_ma/dp1 =
dR_bc/dp1 and dR_ma/dp2 = 0, so the lambda = 1 stationarity system is the
concave program's own.  Duals are fitted to that system by least squares
under dual feasibility and the certificate is recomputed independently by
:func:`kkt_residual`; since the weighted objective is concave and bounds
min(R_ma, R_bc) from above, a small residual certifies global optimality.
The fit and the projection onto a causality polytope solve one problem, a
nonincreasing, nonnegative suffix price per node that steps down only at
tight prefixes, with one exact pool-adjacent-violators routine (:func:`_pav`).

Every candidate schedule is checked and certified by :func:`_audit` (one
gradient evaluation, one dual fit, one KKT report) before
:func:`_assemble` rates it, so only the returned schedule becomes a
Solution.  The profile's epoch lengths and caps come from its read-only
cache, and the feasibility, power and weight checks accept valid input on
one min/max pass; anything else takes the full check, which names the
fault.

:func:`solve_inner` maximizes the weighted throughput
sum_i l_i*[lambda_i*R_ma + (1-lambda_i)*R_bc] for arbitrary per-epoch
weights lambda_i in [0, 1]; it serves the envelope-convexity checks.  R_bc
does not depend on p2 and R_ma does not rise in p2 beyond the cone, so for
every lambda an optimum lies in the cone and the weighted problem is the
same concave program with a weighted objective.  Both solvers run it
through one core: start, certificate, then the dual core, whose per-epoch
best powers are in closed form when every weight is 1 and the root of two
scalar stationarity conditions otherwise.

The solver needs numpy only.  The dual core uses elementwise numpy,
cumulative sums and one least-squares solve on the free multipliers per
iteration, so on small profiles (and every profile tested) the power bytes
of :func:`solve_minmax` and :func:`solve_inner` do not depend on the BLAS
thread count.
"""

import math
import warnings as _warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import (
    BROADCAST,
    LN2,
    MULTI_ACCESS,
    BranchUndefinedError,
    RateBranch,
    _branch_rates,
    _weighted_args,
    branch_values,
    weighted_rate,
    weighted_rate_grad,
)
from .profile import RELAY, SOURCE, ProfileError, _node_arrays, require_valid

FEASIBILITY_RTOL = 1e-9

__all__ = [
    "Allocation",
    "DualVariables",
    "KktReport",
    "IterationCounters",
    "Solution",
    "SolverConfig",
    "FeasibilityError",
    "evaluate_schedule",
    "project_causality",
    "solve_inner",
    "solve_minmax",
    "recover_duals",
    "kkt_residual",
    "invariant_report",
]


class FeasibilityError(ValueError):
    """An allocation violates energy causality; .violations lists prefixes."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Allocation:
    """Per-epoch transmit powers (watts) for source (p1) and relay (p2)."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p1", np.array(self.p1, dtype=float))
        object.__setattr__(self, "p2", np.array(self.p2, dtype=float))
        if self.p1.shape != self.p2.shape or self.p1.ndim != 1:
            raise ValueError("p1 and p2 must be 1-d arrays of equal length")


@dataclass(frozen=True)
class DualVariables:
    """Multipliers of the schedule program.

    xi / mu: one per prefix causality constraint of the source / relay
    (k = 1..K+1; the final prefix needs a multiplier for stationarity to
    close, since the rate is strictly increasing in the last epoch).
    vartheta / eta: multipliers of the p >= 0 bounds.
    """

    xi: np.ndarray
    mu: np.ndarray
    vartheta: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name in ("xi", "mu", "vartheta", "eta"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))

    @classmethod
    def zeros(cls, n):
        z = np.zeros(n)
        return cls(z.copy(), z.copy(), z.copy(), z.copy())


@dataclass(frozen=True)
class KktReport:
    """Independent certificate residuals: all three must be small to certify."""

    stationarity: float
    slackness: float
    feasibility: float

    @property
    def max(self):
        return max(self.stationarity, self.slackness, self.feasibility)

    def certified(self, tol):
        return self.max <= tol


@dataclass(frozen=True)
class IterationCounters:
    """What :func:`solve_minmax` ran.  inner_solves is 1 when the dual core
    ran and 0 when the staircase start certified (always for a <= 1);
    inner_gradients counts the dual core's Newton iterations.  outer is
    always 0: b = 1 solves need no outer weight loop.  Closed forms report
    all zeros."""

    outer: int = 0
    inner_solves: int = 0
    inner_gradients: int = 0


@dataclass(frozen=True)
class Solution:
    """A solved schedule plus everything needed to audit it."""

    allocation: Allocation
    lam: np.ndarray
    rates: tuple
    total_bits: float
    duals: DualVariables
    kkt: KktReport
    minmax_gap: float
    iterations: IterationCounters
    converged: bool
    objective_weighted: float
    warnings: tuple = ()

    @property
    def kkt_residual(self):
        return self.kkt.max


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps; every solve is deterministic, so there
    is no random seed.

    tol_inner bounds the KKT residual of a certified schedule and tol_outer
    its min-max gap (certified when the gap is <= 10*tol_outer).
    max_iter_inner caps the dual core's Newton iterations, under any
    weights.  max_iter_outer has no effect on b = 1 solves, which need no
    outer weight loop; it is accepted so that existing configurations keep
    working.
    """

    tol_inner: float = 1e-7
    tol_outer: float = 1e-5
    max_iter_inner: int = 4000
    max_iter_outer: int = 200

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is rejected
        if not (self.tol_inner > 0 and self.tol_outer > 0):
            raise ValueError("tolerances must be positive")
        if not (self.max_iter_inner >= 1 and self.max_iter_outer >= 1):
            raise ValueError("iteration caps must be >= 1")


# ---------------------------------------------------------------------------
# Schedule evaluation


def _lengths_caps(profile):
    """Epoch lengths and the cumulative harvests (c1, c2) of source and
    relay, prefix k = 1..K+1, from the profile's read-only cache."""
    _, l, _, c1 = _node_arrays(profile, SOURCE)
    return l, (c1, _node_arrays(profile, RELAY)[3])


def _spends(alloc, l):
    """Cumulative energy spent by source and relay, prefix k = 1..K+1."""
    return (alloc.p1 * l).cumsum(), (alloc.p2 * l).cumsum()


def feasibility_violations(profile, alloc, rtol=FEASIBILITY_RTOL):
    """Human-readable list of violated prefix constraints (empty if feasible)."""
    l, caps = _lengths_caps(profile)
    return _violations(alloc, caps, _spends(alloc, l), rtol)


def _violations(alloc, caps, spends, rtol=FEASIBILITY_RTOL):
    """:func:`feasibility_violations` from the caps and spends of alloc."""
    out = []
    for node, p, c, spend in zip((SOURCE, RELAY), (alloc.p1, alloc.p2),
                                 caps, spends):
        scale = max(1.0, c[-1])
        excess = spend - c
        # a feasible node passes on one min and one max (NaN fails both)
        if p.size and p.min() >= -rtol * scale and excess.max() <= rtol * scale:
            continue
        if np.any(p < -rtol * scale):
            out.append("%s power negative at epoch %d"
                       % (node, int(np.argmin(p)) + 1))
        for k in np.flatnonzero(excess > rtol * scale):
            out.append("%s prefix %d overspent by %.6g J" % (node, k + 1, excess[k]))
    return out


def _feasible(profile, alloc):
    """(epoch lengths, caps, spends) of alloc once the profile is valid and
    alloc feasible; FeasibilityError lists every violated prefix."""
    require_valid(profile, allow_degenerate=True)
    l, caps = _lengths_caps(profile)
    if alloc.p1.shape != l.shape:
        raise ValueError("allocation has %d epochs, profile has %d"
                         % (alloc.p1.size, l.size))
    spends = _spends(alloc, l)
    violations = _violations(alloc, caps, spends)
    if violations:
        raise FeasibilityError(violations)
    return l, caps, spends


def evaluate_schedule(ch, profile, alloc):
    """Total bits and the per-epoch rate branches of a feasible allocation.

    total_bits = sum_i active_rate(p1_i, p2_i) * l_i.  Infeasible allocations
    raise FeasibilityError listing every violated prefix.
    """
    return _epoch_rates(ch, _feasible(profile, alloc)[0], alloc)


def _epoch_rates(ch, l, alloc):
    """Total bits and per-epoch rate branches, negative powers read as 0;
    feasibility is not checked.

    One :func:`branch_values` call rates every epoch.  The branch test and
    the values are those of :func:`capacity_min` epoch by epoch (the
    multi-access value is None for a < 1), and the total is summed in epoch
    order, so both match a per-epoch capacity_min loop bit for bit.
    """
    p1 = np.maximum(alloc.p1, 0.0)
    p2 = np.maximum(alloc.p2, 0.0)
    return _tally(ch, l, p1, p2, *branch_values(ch, p1, p2))


def _tally(ch, l, p1, p2, ma, bc):
    """(total bits, per-epoch RateBranch list) from the branch values ma and
    bc of the nonnegative powers p1, p2; ma is ignored for a < 1."""
    ma = [None] * len(l) if ch.a < 1.0 else ma.tolist()
    use_ma = (ch.a > 1.0) & ((ch.a * ch.a - 1.0) * p1 >= p2)
    rates = []
    total = 0  # summed in epoch order
    for m, x, y, li in zip(use_ma.tolist(), ma, bc.tolist(), l.tolist()):
        rates.append(RateBranch(MULTI_ACCESS if m else BROADCAST, x, y))
        total += (x if m else y) * li
    return float(total), rates


# ---------------------------------------------------------------------------
# Pool adjacent violators: the projection and the dual fit


def _level(l, y, budget, fixed):
    """The W solving sum l*(y - l*W) = budget over the active terms of the
    float lists l, y: fixed ones always, the others while W < y/l, joining
    from the highest y/l down; the smallest such W where the sum is flat."""
    a = b = 0.0
    free = []
    for li, yi, f in zip(l, y, fixed):
        if f:
            a += li * li
            b += li * yi
        else:
            free.append((yi / li, li, yi))
    for t, li, yi in sorted(free, reverse=True):
        if b - a * t >= budget:
            return (b - budget) / a if a else t
        a += li * li
        b += li * yi
    return (b - budget) / a if a else -math.inf


def _pav(blocks, price):
    """Pool adjacent violators over consecutive index ranges (start, stop):
    a pool absorbs the one before it, and is re-priced by price(start,
    stop), while its price exceeds that one's.  Returns (start, stop, price)
    per pool, prices nonincreasing."""
    pools = []
    for s, e in blocks:
        w = price(s, e)
        while pools and w > pools[-1][2]:
            s = pools.pop()[0]
            w = price(s, e)
        pools.append((s, e, w))
    return pools


def project_causality(p, lengths, caps):
    """Euclidean projection onto {x >= 0, cumsum(x*lengths) <= caps}.

    x_i = max(0, p_i - l_i*U_i) with U the suffix sum of the prefix
    multipliers; :func:`_pav` finds U exactly from one block per epoch, each
    pool spending its harvest at the price of :func:`_level`, clipped at 0.
    A point already inside is returned as it is (-0.0 read as 0.0).
    """
    x = np.array(p, dtype=float)
    if _inside(x, lengths, caps):
        return x + 0.0
    l, y = np.asarray(lengths, dtype=float).tolist(), x.tolist()
    c = [0.0] + np.asarray(caps, dtype=float).tolist()
    u = np.zeros(len(l))
    for s, e, w in _pav(((i, i + 1) for i in range(len(l))), lambda s, e: _level(
            l[s:e], y[s:e], c[e] - c[s], [False] * (e - s))):
        u[s:e] = max(w, 0.0)
    return np.maximum(x - lengths * u, 0.0)


def _inside(x, lengths, caps):
    """Whether x holds one finite, nonnegative power per epoch and no prefix
    k has x[:k+1] @ lengths[:k+1] > caps[k]."""
    if not (x.shape == (len(lengths),) and x.size and x.min() >= 0.0
            and x.max() < np.inf):
        return False
    return all(float(x[: k + 1] @ lengths[: k + 1]) <= caps[k]
               for k in range(len(lengths)))


# ---------------------------------------------------------------------------
# KKT system


def _true_gradients(ch, l, lam, p1, p2):
    """Objective gradient (bits per watt) used by the independent certificate."""
    d1, d2 = weighted_rate_grad(ch, p1, p2, lam)
    return l * d1, l * d2


def _nodes(alloc, caps, spends):
    """Per node (powers, caps, prefix slack spend - caps, kept epochs): what
    the dual fit and the KKT report both read.  An epoch whose cumulative cap
    is 0 is not kept: its power is forced to 0 and has no finite multiplier,
    the rate's slope being unbounded at 0."""
    return [(p, c, spend - c, ~(c <= 0.0))
            for p, c, spend in zip((alloc.p1, alloc.p2), caps, spends)]


def kkt_residual(ch, profile, alloc, duals, lam):
    """Recompute the three certificate residuals from primal and dual values.

    stationarity: inf-norm of the Lagrangian gradient
        l_i*dr/dp - (sum_{k>=i} xi_k)*l_i + vartheta_i  (per node),
        plus, at a kept source epoch with p1_i <= 0, lam_i > 0 and a > 1,
        the gain l_i*max(0, S_i(t) - U_i - V_i*t) of its best direction
        (1, t): the gradient reads 0 there, which vartheta_i would absorb.
        U, V are the suffix sums of xi, mu, S_i(t) = [lam_i*g(t) +
        (1-lam_i)*a^2]/(2 ln2 N) is the rate's slope at 0 along (1, t),
        g(t) = (sqrt(a^2-t) + sqrt((a^2-1)*t))^2/a^2, and t = a^2*sin^2(th)
        with th = atan2(2*sqrt(a^2-1), c*a^2 - a^2 + 2)/2, c =
        2 ln2 N*V_i/lam_i, clipped to [0, a^2-1]; t = 0 where the relay's
        cap is 0;
    slackness: largest |multiplier * constraint slack|;
    feasibility: largest primal violation or dual negativity.

    Computed from scratch; shares nothing with the solver iterations.
    """
    l, caps = _lengths_caps(profile)
    lam = np.asarray(lam, dtype=float)
    spends = _spends(alloc, l)
    grads = _true_gradients(ch, l, lam, alloc.p1, alloc.p2)
    return _kkt_report(ch, l, lam, _nodes(alloc, caps, spends), duals, grads)


def _kkt_report(ch, l, lam, nodes, duals, grads):
    """:func:`kkt_residual` from the :func:`_nodes` terms and the objective
    gradients grads of the allocation under the weights lam."""
    (p1, _, slack1, keep1), (p2, _, slack2, keep2) = nodes
    g1, g2 = grads

    # epoch i pays l_i times the sum of the prefix multipliers k >= i
    U = duals.xi[::-1].cumsum()[::-1]
    V = duals.mu[::-1].cumsum()[::-1]
    st1 = g1 - l * U + duals.vartheta
    st2 = g2 - l * V + duals.eta
    if ch.a > 1.0 and not (p1 > 0.0).all():
        idle = keep1 & ~(p1 > 0.0) & (lam > 0.0)
        st1 = st1 + np.where(idle, _idle_gain(ch, l, lam, U, V, keep2), 0.0)
    stat_terms = np.concatenate([st1[keep1], st2[keep2]])
    stationarity = float(np.abs(stat_terms).max()) if stat_terms.size else 0.0

    slack_products = np.concatenate([
        duals.xi * slack1,
        duals.mu * slack2,
        (duals.vartheta * p1)[keep1],
        (duals.eta * p2)[keep2],
    ])
    slackness = (float(np.abs(slack_products).max()) if slack_products.size
                 else 0.0)

    feas = max(float(v.max()) for v in (slack1, slack2, -p1, -p2))
    dual_neg = -min(0.0, *(float(v.min()) for v in
                           (duals.xi, duals.mu, duals.vartheta, duals.eta)))
    feasibility = max(0.0, feas, dual_neg)
    return KktReport(stationarity=stationarity, slackness=slackness,
                     feasibility=feasibility)


def _idle_gain(ch, l, lam, U, V, relay):
    """Per epoch, the gain l*max(0, S(t) - U - V*t) of starting to send
    along the best direction (1, t) (:func:`kkt_residual`); relay marks the
    epochs whose relay cap is positive."""
    a2 = ch.a ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * LN2 * ch.noise * V / lam
        th = 0.5 * np.arctan2(2.0 * math.sqrt(a2 - 1.0), c * a2 - a2 + 2.0)
        t = np.where(relay, np.clip(a2 * np.sin(th) ** 2, 0.0, a2 - 1.0), 0.0)
        g = (np.sqrt(a2 - t) + np.sqrt((a2 - 1.0) * t)) ** 2 / a2
        slope = (lam * g + (1.0 - lam) * a2) / (2.0 * LN2 * ch.noise)
        return l * np.maximum(slope - U - V * t, 0.0)


def recover_duals(ch, profile, alloc, lam):
    """Fit multipliers to the stationarity system by least squares under
    dual feasibility, exactly (:func:`_fit_duals`).  Only constraints active
    at the primal point receive a multiplier (inactive ones keep 0, which
    makes their slackness products vanish identically)."""
    l, caps = _lengths_caps(profile)
    lam = np.asarray(lam, dtype=float)
    spends = _spends(alloc, l)
    grads = _true_gradients(ch, l, lam, alloc.p1, alloc.p2)
    return _fit_duals(l, _nodes(alloc, caps, spends), grads)


def _fit_duals(l, nodes, grads):
    """:func:`recover_duals` from the :func:`_nodes` terms and the objective
    gradients grads of the allocation.

    Per node, the suffix price U_i = sum_{k>=i} xi_k is shared by the kept
    epochs between active prefixes, is 0 after the last and is fitted by
    :func:`_pav` at budget 0.  An epoch with p > 0 costs (g - l*U)^2, one at
    an active zero bound max(0, g - l*U)^2 with vartheta = max(0, l*U - g).
    Eliminated epochs (cap 0) lead, as caps do not fall, and are dropped.
    A node with no active constraint or kept epoch, or a non-finite
    gradient, keeps zero multipliers."""
    n = len(l)
    lf = l.tolist()
    mults = []
    for node, g in zip(nodes, grads):
        prefix_mult, zero_mult = [0.0] * n, [0.0] * n
        mults += [prefix_mult, zero_mult]
        first, ends, positive = _active(*node)
        gf = g.tolist()
        at_zero = [i for i in range(first, n) if not positive[i]]
        if not (ends or at_zero) or not all(map(math.isfinite, gf[first:])):
            continue
        u = [0.0] * (n + 1)
        for s, e, w in _pav(zip([first] + ends[:-1], ends), lambda s, e: _level(
                lf[s:e], gf[s:e], 0.0, positive[s:e])):
            u[s:e] = [max(w, 0.0)] * (e - s)
        for e in ends:
            prefix_mult[e - 1] = u[e - 1] - u[e]
        for i in at_zero:
            zero_mult[i] = max(lf[i] * u[i] - gf[i], 0.0)
    return DualVariables(xi=mults[0], vartheta=mults[1],
                         mu=mults[2], eta=mults[3])


def _active(p, c, slack, keep):
    """One node's active set from its :func:`_nodes` terms, as the dual fit
    reads it: (first kept epoch, the ends k+1 of the prefixes from there on
    with |slack| <= 1e-7*max(1, c[-1]), whether each epoch's power is
    positive: kept and above 1e-9*max(1, max p))."""
    kept = keep.tolist()
    first = kept.index(True) if True in kept else len(kept)
    tol = 1e-7 * max(1.0, float(c[-1]))
    ends = [k + 1 for k, v in enumerate(slack.tolist())
            if k >= first and abs(v) <= tol]
    p_tol = 1e-9 * max(1.0, float(p.max()))
    return first, ends, [k >= first and not v <= p_tol
                         for k, v in enumerate(p.tolist())]


# ---------------------------------------------------------------------------
# Staircase start and the dual core


def _warm_start(profile):
    """Each node's staircase powers, zero for a node that never harvests
    (skipped before :func:`closed_form.staircase` could warn about it)."""
    from .closed_form import staircase, segment_powers
    p = []
    for node in (SOURCE, RELAY):
        times, _, e, _ = _node_arrays(profile, node)
        if not e.any():
            p.append(np.zeros(profile.n_epochs))
            continue
        bp = staircase(times.tolist() + [profile.horizon], e.tolist())
        p.append(np.array(segment_powers(bp, profile.n_epochs), dtype=float))
    return p[0], p[1]


def _certificate(ch, l, alloc, lam, caps, spends):
    """(duals, KktReport) of alloc under the float weights lam, as
    :func:`recover_duals` and :func:`kkt_residual` give them, from one
    gradient evaluation and the caps and spends of alloc."""
    grads = _true_gradients(ch, l, lam, alloc.p1, alloc.p2)
    nodes = _nodes(alloc, caps, spends)
    duals = _fit_duals(l, nodes, grads)
    return duals, _kkt_report(ch, l, lam, nodes, duals, grads)


def _dual_program(ch, l, lam, c1, c2, xi, mu, max_iter):
    """Maximize sum_i l_i*[lam_i*R_ma + (1-lam_i)*R_bc] over both causality
    polytopes and the cone through its dual, from the prefix multipliers xi,
    mu; returns the stacked maximizers [p1; p2] at the last dual point and
    the number of Newton iterations.

    With U, V the suffix sums of xi, mu, epoch i's best powers at the prices
    U, V are (s, t*s) for some s >= 0 and split t = a^2*x^2/(1+x^2), x in
    [0, r], r = sqrt(a^2-1) (0 where the relay's cap is 0).  There R_ma's
    SNR is s*G/N with G = g(t) = (1 + r*x)^2/(1+x^2), and the epoch is
    worth phi = lam*C(s*G/N) + (1-lam)*C(a^2*s/N) - s*w with w = U + V*t
    (:func:`_unit_split` when every weight is 1, :func:`_weighted_split`
    otherwise).  The dual D = xi.c1 + mu.c2 + sum_i l_i*phi_i is convex,
    finite while U > 0 on the epochs where the source harvested, its
    gradient is each cap minus its prefix spend, and its Hessian is T'
    blockdiag(-l_i*J_i) T, with T the suffix-sum map and J_i the Jacobian
    of (s, t*s) in (U, V).  D is minimized over xi, mu >= 0 by projected
    Newton (Bertsekas, SIAM J. Control Optim. 1982): multipliers within
    min(1e-3, |projected gradient|) of 0 whose gradient is positive take a
    gradient step, the others a Newton step, with an Armijo backtrack along
    the projection arc.  A flat direction takes a gradient step too: a zero
    Hessian diagonal (every epoch up to that prefix idle), or the null space
    of a singular free block (a weight of 0 pins its epoch's relay power at
    0, so two relay prefixes with only such epochs between them share a
    Hessian row).  A full step whose change of D is rounding (1e-13
    relative) is taken when it halves the projected gradient; otherwise the
    iteration stops there, as D cannot rank shorter steps.  A multiplier
    whose prefix cap is 0 is held at 0: the source is idle on the epochs
    with source cap 0, and x is 0 on those with relay cap 0.  The iteration
    stops once the projected gradient is below 1e-12 times the largest cap,
    after max_iter iterations, or when no step lowers D.
    """
    n = len(l)
    live = c1 > 0.0
    fixed = np.concatenate([~live, ~(c2 > 0.0)])
    rl = math.sqrt(ch.a ** 2 - 1.0) * (c2 > 0.0)
    caps = np.concatenate([c1, c2])
    node = np.repeat([0, 1], n)
    prefix = np.tile(np.arange(n), 2)
    tol = 1e-12 * max(1.0, c1[-1], c2[-1])
    split = _unit_split if np.all(lam == 1.0) else _weighted_split

    def value(y):
        """(D, gradient, s, t*s, Jacobian thunk) at y = [xi; mu]; D is inf
        unless the last source price is positive."""
        if not y[n - 1] > 0.0:
            return (math.inf,)
        # U >= U[-1] > 0 and V >= 0: every quotient of the splits is finite
        U, V = y.reshape(2, n)[:, ::-1].cumsum(axis=1)[:, ::-1]
        s, q, phi, jac = split(ch, lam, rl, live, U, V)
        D = float((y * caps).sum() + (l * phi).sum())
        grad = caps - np.concatenate([(l * s).cumsum(), (l * q).cumsum()])
        return D, grad, s, q, jac

    def pg_norm(y, grad):
        return float(np.abs(y - np.maximum(y - grad, 0.0)).max())

    y = np.where(fixed, 0.0, np.concatenate([xi, mu]))
    cur = value(y)
    if not math.isfinite(cur[0]):
        # the start left the last source prefix loose (a warm start that
        # underspends): one source price spending the whole harvest at the
        # relay's full split
        y = np.zeros(2 * n)
        y[n - 1] = 0.5 / LN2 / (c1[-1] / l[live].sum() + ch.noise / ch.a ** 2)
        cur = value(y)
    it = 0
    while it < max_iter:
        D, grad = cur[0], cur[1]
        # a held multiplier has gradient 0 (no spend, no cap): it never moves
        norm = pg_norm(y, grad)
        if norm <= tol:
            break
        it += 1
        # Hessian entry (j, m): the terms (source-source, mixed, relay-relay)
        # summed over the epochs up to min(j, m)
        terms, on = cur[4]()
        H = (terms * (-l * on)).cumsum(axis=1)
        free = np.flatnonzero(~(fixed | ((y <= min(1e-3, norm)) & (grad > 0.0))))
        nd, j = node[free], prefix[free]
        Hf = H[nd[:, None] + nd, np.minimum.outer(j, j)]
        diag = Hf.ravel()[::len(free) + 1]
        diag += diag == 0.0
        d = -grad
        step, _, rank, _ = np.linalg.lstsq(Hf, d[free], rcond=None)
        if rank < len(free):
            flat = np.linalg.svd(Hf)[2][rank:]
            step += flat.T @ (flat @ d[free])
        d[free] = step
        alpha = 1.0
        while alpha > 1e-12:
            y1 = np.maximum(y + alpha * d, 0.0)
            new = value(y1)
            if new[0] <= D + 1e-4 * float((grad * (y1 - y)).sum()):
                break
            if alpha == 1.0 and abs(new[0] - D) <= 1e-13 * abs(D):
                # a change of D at rounding level cannot rank shorter steps
                alpha = 1.0 if pg_norm(y1, new[1]) <= 0.5 * norm else 0.0
                break
            alpha *= 0.5
        if not alpha > 1e-12:
            break
        y, cur = y1, new
    return np.concatenate([cur[2], cur[3]]), it


def _unit_split(ch, lam, rl, live, U, V):
    """Each epoch's best powers under the weights 1 at the prices U, V
    (:func:`_dual_program`), in closed form: x = r*U/(U + a^2*V) and s =
    max(0, 1/(2 ln2 w) - N/G).  Returns s, t*s, phi and a thunk giving the
    Jacobian terms (ds/dU, ds/dV, d(t*s)/dV) with the mask of the epochs
    that send; lam is not read."""
    a2 = ch.a ** 2
    r = math.sqrt(a2 - 1.0)
    k = 0.5 / LN2
    den = U + a2 * V
    x = rl * U / den
    tx = 1.0 + x * x
    t = a2 * x * x / tx
    rx = 1.0 + r * x
    G = rx * rx / tx
    w = U + V * t
    kw, ng = k / w, ch.noise / G
    on = (kw > ng) & live
    s = (kw - ng) * on

    def jac():
        den2, tx2 = den * den, tx * tx
        xu, xv = (a2 * rl) * V / den2, (-a2 * rl) * U / den2
        t_x = (2.0 * a2) * x / tx2
        gk = (ng / G) * (2.0 * rx * (r - x) / tx2)  # N/G^2 * dG/dx
        k1 = kw / w
        vt = V * t_x
        s_u = gk * xu - k1 * (1.0 + vt * xu)
        s_v = gk * xv - k1 * (t + vt * xv)
        q_v = t_x * xv * s + t * s_v
        # J is symmetric: d(t*s)/dU = ds/dV
        return np.array([s_u, s_v, q_v]), on

    return s, t * s, k * np.log1p(s / ng) - s * w, jac


def _weighted_split(ch, lam, rl, live, U, V):
    """:func:`_unit_split` under any weights lam in [0, 1], from the
    epoch's two stationarity conditions (k = 1/(2 ln2)).  In s: s is the
    positive root, clipped at 0, of

        w*G*a^2*s^2 + [w*N*(G + a^2) - k*G*a^2]*s
            + N*[w*N - k*(lam*G + (1-lam)*a^2)] = 0.

    In x: h(x) = lam*k*(1 + r*x)*(r - x) - V*a^2*x*(N + s*G) = 0, with s =
    s(x), has h(0) > 0 > h(r); vectorized Newton keeps the root bracketed,
    bisecting when a step leaves the bracket, and stops an epoch once its
    step is below 1e-13*max(1, r) (tested first, so that an exact h = 0
    stops).  x = 0 where lam = 0 (the relay power earns nothing) and x = r
    where V = 0.  The Jacobian terms come from implicit differentiation of
    the two conditions."""
    a2 = ch.a ** 2
    N = ch.noise
    k = 0.5 / LN2

    def at(x):
        """(h, dh/dx) and the terms the Jacobian reads, at the split x."""
        tx = 1.0 + x * x
        rx = 1.0 + rl * x
        G = rx * rx / tx
        t = a2 * x * x / tx
        w = U + V * t
        qa = w * G * a2
        qb = w * N * (G + a2) - k * G * a2
        qc = N * (w * N - k * (lam * G + (1.0 - lam) * a2))
        on = (qc < 0.0) & live
        sq = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
        # the stable form of the root on each sign of qb
        s = np.where(on, np.where(qb > 0.0, -2.0 * qc / (qb + sq),
                                  (sq - qb) / (2.0 * qa)), 0.0)
        nsg = N + s * G
        g_x = 2.0 * rx * (rl - x) / (tx * tx)
        t_x = 2.0 * a2 * x / (tx * tx)
        # the partial derivatives of the s-condition (f) and of h in s and x
        fs = -k * (lam * (G / nsg) ** 2
                   + (1.0 - lam) * (a2 / (N + a2 * s)) ** 2)
        fx = lam * k * N * g_x / (nsg * nsg) - V * t_x
        hs = -V * a2 * x * G
        hx = (lam * k * (rl * rl - 1.0 - 2.0 * rl * x)
              - V * a2 * (nsg + x * s * g_x))
        h = lam * k * rx * (rl - x) - V * a2 * x * nsg
        dh = hx - np.where(on, hs * fx / fs, 0.0)
        return (h, dh), (s, t, G, w, on, nsg, t_x, fs, fx, hs, hx)

    x = np.where(V > 0.0, rl * U / (U + a2 * V), rl) * (lam > 0.0)
    lo, hi = np.zeros(len(x)), rl
    go = (lam > 0.0) & (V > 0.0) & (rl > 0.0)
    eps = 1e-13 * max(1.0, math.sqrt(a2 - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        (h, dh), terms = at(x)
        for _ in range(100):
            if not go.any():
                break
            step = h / dh
            go &= ~(np.abs(step) <= eps)
            lo = np.where(go & (h > 0.0), x, lo)
            hi = np.where(go & ~(h > 0.0), x, hi)
            nx = x - step
            x = np.where(go, np.where((nx > lo) & (nx < hi), nx,
                                      0.5 * (lo + hi)), x)
            (h, dh), terms = at(x)
    s, t, G, w, on, nsg, t_x, fs, fx, hs, hx = terms

    def jac():
        with np.errstate(divide="ignore", invalid="ignore"):
            h_v = -a2 * x * nsg
            hx1 = np.where(lam > 0.0, hx, 1.0)  # x held at 0
            det = fs * hx1 - fx * hs
            s_u = hx1 / det
            s_v = (hx1 * t + fx * h_v) / det
            q_v = t_x * s * (-fs * h_v - hs * t) / det + t * s_v
            return np.where(on, np.array([s_u, s_v, q_v]), 0.0), on

    phi = k * (lam * np.log1p(s * G / N) + (1.0 - lam) * np.log1p(a2 * s / N))
    return s, t * s, phi - s * w, jac


def _solve(ch, profile, lam, cfg, warm=None):
    """The b = 1 program under the float weights lam, certified:
    (audit, counters, warnings), shared by :func:`solve_minmax` and
    :func:`solve_inner`.

    For a > 1 the start (warm, or each node's staircase) is repaired
    exactly: powers clipped at 0, each node projected onto its causality
    polytope, p2 lowered onto the cone.  It is returned as it is when the
    independent certificate accepts it at tol_inner.  Otherwise the concave
    program is solved by :func:`_dual_program` from the multipliers fitted
    at that start, and the powers at the dual optimum are repaired and
    certified the same way; converged reads that certificate.
    For a <= 1 (lam = 0) the rate is R_bc(p1) alone: the source staircase
    is exact and the relay keeps its own.  b != 1 raises ProfileError.
    """
    waived = require_valid(profile, allow_degenerate=True)
    warn = ()
    if waived:
        warn = ("degenerate profile: " + "; ".join(waived),)
        _warnings.warn(warn[0])
    l, (c1, c2) = _lengths_caps(profile)
    n = profile.n_epochs
    k = ch.a ** 2 - 1.0

    def repaired(x):
        q1 = project_causality(np.maximum(x[:n], 0.0), l, c1)
        # projection only lowers powers, so p2 stays on the cone
        q2 = project_causality(np.minimum(np.maximum(x[n:], 0.0), k * q1),
                               l, c2)
        return Allocation(p1=q1, p2=q2)

    if ch.a > 1.0:
        start = repaired(np.concatenate(
            _warm_start(profile) if warm is None else (warm.p1, warm.p2)))
    else:
        start = Allocation(*_warm_start(profile))
    audit = _audit(ch, profile, start, lam)
    counters = IterationCounters()
    if ch.a > 1.0 and not audit.kkt.certified(cfg.tol_inner):
        x, it = _dual_program(ch, l, lam, c1, c2, audit.duals.xi,
                              audit.duals.mu, cfg.max_iter_inner)
        audit = _audit(ch, profile, repaired(x), lam)
        counters = IterationCounters(inner_solves=1, inner_gradients=it)
    return audit, counters, warn


def solve_minmax(ch, profile, cfg=None):
    """Optimal b = 1 schedule with its weights, duals and KKT certificate.

    The concave program of the module docstring, solved with the min-max
    weights lambda = 1 (a > 1) or 0 (a <= 1) by the shared core: the
    repaired staircase start when it certifies at tol_inner, else the dual
    core (:func:`_dual_program`) from the multipliers fitted there; each
    candidate is repaired exactly onto the feasible set and the cone.
    converged is set by the independent
    certificate alone (KKT residual <= tol_inner and minmax_gap <=
    10*tol_outer), whatever the optimizer reported.  b != 1 raises
    ProfileError: the reduction and the certificate hold only for b = 1.
    """
    cfg = cfg or SolverConfig()
    lam = np.full(profile.n_epochs, 1.0 if ch.a > 1.0 else 0.0)
    return _assemble(ch, *_solve(ch, profile, lam, cfg), cfg)


def solve_inner(ch, profile, lam, cfg=None, warm=None):
    """Maximize the weighted throughput for fixed per-epoch weights.

    The objective is sum_i l_i*[lam_i*R_ma + (1-lam_i)*R_bc], whose optimum
    lies in the cone (module docstring): :func:`solve_minmax`'s program
    under the weights lam, solved by the same core (:func:`_solve`).  warm,
    one finite power per epoch and node, is repaired onto the feasible set
    and the cone and certified first; if it does not certify, the dual core
    starts from the multipliers fitted there instead of at the staircase.
    For a <= 1 (all weights 0) the source staircase is exact and warm is
    ignored.  b != 1 raises ProfileError.

    Returns (Allocation, DualVariables, report) where report is a dict with
    the weighted objective, the independently recomputed KktReport, the
    convergence flag (KKT residual <= tol_inner), the gradient evaluations
    (the dual core's Newton iterations, 0 when the start certified) and the
    warnings.  Non-convergence is reported, not raised.
    """
    cfg = cfg or SolverConfig()
    n = profile.n_epochs
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n,):
        raise ValueError("lam must have one weight per epoch (%d)" % n)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if ch.a <= 1.0 and np.any(lam > 0.0):
        raise BranchUndefinedError(
            "a <= 1 forces all weights to 0 (multi-access bound undefined)")
    if warm is not None and not (warm.p1.shape == (n,) and np.isfinite(
            warm.p1).all() and np.isfinite(warm.p2).all()):
        raise ValueError("warm must hold one finite power per epoch (%d) for "
                         "each node" % n)
    audit, counters, warn = _solve(ch, profile, lam, cfg, warm)
    alloc = audit.alloc
    return alloc, audit.duals, {
        "objective": float(np.sum(audit.l * weighted_rate(
            ch, alloc.p1, alloc.p2, lam))),
        "kkt": audit.kkt,
        "converged": audit.kkt.certified(cfg.tol_inner),
        "gradients": counters.inner_gradients,
        "warnings": warn,
    }


class _Audit(NamedTuple):
    """A checked schedule with its certificate, before its rates are
    assembled into a Solution."""

    alloc: Allocation
    lam: np.ndarray
    l: np.ndarray
    duals: DualVariables
    kkt: KktReport


def _audit(ch, profile, alloc, lam):
    """Check a schedule under the weights lam and certify it.

    The profile is validated once, feasibility is checked once (infeasible
    allocations raise FeasibilityError, as :func:`evaluate_schedule` does)
    and the powers and weights are checked as :func:`weighted_rate` checks
    them.  The multipliers fitted as by :func:`recover_duals` and the
    certificate of :func:`kkt_residual` come from one gradient evaluation
    and the same caps and spends.  b != 1 raises ProfileError, for every
    solver and closed form alike: the reduction to the cone and the
    certificate hold only for b = 1.
    """
    if ch.b != 1.0:
        raise ProfileError([
            "b = %g is outside the model: schedules are solved for b = 1 "
            "only, where the multi-access and broadcast bounds meet on the "
            "cone p2 = (a^2-1)*p1" % ch.b])
    lam = np.asarray(lam, dtype=float)
    l, caps, spends = _feasible(profile, alloc)
    _weighted_args(ch, alloc.p1, alloc.p2, lam)
    duals, kkt = _certificate(ch, l, alloc, lam, caps, spends)
    return _Audit(alloc, lam, l, duals, kkt)


def _solution(ch, profile, alloc, lam):
    """The Solution of a feasible schedule under the weights lam, with
    converged True and zero counters: :func:`_audit`, then
    :func:`_assemble`."""
    return _assemble(ch, _audit(ch, profile, alloc, lam))


def _assemble(ch, audit, iterations=IterationCounters(), warnings=(),
              cfg=None):
    """The Solution of an audited schedule; every solver builds its result
    here, :func:`solve_minmax` only for the schedule it returns.

    One rate evaluation gives the per-epoch rates, the total bits and the
    weighted objective with its min-max gap.  converged is True without a
    cfg (the closed forms); with one it is set by the certificate alone:
    KKT residual <= tol_inner and minmax_gap <= 10*tol_outer.
    """
    alloc, lam, l = audit.alloc, audit.lam, audit.l
    p1 = np.maximum(alloc.p1, 0.0)
    p2 = np.maximum(alloc.p2, 0.0)
    ma, bc = _branch_rates(ch, p1, p2)
    total, rates = _tally(ch, l, p1, p2, ma, bc)
    weighted = float((l * (bc if ch.a <= 1.0
                           else lam * ma + (1.0 - lam) * bc)).sum())
    gap = abs(weighted - total)
    converged = cfg is None or (audit.kkt.certified(cfg.tol_inner)
                                and gap <= 10.0 * cfg.tol_outer)
    return Solution(
        allocation=alloc,
        lam=lam,
        rates=tuple(rates),
        total_bits=total,
        duals=audit.duals,
        kkt=audit.kkt,
        minmax_gap=gap,
        iterations=iterations,
        converged=converged,
        objective_weighted=weighted,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Structural invariant checks (used by the CLI and the acceptance suite)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def invariant_report(ch, profile, alloc, stored_rates=None, stored_total=None,
                     mono_slack=1e-6, tight_slack_rel=1e-6):
    """Executable structural checks on a schedule.

    * prefix feasibility of both nodes;
    * powers nondecreasing across epochs (monotone-power property);
    * whenever a node's power strictly increases, that node's causality
      prefix at the change instant is tight;
    * stored per-epoch rates / total bits match recomputed values.
    """
    l, (c1, c2) = _lengths_caps(profile)
    results = []

    viol = feasibility_violations(profile, alloc)
    max_excess = 0.0
    for p, caps in ((alloc.p1, c1), (alloc.p2, c2)):
        spend = np.cumsum(p * l)
        max_excess = max(max_excess, float(np.max(spend - caps)))
    scale = max(1.0, float(c1[-1]), float(c2[-1]))
    results.append(CheckResult("feasibility", not viol, max(0.0, max_excess),
                               FEASIBILITY_RTOL * scale,
                               "; ".join(viol)))

    for name, p in (("p1_monotone", alloc.p1), ("p2_monotone", alloc.p2)):
        drops = -np.diff(p) if len(p) > 1 else np.array([0.0])
        worst = float(np.max(drops)) if drops.size else 0.0
        bad = np.where(drops > mono_slack)[0]
        results.append(CheckResult(name, worst <= mono_slack, max(0.0, worst),
                                   mono_slack,
                                   "decrease after epoch %s" % (bad + 1).tolist()
                                   if bad.size else ""))

    for name, p, caps in (("p1_tight_at_changes", alloc.p1, c1),
                          ("p2_tight_at_changes", alloc.p2, c2)):
        tol = tight_slack_rel * max(1.0, caps[-1])
        spend = np.cumsum(p * l)
        worst = 0.0
        bad = []
        for i in range(len(p) - 1):
            if p[i + 1] - p[i] > mono_slack:
                gap = abs(spend[i] - caps[i])
                worst = max(worst, gap)
                if gap > tol:
                    bad.append(i + 1)
        results.append(CheckResult(name, not bad, worst, tol,
                                   "loose constraint at prefix %s" % bad
                                   if bad else ""))

    if stored_rates is not None or stored_total is not None:
        total, rates = _epoch_rates(ch, l, alloc)
        if stored_rates is not None:
            recomputed = np.array([r.active for r in rates])
            stored = np.asarray(stored_rates, dtype=float)
            denom = np.maximum(np.abs(recomputed), 1e-12)
            worst = float(np.max(np.abs(recomputed - stored) / denom))
            results.append(CheckResult("rates_recomputed", worst <= 1e-9,
                                       worst, 1e-9))
        if stored_total is not None:
            rel = abs(total - stored_total) / max(abs(total), 1e-12)
            results.append(CheckResult("total_bits_recomputed", rel <= 1e-9,
                                       rel, 1e-9))
    return results
