"""Schedule solver for b = 1 with KKT certification.

The delivered rate of an epoch is min(R_ma, R_bc), so the schedule problem
is a min-max.  For b = 1, Cauchy-Schwarz gives R_ma <= R_bc wherever
p2 <= a^2*p1, with equality on the cone boundary p2 = (a^2-1)*p1, where
dR_ma/dp2 = 0.  The optimal schedule therefore maximizes the concave program

    sum_i l_i * R_ma(p1_i, p2_i)

over the two energy-causality polytopes (one per node: every prefix of the
consumed energy stays below the harvested prefix, powers are nonnegative)
and the cone p2 <= (a^2-1)*p1.  :func:`solve_minmax` solves it with SLSQP
and repairs the result exactly onto the feasible set.  If a <= 1 the rate is
R_bc(p1) alone and the source staircase is exact.

The weights of the min-max form are lambda_i = 1 on every epoch (a > 1) or
0 (a <= 1): inside the cone R_ma < R_bc, and on its boundary dR_ma/dp1 =
dR_bc/dp1 and dR_ma/dp2 = 0, so the lambda = 1 stationarity system is the
concave program's own.  Duals are recovered by nonnegative least squares on
that system and the certificate is recomputed independently by
:func:`kkt_residual`; since the weighted objective is concave and bounds
min(R_ma, R_bc) from above, a small residual certifies global optimality.

:func:`solve_inner` maximizes the weighted throughput for arbitrary
per-epoch weights (projected gradient ascent with Dykstra projections and an
active-face Newton polish); it serves the envelope-convexity checks.
"""

import warnings as _warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .capacity import (
    LN2,
    BranchUndefinedError,
    capacity_min,
    weighted_rate,
    weighted_rate_grad,
)
from .profile import (
    RELAY,
    SOURCE,
    ProfileError,
    cumulative_energies,
    epoch_lengths,
    require_valid,
)

FEASIBILITY_RTOL = 1e-9
# Armijo sufficient-increase slope and backtracking factor of the inner ascent
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5

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
    max_iter_inner caps the SLSQP iterations of :func:`solve_minmax` and the
    gradient evaluations of :func:`solve_inner`.  max_iter_outer has no
    effect on b = 1 solves, which need no outer weight loop; it is accepted
    so that existing configurations keep working.
    """

    tol_inner: float = 1e-7
    tol_outer: float = 1e-5
    max_iter_inner: int = 4000
    max_iter_outer: int = 200

    def __post_init__(self):
        if self.tol_inner <= 0 or self.tol_outer <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter_inner < 1 or self.max_iter_outer < 1:
            raise ValueError("iteration caps must be >= 1")


# ---------------------------------------------------------------------------
# Schedule evaluation


def _prefix_matrix(lengths):
    n = len(lengths)
    return np.tril(np.ones((n, n))) * lengths[None, :]


def feasibility_violations(profile, alloc, rtol=FEASIBILITY_RTOL):
    """Human-readable list of violated prefix constraints (empty if feasible)."""
    l = epoch_lengths(profile)
    out = []
    for node, p in ((SOURCE, alloc.p1), (RELAY, alloc.p2)):
        caps = cumulative_energies(profile, node)
        scale = max(1.0, caps[-1])
        spend = np.cumsum(p * l)
        if np.any(p < -rtol * scale):
            out.append("%s power negative at epoch %d"
                       % (node, int(np.argmin(p)) + 1))
        for k in range(len(l)):
            excess = spend[k] - caps[k]
            if excess > rtol * scale:
                out.append("%s prefix %d overspent by %.6g J" % (node, k + 1, excess))
    return out


def evaluate_schedule(ch, profile, alloc):
    """Total bits and the per-epoch rate branches of a feasible allocation.

    total_bits = sum_i active_rate(p1_i, p2_i) * l_i.  Infeasible allocations
    raise FeasibilityError listing every violated prefix.
    """
    require_valid(profile, allow_degenerate=True)
    l = epoch_lengths(profile)
    if alloc.p1.shape != l.shape:
        raise ValueError("allocation has %d epochs, profile has %d"
                         % (alloc.p1.size, l.size))
    violations = feasibility_violations(profile, alloc)
    if violations:
        raise FeasibilityError(violations)
    return _epoch_rates(ch, l, alloc)


def _epoch_rates(ch, l, alloc):
    """Total bits and per-epoch rate branches, negative powers read as 0;
    feasibility is not checked."""
    p1 = np.maximum(alloc.p1, 0.0)
    p2 = np.maximum(alloc.p2, 0.0)
    rates = [capacity_min(ch, p1[i], p2[i]) for i in range(len(l))]
    total = float(sum(r.active * l[i] for i, r in enumerate(rates)))
    return total, rates


# ---------------------------------------------------------------------------
# Projection onto one node's causality polytope


def project_causality(p, lengths, caps, tol=1e-12, max_sweeps=5000):
    """Euclidean projection onto {p >= 0, cumsum(p*lengths) <= caps}.

    Dykstra's alternating projections over the K+1 prefix half-spaces and the
    nonnegative orthant; exact for this intersection and cheap at these
    dimensions.
    """
    n = len(lengths)
    x = np.array(p, dtype=float)
    corr = np.zeros((n + 1, n))
    norms2 = np.cumsum(lengths * lengths)
    scale = max(1.0, float(np.max(np.abs(x))), float(caps[-1]))
    for _ in range(max_sweeps):
        x_prev = x.copy()
        for k in range(n):
            y = x + corr[k]
            viol = float(y[: k + 1] @ lengths[: k + 1]) - caps[k]
            if viol > 0.0:
                xk = y.copy()
                xk[: k + 1] -= viol * lengths[: k + 1] / norms2[k]
            else:
                xk = y
            corr[k] = y - xk
            x = xk
        y = x + corr[n]
        x = np.maximum(y, 0.0)
        corr[n] = y - x
        if np.max(np.abs(x - x_prev)) <= tol * scale:
            break
    x = np.maximum(x, 0.0)
    # remove any residual prefix violation exactly (largest-index first)
    spend = np.cumsum(x * lengths)
    for k in range(n - 1, -1, -1):
        excess = spend[k] - caps[k]
        if excess > 0.0:
            for i in range(k, -1, -1):
                take = min(excess, x[i] * lengths[i])
                x[i] -= take / lengths[i]
                excess -= take
                if excess <= 0.0:
                    break
            spend = np.cumsum(x * lengths)
    return x


# ---------------------------------------------------------------------------
# KKT system


def _true_gradients(ch, l, lam, p1, p2):
    """Objective gradient (bits per watt) used by the independent certificate."""
    d1, d2 = weighted_rate_grad(ch, p1, p2, lam)
    return l * d1, l * d2


def _eliminated(caps):
    """Epochs whose cumulative cap is exactly zero: the power is structurally
    forced to 0 there and the variable is removed from the KKT system (no
    finite multiplier exists because the rate has unbounded slope at 0)."""
    return caps <= 0.0


def kkt_residual(ch, profile, alloc, duals, lam):
    """Recompute the three certificate residuals from primal and dual values.

    stationarity: inf-norm of the Lagrangian gradient
        l_i*dr/dp - (sum_{k>=i} xi_k)*l_i + vartheta_i  (per node);
    slackness: largest |multiplier * constraint slack|;
    feasibility: largest primal violation or dual negativity.

    Computed from scratch; shares nothing with the solver iterations.
    """
    l = epoch_lengths(profile)
    lam = np.asarray(lam, dtype=float)
    p1 = alloc.p1
    p2 = alloc.p2
    c1 = cumulative_energies(profile, SOURCE)
    c2 = cumulative_energies(profile, RELAY)
    g1, g2 = _true_gradients(ch, l, lam, p1, p2)

    # epoch i pays l_i times the sum of the prefix multipliers k >= i
    st1 = g1 - l * np.cumsum(duals.xi[::-1])[::-1] + duals.vartheta
    st2 = g2 - l * np.cumsum(duals.mu[::-1])[::-1] + duals.eta
    keep1 = ~_eliminated(c1)
    keep2 = ~_eliminated(c2)
    stat_terms = np.concatenate([st1[keep1], st2[keep2]])
    stationarity = float(np.max(np.abs(stat_terms))) if stat_terms.size else 0.0

    spend1 = np.cumsum(p1 * l)
    spend2 = np.cumsum(p2 * l)
    slack_products = np.concatenate([
        duals.xi * (spend1 - c1),
        duals.mu * (spend2 - c2),
        (duals.vartheta * p1)[keep1],
        (duals.eta * p2)[keep2],
    ])
    slackness = float(np.max(np.abs(slack_products))) if slack_products.size else 0.0

    primal = [spend1 - c1, spend2 - c2, -p1, -p2]
    feas = max(float(np.max(v)) for v in primal)
    dual_neg = -min(0.0, *(float(np.min(getattr(duals, f)))
                           for f in ("xi", "mu", "vartheta", "eta")))
    feasibility = max(0.0, feas, dual_neg)
    return KktReport(stationarity=stationarity, slackness=slackness,
                     feasibility=feasibility)


def recover_duals(ch, profile, alloc, lam, active_tol=None):
    """Fit multipliers to the stationarity system by nonnegative least squares.

    Only constraints that are active at the primal point receive a
    multiplier (inactive ones keep 0, which makes their slackness products
    vanish identically); within the active set scipy's NNLS minimizes the
    stationarity residual subject to dual feasibility.
    """
    l = epoch_lengths(profile)
    n = len(l)
    idx = np.arange(n)[:, None]
    lam = np.asarray(lam, dtype=float)
    grads = _true_gradients(ch, l, lam, alloc.p1, alloc.p2)
    out = {}
    for node, p, g, names in ((SOURCE, alloc.p1, grads[0], ("xi", "vartheta")),
                              (RELAY, alloc.p2, grads[1], ("mu", "eta"))):
        caps = cumulative_energies(profile, node)
        keep = ~_eliminated(caps)
        tol = active_tol if active_tol is not None else 1e-7 * max(1.0, caps[-1])
        spend = np.cumsum(p * l)
        act_pref = np.where(np.abs(spend - caps) <= tol)[0]
        p_scale = max(1.0, float(np.max(p)) if p.size else 1.0)
        act_zero = np.where((p <= 1e-9 * p_scale) & keep)[0]
        # prefix k's column holds l_i for i <= k; the bound p_i >= 0 is -e_i
        A = np.hstack([np.where(idx <= act_pref, l[:, None], 0.0),
                       np.where(idx == act_zero, -1.0, 0.0)])[keep]
        b = g[keep]
        prefix_mult = np.zeros(n)
        zero_mult = np.zeros(n)
        if np.all(np.isfinite(b)) and A.size:
            x, _ = scipy.optimize.nnls(A, b)
            prefix_mult[act_pref] = x[: len(act_pref)]
            zero_mult[act_zero] = x[len(act_pref):]
        out[names[0]] = prefix_mult
        out[names[1]] = zero_mult
    return DualVariables(xi=out["xi"], vartheta=out["vartheta"],
                         mu=out["mu"], eta=out["eta"])


# ---------------------------------------------------------------------------
# Inner solve: projected gradient ascent + active-face Newton polish


def _warm_start(profile):
    from .closed_form import staircase, segment_powers
    times = list(profile.times) + [profile.horizon]
    p = []
    for node in (SOURCE, RELAY):
        e = profile.e_source if node == SOURCE else profile.e_relay
        if np.all(e == 0.0):
            p.append(np.zeros(profile.n_epochs))
            continue
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            bp = staircase(times, list(e))
        p.append(np.array(segment_powers(bp, profile.n_epochs), dtype=float))
    return p[0], p[1]


class _InnerProblem:
    """Closures and geometry shared by the ascent loop and the polish."""

    GRAD_FLOOR = 1e-12

    def __init__(self, ch, profile, lam):
        self.ch = ch
        self.profile = profile
        self.lam = np.asarray(lam, dtype=float)
        self.l = epoch_lengths(profile)
        self.n = len(self.l)
        self.M = _prefix_matrix(self.l)
        self.c1 = cumulative_energies(profile, SOURCE)
        self.c2 = cumulative_energies(profile, RELAY)
        self.scale = max(1.0, float(self.c1[-1]), float(self.c2[-1]))
        self.grad_calls = 0

    def objective(self, x):
        p1 = np.maximum(x[: self.n], 0.0)
        p2 = np.maximum(x[self.n:], 0.0)
        r = weighted_rate(self.ch, p1, p2, self.lam)
        return float(np.sum(self.l * r))

    def gradient(self, x):
        self.grad_calls += 1
        p1 = np.maximum(x[: self.n], 0.0)
        p2 = np.maximum(x[self.n:], self.GRAD_FLOOR)
        d1, d2 = weighted_rate_grad(self.ch, p1, p2, self.lam)
        return np.concatenate([self.l * d1, self.l * d2])

    def project(self, x):
        p1 = project_causality(x[: self.n], self.l, self.c1)
        p2 = project_causality(x[self.n:], self.l, self.c2)
        return np.concatenate([p1, p2])

    # constraint rows over the stacked variable x = [p1; p2]
    def prefix_rows(self):
        n = self.n
        rows = np.zeros((2 * n, 2 * n))
        rows[:n, :n] = self.M
        rows[n:, n:] = self.M
        caps = np.concatenate([self.c1, self.c2])
        return rows, caps

    def active_sets(self, x, tol=None):
        rows, caps = self.prefix_rows()
        tol = tol if tol is not None else 1e-7 * self.scale
        spend = rows @ x
        act_pref = np.where(spend >= caps - tol)[0]
        p_scale = max(1.0, float(np.max(x)))
        act_zero = np.where(x <= 1e-9 * p_scale)[0]
        return act_pref, act_zero

    def snap(self, x, act_pref, act_zero):
        """Move x the minimum distance so active constraints hold exactly."""
        rows, caps = self.prefix_rows()
        eqs = [rows[k] for k in act_pref]
        rhs = [caps[k] for k in act_pref]
        for i in act_zero:
            e = np.zeros(2 * self.n)
            e[i] = 1.0
            eqs.append(e)
            rhs.append(0.0)
        if not eqs:
            return x
        A = np.vstack(eqs)
        r = A @ x - np.asarray(rhs)
        sol, *_ = np.linalg.lstsq(A, r, rcond=None)
        return np.maximum(x - sol, 0.0)


def _face_newton(prob, x, act_pref, act_zero, max_newton=40):
    """Maximize on the face defined by the active constraints.

    Returns (x, hit_constraint): hit_constraint is the index of a prefix row
    that became active during line search (or None).
    """
    rows, caps = prob.prefix_rows()
    n2 = 2 * prob.n
    eqs = [rows[k] for k in act_pref]
    for i in act_zero:
        e = np.zeros(n2)
        e[i] = 1.0
        eqs.append(e)
    if eqs:
        Z = scipy.linalg.null_space(np.vstack(eqs))
    else:
        Z = np.eye(n2)
    if Z.shape[1] == 0:
        return x, None

    inact = [k for k in range(n2) if k not in set(act_pref)]
    fx = prob.objective(x)
    for _ in range(max_newton):
        g = prob.gradient(x)
        gz = Z.T @ g
        gnorm = float(np.max(np.abs(gz)))
        if gnorm <= 1e-13 * max(1.0, abs(fx)) + 1e-15:
            break
        # finite-difference Hessian of the gradient along the face basis
        h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
        cols = []
        for j in range(Z.shape[1]):
            d = Z[:, j]
            gp = prob.gradient(np.maximum(x + h * d, 0.0))
            gm = prob.gradient(np.maximum(x - h * d, 0.0))
            cols.append(Z.T @ (gp - gm) / (2.0 * h))
        H = np.column_stack(cols)
        H = 0.5 * (H + H.T)
        ridge = 1e-12 * max(1.0, float(np.max(np.abs(H))))
        try:
            d = np.linalg.solve(-H + ridge * np.eye(H.shape[0]), gz)
        except np.linalg.LinAlgError:
            d = gz
        if float(d @ gz) <= 0.0:
            d = gz
        dx = Z @ d

        # largest feasible step along dx
        alpha_max = np.inf
        hit = None
        for k in inact:
            den = float(rows[k] @ dx)
            if den > 1e-15:
                a = (caps[k] - float(rows[k] @ x)) / den
                if a < alpha_max:
                    alpha_max, hit = a, k
        for i in range(n2):
            if dx[i] < -1e-15 and x[i] > 0.0:
                a = x[i] / (-dx[i])
                if a < alpha_max:
                    alpha_max, hit = a, ("zero", i)
        alpha = min(1.0, alpha_max)
        if alpha <= 0.0:
            break
        hit_boundary = alpha >= alpha_max * (1.0 - 1e-12)
        slope = float(gz @ d)
        accepted = False
        while alpha > 1e-16:
            x_try = np.maximum(x + alpha * dx, 0.0)
            f_try = prob.objective(x_try)
            if f_try >= fx + ARMIJO_SLOPE * alpha * slope or f_try >= fx:
                x, fx = x_try, f_try
                accepted = True
                break
            alpha *= 0.5
            hit_boundary = False
        if not accepted:
            break
        if hit_boundary and hit is not None:
            return x, hit
    return x, None


def solve_inner(ch, profile, lam, cfg=None, warm=None):
    """Maximize the weighted throughput for fixed per-epoch weights.

    Returns (Allocation, DualVariables, report) where report is a dict with
    the weighted objective, the independently recomputed KktReport, the
    convergence flag and iteration counters.  Non-convergence is reported,
    not raised: the best iterate and its residuals are returned for the
    caller to judge.
    """
    cfg = cfg or SolverConfig()
    waived = require_valid(profile, allow_degenerate=True)
    n = profile.n_epochs
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n,):
        raise ValueError("lam must have one weight per epoch (%d)" % n)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if ch.a <= 1.0 and np.any(lam > 0.0):
        raise BranchUndefinedError(
            "a <= 1 forces all weights to 0 (multi-access bound undefined)")

    run_warnings = []
    if waived:
        msg = "degenerate profile: " + "; ".join(waived)
        run_warnings.append(msg)
        _warnings.warn(msg)

    prob = _InnerProblem(ch, profile, lam)
    if warm is not None:
        x0 = prob.project(np.concatenate([np.asarray(warm.p1, dtype=float),
                                          np.asarray(warm.p2, dtype=float)]))
    else:
        w1, w2 = _warm_start(profile)
        x0 = prob.project(np.concatenate([w1, w2]))

    x, duals, report = _run_ascent(prob, x0, cfg)

    # The clamped extension of the multi-access bound rises again for very
    # large relay power, so the weighted objective can have a second basin.
    # Probe the basin the first run did not visit (capped relay start for
    # the genuine branch region, full-spend staircase start for the clamped
    # one) and keep the better value.
    if ch.a > 1.0 and np.any(lam > 1e-9):
        p1, p2 = x[:n], x[n:]
        s1 = p1 * (ch.a ** 2 * p1 - ch.b ** 2 * p2)
        clamp_active = (s1 < 0.0) & (lam > 1e-9)
        if np.any(clamp_active):
            from .closed_form import relay_saturation_power
            cap = np.array([relay_saturation_power(ch, v) for v in p1])
            alt0 = prob.project(np.concatenate([p1, np.minimum(p2, cap)]))
        else:
            _, w2 = _warm_start(profile)
            alt0 = prob.project(np.concatenate([p1, np.maximum(p2, w2)]))
        if np.max(np.abs(alt0 - x)) > 1e-12 * prob.scale:
            alt_x, alt_duals, alt_report = _run_ascent(prob, alt0, cfg)
            if prob.objective(alt_x) > prob.objective(x):
                x, duals, report = alt_x, alt_duals, alt_report

    alloc = Allocation(p1=x[:n], p2=x[n:])
    report = dict(report)
    report["objective"] = prob.objective(x)
    report["gradients"] = prob.grad_calls
    report["warnings"] = tuple(run_warnings)
    return alloc, duals, report


def _run_ascent(prob, x, cfg):
    """Projected gradient ascent with Armijo backtracking, polished and
    certified at stalls; returns the best certified candidate."""
    fx = prob.objective(x)
    t = 1.0
    best = None
    polish_every = 15
    it = 0
    while prob.grad_calls < cfg.max_iter_inner:
        it += 1
        g = prob.gradient(x)
        moved = 0.0
        for _ in range(60):
            x_try = prob.project(x + t * g)
            step = x_try - x
            f_try = prob.objective(x_try)
            if f_try >= fx + ARMIJO_SLOPE * float(g @ step) or f_try > fx:
                moved = float(np.max(np.abs(step)))
                x, fx = x_try, f_try
                t *= 1.6
                break
            t *= ARMIJO_SHRINK
            if t < 1e-18:
                break
        stalled = moved <= 1e-13 * prob.scale
        if it % polish_every == 0 or stalled:
            x, duals, report, ok = _polish_and_certify(prob, x, cfg)
            fx = prob.objective(x)
            if ok:
                best = (x, duals, report)
                break
            best = (x, duals, report)
            if stalled:
                break
    if best is None:
        x, duals, report, _ = _polish_and_certify(prob, x, cfg)
        best = (x, duals, report)
    return best


def _polish_and_certify(prob, x, cfg, max_rounds=14):
    """Active-set Newton refinement followed by independent certification."""
    best_x, best_duals, best_rep = x, None, None
    for _ in range(max_rounds):
        act_pref, act_zero = prob.active_sets(x)
        x = prob.snap(x, act_pref, act_zero)
        x = prob.project(x)
        x, hit = _face_newton(prob, x, act_pref, act_zero)
        if hit is not None:
            continue  # face changed; redetect actives
        duals, rep = _certify(prob, x)
        if best_rep is None or rep.max < best_rep.max:
            best_x, best_duals, best_rep = x, duals, rep
        if rep.certified(cfg.tol_inner):
            return x, duals, {"kkt": rep, "converged": True}, True
        released = _release_step(prob, x)
        if released is None:
            break
        x = released
    if best_duals is None:
        best_duals, best_rep = _certify(prob, best_x)
    return best_x, best_duals, {"kkt": best_rep, "converged": False}, False


def _certify(prob, x):
    alloc = Allocation(p1=x[: prob.n], p2=x[prob.n:])
    duals = recover_duals(prob.ch, prob.profile, alloc, prob.lam)
    return duals, kkt_residual(prob.ch, prob.profile, alloc, duals, prob.lam)


def _release_step(prob, x):
    """Try to leave a face that blocks ascent: keep only constraints whose
    unsigned least-squares multiplier is nonnegative; return a point slightly
    inside if something was released, else None."""
    act_pref, act_zero = prob.active_sets(x)
    if len(act_pref) == 0 and len(act_zero) == 0:
        return None
    n2 = 2 * prob.n
    rows, caps = prob.prefix_rows()
    cols = [rows[k] for k in act_pref]
    for i in act_zero:
        e = np.zeros(n2)
        e[i] = -1.0
        cols.append(e)
    A = np.column_stack(cols)
    g = prob.gradient(x)
    sol, *_ = np.linalg.lstsq(A, g, rcond=None)
    if np.all(sol >= -1e-10):
        return None
    # nudge off the most wrongly-active constraint along the gradient
    x_new = prob.project(x + 1e-6 * prob.scale * g / max(1.0, float(np.max(np.abs(g)))))
    if np.max(np.abs(x_new - x)) <= 1e-15 * prob.scale:
        return None
    return x_new


# ---------------------------------------------------------------------------
# The b = 1 schedule program


def _concave_program(ch, l, c1, c2, x0, max_iter):
    """Maximize sum_i l_i*R_ma over both causality polytopes and the cone
    p2 <= (a^2-1)*p1 with SLSQP, from the stacked start x0 = [p1; p2].

    Powers whose prefix cap is zero (and relay powers whose source power is
    forced to zero by the cone) are held at 0.  Returns the stacked result
    and the number of gradient evaluations.
    """
    n = len(l)
    a2 = ch.a ** 2
    k = a2 - 1.0
    scale = a2 * ch.noise

    def parts(x):
        # R_ma for b = 1 with the factor p1 cancelled: C((u + v)^2 / (a^2 N))
        p1 = np.maximum(x[:n], 0.0)
        p2 = np.maximum(x[n:], 1e-300)
        u = np.sqrt(np.maximum(a2 * p1 - p2, 1e-300))
        v = np.sqrt(k * p2)
        return u, v, (u + v) ** 2 / scale

    fixed = np.concatenate([c1 <= 0.0, (c1 <= 0.0) | (c2 <= 0.0)])
    free = ~fixed
    x = np.where(fixed, 0.0, x0)
    if not np.any(free):
        return x, 0

    def full(z):
        x[free] = z
        return x

    def f(z):
        return -0.5 * float(l @ np.log2(1.0 + parts(full(z))[2]))

    def grad(z):
        u, v, snr = parts(full(z))
        dc = l / (2.0 * LN2 * (1.0 + snr))
        d1 = (u + v) / (u * ch.noise)
        d2 = (u + v) * (k / v - 1.0 / u) / scale
        return -np.concatenate([dc * d1, dc * d2])[free]

    # both prefix systems and the cone as one inequality A x <= caps
    P = _prefix_matrix(l)
    Z = np.zeros((n, n))
    A = np.block([[P, Z], [Z, P], [-k * np.eye(n), np.eye(n)]])[:, free]
    caps = np.concatenate([c1, c2, np.zeros(n)])
    res = scipy.optimize.minimize(
        f, x[free], jac=grad, method="SLSQP",
        bounds=[(0.0, None)] * int(np.sum(free)),
        constraints={"type": "ineq", "fun": lambda z: caps - A @ z,
                     "jac": lambda z: -A},
        options={"ftol": 1e-15, "maxiter": max_iter})
    return full(res.x).copy(), int(res.njev)


def solve_minmax(ch, profile, cfg=None):
    """Optimal b = 1 schedule with its weights, duals and KKT certificate.

    For a > 1 the concave program (module docstring) is solved by SLSQP from
    the staircase warm start, then repaired exactly: powers clipped at 0,
    each node projected onto its causality polytope and p2 lowered onto the
    cone.  If that point does not certify, an active-face Newton polish
    refines it and the repair is applied again.  For a <= 1 the source
    staircase is exact and the relay keeps its own staircase.  converged is
    set by the independent certificate alone (KKT residual <= tol_inner and
    minmax_gap <= 10*tol_outer), whatever the optimizer reported.  b != 1 raises ProfileError: the reduction and the
    certificate hold only for b = 1.
    """
    cfg = cfg or SolverConfig()
    if ch.b != 1.0:
        raise ProfileError([
            "b = %g is outside the model: schedules are solved for b = 1 "
            "only, where the multi-access and broadcast bounds meet on the "
            "cone p2 = (a^2-1)*p1" % ch.b])
    waived = require_valid(profile, allow_degenerate=True)
    warn = []
    if waived:
        warn.append("degenerate profile: " + "; ".join(waived))
        _warnings.warn(warn[0])
    l = epoch_lengths(profile)
    n = profile.n_epochs
    c1 = cumulative_energies(profile, SOURCE)
    c2 = cumulative_energies(profile, RELAY)
    lam = np.full(n, 1.0 if ch.a > 1.0 else 0.0)

    p1, p2 = _warm_start(profile)
    if ch.a <= 1.0:
        sol = _solution(ch, profile, Allocation(p1=p1, p2=p2), lam)
        counters = IterationCounters()
    else:
        k = ch.a ** 2 - 1.0

        def repaired(x):
            q1 = project_causality(np.maximum(x[:n], 0.0), l, c1)
            # projection only lowers powers, so p2 stays on the cone
            q2 = project_causality(np.minimum(np.maximum(x[n:], 0.0), k * q1),
                                   l, c2)
            return Allocation(p1=q1, p2=q2)

        x, grads = _concave_program(ch, l, c1, c2,
                                    np.concatenate([p1, np.minimum(p2, k * p1)]),
                                    cfg.max_iter_inner)
        sol = _solution(ch, profile, repaired(x), lam)
        if not sol.kkt.certified(cfg.tol_inner):
            # SLSQP stops once the objective stalls in its last bit, which
            # can leave the powers about 1e-8 off; Newton steps on the active
            # face of the lambda = 1 program finish them
            prob = _InnerProblem(ch, profile, lam)
            x = _polish_and_certify(
                prob, np.concatenate([sol.allocation.p1, sol.allocation.p2]),
                cfg)[0]
            grads += prob.grad_calls
            sol = _solution(ch, profile, repaired(x), lam)
        counters = IterationCounters(inner_solves=1, inner_gradients=grads)

    return replace(
        sol, iterations=counters, warnings=tuple(warn),
        converged=(sol.kkt.certified(cfg.tol_inner)
                   and sol.minmax_gap <= 10.0 * cfg.tol_outer))


def _solution(ch, profile, alloc, lam):
    """The Solution of a feasible schedule under the weights lam.

    Every solver builds its result here: the rates and total bits, the
    weighted objective and its min-max gap, the multipliers fitted by
    :func:`recover_duals` and the certificate of :func:`kkt_residual`.
    converged is True and the counters are zero; :func:`solve_minmax`
    replaces them with its own.
    """
    lam = np.asarray(lam, dtype=float)
    total, rates = evaluate_schedule(ch, profile, alloc)
    weighted = float(np.sum(epoch_lengths(profile)
                            * weighted_rate(ch, alloc.p1, alloc.p2, lam)))
    duals = recover_duals(ch, profile, alloc, lam)
    return Solution(
        allocation=alloc,
        lam=lam,
        rates=tuple(rates),
        total_bits=total,
        duals=duals,
        kkt=kkt_residual(ch, profile, alloc, duals, lam),
        minmax_gap=abs(weighted - total),
        iterations=IterationCounters(),
        converged=True,
        objective_weighted=weighted,
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
    l = epoch_lengths(profile)
    results = []

    viol = feasibility_violations(profile, alloc)
    max_excess = 0.0
    for node, p in ((SOURCE, alloc.p1), (RELAY, alloc.p2)):
        caps = cumulative_energies(profile, node)
        spend = np.cumsum(p * l)
        max_excess = max(max_excess, float(np.max(spend - caps)))
    scale = max(1.0, float(cumulative_energies(profile, SOURCE)[-1]),
                float(cumulative_energies(profile, RELAY)[-1]))
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

    for name, node, p in (("p1_tight_at_changes", SOURCE, alloc.p1),
                          ("p2_tight_at_changes", RELAY, alloc.p2)):
        caps = cumulative_energies(profile, node)
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
