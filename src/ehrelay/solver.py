"""Min-max schedule solver with KKT certification.

For per-epoch weights w_i in [0, 1] the inner problem maximizes

    sum_i l_i * [ w_i * R_ma(p1_i, p2_i) + (1 - w_i) * R_bc(p1_i) ]

over the two energy-causality polytopes (one per node): every prefix of the
consumed energy must stay below the harvested prefix, and powers are
nonnegative.  The outer problem minimizes the resulting concave-program
value over the weight box, and at the joint solution the weighted objective
coincides with the true schedule throughput sum_i l_i * min(R_ma, R_bc).

The inner solver is projected gradient ascent (Dykstra projection onto the
prefix polytope) finished by a Newton polish on the active face; duals are
recovered by nonnegative least squares on the stationarity system and the
certificate is recomputed independently by :func:`kkt_residual`.
"""

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import capacity
from .capacity import (
    BranchUndefinedError,
    capacity_min,
    weighted_rate,
    weighted_rate_grad,
)
from .profile import (
    RELAY,
    SOURCE,
    cumulative_energies,
    epoch_lengths,
    require_valid,
)

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
    "solve_outer",
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
    """Tolerances and iteration caps; all runs are deterministic given these."""

    tol_inner: float = 1e-7
    tol_outer: float = 1e-5
    max_iter_inner: int = 4000
    max_iter_outer: int = 200
    step0_outer: float | None = None   # default 1 / sum(epoch lengths)
    armijo_slope: float = 1e-4
    armijo_shrink: float = 0.5
    dykstra_tol: float = 1e-12
    seed: int = 0

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
    n = len(l)
    M = _prefix_matrix(l)
    lam = np.asarray(lam, dtype=float)
    p1 = alloc.p1
    p2 = alloc.p2
    c1 = cumulative_energies(profile, SOURCE)
    c2 = cumulative_energies(profile, RELAY)
    g1, g2 = _true_gradients(ch, l, lam, p1, p2)

    st1 = g1 - M.T @ duals.xi + duals.vartheta
    st2 = g2 - M.T @ duals.mu + duals.eta
    keep1 = ~_eliminated(c1)
    keep2 = ~_eliminated(c2)
    stat_terms = np.concatenate([st1[keep1], st2[keep2]])
    stationarity = float(np.max(np.abs(stat_terms))) if stat_terms.size else 0.0

    spend1 = M @ p1
    spend2 = M @ p2
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
    M = _prefix_matrix(l)
    lam = np.asarray(lam, dtype=float)
    out = {}
    for node, p, names in ((SOURCE, alloc.p1, ("xi", "vartheta")),
                           (RELAY, alloc.p2, ("mu", "eta"))):
        caps = cumulative_energies(profile, node)
        g1, g2 = _true_gradients(ch, l, lam, alloc.p1, alloc.p2)
        g = g1 if node == SOURCE else g2
        keep = ~_eliminated(caps)
        tol = active_tol if active_tol is not None else 1e-7 * max(1.0, caps[-1])
        spend = M @ p
        act_pref = np.where(np.abs(spend - caps) <= tol)[0]
        p_scale = max(1.0, float(np.max(p)) if p.size else 1.0)
        act_zero = np.where((p <= 1e-9 * p_scale) & keep)[0]
        cols = []
        for k in act_pref:
            cols.append(M.T[:, k])
        for i in act_zero:
            e = np.zeros(n)
            e[i] = -1.0
            cols.append(e)
        prefix_mult = np.zeros(n)
        zero_mult = np.zeros(n)
        if cols:
            A = np.column_stack(cols)[keep, :]
            b = g[keep]
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

    def __init__(self, ch, profile, lam, cfg):
        self.ch = ch
        self.lam = np.asarray(lam, dtype=float)
        self.cfg = cfg
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
        p1 = project_causality(x[: self.n], self.l, self.c1, tol=self.cfg.dykstra_tol)
        p2 = project_causality(x[self.n:], self.l, self.c2, tol=self.cfg.dykstra_tol)
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
            if f_try >= fx + 1e-4 * alpha * slope or f_try >= fx:
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

    prob = _InnerProblem(ch, profile, lam, cfg)
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
            if f_try >= fx + cfg.armijo_slope * float(g @ step) or f_try > fx:
                moved = float(np.max(np.abs(step)))
                x, fx = x_try, f_try
                t *= 1.6
                break
            t *= cfg.armijo_shrink
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
    duals = _recover_duals_arrays(prob, x)
    rep = _kkt_from_arrays(prob, x, duals)
    return duals, rep


def _recover_duals_arrays(prob, x):
    n = prob.n
    out = {}
    g = _grad_for_certificate(prob, x)
    for node, sl, caps, names in ((SOURCE, slice(0, n), prob.c1, ("xi", "vartheta")),
                                  (RELAY, slice(n, 2 * n), prob.c2, ("mu", "eta"))):
        p = x[sl]
        gn = g[sl]
        keep = ~_eliminated(caps)
        tol = 1e-7 * max(1.0, caps[-1])
        spend = prob.M @ p
        act_pref = np.where(np.abs(spend - caps) <= tol)[0]
        p_scale = max(1.0, float(np.max(p)) if p.size else 1.0)
        act_zero = np.where((p <= 1e-9 * p_scale) & keep)[0]
        cols = [prob.M.T[:, k] for k in act_pref]
        for i in act_zero:
            e = np.zeros(n)
            e[i] = -1.0
            cols.append(e)
        prefix_mult = np.zeros(n)
        zero_mult = np.zeros(n)
        if cols:
            A = np.column_stack(cols)[keep, :]
            b = gn[keep]
            if np.all(np.isfinite(b)) and A.size:
                sol, _ = scipy.optimize.nnls(A, b)
                prefix_mult[act_pref] = sol[: len(act_pref)]
                zero_mult[act_zero] = sol[len(act_pref):]
        out[names[0]] = prefix_mult
        out[names[1]] = zero_mult
    return DualVariables(xi=out["xi"], vartheta=out["vartheta"],
                         mu=out["mu"], eta=out["eta"])


def _grad_for_certificate(prob, x):
    p1 = np.maximum(x[: prob.n], 0.0)
    p2 = np.maximum(x[prob.n:], 0.0)
    d1, d2 = weighted_rate_grad(prob.ch, p1, p2, prob.lam)
    return np.concatenate([prob.l * d1, prob.l * d2])


def _kkt_from_arrays(prob, x, duals):
    n = prob.n
    g = _grad_for_certificate(prob, x)
    st1 = g[:n] - prob.M.T @ duals.xi + duals.vartheta
    st2 = g[n:] - prob.M.T @ duals.mu + duals.eta
    keep1 = ~_eliminated(prob.c1)
    keep2 = ~_eliminated(prob.c2)
    terms = np.concatenate([st1[keep1], st2[keep2]])
    stationarity = float(np.max(np.abs(terms))) if terms.size else 0.0
    spend1 = prob.M @ x[:n]
    spend2 = prob.M @ x[n:]
    slack = np.concatenate([
        duals.xi * (spend1 - prob.c1),
        duals.mu * (spend2 - prob.c2),
        (duals.vartheta * x[:n])[keep1],
        (duals.eta * x[n:])[keep2],
    ])
    slackness = float(np.max(np.abs(slack))) if slack.size else 0.0
    feas = max(float(np.max(spend1 - prob.c1)), float(np.max(spend2 - prob.c2)),
               float(np.max(-x)), 0.0)
    return KktReport(stationarity=stationarity, slackness=slackness,
                     feasibility=feas)


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
# Outer minimization over the weight box


def _branch_gap(ch, l, alloc):
    """Per-epoch subgradient of the envelope: l_i*(R_ma - R_bc) at the maximizer."""
    ma = capacity.rate_multi_access(ch, alloc.p1, alloc.p2)
    bc = capacity.rate_broadcast(ch, alloc.p1)
    return l * (np.asarray(ma) - np.asarray(bc))


def _projected_subgradient(lam, g, tol=0.0):
    pg = np.array(g, dtype=float)
    pg[(lam <= tol) & (g > 0.0)] = 0.0
    pg[(lam >= 1.0 - tol) & (g < 0.0)] = 0.0
    return pg


def solve_outer(ch, profile, cfg=None):
    """Minimize the concave-program value over per-epoch weights in [0, 1].

    Projected subgradient descent with the diminishing step step0/sqrt(iter)
    (step0 defaults to 1/sum(l)); stops when the projected subgradient norm
    drops below tol_outer or every weight sits on a sign-consistent boundary.
    If the subgradient phase stalls, a deterministic cyclic bisection on each
    coordinate (valid because the envelope is convex, so each partial
    derivative is nondecreasing in its own weight) finishes the job.

    Returns (weights, Solution).
    """
    cfg = cfg or SolverConfig()
    require_valid(profile, allow_degenerate=True)
    l = epoch_lengths(profile)
    n = profile.n_epochs

    counters = {"outer": 0, "inner": 0, "gradients": 0}

    def inner(lam_vec, warm=None):
        counters["inner"] += 1
        alloc, duals, rep = solve_inner(ch, profile, lam_vec, cfg, warm=warm)
        counters["gradients"] += rep["gradients"]
        return alloc, duals, rep

    if ch.a <= 1.0:
        lam = np.zeros(n)
        alloc, duals, rep = inner(lam)
        sol = _build_solution(ch, profile, lam, alloc, duals, rep, counters,
                              outer_converged=True, cfg=cfg)
        return lam, sol

    # start from the branch indicator at the feasible warm-start schedule
    w1, w2 = _warm_start(profile)
    warm0 = Allocation(p1=w1, p2=w2)
    gap0 = _branch_gap(ch, l, warm0)
    lam = np.where(gap0 < 0.0, 1.0, np.where(gap0 > 0.0, 0.0, 0.5))

    step0 = cfg.step0_outer if cfg.step0_outer is not None else 1.0 / float(np.sum(l))
    prev_alloc = None
    best = None
    outer_converged = False
    for it in range(1, cfg.max_iter_outer + 1):
        counters["outer"] += 1
        alloc, duals, rep = inner(lam, warm=prev_alloc)
        prev_alloc = alloc
        fstar = rep["objective"]
        if best is None or fstar < best[1] - 1e-15:
            best = (lam.copy(), fstar)
        g = _branch_gap(ch, l, alloc)
        pg = _projected_subgradient(lam, g)
        if float(np.max(np.abs(pg))) <= cfg.tol_outer:
            outer_converged = True
            break
        lam = np.clip(lam - (step0 / math.sqrt(it)) * g, 0.0, 1.0)

    if not outer_converged:
        lam = best[0].copy() if best is not None else lam
        lam, prev_alloc, outer_converged = _coordinate_bisection(
            ch, profile, lam, cfg, inner, prev_alloc)

    alloc, duals, rep = inner(lam, warm=prev_alloc)  # deterministic final solve
    sol = _build_solution(ch, profile, lam, alloc, duals, rep, counters,
                          outer_converged=outer_converged, cfg=cfg)
    return lam, sol


def _coordinate_bisection(ch, profile, lam, cfg, inner, warm, max_sweeps=6):
    """Deterministic fallback: per-coordinate root finding on the envelope
    gradient, cycling until every coordinate is sign-consistent."""
    l = epoch_lengths(profile)
    n = profile.n_epochs
    lam = lam.copy()

    def grad_at(lam_vec, warm_alloc):
        alloc, _, _ = inner(lam_vec, warm=warm_alloc)
        return _branch_gap(ch, l, alloc), alloc

    alloc = warm
    for _ in range(max_sweeps):
        moved = False
        for i in range(n):
            g, alloc = grad_at(lam, alloc)
            if abs(g[i]) <= cfg.tol_outer * 0.5:
                continue
            if g[i] > 0 and lam[i] <= 0.0:
                continue
            if g[i] < 0 and lam[i] >= 1.0:
                continue
            lo, hi = 0.0, 1.0
            trial = lam.copy()
            trial[i] = lo
            g_lo, alloc = grad_at(trial, alloc)
            if g_lo[i] >= 0.0:
                lam[i] = lo
                moved = True
                continue
            trial[i] = hi
            g_hi, alloc = grad_at(trial, alloc)
            if g_hi[i] <= 0.0:
                lam[i] = hi
                moved = True
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                trial[i] = mid
                g_mid, alloc = grad_at(trial, alloc)
                if abs(g_mid[i]) <= cfg.tol_outer * 0.25:
                    break
                if g_mid[i] > 0.0:
                    hi = mid
                else:
                    lo = mid
            lam[i] = trial[i]
            moved = True
        g, alloc = grad_at(lam, alloc)
        pg = _projected_subgradient(lam, g)
        if float(np.max(np.abs(pg))) <= cfg.tol_outer:
            return lam, alloc, True
        if not moved:
            break
    return lam, alloc, False


def _canonicalize_flat_relay(ch, profile, alloc, lam):
    """Backward-fill relay power where the objective is exactly flat in p2.

    Epochs with zero weight in the broadcast-active region (or every epoch
    when a <= 1) leave p2 undetermined; among the optimal choices, copying
    the neighboring pinned values (clipped above the branch boundary so the
    broadcast bound stays active) favors monotone, change-free schedules.
    The repair is kept only when it stays feasible, preserves total_bits to
    1e-12 relative, and strictly reduces the number of failed structure
    checks; otherwise the original allocation is returned.
    """
    n = alloc.p1.size
    lam = np.asarray(lam, dtype=float)
    p1 = alloc.p1
    p2 = alloc.p2
    if ch.a <= 1.0:
        free = np.ones(n, dtype=bool)
        lo = np.zeros(n)
    else:
        broadcast_active = (ch.a ** 2 - 1.0) * p1 < p2
        free = (lam <= 1e-9) & broadcast_active
        lo = np.nextafter((ch.a ** 2 - 1.0) * p1, np.inf)
    if not np.any(free):
        return alloc
    new = p2.copy()
    nxt = None
    for i in range(n - 1, -1, -1):
        if not free[i]:
            nxt = p2[i]
        else:
            new[i] = nxt if nxt is not None else np.nan
    prev = 0.0
    for i in range(n):
        if not free[i]:
            prev = new[i]
        elif math.isnan(new[i]):
            new[i] = prev
    if ch.a > 1.0:
        new = np.where(free, np.maximum(new, lo), new)
    candidate = Allocation(p1=p1.copy(), p2=new)
    try:
        total_new, _ = evaluate_schedule(ch, profile, candidate)
        total_old, _ = evaluate_schedule(ch, profile, alloc)
    except FeasibilityError:
        return alloc
    if abs(total_new - total_old) > 1e-12 * max(1.0, abs(total_old)):
        return alloc
    fails_old = sum(not c.passed for c in invariant_report(ch, profile, alloc))
    fails_new = sum(not c.passed for c in invariant_report(ch, profile, candidate))
    return candidate if fails_new < fails_old else alloc


def _build_solution(ch, profile, lam, alloc, duals, rep, counters,
                    outer_converged, cfg=None):
    l = epoch_lengths(profile)
    repaired = _canonicalize_flat_relay(ch, profile, alloc, lam)
    if repaired is not alloc:
        alloc = repaired
        duals = recover_duals(ch, profile, alloc, lam)
    total, rates = evaluate_schedule(ch, profile, alloc)
    weighted = rep["objective"]
    gap = abs(weighted - total)
    warn = list(rep.get("warnings", ()))
    # flag epochs where the clamped radicand carries positive weight
    s1 = alloc.p1 * (ch.a ** 2 * alloc.p1 - ch.b ** 2 * alloc.p2)
    clamped = (s1 < 0.0) & (np.asarray(lam) > 1e-6)
    if np.any(clamped):
        warn.append("clamped radicand active with positive weight at epochs %s"
                    % (np.where(clamped)[0] + 1).tolist())
    kkt = kkt_residual(ch, profile, alloc, duals, lam)
    tol_outer = (cfg or SolverConfig()).tol_outer
    converged = (bool(rep.get("converged", False)) and bool(outer_converged)
                 and gap <= 10.0 * tol_outer)
    return Solution(
        allocation=alloc,
        lam=np.asarray(lam, dtype=float),
        rates=tuple(rates),
        total_bits=total,
        duals=duals,
        kkt=kkt,
        minmax_gap=gap,
        iterations=IterationCounters(outer=counters.get("outer", 0),
                                     inner_solves=counters.get("inner", 0),
                                     inner_gradients=counters.get("gradients", 0)),
        converged=converged,
        objective_weighted=weighted,
        warnings=tuple(warn),
    )


def solve_minmax(ch, profile, cfg=None):
    """End-to-end schedule: outer weight minimization, then the true
    min-branch throughput of the final allocation; minmax_gap records the
    weighted-versus-min consistency required at a genuine saddle point."""
    _, sol = solve_outer(ch, profile, cfg)
    return sol


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
        p1c = np.maximum(alloc.p1, 0.0)
        p2c = np.maximum(alloc.p2, 0.0)
        rates = [capacity_min(ch, p1c[i], p2c[i]) for i in range(len(l))]
        total = float(sum(r.active * l[i] for i, r in enumerate(rates)))
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
