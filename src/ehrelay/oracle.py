"""Independent brute-force verification of schedules and rate formulas.

grid_search enumerates per-epoch powers for both nodes on finite grids over
the causality polytopes, scores every feasible pair of schedules, re-grids
around the incumbent for a configured number of refinement rounds, and
finishes with a deterministic derivative-free pattern search (a sequence of
micro re-grids around the incumbent) so the reported value is a genuine
local optimum rather than a grid artifact.  Nothing here shares iterations,
gradients or duals with the solver; only the rate formulas themselves are
common, and those are cross-checked separately by rho_maxmin, which
evaluates the underlying max-min rate over a dense correlation grid.

Both hot loops return exactly the floats of the plain one-at-a-time forms
(kept as references in tests/test_oracle.py).  The pair sweep sums the
epochs before the last only once per distinct column prefix and adds the
prefix's largest last-epoch entry; rounding is monotone, so each row maximum
is the same float as in the full pair matrix.  The pattern polish scores all
the moves left in a sweep in one rate call, accepts the first that improves,
and rebuilds the moves after it from the new point.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import active_rate, weighted_rate_grad
from .profile import RELAY, SOURCE, cumulative_energies, epoch_lengths, \
    require_valid
from .solver import Allocation, evaluate_schedule

__all__ = [
    "GridConfig",
    "GridResult",
    "BudgetExceededError",
    "grid_search",
    "rho_maxmin",
]


class BudgetExceededError(RuntimeError):
    """The requested grid needs more evaluations than the configured budget."""

    def __init__(self, required, budget):
        self.required = float(required)
        self.budget = float(budget)
        super().__init__("grid search needs ~%.3g evaluations, budget is %.3g"
                         % (self.required, self.budget))


@dataclass(frozen=True)
class GridConfig:
    points_per_dim: int = 20
    refinement_rounds: int = 1
    budget: float = 1e8

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be >= 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class GridResult:
    allocation: Allocation
    total_bits: float
    slack: float
    evaluations: int


def _slope_corners(times, caps):
    """All average-slope values of the cumulative-energy staircase; optima sit
    on these when causality constraints are tight."""
    n = len(caps)
    avail = np.concatenate([[0.0], caps])  # energy available before times[j]
    out = set()
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            out.add((avail[j] - avail[i]) / (times[j] - times[i]))
    return out


def _dim_grid(lo, hi, ppd, corners, extra):
    pts = list(np.linspace(lo, hi, ppd))
    pts.extend(v for v in corners if lo <= v <= hi)
    pts.extend(v for v in extra if lo <= v <= hi)
    pts = np.unique(np.asarray(pts, dtype=float))
    return pts[(pts >= 0.0)]


def _enumerate_feasible(grids, lengths, caps, tol):
    """Index tuples (N, n) of all prefix-feasible grid combinations."""
    n = len(lengths)
    idx = np.arange(len(grids[0]), dtype=np.int32)
    spend = grids[0] * lengths[0]
    ok = spend <= caps[0] + tol
    tuples = idx[ok][:, None]
    spend = spend[ok]
    for i in range(1, n):
        add = grids[i] * lengths[i]
        total = spend[:, None] + add[None, :]
        ok = total <= caps[i] + tol
        rows, cols = np.nonzero(ok)
        tuples = np.concatenate([tuples[rows], cols[:, None].astype(np.int32)], axis=1)
        spend = total[rows, cols]
    return tuples


def _pair_sweep(tables, idx1, idx2, block=96):
    """Deterministic max over all (row tuple, column tuple) pairs.

    Rows are processed in descending order of an epoch-separable upper bound
    (max over the other node per epoch); blocks whose bound cannot beat the
    incumbent are skipped, which leaves the result identical to the full
    sweep because the bound is valid.

    The pair value is ((T_0 + T_1) + ...) + T_last, summed in epoch order.
    Columns come in lexicographic order (_enumerate_feasible), so those that
    share their first n-1 indices (a prefix) form contiguous runs.  The sum A
    over the first n-1 epochs depends only on the prefix, and fl(A + t) never
    decreases as t grows, so the maximum over a prefix's columns is exactly
    fl(A + M), with M the largest T_last entry among them.  The sweep
    therefore sums A at the distinct prefixes only and adds M, which gives
    every row maximum as the same float as the full pair matrix.  A row that
    becomes the incumbent takes the first prefix attaining its maximum and,
    within it, the first column whose fl(A + T_last) equals it: the first
    maximum in enumeration order.  evaluations still count every pair.
    """
    n = idx1.shape[1]
    rowmax = [t.max(axis=1) for t in tables]
    ub = np.zeros(len(idx1))
    for i in range(n):
        ub += rowmax[i][idx1[:, i]]
    order = np.argsort(-ub, kind="stable")
    head = idx2[:, :n - 1]
    starts = np.flatnonzero(np.concatenate(
        [[True], np.any(head[1:] != head[:-1], axis=1)]))
    ends = np.append(starts[1:], len(idx2))
    prefixes = head[starts]
    last = idx2[:, n - 1]
    t_last = tables[n - 1]
    M = np.maximum.reduceat(t_last[:, last], starts, axis=1)
    best_val = -np.inf
    best_pair = (0, 0)
    evals = 0
    for start in range(0, len(order), block):
        rows = order[start:start + block]
        if ub[rows[0]] <= best_val + 1e-15:
            break
        live = ub[rows] > best_val + 1e-15
        rows = rows[live]
        if rows.size == 0:
            continue
        if n > 1:
            A = tables[0][idx1[rows, 0]][:, prefixes[:, 0]]
            for i in range(1, n - 1):
                A += tables[i][idx1[rows, i]][:, prefixes[:, i]]
            G = A + M[idx1[rows, n - 1]]
        else:
            G = M[idx1[rows, 0]]
        evals += len(rows) * len(idx2)
        pre_best = G.argmax(axis=1)
        vals = G[np.arange(len(rows)), pre_best]
        for r in range(len(rows)):
            if vals[r] > best_val + 1e-15:
                best_val = vals[r]
                p = pre_best[r]
                child = t_last[idx1[rows[r], n - 1], last[starts[p]:ends[p]]]
                if n > 1:
                    child = A[r, p] + child
                best_pair = (int(rows[r]),
                             int(starts[p] + np.argmax(child == best_val)))
    return best_val, best_pair, evals


def _row_totals(ch, l, p1, p2):
    """Throughput of each schedule row of p1 and p2 (broadcast together)."""
    return np.sum(l * active_rate(ch, p1, p2), axis=-1)


def _tight_candidates(x, i, lengths, caps):
    """Values for coordinate i that make some prefix k >= i exactly tight."""
    n = len(x)
    spend_wo = np.cumsum(x * lengths) - np.concatenate(
        [np.zeros(i), np.full(n - i, x[i] * lengths[i])])
    out = []
    for k in range(i, n):
        v = (caps[k] - spend_wo[k]) / lengths[i]
        if v >= 0.0:
            out.append(v)
    return out


def _sweep_moves(x, s, lengths, caps, i0, rest):
    """Points reached by the moves left in one node's sweep, all taken from x.

    The sweep is the coordinate moves of coordinates 0..n-1 followed by the
    exchange moves; position i >= n is exchange move i - n.  It resumes at
    position i0, where rest, unless None, holds coordinate i0's remaining
    candidate values.  Returns the points in sweep order, each with the
    (i0, rest) position that follows it.
    """
    n = len(x)
    rows = []
    after = []
    for i in range(i0, n):
        if i == i0 and rest is not None:
            cands = rest
        else:
            cands = [x[i] + s[i], x[i] - s[i]]
            cands.extend(_tight_candidates(x, i, lengths, caps))
        for k, v in enumerate(cands):
            if v < 0.0:
                continue
            y = x.copy()
            y[i] = v
            rows.append(y)
            after.append((i, cands[k + 1:]))
    pairs = list(itertools.combinations(range(n), 2))
    for e in range(max(i0 - n, 0), 2 * len(pairs)):
        i, j = pairs[e // 2]
        d = (1.0, -1.0)[e % 2] * s[i] * lengths[i]  # joules moved from j to i
        vi = x[i] + d / lengths[i]
        vj = x[j] - d / lengths[j]
        if vi < 0.0 or vj < 0.0:
            continue
        y = x.copy()
        y[i], y[j] = vi, vj
        rows.append(y)
        after.append((n + e + 1, None))
    return rows, after


def _pattern_polish(ch, profile, p1, p2, steps1, steps2, max_sweeps=200):
    """Deterministic micro-grid descent around the incumbent.

    Coordinate moves, tight-prefix snaps and pairwise exchange moves along
    the budget faces, with geometrically shrinking steps; uses objective
    evaluations only.  Each node's sweep visits its moves in a fixed order
    and accepts every feasible move that beats the incumbent by more than
    1e-15; a coordinate's candidate values are fixed when the sweep reaches
    it.

    The moves are scored in batches: every move left in the sweep is taken
    from the current point, all feasible ones are scored in one active_rate
    call, and the first improving one is accepted.  The moves before it did
    not improve, and the moves after it are rebuilt from the new point, so
    the sweep accepts the same moves as one that scores them one at a time.
    evaluations counts the feasible moves up to and including each accepted
    one, and all of them in a batch with no improving move.
    """
    l = epoch_lengths(profile)
    c1 = cumulative_energies(profile, SOURCE)
    c2 = cumulative_energies(profile, RELAY)
    x1 = np.array(p1, dtype=float)
    x2 = np.array(p2, dtype=float)
    best = float(_row_totals(ch, l, x1, x2))
    s1 = np.array(steps1, dtype=float)
    s2 = np.array(steps2, dtype=float)
    scale = max(1.0, float(np.max(np.abs(np.concatenate([x1, x2])))))
    tol = 1e-12 * max(1.0, c1[-1], c2[-1])
    evals = 0
    for _ in range(max_sweeps):
        improved = False
        for node in (0, 1):
            x, caps, s = (x1, c1, s1) if node == 0 else (x2, c2, s2)
            pos = (0, None)
            while True:
                rows, after = _sweep_moves(x, s, l, caps, *pos)
                if not rows:
                    break
                Y = np.array(rows)
                ok = np.flatnonzero(np.all(
                    np.cumsum(Y * l, axis=1) <= caps + tol, axis=1))
                Y = Y[ok]
                vals = (_row_totals(ch, l, Y, x2) if node == 0
                        else _row_totals(ch, l, x1, Y))
                hit = np.flatnonzero(vals > best + 1e-15)
                if hit.size == 0:
                    evals += len(Y)
                    break
                r = int(hit[0])
                evals += r + 1
                best = float(vals[r])
                x[:] = Y[r]
                improved = True
                pos = after[ok[r]]
        if not improved:
            s1 *= 0.5
            s2 *= 0.5
            if float(np.max(np.concatenate([s1, s2]))) < 1e-11 * scale:
                break
    return x1, x2, best, evals


def _slack_bound(ch, profile, p1, p2, spacing1, spacing2):
    """Lipschitz-style optimality slack: analytic rate derivative at the
    incumbent times the final grid spacing, epoch-length weighted."""
    l = epoch_lengths(profile)
    branch = (ch.a > 1.0) & ((ch.a ** 2 - 1.0) * p1 >= p2)
    lam = branch.astype(float) if ch.a > 1.0 else np.zeros_like(p1)
    d1, d2 = weighted_rate_grad(ch, np.maximum(p1, 1e-12),
                                np.maximum(p2, 1e-12), lam)
    d1 = np.where(np.isfinite(d1), d1, 0.0)
    d2 = np.where(np.isfinite(d2), d2, 0.0)
    return float(np.sum(l * (np.abs(d1) * spacing1 + np.abs(d2) * spacing2)))


def grid_search(ch, profile, grid=None):
    """Exhaustive feasible-grid maximization of the schedule throughput.

    Grids span [0, prefix-feasible max] per epoch and always include the
    cumulative-staircase slope corners (optima sit on tight-constraint
    corners) plus, for the relay, the saturation powers of the source corner
    values.  Each refinement round re-grids a one-spacing-wide box around
    the incumbent.  Deterministic: ties are broken by enumeration order.
    """
    grid = grid or GridConfig()
    require_valid(profile, allow_degenerate=True)
    l = epoch_lengths(profile)
    n = len(l)
    c1 = cumulative_energies(profile, SOURCE)
    c2 = cumulative_energies(profile, RELAY)

    nominal = float(grid.points_per_dim) ** (2 * n)
    if nominal > grid.budget:
        raise BudgetExceededError(required=nominal, budget=grid.budget)

    if c1[-1] == 0.0 and c2[-1] == 0.0:
        alloc = Allocation(p1=np.zeros(n), p2=np.zeros(n))
        total, _ = evaluate_schedule(ch, profile, alloc)
        return GridResult(allocation=alloc, total_bits=total, slack=0.0,
                          evaluations=0)

    times = np.concatenate([profile.times, [profile.horizon]])
    corners1 = _slope_corners(times, c1)
    corners2 = _slope_corners(times, c2)
    from .closed_form import relay_saturation_power
    sat = {relay_saturation_power(ch, v) for v in corners1 if v > 0.0}
    corners2 = corners2 | {v for v in sat if v > 0.0}

    hi1 = c1 / l
    hi2 = c2 / l
    lo1 = np.zeros(n)
    lo2 = np.zeros(n)
    box_hi1, box_hi2 = hi1.copy(), hi2.copy()
    inc1 = None
    inc2 = None
    best_val = -np.inf
    evaluations = 0
    tol = 1e-12 * max(1.0, c1[-1], c2[-1])
    spacing1 = np.zeros(n)
    spacing2 = np.zeros(n)

    for _ in range(grid.refinement_rounds + 1):
        grids1 = []
        grids2 = []
        for i in range(n):
            extra1 = [inc1[i]] if inc1 is not None else []
            extra2 = [inc2[i]] if inc2 is not None else []
            grids1.append(_dim_grid(lo1[i], box_hi1[i], grid.points_per_dim,
                                    corners1, extra1))
            grids2.append(_dim_grid(lo2[i], box_hi2[i], grid.points_per_dim,
                                    corners2, extra2))
        idx1 = _enumerate_feasible(grids1, l, c1, tol)
        idx2 = _enumerate_feasible(grids2, l, c2, tol)
        pairs = float(len(idx1)) * float(len(idx2))
        if pairs > grid.budget:
            raise BudgetExceededError(required=pairs, budget=grid.budget)
        tables = [l[i] * active_rate(ch, grids1[i][:, None], grids2[i][None, :])
                  for i in range(n)]
        val, (r, c), ev = _pair_sweep(tables, idx1, idx2)
        evaluations += ev
        if val > best_val + 1e-15 or inc1 is None:
            best_val = val
            inc1 = np.array([grids1[i][idx1[r, i]] for i in range(n)])
            inc2 = np.array([grids2[i][idx2[c, i]] for i in range(n)])
        spacing1 = np.array([np.max(np.diff(g)) if len(g) > 1 else 0.0
                             for g in grids1])
        spacing2 = np.array([np.max(np.diff(g)) if len(g) > 1 else 0.0
                             for g in grids2])
        lo1 = np.maximum(inc1 - spacing1, 0.0)
        lo2 = np.maximum(inc2 - spacing2, 0.0)
        box_hi1 = np.minimum(inc1 + spacing1, hi1)
        box_hi2 = np.minimum(inc2 + spacing2, hi2)

    # pattern polish with step restarts: a stalled direction can need a
    # fresh step scale after other coordinates moved
    p1, p2 = inc1, inc2
    prev_val = -np.inf
    for _ in range(6):
        p1, p2, val, ev = _pattern_polish(ch, profile, p1, p2,
                                          np.maximum(spacing1, 1e-9),
                                          np.maximum(spacing2, 1e-9))
        evaluations += ev
        if val <= prev_val + 1e-13 * max(1.0, abs(val)):
            break
        prev_val = val
    alloc = Allocation(p1=p1, p2=p2)
    total, _ = evaluate_schedule(ch, profile, alloc)
    slack = _slack_bound(ch, profile, p1, p2, spacing1, spacing2)
    return GridResult(allocation=alloc, total_bits=total, slack=slack,
                      evaluations=evaluations)


def rho_maxmin(ch, p1, p2, grid_points):
    """Max over a correlation grid of the two-cut minimum rate.

    For jointly Gaussian inputs with correlation rho the source-relay cut is
    C(a^2*(1-rho^2)*p1/N) and the destination cut is
    C((p1 + b^2*p2 + 2*b*rho*sqrt(p1*p2))/N); the achievable rate is the max
    over rho in [0, 1] of their minimum.  Pure evaluation on a uniform grid;
    no closed form is consulted.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    p1 = float(p1)
    p2 = float(p2)
    if p1 < 0 or p2 < 0:
        raise ValueError("powers must be nonnegative")
    if p1 == 0.0:
        return 0.0
    a, b, N = ch.a, ch.b, ch.noise
    rho = np.linspace(0.0, 1.0, int(grid_points))
    cut_sr = 0.5 * np.log2(1.0 + a * a * (1.0 - rho * rho) * p1 / N)
    cut_d = 0.5 * np.log2(1.0 + (p1 + b * b * p2
                                 + 2.0 * b * rho * math.sqrt(p1 * p2)) / N)
    return float(np.max(np.minimum(cut_sr, cut_d)))
