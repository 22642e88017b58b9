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
is the same float as in the full pair matrix.  The enumeration makes the
columns down-closed in the last index (grids ascend and epoch lengths are
positive, so within a prefix the feasible last indices are 0..k), so that
largest entry is a running maximum of the last epoch's table row, read at
k.  The pattern polish starts each sweep by scoring, in one rate call, the
moves of every step level that a run of sweeps without improvement could
reach.  Such a run keeps the point fixed, halving a step is exact, and the
stop rule and the sweep cap fix the run's length before it starts, so each
level holds the very moves of one sweep of the run.  The first improving
move ends the batch; the polish accepts it and finishes that sweep as
before: the moves left in a node's sweep are scored together and rebuilt
from the new point after each accepted move.  The polish rates its moves
with the unchecked capacity._active_rate: every move it scores is finite
and nonnegative by construction.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import _active_rate, active_rate, weighted_rate_grad
from .profile import RELAY, SOURCE, _node_arrays, require_valid
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
    """Index tuples (N, n) of all prefix-feasible grid combinations, in
    lexicographic order.  Each grid ascends and each length is positive, so
    the total spend never falls as the last index grows: within each prefix
    of the first n-1 indices the feasible last indices are 0, 1, ..., k."""
    spend = grids[0] * lengths[0]
    cols = [np.flatnonzero(spend <= caps[0] + tol)]
    spend = spend[cols[0]]
    for i in range(1, len(lengths)):
        total = spend[:, None] + grids[i] * lengths[i]
        flat = np.flatnonzero(total <= caps[i] + tol)
        rows, last = np.divmod(flat, len(grids[i]))
        cols = [c[rows] for c in cols] + [last]
        spend = total.ravel()[flat]
    # index columns contiguous: the pair sweep reads them one at a time
    return np.array(cols, dtype=np.int32).T


def _descending(ub):
    """Indices of ub by descending value, ties by ascending index: the order
    of a stable sort, from numpy's faster unstable one.  Only when ub has
    ties are the runs of equal values re-sorted by index."""
    order = np.argsort(-ub)
    key = ub[order]
    tie = key[1:] == key[:-1]
    if tie.any():
        run = np.concatenate([[0], np.cumsum(~tie)])
        order = order[np.argsort(run * len(ub) + order)]
    return order


def _pair_sweep(tables, idx1, idx2, block=96):
    """Deterministic max over all (row tuple, column tuple) pairs.

    Rows are processed in descending order of an epoch-separable upper bound
    (max over the other node per epoch); blocks whose bound cannot beat the
    incumbent are skipped, which leaves the result identical to the full
    sweep because the bound is valid.

    The pair value is ((T_0 + T_1) + ...) + T_last, summed in epoch order.
    idx2 must be down-closed in its last index, as _enumerate_feasible
    returns it: columns come in lexicographic order, and within each prefix
    (the first n-1 indices) the last index runs 0, 1, ..., k.  So the
    prefixes start where the last index is 0.  The sum A over the first n-1
    epochs depends only on the prefix, and fl(A + t) never decreases as t
    grows, so the maximum over a prefix's columns is exactly fl(A + M), with
    M the running maximum of T_last's row up to k.  The sweep gathers each
    epoch's table at the prefixes once, sums A per row at the prefixes only
    and adds M, which gives every row maximum as the same float as the full
    pair matrix.  A row that becomes the incumbent takes the first prefix
    attaining its maximum and, within it, the first column whose
    fl(A + T_last) equals it: the first maximum in enumeration order.
    evaluations still count every pair.
    """
    n = idx1.shape[1]
    rowmax = [t.max(axis=1) for t in tables]
    ub = np.zeros(len(idx1))
    for i in range(n):
        ub += rowmax[i][idx1[:, i]]
    order = _descending(ub)
    last = idx2[:, n - 1]
    starts = np.flatnonzero(last == 0)
    ends = np.append(starts[1:], len(idx2))
    t_last = tables[n - 1]
    M = np.maximum.accumulate(t_last, axis=1)[:, last[ends - 1]]
    heads = [tables[i][:, idx2[starts, i]] for i in range(n - 1)]
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
            A = heads[0][idx1[rows, 0]]
            for i in range(1, n - 1):
                A += heads[i][idx1[rows, i]]
            G = A + M[idx1[rows, n - 1]]
        else:
            G = M[idx1[rows, 0]]
        evals += len(rows) * len(idx2)
        pre_best = G.argmax(axis=1)
        vals = G[np.arange(len(rows)), pre_best]
        # best_val only grows, so rows at or below it now never beat it
        for r in np.flatnonzero(vals > best_val + 1e-15):
            if vals[r] > best_val + 1e-15:
                best_val = vals[r]
                p = pre_best[r]
                child = t_last[idx1[rows[r], n - 1], :ends[p] - starts[p]]
                if n > 1:
                    child = A[r, p] + child
                best_pair = (int(rows[r]),
                             int(starts[p] + np.argmax(child == best_val)))
    return best_val, best_pair, evals


def _row_totals(ch, l, p1, p2):
    """Throughput of each schedule row of p1 and p2 (broadcast together)."""
    return np.sum(l * _active_rate(ch, p1, p2), axis=-1)


@functools.lru_cache(maxsize=None)
def _sweep_layout(n):
    """The index arrays of one node's sweep over n epochs that depend on n
    alone, read-only because every call shares them: (slot_col, fixed, pi,
    pj, sign).  Coordinate i owns n + 2 candidate slots; slot_col holds each
    slot's coordinate and fixed[i] marks the slots that exist whatever the
    point: both steps and the snaps to prefixes k >= i.  Exchange move e
    shifts sign[e] times one step of pi[e] from pj[e] to pi[e]."""
    pi, pj = np.triu_indices(n, 1)
    layout = (np.repeat(np.arange(n), n + 2),
              np.concatenate([np.ones((n, 2), bool),
                              np.triu(np.ones((n, n), bool))], axis=1),
              np.repeat(pi, 2), np.repeat(pj, 2),
              np.tile([1.0, -1.0], n * (n - 1) // 2))
    for a in layout:
        a.flags.writeable = False
    return layout


def _sweep_moves(points, k, S, lengths, caps, tol, i0, rest):
    """Schedule pairs reached by the moves left in node k's sweep, all taken
    from points = (x1, x2), at every step level: row j of S holds the steps
    of level j.

    The sweep is the coordinate moves of coordinates 0..n-1 followed by the
    exchange moves; position i >= n is exchange move i - n.  Coordinate i
    tries x_i + s_i, x_i - s_i and then the values that make some prefix
    k' >= i exactly tight.  The sweep resumes at position i0, where rest,
    unless None, holds coordinate i0's remaining candidate values.

    Returns (Z, ok, after): Z[j, p] holds the (source, relay) powers after
    move p at level j, which replaces points[k] and keeps the other node's
    point; ok marks the feasible moves, those that set no power negative and
    keep every prefix of node k within caps + tol; and after(j, p) is the
    (i0, rest) position that follows move p at level j.
    """
    x = points[k]
    n = len(x)
    levels = len(S)
    slot_col, fixed, pi, pj, sign = _sweep_layout(n)
    spend = x * lengths
    tight = (caps - (np.cumsum(spend) - spend[:, None])) / lengths[:, None]
    start = min(i0 if rest is None else i0 + 1, n)
    cand = np.empty((levels, n - start, n + 2))
    cand[:, :, 0] = x[start:] + S[:, start:]
    cand[:, :, 1] = x[start:] - S[:, start:]
    cand[:, :, 2:] = tight[start:]
    keep = fixed[start:].copy()
    keep[:, 2:] &= tight[start:] >= 0.0
    keep = keep.ravel()
    V = cand.reshape(levels, -1)[:, keep]
    col = slot_col[start * (n + 2):][keep]
    if rest is not None:
        V = np.concatenate([np.broadcast_to(rest, (levels, len(rest))), V],
                           axis=1)
        col = np.concatenate([np.full(len(rest), i0), col])
    e0 = max(i0 - n, 0)
    pi, pj, sign = pi[e0:], pj[e0:], sign[e0:]
    d = sign * S[:, pi] * lengths[pi]  # joules moved from pj to pi
    vi = x[pi] + d / lengths[pi]
    vj = x[pj] - d / lengths[pj]
    m = len(col)
    Z = np.empty((levels, m + len(pi), 2, n))
    Z[:] = points
    Y = Z[:, :, k]
    Y[:, np.arange(m), col] = V
    Y[:, m + np.arange(len(pi)), pi] = vi
    Y[:, m + np.arange(len(pi)), pj] = vj
    ok = np.concatenate([~(V < 0.0), ~((vi < 0.0) | (vj < 0.0))], axis=1)
    ok &= np.all(np.cumsum(Y * lengths, axis=2) <= caps + tol, axis=2)
    end = np.searchsorted(col, col, side="right")

    def after(j, p):
        if p < m:
            return int(col[p]), V[j, p + 1:end[p]]
        return n + e0 + (p - m) + 1, None

    return Z, ok, after


def _first_gain(ch, l, blocks, best):
    """Score every feasible move of blocks in one rate call.

    blocks holds (node, Z, ok, after) tuples from _sweep_moves with the same
    number of levels.  The moves are taken level by level, and within a
    level block by block.  Returns (count, hit): count is the number of
    feasible moves up to and including the first that beats best by more
    than 1e-15, or all of them if none does, and hit is that move's (level,
    block, move, value), or None.
    """
    Z = np.concatenate([b[1] for b in blocks], axis=1)
    idx = np.flatnonzero(np.concatenate([b[2] for b in blocks], axis=1))
    if idx.size == 0:
        return 0, None
    pairs = Z.reshape(-1, 2, len(l))[idx]
    vals = _row_totals(ch, l, pairs[:, 0], pairs[:, 1])
    hit = np.flatnonzero(vals > best + 1e-15)
    if hit.size == 0:
        return len(vals), None
    r = int(hit[0])
    j, p = divmod(int(idx[r]), Z.shape[1])
    b = 0
    while p >= blocks[b][1].shape[1]:
        p -= blocks[b][1].shape[1]
        b += 1
    return r + 1, (j, b, p, float(vals[r]))


def _pattern_polish(ch, profile, p1, p2, steps1, steps2, max_sweeps=200):
    """Deterministic micro-grid descent around the incumbent.

    Coordinate moves, tight-prefix snaps and pairwise exchange moves along
    the budget faces, with geometrically shrinking steps; uses objective
    evaluations only.  Each node's sweep visits its moves in a fixed order
    and accepts every feasible move that beats the incumbent by more than
    1e-15; a coordinate's candidate values are fixed when the sweep reaches
    it.  A sweep in which neither node improves halves every step, and the
    descent stops once the largest step falls below 1e-11 of the powers'
    scale, or after max_sweeps sweeps.

    The moves are scored in batches that give the same result as scoring
    them one at a time.  A sweep starts with one batch over every step level
    its run of flat sweeps (sweeps with no improvement) could reach: such a
    run keeps x1 and x2 fixed, halving a step is exact, and the stop rule and
    max_sweeps fix the run's length before it starts, so level j holds the
    very moves the j-th flat sweep would try.  If no move improves, the whole
    run is done at once.  Otherwise the levels before the first improving
    move were flat sweeps; that move is accepted and the sweep goes on at
    its level one batch at a time: every move left in the node's sweep is
    taken from the current point, all feasible ones are scored together,
    the first improving one is accepted and the moves after it are rebuilt
    from the new point.  evaluations counts the feasible moves up to and
    including each accepted one, and all of them in a batch with no
    improving move.
    """
    _, l, _, c1 = _node_arrays(profile, SOURCE)
    c2 = _node_arrays(profile, RELAY)[3]
    x1 = np.array(p1, dtype=float)
    x2 = np.array(p2, dtype=float)
    best = float(_row_totals(ch, l, x1, x2))
    steps = (np.array(steps1, dtype=float), np.array(steps2, dtype=float))
    scale = max(1.0, float(np.max(np.abs(np.concatenate([x1, x2])))))
    stop = 1e-11 * scale
    tol = 1e-12 * max(1.0, c1[-1], c2[-1])
    points, caps = (x1, x2), (c1, c2)
    evals = 0
    done = 0
    while done < max_sweeps:
        # the levels a run of flat sweeps starting here could reach
        levels = 1
        top = float(np.max(np.concatenate(steps)))
        while levels < max_sweeps - done:
            top *= 0.5
            if top < stop:
                break
            levels += 1
        halve = np.full((levels - 1, len(l)), 0.5)
        S = [np.cumprod(np.vstack([s, halve]), axis=0) for s in steps]
        blocks = [(k,) + _sweep_moves(points, k, S[k], l, caps[k], tol, 0,
                                      None)
                  for k in (0, 1)]
        count, hit = _first_gain(ch, l, blocks, best)
        evals += count
        if hit is None:
            steps = (S[0][-1] * 0.5, S[1][-1] * 0.5)
            done += levels
            if float(np.max(np.concatenate(steps))) < stop:
                break
            continue
        steps = (S[0][hit[0]], S[1][hit[0]])
        done += hit[0] + 1
        # finish the sweep at the hit's level, one batch at a time
        while hit is not None:
            j, b, p, best = hit
            k, Z, _, after = blocks[b]
            points[k][:] = Z[j, p, k]
            pos = after(j, p)
            for k in range(k, 2):
                blocks = [(k,) + _sweep_moves(points, k, steps[k][None], l,
                                              caps[k], tol, *pos)]
                count, hit = _first_gain(ch, l, blocks, best)
                evals += count
                if hit is not None:
                    break
                pos = (0, None)
    return x1, x2, best, evals


def _slack_bound(ch, profile, p1, p2, spacing1, spacing2):
    """Lipschitz-style optimality slack: analytic rate derivative at the
    incumbent times the final grid spacing, epoch-length weighted."""
    l = _node_arrays(profile, SOURCE)[1]
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
    t, l, _, c1 = _node_arrays(profile, SOURCE)
    c2 = _node_arrays(profile, RELAY)[3]
    n = len(l)

    nominal = float(grid.points_per_dim) ** (2 * n)
    if nominal > grid.budget:
        raise BudgetExceededError(required=nominal, budget=grid.budget)

    if c1[-1] == 0.0 and c2[-1] == 0.0:
        alloc = Allocation(p1=np.zeros(n), p2=np.zeros(n))
        total, _ = evaluate_schedule(ch, profile, alloc)
        return GridResult(allocation=alloc, total_bits=total, slack=0.0,
                          evaluations=0)

    times = np.concatenate([t, [profile.horizon]])
    corners1 = _slope_corners(times, c1)
    corners2 = _slope_corners(times, c2)
    from .closed_form import relay_saturation_power
    sat = relay_saturation_power(ch, np.fromiter(corners1, float))
    corners2 = corners2 | set(sat[sat > 0.0].tolist())

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
