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
k.  The pattern polish scores its moves in one batch per accepted move:
every move it would try next, in sweep order, taken from the current point
(the rest of the sweep in progress, then the sweeps that would follow it
without a gain).  Until a move improves, the point stays fixed and halving a
step is exact, so the first improving move of the batch is the next one the
one-at-a-time form accepts.  A move is rated only at the one or two epochs
it changes; every other epoch keeps the current point's term, the same
float, and the sum over epochs is the same row sum.  The rates come from the
unchecked capacity._active_rate: each move's powers are clamped at zero, a
no-op on the feasible moves, the only ones whose value counts.
"""

import functools
import itertools
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
        # written so that NaN, which fails every comparison, is rejected
        if not self.points_per_dim >= 2:
            raise ValueError("points_per_dim must be >= 2")
        if not self.refinement_rounds >= 0:
            raise ValueError("refinement_rounds must be >= 0")
        if not self.budget > 0:
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


# sweeps scored past the sweep in progress by the batch after an accepted
# move; most gains lie within them, and a deeper batch builds moves that a
# gain would make stale
LOOKAHEAD = 3


@functools.lru_cache(maxsize=None)
def _sweep_template(n):
    """One sweep's moves over n epochs, source then relay, in sweep order,
    as read-only index arrays shared by every call: (fi, fj, sign, snap,
    fk, node0, end).  Indices are flat into the stacked (source, relay)
    powers.  Move m sets power fi[m], and an exchange move (fi != fj) power
    fj[m] too.  Coordinate i of a node tries x_i + s_i and x_i - s_i (sign
    +1 and -1), then the snaps that make the node's prefix fk >= i exactly
    tight; exchange move (i, j) of its pairs shifts sign times one step of
    i from j to i.  end[m] is one past the last move of m's coordinate, or
    m + 1 for an exchange move."""
    rows = []
    for base in (0, n):
        for i in range(base, base + n):
            cut = len(rows) + base + n - i + 2
            rows += [(i, i, 1.0, False, i, cut), (i, i, -1.0, False, i, cut)]
            rows += [(i, i, 0.0, True, k, cut) for k in range(i, base + n)]
        for i, j in itertools.combinations(range(base, base + n), 2):
            rows += [(i, j, 1.0, False, i, len(rows) + 1),
                     (i, j, -1.0, False, i, len(rows) + 2)]
    fi, fj, sign, snap, fk, end = (np.array(c) for c in zip(*rows))
    template = (fi, fj, sign, snap, fk, fi < n, end)
    for a in template:
        a.flags.writeable = False
    return template


def _pattern_polish(ch, profile, p1, p2, steps1, steps2, max_sweeps=200):
    """Deterministic micro-grid descent around the incumbent.

    Coordinate moves, tight-prefix snaps and pairwise exchange moves along
    the budget faces, with geometrically shrinking steps; uses objective
    evaluations only.  Each sweep visits the source's moves and then the
    relay's in a fixed order and accepts every feasible move that beats the
    incumbent by more than 1e-15; a coordinate's candidate values are fixed
    when the sweep reaches it.  A sweep in which neither node improves
    halves every step, and the descent stops once the largest step falls
    below 1e-11 of the powers' scale, or after max_sweeps sweeps.

    The moves are scored in one batch per accepted move, with the same
    result as scoring them one at a time.  A batch holds, in sweep order,
    every move the descent would try next if none improved: the rest of the
    sweep in progress, then the sweeps that would follow.  Until a move
    improves the point stays fixed, halving a step is exact, and the stop
    rule and max_sweeps fix how many sweeps follow, so all of them are taken
    from the current point and the first move that beats the incumbent is
    the next accepted one.  The moves left of a coordinate whose candidate
    was accepted keep their values.  The first batch, and each batch after
    one without a gain, starts a run of flat sweeps and spans all of it; the
    batch after an accepted move spans the sweep in progress and LOOKAHEAD
    more sweeps.  Each move is rated at the one or two epochs it changes;
    the other epochs keep the current point's terms.  evaluations counts the
    feasible moves up to and including each accepted one, and all of them
    in a batch with no gain.
    """
    _, l, _, c1 = _node_arrays(profile, SOURCE)
    c2 = _node_arrays(profile, RELAY)[3]
    n = len(l)
    X = np.array([p1, p2], dtype=float)
    x = X.ravel()  # a view: moves write the point through it
    terms = l * _active_rate(ch, X[0], X[1])
    best = float(np.sum(terms))
    steps = np.concatenate([steps1, steps2]).astype(float)
    scale = max(1.0, float(np.max(np.abs(x))))
    stop = 1e-11 * scale
    tol = 1e-12 * max(1.0, c1[-1], c2[-1])
    fi, fj, sign, snap, fk, node0, end = _sweep_template(n)
    ci, cj, xch = fi % n, fj % n, fi != fj
    ll = np.concatenate([l, l])
    li, lj = ll[fi], ll[fj]
    caps = np.concatenate([c1, c2])
    limit = np.where(node0[:, None], c1 + tol, c2 + tol)
    own = (fi >= n)[:, None] * n + np.arange(n)  # the moved node's powers
    pair = np.stack([fi, fj], axis=1)  # the powers a move sets
    other = (pair + n) % (2 * n)  # the other node's powers at their epochs
    lc = ll[pair]
    ar = np.arange(len(fi))
    evals = 0
    done = 0
    m0, rest, improved = 0, np.empty(0), False
    while done < max_sweeps:
        # the step halvings of the sweeps this batch spans
        top = float(steps.max())
        halvings = [0]
        flat = not improved
        while (len(halvings) < max_sweeps - done
               and (not improved or len(halvings) <= LOOKAHEAD)):
            h = halvings[-1] + flat  # a flat sweep halves the steps after it
            if flat and top * 0.5 ** h < stop:
                break
            halvings.append(h)
            flat = True
        S = steps * 0.5 ** np.array(halvings, dtype=float)[:, None]
        sd = sign * S[:, fi]
        d = sd * li  # joules an exchange move shifts
        spend = x * ll
        cum = spend.reshape(2, n).cumsum(axis=1).ravel()
        tight = (caps[fk] - (cum[fk] - spend[fi])) / li
        vi = np.where(snap, tight, x[fi] + np.where(xch, d / li, sd))
        vi[0, m0:m0 + len(rest)] = rest
        vj = np.where(xch, x[fj] - d / lj, vi)
        Y = np.empty(vi.shape + (n,))
        Y[:] = x[own]
        Y[:, ar, ci] = vi
        Y[:, ar, cj] = vj
        ok = ((Y * l).cumsum(axis=2) <= limit).all(axis=2)
        ok &= np.minimum(vi, vj) >= 0.0
        ok[0, :m0] = False
        V = np.maximum(np.stack([vi, vj], axis=2), 0.0)
        P = x[other]
        rows = np.empty(Y.shape)
        rows[:] = terms
        rate = lc * _active_rate(ch, np.where(node0[:, None], V, P),
                                 np.where(node0[:, None], P, V))
        rows[:, ar, ci] = rate[..., 0]
        rows[:, ar, cj] = rate[..., 1]
        total = rows.sum(axis=2)
        gain = ok & (total > best + 1e-15)
        r = int(gain.argmax())
        if not gain.flat[r]:
            evals += int(np.count_nonzero(ok))
            done += len(halvings)
            if flat:
                steps = S[-1] * 0.5
                if float(steps.max()) < stop:
                    break
            m0, rest, improved = 0, rest[:0], False
            continue
        evals += int(np.count_nonzero(ok.ravel()[:r + 1]))
        j, m = divmod(r, len(fi))
        done += j
        steps = S[j]
        x[fi[m]] = vi[j, m]
        x[fj[m]] = vj[j, m]
        terms = rows[j, m]
        best = float(total[j, m])
        m0, rest, improved = m + 1, vi[j, m + 1:end[m]], True
    return X[0].copy(), X[1].copy(), best, evals


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
