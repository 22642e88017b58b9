"""Brute-force oracle tests: grid search behavior, budget guard, correlation
grid evaluation, determinism, and exact agreement of the grouped pair sweep
and the batched polish with their one-at-a-time reference forms."""

import itertools
import warnings

import numpy as np
import pytest

from ehrelay import (
    BudgetExceededError,
    ChannelParams,
    GridConfig,
    c_awgn,
    capacity_min,
    grid_search,
    rho_maxmin,
    solve_minmax,
)
from ehrelay import oracle
from ehrelay.capacity import active_rate
from ehrelay.profile import RELAY, SOURCE, cumulative_energies, epoch_lengths
from support import make_profile, random_instance

CH = ChannelParams(a=2.0, b=1.0, noise=1.0)
C_2_SQRT3 = 1.1212327819185368


class TestGridSearch:
    def test_zero_energy(self):
        prof = make_profile([0], [0], [0], 6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = grid_search(CH, prof)
        assert res.total_bits == 0.0
        assert np.all(res.allocation.p1 == 0)

    def test_full_spend_corner(self):
        prof = make_profile([0], [6], [12], 6.0)
        res = grid_search(CH, prof, GridConfig(points_per_dim=20,
                                               refinement_rounds=1))
        assert res.allocation.p1[0] == pytest.approx(1.0, abs=1e-6)
        assert res.allocation.p2[0] == pytest.approx(2.0, abs=1e-6)
        assert res.total_bits == pytest.approx(6 * C_2_SQRT3, abs=1e-7)

    def test_matches_closed_form_on_worked_instance(self):
        prof = make_profile([0, 2, 4], [2, 8, 2], [1, 4, 1], 6.0)
        res = grid_search(CH, prof, GridConfig(points_per_dim=15,
                                               refinement_rounds=1,
                                               budget=1e9))
        from ehrelay import solve_proportional
        sol = solve_proportional(CH, prof, 0.5)
        assert res.total_bits == pytest.approx(sol.total_bits, abs=1e-6)

    def test_budget_error_nominal(self):
        prof = make_profile([0, 1, 2, 3], [1, 1, 1, 1], [1, 1, 1, 1], 4.0)
        with pytest.raises(BudgetExceededError) as err:
            grid_search(CH, prof)  # K=3: 20^8 > 1e8
        assert err.value.required > err.value.budget

    def test_budget_error_reports_requirement(self):
        prof = make_profile([0], [6], [6], 6.0)
        with pytest.raises(BudgetExceededError) as err:
            grid_search(CH, prof, GridConfig(points_per_dim=20,
                                             refinement_rounds=0, budget=10))
        assert err.value.required > 10

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        ch, prof = random_instance(rng, 1)
        cfg = GridConfig(points_per_dim=12, refinement_rounds=1)
        r1 = grid_search(ch, prof, cfg)
        r2 = grid_search(ch, prof, cfg)
        assert r1.total_bits == r2.total_bits
        assert np.array_equal(r1.allocation.p1, r2.allocation.p1)
        assert np.array_equal(r1.allocation.p2, r2.allocation.p2)
        assert r1.evaluations == r2.evaluations

    def test_sandwiches_solver(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            ch, prof = random_instance(rng, int(rng.integers(0, 2)))
            sol = solve_minmax(ch, prof)
            res = grid_search(ch, prof, GridConfig(points_per_dim=20,
                                                   refinement_rounds=1,
                                                   budget=1e9))
            assert sol.total_bits >= res.total_bits - res.slack
            assert sol.total_bits <= res.total_bits + 1e-7


# ---------------------------------------------------------------------------
# Reference forms: the full pair matrix, and the polish that scores one move
# at a time.  The package's versions must return the very same floats.


def _ref_pair_sweep(tables, idx1, idx2, block=96):
    n = idx1.shape[1]
    rowmax = [t.max(axis=1) for t in tables]
    ub = np.zeros(len(idx1))
    for i in range(n):
        ub += rowmax[i][idx1[:, i]]
    order = np.argsort(-ub, kind="stable")
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
        S = tables[0][idx1[rows, 0]][:, idx2[:, 0]].copy()
        for i in range(1, n):
            S += tables[i][idx1[rows, i]][:, idx2[:, i]]
        evals += S.size
        col_best = S.argmax(axis=1)
        vals = S[np.arange(len(rows)), col_best]
        for r in range(len(rows)):
            if vals[r] > best_val + 1e-15:
                best_val = vals[r]
                best_pair = (int(rows[r]), int(col_best[r]))
    return best_val, best_pair, evals


def _ref_total(ch, l, p1, p2):
    return float(np.sum(l * active_rate(ch, np.maximum(p1, 0.0),
                                        np.maximum(p2, 0.0))))


def _ref_tight_candidates(x, i, lengths, caps):
    n = len(x)
    spend_wo = np.cumsum(x * lengths) - np.concatenate(
        [np.zeros(i), np.full(n - i, x[i] * lengths[i])])
    out = []
    for k in range(i, n):
        v = (caps[k] - spend_wo[k]) / lengths[i]
        if v >= 0.0:
            out.append(v)
    return out


def _ref_pattern_polish(ch, profile, p1, p2, steps1, steps2, max_sweeps=200):
    l = epoch_lengths(profile)
    c1 = cumulative_energies(profile, SOURCE)
    c2 = cumulative_energies(profile, RELAY)
    n = len(l)
    x1 = np.array(p1, dtype=float)
    x2 = np.array(p2, dtype=float)
    best = _ref_total(ch, l, x1, x2)
    s1 = np.array(steps1, dtype=float)
    s2 = np.array(steps2, dtype=float)
    scale = max(1.0, float(np.max(np.abs(np.concatenate([x1, x2])))))
    tol = 1e-12 * max(1.0, c1[-1], c2[-1])
    evals = 0
    for _ in range(max_sweeps):
        improved = False
        for node in (0, 1):
            x, caps, s = (x1, c1, s1) if node == 0 else (x2, c2, s2)
            for i in range(n):
                cands = [x[i] + s[i], x[i] - s[i]]
                cands.extend(_ref_tight_candidates(x, i, l, caps))
                for v in cands:
                    if v < 0.0:
                        continue
                    y = x.copy()
                    y[i] = v
                    if not np.all(np.cumsum(y * l) <= caps + tol):
                        continue
                    val = (_ref_total(ch, l, y, x2) if node == 0
                           else _ref_total(ch, l, x1, y))
                    evals += 1
                    if val > best + 1e-15:
                        best = val
                        x[i] = v
                        improved = True
            for i, j in itertools.combinations(range(n), 2):
                for sign in (1.0, -1.0):
                    d = sign * s[i] * l[i]
                    vi = x[i] + d / l[i]
                    vj = x[j] - d / l[j]
                    if vi < 0.0 or vj < 0.0:
                        continue
                    y = x.copy()
                    y[i], y[j] = vi, vj
                    if not np.all(np.cumsum(y * l) <= caps + tol):
                        continue
                    val = (_ref_total(ch, l, y, x2) if node == 0
                           else _ref_total(ch, l, x1, y))
                    evals += 1
                    if val > best + 1e-15:
                        best = val
                        x[:] = y
                        improved = True
        if not improved:
            s1 *= 0.5
            s2 *= 0.5
            if float(np.max(np.concatenate([s1, s2]))) < 1e-11 * scale:
                break
    return x1, x2, best, evals


def _prefix_ordered(rng, sizes, keep):
    """A random subset of all index tuples, in lexicographic order."""
    full = np.array(list(itertools.product(*[range(m) for m in sizes])),
                    dtype=np.int32)
    return full[rng.random(len(full)) < keep]


def _down_closed(rng, sizes, keep):
    """Random index tuples in lexicographic order, down-closed in the last
    index as _enumerate_feasible returns them: each kept prefix of the first
    n-1 indices holds the last indices 0..k for a random cutoff k."""
    rows = [head + (j,)
            for head in map(tuple, _prefix_ordered(rng, sizes[:-1], keep))
            for j in range(int(rng.integers(0, sizes[-1])) + 1)]
    return np.array(rows, dtype=np.int32).reshape(-1, len(sizes))


def _assert_down_closed(idx, grids, lengths, caps, tol):
    """idx is every prefix-feasible tuple of the grids, in lexicographic
    order, and each prefix's last indices run 0, 1, ..., k."""
    want = [c for c in itertools.product(*[range(len(g)) for g in grids])
            if np.all(np.cumsum([g[i] * lengths[k] for k, (g, i)
                                 in enumerate(zip(grids, c))])
                      <= caps + tol)]
    assert idx.dtype == np.int32
    assert [tuple(r) for r in idx.tolist()] == want
    last = idx[:, -1]
    starts = np.flatnonzero(last == 0)
    assert len(idx) == 0 or starts[0] == 0
    for s, e in zip(starts, np.append(starts[1:], len(idx))):
        assert np.array_equal(last[s:e], np.arange(e - s))
        assert np.all(idx[s:e, :-1] == idx[s, :-1])


def _random_tables(rng, g1, g2, kind):
    """Per-epoch pair tables: continuous values, a few repeated values (exact
    ties), or a large first epoch whose sums round distinct last-epoch
    entries to the same float."""
    n = len(g1)
    if kind == "continuous":
        return [rng.uniform(0.0, 3.0, (g1[i], g2[i])) for i in range(n)]
    if kind == "repeated":
        return [rng.choice([0.1, 0.2, 0.3], (g1[i], g2[i])) for i in range(n)]
    tables = [rng.choice([0.1, 0.2, 0.3], (g1[i], g2[i])) for i in range(n)]
    tables[0] = tables[0] + 1e3
    tables[-1] = rng.choice([0.0, 1e-14, 3e-14], (g1[-1], g2[-1]))
    return tables


def _random_feasible(rng, l, caps):
    x = np.zeros(len(l))
    spent = 0.0
    for i in range(len(l)):
        x[i] = rng.uniform(0.0, 1.0) * (caps[i] - spent) / l[i]
        spent += x[i] * l[i]
    return x


class TestExactAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["continuous", "repeated", "rounding"])
    def test_pair_sweep_matches_full_matrix(self, n, kind):
        rng = np.random.default_rng(100 * n + len(kind))
        for trial in range(6):
            g1 = rng.integers(2, 7, n)
            g2 = rng.integers(2, 7, n)
            tables = _random_tables(rng, g1, g2, kind)
            idx1 = _prefix_ordered(rng, g1, 0.6)
            idx2 = _down_closed(rng, g2, 0.6)
            if len(idx1) == 0 or len(idx2) == 0:
                continue
            idx1 = idx1[rng.permutation(len(idx1))]
            for block in (96, 5):
                got = oracle._pair_sweep(tables, idx1, idx2, block=block)
                want = _ref_pair_sweep(tables, idx1, idx2, block=block)
                assert got == want, (trial, block)

    def test_enumerate_feasible_is_down_closed(self):
        # grids built as grid_search builds them: full boxes, refined boxes
        # with lo > 0, and nodes without energy in some or all epochs
        rng = np.random.default_rng(11)
        tol = 1e-12
        seen = dict(refined=False, empty_epoch=False, no_energy=False)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            lengths = rng.uniform(0.5, 3.0, n)
            e = rng.uniform(0.5, 8.0, n) * (rng.random(n) < 0.7)
            if trial % 10 == 0:
                e[:] = 0.0
            caps = np.cumsum(e)
            hi = caps / lengths
            lo = np.zeros(n)
            if trial % 3 == 1:
                lo = hi * rng.uniform(0.0, 0.6, n)
                seen["refined"] |= bool(np.any(lo > 0.0))
            corners = set(rng.uniform(0.0, max(hi.max(), 1.0), 4).tolist())
            grids = [oracle._dim_grid(lo[i], hi[i], int(rng.integers(2, 6)),
                                      corners, []) for i in range(n)]
            idx = oracle._enumerate_feasible(grids, lengths, caps, tol)
            _assert_down_closed(idx, grids, lengths, caps, tol)
            seen["empty_epoch"] |= bool(np.any(e == 0.0))
            seen["no_energy"] |= bool(caps[-1] == 0.0)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_polish_matches_one_move_at_a_time(self, k):
        # steps log-uniform in [1e-9, 0.5]; a small max_sweeps can stop the
        # polish inside a run of flat sweeps that the package does at once
        rng = np.random.default_rng(40 + k)
        for max_sweeps in (1, 2, 5, 200) * 2:
            ch, prof = random_instance(rng, k)
            l = epoch_lengths(prof)
            p1 = _random_feasible(rng, l, cumulative_energies(prof, SOURCE))
            p2 = _random_feasible(rng, l, cumulative_energies(prof, RELAY))
            steps1 = np.exp(rng.uniform(np.log(1e-9), np.log(0.5), k + 1))
            steps2 = np.exp(rng.uniform(np.log(1e-9), np.log(0.5), k + 1))
            got = oracle._pattern_polish(ch, prof, p1, p2, steps1, steps2,
                                         max_sweeps)
            want = _ref_pattern_polish(ch, prof, p1, p2, steps1, steps2,
                                       max_sweeps)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert got[3] == want[3]

    def test_grid_search_matches_reference_phases(self, monkeypatch):
        rng = np.random.default_rng(9)
        cases = [random_instance(rng, k) for k in (0, 0, 1, 1, 2, 2)]
        cfg = GridConfig(points_per_dim=10, refinement_rounds=1)
        got = [grid_search(ch, prof, cfg) for ch, prof in cases]
        monkeypatch.setattr(oracle, "_pair_sweep", _ref_pair_sweep)
        monkeypatch.setattr(oracle, "_pattern_polish", _ref_pattern_polish)
        want = [grid_search(ch, prof, cfg) for ch, prof in cases]
        for g, w in zip(got, want):
            assert np.array_equal(g.allocation.p1, w.allocation.p1)
            assert np.array_equal(g.allocation.p2, w.allocation.p2)
            assert (g.total_bits, g.slack, g.evaluations) == \
                (w.total_bits, w.slack, w.evaluations)


class TestRhoMaxmin:
    def test_relay_silent(self):
        # rho is irrelevant at p2 = 0; minimum of the two cuts at rho = 0
        assert rho_maxmin(CH, 1.0, 0.0, 1000) == pytest.approx(0.5, abs=1e-12)

    def test_zero_source(self):
        assert rho_maxmin(CH, 0.0, 5.0, 1000) == 0.0

    def test_matches_closed_form(self):
        val = rho_maxmin(CH, 1.0, 2.0, 10 ** 5)
        assert val == pytest.approx(C_2_SQRT3, abs=1e-5)

    def test_never_exceeds_closed_form_b1(self):
        # the grid maximum lower-bounds the exact maximum
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.uniform(1.01, 3.0)
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            p1 = rng.uniform(0.05, 10.0)
            p2 = rng.uniform(0.0, (a * a - 1.0) * p1)
            exact = capacity_min(ch, p1, p2).active
            approx = rho_maxmin(ch, p1, p2, 20000)
            assert approx <= exact + 1e-12
            assert approx >= exact - 1e-4

    def test_grid_points_validated(self):
        with pytest.raises(ValueError):
            rho_maxmin(CH, 1.0, 1.0, 1)
