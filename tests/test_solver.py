"""Solver tests: schedule evaluation, inner/outer solves, KKT certification,
structural properties."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.optimize

from ehrelay import (
    Allocation,
    BranchUndefinedError,
    ChannelParams,
    DualVariables,
    FeasibilityError,
    ProfileError,
    Solution,
    SolverConfig,
    evaluate_schedule,
    invariant_report,
    kkt_residual,
    proportionality,
    recover_duals,
    solve_inner,
    capacity_min,
    solve_minmax,
    solve_proportional,
    solve_relay_only,
    solve_source_only,
    weighted_rate,
    weighted_rate_grad,
)
from ehrelay import solver
from ehrelay.profile import RELAY, SOURCE, cumulative_energies, epoch_lengths
from ehrelay.solver import (
    FEASIBILITY_RTOL,
    IterationCounters,
    KktReport,
    _epoch_rates,
    _solution,
    _unit_split,
    _weighted_split,
    feasibility_violations,
    project_causality,
)
from support import (
    make_profile,
    random_instance,
    random_proportional_instance,
    worked_proportional,
)

C_2_SQRT3 = 1.1212327819185368
C_4 = 1.160964047443681

CH = ChannelParams(a=2.0, b=1.0, noise=1.0)


class TestEvaluateSchedule:
    def test_zero_allocation(self):
        prof = make_profile([0], [6], [6], 6.0)
        total, rates = evaluate_schedule(CH, prof, Allocation(p1=[0.0], p2=[0.0]))
        assert total == 0.0

    def test_worked_single_epoch(self):
        prof = make_profile([0], [6], [12], 6.0)
        total, rates = evaluate_schedule(CH, prof, Allocation(p1=[1.0], p2=[2.0]))
        assert total == pytest.approx(6.0 * C_2_SQRT3, abs=1e-12)
        assert rates[0].tag == "multi_access_limited"

    def test_infeasible_prefix_listed(self):
        prof = make_profile([0, 2], [2, 8], [1, 4], 6.0)
        # spends epoch-2 source energy during epoch 1
        alloc = Allocation(p1=[3.0, 1.0], p2=[0.25, 0.25])
        with pytest.raises(FeasibilityError) as err:
            evaluate_schedule(CH, prof, alloc)
        assert any("source prefix 1" in v for v in err.value.violations)


def _epoch_rates_loop(ch, l, alloc):
    """Reference: one scalar capacity_min call per epoch."""
    p1 = np.maximum(alloc.p1, 0.0)
    p2 = np.maximum(alloc.p2, 0.0)
    rates = [capacity_min(ch, p1[i], p2[i]) for i in range(len(l))]
    total = float(sum(r.active * l[i] for i, r in enumerate(rates)))
    return total, rates


def _feasibility_loop(profile, alloc, rtol=FEASIBILITY_RTOL):
    """Reference: the per-prefix loop of feasibility_violations."""
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


class TestEpochRatesMatchLoop:
    @staticmethod
    def _draw(rng, a, n):
        """Powers mixing zeros, negatives, clamped radicands (p2 > a^2*p1)
        and points on the branch boundary p2 = (a^2-1)*p1."""
        p1 = rng.uniform(0.0, 5.0, n)
        p2 = rng.uniform(0.0, 5.0, n)
        kind = rng.integers(0, 6, n)
        p1[kind == 0] = 0.0
        p2[kind == 1] = 0.0
        p2[kind == 2] = a * a * p1[kind == 2] * rng.uniform(1.0, 3.0, np.sum(kind == 2))
        p2[kind == 3] = (a * a - 1.0) * p1[kind == 3]
        p1[kind == 4] = -rng.uniform(0.0, 2.0, np.sum(kind == 4))
        p2[kind == 5] = -rng.uniform(0.0, 2.0, np.sum(kind == 5))
        return p1, p2

    @pytest.mark.parametrize("a", [0.5, 0.93, 1.0, 1.4, 2.7])
    def test_bit_identical_to_capacity_min_loop(self, a):
        rng = np.random.default_rng(int(a * 100))
        for trial in range(150):
            n = 1 if trial % 5 == 0 else int(rng.integers(2, 9))
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            l = rng.uniform(0.1, 3.0, n)
            p1, p2 = self._draw(rng, a, n)
            alloc = Allocation(p1=p1, p2=p2)
            total, rates = _epoch_rates(ch, l, alloc)
            want_total, want_rates = _epoch_rates_loop(ch, l, alloc)
            assert type(total) is float
            assert total.hex() == want_total.hex()
            assert len(rates) == len(want_rates) == n
            for got, want in zip(rates, want_rates):
                assert (got.tag, got.multi_access, got.broadcast) == \
                    (want.tag, want.multi_access, want.broadcast)
                for x, y in ((got.multi_access, want.multi_access),
                             (got.broadcast, want.broadcast)):
                    assert type(x) is type(y)
                    if y is not None:
                        assert x.hex() == y.hex()

    def test_draws_cover_every_case(self):
        rng = np.random.default_rng(0)
        p1, p2 = self._draw(rng, 2.0, 400)
        assert np.any(p1 == 0.0) and np.any(p2 == 0.0)
        assert np.any(p1 < 0.0) and np.any(p2 < 0.0)
        assert np.any((p1 > 0.0) & (p2 > 4.0 * p1))
        assert np.any((p1 > 0.0) & (p2 == 3.0 * p1))


class TestFeasibilityViolationsMatchLoop:
    def test_same_messages_in_same_order(self):
        rng = np.random.default_rng(7)
        seen_empty = seen_prefix = seen_negative = False
        for trial in range(300):
            _, prof = random_instance(rng, int(rng.integers(0, 7)))
            l = epoch_lengths(prof)
            caps1 = cumulative_energies(prof, SOURCE)
            caps2 = cumulative_energies(prof, RELAY)
            mode = trial % 3
            if mode == 0:  # feasible: a shrunk projection
                p1 = rng.uniform(0.0, 0.9) * project_causality(
                    rng.uniform(0.0, 5.0, l.size), l, caps1)
                p2 = rng.uniform(0.0, 0.9) * project_causality(
                    rng.uniform(0.0, 5.0, l.size), l, caps2)
            else:  # infeasible, some powers negative
                p1 = rng.uniform(-0.5, 6.0, l.size)
                p2 = rng.uniform(-0.5, 6.0, l.size)
            alloc = Allocation(p1=p1, p2=p2)
            got = feasibility_violations(prof, alloc)
            assert got == _feasibility_loop(prof, alloc)
            seen_empty |= not got
            seen_prefix |= any("overspent" in m for m in got)
            seen_negative |= any("power negative" in m for m in got)
        assert seen_empty and seen_prefix and seen_negative


def _solution_reference(ch, profile, alloc, lam):
    """Reference: the Solution as the public functions compose it."""
    lam = np.asarray(lam, dtype=float)
    total, rates = evaluate_schedule(ch, profile, alloc)
    weighted = float(np.sum(epoch_lengths(profile)
                            * weighted_rate(ch, alloc.p1, alloc.p2, lam)))
    duals = recover_duals(ch, profile, alloc, lam)
    return Solution(allocation=alloc, lam=lam, rates=tuple(rates),
                    total_bits=total, duals=duals,
                    kkt=kkt_residual(ch, profile, alloc, duals, lam),
                    minmax_gap=abs(weighted - total),
                    iterations=IterationCounters(), converged=True,
                    objective_weighted=weighted)


def _bytes(value):
    """A canonical byte form of a Solution field: floats by their bits."""
    if dataclasses.is_dataclass(value):
        return tuple(_bytes(getattr(value, f.name))
                     for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bytes(v) for v in value)
    if isinstance(value, (float, np.floating, np.ndarray)):
        arr = np.asarray(value)
        return type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes()
    return value


def _outcome(fn, *args):
    try:
        return _bytes(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


class TestSolutionOnePass:
    """_solution builds in one pass what the public functions build in four."""

    @staticmethod
    def _draw(rng, a):
        n = 1 if rng.random() < 0.2 else int(rng.integers(2, 7))
        ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 3.0, n - 1))])
        e = rng.uniform(0.5, 8.0, (2, n)) * (rng.random((2, n)) < 0.75)
        if rng.random() < 0.3:  # a zero-cap epoch
            e[int(rng.integers(0, 2)), 0] = 0.0
        prof = make_profile(times, e[0], e[1], times[-1] + rng.uniform(0.5, 3.0))
        l = epoch_lengths(prof)
        p = []
        # some draws give the source power in every epoch its cap allows, so
        # that the gradient runs on whole arrays as well as on masked ones
        busy_source = rng.random() < 0.3
        for c in (cumulative_energies(prof, SOURCE), cumulative_energies(prof, RELAY)):
            # spend a random share of what is left, some epochs nothing
            share = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
            if busy_source and not p:
                share = rng.uniform(0.05, 1.0, n)
            q, spent = np.zeros(n), 0.0
            for i in range(n):
                q[i] = share[i] * (c[i] - spent) / l[i]
                spent += q[i] * l[i]
            p.append(q)
        p1, p2 = p
        if a > 1.0:  # clamped radicands: p2 > a^2*p1
            clamp = rng.random(n) < 0.3
            p1[clamp] = np.minimum(p1[clamp], p2[clamp] / (a * a) * 0.5)
        lam = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7) if a > 1.0 \
            else np.zeros(n)
        return ch, prof, p1, p2, lam

    @pytest.mark.parametrize("a", [0.5, 0.93, 1.0, 1.4, 2.7])
    def test_byte_equal_to_public_composition(self, a):
        rng = np.random.default_rng(int(a * 1000))
        seen = dict(zero=False, clamped=False, zero_cap=False, single=False,
                    whole=False, whole_clamped=False, whole_flat=False,
                    masked=False)
        for _ in range(120):
            ch, prof, p1, p2, lam = self._draw(rng, a)
            alloc = Allocation(p1=p1, p2=p2)
            got = _outcome(_solution, ch, prof, alloc, lam)
            assert got == _outcome(_solution_reference, ch, prof, alloc, lam)
            assert got[0] == _bytes(alloc)  # a Solution, not an error
            seen["zero"] |= bool(np.any(p1 == 0.0) or np.any(p2 == 0.0))
            seen["clamped"] |= bool(np.any((p1 > 0.0) & (p2 > a * a * p1)))
            seen["zero_cap"] |= bool(prof.events[0].e_source == 0.0
                                     or prof.events[0].e_relay == 0.0)
            seen["single"] |= prof.n_epochs == 1
            # the multi-access gradient on whole arrays (every p1 > 0), with
            # clamped radicands or p2 = 0 among them, and on masked ones
            whole = bool(np.all(p1 > 0.0))
            seen["whole"] |= whole
            seen["whole_clamped"] |= whole and bool(np.any(p2 > a * a * p1))
            seen["whole_flat"] |= whole and bool(np.any(p2 == 0.0))
            seen["masked"] |= bool(np.any(p1 == 0.0) and np.any(p1 > 0.0))
        if a <= 1.0:
            seen["clamped"] = seen["whole_clamped"] = True
        assert all(seen.values()), seen

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.7])
    @pytest.mark.parametrize("node", [0, 1])
    @pytest.mark.parametrize("power", [-1e-12, -1.0])
    def test_negative_power_same_outcome(self, a, node, power):
        # within the feasibility tolerance the rate check raises (the source
        # always, the relay for a > 1); beyond it FeasibilityError does
        rng = np.random.default_rng(3)
        ch, prof, p1, p2, lam = self._draw(rng, a)
        p = [p1.copy(), p2.copy()]
        p[node][-1] = power
        alloc = Allocation(p1=p[0], p2=p[1])
        got = _outcome(_solution, ch, prof, alloc, lam)
        assert got == _outcome(_solution_reference, ch, prof, alloc, lam)


# ---------------------------------------------------------------------------
# The feasibility check, the projection and the certificate against the full
# code that their fast paths shortcut


def _violations_reference(alloc, caps, spends, rtol=FEASIBILITY_RTOL):
    out = []
    for node, p, c, spend in zip((SOURCE, RELAY), (alloc.p1, alloc.p2),
                                 caps, spends):
        scale = max(1.0, c[-1])
        if np.any(p < -rtol * scale):
            out.append("%s power negative at epoch %d"
                       % (node, int(np.argmin(p)) + 1))
        excess = spend - c
        for k in np.flatnonzero(excess > rtol * scale):
            out.append("%s prefix %d overspent by %.6g J" % (node, k + 1, excess[k]))
    return out


def _project_reference(p, lengths, caps, tol=1e-12, max_sweeps=5000):
    """project_causality with every Dykstra sweep run."""
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


def _certificate_terms(ch, prof, alloc, lam):
    l = epoch_lengths(prof)
    caps = (cumulative_energies(prof, SOURCE), cumulative_energies(prof, RELAY))
    spends = (np.cumsum(alloc.p1 * l), np.cumsum(alloc.p2 * l))
    d1, d2 = weighted_rate_grad(ch, alloc.p1, alloc.p2,
                                np.asarray(lam, dtype=float))
    return l, caps, spends, (l * d1, l * d2)


def _recover_duals_reference(ch, prof, alloc, lam, active_tol=None):
    """recover_duals with the NNLS matrix stacked from np.where blocks."""
    l, caps, spends, grads = _certificate_terms(ch, prof, alloc, lam)
    n = len(l)
    idx = np.arange(n)[:, None]
    out = {}
    for c, spend, p, g, names in zip(caps, spends, (alloc.p1, alloc.p2), grads,
                                     (("xi", "vartheta"), ("mu", "eta"))):
        keep = ~(c <= 0.0)
        tol = active_tol if active_tol is not None else 1e-7 * max(1.0, c[-1])
        act_pref = np.where(np.abs(spend - c) <= tol)[0]
        p_scale = max(1.0, float(np.max(p)) if p.size else 1.0)
        act_zero = np.where((p <= 1e-9 * p_scale) & keep)[0]
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


def _kkt_residual_reference(ch, prof, alloc, duals, lam):
    """kkt_residual with the feasibility residual reduced part by part."""
    l, (c1, c2), (spend1, spend2), (g1, g2) = _certificate_terms(
        ch, prof, alloc, lam)
    p1, p2 = alloc.p1, alloc.p2
    lam = np.asarray(lam, dtype=float)
    U = np.cumsum(duals.xi[::-1])[::-1]
    V = np.cumsum(duals.mu[::-1])[::-1]
    st1 = g1 - l * U + duals.vartheta
    st2 = g2 - l * V + duals.eta
    keep1 = ~(c1 <= 0.0)
    keep2 = ~(c2 <= 0.0)
    if ch.a > 1.0:
        # an idle kept source epoch: the gradient reads 0 there, so add the
        # gain of starting to send along the best direction (1, t)
        a2 = ch.a ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            c = 2.0 * np.log(2.0) * ch.noise * V / lam
            theta = 0.5 * np.arctan2(2.0 * np.sqrt(a2 - 1.0),
                                     c * a2 - a2 + 2.0)
            t = np.clip(a2 * np.sin(theta) ** 2, 0.0, a2 - 1.0)
            t[~keep2] = 0.0
            g = (np.sqrt(a2 - t) + np.sqrt((a2 - 1.0) * t)) ** 2 / a2
            slope = (lam * g + (1.0 - lam) * a2) / (2.0 * np.log(2.0)
                                                    * ch.noise)
            gain = l * np.maximum(slope - U - V * t, 0.0)
        idle = keep1 & ~(p1 > 0.0) & (lam > 0.0)
        st1 = st1 + np.where(idle, gain, 0.0)
    stat_terms = np.concatenate([st1[keep1], st2[keep2]])
    stationarity = float(np.max(np.abs(stat_terms))) if stat_terms.size else 0.0
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
    return KktReport(stationarity=stationarity, slackness=slackness,
                     feasibility=max(0.0, feas, dual_neg))


def _stationarity_norm(ch, prof, alloc, lam, duals):
    """2-norm of the stationarity residual over the kept epochs of both
    nodes: what the dual fit minimizes; and the gradient scale."""
    l, caps, _, grads = _certificate_terms(ch, prof, alloc, lam)
    r = [(g - l * np.cumsum(y[::-1])[::-1] + z)[c > 0.0]
         for g, c, y, z in zip(grads, caps, (duals.xi, duals.mu),
                               (duals.vartheta, duals.eta))]
    g = np.abs(np.concatenate([g[c > 0.0] for g, c in zip(grads, caps)]))
    return float(np.linalg.norm(np.concatenate(r))), max(
        1.0, float(g.max(initial=0.0)))


def _assert_fit_as_good_as_nnls(ch, prof, alloc, lam, fit, nnls_fit):
    """fit against an NNLS fit on the same active set: the same KktReport
    to 1e-14 relative, the same decision at 1e-7, and a least-squares
    residual no larger up to 1e-15 * the gradient scale.  Where the
    minimizer is not unique the multipliers themselves may differ."""
    got = kkt_residual(ch, prof, alloc, fit, lam)
    want = kkt_residual(ch, prof, alloc, nnls_fit, lam)
    for x, y in zip(dataclasses.astuple(got), dataclasses.astuple(want)):
        assert x == y or (np.isnan(x) and np.isnan(y)) or \
            abs(x - y) <= 1e-14 * max(1.0, abs(y)), (got, want)
    assert got.certified(1e-7) == want.certified(1e-7)
    norm, scale = _stationarity_norm(ch, prof, alloc, lam, fit)
    want_norm, _ = _stationarity_norm(ch, prof, alloc, lam, nnls_fit)
    if np.isfinite(want_norm):
        assert norm <= want_norm + 1e-15 * scale


def _any_outcome(fn, *args):
    try:
        return _bytes(fn(*args))
    except Exception as exc:  # the same error, whatever its type
        return type(exc), str(exc)


class TestFastPathsMatchFullCode:
    @staticmethod
    def _profile(rng):
        n = int(rng.integers(1, 6))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 3.0, n - 1))])
        e = rng.uniform(0.5, 8.0, (2, n)) * (rng.random((2, n)) < 0.75)
        if rng.random() < 0.3:  # a zero-cap epoch
            e[int(rng.integers(0, 2)), 0] = 0.0
        return make_profile(times, e[0], e[1], times[-1] + rng.uniform(0.5, 3.0))

    @staticmethod
    def _powers(rng, prof):
        """Powers inside, on and beyond the caps, with -0.0, tiny and large
        negatives, NaN and inf among them."""
        n = prof.n_epochs
        l = epoch_lengths(prof)
        p = []
        for c in (cumulative_energies(prof, SOURCE), cumulative_energies(prof, RELAY)):
            q = rng.uniform(0.0, 1.0, n) * np.diff(np.concatenate([[0.0], c])) / l
            kind = rng.integers(0, 12, n)
            q[kind == 0] = 0.0
            q[kind == 1] = -0.0
            q[kind == 2] = -1e-12
            q[kind == 3] = -rng.uniform(0.1, 2.0, np.sum(kind == 3))
            q[kind == 4] *= 1.0 + rng.uniform(0.0, 2.0, np.sum(kind == 4))
            if rng.random() < 0.05:
                q[int(rng.integers(0, n))] = rng.choice([np.nan, np.inf, -np.inf])
            if rng.random() < 0.3:  # spend the whole cap: tight prefixes
                q = np.diff(np.concatenate([[0.0], c])) / l
            p.append(q)
        return Allocation(p1=p[0], p2=p[1])

    def test_violations(self):
        from ehrelay.solver import _lengths_caps, _spends, _violations
        rng = np.random.default_rng(41)
        seen_empty = seen_found = False
        for _ in range(400):
            prof = self._profile(rng)
            alloc = self._powers(rng, prof)
            l, caps = _lengths_caps(prof)
            args = (alloc, caps, _spends(alloc, l))
            got = _any_outcome(_violations, *args)
            assert got == _any_outcome(_violations_reference, *args)
            seen_empty |= got == ()
            seen_found |= got != ()
        empty = Allocation(p1=[], p2=[])
        args = (empty, (np.array([]), np.array([])), (np.array([]), np.array([])))
        assert _any_outcome(_violations, *args) == \
            _any_outcome(_violations_reference, *args)
        assert seen_empty and seen_found

    def test_projection(self):
        # a point inside comes back as it is (the reference's first sweep
        # moves nothing but -0.0 to 0.0); a point outside comes back
        # feasible and no farther from p than the Dykstra reference
        rng = np.random.default_rng(42)
        seen_inside = seen_outside = False
        for _ in range(400):
            prof = self._profile(rng)
            alloc = self._powers(rng, prof)
            l = epoch_lengths(prof)
            for p, c in ((alloc.p1, cumulative_energies(prof, SOURCE)),
                         (alloc.p2, cumulative_energies(prof, RELAY))):
                if not np.all(np.isfinite(p)):
                    continue
                got = project_causality(p, l, c)
                want = _project_reference(p, l, c)
                inside = bool(np.all(p >= 0.0) and all(
                    p[: k + 1] @ l[: k + 1] <= c[k] for k in range(l.size)))
                seen_inside |= inside
                seen_outside |= not inside
                if inside:
                    assert _bytes(got) == _bytes(want) == _bytes(p + 0.0)
                    continue
                scale = max(1.0, float(np.max(np.abs(p))), float(c[-1]))
                assert np.all(got >= 0.0)
                assert np.all(np.cumsum(got * l) - c <= 1e-15 * scale)
                assert np.sum((got - p) ** 2) <= \
                    np.sum((want - p) ** 2) + 1e-15 * scale ** 2, (p, l, c)
        assert seen_inside and seen_outside

    def test_certificate(self):
        rng = np.random.default_rng(43)
        seen = dict(fit=False, nan=False, negative_dual=False)
        for _ in range(300):
            prof = self._profile(rng)
            a = rng.choice([0.8, 1.0, 1.6, 2.5])
            ch = ChannelParams(a=a, b=1.0, noise=rng.uniform(0.5, 2.0))
            alloc = self._powers(rng, prof)
            n = prof.n_epochs
            lam = (rng.uniform(0.0, 1.0, n) if a > 1.0 else np.zeros(n))
            duals = DualVariables(*(rng.uniform(-0.5, 2.0, (4, n))
                                    * (rng.random((4, n)) < 0.7)))
            if rng.random() < 0.1:
                duals.xi[int(rng.integers(0, n))] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = recover_duals(ch, prof, alloc, lam)
                _assert_fit_as_good_as_nnls(
                    ch, prof, alloc, lam, fit,
                    _recover_duals_reference(ch, prof, alloc, lam))
                for d in (duals, fit):
                    rep = _any_outcome(kkt_residual, ch, prof, alloc, d, lam)
                    assert rep == _any_outcome(_kkt_residual_reference, ch,
                                               prof, alloc, d, lam)
            seen["fit"] |= bool(np.any(fit.xi > 0.0) or np.any(fit.eta > 0.0))
            seen["nan"] |= bool(np.isnan(alloc.p1).any() or np.isnan(duals.xi).any())
            seen["negative_dual"] |= bool(np.any(duals.mu < 0.0))
        # empty multipliers beside nonempty ones raise as before
        prof = make_profile([0.0], [1.0], [1.0], 2.0)
        alloc = Allocation(p1=[0.5], p2=[0.25])
        odd = DualVariables(xi=[], mu=[0.1], vartheta=[0.0], eta=[0.0])
        assert _any_outcome(kkt_residual, CH, prof, alloc, odd, [1.0]) == \
            _any_outcome(_kkt_residual_reference, CH, prof, alloc, odd, [1.0])
        assert all(seen.values()), seen


class TestProjection:
    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            lengths = rng.uniform(0.2, 3.0, size=n)
            caps = np.cumsum(rng.uniform(0.0, 5.0, size=n))
            p = rng.uniform(-2.0, 6.0, size=n)
            q = project_causality(p, lengths, caps)
            assert np.all(q >= 0)
            assert np.all(np.cumsum(q * lengths) <= caps + 1e-9)
            q2 = project_causality(q, lengths, caps)
            assert np.max(np.abs(q2 - q)) <= 1e-9

    @staticmethod
    def _qp_projection(p, lengths, caps):
        """The projection as a quadratic program solved by SLSQP."""
        n = len(p)
        P = np.tril(np.ones((n, n))) * lengths[None, :]
        res = scipy.optimize.minimize(
            lambda x: 0.5 * np.sum((x - p) ** 2), np.zeros(n),
            jac=lambda x: x - p, method="SLSQP", bounds=[(0.0, None)] * n,
            constraints={"type": "ineq", "fun": lambda x: caps - P @ x,
                         "jac": lambda x: -P},
            options={"ftol": 1e-16, "maxiter": 1000})
        return res.x

    def test_matches_qp_projection(self):
        # Dykstra's sweeps stopped here while their corrections still
        # moved, and the residue trim returned [0, 0.98690...] at squared
        # distance 44.880 with prefix 2 loose by 0.125 J
        p = np.array([2.5743677690696387, 7.171772078293506])
        lengths = np.array([2.730298515600901, 2.4484025296799583])
        caps = np.array([0.12516477182788088, 2.5414985706106203])
        q = project_causality(p, lengths, caps)
        assert q[0] == 0.0
        assert q[1] == pytest.approx(1.0380231762555931, rel=1e-14)
        assert np.sum((q - p) ** 2) == pytest.approx(44.250245003675886,
                                                     rel=1e-14)
        rng = np.random.default_rng(0)
        for i in range(1000):
            n = int(rng.integers(1, 12))
            lengths = rng.uniform(0.1, 3.0, n)
            caps = np.cumsum(rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.7))
            p = rng.uniform(-2.0, 8.0, n)
            scale = max(1.0, float(np.max(np.abs(p))), float(caps[-1]))
            q = project_causality(p, lengths, caps)
            want = self._qp_projection(p, lengths, caps)
            assert np.max(np.abs(q - want)) <= 1e-10 * scale, i

    def test_euclidean_optimality(self):
        # projection must beat any random feasible point in distance
        rng = np.random.default_rng(1)
        lengths = np.array([1.0, 2.0, 1.5])
        caps = np.array([2.0, 5.0, 6.0])
        p = np.array([5.0, 1.0, 4.0])
        q = project_causality(p, lengths, caps)
        d_opt = np.sum((q - p) ** 2)
        for _ in range(2000):
            x = rng.uniform(0.0, 4.0, size=3)
            if np.all(np.cumsum(x * lengths) <= caps):
                assert np.sum((x - p) ** 2) >= d_opt - 1e-9


class TestSolveInner:
    def test_broadcast_only_weights(self):
        prof = make_profile([0], [6], [6], 6.0)
        alloc, duals, rep = solve_inner(CH, prof, np.array([0.0]))
        assert alloc.p1[0] == pytest.approx(1.0, abs=1e-9)
        assert rep["objective"] == pytest.approx(6.0 * C_4, abs=1e-9)
        assert rep["converged"]

    def test_full_weight_full_spend(self):
        prof = make_profile([0], [6], [12], 6.0)
        alloc, duals, rep = solve_inner(CH, prof, np.array([1.0]))
        assert alloc.p1[0] == pytest.approx(1.0, abs=1e-9)
        assert alloc.p2[0] == pytest.approx(2.0, abs=1e-9)
        assert rep["objective"] == pytest.approx(6.0 * C_2_SQRT3, abs=1e-9)

    def test_all_energies_zero(self):
        prof = make_profile([0], [0], [0], 6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alloc, duals, rep = solve_inner(CH, prof, np.array([0.5]))
        assert np.all(alloc.p1 == 0) and np.all(alloc.p2 == 0)
        assert rep["objective"] == 0.0
        assert rep["warnings"]

    def test_weight_shape_and_domain(self):
        prof = make_profile([0], [6], [6], 6.0)
        with pytest.raises(ValueError):
            solve_inner(CH, prof, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            solve_inner(CH, prof, np.array([1.5]))
        ch_small = ChannelParams(a=0.8, b=1.0, noise=1.0)
        with pytest.raises(BranchUndefinedError):
            solve_inner(ch_small, prof, np.array([0.5]))
        # warm must hold one finite power per epoch for each node
        for warm in (Allocation(p1=[1.0, 1.0], p2=[1.0, 1.0]),
                     Allocation(p1=[np.nan], p2=[1.0]),
                     Allocation(p1=[1.0], p2=[np.inf])):
            with pytest.raises(ValueError, match="warm"):
                solve_inner(CH, prof, np.array([0.5]), warm=warm)


class TestSolveOuter:
    """The outer side of the min-max, the weights lam, as solve_minmax
    returns them with its schedule."""

    def test_small_gain_forces_zero_weights(self):
        ch = ChannelParams(a=0.8, b=1.0, noise=1.0)
        prof = make_profile([0, 2], [3, 3], [1, 1], 5.0)
        sol = solve_minmax(ch, prof)
        assert np.all(sol.lam == 0.0)
        assert sol.converged

    def test_relay_limited_single_epoch(self):
        # relay-poor: multi-access bound strictly below broadcast at the
        # optimum, so the weight sits at 1
        prof = make_profile([0], [6], [12], 6.0)
        sol = solve_minmax(CH, prof)
        assert sol.lam[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.total_bits == pytest.approx(6.0 * C_2_SQRT3, abs=1e-8)
        assert sol.minmax_gap <= 1e-9

    def test_symmetric_epochs_equal_weights(self):
        prof = make_profile([0, 3], [4, 4], [2, 2], 6.0)
        sol = solve_minmax(CH, prof)
        assert abs(sol.lam[0] - sol.lam[1]) <= 1e-6
        assert abs(sol.allocation.p1[0] - sol.allocation.p1[1]) <= 1e-6

    @staticmethod
    def _count_slsqp(monkeypatch):
        """The gradient counts of any scipy.optimize.minimize call: the
        solver has no SLSQP core left, so the list must stay empty."""
        njev = []
        minimize = scipy.optimize.minimize

        def counting(*args, **kwargs):
            res = minimize(*args, **kwargs)
            njev.append(res.njev)
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        return njev

    def test_counters_report_one_dual_solve(self, monkeypatch):
        # the staircase start of this instance does not certify, so the
        # dual core runs, once
        njev = self._count_slsqp(monkeypatch)
        iterations = []
        dual_program = solver._dual_program

        def counting(*args):
            x, it = dual_program(*args)
            iterations.append(it)
            return x, it

        monkeypatch.setattr(solver, "_dual_program", counting)
        ch, prof = TestFoundFaults._draw(1011, 11, 2)
        it = solve_minmax(ch, prof).iterations
        assert njev == [] and len(iterations) == 1
        assert (it.outer, it.inner_solves) == (0, 1)
        assert it.inner_gradients == iterations[0] >= 1

    @pytest.mark.parametrize("k", [1, 199])
    def test_certified_start_skips_slsqp(self, monkeypatch, k):
        # proportional harvests: the staircase start is optimal, certifies,
        # and is returned without running the dual core
        njev = self._count_slsqp(monkeypatch)
        if k == 1:
            ch, prof = CH, make_profile([0, 3], [4, 4], [2, 2], 6.0)
        else:
            ch, prof = random_proportional_instance(np.random.default_rng(0), k, 0.5)
        sol = solve_minmax(ch, prof)
        assert prof.n_epochs == k + 1
        assert njev == []
        assert sol.iterations == IterationCounters()
        assert sol.converged and sol.kkt.certified(SolverConfig().tol_inner)
        # the repair may lower a power by an ulp where a prefix is tight
        want = solve_proportional(ch, prof, proportionality(prof)).total_bits
        assert sol.total_bits == pytest.approx(want, rel=1e-14)

    def test_weighted_envelope_ordering(self):
        # the envelope value at the minimizer is below other weight choices
        prof = make_profile([0], [6], [12], 6.0)
        vals = {}
        for w in (0.0, 0.5, 1.0):
            _, _, rep = solve_inner(CH, prof, np.array([w]))
            vals[w] = rep["objective"]
        assert vals[1.0] < vals[0.5] < vals[0.0]


class TestKkt:
    def _certified(self):
        ch, prof = worked_proportional()
        sol = solve_minmax(ch, prof)
        return ch, prof, sol

    def test_certified_residuals_small(self):
        ch, prof, sol = self._certified()
        rep = kkt_residual(ch, prof, sol.allocation, sol.duals, sol.lam)
        assert rep.max <= 1e-7

    def test_perturbation_breaks_certificate(self):
        ch, prof, sol = self._certified()
        p1 = sol.allocation.p1.copy()
        p1[0] *= 1.1
        rep = kkt_residual(ch, prof, Allocation(p1=p1, p2=sol.allocation.p2),
                           sol.duals, sol.lam)
        # the first prefix was tight: +10% power must overspend or break
        # stationarity
        assert rep.feasibility > 1e-7 or rep.stationarity > 1e-7
        assert rep.feasibility > 1e-7

    def test_zero_duals_interior_residual_is_gradient(self):
        prof = make_profile([0], [6], [12], 6.0)
        lam = np.array([1.0])
        alloc = Allocation(p1=[0.5], p2=[1.0])  # strictly interior
        zero = DualVariables.zeros(1)
        rep = kkt_residual(CH, prof, alloc, zero, lam)
        l = epoch_lengths(prof)
        d1, d2 = weighted_rate_grad(CH, alloc.p1, alloc.p2, lam)
        expect = float(np.max(np.abs(np.concatenate([l * d1, l * d2]))))
        assert rep.stationarity == pytest.approx(expect, abs=1e-14)
        assert rep.slackness == 0.0

    def test_recover_duals_nonnegative(self):
        ch, prof, sol = self._certified()
        duals = recover_duals(ch, prof, sol.allocation, sol.lam)
        for f in ("xi", "mu", "vartheta", "eta"):
            assert np.all(getattr(duals, f) >= 0)

    @staticmethod
    def _dense_reference(ch, prof, alloc, lam, duals):
        """recover_duals and kkt_residual written with the dense K x K prefix
        matrix: the fitted multipliers, and the three residuals of duals."""
        l = epoch_lengths(prof)
        n = len(l)
        M = np.tril(np.ones((n, n))) * l[None, :]
        d1, d2 = weighted_rate_grad(ch, alloc.p1, alloc.p2, lam)
        fit, stat, slack, feas = [], [], [], []
        for p, g, caps, y, z in (
                (alloc.p1, l * d1, np.cumsum(prof.e_source), duals.xi, duals.vartheta),
                (alloc.p2, l * d2, np.cumsum(prof.e_relay), duals.mu, duals.eta)):
            keep = caps > 0.0
            spend = M @ p
            act_pref = np.where(np.abs(spend - caps) <= 1e-7 * max(1.0, caps[-1]))[0]
            act_zero = np.where((p <= 1e-9 * max(1.0, np.max(p))) & keep)[0]
            cols = [M[k] for k in act_pref] + [-np.eye(n)[i] for i in act_zero]
            x = np.zeros(len(cols))
            if cols and np.any(keep) and np.all(np.isfinite(g[keep])):
                x = scipy.optimize.nnls(np.column_stack(cols)[keep], g[keep])[0]
            prefix, zero = np.zeros(n), np.zeros(n)
            prefix[act_pref] = x[: len(act_pref)]
            zero[act_zero] = x[len(act_pref):]
            fit += [prefix, zero]
            stat.append((g - M.T @ y + z)[keep])
            slack += [y * (spend - caps), (z * p)[keep]]
            feas += [spend - caps, -p, -y, -z]
        xi, vartheta, mu, eta = fit

        def peak(vs):
            return max([float(np.max(np.abs(v))) for v in vs if v.size] + [0.0])

        residuals = (peak(stat), peak(slack),
                     max(0.0, *(float(np.max(v)) for v in feas)))
        return DualVariables(xi=xi, mu=mu, vartheta=vartheta, eta=eta), residuals

    def test_matches_dense_prefix_matrix_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ch, prof = random_instance(rng, int(rng.integers(0, 6)))
            sol = solve_minmax(ch, prof)
            got = recover_duals(ch, prof, sol.allocation, sol.lam)
            drawn = DualVariables(*rng.uniform(0.0, 1.0, size=(4, prof.n_epochs)))
            for duals in (got, drawn):
                fit, want = self._dense_reference(ch, prof, sol.allocation,
                                                  sol.lam, duals)
                _assert_fit_as_good_as_nnls(ch, prof, sol.allocation, sol.lam,
                                            got, fit)
                rep = kkt_residual(ch, prof, sol.allocation, duals, sol.lam)
                assert (rep.stationarity, rep.slackness, rep.feasibility) == \
                    pytest.approx(want, rel=1e-12, abs=1e-13)


class TestSolutionProperties:
    def test_total_bits_consistency_and_gap(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            ch, prof = random_instance(rng, int(rng.integers(0, 3)))
            sol = solve_minmax(ch, prof)
            total, _ = evaluate_schedule(ch, prof, sol.allocation)
            assert sol.total_bits == pytest.approx(total, rel=1e-9)
            assert sol.minmax_gap <= 10 * SolverConfig().tol_outer

    def test_scale_covariance(self):
        ch = CH
        prof = make_profile([0, 2, 4], [2, 8, 2], [1, 4, 1], 6.0)
        sol = solve_minmax(ch, prof)
        c = 3.7
        prof_s = make_profile([0, 2 * c, 4 * c], [2 * c, 8 * c, 2 * c],
                              [1 * c, 4 * c, 1 * c], 6.0 * c)
        sol_s = solve_minmax(ch, prof_s)
        assert np.allclose(sol_s.allocation.p1, sol.allocation.p1, atol=1e-6)
        assert np.allclose(sol_s.allocation.p2, sol.allocation.p2, atol=1e-6)
        assert sol_s.total_bits == pytest.approx(c * sol.total_bits, rel=1e-6)

    def test_epoch_split_invariance(self):
        # constant-per-epoch powers are WLOG: splitting an epoch in half
        # cannot buy more bits
        ch = CH
        prof = make_profile([0, 2], [4, 6], [2, 3], 5.0)
        sol = solve_minmax(ch, prof)
        split = make_profile([0, 1, 2], [4, 0, 6], [2, 0, 3], 5.0)
        sol2 = solve_minmax(ch, split)
        assert sol2.total_bits <= sol.total_bits + 1e-6
        assert sol2.total_bits == pytest.approx(sol.total_bits, abs=1e-6)

    def test_fstar_midpoint_convexity(self):
        ch = CH
        prof = make_profile([0, 1.5, 3.0], [3, 2, 4], [1, 2, 1], 5.0)
        rng = np.random.default_rng(11)
        for _ in range(10):
            la = rng.uniform(0, 1, size=3)
            lb = rng.uniform(0, 1, size=3)
            fa = solve_inner(ch, prof, la)[2]["objective"]
            fb = solve_inner(ch, prof, lb)[2]["objective"]
            fm = solve_inner(ch, prof, 0.5 * (la + lb))[2]["objective"]
            assert fm <= 0.5 * (fa + fb) + 1e-6

    def test_structure_on_noncrossing_instances(self):
        # monotone powers and tight-at-changes hold when the harvest
        # patterns do not cross (here: proportional and relay-starved)
        ch = CH
        cases = [
            make_profile([0, 2, 4], [2, 8, 2], [1, 4, 1], 6.0),
            make_profile([0, 2], [3, 6], [1.5, 3.0], 5.0),
            make_profile([0, 2], [4, 4], [0.5, 0.5], 5.0),
        ]
        for prof in cases:
            sol = solve_minmax(ch, prof)
            for c in invariant_report(ch, prof, sol.allocation):
                assert c.passed, (prof, c)

    def test_warm_start_agrees_with_cold(self):
        ch, prof = worked_proportional()
        lam = np.array([1.0, 1.0, 1.0])
        a_cold, _, r_cold = solve_inner(ch, prof, lam)
        warm = Allocation(p1=[0.5, 0.5, 0.5], p2=[0.25, 0.25, 0.25])
        a_warm, _, r_warm = solve_inner(ch, prof, lam, warm=warm)
        assert r_cold["objective"] == pytest.approx(r_warm["objective"], abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_inner=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter_outer=0)

    @pytest.mark.parametrize("field", ["tol_inner", "tol_outer",
                                       "max_iter_inner", "max_iter_outer"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(ValueError):
            SolverConfig(**{field: float("nan")})


class TestFoundFaults:
    """Hard instances: each solve must certify at the known optimum."""

    @staticmethod
    def _draw(seed, k, index):
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            ch, prof = random_instance(rng, k)
        return ch, prof

    @staticmethod
    def _criterion2_instance(index):
        rng = np.random.default_rng(20240917)
        for _ in range(index + 1):
            ch, prof = random_instance(rng, int(rng.integers(0, 3)))
        return ch, prof

    def _assert_optimal(self, sol, optimum):
        assert sol.converged
        assert sol.kkt_residual <= SolverConfig().tol_inner
        assert sol.total_bits == pytest.approx(optimum, rel=1e-6)

    def test_rng_1004_second_draw(self):
        # formerly 8.1933 bits, uncertified, after 9 s
        ch, prof = self._draw(1004, 4, 1)
        self._assert_optimal(solve_minmax(ch, prof), 8.465154906426934)

    def test_rng_1011_third_draw(self):
        # formerly unfinished after 130 s
        ch, prof = self._draw(1011, 11, 2)
        self._assert_optimal(solve_minmax(ch, prof), 18.664671534114945)

    def test_stalled_slsqp_is_polished(self):
        # SLSQP, the solver's core before the dual core, stopped here with
        # the powers about 1e-8 off and a KKT residual of 2e-7
        rng = np.random.default_rng(5)
        for _ in range(30):
            ch, prof = random_instance(rng, int(rng.integers(0, 8)))
        self._assert_optimal(solve_minmax(ch, prof), 8.287128693424174)

    def test_outer_cap_5_batch_index_6(self):
        # formerly certified at 5.6165 bits
        ch, prof = self._criterion2_instance(6)
        sol = solve_minmax(ch, prof, SolverConfig(max_iter_outer=5))
        self._assert_optimal(sol, 6.751205354701607)

    @staticmethod
    def _inner_draw(seed, index, k_max=8, exact_weights=False):
        """Draw index of default_rng(seed): K+1 = 1..k_max, a > 1, uniform
        weights; with exact_weights, each weight is then set to 0 with
        probability 0.3 and after that to 1 with probability 0.2."""
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            k = int(rng.integers(0, k_max))
            ch, prof = random_instance(rng, k, a_low_frac=0.0)
            lam = rng.uniform(0.0, 1.0, size=k + 1)
            if exact_weights:
                lam[rng.random(k + 1) < 0.3] = 0.0
                lam[rng.random(k + 1) < 0.2] = 1.0
        return ch, prof, lam

    @staticmethod
    def _minmax_draw(seed, index, k_max, a_low_frac=0.15):
        """Draw index of default_rng(seed): K+1 = 1..k_max."""
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            ch, prof = random_instance(rng, int(rng.integers(0, k_max)),
                                       a_low_frac=a_low_frac)
        return ch, prof

    @staticmethod
    def _criterion7_lam_b(pair):
        """Criterion 7's instance under the second weight vector of pair."""
        rng = np.random.default_rng(13)
        for _ in range(pair + 1):
            rng.uniform(0.0, 1.0, size=3)
            lam = rng.uniform(0.0, 1.0, size=3)
        return (ChannelParams(a=2.0, b=1.0, noise=1.0),
                make_profile([0.0, 1.5, 3.0], [3.0, 2.0, 4.0],
                             [1.0, 2.0, 1.0], 5.0), lam)

    # "inner" draws are _inner_draw(*args), "minmax" ones _minmax_draw(*args)
    # and "criterion7" the second weight vector of criterion 7's pair args.
    # These were the hard draws of the solver's earlier cores: SLSQP stopped
    # short of a certificate on most of them, and Newton steps on the active
    # face, or a face-Newton polish before those, had to finish them or
    # failed to (7077/894 and 4242/648).  On the last two, relay prefixes
    # with only weight-0 epochs between them make the dual core's free
    # block singular: without its step in the null space the core stalls
    # (4242/41 at relay prefix gradients -1.81 and +1.81).
    CORE_CASES = [
        ("inner", (5055, 4), 21.49572789955648),
        ("inner", (3033, 381), 15.993793695491632),
        ("inner", (3033, 795), 9.949306976232489),
        ("criterion7", (30,), 7.242445204266673),
        ("minmax", (99, 214, 12), 16.173353724043018),
        ("minmax", (2026, 159, 10, 0.0), 6.46912266424005),
        ("minmax", (4044, 722, 14, 0.0), 13.298414072570994),
        ("inner", (5055, 763), 13.534566799073447),
        ("inner", (6066, 432, 10), 16.869141581560243),
        ("inner", (4242, 884, 10, True), 3.3260795755500125),
        ("inner", (9099, 916, 10), 23.067528394395495),
        ("inner", (4242, 310, 10, True), 15.111258936644333),
        ("inner", (7077, 894, 10), 12.9181653477611),
        ("inner", (4242, 648, 10, True), 13.7643939933402),
        ("inner", (4242, 41, 10, True), 8.666411413614997),
        ("inner", (4242, 123, 10, True), 10.59196071895407),
    ]

    @pytest.mark.parametrize("draw, args, optimum", CORE_CASES, ids=[
            "rng5055-4", "rng3033-381", "rng3033-795", "criterion7-30b",
            "minmax99-214", "minmax2026-159", "minmax4044-722", "rng5055-763",
            "rng6066-432", "rng4242-884", "rng9099-916", "rng4242-310",
            "rng7077-894", "rng4242-648", "rng4242-41", "rng4242-123"])
    def test_newton_step_certifies(self, draw, args, optimum):
        tol = SolverConfig().tol_inner
        if draw == "minmax":
            sol = solve_minmax(*self._minmax_draw(*args))
            assert sol.converged and sol.kkt.certified(tol)
            assert sol.total_bits == pytest.approx(optimum, rel=1e-9)
            return
        ch, prof, lam = (self._criterion7_lam_b(*args) if draw == "criterion7"
                         else self._inner_draw(*args))
        _, _, rep = solve_inner(ch, prof, lam)
        assert rep["kkt"].certified(tol)
        assert rep["objective"] == pytest.approx(optimum, rel=1e-9)

    @staticmethod
    def _zero_first_draw(index):
        """Raw draw index of default_rng(31): K+1 = 2..7, one node's first
        harvest 0, a > 1; None for a draw in which a node never harvests."""
        rng = np.random.default_rng(31)
        for _ in range(index + 1):
            n = int(rng.integers(2, 8))
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 3.0,
                                                                 n - 1))])
            e = rng.uniform(0.5, 8.0, (2, n)) * (rng.random((2, n)) < 0.7)
            e[rng.integers(0, 2), 0] = 0.0
            if not (e[0].sum() > 0.0 and e[1].sum() > 0.0):
                draw = None
                continue
            horizon = times[-1] + rng.uniform(0.5, 3.0)
            draw = (ChannelParams(rng.uniform(1.05, 2.8), 1.0,
                                  rng.uniform(0.5, 2.0)),
                    make_profile(times, e[0], e[1], horizon))
        return draw

    # Solves of the dual core (weights 1): draw 135 idles its first two
    # epochs, where the dual is flat; the zero-first-harvest draws were
    # returned uncertified by SLSQP plus three Newton steps, at KKT 1.7e-7,
    # 3.5e-6 and 1.5e-7; the K+1 = 300 draw took 2.3 s with SLSQP.
    @pytest.mark.parametrize("draw, optimum", [
        (lambda T: T._minmax_draw(99, 135, 12), 18.269864318655344),
        (lambda T: T._zero_first_draw(0), 13.022593714771567),
        (lambda T: T._zero_first_draw(51), 4.505485978461207),
        (lambda T: T._zero_first_draw(53), 3.907827889928579),
        (lambda T: random_instance(np.random.default_rng(300), 299,
                                   a_low_frac=0.0), 680.6935078448491),
    ], ids=["minmax99-135", "zero-first-0", "zero-first-51", "zero-first-53",
            "long-300"])
    def test_dual_core_certifies(self, draw, optimum):
        sol = solve_minmax(*draw(self))
        assert sol.iterations.inner_solves == 1
        assert sol.converged and sol.kkt.certified(SolverConfig().tol_inner)
        assert sol.total_bits == pytest.approx(optimum, rel=1e-9)

    def test_long_weighted_draw_certifies(self):
        # SLSQP ran 9 s here and returned 675.19 bits at KKT inf
        ch, prof = random_instance(np.random.default_rng(300), 299,
                                   a_low_frac=0.0)
        lam = np.random.default_rng(301).uniform(0.0, 1.0, 300)
        _, _, rep = solve_inner(ch, prof, lam)
        assert rep["converged"]
        assert rep["kkt"].certified(SolverConfig().tol_inner)
        assert rep["objective"] == pytest.approx(745.8540342942674, rel=1e-9)

    def test_tiny_weight_draw_stops(self):
        # weights of 1e-6 leave a projected gradient of 8e-11 in a nearly
        # flat dual direction, where D changes by rounding only: the core
        # once backtracked through that noise for all max_iter_inner
        # iterations (96 s) instead of stopping
        rng = np.random.default_rng(5)
        for _ in range(48):
            k = int(rng.integers(0, 10))
            ch, prof = random_instance(rng, k, a_low_frac=0.0)
            lam = rng.choice([1e-6, 0.5], size=k + 1)
        _, _, rep = solve_inner(ch, prof, lam)
        assert rep["gradients"] <= 50
        assert rep["objective"] == pytest.approx(15.202809179895, rel=1e-9)

    def test_idle_source_epoch_not_certified(self):
        # the gradient reads 0 at p1 = 0, so the fitted vartheta once
        # absorbed the whole price there and this schedule certified exactly
        prof = make_profile([0, 1], [4, 0], [2, 0], 2.0)
        lam = np.ones(2)
        idle = Allocation(p1=[0.0, 4.0], p2=[0.0, 2.0])
        assert evaluate_schedule(CH, prof, idle)[0] == pytest.approx(
            1.701809451438602, rel=1e-12)
        rep = kkt_residual(CH, prof, idle, recover_duals(CH, prof, idle, lam),
                           lam)
        assert rep.stationarity == pytest.approx(2.48, abs=0.01)
        assert not rep.certified(SolverConfig().tol_inner)
        sol = solve_minmax(CH, prof)
        assert sol.converged
        assert sol.total_bits == pytest.approx(2.5338842056531568, rel=1e-12)
        np.testing.assert_allclose(sol.allocation.p1, [2.0, 2.0], rtol=1e-9)
        np.testing.assert_allclose(sol.allocation.p2, [1.0, 1.0], rtol=1e-9)

    @staticmethod
    def _under_one_and_two_threads(script):
        """The stdout of script in a subprocess under one and under two
        BLAS threads, with the package and the tests importable."""
        tests = os.path.dirname(os.path.abspath(__file__))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           [os.path.join(os.path.dirname(tests), "src"),
                            tests]))
            proc = subprocess.run([sys.executable, "-c", textwrap.dedent(
                script)], env=env, capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout.strip())
        return out

    def test_minmax_bytes_independent_of_blas_threads(self):
        # no BLAS-threaded kernel decides a schedule: solve_minmax on the
        # criterion-2 batch and the minmax draws above, solve_inner on the
        # 120 rng-7 draws and the inner draws above (whose powers differed
        # between one and two threads when SLSQP solved them)
        one, two = self._under_one_and_two_threads("""
            import hashlib, warnings
            from ehrelay import solve_inner, solve_minmax
            from test_solver import TestFoundFaults as T, _rng7_draws
            warnings.simplefilter("ignore")
            draws = [T._criterion2_instance(i) for i in range(50)] + [
                T._minmax_draw(99, 214, 12), T._minmax_draw(2026, 159, 10, 0.0),
                T._minmax_draw(4044, 722, 14, 0.0), T._minmax_draw(99, 135, 12)]
            allocs = [solve_minmax(ch, prof).allocation for ch, prof in draws]
            inner = list(_rng7_draws()) + [T._inner_draw(*args) for draw, args,
                                           _ in T.CORE_CASES if draw == "inner"]
            allocs += [solve_inner(*draw)[0] for draw in inner]
            h = hashlib.sha256()
            for alloc in allocs:
                h.update(alloc.p1.tobytes() + alloc.p2.tobytes())
            print(len(allocs), h.hexdigest())
            """)
        n = 54 + 120 + sum(draw == "inner" for draw, _, _ in self.CORE_CASES)
        assert one.split()[0] == str(n) and one == two

    def test_certified_under_two_blas_threads(self):
        # the first draw certified under one thread only, the second under
        # two only, when SLSQP solved them; both must certify under either
        # count, with the same power bytes
        one, two = self._under_one_and_two_threads("""
            import hashlib
            from ehrelay import SolverConfig, solve_inner
            from test_solver import TestFoundFaults as T
            h = hashlib.sha256()
            for draw in (T._inner_draw(3033, 704), T._inner_draw(9099, 916, 10)):
                alloc, _, rep = solve_inner(*draw)
                assert rep["kkt"].certified(SolverConfig().tol_inner), rep
                h.update(alloc.p1.tobytes() + alloc.p2.tobytes())
            print(h.hexdigest())
            """)
        assert one == two


def _rng7_draws():
    """120 instances with a > 1 and K+1 = 1..6, each with uniform weights."""
    rng = np.random.default_rng(7)
    for _ in range(120):
        k = int(rng.integers(0, 6))
        ch, prof = random_instance(rng, k, a_low_frac=0.0)
        yield ch, prof, rng.uniform(0.0, 1.0, size=k + 1)


class TestWeightedProgram:
    """solve_inner maximizes the weighted objective over the cone
    p2 <= (a^2-1)*p1, where R_ma is a rate."""

    # solve_inner's objectives when it ran a projected gradient ascent
    # without the cone, on the first 20 rng-7 draws whose optimum it found
    # inside the cone
    ASCENT_OBJECTIVES = {
        0: 17.18253265011217, 1: 6.127766013198761, 2: 4.015558733106508,
        3: 3.624114115149586, 4: 6.5032633602733725, 5: 16.834745009492863,
        6: 4.7562945708558, 8: 11.832932134419167, 9: 14.25221779122618,
        10: 10.307469720442526, 11: 5.202071454221164,
        12: 4.185707128204429, 13: 14.563940675305425,
        14: 7.410174747338861, 15: 4.962957973012008,
        16: 9.351130051320734, 17: 4.826828061217524,
        18: 15.332426669272817, 19: 11.187500469350603,
        21: 10.422485183889764,
    }

    def test_matches_ascent_reference_inside_cone(self):
        for i, (ch, prof, lam) in enumerate(_rng7_draws()):
            if i in self.ASCENT_OBJECTIVES:
                got = solve_inner(ch, prof, lam)[2]["objective"]
                assert got == pytest.approx(self.ASCENT_OBJECTIVES[i],
                                            rel=1e-12), i

    def test_every_draw_certified_inside_cone(self):
        tol = SolverConfig().tol_inner
        for i, (ch, prof, lam) in enumerate(_rng7_draws()):
            alloc, _, rep = solve_inner(ch, prof, lam)
            assert rep["kkt"].certified(tol), i
            assert np.all(alloc.p2 <= (ch.a ** 2 - 1.0) * alloc.p1), i

    def test_warm_start_is_certified_first(self):
        rng = np.random.default_rng(1)
        for i, (ch, prof, lam) in zip(range(40), _rng7_draws()):
            alloc, _, cold = solve_inner(ch, prof, lam)
            # an optimal warm start is returned without a solve
            _, _, rep = solve_inner(ch, prof, lam, warm=alloc)
            assert rep["gradients"] == 0 and rep["converged"], i
            # from arbitrary starts like these SLSQP, the solver's former
            # core, stopped early on 7 of the 40 draws; a warm start that
            # does not certify only seeds the dual core's multipliers
            n = prof.n_epochs
            warm = Allocation(p1=rng.uniform(-1.0, 20.0, n),
                              p2=rng.uniform(-1.0, 40.0, n))
            _, _, rep = solve_inner(ch, prof, lam, warm=warm)
            assert rep["converged"], i
            assert rep["objective"] == pytest.approx(cold["objective"],
                                                     rel=1e-12), i

    def test_underspent_warm_start_under_unit_weights(self):
        # an underspending warm start leaves the last source prefix loose,
        # so its fitted multipliers give the dual core no finite start
        rng = np.random.default_rng(1)
        for i, (ch, prof, _) in zip(range(20), _rng7_draws()):
            n = prof.n_epochs
            warm = Allocation(p1=rng.uniform(0.0, 0.5, n),
                              p2=rng.uniform(0.0, 0.5, n))
            _, _, rep = solve_inner(ch, prof, np.ones(n), warm=warm)
            assert rep["converged"], i
            assert rep["objective"] == pytest.approx(
                solve_minmax(ch, prof).total_bits, rel=1e-12), i

    def test_weighted_split_is_each_epochs_optimum(self):
        # each epoch's powers at the prices U, V: the weighted rate's
        # gradient equals the prices where the epoch sends, weights of 1 give
        # the closed form, and the Jacobian terms are the derivatives
        rng = np.random.default_rng(17)
        n = 400
        ch = ChannelParams(a=1.7, b=1.0, noise=0.8)
        rl = (ch.a ** 2 - 1.0) ** 0.5 * (rng.random(n) < 0.9)
        live = rng.random(n) < 0.95
        U = rng.uniform(0.05, 1.0, n)
        V = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.9)
        lam = rng.uniform(0.0, 1.0, n)
        lam[rng.random(n) < 0.1] = 0.0
        lam[rng.random(n) < 0.1] = 1.0

        s, q, _, jac = _weighted_split(ch, lam, rl, live, U, V)
        terms, on = jac()
        assert np.array_equal(on, s > 0.0) and 50 < on.sum() < n
        assert np.all(s[~live] == 0.0)
        assert np.all(q >= 0.0)
        assert np.all(q <= (ch.a ** 2 - 1.0) * s * (1.0 + 1e-12))
        # x is held at 0 where the weight is 0 or the relay cannot send
        assert np.all(q[(lam == 0.0) | (rl == 0.0)] == 0.0)
        inner = on & (lam > 0.0) & (rl > 0.0)
        d1, d2 = weighted_rate_grad(ch, s[inner], q[inner], lam[inner])
        np.testing.assert_allclose(d1, U[inner], rtol=1e-9)
        np.testing.assert_allclose(d2, V[inner], rtol=1e-9, atol=1e-9)
        pinned = on & (lam == 0.0)
        d1, _ = weighted_rate_grad(ch, s[pinned], q[pinned], lam[pinned])
        np.testing.assert_allclose(d1, U[pinned], rtol=1e-9)

        ones = np.ones(n)
        got = _weighted_split(ch, ones, rl, live, U, V)
        want = _unit_split(ch, ones, rl, live, U, V)
        for g, w in zip(got[:3], want[:3]):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got[3]()[0], want[3]()[0] * want[3]()[1],
                                   rtol=1e-7, atol=1e-9)

        h, smooth, diffs = 1e-6, on & (V > 1e-3), []
        for dU, dV in ((h, 0.0), (0.0, h)):
            sp, qp = _weighted_split(ch, lam, rl, live, U + dU, V + dV)[:2]
            sm, qm = _weighted_split(ch, lam, rl, live, U - dU, V - dV)[:2]
            # away from the kinks: sending under every perturbation
            smooth &= (sp > 0.0) & (sm > 0.0)
            diffs += [(sp - sm) / (2 * h), (qp - qm) / (2 * h)]
        s_u, q_u, s_v, q_v = diffs
        for got, want in ((terms[0], s_u), (terms[1], s_v), (terms[1], q_u),
                          (terms[2], q_v)):
            np.testing.assert_allclose(got[smooth], want[smooth], rtol=1e-5,
                                       atol=1e-6)

    def test_clamped_extension_not_credited(self):
        # the ascent returned 15.914301041235678 here, with p1[0] = 3.2e-27
        # and p2[0] = 29.6: R_ma's clamped extension beyond the cone credits
        # the relay with a rate while the source sends nothing
        ch = ChannelParams(a=2.474684438108496, b=1.0, noise=1.57816882761866)
        prof = make_profile([0.0, 2.7483, 5.5597], [3.5242, 5.5931, 7.6467],
                            [148.9556, 0.0, 30.9426], 8.3642)
        alloc, _, rep = solve_inner(ch, prof, np.array([0.9867, 0.8189, 0.8625]))
        assert np.all(alloc.p2 <= (ch.a ** 2 - 1.0) * alloc.p1)
        assert rep["kkt"].certified(SolverConfig().tol_inner)
        assert rep["objective"] == pytest.approx(12.891072769493682, rel=1e-9)


class TestModelBoundary:
    @pytest.mark.parametrize("solve, e1, e2", [
        (solve_minmax, [4, 6], [2, 3]),
        (lambda ch, prof: solve_inner(ch, prof, np.ones(prof.n_epochs)),
         [4, 6], [2, 3]),
        (lambda ch, prof: solve_proportional(ch, prof, 0.5), [4, 6], [2, 3]),
        (solve_relay_only, [4, 0], [2, 3]),
        (solve_source_only, [4, 6], [2, 0]),
    ], ids=["solve_minmax", "solve_inner", "solve_proportional",
            "solve_relay_only", "solve_source_only"])
    def test_b_other_than_one_rejected(self, solve, e1, e2):
        ch = ChannelParams(a=2.0, b=0.75, noise=1.0)
        prof = make_profile([0, 2], e1, e2, 5.0)
        with pytest.raises(ProfileError, match="b = 1 only"):
            solve(ch, prof)
