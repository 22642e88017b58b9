"""Solver tests: schedule evaluation, inner/outer solves, KKT certification,
structural properties."""

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
    SolverConfig,
    evaluate_schedule,
    invariant_report,
    kkt_residual,
    recover_duals,
    solve_inner,
    solve_minmax,
    weighted_rate_grad,
)
from ehrelay.profile import epoch_lengths
from ehrelay.solver import project_causality
from support import make_profile, random_instance, worked_proportional

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

    def test_counters_report_one_slsqp_solve(self, monkeypatch):
        import scipy.optimize
        njev = []
        minimize = scipy.optimize.minimize

        def counting(*args, **kwargs):
            res = minimize(*args, **kwargs)
            njev.append(res.njev)
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        prof = make_profile([0, 3], [4, 4], [2, 2], 6.0)
        it = solve_minmax(CH, prof).iterations
        assert len(njev) == 1
        assert (it.outer, it.inner_solves) == (0, 1)
        assert it.inner_gradients == njev[0] >= 1

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
                for f in ("xi", "mu", "vartheta", "eta"):
                    assert np.array_equal(getattr(got, f), getattr(fit, f))
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
        # SLSQP stops here with the powers about 1e-8 off and a KKT residual
        # of 2e-7; the active-face polish must finish the certificate
        rng = np.random.default_rng(5)
        for _ in range(30):
            ch, prof = random_instance(rng, int(rng.integers(0, 8)))
        self._assert_optimal(solve_minmax(ch, prof), 8.287128693424174)

    def test_outer_cap_5_batch_index_6(self):
        # formerly certified at 5.6165 bits
        ch, prof = self._criterion2_instance(6)
        sol = solve_minmax(ch, prof, SolverConfig(max_iter_outer=5))
        self._assert_optimal(sol, 6.751205354701607)


class TestModelBoundary:
    def test_b_other_than_one_rejected(self):
        ch = ChannelParams(a=2.0, b=0.75, noise=1.0)
        prof = make_profile([0, 2], [4, 6], [2, 3], 5.0)
        with pytest.raises(ProfileError, match="b = 1 only"):
            solve_minmax(ch, prof)
