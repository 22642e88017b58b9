"""Harvest-profile model, validation and serialization tests."""

import copy
import json
import pickle

import numpy as np
import pytest

from ehrelay import (
    ChannelParams,
    GridConfig,
    HarvestEvent,
    HarvestProfile,
    ProfileError,
    ProfileFormatError,
    cumulative_energies,
    cumulative_energy,
    epoch_lengths,
    epochs,
    events_to_csv,
    grid_search,
    load_problem,
    parse_problem,
    proportionality,
    save_problem,
    solve_minmax,
    validate,
)
from ehrelay.profile import RELAY, SOURCE
from support import make_profile, random_instance


class TestValidate:
    def test_minimal_valid(self):
        prof = make_profile([0.0], [2.0], [1.0], 6.0)
        assert validate(prof) == []

    def test_first_event_not_at_zero(self):
        prof = make_profile([1.0], [2.0], [1.0], 6.0)
        msgs = validate(prof)
        assert any("first event must be at t=0" in m for m in msgs)

    def test_horizon_before_last_event(self):
        prof = make_profile([0.0, 2.0], [2.0, 0.0], [1.0, 0.0], 1.0)
        msgs = validate(prof)
        assert any("horizon before last event" in m for m in msgs)

    def test_all_violations_listed(self):
        prof = make_profile([1.0, 1.0], [-2.0, 0.0], [0.0, 0.0], 0.5)
        msgs = validate(prof)
        assert len(msgs) >= 4

    def test_zero_energy_reported(self):
        prof = make_profile([0.0], [0.0], [0.0], 6.0)
        msgs = validate(prof)
        assert any("source" in m for m in msgs)
        assert any("relay" in m for m in msgs)


class TestEpochs:
    def test_even_lengths(self):
        prof = make_profile([0, 2, 4], [1, 1, 1], [1, 1, 1], 6.0)
        assert [ep.len for ep in epochs(prof)] == [2.0, 2.0, 2.0]

    def test_single_event(self):
        prof = make_profile([0], [1], [1], 5.0)
        eps = epochs(prof)
        assert len(eps) == 1 and eps[0].len == 5.0

    def test_uneven(self):
        prof = make_profile([0, 1, 4], [1, 1, 1], [1, 1, 1], 6.0)
        assert [ep.len for ep in epochs(prof)] == [1.0, 3.0, 2.0]

    def test_lengths_sum_to_horizon(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(0, 6))
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 9.0, size=k))])
            horizon = 10.0
            prof = make_profile(times, np.ones(k + 1), np.ones(k + 1), horizon)
            assert float(np.sum(epoch_lengths(prof))) == pytest.approx(horizon, abs=1e-12)

    def test_invalid_profile_raises(self):
        prof = make_profile([1.0], [2.0], [1.0], 6.0)
        with pytest.raises(ProfileError):
            epochs(prof)


class TestCumulativeEnergy:
    PROF = make_profile([0, 2, 4], [2, 8, 2], [1, 0, 0], 6.0)

    def test_first(self):
        assert cumulative_energy(self.PROF, "source", 1) == 2.0

    def test_full(self):
        assert cumulative_energy(self.PROF, "source", 3) == 12.0

    def test_zeros_contribute_nothing(self):
        assert cumulative_energy(self.PROF, "relay", 2) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cumulative_energy(self.PROF, "source", 0)
        with pytest.raises(ValueError):
            cumulative_energy(self.PROF, "source", 4)

    def test_nondecreasing(self):
        for node in ("source", "relay"):
            vals = [cumulative_energy(self.PROF, node, k) for k in (1, 2, 3)]
            assert vals == sorted(vals)


class TestProportionality:
    def test_exact_ratio(self):
        prof = make_profile([0, 1], [2, 4], [1, 2], 3.0)
        assert proportionality(prof) == pytest.approx(0.5, abs=1e-12)

    def test_mismatch(self):
        prof = make_profile([0, 1], [2, 4], [1, 3], 3.0)
        assert proportionality(prof) is None

    def test_zero_pair_consistent(self):
        prof = make_profile([0, 1], [2, 0], [1, 0], 3.0)
        assert proportionality(prof) == pytest.approx(0.5, abs=1e-12)

    def test_one_sided_zero_inconsistent(self):
        prof = make_profile([0, 1], [2, 0], [1, 1], 3.0)
        assert proportionality(prof) is None

    def test_tolerance(self):
        prof = make_profile([0, 1], [2, 4], [1, 2 * (1 + 1e-12)], 3.0)
        assert proportionality(prof) is not None


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ch = ChannelParams(a=2.125, b=0.75, noise=1.5)
        prof = make_profile([0.0, 1.1, 2.7], [2.0, 0.3, 8.25], [1.0, 0.0, 4.125], 6.5)
        path = tmp_path / "prob.json"
        save_problem(path, ch, prof)
        ch2, prof2 = load_problem(path)
        assert ch2 == ch
        assert prof2 == prof  # bit-exact round trip

    def test_missing_field(self):
        with pytest.raises(ProfileFormatError, match="horizon"):
            parse_problem({"channel": {"a": 1, "b": 1, "noise": 1},
                           "events": [{"t": 0, "e_source": 1, "e_relay": 1}]})

    def test_bad_event_field(self):
        with pytest.raises(ProfileFormatError, match="e_relay"):
            parse_problem({"channel": {"a": 1, "b": 1, "noise": 1}, "horizon": 5,
                           "events": [{"t": 0, "e_source": 1, "e_relay": "x"}]})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProfileFormatError):
            load_problem(path)

    def test_csv_export(self):
        prof = make_profile([0.0, 2.0], [2.0, 8.0], [1.0, 4.0], 6.0)
        csv = events_to_csv(prof)
        lines = csv.strip().split("\n")
        assert lines[0] == "t,e_source,e_relay"
        assert lines[1] == "0.0,2.0,1.0"
        assert len(lines) == 3


class TestCachedArrays:
    """Each profile computes its derived arrays once and keeps them
    read-only; the public accessors hand out fresh, writable copies."""

    @staticmethod
    def _public(prof):
        return {"times": prof.times, "e_source": prof.e_source,
                "e_relay": prof.e_relay, "lengths": epoch_lengths(prof),
                "caps_source": cumulative_energies(prof, SOURCE),
                "caps_relay": cumulative_energies(prof, RELAY)}

    def test_read_only_and_equal_to_accessors(self):
        prof = make_profile([0.0, 1.5, 4.0], [2.0, 0.0, 3.5], [1.0, 4.0, 0.0], 7.25)
        cached = prof._arrays._asdict()
        assert set(cached) == set(self._public(prof))
        for name, arr in self._public(prof).items():
            assert not cached[name].flags.writeable, name
            with pytest.raises(ValueError):
                cached[name][0] = 1.0
            assert arr.flags.writeable and arr is not cached[name]
            assert arr.dtype == cached[name].dtype == np.float64
            assert arr.tobytes() == cached[name].tobytes(), name
        # the same arrays as the accessors built before the cache
        assert prof.times.tolist() == [0.0, 1.5, 4.0]
        assert epoch_lengths(prof).tolist() == [1.5, 2.5, 3.25]
        assert cumulative_energies(prof, RELAY).tolist() == [1.0, 5.0, 5.0]
        assert prof._arrays is prof._arrays

    def test_pickles_and_copies_rebuild_the_cache(self):
        prof = make_profile([0.0, 2.0], [1.0, 3.0], [2.0, 0.0], 5.0)
        prof._arrays, prof._violations
        for other in (pickle.loads(pickle.dumps(prof)), copy.copy(prof),
                      copy.deepcopy(prof)):
            assert other == prof
            assert set(vars(other)) == {"events", "horizon"}
            for name, arr in other._arrays._asdict().items():
                assert not arr.flags.writeable, name
                assert arr.tobytes() == getattr(prof._arrays, name).tobytes()

    def test_writing_accessor_arrays_leaves_solves_unchanged(self):
        rng = np.random.default_rng(5)
        ch, prof = random_instance(rng, 3, a_low_frac=0.0)
        before = pickle.dumps(solve_minmax(ch, prof))
        grid = pickle.dumps(grid_search(ch, prof, GridConfig(6, 0, 1e9)))
        for arr in self._public(prof).values():
            arr[:] = -1.0
        assert pickle.dumps(solve_minmax(ch, prof)) == before
        assert pickle.dumps(grid_search(ch, prof, GridConfig(6, 0, 1e9))) == grid
        assert np.all(prof.e_source >= 0.0)
