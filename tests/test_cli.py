"""Command-line interface tests: subcommands, exit codes, output files,
determinism."""

import json
import os

import numpy as np
import pytest

from ehrelay import ChannelParams, proportionality
from ehrelay.cli import main
from support import (
    make_profile,
    random_instance,
    worked_proportional,
    write_problem,
)

CH = ChannelParams(a=2.0, b=1.0, noise=1.0)


@pytest.fixture
def worked_file(tmp_path):
    ch, prof = worked_proportional()
    return write_problem(tmp_path / "worked.json", ch, prof), tmp_path


def _read(path):
    with open(path) as fh:
        return json.load(fh)


class TestSolve:
    def test_auto_dispatches_proportional(self, worked_file, capsys):
        path, tmp = worked_file
        rc = main(["solve", path, "--out", str(tmp)])
        assert rc == 0
        out = _read(tmp / "worked_schedule.json")
        assert out["case"] == "proportional"
        assert [row["p1"] for row in out["schedule"]] == [1.0, 2.5, 2.5]
        assert [row["p2"] for row in out["schedule"]] == [0.5, 1.25, 1.25]
        assert out["manifest"]["tool_version"]
        assert "duration_s" in out["manifest"]

    def test_general_agrees_with_auto(self, worked_file):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        auto = _read(tmp / "worked_schedule.json")
        rc = main(["solve", path, "--case", "general", "--out", str(tmp)])
        assert rc == 0
        gen = _read(tmp / "worked_schedule.json")
        assert gen["case"] == "general"
        assert gen["total_bits"] == pytest.approx(auto["total_bits"], rel=1e-4)

    def test_schedule_fields(self, worked_file):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        row = _read(tmp / "worked_schedule.json")["schedule"][0]
        for field in ("epoch", "t_start", "t_end", "p1", "p2", "lambda",
                      "rate_bits", "active_branch"):
            assert field in row

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"channel": {"a": 2, "b": 1, "noise": 1},
                                    "events": [{"t": 0, "e_source": 1,
                                                "e_relay": 1}]}))
        rc = main(["solve", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    def test_validation_error_exit_3(self, tmp_path):
        prof = make_profile([1.0], [2.0], [1.0], 6.0)  # first event not at 0
        path = write_problem(tmp_path / "inval.json", CH, prof)
        rc = main(["solve", path, "--out", str(tmp_path)])
        assert rc == 3

    def test_nonconvergence_exit_4_with_partial_output(self, tmp_path):
        # SLSQP runs here and its point does not certify at 1e-30
        ch, prof = random_instance(np.random.default_rng(5), 2, a_low_frac=0.0)
        path = write_problem(tmp_path / "slsqp.json", ch, prof)
        rc = main(["solve", path, "--case", "general", "--tol-inner", "1e-30",
                   "--out", str(tmp_path)])
        assert rc == 4
        out = _read(tmp_path / "slsqp_schedule.json")  # partial output exists
        assert out["converged"] is False

    @pytest.mark.parametrize("case, e1, e2", [
        ("proportional", [4, 6], [2, 5]),
        ("relay-only", [4, 6], [2, 5]),
        ("source-only", [4, 6], [2, 5]),
        ("relay-only", [0, 6], [2, 5]),
        ("source-only", [4, 0], [0, 5]),
    ])
    def test_case_not_matching_profile_exit_3(self, tmp_path, capsys, case,
                                              e1, e2):
        path = write_problem(tmp_path / "p.json", CH,
                             make_profile([0, 2], e1, e2, 5.0))
        rc = main(["solve", path, "--case", case, "--out", str(tmp_path)])
        assert rc == 3
        assert "validation error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "p_schedule.json")

    def test_determinism_byte_identical_schedule(self, worked_file):
        path, tmp = worked_file
        main(["solve", path, "--case", "general", "--out", str(tmp)])
        first = _read(tmp / "worked_schedule.json")
        main(["solve", path, "--case", "general", "--out", str(tmp)])
        second = _read(tmp / "worked_schedule.json")
        s1 = json.dumps(first["schedule"], sort_keys=True)
        s2 = json.dumps(second["schedule"], sort_keys=True)
        assert s1 == s2
        assert first["total_bits"] == second["total_bits"]

    @pytest.mark.parametrize("argv", [
        ["solve", "{problem}", "--seed", "0"],
        ["check", "{problem}", "{schedule}", "--tol-inner", "1"],
        ["check", "{problem}", "{schedule}", "--out", "{tmp}"],
        ["oracle", "{problem}", "--max-iter", "10"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, worked_file,
                                                           argv):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        names = {"problem": path, "tmp": str(tmp),
                 "schedule": str(tmp / "worked_schedule.json")}
        with pytest.raises(SystemExit) as exc:
            main([a.format(**names) for a in argv])
        assert exc.value.code == 2


class TestOneProcess:
    def test_commands_in_sequence_share_no_state(self, worked_file):
        path, tmp = worked_file
        relay = write_problem(tmp / "relay.json", CH,
                              make_profile([0, 2, 4], [6, 0, 0], [1, 4, 2], 6.0))
        first = ["solve", relay, "--case", "relay-only", "--out", str(tmp)]

        def schedule_bytes():
            text = (tmp / "relay_schedule.json").read_text()
            return [ln for ln in text.split("\n") if '"duration_s"' not in ln]

        assert main(first) == 0
        before = schedule_bytes()
        assert main(["solve", path, "--out", str(tmp)]) == 0
        assert _read(tmp / "worked_schedule.json")["case"] == "proportional"
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--seed", "0"])
        assert exc.value.code == 2
        assert main(["oracle", path, "--out", str(tmp)]) == 0
        assert main(first) == 0
        assert schedule_bytes() == before
        assert _read(tmp / "relay_schedule.json")["case"] == "relay-only"


class TestOracle:
    def test_corner_incumbent(self, tmp_path):
        prof = make_profile([0], [6], [12], 6.0)
        path = write_problem(tmp_path / "k0.json", CH, prof)
        rc = main(["oracle", path, "--out", str(tmp_path)])
        assert rc == 0
        out = _read(tmp_path / "k0_oracle.json")
        assert out["best_allocation"]["p1"][0] == pytest.approx(1.0, abs=1e-6)
        assert out["slack"] >= 0

    @pytest.mark.filterwarnings("ignore:degenerate profile")
    @pytest.mark.filterwarnings("ignore:all harvests are zero")
    def test_zero_energy_profile(self, tmp_path):
        prof = make_profile([0], [0], [0], 6.0)
        path = write_problem(tmp_path / "zero.json", CH, prof)
        rc = main(["oracle", path, "--out", str(tmp_path)])
        assert rc == 0
        out = _read(tmp_path / "zero_oracle.json")
        assert out["total_bits"] == 0.0

    def test_k3_budget_exit_3(self, tmp_path, capsys):
        prof = make_profile([0, 1, 2, 3], [1, 1, 1, 1], [1, 1, 1, 1], 4.0)
        path = write_problem(tmp_path / "k3.json", CH, prof)
        rc = main(["oracle", path, "--out", str(tmp_path)])
        assert rc == 3
        assert "budget" in capsys.readouterr().err


class TestCheck:
    def test_solver_output_passes(self, worked_file, capsys):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        rc = main(["check", path, str(tmp / "worked_schedule.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "feasibility" in out and "PASS" in out

    def test_hand_edited_decrease_fails(self, worked_file, capsys):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        sched = _read(tmp / "worked_schedule.json")
        sched["schedule"][1]["p1"] = 0.5  # force a decrease
        edited = tmp / "edited.json"
        edited.write_text(json.dumps(sched))
        rc = main(["check", path, str(edited)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "p1_monotone" in out and "FAIL" in out

    def test_overspending_fails_feasibility(self, worked_file, capsys):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        sched = _read(tmp / "worked_schedule.json")
        sched["schedule"][0]["p1"] = 3.0  # prefix-1 overspend
        edited = tmp / "edited.json"
        edited.write_text(json.dumps(sched))
        rc = main(["check", path, str(edited)])
        assert rc == 1
        assert "feasibility" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["p1", "p2", "rate_bits"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_rows_exit_2(self, worked_file, capsys, field, value):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        sched = _read(tmp / "worked_schedule.json")
        sched["schedule"][1][field] = value  # json writes NaN, Infinity
        edited = tmp / "edited.json"
        edited.write_text(json.dumps(sched))
        capsys.readouterr()
        rc = main(["check", path, str(edited)])
        assert rc == 2
        assert "%s must be finite" % field in capsys.readouterr().err

    # a total that is not a finite number is malformed (exit 2); an absent
    # one is not checked (exit 0), a wrong number fails the check (exit 1)
    @pytest.mark.parametrize("value, rc", [
        ("abc", 2), ([1], 2), (None, 2), (True, 2), (float("nan"), 2),
        (float("inf"), 2), (float("-inf"), 2), (10 ** 400, 2),
        ("absent", 0), (1, 1),
    ], ids=["str", "list", "null", "bool", "nan", "inf", "-inf", "huge-int",
            "absent", "wrong-int"])
    def test_total_bits_validated(self, worked_file, capsys, value, rc):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        sched = _read(tmp / "worked_schedule.json")
        if value == "absent":
            del sched["total_bits"]
        else:
            sched["total_bits"] = value
        edited = tmp / "edited.json"
        edited.write_text(json.dumps(sched))
        capsys.readouterr()
        assert main(["check", path, str(edited)]) == rc
        malformed = "total_bits must be a finite number"
        assert (malformed in capsys.readouterr().err) == (rc == 2)

    @pytest.mark.parametrize("top", [[1], "schedule", 3, None])
    def test_non_object_file_exit_2(self, worked_file, capsys, top):
        path, tmp = worked_file
        edited = tmp / "edited.json"
        edited.write_text(json.dumps(top))
        rc = main(["check", path, str(edited)])
        assert rc == 2
        assert "top level must be a JSON object" in capsys.readouterr().err

    def test_mismatched_epochs_exit_3(self, worked_file, tmp_path):
        path, tmp = worked_file
        main(["solve", path, "--out", str(tmp)])
        sched = _read(tmp / "worked_schedule.json")
        sched["schedule"] = sched["schedule"][:2]
        edited = tmp / "short.json"
        edited.write_text(json.dumps(sched))
        rc = main(["check", path, str(edited)])
        assert rc == 3


class TestPlotdata:
    @pytest.mark.parametrize("case, e_source, e_relay", [
        ("proportional", [2, 8, 2], [1, 4, 1]),
        ("relay-only", [6, 0, 0], [1, 4, 2]),
        ("source-only", [2, 8, 2], [9, 0, 0]),
        ("general", [4, 6, 1], [2, 5, 3]),
    ])
    def test_steps_match_solve_auto(self, tmp_path, case, e_source, e_relay):
        prof = make_profile([0, 2, 4], e_source, e_relay, 6.0)
        path = write_problem(tmp_path / "p.json", CH, prof)
        assert main(["solve", path, "--out", str(tmp_path)]) == 0
        solved = _read(tmp_path / "p_schedule.json")
        assert solved["case"] == case
        assert main(["plotdata", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "p_steps.csv").read_text().strip().split("\n")[1:]
        steps = [[float(v) for v in row.split(",")[:6]] + row.split(",")[6:]
                 for row in rows]
        expected = [[r["t_start"], r["t_end"], r["p1"], r["p2"], r["lambda"],
                     r["rate_bits"], r["active_branch"]]
                    for r in solved["schedule"]]
        assert steps == expected

    def test_files_and_tightness(self, worked_file):
        path, tmp = worked_file
        rc = main(["plotdata", path, "--out", str(tmp)])
        assert rc == 0
        harvested = (tmp / "worked_harvested.csv").read_text().strip().split("\n")
        consumed = (tmp / "worked_consumed.csv").read_text().strip().split("\n")
        steps = (tmp / "worked_steps.csv").read_text().strip().split("\n")
        assert harvested[0] == "t_s,harvested_source_J,harvested_relay_J"
        assert consumed[0] == "t_s,consumed_source_J,consumed_relay_J"
        assert len(steps) == 4  # header + 3 epochs
        # consumed source energy touches the harvested staircase at t=2
        row = [r for r in consumed if r.startswith("2,") or r.startswith("2.0,")]
        assert row, consumed
        consumed_at_2 = float(row[0].split(",")[1])
        assert consumed_at_2 == pytest.approx(2.0, abs=1e-9)

    def test_single_harvest_chord(self, tmp_path):
        prof = make_profile([0], [6], [6], 6.0)
        path = write_problem(tmp_path / "one.json", CH, prof)
        main(["plotdata", path, "--out", str(tmp_path)])
        consumed = (tmp_path / "one_consumed.csv").read_text().strip().split("\n")
        assert consumed[1] == "0,0,0"
        t, s, r = consumed[2].split(",")
        assert float(t) == 6.0 and float(s) == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:degenerate profile")
    @pytest.mark.filterwarnings("ignore:all harvests are zero")
    def test_zero_energy_flat(self, tmp_path):
        prof = make_profile([0], [0], [0], 6.0)
        path = write_problem(tmp_path / "z.json", CH, prof)
        rc = main(["plotdata", path, "--out", str(tmp_path)])
        assert rc == 0
        consumed = (tmp_path / "z_consumed.csv").read_text().strip().split("\n")
        for line in consumed[1:]:
            assert float(line.split(",")[1]) == 0.0


class TestModelBoundary:
    """b != 1 lies outside the solved model: validation error, exit 3."""

    @pytest.fixture
    def b075_file(self, tmp_path):
        ch = ChannelParams(a=2.0, b=0.75, noise=1.0)
        prof = make_profile([0, 2], [4, 6], [2, 5], 5.0)  # general profile
        return write_problem(tmp_path / "b075.json", ch, prof), tmp_path

    def test_solve_general_exit_3(self, b075_file, capsys):
        path, tmp = b075_file
        rc = main(["solve", path, "--case", "general", "--out", str(tmp)])
        assert rc == 3
        assert "b = 1 only" in capsys.readouterr().err
        assert not os.path.exists(tmp / "b075_schedule.json")

    def test_plotdata_exit_3(self, b075_file, capsys):
        path, tmp = b075_file
        rc = main(["plotdata", path, "--out", str(tmp)])
        assert rc == 3
        assert "b = 1 only" in capsys.readouterr().err

    @pytest.mark.parametrize("e1, e2", [
        ([4, 6], [2, 3]),
        ([4, 0], [2, 3]),
        ([4, 6], [2, 0]),
    ], ids=["proportional", "relay-only", "source-only"])
    def test_solve_auto_closed_form_exit_3(self, tmp_path, capsys, e1, e2):
        ch = ChannelParams(a=2.0, b=0.75, noise=1.0)
        path = write_problem(tmp_path / "b075.json", ch,
                             make_profile([0, 2], e1, e2, 5.0))
        rc = main(["solve", path, "--case", "auto", "--out", str(tmp_path)])
        assert rc == 3
        assert "b = 1 only" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "b075_schedule.json")


def _round_tree(obj):
    """The payload as the JSON writer rounds it: floats, numpy ones
    included, to 12 significant digits, numpy integers to ints."""
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float("%.12g" % float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


class TestJsonWriter:
    """cli._write_json writes what json.dumps(indent=2) writes for the
    rounded payload, in one traversal."""

    PAYLOADS = [
        {"f": 1.0 / 3.0, "np64": np.float64(2.0 / 7.0), "np32": np.float32(0.1),
         "big": 1.2345678901234567e300, "tiny": 5e-324, "whole": 1e16,
         "neg_zero": -0.0, "round_up": 0.9999999999996, "ints": [0, -7, 2 ** 70],
         "np_ints": [np.int64(-3), np.int32(12), np.uint8(255)]},
        {"nan": float("nan"), "inf": float("inf"), "-inf": -np.inf,
         "np_nan": np.float64("nan")},
        {"true": True, "false": False, "none": None, "empty_list": [],
         "empty_dict": {}, "empty_tuple": (), "nested": [[], {}, [[1.5]], {"a": {}}]},
        {"input": '/tmp/dir "quoted"/café – über\\x.json',
         "output_paths": ["/d/λ_schedule.json", "tab\there", "\u0000\u001f"],
         "é key": "\U0001f600"},
        [1.0, [2.0, [3.0, {"deep": (4.0, 5)}]]],
        {}, [], "just a string", 3.25, 7, None, True,
    ]

    @pytest.mark.parametrize("index", range(len(PAYLOADS)))
    def test_same_bytes_as_json_dumps(self, tmp_path, index):
        from ehrelay.cli import _write_json
        payload = self.PAYLOADS[index]
        path = tmp_path / "out.json"
        _write_json(path, payload)
        with open(path, "rb") as fh:
            got = fh.read()
        want = json.dumps(_round_tree(payload), indent=2) + "\n"
        assert got == want.encode()

    def test_solve_payloads(self, tmp_path):
        # every field type of a real schedule file, from each dispatch case
        from ehrelay.cli import _write_json
        for name, e1, e2 in (("prop", [2, 8, 2], [1, 4, 1]),
                             ("relay", [6, 0, 0], [1, 4, 2]),
                             ("general", [1, 3, 0.5], [2, 0.1, 3])):
            path = write_problem(tmp_path / (name + ".json"), CH,
                                 make_profile([0, 2, 4], e1, e2, 6.0))
            assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
            with open(tmp_path / (name + "_schedule.json")) as fh:
                text = fh.read()
            payload = json.loads(text)
            _write_json(tmp_path / "again.json", payload)
            with open(tmp_path / "again.json") as fh:
                assert fh.read() == json.dumps(_round_tree(payload), indent=2) + "\n"
            assert text == json.dumps(_round_tree(payload), indent=2) + "\n"

    def test_unserializable_payload_leaves_no_file(self, tmp_path):
        from ehrelay.cli import _write_json
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError) as exc:
            _write_json(path, {"ok": 1.0, "bad": np.arange(3)})
        with pytest.raises(TypeError) as want:
            json.dumps(_round_tree({"ok": 1.0, "bad": np.arange(3)}), indent=2)
        assert str(exc.value) == str(want.value)
        assert not path.exists()


class TestDispatch:
    def test_proportionality_detected_once_per_file(self, worked_file,
                                                    monkeypatch):
        import ehrelay.cli as cli
        calls = []

        def counting(profile, *args, **kwargs):
            calls.append(profile)
            return proportionality(profile, *args, **kwargs)

        monkeypatch.setattr(cli, "proportionality", counting)
        path, tmp_path = worked_file
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["solve", str(path), "--case", "proportional",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        assert _read(tmp_path / "worked_schedule.json")["case"] == "proportional"
