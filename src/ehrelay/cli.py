"""Command-line front end.

Subcommands::

    ehrelay solve    PROBLEM.json [--case auto|general|proportional|source-only|relay-only]
    ehrelay oracle   PROBLEM.json [--grid N] [--rounds N] [--budget X]
    ehrelay check    PROBLEM.json SCHEDULE.json
    ehrelay plotdata PROBLEM.json

solve and plotdata take --tol-inner, --tol-outer and --max-iter; every
subcommand but check takes --out.

Exit codes: 0 success, 1 internal error (or failed checks for ``check``),
2 parse error, 3 validation/budget error, 4 solver non-convergence (partial
output is still written).

All numeric output is serialized with 12 significant digits; units are
seconds, joules, watts and bits throughout and are recorded in headers.
Identical input and configuration produce byte-identical outputs except for
the manifest's wall-clock duration field.
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .closed_form import solve_proportional, solve_relay_only, solve_source_only
from .oracle import BudgetExceededError, GridConfig, grid_search
from .profile import (
    RELAY,
    SOURCE,
    ProfileError,
    ProfileFormatError,
    _node_arrays,
    epochs,
    load_problem,
    proportionality,
    require_valid,
)
from .solver import (
    Allocation,
    SolverConfig,
    invariant_report,
    solve_minmax,
)

UNITS = {"time": "s", "energy": "J", "power": "W", "rate": "bit/s",
         "throughput": "bit"}


# json.dumps's words for the floats that float.__repr__ writes as nan, inf, -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _emit(obj, out, level=0):
    """Append the JSON text of obj to the list out, as
    json.dumps(obj, indent=2) writes it once every float, numpy ones
    included, is rounded to 12 significant digits and numpy integers are
    Python ints.  Keys must be strings.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (float, np.floating)):
        text = float.__repr__(float("%.12g" % float(obj)))
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (list, tuple, dict)):
        is_dict = isinstance(obj, dict)
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        pad = "\n" + "  " * (level + 1)
        sep = pad
        out.append("{" if is_dict else "[")
        for item in obj.items() if is_dict else obj:
            out.append(sep)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s"
                                    % key.__class__.__name__)
                out += [encode_basestring_ascii(key), ": "]
            _emit(item, out, level + 1)
            sep = "," + pad
        out += ["\n", "  " * level, "}" if is_dict else "]"]
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % obj.__class__.__name__)


def _write_json(path, payload):
    """Write payload and a newline with one traversal (:func:`_emit`); a
    payload that cannot be serialized leaves no file behind."""
    out = []
    _emit(payload, out)
    out.append("\n")
    text = "".join(out)
    with open(path, "w") as fh:
        fh.write(text)


def _manifest(args, command, outputs, started, overrides):
    return {
        "input": args.input,
        "command": command,
        "config_overrides": overrides,
        "output_paths": outputs,
        "tool_version": __version__,
        "duration_s": time.monotonic() - started,
        "units": UNITS,
    }


def _overrides(args, names):
    out = {}
    for name in names:
        v = getattr(args, name.replace("-", "_"), None)
        if v is not None:
            out[name] = v
    return out


def _load(args):
    ch, profile = load_problem(args.input)
    waived = require_valid(profile, allow_degenerate=True)
    for msg in waived:
        print("warning: %s" % msg, file=sys.stderr)
    return ch, profile


def _solver_config(args):
    kw = {"tol_inner": args.tol_inner, "tol_outer": args.tol_outer,
          "max_iter_inner": args.max_iter}
    return SolverConfig(**{k: v for k, v in kw.items() if v is not None})


def _detect_case(profile):
    """(case, gamma): gamma is the proportionality constant of a
    proportional profile and None otherwise."""
    gamma = proportionality(profile)
    if gamma is not None:
        return "proportional", gamma
    e1 = _node_arrays(profile, SOURCE)[2]
    e2 = _node_arrays(profile, RELAY)[2]
    if e1[0] > 0 and np.all(e1[1:] == 0) and np.any(e2 > 0):
        return "relay-only", None
    if e2[0] > 0 and np.all(e2[1:] == 0) and np.any(e1 > 0):
        return "source-only", None
    return "general", None


def _dispatch(ch, profile, case, cfg):
    """Solve with the closed form of case, or the general solver; "auto"
    detects the case from the profile, and proportionality once.  Returns
    (case, Solution)."""
    gamma = None
    if case == "auto":
        case, gamma = _detect_case(profile)
    if case == "proportional":
        if gamma is None:
            gamma = proportionality(profile)
        if gamma is None:
            raise ProfileError(["profile is not proportional"])
        return case, solve_proportional(ch, profile, gamma)
    if case == "relay-only":
        return case, solve_relay_only(ch, profile)
    if case == "source-only":
        return case, solve_source_only(ch, profile)
    return "general", solve_minmax(ch, profile, cfg)


def _schedule_payload(ch, profile, sol, case):
    eps = epochs(profile)
    schedule = []
    for i, ep in enumerate(eps):
        r = sol.rates[i]
        schedule.append({
            "epoch": ep.index,
            "t_start": ep.start,
            "t_end": ep.end,
            "p1": float(sol.allocation.p1[i]),
            "p2": float(sol.allocation.p2[i]),
            "lambda": float(sol.lam[i]),
            "rate_bits": float(r.active),
            "active_branch": r.tag,
        })
    return {
        "schedule": schedule,
        "total_bits": sol.total_bits,
        "kkt_residual": sol.kkt_residual,
        "minmax_gap": sol.minmax_gap,
        "case": case,
        "converged": sol.converged,
        "warnings": list(sol.warnings),
    }


def cmd_solve(args):
    started = time.monotonic()
    ch, profile = _load(args)
    case, sol = _dispatch(ch, profile, args.case, _solver_config(args))
    payload = _schedule_payload(ch, profile, sol, case)
    out_path = _out_path(args, "_schedule.json")
    overrides = _overrides(args, ("case", "tol-inner", "tol-outer", "max-iter"))
    payload["manifest"] = _manifest(args, "solve", [out_path], started, overrides)
    _write_json(out_path, payload)
    print("case=%s epochs=%d total_bits=%.12g kkt_residual=%.3g minmax_gap=%.3g -> %s"
          % (case, profile.n_epochs, sol.total_bits, sol.kkt_residual,
             sol.minmax_gap, out_path))
    if not sol.converged:
        print("solver did not certify; partial output written", file=sys.stderr)
        return 4
    return 0


def cmd_oracle(args):
    started = time.monotonic()
    ch, profile = _load(args)
    kw = {}
    if args.grid is not None:
        kw["points_per_dim"] = args.grid
    if args.rounds is not None:
        kw["refinement_rounds"] = args.rounds
    if args.budget is not None:
        kw["budget"] = args.budget
    grid = GridConfig(**kw)
    res = grid_search(ch, profile, grid)
    out_path = _out_path(args, "_oracle.json")
    payload = {
        "best_allocation": {"p1": list(res.allocation.p1),
                            "p2": list(res.allocation.p2)},
        "total_bits": res.total_bits,
        "slack": res.slack,
        "evaluations": res.evaluations,
        "manifest": _manifest(args, "oracle", [out_path], started,
                              _overrides(args, ("grid", "rounds", "budget"))),
    }
    _write_json(out_path, payload)
    print("oracle best=%.12g slack=%.3g evaluations=%d -> %s"
          % (res.total_bits, res.slack, res.evaluations, out_path))
    return 0


def cmd_check(args):
    ch, profile = _load(args)
    try:
        with open(args.schedule, "r") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProfileFormatError("cannot read schedule file: %s" % exc) from exc
    if not isinstance(data, dict):
        raise ProfileFormatError("schedule file's top level must be a JSON "
                                 "object")
    rows = data.get("schedule")
    if not isinstance(rows, list) or not rows:
        raise ProfileFormatError("schedule file lacks a 'schedule' array")
    if len(rows) != profile.n_epochs:
        print("schedule has %d epochs, profile has %d"
              % (len(rows), profile.n_epochs), file=sys.stderr)
        return 3
    try:
        p1 = np.array([r["p1"] for r in rows], dtype=float)
        p2 = np.array([r["p2"] for r in rows], dtype=float)
        stored_rates = np.array([r["rate_bits"] for r in rows], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileFormatError("schedule rows are malformed: %s" % exc) from exc
    # json.load reads NaN and Infinity, which no schedule holds
    for name, v in (("p1", p1), ("p2", p2), ("rate_bits", stored_rates)):
        if not np.isfinite(v).all():
            raise ProfileFormatError("schedule rows are malformed: %s must be "
                                     "finite" % name)
    alloc = Allocation(p1=p1, p2=p2)
    stored_total = data.get("total_bits")
    if "total_bits" in data:
        try:
            ok = not isinstance(stored_total, bool) and math.isfinite(stored_total)
        except (TypeError, OverflowError):  # not a number, or an int too large
            ok = False
        if not ok:
            raise ProfileFormatError("schedule file's total_bits must be a "
                                     "finite number")
    results = invariant_report(ch, profile, alloc, stored_rates=stored_rates,
                               stored_total=stored_total)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        extra = (" (%s)" % res.detail) if res.detail and not res.passed else ""
        print("%-24s %s  residual=%.3g tol=%.3g%s"
              % (res.name, status, res.residual, res.tolerance, extra))
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


def cmd_plotdata(args):
    started = time.monotonic()
    ch, profile = _load(args)
    _, sol = _dispatch(ch, profile, "auto", _solver_config(args))

    stem = os.path.splitext(os.path.basename(args.input))[0]
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "harvested": os.path.join(outdir, stem + "_harvested.csv"),
        "consumed": os.path.join(outdir, stem + "_consumed.csv"),
        "steps": os.path.join(outdir, stem + "_steps.csv"),
    }

    # harvested energy staircases (step plotted as before/after rows)
    with open(paths["harvested"], "w") as fh:
        fh.write("t_s,harvested_source_J,harvested_relay_J\n")
        cum1 = cum2 = 0.0
        for ev in profile.events:
            fh.write("%.12g,%.12g,%.12g\n" % (ev.t, cum1, cum2))
            cum1 += ev.e_source
            cum2 += ev.e_relay
            fh.write("%.12g,%.12g,%.12g\n" % (ev.t, cum1, cum2))
        fh.write("%.12g,%.12g,%.12g\n" % (profile.horizon, cum1, cum2))

    l = _node_arrays(profile, SOURCE)[1]
    eps = epochs(profile)
    with open(paths["consumed"], "w") as fh:
        fh.write("t_s,consumed_source_J,consumed_relay_J\n")
        fh.write("0,0,0\n")
        s1 = np.cumsum(sol.allocation.p1 * l)
        s2 = np.cumsum(sol.allocation.p2 * l)
        for i, ep in enumerate(eps):
            fh.write("%.12g,%.12g,%.12g\n" % (ep.end, s1[i], s2[i]))

    with open(paths["steps"], "w") as fh:
        fh.write("t_start_s,t_end_s,p1_W,p2_W,lambda,rate_bit_per_s,active_branch\n")
        for i, ep in enumerate(eps):
            fh.write("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s\n"
                     % (ep.start, ep.end, sol.allocation.p1[i],
                        sol.allocation.p2[i], sol.lam[i],
                        sol.rates[i].active, sol.rates[i].tag))

    print("wrote %s %s %s" % (paths["harvested"], paths["consumed"], paths["steps"]))
    return 0


def _out_path(args, suffix):
    stem = os.path.splitext(os.path.basename(args.input))[0]
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, stem + suffix)


def _bounded(convert, low, strict=False):
    """An argparse type: the flag's value as convert reads it, which must
    exceed low (strict) or reach it.  NaN fails both, so a value out of
    range is a parse error (exit 2) rather than a failure inside the run."""
    def parse(text):
        value = convert(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                "must be %s %s, got %r" % (">" if strict else ">=", low, text))
        return value
    parse.__name__ = convert.__name__  # argparse names the type in errors
    return parse


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing does not change
    it and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Offline-optimal schedules for an energy-harvesting relay link")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _bounded(float, 0, strict=True)

    def input_and_out(p):
        p.add_argument("input", help="problem JSON file")
        p.add_argument("--out", default=None, help="output directory")

    def solver_flags(p):
        p.add_argument("--tol-inner", type=positive, default=None)
        p.add_argument("--tol-outer", type=positive, default=None)
        p.add_argument("--max-iter", type=_bounded(int, 1), default=None)

    p = sub.add_parser("solve", help="compute an optimal schedule")
    input_and_out(p)
    solver_flags(p)
    p.add_argument("--case", default="auto",
                   choices=["auto", "general", "proportional",
                            "source-only", "relay-only"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force grid search (K <= 2)")
    input_and_out(p)
    p.add_argument("--grid", type=_bounded(int, 2), default=None,
                   help="points per dimension")
    p.add_argument("--rounds", type=_bounded(int, 0), default=None,
                   help="refinement rounds")
    p.add_argument("--budget", type=positive, default=None,
                   help="evaluation budget")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="verify a schedule file against its profile")
    p.add_argument("input", help="problem JSON file")
    p.add_argument("schedule", help="schedule JSON file produced by solve")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plotdata", help="emit CSV staircase/consumption/step data")
    input_and_out(p)
    solver_flags(p)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.

    The parser is built on the first call and reused by later calls in the
    same process, so every call behaves as the first: the same flags, the
    same errors and SystemExit(2) on a bad argument list.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ProfileFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ProfileError, BudgetExceededError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
