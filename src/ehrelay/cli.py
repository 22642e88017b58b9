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
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .closed_form import solve_proportional, solve_relay_only, solve_source_only
from .oracle import BudgetExceededError, GridConfig, grid_search
from .profile import (
    ProfileError,
    ProfileFormatError,
    epoch_lengths,
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


def _sig12(x):
    if isinstance(x, float):
        return float("%.12g" % x)
    return x


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _sig12(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_round_tree(payload), fh, indent=2)
        fh.write("\n")


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
    e1 = profile.e_source
    e2 = profile.e_relay
    if proportionality(profile) is not None:
        return "proportional"
    if e1[0] > 0 and np.all(e1[1:] == 0) and np.any(e2 > 0):
        return "relay-only"
    if e2[0] > 0 and np.all(e2[1:] == 0) and np.any(e1 > 0):
        return "source-only"
    return "general"


def _dispatch(ch, profile, case, cfg):
    """Solve with the closed form of case, or the general solver; "auto"
    detects the case from the profile.  Returns (case, Solution)."""
    if case == "auto":
        case = _detect_case(profile)
    if case == "proportional":
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
    alloc = Allocation(p1=p1, p2=p2)
    stored_total = data.get("total_bits")
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

    l = epoch_lengths(profile)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Offline-optimal schedules for an energy-harvesting relay link")
    sub = parser.add_subparsers(dest="command", required=True)

    def input_and_out(p):
        p.add_argument("input", help="problem JSON file")
        p.add_argument("--out", default=None, help="output directory")

    def solver_flags(p):
        p.add_argument("--tol-inner", type=float, default=None)
        p.add_argument("--tol-outer", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)

    p = sub.add_parser("solve", help="compute an optimal schedule")
    input_and_out(p)
    solver_flags(p)
    p.add_argument("--case", default="auto",
                   choices=["auto", "general", "proportional",
                            "source-only", "relay-only"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force grid search (K <= 2)")
    input_and_out(p)
    p.add_argument("--grid", type=int, default=None, help="points per dimension")
    p.add_argument("--rounds", type=int, default=None, help="refinement rounds")
    p.add_argument("--budget", type=float, default=None, help="evaluation budget")
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
