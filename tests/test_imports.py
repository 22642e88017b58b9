"""Where scipy is loaded: only the SLSQP solve of the schedule program,
which runs for weights below 1, imports it, where it calls it.  The package
import, the grid oracle, schedule checks, --help, the CLI's parse and
validation errors, a closed form, a solve whose start certifies and every
solve_minmax, whose weights are 1, run without it in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap

import numpy as np

from ehrelay.cli import main
from support import (
    make_profile,
    random_instance,
    worked_proportional,
    write_problem,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

CHILD = textwrap.dedent("""
    import contextlib, io, sys
    import numpy as np
    import ehrelay, ehrelay.cli
    from ehrelay import (ChannelParams, GridConfig, HarvestEvent,
                         HarvestProfile, grid_search, solve_inner,
                         solve_minmax)
    from ehrelay.profile import load_problem

    def loaded():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    problem, schedule, bad, general, out = sys.argv[1:]
    ch = ChannelParams(a=2.0, b=1.0, noise=1.0)
    prof = HarvestProfile(events=(HarvestEvent(0.0, 4.0, 2.0),
                                  HarvestEvent(3.0, 4.0, 2.0)), horizon=6.0)
    grid_search(ch, prof, GridConfig(points_per_dim=6))
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(ehrelay.cli.main(["oracle", problem, "--grid", "6",
                                       "--out", out]))
        codes.append(ehrelay.cli.main(["check", problem, schedule]))
        codes.append(ehrelay.cli.main(["solve", bad, "--out", out]))
        codes.append(ehrelay.cli.main(["solve", problem, "--out", out]))
        for argv in (["--help"], ["solve", problem, "--seed", "0"]):
            try:
                ehrelay.cli.main(argv)
            except SystemExit as exc:
                codes.append(exc.code)
    assert codes == [0, 0, 3, 0, 0, 2], codes
    sol = solve_minmax(ch, prof)
    assert sol.converged and sol.iterations.inner_solves == 0, sol
    # the staircase start of this instance does not certify: the dual core
    # runs, from the command line and from the library
    with contextlib.redirect_stdout(io.StringIO()):
        code = ehrelay.cli.main(["solve", general, "--case", "general",
                                 "--out", out])
    assert code == 0, code
    sol = solve_minmax(*load_problem(general))
    assert sol.converged and sol.iterations.inner_solves == 1, sol
    assert not loaded(), loaded()
    _, _, rep = solve_inner(*load_problem(general), np.full(3, 0.5))
    assert rep["converged"] and rep["gradients"] >= 1, rep
    assert "scipy.optimize" in loaded()
    print("ok")
""")


def test_scipy_loads_only_with_the_first_solve(tmp_path, capsys):
    problem = write_problem(tmp_path / "worked.json", *worked_proportional())
    assert main(["solve", problem, "--out", str(tmp_path)]) == 0
    # a horizon before the last event fails validation (exit 3)
    bad = write_problem(tmp_path / "bad.json", worked_proportional()[0],
                        make_profile([0.0, 2.0], [2.0, 1.0], [1.0, 1.0], 1.0))
    # a K+1 = 3 instance whose staircase start does not certify
    general = write_problem(tmp_path / "general.json", *random_instance(
        np.random.default_rng(5), 2, a_low_frac=0.0))
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, problem,
         str(tmp_path / "worked_schedule.json"), bad, general, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
