"""Benchmark of the ehrelay schedule solvers, checked against an independent optimum.

    python3 bench/run.py --workload minmax-batch --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``minmax-batch`` (solve_minmax on the criterion-2
batch), ``oracle-grid`` (grid_search on the same batch) and ``cli-auto``
(``ehrelay solve`` with automatic dispatch, through cli.main in-process).
Every run repeats whole rounds of the workload's fixed operations for up
to ``--seconds`` (at least one round); ``--seed`` fixes the order of the
operations in a round.  Each operation is checked against
bench/reference.py, which shares no code with ehrelay.  The last line of
standard output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics (per round) with ``--trace 1``.

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# one thread everywhere, BLAS pools included; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("minmax-batch", "oracle-grid", "cli-auto")
# solve_minmax's outer cap on minmax-batch (default 200): see README.md
MINMAX_OUTER_CAP = 10
GRID = {"points_per_dim": 20, "refinement_rounds": 1, "budget": 1e11}
SETUP_SAMPLES = 3


class MissingPackage(Exception):
    pass


def setup(workload, workdir):
    """Import ehrelay, generate the inputs and write the problem files.

    Returns (package, instances, operands): one operand per instance, a
    (ChannelParams, HarvestProfile) pair or, for cli-auto, a problem path.
    """
    sys.path.insert(0, SRC)
    try:
        import ehrelay
        import ehrelay.cli  # noqa: F401  (the command-line layer)
    except ImportError as exc:
        raise MissingPackage(str(exc)) from exc
    if not os.path.abspath(ehrelay.__file__).startswith(SRC + os.sep):
        raise MissingPackage("ehrelay loaded from %s, not %s"
                             % (ehrelay.__file__, SRC))
    sys.path.insert(0, HERE)
    import instances

    if workload == "cli-auto":
        insts = instances.cli_profiles()
        os.makedirs(workdir, exist_ok=True)
        operands = []
        for inst in insts:
            path = os.path.join(workdir, inst.name + ".json")
            inst.write(path)
            operands.append(path)
        return ehrelay, insts, operands
    insts = instances.criterion2_batch()
    operands = []
    for inst in insts:
        ch = ehrelay.ChannelParams(a=inst.a, b=inst.b, noise=inst.noise)
        events = tuple(ehrelay.HarvestEvent(float(t), float(u), float(v))
                       for t, u, v in zip(inst.times, inst.e1, inst.e2))
        operands.append((ch, ehrelay.HarvestProfile(events=events,
                                                    horizon=inst.horizon)))
    return ehrelay, insts, operands


def timed_setup(workload, workdir):
    t0 = time.perf_counter()
    out = setup(workload, workdir)
    return time.perf_counter() - t0, out


def setup_in_child(workload, seed, workdir):
    """Set-up time of a fresh interpreter, which imports numpy and scipy anew."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed: %s" % proc.stderr.strip())
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Operations and their checks


def make_op(pkg, workload, outdir):
    if workload == "minmax-batch":
        cfg = pkg.SolverConfig(max_iter_outer=MINMAX_OUTER_CAP)
        # looked up at call time so that traced runs see the wrappers
        return lambda opnd: pkg.solver.solve_minmax(opnd[0], opnd[1], cfg)
    if workload == "oracle-grid":
        grid = pkg.GridConfig(**GRID)
        return lambda opnd: pkg.oracle.grid_search(opnd[0], opnd[1], grid)
    return lambda path: pkg.cli.main(["solve", path, "--out", outdir])


def read_schedule(outdir, inst):
    with open(os.path.join(outdir, inst.name + "_schedule.json")) as fh:
        data = json.load(fh)
    rows = data["schedule"]
    return ([r["p1"] for r in rows], [r["p2"] for r in rows],
            data["total_bits"], data["case"])


def check(reference, workload, inst, ref, result, outdir):
    """(bits, failure): failure is None, "shortfall" for the known closed-form
    fault on cli-auto, or a description of any other failed check."""
    if isinstance(result, Exception):
        return 0.0, "raised %r" % result
    if workload == "cli-auto":
        if result != 0:
            return 0.0, "exit code %r" % result
        p1, p2, bits, case = read_schedule(outdir, inst)
        if case != inst.kind:
            return bits, "dispatched to %s, expected %s" % (case, inst.kind)
    else:
        p1, p2 = result.allocation.p1, result.allocation.p2
        bits = result.total_bits
    if not reference.feasible(inst, p1, p2):
        return bits, "infeasible schedule"
    recomputed = reference.total_bits(inst, p1, p2)
    if abs(bits - recomputed) > reference.BITS_RTOL * max(1.0, abs(recomputed)):
        return bits, "total_bits %r, recomputed %r" % (bits, recomputed)
    if workload == "oracle-grid":
        tol = reference.VALUE_RTOL * max(1.0, ref)
        if not ref - result.slack <= bits <= ref + tol:
            return bits, "grid %r outside [%r - slack %r, +tol]" % (
                bits, ref, result.slack)
        return bits, None
    if reference.within(bits, ref):
        return bits, None
    if (workload == "cli-auto" and inst.kind in ("relay-only", "source-only")
            and reference.short_of(bits, ref)):
        return bits, "shortfall"
    return bits, "value %r, reference %r" % (bits, ref)


# ---------------------------------------------------------------------------


def tail(times, per_round):
    """Time at the highest percentile with ten operations of one round beyond
    it; pooling rounds keeps that level, 1 - 10/per_round."""
    ordered = sorted(times)
    return ordered[len(ordered) * (per_round - 10) // per_round - 1]


def run(args):
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    setup_dirs = ["%s-setup%d" % (workdir, j) for j in range(SETUP_SAMPLES - 1)]
    try:
        setup_s, (pkg, insts, operands) = timed_setup(args.workload, workdir)
        setups = [setup_s] + [setup_in_child(args.workload, args.seed, d)
                              for d in setup_dirs]
        import reference

        refs = [reference.optimum(inst)[0] for inst in insts]
        tracer = None
        if args.trace:
            import layers
            tracer = layers.Tracer(pkg)
            tracer.install()

        outdir = os.path.join(workdir, "out")
        op = make_op(pkg, args.workload, outdir)
        order = list(range(len(insts)))
        random.Random(args.seed).shuffle(order)

        walls, times = [], []
        attempted = failed = 0
        unexpected = []
        bits_total = None
        started = time.perf_counter()
        while True:
            shutil.rmtree(outdir, ignore_errors=True)
            results = [None] * len(order)
            sink = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                warnings.simplefilter("ignore")
                t_round = time.perf_counter()
                for i in order:
                    t0 = time.perf_counter()
                    try:
                        results[i] = op(operands[i])
                    except Exception as exc:  # counted as a failed operation
                        results[i] = exc
                    times.append(time.perf_counter() - t0)
                walls.append(time.perf_counter() - t_round)
            round_bits = 0.0
            for inst, ref, res in zip(insts, refs, results):
                bits, failure = check(reference, args.workload, inst, ref,
                                      res, outdir)
                round_bits += bits
                attempted += 1
                if failure is not None:
                    failed += 1
                    if failure != "shortfall":
                        unexpected.append("%s: %s" % (inst.name, failure))
            bits_total = round_bits if bits_total is None else bits_total
            # stop before a round that would end past the run's length
            if time.perf_counter() - started + walls[-1] > args.seconds:
                break
    finally:
        for d in [workdir] + setup_dirs:
            shutil.rmtree(d, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    for line in sorted(set(unexpected)):
        print("FAILED %s" % line, file=sys.stderr)
    rounds = len(walls)
    print("%d round(s), median round %.4f s%s" % (
        rounds, statistics.median(walls), " (traced)" if tracer else ""),
        file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics(rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "solve_p50_ms": (1e3 * statistics.median(times), "ms"),
            "solve_tail_ms": (1e3 * tail(times, len(insts)), "ms"),
            "bits_total": (bits_total, "bit"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            setup_s, _ = timed_setup(args.workload, args.setup_only)
            print(repr(setup_s))
            return 0
        run(args)
    except MissingPackage as exc:
        print("cannot import ehrelay from the checkout: %s" % exc,
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
