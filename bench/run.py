"""Benchmark of mflq: one workload per process, timed per operation.

    python3 bench/run.py --workload solvers --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
set-up is timed from the start of this script.  Every operation then runs once
untimed, and the workload's operations run in rounds, with ``gc.collect()``
between operations, until ``--seconds`` have passed; the last round is
finished.  Every output is checked.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` one untraced and one cProfile-traced round run instead, the
object holds the per-layer metrics, and the profile is written to
``bench/traces/``.  Diagnostics go to standard error.  See README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One thread everywhere: BLAS pools and the CLI's sweep pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MFLQ_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import checks  # noqa: E402

#: every end-to-end metric an untraced run reports, with its unit
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("solvers", "refinement", "montecarlo")
MiB = 1024.0 * 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Executes operations and keeps the correctness tally and layer values."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.layer_values: dict[str, float] = {}
        self.memory_peak_mb = 0.0

    def execute(self, op, counted=True, profile=None) -> float | None:
        """Run one operation and check its output; its time, or None if it raised."""
        gc.collect()
        self.attempted += counted
        traced = profile is not None
        if traced and op.memory:
            tracemalloc.start()
        try:
            if traced:
                profile.enable()
            t0 = time.perf_counter()
            try:
                out = op.run()
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    profile.disable()
        except Exception:  # a failed operation is counted and the run goes on
            self.failed += counted
            print(f"operation {op.metric} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1] / MiB
                self.memory_peak_mb = max(self.memory_peak_mb, peak)
                tracemalloc.stop()
        try:
            for key, value in op.check(out).items():
                self.layer_values[key] = max(self.layer_values.get(key, value), value)
        except checks.CheckFailed as exc:
            self.correct = False
            print(f"operation {op.metric}: check failed: {exc}", file=sys.stderr)
        return dt

    def round(self, ops, profile=None) -> dict[str, float]:
        """One pass over the operations: each op's time (path-steps per second
        for Monte Carlo ops) and their total, round_s."""
        values = {"round_s": 0.0}
        for op in ops:
            dt = self.execute(op, profile=profile)
            if dt is not None:
                values[op.metric] = op.path_steps / dt if op.path_steps else dt
                values["round_s"] += dt
        return values


def timed_rounds(runner, ops, seconds: float) -> dict[str, float]:
    """Rounds until `seconds` have passed; the median of each metric over rounds."""
    rounds = []
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        rounds.append(runner.round(ops))
    medians = {}
    for metric in dict.fromkeys(k for r in rounds for k in r):
        samples = [r[metric] for r in rounds if metric in r]
        medians[metric] = statistics.median(samples)
        spread = ""
        if len(samples) > 1:
            q = statistics.quantiles(samples, n=4)
            spread = f" q1={q[0]:.6g} q3={q[2]:.6g}"
        print(f"{metric}: n={len(samples)} median={medians[metric]:.6g}{spread}",
              file=sys.stderr)
    return medians


def traced_rounds(layers, runner, ops, setup_profile, trace_file) -> dict[str, float]:
    """An untraced round, then the same round under cProfile.

    Threads started during the traced round (the CLI's sweep pool) get a
    profiler of their own, merged into the round's statistics afterwards.
    """
    untraced = runner.round(ops)
    profile = cProfile.Profile()
    thread_profiles = []

    def profile_thread(*_):
        thread_profiles.append(cProfile.Profile())
        thread_profiles[-1].enable()

    threading.setprofile(profile_thread)
    try:
        traced = runner.round(ops, profile=profile)
    finally:
        threading.setprofile(None)
    stats = pstats.Stats(profile)
    for p in thread_profiles:
        if p.getstats():
            stats.add(p)
    stats.dump_stats(trace_file)
    values = dict.fromkeys(layers.LAYER_METRICS, 0.0)
    values.update(layers.layer_metrics(stats, pstats.Stats(setup_profile)))
    values.update(runner.layer_values)
    values.update({f"op.{k}": v for k, v in untraced.items() if k != "round_s"})
    values["simulate.path_steps"] = sum(op.path_steps for op in ops)
    values["simulate.tracemalloc_peak_mb"] = runner.memory_peak_mb
    values["trace.overhead_s"] = traced.get("round_s", 0.0) - untraced.get("round_s", 0.0)
    return {name: values[name] for name in layers.LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    setup_profile = cProfile.Profile() if args.trace else None
    import mflq
    if not Path(mflq.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"mflq imported from {mflq.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    import workloads

    out_root = BENCH_DIR / ".out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root, prefix=f"{args.workload}-") as outdir:
        if setup_profile is not None:
            setup_profile.enable()
        workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
        if setup_profile is not None:
            setup_profile.disable()
        setup_s = time.perf_counter() - _START
        print(f"set-up {setup_s:.3f} s", file=sys.stderr)

        runner = Runner()
        ops = workload.operations()
        for op in ops:                       # warm-up, untimed
            runner.execute(op, counted=False)
        if args.trace:
            import layers
            trace_dir = BENCH_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            values = traced_rounds(layers, runner, ops, setup_profile,
                                   trace_dir / f"{args.workload}-seed{args.seed}.prof")
            units = layers.LAYER_METRICS
        else:
            values = timed_rounds(runner, ops, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
