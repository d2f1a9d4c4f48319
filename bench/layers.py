"""Per-layer metrics of a traced run, read from one cProfile profile.

Functions are grouped by the module file they live in: each module of the
mflq package is a layer, and numpy (its Python files and the built-in methods
it registers) is the layer below them.  Counts are total calls, recursion
included, so they repeat exactly from run to run.
"""

from __future__ import annotations

import os
import pstats

import numpy as np

import mflq
from mflq import cli, game, integrators, problem_io, simulate, types

MODULES = ("types", "problem_io", "integrators", "precommit", "openloop", "game",
           "closedloop", "simulate", "cli")
RHS_MODULES = ("precommit", "openloop", "game", "closedloop")

#: every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "types.self_s": "s", "types.matrixfn_calls": "count", "types.at_many_calls": "count",
    "integrators.self_s": "s", "integrators.rk4_backward_calls": "count",
    **{f"{m}.{k}": u for m in RHS_MODULES
       for k, u in (("self_s", "s"), ("rhs_calls", "count"), ("error", "max-abs"))},
    "closedloop.game_builds": "count", "closedloop.final_N": "intervals",
    "game.tail_cost_s": "s",
    "simulate.self_s": "s", "simulate.path_steps": "path-steps", "simulate.brownian_s": "s",
    "simulate.estimate_cost_s": "s", "simulate.tracemalloc_peak_mb": "MB",
    "simulate.cost_z": "stderr",
    "cli.self_s": "s", "cli.write_csv_s": "s",
    "problem_io.parse_s": "s",
    "numpy.self_s": "s", "numpy.linalg_solve_calls": "count",
    "numpy.eigvalsh_calls": "count", "numpy.einsum_calls": "count",
    "trace.overhead_s": "s",
    # untraced time of each operation, one sample per traced run
    "op.precommit_sweep_s": "s", "op.open_loop_s": "s", "op.game_s": "s",
    "op.closed_loop_s": "s", "op.direct_s": "s",
    "op.mc_wide_path_steps_per_s": "path-steps/s",
    "op.mc_anchored_path_steps_per_s": "path-steps/s", "op.verify_s": "s",
}

_PKG_DIR = os.path.dirname(os.path.abspath(mflq.__file__)) + os.sep
_NUMPY_DIR = os.path.dirname(os.path.abspath(np.__file__)) + os.sep


def _key(fn) -> tuple[str, int, str]:
    """The profiler's key of a Python function; unwraps numpy's dispatchers."""
    code = getattr(fn, "__wrapped__", fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _layer(filename: str, funcname: str) -> str | None:
    if filename == "~":                       # built-in functions and methods
        return "numpy" if "numpy" in funcname else None
    if filename.startswith(_PKG_DIR):
        stem = filename[len(_PKG_DIR):].removesuffix(".py")
        return stem if stem in MODULES else None
    if filename.startswith(_NUMPY_DIR):
        return "numpy"
    return None


def layer_metrics(ops_stats: pstats.Stats, setup_stats: pstats.Stats) -> dict[str, float]:
    """Self time per layer, call counts and cumulative times at layer boundaries."""
    stats = ops_stats.stats
    out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES + ("numpy",)}
    out.update({f"{m}.rhs_calls": 0 for m in RHS_MODULES})
    for (filename, _, funcname), (_, nc, tt, _, _) in stats.items():
        layer = _layer(filename, funcname)
        if layer is None:
            continue
        out[f"{layer}.self_s"] += tt
        if layer in RHS_MODULES and funcname.endswith("rhs"):
            out[f"{layer}.rhs_calls"] += nc

    def calls(fn):
        return stats.get(_key(fn), (0, 0))[1]

    def cum(fn, st=stats):
        return st.get(_key(fn), (0, 0, 0, 0))[3]

    bde = stats.get(_key(game.build_delta_equilibrium))
    builds = sum(v[1] for k, v in bde[4].items() if _layer(k[0], k[2]) == "closedloop") \
        if bde else 0
    out.update({
        "types.matrixfn_calls": calls(types.MatrixFn.__call__)
        + calls(types.TwoTimeMatrixFn.__call__),
        "types.at_many_calls": calls(types.TwoTimeMatrixFn.at_many),
        "integrators.rk4_backward_calls": calls(integrators.rk4_backward),
        "closedloop.game_builds": builds,
        "game.tail_cost_s": cum(game._tail_cost),
        "simulate.brownian_s": cum(simulate.brownian_increments),
        "simulate.estimate_cost_s": cum(simulate.estimate_cost),
        "cli.write_csv_s": cum(cli.write_csv),
        "problem_io.parse_s": cum(problem_io.parse_problem)
        + cum(problem_io.parse_problem, setup_stats.stats),
        "numpy.linalg_solve_calls": calls(np.linalg.solve),
        "numpy.eigvalsh_calls": calls(np.linalg.eigvalsh),
        "numpy.einsum_calls": calls(np.einsum),
    })
    return out
