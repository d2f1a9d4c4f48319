"""Command-line front end: problem ingestion, solver dispatch, studies, reports.

Exit codes: 0 success, 2 validation/parse failure, 3 solver ill-posedness or
blow-up, 4 convergence failure.  Artifacts (CSV with 17-significant-digit
values plus a metadata JSON) land in the --out directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .closedloop import MARCH_SHARE, refinements, solve_closed_loop
from .errors import (BlowUpError, ConfigurationError, ConvergenceError,
                     DimensionError, IllPosedError, ValidationError)
from .game import (build_delta_equilibrium, delta_local_optimality_check,
                   jump_magnitudes, ordering_report)
from .openloop import solve_open_loop, verify_open_loop_equilibrium
from .precommit import STEP_TOL, default_step, solve_precommitment, step_choice
from .problem_io import apply_overrides, parse_problem, problem_hash, resolve_document
from .simulate import MCConfig, estimate_cost, semigroup_failure_demo, simulate_closed_loop
from .types import TimeGrid, validate


#: rows formatted by one `%` operation in `write_csv`: a whole table at once
#: would hold its text and a tuple of every value, raising the peak memory
_CSV_BLOCK = 256


def write_csv(path: str, header: list[str], table) -> None:
    """The columns of `table` (one row per line, e.g. from `np.column_stack`;
    a 1-D table is one column) under `header`, every value to 17 significant
    digits: the bytes of np.savetxt(path, table, fmt="%.17g", delimiter=",",
    header=",".join(header), comments=""), written block by block of rows."""
    table = np.asarray(table)
    if table.ndim == 1:
        table = table[:, None]
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="latin1") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(table), _CSV_BLOCK):
            block = table[lo:lo + _CSV_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _flat(a: np.ndarray) -> np.ndarray:
    """A stack of matrices as one row per matrix, row-major."""
    return a.reshape(len(a), -1)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metadata(args, doc: dict, problem, target: float = STEP_TOL, **params) -> dict:
    """The record of a solving command: its problem and parameters, the
    versions, and its `_march_record` at the step params["h"] or, without
    one, at the step for the target error its solves aimed at."""
    return {
        "command": args.command,
        "problem_hash": problem_hash(doc),
        "params": {k: v for k, v in params.items() if v is not None},
        "versions": {
            "mflq": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        **_march_record(problem, params["h"], target),
    }


def _march_record(problem, h: float | None, target: float) -> dict:
    """march_step, the RK4 step the solves marched at (every step is at most
    it), and pilot_error, the pilot's estimate behind a measured step for
    the target error (null at an explicit --h, or when the pilot fell
    back)."""
    step, err = (h, None) if h is not None else step_choice(problem, target)
    return {"march_step": step, "pilot_error": err}


def _matrix_header(prefix: str, r: int, c: int) -> list[str]:
    return [f"{prefix}_{i}{j}" for i in range(r) for j in range(c)]


def _load(args):
    doc = resolve_document(args.problem)
    if getattr(args, "set", None):
        doc = apply_overrides(doc, args.set)
    return doc, parse_problem(doc)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_validate(args) -> int:
    _, problem = _load(args)
    report = validate(problem)
    print(report)
    return 0 if report.passed else 2


def cmd_precommit(args) -> int:
    if args.sweep < 0:
        raise ValidationError(f"--sweep must be >= 0, got {args.sweep}")
    doc, problem = _load(args)
    out = _outdir(args)
    h = args.h

    sol = solve_precommitment(problem, args.t, h)
    for name in ("P", "Phat", "Theta", "Theta_hat"):
        arr = getattr(sol, name)
        write_csv(os.path.join(out, f"{name}.csv"),
                  ["s"] + _matrix_header(name, *arr.shape[1:]),
                  np.column_stack([sol.times, _flat(arr)]))

    if args.sweep >= 1:
        ts = np.linspace(0.0, problem.T, args.sweep + 1)[:-1]
        # Phat(t) is the march's value at its first node, the same at the
        # default step given explicitly, which skips the dense output and
        # gains; the solve at --t is already done when the sweep passes it
        step = default_step(problem) if h is None else h
        values = np.array([(sol if t == args.t else solve_precommitment(problem, float(t), step))
                           .Phat[0] for t in ts])
        write_csv(os.path.join(out, "values.csv"),
                  ["t"] + _matrix_header("Phat", problem.n, problem.n),
                  np.column_stack([ts, _flat(values)]))

    _write_json(os.path.join(out, "metadata.json"),
                _metadata(args, doc, problem, t=args.t, h=h, sweep=args.sweep))
    print(f"pre-commitment solved at t={args.t:g}; value matrix "
          f"Phat(t)={sol.Phat[0].tolist()}")
    return 0


def cmd_open_loop(args) -> int:
    doc, problem = _load(args)
    out = _outdir(args)
    sol = solve_open_loop(problem, args.h)
    nodes = sol.tgrid.nodes
    write_csv(os.path.join(out, "theta_open.csv"),
              ["t"] + _matrix_header("Theta", problem.m, problem.n),
              np.column_stack([nodes, _flat(sol.Theta_open)]))
    _write_json(os.path.join(out, "metadata.json"), _metadata(args, doc, problem, h=args.h))
    print(f"open-loop equilibrium gains written for {len(nodes)} nodes")
    return 0


def cmd_game(args) -> int:
    doc, problem = _load(args)
    out = _outdir(args)
    N = args.N0
    eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, N), args.h)

    # every segment but its last node, which the next one starts from, and T
    segs = eq.gains.segments
    s, th, thh = (np.concatenate([getattr(seg, x)[:-1] for seg in segs]
                                 + [getattr(segs[-1], x)[-1:]])
                  for x in ("times", "theta", "theta_hat"))
    write_csv(os.path.join(out, "gains.csv"),
              ["s"] + _matrix_header("Theta", problem.m, problem.n)
              + _matrix_header("Theta_hat", problem.m, problem.n),
              np.column_stack([s, _flat(th), _flat(thh)]))
    write_csv(os.path.join(out, "values.csv"),
              ["k", "t_k"] + _matrix_header("Phat", problem.n, problem.n),
              np.column_stack([np.arange(N), eq.partition.nodes[:N], _flat(eq.values)]))

    jumps = jump_magnitudes(eq)
    order = ordering_report(eq)
    _write_json(os.path.join(out, "diagnostics.json"), {
        "jump_norms": jumps["records"],
        "jumps_within_bound": jumps["passed"],
        "psd_margins": {"min_margin": order["min_margin"],
                        "passed": order["passed"]},
    })
    _write_json(os.path.join(out, "metadata.json"),
                _metadata(args, doc, problem, N=N, h=args.h))
    print(f"{N}-interval equilibrium built; value at t_0: {eq.values[0].tolist()}")
    return 0


def cmd_closed_loop(args) -> int:
    doc, problem = _load(args)
    out = _outdir(args)
    sol = solve_closed_loop(problem, N0=args.N0, tol=args.tol,
                            max_doublings=args.max_doublings, h=args.h)
    nodes = sol.nodes
    write_csv(os.path.join(out, "theta_hat.csv"),
              ["s"] + _matrix_header("Theta_hat", problem.m, problem.n),
              np.column_stack([nodes, _flat(sol.Theta_hat)]))
    j = np.arange(len(nodes))
    write_csv(os.path.join(out, "gamma_diag.csv"),
              ["t"] + _matrix_header("Gamma", problem.n, problem.n)
              + _matrix_header("Gamma_hat", problem.n, problem.n),
              np.column_stack([nodes, _flat(sol.Gamma[j, j]), _flat(sol.Gamma_hat[j, j])]))
    _write_json(os.path.join(out, "trace.json"),
                {"trace": list(sol.trace), "final_N": sol.grid.num_intervals,
                 "game_N": sol.game.N})
    _write_json(os.path.join(out, "metadata.json"),
                _metadata(args, doc, problem, target=args.tol * MARCH_SHARE, N0=args.N0,
                          tol=args.tol, h=args.h))
    print(f"closed-loop equilibrium converged at N={sol.grid.num_intervals} "
          f"(finest game N={sol.game.N})")
    return 0


def converge_study(problem, N0: int = 4, N_max: int = 64, h: float | None = None
                   ) -> list[dict]:
    """Refinement trace records (raw and extrapolated deltas of (Gamma,
    Gamma_hat, Theta, Theta_hat) and their ratios) for 2 N0, 4 N0, ... up to
    N_max."""
    levels = (N_max // N0).bit_length()    # N0 * 2**j <= N_max for j < levels
    return [item.record
            for item in itertools.islice(refinements(problem, N0, h), levels)
            if item.record["delta"] is not None]


def cmd_converge(args) -> int:
    doc, problem = _load(args)
    out = _outdir(args)
    records = converge_study(problem, N0=args.N0, h=args.h)
    deltas = [max(r["sup_delta_Gamma"], r["sup_delta_Theta"]) for r in records]
    monotone = all(a > b for a, b in zip(deltas, deltas[1:]))
    _write_json(os.path.join(out, "trace.json"),
                {"trace": records, "monotone": monotone})
    columns = ["N", "sup_delta_Gamma", "sup_delta_Theta"]
    write_csv(os.path.join(out, "trace.csv"), columns,
              np.column_stack([[r[c] for r in records] for c in columns]))
    _write_json(os.path.join(out, "metadata.json"),
                _metadata(args, doc, problem, N0=args.N0, h=args.h))
    for r in records:
        ext = r["extrapolated_delta"]
        print(f"N={r['N']:4d}  dGamma={r['sup_delta_Gamma']:.3e}  "
              f"dTheta={r['sup_delta_Theta']:.3e}  "
              f"extrapolated={'-' if ext is None else f'{ext:.3e}'}")
    print(f"monotone: {monotone}")
    return 0


def cmd_simulate(args) -> int:
    doc, problem = _load(args)
    out = _outdir(args)
    sol = solve_closed_loop(problem, N0=args.N0, tol=args.tol, h=args.h)
    x0 = np.ones(problem.n)
    mc = MCConfig(paths=args.paths, steps=args.steps, seed=args.seed)
    ens = simulate_closed_loop(problem, sol.game.gains, 0.0, x0, mc)
    mean, stderr = estimate_cost(problem, ens, 0.0)
    emp = ens.states.mean(axis=0)
    std = ens.states.std(axis=0)
    hdr = ["step", "s"] + [f"mean_{i}" for i in range(problem.n)] \
        + [f"cond_mean_{i}" for i in range(problem.n)] \
        + [f"std_{i}" for i in range(problem.n)]
    write_csv(os.path.join(out, "summary.csv"), hdr,
              np.column_stack([np.arange(len(ens.times)), ens.times, emp,
                               ens.cond_mean, std]))
    _write_json(os.path.join(out, "metadata.json"),
                _metadata(args, doc, problem, target=args.tol * MARCH_SHARE,
                          paths=args.paths, steps=args.steps, seed=args.seed,
                          N0=args.N0, tol=args.tol, h=args.h))
    value = sol.value(0.0, x0)
    print(f"simulated cost {mean:.6g} +- {stderr:.2g} under the N={sol.game.N} "
          f"game's gains, {args.steps} Euler-Maruyama steps; equilibrium value "
          f"{value:.6g} at N={sol.grid.num_intervals}")
    print(f"(+- is the sampling error only: the {args.steps} Euler steps add a bias "
          f"of order 1/steps that it does not cover)")
    if sol.game.N != sol.grid.num_intervals:
        print("(the value is the extrapolated field's; the game's own fields "
              "did not pass --tol)")
    return 0


def cmd_verify(args) -> int:
    doc, problem = _load(args)
    out = _outdir(args)
    x0 = np.ones(problem.n)
    if problem.has_mean_field_dynamics:
        eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, args.N0), args.h)
        mc = MCConfig(paths=args.paths, steps=400, seed=args.seed)
        reports = [delta_local_optimality_check(problem, eq, k, x0, mc)
                   for k in range(eq.N)]
        passed = all(r["passed"] for r in reports)
        _write_json(os.path.join(out, "report.json"),
                    {"mode": "interval-deviation", "players": reports,
                     "passed": passed})
        print(f"interval-deviation check over {eq.N} players: "
              f"{'pass' if passed else 'FAIL'}")
    else:
        sol = solve_open_loop(problem, args.h)
        mc = MCConfig(paths=args.paths, steps=400, seed=args.seed)
        rep = verify_open_loop_equilibrium(problem, sol, x0, mc=mc)
        _write_json(os.path.join(out, "report.json"),
                    {"mode": "spike-perturbation", **rep})
        print(f"spike-perturbation check: "
              f"{'pass' if rep['passed'] else 'FAIL'} "
              f"(min margin {rep['min_margin']:.3e})")
    _write_json(os.path.join(out, "metadata.json"),
                _metadata(args, doc, problem, paths=args.paths, seed=args.seed,
                          N0=args.N0, h=args.h))
    return 0


def cmd_demo(args) -> int:
    mc = MCConfig(paths=args.paths, steps=400, seed=args.seed)
    rep = semigroup_failure_demo(args.s, args.tau, args.t, 1.0, mc)
    rep_same = semigroup_failure_demo(args.s, args.t, args.t, 1.0, mc)
    print(f"conditioning-restart gap at (t, tau, s) = "
          f"({args.t:g}, {args.tau:g}, {args.s:g}):")
    print(f"  simulated   {rep['simulated']:.6g} +- {rep['stderr']:.2g}")
    print(f"  closed form {rep['closed_form']:.6g}")
    print(f"no-restart control (tau = t): gap {rep_same['simulated']:.3g} "
          f"(exactly zero: {rep_same['simulated'] == 0.0})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "demo.json"),
                    {"restart": rep, "no_restart": rep_same})
    return 0


_H_HELP = ("RK4 step h: every march runs at h, and pre-commitment and game "
           "paths are written at h.  Default: the step a pilot march measures "
           "(between T/2000 and T/64), with those paths written at step T/2000")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflq",
        description="Linear-quadratic control of mean-field SDEs: "
                    "pre-commitment, open-loop and closed-loop equilibria.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, problem=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if problem:
            p.add_argument("problem", help="problem JSON file or bundled name")
            p.add_argument("--set", action="append", default=[],
                           metavar="KEY=JSON", help="override a document entry")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="check problem hypotheses")

    p = add("precommit", cmd_precommit, help="pre-commitment Riccati pair")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--h", type=float, default=None, help=_H_HELP)
    p.add_argument("--sweep", type=int, default=0,
                   help="also solve at the initial times k*T/SWEEP, k < SWEEP")

    p = add("open-loop", cmd_open_loop, help="open-loop equilibrium")
    p.add_argument("--h", type=float, default=None, help=_H_HELP)

    p = add("game", cmd_game, help="finite-player interval equilibrium")
    p.add_argument("--N0", type=int, default=8, help="number of intervals")
    p.add_argument("--h", type=float, default=None, help=_H_HELP)

    p = add("closed-loop", cmd_closed_loop, help="closed-loop equilibrium")
    p.add_argument("--N0", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-doublings", type=int, default=6)
    p.add_argument("--h", type=float, default=None, help=_H_HELP)

    p = add("converge", cmd_converge, help="partition refinement study")
    p.add_argument("--N0", type=int, default=4)
    p.add_argument("--h", type=float, default=None, help=_H_HELP)

    p = add("simulate", cmd_simulate, help="Monte Carlo along the equilibrium")
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--N0", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--h", type=float, default=None, help=_H_HELP)

    p = add("verify", cmd_verify, help="statistical equilibrium verification")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--N0", type=int, default=4)
    p.add_argument("--h", type=float, default=None, help=_H_HELP)

    p = add("demo", cmd_demo, problem=False,
            help="conditional-expectation restart demonstration")
    p.add_argument("topic", nargs="?", default="semigroup",
                   choices=["semigroup"])
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, DimensionError, ConfigurationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (IllPosedError, BlowUpError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        if getattr(exc, "trace", None):
            for r in exc.trace:
                print(f"  N={r['N']} delta={r['delta']} "
                      f"extrapolated_delta={r['extrapolated_delta']}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
