"""Time the Riccati pair solvers on synthetic problems of growing state size.

    python3 scripts/n_scaling.py --n 1 2 5 10 20 --m 1
    python3 scripts/n_scaling.py --n 5 10 --m 2 --game --src /path/to/other/src
    python3 scripts/n_scaling.py --n 1 2 5 10 --m 2 --levels --src /path/to/other/src

Run from the repository root.  For every n the problem is drawn from a fixed
seed: constant dynamics, exponentially discounted Q and R (so the frozen
weights vary over the stages), and definite R, G.  Each row gives the best
wall time over --repeat runs of `solve_precommitment(problem, 0)`,
`precommit_bounds(problem, 0)`, with --game one `build_delta_equilibrium` on
N = 8 intervals, and with --levels the two level solvers at their default
t-grids: `direct_diagonal_solve(problem)` and `solve_open_loop` on the same
problem with its mean-field dynamics (Abar, Bbar, Cbar, Dbar) set to zero.
All run at the package's default step: measured per problem here (README,
"March step and output grid"), T/2000 in trees older than that, which --src
may time.  --src times another
tree's package (for example a parent commit exported with ``git archive``)
under the same problems.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np


def document(n: int, m: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)

    def mat(r, c, scale):
        return (scale * rng.normal(size=(r, c))).tolist()

    def definite(k, base):
        M = rng.normal(size=(k, k))
        return (base * np.eye(k) + 0.1 * M @ M.T).tolist()

    return {"n": n, "m": m, "T": 1.0, "delta": 0.5,
            "coefficients": {"A": mat(n, n, 0.3), "Abar": mat(n, n, 0.1),
                             "B": mat(n, m, 0.5), "Bbar": mat(n, m, 0.1),
                             "C": mat(n, n, 0.2), "Cbar": mat(n, n, 0.1),
                             "D": mat(n, m, 0.1), "Dbar": mat(n, m, 0.05)},
            "weights": {"Q": {"kind": "exp_discount", "lambda": 0.15, "base": definite(n, 1.0)},
                        "Qbar": definite(n, 0.3),
                        "R": {"kind": "exp_discount", "lambda": 0.15, "base": definite(m, 1.0)},
                        "Rbar": definite(m, 0.1),
                        "G": definite(n, 1.0), "Gbar": definite(n, 0.3)}}


def without_mean_field_dynamics(doc: dict) -> dict:
    coeffs = {k: (np.zeros_like(v).tolist() if k.endswith("bar") else v)
              for k, v in doc["coefficients"].items()}
    return {**doc, "coefficients": coeffs}


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, nargs="+", default=[1, 2, 5, 10])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--game", action="store_true")
    p.add_argument("--levels", action="store_true")
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    from mflq import (TimeGrid, build_delta_equilibrium, direct_diagonal_solve,
                      parse_problem, precommit_bounds, solve_open_loop,
                      solve_precommitment)

    print(f"# {args.src}, m = {args.m}, best of {args.repeat}")
    for n in args.n:
        prob = parse_problem(document(n, args.m))
        row = [f"n={n:3d}",
               f"precommit {best(lambda: solve_precommitment(prob, 0.0), args.repeat):.3f} s",
               f"bounds {best(lambda: precommit_bounds(prob, 0.0), args.repeat):.3f} s"]
        if args.game:
            grid = TimeGrid.uniform(prob.T, 8)
            row.append(f"game {best(lambda: build_delta_equilibrium(prob, grid), 1):.3f} s")
        if args.levels:
            ol = parse_problem(without_mean_field_dynamics(document(n, args.m)))
            for name, solve, problem in (("direct", direct_diagonal_solve, prob),
                                         ("open-loop", solve_open_loop, ol)):
                t = best(lambda: solve(problem), args.repeat)
                row.append(f"{name} {t:.3f} s")
        print("  ".join(row), flush=True)


if __name__ == "__main__":
    main()
