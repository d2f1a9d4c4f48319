#!/usr/bin/env python3
"""Statistical verification of every equilibrium notion on its natural fixture.

Runs the spike-perturbation check for the open-loop equilibrium (dynamics
without mean-field terms), the interval-deviation check for the partition
equilibrium, and the Monte Carlo cost-vs-value comparison for the closed-loop
limit.

Exits 1 when a spike or interval-deviation check fails, 0 otherwise; the
closed-loop cost line is informational and never fails the run.
"""

import argparse
import sys

import numpy as np

from mflq import (MCConfig, TimeGrid, build_delta_equilibrium,
                  bsde_residual_check, bundled_problem,
                  delta_local_optimality_check, estimate_cost,
                  simulate_closed_loop, solve_closed_loop, solve_open_loop,
                  verify_open_loop_equilibrium)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    failed = []

    classical = bundled_problem("classical")
    sol = solve_open_loop(classical, t_nodes=32)
    rep = verify_open_loop_equilibrium(
        classical, sol, np.ones(2),
        mc=MCConfig(paths=args.paths, steps=400, seed=args.seed))
    if not rep["passed"]:
        failed.append("open-loop spike check")
    print(f"open-loop spike check (classical): "
          f"{'pass' if rep['passed'] else 'FAIL'} "
          f"min margin {rep['min_margin']:.3e}")
    res = bsde_residual_check(classical, sol)
    print(f"  pathwise stationarity residual: "
          f"{res['max_relative_residual']:.3e}")

    ex12 = bundled_problem("ex12")
    eq = build_delta_equilibrium(ex12, TimeGrid.uniform(ex12.T, 4))
    for k in range(eq.N):
        rep = delta_local_optimality_check(
            ex12, eq, k, [1.0],
            mc=MCConfig(paths=args.paths, steps=400, seed=13))
        if not rep["passed"]:
            failed.append(f"interval-deviation check, player {k}")
        print(f"interval-deviation check, player {k}: "
              f"{'pass' if rep['passed'] else 'FAIL'} "
              f"min margin {rep['min_margin']:.3e}")

    meanfield = bundled_problem("meanfield")
    cl = solve_closed_loop(meanfield, N0=4, tol=1e-4)
    x0 = np.ones(meanfield.n)
    ens = simulate_closed_loop(meanfield, cl.game.gains, 0.0, x0,
                               MCConfig(paths=args.paths, steps=400,
                                        seed=args.seed))
    mean, stderr = estimate_cost(meanfield, ens, 0.0)
    value = cl.value(0.0, x0)
    print(f"closed-loop (meanfield): simulated cost {mean:.6g} "
          f"+- {stderr:.2g} under the N={cl.game.N} game's gains, "
          f"equilibrium value {value:.6g} at N={cl.grid.num_intervals}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
