#!/usr/bin/env python3
"""Partition-refinement study across all bundled problems.

Prints, for each problem, the sup-norm deltas of the equilibrium fields and
gains per mesh doubling, raw and Richardson-extrapolated, plus the gap of the
limit `solve_closed_loop` would return against the direct solve.  Its games
march at `solve_closed_loop`'s step for the default tolerance, so the deltas
are those that `solve_closed_loop` sees (`mflq converge` marches at the
default step).  Writes CSVs under --out (default: out/convergence).
"""

import argparse
import os
import time

import numpy as np

from mflq import BUNDLED, bundled_problem, direct_diagonal_solve
from mflq.closedloop import MARCH_SHARE, refinements
from mflq.cli import write_csv

TOL = 1e-4             # solve_closed_loop's default tolerance
MAX_DOUBLINGS = 6      # and its default number of doublings


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/convergence")
    ap.add_argument("--N-max", type=int, default=64)
    ap.add_argument("--problems", nargs="*", default=["meanfield", "discounting"],
                    choices=list(BUNDLED))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for name in args.problems:
        problem = bundled_problem(name)
        t0 = time.monotonic()
        # one refinement serves both the study up to N_max and the closed-loop
        # limit: the first doubling that solve_closed_loop would accept, its
        # games marched at solve_closed_loop's step for TOL
        records, limit = [], None
        for j, item in enumerate(refinements(problem, N0=4, target=TOL * MARCH_SHARE)):
            rec = item.record
            N = rec["N"]
            if rec["delta"] is not None and N <= args.N_max:
                records.append(rec)
            if limit is None and j <= MAX_DOUBLINGS:
                limit = item.accepted(TOL)
            if 2 * N > args.N_max and (limit is not None or j == MAX_DOUBLINGS):
                break
        elapsed = time.monotonic() - t0
        print(f"\n{name} ({elapsed:.1f}s):")
        for r in records:
            ext = r["extrapolated_delta"]
            print(f"  N={r['N']:4d}  sup|dGamma|={r['sup_delta_Gamma']:.3e}  "
                  f"sup|dTheta|={r['sup_delta_Theta']:.3e}  "
                  f"extrapolated={'-' if ext is None else f'{ext:.3e}'}")
        columns = ["N", "sup_delta_Gamma", "sup_delta_Theta", "extrapolated_delta"]
        write_csv(os.path.join(args.out, f"{name}.csv"), columns,
                  np.column_stack([[np.nan if r[c] is None else r[c] for r in records]
                                   for c in columns]))

        if limit is None:
            print(f"  refinement did not reach tolerance: game refinement not Cauchy "
                  f"below {TOL:g} after {MAX_DOUBLINGS} doublings")
            continue
        N = limit.grid.num_intervals
        direct = direct_diagonal_solve(problem, t_nodes=N)
        gap = max(np.nanmax(np.abs(limit.Gamma - direct.Gamma)),
                  np.nanmax(np.abs(limit.Gamma_hat - direct.Gamma_hat)))
        print(f"  limit on N={N} nodes (finest game N={limit.game.N}); "
              f"cross-scheme gap vs direct solve: {gap:.3e}")

if __name__ == "__main__":
    main()
