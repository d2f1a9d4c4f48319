#!/usr/bin/env python3
"""Partition-refinement study across all bundled problems.

Prints, for each problem, the sup-norm deltas of the equilibrium fields and
gains per mesh doubling, plus the cross-scheme gap against the direct solve.
Writes CSVs under --out (default: out/convergence).
"""

import argparse
import os
import time

import numpy as np

from mflq import BUNDLED, bundled_problem, direct_diagonal_solve
from mflq.closedloop import refinements
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
        # limit: the first N whose delta falls below TOL
        records, limit = [], None
        for j, (N, _, fields, deltas) in enumerate(refinements(problem, N0=4)):
            if deltas is not None:
                if N <= args.N_max:
                    records.append({"N": N, "sup_delta_Gamma": deltas[0],
                                    "sup_delta_Theta": deltas[1]})
                if limit is None and j <= MAX_DOUBLINGS and max(deltas) < TOL:
                    limit = N, fields
            if 2 * N > args.N_max and (limit is not None or j == MAX_DOUBLINGS):
                break
        elapsed = time.monotonic() - t0
        print(f"\n{name} ({elapsed:.1f}s):")
        for r in records:
            print(f"  N={r['N']:4d}  sup|dGamma|={r['sup_delta_Gamma']:.3e}  "
                  f"sup|dTheta|={r['sup_delta_Theta']:.3e}")
        write_csv(os.path.join(args.out, f"{name}.csv"),
                  ["N", "sup_delta_Gamma", "sup_delta_Theta"],
                  [[r["N"], r["sup_delta_Gamma"], r["sup_delta_Theta"]]
                   for r in records])

        if limit is None:
            print(f"  refinement did not reach tolerance: game refinement not Cauchy "
                  f"below {TOL:g} after {MAX_DOUBLINGS} doublings")
            continue
        N, (Gamma, Gamma_hat, _, _) = limit
        direct = direct_diagonal_solve(problem, t_nodes=N)
        gap = max(np.nanmax(np.abs(Gamma - direct.Gamma)),
                  np.nanmax(np.abs(Gamma_hat - direct.Gamma_hat)))
        print(f"  cross-scheme gap vs direct solve at N={N}: {gap:.3e}")


if __name__ == "__main__":
    main()
