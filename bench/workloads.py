"""The benchmark's three workloads: set-up and the timed operations.

Each workload is a class whose constructor is the set-up (problem parsing and,
for ``montecarlo``, the gain solves) and whose ``operations()`` builds the
references, checks the set-up's own outputs and returns the list of ``Op``.
Every operation calls public functions of mflq with the program's default step
sizes and tolerances; its check compares the output with a reference made
apart from the program or with a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import mflq
from mflq.cli import main as cli_main

import checks


@dataclass
class Op:
    metric: str                            # traced runs report its time as op.<metric>
    run: Callable[[], Any]
    check: Callable[[Any], dict[str, float]]   # layer values; raises CheckFailed
    path_steps: int = 0                    # > 0: the metric is path_steps per second
    memory: bool = False                   # traced runs record its tracemalloc peak


class Solvers:
    """Pre-commitment sweep through the CLI, open-loop and the N=16 game."""

    SWEEP = 3       # initial times 0, 1/3, 2/3, each solved from T down
    GAME_N = 16

    def __init__(self, seed: int, outdir: str):
        self.outdir = outdir
        self.classical = mflq.bundled_problem("classical")
        self.meanfield = mflq.bundled_problem("meanfield")

    def operations(self) -> list[Op]:
        mf_ref = checks.RiccatiPairReference("meanfield")
        cl_ref = checks.RiccatiPairReference("classical")
        argv = ["precommit", "meanfield", "--sweep", str(self.SWEEP), "--out", self.outdir]
        values = os.path.join(self.outdir, "values.csv")

        def sweep():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli_main(argv)

        def check_sweep(code):
            checks.require(code == 0, f"mflq precommit exited with {code}")
            return {"precommit.error": checks.check_sweep(*checks.read_values_csv(values), mf_ref)}

        partition = mflq.TimeGrid.uniform(self.meanfield.T, self.GAME_N)
        return [
            Op("precommit_sweep_s", sweep, check_sweep),
            Op("open_loop_s", lambda: mflq.solve_open_loop(self.classical),
               lambda sol: {"openloop.error": checks.check_open_loop(sol, cl_ref)}),
            Op("game_s", lambda: mflq.build_delta_equilibrium(self.meanfield, partition),
               lambda eq: {"game.error": checks.check_game(eq)}),
        ]


class Refinement:
    """Closed-loop refinement on discounting, followed by the direct solve of
    the limit system on the refinement's final grid."""

    PROBLEM = "discounting"

    def __init__(self, seed: int, outdir: str):
        self.problem = mflq.bundled_problem(self.PROBLEM)

    def operations(self) -> list[Op]:
        last = {}

        def closed_loop():
            last["limit"] = mflq.solve_closed_loop(self.problem)
            return last["limit"]

        def check_closed_loop(sol):
            checks.check_refinement(sol)
            return {"closedloop.final_N": float(sol.grid.num_intervals)}

        def direct():
            return mflq.direct_diagonal_solve(
                self.problem, t_nodes=last["limit"].grid.num_intervals)

        def check_direct(sol):
            return {"closedloop.error": checks.check_limit(last["limit"], sol)}

        return [
            Op("closed_loop_s", closed_loop, check_closed_loop),
            Op("direct_s", direct, check_direct),
        ]


class MonteCarlo:
    """Wide and anchored ensembles with cost estimates, and both verify calls."""

    WIDE = dict(paths=20000, steps=400)       # ex12, one interval
    ANCHORED = dict(paths=2000, steps=400)    # meanfield, N=8 game gains
    ANCHORED_N = 8
    DELTA = dict(paths=4000, steps=400)       # ex12, N=4 game, player 1
    DELTA_N, DELTA_PLAYER = 4, 1
    SPIKE = dict(paths=2000, steps=400)       # classical, open-loop equilibrium

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.ex12 = mflq.bundled_problem("ex12")
        self.meanfield = mflq.bundled_problem("meanfield")
        self.classical = mflq.bundled_problem("classical")
        self.pre = mflq.solve_precommitment(self.ex12, 0.0)
        self.ex12_gain = mflq.PiecewiseGain.single(
            0.0, self.ex12.T, self.pre.times, self.pre.Theta, self.pre.Theta_hat)
        self.eq_anchored = mflq.build_delta_equilibrium(
            self.meanfield, mflq.TimeGrid.uniform(self.meanfield.T, self.ANCHORED_N))
        self.eq_delta = mflq.build_delta_equilibrium(
            self.ex12, mflq.TimeGrid.uniform(self.ex12.T, self.DELTA_N))
        self.open_loop = mflq.solve_open_loop(self.classical)

    def _mc(self, sizes: dict, stream: int) -> mflq.MCConfig:
        return mflq.MCConfig(seed=4 * self.seed + stream, **sizes)

    def operations(self) -> list[Op]:
        oracle = checks.Ex12Oracle(self.ex12.T)
        checks.check_phat_closed_form(self.pre.times, self.pre.Phat, oracle)
        checks.check_game(self.eq_anchored)
        checks.check_game(self.eq_delta)
        checks.check_open_loop(self.open_loop, checks.RiccatiPairReference("classical"))

        x_wide = np.ones(1)
        wide_mc = self._mc(self.WIDE, 0)

        def wide():
            ens = mflq.simulate_closed_loop(self.ex12, self.ex12_gain, 0.0, x_wide, wide_mc)
            return ens, mflq.estimate_cost(self.ex12, ens, 0.0)

        def check_wide(out):
            ens, (mean, stderr) = out
            checks.require(len(ens.times) - 1 == wide_mc.steps, "wide grid size changed")
            checks.check_mean_path(ens.states[:, :, 0], oracle.mean(ens.times, 0.0, x_wide[0]))
            checks.check_cost(mean, stderr, oracle.value(0.0, x_wide[0]), wide_mc.steps)
            return {}

        x_anch = np.ones(self.meanfield.n)
        anch_mc = self._mc(self.ANCHORED, 1)
        anch_ref = float(x_anch @ self.eq_anchored.values[0] @ x_anch)

        def anchored():
            ens = mflq.simulate_closed_loop(self.meanfield, self.eq_anchored.gains, 0.0,
                                            x_anch, anch_mc)
            return ens, mflq.estimate_cost(self.meanfield, ens, 0.0)

        def check_anchored(out):
            ens, (mean, stderr) = out
            checks.require(len(ens.times) - 1 == anch_mc.steps, "anchored grid size changed")
            gap = checks.check_cost(mean, stderr, anch_ref, anch_mc.steps)
            return {"simulate.cost_z": gap / stderr}

        delta_mc = self._mc(self.DELTA, 2)
        spike_mc = self._mc(self.SPIKE, 3)

        def verify():
            return (mflq.delta_local_optimality_check(
                        self.ex12, self.eq_delta, self.DELTA_PLAYER, [1.0], mc=delta_mc),
                    mflq.verify_open_loop_equilibrium(
                        self.classical, self.open_loop, np.ones(self.classical.n),
                        mc=spike_mc))

        def check_verify(out):
            checks.check_report(out[0], "interval-deviation check")
            checks.check_report(out[1], "spike-perturbation check")
            return {}

        return [
            Op("mc_wide_path_steps_per_s", wide, check_wide,
               path_steps=wide_mc.paths * wide_mc.steps, memory=True),
            Op("mc_anchored_path_steps_per_s", anchored, check_anchored,
               path_steps=anch_mc.paths * anch_mc.steps, memory=True),
            Op("verify_s", verify, check_verify),
        ]


WORKLOADS = {"solvers": Solvers, "refinement": Refinement, "montecarlo": MonteCarlo}
