"""Tests of the benchmark's own checks: each accepts today's output of the
operation it guards and rejects a perturbed one.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import mflq  # noqa: E402
from mflq.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import MonteCarlo, Solvers  # noqa: E402

rejects = pytest.raises(checks.CheckFailed)


@pytest.fixture(scope="module")
def meanfield():
    return mflq.bundled_problem("meanfield")


@pytest.fixture(scope="module")
def classical():
    return mflq.bundled_problem("classical")


@pytest.fixture(scope="module")
def ex12():
    return mflq.bundled_problem("ex12")


@pytest.fixture(scope="module")
def classical_ref():
    return checks.RiccatiPairReference("classical")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_sweep(tmp_path):
    argv = ["precommit", "meanfield", "--sweep", str(Solvers.SWEEP), "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    ts, values = checks.read_values_csv(tmp_path / "values.csv")
    assert len(ts) == Solvers.SWEEP
    ref = checks.RiccatiPairReference("meanfield")
    assert checks.check_sweep(ts, values, ref) <= checks.SWEEP_TOL
    values[1, 0, 1] += 1e-6
    with rejects:
        checks.check_sweep(ts, values, ref)


def test_open_loop(classical, classical_ref):
    sol = mflq.solve_open_loop(classical)
    assert checks.check_open_loop(sol, classical_ref) <= checks.OPEN_LOOP_TOL
    with rejects:
        checks.check_open_loop(replace(sol, Theta_open=sol.Theta_open + 1e-6), classical_ref)
    off = sol.P.values.copy()
    off[40, 10] += 1e-6
    with rejects:
        checks.check_open_loop(replace(sol, P=replace(sol.P, values=off)), classical_ref)


@pytest.fixture(scope="module")
def game(meanfield):
    return mflq.build_delta_equilibrium(
        meanfield, mflq.TimeGrid.uniform(meanfield.T, Solvers.GAME_N))


def test_game(game):
    assert checks.check_game(game) <= checks.GAME_TOL
    values = game.values.copy()
    values[3] += 1e-6                       # value matrix off by 1e-6
    with rejects:
        checks.check_game(replace(game, values=values))
    values = game.values.copy()
    values[3, 0, 1] += 1e-6                 # asymmetric
    with rejects:
        checks.check_game(replace(game, values=values))
    triples = game.node_triples.copy()
    triples[5, 5, 0] += 1e-6                # triple off its Riccati pair
    with rejects:
        checks.check_game(replace(game, node_triples=triples))


def test_game_rejects_indefinite_values(game):
    """Negated consistently everywhere, player 0's value fails only the PSD test."""
    V = game.values[0]
    values = game.values.copy()
    values[0] = -V
    triples = game.node_triples.copy()
    triples[0, 0, 1] -= 2 * V
    first = game.intervals[0]
    Phat = first.Phat.copy()
    Phat[0] = -V
    intervals = [replace(first, Phat=Phat)] + list(game.intervals[1:])
    with rejects:
        checks.check_game(replace(game, values=values, node_triples=triples,
                                  intervals=intervals))


@pytest.fixture(scope="module")
def limit_pair(meanfield):
    limit = mflq.solve_closed_loop(meanfield)
    return limit, mflq.direct_diagonal_solve(meanfield, t_nodes=limit.grid.num_intervals)


def test_refinement_and_limit(limit_pair):
    limit, direct = limit_pair
    checks.check_refinement(limit)
    assert checks.check_limit(limit, direct) <= checks.LIMIT_TOL
    far = direct.Gamma_hat.copy()
    far[20, 4] += 1e-3
    with rejects:
        checks.check_limit(limit, replace(direct, Gamma_hat=far))
    skew = direct.Gamma.copy()
    skew[20, 4, 0, 1] += 1e-6
    with rejects:
        checks.check_limit(limit, replace(direct, Gamma=skew))
    skew = limit.Gamma.copy()
    skew[20, 4, 0, 1] += 1e-6
    with rejects:
        checks.check_refinement(replace(limit, Gamma=skew))


@pytest.fixture(scope="module")
def ex12_setup(ex12):
    pre = mflq.solve_precommitment(ex12, 0.0)
    gain = mflq.PiecewiseGain.single(0.0, ex12.T, pre.times, pre.Theta, pre.Theta_hat)
    return pre, gain


def test_ex12_closed_form_value(ex12, ex12_setup):
    pre, _ = ex12_setup
    oracle = checks.Ex12Oracle(ex12.T)
    assert checks.check_phat_closed_form(pre.times, pre.Phat, oracle) <= checks.SWEEP_TOL
    with rejects:
        checks.check_phat_closed_form(pre.times, pre.Phat + 1e-6, oracle)


def test_wide_ensemble(ex12, ex12_setup):
    _, gain = ex12_setup
    mc = mflq.MCConfig(seed=0, **MonteCarlo.WIDE)
    ens = mflq.simulate_closed_loop(ex12, gain, 0.0, [1.0], mc)
    oracle = checks.Ex12Oracle(ex12.T)
    exact = oracle.mean(ens.times, 0.0, 1.0)
    X = ens.states[:, :, 0]
    assert checks.check_mean_path(X, exact) <= checks.Z_TOL
    se = X.std(axis=0) / np.sqrt(X.shape[0])
    shifted = exact.copy()
    shifted[200] += 10 * se[200]            # mean path off by 10 stderr at one time
    with rejects:
        checks.check_mean_path(X, shifted)

    mean, stderr = mflq.estimate_cost(ex12, ens, 0.0)
    value = oracle.value(0.0, 1.0)
    assert stderr < 1e-12                   # the ex12 cost is deterministic
    checks.check_cost(mean, stderr, value, mc.steps)
    with rejects:                           # only the Euler allowance separates them
        checks.check_cost(mean + 2 * checks.euler_allowance(mc.steps), stderr, value,
                          mc.steps)


def test_anchored_cost(meanfield):
    eq = mflq.build_delta_equilibrium(
        meanfield, mflq.TimeGrid.uniform(meanfield.T, MonteCarlo.ANCHORED_N))
    x0 = np.ones(meanfield.n)
    mc = mflq.MCConfig(seed=1, **MonteCarlo.ANCHORED)
    ens = mflq.simulate_closed_loop(meanfield, eq.gains, 0.0, x0, mc)
    mean, stderr = mflq.estimate_cost(meanfield, ens, 0.0)
    ref = float(x0 @ eq.values[0] @ x0)
    checks.check_cost(mean, stderr, ref, mc.steps)
    for sign in (1.0, -1.0):                # cost shifted by 10 stderr
        with rejects:
            checks.check_cost(mean + sign * 10 * stderr, stderr, ref, mc.steps)


def test_verify_reports(ex12, classical):
    eq = mflq.build_delta_equilibrium(ex12, mflq.TimeGrid.uniform(ex12.T, MonteCarlo.DELTA_N))
    rep = mflq.delta_local_optimality_check(
        ex12, eq, MonteCarlo.DELTA_PLAYER, [1.0],
        mc=mflq.MCConfig(seed=2, **MonteCarlo.DELTA))
    checks.check_report(rep, "interval-deviation check")
    with rejects:
        checks.check_report({**rep, "passed": False}, "interval-deviation check")

    sol = mflq.solve_open_loop(classical)
    spike = mflq.MCConfig(seed=3, **MonteCarlo.SPIKE)
    rep = mflq.verify_open_loop_equilibrium(classical, sol, np.ones(2), mc=spike)
    checks.check_report(rep, "spike-perturbation check")
    off = replace(sol, Theta_open=sol.Theta_open + 1.0)   # not an equilibrium
    rep = mflq.verify_open_loop_equilibrium(classical, off, np.ones(2), mc=spike)
    with rejects:
        checks.check_report(rep, "spike-perturbation check")


def test_bench_run_refuses_a_tree_without_the_package(tmp_path):
    """Copied without src/, the benchmark exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solvers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
