"""Input guards of the Monte Carlo entry points: each bad input raises
ConfigurationError before any march, instead of passing vacuously or failing
inside numpy."""

import numpy as np
import pytest

from mflq import (ConfigurationError, MCConfig, TimeGrid, build_delta_equilibrium,
                  delta_local_optimality_check, simulate_closed_loop, solve_open_loop,
                  verify_open_loop_equilibrium)
from mflq.simulate import closed_loop_states_at

MC = MCConfig(paths=8, steps=20, seed=1)


@pytest.fixture(scope="module")
def game(ex12):
    return build_delta_equilibrium(ex12, TimeGrid.uniform(ex12.T, 4))


@pytest.fixture(scope="module")
def open_loop(classical):
    return solve_open_loop(classical, t_nodes=8)


def test_deviation_check_needs_a_probe(ex12, game):
    """With no probe there is nothing to compare: min_margin would be inf and
    the check would pass on no records."""
    with pytest.raises(ConfigurationError, match="n_probes must be at least 1, got 0"):
        delta_local_optimality_check(ex12, game, 1, [1.0], mc=MC, n_probes=0)


def test_spike_test_needs_a_check_time(classical, open_loop):
    with pytest.raises(ConfigurationError, match="check_times is empty"):
        verify_open_loop_equilibrium(classical, open_loop, np.ones(2), mc=MC,
                                     check_times=[])


@pytest.mark.parametrize("x0", [[1.0, 2.0], []])
def test_ensembles_and_deviation_check_need_n_entries(ex12, game, x0):
    for run in (lambda: simulate_closed_loop(ex12, game.gains, 0.0, x0, MC),
                lambda: closed_loop_states_at(ex12, game.gains, 0.0, x0, MC, 0.5),
                lambda: delta_local_optimality_check(ex12, game, 0, x0, mc=MC),
                lambda: delta_local_optimality_check(ex12, game, 2, x0, mc=MC)):
        with pytest.raises(ConfigurationError, match=f"x0 has {len(x0)} entries, "
                                                     f"the state has n = 1"):
            run()


@pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0]])
def test_spike_test_needs_n_entries(classical, open_loop, x0):
    with pytest.raises(ConfigurationError, match=f"x0 has {len(x0)} entries, "
                                                 f"the state has n = 2"):
        verify_open_loop_equilibrium(classical, open_loop, x0, mc=MC)


def test_spike_test_needs_a_step_per_spike_node(classical, open_loop):
    """Three check times and their spike ends are six nodes inside (0, T), so
    the grid needs seven steps; the error names those nodes, not the gain
    intervals of the grid builder."""
    spikes = dict(check_times=[0.1, 0.3, 0.5], eps_list=[0.05])
    message = (r"^3 Euler steps cannot hold the 6 check times and spike ends t \+ eps "
               r"inside \(0, T\) as nodes: give at least 7 steps$")
    with pytest.raises(ConfigurationError, match=message):
        verify_open_loop_equilibrium(classical, open_loop, np.ones(2),
                                     mc=MCConfig(paths=4, steps=3, seed=1), **spikes)
    rep = verify_open_loop_equilibrium(classical, open_loop, np.ones(2),
                                       mc=MCConfig(paths=4, steps=7, seed=1), **spikes)
    assert {r["t"] for r in rep["records"]} == {0.1, 0.3, 0.5}
