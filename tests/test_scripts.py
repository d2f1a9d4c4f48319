"""Exit status of scripts/verify_equilibria.py: 1 when a spike or
interval-deviation check fails, 0 otherwise, whatever the informational
closed-loop cost line says.  The solves and checks are replaced by stubs, so
only the script's own verdict logic runs.  And the no-regression verdicts of
scripts/bench_pairs.py's `compare`, on synthetic samples."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _script(monkeypatch, spike_passes, failing_players):
    mod = _load("verify_equilibria")
    problem = SimpleNamespace(n=2, T=1.0)
    game = SimpleNamespace(N=4, gains=None)
    stubs = {
        "bundled_problem": lambda name: problem,
        "solve_open_loop": lambda *a, **kw: None,
        "verify_open_loop_equilibrium": lambda *a, **kw: {
            "passed": spike_passes, "min_margin": 1.0 if spike_passes else -1.0},
        "bsde_residual_check": lambda *a: {"max_relative_residual": 0.0},
        "build_delta_equilibrium": lambda *a: game,
        "delta_local_optimality_check": lambda p, eq, k, *a, **kw: {
            "passed": k not in failing_players, "min_margin": 0.0},
        "solve_closed_loop": lambda *a, **kw: SimpleNamespace(
            game=game, value=lambda t, x: 0.0, grid=SimpleNamespace(num_intervals=4)),
        "simulate_closed_loop": lambda *a: None,
        "estimate_cost": lambda *a: (1e9, 0.0),     # far off the value: informational
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(mod, name, stub)
    monkeypatch.setattr("sys.argv", ["verify_equilibria.py", "--paths", "4"])
    return mod


@pytest.mark.parametrize("spike_passes, failing_players, status", [
    (True, (), 0), (False, (), 1), (True, (2,), 1), (False, (0, 3), 1)])
def test_exit_status_follows_the_checks(monkeypatch, capsys, spike_passes,
                                        failing_players, status):
    assert _script(monkeypatch, spike_passes, failing_players).main() == status
    err = capsys.readouterr().err
    assert ("FAILED" in err) == bool(status)
    for k in failing_players:
        assert f"interval-deviation check, player {k}" in err


_PARENT = [0.122, 0.126, 0.128, 0.129, 0.130, 0.130, 0.131, 0.133, 0.135, 0.140]


@pytest.mark.parametrize("parent, change, better, within, unresolved", [
    # a setup time 0.130 -> 0.165 s: +27% against a 0.25 bound, a tight parent
    (_PARENT, [x + 0.035 for x in _PARENT], "lower", False, False),
    (_PARENT, [x + 0.030 for x in _PARENT], "lower", True, False),
    # a parent spread wider than the bound leaves an overlap unresolved ...
    ([0.1, 0.1, 0.2, 0.3, 0.3], [0.1, 0.2, 0.2, 0.2, 0.3], "lower", True, True),
    # ... unless every change run beats every parent run
    ([0.2, 0.2, 0.3, 0.4, 0.4], [0.1, 0.1, 0.1, 0.1, 0.15], "lower", True, False),
    # higher is better: a 30% drop is beyond the bound, a 20% one within it
    ([100.0] * 5, [70.0] * 5, "higher", False, False),
    ([100.0] * 5, [80.0] * 5, "higher", True, False)])
def test_compare_reports_the_bound(parent, change, better, within, unresolved):
    c = _load("bench_pairs").compare(parent, change, better, 0.25)
    assert (c["within_bound"], c["unresolved"]) == (within, unresolved)
    assert c["bound"] == 0.25
