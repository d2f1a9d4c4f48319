import json

import pytest

from mflq import bundled_problem, cli, precommit
from mflq.cli import main
from mflq.closedloop import MARCH_SHARE


def run(argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_pass(self, capsys):
        assert run(["validate", "classical"]) == 0
        assert "H2: pass" in capsys.readouterr().out

    def test_unknown_problem(self, capsys):
        assert run(["validate", "nosuch"]) == 2
        assert "error" in capsys.readouterr().err

    def test_override_breaks_hypotheses(self, capsys):
        assert run(["validate", "classical", "--set",
                    "weights.R=[[-1.0]]"]) == 2
        assert "H2: FAIL" in capsys.readouterr().out


class TestPrecommit:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "pre"
        assert run(["precommit", "ex12", "--h", "0.01", "--out", out]) == 0
        for name in ("P", "Phat", "Theta", "Theta_hat"):
            assert (out / f"{name}.csv").exists()
        header, first = (out / "Phat.csv").read_text().splitlines()[:2]
        assert header == "s,Phat_00"
        s, v = first.split(",")
        assert float(s) == 0.0
        assert float(v) == pytest.approx(0.5, abs=1e-6)
        meta = json.loads((out / "metadata.json").read_text())
        assert set(meta) == {"command", "problem_hash", "params", "versions",
                             "march_step", "pilot_error"}
        assert len(meta["problem_hash"]) == 64

    def test_sweep_writes_values(self, tmp_path):
        for sweep in (4, 1):
            out = tmp_path / f"pre{sweep}"
            assert run(["precommit", "ex12", "--h", "0.02", "--sweep", sweep,
                        "--out", out]) == 0
            lines = (out / "values.csv").read_text().splitlines()
            assert len(lines) == 1 + sweep  # header + the initial times k T/sweep
            assert float(lines[1].split(",")[0]) == 0.0

    def test_negative_sweep_exit_code(self, tmp_path, capsys):
        assert run(["precommit", "ex12", "--sweep", "-3", "--out", tmp_path / "x"]) == 2
        assert "--sweep must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("t, solves", [(0.0, 4), (0.1, 5)])
    def test_sweep_reuses_the_solve_at_t(self, tmp_path, monkeypatch, t, solves):
        from mflq import cli
        calls = []

        def counted(problem, t, h=None):
            calls.append(t)
            return solve(problem, t, h)

        solve = cli.solve_precommitment
        monkeypatch.setattr(cli, "solve_precommitment", counted)
        assert run(["precommit", "ex12", "--h", "0.02", "--t", t, "--sweep", "4",
                    "--out", tmp_path / "pre"]) == 0
        assert len(calls) == solves

    def test_ill_posed_exit_code(self, tmp_path, capsys):
        # R below the coercivity margin delta makes the Riccati factor fail
        code = run(["precommit", "ex12", "--h", "0.01", "--set",
                    "weights.R=[[0.1]]", "--out", tmp_path / "x"])
        assert code == 3
        assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["open-loop", "game", "closed-loop"])
@pytest.mark.parametrize("h", ["-0.1", "0"])
def test_non_positive_step_exit_code(command, h, tmp_path, capsys):
    assert run([command, "classical", "--h", h, "--out", tmp_path / "x"]) == 2
    assert "step size must be positive" in capsys.readouterr().err


class TestClosedLoop:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "cl"
        assert run(["closed-loop", "classical", "--tol", "1e-4",
                    "--out", out]) == 0
        for name in ("theta_hat.csv", "gamma_diag.csv", "trace.json",
                     "metadata.json"):
            assert (out / name).exists()
        trace = json.loads((out / "trace.json").read_text())
        assert trace["trace"][1]["sup_delta_Gamma"] <= 1e-8
        assert trace["final_N"] == 8

    def test_extrapolated_acceptance(self, tmp_path, capsys):
        """ex12's raw fields converge only to first order and never reach
        1e-4 in six doublings; their extrapolant does at the N = 128 game."""
        out = tmp_path / "cl"
        assert run(["closed-loop", "ex12", "--tol", "1e-4", "--out", out]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert (trace["final_N"], trace["game_N"]) == (64, 128)
        last = trace["trace"][-1]
        assert last["delta"] >= 1e-4 > last["extrapolated_delta"]
        assert 1.8 <= last["ratio"] <= 2.2
        assert 3.5 <= last["extrapolated_ratio"] <= 4.5
        lines = (out / "gamma_diag.csv").read_text().splitlines()
        assert len(lines) == 1 + 65
        assert "finest game N=128" in capsys.readouterr().out

    def test_convergence_failure(self, tmp_path, capsys):
        code = run(["closed-loop", "discounting", "--tol", "1e-12",
                    "--max-doublings", "1", "--out", tmp_path / "cl"])
        assert code == 4
        assert "convergence failure" in capsys.readouterr().err


class TestConverge:
    def test_trace_carries_extrapolated_deltas_and_ratios(self, tmp_path):
        out = tmp_path / "conv"
        assert run(["converge", "discounting", "--out", out]) == 0
        trace = json.loads((out / "trace.json").read_text())
        records = trace["trace"]
        assert [r["N"] for r in records] == [8, 16, 32, 64]
        assert records[0]["extrapolated_delta"] is None
        for prev, r in zip(records, records[1:]):
            assert r["ratio"] == pytest.approx(prev["delta"] / r["delta"], rel=1e-15)
        for prev, r in zip(records[1:], records[2:]):
            assert r["extrapolated_ratio"] == pytest.approx(
                prev["extrapolated_delta"] / r["extrapolated_delta"], rel=1e-15)
        assert trace["monotone"]


class TestGame:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "game"
        assert run(["game", "discounting", "--N0", "4", "--out", out]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["psd_margins"]["passed"]
        assert diag["jumps_within_bound"]
        values = (out / "values.csv").read_text().splitlines()
        assert len(values) == 5
        gains = (out / "gains.csv").read_text().splitlines()
        assert gains[0] == "s,Theta_00,Theta_hat_00"

    @pytest.mark.parametrize("weight", ["Gbar", "Qbar"])
    def test_jumps_bounded_under_discounted_bar_weights(self, tmp_path, weight):
        """A discounted bar weight moves the players' triples, and the jump
        majorant counts its gap."""
        out = tmp_path / "game"
        bar = '{"kind":"exp_discount","lambda":2.0,"base":[[0.5,0],[0,0.5]]}'
        assert run(["game", "classical", "--N0", "4", "--set", f"weights.{weight}={bar}",
                    "--out", out]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert all(r["majorant"] > 0 for r in diag["jump_norms"])
        assert diag["jumps_within_bound"]


class TestOpenLoop:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "ol"
        assert run(["open-loop", "classical", "--out", out]) == 0
        lines = (out / "theta_open.csv").read_text().splitlines()
        assert lines[0] == "t,Theta_00,Theta_01"
        assert len(lines) == 66


class TestSimulate:
    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "classical", "--paths", "500", "--steps", "50",
                        "--seed", "5", "--out", out]) == 0
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "classical", "--paths", "500", "--steps", "50",
             "--seed", "5", "--out", a])
        run(["simulate", "classical", "--paths", "500", "--steps", "50",
             "--seed", "6", "--out", b])
        assert (a / "summary.csv").read_bytes() != (b / "summary.csv").read_bytes()

    def test_names_the_game_behind_an_extrapolated_value(self, tmp_path, capsys):
        """On meanfield the value is the extrapolant on N = 8, the gains the
        N = 16 game's; the output says so."""
        assert run(["simulate", "meanfield", "--paths", "200", "--steps", "50",
                    "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "under the N=16 game's gains" in out
        assert "at N=8" in out
        assert "did not pass --tol" in out

    def test_names_the_euler_steps_and_what_the_error_covers(self, tmp_path, capsys):
        assert run(["simulate", "classical", "--paths", "200", "--steps", "50",
                    "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "50 Euler-Maruyama steps" in out
        assert "+- is the sampling error only" in out
        assert "bias of order 1/steps" in out


@pytest.mark.parametrize("argv", [["precommit", "ex12"], ["open-loop", "classical"],
                                  ["game", "meanfield", "--N0", "4"],
                                  ["closed-loop", "discounting"],
                                  ["converge", "discounting"],
                                  ["simulate", "classical", "--paths", "200", "--steps", "50"],
                                  ["verify", "classical", "--paths", "200"]])
def test_metadata_records_the_march_step(tmp_path, argv):
    """By default march_step is the step the command's solves marched at, in
    [T/2000, T/64] (T = 1 for every bundled problem), with the pilot's error
    estimate: closed-loop and simulate march their games at the step for
    tol * MARCH_SHARE, every other command at the pilot's default step.  An
    explicit --h is the step, with no estimate."""
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
    problem = bundled_problem(argv[1])
    step = precommit.default_step(problem)
    if argv[0] in ("closed-loop", "simulate"):
        step = precommit.default_step(problem, 1e-4 * MARCH_SHARE)
        assert step > precommit.default_step(problem)
    assert meta["march_step"] == step
    assert 1 / 2000 <= meta["march_step"] <= 1 / 64
    assert meta["pilot_error"] == precommit.step_choice(problem).pilot_error
    assert 0 < meta["pilot_error"] < 1e-8
    assert run(argv + ["--h", "0.004", "--out", tmp_path / "b"]) == 0
    meta = json.loads((tmp_path / "b" / "metadata.json").read_text())
    assert meta["march_step"] == 0.004 and meta["pilot_error"] is None


class TestVerify:
    def test_spike_report(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["verify", "classical", "--paths", "2000", "--out",
                    out]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["mode"] == "spike-perturbation"
        assert rep["passed"]
        assert {"probe", "t", "epsilon", "ratio", "stderr"} <= set(
            rep["records"][0])

    def test_game_step_reaches_the_game(self, tmp_path, capsys, monkeypatch):
        """On a mean-field problem --h is the step of the game that verify
        builds: a negative one exits 2, and a valid one reaches the build."""
        assert run(["verify", "meanfield", "--h", "-0.1", "--paths", "200",
                    "--out", tmp_path / "bad"]) == 2
        assert "step size must be positive" in capsys.readouterr().err
        steps, build = [], cli.build_delta_equilibrium

        def spy(problem, partition, h=None):
            steps.append(h)
            return build(problem, partition, h)

        monkeypatch.setattr(cli, "build_delta_equilibrium", spy)
        assert run(["verify", "meanfield", "--h", "0.05", "--paths", "200",
                    "--out", tmp_path / "ok"]) == 0
        assert steps == [0.05]


class TestDemo:
    def test_demo(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert run(["demo", "semigroup", "--paths", "2000", "--out", out]) == 0
        assert "closed form" in capsys.readouterr().out
        rep = json.loads((out / "demo.json").read_text())
        assert rep["no_restart"]["simulated"] == 0.0

    def test_tau_before_t_exit_code(self, tmp_path, capsys):
        assert run(["demo", "semigroup", "--t", "0.5", "--tau", "0.2", "--paths", "20",
                    "--out", tmp_path / "demo"]) == 2
        assert "t <= tau <= s" in capsys.readouterr().err


class TestCsvFormat:
    def test_17_significant_digits(self, tmp_path):
        out = tmp_path / "pre"
        run(["precommit", "ex12", "--h", "0.01", "--out", out])
        row = (out / "Phat.csv").read_text().splitlines()[1]
        val = row.split(",")[1]
        # round-trips exactly through float
        assert f"{float(val):.17g}" == val
