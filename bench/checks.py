"""Reference solutions computed apart from mflq, and the checks that every
benchmark operation's output must pass.

The references read the bundled problem documents as plain JSON and integrate
the Riccati equations with scipy's ``solve_ivp``; they share no code with the
package.  Each check returns the error it measured and raises ``CheckFailed``
when that error is beyond the check's tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "src" / "mflq" / "problems"

#: tolerances, fixed before any run (see README.md)
SWEEP_TOL = 1e-8          # pre-commitment value matrices against scipy
OPEN_LOOP_TOL = 1e-8      # open-loop gain and fields against the standard Riccati solution
GAME_TOL = 1e-9           # each player's triple against their own Riccati pair
LIMIT_TOL = 5e-4          # game limit against the direct solve of the limit system
SYM_TOL = 1e-12           # relative asymmetry of matrices the solvers symmetrize
Z_TOL = 3.0               # Monte Carlo gaps, in standard errors
EULER_BIAS_PER_STEP = 1.1  # cost allowance is EULER_BIAS_PER_STEP / steps


class CheckFailed(AssertionError):
    """An operation's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# references


def constant_problem(name: str) -> tuple[float, dict[str, np.ndarray]]:
    """Horizon and matrices of a bundled problem whose entries are all constant."""
    doc = json.loads((PROBLEM_DIR / f"{name}.json").read_text(encoding="utf-8"))
    mats = {}
    for key, entry in {**doc["coefficients"], **doc["weights"]}.items():
        if isinstance(entry, dict):
            raise ValueError(f"{name}: {key} is not a constant matrix")
        mats[key] = np.atleast_2d(np.asarray(entry, dtype=float))
    return float(doc["T"]), mats


class RiccatiPairReference:
    """Pre-commitment pair (P, Phat) of a constant-coefficient problem by scipy.

    P' + PA + A'P + C'PC + Q - L'K^{-1}L = 0 with K = R + D'PD, L = B'P + D'PC,
    and the hat equation with every coefficient replaced by base + bar, reading
    P in its sandwich and in K.  Constant weights make the solution at initial
    time t the same for every t, so one backward solve serves the whole sweep.
    For a problem without mean-field terms both components equal the standard
    Riccati solution.
    """

    def __init__(self, name: str):
        self.T, c = constant_problem(name)
        self.c = c
        self.h = {k: c[k] + c[k + "bar"] for k in ("A", "B", "C", "D", "Q", "R", "G")}
        self.n = c["A"].shape[0]
        from scipy.integrate import solve_ivp  # kept out of the timed set-up
        y0 = np.concatenate([c["G"].ravel(), self.h["G"].ravel()])
        self._sol = solve_ivp(lambda s, y: self._rhs(y), (self.T, 0.0), y0,
                              method="DOP853", rtol=1e-13, atol=1e-15,
                              dense_output=True)
        if not self._sol.success:
            raise RuntimeError(f"{name}: reference solve failed: {self._sol.message}")

    def _rhs(self, y):
        c, h = self.c, self.h
        P, Ph = y.reshape(2, self.n, self.n)
        K = c["R"] + c["D"].T @ P @ c["D"]
        L = c["B"].T @ P + c["D"].T @ P @ c["C"]
        dP = -(P @ c["A"] + c["A"].T @ P + c["C"].T @ P @ c["C"] + c["Q"]
               - L.T @ np.linalg.solve(K, L))
        Kh = h["R"] + h["D"].T @ P @ h["D"]
        Lh = h["B"].T @ Ph + h["D"].T @ P @ h["C"]
        dPh = -(Ph @ h["A"] + h["A"].T @ Ph + h["C"].T @ P @ h["C"] + h["Q"]
                - Lh.T @ np.linalg.solve(Kh, Lh))
        return np.concatenate([dP.ravel(), dPh.ravel()])

    def pair(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        P, Ph = self._sol.sol(s).reshape(2, self.n, self.n)
        return P, Ph

    def gain(self, s: float) -> np.ndarray:
        """Standard Riccati feedback K^{-1} L at s."""
        c = self.c
        P, _ = self.pair(s)
        return np.linalg.solve(c["R"] + c["D"].T @ P @ c["D"],
                               c["B"].T @ P + c["D"].T @ P @ c["C"])


class Ex12Oracle:
    """Closed forms of the scalar example ex12 (terminal cost E_t[X(T)]^2)."""

    def __init__(self, T: float):
        self.T = T

    def phat(self, t: float) -> float:
        return 1.0 / (self.T - t + 1.0)

    def mean(self, s, t: float, x: float):
        return (self.T - np.asarray(s) + 1.0) / (self.T - t + 1.0) * x

    def value(self, t: float, x: float) -> float:
        return x * x * self.phat(t)


def euler_allowance(steps: int) -> float:
    """Bound on the Euler-Maruyama bias of an estimated cost (README.md)."""
    return EULER_BIAS_PER_STEP / steps


# ---------------------------------------------------------------------------
# checks


def read_values_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(t, Phat(t)) rows of the CLI's sweep output."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    arr = np.array(rows)
    n = math.isqrt(arr.shape[1] - 1)
    return arr[:, 0], arr[:, 1:].reshape(-1, n, n)


def check_sweep(ts, values, ref: RiccatiPairReference) -> float:
    """Every swept value matrix Phat(t) matches scipy within SWEEP_TOL."""
    require(len(ts) > 1, "sweep produced fewer than two initial times")
    err = max(float(np.abs(V - ref.pair(t)[1]).max()) for t, V in zip(ts, values))
    require(err <= SWEEP_TOL, f"sweep Phat off scipy by {err:.3g}")
    return err


def check_open_loop(sol, ref: RiccatiPairReference) -> float:
    """On a problem without mean-field terms the open-loop gain is the standard
    Riccati gain and both fields P(s, t), Phat(s, t) equal its solution P(s)."""
    nodes = sol.tgrid.nodes
    err = 0.0
    for i, s in enumerate(nodes):
        P_ref = ref.pair(s)[0]
        err = max(err, float(np.abs(sol.Theta_open[i] - ref.gain(s)).max()),
                  float(np.abs(sol.P.values[i, :i + 1] - P_ref).max()),
                  float(np.abs(sol.Phat.values[i, :i + 1] - P_ref).max()))
    require(err <= OPEN_LOOP_TOL, f"open-loop solution off the standard Riccati one by {err:.3g}")
    return err


def _asymmetry(M: np.ndarray) -> float:
    M = np.asarray(M)
    return float(np.nanmax(np.abs(M - np.swapaxes(M, -1, -2)))) / (1.0 + float(np.nanmax(np.abs(M))))


def check_game(eq) -> float:
    """Each player's cost triple, carried through their own interval, equals
    their Riccati pair: tilde = P_k and plain + bar = Phat_k at t_k.  The value
    matrices are symmetric and positive semidefinite."""
    err = 0.0
    for k, iv in enumerate(eq.intervals):
        tri = eq.node_triples[k, k]
        err = max(err, float(np.abs(tri[0] - iv.P[0]).max()),
                  float(np.abs(tri[1] + tri[2] - iv.Phat[0]).max()),
                  float(np.abs(tri[1] + tri[2] - eq.values[k]).max()))
    require(err <= GAME_TOL, f"game triple off its Riccati pair by {err:.3g}")
    asym = _asymmetry(eq.values)
    require(asym <= SYM_TOL, f"game values asymmetric by {asym:.3g}")
    low = min(float(np.linalg.eigvalsh(V).min()) for V in eq.values)
    require(low >= -1e-10, f"game value matrix not PSD (eigenvalue {low:.3g})")
    return err


def check_refinement(sol) -> None:
    """The game-limit field pair is symmetric."""
    asym = max(_asymmetry(sol.Gamma), _asymmetry(sol.Gamma_hat))
    require(asym <= SYM_TOL, f"game-limit Gamma asymmetric by {asym:.3g}")


def check_limit(limit, direct) -> float:
    """The game limit and the direct solve of the limit system agree on the
    populated lower triangle, and the direct Gamma is symmetric."""
    require(limit.Gamma.shape == direct.Gamma.shape,
            f"grids differ: {limit.Gamma.shape} vs {direct.Gamma.shape}")
    J = limit.Gamma.shape[0]
    lower = np.tril(np.ones((J, J), dtype=bool))
    err = max(float(np.abs(limit.Gamma - direct.Gamma)[lower].max()),
              float(np.abs(limit.Gamma_hat - direct.Gamma_hat)[lower].max()))
    require(err <= LIMIT_TOL, f"game limit off the direct solve by {err:.3g}")
    asym = max(_asymmetry(direct.Gamma[lower]), _asymmetry(direct.Gamma_hat[lower]))
    require(asym <= SYM_TOL, f"direct Gamma asymmetric by {asym:.3g}")
    return err


def check_phat_closed_form(times, phat, oracle: Ex12Oracle) -> float:
    """ex12 pre-commitment value path Phat(s) = 1 / (T - s + 1)."""
    err = float(np.abs(np.asarray(phat).reshape(-1) - [oracle.phat(s) for s in times]).max())
    require(err <= SWEEP_TOL, f"ex12 Phat off its closed form by {err:.3g}")
    return err


def check_mean_path(states, exact) -> float:
    """Empirical mean of every state component within Z_TOL i.i.d. standard
    errors of the exact mean at every time after the start (the start is exact).

    Returns the largest gap in standard errors."""
    X = np.asarray(states)
    emp = X.mean(axis=0)[1:]
    se = X.std(axis=0)[1:] / math.sqrt(X.shape[0])
    z = float((np.abs(emp - np.asarray(exact)[1:]) / se).max())
    require(z <= Z_TOL, f"mean path {z:.2f} standard errors off the oracle")
    return z


def check_cost(mean: float, stderr: float, ref: float, steps: int) -> float:
    """Estimated cost within Z_TOL standard errors plus the Euler allowance."""
    gap = abs(mean - ref)
    band = Z_TOL * stderr + euler_allowance(steps)
    require(gap <= band, f"cost {mean:.6g} off reference {ref:.6g} by {gap:.3g} > {band:.3g}")
    return gap


def check_report(report: dict, label: str) -> float:
    """A verification report from the program passed; returns its margin."""
    require(bool(report["passed"]), f"{label} failed (min margin {report['min_margin']:.3g})")
    return float(report["min_margin"])
