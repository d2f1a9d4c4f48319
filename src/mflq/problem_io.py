"""Problem-file parsing: JSON documents into ProblemData, plus bundled examples.

A problem document has the shape
    {"n": int, "m": int, "T": float,
     "coefficients": {"A","Abar","B","Bbar","C","Cbar","D","Dbar"},
     "weights": {"Q","Qbar","R","Rbar","G","Gbar"},
     "delta": float}
where every matrix entry is either a constant (nested arrays or scalar),
{"kind": "exp_discount", "lambda": l, "base": [[...]]} for the kernel
exp(-l*(s-t))*base (anchored at the horizon for one-time entries),
{"kind": "samples", "times": [...], "values": [...]} with linear interpolation
(in s for coefficients, in the lag s-t for two-time weights), or, for
one-time entries only, {"kind": "polynomial", "coeffs": [c0, c1, ...]} for
sum_i c_i s**i with matrix coefficients.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import numpy as np

from .errors import ValidationError
from .types import MatrixFn, ProblemData, TwoTimeMatrixFn

_COEFF_KEYS = ("A", "Abar", "B", "Bbar", "C", "Cbar", "D", "Dbar")
_WEIGHT_KEYS = ("Q", "Qbar", "R", "Rbar", "G", "Gbar")
BUNDLED = ("classical", "ex12", "discounting", "meanfield")
_TWO_TIME_KINDS = ("constant", "exp_discount", "samples")
_ONE_TIME_KINDS = _TWO_TIME_KINDS + ("polynomial",)


def _as_matrix(entry, shape, name) -> np.ndarray:
    M = np.atleast_2d(np.asarray(entry, dtype=float))
    if M.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {M.shape}")
    return M


def _sample_values(entry, shape, name) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(entry["times"], dtype=float)
    values = np.asarray(entry["values"], dtype=float)
    if values.ndim == 1:
        values = values[:, None, None]
    if len(times) < 2 or values.shape != (len(times),) + shape:
        raise ValidationError(
            f"{name}: samples need >= 2 times and values of shape "
            f"(len(times), {shape[0]}, {shape[1]})")
    return times, values


def _one_time(entry, shape, T, name) -> MatrixFn:
    if isinstance(entry, dict):
        kind = entry.get("kind")
        if kind == "constant":
            return MatrixFn.constant(_as_matrix(entry["value"], shape, name), T, name)
        if kind == "exp_discount":
            base = _as_matrix(entry["base"], shape, name)
            return MatrixFn.terminal_discount(float(entry["lambda"]), base, T, name)
        if kind == "samples":
            times, values = _sample_values(entry, shape, name)
            return MatrixFn.from_samples(times, values, T, name)
        if kind == "polynomial":
            coeffs = entry.get("coeffs") or []
            if not coeffs:
                raise ValidationError(f"{name}: polynomial needs a non-empty 'coeffs' list")
            return MatrixFn.polynomial([_as_matrix(c, shape, name) for c in coeffs], T, name)
        raise ValidationError(f"{name}: unknown kind {kind!r}; one-time entries take "
                              f"{', '.join(_ONE_TIME_KINDS)}")
    return MatrixFn.constant(_as_matrix(entry, shape, name), T, name)


def _two_time(entry, shape, T, name) -> TwoTimeMatrixFn:
    if isinstance(entry, dict):
        kind = entry.get("kind")
        if kind == "constant":
            return TwoTimeMatrixFn.constant(_as_matrix(entry["value"], shape, name), T, name)
        if kind == "exp_discount":
            base = _as_matrix(entry["base"], shape, name)
            return TwoTimeMatrixFn.exp_discount(float(entry["lambda"]), base, T, name)
        if kind == "samples":
            times, values = _sample_values(entry, shape, name)
            return TwoTimeMatrixFn.from_lag_samples(times, values, T, name)
        raise ValidationError(f"{name}: unknown kind {kind!r} for a two-time weight; "
                              f"supported kinds are {', '.join(_TWO_TIME_KINDS)}")
    return TwoTimeMatrixFn.constant(_as_matrix(entry, shape, name), T, name)


def parse_problem(doc: dict) -> ProblemData:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        T = float(doc["T"])
        delta = float(doc["delta"])
        coeffs = doc["coefficients"]
        weights = doc["weights"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"problem document missing field: {exc}") from exc
    if n < 1 or m < 1 or T <= 0:
        raise ValidationError("need n >= 1, m >= 1, T > 0")
    missing = [k for k in _COEFF_KEYS if k not in coeffs] \
        + [k for k in _WEIGHT_KEYS if k not in weights]
    if missing:
        raise ValidationError(f"problem document missing entries: {missing}")

    sq, rect = (n, n), (n, m)
    kw = {}
    for key in _COEFF_KEYS:
        shape = sq if key in ("A", "Abar", "C", "Cbar") else rect
        kw[key] = _one_time(coeffs[key], shape, T, key)
    for key in ("Q", "Qbar"):
        kw[key] = _two_time(weights[key], sq, T, key)
    for key in ("R", "Rbar"):
        kw[key] = _two_time(weights[key], (m, m), T, key)
    for key in ("G", "Gbar"):
        kw[key] = _one_time(weights[key], sq, T, key)
    return ProblemData(n=n, m=m, T=T, delta=delta, **kw)


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def load_problem(path: str) -> ProblemData:
    return parse_problem(load_document(path))


def problem_hash(doc: dict) -> str:
    """Stable content hash of a problem document (canonical JSON, sha256)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def bundled_document(name: str) -> dict:
    stem = name.removesuffix(".json")
    if stem not in BUNDLED:
        raise ValidationError(f"unknown bundled problem {name!r}; have {BUNDLED}")
    text = resources.files("mflq").joinpath(f"problems/{stem}.json").read_text()
    return json.loads(text)


def bundled_problem(name: str) -> ProblemData:
    return parse_problem(bundled_document(name))


def resolve_document(spec: str) -> dict:
    """A file path if it exists, otherwise a bundled problem name."""
    import os
    if os.path.exists(spec):
        return load_document(spec)
    return bundled_document(spec)


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply `--set path.to.key=JSON` assignments to a (copied) document."""
    out = json.loads(json.dumps(doc))
    for item in assignments:
        if "=" not in item:
            raise ValidationError(f"override {item!r} must look like key.path=value")
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        keys = path.strip().split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return out
