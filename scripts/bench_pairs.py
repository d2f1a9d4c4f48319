"""Alternating parent/change pairs of the benchmark, summarised in one JSON file.

    python3 scripts/bench_pairs.py --pr 6 --pairs 10 --seconds 20
    python3 scripts/bench_pairs.py --pr 6 --pairs 2 --seconds 2 --workloads solvers

Run from the repository root.  The parent commit (``--parent``, default HEAD)
is exported with ``git archive`` into a temporary directory; the working tree
is the change.  For every workload, pair i runs ``bench/run.py`` once on each
side with the same ``--seconds`` and ``--seed i + 1``, the parent first in
even pairs and the change first in odd ones, so that a drift of the machine's
speed hits both sides alike.  Then one ``--trace 1`` run per side records the
per-layer metrics: the per-operation times (``op.*``), the layer times, the
call counts, the check errors and the memory figures.

``BENCH_<pr>.json`` holds, per workload and end-to-end metric, both sides'
samples, medians and quartiles, the pairs the change won, whether the
change's median beats the parent's by more than the parent's interquartile
distance, and the two no-regression verdicts against the metric's ``bound``
in ``BENCHMARK.json``: ``within_bound`` (the change's median is worse than
the parent's by at most that fraction) and ``unresolved`` (the parent's own
spread is wider than the bound and the change does not beat it outright).
Nothing under ``bench/`` is written except its own ignored output directories.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--out", default=None, help="default: BENCH_<pr>.json at the root")
    return p.parse_args(argv)


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into dest; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        # the "data" filter (Python >= 3.11.4) refuses members outside dest
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tf.extractall(dest, **safe)
    return sha


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process in `root`; returns its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"samples": samples, "median": statistics.median(samples), "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' summaries and the verdicts: `within_bound` when the change's
    median is worse than the parent's by at most the fraction `bound`;
    `unresolved` when the parent's own interquartile distance exceeds that
    fraction of its median and not every change run beats every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = summary(parent), summary(change)
    gap = sign * (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    return {"parent": p, "change": c,
            "pairs_won": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "pairs": len(parent),
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
            "median_gain": gap,
            "parent_iqr": iqr,
            "gain_exceeds_parent_iqr": gap > iqr,
            "bound": bound,
            "within_bound": -gap <= bound * abs(p["median"]),
            "unresolved": iqr > bound * abs(p["median"])
                          and not all(sign * (a - b) > 0 for a in parent for b in change)}


def traced_subset(result: dict, units: dict[str, str]) -> dict:
    """The per-layer metrics of a traced run: op.* and layer times, counts,
    check errors and memory."""
    return {name: m["value"] for name, m in result["metrics"].items() if name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip())
    out = {"parent": None, "change": {"head": head, "uncommitted_changes": dirty},
           "pairs": args.pairs, "seconds": args.seconds,
           "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                       "python": platform.python_version()},
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        out["parent"] = export(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        for w in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    t0 = time.perf_counter()
                    runs[side].append(run_bench(sides[side], w, i + 1, args.seconds, 0))
                    r = runs[side][-1]["metrics"]
                    print(f"{w} pair {i + 1} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in r.items())
                          + f" ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
            rec = {"correct": {s: all(r["correct"] for r in runs[s]) for s in sides},
                   "failed": {s: sum(r["failed"] for r in runs[s]) for s in sides},
                   "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in sides},
                   "end_to_end": {}}
            for name, m in end_to_end.items():
                rec["end_to_end"][name] = {"unit": m["unit"], "better": m["better"],
                                           **compare(*([r["metrics"][name]["value"]
                                                        for r in runs[s]] for s in sides),
                                                     m["better"], m["bound"])}
            rec["traced"] = {s: traced_subset(run_bench(sides[s], w, 1, args.seconds, 1),
                                              units) for s in sides}
            out["workloads"][w] = rec
    path = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for w, rec in out["workloads"].items():
        for name, c in rec["end_to_end"].items():
            print(f"{w}/{name}: parent {c['parent']['median']:.4g} "
                  f"[{c['parent']['q1']:.4g}-{c['parent']['q3']:.4g}] -> change "
                  f"{c['change']['median']:.4g} [{c['change']['q1']:.4g}-"
                  f"{c['change']['q3']:.4g}], won {c['pairs_won']}/{c['pairs']}, "
                  f"within_bound={c['within_bound']} (bound {c['bound']:g}), "
                  f"unresolved={c['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
