"""Benchmark trajectory: the declared benchmark on a parent and a change, side by side.

    python3 tools/bench_record.py --parent REV --change REV --seeds K --out BENCH_<n>.json
        [--workloads NAME[,NAME...]]

Run from the root of a git checkout.  Each revision is extracted with
``git archive`` into a directory of its own, and the command that
BENCHMARK.json declares (``python3 bench/run.py``) runs unchanged in each.
``--workloads`` picks some of the workloads BENCHMARK.json declares; the
default runs all of them.
For every workload, seeds 1..K run as pairs: one ``--trace 0`` run per side,
with the parent first on odd seeds and the change first on even ones, so a
drift of the host's speed favours neither side.  Three ``--trace 1`` runs
per side and workload follow, at seeds 1, 2 and 3 in the same alternated
order, for the per-layer metrics; one traced run cannot tell a move of a
few percent from the host's drift.  Each run's report is read from
``.bench-out/`` of its tree.

The output holds, per workload and side, the median and quartiles of every
end-to-end metric with the values of each run, ``failed`` and ``attempted``,
the provenance common to the side's runs and the traced per-layer metrics,
each the median of the side's three traced runs with the three values in
``per_layer_runs``; per workload, the pairs each metric won, lost and tied,
how many ops gave different output digests on the two sides, and the
(seed, op) positions of the first five of them.  Beside each side's
per-layer metrics stand the largest ``failed_frac`` of its traced runs and
their ``missing_functions``: the listed functions the package no longer
has, whose per-layer metrics read 0.  The file is rewritten after every
pair, so an interrupted recording keeps what it finished.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")

#: Seeds of each side's traced runs, whose per-layer metrics are reported as medians.
TRACED_SEEDS = (1, 2, 3)


def alternated(seed: int) -> tuple[str, str]:
    """The sides in run order at ``seed``: the parent first on odd seeds, the change first on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def select_workloads(declared: list[dict], names: str | None) -> list[str]:
    """The workloads to run, in BENCHMARK.json's order: all of ``declared``, or those ``names`` lists.

    ``names`` is a comma-separated list; a name BENCHMARK.json does not
    declare ends the run before any benchmark starts.
    """
    known = [w["name"] for w in declared]
    if names is None:
        return known
    wanted = {name.strip() for name in names.split(",") if name.strip()}
    unknown = sorted(wanted.difference(known))
    if unknown or not wanted:
        raise SystemExit(f"--workloads {names!r}: unknown {unknown or 'empty list'}; declared: {', '.join(known)}")
    return [name for name in known if name in wanted]


def run_bench(command: list[str], tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One benchmark run in ``tree``; its full report from ``.bench-out/``."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                      "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {tree} (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()[-2000:]}")
    path = tree / ".bench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _common(dicts: list[dict]) -> dict:
    """The items every dict shares, with equal values."""
    first, rest = dicts[0], dicts[1:]
    return {k: v for k, v in first.items() if all(k in d and d[k] == v for d in rest)}


def _side(declared: list[dict], reports: list[dict]) -> dict:
    metrics = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]][0] for r in reports]
        q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
        metrics[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                   "runs": values}
    return {
        "runs": len(reports),
        "seeds": [r["provenance"]["seed"] for r in reports],
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "errors": [e for r in reports for e in r["errors"]][:5],
        "provenance": _common([r["provenance"] for r in reports]),
    }


def traced_layers(report: dict) -> dict:
    """A traced run's per-layer metrics, its failed fraction and the listed functions it found missing."""
    return {
        "per_layer": {name: value for name, (value, _unit) in report["metrics"].items()},
        "failed_frac": report["extra"]["failed_frac"],
        "missing_functions": report["extra"]["missing_functions"],
    }


def traced_median(reports: list[dict]) -> dict:
    """One side's traced runs in one: each per-layer metric's median, with the runs' values beside it.

    ``failed_frac`` is the largest of the runs' and ``missing_functions``
    lists what any of them found missing.
    """
    layers = [traced_layers(report) for report in reports]
    names = layers[0]["per_layer"]
    runs = {name: [layer["per_layer"][name] for layer in layers] for name in names}
    return {
        "per_layer": {name: statistics.median(values) for name, values in runs.items()},
        "per_layer_runs": runs,
        "failed_frac": max(layer["failed_frac"] for layer in layers),
        "missing_functions": sorted({name for layer in layers for name in layer["missing_functions"]}),
    }


def traced_sides(run, workload: str) -> dict:
    """Side -> :func:`traced_median` of its traced runs ``run(side, workload, seed, 1)`` at ``TRACED_SEEDS``."""
    reports = {side: [] for side in SIDES}
    for seed in TRACED_SEEDS:
        for side in alternated(seed):
            reports[side].append(run(side, workload, seed, 1))
    return {side: traced_median(reports[side]) for side in SIDES}


def aggregate(declared: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """Summary of one workload's (parent report, change report) pairs, one pair per seed.

    ``declared`` is BENCHMARK.json's ``end_to_end`` list.  A pair is won when
    the change reads better in the metric's declared direction, lost when it
    reads worse, tied when equal.  ``gain`` holds when the change won at
    least nine tenths of the pairs and its median is better than the
    parent's by more than the parent's interquartile range.  Op digests are
    compared position by position over the ops both runs of a pair reached,
    since op i's input depends on (seed, i) only; ``digests_differing_at``
    lists the (seed, op) positions of the first five that differ.
    """
    out = {side: _side(declared, [pair[k] for pair in pairs]) for k, side in enumerate(SIDES)}
    verdicts = {}
    for metric in declared:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
        deltas = [sign * (c["metrics"][name][0] - p["metrics"][name][0]) for p, c in pairs]
        parent, change = out["parent"]["metrics"][name], out["change"]["metrics"][name]
        won = sum(d > 0 for d in deltas)
        verdicts[name] = {
            "won": won,
            "lost": sum(d < 0 for d in deltas),
            "tied": sum(d == 0 for d in deltas),
            "gain": 10 * won >= 9 * len(pairs)
            and sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    out["pairs"] = verdicts
    compared = [(p["provenance"]["seed"], op, a, b)
                for p, c in pairs for op, (a, b) in enumerate(zip(p["digests"], c["digests"]))]
    differing = [[seed, op] for seed, op, a, b in compared if a != b]
    out["digests_compared"] = len(compared)
    out["digests_differing"] = len(differing)
    out["digests_differing_at"] = differing[:5]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--seeds", type=int, default=10, help="paired runs per workload (seeds 1..K)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--work", default=None, help="directory for the two extracted trees")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads to run (default: every declared workload)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(dir=args.work) as work:
        trees = {side: Path(work) / side for side in SIDES}
        commits = {side: extract(getattr(args, side), trees[side]) for side in SIDES}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = bench["end_to_end"]
        workloads = select_workloads(bench["workloads"], args.workloads)
        doc = {
            "parent": commits["parent"],
            "change": commits["change"],
            "command": bench["command"],
            "seconds": bench["run_seconds"],
            "order": "parent first on odd seeds, change first on even seeds",
            "traced_seeds": list(TRACED_SEEDS),
            "workloads": {},
        }

        def save():
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

        def run(side, workload, seed, trace):
            return run_bench(bench["command"], trees[side], workload, seed, bench["run_seconds"], trace)

        for workload in workloads:
            pairs = []
            for seed in range(1, args.seeds + 1):
                reports = {side: run(side, workload, seed, 0) for side in alternated(seed)}
                pairs.append((reports["parent"], reports["change"]))
                doc["workloads"][workload] = aggregate(declared, pairs)
                save()
            for side, layers in traced_sides(run, workload).items():
                doc["workloads"][workload][side].update(layers)
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
