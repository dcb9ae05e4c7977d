"""Tests for the benchmark trajectory recorder's aggregation, on synthetic reports."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

DECLARED = [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _report(seed, throughput, latency, digests, failed=0, load=0.5):
    return {
        "provenance": {"seed": seed, "python": "3.11.7", "loadavg_1min_at_start": load},
        "metrics": {"throughput": [throughput, "1/s"], "latency_ms_p50": [latency, "ms"]},
        "attempted": len(digests),
        "failed": failed,
        "errors": ["boom"] * failed,
        "digests": digests,
    }


def _pairs():
    # Ten seeds: the change is faster on nine, slower on one, and its
    # latency ties the parent's on seed 1 and is lower elsewhere.
    pairs = []
    for seed in range(1, 11):
        parent = _report(seed, 100.0 + seed, 10.0, ["a", "b", "c"], load=0.1 * seed)
        change = _report(seed, 90.0 if seed == 10 else 150.0 + seed, 10.0 if seed == 1 else 8.0,
                         ["a", "x", "c", "d"])
        pairs.append((parent, change))
    return pairs


def test_medians_quartiles_and_runs():
    out = bench_record.aggregate(DECLARED, _pairs())
    parent = out["parent"]["metrics"]["throughput"]
    assert parent["runs"] == [101.0 + k for k in range(10)]
    assert (parent["q1"], parent["median"], parent["q3"]) == pytest.approx((103.25, 105.5, 107.75))
    assert parent["unit"] == "1/s"
    assert out["change"]["metrics"]["latency_ms_p50"]["median"] == 8.0
    assert out["parent"]["seeds"] == list(range(1, 11))


def test_pairs_follow_the_declared_direction():
    verdicts = bench_record.aggregate(DECLARED, _pairs())["pairs"]
    assert verdicts["throughput"] == {"won": 9, "lost": 1, "tied": 0, "gain": True}
    assert verdicts["latency_ms_p50"] == {"won": 9, "lost": 0, "tied": 1, "gain": True}


def test_gain_needs_nine_tenths_and_a_median_beyond_the_parent_iqr():
    pairs = _pairs()
    pairs[0][1]["metrics"]["throughput"][0] = 50.0  # a second lost pair: 8 of 10
    assert bench_record.aggregate(DECLARED, pairs)["pairs"]["throughput"]["gain"] is False
    # Every pair won, by less than the parent's interquartile range of 4.5.
    close = [(_report(s, 100.0 + s, 10.0, []), _report(s, 101.0 + s, 10.0, [])) for s in range(1, 11)]
    verdict = bench_record.aggregate(DECLARED, close)["pairs"]["throughput"]
    assert verdict["won"] == 10 and verdict["gain"] is False


def test_failures_digests_and_provenance():
    pairs = _pairs()
    pairs[3] = (pairs[3][0], _report(4, 154.0, 8.0, ["a", "x", "c", "d"], failed=2))
    out = bench_record.aggregate(DECLARED, pairs)
    assert (out["change"]["attempted"], out["change"]["failed"]) == (40, 2)
    assert out["change"]["errors"] == ["boom", "boom"]
    assert (out["parent"]["attempted"], out["parent"]["failed"]) == (30, 0)
    # Ops are compared where both runs reached them: 3 per pair, 1 differing.
    assert (out["digests_compared"], out["digests_differing"]) == (30, 10)
    # The first five differing ops, as (seed, op index): op 1 of seeds 1 to 5.
    assert out["digests_differing_at"] == [[1, 1], [2, 1], [3, 1], [4, 1], [5, 1]]
    pairs[2] = (pairs[2][0], _report(3, 153.0, 8.0, ["y", "x", "c", "d"]))
    assert bench_record.aggregate(DECLARED, pairs)["digests_differing_at"] == [[1, 1], [2, 1], [3, 0], [3, 1], [4, 1]]
    same = [(_report(s, 100.0, 10.0, ["a", "b"]), _report(s, 100.0, 10.0, ["a", "b", "c"])) for s in (1, 2)]
    assert bench_record.aggregate(DECLARED, same)["digests_differing_at"] == []
    # Only what every run of a side shares is its provenance.
    assert out["parent"]["provenance"] == {"python": "3.11.7"}
    assert out["change"]["provenance"] == {"python": "3.11.7", "loadavg_1min_at_start": 0.5}


def test_traced_run_keeps_its_extra_block():
    traced = {
        "metrics": {"core.require_pure.calls": [5100, "count"], "trace.ops": [1020, "count"]},
        "extra": {"failed_frac": 0.0, "missing_functions": ["core.check_pure"]},
    }
    assert bench_record.traced_layers(traced) == {
        "per_layer": {"core.require_pure.calls": 5100, "trace.ops": 1020},
        "failed_frac": 0.0,
        "missing_functions": ["core.check_pure"],
    }


WORKLOADS = [{"name": name, "why": ""} for name in ("scan-grid", "graph-dense", "lattice-field", "cli-cold")]


def test_workloads_default_to_all_in_declared_order():
    assert bench_record.select_workloads(WORKLOADS, None) == ["scan-grid", "graph-dense", "lattice-field", "cli-cold"]
    assert bench_record.select_workloads(WORKLOADS, "graph-dense") == ["graph-dense"]
    assert bench_record.select_workloads(WORKLOADS, "cli-cold, scan-grid") == ["scan-grid", "cli-cold"]


@pytest.mark.parametrize("names", ["graph-sparse", "graph-dense,nope", "", ","])
def test_unknown_or_empty_workloads_stop_the_run(names):
    with pytest.raises(SystemExit, match="--workloads"):
        bench_record.select_workloads(WORKLOADS, names)


def _traced(calls, self_ms, failed_frac=0.0, missing=()):
    return {
        "metrics": {"core.require_pure.calls": [calls, "count"], "core.require_pure.self_ms": [self_ms, "ms"]},
        "extra": {"failed_frac": failed_frac, "missing_functions": list(missing)},
    }


def test_traced_median_keeps_each_run():
    runs = [_traced(5100, 12.5), _traced(5100, 9.0, missing=["core.check_pure"]),
            _traced(5102, 30.0, failed_frac=0.01, missing=["core.reduced_covariance"])]
    assert bench_record.traced_median(runs) == {
        "per_layer": {"core.require_pure.calls": 5100, "core.require_pure.self_ms": 12.5},
        "per_layer_runs": {"core.require_pure.calls": [5100, 5100, 5102],
                           "core.require_pure.self_ms": [12.5, 9.0, 30.0]},
        "failed_frac": 0.01,
        "missing_functions": ["core.check_pure", "core.reduced_covariance"],
    }


def test_traced_runs_alternate_and_report_medians():
    order = []

    def run(side, workload, seed, trace):
        order.append((side, seed, trace))
        return _traced(100 * seed, {"parent": 10.0, "change": 8.0}[side] + seed)

    sides = bench_record.traced_sides(run, "scan-grid")
    assert bench_record.TRACED_SEEDS == (1, 2, 3)
    assert order == [("parent", 1, 1), ("change", 1, 1), ("change", 2, 1), ("parent", 2, 1),
                     ("parent", 3, 1), ("change", 3, 1)]
    assert sides["parent"]["per_layer"] == {"core.require_pure.calls": 200, "core.require_pure.self_ms": 12.0}
    assert sides["change"]["per_layer_runs"]["core.require_pure.self_ms"] == [9.0, 10.0, 11.0]
