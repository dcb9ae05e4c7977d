"""Tests for the command-line interface."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussgem import (
    GraphSpec,
    gem_from_purity,
    gem_three_mode_g1,
    gem_three_mode_g2,
    gem_two_mode_closed,
    graph_state_covariance,
    graph_state_covariances,
    log_negativity_two_mode,
)
from gaussgem import cli, lattice
from gaussgem.cli import main
from conftest import child_env
from oracles import csv_by_rows, field_rows, grid_by_loop, scan2_rows, scan3_rows

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "gaussgem.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def write_spec(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGemCommand:
    def test_empty_graph(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"modes": 2, "edges": []})
        code, out, _ = run_cli(["gem", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["gem"] == pytest.approx(0.0, abs=1e-15)
        assert report["purities"] == pytest.approx([1.0, 1.0])

    def test_squeezed_pair(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0, "im": 1}]})
        code, out, _ = run_cli(["gem", path], capsys)
        assert code == 0
        assert json.loads(out)["gem"] == pytest.approx(0.8221322, abs=1e-6)

    def test_small_triangle(self, tmp_path, capsys):
        edges = [
            {"i": 1, "j": 2, "re": 0, "im": 0.001},
            {"i": 2, "j": 3, "re": 0, "im": 0.001},
            {"i": 1, "j": 3, "re": 0, "im": 0.001},
        ]
        path = write_spec(tmp_path, {"modes": 3, "edges": edges})
        code, out, _ = run_cli(["gem", path], capsys)
        assert code == 0
        assert json.loads(out)["gem"] == pytest.approx(7.5000e-7, rel=1e-4)

    def test_logneg_measure(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0, "im": 0.5}]})
        code, out, _ = run_cli(["gem", path, "--measure", "logneg"], capsys)
        assert code == 0
        assert json.loads(out)["logneg"] == pytest.approx(1.0, abs=1e-9)

    def test_logneg_strong_squeezing(self, tmp_path, capsys):
        # A partial-transpose eigensolve (oracles.log_negativity_eigvals) gives 16.0013 here.
        path = write_spec(tmp_path, {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0, "im": 20}]})
        code, out, _ = run_cli(["gem", path, "--measure", "logneg"], capsys)
        assert code == 0
        assert json.loads(out)["logneg"] == pytest.approx(40.0, rel=1e-12)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"modes": 2, "edges": [', encoding="utf-8")
        code, _, err = run_cli(["gem", str(path)], capsys)
        assert code == 2
        assert "line" in err and "column" in err

    def test_duplicate_edge_exit_2(self, tmp_path, capsys):
        doc = {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 1}, {"i": 1, "j": 2, "im": 1}]}
        code, _, err = run_cli(["gem", write_spec(tmp_path, doc)], capsys)
        assert code == 2
        assert "duplicate" in err

    def test_non_numeric_weight_exit_2(self, tmp_path, capsys):
        doc = {"modes": 2, "edges": [{"i": 1, "j": 2, "re": "big"}]}
        code, *_ = run_cli(["gem", write_spec(tmp_path, doc)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"modes": True, "edges": []},
            {"modes": 2, "edges": [{"i": True, "j": 2, "im": 1}]},
            {"modes": 2, "edges": [{"i": 1, "j": 2, "re": False, "im": True}]},
            {"modes": 2, "edges": [{"i": 1, "j": 2, "re": True}]},
        ],
    )
    def test_boolean_field_exit_2(self, tmp_path, capsys, doc):
        # Python reads JSON true as 1, but it is no mode count, endpoint or weight.
        code, out, err = run_cli(["gem", write_spec(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"modes": 2, "edges": [{"i": 1, "j": 2, "im": "0.5"}]},
            {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 10**400}]},
        ],
        ids=["string", "huge-integer"],
    )
    def test_non_number_weight_exit_2(self, tmp_path, capsys, doc):
        # float() parses a string and overflows on a 400-digit integer; neither is a weight.
        code, out, err = run_cli(["gem", write_spec(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "part, want",
        [('"re": 1e400', 2), ('"re": 1e308, "im": 1.5e308', 2), ('"im": 1180591620717411303424', 3)],
        ids=["inf", "modulus", "2**70"],
    )
    def test_weight_rule_exit_codes(self, tmp_path, capsys, part, want):
        # JSON reads 1e400 as inf; a modulus past double range is no weight either.  2**70 is
        # a weight whose state overflows.
        path = tmp_path / "state.json"
        path.write_text('{"modes": 2, "edges": [{"i": 1, "j": 2, %s}]}' % part, encoding="utf-8")
        code, out, err = run_cli(["gem", str(path)], capsys)
        assert (code, out) == (want, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_overflowing_weight_exit_3(self, tmp_path, capsys):
        doc = {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0, "im": 1e4}]}
        code, _, err = run_cli(["gem", write_spec(tmp_path, doc)], capsys)
        assert code == 3


class TestScan2:
    def test_overflowing_closed_form_exit_3(self, capsys):
        # Near |w| = 178 the gate's scaled bound and the closed form's sinh^2 both
        # overflow double precision; either way the run ends with exit 3.
        code, _, err = run_cli(
            ["scan2", "--re-range", "-3:3", "--im-range", "176:178", "--steps", "41"], capsys
        )
        assert code == 3
        assert err.startswith("error:") and "overflow" in err

    def test_grid_shape_and_real_axis(self, capsys):
        code, out, _ = run_cli(
            ["scan2", "--re-range", "-1:1", "--im-range", "-1:1", "--steps", "5"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["re_w", "im_w", "gem", "log_gem", "logneg"]
        assert len(rows) == 25
        for row in rows:
            if float(row[1]) == 0.0:  # whole real axis carries no entanglement
                assert float(row[2]) == 0.0
                assert row[3] == "-inf"

    def test_pure_squeezing_grid_point(self, capsys):
        code, out, _ = run_cli(
            ["scan2", "--re-range", "0:0", "--im-range", "1:1", "--steps", "2"], capsys
        )
        header, rows = parse_csv(out)
        assert float(rows[0][2]) == pytest.approx(0.8221322, abs=1e-6)
        assert float(rows[0][4]) == pytest.approx(2.0, abs=1e-8)

    def test_closed_matches_pipeline_columns(self, capsys):
        code, out, _ = run_cli(
            ["scan2", "--re-range", "-0.8:0.8", "--im-range", "-0.8:0.8", "--steps", "5"], capsys
        )
        _, rows = parse_csv(out)
        for row in rows:
            w = complex(float(row[0]), float(row[1]))
            pipeline = gem_from_purity(graph_state_covariance(GraphSpec(2, ((1, 2, w),))))
            assert float(row[2]) == pytest.approx(pipeline, abs=1e-8)

    def test_self_test_flag(self, capsys):
        code, *_ = run_cli(
            ["scan2", "--re-range", "0:1", "--im-range", "0:1", "--steps", "3", "--self-test"],
            capsys,
        )
        assert code == 0

    def test_bad_range_exit_2(self, capsys):
        code, *_ = run_cli(["scan2", "--re-range", "zero:1", "--im-range", "0:1", "--steps", "3"], capsys)
        assert code == 2

    def test_bad_steps_exit_2(self, capsys):
        code, *_ = run_cli(["scan2", "--re-range", "0:1", "--im-range", "0:1", "--steps", "1"], capsys)
        assert code == 2

    def test_failing_scan_writes_nothing(self, tmp_path, capsys):
        argv = ["scan2", "--re-range", "-3:3", "--im-range", "176:178", "--steps", "41"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 3 and out == ""
        out_path = tmp_path / "kept.csv"
        out_path.write_bytes(b"earlier run\n")
        code, out, _ = run_cli(argv + ["--out", str(out_path)], capsys)
        assert code == 3 and out == ""
        assert out_path.read_bytes() == b"earlier run\n"


class TestScan3:
    def test_equal_family_small_r_ratio(self, capsys):
        code, out, _ = run_cli(
            [
                "scan3", "--family", "equal",
                "--re-range", "-0.001:0.001", "--im-range", "-0.001:0.001", "--steps", "3",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["re_w", "im_w", "gem_g1", "gem_g2", "ratio_g2_g1"]
        target = [row for row in rows if float(row[0]) == 0.0 and float(row[1]) == 0.001]
        assert len(target) == 1
        assert float(target[0][4]) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_equal_family_real_axis_nan_sentinel(self, capsys):
        _, out, _ = run_cli(
            [
                "scan3", "--family", "equal",
                "--re-range", "0.5:0.5", "--im-range", "0:0", "--steps", "2",
            ],
            capsys,
        )
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[2]) == 0.0 and float(row[3]) == 0.0
            assert row[4] == "nan"

    def test_xy_family_ratio_near_one(self, capsys):
        code, out, _ = run_cli(
            [
                "scan3", "--family", "xy",
                "--re-range", "4:4", "--im-range", "4:4", "--steps", "2",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:2] == ["x", "y"]
        assert float(rows[0][4]) == pytest.approx(1.0, abs=0.08)

    def test_invalid_family_exit_2(self):
        proc = run_subprocess(["scan3", "--family", "weird", "--re-range", "0:1",
                               "--im-range", "0:1", "--steps", "2"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("family", ["equal", "xy"])
    def test_self_test_checks_g2(self, family, capsys, monkeypatch):
        if family == "equal":
            # The closed form takes the grid's whole weight array; every entry comes out 1% high.
            closed = cli.gem_three_mode_g2
            monkeypatch.setattr(cli, "gem_three_mode_g2", lambda weights: 1.01 * closed(weights))
        else:
            # The xy columns are two pipeline calls, triangle then path; only
            # the second, the g2 column, comes out 1% high.
            pipeline, calls = cli.gem_from_purity, []

            def faulty(gamma):
                calls.append(None)
                return (1.01 if len(calls) == 2 else 1.0) * pipeline(gamma)

            monkeypatch.setattr(cli, "gem_from_purity", faulty)
        code, out, err = run_cli(
            [
                "scan3", "--family", family,
                "--re-range", "0.2:0.6", "--im-range", "0.2:0.6", "--steps", "3",
                "--self-test",
            ],
            capsys,
        )
        assert code == 3 and out == ""
        assert "self-test failed for scan3 gem_g2" in err

    def test_closed_forms_take_the_whole_grid_once(self, capsys, monkeypatch):
        calls = []
        for name in ("gem_two_mode_closed", "gem_three_mode_g1", "gem_three_mode_g2"):
            route = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda w, name=name, route=route: calls.append((name, np.shape(w))) or route(w))
        grid = ["--re-range", "-1:1", "--im-range", "-1:1", "--steps", "5", "--self-test"]
        for argv in (["scan2", *grid], ["scan3", "--family", "equal", *grid]):
            code, *_ = run_cli(argv, capsys)
            assert code == 0
        assert calls == [("gem_two_mode_closed", (25,)), ("gem_three_mode_g1", (25,)), ("gem_three_mode_g2", (25,))]

    def test_overflow_error_is_the_only_stderr_line(self):
        # The purity residual overflows at these weights; numpy's warning must
        # not reach stderr ahead of the error line.
        result = run_subprocess(
            ["scan3", "--family", "xy", "--re-range", "0:200", "--im-range", "0:200", "--steps", "5"]
        )
        assert result.returncode == 3 and result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_self_test_flag(self, capsys):
        for family in ("equal", "xy"):
            code, *_ = run_cli(
                [
                    "scan3", "--family", family,
                    "--re-range", "0.2:0.6", "--im-range", "0.2:0.6", "--steps", "3",
                    "--self-test",
                ],
                capsys,
            )
            assert code == 0


GRID = ["--re-range", "0.2:0.6", "--im-range", "0.2:0.6", "--steps", "3", "--self-test"]
SCAN2 = ["scan2", *GRID]
EQUAL = ["scan3", "--family", "equal", *GRID]
XY = ["scan3", "--family", "xy", *GRID]
FIELD = ["field", "--n-list", "1,3,5", "--mass", "1", "--radius", "1", "--self-test"]


class TestSelfTestFaults:
    @pytest.mark.parametrize(
        "argv, module, route, label",
        [
            # Each measure column: the route that produced it, then its reference route.
            pytest.param(SCAN2, cli, "gem_two_mode_closed", "scan2 gem", id="scan2-closed"),
            pytest.param(SCAN2, cli, "gem_from_purity", "scan2 gem", id="scan2-purity"),
            pytest.param(SCAN2, cli, "log_negativity_two_mode", "scan2 logneg", id="scan2-logneg"),
            pytest.param(EQUAL, cli, "gem_three_mode_g1", "scan3 gem_g1", id="equal-g1-closed"),
            pytest.param(EQUAL, cli, "gem_three_mode_g2", "scan3 gem_g2", id="equal-g2-closed"),
            pytest.param(EQUAL, cli, "gem_from_purity", "scan3 gem_g1", id="equal-purity"),
            pytest.param(XY, cli, "gem_from_purity", "scan3 gem_g1", id="xy-purity"),
            pytest.param(XY, cli, "gem_from_metric", "scan3 gem_g1", id="xy-metric"),
            pytest.param(FIELD, lattice, "gem_field_exact", "field gem_exact", id="field-exact"),
            pytest.param(FIELD, lattice, "gem_field_pipeline", "field gem_exact", id="field-pipeline"),
        ],
    )
    def test_one_percent_fault_exits_3(self, argv, module, route, label, capsys, monkeypatch):
        original = getattr(module, route)
        monkeypatch.setattr(module, route, lambda *args: 1.01 * original(*args))
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert f"self-test failed for {label}" in err

    # A 4 x 4 grid and five field rows: the faulty row is none of the first,
    # middle and last rows that a spot check would cover.
    ROW, FIELD_ROW = 5, 1
    GRID = argparse.Namespace(re_range="0.2:0.6", im_range="0.2:0.6", steps=4)

    @classmethod
    def _is_row(cls, kind, family, pairs):
        """Predicate on a route's argument: does it hold the state of the faulty row?"""
        if kind == "field":
            return lambda cfg: cfg.n == cls.FIELD_ROW + 1  # --n-list 1,2,3,4,5
        points = cli._scan_grid(cls.GRID)
        if kind == "weight":
            # A closed form takes the grid's weight array: one entry per row.
            return lambda weights: np.asarray(weights) == points[cls.ROW]
        # The weight array the scan builds, so the row's covariance matches bit for bit.
        if family == "xy":
            weights = np.column_stack([1j * points.real, 1j * points.imag, np.ones(points.size)])
        else:
            weights = np.repeat(points[:, None], len(pairs), axis=1)
        num_modes = max(j for _, j in pairs)
        target = graph_state_covariances(num_modes, pairs, weights[:, : len(pairs)]).gamma[cls.ROW]
        # One entry per slice; a route may get the stack bare or as a PureState.
        return lambda state: np.all(getattr(state, "gamma", state) == target, axis=(-2, -1))

    @pytest.mark.parametrize(
        "command, module, route, kind, pairs, label",
        [
            pytest.param("scan2", cli, "gem_two_mode_closed", "weight", None, "scan2 gem", id="scan2-closed"),
            pytest.param("scan2", cli, "gem_from_purity", "state", ((1, 2),), "scan2 gem", id="scan2-purity"),
            pytest.param("scan2", cli, "log_negativity_two_mode", "state", ((1, 2),), "scan2 logneg",
                         id="scan2-logneg"),
            pytest.param("equal", cli, "gem_three_mode_g1", "weight", None, "scan3 gem_g1", id="equal-g1-closed"),
            pytest.param("equal", cli, "gem_three_mode_g2", "weight", None, "scan3 gem_g2", id="equal-g2-closed"),
            pytest.param("equal", cli, "gem_from_purity", "state", cli.THREE_MODE_TRIANGLE, "scan3 gem_g1",
                         id="equal-g1-purity"),
            pytest.param("equal", cli, "gem_from_purity", "state", cli.THREE_MODE_PATH, "scan3 gem_g2",
                         id="equal-g2-purity"),
            pytest.param("xy", cli, "gem_from_purity", "state", cli.THREE_MODE_TRIANGLE, "scan3 gem_g1",
                         id="xy-g1-purity"),
            pytest.param("xy", cli, "gem_from_purity", "state", cli.THREE_MODE_PATH, "scan3 gem_g2",
                         id="xy-g2-purity"),
            pytest.param("xy", cli, "gem_from_metric", "state", cli.THREE_MODE_TRIANGLE, "scan3 gem_g1",
                         id="xy-g1-metric"),
            pytest.param("xy", cli, "gem_from_metric", "state", cli.THREE_MODE_PATH, "scan3 gem_g2",
                         id="xy-g2-metric"),
            pytest.param("field", lattice, "gem_field_exact", "field", None, "field gem_exact", id="field-exact"),
            pytest.param("field", lattice, "gem_field_pipeline", "field", None, "field gem_exact",
                         id="field-pipeline"),
        ],
    )
    def test_fault_in_one_inner_row_exits_3(self, command, module, route, kind, pairs, label, capsys, monkeypatch):
        # The fault follows the row's state, not a call count or an output
        # position, so it hits the same row however the command batches it.
        grid = ["--re-range", "0.2:0.6", "--im-range", "0.2:0.6", "--steps", "4", "--self-test"]
        argv = {
            "scan2": ["scan2", *grid],
            "equal": ["scan3", "--family", "equal", *grid],
            "xy": ["scan3", "--family", "xy", *grid],
            "field": ["field", "--n-list", "1,2,3,4,5", "--mass", "1", "--radius", "1", "--self-test"],
        }[command]
        original, is_row = getattr(module, route), self._is_row(kind, command, pairs)

        def faulty(arg):
            value, hit = original(arg), is_row(arg)
            return np.where(hit, 1.01 * value, value) if np.ndim(value) else (1.01 * value if hit else value)

        monkeypatch.setattr(module, route, faulty)
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        row = self.FIELD_ROW if command == "field" else self.ROW
        assert f"self-test failed for {label} at row {row}:" in err


class TestField:
    def test_small_lattice_row(self, capsys):
        code, out, err = run_cli(
            ["field", "--n-list", "1", "--mass", "1", "--radius", "1"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.42244e-3, abs=1e-8)
        assert "kappa2 = 0.0198943679" in err
        assert "kappa4 = 0.0253302959" in err

    def test_rel_error_monotone(self, capsys):
        code, out, _ = run_cli(
            ["field", "--n-list", "50,100,200,400", "--mass", "1", "--radius", "1"], capsys
        )
        _, rows = parse_csv(out)
        rels = [float(row[3]) for row in rows]
        assert all(a > b for a, b in zip(rels, rels[1:]))

    def test_modes_list_even_exit_2(self, capsys):
        code, _, err = run_cli(
            ["field", "--modes-list", "4", "--mass", "1", "--radius", "1"], capsys
        )
        assert code == 2
        assert "odd" in err

    def test_modes_list_odd_matches_n_list(self, capsys):
        _, out_a, _ = run_cli(["field", "--modes-list", "5", "--mass", "1", "--radius", "1"], capsys)
        _, out_b, _ = run_cli(["field", "--n-list", "2", "--mass", "1", "--radius", "1"], capsys)
        assert out_a == out_b

    def test_out_file_and_summary_to_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "field.csv"
        code, out, err = run_cli(
            ["field", "--n-list", "1,2", "--mass", "1", "--radius", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "kappa1" in out and err == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("n,gem_exact,gem_asymptotic,rel_error\n")

    def test_self_test_flag(self, capsys):
        code, *_ = run_cli(
            ["field", "--n-list", "1,3,5", "--mass", "1", "--radius", "1", "--self-test"], capsys
        )
        assert code == 0

    def test_bad_n_list_exit_2(self, capsys):
        code, *_ = run_cli(["field", "--n-list", "1,two", "--mass", "1", "--radius", "1"], capsys)
        assert code == 2


class TestOutPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan2", "--re-range", "-1:1", "--im-range", "-1:1", "--steps", "3"],
            ["field", "--n-list", "1", "--mass", "1", "--radius", "1"],
        ],
    )
    def test_unwritable_out_exit_2(self, tmp_path, argv):
        proc = run_subprocess(argv + ["--out", str(tmp_path / "missing" / "run.csv")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestGoldenFiles:
    def test_scan2_golden(self, capsys):
        want_header, want_rows = parse_csv((GOLDEN / "scan2_5x5.csv").read_text(encoding="utf-8"))
        _, out, _ = run_cli(
            ["scan2", "--re-range", "-1:1", "--im-range", "-1:1", "--steps", "5"], capsys
        )
        header, rows = parse_csv(out)
        assert header == want_header and len(rows) == len(want_rows)
        for got, want in zip(rows, want_rows):
            for g, w in zip(got, want):
                if w in ("nan", "-inf"):
                    assert g == w
                else:
                    assert float(g) == pytest.approx(float(w), rel=1e-8, abs=1e-12)

    def test_scan2_golden_bytes(self, capsys):
        _, out, _ = run_cli(
            ["scan2", "--re-range", "-1:1", "--im-range", "-1:1", "--steps", "5"], capsys
        )
        assert out.encode("utf-8") == (GOLDEN / "scan2_5x5.csv").read_bytes()

    def test_field_golden(self, capsys):
        want_header, want_rows = parse_csv((GOLDEN / "field_small.csv").read_text(encoding="utf-8"))
        _, out, _ = run_cli(
            ["field", "--n-list", "1,5,25", "--mass", "0.5", "--radius", "2", "--asymptotic-p", "1"],
            capsys,
        )
        header, rows = parse_csv(out)
        assert header == want_header
        for got, want in zip(rows, want_rows):
            for g, w in zip(got, want):
                assert float(g) == pytest.approx(float(w), rel=1e-8, abs=1e-12)

    def test_field_golden_bytes(self, capsys):
        _, out, _ = run_cli(
            ["field", "--n-list", "1,5,25", "--mass", "0.5", "--radius", "2", "--asymptotic-p", "1"],
            capsys,
        )
        assert out.encode("utf-8") == (GOLDEN / "field_small.csv").read_bytes()

    @pytest.mark.parametrize(
        "family, ranges, golden",
        [
            ("equal", ["-1:1", "-1:1"], "scan3_equal_5x5.csv"),
            ("xy", ["0:4", "0:4"], "scan3_xy_5x5.csv"),
        ],
    )
    def test_scan3_golden_bytes(self, family, ranges, golden, tmp_path, capsys):
        argv = ["scan3", "--family", family, "--re-range", ranges[0], "--im-range", ranges[1], "--steps", "5"]
        _, out, _ = run_cli(argv, capsys)
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
        out_path = tmp_path / golden
        code, out, err = run_cli(argv + ["--out", str(out_path), "--self-test"], capsys)
        assert code == 0 and out == "" and err == ""
        assert out_path.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_byte_determinism_across_processes(self):
        argv = ["scan2", "--re-range", "-1.5:1.5", "--im-range", "-1.5:1.5", "--steps", "7"]
        first = run_subprocess(argv)
        second = run_subprocess(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestExitContract:
    """Every error path ends in exit 2 or 3, nothing on stdout and one ``error:`` line on stderr."""

    @pytest.mark.parametrize(
        "argv, code, needle",
        [
            pytest.param(["gem", "{spec}"], 3, "overflow", id="gem-400j"),
            pytest.param(["gem", "{spec}", "--measure", "logneg"], 3, "overflow", id="gem-400j-logneg"),
            pytest.param(["scan2", "--re-range", "0:0", "--im-range", "170:400", "--steps", "3", "--self-test"],
                         3, "overflow", id="scan2-170-400"),
            pytest.param(["scan2", "--re-range", "-3:3", "--im-range", "176:178", "--steps", "41"],
                         3, "overflow", id="scan2-176-178"),
            # A plain scan2 builds no state: at w = 200i the closed form is the route that overflows.
            pytest.param(["scan2", "--re-range", "0:0", "--im-range", "200:200", "--steps", "2"],
                         3, "closed form overflows double precision", id="scan2-200j"),
            pytest.param(["scan3", "--family", "xy", "--re-range", "0:200", "--im-range", "0:200", "--steps", "5"],
                         3, "overflow", id="scan3-xy-0-200"),
            pytest.param(["field", "--n-list", "3", "--mass", "1e200", "--radius", "1"],
                         3, "overflow", id="field-mass-1e200"),
            pytest.param(["field", "--n-list", "3", "--mass", "1e-300", "--radius", "1e300"],
                         3, "overflow", id="field-radius-1e300"),
            pytest.param(["field", "--n-list", "3", "--mass", "1e-320", "--radius", "1"],
                         3, "overflow", id="field-mass-1e-320"),
            pytest.param(["field", "--modes-list", "4", "--mass", "1", "--radius", "1"], 2, "odd", id="field-even"),
            # numpy refuses an array of N = 2n + 1 > intp max before allocating anything.
            pytest.param(["field", "--n-list", str(10**20), "--mass", "1", "--radius", "1"],
                         2, f"n = {10**20}", id="field-n-past-intp"),
            pytest.param(["field", "--modes-list", str(2 * 10**20 + 1), "--mass", "1", "--radius", "1"],
                         2, f"n = {10**20}", id="field-modes-past-intp"),
            pytest.param(["field", "--n-list", "3", "--mass", "1e-200", "--radius", "1e-200"],
                         3, "tau", id="field-tau-underflow"),
            pytest.param(["field", "--n-list", "3", "--mass", "1e200", "--radius", "1e200"],
                         3, "tau", id="field-tau-overflow"),
            pytest.param(["scan3", "--family", "equal", "--re-range", "8357.58424:8357.58424",
                          "--im-range", "8358.42004:8358.42004", "--steps", "2"],
                         3, "overflow", id="scan3-equal-near-ray"),
            pytest.param(["scan3", "--family", "equal", "--re-range", "4e15:4e15",
                          "--im-range", "1e15:1e15", "--steps", "2"],
                         3, "significant digit", id="scan3-equal-phase-past-2-53"),
            # Finite bounds whose span overflows: the grid's points would be NaN.
            pytest.param(["scan3", "--family", "equal", "--re-range=-1e308:1e308", "--im-range", "0:1", "--steps", "3"],
                         2, "past double precision", id="scan3-equal-span-past-double"),
            pytest.param(["scan3", "--family", "xy", "--re-range=-1e308:1e308", "--im-range", "0:1", "--steps", "3"],
                         2, "past double precision", id="scan3-xy-span-past-double"),
        ],
    )
    def test_one_error_line(self, argv, code, needle, tmp_path):
        spec = write_spec(tmp_path, {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0, "im": 400}]})
        proc = run_subprocess([spec if token == "{spec}" else token for token in argv])
        assert proc.returncode == code and code in (2, 3)
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and needle in lines[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("measure", ["gem", "logneg"])
    def test_gem_state_failing_the_gate(self, measure, tmp_path):
        # At w = 180i the covariance is finite but ||Gamma||_1^2 is not: the builder's gate rejects it.
        spec = write_spec(tmp_path, {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0, "im": 180}]})
        proc = run_subprocess(["gem", spec, "--measure", measure])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: state fails the purity gate: ||Gamma||_1^2 overflows double precision, "
            "so the bound stays 1.0e-09 (purity residual inf)\n"
        )


class TestFieldSizeBound:
    # 8N bytes past intp max: numpy would refuse the array, not the config.
    @pytest.mark.parametrize(
        "flag, size, n",
        [
            ("--n-list", 4611686018427387903, 4611686018427387903),
            ("--n-list", 576460752303423488, 576460752303423488),
            ("--modes-list", 2 * 4611686018427387903 + 1, 4611686018427387903),
            ("--modes-list", 2 * 576460752303423488 + 1, 576460752303423488),
        ],
    )
    def test_past_the_bound_exit_2(self, flag, size, n, capsys):
        code, out, err = run_cli(["field", flag, str(size), "--mass", "1", "--radius", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: n = {n} is too large") and err.count("\n") == 1

    def test_host_cannot_hold_the_partials_exit_2(self, capsys, monkeypatch):
        # Below the bound, but past what the host can allocate: the partials'
        # allocation is made to fail, so no sweep over 10^12 modes starts.
        n, empty = 10**12, np.empty

        def refuse_huge(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_huge)
        code, out, err = run_cli(["field", "--n-list", str(n), "--mass", "1", "--radius", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: n = {n} is too large for this host") and err.count("\n") == 1
        assert f"{24 * 2**15 + 40 * -(-n // 2**15)} bytes" in err


class TestSharedFlags:
    """--re-range, --im-range, --steps, --out and --self-test: declared once, one help text each."""

    COMMANDS = ("scan2", "scan3", "field")

    @staticmethod
    def _helps():
        """{flag: {help text per command that has it}} over every subcommand."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        helps = {}
        for sub in commands.values():
            for action in sub._actions:
                for flag in action.option_strings:
                    helps.setdefault(flag, []).append(action.help)
        return helps

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: gaussgem {command}") and "spot-check" not in out

    def test_each_shared_flag_has_one_help_text(self):
        helps = self._helps()
        counts = {"--re-range": 2, "--im-range": 2, "--steps": 2, "--out": 3, "--self-test": 3}
        for flag, count in counts.items():
            assert len(helps[flag]) == count, flag
            assert len(set(helps[flag])) == 1 and helps[flag][0], flag
        assert "independent route" in helps["--self-test"][0] and "exit 3" in helps["--self-test"][0]
        assert "x for scan3 --family xy" in helps["--re-range"][0]
        assert "y for scan3 --family xy" in helps["--im-range"][0]

    def test_no_help_says_spot_check(self):
        assert not any("spot-check" in (text or "") for texts in self._helps().values() for text in texts)


class TestTablesMatchRowOracle:
    """Each command's CSV, byte for byte, against the same library values formatted row by row."""

    @staticmethod
    def _points(re_range, im_range, steps):
        grids = [grid_by_loop(*map(float, text.split(":")), steps) for text in (re_range, im_range)]
        return [complex(a, b) for a in grids[0] for b in grids[1]]

    @staticmethod
    def _scan(argv, re_range, im_range, steps, capsys):
        code, out, _ = run_cli([*argv, f"--re-range={re_range}", f"--im-range={im_range}",
                                "--steps", str(steps), "--self-test"], capsys)
        assert code == 0
        return out

    @pytest.mark.parametrize("re_range, im_range, steps, sentinel", [
        ("-1:1", "-1:1", 5, ",-inf,"),  # the real axis: gem 0, log gem -inf
        ("-0:-1", "-0:-1", 2, "-0,-0,"),  # a signed zero on both axes
    ])
    def test_scan2(self, re_range, im_range, steps, sentinel, capsys):
        out = self._scan(["scan2"], re_range, im_range, steps, capsys)
        points = self._points(re_range, im_range, steps)
        weights = np.array(points)
        gems = gem_two_mode_closed(weights).tolist()
        lognegs = log_negativity_two_mode(graph_state_covariances(2, ((1, 2),), weights[:, None])).tolist()
        assert sentinel in out
        assert out == csv_by_rows(["re_w", "im_w", "gem", "log_gem", "logneg"], scan2_rows(points, gems, lognegs))

    def test_scan3_equal(self, capsys):
        out = self._scan(["scan3", "--family", "equal"], "-1:1", "-1:1", 5, capsys)
        points = self._points("-1:1", "-1:1", 5)
        weights = np.array(points)
        rows = scan3_rows(points, gem_three_mode_g1(weights).tolist(), gem_three_mode_g2(weights).tolist())
        assert ",nan\n" in out  # the real axis: g1 = 0
        assert out == csv_by_rows(["re_w", "im_w", "gem_g1", "gem_g2", "ratio_g2_g1"], rows)

    def test_scan3_xy(self, capsys):
        out = self._scan(["scan3", "--family", "xy"], "-0:-1", "-1:1", 3, capsys)
        points = self._points("-0:-1", "-1:1", 3)
        xy = np.array(points)
        weights = np.column_stack([1j * xy.real, 1j * xy.imag, np.ones(xy.size)])
        g1, g2 = (gem_from_purity(graph_state_covariances(3, pairs, weights[:, : len(pairs)])).tolist()
                  for pairs in (cli.THREE_MODE_TRIANGLE, cli.THREE_MODE_PATH))
        assert out.startswith("x,y,gem_g1,gem_g2,ratio_g2_g1\n-0,-1,")
        assert out == csv_by_rows(["x", "y", "gem_g1", "gem_g2", "ratio_g2_g1"], scan3_rows(points, g1, g2))

    def test_field(self, capsys):
        code, out, _ = run_cli(["field", "--n-list", "0,1,10", "--mass", "1", "--radius", "1", "--self-test"], capsys)
        assert code == 0
        configs = [lattice.LatticeFieldConfig(n=n, mass=1.0, radius=1.0) for n in (0, 1, 10)]
        exacts = [lattice.gem_field_exact(cfg) for cfg in configs]
        asyms = [lattice.gem_field_asymptotic(cfg.n, cfg.tau, 0) if cfg.n else float("nan") for cfg in configs]
        assert out.startswith("n,gem_exact,gem_asymptotic,rel_error\n0,") and ",nan,nan\n" in out
        assert out == csv_by_rows(["n", "gem_exact", "gem_asymptotic", "rel_error"],
                                  field_rows((0, 1, 10), exacts, asyms))


class TestFieldPureByConstruction:
    def test_tiny_mass_self_test_exits_0(self, capsys):
        # ||Gamma||_1^2 overflows here, which the purity gate read as impure and
        # made the run exit 3; the lattice state is pure by construction and
        # its pipeline matches the exact value to about 1e-14.
        argv = ["field", "--n-list", "3", "--mass", "1e-160", "--radius", "1"]
        code, out, _ = run_cli(argv + ["--self-test"], capsys)
        assert code == 0
        _, plain, _ = run_cli(argv, capsys)
        assert out == plain
        cfg = lattice.LatticeFieldConfig(n=3, mass=1e-160, radius=1.0)
        assert lattice.gem_field_pipeline(cfg) == pytest.approx(lattice.gem_field_exact(cfg), rel=1e-13)


class TestSharedParser:
    """``main`` builds its argparse parser once per process and reuses it for every call."""

    def test_command_sequence_matches_fresh_processes(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0.3, "im": 0.5}]})
        scan2 = ["scan2", "--re-range", "-1:1", "--im-range", "-1:1", "--steps", "3"]
        sequence = [
            (scan2, 0),
            (["scan2", "--re-range", "-1:1", "--im-range", "-1:1", "--steps", "three"], 2),  # argparse error
            (["gem", spec], 0),
            (["field", "--n-list", "0,1,10", "--mass", "1", "--radius", "1", "--self-test"], 0),
            (scan2, 0),
        ]
        cli._shared_parser.cache_clear()
        for argv, code in sequence:
            try:
                got_code = main(argv)
            except SystemExit as exc:
                got_code = exc.code
            out, err = capsys.readouterr()
            fresh = run_subprocess(argv)
            assert (got_code, out, err) == (code, fresh.stdout, fresh.stderr), argv
            assert (code == 2) == err.startswith("usage: gaussgem scan2"), argv
        assert cli._shared_parser.cache_info().misses == 1
        with pytest.raises(SystemExit) as info:
            main(["scan2", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gaussgem scan2")
        assert cli._shared_parser.cache_info().misses == 1

    def test_commands_are_looked_up_per_call(self, monkeypatch, capsys):
        main(["scan2", "--re-range", "0:1", "--im-range", "0:1", "--steps", "2"])  # the parser exists
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "cmd_scan2", lambda args: calls.append(args.steps) or ("rebound\n", ""))
        assert main(["scan2", "--re-range", "0:1", "--im-range", "0:1", "--steps", "2"]) == 0
        assert calls == [2] and capsys.readouterr().out == "rebound\n"
