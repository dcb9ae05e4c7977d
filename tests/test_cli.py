"""Tests for the command-line interface."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussgem import GraphSpec, PolarCoupling, gem_from_purity, graph_state_covariance, graph_state_covariances
from gaussgem import cli, lattice
from gaussgem.cli import main

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
            closed = cli.gem_three_mode_g2
            monkeypatch.setattr(cli, "gem_three_mode_g2", lambda c: 1.01 * closed(c))
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
        if kind == "coupling":
            target = PolarCoupling.from_complex(points.tolist()[cls.ROW])
            return lambda coupling: coupling == target
        # The weight array the scan builds, so the row's covariance matches bit for bit.
        if family == "xy":
            weights = np.column_stack([1j * points.real, 1j * points.imag, np.ones(points.size)])
        else:
            weights = np.repeat(points[:, None], len(pairs), axis=1)
        num_modes = max(j for _, j in pairs)
        target = graph_state_covariances(num_modes, pairs, weights[:, : len(pairs)])[cls.ROW]
        return lambda gamma: np.all(gamma == target, axis=(-2, -1))  # one entry per slice

    @pytest.mark.parametrize(
        "command, module, route, kind, pairs, label",
        [
            pytest.param("scan2", cli, "gem_two_mode_closed", "coupling", None, "scan2 gem", id="scan2-closed"),
            pytest.param("scan2", cli, "gem_from_purity", "state", ((1, 2),), "scan2 gem", id="scan2-purity"),
            pytest.param("equal", cli, "gem_three_mode_g1", "coupling", None, "scan3 gem_g1", id="equal-g1-closed"),
            pytest.param("equal", cli, "gem_three_mode_g2", "coupling", None, "scan3 gem_g2", id="equal-g2-closed"),
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
