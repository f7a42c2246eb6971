import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffverify import cli, graph as G


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGap:
    def test_chain4_report(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--chain", "4", "--closed",
                               "--design", "icosahedron")
        assert code == 0
        row = json.loads(out)[0]
        assert row["nu_measured"] >= row["thm1_strong"] - 1e-9
        assert row["nu_measured"] >= row["thm2"] - 1e-9
        assert row["N_strong"] >= row["N"]

    def test_chain2_single_projector(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--chain", "2")
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["gamma"] - 1.0) < 1e-9
        assert row["thm1_strong"] is None
        # single bond, homogeneous icosahedron test: nu = 2/3 saturates thm2
        assert abs(row["nu_measured"] - 2 / 3) < 1e-9
        assert abs(row["nu_measured"] - row["thm2"]) < 1e-9

    def test_design_order_warning(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(G.chain(4, closed=True).to_json())
        code, _, err = run_cli(capsys, "gap", "--graph", str(path),
                               "--design", "octahedron")
        assert code == 0
        assert "warning" in err.lower()

    def test_no_warning_for_sufficient_design(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--chain", "4", "--closed",
                               "--design", "icosahedron")
        assert code == 0
        assert "warning" not in err.lower()

    def test_open_chain_flags_end_bonds(self, capsys):
        # end bonds couple spin 1/2 to spin 1 (S_e = 3/2), the middle bond has
        # S_e = 2; the icosahedron is a design for both, so nu_E = 2/5
        code, out, err = run_cli(capsys, "gap", "--chain", "4")
        assert code == 0
        assert "vary across edges" in err
        row = json.loads(out)[0]
        assert row["nu_E"] == pytest.approx(2 / 5, abs=1e-9)

    def test_conflicting_graph_flags(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--chain", "4", "--honeycomb", "2x2")
        assert code == 2
        assert "error" in err.lower()

    def test_oversize_instance(self, capsys, monkeypatch):
        monkeypatch.setenv("FFV_MAX_DIM", "50")
        code, _, err = run_cli(capsys, "gap", "--chain", "5", "--closed")
        assert code == 3
        assert "FFV_MAX_DIM" in err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_cap(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FFV_MAX_DIM", value)
        code, _, err = run_cli(capsys, "gap", "--chain", "4", "--closed")
        assert code == 2
        assert "FFV_MAX_DIM" in err

    @pytest.mark.parametrize("flags, text", [
        (["--chain", "4", "--closed", "--design"], '{"points": [[0, 0, "a"]]}'),
        (["--chain", "4", "--closed", "--design"], '{"points": [[0, 0, 1], [1, 0]]}'),
        (["--graph"], '{"vertices": ["a"], "edges": []}'),
        (["--graph"], '{"vertices": [0, 1], "edges": [[0, "x"]]}'),
        (["--graph"], '{"vertices": [0, 1.7, 2], "edges": [[0, 1.7], [1.2, 2]]}'),
        (["--graph"], '{"vertices": [0, true], "edges": [[0, true]]}'),
    ], ids=["design-string", "design-ragged", "graph-vertex", "graph-edge", "graph-float",
            "graph-bool"])
    def test_malformed_numbers_in_json(self, capsys, tmp_path, flags, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "gap", *flags, str(path))
        assert code == 2
        assert "error:" in err

    def test_custom_design_file(self, capsys, tmp_path):
        from ffverify import aklt
        path = tmp_path / "mu.json"
        path.write_text(aklt.design_catalog("icosahedron").to_json())
        code, out, _ = run_cli(capsys, "gap", "--chain", "4", "--closed",
                               "--design", str(path))
        assert code == 0
        assert json.loads(out)[0]["nu_E"] == pytest.approx(0.4, abs=1e-9)

    def test_csv_output_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "gap", "--chain", "4", "--closed",
                             "--format", "csv", "--out", str(out_file))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
        assert len(rows) == 1
        assert float(rows[0]["nu_measured"]) > 0

    def test_trivial_coloring_and_proportional(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--chain", "4", "--closed",
                               "--coloring", "trivial", "--p", "proportional",
                               "--design", "isotropic")
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["nu_measured"] - row["thm2"]) < 1e-9


class TestSamples:
    def test_chain_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "samples", "--m", "2", "--nu-e", "0.4",
                               "--gamma", "0.350", "--s", "0.5", "--g", "2")
        assert code == 0
        row = json.loads(out)[0]
        assert row["N_strong"] == 16525

    def test_honeycomb_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "samples", "--m", "3", "--nu-e",
                               str(2 / 7), "--gamma", "0.10", "--s", "0.5", "--g", "4")
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["N_strong"] - 7.9e5) / 7.9e5 < 0.01

    def test_direct_nu(self, capsys):
        code, out, _ = run_cli(capsys, "samples", "--nu", "1.0",
                               "--epsilon", "0.5", "--delta", "0.5")
        assert code == 0
        assert json.loads(out)[0]["N"] == 1

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "samples", "--m", "2")
        assert code == 2

    def test_invalid_epsilon(self, capsys):
        code, _, _ = run_cli(capsys, "samples", "--nu", "0.5", "--epsilon", "2.0")
        assert code == 2


class TestCompare:
    def test_fig2_row(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n-min", "100",
                               "--n-max", "100", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == "100"
        assert int(row["coloring_N"]) == 16525
        assert abs(float(row["HKSE_N"]) - 3.76e11) / 3.76e11 < 0.01
        assert abs(float(row["BHSRE_N"]) - 2.32e9) / 2.32e9 < 0.01

    def test_golden_header_and_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,coloring_N,HKSE_N,BHSRE_N"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["n"]) for r in rows] == list(range(20, 201, 20))

    def test_coloring_constant_in_n(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "json")
        rows = json.loads(out)
        assert len({r["coloring_N"] for r in rows}) == 1

    def test_golden_file(self, capsys):
        import pathlib
        golden = pathlib.Path(__file__).parent / "data" / "comparison_table.csv"
        code, out, _ = run_cli(capsys, "compare", "--format", "csv")
        assert code == 0
        assert out == golden.read_text()

    def test_hkse_growth_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n-min", "50", "--n-max",
                               "100", "--n-step", "50", "--format", "json")
        rows = json.loads(out)
        import math
        expected = (100 ** 3 * math.log(-101 / math.log(0.99))) / \
                   (50 ** 3 * math.log(-51 / math.log(0.99)))
        assert rows[1]["HKSE_N"] / rows[0]["HKSE_N"] == pytest.approx(expected)


class TestCheckBounds:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-bounds", "--instances", "4", "--seed", "3")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_zero_instances(self, capsys):
        code, out, _ = run_cli(capsys, "check-bounds", "--instances", "0")
        assert code == 0
        assert "0/0" in out

    def test_injected_failure_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_check_bound_suite",
                            lambda seed, instances: [("broken-projector", False, "bad")])
        code, out, err = run_cli(capsys, "check-bounds")
        assert code == 4
        assert "FAIL broken-projector" in out

    def test_deterministic_given_seed(self, capsys):
        _, out_a, _ = run_cli(capsys, "check-bounds", "--instances", "3", "--seed", "5")
        _, out_b, _ = run_cli(capsys, "check-bounds", "--instances", "3", "--seed", "5")
        assert out_a == out_b


class TestSimulate:
    def test_perfect_state_always_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--chain", "4", "--closed",
                               "--noise-epsilon", "0", "--runs", "20",
                               "--tests", "50", "--pass-draws", "200")
        assert code == 0
        data = json.loads(out)
        assert data["acceptance_rate"] == 1.0
        assert data["exact_pass_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_given_seed(self, capsys):
        args = ("simulate", "--chain", "4", "--closed", "--noise-epsilon", "0.3",
                "--runs", "10", "--tests", "20", "--pass-draws", "100",
                "--seed", "7")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_noise_mode_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--chain", "4", "--closed",
                               "--noise", "depolarizing", "--noise-epsilon", "0.1",
                               "--runs", "5", "--tests", "10", "--pass-draws", "100")
        assert code == 0
        data = json.loads(out)
        assert data["exact_pass_probability"] < 1.0


class TestParsing:
    @pytest.mark.parametrize("argv, flag", [
        (("simulate", "--chain", "4", "--closed", "--tests", "0"), "--tests"),
        (("simulate", "--chain", "4", "--closed", "--runs", "-1"), "--runs"),
        (("check-bounds", "--instances", "-1"), "--instances"),
        (("compare", "--n-step", "0"), "--n-step"),
        (("simulate", "--chain", "4", "--closed", "--pass-draws", "0"), "--pass-draws"),
        (("check-bounds", "--instances", "1", "--seed", "-1"), "--seed"),
        (("simulate", "--chain", "4", "--closed", "--runs", "2", "--tests", "5",
          "--pass-draws", "10", "--seed", "-3"), "--seed"),
        (("compare", "--n-min", "-4", "--n-max", "2", "--n-step", "2"), "--n-min"),
    ], ids=["tests", "runs", "instances", "n-step", "pass-draws", "seed-check-bounds",
            "seed-simulate", "n-min"])
    def test_count_flag_below_its_floor(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv, name", [
        (("gap", "--chain", "4", "--closed", "--gamma", "nan"), "gamma"),
        (("samples", "--m", "2", "--nu-e", "nan", "--s", "0.5", "--g", "2"), "nu_e"),
        (("compare", "--gamma", "nan"), "gamma"),
        (("compare", "--alpha", "nan"), "alpha"),
        (("simulate", "--chain", "4", "--closed", "--noise-epsilon", "1.5"), "noise epsilon"),
    ], ids=["gap-gamma-nan", "samples-nu-e-nan", "compare-gamma-nan", "compare-alpha-nan",
            "noise-epsilon"])
    def test_real_flag_outside_its_range(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and name in err

    @pytest.mark.parametrize("bounds", [("5", "3"), ("3", "3"), ("1", "9", "--n-step", "2")],
                             ids=["empty", "one-odd", "all-odd"])
    def test_compare_range_without_even_length(self, capsys, bounds):
        n_min, n_max, *step = bounds
        code, out, err = run_cli(capsys, "compare", "--n-min", n_min, "--n-max", n_max, *step)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--n-min" in err and "--n-max" in err

    def test_bad_wh(self, capsys):
        code, _, _ = run_cli(capsys, "gap", "--honeycomb", "3by3")
        assert code == 2

    def test_missing_graph_source(self, capsys):
        code, _, _ = run_cli(capsys, "gap")
        assert code == 2

    def test_missing_graph_file(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--graph", "/nonexistent/g.json")
        assert code == 2
        assert "error" in err.lower()


class TestStartup:
    def test_import_leaves_out_scipy_optimize(self):
        # importing scipy.optimize costs ~0.2 s that every ffv command would pay;
        # only coherent-rotation noise needs it, so it is imported there
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        probe = "import sys, ffverify.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "False"
