import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffverify import cli


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
        path.write_text(json.dumps({"vertices": [0, 1, 2, 3],
                                    "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
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

    @pytest.mark.parametrize("text", [
        '{"points": [[0, 0, 1], [0, NaN, 1]]}',
        '{"points": [[0, 0, 1], [0, 0, -1]], "weights": [NaN, 0.5]}',
    ], ids=["point", "weight"])
    def test_non_finite_design_file(self, capsys, tmp_path, text):
        path = tmp_path / "mu.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "gap", "--chain", "4", "--closed",
                                 "--design", str(path))
        field = "points" if "weights" not in text else "weights"
        assert (code, out) == (2, "")
        assert err == f"error: design file {path}: {field} must be finite\n"

    @pytest.mark.parametrize("points", ["[]", "5"], ids=["empty", "scalar"])
    def test_design_file_without_points(self, capsys, tmp_path, points):
        path = tmp_path / "mu.json"
        path.write_text(f'{{"points": {points}}}')
        code, out, err = run_cli(capsys, "gap", "--chain", "4", "--design", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: design file {path}: points must be a nonempty (n, 3) array\n"

    def test_malformed_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices": [0, 1]}')
        code, out, err = run_cli(capsys, "gap", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: graph file {path}: malformed graph JSON: 'edges'\n"

    def test_custom_design_file(self, capsys, tmp_path):
        from ffverify import aklt
        path = tmp_path / "mu.json"
        mu = aklt.design_catalog("icosahedron")
        path.write_text(json.dumps({"points": mu.points.tolist(),
                                    "weights": mu.weights.tolist()}))
        code, out, _ = run_cli(capsys, "gap", "--chain", "4", "--closed",
                               "--design", str(path))
        assert code == 0
        assert json.loads(out)[0]["nu_E"] == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("command", ["gap", "simulate"])
    def test_design_of_zero_bond_gap(self, capsys, tmp_path, command):
        """One direction leaves every bond gap zero: the error says so and
        names nu_E, not the bound or sample-count inputs the user never gave."""
        path = tmp_path / "one.json"
        path.write_text('{"points": [[0, 0, 1]], "weights": [1]}')
        code, out, err = run_cli(capsys, command, "--chain", "4", "--closed",
                                 "--design", str(path))
        assert (code, out) == (2, "")
        assert "error: the protocol's gap is zero" in err and "nu_E" in err
        assert ("warning: design order 1" in err) == (command == "gap")

    def test_zero_gap_simulation_stays_in_range(self, capsys, tmp_path):
        """With --tests given, a zero-gap design runs; rounding must not print
        a negative gap or a pass probability above 1."""
        path = tmp_path / "one.json"
        path.write_text('{"points": [[0, 0, 1]], "weights": [1]}')
        code, out, _ = run_cli(capsys, "simulate", "--chain", "4", "--closed",
                               "--design", str(path), "--tests", "5", "--runs", "2",
                               "--pass-draws", "100")
        assert code == 0
        report = json.loads(out)
        assert (report["nu"], report["exact_pass_probability"]) == (0.0, 1.0)

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
        # 2 lines per instance plus 6, as the benchmark's check-bounds workload expects
        assert out.splitlines()[-1] == "14/14 checks passed"

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

    def test_out_flag_refused(self, capsys, tmp_path):
        """check-bounds prints its lines; an --out it would ignore is refused
        before anything runs."""
        out_file = tmp_path / "r.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-bounds", "--out", str(out_file)])
        assert exc.value.code == 2
        assert not out_file.exists()
        assert "--out" in capsys.readouterr().err


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

    def test_depolarizing_noise_out_of_reach(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--chain", "4", "--closed",
                                 "--noise", "depolarizing", "--noise-epsilon", "0.99")
        assert (code, out) == (2, "")
        assert err == "error: infidelity 0.99 unreachable by depolarizing noise\n"

    def test_noise_mode_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--chain", "4", "--closed",
                               "--noise", "depolarizing", "--noise-epsilon", "0.1",
                               "--runs", "5", "--tests", "10", "--pass-draws", "100")
        assert code == 0
        data = json.loads(out)
        assert data["exact_pass_probability"] < 1.0


#: commands whose stdout is frozen in data/cli_golden.json
GOLDEN_COMMANDS = (
    ("gap", "--chain", "6", "--closed"),
    ("gap", "--chain", "6", "--closed", "--format", "csv"),
    ("gap", "--chain", "6"),
    ("gap", "--honeycomb", "2x1"),
    ("gap", "--chain", "5", "--design", "isotropic"),
    ("gap", "--chain", "8", "--closed", "--design", "tetrahedron"),
    ("simulate", "--chain", "4", "--closed", "--seed", "5", "--noise", "worst_case",
     "--runs", "3"),
    ("simulate", "--chain", "4", "--closed", "--seed", "5", "--noise", "depolarizing",
     "--runs", "3"),
    ("simulate", "--chain", "4", "--closed", "--seed", "5", "--noise",
     "coherent_rotation", "--runs", "3"),
    ("check-bounds", "--instances", "20", "--seed", "7"),
    # the benchmark's check-bounds job: every bound prints by repr, so this pins
    # the detectability profile bit for bit
    ("check-bounds", "--instances", "200"),
    ("gap", "--square", "3x2"),
    ("simulate", "--chain", "4", "--closed", "--seed", "5", "--runs", "3", "--format", "csv"),
    ("simulate", "--chain", "4", "--closed", "--design", "isotropic", "--seed", "5",
     "--runs", "3", "--tests", "200", "--pass-draws", "500"),
    ("compare", "--kappa", "3", "--alpha", "0.5", "--n-max", "60"),
    ("samples", "--m", "2", "--nu-e", "0.4", "--gamma", "0.35", "--s", "0.5", "--g", "2",
     "--format", "csv"),
    ("samples", "--nu", "0.1"),
    # no runs: the summary's rate and mean are null
    ("simulate", "--chain", "4", "--closed", "--seed", "5", "--runs", "0",
     "--pass-draws", "200"),
    # proportional probabilities on a coloring: the thm2 cell is filled
    ("gap", "--chain", "5", "--closed", "--p", "proportional", "--format", "csv"),
    # the open chain's spin-1/2 end peaks at pi: no doubling of 1e-3 reaches 0.9
    ("simulate", "--chain", "5", "--noise", "coherent_rotation", "--noise-epsilon", "0.9",
     "--seed", "5", "--runs", "3", "--tests", "50", "--pass-draws", "200"),
    ("simulate", "--honeycomb", "2x1", "--noise", "coherent_rotation", "--noise-epsilon",
     "0.5", "--seed", "5", "--runs", "3", "--tests", "50", "--pass-draws", "200"),
    # open chain 5: worst_case and depolarizing away from the closed chain.  Its
    # spin-1/2 ends pair into the valence-bond state, so its ground rank is 1,
    # as on every AKLT graph tried; test_simulate covers a degenerate one
    ("simulate", "--chain", "5", "--noise", "worst_case", "--seed", "5", "--runs", "3"),
    ("simulate", "--chain", "5", "--noise", "depolarizing", "--seed", "5", "--runs", "3"),
)
GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
#: absolute tolerance on a printed non-integer number
GOLDEN_TOL = 1e-12


def _cell(text: str):
    """A CSV cell as the int, float or string it prints."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parsed(argv, out: str):
    """stdout as data: JSON, CSV rows, or check-bounds lines."""
    if argv[0] == "check-bounds":
        return out.splitlines()
    if "csv" in argv:
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(out))]
    return json.loads(out)


def _assert_matches(got, want, where: str):
    """Floats within GOLDEN_TOL; keys, integers, strings and None exactly."""
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)) and abs(got - want) <= GOLDEN_TOL, \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_matches(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


class TestGolden:
    """The printed results of gap, simulate and check-bounds, frozen in
    data/cli_golden.json (regenerate with `PYTHONPATH=src python
    tests/test_cli.py`): numbers within GOLDEN_TOL, everything else exact."""

    @pytest.fixture(scope="class")
    def golden(self):
        return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN_PATH.read_text())}

    def test_file_lists_every_command(self, golden):
        assert sorted(golden) == sorted(GOLDEN_COMMANDS)

    @pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
    def test_output_matches(self, capsys, monkeypatch, golden, argv):
        monkeypatch.delenv("FFV_MAX_DIM", raising=False)
        code, out, err = run_cli(capsys, *argv)
        want = golden[argv]
        assert (code, err) == (want["code"], want["stderr"])
        got, expected = _parsed(argv, out), _parsed(argv, want["stdout"])
        if argv[0] == "simulate" and "csv" not in argv:
            assert got["per_run"] == expected["per_run"]
        _assert_matches(got, expected, " ".join(argv))


class TestParsing:
    def test_each_command_takes_the_flags_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(s for a in p._actions for s in a.option_strings
                              if s not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        graph = ["--chain", "--closed", "--coloring", "--design", "--graph", "--honeycomb",
                 "--p", "--periodic", "--square"]
        report = ["--delta", "--epsilon", "--format", "--out"]
        assert flags == {
            "gap": sorted(graph + report + ["--gamma", "--seed"]),
            "samples": sorted(report + ["--g", "--gamma", "--m", "--nu", "--nu-e", "--s"]),
            "compare": sorted(report + ["--alpha", "--gamma", "--kappa", "--n-max", "--n-min",
                                        "--n-step"]),
            "check-bounds": ["--instances", "--seed"],
            "simulate": sorted(graph + report + ["--noise", "--noise-epsilon", "--pass-draws",
                                                 "--runs", "--seed", "--tests"]),
        }

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
        # a lattice flag on an instance it does not shape
        (("gap", "--honeycomb", "2x1", "--closed"), "--closed"),
        (("gap", "--square", "3x3", "--closed"), "--closed"),
        (("simulate", "--graph", "g.json", "--closed"), "--closed"),
        (("gap", "--chain", "6", "--periodic"), "--periodic"),
        (("simulate", "--chain", "4", "--closed", "--periodic"), "--periodic"),
        (("gap", "--graph", "g.json", "--periodic"), "--periodic"),
    ], ids=["tests", "runs", "instances", "n-step", "pass-draws", "seed-check-bounds",
            "seed-simulate", "n-min", "closed-honeycomb", "closed-square", "closed-graph",
            "periodic-chain", "periodic-closed-chain", "periodic-graph"])
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
        (("gap", "--chain", "4", "--closed", "--gamma", "inf"), "gamma"),
        (("samples", "--m", "2", "--nu-e", "0.4", "--gamma", "inf", "--s", "0.5", "--g", "2"),
         "gamma"),
        (("samples", "--m", "2", "--nu-e", "inf", "--s", "0.5", "--g", "2"), "nu_e"),
        (("compare", "--gamma", "inf"), "gamma"),
        (("compare", "--alpha", "inf"), "alpha"),
    ], ids=["gap-gamma-nan", "samples-nu-e-nan", "compare-gamma-nan", "compare-alpha-nan",
            "noise-epsilon", "gap-gamma-inf", "samples-gamma-inf", "samples-nu-e-inf",
            "compare-gamma-inf", "compare-alpha-inf"])
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


BOUND_FLAGS = ("--m", "2", "--nu-e", "1e-300", "--gamma", "0.35", "--s", "0.5", "--g", "2")


class TestOutOfRangeNumbers:
    """Sizes and counts past what an int's decimal string, a float or a C
    long holds are refused in one short line that names them, not in a
    traceback."""

    @pytest.mark.parametrize("argv, code, names", [
        (("gap", "--chain", "9100"), 3, "9100 nodes"),
        (("simulate", "--chain", "9100", "--closed"), 3, "9100 nodes"),
        (("gap", "--square", "60x60"), 3, "3600 nodes"),
        (("samples", "--nu", "1e-320"), 2, "nu = 1e-320 and epsilon = 0.01"),
        (("gap", "--chain", "6", "--closed", "--epsilon", "1e-320"), 2, "epsilon = 1e-320"),
        (("samples", *BOUND_FLAGS, "--epsilon", "1e-20"), 2, "strong bound"),
        (("samples", "--nu", "1e-320", "--epsilon", "1e-30"), 2, "nu = 1e-320 and epsilon"),
        (("samples", *BOUND_FLAGS, "--epsilon", "1e-30"), 2, "strong bound"),
        (("simulate", "--chain", "4", "--closed", "--runs", "1",
          "--pass-draws", "100000000000000000000"), 2, "--pass-draws"),
        (("compare", "--epsilon", "1e-170"), 2, "gamma = 0.35 and epsilon = 1e-170"),
    ], ids=["gap-chain-9100", "simulate-chain-9100", "gap-square-60x60", "samples-nu-overflow",
            "gap-epsilon-overflow", "samples-bounds-overflow", "samples-nu-zero-division",
            "samples-bounds-zero-division", "pass-draws-above-c-long",
            "compare-epsilon-zero-division"])
    def test_refused_in_one_line(self, capsys, argv, code, names):
        assert_refused(capsys, argv, code, names)

    def test_full_dimension_named_as_power_of_ten(self, capsys, monkeypatch):
        """Past the node count, the exact dimension 3^9100 is refused; it and
        a cap of 2740 digits are named as powers of ten."""
        monkeypatch.setenv("FFV_MAX_DIM", str(2 ** 9101))
        assert_refused(capsys, ("gap", "--chain", "9100"), 3,
                       "dimension about 10^4341.5 exceeds FFV_MAX_DIM=about 10^2739.")

    @pytest.mark.parametrize("value", ["9" * 5000, "-" + "9" * 4000],
                             ids=["5000-nines", "minus-4000-nines"])
    def test_long_cap_clipped(self, capsys, monkeypatch, value):
        """A cap past int's 4300 digits, or a negative one, is echoed as its
        first 20 characters and its length."""
        monkeypatch.setenv("FFV_MAX_DIM", value)
        assert_refused(capsys, ("gap", "--chain", "4", "--closed"), 2,
                       f"got {value[:20]!r}... ({len(value)} characters)")


def assert_refused(capsys, argv, code, names):
    """`ffv argv` exits with `code` and one stderr line of at most 160
    characters that contains `names`, printing nothing to stdout."""
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    prefix = "resource error: " if code == 3 else "error: "
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err and len(err) <= 160 and names in err


class TestRefusedBeforeBuilding:
    """Every AKLT node has dimension 2 or more, so a lattice of at least
    FFV_MAX_DIM.bit_length() nodes is refused before any graph is built."""

    @pytest.fixture
    def no_lattice(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a lattice was built")

        for name in ("chain", "square_lattice", "honeycomb_lattice"):
            monkeypatch.setattr(cli.graphs, name, fail)

    @pytest.mark.parametrize("argv, names", [
        (("gap", "--chain", "200000"), "200000 nodes"),
        (("simulate", "--chain", "14", "--closed"), "14 nodes"),
        (("gap", "--square", "4x4"), "16 nodes"),
        (("gap", "--honeycomb", "1x7"), "14 nodes"),
        (("gap", "--honeycomb", "1x100000000000000000000"), "about 10^20.3 nodes"),
    ], ids=["chain-200000", "simulate-chain-14", "square-4x4", "honeycomb-1x7",
            "honeycomb-1x1e20"])
    def test_refused(self, capsys, monkeypatch, no_lattice, argv, names):
        monkeypatch.delenv("FFV_MAX_DIM", raising=False)
        assert_refused(capsys, argv, 3, names + " of dimension 2 or more exceeds "
                                                "FFV_MAX_DIM=8192")

    @pytest.mark.parametrize("cap, nodes", [("8192", "13"), ("65536", "16")])
    def test_below_the_bit_length_is_built(self, monkeypatch, no_lattice, cap, nodes):
        monkeypatch.setenv("FFV_MAX_DIM", cap)
        with pytest.raises(AssertionError, match="a lattice was built"):
            cli.main(["gap", "--chain", nodes, "--closed"])

    def test_chain_10_still_checks_its_dimension(self, capsys, monkeypatch):
        # 10 nodes pass the count at the default cap; 3^10 = 59049 does not
        monkeypatch.delenv("FFV_MAX_DIM", raising=False)
        assert_refused(capsys, ("gap", "--chain", "10", "--closed"), 3,
                       "dimension 59049 exceeds FFV_MAX_DIM=8192")


#: child process: runs `ffv` with its arguments after the first (none: import
#: only) and prints the loaded modules whose names start with the first
MODULE_PROBE = """
import contextlib, io, json, sys
from ffverify import cli
prefix, argv = sys.argv[1], sys.argv[2:]
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith(prefix))]))
"""


def modules_after(prefix: str, *argv) -> list[str]:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("FFV_MAX_DIM", None)
    out = subprocess.run([sys.executable, "-c", MODULE_PROBE, prefix, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    code, modules = json.loads(out)
    assert code == 0
    return modules


def scipy_modules_after(*argv) -> list[str]:
    return modules_after("scipy", *argv)


class TestStartup:
    """Importing scipy costs ~0.3 s and ~27 MB; no ffv command needs it, the
    Lanczos solves and the coherent rotation included.  Loading numpy.random
    costs ~15 ms and 4-5 MB of a `gap` job's peak RSS; `gap` draws nothing
    at random, and its solves take their start vectors from `linalg`'s own
    counter-based stream."""

    def test_import_leaves_out_scipy(self):
        assert scipy_modules_after() == []

    def test_check_bounds_leaves_out_scipy(self):
        assert scipy_modules_after("check-bounds", "--instances", "3") == []

    def test_simulate_below_the_dense_floor_leaves_out_scipy(self):
        assert scipy_modules_after("simulate", "--chain", "4", "--closed", "--runs", "2",
                                   "--tests", "5", "--pass-draws", "10") == []

    def test_gap_above_the_dense_floor_leaves_out_scipy(self):
        # the S_z = 0 sector of closed chain 8 has 1107 states: Lanczos
        assert scipy_modules_after("gap", "--chain", "8", "--closed") == []

    def test_simulate_coherent_rotation_leaves_out_scipy(self):
        assert scipy_modules_after("simulate", "--chain", "4", "--closed", "--noise",
                                   "coherent_rotation", "--runs", "2", "--tests", "5",
                                   "--pass-draws", "10") == []

    @pytest.mark.parametrize("chain", ["4", "6", "8"])
    def test_gap_leaves_out_numpy_random(self, chain):
        # chain 4's S_z = 0 sector (19 states) is solved dense, chains 6
        # and 8 (141 and 1107 states) by Lanczos
        assert modules_after("numpy.random", "gap", "--chain", chain, "--closed") == []


def write_golden() -> None:
    """Run GOLDEN_COMMANDS, write their exit codes and output to GOLDEN_PATH,
    and print the argv of each entry that differs from the file it replaces."""
    import contextlib

    os.environ.pop("FFV_MAX_DIM", None)
    old = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN_PATH.read_text())}
    entries = []
    for argv in GOLDEN_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        entries.append({"argv": list(argv), "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    changed = [" ".join(entry["argv"]) for entry in entries
               if old.get(tuple(entry["argv"])) != entry]
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1) + "\n")
    print("\n".join(f"changed: {line}" for line in changed) or "no entry changed")


if __name__ == "__main__":
    write_golden()
