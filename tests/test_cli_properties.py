"""The exit contract as a property.

Every argv formed from `cli.build_parser()`'s own subcommands and flags, with
values from a pool of adversarial numbers and under adversarial
`FFV_MAX_DIM` strings, runs in process to exit 0, 2, 3 or 4 with no
exception, no warning, stderr lines of at most 160 characters and at most one
diagnostic line; `compare` and `samples` print only finite, nonnegative
numbers.  Flags that size the job draw from pools whose accepted values keep
it small, so the whole test takes about 10 s.
"""

import argparse
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ffverify import cli

BIG = "100000000000000000000"

#: (plain, adversarial) values by argparse type
INTS = (("0", "1", "2", "3"), ("-1", "-0", BIG, "nan", "1e20", "0.5"))
FLOATS = (("0.01", "0.05", "0.3", "0.5", "0.9", "0.99"),
          ("nan", "inf", "-inf", "0", "-0", "-0.0", "1e-320", "1e-170", BIG, "1e20", "-1",
           "-2.5", "0.999"))

LATTICES = ("0x0", "-1x2", "x", "1x", "ax2", "1x2x3", "", "nanxnan", "1x" + BIG)

#: flags that size the job: small accepted values, and values refused before
#: anything is built
SIZES = {
    "chain": (("2", "3", "4", "5", "6"), ("-1", "0", "1", "nan", BIG)),
    "honeycomb": (("1x1", "2x1", "1x2"), LATTICES),
    "square": (("2x2", "3x2"), ("1x1", "2x1") + LATTICES),
    "runs": (("0", "1", "3"), ("-1", BIG[:-1] + ".5")),
    "tests": (("1", "50", BIG), ("-1", "0")),
    "pass_draws": (("1", "200"), ("-1", "0", BIG)),
    "instances": (("0", "1", "2"), ("-1",)),
    "n_min": (("2", "3", "4", "20"), ("-1", "0", "1", BIG)),
    "n_max": (("2", "4", "6", "60"), ("-1", "0", "3")),
    "n_step": (("1", "2", "20"), ("-1", "0", BIG)),
}

#: FFV_MAX_DIM: unset, or a string
CAPS = ((None, "65536"), ("0", "-1", "abc", "", "1e3", BIG, "9" * 30, "-" + "9" * 30, " 81 "))

DIAGNOSTICS = ("error:", "resource error:", "invariant violation:")

#: files the file flags name, written under tmp_path; None: not written
FILES = {
    "graph.json": '{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}',
    "bad.json": "{",
    "one-point.json": '{"points": [[0, 0, 1]]}',
    "nan-point.json": '{"points": [[NaN, 0, 0]]}',
    "missing.json": None,
}

SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def _pools(action, tmp_path) -> tuple[tuple, tuple]:
    """The (plain, adversarial) values of a flag."""
    files = tuple(str(tmp_path / name) for name in FILES)
    if action.choices is not None:
        return tuple(action.choices), ("bogus",)
    if action.dest == "design":
        return ("icosahedron", "tetrahedron", "isotropic"), ("nonsense", *files)
    if action.dest == "graph":
        return files[:1], files[1:]
    if action.dest == "out":
        return (str(tmp_path / "out.txt"),), (str(tmp_path), str(tmp_path / "no" / "out.txt"))
    return SIZES.get(action.dest) or (INTS if action.type is int else FLOATS)


@st.composite
def invocations(draw, tmp_path):
    """An argv of one subcommand, each of its flags present or not, and an
    FFV_MAX_DIM string or None.  Half the examples draw only plain values, so
    that jobs run; the others draw from both pools."""
    hostile = draw(st.booleans())

    def value(pools):
        plain, adversarial = pools
        return draw(st.sampled_from(plain + adversarial if hostile else plain))

    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]._actions:
        if action.dest == "help" or not draw(st.booleans()):
            continue
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            argv.append(value(_pools(action, tmp_path)))
    return argv, value(CAPS)


def _printed_numbers(text: str, fmt: str) -> list[float]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [float(cell) for row in rows for cell in row if cell]

    def walk(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in walk(v)]
        if isinstance(value, list):
            return [x for v in value for x in walk(v)]
        return [float(value)] if isinstance(value, (int, float)) else []

    return walk(json.loads(text))


def _flag(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


@pytest.fixture
def files(tmp_path):
    for name, text in FILES.items():
        if text is not None:
            (tmp_path / name).write_text(text)
    return tmp_path


@settings(max_examples=1100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_contract(data, files, capsys, monkeypatch):
    argv, cap = data.draw(invocations(files))
    if cap is None:
        monkeypatch.delenv("FFV_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("FFV_MAX_DIM", cap)
    out_file = files / "out.txt"
    out_file.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own refusal of a flag
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines()
    assert all(len(line) <= 160 for line in lines), err
    assert sum(line.startswith(DIAGNOSTICS) for line in lines) <= 1, err
    if code == 0 and argv[0] in ("compare", "samples"):
        if _flag(argv, "--out") == str(out_file):
            out = out_file.read_text()
        numbers = _printed_numbers(out, _flag(argv, "--format", "json"))
        assert numbers and all(math.isfinite(x) and x >= 0 for x in numbers), out
