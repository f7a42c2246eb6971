"""The benchmark's workloads and the checks applied to each job's output.

Every workload is one `ffv` command.  Its output is compared with
`reference.json`, frozen from the same commands at the commit that added the
benchmark, and the Monte-Carlo outputs are also checked against the exact
law of a verification run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

#: absolute tolerance on gamma, nu, the bounds and pass probabilities; the
#: dense path is exact to round-off and eigsh runs at tol=1e-12
VALUE_TOL = 1e-8
#: sigma bound on the Monte-Carlo statistics, fixed before any run
SIGMAS = 7.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]         # ffv arguments, without --seed
    limit_s: float                # wall-clock limit of one job
    env: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The ffv command: "gap", "simulate" or "check-bounds"."""
        return self.args[0]

    def ffv_args(self, seed: int) -> list[str]:
        return list(self.args) + ["--seed", str(seed)]

    def options(self):
        """The job's arguments as the CLI's own parser reads them, defaults
        included; needs the checkout's src/ on sys.path."""
        from ffverify.cli import build_parser

        return build_parser().parse_args(self.args)


WORKLOADS = {w.name: w for w in (
    Workload("gap-dense", ("gap", "--chain", "6", "--closed"), limit_s=40),
    Workload("gap-krylov", ("gap", "--chain", "10", "--closed"), limit_s=60,
             env={"FFV_MAX_DIM": "65536"}),
    Workload("sim-design", ("simulate", "--chain", "4", "--closed", "--noise", "worst_case",
                            "--runs", "300", "--pass-draws", "100000"), limit_s=40),
    Workload("check-bounds", ("check-bounds", "--instances", "200"), limit_s=30),
)}


def parse_output(kind: str, stdout: str):
    """The job's result in the form the traced replay also produces."""
    if kind == "gap":
        return json.loads(stdout)[0]
    if kind == "simulate":
        return json.loads(stdout)
    return stdout.splitlines()


def tests_drawn(per_run) -> int:
    """Tests drawn by the runs: every pass plus the rejecting test, if any."""
    return sum(r["n_passed"] + (0 if r["accepted"] else 1) for r in per_run)


def check_output(workload: Workload, parsed) -> list[str]:
    """Problems found in one job's parsed output; empty when it is correct."""
    if workload.kind == "gap":
        return _check_gap(parsed, REFERENCE[workload.name])
    if workload.kind == "simulate":
        return _check_simulate(workload, parsed, REFERENCE[workload.name])
    return _check_bounds_suite(workload, parsed)


def _close(name, got, want) -> list[str]:
    if got is None or want is None:
        return [] if got is want else [f"{name}: {got} != reference {want}"]
    if isinstance(want, float):
        return [] if abs(got - want) <= VALUE_TOL else [f"{name}: {got} != reference {want}"]
    return [] if got == want else [f"{name}: {got} != reference {want}"]


def _check_gap(row: dict, ref: dict) -> list[str]:
    problems = []
    for key, want in ref.items():
        problems += _close(key, row.get(key), want)
    nu = row.get("nu_measured")
    for key in ("thm1_strong", "thm1_weak", "thm2"):
        bound = row.get(key)
        if nu is not None and bound is not None and nu < bound:
            problems.append(f"nu_measured {nu} below {key} {bound}")
    return problems


def geometric_stop_moments(q: float, n: int) -> tuple[float, float]:
    """Mean and variance of T = min(first failure, n) for i.i.d. passes with
    probability q: the number of tests one run of n tests draws."""
    mean = second = 0.0
    survive = 1.0  # q^(t-1)
    for t in range(1, n + 1):
        p_t = survive * (1.0 - q) if t < n else survive
        mean += t * p_t
        second += t * t * p_t
        survive *= q
    return mean, second - mean * mean


def _check_simulate(workload: Workload, out: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("n_tests", "exact_pass_probability", "nu"):
        problems += _close(key, out.get(key), ref[key])
    options = workload.options()
    runs, draws = options.runs, options.pass_draws
    per_run = out.get("per_run", [])
    n, q = ref["n_tests"], ref["exact_pass_probability"]
    if len(per_run) != runs or any(r["n_tests"] != n for r in per_run):
        return problems + [f"expected {runs} runs of {n} tests"]
    if any(r["accepted"] != (r["n_passed"] == n) for r in per_run):
        problems.append("a run's accepted flag disagrees with its pass count")

    rate_sigma = math.sqrt(q * (1.0 - q) / draws)
    if abs(out["empirical_pass_rate"] - q) > SIGMAS * rate_sigma:
        problems.append(f"empirical pass rate {out['empirical_pass_rate']} is more "
                        f"than {SIGMAS} sigma from {q}")
    mean, var = geometric_stop_moments(q, n)
    drawn = tests_drawn(per_run) / runs
    if abs(drawn - mean) > SIGMAS * math.sqrt(var / runs):
        problems.append(f"mean tests drawn per run {drawn} is more than {SIGMAS} "
                        f"sigma from the geometric law's {mean}")
    return problems


def _check_bounds_suite(workload: Workload, lines: list[str]) -> list[str]:
    checks = 2 * workload.options().instances + 6
    problems = [line for line in lines[:-1] if not line.startswith("PASS ")]
    if not lines or lines[-1] != f"{checks}/{checks} checks passed":
        problems.append(f"expected '{checks}/{checks} checks passed', got "
                        f"{lines[-1] if lines else 'no output'!r}")
    return problems

