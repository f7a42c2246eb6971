"""Benchmark of the `ffv` command line, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job is `python -m ffverify.cli ...`
in a fresh process with PYTHONPATH set to the checkout's src/, spawned one at
a time from this process and checked against `reference.json`.

--trace 0 measures end to end for --seconds: fresh processes that import
ffverify and build the instance without solving (set-up probes) alternate
with jobs, and the run reports the median set-up time, job wall time and job
peak RSS.  --trace 1 runs one untraced job and then the same command traced
in a fresh process (see replay.py), and reports per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric with
its unit and the environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, check_output, parse_output, tests_drawn

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 5
MIN_JOBS = 1
#: no job starts unless it can reach its limit within this many seconds of
#: the first job, so a run ends well inside the 180 s a run may take
RUN_BUDGET_S = 130.0
OUT_DIR = ".bench_out"

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    returncode: int
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.out_dir = root / OUT_DIR
        self.out_dir.mkdir(exist_ok=True)
        self.base_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.base_env.pop("FFV_MAX_DIM", None)
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], env: dict, limit_s: float) -> Proc:
        """Run argv to completion, killing it at limit_s; peak RSS from wait4."""
        paths = [self.out_dir / f"{os.getpid()}.{name}" for name in ("out", "err")]
        with open(paths[0], "w+b") as out, open(paths[1], "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.root)
            lock, state = threading.Lock(), {"reaped": False, "killed": False}

            def kill():
                with lock:
                    if not state["reaped"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(limit_s, kill)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        for path in paths:
            path.unlink()
        return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, state["killed"],
                    stdout, stderr)

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{label}: {p}" for p in problems]
        return not problems

    def job(self, workload: Workload, seed: int) -> tuple[Proc, object]:
        """One ffv job with its output checked; returns it and its parsed output."""
        argv = [sys.executable, "-m", "ffverify.cli"] + workload.ffv_args(seed)
        proc = self.spawn(argv, dict(self.base_env, **workload.env), workload.limit_s)
        problems, parsed = _process_problems(proc, workload.limit_s), None
        if not problems:
            try:
                parsed = parse_output(workload.kind, proc.stdout)
                problems = check_output(workload, parsed)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        self.record(f"job seed {seed}", problems)
        return proc, parsed

    def replay(self, workload: Workload, mode: list[str], seed: int,
               limit_s: float) -> Proc:
        argv = [sys.executable, str(BENCH_DIR / "replay.py")] + mode + ["--"]
        return self.spawn(argv + workload.ffv_args(seed),
                          dict(self.base_env, **workload.env), limit_s)


def _process_problems(proc: Proc, limit_s: float) -> list[str]:
    if proc.timed_out:
        return [f"killed at the {limit_s:g} s limit"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {proc.returncode}: {tail[0]}"]
    return []


def environment(bench: Bench, workload: Workload, seed: int, trace: int) -> dict:
    """Where and on what the numbers were taken; the probe also warms caches."""
    probe = bench.spawn([sys.executable, str(BENCH_DIR / "replay.py"), "--env"],
                        bench.base_env, 60)
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {}
    sha = None
    if (bench.root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((bench.root / "src").rglob("*.py")):
        digest.update(path.relative_to(bench.root).as_posix().encode())
        digest.update(path.read_bytes())
    blas_env = {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), **libs,
            "blas_thread_env": blas_env,
            "FFV_MAX_DIM": workload.env.get("FFV_MAX_DIM"),
            "ffv_args": workload.ffv_args(_job_seed(seed, 0))}


def _job_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def measure_end_to_end(bench: Bench, workload: Workload, seed: int,
                       seconds: float) -> tuple[dict, dict]:
    """Alternate set-up probes and jobs for `seconds`, so both sample the
    whole window, then top the probes up to SETUP_REPS."""
    setup, jobs = [], []

    def probe():
        proc = bench.replay(workload, ["--setup"], _job_seed(seed, 0), workload.limit_s)
        bench.record(f"setup {len(setup)}", _process_problems(proc, workload.limit_s))
        setup.append(proc.wall_s)

    start = last = time.perf_counter()
    while True:
        now = time.perf_counter()
        elapsed, pair_s = now - start, now - last
        # stop once the next probe and job would end more than half a pair
        # past the window
        if len(jobs) >= MIN_JOBS and elapsed + pair_s / 2 >= seconds:
            break
        if jobs and elapsed + workload.limit_s > RUN_BUDGET_S:
            break
        last = now
        probe()
        jobs.append(bench.job(workload, _job_seed(seed, len(jobs)))[0])
    while len(setup) < SETUP_REPS:
        probe()
    metrics = {"job_s": statistics.median(p.wall_s for p in jobs),
               "peak_rss_mb": statistics.median(p.peak_rss_mb for p in jobs),
               "setup_s": statistics.median(setup)}
    notes = {"job_s": _spread([p.wall_s for p in jobs], "jobs"),
             "peak_rss_mb": _spread([p.peak_rss_mb for p in jobs], "jobs"),
             "setup_s": _spread(setup, "processes")}
    return metrics, notes


def _spread(values: list[float], what: str) -> str:
    low, high = min(values), max(values)
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
        return f"median of {len(values)} {what}, quartiles {low:.4g}..{high:.4g}"
    return f"median of {len(values)} {what}, range {low:.4g}..{high:.4g}"


def measure_traced(bench: Bench, workload: Workload, seed: int) -> tuple[dict, dict]:
    job_seed = _job_seed(seed, 0)
    job, parsed = bench.job(workload, job_seed)
    spans_out = bench.out_dir / f"spans-{workload.name}.json"
    job_id = f"{workload.name}-{job_seed}-traced"
    traced = bench.replay(workload, ["--trace", "--job-id", job_id,
                                     "--spans-out", str(spans_out)], job_seed,
                          2 * workload.limit_s)
    problems = _process_problems(traced, 2 * workload.limit_s)
    layers = {name: 0.0 for name in PER_LAYER}
    if not problems:
        report = json.loads(traced.stdout.splitlines()[-1])
        layers.update(report["layers"])
        if parsed is not None and report["stdout"] != job.stdout:
            problems = ["the traced run's output differs from the job's"]
        traced_s = traced.wall_s - report["write_s"]
        layers["bench.trace_overhead_frac"] = traced_s / job.wall_s - 1.0
    bench.record("traced run", problems)
    if workload.kind == "simulate" and parsed is not None:
        drawn = workload.options().pass_draws + tests_drawn(parsed["per_run"])
        layers["bench.job_tests_per_s"] = drawn / job.wall_s
    return layers, {"spans": str(spans_out.relative_to(bench.root)),
                    "untraced job_s": job.wall_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "ffverify" / "cli.py").is_file():
        print(f"error: {root} holds no src/ffverify; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the CLI's parser reads the job arguments
    return run(Bench(root), WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


def run(bench: Bench, workload: Workload, seed: int, seconds: float, trace: int) -> int:
    env = environment(bench, workload, seed, trace)
    workload.options()  # imports the CLI's parser here, before any timing
    print(json.dumps({"environment": env}, sort_keys=True))
    if trace:
        values, notes = measure_traced(bench, workload, seed)
        units = PER_LAYER
    else:
        values, notes = measure_end_to_end(bench, workload, seed, seconds)
        units = END_TO_END
    for name, unit in units.items():
        label = " (computed bytes)" if name == "hamiltonian.apply_gb_per_s" else ""
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name:32s} {values[name]:14.6g} {unit}{label}{note}")
    for name, note in notes.items():
        if name not in units:
            print(f"{name}: {note}")
    print(f"{'fail_frac':32s} {bench.failed / bench.attempted:14.6g} ratio"
          f"  [{bench.failed} failed of {bench.attempted} attempted]")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
