"""Child process of the benchmark: environment probe, set-up probe, traced replay.

    python benchmarks/replay.py --env
    python benchmarks/replay.py --setup -- <ffv arguments>
    python benchmarks/replay.py --trace --job-id ID --spans-out FILE -- <ffv arguments>

`--setup` imports ffverify and builds the command's instance (graph, AKLT
Hamiltonian, design, cover, protocol) without solving anything.  `--trace`
wraps the traced functions (see tracing.py), runs the `ffv` command in this
process with its standard output captured, and prints the command's exit
code and output and the per-layer metrics as one JSON line.  Run with PYTHONPATH pointing at the
checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

_START = time.perf_counter()


def environment() -> dict:
    """Library versions and the BLAS thread count a job process sees.

    Importing ffverify here also fills its bytecode cache before any timing.
    """
    import ffverify  # noqa: F401
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": _blas_threads()}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _setup(ffv_args: list[str]) -> None:
    """Build the command's instance as the CLI does, without solving.
    check-bounds builds the closed chain-4 icosahedron protocol its suite uses."""
    from ffverify import aklt, cli, graph as graphs, protocol as proto

    args = cli.build_parser().parse_args(ffv_args)
    if args.command == "check-bounds":
        h = aklt.aklt_hamiltonian(graphs.chain(4, closed=True))
        proto.build_protocol(h, graphs.edge_coloring(h.graph),
                             aklt.design_catalog("icosahedron"))
        return
    g = cli._build_graph(args)
    h = aklt.aklt_hamiltonian(g)
    cli._check_dim(h)
    cover = graphs.trivial_cover(g) if args.coloring == "trivial" else graphs.edge_coloring(g)
    if args.p == "proportional":
        cover = cover.with_proportional_probabilities()
    proto.build_protocol(h, cover, cli._load_design(args.design))


def _traced(ffv_args: list[str], job_id: str, spans_out: str) -> dict:
    """Run `ffv` in this process with every traced call wrapped; the command
    reaches its layers through module attributes, which `tracing.install`
    replaces, so the spans follow the job's own calls in the job's order."""
    import tracing
    from workloads import parse_output, tests_drawn

    tracer = tracing.Tracer(job_id)
    with tracer.span("cli.import"):
        from ffverify import cli
    wrapped = tracing.install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        exit_code = cli.main(ffv_args)
    wall_s = time.perf_counter() - _START
    stdout = captured.getvalue()
    layers = tracing.layer_metrics(tracer, wall_s)
    layers["simulate.tests_drawn"] = layers["simulate.tests_per_s"] = 0
    if ffv_args[0] == "simulate" and exit_code == 0:
        drawn = tests_drawn(parse_output("simulate", stdout)["per_run"])
        layers["simulate.tests_drawn"] = drawn
        run_s = layers["simulate.run_many_s"]
        layers["simulate.tests_per_s"] = drawn / run_s if run_s else 0.0
    write_start = time.perf_counter()
    with open(spans_out, "w") as fh:
        json.dump(tracer.to_json(), fh, separators=(",", ":"))
    return {"exit_code": exit_code, "stdout": stdout, "layers": layers, "wall_s": wall_s,
            "write_s": time.perf_counter() - write_start,
            "wrapped": wrapped, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--env", action="store_true")
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--trace", action="store_true")
    parser.add_argument("--job-id", default="job")
    parser.add_argument("--spans-out")
    parser.add_argument("ffv_args", nargs="*")
    args = parser.parse_args(argv)
    if args.env:
        print(json.dumps(environment()))
    elif args.setup:
        _setup(args.ffv_args)
    else:
        report = _traced(args.ffv_args, args.job_id, args.spans_out)
        print(json.dumps(report))
        return report["exit_code"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
