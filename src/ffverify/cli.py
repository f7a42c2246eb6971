"""Command-line front end.

Commands: gap, samples, compare, check-bounds, simulate.
Exit codes: 0 success, 2 input error, 3 resource error, 4 invariant violation,
each refusal with one diagnostic line of at most 160 characters (`_diagnose`).
Every output schema lives here: the CSV columns of each command, and
`_emit`, the one writer of CSV and JSON.  `gap` and `simulate` build their
protocol from the graph flags through `_build_protocol`; `simulate` prints
one row per run from the pass counts `simulate.run_many` returns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import aklt, detectability, graph as graphs, hamiltonian as ham
from . import protocol as proto
from . import simulate as sims
from .errors import InputError, InvariantViolation, ResourceError
from .tolerances import GROUND_TOL, check_dim, check_nodes

#: the documented gap of the infinite AKLT chain (finite-size gaps are never
#: extrapolated; pass --gamma explicitly for anything else)
DEFAULT_GAMMA_CHAIN = 0.350

#: the documented CSV schemas: rows of gap and samples, rows of compare, and
#: simulate's per-run rows
REPORT_COLUMNS = ("n", "m", "gamma", "nu_measured", "thm1_strong", "thm1_weak",
                  "thm2", "N", "N_strong", "N_weak", "HKSE", "BHSRE")
COMPARE_COLUMNS = ("n", "coloring_N", "HKSE_N", "BHSRE_N")
RUN_COLUMNS = ("run", "n_tests", "n_passed", "accepted", "seed")


def _build_graph(args) -> graphs.Hypergraph:
    picked = [f is not None for f in (args.chain, args.honeycomb, args.square, args.graph)]
    if sum(picked) != 1:
        raise InputError("pick exactly one of --chain, --honeycomb, --square, --graph")
    if args.closed and args.chain is None:
        raise InputError("--closed needs --chain")
    if args.periodic and args.honeycomb is None and args.square is None:
        raise InputError("--periodic needs --honeycomb or --square")
    # every AKLT node has dimension 2 or more, or is refused as isolated:
    # refuse too many nodes before building H, and a lattice before building
    # its graph (sizes below 1 are left to the constructors to refuse)
    if args.graph is not None:
        g = graphs.Hypergraph.from_file(args.graph)
        check_nodes(g.n_vertices)
        return g
    lattice = args.square if args.honeycomb is None else args.honeycomb
    w, h = (args.chain, 1) if args.chain is not None else _parse_wh(lattice)
    check_nodes((2 if args.honeycomb is not None else 1) * max(w, 0) * max(h, 0))
    if args.chain is not None:
        return graphs.chain(args.chain, closed=args.closed)
    if args.honeycomb is not None:
        return graphs.honeycomb_lattice(w, h, periodic=args.periodic)
    return graphs.square_lattice(w, h, periodic=args.periodic)


def _parse_wh(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise InputError(f"expected WxH, got {text!r}") from exc


def _load_design(name: str | None) -> aklt.DirectionDistribution | None:
    if name is None or name == "isotropic":
        return None
    if name in aklt.CATALOG_ORDERS:
        return aklt.design_catalog(name)
    return aklt.DirectionDistribution.from_file(name)


def _build_protocol(args) -> proto.Protocol:
    """The protocol the graph flags pick: the AKLT Hamiltonian on the graph,
    refused above FFV_MAX_DIM, and bond operators from --design on the cover
    --coloring and --p pick."""
    h = aklt.aklt_hamiltonian(_build_graph(args))
    _check_dim(h)
    mu = _load_design(args.design)
    g = h.graph
    cover = graphs.trivial_cover(g) if args.coloring == "trivial" else graphs.edge_coloring(g)
    if args.p == "proportional":
        cover = cover.with_proportional_probabilities()
    return proto.build_protocol(h, cover, mu)


def _refuse_zero_gap(protocol: proto.Protocol) -> None:
    """Refuse a protocol whose smallest bond gap nu_E is zero to rounding: its
    gap bounds and sample counts do not exist."""
    if protocol.nu_e < GROUND_TOL:
        raise InputError(f"the protocol's gap is zero: the design gives the bond gap "
                         f"nu_E = {protocol.nu_e:.1e} (below {GROUND_TOL:g})")


def _emit(args, data: list[dict] | dict, columns: tuple[str, ...]) -> None:
    """Write data as sorted-key JSON or, with --format csv, its rows as CSV:
    the header `columns`, then one line per row, missing or None cells blank.
    The text goes to --out as it is, or to stdout ending in one newline."""
    if args.format == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(["" if row.get(c) is None else row[c] for c in columns]
                         for row in data)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_dim(h: ham.FFHamiltonian) -> None:
    check_dim(h.dim, "Hilbert space")


def cmd_gap(args) -> int:
    protocol = _build_protocol(args)
    mu = protocol.design
    # the effective (symmetrized) design order governs homogeneity
    order = None if mu is None else aklt.design_order(mu)
    spins = {op.bond.twice_se for op in protocol.bond_ops.values()}
    twice_se_max = max(spins)
    if order is not None and twice_se_max > order:
        print(f"warning: design order {order} below 2*S_E = {twice_se_max}; "
              "bond operators will not be homogeneous", file=sys.stderr)
    if len(spins) > 1:
        # open-chain end bonds and other boundary bonds carry smaller total spin
        listed = ", ".join(str(t / 2) for t in sorted(spins))
        print(f"note: bond total spins vary across edges ({listed}); "
              "nu_E is the minimum bond gap", file=sys.stderr)
    _refuse_zero_gap(protocol)
    row = proto.gap_report(protocol, gamma=args.gamma).to_dict()
    row["N"] = proto.sample_count(row["nu_measured"], args.epsilon, args.delta)
    if row["m"] >= 2:
        row["N_strong"], row["N_weak"] = proto.sample_count_from_bounds(
            row["m"], row["nu_E"], args.epsilon, args.delta, row["gamma"], row["s"], row["g"])
    _emit(args, [row], REPORT_COLUMNS)
    return 0


def cmd_samples(args) -> int:
    row: dict = {"epsilon": args.epsilon, "delta": args.delta}
    if args.nu is not None:
        row["nu"] = args.nu
        row["N"] = proto.sample_count(args.nu, args.epsilon, args.delta)
    else:
        if None in (args.m, args.nu_e, args.gamma, args.s, args.g):
            raise InputError("--nu or all of --m --nu-e --gamma --s --g required")
        strong, weak = proto.matching_gap_bounds(args.m, args.nu_e, args.gamma,
                                                 args.s, args.g)
        n_strong, n_weak = proto.sample_count_from_bounds(
            args.m, args.nu_e, args.epsilon, args.delta, args.gamma, args.s, args.g)
        row.update({"m": args.m, "gamma": args.gamma,
                    "thm1_strong": strong, "thm1_weak": weak,
                    "N": proto.sample_count(strong, args.epsilon, args.delta),
                    "N_strong": n_strong, "N_weak": n_weak})
    _emit(args, [row], REPORT_COLUMNS)
    return 0


def cmd_compare(args) -> int:
    """Sample costs on even closed chains of 4 or more nodes (a closed chain
    needs 3): constant for the coloring protocol, polynomial growth for the
    competitors."""
    sizes = [n for n in range(args.n_min, args.n_max + 1, args.n_step) if n % 2 == 0 and n >= 4]
    if not sizes:
        raise InputError(f"--n-min {args.n_min} to --n-max {args.n_max} in steps of "
                         f"{args.n_step} holds no even chain length of 4 or more")
    rows = []
    n_strong, _ = proto.sample_count_from_bounds(
        m=2, nu_e=2.0 / 5.0, epsilon=args.epsilon, delta=args.delta,
        gamma=args.gamma, s=0.5, g=2)
    for n in sizes:  # a closed chain of n nodes has n edges
        rows.append({"n": n, "coloring_N": n_strong,
                     "HKSE_N": proto.hkse_cost(n, args.gamma, args.epsilon, args.delta),
                     "BHSRE_N": proto.bhsre_lower(n, args.gamma, args.epsilon, args.delta,
                                                  args.kappa, args.alpha)})
    if args.format == "csv":
        for r in rows:
            r["HKSE_N"], r["BHSRE_N"] = f"{r['HKSE_N']:.6e}", f"{r['BHSRE_N']:.6e}"
    _emit(args, rows, COMPARE_COLUMNS)
    return 0


def _check_bound_suite(seed: int, instances: int) -> list[tuple[str, bool, str]]:
    """Invariant checks on random instances plus the AKLT chain."""
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, str]] = []

    for i in range(instances):
        dims = [int(rng.integers(2, 4)) for _ in range(3)]
        h = ham.random_ff_instance(
            int(rng.integers(0, 2 ** 31)), nodes=(0, 1, 2), dims=dims,
            edges=((0, 1), (1, 2)), ground_rank=1)
        report = detectability.dl_norm_check(h)
        results.append((f"dl-chain[{i}]", report.passed,
                        f"measured {report.measured:.3e} bounds {report.bounds}"))

    for i in range(instances):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 33))
        ps = [detectability.random_projector(rng, dim, int(rng.integers(1, dim)))
              for _ in range(m)]
        check = detectability.union_gap_check(ps)
        results.append((f"union-gap[{i}]", check.passed,
                        f"gap {check.gap:.3e} rhs {check.rhs:.3e}"))

    if instances > 0:
        h = aklt.aklt_hamiltonian(graphs.chain(4, closed=True))
        protocol = proto.build_protocol(h, graphs.edge_coloring(h.graph),
                                        aklt.design_catalog("icosahedron"))
        report = proto.gap_report(protocol)
        results.append(("aklt-chain-4", report.passed,
                        f"nu {report.nu_measured:.4f} >= {report.thm1_strong:.4f}"))
        for name, order in aklt.CATALOG_ORDERS.items():
            mu = aklt.design_catalog(name)
            ok = aklt.is_design(mu, order) and not aklt.is_design(mu, order + 2)
            results.append((f"design-{name}", ok, f"order {order}"))
    return results


def cmd_check_bounds(args) -> int:
    results = _check_bound_suite(args.seed, args.instances)
    failures = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        raise InvariantViolation(f"{failures} checks failed")
    return 0


def cmd_simulate(args) -> int:
    protocol = _build_protocol(args)
    if not args.tests:  # the sample count needs a gap
        _refuse_zero_gap(protocol)
    state = sims.prepare_state(protocol, args.noise, args.noise_epsilon)

    exact = sims.acceptance_probability(protocol, state)
    nu = proto.measured_gap(protocol)
    n_tests = args.tests or proto.sample_count(nu, args.epsilon, args.delta)
    rate, stderr = sims.estimate_pass_rate(protocol, state, args.pass_draws, args.seed)
    passed = sims.run_many(exact, n_tests, args.runs, args.seed)
    # CSV writes acceptance as 1 or 0, JSON as a boolean
    flag = int if args.format == "csv" else bool
    records = [{"run": i, "n_tests": n_tests, "n_passed": k,
                "accepted": flag(k == n_tests), "seed": args.seed}
               for i, k in enumerate(passed)]
    if args.format == "csv":
        data = records
    else:
        data = {"nu": nu, "exact_pass_probability": exact, "empirical_pass_rate": rate,
                "pass_rate_stderr": stderr, "n_tests": n_tests, "delta": args.delta,
                **sims.aggregate(passed, n_tests), "per_run": records}
    _emit(args, data, RUN_COLUMNS)
    return 0


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chain", type=int, metavar="N", help="chain on N vertices")
    p.add_argument("--closed", action="store_true", help="close the chain into a cycle")
    p.add_argument("--honeycomb", metavar="WxH", help="honeycomb patch of WxH cells")
    p.add_argument("--square", metavar="WxH", help="square-lattice patch")
    p.add_argument("--periodic", action="store_true", help="periodic lattice patches")
    p.add_argument("--graph", metavar="FILE", help="graph JSON file")
    p.add_argument("--design", default="icosahedron",
                   help="design name, design JSON file, or 'isotropic'")
    p.add_argument("--coloring", choices=("auto", "trivial"), default="auto")
    p.add_argument("--p", choices=("uniform", "proportional"), default="uniform")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    """The flags of commands that size a sample count and write a report."""
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffv",
        description="Construct and analyze verification protocols for ground "
                    "states of frustration-free Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="measure a protocol gap and its lower bounds")
    _add_graph_flags(p)
    _add_report_flags(p)
    # gap draws nothing at random; it accepts --seed because
    # benchmarks/workloads.py (Workload.ffv_args) appends one to every job
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, help="override the reported Hamiltonian "
                   "gap gamma (H is still solved for its ground space)")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("samples", help="closed-form sample counts")
    _add_report_flags(p)
    p.add_argument("--nu", type=float, help="known verification gap")
    p.add_argument("--m", type=int, help="number of matchings")
    p.add_argument("--nu-e", dest="nu_e", type=float, help="minimum bond gap")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA_CHAIN,
                   help=f"Hamiltonian gap (default {DEFAULT_GAMMA_CHAIN}, the infinite "
                        "chain's)")
    p.add_argument("--s", type=float, help="largest nonunit pair singular value")
    p.add_argument("--g", type=int, help="max number of noncommuting neighbors")
    p.set_defaults(func=cmd_samples)

    p = sub.add_parser("compare", help="sample-cost comparison table on even closed chains")
    _add_report_flags(p)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA_CHAIN)
    p.add_argument("--kappa", type=int, default=2)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n-min", type=int, default=20)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--n-step", type=int, default=20)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-bounds", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=25)
    p.set_defaults(func=cmd_check_bounds)

    p = sub.add_parser("simulate", help="Monte-Carlo verification runs")
    _add_graph_flags(p)
    _add_report_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=sims.NOISE_MODES, default="worst_case")
    p.add_argument("--noise-epsilon", type=float, default=0.05,
                   help="infidelity of the prepared state")
    p.add_argument("--tests", type=int, help="tests per run (default: from the gap)")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--pass-draws", type=int, default=10000,
                   help="draws for the single-test pass-rate estimate")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's multinomial takes --pass-draws as a C long
        for flag, least, most in (("tests", 1, None), ("runs", 0, None), ("instances", 0, None),
                                  ("n_min", 1, None), ("n_step", 1, None),
                                  ("pass_draws", 1, 2 ** 63 - 1), ("seed", 0, None)):
            value = getattr(args, flag, None)  # None in commands without the flag
            if value is not None and not least <= value <= (most or value):
                bound = f"at least {least}" if value < least else f"at most {most}"
                raise InputError(f"--{flag.replace('_', '-')} must be {bound}")
        return args.func(args)
    except (InputError, OSError) as exc:
        _diagnose("error", exc)
        return 2
    except ResourceError as exc:
        _diagnose("resource error", exc)
        return 3
    except InvariantViolation as exc:
        _diagnose("invariant violation", exc)
        return 4


def _diagnose(kind: str, exc: Exception) -> None:
    """Print the one diagnostic line, `kind: message`.  Past 160 characters
    (a long path, say) it keeps its first 100 and last 55 around " ... "."""
    line = f"{kind}: {exc}"
    if len(line) > 160:
        line = f"{line[:100]} ... {line[-55:]}"
    print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
