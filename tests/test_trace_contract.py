"""The names the benchmark's tracer and set-up probe reach into ffverify by.

`tracing.install` wraps only the names that exist and skips the rest without
a word, so a renamed function would read as a per-layer metric of zero.
These tests load the two benchmark scripts read-only and resolve every name
they use, and check that each eigensolve goes through a traced name, that
building an instance builds no solve space, that `gap` builds no full-space
vector on the sector path, that the coherent rotation compiles one plan per
spin state, and that no module touches BLAS threads.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name: str, monkeypatch):
    """The benchmark script as a module, without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return load("tracing", monkeypatch)


@pytest.fixture
def replay(monkeypatch):
    return load("replay", monkeypatch)


def traced_names(tracing) -> set[str]:
    names = set(tracing.DENSE) | set(tracing.KRYLOV)
    for group in tracing.TIMED.values():
        names |= set(group)
    for group, _ in tracing.COUNTED.values():
        names |= set(group)
    names |= {".".join(m) for m in tracing.METHODS}
    return names


def test_every_traced_name_resolves(tracing):
    names = traced_names(tracing)
    assert "protocol.measured_gap" in names and "hamiltonian.ground_space" in names
    for name in sorted(names):
        short, *path = name.split(".")
        assert short in tracing.TRACED_MODULES, name
        module = importlib.import_module(f"ffverify.{short}")
        if len(path) == 1:
            # the filter `install` applies to module-level functions
            obj = getattr(module, path[0], None)
            assert inspect.isfunction(obj), f"{name} is not a function of ffverify.{short}"
            assert obj.__module__ == module.__name__ and not path[0].startswith("_"), name
        else:
            cls_name, method = path
            cls = getattr(module, cls_name, None)
            assert inspect.isclass(cls), f"{name}: no class {cls_name}"
            assert inspect.isfunction(getattr(cls, method, None)), f"{name} is not a method"


def test_setup_probe_names_resolve(replay):
    from ffverify import aklt, cli, graph, protocol

    aliases = {"aklt": aklt, "cli": cli, "graphs": graph, "proto": protocol}
    source = inspect.getsource(replay._setup)
    used = set(re.findall(r"\b(aklt|cli|graphs|proto)\.(\w+)", source))
    cli_names = {attr for alias, attr in used if alias == "cli"}
    assert {"build_parser", "_build_graph", "_check_dim", "_load_design"} <= cli_names
    for alias, attr in sorted(used):
        assert callable(getattr(aliases[alias], attr, None)), f"{alias}.{attr}"


def solve_sites():
    from ffverify import detectability, hamiltonian, protocol

    return {"FFHamiltonian._low_spectrum": hamiltonian.FFHamiltonian._low_spectrum.func,
            "Protocol._top_excited": protocol.Protocol._top_excited.func,
            "detectability._product_norm_sq": detectability._product_norm_sq}


#: linalg helpers the solve sites may call besides the traced solvers
UNTRACED_HELPERS = {"deflate"}
#: eigensolver names that, called directly, would bypass the traced wrappers
SOLVER_NAMES = {"_eigsh", "eigh", "eigsh", "eigs", "eigvalsh", "lobpcg", "svd", "svdvals"}


@pytest.mark.parametrize("site", sorted(solve_sites()))
def test_solves_go_through_traced_names(tracing, site):
    """A solve sent through a new untraced name would otherwise show only as
    a lower linalg.krylov_calls."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(solve_sites()[site])))
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    via_linalg = {node.attr for node in attributes
                  if isinstance(node.value, ast.Name) and node.value.id == "linalg"}
    krylov = {name.split(".", 1)[1] for name in tracing.KRYLOV}
    assert via_linalg & krylov, f"{site} calls no traced solver"
    assert via_linalg <= krylov | UNTRACED_HELPERS, via_linalg - krylov
    assert not {node.attr for node in attributes} & SOLVER_NAMES
    assert "scipy" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_sector_basis_rebuild_uses_traced_eigh(tracing):
    """The sector solves run inside the solve sites above; rebuilding the full
    ground basis from the sector's kernel diagonalizes one small Gram matrix,
    through linalg's traced `eigh` and no untraced solver."""
    from ffverify import linalg

    tree = ast.parse(textwrap.dedent(inspect.getsource(linalg.Sector.multiplets)))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "eigh" in called and "linalg.eigh" in tracing.DENSE
    assert not {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} \
        & SOLVER_NAMES


def test_setup_probe_builds_no_solve_space(replay, monkeypatch):
    """`aklt_hamiltonian` and `build_protocol` leave the sector, its plans and
    the solves to the first solve, so set-up time does not include them."""
    from ffverify import protocol

    built = []
    build = protocol.build_protocol

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(protocol, "build_protocol", capture)
    replay._setup(["gap", "--chain", "6", "--closed"])
    (p,) = built
    solves = {"_low_spectrum", "_top_excited"}
    lazy = {"sector", "_sector_plans"}
    assert not solves & (set(vars(p.hamiltonian)) | set(vars(p)))
    assert not lazy & (set(vars(p.hamiltonian.local)) | set(vars(p.local)))
    protocol.measured_gap(p)
    assert lazy <= set(vars(p.hamiltonian.local)) & set(vars(p.local))


def test_no_module_sets_blas_threads():
    """BLAS threads are numpy's: no module loads a shared library, reads the
    process's memory map or sets a thread count."""
    import ffverify

    package = Path(ffverify.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        for word in ("set_num_threads", "ctypes", "/proc/self/maps"):
            assert word not in text, f"{path.name} mentions {word}"


def test_sector_path_builds_no_full_space_plans(icosahedron):
    """On the sector path only the ladder operators of `Sector.multiplets` act
    on full-space vectors: H's and Omega's dtypes come from their matrices, not
    from full-space plans, and the detectability-lemma product runs in H's
    sector."""
    from ffverify import aklt, detectability, graph, hamiltonian, protocol

    h = aklt.aklt_hamiltonian(graph.chain(6, closed=True))
    p = protocol.build_protocol(h, graph.edge_coloring(h.graph), icosahedron)
    hamiltonian.ground_space(h)
    protocol.measured_gap(p)
    detectability.dl_norm_check(h)
    assert h.local.sector is not None and p.local.sector is not None
    assert "_full_plans" not in set(vars(h.local)) | set(vars(p.local))


def test_product_gram_apply_deflates_twice(monkeypatch):
    """The detectability-lemma product is M = (1-P_1)...(1-P_q)(1 - Q0): one
    apply of M^dagger M deflates once in M and once in M^dagger, and applies
    every projector once in each."""
    from ffverify import aklt, detectability, graph, hamiltonian, linalg

    h = aklt.aklt_hamiltonian(graph.chain(6, closed=True))
    operators = []
    norm = linalg.product_operator_norm

    def capture(apply_m, apply_m_adjoint, dim):
        operators.append((apply_m, apply_m_adjoint, dim))
        return norm(apply_m, apply_m_adjoint, dim)

    monkeypatch.setattr(linalg, "product_operator_norm", capture)
    detectability.dl_norm_check(h)
    ((apply_m, apply_m_adjoint, dim),) = operators
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "deflate", counting("deflate", linalg.deflate))
    monkeypatch.setattr(hamiltonian.FFHamiltonian, "apply_edge",
                        counting("apply_edge", hamiltonian.FFHamiltonian.apply_edge))
    apply_m_adjoint(apply_m(np.ones(dim)))
    assert calls.count("deflate") == 2
    assert calls.count("apply_edge") == 2 * len(h.graph.edges)


@pytest.fixture
def full_space_calls(monkeypatch):
    """(name, shape of the first array argument) of each call that builds
    full-space vectors or plans, as they run."""
    from ffverify import linalg

    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, next(a.shape for a in args if isinstance(a, np.ndarray))))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("multiplets", "lift"):
        monkeypatch.setattr(linalg.Sector, name, recording(name, getattr(linalg.Sector, name)))
    monkeypatch.setattr(linalg, "make_plan", recording("make_plan", linalg.make_plan))
    return calls


def test_gap_stays_in_the_sector(icosahedron, full_space_calls):
    """gamma, nu and the detectability-lemma product need only H's kernel in
    the sector: `gap_report` and `dl_norm_check` build no full ground basis,
    lift no vector and compile no full-space plan."""
    from ffverify import aklt, detectability, graph, protocol

    h = aklt.aklt_hamiltonian(graph.chain(6, closed=True))
    p = protocol.build_protocol(h, graph.edge_coloring(h.graph), icosahedron)
    protocol.gap_report(p)
    detectability.dl_norm_check(h)
    assert full_space_calls == []
    assert h.local.sector is not None and p.local.sector is h.local.sector
    assert "_full_plans" not in set(vars(h.local)) | set(vars(p.local))


def test_worst_case_state_lifts_once(icosahedron, full_space_calls):
    """The worst-case state needs Omega's top eigenvector in the full space and
    no ground basis, since its target part passes every test surely: one lift
    of the eigenvector, however often it is read, and no `multiplets` call."""
    from ffverify import aklt, graph, protocol, simulate

    h = aklt.aklt_hamiltonian(graph.chain(6, closed=True))
    p = protocol.build_protocol(h, graph.edge_coloring(h.graph), icosahedron)
    state = simulate.prepare_state(p, "worst_case", 0.1)
    simulate.prepare_state(p, "worst_case", 0.1)
    protocol.measured_gap(p)
    sector_dim = h.local.sector.dim
    assert [c for c in full_space_calls if c[0] != "make_plan"] == [("lift", (sector_dim,))]
    (weight, phi), = state.ensemble
    assert weight == 0.1 and phi is protocol.top_excited_pair(p)[1]


@pytest.mark.parametrize("eps", [0.05, 0.9995])
def test_coherent_rotation_compiles_one_plan_per_spin_state(icosahedron, full_space_calls, eps):
    """The coherent rotation's calibration costs 2S + 1 passes over the state
    (one plan per S_x eigenvector of node 0), whatever eps is: the angle is
    solved on their ground-space overlaps, not on rotated states."""
    from ffverify import aklt, graph, hamiltonian, protocol, simulate

    h = aklt.aklt_hamiltonian(graph.chain(4, closed=True))
    p = protocol.build_protocol(h, graph.edge_coloring(h.graph), icosahedron)
    hamiltonian.ground_space(h)
    full_space_calls.clear()
    simulate.prepare_state(p, "coherent_rotation", eps)
    assert [c for c in full_space_calls if c[0] == "make_plan"] == [("make_plan", (3, 3))] * 3
