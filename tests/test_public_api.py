"""Every public name of ffverify, and every optional parameter of a public
function or method, has a production caller.

A public name is a module-level function or class of `src/ffverify/` whose
name does not start with an underscore, a public method of such a class, or
a name `__init__.py` exports.  Its callers are the package's other modules,
the benchmark scripts and the acceptance suite; the unit tests do not count,
so a utility only they call shows here.  A reference is the name as an
identifier or an attribute anywhere in those files; definitions and imports
are not references, and neither is a benchmark script's reference to a name
the benchmark scripts define themselves (`tracer.to_json()` calls their own
method, not a package one).  An optional parameter is passed by a call to a callee
of its function's name that gives it by keyword, reaches its position, or
unpacks `*args` or `**kwargs`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffverify"
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
CALLERS = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + BENCHMARKS + [ROOT / "tests" / "test_acceptance.py"])


def public_names() -> dict[str, str]:
    """Qualified name -> the identifier a reference would use."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                names.update({f"{node.module}.{a.name}": a.name for a in node.names})
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                names.update({f"{path.stem}.{node.name}.{f.name}": f.name for f in node.body
                              if isinstance(f, ast.FunctionDef)
                              and not f.name.startswith("_")})
    return names


def referenced(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def defined(path: Path) -> set[str]:
    """Names of the functions, methods and classes the file defines."""
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_every_public_name_has_a_production_caller():
    names = public_names()
    assert {"graph.MatchingCover.covers", "simulate.run_many", "errors.InputError"} <= set(names)
    own = set().union(*(defined(path) for path in BENCHMARKS))
    used = set().union(*(referenced(path) - (own if path in BENCHMARKS else set())
                         for path in CALLERS))
    missing = sorted(q for q, name in names.items() if name not in used)
    assert not missing, f"{len(missing)} public names have no production caller: {missing}"


def optional_parameters() -> dict[str, tuple[str, int | None]]:
    """Qualified parameter -> (its keyword, its position among the arguments
    a call passes, or None when it is keyword-only), for every defaulted
    parameter of a public module-level function or of a public method of a
    public class."""
    out = {}

    def add(qualified: str, fn: ast.FunctionDef, bound: bool):
        args = fn.args
        positional = args.posonlyargs + args.args
        if bound:
            positional = positional[1:]
        for i, a in enumerate(positional[len(positional) - len(args.defaults):],
                              start=len(positional) - len(args.defaults)):
            out[f"{qualified}.{a.arg}"] = (a.arg, i)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{qualified}.{a.arg}"] = (a.arg, None)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(f"{path.stem}.{node.name}", node, bound=False)
                continue
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    add(f"{path.stem}.{node.name}.{f.name}", f, bound=not static)
    return out


def passed_parameters(path: Path) -> set[tuple[str, str | int]]:
    """(callee name, keyword) and (callee name, position) for every argument
    a call in the file passes; a starred argument or ** mapping passes
    every keyword and position, written (callee name, "*")."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        for i, a in enumerate(node.args):
            out.add((name, "*" if isinstance(a, ast.Starred) else i))
        for k in node.keywords:
            out.add((name, "*" if k.arg is None else k.arg))
    return out


def test_every_optional_parameter_has_a_production_caller():
    params = optional_parameters()
    assert {"protocol.gap_report.gamma", "graph.chain.closed"} <= set(params)
    passed = set().union(*(passed_parameters(path) for path in CALLERS))
    missing = []
    for qualified, (keyword, position) in sorted(params.items()):
        callee = qualified.split(".")[-2]
        if not {(callee, keyword), (callee, position), (callee, "*")} & passed:
            missing.append(qualified)
    assert not missing, \
        f"{len(missing)} optional parameters have no production caller: {missing}"
