"""Every public name of ffverify has a production caller.

A public name is a module-level function or class of `src/ffverify/` whose
name does not start with an underscore, a public method of such a class, or
a name `__init__.py` exports.  Its callers are the package's other modules,
the benchmark scripts and the acceptance suite; the unit tests do not count,
so a utility only they call shows here.  A reference is the name as an
identifier or an attribute anywhere in those files; definitions and imports
are not references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffverify"
CALLERS = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "benchmarks").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


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


def test_every_public_name_has_a_production_caller():
    names = public_names()
    assert {"graph.MatchingCover.covers", "simulate.run_many", "errors.InputError"} <= set(names)
    used = set().union(*(referenced(path) for path in CALLERS))
    missing = sorted(q for q, name in names.items() if name not in used)
    assert not missing, f"{len(missing)} public names have no production caller: {missing}"
