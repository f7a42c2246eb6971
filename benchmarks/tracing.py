"""Spans around calls into ffverify, installed from outside the package.

`install` wraps every public function of the traced modules, and the
matvec methods named in `METHODS`, in every ffverify namespace that holds a
reference to them.  Spans are kept in memory; `layer_metrics` reduces them to
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("graph", "aklt", "hamiltonian", "linalg", "protocol",
                  "detectability", "simulate")

#: (module, class, method) wrapped in addition to the module-level functions
METHODS = (("hamiltonian", "FFHamiltonian", "apply"),
           ("hamiltonian", "FFHamiltonian", "apply_edge"),
           ("protocol", "Protocol", "apply_omega"))

APPLY = "hamiltonian.FFHamiltonian.apply"
APPLY_EDGE = "hamiltonian.FFHamiltonian.apply_edge"
OMEGA = "protocol.Protocol.apply_omega"
DENSE = frozenset({"linalg.eigh", "linalg.operator_norm", "linalg.singular_values",
                   "linalg.embed"})
KRYLOV = frozenset({"linalg.lowest_eigenpairs", "linalg.largest_eigenvalue",
                    "linalg.largest_eigenpair", "linalg.product_operator_norm"})
MATVECS = frozenset({APPLY, APPLY_EDGE, OMEGA})

#: per-layer time metric -> span names whose outermost calls it sums
TIMED = {
    "aklt.hamiltonian_s": {"aklt.aklt_hamiltonian"},
    "protocol.build_s": {"protocol.build_protocol"},
    "hamiltonian.commutation_s": {"hamiltonian.commutation_structure"},
    "hamiltonian.gamma_s": {"hamiltonian.spectral_gap_gamma"},
    "hamiltonian.ground_s": {"hamiltonian.ground_space"},
    "hamiltonian.apply_s": {APPLY},
    "protocol.nu_s": {"protocol.measured_gap"},
    "protocol.omega_s": {OMEGA},
    "linalg.dense_s": DENSE,
    "linalg.krylov_s": KRYLOV,
    "detectability.dl_s": {"detectability.dl_norm_check"},
    "detectability.union_s": {"detectability.union_gap_check"},
    "hamiltonian.random_instance_s": {"hamiltonian.random_ff_instance"},
    "aklt.design_check_s": {"aklt.is_design"},
    "simulate.prepare_s": {"simulate.prepare_state"},
    "simulate.exact_s": {"simulate.acceptance_probability"},
    "simulate.estimate_s": {"simulate.estimate_pass_rate"},
    "simulate.run_many_s": {"simulate.run_many"},
}

#: per-layer count metric -> (span names, outermost calls only)
COUNTED = {
    "hamiltonian.apply_calls": ({APPLY}, False),
    "hamiltonian.apply_edge_calls": ({APPLY_EDGE}, False),
    "protocol.omega_calls": ({OMEGA}, False),
    "linalg.dense_calls": (DENSE, True),
    "linalg.krylov_calls": (KRYLOV, True),
}


class Tracer:
    """In-memory span recorder: (name, parent index, start, end) per call."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list = []
        self._stack: list[int] = []
        self.apply_bytes = 0  # computed: 2 x edges x input nbytes per H apply

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if on_call is not None:
                on_call(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def span(self, name: str):
        """Context manager for a span around code that is not a call."""
        return _Span(self, name)

    def to_json(self) -> dict:
        return {"job_id": self.job_id,
                "fields": ["name", "parent", "start", "end"],
                "spans": self.spans}


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, self.parent, self.start, end)
        return False


def install(tracer: Tracer) -> int:
    """Wrap the traced functions and methods; returns how many were wrapped."""
    wrapped = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"ffverify.{short}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    namespaces = [m for name, m in sys.modules.items()
                  if name == "ffverify" or name.startswith("ffverify.")]
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    def count_apply_bytes(h, vec):
        tracer.apply_bytes += 2 * len(h.graph.edges) * vec.nbytes

    for short, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"ffverify.{short}"), cls_name)
        name = f"{short}.{cls_name}.{method}"
        hook = count_apply_bytes if name == APPLY else None
        setattr(cls, method, tracer.wrap(name, getattr(cls, method), hook))
    return len(wrapped) + len(METHODS)


def _outermost(spans, names) -> list[int]:
    """Indices of spans named in `names` with no ancestor named in `names`."""
    out = []
    for i, (name, parent, _, _) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            out.append(i)
    return out


def _inside(spans, index: int, names) -> bool:
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer times (s), counts and ratios from the recorded spans."""
    spans = tracer.spans

    def total(indices):
        return sum(spans[i][3] - spans[i][2] for i in indices)

    out: dict[str, float] = {}
    for metric, names in TIMED.items():
        out[metric] = total(_outermost(spans, names))
    for metric, (names, outermost_only) in COUNTED.items():
        if outermost_only:
            out[metric] = len(_outermost(spans, names))
        else:
            out[metric] = sum(1 for s in spans if s[0] in names)

    top = [i for i, s in enumerate(spans) if s[1] == -1]
    out["cli.import_s"] = total(i for i in top if spans[i][0] == "cli.import")
    out["graph.build_s"] = total(i for i in top if spans[i][0].startswith("graph."))
    matvecs_in_krylov = [i for i in _outermost(spans, MATVECS)
                         if _inside(spans, i, KRYLOV)]
    out["linalg.krylov_self_s"] = out["linalg.krylov_s"] - total(matvecs_in_krylov)
    apply_s = out["hamiltonian.apply_s"]
    out["hamiltonian.apply_gb_per_s"] = tracer.apply_bytes / apply_s / 1e9 if apply_s else 0.0
    out["bench.span_coverage"] = total(top) / wall_s if wall_s > 0 else 0.0
    return out
