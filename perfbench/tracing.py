"""In-memory span tracing of one degenma CLI invocation.

``instrument(tracer)`` wraps every public function the package modules define,
plus scipy's ``splu`` and the ``SuperLU.solve`` of the factors it returns, in
spans. Nothing in the package is edited: the wrappers are patched into every
module namespace that holds the function (``ma`` imports ``assemble_operator``
by name, ``cli`` imports ``run``) and the originals are put back on exit.
``call.py`` installs it in the fresh interpreter of each traced call.

``layer_metrics`` turns the spans of one invocation into the benchmark's
per-layer metrics. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("analytic", "grid", "grushin", "ma", "plegendre", "experiments", "cli")

# The one private function traced on top of the public ones: it writes
# metrics.csv and summary.json.
OUTPUT = "experiments._write_outputs"

SPLU = "scipy.splu"
TRISOLVE = "scipy.SuperLU.solve"
BOOKKEEPING = "trace.bookkeeping"
OVERHEAD = "trace.overhead_ratio"

# Per-layer metric names, in report order.
METRICS = {
    "grushin.solve_s": "s",
    "grushin.solve_calls": "count",
    "grushin.assemble_s": "s",
    "grushin.factor_s": "s",
    "grushin.factor_calls": "count",
    "grushin.factor_unique_ratio": "ratio",
    "grushin.factor_fill_nnz": "count",
    "grushin.trisolve_s": "s",
    "grushin.boundary_s": "s",
    "grushin.diagnostics_s": "s",
    "ma.solve_s": "s",
    "ma.iterations": "count",
    "ma.iter_ms": "ms",
    "ma.factor_s": "s",
    "ma.trisolve_s": "s",
    "ma.trisolve_calls": "count",
    "ma.self_s": "s",
    "ma.det_residual": "abs",
    "ma.identity_residual": "abs",
    "plegendre.transform_s": "s",
    "plegendre.residual_s": "s",
    "grid.write_csv_s": "s",
    "grid.write_csv_rows": "count",
    "grid.write_csv_mb_per_s": "MB/s",
    "analytic.eta_eps_s": "s",
    "analytic.section_s": "s",
    "analytic.ode_s": "s",
    "experiments.output_s": "s",
    "experiments.self_s": "s",
    OVERHEAD: "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a root span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one traced invocation in memory, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fill_nnz: dict[str, int] = {}  # matrix digest -> L.nnz + U.nnz
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, 0.0, parent=self._open[-1] if self._open else -1)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(rec, args, kwargs, result)
            return result

        return traced


class _TracedLU:
    """Proxy for a SuperLU object that times each ``solve``."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span(TRISOLVE):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_splu(tracer: Tracer, splu):
    @functools.wraps(splu)
    def traced(a, *args, **kwargs):
        with tracer.span(SPLU) as rec:
            lu = splu(a, *args, **kwargs)
        # Matrix identity and fill-in cost time of their own; a child span
        # keeps that time out of the caller's self time. Extracting L and U
        # copies the factors, so fill is computed once per distinct matrix.
        with tracer.span(BOOKKEEPING):
            digest = hashlib.blake2b(repr((a.format, a.shape)).encode(), digest_size=16)
            for part in (a.indptr, a.indices, a.data):
                digest.update(part.tobytes())
            key = rec.attrs["matrix"] = digest.hexdigest()
            if key not in tracer.fill_nnz:
                tracer.fill_nnz[key] = int(lu.L.nnz + lu.U.nnz)
            rec.attrs["fill_nnz"] = tracer.fill_nnz[key]
        return _TracedLU(lu, tracer)

    return traced


def _note_ma_report(rec, args, kwargs, result):
    report = result[1]
    rec.attrs["iterations"] = int(report.iterations)
    for key in ("det_residual", "identity_residual"):
        rec.attrs[key] = float(report.extras.get(key, 0.0))


def _note_csv_size(rec, args, kwargs, result):
    u = args[0] if args else kwargs["u"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.attrs["rows"] = int(u.spec.nx * u.spec.ny)
    rec.attrs["bytes"] = os.path.getsize(path)


ANNOTATE = {"ma.ma_solve_dirichlet": _note_ma_report, "grid.write_csv": _note_csv_size}


def traced_functions() -> dict[str, object]:
    """Span name -> original function for every traced package function."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"degenma.{short}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                found[f"{short}.{attr}"] = fn
    found[OUTPUT] = importlib.import_module("degenma.experiments")._write_outputs
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Patch span wrappers into every namespace that holds a traced function;
    restore the originals on exit, also when the body raises."""
    import scipy.sparse.linalg as spla

    wrappers = {}
    for name, fn in traced_functions().items():
        wrappers[id(fn)] = tracer.wrap(name, fn, ANNOTATE.get(name))
    wrappers[id(spla.splu)] = _traced_splu(tracer, spla.splu)

    namespaces = [spla] + [m for n, m in sorted(sys.modules.items()) if n == "degenma" or n.startswith("degenma.")]
    patched = []
    try:
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def covered_time(spans: list[Span], names) -> float:
    """Time inside spans with one of ``names``, counting a span nested in
    another of them once and leaving out the tracer's own bookkeeping."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name in names and not _has_ancestor(spans, s, names):
            total += s.duration
        elif s.name == BOOKKEEPING and _has_ancestor(spans, s, names):
            total -= s.duration
    return total


def _has_ancestor(spans, s, names) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def layer_of(spans: list[Span], i: int) -> str:
    """Layer a span belongs to; scipy calls belong to the layer that made them."""
    while i >= 0:
        head = spans[i].name.split(".", 1)[0]
        if head not in ("scipy", "trace"):
            return "experiments" if head == "cli" else head
        i = spans[i].parent
    return "experiments"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every name in METRICS but trace.overhead_ratio, which needs untraced
    calls, for one traced invocation; 0 where a layer did not run."""
    selfs = self_times(spans)
    out = dict.fromkeys(METRICS, 0.0)
    del out[OVERHEAD]

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def called_from(name, layer):
        return [i for i in named(name) if layer_of(spans, i) == layer]

    def total(idx):
        return sum(spans[i].duration for i in idx)

    factors = called_from(SPLU, "grushin")
    out["grushin.factor_s"] = total(factors)
    out["grushin.factor_calls"] = len(factors)
    out["grushin.factor_fill_nnz"] = sum(spans[i].attrs["fill_nnz"] for i in factors)
    if factors:
        out["grushin.factor_unique_ratio"] = len({spans[i].attrs["matrix"] for i in factors}) / len(factors)
    out["grushin.trisolve_s"] = total(called_from(TRISOLVE, "grushin"))
    out["ma.factor_s"] = total(called_from(SPLU, "ma"))
    ma_trisolves = called_from(TRISOLVE, "ma")
    out["ma.trisolve_s"] = total(ma_trisolves)
    out["ma.trisolve_calls"] = len(ma_trisolves)

    out["grushin.solve_s"] = covered_time(spans, ["grushin.solve_dirichlet"])
    out["grushin.solve_calls"] = len(named("grushin.solve_dirichlet"))
    out["grushin.assemble_s"] = covered_time(spans, ["grushin.assemble_operator"])
    out["grushin.boundary_s"] = covered_time(spans, ["grushin.boundary_array"])
    out["grushin.diagnostics_s"] = covered_time(
        spans, ["grushin.harnack_quotient", "grushin.section_node_mask", "grushin.holder_estimate"]
    )

    ma_solves = named("ma.ma_solve_dirichlet")
    out["ma.solve_s"] = covered_time(spans, ["ma.ma_solve_dirichlet"])
    out["ma.iterations"] = sum(spans[i].attrs.get("iterations", 0) for i in ma_solves)
    if out["ma.iterations"]:
        out["ma.iter_ms"] = 1e3 * out["ma.solve_s"] / out["ma.iterations"]
    out["ma.self_s"] = sum(selfs[i] for i in ma_solves)
    for key in ("det_residual", "identity_residual"):
        out[f"ma.{key}"] = max((spans[i].attrs.get(key, 0.0) for i in ma_solves), default=0.0)

    out["plegendre.transform_s"] = covered_time(spans, ["plegendre.forward_transform"])
    out["plegendre.residual_s"] = covered_time(spans, ["plegendre.grushin_residual"])

    writes = named("grid.write_csv")
    out["grid.write_csv_s"] = total(writes)
    out["grid.write_csv_rows"] = sum(spans[i].attrs.get("rows", 0) for i in writes)
    if out["grid.write_csv_s"] > 0:
        written = sum(spans[i].attrs.get("bytes", 0) for i in writes)
        out["grid.write_csv_mb_per_s"] = written / 1e6 / out["grid.write_csv_s"]

    out["analytic.eta_eps_s"] = covered_time(spans, ["analytic.eta_eps"])
    out["analytic.section_s"] = covered_time(
        spans, ["analytic.section_contains", "analytic.section_bbox", "analytic.section_sample_pairs"]
    )
    out["analytic.ode_s"] = covered_time(
        spans, ["analytic.ode_integrate", "analytic.ode_solution_eval", "analytic.ode_residual"]
    )

    out["experiments.output_s"] = covered_time(spans, [OUTPUT])
    out["experiments.self_s"] = sum(
        selfs[i]
        for i, s in enumerate(spans)
        if s.name.split(".", 1)[0] in ("experiments", "cli")
        and s.name != OUTPUT
        and not _has_ancestor(spans, s, {OUTPUT})
    )
    return out


def self_time_shares(spans: list[Span], wall_s: float) -> list[tuple[str, float, float]]:
    """(span name, summed self time, share of wall) sorted by self time; scipy
    spans are named after the layer that called them."""
    totals: dict[str, float] = {}
    for i, (s, t) in enumerate(zip(spans, self_times(spans))):
        name = s.name
        if name in (SPLU, TRISOLVE):
            name = f"{layer_of(spans, i)}:{name}"
        totals[name] = totals.get(name, 0.0) + t
    return sorted(((n, t, t / wall_s) for n, t in totals.items()), key=lambda r: -r[1])
