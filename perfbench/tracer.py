"""Per-layer tracing of lsurf from outside the library.

The tracer swaps wrappers in for public names of the layers.  A span wrapper
records name, start, end, parent span and op index; a count wrapper only
counts calls (it is used on the hot primitives, where timing every call
would cost more than the call).  ``from .surface import apply_A`` binds the
function once per consumer module, so a module-level name is replaced in
every lsurf module that holds the same object, not only where it is defined.

Self time is a span's duration minus the time its child spans cover; it is
accumulated as spans close.  Spans stay in memory and are written out by
:meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import lsurf.lemmas as lemmas
import lsurf.modn as modn
import lsurf.quadfield as quadfield
import lsurf.reduce as reduction
import lsurf.sampling as sampling
import lsurf.schreier as schreier
import lsurf.spectral as spectral

# the package re-exports the function surface(), which shadows the module
# in ``import lsurf.surface as surface``
surface = importlib.import_module("lsurf.surface")

CHECK_NAMES = tuple(check.__name__ for check in lemmas.ALL_CHECKS)

REDUCE_CASES = {
    reduction.CASE_B_PERIODIC: "reduce.case.b_periodic",
    reduction.CASE_A_PERIODIC: "reduce.case.a_periodic",
    reduction.CASE_SHRINK_Y: "reduce.case.shrink_y",
    reduction.CASE_SHRINK_X: "reduce.case.shrink_x",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- hooks: counts read off a wrapped call's arguments or result -------------


def _on_apply(counts: Counter, args, kwargs, result) -> None:
    # apply_A(P, k) and apply_B(P, l)
    exponent = args[1] if len(args) > 1 else kwargs.get("k", kwargs.get("l"))
    counts["surface.apply.abs_exp"] += abs(exponent)


def _on_reduce(counts: Counter, args, kwargs, result) -> None:
    counts["reduce.steps"] += result.steps
    for case, _ in result.trace:
        counts[REDUCE_CASES[case]] += 1


def _on_ball(counts: Counter, args, kwargs, ball) -> None:
    counts["schreier.vertices"] += ball.order()
    counts["schreier.edges"] += len(ball.edges)
    # every generator application appends one edge; all vertices but the
    # root were new when first reached
    counts["schreier.new_vertices"] += ball.order() - 1


def _on_mu0(counts: Counter, args, kwargs, result) -> None:
    counts["spectral.support_vertices"] += len(_arg(args, kwargs, 1, "support"))


def _on_components(counts: Counter, args, kwargs, result) -> None:
    counts["modn.vertices"] += _arg(args, kwargs, 0, "N") ** 4


def _on_check(counts: Counter, args, kwargs, report) -> None:
    counts["lemmas.violations"] += len(report.violations)


# (owner, attribute, span name, hook)
SPANS = [
    (quadfield, "reduce_mod", "quadfield.reduce_mod", None),
    (surface, "apply_A", "surface.apply_A", _on_apply),
    (surface, "apply_B", "surface.apply_B", _on_apply),
    (surface, "apply_word", "surface.apply_word", None),
    (reduction, "reduce_point", "reduce.reduce_point", _on_reduce),
    (schreier, "build_G2", "schreier.build_G2", _on_ball),
    (schreier, "classify_component", "schreier.classify_component", None),
    (spectral.FiniteGraph, "from_adjacency", "spectral.graph_build", None),
    (spectral, "graph_ball", "spectral.graph_build", None),
    (spectral, "dirichlet_mu0", "spectral.dirichlet_mu0", _on_mu0),
    (modn, "components", "modn.components", _on_components),
    (sampling, "sample_point", "sampling.sample_point", None),
    (sampling, "sample_a_periodic_point", "sampling.sample_periodic", None),
    (sampling, "sample_b_periodic_point", "sampling.sample_periodic", None),
] + [(lemmas, name, f"lemmas.{name}", _on_check) for name in CHECK_NAMES]

# (owner, attribute, counter name)
COUNTS = [
    (quadfield.QuadNum, "floor", "quadfield.floor"),
    (quadfield.QuadNum, "sign", "quadfield.sign"),
    (surface.SurfacePoint, "__init__", "surface.SurfacePoint"),
    (surface, "thresholds", "surface.thresholds"),
    (modn, "act", "modn.act"),
    (modn, "project", "modn.project"),
]


def _lsurf_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items()) if name.split(".")[0] == "lsurf"]


class Tracer:
    """Spans and counters for one traced pass; inactive until :meth:`install`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # (span id, parent id, op index, name, start, end)
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.active = False
        self.op: int | None = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self) -> list:
        frame = [len(self.spans) + len(self._stack), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = None
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        self.spans.append((frame[0], parent, self.op, name, start, end))

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """A span opened by the benchmark itself, e.g. around one op."""
        self.op = op
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, perf_counter())

    @contextmanager
    def paused(self):
        """Run the benchmark's own output checks without counting them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, start, perf_counter())
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in _lsurf_modules():
            if mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced name and start recording."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in SPANS:
            self._replace(owner, attr, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        for owner, attr, name in COUNTS:
            self._replace(owner, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and put every original back."""
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, by name, as (value, unit)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        applies = calls["surface.apply_A"] + calls["surface.apply_B"]
        edges = counts["schreier.edges"]
        out: dict[str, tuple[float, str]] = {}

        def span(name: str, with_calls: bool = True) -> None:
            if with_calls:
                out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")

        span("quadfield.reduce_mod")
        out["quadfield.floor.calls"] = (calls["quadfield.floor"], "count")
        out["quadfield.sign.calls"] = (calls["quadfield.sign"], "count")
        span("surface.apply_A")
        span("surface.apply_B")
        out["surface.apply.mean_abs_exp"] = (
            counts["surface.apply.abs_exp"] / applies if applies else 0.0,
            "exponent",
        )
        out["surface.SurfacePoint.calls"] = (calls["surface.SurfacePoint"], "count")
        span("surface.apply_word", with_calls=False)
        out["surface.thresholds.calls"] = (calls["surface.thresholds"], "count")
        span("reduce.reduce_point")
        out["reduce.steps"] = (counts["reduce.steps"], "count")
        for case_name in REDUCE_CASES.values():
            out[case_name] = (counts[case_name], "count")
        span("schreier.build_G2", with_calls=False)
        span("schreier.classify_component", with_calls=False)
        out["schreier.vertices"] = (counts["schreier.vertices"], "count")
        out["schreier.edges"] = (edges, "count")
        out["schreier.new_vertex_ratio"] = (
            counts["schreier.new_vertices"] / edges if edges else 0.0,
            "ratio",
        )
        span("spectral.dirichlet_mu0")
        span("spectral.graph_build", with_calls=False)
        out["spectral.support_vertices"] = (counts["spectral.support_vertices"], "count")
        span("modn.components")
        out["modn.vertices"] = (counts["modn.vertices"], "count")
        out["modn.act.calls"] = (calls["modn.act"], "count")
        out["modn.project.calls"] = (calls["modn.project"], "count")
        span("sampling.sample_point")
        span("sampling.sample_periodic")
        for name in CHECK_NAMES:
            span(f"lemmas.{name}", with_calls=False)
        out["lemmas.violations"] = (counts["lemmas.violations"], "count")
        return out
