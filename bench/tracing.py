"""Spans recorded from the benchmark's side of each layer boundary.

In a traced run, :func:`install` replaces the public functions that
``rayprod.cli``, ``rayprod.ostbc``, ``rayprod.gamma_laguerre``,
``rayprod.moments``, ``rayprod.montecarlo`` and the package namespace bind
with wrappers that record one span per call.  Because each module looks its
callees up by global name, wrapping ``rayprod.gamma_laguerre.cdf`` also
catches the calls ``cdf_inverse`` makes while it bisects, and wrapping
``rayprod.moments.exact_moment`` catches those of ``moment_set``.  The
package source is not edited; :func:`uninstall` puts every original back.
Untraced runs never call :func:`install`.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import warnings
from collections import defaultdict

# span name -> public function it wraps (module path relative to rayprod)
WRAPPED = {
    "moments.moment_set": ("moments", "moment_set"),
    "moments.exact_moment": ("moments", "exact_moment"),
    "gamma_laguerre.fit": ("gamma_laguerre", "fit"),
    "gamma_laguerre.cdf": ("gamma_laguerre", "cdf"),
    "gamma_laguerre.cdf_inverse": ("gamma_laguerre", "cdf_inverse"),
    "ostbc.outage_probability": ("ostbc", "outage_probability"),
    "ostbc.outage_capacity": ("ostbc", "outage_capacity"),
    "montecarlo.sample_frobenius": ("montecarlo", "sample_frobenius"),
    "cli.main": ("cli", "main"),
}
# montecarlo.ecdf wraps the methods of the Ecdf class.
SPAN_NAMES = (*WRAPPED, "montecarlo.ecdf")
FIGURES = ("fig2", "fig3", "fig4")  # the figures of ``rayprod reproduce``


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, id, name, parent, op, start, end=None, attrs=None):
        self.id, self.name, self.parent, self.op = id, name, parent, op
        self.start, self.end, self.attrs = start, end, attrs or {}

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class NullTracer:
    """Stand-in for untraced passes: records nothing, wraps nothing."""

    op = None

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def _wrap_fit(self, fn):
        """``fit`` also counts the RuntimeWarnings it raises, then re-issues them."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open("gamma_laguerre.fit")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    model = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            span.attrs.update(warnings=len(caught), peaks=len(model.peak_x))
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return model

        return traced

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        import importlib

        import numpy as np

        import rayprod
        from rayprod.moments import composition_count

        modules = {name: importlib.import_module(f"rayprod.{name}")
                   for name in ("moments", "gamma_laguerre", "ostbc",
                                "montecarlo", "cli")}

        def arg(args, kwargs, index, key):
            return args[index] if len(args) > index else kwargs[key]

        def size(value):
            return int(np.size(value))

        describe = {
            "moments.moment_set": lambda a, k, r: {"entries": r.q},
            "moments.exact_moment": lambda a, k, r: {
                "compositions": composition_count(
                    int(arg(a, k, 1, "m")), arg(a, k, 0, "config").k_min)},
            "gamma_laguerre.cdf": lambda a, k, r: {"points": size(arg(a, k, 1, "x"))},
            "ostbc.outage_probability": lambda a, k, r: {
                "points": size(arg(a, k, 4, "z"))},
            "montecarlo.sample_frobenius": lambda a, k, r: {
                "dims": list(r.config.dims), "count": r.count},
            "cli.main": lambda a, k, r: {"argv": list(arg(a, k, 0, "argv") or [])},
        }
        wrappers = {}
        for name, (module, attr) in WRAPPED.items():
            fn = getattr(modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap_fit(fn) if name == "gamma_laguerre.fit"
                                else self._wrap(name, fn, describe.get(name)))
        for module in (rayprod, *modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        ecdf = modules["montecarlo"].Ecdf
        for attr in ("__init__", "__call__"):
            self._patch(ecdf, attr, self._wrap("montecarlo.ecdf", vars(ecdf)[attr], None))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# -------------------------------------------------------------------- analysis


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def dims_key(dims) -> str:
    return "x".join(str(k) for k in dims)


def uniform_doubles(dims) -> int:
    """Uniform doubles one draw consumes: two per real normal, Philox-block aligned."""
    doubles = 2 * sum(dims[i] * dims[i - 1] for i in range(1, len(dims)))
    return (doubles + 3) // 4 * 4


def chain_flops(dims) -> int:
    """Real flops of one draw's factor chain and norm (computed, not measured).

    ``H_i @ P`` with ``H_i`` of shape ``K_i x K_(i-1)`` and ``P`` of shape
    ``K_(i-1) x K0`` costs ``8 K_i K_(i-1) K0`` (a complex multiply-add is
    eight real flops); the squared Frobenius norm costs ``8 Kn K0``.
    """
    k0 = dims[0]
    chain = sum(8 * dims[i] * dims[i - 1] * k0 for i in range(2, len(dims)))
    return chain + 8 * dims[-1] * k0


def layer_metrics(spans, draw_configs, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced pass.

    ``draw_configs`` are the ``AxBx...`` keys that get a throughput metric;
    layers a workload does not reach report zero.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {f"{name}.self_s": sum(own[s.id] for s in by_name[name]) for name in SPAN_NAMES}

    draws = by_name["montecarlo.sample_frobenius"]
    out["montecarlo.draws"] = sum(s.attrs["count"] for s in draws)
    for key in draw_configs:
        mine = [s for s in draws if dims_key(s.attrs["dims"]) == key]
        busy = sum(s.end - s.start for s in mine)
        out[f"montecarlo.draws_per_s.{key}"] = (
            sum(s.attrs["count"] for s in mine) / busy if busy > 0 else 0.0)
    out["montecarlo.uniform_bytes"] = sum(
        8 * uniform_doubles(s.attrs["dims"]) * s.attrs["count"] for s in draws)
    out["montecarlo.chain_flops"] = sum(
        chain_flops(s.attrs["dims"]) * s.attrs["count"] for s in draws)

    out["moments.entries"] = sum(
        s.attrs.get("entries", 0) for s in by_name["moments.moment_set"])
    out["moments.compositions"] = sum(
        s.attrs.get("compositions", 0) for s in by_name["moments.exact_moment"])

    fits = by_name["gamma_laguerre.fit"]
    out["gamma_laguerre.fit.warnings"] = sum(s.attrs.get("warnings", 0) for s in fits)
    out["gamma_laguerre.peaks"] = sum(s.attrs.get("peaks", 0) for s in fits)
    cdfs = by_name["gamma_laguerre.cdf"]
    out["gamma_laguerre.cdf.calls"] = len(cdfs)
    out["gamma_laguerre.cdf.points"] = sum(s.attrs.get("points", 0) for s in cdfs)
    inverses = by_name["gamma_laguerre.cdf_inverse"]
    inverse_ids = {s.id for s in inverses}
    out["gamma_laguerre.cdf_inverse.calls"] = len(inverses)
    out["gamma_laguerre.cdf_inverse.cdf_evals_per_call"] = (
        sum(s.parent in inverse_ids for s in cdfs) / len(inverses) if inverses else 0.0)

    out["ostbc.outage_probability.points"] = sum(
        s.attrs.get("points", 0) for s in by_name["ostbc.outage_probability"])
    out["ostbc.outage_capacity.calls"] = len(by_name["ostbc.outage_capacity"])

    out["cli.output_bytes"] = output_bytes
    for figure in FIGURES:
        out[f"cli.main.{figure}_s"] = sum(
            s.end - s.start for s in by_name["cli.main"]
            if figure in s.attrs.get("argv", ()))
    return out
