"""Span tracer for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the ``oil`` modules named
in ``LAYERS`` and rebinds the wrapper under every name that bound the
original in any ``oil`` namespace, so calls that ``extensions`` and
``deformation`` make through names imported from ``hardy`` are seen too.  It
also wraps the methods in ``METHODS`` and numpy's ``linalg`` kernels, which
``oil`` reaches as ``np.linalg.<name>``.  ``Tracer.uninstall`` puts every
original back.

A span is (name, start, end, parent index, experiment id).  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans under one experiment's root span sum to that root's
duration.  Counters (nonzero entries, ranks, flops, bytes) are taken in hooks
that run after the wrapped call, inside a ``trace.hook`` span of their own,
so their cost is never charged to a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("hardy", "spectral", "stinespring", "extensions", "deformation", "reporting", "cli")
METHODS = (("stinespring", "CpMap", "apply"), ("stinespring", "DilationData", "rep"),
           ("stinespring", "DilationData", "blocks"))
LINALG = ("svd", "qr", "eigh", "eigvalsh", "norm")


def svd_flops(shape, complex_entries: bool, compute_uv: bool) -> float:
    """Operation count of one SVD (Golub and Van Loan, Alg. 8.6.2), as computed.

    For an m x n matrix with k = min(m, n), M = max(m, n): 4 M k^2 - 4 k^3 / 3
    for singular values only, 4 M^2 k + 8 M k^2 + 9 k^3 with vectors.  A
    complex operation counts as four real ones; batch dimensions multiply.
    """
    *batch, m, n = shape
    k, big = min(m, n), max(m, n)
    flops = 4 * big**2 * k + 8 * big * k**2 + 9 * k**3 if compute_uv else 4 * big * k**2 - 4 * k**3 / 3
    return float(flops * (4 if complex_entries else 1) * int(np.prod(batch, dtype=np.int64)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.experiment: int | None = None
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.experiment]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def root(self, experiment: int, fn):
        """Run fn() under the root span of one experiment."""
        self.experiment = experiment
        rec = self._open("bench.experiment")
        try:
            return fn()
        finally:
            self._close(rec)
            self.experiment = None

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span; name is a string or a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                rec = self._open("trace.hook")
                try:
                    hook(self.counters, args, kwargs, result)
                finally:
                    self._close(rec)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import oil

        modules = {layer: importlib.import_module(f"oil.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj, _HOOKS.get(f"{layer}.{attr}"))
        for mod in (oil, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", getattr(cls, attr)))
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            if attr == "norm":
                self._set(np.linalg, attr, self.wrap(_norm_span_name, fn, _norm_hook))
            elif attr == "svd":
                self._set(np.linalg, attr, self.wrap("linalg.svd", fn, _svd_hook))
            else:
                self._set(np.linalg, attr, self.wrap(f"linalg.{attr}", fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per layer: calls and self seconds; per span name: calls and inclusive seconds."""
        layer_calls, layer_self = Counter(), defaultdict(float)
        name_calls, name_total = Counter(), defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            layer_calls[layer] += 1
            layer_self[layer] += own
            name_calls[name] += 1
            name_total[name] += end - start
        return {"layer_calls": layer_calls, "layer_self": layer_self,
                "calls": name_calls, "total": name_total}

    def write_spans(self, path: str):
        """One JSON line per span: name, start, end, parent, experiment."""
        with open(path, "w") as fh:
            for name, start, end, parent, exp in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "experiment": exp}) + "\n")


def _norm_span_name(args, kwargs) -> str:
    x = np.asarray(args[0])
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    # a matrix 2-norm is the largest singular value: LAPACK runs an SVD
    return "linalg.svd" if ord_ == 2 and x.ndim == 2 else "linalg.norm"


def _count_svd(counters, x, compute_uv: bool):
    x = np.asarray(x)
    counters["linalg.svd_calls"] += 1
    counters["linalg.svd_flops"] += svd_flops(x.shape, np.iscomplexobj(x), compute_uv)


def _svd_hook(counters, args, kwargs, result):
    _count_svd(counters, args[0], kwargs.get("compute_uv", args[2] if len(args) > 2 else True))


def _norm_hook(counters, args, kwargs, result):
    if _norm_span_name(args, kwargs) == "linalg.svd":
        _count_svd(counters, args[0], False)


def _operator_hook(counters, args, kwargs, result):
    """Nonzero entries over all entries of the dense matrices hardy returns."""
    for op in result if isinstance(result, tuple) else (result,):
        entries = getattr(op, "entries", None)
        if isinstance(entries, np.ndarray):
            counters["hardy.nonzero"] += int(np.count_nonzero(entries))
            counters["hardy.entries"] += entries.size


def _spectrum_hook(counters, args, kwargs, result):
    """Numerical rank (oil's cutoff) against singular values computed."""
    from oil.hardy import RANK_CUTOFF

    values = result.values
    if values.size:
        counters["spectral.rank"] += int(np.sum(values > RANK_CUTOFF * values[0]))
        counters["spectral.values"] += values.size


def _report_hook(counters, args, kwargs, result):
    counters["reporting.report_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


_HOOKS = {
    "hardy.multiplication_operator": _operator_hook,
    "hardy.hardy_projection": _operator_hook,
    "hardy.toeplitz_compress": _operator_hook,
    "hardy.hankel_operator": _operator_hook,
    "hardy.projection_commutator": _operator_hook,
    "hardy.splitting_defect": _operator_hook,
    "spectral.singular_values": _spectrum_hook,
    "reporting.write_report": _report_hook,
}
