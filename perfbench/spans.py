"""Span tracing of opkern from outside the package, and the per-layer
metrics computed from the spans.

``Tracer.patch()`` wraps the public functions of each layer in every opkern
namespace that binds them (``rkhs`` and ``gp`` import some by name),
``OperatorKernel.eval`` on its class and ``numpy.linalg.{eigh, eigvalsh,
cholesky}``.  ``Tracer.unpatch()`` restores every binding.  Spans stay in
memory until the run writes them out.

``OperatorKernel.eval`` runs hundreds of thousands of times per operation,
so it gets no span of its own: each outermost call (not the nested calls
that ``separable`` and ``normalized`` make) adds one call and its duration
to the innermost open span.  A span's self time is its duration less its
children's durations and its eval time.  Linear algebra gets a span only on
a full n*d x n*d matrix, recognised by its order being the size of a Gram
assembled earlier in the run; the d x d calls inside the kernels and the
identity suite stay in their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import opkern
from opkern import cli, gp, gram, kernels, rkhs

# The public functions that get a span, by layer.
LAYER_FUNCS = {
    kernels: ("make_kernel", "continuity_increment"),
    gram: (
        "assemble_gram", "psd_check", "factorize", "spectral_decay_profile",
        "gram_to_csv", "spectrum_to_json_dict",
    ),
    rkhs: ("make_context", "onb_expansion", "verify_identities", "evaluate_element"),
    gp: ("sample_paths", "covariance_error_report", "batch_to_csv", "batch_to_binary"),
    cli: ("main",),
}
LINALG_FUNCS = ("eigh", "eigvalsh", "cholesky")
NAMESPACES = (opkern, kernels, gram, rkhs, gp, cli)

# Per-layer metrics of one traced operation: name -> unit.
PER_LAYER = {
    "kernels.eval.calls": "count",
    "kernels.eval.s": "s",
    "gram.assemble_gram.calls": "count",
    "gram.assemble_gram.s": "s",
    "gram.assemble_gram.entries_per_s": "1/s",
    "gram.psd_check.s": "s",
    "gram.factorize.s": "s",
    "gram.factorize.calls": "count",
    "gram.factorize.rungs": "count",
    "gram.spectral_decay_profile.s": "s",
    "gram.gram_to_csv.s": "s",
    "gram.gram_to_csv.bytes": "bytes",
    "linalg.full_decomp.calls": "count",
    "linalg.full_decomp.s": "s",
    "rkhs.make_context.s": "s",
    "rkhs.onb_expansion.s": "s",
    "rkhs.verify_identities.s": "s",
    "rkhs.verify_identities.trials_per_s": "1/s",
    "rkhs.evaluate_element.calls": "count",
    "gp.sample_paths.s": "s",
    "gp.sample_paths.paths_per_s": "1/s",
    "gp.covariance_error_report.s": "s",
    "gp.batch_to_binary.s": "s",
    "gp.batch_to_csv.s": "s",
    "gp.export.bytes": "bytes",
    "cli.gram.s": "s",
    "cli.spectrum.s": "s",
    "cli.verify.s": "s",
    "cli.sample.s": "s",
    "cli.expand.s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}


class Span:
    __slots__ = ("id", "op", "name", "parent", "start", "end", "eval_calls", "eval_s", "counts")

    def __init__(self, id_, op, name, parent, start):
        self.id, self.op, self.name, self.parent, self.start = id_, op, name, parent, start
        self.end = start
        self.eval_calls = 0
        self.eval_s = 0.0
        self.counts: dict = {}

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id, "op": self.op, "name": self.name, "parent": self.parent,
            "start": self.start - origin, "end": self.end - origin,
            "eval_calls": self.eval_calls, "eval_s": self.eval_s, "counts": self.counts,
        }


def _file_bytes(path_arg: int):
    def count(args, kwargs, result):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    return count


def _factorize_rungs(args, kwargs, result):
    """Rungs of the documented ladder 0, 1e-12*u, 1e-11*u, ... up to the
    jitter used, with u = tr(G)/(nd) (or 1 when that is not positive)."""
    eps = result.jitter_used
    if eps == 0.0:
        return {"rungs": 1}
    unit = float(np.trace(result.data)) / result.size
    unit = unit if unit > 0.0 else 1.0
    return {"rungs": 2 + round(math.log10(eps / (1e-12 * unit)))}


def _verify_trials(args, kwargs, result):
    bound = inspect.signature(rkhs.verify_identities).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"trials": bound.arguments["trials"]}


COUNTERS = {
    "gram.assemble_gram": lambda a, k, r: {"entries": r.size**2},
    "gram.factorize": _factorize_rungs,
    "gram.gram_to_csv": _file_bytes(1),
    "rkhs.verify_identities": _verify_trials,
    "gp.sample_paths": lambda a, k, r: {"paths": r.count},
    "gp.batch_to_csv": _file_bytes(1),
    "gp.batch_to_binary": _file_bytes(1),
}


class Tracer:
    """Records spans of the opkern calls made while patched."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._gram_sizes: set[int] = set()
        self._in_eval = False
        self._patched: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(next(self._ids), self.op, name, parent, time.perf_counter())
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, counter = self, COUNTERS.get(name)
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if is_main:
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0]}" if argv else name
            span = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            if name == "gram.assemble_gram":
                tracer._gram_sizes.add(result.size)
            return result

        return wrapper

    def _wrap_linalg(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if len(shape) != 2 or shape[0] not in tracer._gram_sizes:
                return fn(a, *args, **kwargs)
            span = tracer.open(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_eval(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(kernel, s, t):
            if tracer._in_eval or not tracer._stack:
                return fn(kernel, s, t)
            tracer._in_eval = True
            start = time.perf_counter()
            try:
                return fn(kernel, s, t)
            finally:
                span = tracer._stack[-1]
                span.eval_s += time.perf_counter() - start
                span.eval_calls += 1
                tracer._in_eval = False

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already patched")
        for module, names in LAYER_FUNCS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for ns in NAMESPACES:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapper)
        for fname in LINALG_FUNCS:
            wrapper = self._wrap_linalg(f"linalg.{fname}", getattr(np.linalg, fname))
            self._set(np.linalg, fname, wrapper)
        self._set(kernels.OperatorKernel, "eval", self._wrap_eval(kernels.OperatorKernel.eval))

    def unpatch(self) -> None:
        """Restore every binding ``patch`` replaced, last first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [s.to_dict(self.origin) for s in self.spans]


def bindings() -> dict:
    """Every binding the tracer may patch: (owner, attribute) -> object."""
    out = {}
    for ns in NAMESPACES:
        for attr, value in vars(ns).items():
            if callable(value):
                out[(ns.__name__, attr)] = value
    for fname in LINALG_FUNCS:
        out[("numpy.linalg", fname)] = getattr(np.linalg, fname)
    out[("OperatorKernel", "eval")] = vars(kernels.OperatorKernel)["eval"]
    return out


# ---------------------------------------------------------------------------
# Metrics from spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration less children's durations and eval time."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] - s.eval_s for s in spans}


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric (but the trace overhead) of one operation."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    for s in spans:
        total[s.name] += s.end - s.start
        selft[s.name] += own[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    linalg = [n for n in calls if n.startswith("linalg.")]
    cli_names = [n for n in calls if n.startswith("cli.")]
    m = {
        "kernels.eval.calls": sum(s.eval_calls for s in spans),
        "kernels.eval.s": sum(s.eval_s for s in spans),
        "gram.assemble_gram.calls": calls["gram.assemble_gram"],
        "gram.assemble_gram.s": total["gram.assemble_gram"],
        "gram.assemble_gram.entries_per_s": per_s(
            counts["gram.assemble_gram.entries"], total["gram.assemble_gram"]
        ),
        "gram.psd_check.s": total["gram.psd_check"],
        "gram.factorize.s": total["gram.factorize"],
        "gram.factorize.calls": calls["gram.factorize"],
        "gram.factorize.rungs": counts["gram.factorize.rungs"],
        "gram.spectral_decay_profile.s": total["gram.spectral_decay_profile"],
        "gram.gram_to_csv.s": total["gram.gram_to_csv"],
        "gram.gram_to_csv.bytes": counts["gram.gram_to_csv.bytes"],
        "linalg.full_decomp.calls": sum(calls[n] for n in linalg),
        "linalg.full_decomp.s": sum(total[n] for n in linalg),
        "rkhs.make_context.s": selft["rkhs.make_context"],
        "rkhs.onb_expansion.s": total["rkhs.onb_expansion"],
        "rkhs.verify_identities.s": total["rkhs.verify_identities"],
        "rkhs.verify_identities.trials_per_s": per_s(
            counts["rkhs.verify_identities.trials"], total["rkhs.verify_identities"]
        ),
        "rkhs.evaluate_element.calls": calls["rkhs.evaluate_element"],
        "gp.sample_paths.s": total["gp.sample_paths"],
        "gp.sample_paths.paths_per_s": per_s(
            counts["gp.sample_paths.paths"], total["gp.sample_paths"]
        ),
        "gp.covariance_error_report.s": total["gp.covariance_error_report"],
        "gp.batch_to_binary.s": total["gp.batch_to_binary"],
        "gp.batch_to_csv.s": total["gp.batch_to_csv"],
        "gp.export.bytes": counts["gp.batch_to_binary.bytes"] + counts["gp.batch_to_csv.bytes"],
        "cli.self_s": sum(selft[n] for n in cli_names),
    }
    for sub in ("gram", "spectrum", "verify", "sample", "expand"):
        m[f"cli.{sub}.s"] = total[f"cli.{sub}"]
    return m


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each layer as a share of the operation's task time.

    Task spans (the benchmark's own) count as layer ``bench``; eval time
    counts as layer ``kernels``.
    """
    own = self_times(spans)
    tasks = sum(s.end - s.start for s in spans if s.parent is None)
    by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = "bench" if s.parent is None else s.name.split(".", 1)[0]
        by_layer[layer] += own[s.id]
        by_layer["kernels"] += s.eval_s
    return {k: v / tasks for k, v in sorted(by_layer.items())} if tasks > 0 else {}


def median_metrics(per_op: list[dict]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
