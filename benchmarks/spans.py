"""Span tracing of hsqm from outside the library.

``Tracer.install`` wraps every public function of each layer module
(its ``__all__``; public module-level functions for ``cli``) plus the
three methods the per-layer table names, and patches every binding of
each wrapped function in every hsqm module, so re-imports such as
``from .fock import displacement_stack`` in ``thermal``, ``wigner`` and
``cli`` are traced too.  A span records name, start, end, parent span
and task id; spans stay in memory until ``write``.

Self time is a span's duration minus the union of its children's
intervals.  Spans opened on a helper thread with no open span of its
own (the CLI's husimi pool) take the caller thread's innermost span as
parent: the benchmark has a single caller, so that span is the one
waiting on them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from array import array

import numpy as np

LAYERS = ("fock", "quadrature", "hs_space", "thermal", "wigner", "landau", "modular", "commutant", "cli")


def _stack_counts(args, kwargs, out):
    space, alphas = args[0], args[1] if len(args) > 1 else kwargs["alphas"]
    k = np.size(alphas)
    return {"matrices": k, "bytes_computed": 16 * k * space.dim**2}


def _scheme_counts(args, kwargs, out):
    scheme = args[0]
    return {"nodes": scheme.z_nodes.size}


def _resolution_counts(args, kwargs, out):
    space, scheme = args[0], args[2] if len(args) > 2 else kwargs["scheme"]
    # (N^2 x K) @ (K x N^2) complex GEMM: 8 real flops per multiply-add
    return {"gemm_flops_computed": 8 * scheme.z_nodes.size * space.dim**4}


def _span_counts(args, kwargs, out):
    return {"out_dim": out.size}


def _commutant_counts(args, kwargs, out):
    alg = args[0] if args else kwargs["alg"]
    # stacked (size * d^2) x d^2 complex matrix
    return {"stacked_bytes_computed": 16 * alg.size * alg.dim**4}


#: extra per-span quantities, computed from the call's arguments and result
COUNTERS = {
    "fock.displacement_stack": _stack_counts,
    "quadrature.QuadratureScheme": _scheme_counts,
    "thermal.resolution_operator": _resolution_counts,
    "commutant.algebra_span": _span_counts,
    "commutant.commutant_basis": _commutant_counts,
}
#: functions whose returned callable does the work
EVALUATORS = {"wigner.wigner_function"}
#: class methods traced besides the module functions: (layer, class, attribute)
METHODS = (
    ("quadrature", "QuadratureScheme", "__init__"),
    ("hs_space", "SuperOp", "to_dense"),
    ("modular", "ModularData", "from_thermal"),
)


class Tracer:
    """Spans in columnar arrays: name id, start, end, parent index, task id."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task_of = array("q")
        self.counts = {}
        self.task = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller = threading.get_ident()
        self._caller_stack = []
        self._restore = []

    def __len__(self):
        return len(self.start)

    # -- recording --------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._caller:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._caller_stack[-1] if self._caller_stack else -1
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.task_of.append(self.task)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, counter=None, evaluates=False):
        """``fn`` recorded as span ``name``; ``counter`` adds quantities
        computed from the arguments and result."""
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                tracer.counts[index] = counter(args, kwargs, out)
            if evaluates:
                out = tracer._wrap_evaluator(name_id, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_evaluator(self, name_id, f):
        """The phase function returned by wigner_function does the work
        when evaluated; its spans count points, not calls."""
        tracer = self

        def evaluate(xs, ys):
            index = tracer._open(name_id)
            try:
                return f(xs, ys)
            finally:
                tracer._close(index)
                tracer.counts[index] = {"points": int(np.size(xs)), "evaluations": 1}

        return evaluate

    # -- patching ---------------------------------------------------------

    def install(self, hsqm) -> None:
        """Wrap the layers of the imported ``hsqm`` package in place."""
        modules = {layer: importlib.import_module(f"hsqm.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n, obj in vars(module).items() if not n.startswith("_") and inspect.isfunction(obj)]
            for n in names:
                obj = getattr(module, n)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    span = f"{layer}.{n}"
                    wrappers[obj] = self.wrap(span, obj, COUNTERS.get(span), evaluates=span in EVALUATORS)
        for module in [hsqm, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for layer, cls_name, attr in METHODS:
            owner = getattr(modules[layer], cls_name)
            span = f"{layer}.{cls_name}" if attr == "__init__" else f"{layer}.{cls_name}.{attr}"
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(span, raw.__func__, COUNTERS.get(span))))
            else:
                self._patch(owner, attr, self.wrap(span, raw, COUNTERS.get(span)))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def _columns(self):
        return (
            np.frombuffer(self.name, dtype=np.intc),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Duration minus the union of the children's intervals."""
        _, start, end, parent = self._columns()
        child = np.nonzero(parent >= 0)[0]
        child = child[np.lexsort((start[child], parent[child]))]
        p, s, e = parent[child], start[child] - start.min(), end[child] - start.min()
        # running max of earlier siblings' ends: shift each parent's group
        # above all earlier groups so one cumulative max never crosses groups
        first = np.r_[True, p[1:] != p[:-1]]
        shift = np.cumsum(first) * (float(e.max(initial=0.0)) + 1.0)
        reach = np.maximum.accumulate(e + shift) - shift
        before = np.r_[-np.inf, reach[:-1]]
        before[first] = -np.inf
        covered = np.clip(e - np.maximum(s, before), 0.0, None)
        return (end - start) - np.bincount(p, weights=covered, minlength=len(start))

    def aggregate(self) -> dict:
        """Per span name: calls, self_s and summed counters."""
        name = self._columns()[0]
        self_s = np.bincount(name, weights=self.self_times(), minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        totals = {n: {"calls": float(calls[i]), "self_s": float(self_s[i])} for i, n in enumerate(self.names) if calls[i]}
        for index, counts in self.counts.items():
            entry = totals[self.names[self.name[index]]]
            for key, value in counts.items():
                entry[key] = entry.get(key, 0.0) + value
        for entry in totals.values():
            entry["calls"] -= entry.pop("evaluations", 0.0)
        return totals

    def write(self, path) -> None:
        """All spans as a compressed .npz of columns (name id, start, end,
        parent index, task id), the name table and the per-span counts."""
        name, start, end, parent = self._columns()
        counts = json.dumps({str(i): c for i, c in self.counts.items()})
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start, end=end,
                            parent=parent, task=np.frombuffer(self.task_of, dtype=np.int64), counts=np.array(counts))
