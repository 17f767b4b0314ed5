"""Out-of-program tracing: wrap public callables, record spans, aggregate.

``TARGETS`` is the one table of wrap targets.  Each entry names the metric
prefix ``<layer>.<name>``, the module that defines the callable and its
attribute: a function, ``Class.method``, or ``*.method`` for every class of
the module that defines the method.  A function is patched in every
``coesolve`` namespace that binds it, so ``from .x import f`` call sites
are traced too.  A target missing from the program is reported as absent;
it never fails a run.

A span is ``(name, start_ns, end_ns, parent, op, nested)``.  ``nested``
marks a span opened while another span of the same name was open; such
spans count in ``calls`` and ``self_s`` but not again in the inclusive
``s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _points(args, kwargs, result):
    return "fft.points", int(np.size(args[0]))


def _bytes(args, kwargs, result):
    return "output.bytes", os.path.getsize(args[0])


# (metric prefix, module, attribute, counter hook or None)
TARGETS = (
    ("cli.main", "coesolve.cli", "main", None),
    ("runner.run_scenario", "coesolve.runner", "run_scenario", None),
    ("config.validate_config", "coesolve.config", "validate_config", None),
    ("config.build_problem", "coesolve.config", "build_problem", None),
    ("config.build_field", "coesolve.config", "build_field", None),
    ("symbols.char_poly", "coesolve.symbols", "char_poly", None),
    ("symbols.check_symbol_conditions", "coesolve.symbols", "check_symbol_conditions", None),
    ("symbols.reduced_symbol", "coesolve.symbols", "reduced_symbol", None),
    ("symbols.mikhlin_bound", "coesolve.symbols", "mikhlin_bound", None),
    ("kernels.fourier", "coesolve.kernels", "Kernel.fourier", None),
    ("solver.solve_linear", "coesolve.solver", "solve_linear", None),
    ("solver.apply_operator", "coesolve.solver", "apply_operator", None),
    ("solver.coercive_report", "coesolve.solver", "coercive_report", None),
    ("solver.lambda_sweep", "coesolve.solver", "lambda_sweep", None),
    ("solver.eta_on_grid", "coesolve.solver", "DiscretizedProblem.eta_on_grid", None),
    ("operators.resolvent_solve_many", "coesolve.operators", "*.resolvent_solve_many", None),
    ("operators.apply_many", "coesolve.operators", "*.apply_many", None),
    ("operators.as_dense", "coesolve.operators", "*.as_dense", None),
    # Its returned forward/inverse transforms are traced as operators.transform.
    ("operators.diagonalization", "coesolve.operators", "*.diagonalization", None),
    ("operators.positivity_scan", "coesolve.operators", "positivity_scan", None),
    ("fft.fft", "numpy.fft", "fft", _points),
    ("fft.ifft", "numpy.fft", "ifft", _points),
    ("fft.dstn", "scipy.fft", "dstn", _points),
    ("grids.spectral_derivative", "coesolve.grids", "spectral_derivative", None),
    ("norms.lp_norm", "coesolve.norms", "lp_norm", None),
    ("norms.mixed_norm", "coesolve.norms", "mixed_norm", None),
    ("norms.sobolev_norm", "coesolve.norms", "sobolev_norm", None),
    ("norms.besov_norm", "coesolve.norms", "besov_norm", None),
    ("norms.trace_space_norms", "coesolve.norms", "trace_space_norms", None),
    ("rademacher.scaled_resolvent_rbound", "coesolve.rademacher", "scaled_resolvent_rbound", None),
    ("rademacher.empirical_rbound", "coesolve.rademacher", "empirical_rbound", None),
    ("evolution.solve_cauchy_linear", "coesolve.evolution", "solve_cauchy_linear", None),
    ("evolution.solve_cauchy_semilinear", "coesolve.evolution", "solve_cauchy_semilinear", None),
    ("evolution.evaluate", "coesolve.evolution", "Nonlinearity.evaluate", None),
    ("bvp.solve_bvp_linear", "coesolve.bvp", "solve_bvp_linear", None),
    ("bvp.solve_bvp_semilinear", "coesolve.bvp", "solve_bvp_semilinear", None),
    ("bvp.bvp_discrete_residual", "coesolve.bvp", "bvp_discrete_residual", None),
    ("output.write_csv", "coesolve.output", "write_csv", _bytes),
    ("output.write_json", "coesolve.output", "write_json", _bytes),
)
TRANSFORM = "operators.transform"
SPAN_NAMES = tuple(t[0] for t in TARGETS) + (TRANSFORM,)


class Recorder:
    """In-memory span stack; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._open = Counter()

    def call(self, name, fn, args, kwargs, hook=None):
        if not self.active:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, self.op, self._open[name] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            self._open[name] -= 1
        if hook is not None:
            key, amount = hook(args, kwargs, result)
            self.counters[key] += amount
        return result

    def write(self, path):
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, nested in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "nested": nested}) + "\n")


def _wrapper(rec, name, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, hook)
    return traced


def _transforming(rec, fn):
    """Wrap ``diagonalization`` so its returned transforms are traced too."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is None:
            return None
        fwd, inv, eigs = result
        return (_wrapper(rec, TRANSFORM, fwd, None), _wrapper(rec, TRANSFORM, inv, None), eigs)
    return traced


class Instrumentation:
    """Patches every target on entry to the ``with`` block, restores on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent = []
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_method(self, name, cls, meth, hook):
        fn = cls.__dict__[meth]
        if meth == "diagonalization":
            fn = _transforming(self.recorder, fn)
        self._set(cls, meth, _wrapper(self.recorder, name, fn, hook))

    def __enter__(self):
        importlib.import_module("coesolve")
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "coesolve" or k.startswith("coesolve."))]
        for name, modname, attr, hook in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                owner, meth = attr.split(".")
                if owner == "*":
                    classes = [c for c in vars(module).values()
                               if isinstance(c, type) and c.__module__ == modname
                               and meth in c.__dict__]
                else:
                    cls = getattr(module, owner, None)
                    classes = [cls] if isinstance(cls, type) and meth in cls.__dict__ else []
                if not classes:
                    self.absent.append(name)
                for cls in classes:
                    self._patch_method(name, cls, meth, hook)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapped = _wrapper(self.recorder, name, original, hook)
            for ns in [module] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


def aggregate(spans, lo=0) -> dict:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    Only spans from index ``lo`` on are aggregated; parents always precede
    their children.
    """
    child = defaultdict(int)
    for name, start, end, parent, op, nested in spans[lo:]:
        if parent >= lo:
            child[parent] += end - start
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
    for i in range(lo, len(spans)):
        name, start, end, parent, op, nested = spans[i]
        row = out[name]
        row["calls"] += 1
        if not nested:
            row["s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child[i]) * 1e-9
    return out


def count_under(spans, name, ancestor, lo=0) -> int:
    """Spans called ``name`` from index ``lo`` on with an ``ancestor`` span."""
    total = 0
    for i in range(lo, len(spans)):
        if spans[i][0] != name:
            continue
        p = spans[i][3]
        while p >= lo:
            if spans[p][0] == ancestor:
                total += 1
                break
            p = spans[p][3]
    return total
