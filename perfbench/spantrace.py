"""Span tracing of dysonprop's public functions from outside the package.

``Tracer`` wraps every public function of the traced modules and rebinds
each name that refers to it in every loaded ``dysonprop`` namespace (the
package, each module, and module-level dicts such as the CLI dispatch
table), because the modules import each other's functions with
``from .x import y``.  Nothing in ``src/`` changes; ``restore`` puts every
original object back.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``extra`` is whatever the name's
probe extracted from the call arguments.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "dysonprop"
TRACED_MODULES = ("model", "divdiff", "propagator", "green", "amplitude", "oracle", "cli")


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _bind(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _truncated_key(fn, args, kwargs):
    a = _bind(fn, args, kwargs)
    m, spec = a["model"], a["spec"]
    return (m.energies.tobytes(), m.h1.tobytes(), int(getattr(spec, "N", spec)), float(a["t"]))


def _a_matrix_tuples(fn, args, kwargs):
    a = _bind(fn, args, kwargs)
    l = int(a["l"])
    return a["model"].dim ** (l + 1) if l >= 1 else 0


def _quad_nodes(fn, args, kwargs):
    return int(_bind(fn, args, kwargs)["quad"].npoints)


#: Argument probes: what a span records about its call besides timing.
PROBES = {
    "propagator.truncated_evolution": _truncated_key,
    "propagator.a_matrix": _a_matrix_tuples,
    "green.inverse_fourier_check": _quad_nodes,
    "green.forward_fourier": _quad_nodes,
}


class Tracer:
    """Records one span per call of every public function of the traced
    modules while installed.  Use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []  # (container, key, original, is_dict_item)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = probe(fn, args, kwargs) if probe else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[id(val)] = self._wrap(f"{short}.{attr}", val)
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._saved.append((mod, attr, val, False))
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._saved.append((val, key, item, True))
                            val[key] = wrappers[id(item)]
        return self

    def restore(self) -> None:
        for container, key, original, is_item in reversed(self._saved):
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def aggregate(spans) -> dict:
    """Per-name ``calls``, ``total_s`` (summed span durations) and ``self_s``
    (each span's duration minus the durations of its direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, _extra) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
    return out


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _ratio(num, den) -> dict:
    return {"num": num, "den": den, "value": num / den if den else 0.0}


def derived_ratios(spans) -> dict:
    """The work ratios of the traced run, each with numerator and denominator.

    * ``propagator.a_matrix.dd_per_tuple``: ``dd_phase`` calls made directly
      by ``a_matrix`` over the sum of d^(l+1) across its calls with l >= 1.
    * ``green.inverse_fourier_check.evals_per_node``: ``truncated_evolution``
      calls under ``inverse_fourier_check`` over its quadrature nodes.
    * ``green.forward_fourier.solves_per_node``: ``linear_solve`` calls under
      ``forward_fourier`` over its quadrature nodes.
    * ``propagator.truncated_evolution.repeat_share``: calls whose
      (model, N, t) repeats an earlier call, over all calls.
    """
    dd = tuples = evals = inv_nodes = solves = fwd_nodes = repeats = calls = 0
    seen = set()
    for i, (name, _s, _e, parent, extra) in enumerate(spans):
        if name == "divdiff.dd_phase":
            if parent >= 0 and spans[parent][0] == "propagator.a_matrix":
                dd += 1
        elif name == "propagator.a_matrix":
            tuples += extra
        elif name == "green.inverse_fourier_check":
            inv_nodes += extra
        elif name == "green.forward_fourier":
            fwd_nodes += extra
        elif name == "oracle.linear_solve":
            if _has_ancestor(spans, i, "green.forward_fourier"):
                solves += 1
        elif name == "propagator.truncated_evolution":
            calls += 1
            if extra in seen:
                repeats += 1
            seen.add(extra)
            if _has_ancestor(spans, i, "green.inverse_fourier_check"):
                evals += 1
    return {
        "propagator.a_matrix.dd_per_tuple": _ratio(dd, tuples),
        "green.inverse_fourier_check.evals_per_node": _ratio(evals, inv_nodes),
        "green.forward_fourier.solves_per_node": _ratio(solves, fwd_nodes),
        "propagator.truncated_evolution.repeat_share": _ratio(repeats, calls),
    }


def spans_as_records(spans):
    """JSON-ready span records (the probe payloads are not kept)."""
    return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p, _x) in enumerate(spans)]

