"""In-memory span tracer for the requnet layers, installed from outside.

The package modules import each other's functions by name, so a public
function can be bound in several module namespaces at once (for example
``inversion_network`` lives in ``requnet``, ``requnet.matrixnets`` and
``requnet.pde``).  ``Tracer.installed`` replaces every such binding with a
wrapper that records a span, wraps ``Network.__init__`` as
``network.construct``, and restores the originals on exit.

A span is ``[name, start, end, parent, captured, nested]``: ``parent`` is
the index of the enclosing span or -1, ``captured`` an optional value taken
from the result, and ``nested`` marks a call made inside another call of
the same function.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from time import perf_counter

CONSTRUCT = "network.construct"


class Tracer:
    def __init__(self, capture=None):
        # capture maps a span name to a function of the call's result whose
        # value is stored in the span (e.g. the Neumann length of a plan)
        self.capture = capture or {}
        self.spans = []
        self.names = set()
        self._stack = []
        self._active = {}

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        grab = self.capture.get(name)
        active[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None, active[name] > 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                span[2] = perf_counter()
            if grab is not None:
                span[4] = grab(result)
            return result

        self.names.add(name)
        return traced

    @contextlib.contextmanager
    def installed(self, layer_modules, namespaces, network_cls):
        """Trace the public functions of ``layer_modules`` wherever any of
        ``namespaces`` binds them, plus ``network_cls.__init__``."""
        wrappers = {}
        for mod in layer_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        patched = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        init = network_cls.__init__
        patched.append((network_cls, "__init__", init))
        network_cls.__init__ = self._wrap(CONSTRUCT, init)
        try:
            yield self
        finally:
            for ns, attr, value in reversed(patched):
                setattr(ns, attr, value)

    def reset(self):
        # the wrappers hold these lists, so empty them in place
        self.spans.clear()
        self._stack.clear()

    def aggregate(self):
        """Per span name: calls, inclusive seconds of the outermost calls
        (a recursive call is not counted twice) and self seconds, i.e.
        duration minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        captured = {}
        for i, (name, start, end, _, value, nested) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (end - start) - child[i]
            if not nested:
                st["incl_s"] += end - start
            if value is not None:
                captured.setdefault(name, []).append(value)
        return stats, captured

    def dump(self, origin):
        """Spans as JSON-ready rows with times relative to ``origin``."""
        return [
            [name, start - origin, end - origin, parent]
            for name, start, end, parent, _, _ in self.spans
        ]
