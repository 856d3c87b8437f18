"""Span tracing of duotherm's layers from outside the package.

Every public function of the layer modules, and the ``__call__`` and
``__post_init__`` of their classes, is replaced by a wrapper at each
attribute its callers use to look it up: the module's own global (so calls
inside the module are seen too) and every ``from .x import f`` alias in the
other modules and the package root.

While a request span is open, each wrapper appends an open and a close event
to one in-memory log, the cheapest record Python offers (about 1.5 us per
span).  When the run ends the log is turned into spans (start, end, name,
parent, request, bytes), written out, and aggregated into per-layer figures.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans partition the request spans exactly.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("tensor", "channels", "interferometer", "switch", "estimation", "setups", "sweep")

#: Layer of the benchmark's own request spans (harness code inside a request).
BENCH = "bench"

# Dense full-space operators built on the interferometer's behalf: the
# embedded coupling unitaries (the result of embed_operator) and the outer
# products handed to partial_trace (its first argument).  Their bytes count
# only when an interferometer span is the caller.
_BYTE_HOOKS = {
    "tensor.embed_operator": lambda args, result: result.nbytes,
    "tensor.partial_trace": lambda args, result: np.asarray(args[0]).nbytes,
}


class Tracer:
    """Event log of layer calls made inside request spans."""

    def __init__(self) -> None:
        self.names = [BENCH + ".request"]
        # open: (name id >= 0, ns); close: (-1 - bytes, ns)
        self.events = array("q")
        self.active = False

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = _BYTE_HOOKS.get(name)
        events = self.events
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            events.append(name_id)
            events.append(clock())
            size = 0
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    size = int(hook(args, result))
                return result
            finally:
                events.append(-1 - size)
                events.append(clock())

        return traced

    @contextlib.contextmanager
    def request_span(self):
        """One benchmark request: the root span its layer calls hang from."""
        self.events.append(0)
        self.events.append(time.perf_counter_ns())
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.events.append(-1)
            self.events.append(time.perf_counter_ns())

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` (the imported duotherm)."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for alias, value in list(vars(m).items()):
                            if value is obj:
                                setattr(m, alias, wrapped)
                elif inspect.isclass(obj):
                    for method in ("__call__", "__post_init__"):
                        fn = obj.__dict__.get(method)
                        if inspect.isfunction(fn):
                            setattr(obj, method, self.wrap(f"{layer}.{attr}.{method}", fn))

    def spans(self) -> dict[str, np.ndarray]:
        """Rebuild the spans from the event log; parents precede children."""
        start, end, name, parent, nbytes = [], [], [], [], []
        stack: list[int] = []
        log = np.frombuffer(self.events, dtype=np.int64).reshape(-1, 2).tolist()
        for code, ns in log:
            if code >= 0:
                parent.append(stack[-1] if stack else -1)
                stack.append(len(start))
                start.append(ns)
                end.append(0)
                name.append(code)
                nbytes.append(0)
            else:
                idx = stack.pop()
                end[idx] = ns
                nbytes[idx] = -1 - code
        request = list(range(len(parent)))
        for i, p in enumerate(parent):
            if p >= 0:
                request[i] = request[p]
        return {
            "names": np.array(self.names), "start": np.array(start, dtype=np.int64),
            "end": np.array(end, dtype=np.int64), "name": np.array(name, dtype=np.int32),
            "parent": np.array(parent, dtype=np.int32),
            "request": np.array(request, dtype=np.int32),
            "nbytes": np.array(nbytes, dtype=np.int64),
        }


def save(spans: dict[str, np.ndarray], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **spans)


def summarize(spans: dict[str, np.ndarray]) -> dict:
    """Self nanoseconds per layer, calls per span name, and the
    interferometer's dense-operator bytes."""
    layer_of_name = np.array([n.split(".")[0] for n in spans["names"]])
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(float)
    child = parent >= 0
    self_ns = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    layer = layer_of_name[name]
    ids, counts = np.unique(name, return_counts=True)
    from_interferometer = child & (layer[np.where(child, parent, 0)] == "interferometer")
    return {
        "self_ns": {lay: float(self_ns[layer == lay].sum()) for lay in LAYERS + (BENCH,)},
        "calls": {str(spans["names"][i]): int(c) for i, c in zip(ids, counts)},
        "interferometer_bytes": int(spans["nbytes"][from_interferometer].sum()),
    }
