"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, every public function and
public method of the package's modules, wherever the module namespaces hold
a reference to it: its own module, modules that imported it by name, and
module-level dispatch tables such as ``cli._HANDLERS``.  Each call records
one span (name, start, end, parent span, request id) in flat arrays, so the
spans of a long run stay cheap to keep in memory; they are written out when
the run ends.  A small set of numpy kernels is counted by wrappers and each
count is charged to the layer (module) of the innermost open span.
"""

from __future__ import annotations

import gc
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

# (label, owner, attribute) of the numpy kernels the tracer counts.
KERNELS = (
    ("kron", np, "kron"),
    ("eigh", np.linalg, "eigh"),
    ("eigvalsh", np.linalg, "eigvalsh"),
    ("det", np.linalg, "det"),
    ("fft", np.fft, "fft"),
    ("ifft", np.fft, "ifft"),
)

NO_LAYER = "-"


class Tracer:
    """Wrappers are built at construction; :meth:`install` puts them in
    place and :meth:`uninstall` restores the originals."""

    def __init__(self, modules, namespaces=(), observers=None):
        # modules: {layer name: module} whose public functions are wrapped;
        # namespaces: further modules (e.g. the package) whose imported
        # names are redirected; observers: {span name: fn(result)}.
        self.modules = dict(modules)
        self.namespaces = list(self.modules.values()) + list(namespaces)
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.kernel_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.fft_points: dict[str, int] = defaultdict(int)
        self.unwrapped: list[str] = []
        # (owner, attribute or key, original, replacement)
        self._patches: list[tuple] = []
        self._table_patches: list[tuple] = []
        self._originals: dict[int, tuple] = {}  # id -> (original, wrapper)
        self._checked = False
        self._plan()

    # -- installation ----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        observer = self.observers.get(name)
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_request, span_start, span_end = self.span_request, self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_request.append(tracer.request_id)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if observer is not None:
                observer(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_kernel(self, label: str, fn):
        stack, layer_of, span_name = self.stack, self.layer_of, self.span_name
        counts, points = self.kernel_calls, self.fft_points
        counts_fft = label in ("fft", "ifft")

        def counted(a, *args, **kwargs):
            layer = layer_of[span_name[stack[-1]]] if stack else NO_LAYER
            counts[layer, label] += 1
            if counts_fft:
                n = kwargs.get("n", args[0] if args else None)
                points[layer] += int(n) if n is not None else int(np.shape(a)[-1])
            return fn(a, *args, **kwargs)

        counted.__name__ = fn.__name__
        counted.__doc__ = fn.__doc__
        return counted

    def _targets(self):
        """(layer, span name, owner, attribute, raw attribute) to wrap."""
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield layer, f"{layer}.{attr}", module, attr, obj
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{obj.__name__}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                            yield layer, name, obj, meth, raw
                        elif isinstance(raw, property):
                            self.unwrapped.append(f"{name} (property)")

    def _plan(self) -> None:
        """Build every wrapper once; install() and uninstall() swap them in
        and out, so traced and untraced requests can alternate."""
        planned = set()
        for layer, name, owner, attr, raw in self._targets():
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                wrapper = self._wrap(fn, name, layer)
                self._patches.append((owner, attr, raw, type(raw)(wrapper)))
            else:
                fn = raw
                wrapper = self._wrap(fn, name, layer)
                self._patches.append((owner, attr, raw, wrapper))
            self._originals[id(fn)] = (fn, wrapper)
            planned.add((id(owner), attr))
        # Names imported by ``from ... import`` and module-level tables.
        for module in self.namespaces:
            for attr, obj in vars(module).items():
                if (id(module), attr) in planned:
                    continue
                if self._original(obj):
                    self._patches.append((module, attr, obj, self._originals[id(obj)][1]))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if self._original(value):
                            self._table_patches.append(
                                (obj, key, value, self._originals[id(value)][1]))
        for label, owner, attr in KERNELS:
            raw = getattr(owner, attr)
            self._patches.append((owner, attr, raw, self._wrap_kernel(label, raw)))

    def _original(self, obj) -> bool:
        entry = self._originals.get(id(obj))
        return entry is not None and entry[0] is obj

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        for table, key, _, new in self._table_patches:
            table[key] = new
        if not self._checked:
            self._checked = True
            self._report_leftovers()

    def uninstall(self) -> None:
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)
        for table, key, old, _ in self._table_patches:
            table[key] = old

    def _report_leftovers(self) -> None:
        """Record every original still reachable from a namespace or table
        that the tracer did not patch: calls through it go unrecorded."""
        fns = [fn for fn, _ in self._originals.values()]
        own = {id(self._patches), id(self._table_patches), id(self._originals), id(fns)}
        own.update(id(t) for t in self._patches)
        own.update(id(t) for t in self._table_patches)
        own.update(id(t) for t in self._originals.values())
        for ref in gc.get_referrers(*fns):
            if id(ref) in own or not isinstance(ref, (dict, list, tuple)):
                continue
            for item in (ref.values() if isinstance(ref, dict) else ref):
                if self._original(item):
                    self.unwrapped.append(f"{item.__module__}.{item.__qualname__} "
                                          f"(held by an unpatched {type(ref).__name__})")

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.span_request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, p50 seconds per call."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            calls = int(np.count_nonzero(mask))
            out[name] = {
                "calls": calls,
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "p50_s": float(np.median(dur[mask])) if calls else 0.0,
            }
        return out

    def spans_with_ancestor(self, names, ancestor: str) -> int:
        """Number of ``ancestor`` spans that have a span named in ``names``
        as a child, directly or through other spans in ``names``."""
        a = self.arrays()
        ids = [self.name_ids[n] for n in names if n in self.name_ids]
        if ancestor not in self.name_ids or not ids:
            return 0
        parents = set(a["parent"][np.isin(a["name"], ids)].tolist())
        target = self.name_ids[ancestor]
        return sum(1 for p in parents if p >= 0 and a["name"][p] == target)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of),
                 **self.arrays())
