"""Layer tracing of a package from outside it.

`Tracer.install()` wraps every public function defined in a measured module
of the package and rebinds the wrapper under every name that refers to the
function in any loaded module of the package. A module that did
`from .queueing import analyze_admission` holds its own reference, so
rebinding the defining module alone would miss its calls. `uninstall()` puts
every original binding back.

Spans are not kept one by one: the leaf functions run millions of times.
Each call is added to a calling-context tree whose nodes are keyed by
(function, parent node), holding the call count, the total time and the
time covered by child spans. A node's self time is its total time minus
that child time, so the self times of all nodes sum to the time spent in
top-level spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time


class Node:
    """Aggregated spans of one function under one calling context."""

    __slots__ = ("name", "layer", "calls", "total", "child", "children")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.children: dict[str, Node] = {}

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Calling-context tracer over the public functions of some modules.

    Args:
        package: name of the package whose modules are rebound.
        layers: module names inside the package whose public functions are
            wrapped; the layer of a function is the module that defines it.
        observers: optional map from "<layer>.<function>" to a callable
            `observe(counts, result)` run after each successful call, for
            counts that need the returned value.
        clock: time source in seconds.
    """

    ROOT = "bench"

    def __init__(self, package: str, layers, observers=None, clock=time.perf_counter):
        self.package = package
        self.layers = tuple(layers)
        self.observers = dict(observers or {})
        self.clock = clock
        self.counts: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self._stack: list[Node] = []
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count; only valid outside any traced call."""
        if len(self._stack) > 1:
            raise RuntimeError("reset inside a traced call")
        self.root = Node(self.ROOT, self.ROOT)
        self._stack[:] = [self.root]
        self.counts.clear()
        self.errors.clear()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in self.layers:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, layer: str, name: str):
        stack, errors, counts = self._stack, self.errors, self.counts
        observe = self.observers.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, layer)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # Counted where the exception leaves its layer.
                if parent.layer != layer:
                    errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                parent.child += elapsed
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def nodes(self):
        """Every node of the calling-context tree below the root."""
        todo = list(self.root.children.values())
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    def by_function(self) -> dict[str, tuple[int, float]]:
        """(calls, self time) per "<layer>.<function>", summed over contexts."""
        out: dict[str, tuple[int, float]] = {}
        for node in self.nodes():
            calls, self_time = out.get(node.name, (0, 0.0))
            out[node.name] = (calls + node.calls, self_time + node.self_time)
        return out

    def by_layer(self) -> dict[str, float]:
        """Self time per layer."""
        out = {layer: 0.0 for layer in self.layers}
        for node in self.nodes():
            out[node.layer] = out.get(node.layer, 0.0) + node.self_time
        return out
