"""Span tracer for the lsubgroups modules, installed from outside the library.

``Tracer.install`` replaces every module binding of a public function of
the package (``lsubgroups.lsets.generate``, but also the ``generate`` that
``lsubgroups.maximal`` imported from it) with a wrapper that records a
span, and ``uninstall`` puts every original binding back.  Modules are
looked up in ``sys.modules``, so a package attribute that shadows a module
name (``lsubgroups.frattini`` is the function) does not matter, and a
binding that does not exist is simply never patched.

Spans are kept two ways.  Every call adds its count, inclusive time and
self time to a call tree keyed by the path of span names from the
benchmark's root span, which stays small however many calls are made.
Shallow spans are also kept one by one, with start, end and parent, up to
a fixed number, for the results file.  Hooks turn the arguments and result
of a few calls into work counts (members enumerated, points considered).
"""
from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "lsubgroups"
LAYERS = ("lattice", "groups", "lsets", "maximal", "frattini", "harness", "cli")

# spans deeper than this below a benchmark span are only aggregated
RECORD_DEPTH = 3
RECORD_LIMIT = 5_000


def _points_considered(args, kwargs, result) -> dict:
    mu = args[0] if args else kwargs["mu"]
    lat = mu.lattice
    return {"frattini.nongen_points": sum(len(lat.down_set(mu.value(x))) for x in mu.group.elements)}


def _members(args, kwargs, result) -> dict:
    return {"maximal.members": len(result)}


def _maximals(args, kwargs, result) -> dict:
    return {"maximal.maximals_found": len(result)}


HOOKS = {
    "frattini.non_generator_points": _points_considered,
    "maximal.enumerate_l_subgroups": _members,
    "maximal.maximal_l_subgroups": _maximals,
}


class Tracer:
    """Records spans for calls into the package's public functions."""

    def __init__(self):
        self.tree: dict[tuple[str, ...], list] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._groups_seen: dict[int, object] = {}  # holds each group, so its id stays unique
        self._stack: list[list] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -------------------------------------------------------- patching

    def _modules(self) -> list[types.ModuleType]:
        found = []
        for name in (PACKAGE, *(f"{PACKAGE}.{layer}" for layer in LAYERS)):
            module = sys.modules.get(name)
            if isinstance(module, types.ModuleType):
                found.append(module)
        return found

    def install(self) -> "Tracer":
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        count_groups = name == "groups.all_subgroups"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                self.add(hook(args, kwargs, result))
            if count_groups and id(args[0]) not in self._groups_seen:
                self._groups_seen[id(args[0])] = args[0]
                self.add({"groups.subgroups_found": len(result)})
            return result

        return traced

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> None:
        """Open a span; calls into the library are traced only inside one."""
        parent = self._stack[-1] if self._stack else None
        path = (parent[0] if parent else ()) + (name,)
        record = None
        if len(path) <= RECORD_DEPTH + 1 and len(self.spans) < RECORD_LIMIT:
            record = len(self.spans)
            self.spans.append(None)
        self._stack.append([path, time.perf_counter(), 0.0, record, parent[3] if parent else None])

    def exit(self) -> None:
        end = time.perf_counter()
        path, start, children, record, parent_record = self._stack.pop()
        duration = end - start
        node = self.tree.get(path)
        if node is None:
            node = self.tree[path] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += duration
        node[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if record is not None:
            self.spans[record] = (record, path[-1], start, end, parent_record)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def export(self) -> dict:
        """Plain-data form of the trace, for passing between processes."""
        return {
            "tree": [[list(path), *node] for path, node in self.tree.items()],
            "spans": [span for span in self.spans if span is not None],
            "counters": dict(self.counters),
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.exit()
