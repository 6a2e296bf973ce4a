"""In-memory span tracer wrapped around docstudy's public functions.

`Tracer.install` wraps every public function and public method defined in
the traced modules, and rebinds each wrapper under every module-level name
that binds the original, so `from .analysis import sentence_tokens` in
`taskgen` is traced too. A span is (id, parent id, name index, start, end,
size); spans stay in memory and are written with `marshal` at exit. A
module that no longer exists is recorded as absent instead of raising.

The benchmark reads the dumps back with `load`, `Trace` and `Aggregate`.
A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import marshal
import sys
import threading
import time

LAYERS = {
    "corpus": ("docstudy.corpus",),
    "analysis": ("docstudy.analysis",),
    "taskgen": ("docstudy.taskgen",),
    "rng": ("docstudy.rng",),
    "dataset": ("docstudy.dataset",),
    "curriculum": ("docstudy.curriculum",),
    "qagen": ("docstudy.qagen",),
    "metrics": ("docstudy.metrics", "docstudy.metrics._lcs"),
    "stats": ("docstudy.stats",),
}


def _gold_tokens(args, kwargs, result) -> int:
    golds = args[1] if len(args) > 1 else kwargs.get("golds", ())
    if not isinstance(golds, (list, tuple)):
        return 0
    return max((len(str(g).split()) for g in golds), default=0)


# spans of these names also record a size: sentences analysed, gold tokens
SIZERS = {
    "analysis.analyze_document": lambda args, kwargs, result: len(getattr(result, "sentences", ())),
    "metrics.exact_match": _gold_tokens,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.absent_modules: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = -1

    def _stack(self) -> list[int]:
        # worker threads start under the root span
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self._root]
        return stack

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        sizer = SIZERS.get(name)
        ids, spans, stack_of, clock = self._ids, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            parent = stack[-1]
            stack.append(sid)
            size = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, start, end, size))

        return traced

    def install(self) -> None:
        originals: dict[int, tuple] = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.absent_modules.append(modname)
                    continue
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isclass(obj):
                        self._wrap_methods(f"{layer}.{attr}", obj)
                    elif callable(obj):
                        originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "docstudy" and not modname.startswith("docstudy."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", member.__func__)))

    def run_root(self, name: str, fn, *args):
        """Call fn as the root span; worker threads parent to it."""
        self._root = next(self._ids)
        self._local.stack = [self._root]
        index = len(self.names)
        self.names.append(name)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self._root, -1, index, start, time.perf_counter(), 0))

    def dump(self, path) -> None:
        with open(path, "wb") as handle:
            marshal.dump(
                {"names": self.names, "absent_modules": self.absent_modules, "spans": self.spans},
                handle,
            )


def load(path) -> dict:
    with open(path, "rb") as handle:
        return marshal.load(handle)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Trace:
    """Spans of one traced child, with self times resolved."""

    def __init__(self, dump: dict):
        self.names = dump["names"]
        self.absent_modules = dump["absent_modules"]
        self.spans = sorted(dump["spans"], key=lambda s: s[3])
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _index, start, end, _size in self.spans:
            children.setdefault(parent, []).append((start, end))
        self.children = children

    def self_time(self, span) -> float:
        sid, _parent, _index, start, end, _size = span
        inner = [(max(s, start), min(e, end)) for s, e in self.children.get(sid, ())]
        return (end - start) - _covered([(s, e) for s, e in inner if e > s])

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if self.names[s[2]] == name]


class Aggregate:
    """Per-name call counts, inclusive seconds and self seconds over traces."""

    def __init__(self, traces: list[Trace]):
        self.traces = traces
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.own: dict[str, float] = {}
        for trace in traces:
            for span in trace.spans:
                name = trace.names[span[2]]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + span[4] - span[3]
                self.own[name] = self.own.get(name, 0.0) + trace.self_time(span)

    def wrapped(self) -> set[str]:
        return {name for trace in self.traces for name in trace.names}

    def spans(self, name: str) -> list[tuple[Trace, tuple]]:
        return [(trace, span) for trace in self.traces for span in trace.named(name)]
