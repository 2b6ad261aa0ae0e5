"""Outside-in tracer for groupspec, installed by the benchmark's traced passes.

It wraps the public functions of each layer module and the public methods of
the classes defined there, rebinds every alias that other modules took with
``from ... import`` (module globals, dict and tuple values such as
``dsl._GROUP_MAKERS`` and ``checks.SUITES``, class attributes), and refuses to
run if any alias is left.  Nothing in groupspec is edited.

Each wrapped call adds to per-name aggregates (calls, self time, total time).
A call whose caller is in another layer, or that has no traced caller, is a
layer-boundary span and is kept in memory as
``(span_id, parent_span_id, job, name, start, end)``; ``dump`` writes them
out at the end of the pass.  A span's self time is its duration minus the
durations of the traced calls made inside it, so the self times of all spans
add up to the time spent under top-level spans.
"""

from __future__ import annotations

import json
import sys
import time
import types

LAYERS = ("fingroup", "gobject", "spectrum", "sheaf", "freeprod", "variety", "checks", "dsl", "export")

# Constant-time accessors called millions of times.  Left unwrapped, their
# (tiny) cost counts as self time of the calling span.
UNWRAPPED = {
    "fingroup": {"op", "inverse", "conj", "commutator", "power", "element_order",
                 "elements", "issubset", "is_trivial", "is_whole"},
    "freeprod": {"is_identity", "is_constant", "length", "sort_key", "identity"},
    "sheaf": {"value_at", "index_of", "point_quotient", "section_value", "label"},
    "spectrum": {"index_of"},
    "gobject": {"label"},
}

MAX_SPANS = 300_000


class TracerError(RuntimeError):
    pass


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def _public_functions(mod):
    """(qualified name, owner, attribute, function) for every traced callable."""
    skip = UNWRAPPED.get(mod.__name__.rsplit(".", 1)[1], set())
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or name in skip:
            continue
        if isinstance(obj, type) and obj.__module__ == mod.__name__:
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if isinstance(member, staticmethod):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    yield f"{obj.__name__}.{attr}", obj, attr, member
        elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                yield name, mod, name, obj


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.top_s = 0.0
        self.job = -1
        self.active = False
        self._stack: list[list] = []  # frames: [layer, child_s, span_id]
        self._next_span = 0
        self._wrapper_of: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._hooks: dict[str, object] = {}

    # -- installation ------------------------------------------------------

    def install(self, package, hooks=None) -> None:
        """Wrap every layer's public callables and rebind all their aliases."""
        self._hooks = dict(hooks or {})
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for qual, owner, attr, fn in _public_functions(mod):
                if id(fn) in self._wrapper_of:
                    continue  # an alias of a function wrapped already
                short = qual.rsplit(".", 1)[-1]
                wrapper = self._wrap(layer, f"{layer}.{short}", fn, self._hooks.get(f"{layer}.{qual}"))
                self._wrapper_of[id(fn)] = (fn, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod in modules:
            self._rebind_module(mod)
        left = [where for mod in modules for where in self._aliases(mod)]
        if left:
            raise TracerError("unpatched aliases of traced functions: " + ", ".join(left))

    def _swap(self, value):
        """The wrapper for an original, or None when value is not one."""
        if isinstance(value, staticmethod):
            hit = self._wrapper_of.get(id(value.__func__))
            return staticmethod(hit[1]) if hit and hit[0] is value.__func__ else None
        hit = self._wrapper_of.get(id(value))
        if hit and hit[0] is value:
            return hit[1]
        if isinstance(value, tuple):
            swapped = [self._swap(v) for v in value]
            if any(s is not None for s in swapped):
                return tuple(v if s is None else s for v, s in zip(value, swapped))
        return None

    def _places(self, mod):
        """(description, container, key) for every slot an alias can sit in."""
        for name, value in list(vars(mod).items()):
            yield f"{mod.__name__}.{name}", mod, name
            if isinstance(value, dict):
                for k in list(value):
                    yield f"{mod.__name__}.{name}[{k!r}]", value, k
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr in list(vars(value)):
                    yield f"{mod.__name__}.{name}.{attr}", value, attr

    @staticmethod
    def _get(container, key):
        return container[key] if isinstance(container, dict) else vars(container)[key]

    def _rebind_module(self, mod) -> None:
        for _, container, key in self._places(mod):
            new = self._swap(self._get(container, key))
            if new is None:
                continue
            if isinstance(container, dict):
                container[key] = new
            else:
                setattr(container, key, new)

    def _aliases(self, mod):
        """Slots that still hold an original, also inside containers,
        default arguments and closures, where rebinding does not reach."""
        wrappers = {id(w) for _, w in self._wrapper_of.values()}
        for where, container, key in self._places(mod):
            value = self._get(container, key)
            if id(value) in wrappers:
                continue
            inner = [value]
            if isinstance(value, (list, tuple, set, frozenset)):
                inner += list(value)
            elif isinstance(value, types.FunctionType):
                inner += list(value.__defaults__ or ())
                inner += list((value.__kwdefaults__ or {}).values())
                inner += [c.cell_contents for c in value.__closure__ or () if _filled(c)]
            if any(self._swap(v) is not None for v in inner):
                yield where

    def original(self, fn):
        """The unwrapped callable behind fn (fn itself when not wrapped)."""
        for orig, wrapper in self._wrapper_of.values():
            if wrapper is fn:
                return orig
        return fn

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn, hook):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != layer
            if boundary:
                span = tracer._next_span
                tracer._next_span += 1
            else:
                span = parent[2]
            frame = [layer, 0.0, span]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[1]
                stat[2] += dur
                if parent is None:
                    tracer.top_s += dur
                else:
                    parent[1] += dur
                if boundary:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (span, parent[2] if parent else -1, tracer.job, key, t0, t1)
                        )
                    else:
                        tracer.spans_dropped += 1
                if hook is not None:
                    # a hook runs untraced and after t1: its time counts as
                    # self time of the calling span, or as unattributed
                    tracer.active = False
                    try:
                        hook(tracer, args, kwargs, result, exc, boundary)
                    finally:
                        tracer.active = True

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Forget everything recorded so far (used after set-up)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.top_s = 0.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}) + "\n")
