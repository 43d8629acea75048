"""Outside-in tracer: spans around the public functions of each layer.

Only the traced run imports this module.  `Tracer.install` replaces every
public function and every method of every public class of the layer
modules with a wrapper that records a span, at every place the object is
bound: its defining module, each module that copied it with
``from .x import f`` (``cli``, ``invariants``, ``hopf``, the package
itself) and module-level dicts such as the CLI's invariant table.
`uninstall` puts the originals back.

A span is (name, start, end, parent span, job).  Spans stay in memory in
flat arrays and are written out once at the end.  A layer's self time is
the time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from typing import Callable

LAYERS = ("cli", "digraph", "kernels", "hopf", "invariants", "rings", "submodular", "cones")

# Special methods the interpreter calls in ways a wrapper must not intercept.
_SKIP = frozenset(("__new__", "__init_subclass__", "__class_getitem__", "__getattribute__",
                   "__getattr__", "__setattr__", "__delattr__", "__subclasshook__"))


class Tracer:
    """Span recorder.  `clock` is injectable so tests can script time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []          # span name table
        self.layer_of: list[str] = []       # layer of each name
        self.calls: list[int] = []          # calls per name
        self.name_id: array = array("i")    # per span
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.job: array = array("i")
        self.state: list = [-1, None]         # innermost open span and its layer
        self.current_job = -1
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ recording

    def _name(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}:{qualname}")
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, layer: str, qualname: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """A wrapper that records a span when a call enters the layer.

        A call made from code of the same layer records nothing: spans mark
        layer boundaries, and `calls` counts the calls into the layer.
        observe(args, kwargs, result) runs after every normal return, inside
        the span.  Generator functions get one span per resumption, so the
        time spent producing each item is charged to the generator's layer
        and the consumer's time between items is not.
        """
        nid = self._name(layer, qualname)
        tracer, clock, calls, state, end = self, self.clock, self.calls, self.state, self.end
        add_name, add_parent, add_job, add_start, add_end = (
            self.name_id.append, self.parent.append, self.job.append,
            self.start.append, self.end.append)

        # The span bookkeeping is written out in both wrappers rather than
        # shared through a helper: a helper call per span would add to the
        # overhead that lands in the measured self times.
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if state[1] is layer:
                    yield from it
                    return
                calls[nid] += 1
                while True:
                    sid, outer, outer_layer = len(end), state[0], state[1]
                    add_name(nid)
                    add_parent(outer)
                    add_job(tracer.current_job)
                    add_end(0.0)
                    state[0], state[1] = sid, layer
                    add_start(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[sid] = clock()
                        state[0], state[1] = outer, outer_layer
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if state[1] is layer:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        observe(args, kwargs, result)
                    return result
                calls[nid] += 1
                sid, outer, outer_layer = len(end), state[0], state[1]
                add_name(nid)
                add_parent(outer)
                add_job(tracer.current_job)
                add_end(0.0)
                state[0], state[1] = sid, layer
                add_start(clock())
                try:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        observe(args, kwargs, result)
                    return result
                finally:
                    end[sid] = clock()
                    state[0], state[1] = outer, outer_layer

        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ installing

    def _set(self, owner: object, key: str, value: object) -> None:
        is_dict = isinstance(owner, dict)
        old = owner[key] if is_dict else owner.__dict__[key]
        self._patches.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self, observers: dict[str, Callable] | None = None) -> None:
        """Wrap the public API of every layer module at every binding site.

        observers maps "layer:qualname" to an observe callback (see wrap).
        """
        observers = observers or {}
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "hopfdg" or name.startswith("hopfdg."))}
        originals: dict[int, Callable] = {}   # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules.get(f"hopfdg.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.ismodule(obj):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(layer, obj, observers)
                    continue
                if not callable(obj) or id(obj) in originals:
                    continue
                # kernels re-exports its implementation module's functions;
                # every other layer owns only what it defines
                owner = getattr(obj, "__module__", None)
                if layer != "kernels" and owner != mod.__name__:
                    continue
                qual = getattr(obj, "__qualname__", attr)
                originals[id(obj)] = self.wrap(layer, qual, obj,
                                               observers.get(f"{layer}:{qual}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, attr, originals[id(obj)])
                elif type(obj) is dict:
                    for key, val in list(obj.items()):
                        if id(val) in originals:
                            self._set(obj, key, originals[id(val)])

    def _wrap_class(self, layer: str, cls: type, observers: dict[str, Callable]) -> None:
        for attr, member in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if (attr.startswith("_") and not dunder) or attr in _SKIP:
                continue
            qual = f"{cls.__name__}.{attr}"
            obs = observers.get(f"{layer}:{qual}")
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._set(cls, attr, kind(self.wrap(layer, qual, member.__func__, obs)))
            elif isinstance(member, property) and member.fget is not None:
                self._set(cls, attr, property(self.wrap(layer, qual, member.fget, obs),
                                              member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(layer, qual, member, obs))

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # ------------------------------------------------------------ reading

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per layer over the spans from index first on (whole root spans)."""
        last = len(self.start)
        child = [0.0] * (last - first)
        start, end, parent = self.start, self.end, self.parent
        for sid in range(first, last):
            p = parent[sid]
            if p >= first:
                child[p - first] += end[sid] - start[sid]
        totals = dict.fromkeys(LAYERS, 0.0)
        layer_of, name_id = self.layer_of, self.name_id
        for sid in range(first, last):
            totals[layer_of[name_id[sid]]] += end[sid] - start[sid] - child[sid - first]
        return totals

    def layer_calls(self) -> dict[str, int]:
        totals = dict.fromkeys(LAYERS, 0)
        for nid, n in enumerate(self.calls):
            totals[self.layer_of[nid]] += n
        return totals

    def truncate(self, count: int) -> None:
        """Forget every span from index count on (whole passes, after reading them)."""
        for arr in (self.name_id, self.start, self.end, self.parent, self.job):
            del arr[count:]

    def write(self, path: str) -> None:
        """Span table as gzipped tab-separated text; times in ns from the first span.

        The first line lists the span names; the name column indexes it.
        """
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# names\t" + "\t".join(self.names) + "\n")
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.job[sid]}\t{self.name_id[sid]}\t"
                         f"{round((self.start[sid] - t0) * 1e9)}\t"
                         f"{round((self.end[sid] - t0) * 1e9)}\n")
