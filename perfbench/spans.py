"""Span tracing of curvebound's public surface, from outside the package.

``install`` replaces every public function and method of the given modules
with a wrapper that records a span: (id, parent id, name, start, end, pass
id).  Spans stay in memory and ``Tracer.summary`` reduces them at the end.
The wrappers return what the wrapped callable returns and re-raise what it
raises, so traced output is byte-identical to untraced output.

Two kinds of callable are counted instead of timed, because they run
hundreds of thousands of times per command and a span each would swamp the
measurement: the methods of ``Permutation`` (counted per pass), and the
methods of ``FpPoly`` (not wrapped at all; their time is self time of the
caller).  Generator functions are left alone, since a span would only
cover their creation.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import weakref
from time import perf_counter

COUNTED_CLASSES = ("Permutation",)
UNWRAPPED_CLASSES = ("FpPoly",)
WRAPPED_DUNDERS = ("__init__", "__mul__", "__contains__")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.pass_id = 0
        self.counts = {}  # pass id -> {name: calls}
        self.extras = {}  # pass id -> {key: total}
        self.seen_elements = weakref.WeakSet()

    def add(self, key, amount):
        bucket = self.extras.setdefault(self.pass_id, {})
        bucket[key] = bucket.get(key, 0) + amount

    def timed(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.pass_id))
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            bucket = self.counts.get(self.pass_id)
            if bucket is None:
                bucket = self.counts[self.pass_id] = {}
            bucket[name] = bucket.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def summary(self):
        """Per pass: {name: [calls, inclusive s, self s]}, counts and extras.

        Inclusive time adds up only the outermost span of each name, so
        recursion is not counted twice.  Call it with no span open; it
        empties the tracer, so a long run can be summarized pass by pass.
        """
        own = self_times(self.spans)
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        parents = {sid: parent for sid, parent, _, _, _, _ in self.spans}
        passes = {}
        for sid, parent, name, start, end, pass_id in self.spans:
            row = passes.setdefault(pass_id, {}).setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += own[sid]
            up = parent
            while up != -1 and names[up] != name:
                up = parents[up]
            if up == -1:
                row[1] += end - start
        ids = set(passes) | set(self.counts) | set(self.extras)
        out = {str(k): {"spans": passes.get(k, {}), "counts": self.counts.get(k, {}),
                        "extras": self.extras.get(k, {})} for k in sorted(ids)}
        self.spans.clear()
        self.counts.clear()
        self.extras.clear()
        return out


def self_times(spans):
    """Self time of each span: its duration minus the union of its children's intervals."""
    children = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


# -- per-name hooks that read work counts off arguments and results ---------------


def _normalizer(tracer, args, result):
    tracer.add("normalizer_found", len(result))
    tracer.add("normalizer_scanned", len(args[0]))


def _elements(tracer, args, result):
    group = args[0]
    if group not in tracer.seen_elements:
        tracer.seen_elements.add(group)
        tracer.add("elements_materialized", len(result))


HOOKS = {
    "permgroup.PermGroup.normalizer": _normalizer,
    "permgroup.PermGroup.elements": _elements,
    "ramification.enumerate_case_iii": lambda t, a, r: t.add("candidates", len(r)),
    "bounds.audit_chain": lambda t, a, r: t.add("steps_audited", len(r)),
    "prank.count_points": lambda t, a, r: t.add("points_counted", a[0].p ** a[1]),
}


def install(tracer, modules):
    """Wrap the public callables of ``modules`` in place, in every module that binds them."""
    replaced = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _install_class(tracer, layer, obj)
            elif callable(obj) and not inspect.isgeneratorfunction(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = tracer.timed(name, obj, HOOKS.get(name))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])


def _install_class(tracer, layer, cls):
    if cls.__name__ in UNWRAPPED_CLASSES or issubclass(cls, BaseException):
        return
    for attr, member in list(vars(cls).items()):
        if not inspect.isfunction(member) or inspect.isgeneratorfunction(member):
            continue
        if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
            continue
        if attr == "__init__" and dataclasses.is_dataclass(cls):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if cls.__name__ in COUNTED_CLASSES:
            setattr(cls, attr, tracer.counted(name, member))
        else:
            setattr(cls, attr, tracer.timed(name, member, HOOKS.get(name)))
