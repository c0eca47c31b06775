"""In-memory span tracing by wrapping functions at module attributes.

The drivers import their collaborators with `from .x import y`, so a call
site looks the name up in its own module's namespace.  Replacing that
attribute (for example `fairlists.rationalize.knn_neighborhood`) puts a
wrapper around every call made from that module without touching the
program.  A wrapper records one span per call: name, start, end, parent id,
op id and a small dict of counts taken from the arguments or the result.

Spans are kept in memory and read when a pass ends.  Parents follow the
calling thread's open spans; a span opened on a thread with no open span
(a pool worker) takes as parent the innermost open span of the thread that
started the tracer, which is the thread that submitted the work.
"""

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "info", "failed")

    def __init__(self, id, parent, op, name, start):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.info = {}
        self.failed = False

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = defaultdict(list)
        self._home = threading.get_ident()

    def _parent(self):
        stack = self._stacks[threading.get_ident()]
        if stack:
            return stack[-1]
        home = self._stacks[self._home]
        return home[-1] if home else None

    @contextmanager
    def span(self, name, op=False):
        parent = self._parent()
        sid = next(self._ids)
        opid = sid if op else (parent.op if parent is not None else None)
        sp = Span(sid, parent.id if parent is not None else None, opid, name, time.perf_counter())
        stack = self._stacks[threading.get_ident()]
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def wrap(self, fn, name, op=False, count=None):
        """`fn` with a span around each call; `count(args, kwargs, result)`
        returns the counts stored on the span."""

        def wrapper(*args, **kwargs):
            with self.span(name, op=op) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.info = count(args, kwargs, result)
                return result

        return wrapper

    def drain(self):
        """Spans recorded since the last drain, in completion order."""
        out, self.spans = self.spans, []
        return out


@contextmanager
def installed(tracer, targets, op_name):
    """Patch every target for the duration of the block.

    `targets` holds (module, attribute, span name, count); the span named
    `op_name` marks an op boundary.  Originals are restored on exit.
    """
    saved = []
    try:
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, op=(name == op_name), count=count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part covered by its child
    spans.  Where spans run at once on several threads, each instant is
    split evenly between the spans open at that instant that have no open
    child, so the self times of a tree always sum to its root's duration.
    """
    by_id = {sp.id: sp for sp in spans}
    depth = {}

    def depth_of(sp):
        if sp.id not in depth:
            parent = by_id.get(sp.parent)
            depth[sp.id] = 0 if parent is None else depth_of(parent) + 1
        return depth[sp.id]

    events = []
    for sp in spans:
        d = depth_of(sp)
        # at one instant: ends before starts, children end before parents,
        # parents start before children
        events.append((sp.start, 1, d, sp))
        events.append((sp.end, 0, -d, sp))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    out = defaultdict(float)
    open_children = defaultdict(int)
    active = set()
    leaves = set()
    prev = None
    for t, kind, _, sp in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for sid in leaves:
                out[sid] += share
        prev = t
        parent = sp.parent if sp.parent in active else None
        if kind == 1:
            active.add(sp.id)
            leaves.add(sp.id)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sp.id)
            leaves.discard(sp.id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return {sp.id: out[sp.id] for sp in spans}
