"""In-memory spans around the calls into popcode_mi's public functions.

Tracing works from outside the package: :class:`Tracer` replaces a public
name *where its caller looks it up* (for example ``cli.mc_mutual_information``
or ``mi.logdet_grid``) with a wrapper that records one span per call, and
puts the original back on exit.  Nothing under ``src/`` is edited.

A span is ``(id, name, start, end, parent, op)``.  The parent is the
innermost open span of the calling thread; a call made on a pool thread
with no open span of its own is parented to the innermost open span of
the thread running the benchmark operation (``op``), so work that
``cli.main`` hands to its thread pool still nests under it.  Counters
ride along with spans: a wrapper may add computed operation counts
(samples, flops, matrices) from the call's arguments and result.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans and counts; installs wrappers while used as a context."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op)
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0  # id of the running operation
        self._op_stack = []  # open spans of the thread running it
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = (stack or self._op_stack or [0])[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self._op))

    def operation(self, op_id, name, fn, *args, **kwargs):
        """Run one benchmark operation as the root span of ``op_id``."""
        stack = self._stack()
        span_id = next(self._ids)
        self._op, self._op_stack = op_id, stack
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, 0, op_id))
            self._op, self._op_stack = 0, []

    def count(self, name, amount):
        self.counts[name] += amount

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr, name, counter=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``counter(tracer, args, kwargs, result)`` may add computed counts.  Class
        and static methods are rewrapped in their descriptor type so that
        lookups through the class keep working.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        descriptor = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        fn = original.__func__ if descriptor else original
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)
        self._restore.append((owner, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- summaries -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, busy time and self time, in seconds.

        Busy time sums span durations, so calls running on pool threads
        add up.  Self time is a span's duration minus the part of its
        interval that its child spans cover (their union, since children
        on different threads may overlap).
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[4]:
                children[span[4]].append((span[2], span[3]))
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
        return dict(out)

    def write(self, path):
        """Write every span as CSV: id,name,start_s,end_s,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for span_id, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{op}\n")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
