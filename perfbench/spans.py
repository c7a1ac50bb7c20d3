"""In-memory spans for the benchmark's child process.

Spans are installed from outside the program, by replacing a module or
class attribute with a timing wrapper.  Each call adds to an aggregate
keyed by (parent span, span name): calls, total time and self time
(total minus the time covered by its child spans).  Nothing is written
until the child ends, and nothing is kept per call, so the hottest
leaves (``dcf_step``, ``lbt_step``, ``sensed_power_dbm``) cost one
dict update each.  Times are integer nanoseconds, so self time is
never negative.

This module must not import numpy or coexsim: the child times the
``coexsim`` import itself.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter_ns
        self.stack: list = []  # [name, child_ns] per open span
        self.agg: dict = {}  # (parent, name) -> [calls, total_ns, self_ns]
        self.counters: dict = {}
        self.missing: list = []  # install targets the program no longer has

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _close(self, parent: str, frame: list, t0: int) -> None:
        dur = self.clock() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        rec = self.agg.get((parent, frame[0]))
        if rec is None:
            self.agg[(parent, frame[0])] = [1, dur, dur - frame[1]]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(tracer, args, kwargs)`` runs ahead of the call and its
        value goes to ``after(tracer, args, kwargs, result, before_value)``,
        which runs once the call has returned.  Both run outside this
        span, so their cost lands in the parent span's self time.
        """
        stack = self.stack
        clock = self.clock
        close = self._close

        def traced(*args, **kwargs):
            pre = before(self, args, kwargs) if before is not None else None
            parent = stack[-1][0] if stack else ""
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(parent, frame, t0)
            if after is not None:
                after(self, args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """A context manager timing its body as span ``name``."""
        return _Span(self, name)

    def install(self, target: str, name: str, before=None, after=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` as span ``name``.

        A module-level function is replaced in every loaded ``coexsim``
        module that imported it by name.  A target that no longer exists
        is recorded in ``missing`` and skipped.
        """
        module_name, _, attr_path = target.partition(":")
        owner = sys.modules.get(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(target)
            return
        wrapped = self.wrap(name, original, before, after)
        if owner_path:
            setattr(owner, attr, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "coexsim" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def table(self) -> list:
        """Aggregates as [parent, name, calls, total_ns, self_ns] rows."""
        return [[p, n, *rec] for (p, n), rec in sorted(self.agg.items())]


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer.stack
        self.parent = stack[-1][0] if stack else ""
        self.frame = [self.name, 0]
        stack.append(self.frame)
        self.t0 = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.parent, self.frame, self.t0)


def totals(rows, name: str, parent: str | None = None) -> tuple:
    """(calls, total_ns, self_ns) of span ``name``, summed over parents."""
    calls = total = own = 0
    for p, n, c, t, s in rows:
        if n == name and (parent is None or p == parent):
            calls += c
            total += t
            own += s
    return calls, total, own
