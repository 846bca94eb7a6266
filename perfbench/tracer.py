"""Span tracer that times calls into the program from outside it.

:meth:`Tracer.wrap` replaces a public callable with a timing wrapper, so
the program itself carries no tracing code.  Every wrapped call is one
span: name, start, end, parent span and run id.  Spans live in memory and
are written once, at the end, as Chrome-trace JSON (the shape
``repro.telemetry`` exports, which Perfetto loads).

Calls made thousands of times per simulated run (``Stats.flush``,
``ProgressWatchdog.__call__``) are wrapped as *hot*: they only add to a
per-name ``[calls, seconds]`` total, and their time is charged to the
enclosing span as ``hidden`` so self times stay exact without storing a
span per call.

Worker processes forked after :meth:`Tracer.install_fork_hook` start with
an empty record and write it to ``<child_dir>/spans-<pid>.json`` when
they exit, so daemon and shard workers are traced too.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str
    pid: int
    tid: int
    #: Seconds spent in hot (aggregated, unrecorded) child calls.
    hidden: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects spans, totals and notes."""

    def __init__(self, run: str = "") -> None:
        #: Run id stamped on every span; children inherit it at fork.
        self.run = run
        self.spans: List[Span] = []
        #: ``(run, name) -> [calls, seconds]`` for every wrapped call and
        #: for counts added with :meth:`add`.
        self.totals: Dict[tuple, list] = {}
        #: Structured per-call records (e.g. one per sharded run).
        self.notes: List[dict] = []
        self.child_dir: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span in this thread (None if none)."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def add(self, name: str, calls: int = 0, seconds: float = 0.0) -> None:
        with self._lock:  # daemon threads record concurrently
            total = self.totals.setdefault((self.run, name), [0, 0.0])
            total[0] += calls
            total[1] += seconds

    def note(self, kind: str, **data) -> None:
        self.notes.append({"kind": kind, "run": self.run, **data})

    def wrap(self, owner, attr: str, name: Optional[str] = None,
             hot: bool = False) -> None:
        """Time every call of ``owner.attr`` (a function or method); the
        span is named ``<class or last module component>.<attr>``."""
        if name is None:
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        self.patch(owner, attr, self._timed(getattr(owner, attr), name, hot))

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the old value back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, fn: Callable, name: str, hot: bool) -> Callable:
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [0 if hot else next(tracer._ids), name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.add(name, 1, end - start)
                if hot:
                    if parent is not None:
                        parent[2] += end - start
                else:
                    tracer.spans.append(Span(
                        frame[0], parent[0] if parent else None, name,
                        start, end, tracer.run, os.getpid(),
                        threading.get_ident(), frame[2]))

        return wrapper

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker processes ----------------------------------------------
    def install_fork_hook(self, child_dir: str) -> None:
        """Trace forked multiprocessing workers into ``child_dir``."""
        self.child_dir = child_dir
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # Runs in the child: start an empty record (the parent keeps its
        # own) and dump it when multiprocessing shuts the child down.
        self.spans = []
        self.totals = {}
        self.notes = []
        self._local = threading.local()
        self._lock = threading.Lock()
        mp_util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        """Write this process's record to ``<child_dir>/spans-<pid>.json``."""
        path = os.path.join(self.child_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({
                "spans": [list(span) for span in self.spans],
                "totals": [[run, name, calls, seconds] for (run, name),
                           (calls, seconds) in self.totals.items()],
                "notes": self.notes,
            }, handle)

    def merge_dir(self, directory: str) -> None:
        """Fold in every record :meth:`dump` wrote to ``directory``."""
        for entry in sorted(os.listdir(directory)):
            if not (entry.startswith("spans-") and entry.endswith(".json")):
                continue
            with open(os.path.join(directory, entry)) as handle:
                data = json.load(handle)
            self.spans.extend(Span(*row) for row in data["spans"])
            for run, name, calls, seconds in data["totals"]:
                total = self.totals.setdefault((run, name), [0, 0.0])
                total[0] += calls
                total[1] += seconds
            self.notes.extend(data["notes"])


def self_times(spans: Iterable[Span]) -> Dict[tuple, float]:
    """``(pid, sid) -> self seconds``: duration minus the part of the
    span's interval covered by its child spans, minus hot child time."""
    spans = list(spans)
    children: Dict[tuple, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get((span.pid, span.sid), ()),
                            key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[(span.pid, span.sid)] = max(
            span.duration - covered - span.hidden, 0.0)
    return out


def chrome_trace(tracer: Tracer, other: Optional[dict] = None) -> dict:
    """The tracer's spans as Chrome trace events (Perfetto-loadable)."""
    spans = tracer.spans
    t0 = min((span.start for span in spans), default=0.0)
    selfs = self_times(spans)
    events: List[dict] = []
    for pid in sorted({span.pid for span in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"pid {pid}"}})
    for span in spans:
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - t0) * 1e6,
            "dur": span.duration * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": {
                "run": span.run,
                "span": span.sid,
                "parent": span.parent,
                "self_us": selfs[(span.pid, span.sid)] * 1e6,
            },
        })
    totals = {f"{run}|{name}": {"calls": calls, "seconds": seconds}
              for (run, name), (calls, seconds) in tracer.totals.items()}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"totals": totals, "notes": tracer.notes,
                      **(other or {})},
    }
