"""Tracing from outside the program.

``Probes`` replaces public functions of the program's modules with wrappers
that record a span per call, and opens a span for every garbage collection
through ``gc.callbacks``. Each thread appends to its own buffer of compact
arrays, so recording takes no lock and adds few objects for the collector to
scan. Spans stay in memory until the run ends; ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import gc
import gzip
import threading
from array import array
from time import perf_counter

from ftsdn import apps, ofwire
from ftsdn.coord import CoordService
from ftsdn.ctrl import Replica
from ftsdn.harness.runtime_det import Scheduler
from ftsdn.harness.runtime_socket import SocketExecutor
from ftsdn.switchsim import FlowTable, Switch
from ftsdn.trace import TraceLog

from measure import self_times

GC_SPAN = "gc"

# (owner, attribute, span name): each call becomes one span of that name
SPANNED = (
    (Scheduler, "run", "sched.run"),
    (Replica, "on_switch_message", "ctrl.on_switch_message"),
    (Replica, "on_log_entry", "ctrl.on_log_entry"),
    (CoordService, "append", "coord.append"),
    (Switch, "on_message", "switchsim.on_message"),
    (FlowTable, "lookup", "switchsim.lookup"),
    (apps.ForwardingApp, "on_event", "apps.on_event"),
    (apps.LearningSwitchApp, "on_event", "apps.on_event"),
    (TraceLog, "emit", "trace.emit"),
    (ofwire, "to_json", "ofwire.to_json"),
    (ofwire, "encode", "ofwire.encode"),
    (ofwire, "decode", "ofwire.decode"),
    (ofwire.FrameBuffer, "feed", "ofwire.feed"),
)


class _ThreadSpans:
    __slots__ = ("names", "starts", "ends", "parents", "stack")

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []

    def open(self, name_id: int, t: float) -> int:
        idx = len(self.starts)
        self.names.append(name_id)
        self.starts.append(t)
        self.ends.append(t)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t: float) -> None:
        self.ends[idx] = t
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()


class Probes:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._gc_open: dict[int, tuple[_ThreadSpans, int]] = {}
        self.gc_collections = 0
        self.gc_gen2_max_s = 0.0
        # counts kept beside the spans
        self.scheduled = 0
        self.lookup_hits = 0
        self.frames_fed = 0
        self.exec_waits: list[float] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buf(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadSpans()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _spanned(self, name: str, fn, after=None):
        nid = self._name_id(name)
        buf_of = self._buf

        def wrapper(*args, **kw):
            buf = buf_of()
            idx = buf.open(nid, perf_counter())
            try:
                result = fn(*args, **kw)
            finally:
                buf.close(idx, perf_counter())
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        now = perf_counter()
        if phase == "start":
            buf = self._buf()
            self._gc_open[threading.get_ident()] = (buf, buf.open(self._name_id(GC_SPAN), now))
            return
        opened = self._gc_open.pop(threading.get_ident(), None)
        if opened is None:
            return
        buf, idx = opened
        buf.close(idx, now)
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2_max_s = max(self.gc_gen2_max_s, now - buf.starts[idx])

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        afters = {
            "switchsim.lookup": self._count_hit,
            "ofwire.feed": self._count_frames,
        }
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(name, owner.__dict__[attr], afters.get(name)))
        self._patch(Scheduler, "schedule_at", self._counting_schedule(Scheduler.schedule_at))
        self._patch(SocketExecutor, "post", self._timed_post(SocketExecutor.post))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_hit(self, args, rule) -> None:
        if rule is not None:
            self.lookup_hits += 1

    def _count_frames(self, args, msgs) -> None:
        self.frames_fed += len(msgs)

    def _counting_schedule(self, original):
        probes = self

        def schedule_at(sched, when, fn, maintenance=False):
            probes.scheduled += 1
            return original(sched, when, fn, maintenance)

        return schedule_at

    def _timed_post(self, original):
        waits = self.exec_waits

        def post(executor, fn):
            posted = perf_counter()

            def timed() -> None:
                waits.append(perf_counter() - posted)
                fn()

            original(executor, timed)

        return post

    # -- results ---------------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(b.starts) for b in self._buffers)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for buf in self._buffers:
            selfs = self_times(buf.starts, buf.ends, buf.parents)
            for i, own in enumerate(selfs):
                agg = out[self.names[buf.names[i]]]
                agg["calls"] += 1
                agg["incl_s"] += buf.ends[i] - buf.starts[i]
                agg["self_s"] += own
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: thread, index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("thread\tindex\tname\tstart\tend\tparent\n")
            for t, buf in enumerate(self._buffers):
                for i in range(len(buf.starts)):
                    fh.write(
                        f"{t}\t{i}\t{self.names[buf.names[i]]}\t{buf.starts[i]:.9f}\t"
                        f"{buf.ends[i]:.9f}\t{buf.parents[i]}\n"
                    )
