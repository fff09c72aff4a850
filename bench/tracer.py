"""Outside-in tracing of dchag steps.

The tracer changes no dchag source. While installed, it replaces the public
functions that the step drivers call, as their callers look them up (module
attributes and `ProcessGroup` methods), with timed wrappers, and it puts the
originals back when it is removed.

The self time of a span is its wall time minus the wall time of the
collective calls made inside it, because a rank blocked in a collective
mostly waits while the other ranks take their turns. Ranks run one at a
time, so self times summed over ranks never overlap.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager

from dchag import costmodel, layers, strategies, tensor
from dchag import model as dmodel
from dchag.runtime import ProcessGroup
from dchag.tracking import COMPONENT_TAGS

COLLECTIVES = {"all_gather": "AllGather", "reduce_scatter": "ReduceScatter",
               "all_reduce": "AllReduce", "broadcast": "Broadcast"}
TIMED_OPS = ("matmul", "softmax")  # forward and backward time are summed per op
DRIVER_TID = 1000  # Chrome-trace track of the calling (main) thread


def tensor_ops() -> list[str]:
    """Public op functions of dchag.tensor, each counted per call."""
    return sorted(name for name, fn in vars(tensor).items()
                  if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                  and not name.startswith("_")
                  and name not in ("backward", "clear_grads"))


class _ThreadLog:
    """What one thread recorded since the last `Tracer.collect`."""

    def __init__(self):
        self.thread = threading.current_thread()
        self.rank = None
        self.stack = []  # open spans: [start, nested collective wall]
        self.seconds = {}
        self.counts = {}
        self.events = []  # (name, start, end, collective op or None)
        self.in_attention = False

    def add(self, key, seconds):
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Per-step span and count collection; one thread log per thread, so
    rank threads never write to shared state."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._saved = []
        self.record = False  # keep events for the Chrome trace
        self.chrome_events = []
        self._origin = time.perf_counter()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            self._logs.append(log)
        return log

    @contextmanager
    def _span(self, name):
        log = self._log()
        frame = [time.perf_counter(), 0.0]
        log.stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            log.stack.pop()
            log.add(name, end - frame[0] - frame[1])
            if self.record:
                log.events.append((name, frame[0], end, None))

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name):
        def factory(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with self._span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return factory

    def _tagged(self, orig):
        """alloc_tag: the four component scopes become model.<tag> spans,
        and the scope that wraps parameters as tensors a params.wrap span."""
        @contextmanager
        def wrapper(name):
            span = f"model.{name}" if name in COMPONENT_TAGS else \
                "params.wrap" if name == "params" else None
            if span is None:
                with orig(name):
                    yield
            else:
                with self._span(span), orig(name):
                    yield
        return wrapper

    def _attention(self, orig):
        """Outermost attention call only: full_cross aggregation nests one."""
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            log = self._log()
            if log.in_attention:
                return orig(*args, **kwargs)
            log.in_attention = True
            try:
                with self._span("layers.attention"):
                    return orig(*args, **kwargs)
            finally:
                log.in_attention = False
        return wrapper

    def _spawn(self, orig):
        @functools.wraps(orig)
        def wrapper(pconfig, program, *args, **kwargs):
            def ranked(ctx):
                self._log().rank = ctx.rank
                with self._span("rank.program"):
                    return program(ctx)
            with self._span("runtime.spawn"):
                return orig(pconfig, ranked, *args, **kwargs)
        return wrapper

    def _collective(self, orig):
        op = COLLECTIVES[orig.__name__]

        @functools.wraps(orig)
        def wrapper(group, *args, **kwargs):
            log = self._log()
            start = time.perf_counter()
            try:
                return orig(group, *args, **kwargs)
            finally:
                end = time.perf_counter()
                for frame in log.stack:
                    frame[1] += end - start
                log.add("runtime.wait", end - start)
                log.count("runtime.collectives")
                if self.record:
                    log.events.append((op, start, end, op))
        return wrapper

    def _counted(self, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self._log().count("tensor.ops")
            return orig(*args, **kwargs)
        return wrapper

    def _timed_op(self, orig):
        key = f"tensor.{orig.__name__}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            log = self._log()
            log.count("tensor.ops")
            start = time.perf_counter()
            out = orig(*args, **kwargs)
            log.add(key, time.perf_counter() - start)
            back = out._backward
            if back is not None:
                def timed_back(g):
                    t0 = time.perf_counter()
                    grads = back(g)
                    self._log().add(key, time.perf_counter() - t0)
                    return grads
                out._backward = timed_back
            return out
        return wrapper

    def _estimate(self, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                log = self._log()
                log.add("costmodel.estimate", time.perf_counter() - start)
                log.count("costmodel.estimate_calls")
        return wrapper

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        patches = [
            (strategies, "shard_for_rank", self._spanned("params.shard")),
            (strategies, "unshard_grads", self._spanned("params.unshard")),
            (strategies, "spawn_ranks", self._spawn),
            (strategies, "alloc_tag", self._tagged),
            (dmodel, "alloc_tag", self._tagged),
            (dmodel, "cross_attention_aggregate", self._attention),
            (layers, "cross_attention_aggregate", self._attention),
            (layers, "sdp_attention", self._attention),
            (tensor, "backward", self._spanned("tensor.backward")),
            (costmodel, "estimate", self._estimate),
        ]
        patches += [(ProcessGroup, name, self._collective) for name in COLLECTIVES]
        patches += [(tensor, name, self._timed_op if name in TIMED_OPS else self._counted)
                    for name in tensor_ops()]
        try:
            for owner, attr, factory in patches:
                orig = getattr(owner, attr)
                setattr(owner, attr, factory(orig))
                self._saved.append((owner, attr, orig))
            yield self
        finally:
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    # -- collection ------------------------------------------------------------------

    def collect(self, pid: int = 0, ledger=None) -> dict:
        """Merge and reset what every thread recorded since the last call.

        Returns summed self seconds and counts by name, plus the largest
        per-rank collective count. With `record` set, the spans become
        Chrome trace events of process `pid`, and each collective span takes
        its tag and payload from the matching `ledger` event.
        """
        seconds, counts, per_rank = {}, {}, [0]
        for log in self._logs:
            for key, value in log.seconds.items():
                seconds[key] = seconds.get(key, 0.0) + value
            for key, value in log.counts.items():
                counts[key] = counts.get(key, 0) + value
            if log.rank is not None:
                per_rank.append(log.counts.get("runtime.collectives", 0))
            if log.events:
                self._to_chrome(log, pid, ledger)
            log.seconds, log.counts, log.events = {}, {}, []
        self._logs = [log for log in self._logs if log.thread.is_alive()]
        counts["runtime.collectives"] = max(per_rank)
        return {"seconds": seconds, "counts": counts}

    def _to_chrome(self, log, pid, ledger):
        tid = DRIVER_TID if log.rank is None else log.rank
        ledger_events = iter(ledger.per_rank.get(log.rank, []) if ledger and log.rank is not None
                             else [])
        for name, start, end, op in sorted(log.events, key=lambda e: e[1]):
            event = {"name": name, "cat": "collective" if op else "span", "ph": "X",
                     "pid": pid, "tid": tid,
                     "ts": (start - self._origin) * 1e6, "dur": (end - start) * 1e6}
            if op:
                ev = next(ledger_events, None)
                if ev is not None and ev.op == op:
                    event["name"] = f"{op} {ev.tag}"
                    event["args"] = {"tag": ev.tag, "payload_bytes": ev.payload_bytes_per_rank,
                                     "axis": ev.axis, "phase": ev.phase}
            self.chrome_events.append(event)

    def chrome_trace(self, process_names: dict, metadata: dict) -> dict:
        """Chrome trace-event document: one process per strategy, one track
        per rank thread plus one for the calling thread."""
        meta = []
        for pid, name in process_names.items():
            meta.append({"name": "process_name", "ph": "M", "pid": pid,
                         "args": {"name": name}})
            tids = {e["tid"] for e in self.chrome_events if e["pid"] == pid}
            for tid in sorted(tids):
                label = "driver" if tid == DRIVER_TID else f"rank {tid}"
                meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                             "args": {"name": label}})
        return {"traceEvents": meta + self.chrome_events, "displayTimeUnit": "ms",
                "otherData": metadata}
