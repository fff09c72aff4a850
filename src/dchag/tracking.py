"""Allocation and FLOP accounting for tensor buffers.

Every materialized tensor buffer is charged to the tag that is active when
it is created ("tokenize", "aggregate", "vit", "decoder", or a bookkeeping
tag such as "params" / "other").  Views are never charged: only buffers
that own their memory count toward live/peak bytes, so the numbers
reflect actual storage, not aliasing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

COMPONENT_TAGS = ("tokenize", "aggregate", "vit", "decoder")
DEFAULT_TAG = "other"


@dataclass
class AllocStats:
    """Immutable snapshot of an AllocTracker."""

    live_bytes: int = 0
    peak_bytes: int = 0
    per_tag_live: dict = field(default_factory=dict)
    per_tag_peak: dict = field(default_factory=dict)
    per_tag_flops: dict = field(default_factory=dict)

    def tag_peak(self, tag: str) -> int:
        return self.per_tag_peak.get(tag, 0)

    def tag_flops(self, tag: str) -> int:
        return self.per_tag_flops.get(tag, 0)


class AllocTracker:
    """Mutable accounting state; one per simulated rank (or per serial run).

    Not internally synchronized: the runtime guarantees a single active
    thread, and serial code uses one tracker per thread.
    """

    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0
        self.per_tag_live: dict[str, int] = {}
        self.per_tag_peak: dict[str, int] = {}
        self.per_tag_flops: dict[str, int] = {}
        self._tag_stack = [DEFAULT_TAG]

    # -- tag scope --------------------------------------------------------

    @contextmanager
    def tag(self, name: str):
        self._tag_stack.append(name)
        try:
            yield
        finally:
            self._tag_stack.pop()

    # -- byte accounting ---------------------------------------------------

    def allocate(self, nbytes: int) -> str:
        """Charge nbytes to the active tag; returns the tag for release pairing."""
        tag = self._tag_stack[-1]
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes
        tl = self.per_tag_live.get(tag, 0) + nbytes
        self.per_tag_live[tag] = tl
        if tl > self.per_tag_peak.get(tag, 0):
            self.per_tag_peak[tag] = tl
        return tag

    def release(self, nbytes: int, tag: str) -> None:
        self.live_bytes -= nbytes
        self.per_tag_live[tag] = self.per_tag_live.get(tag, 0) - nbytes

    def add_flops(self, n: int) -> None:
        tag = self._tag_stack[-1]
        self.per_tag_flops[tag] = self.per_tag_flops.get(tag, 0) + n

    def stats(self) -> AllocStats:
        return AllocStats(
            live_bytes=self.live_bytes,
            peak_bytes=self.peak_bytes,
            per_tag_live=dict(self.per_tag_live),
            per_tag_peak=dict(self.per_tag_peak),
            per_tag_flops=dict(self.per_tag_flops),
        )


_tls = threading.local()


def current_tracker() -> AllocTracker | None:
    return getattr(_tls, "tracker", None)


@contextmanager
def activate(tracker: AllocTracker | None):
    """Install `tracker` as the accounting sink for this thread."""
    prev = getattr(_tls, "tracker", None)
    _tls.tracker = tracker
    try:
        yield tracker
    finally:
        _tls.tracker = prev


@contextmanager
def alloc_tag(name: str):
    """Tag allocations in this scope; no-op when no tracker is active."""
    tr = current_tracker()
    if tr is None:
        yield
    else:
        with tr.tag(name):
            yield
