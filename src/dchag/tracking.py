"""Allocation and FLOP accounting for tensor buffers.

Every buffer the engine holds is charged once, through `AllocTracker.charge`,
to the tag that is active when the engine first sees it ("tokenize",
"aggregate", "vit", "decoder", or a bookkeeping tag such as "params" /
"other").  A charge is for the memory under an array, not for the array:
a view of charged memory adds nothing, so the numbers reflect actual
storage, not aliasing.  Memory the engine allocated is charged until it is
freed.  Memory a caller owns (a leaf `Tensor`'s) outlives the step, so it is
charged while the engine holds a view of it, and released when the last
such view is gone.

FLOPs are model FLOPs (Narayanan et al., 2021): a matrix product of [m, k]
by [k, n] adds 2*m*n*k to the active tag, and no other op adds any.
"""

from __future__ import annotations

import functools
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

COMPONENT_TAGS = ("tokenize", "aggregate", "vit", "decoder")
DEFAULT_TAG = "other"


@dataclass
class AllocStats:
    """Immutable snapshot of an AllocTracker."""

    live_bytes: int = 0
    peak_bytes: int = 0
    per_tag_live: dict = field(default_factory=dict)
    per_tag_peak: dict = field(default_factory=dict)
    per_tag_at_peak: dict = field(default_factory=dict)  # per_tag_live when peak_bytes was reached
    per_tag_flops: dict = field(default_factory=dict)

    def tag_peak(self, tag: str) -> int:
        return self.per_tag_peak.get(tag, 0)

    def tag_flops(self, tag: str) -> int:
        return self.per_tag_flops.get(tag, 0)


def _memory_owner(buf: np.ndarray) -> np.ndarray:
    """The array that owns `buf`'s memory: numpy points a view's base at
    the owner, but a reshape-forced copy is a view of its temporary."""
    while isinstance(buf.base, np.ndarray):
        buf = buf.base
    return buf


class _Charge:
    """One charged piece of memory and the weak references that keep the
    charge: to the owner, or to every view of a caller's memory."""

    __slots__ = ("nbytes", "tag", "borrowed", "refs")

    def __init__(self, nbytes: int, tag: str, borrowed: bool):
        self.nbytes, self.tag, self.borrowed = nbytes, tag, borrowed
        self.refs = []


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
        self.per_tag_at_peak: dict[str, int] = {}
        self.per_tag_flops: dict[str, int] = {}
        self._tag_stack = [DEFAULT_TAG]
        self._charges: dict[int, _Charge] = {}  # id of the owning array -> its charge

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
        tl = self.per_tag_live.get(tag, 0) + nbytes
        self.per_tag_live[tag] = tl
        if tl > self.per_tag_peak.get(tag, 0):
            self.per_tag_peak[tag] = tl
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes
            self.per_tag_at_peak = dict(self.per_tag_live)
        return tag

    def release(self, nbytes: int, tag: str) -> None:
        self.live_bytes -= nbytes
        self.per_tag_live[tag] = self.per_tag_live.get(tag, 0) - nbytes

    def charge(self, buf: np.ndarray, borrowed: bool = False) -> None:
        """Charge the memory under `buf` to the active tag, unless it is
        charged already.

        `borrowed` says that `buf` is the engine's own view of memory a
        caller owns.  Such memory stays charged while any view the engine
        made of it lives, `buf` and later views alike; memory the engine
        allocated stays charged until the memory itself is freed.
        """
        owner = _memory_owner(buf)
        key = id(owner)  # unique while charged: the charge outlives no owner
        rec = self._charges.get(key)
        if rec is None:
            rec = self._charges[key] = _Charge(owner.nbytes, self.allocate(owner.nbytes),
                                               borrowed)
            if not borrowed:
                rec.refs.append(weakref.ref(owner, functools.partial(self._gone, key)))
        if rec.borrowed:
            rec.refs.append(weakref.ref(buf, functools.partial(self._gone, key)))

    def charged(self, buf: np.ndarray) -> bool:
        """Whether the memory under `buf` is charged."""
        return id(_memory_owner(buf)) in self._charges

    def _gone(self, key: int, ref: weakref.ref) -> None:
        rec = self._charges[key]
        rec.refs.remove(ref)  # a dead reference equals only itself
        if not rec.refs:
            del self._charges[key]
            self.release(rec.nbytes, rec.tag)

    def add_flops(self, n: int) -> None:
        tag = self._tag_stack[-1]
        self.per_tag_flops[tag] = self.per_tag_flops.get(tag, 0) + n

    def stats(self) -> AllocStats:
        return AllocStats(
            live_bytes=self.live_bytes,
            peak_bytes=self.peak_bytes,
            per_tag_live=dict(self.per_tag_live),
            per_tag_peak=dict(self.per_tag_peak),
            per_tag_at_peak=dict(self.per_tag_at_peak),
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
