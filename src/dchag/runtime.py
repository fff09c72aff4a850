"""Deterministic in-process simulation of a rank grid with collectives.

Rank programs run in worker threads, but only one thread executes at a
time: a turnstile scheduler hands the turn to one runnable rank, and the
rank gives it back when it enters a collective (or finishes).  A
collective completes only when every group member has entered it with a
matching signature (op, tag, and axis or root); the completing arrival
computes the result for all members with a fixed, group-index-ordered
reduction.  Because ranks interact only through collectives and every
reduction order is fixed, results and per-rank ledgers are identical under
any scheduling order.

AllReduce is in place, as NCCL's is: the sum is formed in member 0's
array, in group order, and copied into each other member's array, and
each member gets its own array back.  So a member passes an array of its
own that it may overwrite, and two members' arrays that may share memory
are a `ProtocolError`.  AllGather hands its concatenation to member 0 and
a copy to each other member.  Every other result is a new array per
member.

Byte accounting follows ring algorithms, one rule per collective:
AllGather and ReduceScatter move shard_bytes*(g-1) per rank
(`ring_allgather_payload`), AllReduce moves 2*ceil(n/g)*itemsize*(g-1)
(`ring_allreduce_payload`, the bytes of a ReduceScatter then AllGather
when g divides n), and Broadcast moves the whole tensor.  A one-member
group moves nothing: it completes through the same rendezvous as any
other group and records payload 0.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .config import ParallelConfig
from .rng import RngState
from .tracking import AllocTracker, activate


class ProtocolError(Exception):
    """A rank violated the collective rendezvous contract."""


@dataclass(frozen=True)
class CommEvent:
    rank: int
    seq: int
    op: str
    axis: str
    phase: str
    payload_bytes_per_rank: int
    tag: str


class CommLedger:
    """Complete record of collective traffic, one event per participating rank."""

    def __init__(self):
        self.per_rank: dict[int, list[CommEvent]] = {}

    def record(self, rank: int, op: str, axis: str, phase: str,
               payload: int, tag: str) -> None:
        events = self.per_rank.setdefault(rank, [])
        events.append(CommEvent(rank, len(events), op, axis, phase, int(payload), tag))

    def events(self):
        for rank in sorted(self.per_rank):
            yield from self.per_rank[rank]

    def query(self, phase: str | None = None, axis: str | None = None,
              op: str | None = None, tag: str | None = None,
              rank: int | None = None) -> tuple[int, int]:
        """(total payload bytes, event count) over matching events."""
        total = 0
        count = 0
        for ev in self.events():
            if phase is not None and ev.phase != phase:
                continue
            if axis is not None and ev.axis != axis:
                continue
            if op is not None and ev.op != op:
                continue
            if tag is not None and ev.tag != tag:
                continue
            if rank is not None and ev.rank != rank:
                continue
            total += ev.payload_bytes_per_rank
            count += 1
        return total, count


def ring_allgather_payload(shard_nbytes: int, group: int) -> int:
    return shard_nbytes * (group - 1)


def ring_allreduce_payload(n_elem: int, itemsize: int, group: int) -> int:
    chunk = -(-n_elem // group)  # ceil, rounded to whole elements
    return 2 * chunk * itemsize * (group - 1)


class ProcessGroup:
    """One rank's handle onto a collective group along a grid axis."""

    def __init__(self, runtime, axis: str, members: tuple[int, ...], rank: int):
        self._runtime = runtime
        self.axis = axis
        self.members = members
        self.rank = rank
        self.index = members.index(rank)

    @property
    def size(self) -> int:
        return len(self.members)

    def all_gather(self, arr: np.ndarray, axis: int = 0, tag: str = "") -> np.ndarray:
        return self._runtime.collective(self, "AllGather", np.asarray(arr),
                                        {"axis": axis}, tag)

    def reduce_scatter(self, arr: np.ndarray, axis: int = 0, tag: str = "") -> np.ndarray:
        return self._runtime.collective(self, "ReduceScatter", np.asarray(arr),
                                        {"axis": axis}, tag)

    def all_reduce(self, arr: np.ndarray, tag: str = "") -> np.ndarray:
        """The group's sum, written into `arr`, which is returned."""
        return self._runtime.collective(self, "AllReduce", np.asarray(arr), {}, tag)

    def broadcast(self, arr: np.ndarray, root: int = 0, tag: str = "") -> np.ndarray:
        return self._runtime.collective(self, "Broadcast", np.asarray(arr),
                                        {"root": root}, tag)


class RankContext:
    """Identity and handles for one simulated rank."""

    def __init__(self, runtime, rank: int, pconfig: ParallelConfig):
        self.rank = rank
        self.coords = pconfig.coords(rank)
        tp_i, fsdp_i, dp_i = self.coords
        self.tp = ProcessGroup(runtime, "tp",
                               tuple(pconfig.rank_of(t, fsdp_i, dp_i)
                                     for t in range(pconfig.dchag_tp)), rank)
        self.fsdp = ProcessGroup(runtime, "fsdp",
                                 tuple(pconfig.rank_of(tp_i, f, dp_i)
                                       for f in range(pconfig.fsdp)), rank)
        self.dp = ProcessGroup(runtime, "dp",
                               tuple(pconfig.rank_of(tp_i, fsdp_i, d)
                                     for d in range(pconfig.dp)), rank)
        self.tracker = AllocTracker()
        self.phase = "forward"


@dataclass
class SpawnResult:
    results: list
    ledger: CommLedger
    stats: list  # per-rank AllocStats


class _Abort(BaseException):
    """Internal: unwind a rank thread after another rank failed."""


_READY, _BLOCKED, _DONE, _FAILED = range(4)


class _Runtime:
    def __init__(self, pconfig: ParallelConfig, schedule_seed=None):
        pconfig.validate()
        self.world = pconfig.world_size
        self.ledger = CommLedger()
        self.contexts = [RankContext(self, r, pconfig) for r in range(self.world)]
        self._state = [_READY] * self.world
        self._resume = [threading.Event() for _ in range(self.world)]
        self._to_controller = threading.Event()
        self._mailbox: dict[int, np.ndarray] = {}
        self._pending: dict[tuple, dict[int, tuple]] = {}
        self._errors: list[BaseException] = []
        self._abort = False
        self._results = [None] * self.world
        self._rng = None if schedule_seed is None else RngState(schedule_seed)

    # -- rank-thread side ---------------------------------------------------

    def _yield_turn(self, rank: int) -> None:
        self._to_controller.set()
        self._resume[rank].wait()
        self._resume[rank].clear()
        if self._abort:
            raise _Abort()

    def collective(self, group: ProcessGroup, op: str, arr: np.ndarray,
                   kw: dict, tag: str):
        ctx = self.contexts[group.rank]
        key = (group.axis, group.members)
        pending = self._pending.setdefault(key, {})
        for other_rank, (o_op, _, o_kw, o_tag, _) in pending.items():
            if (o_op, o_tag, o_kw) != (op, tag, kw):
                raise ProtocolError(
                    f"collective mismatch on {group.axis} group {group.members}: "
                    f"rank {other_rank} called {o_op} tag={o_tag!r} {o_kw}, "
                    f"rank {group.rank} called {op} tag={tag!r} {kw}")
        pending[group.rank] = (op, arr, kw, tag, ctx.phase)
        self._state[group.rank] = _BLOCKED
        if len(pending) == len(group.members):
            self._complete_rendezvous(key, group.members)
            # fall through: our own mailbox is filled and state is READY
        else:
            del pending  # a waiting rank must not keep the later ranks' inputs alive
            self._yield_turn(group.rank)
        return self._mailbox.pop(group.rank)

    def _complete_rendezvous(self, key, members) -> None:
        pending = self._pending.pop(key)
        axis_name = key[0]
        op = pending[members[0]][0]
        arrs = [pending[r][1] for r in members]
        kw = pending[members[0]][2]
        tag = pending[members[0]][3]
        g = len(members)
        if op == "AllGather":
            ax = kw["axis"]
            base = [s for i, s in enumerate(arrs[0].shape) if i != ax]
            for r, a in zip(members, arrs):
                other = [s for i, s in enumerate(a.shape) if i != ax]
                if other != base or a.ndim != arrs[0].ndim:
                    raise ProtocolError(
                        f"AllGather shape mismatch on {axis_name} group: rank "
                        f"{members[0]} has {arrs[0].shape}, rank {r} has {a.shape}")
            shape = list(arrs[0].shape)
            shape[ax] = sum(a.shape[ax] for a in arrs)
            # in C order, as each copy is: a transposed shard's layout would
            # change how the member's later products fold, and so their bits
            full = np.concatenate(arrs, axis=ax, out=np.empty(shape, np.result_type(*arrs)))
            outs = {r: full.copy() for r in members[1:]}
            outs[members[0]] = full
            payloads = {r: ring_allgather_payload(a.nbytes, g)
                        for r, a in zip(members, arrs)}
        elif op == "ReduceScatter":
            ax = kw["axis"]
            self._check_identical_shapes(op, axis_name, members, arrs)
            if arrs[0].shape[ax] % g:
                raise ProtocolError(
                    f"ReduceScatter axis {ax} size {arrs[0].shape[ax]} "
                    f"not divisible by group size {g}")
            total = arrs[0].copy()
            for a in arrs[1:]:
                total += a
            chunks = np.split(total, g, axis=ax)
            outs = {r: chunks[i].copy() for i, r in enumerate(members)}
            payloads = {r: ring_allgather_payload(chunks[i].nbytes, g)
                        for i, r in enumerate(members)}
        elif op == "AllReduce":
            self._check_identical_shapes(op, axis_name, members, arrs)
            for i, a in enumerate(arrs):
                for j in range(i):
                    if np.may_share_memory(a, arrs[j]):
                        raise ProtocolError(
                            f"AllReduce on {axis_name} group: ranks {members[j]} and "
                            f"{members[i]} pass arrays that share memory")
            total = arrs[0]
            for a in arrs[1:]:
                total += a
            for a in arrs[1:]:
                np.copyto(a, total)
            outs = dict(zip(members, arrs))
            pay = ring_allreduce_payload(arrs[0].size, arrs[0].itemsize, g)
            payloads = {r: pay for r in members}
        elif op == "Broadcast":
            self._check_identical_shapes(op, axis_name, members, arrs)
            root = kw["root"]
            src = pending[members[root]][1]
            outs = {r: src.copy() for r in members}
            payloads = {r: arrs[0].nbytes if g > 1 else 0 for r in members}
        else:  # pragma: no cover
            raise ProtocolError(f"unknown collective {op}")
        for r in members:
            self._mailbox[r] = outs[r]
            self.ledger.record(r, op, axis_name, pending[r][4], payloads[r], tag)
            self._state[r] = _READY

    @staticmethod
    def _check_identical_shapes(op, axis_name, members, arrs):
        for r, a in zip(members, arrs):
            if a.shape != arrs[0].shape:
                raise ProtocolError(
                    f"{op} shape mismatch on {axis_name} group: rank {members[0]} "
                    f"has {arrs[0].shape}, rank {r} has {a.shape}")

    # -- controller side -------------------------------------------------------

    def _thread_body(self, rank: int, program) -> None:
        self._resume[rank].wait()
        self._resume[rank].clear()
        ctx = self.contexts[rank]
        try:
            if self._abort:
                raise _Abort()
            with activate(ctx.tracker):
                self._results[rank] = program(ctx)
            self._state[rank] = _DONE
        except _Abort:
            self._state[rank] = _DONE
        except BaseException as exc:
            self._errors.append(exc)
            self._state[rank] = _FAILED
        finally:
            self._to_controller.set()

    def run(self, program) -> SpawnResult:
        threads = [threading.Thread(target=self._thread_body, args=(r, program),
                                    daemon=True) for r in range(self.world)]
        for t in threads:
            t.start()
        try:
            while True:
                states = self._state
                if all(s in (_DONE, _FAILED) for s in states):
                    break
                ready = [r for r, s in enumerate(states) if s == _READY]
                if self._errors:
                    self._unwind(threads)
                    raise self._errors[0]
                if not ready:
                    self._raise_deadlock()
                pick = ready[0] if self._rng is None else \
                    ready[int(self._rng.integers(0, len(ready)))]
                self._give_turn(pick)
        except ProtocolError:
            self._unwind(threads)
            raise
        for t in threads:
            t.join()
        if self._errors:
            raise self._errors[0]
        return SpawnResult(results=list(self._results), ledger=self.ledger,
                           stats=[c.tracker.stats() for c in self.contexts])

    def _give_turn(self, rank: int) -> None:
        self._resume[rank].set()
        self._to_controller.wait()
        self._to_controller.clear()

    def _unwind(self, threads) -> None:
        self._abort = True
        for r in range(self.world):
            if self._state[r] in (_DONE, _FAILED):
                continue
            self._mailbox[r] = None
            self._give_turn(r)
        for t in threads:
            t.join(timeout=10)

    def _raise_deadlock(self) -> None:
        waiting = {}
        for key, pending in self._pending.items():
            for r, (op, _, _, tag, _) in pending.items():
                waiting[r] = (op, key)
        done = [r for r, s in enumerate(self._state) if s == _DONE]
        for key, pending in self._pending.items():
            missing = [m for m in key[1] if m not in pending]
            finished = [m for m in missing if self._state[m] == _DONE]
            if finished:
                raise ProtocolError(
                    f"rank(s) {finished} finished while rank(s) "
                    f"{sorted(pending)} wait in {pending[sorted(pending)[0]][0]} "
                    f"on {key[0]} group {key[1]}")
        raise ProtocolError(
            f"deadlock: blocked ranks {sorted(waiting)} "
            f"({ {r: w[0] for r, w in waiting.items()} }), done ranks {done}")


def spawn_ranks(pconfig: ParallelConfig, program, schedule_seed=None) -> SpawnResult:
    """Execute `program(ctx)` on every rank of the grid to completion.

    Collectives act as synchronization barriers; the result is independent
    of the scheduling order (pass `schedule_seed` to randomize it and check).
    """
    return _Runtime(pconfig, schedule_seed=schedule_seed).run(program)
