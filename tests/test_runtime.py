import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dchag.config import ParallelConfig
from dchag.runtime import CommLedger, ProtocolError, spawn_ranks

from conftest import rel_err


class TestGrid:
    def test_coords_bijection(self):
        p = ParallelConfig(dchag_tp=2, fsdp=3, dp=2)
        seen = set()
        for r in range(p.world_size):
            c = p.coords(r)
            assert p.rank_of(*c) == r
            seen.add(c)
        assert len(seen) == 12

    def test_group_membership(self):
        p = ParallelConfig(dchag_tp=2, fsdp=2, dp=2)

        def program(ctx):
            return (ctx.tp.members, ctx.fsdp.members, ctx.dp.members)

        res = spawn_ranks(p, program)
        tp0, fsdp0, dp0 = res.results[0]
        assert tp0 == (0, 1)
        assert fsdp0 == (0, 2)
        assert dp0 == (0, 4)


class TestCollectives:
    def test_single_rank_no_collectives_empty_ledger(self):
        res = spawn_ranks(ParallelConfig(), lambda ctx: ctx.rank * 2)
        assert res.results == [0]
        assert list(res.ledger.events()) == []

    def test_group_size_one_identity_recorded_payload_zero(self):
        def program(ctx):
            out = ctx.tp.all_gather(np.arange(4.0), axis=0, tag="t")
            np.testing.assert_array_equal(out, np.arange(4.0))
            return True

        res = spawn_ranks(ParallelConfig(dchag_tp=1), program)
        events = list(res.ledger.events())
        assert len(events) == 1
        assert events[0].payload_bytes_per_rank == 0

    @pytest.mark.parametrize("op", ["all_gather", "reduce_scatter", "all_reduce",
                                    "broadcast"])
    def test_one_rank_group_returns_input_payload_zero(self, op):
        x = np.arange(6.0).reshape(2, 3)
        res = spawn_ranks(ParallelConfig(), lambda ctx: getattr(ctx.tp, op)(x, tag="t"))
        (out,) = res.results
        np.testing.assert_array_equal(out, x)
        if op == "all_reduce":  # in place: the member's own array is the sum
            assert out is x
        else:
            assert not np.shares_memory(out, x)  # the rank owns its result
        assert [e.payload_bytes_per_rank for e in res.ledger.events()] == [0]

    def test_all_gather_concatenates_and_accounts(self):
        def program(ctx):
            shard = np.full((1, 16, 8), float(ctx.rank))
            return ctx.tp.all_gather(shard, axis=0, tag="tok")

        res = spawn_ranks(ParallelConfig(dchag_tp=2), program)
        for out in res.results:
            assert out.shape == (2, 16, 8)
            np.testing.assert_array_equal(out[0], 0.0)
            np.testing.assert_array_equal(out[1], 1.0)
        # 16*8 doubles * 8 bytes * (2-1) per rank
        _, n = res.ledger.query(op="AllGather")
        assert n == 2
        for ev in res.ledger.events():
            assert ev.payload_bytes_per_rank == 16 * 8 * 8 * 1

    def test_all_reduce_sum(self):
        def program(ctx):
            return ctx.tp.all_reduce(np.array([1.0]))

        res = spawn_ranks(ParallelConfig(dchag_tp=4), program)
        for out in res.results:
            assert out[0] == 4.0

    def test_reduce_scatter_zeros(self):
        def program(ctx):
            return ctx.tp.reduce_scatter(np.zeros((4, 3)), axis=0)

        res = spawn_ranks(ParallelConfig(dchag_tp=2), program)
        for out in res.results:
            np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_reduce_scatter_divisibility(self):
        def program(ctx):
            return ctx.tp.reduce_scatter(np.zeros((3, 3)), axis=0)

        with pytest.raises(ProtocolError, match="not divisible"):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)

    def test_collective_algebra_rs_then_ag_equals_ar(self):
        datas = [np.random.default_rng(r).normal(size=(8, 6)) for r in range(4)]

        def program(ctx):
            x = datas[ctx.rank]
            shard = ctx.tp.reduce_scatter(x, axis=0)
            combined = ctx.tp.all_gather(shard, axis=0)
            direct = ctx.tp.all_reduce(x)
            return combined, direct

        res = spawn_ranks(ParallelConfig(dchag_tp=4), program)
        for combined, direct in res.results:
            assert rel_err(combined, direct) < 1e-12

    def test_broadcast(self):
        def program(ctx):
            arr = np.full(3, float(ctx.rank))
            return ctx.tp.broadcast(arr, root=2)

        res = spawn_ranks(ParallelConfig(dchag_tp=4), program)
        for out in res.results:
            np.testing.assert_array_equal(out, 2.0)


def traced_peak(run):
    """run() and the most bytes tracemalloc saw allocated at once during it,
    beyond what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestCollectiveMemory:
    TP = 4
    N = 2 ** 16  # elements of each member's array: 512 KiB

    def test_all_reduce_sums_into_each_members_own_array(self):
        # the sum is formed in member 0's array in group order and copied
        # into the others', so the collective allocates no array of the
        # payload's size (a copy per member and one for the sum before)
        arrs = [np.random.default_rng(r).standard_normal(self.N) for r in range(self.TP)]
        want = arrs[0].copy()
        for a in arrs[1:]:
            want += a
        res, peak = traced_peak(lambda: spawn_ranks(
            ParallelConfig(dchag_tp=self.TP), lambda ctx: ctx.tp.all_reduce(arrs[ctx.rank])))
        assert peak < arrs[0].nbytes
        for out, arr in zip(res.results, arrs):
            assert out is arr
            np.testing.assert_array_equal(out, want)

    def test_all_gather_allocates_one_array_per_member(self):
        # member 0 gets the concatenation and the others a copy each: g
        # arrays of the gathered size, not g + 1; each in C order, and no
        # two share memory
        shards = [np.random.default_rng(r).standard_normal((2, self.N // self.TP))
                  for r in range(self.TP)]
        res, peak = traced_peak(lambda: spawn_ranks(
            ParallelConfig(dchag_tp=self.TP), lambda ctx: ctx.tp.all_gather(
                shards[ctx.rank].T, axis=0)))
        full = np.concatenate([shard.T for shard in shards], axis=0)
        assert self.TP * full.nbytes <= peak < (self.TP + 0.5) * full.nbytes
        for i, out in enumerate(res.results):
            np.testing.assert_array_equal(out, full)
            assert out.flags.c_contiguous
            assert not any(np.shares_memory(out, other) for other in res.results[:i])

    def test_all_reduce_rejects_members_that_share_memory(self):
        # a member's array is overwritten by the sum, so two members may not
        # pass the same memory
        buf = np.zeros((3, 3))
        with pytest.raises(ProtocolError, match="ranks 0 and 1 pass arrays that share memory"):
            spawn_ranks(ParallelConfig(dchag_tp=2),
                        lambda ctx: ctx.tp.all_reduce(buf[ctx.rank:ctx.rank + 2]))


class TestProtocol:
    def test_mismatched_ops_is_protocol_error(self):
        def program(ctx):
            if ctx.rank == 0:
                return ctx.tp.all_gather(np.zeros(2), axis=0)
            return ctx.tp.all_reduce(np.zeros(2))

        with pytest.raises(ProtocolError, match="rank 0.*rank 1|rank 1.*rank 0"):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)

    def test_mismatched_shapes(self):
        def program(ctx):
            return ctx.tp.all_reduce(np.zeros(2 + ctx.rank))

        with pytest.raises(ProtocolError, match="shape mismatch"):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)

    def test_mismatched_tags(self):
        def program(ctx):
            return ctx.tp.all_reduce(np.zeros(2), tag=f"t{ctx.rank}")

        with pytest.raises(ProtocolError):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)

    @pytest.mark.parametrize("op, arg", [("all_gather", "axis"), ("reduce_scatter", "axis"),
                                         ("broadcast", "root")])
    def test_mismatched_arguments(self, op, arg):
        # the axis or root is part of the signature: no rank is served the
        # result of the first arrival's argument
        def program(ctx):
            return getattr(ctx.tp, op)(np.zeros((2, 2)), **{arg: ctx.rank})

        both = f"rank 0 called .*'{arg}': 0}}, rank 1 called .*'{arg}': 1}}"
        with pytest.raises(ProtocolError, match=both):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)

    def test_rank_finishing_while_peer_waits(self):
        def program(ctx):
            if ctx.rank == 0:
                return ctx.tp.all_reduce(np.zeros(1))
            return None

        with pytest.raises(ProtocolError, match="finished while"):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)

    def test_rank_exception_propagates(self):
        def program(ctx):
            if ctx.rank == 1:
                raise ValueError("boom from rank 1")
            return ctx.tp.all_reduce(np.zeros(1))

        with pytest.raises(ValueError, match="boom"):
            spawn_ranks(ParallelConfig(dchag_tp=2), program)


class TestDeterminism:
    @staticmethod
    def _program(ctx):
        # interleaved collectives over two axes with data-dependent values
        x = np.full((4,), float(ctx.rank + 1))
        for i in range(5):
            x = ctx.tp.all_reduce(x, tag=f"a{i}")
            x = x + ctx.rank
            shard = ctx.dp.reduce_scatter(np.tile(x, 2), axis=0, tag=f"b{i}")
            x = ctx.dp.all_gather(shard * 0.5, axis=0, tag=f"c{i}")[: x.size]
        return x

    def test_identical_under_two_scheduler_seeds(self):
        p = ParallelConfig(dchag_tp=2, fsdp=1, dp=2)
        r1 = spawn_ranks(p, self._program, schedule_seed=1)
        r2 = spawn_ranks(p, self._program, schedule_seed=99)
        r3 = spawn_ranks(p, self._program)  # canonical order
        for a, b, c in zip(r1.results, r2.results, r3.results):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
        # per-rank event sequences identical too
        for rank in range(p.world_size):
            assert r1.ledger.per_rank[rank] == r2.ledger.per_rank[rank]
            assert r1.ledger.per_rank[rank] == r3.ledger.per_rank[rank]


class TestScheduleIndependence:
    @staticmethod
    def _program(ctx):
        # all four collectives on every axis, one-rank groups included
        x = np.linspace(0.0, 1.0, 4) + ctx.rank
        for i in range(3):
            for group in (ctx.tp, ctx.dp, ctx.fsdp):
                x = group.all_reduce(x * (ctx.rank + 1), tag=f"ar{i}")
                shard = group.reduce_scatter(np.tile(x, group.size), axis=0, tag=f"rs{i}")
                x = group.all_gather(shard + ctx.rank, axis=0, tag=f"ag{i}")[-4:]
                x = group.broadcast(x, root=i % group.size, tag=f"bc{i}")
        return x

    @settings(max_examples=25)
    @given(tp=st.sampled_from((1, 2, 4)), dp=st.sampled_from((1, 2)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_schedule_matches_canonical_order(self, tp, dp, seed):
        p = ParallelConfig(dchag_tp=tp, dp=dp)
        shuffled = spawn_ranks(p, self._program, schedule_seed=seed)
        canonical = spawn_ranks(p, self._program)
        for a, b in zip(shuffled.results, canonical.results):
            np.testing.assert_array_equal(a, b)
        assert shuffled.ledger.per_rank == canonical.ledger.per_rank


class TestLedger:
    def test_empty_query(self):
        led = CommLedger()
        assert led.query() == (0, 0)

    def test_single_event_query(self):
        led = CommLedger()
        led.record(0, "AllGather", "tp", "forward", 1024, "x")
        assert led.query() == (1024, 1)
        assert led.query(op="AllReduce") == (0, 0)
        assert led.query(phase="forward", axis="tp") == (1024, 1)
