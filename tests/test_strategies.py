import platform
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dchag import layers
from dchag import model as dmodel
from dchag import tensor as T
from dchag.config import (AGG_LAYER_KINDS, AGG_VARIANTS, STRATEGY_KINDS, ConfigError,
                          ModelConfig, ParallelConfig, StrategyConfig)
from dchag.layers import cross_attention_aggregate, linear, transformer_block
from dchag.model import Batch, decode, masked_mse, masked_rows, tree_aggregate
from dchag.params import (REPLICATED, create_master, parameter_specs, placement,
                          rank_parameter_sizes, rank_tree, shard_for_rank, unshard_grads)
from dchag.rng import RngState
from dchag.runtime import ring_allgather_payload, ring_allreduce_payload
from dchag.strategies import (DCHAG_BOUNDARY_TAG, TOKEN_GATHER_TAG, StepResult,
                              run_dchag_reference_step, run_dchag_step,
                              run_dist_token_step, run_hybrid_step,
                              run_serial_step, run_tp_step)
from dchag.synthetic import make_batch
from dchag.tensor import Tensor

from conftest import assert_grads_match, brute_force_full_cross


def tiny(channels=4, **kw):
    base = dict(channels=channels, image_h=8, image_w=8, patch=4, embed=8,
                depth=1, heads=4, mlp_ratio=2, agg_variant="single_query",
                mask_ratio=0.5, decoder_depth=1, decoder_dim=8)
    base.update(kw)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


class TestTpEquivalence:
    def test_tp1_is_serial_bit_exact(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=1)
        master = create_master(model, strat, RngState(5))
        batch = make_batch(model, 11, 0, [0, 1])
        ser = run_serial_step(model, master, batch)
        tp = run_tp_step(ParallelConfig(dchag_tp=1), model, strat, master, batch)
        assert ser.loss == tp.loss
        for k in ser.grads:
            np.testing.assert_array_equal(ser.grads[k], tp.grads[k])
        # a one-rank group splits nothing: the serial graph, no collectives
        ((st,), (ser_st,)) = tp.stats, ser.stats
        assert st.per_tag_peak == ser_st.per_tag_peak
        assert st.per_tag_flops == ser_st.per_tag_flops
        assert list(tp.ledger.events()) == []

    @pytest.mark.parametrize("tp", [2, 4])
    @pytest.mark.parametrize("channels", [4, 8, 16])
    def test_matches_serial(self, tp, channels):
        model = tiny(channels=channels)
        strat = StrategyConfig(kind="tp_only", tp_degree=tp)
        master = create_master(model, strat, RngState(5))
        batch = make_batch(model, 11, 0, [0, 1])
        ser = run_serial_step(model, master, batch)
        res = run_tp_step(ParallelConfig(dchag_tp=tp), model, strat, master, batch)
        for loss in res.losses:
            assert abs(loss - ser.loss) <= 1e-10 * abs(ser.loss)
        assert_grads_match(ser.grads, res.grads)

    def test_full_cross_variant(self):
        model = tiny(agg_variant="full_cross")
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(9))
        batch = make_batch(model, 3, 0, [0])
        ser = run_serial_step(model, master, batch)
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master, batch)
        assert_grads_match(ser.grads, res.grads)

    def test_ledger_tags_are_layer_prefixes(self):
        # a head-split layer tags its collectives with its parameter prefix
        model = tiny(depth=2)
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master,
                          make_batch(model, 1, 0, [0]))
        assert {e.tag for e in res.ledger.events()} == {"agg.flat", "vit.blk0", "vit.blk1"}

    def test_backward_has_tp_allreduce_events(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master,
                          make_batch(model, 1, 0, [0]))
        _, n = res.ledger.query(phase="backward", axis="tp", op="AllReduce")
        assert n > 0

    def test_replicated_grads_bit_identical_across_ranks(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master,
                          make_batch(model, 1, 0, [0]))
        for name in ("vit.blk0.bo", "dec.head.w", "tok.w", "special.meta_w"):
            np.testing.assert_array_equal(res.rank_grads[0][name],
                                          res.rank_grads[1][name])
        # dchag's final layer is replicated: placed whole on every rank, its
        # gradients bit-identical everywhere, and no collective of its own
        model = tiny(channels=8, agg_variant="full_cross")
        for tp in (2, 4):
            strat = StrategyConfig(kind="dchag", tp_degree=tp, max_group=2)
            master = create_master(model, strat, RngState(6))
            res = run_dchag_step(ParallelConfig(dchag_tp=tp), model, strat, master,
                                 make_batch(model, 1, 0, [0]))
            final = [name for name in master if name.startswith("agg.final.")]
            assert final and {placement(name, strat) for name in final} == {REPLICATED}
            for grads in res.rank_grads[1:]:
                for name in final:
                    np.testing.assert_array_equal(grads[name], res.rank_grads[0][name])
            assert "agg.final" not in {e.tag for e in res.ledger.events()}

    def test_indivisible_heads_rejected(self):
        model = tiny(heads=2)
        with pytest.raises(ConfigError, match="heads"):
            StrategyConfig(kind="tp_only", tp_degree=4).validate(model)

    def test_redundant_tokenizer_flops(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        batch = make_batch(model, 1, 0, [0])
        ser = run_serial_step(model, master, batch)
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master, batch)
        for st in res.stats:
            assert st.tag_flops("tokenize") == ser.stats[0].tag_flops("tokenize")


class TestDistToken:
    @pytest.mark.parametrize("tp", [2, 4])
    def test_matches_tp_step(self, tp):
        model = tiny(channels=8)
        master = create_master(model, StrategyConfig(kind="tp_only", tp_degree=tp),
                               RngState(5))
        batch = make_batch(model, 11, 0, [0, 1])
        base = run_tp_step(ParallelConfig(dchag_tp=tp), model,
                           StrategyConfig(kind="tp_only", tp_degree=tp), master, batch)
        dist = run_dist_token_step(ParallelConfig(dchag_tp=tp), model,
                                   StrategyConfig(kind="dist_token", tp_degree=tp),
                                   master, batch)
        for a, b in zip(base.losses, dist.losses):
            assert abs(a - b) <= 1e-10 * abs(a)
        assert_grads_match(base.grads, dist.grads)

    def test_channel_gather_payload_formula(self):
        # payload per rank = K*(C/tp)*D*8*(tp-1) bytes on the channel axis,
        # K = B*(S - masked) the kept positions
        model = tiny(channels=8)
        tp = 2
        master = create_master(model, StrategyConfig(kind="dist_token", tp_degree=tp),
                               RngState(5))
        batch = make_batch(model, 11, 0, [0])  # B=1
        res = run_dist_token_step(ParallelConfig(dchag_tp=tp), model,
                                  StrategyConfig(kind="dist_token", tp_degree=tp),
                                  master, batch)
        kept = model.seq - model.masked_count
        expect = (model.channels // tp) * kept * model.embed * 8 * (tp - 1)
        total, n = res.ledger.query(phase="forward", tag=TOKEN_GATHER_TAG)
        assert n == tp  # one gather per rank
        assert total == tp * expect

    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_gather_backward_reduce_scatters_into_the_split_layer(self, tp):
        # the split flat layer leaves each rank a partial gradient of the
        # gathered stack: one ReduceScatter per rank of its slab's piece of
        # the sum, K*(C/tp)*D*8*(tp-1) bytes, and no AllReduce of the flat
        # layer's input.  At tp = 1 the one-member ReduceScatter moves 0
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dist_token", tp_degree=tp)
        res = run_dist_token_step(ParallelConfig(dchag_tp=tp), model, strat,
                                  create_master(model, strat, RngState(5)),
                                  make_batch(model, 11, 0, [0]))
        kept = model.seq - model.masked_count
        expect = kept * (model.channels // tp) * model.embed * 8 * (tp - 1)
        for rank in range(tp):
            gather = res.ledger.query(phase="backward", tag=TOKEN_GATHER_TAG, rank=rank)
            assert gather == (expect, 1)
            assert res.ledger.query(phase="backward", op="ReduceScatter",
                                    rank=rank) == gather
            assert res.ledger.query(phase="backward", op="AllReduce", tag="agg.flat",
                                    rank=rank) == (0, 0)

    def test_slabbed_tokenizer_flops(self):
        model = tiny(channels=8)
        tp = 2
        master = create_master(model, StrategyConfig(kind="dist_token", tp_degree=tp),
                               RngState(5))
        batch = make_batch(model, 1, 0, [0])
        ser = run_serial_step(model, master, batch)
        res = run_dist_token_step(ParallelConfig(dchag_tp=tp), model,
                                  StrategyConfig(kind="dist_token", tp_degree=tp),
                                  master, batch)
        # gather output tensor is charged to the tokenize tag, so compare flops
        serial_tok = ser.stats[0].tag_flops("tokenize")
        for st in res.stats:
            assert st.tag_flops("tokenize") == serial_tok // tp

    def test_indivisible_channels_rejected(self):
        model = tiny(channels=6)
        with pytest.raises(ConfigError, match="divisible"):
            StrategyConfig(kind="dist_token", tp_degree=4).validate(model)


class TestExchangesByName:
    """Every tp exchange of a step, per rank, derived from Megatron's
    conjugate pairs rather than from the cost model, which would share a
    waste with the code it checks.  Each exchange is a forward collective
    and its conjugate in backward: a fanout is the identity forward and an
    AllReduce of its gradient backward, an allsum an AllReduce forward and
    the identity backward, and an AllGather is a ReduceScatter backward
    into a split layer and a slice into a replicated one.  The backward
    meets the exchanges in the reverse of the forward's order, but for a
    parameter's fanout (full_cross's `rq`), which hangs off a leaf: the
    engine's order reaches it last.  C differs from D, so that full_cross's
    K*C scores and its K*D output differ in size."""

    DEPTH = 2
    CHANNELS = 16

    def exchanges(self, kind, variant, model, b, tp):
        """(forward event, backward event) pairs, in the forward's order,
        and the backward events of parameter fanouts; an event is (op, tag,
        payload bytes), or None for no collective."""
        k = b * (model.seq - model.masked_count)
        c, d, t = model.channels, model.embed, model.seq + 1

        def allreduce(tag, n):
            return ("AllReduce", tag, ring_allreduce_payload(n, 8, tp))

        pairs, last = [], []
        if kind != "tp_only":  # a slab rank's positional rows
            pairs.append((None, allreduce("shared-grad.special.pos", model.seq * d)))
        if kind == "dist_token":
            # an AllGather and its ReduceScatter move the same bytes
            slab = ring_allgather_payload(k * (c // tp) * d * 8, tp)
            pairs.append((("AllGather", TOKEN_GATHER_TAG, slab),
                          ("ReduceScatter", TOKEN_GATHER_TAG, slab)))
        if kind == "tp_only":
            pairs.append((None, allreduce("agg.flat", k * c * d)))
        if kind == "dchag":  # agg.final is replicated: its gradient is whole
            pairs.append((("AllGather", DCHAG_BOUNDARY_TAG,
                           ring_allgather_payload(k * d * 8, tp)), None))
        elif variant == "full_cross":
            # the reduce pools each rank's heads' context against u = wo rq
            # before it projects it (`layers`): the ranks' partial scores
            # [K, C] are an allsum; the probabilities feed each rank's
            # split pool, a fanout; the op's backward first recomputes its
            # scores, one more allsum; then the output's allsum, [K, D].
            # rq enters by a fanout of [D, 1]
            scores = allreduce("agg.flat", k * c)
            pairs += [(scores, None), (None, scores), (None, scores),
                      (allreduce("agg.flat", k * d), None)]
            last.append(allreduce("agg.flat", d))
        else:  # the flat layer's output allsum
            pairs.append((allreduce("agg.flat", k * d), None))
        for i in range(self.DEPTH):  # attention, then the MLP
            pairs += [(None, allreduce(f"vit.blk{i}", b * t * d)),
                      (allreduce(f"vit.blk{i}", b * t * d), None)] * 2
        return pairs, last

    def step(self, kind, tp, variant, depth):
        model = tiny(channels=self.CHANNELS, depth=depth, agg_variant=variant)
        strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=2)
        master = create_master(model, strat, RngState(5))
        return model, run_hybrid_step(ParallelConfig(dchag_tp=tp), model, strat, master,
                                      [make_batch(model, 11, 0, [0, 1])])

    @pytest.mark.parametrize("variant", AGG_VARIANTS)
    @pytest.mark.parametrize("tp", [2, 4])
    @pytest.mark.parametrize("kind", ["tp_only", "dist_token", "dchag"])
    def test_each_rank_records_the_conjugate_pairs(self, kind, tp, variant):
        model, res = self.step(kind, tp, variant, self.DEPTH)
        pairs, last = self.exchanges(kind, variant, model, 2, tp)
        want = ([("forward", *f) for f, _ in pairs if f is not None]
                + [("backward", *bk) for _, bk in reversed(pairs) if bk is not None]
                + [("backward", *bk) for bk in last])
        for rank in range(tp):
            assert [(e.phase, e.op, e.tag, e.payload_bytes_per_rank)
                    for e in res.ledger.per_rank[rank]] == want, rank
            assert {e.axis for e in res.ledger.per_rank[rank]} == {"tp"}

    @pytest.mark.parametrize("tp", [2, 4])
    @pytest.mark.parametrize("kind", ["tp_only", "dist_token"])
    def test_full_cross_exchanges_no_attended_token_stack(self, kind, tp):
        # no exchange carries what an AllReduce of K*C*D elements does, the
        # attended tokens' projection, but tp_only's fanout of its input
        model, res = self.step(kind, tp, "full_cross", 1)
        k = 2 * (model.seq - model.masked_count)
        stack = ring_allreduce_payload(k * model.channels * model.embed, 8, tp)
        found = [(e.phase, e.op, e.tag) for e in res.ledger.events()
                 if e.payload_bytes_per_rank == stack]
        assert found == ([("backward", "AllReduce", "agg.flat")] * tp if kind == "tp_only"
                         else [])


class TestDchag:
    @pytest.mark.parametrize("tp", [2, 4])
    @pytest.mark.parametrize("layer_kind", ["cross_attention", "linear"])
    @pytest.mark.parametrize("max_group", [2, 4])
    def test_matches_reference(self, tp, layer_kind, max_group):
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dchag", tp_degree=tp, max_group=max_group,
                               agg_layer_kind=layer_kind)
        master = create_master(model, strat, RngState(6))
        batch = make_batch(model, 11, 0, [0, 1])
        ref = run_dchag_reference_step(model, strat, master, batch)
        res = run_dchag_step(ParallelConfig(dchag_tp=tp), model, strat, master, batch)
        for loss in res.losses:
            assert abs(loss - ref.loss) <= 1e-10 * abs(ref.loss)
        assert_grads_match(ref.grads, res.grads)

    def test_tp1_degenerate_bit_exact(self):
        model = tiny()
        strat = StrategyConfig(kind="dchag", tp_degree=1, max_group=2)
        master = create_master(model, strat, RngState(7))
        batch = make_batch(model, 11, 0, [0])
        ref = run_dchag_reference_step(model, strat, master, batch)
        res = run_dchag_step(ParallelConfig(dchag_tp=1), model, strat, master, batch)
        assert ref.loss == res.loss
        for k in ref.grads:
            np.testing.assert_array_equal(ref.grads[k], res.grads[k])

    def test_indivisible_channels_rejected_by_master_and_reference(self):
        # the oracle must not silently drop the channels past the last slab
        model = tiny(channels=6)
        strat = StrategyConfig(kind="dchag", tp_degree=4, max_group=2)
        with pytest.raises(ConfigError, match="divisible"):
            create_master(model, strat, RngState(6))
        master = {name: np.zeros(shape) for name, shape, _ in parameter_specs(model, strat)}
        with pytest.raises(ConfigError, match="divisible"):
            run_dchag_reference_step(model, strat, master, make_batch(model, 1, 0, [0]))

    @pytest.mark.parametrize("max_group", [1, 0, -2])
    def test_tree_without_grouping_rejected(self, max_group):
        # caught by the one layout check, before create_master builds a tree
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=max_group)
        with pytest.raises(ConfigError, match="^max_group "):
            strat.validate(model)
        with pytest.raises(ConfigError, match="^max_group "):
            create_master(model, strat, RngState(6))

    def test_reference_rejects_other_kinds(self):
        # the oracle names the wrong kind instead of failing on a missing tree weight
        model = tiny(channels=4)
        for kind, tp in (("serial", 1), ("tp_only", 2), ("dist_token", 2)):
            strat = StrategyConfig(kind=kind, tp_degree=tp)
            master = create_master(model, strat, RngState(6))
            with pytest.raises(ConfigError, match=f"got {kind}"):
                run_dchag_reference_step(model, strat, master, make_batch(model, 1, 0, [0]))

    def test_boundary_gather_contract(self):
        # forward: exactly one AllGather of K*D*8*(tp-1) bytes per rank, K =
        # B*(S - masked) the kept positions; backward: zero boundary-tagged
        # events.
        model = tiny(channels=8)
        tp = 4
        strat = StrategyConfig(kind="dchag", tp_degree=tp, max_group=2)
        master = create_master(model, strat, RngState(6))
        res = run_dchag_step(ParallelConfig(dchag_tp=tp), model, strat, master,
                             make_batch(model, 11, 0, [0]))
        expect = (model.seq - model.masked_count) * model.embed * 8 * (tp - 1)
        total, n = res.ledger.query(phase="forward", tag=DCHAG_BOUNDARY_TAG)
        assert n == tp
        assert total == tp * expect
        assert res.ledger.query(phase="backward", tag=DCHAG_BOUNDARY_TAG) == (0, 0)

    def test_boundary_payload_is_c_over_tp_smaller_than_dist_token(self):
        # dchag gathers one stream per rank where dist_token gathers the
        # rank's C/tp token stacks, as the two steps' ledgers record
        model = tiny(channels=8)
        tp = 2
        forward = {}
        for kind, tag in (("dist_token", TOKEN_GATHER_TAG), ("dchag", DCHAG_BOUNDARY_TAG)):
            strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=2)
            res = run_hybrid_step(ParallelConfig(dchag_tp=tp), model, strat,
                                  create_master(model, strat, RngState(6)),
                                  [make_batch(model, 11, 0, [0])])
            forward[kind] = res.ledger.query(phase="forward", op="AllGather", tag=tag)
        assert forward["dist_token"][1] == forward["dchag"][1] == tp
        assert forward["dist_token"][0] == (model.channels // tp) * forward["dchag"][0] > 0

    @pytest.mark.parametrize("variant, inert", [("single_query", ("q",)),
                                                ("full_cross", ("rq",))])
    def test_one_channel_node_scores_get_exactly_zero_gradient(self, variant, inert):
        # C = tp: each rank's tree is one node over its one channel, whose
        # one key takes the whole softmax of every learned-query pool
        model = tiny(channels=2, agg_variant=variant)
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        res = run_dchag_step(ParallelConfig(dchag_tp=2), model, strat, master,
                             make_batch(model, 11, 0, [0, 1]))
        for r in range(2):
            node = f"agg.slab{r}.l0.g0"
            for name in inert:
                assert (res.grads[f"{node}.{name}"] == 0.0).all(), (node, name)
            assert np.abs(res.grads[f"{node}.wv"]).max() > 0.0

    def test_scheduler_independence(self):
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dchag", tp_degree=4, max_group=2)
        master = create_master(model, strat, RngState(6))
        batch = make_batch(model, 11, 0, [0])
        p = ParallelConfig(dchag_tp=4)
        r1 = run_dchag_step(p, model, strat, master, batch, schedule_seed=7)
        r2 = run_dchag_step(p, model, strat, master, batch, schedule_seed=1234)
        assert r1.losses == r2.losses
        for g1, g2 in zip(r1.rank_grads, r2.rank_grads):
            for k in g1:
                np.testing.assert_array_equal(g1[k], g2[k])
        for rank in range(4):
            assert r1.ledger.per_rank[rank] == r2.ledger.per_rank[rank]


class TestFullCrossWeighsItsInputs:
    """Step-level oracles where full_cross's reduce weighs its inputs.  At
    the benchmark's initialisation (weights of std 0.02) the reduce is
    close to a plain mean and `agg.flat.rq`'s gradient is ~1e-22 of the
    largest, below the equivalence rule's floor, so no step comparison
    would see a wrong gradient through the reduce's scores.  Here the
    tokenizer, the aggregation weights and rq are drawn large enough that
    the pool's weights spread (as `tests/test_model.py::TestFullCrossReduce`
    draws them), and the other matrices at 0.35, about 1/sqrt(D), so that
    the loss's gradient reaches the aggregation undamped.  agg.final
    reduces the tree's outputs, which are larger than tokens, so its rq is
    drawn smaller, lest its softmax saturate."""

    def draw(self, model, strategy, seed):
        master = create_master(model, strategy, RngState(seed))
        rng = RngState(seed + 1)
        for name in sorted(master):
            prefix, leaf = name.rsplit(".", 1)
            if leaf == "rq":
                std = 3.0 if prefix == "agg.flat" else 0.5
            elif name == "tok.w" or (name.startswith("agg.") and leaf in ("wq", "wk", "wv", "wo")):
                std = 0.5
            elif master[name].ndim == 2 and not name.startswith("agg."):
                std = 0.35
            else:
                continue
            master[name] = rng.normal(master[name].shape, std)
        return master

    @pytest.mark.parametrize("tp", [2, 4])
    @pytest.mark.parametrize("kind", ["tp_only", "dist_token", "dchag"])
    def test_parallel_step_matches_its_oracle(self, monkeypatch, kind, tp):
        model = tiny(channels=8, agg_variant="full_cross")
        assert model.heads >= tp
        strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=2,
                               agg_layer_kind="cross_attention")
        master = self.draw(model, strat, 3)
        batch = make_batch(model, 11, 0, [0, 1])
        layer = "agg.final" if kind == "dchag" else "agg.flat"
        inputs = {}
        aggregate = layers.cross_attention_aggregate

        def spy(x, w, prefix, *args):
            inputs.setdefault(prefix, x.data.copy())
            return aggregate(x, w, prefix, *args)

        # the reference forward calls the layer through `model`'s global
        monkeypatch.setattr(layers, "cross_attention_aggregate", spy)
        monkeypatch.setattr(dmodel, "cross_attention_aggregate", spy)
        ref = (run_dchag_reference_step(model, strat, master, batch) if kind == "dchag"
               else run_serial_step(model, master, batch))
        _, weights = brute_force_full_cross(
            inputs[layer], *(master[f"{layer}.{leaf}"]
                             for leaf in ("wq", "wk", "wv", "wo", "bo", "rq")), model.heads)
        assert weights.std(axis=-1).mean() > 0.1
        # rq's gradient clears the rule's floor, so the rule weighs it
        # against itself
        scale = max(np.abs(g).max() for g in ref.grads.values())
        assert np.abs(ref.grads[f"{layer}.rq"]).max() > 1e-3 * scale
        res = run_hybrid_step(ParallelConfig(dchag_tp=tp), model, strat, master, [batch])
        for loss in res.losses:
            assert abs(loss - ref.loss) <= 1e-10 * abs(ref.loss)
        assert_grads_match(ref.grads, res.grads)


class TestHybrid:
    def test_dp2_matches_serial_concat_batch(self):
        model = tiny()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        b1 = make_batch(model, 11, 0, [0, 1])
        b2 = make_batch(model, 11, 0, [2, 3])
        concat = make_batch(model, 11, 0, [0, 1, 2, 3])
        hyb = run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat,
                              master, [b1, b2])
        ref = run_dchag_reference_step(model, strat, master, concat)
        assert_grads_match(ref.grads, hyb.grads)

    def test_one_dp_allreduce_per_parameter(self):
        model = tiny()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        hyb = run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat,
                              master, [make_batch(model, 1, 0, [0]),
                                       make_batch(model, 1, 0, [1])])
        n_rank_params = len(hyb.rank_grads[0])
        for rank in range(4):
            _, n = hyb.ledger.query(axis="dp", op="AllReduce", rank=rank)
            assert n == n_rank_params

    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("kind", ["dist_token", "dchag"])
    def test_shared_pos_grad_sum_is_a_backward_event(self, kind, tp):
        # the optimizer phase is left to optimizer state; gradient sums are
        # backward, and a one-rank slab holds the whole sum already
        model = tiny(channels=8)
        strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=2)
        master = create_master(model, strat, RngState(6))
        res = run_hybrid_step(ParallelConfig(dchag_tp=tp, dp=2), model, strat, master,
                              [make_batch(model, 1, 0, [0]), make_batch(model, 1, 0, [1])])
        assert res.ledger.query(phase="optimizer") == (0, 0)
        _, n = res.ledger.query(phase="backward", tag="shared-grad.special.pos")
        assert n == (2 * tp if tp > 1 else 0)  # once per rank

    def test_fsdp_rejected(self):
        # FSDP is modeled by the cost model only; the simulator does not run it
        model = tiny(depth=2)
        strat = StrategyConfig(kind="dchag", tp_degree=1, max_group=2)
        master = create_master(model, strat, RngState(6))
        with pytest.raises(ConfigError, match="fsdp"):
            run_hybrid_step(ParallelConfig(dchag_tp=1, fsdp=2), model, strat,
                            master, [make_batch(model, 1, 0, [0])])

    def test_degenerate_equals_dchag_bit_exact(self):
        model = tiny()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        batch = make_batch(model, 11, 0, [0])
        hyb = run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat, master, [batch])
        base = run_dchag_step(ParallelConfig(dchag_tp=2), model, strat, master, batch)
        assert hyb.losses == base.losses
        for k in base.grads:
            np.testing.assert_array_equal(hyb.grads[k], base.grads[k])

    def test_grid_mismatch_rejected(self):
        model = tiny()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        with pytest.raises(ConfigError, match="batches"):
            run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat,
                            master, [make_batch(model, 1, 0, [0])])

    @pytest.mark.parametrize("ids, unmask, totals", [([[0, 1], [2]], False, "4, 2"),
                                                     ([[0, 1], [2, 3]], True, "4, 3")])
    def test_unequal_dp_batches_rejected(self, ids, unmask, totals):
        # averaging the dp gradients weighs each batch alike, which is the
        # gradient of the concatenated batch only when each batch's loss
        # averages over as many masked positions (two per sample here), the
        # batch sizes aside; `unmask` drops one of sample 3's
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(6))
        batches = [make_batch(model, 11, 0, i) for i in ids]
        if unmask:
            batches[1].mask[1, np.flatnonzero(batches[1].mask[1])[0]] = 0.0
        with pytest.raises(ConfigError, match=rf"positions, got \[{totals}\]"):
            run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat, master, batches)

    def test_unequal_sizes_with_equal_masked_totals_match_the_concatenation(self):
        # two samples masking one position each against one masking two:
        # both losses average over two positions, so the dp average is the
        # gradient of the three-sample batch
        model = tiny()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        b1, b2 = make_batch(model, 11, 0, [0, 1]), make_batch(model, 11, 0, [2])
        for row in b1.mask:
            row[np.flatnonzero(row)[0]] = 0.0
        concat = Batch(*(np.concatenate([getattr(b1, f), getattr(b2, f)])
                         for f in ("images", "meta", "mask")))
        hyb = run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat, master, [b1, b2])
        ref = run_dchag_reference_step(model, strat, master, concat)
        assert_grads_match(ref.grads, hyb.grads)


# -- the kept-row forward against every position tokenized -------------------


def every_position_loss(w, model, strategy, batch):
    """A brute force of the loss that tokenizes and aggregates every
    position, then replaces the masked positions' streams by the mask token
    through products with the mask and its complement, as the model did
    before it tokenized the kept positions alone."""
    b, c, h, wd = batch.images.shape
    p, s, d = model.patch, model.seq, model.embed
    pixels = batch.images.reshape(b, c, h // p, p, wd // p, p).transpose(0, 1, 2, 4, 3, 5)
    tokens = T.matmul(Tensor(pixels.reshape(b, c, s, p * p)), w["tok.w"])  # [B, C, S, D]
    tokens = T.add(tokens, T.reshape(w["special.channel_id"], (c, 1, d)))
    tokens = T.transpose(T.add(tokens, w["special.pos"]), (0, 2, 1, 3))  # [B, S, C, D]
    if strategy.kind == "dchag":
        tp, tree = strategy.tp_degree, rank_tree(model, strategy)
        streams = [tree_aggregate(slab, tree, w, f"agg.slab{r}", strategy.agg_layer_kind,
                                  model.agg_variant, model.heads)
                   for r, slab in enumerate(T.split(tokens, 2, [c // tp] * tp))]
        agg = cross_attention_aggregate(T.concat(streams, axis=2), w, "agg.final",
                                        model.agg_variant, model.heads)
    else:
        agg = cross_attention_aggregate(tokens, w, "agg.flat", model.agg_variant, model.heads)
    mask = batch.mask.reshape(b, s, 1, 1)
    agg = T.add(T.mul(agg, Tensor(1.0 - mask)),
                T.mul(T.reshape(w["dec.mask"], (1, 1, 1, d)), Tensor(mask)))
    meta = linear(Tensor(batch.meta), w["special.meta_w"], w["special.meta_b"])
    out = T.concat([T.reshape(meta, (b, 1, d)), T.reshape(agg, (b, s, d))], axis=1)
    for i in range(model.depth):
        out = transformer_block(out, w, f"vit.blk{i}", model.heads)
    rows = masked_rows(batch.mask)
    return masked_mse(decode(out, w, model, rows), batch.images, rows, model)


def every_position_step(model, strategy, master, batch):
    w = {k: Tensor(v, requires_grad=True) for k, v in master.items()}
    loss = every_position_loss(w, model, strategy, batch)
    T.backward(loss)
    return loss.item(), {k: t.grad if t.grad is not None else np.zeros(t.shape)
                         for k, t in w.items()}


class TestKeptRowsAgainstEveryPosition:
    """The steps tokenize and aggregate the kept positions alone; their
    losses and gradients are those of a brute force over every position,
    masked afterwards, with masks that keep unequally many positions per
    sample."""

    MASKS = (np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]]),
             np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]))

    def batch(self, model, i):
        batch = make_batch(model, 11, 0, [2 * i, 2 * i + 1])
        batch.mask = self.MASKS[i].copy()
        return batch

    @pytest.mark.parametrize("variant", AGG_VARIANTS)
    @pytest.mark.parametrize("kind", ["serial", "dchag"])
    def test_single_process_steps(self, variant, kind):
        model = tiny(channels=8, agg_variant=variant)
        batch = self.batch(model, 0)
        if kind == "serial":
            strat = StrategyConfig()
            master = create_master(model, strat, RngState(6))
            res = run_serial_step(model, master, batch)
        else:
            strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
            master = create_master(model, strat, RngState(6))
            res = run_dchag_reference_step(model, strat, master, batch)
        loss, grads = every_position_step(model, strat, master, batch)
        assert abs(res.loss - loss) <= 1e-12 * abs(loss)
        assert_grads_match(grads, res.grads)

    @pytest.mark.parametrize("variant", AGG_VARIANTS)
    @pytest.mark.parametrize("kind", ["tp_only", "dist_token", "dchag"])
    def test_tp2_dp2_steps(self, variant, kind):
        model = tiny(channels=8, agg_variant=variant)
        strat = StrategyConfig(kind=kind, tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(6))
        batches = [self.batch(model, i) for i in range(2)]
        res = run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat, master, batches)
        oracle = [every_position_step(model, strat, master, batch) for batch in batches]
        for rank, loss in enumerate(res.losses):  # ranks are (dp, tp) row-major
            want = oracle[rank // 2][0]
            assert abs(loss - want) <= 1e-12 * abs(want), rank
        assert_grads_match({k: (oracle[0][1][k] + oracle[1][1][k]) / 2 for k in master},
                           res.grads)


@pytest.mark.parametrize("variant", AGG_VARIANTS)
def test_no_two_parameters_share_a_gradient(variant):
    # a parameter that another one absorbs gets that one's gradient, bit for
    # bit (a tokenizer bias did, special.channel_id's); the model has none
    model = tiny(channels=4, agg_variant=variant)
    batch = make_batch(model, 11, 0, [0, 1])
    strats = [StrategyConfig(kind=kind, tp_degree=2, max_group=2, agg_layer_kind=layer)
              for kind, layer in (("tp_only", "cross_attention"),
                                  ("dist_token", "cross_attention"),
                                  ("dchag", "cross_attention"), ("dchag", "linear"))]
    master = create_master(model, StrategyConfig(), RngState(5))
    runs = {"serial": run_serial_step(model, master, batch).grads}
    for strat in strats:
        master = create_master(model, strat, RngState(5))
        name = f"{strat.kind}-{strat.agg_layer_kind}"
        runs[name] = run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat, master,
                                     [batch]).grads
        if strat.kind == "dchag":
            runs[f"{name}-reference"] = run_dchag_reference_step(model, strat, master,
                                                                 batch).grads
    shared = []
    for run, grads in runs.items():
        seen = {}
        for name, g in grads.items():
            other = seen.setdefault((g.shape, g.tobytes()), name)
            if other != name:
                shared.append((run, other, name))
    assert shared == []


class TestSharding:
    def test_shard_then_unshard_identity(self):
        flags = ({}, {"agg_layer_kind": "linear"})
        cases = [StrategyConfig()]
        for tp in (1, 2, 4):
            cases += [StrategyConfig(kind="tp_only", tp_degree=tp),
                      StrategyConfig(kind="dist_token", tp_degree=tp)]
            cases += [StrategyConfig(kind="dchag", tp_degree=tp, max_group=2, **f)
                      for f in flags]
        for variant in ("single_query", "full_cross"):
            for strat in cases:
                model = tiny(channels=8, agg_variant=variant)
                master = create_master(model, strat, RngState(5))
                shards = [shard_for_rank(master, strat, r)
                          for r in range(strat.tp_degree)]
                back = unshard_grads(shards, master, strat)
                assert back.keys() == master.keys()
                for k, v in master.items():
                    np.testing.assert_array_equal(back[k], v)

    @settings(max_examples=40)
    @given(kind=st.sampled_from(STRATEGY_KINDS), tp=st.sampled_from((1, 2, 4)),
           channels=st.integers(1, 8), max_group=st.integers(2, 4),
           variant=st.sampled_from(AGG_VARIANTS), layer_kind=st.sampled_from(AGG_LAYER_KINDS))
    def test_random_layout_round_trip(self, kind, tp, channels, max_group, variant,
                                      layer_kind):
        model = tiny(channels=channels, agg_variant=variant)
        strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=max_group,
                               agg_layer_kind=layer_kind)
        try:
            master = create_master(model, strat, RngState(5))
        except ConfigError:
            assume(False)
        shards = [shard_for_rank(master, strat, r) for r in range(tp)]
        back = unshard_grads(shards, master, strat)
        assert back.keys() == master.keys()
        for k, v in master.items():
            np.testing.assert_array_equal(back[k], v)
        # the compact table the cost model reads counts what every rank holds
        component = {"tok": "tokenize", "special": "tokenize", "agg": "aggregate",
                     "vit": "vit", "dec": "decoder"}
        compact = Counter({(comp, n): count
                           for comp, count, n in rank_parameter_sizes(model, strat)})
        for shard in shards:
            assert compact == Counter((component[name.split(".")[0]], arr.size)
                                      for name, arr in shard.items())

    def test_replicated_weights_identical_across_ranks(self):
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(5))
        s0 = shard_for_rank(master, strat, 0)
        s1 = shard_for_rank(master, strat, 1)
        for name in ("special.pos", "agg.final.wo", "vit.blk0.bo", "dec.head.b"):
            np.testing.assert_array_equal(s0[name], s1[name])

    def test_tp_shards_are_exact_slices(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        s1 = shard_for_rank(master, strat, 1)
        d = model.embed
        np.testing.assert_array_equal(s1["vit.blk0.wq"], master["vit.blk0.wq"][:, d // 2:])
        np.testing.assert_array_equal(s1["vit.blk0.wo"], master["vit.blk0.wo"][d // 2:, :])


@pytest.mark.parametrize("kind, prefix", [("dist_token", "agg.flat"), ("dchag", "agg.final")])
def test_gathered_stacks_fold_as_views(monkeypatch, kind, prefix):
    # the channel gathers concatenate position-major stacks along the
    # channel axis, so the stack each gather hands its aggregation layer is
    # one contiguous array, whose rows the weight gradients fold in place
    stacks = []
    aggregate = layers.cross_attention_aggregate

    def spy(x, w, name, *args):
        if name == prefix:
            stacks.append(x.data)
        return aggregate(x, w, name, *args)

    monkeypatch.setattr(layers, "cross_attention_aggregate", spy)
    model = tiny(channels=8)
    strat = StrategyConfig(kind=kind, tp_degree=2, max_group=2)
    run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat,
                    create_master(model, strat, RngState(5)), [make_batch(model, 11, 0, [0, 1])])
    assert len(stacks) == 2
    for x in stacks:
        assert x.flags.c_contiguous
        rows, _ = T._fold_rows(x, np.zeros(x.shape))
        assert np.shares_memory(rows, x)


def malformed(model, field):
    """A four-sample batch with one field of the wrong shape: a [1, S]
    mask, a [1, 4] meta, or images of one 4 x 8 plane."""
    batch = make_batch(model, 1, 0, [0, 1, 2, 3])
    setattr(batch, field, {"mask": batch.mask[:1], "meta": batch.meta[:1],
                           "images": np.zeros((4, 8))}[field])
    return batch


@pytest.mark.parametrize("field", ["images", "meta", "mask"])
def test_serial_step_rejects_a_malformed_batch(field):
    model = tiny()
    master = create_master(model, StrategyConfig(), RngState(5))
    with pytest.raises(ConfigError, match=f"batch {field} has shape"):
        run_serial_step(model, master, malformed(model, field))


@pytest.mark.parametrize("field", ["images", "meta", "mask"])
def test_parallel_step_checks_every_dp_batch(field):
    model = tiny()
    strat = StrategyConfig(kind="tp_only", tp_degree=2)
    master = create_master(model, strat, RngState(5))
    batches = [make_batch(model, 1, 0, [4, 5, 6, 7]), malformed(model, field)]
    with pytest.raises(ConfigError, match=f"batch {field} has shape"):
        run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat, master, batches)


def test_every_step_returns_one_result_type():
    # one entry per rank; a single-process step is one rank with no ledger
    # event
    model = tiny()
    strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
    master = create_master(model, strat, RngState(5))
    batch = make_batch(model, 1, 0, [0, 1])
    serial = run_serial_step(model, create_master(model, StrategyConfig(), RngState(5)), batch)
    reference = run_dchag_reference_step(model, strat, master, batch)
    hybrid = run_hybrid_step(ParallelConfig(dchag_tp=2, dp=2), model, strat, master,
                             [batch, make_batch(model, 1, 0, [2, 3])])
    for res, ranks in ((serial, 1), (reference, 1), (hybrid, 4)):
        assert isinstance(res, StepResult)
        assert len(res.stats) == len(res.losses) == len(res.rank_grads) == ranks
        assert res.loss == res.losses[0]
    for res in (serial, reference):
        assert list(res.ledger.events()) == []
    assert list(hybrid.ledger.events()) != []


def test_serial_step_rejects_invalid_model():
    model = ModelConfig(channels=4, image_h=8, image_w=8, patch=4, embed=6,
                        depth=1, heads=4)
    master = {name: np.zeros(shape)
              for name, shape, _ in parameter_specs(model, StrategyConfig())}
    with pytest.raises(ConfigError, match="heads"):
        run_serial_step(model, master, make_batch(model, 1, 0, [0]))


# -- pages kept in the process across steps ------------------------------------


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="the allocation policy is glibc's")
def test_malloc_policy_in_force_on_glibc():
    assert T.MALLOC_POLICY_SET


@pytest.mark.skipif(not T.MALLOC_POLICY_SET, reason="the allocation policy is not in force")
class TestStepsReuseTheirPages:
    """Once one step has run, the next reuses the pages it freed, so it
    takes few minor page faults: on this desk a few hundred at most, from
    heap growth as the allocator settles and from thread stacks.  Under
    glibc's default policy the second serial step took ~19 thousand."""

    MAX_FAULTS = 1024  # 4 MiB of 4 KiB pages

    @staticmethod
    def desk():
        model = tiny(image_h=64, image_w=64, embed=64, heads=8, mlp_ratio=4)
        return model, make_batch(model, 11, 0, list(range(8)))

    @staticmethod
    def faults_after(warm_up, step, who: str) -> int:
        """Minor faults of `step`, run after `warm_up`, counted by
        `getrusage` for `who` (a `resource.RUSAGE_*` name)."""
        import resource  # POSIX only, as the policy is

        warm_up()
        before = resource.getrusage(getattr(resource, who)).ru_minflt
        step()
        return resource.getrusage(getattr(resource, who)).ru_minflt - before

    def test_serial_step(self):
        model, batch = self.desk()
        master = create_master(model, StrategyConfig(), RngState(5))
        def step():
            run_serial_step(model, master, batch)

        assert self.faults_after(step, step, "RUSAGE_THREAD") <= self.MAX_FAULTS

    def test_tp2_step(self):
        # the rank threads of a step reuse the pages that another thread
        # freed: here a serial step of a larger batch on this thread.  With
        # one arena per thread (no M_ARENA_MAX) the ranks faulted in 13-15
        # thousand pages of their own; with one arena, 14-44.
        model, batch = self.desk()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        serial_master = create_master(model, StrategyConfig(), RngState(5))
        larger = make_batch(model, 11, 0, list(range(12)))
        faults = self.faults_after(
            lambda: run_serial_step(model, serial_master, larger),
            lambda: run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master, batch),
            "RUSAGE_SELF")
        assert faults <= self.MAX_FAULTS
