import numpy as np
import pytest

from dchag.config import ConfigError, ModelConfig, ParallelConfig, StrategyConfig
from dchag.params import create_master, shard_for_rank, unshard_grads
from dchag.rng import RngState
from dchag.strategies import (DCHAG_BOUNDARY_TAG, TOKEN_GATHER_TAG,
                              run_dchag_reference_step, run_dchag_step,
                              run_dist_token_step, run_hybrid_step,
                              run_serial_step, run_tp_step)
from dchag.synthetic import make_batch


def tiny(channels=4, **kw):
    base = dict(channels=channels, image_h=8, image_w=8, patch=4, embed=8,
                depth=1, heads=4, mlp_ratio=2, agg_variant="single_query",
                mask_ratio=0.5, decoder_depth=1, decoder_dim=8)
    base.update(kw)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def assert_grads_match(g1, g2, rtol=1e-10):
    """Spec tolerance: per-tensor relative error with a floor tied to the
    overall gradient scale (identically-zero-by-symmetry entries are noise)."""
    assert set(g1) == set(g2)
    scale = max(np.abs(v).max() for v in g1.values())
    for name in g1:
        denom = max(np.abs(g1[name]).max(), np.abs(g2[name]).max(), 1e-3 * scale)
        err = np.abs(g1[name] - g2[name]).max() / denom
        assert err < rtol, f"{name}: rel err {err:.2e}"


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
        (st,) = tp.stats
        assert st.per_tag_peak == ser.stats.per_tag_peak
        assert st.per_tag_flops == ser.stats.per_tag_flops
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

    def test_backward_has_tp_reducescatter_events(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master,
                          make_batch(model, 1, 0, [0]))
        _, n = res.ledger.query(phase="backward", axis="tp", op="ReduceScatter")
        assert n > 0

    def test_replicated_grads_bit_identical_across_ranks(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        res = run_tp_step(ParallelConfig(dchag_tp=2), model, strat, master,
                          make_batch(model, 1, 0, [0]))
        for name in ("vit.blk0.ln1.g", "dec.head.w", "tok.w", "special.meta_w"):
            np.testing.assert_array_equal(res.rank_grads[0][name],
                                          res.rank_grads[1][name])

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
            assert st.tag_flops("tokenize") == ser.stats.tag_flops("tokenize")


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
        # payload per rank = B*(C/tp)*S*D*8*(tp-1) bytes on the channel axis
        model = tiny(channels=8)
        tp = 2
        master = create_master(model, StrategyConfig(kind="dist_token", tp_degree=tp),
                               RngState(5))
        batch = make_batch(model, 11, 0, [0])  # B=1
        res = run_dist_token_step(ParallelConfig(dchag_tp=tp), model,
                                  StrategyConfig(kind="dist_token", tp_degree=tp),
                                  master, batch)
        expect = (model.channels // tp) * model.seq * model.embed * 8 * (tp - 1)
        total, n = res.ledger.query(phase="forward", tag=TOKEN_GATHER_TAG)
        assert n == tp  # one gather per rank
        assert total == tp * expect

    def test_gather_backward_is_local(self):
        model = tiny(channels=8)
        tp = 2
        master = create_master(model, StrategyConfig(kind="dist_token", tp_degree=tp),
                               RngState(5))
        res = run_dist_token_step(ParallelConfig(dchag_tp=tp), model,
                                  StrategyConfig(kind="dist_token", tp_degree=tp),
                                  master, make_batch(model, 11, 0, [0]))
        _, n = res.ledger.query(phase="backward", tag=TOKEN_GATHER_TAG)
        assert n == 0

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
        serial_tok = ser.stats.tag_flops("tokenize")
        for st in res.stats:
            assert st.tag_flops("tokenize") == serial_tok // tp

    def test_indivisible_channels_rejected(self):
        model = tiny(channels=6)
        with pytest.raises(ConfigError, match="divisible"):
            StrategyConfig(kind="dist_token", tp_degree=4).validate(model)


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

    def test_boundary_gather_contract(self):
        # forward: exactly one AllGather of S*D*8*(tp-1) bytes per rank;
        # backward: zero boundary-tagged events.
        model = tiny(channels=8)
        tp = 4
        strat = StrategyConfig(kind="dchag", tp_degree=tp, max_group=2)
        master = create_master(model, strat, RngState(6))
        res = run_dchag_step(ParallelConfig(dchag_tp=tp), model, strat, master,
                             make_batch(model, 11, 0, [0]))
        expect = model.seq * model.embed * 8 * (tp - 1)
        total, n = res.ledger.query(phase="forward", tag=DCHAG_BOUNDARY_TAG)
        assert n == tp
        assert total == tp * expect
        assert res.ledger.query(phase="backward", tag=DCHAG_BOUNDARY_TAG) == (0, 0)

    def test_boundary_payload_is_c_over_tp_smaller_than_dist_token(self):
        model = tiny(channels=8)
        tp = 2
        dist_payload = (model.channels // tp) * model.seq * model.embed * 8 * (tp - 1)
        dchag_payload = model.seq * model.embed * 8 * (tp - 1)
        assert dist_payload // dchag_payload == model.channels // tp

    def test_channel_only_tp_has_no_backward_tp_events(self):
        # tp group used only for channel work: replicated final layer and ViT
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2,
                               vit_tp_split=False)
        master = create_master(model, strat, RngState(6))
        batch = make_batch(model, 11, 0, [0, 1])
        res = run_dchag_step(ParallelConfig(dchag_tp=2), model, strat, master, batch)
        assert res.ledger.query(phase="backward", axis="tp") == (0, 0)
        _, fw = res.ledger.query(phase="forward", axis="tp")
        assert fw == 2  # only the boundary gather, once per rank
        ref = run_dchag_reference_step(model, strat, master, batch)
        assert_grads_match(ref.grads, res.grads)

    def test_final_layer_tp_split_still_matches(self):
        model = tiny(channels=8, agg_variant="full_cross")
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2,
                               final_layer_tp_split=True)
        master = create_master(model, strat, RngState(6))
        batch = make_batch(model, 11, 0, [0])
        ref = run_dchag_reference_step(model, strat, master, batch)
        res = run_dchag_step(ParallelConfig(dchag_tp=2), model, strat, master, batch)
        assert_grads_match(ref.grads, res.grads)
        # boundary stays clean even when the final layer is head-split
        assert res.ledger.query(phase="backward", tag=DCHAG_BOUNDARY_TAG) == (0, 0)

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


class TestSharding:
    def test_shard_then_unshard_identity(self):
        flags = ({}, {"vit_tp_split": False}, {"final_layer_tp_split": True},
                 {"agg_layer_kind": "linear"})
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
                shards = [shard_for_rank(master, model, strat, r)
                          for r in range(strat.tp_degree)]
                back = unshard_grads(shards, master, model, strat)
                assert back.keys() == master.keys()
                for k, v in master.items():
                    np.testing.assert_array_equal(back[k], v)

    def test_replicated_weights_identical_across_ranks(self):
        model = tiny(channels=8)
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(5))
        s0 = shard_for_rank(master, model, strat, 0)
        s1 = shard_for_rank(master, model, strat, 1)
        for name in ("special.pos", "agg.final.wo", "vit.blk0.ln1.g", "dec.head.b"):
            np.testing.assert_array_equal(s0[name], s1[name])

    def test_tp_shards_are_exact_slices(self):
        model = tiny()
        strat = StrategyConfig(kind="tp_only", tp_degree=2)
        master = create_master(model, strat, RngState(5))
        s1 = shard_for_rank(master, model, strat, 1)
        d = model.embed
        np.testing.assert_array_equal(s1["vit.blk0.wq"], master["vit.blk0.wq"][:, d // 2:])
        np.testing.assert_array_equal(s1["vit.blk0.wo"], master["vit.blk0.wo"][d // 2:, :])
