"""The cost model against the simulator: per-rank parameter bytes against
the shards ranks hold, and communication against the ledger."""

import pytest

from dchag.config import (ConfigError, HardwareModel, ModelConfig, ParallelConfig,
                          StrategyConfig)
from dchag.costmodel import COMPONENTS, estimate, plan
from dchag.params import create_master, shard_for_rank
from dchag.rng import RngState
from dchag.strategies import run_hybrid_step
from dchag.synthetic import make_batch

# name prefix -> component, written out here rather than taken from params
COMPONENT_OF = {"tok": "tokenize", "special": "tokenize", "agg": "aggregate",
                "vit": "vit", "dec": "decoder"}
VARIANTS = ("single_query", "full_cross")


def desk(variant="single_query", channels=8, **kw):
    base = dict(channels=channels, image_h=8, image_w=8, patch=4, embed=16, depth=2,
                heads=4, mlp_ratio=2, agg_variant=variant, decoder_depth=1,
                decoder_dim=8)
    base.update(kw)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def grid():
    """(model tree_max_group, strategy) for every kind and flag the cost
    model distinguishes, at tp 1, 2 and 4."""
    cases = [(0, StrategyConfig(kind="serial")), (3, StrategyConfig(kind="serial"))]
    for tp in (1, 2, 4):
        cases += [
            (0, StrategyConfig(kind="tp_only", tp_degree=tp)),
            (0, StrategyConfig(kind="dist_token", tp_degree=tp)),
            (0, StrategyConfig(kind="dchag", tp_degree=tp, max_group=2)),
            (0, StrategyConfig(kind="dchag", tp_degree=tp, max_group=2, vit_tp_split=False)),
            (0, StrategyConfig(kind="dchag", tp_degree=tp, max_group=2,
                               final_layer_tp_split=True)),
            (0, StrategyConfig(kind="dchag", tp_degree=tp, max_group=3,
                               agg_layer_kind="linear")),
        ]
    return cases


GRID = [(variant, tree, strat) for variant in VARIANTS for tree, strat in grid()]


def case_id(case):
    variant, tree, strat = case
    flags = [f"tree{tree}"] if tree else []
    flags += [] if strat.vit_tp_split else ["vit-replicated"]
    flags += ["final-split"] if strat.final_layer_tp_split else []
    flags += ["linear"] if strat.agg_layer_kind == "linear" else []
    return "-".join([variant, strat.kind, f"tp{strat.tp_degree}", *flags])


def shard_bytes(model, strat, master):
    """Component -> the most bytes any tp rank holds."""
    out = dict.fromkeys(COMPONENTS, 0)
    for r in range(strat.tp_degree):
        held = dict.fromkeys(COMPONENTS, 0)
        for name, arr in shard_for_rank(master, model, strat, r).items():
            held[COMPONENT_OF[name.split(".")[0]]] += arr.nbytes
        out = {c: max(out[c], held[c]) for c in COMPONENTS}
    return out


def ledger_comm(ledger, rank):
    """(phase, axis) -> payload bytes of one rank, zero entries dropped."""
    out = {}
    for ev in ledger.per_rank[rank]:
        out[ev.phase, ev.axis] = out.get((ev.phase, ev.axis), 0) + ev.payload_bytes_per_rank
    return {k: v for k, v in out.items() if v}


class TestParameterBytes:
    @pytest.mark.parametrize("case", GRID, ids=case_id)
    def test_matches_shards(self, case):
        variant, tree, strat = case
        model = desk(variant, tree_max_group=tree)
        master = create_master(model, strat, RngState(3))
        rep = estimate(model, strat, precision_bytes=8)
        got = {c: rep.components[c].params_bytes for c in COMPONENTS}
        assert got == shard_bytes(model, strat, master)

    def test_fsdp_divides_vit_and_moves_tp_local_blocks(self):
        model = desk()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(3))
        blocks = shard_bytes(model, strat, master)["vit"]
        rep = estimate(model, strat, ParallelConfig(dchag_tp=2, fsdp=4), precision_bytes=8)
        assert rep.components["vit"].params_bytes == blocks // 4
        assert rep.comm["forward", "fsdp"] == blocks * 3 // 4
        assert rep.comm["backward", "fsdp"] == blocks * 3 // 4


class TestComm:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["tp_only", "dist_token", "dchag"])
    @pytest.mark.parametrize("tp", [2, 4])
    def test_matches_ledger(self, tp, kind, variant):
        model = desk(variant)
        strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=2)
        master = create_master(model, strat, RngState(3))
        batch = make_batch(model, 5, 0, [0, 1])
        res = run_hybrid_step(ParallelConfig(dchag_tp=tp), model, strat, master, [batch])
        rep = estimate(model, strat, precision_bytes=8, batch=batch.size)
        want = {k: v for k, v in rep.comm.items() if v}
        for rank in range(tp):
            assert ledger_comm(res.ledger, rank) == want

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dp_gradient_allreduce_matches_ledger(self, variant):
        model = desk(variant)
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(3))
        batches = [make_batch(model, 5, 0, [0]), make_batch(model, 5, 0, [1])]
        pconfig = ParallelConfig(dchag_tp=2, dp=2)
        res = run_hybrid_step(pconfig, model, strat, master, batches)
        rep = estimate(model, strat, pconfig, precision_bytes=8)
        for rank in range(pconfig.world_size):
            assert ledger_comm(res.ledger, rank) == {k: v for k, v in rep.comm.items() if v}


class TestContract:
    @pytest.mark.parametrize("kind", ["dist_token", "dchag"])
    def test_indivisible_channels_rejected(self, kind):
        model = desk(channels=6)
        with pytest.raises(ConfigError, match="divisible"):
            estimate(model, StrategyConfig(kind=kind, tp_degree=4))

    def test_tp_only_needs_no_channel_divisibility(self):
        model = desk(channels=6)
        rep = estimate(model, StrategyConfig(kind="tp_only", tp_degree=4))
        assert rep.components["tokenize"].params_bytes > 0



def test_plan_skips_layouts_the_simulator_rejects():
    # heads=4 lets the planner try tp=4, which does not divide 6 channels
    model = desk(channels=6)
    best = plan(model, HardwareModel(), family="dchag", precision_bytes=8)
    assert best.feasible and best.strategy.tp_degree == 1
