"""The cost model against the simulator: per-rank parameter bytes against
the shards ranks hold, communication against the ledger, activation bytes
against the allocator, and the planner against an exhaustive search."""

import functools
from dataclasses import replace

import pytest

from dchag import costmodel
from dchag.config import (ConfigError, HardwareModel, ModelConfig, ParallelConfig,
                          StrategyConfig)
from dchag.costmodel import COMPONENTS, estimate, plan
from dchag.params import create_master, shard_for_rank
from dchag.rng import RngState
from dchag.strategies import run_hybrid_step, run_serial_step
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


# every dchag flag set the cost model distinguishes
DCHAG_FLAGS = ({}, {"vit_tp_split": False}, {"final_layer_tp_split": True},
               {"final_layer_tp_split": True, "vit_tp_split": False},
               {"agg_layer_kind": "linear", "max_group": 3})


def parallel_strategies(tp):
    return [StrategyConfig(kind="tp_only", tp_degree=tp),
            StrategyConfig(kind="dist_token", tp_degree=tp),
            *(StrategyConfig(**{"kind": "dchag", "tp_degree": tp, "max_group": 2, **f})
              for f in DCHAG_FLAGS)]


GRID = [(variant, strat) for variant in VARIANTS
        for strat in [StrategyConfig(kind="serial")]
        + [s for tp in (1, 2, 4) for s in parallel_strategies(tp)]]


def flag_suffix(strat):
    flags = [] if strat.vit_tp_split else ["vit-replicated"]
    flags += ["final-split"] if strat.final_layer_tp_split else []
    flags += ["linear"] if strat.agg_layer_kind == "linear" else []
    return flags


def case_id(case):
    variant, strat = case
    return "-".join([variant, strat.kind, f"tp{strat.tp_degree}", *flag_suffix(strat)])


def run_step(model, strat, batches):
    """Serial step, or one parallel step with one batch per dp rank."""
    master = create_master(model, strat, RngState(3))
    if strat.kind == "serial":
        return run_serial_step(model, master, batches[0])
    pconfig = ParallelConfig(dchag_tp=strat.tp_degree, dp=len(batches))
    return run_hybrid_step(pconfig, model, strat, master, batches)


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
    """(phase, axis) -> payload bytes of one rank, zero entries dropped; a
    rank with no events has none."""
    out = {}
    for ev in ledger.per_rank.get(rank, ()):
        out[ev.phase, ev.axis] = out.get((ev.phase, ev.axis), 0) + ev.payload_bytes_per_rank
    return {k: v for k, v in out.items() if v}


class TestParameterBytes:
    @pytest.mark.parametrize("case", GRID, ids=case_id)
    def test_matches_shards(self, case):
        variant, strat = case
        model = desk(variant)
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


def comm_cases():
    """Every parallel case of the grid at dp 1 and 2, with ids of the form
    tp-kind-variant[-flags][-dp2]."""
    for variant, strat in GRID:
        if strat.kind == "serial":
            continue
        for dp in (1, 2):
            name = [str(strat.tp_degree), strat.kind, variant, *flag_suffix(strat)]
            yield pytest.param(variant, strat, dp,
                               id="-".join(name + (["dp2"] if dp == 2 else [])))


class TestComm:
    @pytest.mark.parametrize("variant, strat, dp", comm_cases())
    def test_matches_ledger(self, variant, strat, dp):
        model = desk(variant)
        batches = [make_batch(model, 5, 0, [2 * i, 2 * i + 1]) for i in range(dp)]
        res = run_step(model, strat, batches)
        pconfig = ParallelConfig(dchag_tp=strat.tp_degree, dp=dp)
        rep = estimate(model, strat, pconfig, precision_bytes=8, batch=2)
        want = {k: v for k, v in rep.comm.items() if v}
        for rank in range(pconfig.world_size):
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


@functools.lru_cache(maxsize=None)
def activations(case):
    """(estimated, measured) activation bytes per component of one grid case;
    measured is the allocator's per-tag peak on the busiest rank."""
    variant, strat = case
    model = desk(variant)
    res = run_step(model, strat, [make_batch(model, 5, 0, [0, 1])])
    stats = res.stats if isinstance(res.stats, list) else [res.stats]
    rep = estimate(model, strat, precision_bytes=8, batch=2)
    return ({c: rep.activation(c) for c in COMPONENTS},
            {c: max(st.tag_peak(c) for st in stats) for c in COMPONENTS})


class TestActivations:
    """The activation estimate of every component is exact: the allocator's
    per-tag peak on the busiest rank equals the estimate."""

    @pytest.mark.parametrize("case", GRID, ids=case_id)
    def test_tokenize_and_decoder_match_allocator(self, case):
        est, measured = activations(case)
        for comp in ("tokenize", "decoder"):
            assert est[comp] == measured[comp], comp

    @pytest.mark.parametrize("case", GRID, ids=case_id)
    def test_aggregate_and_vit_match_allocator(self, case):
        est, measured = activations(case)
        for comp in ("aggregate", "vit"):
            assert est[comp] == measured[comp], comp


class TestContract:
    @pytest.mark.parametrize("kind", ["dist_token", "dchag"])
    def test_indivisible_channels_rejected(self, kind):
        model = desk(channels=6)
        with pytest.raises(ConfigError, match="divisible"):
            estimate(model, StrategyConfig(kind=kind, tp_degree=4))

    @pytest.mark.parametrize("kind", ["serial", "tp_only", "dist_token", "dchag"])
    def test_tree_settings_accepted_by_every_kind(self, kind):
        model = desk()
        strat = StrategyConfig(kind=kind, tp_degree=1, max_group=4, agg_layer_kind="linear")
        strat.validate(model)
        assert estimate(model, strat).fits

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError, match="agg_variant"):
            estimate(replace(desk(), agg_variant="bogus"), StrategyConfig())

    def test_invalid_hardware_rejected(self):
        with pytest.raises(ConfigError, match="bytes_per_gpu"):
            plan(desk(), HardwareModel(bytes_per_gpu=-1))

    def test_tp_only_needs_no_channel_divisibility(self):
        model = desk(channels=6)
        rep = estimate(model, StrategyConfig(kind="tp_only", tp_degree=4))
        assert rep.components["tokenize"].params_bytes > 0


def test_plan_skips_layouts_the_simulator_rejects():
    # heads=4 lets the planner try tp=4, which does not divide 6 channels
    model = desk(channels=6)
    best = plan(model, HardwareModel(), family="dchag", precision_bytes=8)
    assert best.feasible and best.strategy.tp_degree == 1


def all_candidates(model, hw, family, rank_limit):
    """Every (strategy, parallel grid, report) of the planner's power-of-two
    grid that fits, in the planner's search order."""
    tps = [2 ** i for i in range(11) if 2 ** i <= min(rank_limit, model.heads)]
    groups = [2 ** i for i in range(1, 9)] if family == "dchag" else [128]
    out = []
    for tp in tps if family != "serial" else [1]:
        for max_group in groups:
            for fsdp in (2 ** i for i in range(11) if tp * 2 ** i <= rank_limit):
                if family == "dchag":
                    strat = StrategyConfig(kind="dchag", tp_degree=tp, max_group=max_group,
                                           agg_layer_kind="linear")
                else:
                    strat = StrategyConfig(kind=family, tp_degree=tp)
                pconfig = ParallelConfig(dchag_tp=tp, fsdp=fsdp)
                try:
                    rep = estimate(model, strat, pconfig, hw, 8)
                except ConfigError:
                    continue
                if rep.fits:
                    out.append((strat, pconfig, rep))
    return out


def planning_desk(variant):
    """Parameter-heavy enough that FSDP pays off under tight budgets."""
    return desk(variant, embed=64, depth=8, heads=8, mlp_ratio=4)


def budgets(model):
    """Per-rank byte budgets from roomy down to ones that need many ranks."""
    total = estimate(model, StrategyConfig(), precision_bytes=8).total_bytes
    return [int(total * f) for f in (2.0, 0.9, 0.6, 0.45, 0.3, 0.2, 0.1)]


class TestPlan:
    @pytest.mark.parametrize("family", ["serial", "tp_only", "dchag"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_exhaustive_search(self, variant, family):
        model = planning_desk(variant)
        for budget in budgets(model):
            hw = HardwareModel(bytes_per_gpu=budget)
            got = plan(model, hw, family, precision_bytes=8, rank_limit=64,
                       fsdp_allowed=True)
            fits = all_candidates(model, hw, family, rank_limit=64)
            if not fits:
                assert not got.feasible
                continue
            strat, pconfig, rep = min(
                fits, key=lambda c: (c[1].world_size, c[2].forward_comm()))
            assert (got.strategy, got.pconfig, got.report) == (strat, pconfig, rep)

    def test_stops_raising_fsdp_once_a_candidate_fits(self, monkeypatch):
        model = planning_desk("full_cross")
        hw = HardwareModel(bytes_per_gpu=budgets(model)[5])
        calls = []
        real = costmodel.estimate

        def counting(model, strat, pconfig, *args):
            rep = real(model, strat, pconfig, *args)
            calls.append((strat.tp_degree, strat.max_group, pconfig.fsdp, rep.fits))
            return rep

        monkeypatch.setattr(costmodel, "estimate", counting)
        best = plan(model, hw, "dchag", precision_bytes=8, rank_limit=64, fsdp_allowed=True)
        assert best.feasible and best.pconfig.fsdp > 1
        per_pair = {}
        for tp, max_group, fsdp, fits in calls:
            per_pair.setdefault((tp, max_group), []).append((fsdp, fits))
        for pair, tried in per_pair.items():
            fsdps = [f for f, _ in tried]
            assert fsdps == sorted(fsdps), pair
            assert [f for f, fits in tried if fits] in ([], [fsdps[-1]]), pair
        full_grid = sum(len([f for f in (1, 2, 4, 8, 16, 32, 64) if tp * f <= 64])
                        for tp, _ in per_pair)
        assert len(calls) < full_grid
