"""The cost model against the simulator: per-rank parameter and gradient
bytes against the shards and gradients ranks hold, communication against
the ledger, activation bytes and FLOPs against the allocator's tracker, and
the planner against an exhaustive search."""

import functools
from collections import namedtuple
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dchag import costmodel
from dchag import tensor as T
from dchag.config import (AGG_LAYER_KINDS, STRATEGY_KINDS, ConfigError, HardwareModel,
                          ModelConfig, ParallelConfig, StrategyConfig)
from dchag.costmodel import estimate, plan
from dchag.model import forward_loss_reference
from dchag.params import create_master, rank_tree, shard_for_rank
from dchag.rng import RngState
from dchag.strategies import run_dchag_reference_step, run_hybrid_step, run_serial_step
from dchag.synthetic import make_batch
from dchag.tensor import Tensor
from dchag.tracking import COMPONENT_TAGS, AllocTracker, activate, current_tracker

from conftest import assert_grads_match

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


# dchag trees of both node kinds over the 8 channels: binary (three levels at
# tp 1), uneven groups of 3, 3 and 2, and flat (one node per rank)
DCHAG_FLAGS = tuple({"agg_layer_kind": kind, "max_group": g}
                    for kind in AGG_LAYER_KINDS for g in (2, 3, 8))


def parallel_strategies(tp):
    return [StrategyConfig(kind="tp_only", tp_degree=tp),
            StrategyConfig(kind="dist_token", tp_degree=tp),
            *(StrategyConfig(kind="dchag", tp_degree=tp, **f) for f in DCHAG_FLAGS)]


GRID = [(variant, strat) for variant in VARIANTS
        for strat in [StrategyConfig(kind="serial")]
        + [s for tp in (1, 2, 4) for s in parallel_strategies(tp)]]


def flag_suffix(strat):
    if strat.kind != "dchag":
        return []
    return (["linear"] if strat.agg_layer_kind == "linear" else []) + (
        [f"g{strat.max_group}"] if strat.max_group != 2 else [])


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


def busiest_bytes(per_rank):
    """Component -> the most bytes any rank holds, from each rank's arrays
    by parameter name."""
    out = dict.fromkeys(COMPONENT_TAGS, 0)
    for arrays in per_rank:
        held = dict.fromkeys(COMPONENT_TAGS, 0)
        for name, arr in arrays.items():
            held[COMPONENT_OF[name.split(".")[0]]] += arr.nbytes
        out = {c: max(out[c], held[c]) for c in COMPONENT_TAGS}
    return out


def shard_bytes(strat, master):
    """Component -> the most bytes any tp rank holds."""
    return busiest_bytes(shard_for_rank(master, strat, r) for r in range(strat.tp_degree))


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
        got = {c: rep.components[c].params_bytes for c in COMPONENT_TAGS}
        assert got == shard_bytes(strat, master)

    @pytest.mark.parametrize("case", GRID, ids=case_id)
    def test_grad_bytes_match_rank_grads(self, case):
        est, measured = step_costs(case, ())
        for comp in COMPONENT_TAGS:
            assert est[comp].grads == measured[comp].grads, comp

    def test_fsdp_divides_vit_and_moves_tp_local_blocks(self):
        model = desk()
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        master = create_master(model, strat, RngState(3))
        blocks = shard_bytes(strat, master)["vit"]
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


# More channels and a longer sequence (S=64): here the attention op's block
# buffers, which live only inside it, set the aggregate and vit peaks
# (`test_long_desk_peaks_inside_attention`), where on the desk above the
# tensors kept for backward do.  The full_cross aggregation walks its 128
# positions in two blocks of 64.  TALL's sequence (S=144) is long enough
# that one position's ViT logits exceed a block, and its full_cross
# aggregation ends in a ragged block (288 positions in blocks of 64).
LONG = (("channels", 16), ("image_h", 32), ("image_w", 32))
TALL = (("channels", 16), ("image_h", 48), ("image_w", 48))
# WIDE's serial MLP hidden activation (2*65*256 elements) is past one
# `tensor.PHI_BLOCK`, so the MLP op's Phi block stops growing with it.
WIDE = LONG + (("embed", 64), ("mlp_ratio", 4))
LONG_GRID = [(variant, strat) for variant in VARIANTS for strat in (
    StrategyConfig(kind="serial"), StrategyConfig(kind="tp_only", tp_degree=2),
    StrategyConfig(kind="dist_token", tp_degree=2),
    StrategyConfig(kind="dchag", tp_degree=2, max_group=2),
    StrategyConfig(kind="dchag", tp_degree=2, max_group=8, agg_layer_kind="linear"))]
# The decoder's head and loss run on the masked rows: mask_ratio 0.0 masks
# one position of each sample's S (the floor), 0.75 masks 3 of 4 on the desk
# and 48 of 64 on LONG.
MASK_GRID = [("single_query", StrategyConfig(kind="serial")),
             ("full_cross", StrategyConfig(kind="tp_only", tp_degree=2)),
             ("full_cross", StrategyConfig(kind="dchag", tp_degree=2, max_group=2))]
MASK_RATIOS = {"mask0": (("mask_ratio", 0.0),), "mask75": (("mask_ratio", 0.75),)}
ACTIVATION_CASES = ([pytest.param(case, (), id=case_id(case)) for case in GRID]
                    + [pytest.param(case, LONG, id=case_id(case) + "-long")
                       for case in LONG_GRID]
                    + [pytest.param((variant, StrategyConfig(kind="serial")), TALL,
                                    id=f"{variant}-serial-tp1-tall") for variant in VARIANTS]
                    + [pytest.param(("single_query", StrategyConfig(kind="serial")), WIDE,
                                    id="single_query-serial-tp1-wide")]
                    + [pytest.param(case, ratio, id=f"{case_id(case)}-{name}")
                       for case in MASK_GRID for name, ratio in MASK_RATIOS.items()]
                    + [pytest.param(MASK_GRID[0], LONG + MASK_RATIOS["mask75"],
                                    id=case_id(MASK_GRID[0]) + "-long-mask75")])


Costs = namedtuple("Costs", "activation flops grads")


@functools.lru_cache(maxsize=None)
def step_costs(case, geometry):
    """(estimated, measured) `Costs` per component of one grid case: bytes of
    activations, FLOPs and bytes of gradients.  Measured is the allocator's
    per-tag peak, the tracker's per-tag FLOPs and the gradients a rank
    holds, each on the busiest rank."""
    variant, strat = case
    model = desk(variant, **dict(geometry))
    res = run_step(model, strat, [make_batch(model, 5, 0, [0, 1])])
    grads = busiest_bytes(res.rank_grads)
    rep = estimate(model, strat, precision_bytes=8, batch=2)
    return ({c: Costs(rep.activation(c), rep.components[c].flops, rep.components[c].grad_bytes)
             for c in COMPONENT_TAGS},
            {c: Costs(max(st.tag_peak(c) for st in res.stats),
                      max(st.tag_flops(c) for st in res.stats),
                      grads[c]) for c in COMPONENT_TAGS})


class TestActivations:
    """The activation and FLOP estimates of every component are exact: the
    allocator's per-tag peak and the tracker's per-tag FLOPs on the busiest
    rank equal them."""

    @pytest.mark.parametrize("case, geometry", ACTIVATION_CASES)
    def test_tokenize_and_decoder_match_allocator(self, case, geometry):
        est, measured = step_costs(case, geometry)
        for comp in ("tokenize", "decoder"):
            assert est[comp].activation == measured[comp].activation, comp

    @pytest.mark.parametrize("case, geometry", ACTIVATION_CASES)
    def test_aggregate_and_vit_match_allocator(self, case, geometry):
        est, measured = step_costs(case, geometry)
        for comp in ("aggregate", "vit"):
            assert est[comp].activation == measured[comp].activation, comp

    @pytest.mark.parametrize("case, geometry", ACTIVATION_CASES)
    def test_flops_match_tracker(self, case, geometry):
        est, measured = step_costs(case, geometry)
        for comp in COMPONENT_TAGS:
            assert est[comp].flops == measured[comp].flops, comp

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_long_desk_peaks_inside_attention(self, variant):
        # what the forward leaves live is less than its peak: the peak was
        # reached while an attention op held its block buffers, of several
        # positions (LONG's aggregation) or of three heads of one (TALL's vit)
        assert (T._block_length(128, 4 * 16 * 16, T.ATTENTION_BLOCK),
                T._block_length(4, 16 * 16, T.ATTENTION_BLOCK)) == (64, 4)
        assert (T._block_length(2, 4 * 145 * 145, T.ATTENTION_BLOCK),
                T._block_length(4, 145 * 145, T.ATTENTION_BLOCK)) == (1, 3)
        for geometry, comps in ((LONG, ("aggregate", "vit")), (TALL, ("vit",))):
            model = desk(variant, **dict(geometry))
            master = create_master(model, StrategyConfig(), RngState(3))
            tracker = AllocTracker()
            with activate(tracker):
                w = {k: Tensor(v, requires_grad=True) for k, v in master.items()}
                loss = forward_loss_reference(w, model, StrategyConfig(),
                                              make_batch(model, 5, 0, [0, 1]))
                st = tracker.stats()  # `loss` holds the graph, so its tensors are live
            del loss
            for comp in comps:
                assert st.tag_peak(comp) > st.per_tag_live[comp], (geometry, comp)


@st.composite
def drawn_cases(draw):
    """A point of the desk grid beyond the fixed one: variant, channel count,
    kind, tp, tree, dp degree and the batch per dp rank."""
    variant = draw(st.sampled_from(VARIANTS))
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    tp = 1 if kind == "serial" else draw(st.sampled_from((1, 2, 4)))
    strat = StrategyConfig(kind=kind, tp_degree=tp, max_group=draw(st.integers(2, 8)),
                           agg_layer_kind=draw(st.sampled_from(AGG_LAYER_KINDS)))
    channels = (tp * draw(st.integers(1, 4)) if strat.slabs_channels
                else draw(st.integers(1, 12)))
    dp = 1 if kind == "serial" else draw(st.integers(1, 2))
    return variant, channels, strat, dp, draw(st.integers(1, 2))


@settings(max_examples=40)
@given(drawn_cases())
def test_drawn_grid_matches_allocator_and_ledger(case):
    # per component, the estimate is the busiest rank's allocator peak and
    # FLOPs; per (phase, axis), its communication is every rank's ledger
    variant, channels, strat, dp, batch = case
    model = desk(variant, channels)
    res = run_step(model, strat, [make_batch(model, 5, 0, range(i * batch, (i + 1) * batch))
                                  for i in range(dp)])
    pconfig = ParallelConfig(dchag_tp=strat.tp_degree, dp=dp)
    rep = estimate(model, strat, pconfig, precision_bytes=8, batch=batch)
    for comp in COMPONENT_TAGS:
        assert rep.activation(comp) == max(s.tag_peak(comp) for s in res.stats), comp
        assert rep.components[comp].flops == max(s.tag_flops(comp) for s in res.stats), comp
    want = {k: v for k, v in rep.comm.items() if v}
    for rank in range(pconfig.world_size):  # a serial step's ledger is empty
        assert ledger_comm(res.ledger, rank) == want, rank


@pytest.mark.parametrize("max_group, batch", [(2, 1), (2, 2), (3, 2), (8, 2)])
def test_tree_pools_charge_what_the_estimate_says(monkeypatch, max_group, batch):
    # every pool of a one-rank single_query tree charges `_pool`'s terms,
    # the copy `_fold_copy` says its fold makes included: a node over part
    # of a level folds in place on the channel-major tokens (level 0) at
    # any batch, and only over one stream above it; the final layer's one
    # stream folds in place.  The step's peaks alone do not see the copy on
    # this desk.  A pool's projected output is its caller's in the
    # estimate, and live when the pool returns.
    model = desk("single_query")
    strat = StrategyConfig(kind="dchag", tp_degree=1, max_group=max_group)
    n, d, h = batch * (model.seq - model.masked_count), model.embed, model.heads
    tree = rank_tree(model, strat)

    def pool(g, fold):
        kept, high = costmodel._pool(n, h, g, d, fold, d)
        return kept + n * d, high

    want = [pool(g, costmodel._fold_copy(n, d, g, sum(level), li))
            for li, level in enumerate(tree) for g in level] + [pool(1, 0)]
    got, real = [], T.attention_pool

    def spy(*args):
        tracker = current_tracker()
        tracker.peak_bytes = before = tracker.live_bytes
        out = real(*args)
        got.append(((tracker.live_bytes - before) // 8, (tracker.peak_bytes - before) // 8))
        return out

    monkeypatch.setattr(T, "attention_pool", spy)
    run_step(model, strat, [make_batch(model, 5, 0, range(batch))])
    assert got == want
    copies = [f for li, level in enumerate(tree) for g in level
              if (f := costmodel._fold_copy(n, d, g, sum(level), li))]
    # only the binary tree has a level above the tokens with several nodes
    assert bool(copies) == (max_group == 2)


# The paper's regime on a desk small in D and S only: 128 channels over 8 tp
# ranks, where each rank's dchag tree has two levels (two nodes of 8, then
# one of 2) and every head-split layer and MLP is divided 8 ways.
PAPER_TP = 8
PAPER_STRATEGIES = [StrategyConfig(kind="tp_only", tp_degree=PAPER_TP),
                    StrategyConfig(kind="dist_token", tp_degree=PAPER_TP),
                    *(StrategyConfig(kind="dchag", tp_degree=PAPER_TP, max_group=8,
                                     agg_layer_kind=kind) for kind in AGG_LAYER_KINDS)]


def paper_desk():
    return desk("full_cross", 128, embed=32, heads=32, depth=1)


@functools.lru_cache(maxsize=None)
def paper_oracle(strat):
    """The oracle step on the paper desk: the single-process slab tree of a
    dchag `strat`, else the serial step (tp_only and dist_token share the
    serial master)."""
    model = paper_desk()
    batch = make_batch(model, 5, 0, [0])
    if strat.kind == "dchag":
        return run_dchag_reference_step(model, strat, create_master(model, strat, RngState(3)),
                                        batch)
    return run_step(model, StrategyConfig(kind="serial"), [batch])


@pytest.mark.parametrize("strat", PAPER_STRATEGIES, ids=lambda s: "-".join(
    [s.kind, *flag_suffix(s)]))
def test_paper_channel_count_matches_allocator_ledger_and_oracle(strat):
    model = paper_desk()
    if strat.kind == "dchag":
        assert rank_tree(model, strat) == ((8, 8), (2,))
    res = run_step(model, strat, [make_batch(model, 5, 0, [0])])
    rep = estimate(model, strat, precision_bytes=8)
    for comp in COMPONENT_TAGS:
        assert rep.activation(comp) == max(s.tag_peak(comp) for s in res.stats), comp
        assert rep.components[comp].flops == max(s.tag_flops(comp) for s in res.stats), comp
    want = {k: v for k, v in rep.comm.items() if v}
    for rank in range(PAPER_TP):
        assert ledger_comm(res.ledger, rank) == want, rank
    oracle = paper_oracle(strat if strat.kind == "dchag" else StrategyConfig(kind="serial"))
    for loss in res.losses:
        assert abs(loss - oracle.loss) <= 1e-10 * abs(oracle.loss)
    assert_grads_match(oracle.grads, res.grads)


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

    def test_grid_tp_mismatch_rejected(self):
        strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        with pytest.raises(ConfigError, match="tp"):
            estimate(desk(), strat, ParallelConfig(dchag_tp=4))

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError, match="agg_variant"):
            estimate(replace(desk(), agg_variant="bogus"), StrategyConfig())

    @pytest.mark.parametrize("field, value", [
        ("patch", 0), ("heads", 0), ("embed", 0), ("image_h", 0), ("patch", -4),
        ("heads", -4), ("depth", -1), ("decoder_depth", -1), ("mlp_ratio", 0),
        ("decoder_dim", 0)])
    def test_impossible_size_rejected(self, field, value):
        # no modulo check divides by it, and no cost is estimated from it
        with pytest.raises(ConfigError, match=f"^{field} "):
            estimate(replace(desk(), **{field: value}), StrategyConfig())

    @pytest.mark.parametrize("arg, value", [
        ("batch", 0), ("batch", -2), ("precision_bytes", 0), ("precision_bytes", -8)])
    def test_impossible_batch_or_precision_rejected(self, arg, value):
        with pytest.raises(ConfigError, match=f"^{arg} "):
            estimate(desk(), StrategyConfig(), **{arg: value})
        with pytest.raises(ConfigError, match=f"^{arg} "):
            plan(desk(), HardwareModel(), **{arg: value})

    @pytest.mark.parametrize("rank_limit", [0, -3])
    def test_impossible_rank_limit_rejected(self, rank_limit):
        with pytest.raises(ConfigError, match="^rank_limit "):
            plan(desk(), HardwareModel(), rank_limit=rank_limit)

    def test_unknown_surrogate_rejected(self):
        with pytest.raises(ConfigError, match="8B.*1.7B, 7B, 15B, 26B"):
            costmodel.surrogate_model("8B", 128)

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


def all_candidates(model, hw, family, rank_limit, precision_bytes=8):
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
                    rep = estimate(model, strat, pconfig, hw, precision_bytes)
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

    @pytest.mark.parametrize("label, channels, variant", [
        ("1.7B", 128, "full_cross"), ("7B", 1024, "full_cross"), ("15B", 512, "single_query")])
    def test_matches_exhaustive_search_at_paper_scale(self, monkeypatch, label, channels,
                                                      variant):
        # the benchmark's planning settings; the dchag search estimates each
        # rank tree once per (tp, fsdp), however many max_group values build it
        model = costmodel.surrogate_model(label, channels, variant)
        hw = HardwareModel()
        real, trees = costmodel.estimate, []

        def recording(model, strat, pconfig, *args):
            trees.append((strat.tp_degree, rank_tree(model, strat), pconfig.fsdp))
            return real(model, strat, pconfig, *args)

        for family in ("serial", "tp_only", "dchag"):
            fits = all_candidates(model, hw, family, rank_limit=1024, precision_bytes=2)
            trees.clear()
            with monkeypatch.context() as mp:
                mp.setattr(costmodel, "estimate", recording)
                got = plan(model, hw, family, precision_bytes=2, rank_limit=1024,
                           fsdp_allowed=True)
            strat, pconfig, rep = min(
                fits, key=lambda c: (c[1].world_size, c[2].forward_comm()))
            assert (got.strategy, got.pconfig, got.report) == (strat, pconfig, rep), family
            if family == "dchag":
                assert len(set(trees)) == len(trees)

    def test_stops_raising_fsdp_once_a_candidate_fits(self, monkeypatch):
        # the budget of the leanest fsdp=2 layout, which no fsdp=1 layout meets
        model = planning_desk("full_cross")
        totals = {}
        for _, pconfig, rep in all_candidates(model, HardwareModel(bytes_per_gpu=2 ** 62),
                                              "dchag", rank_limit=64):
            totals.setdefault(pconfig.fsdp, []).append(rep.total_bytes)
        hw = HardwareModel(bytes_per_gpu=min(totals[2]))
        assert hw.bytes_per_gpu < min(totals[1])
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
