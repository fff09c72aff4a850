"""Execution strategies over the simulated rank grid.

Four step flavors share one model:

* serial: one process, the flat architecture.
* tp_only: every rank tokenizes all channels redundantly; the flat
  aggregation layer and the transformer are head-split.
* dist_token: like tp_only, but each rank tokenizes only its channel slab
  and an AllGather over the channel axis rebuilds the full channel stack;
  the gather's backward is its conjugate, a ReduceScatter, which sums the
  head-split flat layer's partial gradients of the stack and hands each
  rank its slab's piece.
* dchag: each rank tokenizes its slab and reduces it with its own
  aggregation tree to a single stream; one AllGather stacks the tp
  streams; a replicated final cross-attention (agg.final) reduces them,
  and the transformer is head-split.  The gathered tensor's gradient is
  computed identically on every rank, so backward needs no collective at
  the boundary.

What a kind splits over tp is said once, by three `StrategyConfig`
properties: `slabs_channels` (a rank tokenizes only its slab),
`splits_agg` (the flat aggregation layer agg.flat of tp_only and
dist_token is head-split) and `splits_vit` (the transformer is
head-split).  Both split properties are false at tp=1, so a one-rank
parallel step runs the serial layers.  `parallel_forward_loss` is the
one forward of every parallel kind.

Every kind tokenizes and aggregates the K positions the token mask keeps
(`model.kept_rows`) alone, so dist_token's token gather, dchag's stream
gather and the flat layer's exchanges carry K positions, not B*S; the
transformer's exchanges carry every position.  A rank reads its channel
slab's pixels where they lie in the batch's images.

A layer the strategy splits is given the rank's tp group, and `None`
otherwise; the layer derives its local heads and its output's exchange
from the group (see `layers`).  How the flat layer's input enters its
split region is decided here, by one of two conjugate pairs: tp_only's
replicated stack by `layers.fanout` (identity forward, AllReduce of the
gradient backward), dist_token's slabs by `gather_into_split` (AllGather
forward, ReduceScatter backward); at tp = 1 the layer is whole, and the
one-member ReduceScatter hands on the whole gradient and moves nothing, as
the one-member AllGather does.  dchag's stream gather is `gather_shards`,
whose backward is a local slice, because the layer it feeds, agg.final, is
replicated.  Both gathers concatenate position-major stacks (`model`)
along the channel axis, 2, so each yields its aggregation layer's input as
one contiguous array.  That layer is called as
`layers.cross_attention_aggregate`, looked up at each call, so a wrapper
set on `layers` (`bench/tracer.py`) sees it.  A slab rank reads the
replicated positional embedding through `layers.fanout`, so its gradient
is summed over tp inside the backward.

One driver, `run_hybrid_step`, executes every parallel step over the
(tp, fsdp, dp) grid; `run_tp_step`, `run_dist_token_step` and
`run_dchag_step` are single-batch entry points that check the strategy
kind.  FSDP is not executed: it is modeled by `costmodel` only, and a grid
with fsdp > 1 is rejected.  The oracles `run_serial_step` and
`run_dchag_reference_step` run `model.forward_loss_reference` as one rank.
Every step checks its batches' shapes first and returns a `StepResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from . import tensor as T
from .config import ConfigError, ModelConfig, ParallelConfig, StrategyConfig
from .model import (Batch, forward_loss_reference, kept_rows, tokenize_channels, tree_aggregate,
                    trunk_loss)
from .params import rank_tree, shard_for_rank, unshard_grads
from .runtime import CommLedger, ProcessGroup, RankContext, spawn_ranks
from .tensor import Tensor
from .tracking import AllocTracker, activate, alloc_tag

DCHAG_BOUNDARY_TAG = "dchag-boundary"
TOKEN_GATHER_TAG = "token-gather"


# -- the gather tape op ----------------------------------------------------------


def gather_shards(group: ProcessGroup, x: Tensor, axis: int, tag: str) -> Tensor:
    """AllGather along `axis`; backward hands on the local slice of the
    incoming gradient, a view (no collective — valid when the gradient of
    the gathered tensor is already complete on every rank, as it is when
    a replicated layer reads it)."""
    full = group.all_gather(x.data, axis=axis, tag=tag)
    index, width = group.index, x.shape[axis]

    def back(g):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(index * width, (index + 1) * width)
        return (g[tuple(sl)],)

    return Tensor(full, _parents=(x,), _backward=back)


def gather_into_split(group: ProcessGroup, x: Tensor, axis: int, tag: str) -> Tensor:
    """AllGather along `axis` into a layer split over `group`; backward is
    its conjugate, one ReduceScatter along `axis` (Megatron's sequence
    parallelism): each rank's gradient of the gathered tensor is its split
    layer's partial, so the group's sum is formed, in group order, and
    each rank gets its own shard's piece of it."""
    full = group.all_gather(x.data, axis=axis, tag=tag)
    return Tensor(full, _parents=(x,),
                  _backward=lambda g: (group.reduce_scatter(g, axis=axis, tag=tag),))


# -- step results ---------------------------------------------------------------


@dataclass
class StepResult:
    """Every step's result, one entry per rank in rank order; a
    single-process step is one rank with an empty ledger."""

    losses: list
    rank_grads: list
    grads: dict  # reassembled in master layout
    stats: list  # one tracking.AllocStats per rank
    ledger: CommLedger

    @property
    def loss(self) -> float:
        return self.losses[0]


def _wrap_params(arrays: dict) -> dict:
    with alloc_tag("params"):
        return {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}


def _extract_grads(w: dict) -> dict:
    """Gradients as stored (never written after), zeros where none."""
    return {k: t.grad if t.grad is not None else np.zeros(t.shape) for k, t in w.items()}


# -- single-process steps ----------------------------------------------------------


def _check_batch(model: ModelConfig, batch: Batch) -> None:
    """Images [B, C, H, W] of the model, meta [B, 4] and a mask [B, S]."""
    b = batch.size if batch.images.ndim else None
    for field, want in (("images", (b, model.channels, model.image_h, model.image_w)),
                        ("meta", (b, 4)), ("mask", (b, model.seq))):
        if (got := getattr(batch, field).shape) != want:
            raise ConfigError(f"batch {field} has shape {got}, the model needs {want}")


def _single_process_step(model: ModelConfig, strategy: StrategyConfig, master: dict,
                         batch: Batch) -> StepResult:
    """`forward_loss_reference` and its backward as one rank."""
    _check_batch(model, batch)
    tracker = AllocTracker()
    with activate(tracker):
        w = _wrap_params(master)
        loss = forward_loss_reference(w, model, strategy, batch)
        T.backward(loss)
        grads = _extract_grads(w)
        return StepResult(losses=[loss.item()], rank_grads=[grads], grads=grads,
                          stats=[tracker.stats()], ledger=CommLedger())


def run_serial_step(model: ModelConfig, master: dict, batch: Batch) -> StepResult:
    """Reference step of the flat architecture."""
    model.validate()
    return _single_process_step(model, StrategyConfig(), master, batch)


def run_dchag_reference_step(model: ModelConfig, strategy: StrategyConfig,
                             master: dict, batch: Batch) -> StepResult:
    """Single-process execution of the slab-tree architecture (the oracle
    for run_dchag_step)."""
    if strategy.kind != "dchag":
        raise ConfigError(f"the dchag reference step needs kind=dchag, got {strategy.kind}")
    strategy.validate(model)
    return _single_process_step(model, strategy, master, batch)


# -- the parallel forward ------------------------------------------------------


def parallel_forward_loss(w: dict, model: ModelConfig, strategy: StrategyConfig,
                          batch: Batch, ctx: RankContext) -> Tensor:
    """Forward of every parallel kind: tokenize the kept positions of the
    rank's channel slab (or of all channels), gather dist_token's tokens or
    reduce dchag's slab with its tree and gather the streams, apply one flat
    aggregation layer, then the common trunk; each layer head-split where
    the strategy splits it."""
    tp_i = ctx.coords[0]
    cloc = strategy.local_channels(model)
    first = tp_i * cloc if strategy.slabs_channels else 0  # tp_only tokenizes every channel
    rows = kept_rows(batch.mask)
    agg_group = ctx.tp if strategy.splits_agg else None
    with alloc_tag("tokenize"):
        shares_pos = strategy.slabs_channels and strategy.tp_degree > 1
        pos = layers.fanout(ctx.tp if shares_pos else None, w["special.pos"],
                            "shared-grad.special.pos")
        tokens = tokenize_channels(batch.images[:, first:first + cloc], rows, w["tok.w"],
                                   w["special.channel_id"], pos, model.patch)
        # how the flat layer's input enters its split region: dist_token's
        # gather sums the stack's partial gradients by a ReduceScatter,
        # tp_only's fanout by an AllReduce
        if strategy.kind == "dist_token":
            tokens = gather_into_split(ctx.tp, tokens, axis=2, tag=TOKEN_GATHER_TAG)
        elif strategy.kind == "tp_only":
            tokens = layers.fanout(agg_group, tokens, "agg.flat")

    def aggregate():
        if strategy.kind != "dchag":
            return layers.cross_attention_aggregate(tokens, w, "agg.flat", model.agg_variant,
                                                    model.heads, agg_group)
        stream = tree_aggregate(tokens, rank_tree(model, strategy), w, f"agg.slab{tp_i}",
                                strategy.agg_layer_kind, model.agg_variant, model.heads)
        stack = gather_shards(ctx.tp, stream, axis=2, tag=DCHAG_BOUNDARY_TAG)
        del stream  # the gather's backward does not read it
        return layers.cross_attention_aggregate(stack, w, "agg.final", model.agg_variant,
                                                model.heads)

    return trunk_loss(w, model, batch, ctx.tp if strategy.splits_vit else None, aggregate)


# -- the parallel step driver ---------------------------------------------------


def run_hybrid_step(pconfig: ParallelConfig, model: ModelConfig,
                    strategy: StrategyConfig, master: dict,
                    batches: list, schedule_seed=None) -> StepResult:
    """One parallel step: `strategy` over the tp axis, one batch per dp
    coordinate.  The dp axis executes a real gradient AllReduce; gradients
    are averaged and each loss averages over its batch's masked positions,
    so the batches must mask equally many.  FSDP is modeled by `costmodel`
    only, so fsdp > 1 is rejected."""
    strategy.validate(model, pconfig)
    if strategy.kind == "serial":
        raise ConfigError("the serial strategy has no parallel step")
    if pconfig.fsdp > 1:
        raise ConfigError(f"fsdp={pconfig.fsdp} is not executed; costmodel.estimate models it")
    if len(batches) != pconfig.dp:
        raise ConfigError(f"need {pconfig.dp} batches, got {len(batches)}")
    for batch in batches:
        _check_batch(model, batch)
    masked = [int(b.mask.sum()) for b in batches]
    if len(set(masked)) > 1:  # the gradient average weighs every batch alike
        raise ConfigError(f"dp batches must mask equally many positions, got {masked}")

    def program(ctx: RankContext):
        tp_i, _, dp_i = ctx.coords
        w = _wrap_params(shard_for_rank(master, strategy, tp_i))
        ctx.phase = "forward"
        loss = parallel_forward_loss(w, model, strategy, batches[dp_i], ctx)
        ctx.phase = "backward"
        T.backward(loss)
        if pconfig.dp > 1:
            inv = 1.0 / pconfig.dp
            for name in sorted(w):
                t = w[name]
                if t.grad is None:
                    continue
                # the AllReduce sums in place, and a stored gradient may be
                # another's view, so it sums a copy
                grad = ctx.dp.all_reduce(t.grad.copy(), tag=f"dp-grad.{name}")
                grad *= inv
                t.grad = grad
        return loss.item(), _extract_grads(w)

    spawned = spawn_ranks(pconfig, program, schedule_seed=schedule_seed)
    losses = [r[0] for r in spawned.results]
    rank_grads = [r[1] for r in spawned.results]
    grads = unshard_grads(rank_grads[: pconfig.dchag_tp], master, strategy)
    return StepResult(losses=losses, rank_grads=rank_grads, grads=grads,
                      stats=spawned.stats, ledger=spawned.ledger)


def _single_batch_step(kind: str, pconfig, model, strategy, master, batch,
                       **kw) -> StepResult:
    if strategy.kind != kind:
        raise ConfigError(f"needs kind={kind}, got {strategy.kind}")
    return run_hybrid_step(pconfig, model, strategy, master, [batch], **kw)


def run_tp_step(pconfig, model, strategy, master, batch, **kw) -> StepResult:
    return _single_batch_step("tp_only", pconfig, model, strategy, master, batch, **kw)


def run_dist_token_step(pconfig, model, strategy, master, batch, **kw) -> StepResult:
    return _single_batch_step("dist_token", pconfig, model, strategy, master, batch, **kw)


def run_dchag_step(pconfig, model, strategy, master, batch, **kw) -> StepResult:
    return _single_batch_step("dchag", pconfig, model, strategy, master, batch, **kw)
