"""Execution strategies over the simulated rank grid.

Four step flavors share one model:

* serial: the single-process reference.
* tp_only: every rank tokenizes all channels redundantly; the flat
  aggregation layer and the transformer are head-split.
* dist_token: like tp_only, but each rank tokenizes only its channel slab
  and an AllGather over the channel axis rebuilds the full token tensor;
  the gather's backward is a local slice.
* dchag: each rank tokenizes its slab and reduces it with its own
  aggregation tree to a single stream; one AllGather moves the tp streams;
  a shared final cross-attention reduces them.  The gathered tensor's
  gradient is computed identically on every rank, so backward needs no
  collective at the boundary.

What a kind splits over tp is said once, by three `StrategyConfig`
properties: `slabs_channels` (a rank tokenizes only its slab),
`splits_agg` (the flat aggregation layer, agg.flat or dchag's agg.final,
is head-split) and `splits_vit` (the transformer is head-split).  Both
split properties are false at tp=1, so a one-rank parallel step runs the
serial layers.  `parallel_forward_loss` is the one forward of every
parallel kind.

A head-split layer exchanges activations through two tape ops: `fanout`
(identity forward, gradient all-reduce as ReduceScatter+AllGather
backward) wherever a replicated tensor feeds a split projection, and
`allsum` (fixed-order ReduceScatter+AllGather sum forward, identity
backward) where split partial outputs merge.

One driver, `run_hybrid_step`, executes every parallel step over the
(tp, fsdp, dp) grid; `run_tp_step`, `run_dist_token_step` and
`run_dchag_step` are single-batch entry points that check the strategy
kind.  FSDP is not executed: it is modeled by `costmodel` only, and a grid
with fsdp > 1 is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError, ModelConfig, ParallelConfig, StrategyConfig
from .model import (Batch, flat_aggregate, forward_loss_dchag_reference,
                    forward_loss_serial, tokenize_channels, tree_aggregate,
                    trunk_loss)
from .params import rank_tree, shard_for_rank, unshard_grads
from .runtime import CommLedger, RankContext, spawn_ranks
from .tensor import Tensor
from .tracking import AllocStats, AllocTracker, activate, alloc_tag

DCHAG_BOUNDARY_TAG = "dchag-boundary"
TOKEN_GATHER_TAG = "token-gather"


# -- collective tape ops -------------------------------------------------------


class TpHooks:
    """Tape-level collectives bound to one rank's tp group."""

    def __init__(self, ctx: RankContext):
        self.ctx = ctx

    def fanout(self, x: Tensor, tag: str) -> Tensor:
        """Identity forward; all-reduce (as RS+AG) of the gradient backward.

        Wraps any replicated tensor consumed by a head-split projection so
        the partial input-gradients from every rank are summed.
        """
        group = self.ctx.tp

        def back(g):
            ax = g.ndim - 1
            shard = group.reduce_scatter(g, axis=ax, tag=tag)
            return (group.all_gather(shard, axis=ax, tag=tag),)

        return Tensor(x.data.view(), _parents=(x,), _backward=back)

    def allsum(self, x: Tensor, tag: str) -> Tensor:
        """Sum split partial outputs (RS+AG forward); identity backward —
        downstream of the sum every rank holds the full gradient already."""
        group = self.ctx.tp
        ax = x.ndim - 1
        shard = group.reduce_scatter(x.data, axis=ax, tag=tag)
        full = group.all_gather(shard, axis=ax, tag=tag)

        def back(g):
            return (g,)

        return Tensor(full, _parents=(x,), _backward=back)


def gather_shards(ctx: RankContext, x: Tensor, axis: int, tag: str) -> Tensor:
    """AllGather along `axis`; backward takes the local slice of the incoming
    gradient (no collective — valid when the gradient of the gathered tensor
    is already complete on every rank)."""
    group = ctx.tp
    full = group.all_gather(x.data, axis=axis, tag=tag)
    index, width = group.index, x.shape[axis]

    def back(g):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(index * width, (index + 1) * width)
        return (g[tuple(sl)].copy(),)

    return Tensor(full, _parents=(x,), _backward=back)


# -- step results ---------------------------------------------------------------


@dataclass
class StepResult:
    loss: float
    grads: dict
    stats: AllocStats


@dataclass
class ParallelStepResult:
    losses: list
    rank_grads: list
    grads: dict  # reassembled in master layout
    stats: list
    ledger: CommLedger

    @property
    def loss(self) -> float:
        return self.losses[0]


def _wrap_params(arrays: dict) -> dict:
    with alloc_tag("params"):
        return {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}


def _extract_grads(w: dict) -> dict:
    return {k: (t.grad.copy() if t.grad is not None else np.zeros(t.shape))
            for k, t in w.items()}


# -- single-process steps ----------------------------------------------------------


def _single_process_step(master: dict, forward) -> StepResult:
    tracker = AllocTracker()
    with activate(tracker):
        w = _wrap_params(master)
        loss = forward(w)
        T.backward(loss)
        return StepResult(loss=loss.item(), grads=_extract_grads(w),
                          stats=tracker.stats())


def run_serial_step(model: ModelConfig, master: dict, batch: Batch) -> StepResult:
    """Reference step; also captures per-component allocator statistics."""
    return _single_process_step(master, lambda w: forward_loss_serial(w, model, batch))


def run_dchag_reference_step(model: ModelConfig, strategy: StrategyConfig,
                             master: dict, batch: Batch) -> StepResult:
    """Single-process execution of the slab-tree architecture (the oracle
    for run_dchag_step)."""
    return _single_process_step(
        master, lambda w: forward_loss_dchag_reference(w, model, strategy, batch))


# -- the parallel forward ------------------------------------------------------


def parallel_forward_loss(w: dict, model: ModelConfig, strategy: StrategyConfig,
                          batch: Batch, ctx: RankContext) -> Tensor:
    """Forward of every parallel kind: tokenize the rank's channel slab (or
    all channels), gather dist_token's tokens or reduce dchag's slab with
    its tree and gather the streams, apply one flat aggregation layer, then
    the common trunk; each layer head-split where the strategy splits it."""
    tp_i = ctx.coords[0]
    hooks = TpHooks(ctx)

    def heads_and_hooks(split: bool):
        return (model.heads // strategy.tp_degree, hooks) if split else (model.heads, None)

    with alloc_tag("tokenize"):
        if strategy.slabs_channels:
            cloc = strategy.local_channels(model)
            images = Tensor(batch.images[:, tp_i * cloc:(tp_i + 1) * cloc].copy())
        else:
            images = Tensor(batch.images)  # redundant tokenization of all channels
        tokens = tokenize_channels(images, w["tok.w"], w["tok.b"],
                                   w["special.channel_id"], w["special.pos"],
                                   model.patch)
        if strategy.kind == "dist_token":
            tokens = gather_shards(ctx, tokens, axis=1, tag=TOKEN_GATHER_TAG)
    with alloc_tag("aggregate"):
        prefix, tag = "agg.flat", "agg"
        if strategy.kind == "dchag":
            stream = tree_aggregate(tokens, rank_tree(model, strategy), w,
                                    f"agg.slab{tp_i}", strategy.agg_layer_kind,
                                    model.agg_variant, model.heads)
            tokens = gather_shards(ctx, stream, axis=1, tag=DCHAG_BOUNDARY_TAG)
            prefix, tag = "agg.final", "agg-final"
        agg = flat_aggregate(tokens, w, prefix, model.agg_variant,
                             *heads_and_hooks(strategy.splits_agg), tag=tag)
    return trunk_loss(agg, w, model, batch, *heads_and_hooks(strategy.splits_vit))


# -- the parallel step driver ---------------------------------------------------


def _sync_shared_grads(ctx: RankContext, w: dict, strategy: StrategyConfig) -> None:
    """Complete the gradient of shared parameters consumed per channel slab.

    With slab tokenization the positional embedding is replicated but each
    rank back-propagates only its own slab's contribution; the partial
    gradients are summed here, in the gradient-preparation stage, so the
    activation backward path itself stays collective-free.
    """
    if not strategy.slabs_channels or strategy.tp_degree == 1:
        return
    ctx.phase = "optimizer"
    t = w["special.pos"]
    if t.grad is not None:
        t.grad = ctx.tp.all_reduce(t.grad, tag="shared-grad.special.pos")


def run_hybrid_step(pconfig: ParallelConfig, model: ModelConfig,
                    strategy: StrategyConfig, master: dict,
                    batches: list, schedule_seed=None) -> ParallelStepResult:
    """One parallel step: `strategy` over the tp axis, one batch per dp
    coordinate.  The dp axis executes a real gradient AllReduce; gradients
    are averaged.  FSDP is modeled by `costmodel` only, so fsdp > 1 is
    rejected."""
    pconfig.validate()
    strategy.validate(model)
    if strategy.kind == "serial":
        raise ConfigError("the serial strategy has no parallel step")
    if pconfig.dchag_tp != strategy.tp_degree:
        raise ConfigError(
            f"parallel grid tp={pconfig.dchag_tp} != strategy tp_degree={strategy.tp_degree}")
    if pconfig.fsdp > 1:
        raise ConfigError(f"fsdp={pconfig.fsdp} is not executed; costmodel.estimate models it")
    if len(batches) != pconfig.dp:
        raise ConfigError(f"need {pconfig.dp} batches, got {len(batches)}")

    def program(ctx: RankContext):
        tp_i, _, dp_i = ctx.coords
        w = _wrap_params(shard_for_rank(master, model, strategy, tp_i))
        ctx.phase = "forward"
        loss = parallel_forward_loss(w, model, strategy, batches[dp_i], ctx)
        ctx.phase = "backward"
        T.backward(loss)
        _sync_shared_grads(ctx, w, strategy)
        if pconfig.dp > 1:
            ctx.phase = "backward"
            inv = 1.0 / pconfig.dp
            for name in sorted(w):
                t = w[name]
                if t.grad is None:
                    continue
                t.grad = ctx.dp.all_reduce(t.grad, tag=f"dp-grad.{name}") * inv
        return loss.item(), _extract_grads(w)

    spawned = spawn_ranks(pconfig, program, schedule_seed=schedule_seed)
    losses = [r[0] for r in spawned.results]
    rank_grads = [r[1] for r in spawned.results]
    grads = unshard_grads(rank_grads[: pconfig.dchag_tp], master, model, strategy)
    return ParallelStepResult(losses=losses, rank_grads=rank_grads, grads=grads,
                              stats=spawned.stats, ledger=spawned.ledger)


def _single_batch_step(kind: str, pconfig, model, strategy, master, batch,
                       **kw) -> ParallelStepResult:
    if strategy.kind != kind:
        raise ConfigError(f"needs kind={kind}, got {strategy.kind}")
    return run_hybrid_step(pconfig, model, strategy, master, [batch], **kw)


def run_tp_step(pconfig, model, strategy, master, batch, **kw) -> ParallelStepResult:
    return _single_batch_step("tp_only", pconfig, model, strategy, master, batch, **kw)


def run_dist_token_step(pconfig, model, strategy, master, batch, **kw) -> ParallelStepResult:
    return _single_batch_step("dist_token", pconfig, model, strategy, master, batch, **kw)


def run_dchag_step(pconfig, model, strategy, master, batch, **kw) -> ParallelStepResult:
    return _single_batch_step("dchag", pconfig, model, strategy, master, batch, **kw)
