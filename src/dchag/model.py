"""Multi-channel ViT with channel aggregation and an MAE reconstruction head.

Forward flow: the positions the token mask keeps (`kept_rows`) are
selected first, and only they are tokenized per channel (+ channel-ID and
positional embeddings) and aggregated down to one stream; the stream is
then placed at its positions and the learned mask token at the masked
ones, the metadata token is concatenated, and the sequence of every
position runs through the transformer blocks and a small decoder whose
prediction head and loss run on the masked positions alone: they
reconstruct the pixels of every channel there.  A masked position's
stream would reach the loss only multiplied by 0, so it is never formed;
the loss is the same function of the parameters as a forward that
tokenizes and aggregates every position and then replaces the masked
streams by the mask token, as in MAE (He et al., 2022), whose encoder
drops the masked patches for the same reason.

Every activation before the transformer is position-major, since
aggregation reduces the channels at each spatial position, and the
channel gathers of the parallel strategies concatenate along the channel
axis.  Its positions are the K kept ones, flat: the lead is [1, K], so a
mask may keep a different count in each sample:

* patch rows are [K, C, P*P], gathered from the images (`patch_rows`);
* channel stacks are [1, K, C, D]: the tokens, a tree level's streams,
  and the slab streams that the final layer reduces;
* a stream is a one-channel stack, [1, K, 1, D];
* the transformer's sequence is [B, S+1, D], every position of each
  sample and the metadata token;
* predictions are [M, C*P*P], one row per masked position, holding that
  position's patch rows.

The K kept and the M masked positions are the flat indices b*S + s of the
mask, in order (`kept_rows`, `masked_rows`).

Channel aggregation comes in two architectures.  Flat: one cross-attention
layer (`layers.cross_attention_aggregate`) reduces all C channels at once
(serial, tp_only and dist_token).  Hierarchical (D-CHAG): the channels are
cut into tp equal slabs, each slab is reduced by its own tree of small
layers shaped by the strategy's `max_group` and `agg_layer_kind`, and a
shared final cross-attention reduces the tp slab streams.  At tp=1 the
hierarchical model is one tree over all channels followed by a final layer
over its single stream.  One reference forward, `forward_loss_reference`,
runs either in one process: the oracle of every parallel step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError, ModelConfig, StrategyConfig
from .layers import (N_DECODER_HEADS, cross_attention_aggregate, linear,
                     linear_mix_aggregate, transformer_block)
from .params import rank_tree
from .rng import RngState
from .runtime import ProcessGroup
from .tensor import Tensor
from .tracking import alloc_tag


@dataclass
class Batch:
    images: np.ndarray  # [B, C, H, W]
    meta: np.ndarray  # [B, 4]
    mask: np.ndarray  # [B, S] of {0.0, 1.0}; 1 marks a masked position

    @property
    def size(self) -> int:
        return self.images.shape[0]


def make_mask(model: ModelConfig, sample_ids, seed: int, step: int) -> np.ndarray:
    """Per-sample uniformly random token mask of `model.masked_count`
    positions."""
    s, n = model.seq, model.masked_count
    mask = np.zeros((len(sample_ids), s))
    root = RngState(seed)
    for i, sid in enumerate(sample_ids):
        idx = root.child("mask", step, int(sid)).permutation(s)[:n]
        mask[i, idx] = 1.0
    return mask


def _check_mask(mask: np.ndarray) -> None:
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ConfigError("a token mask holds only 0 and 1")


def masked_rows(mask: np.ndarray) -> np.ndarray:
    """The flat indices b*S + s of a [B, S] mask's masked positions, in
    order.  Raises ConfigError unless every entry is 0 or 1 and at least
    one position is masked: the loss averages over the masked positions."""
    _check_mask(mask)
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ConfigError("the token mask masks no position, so the loss has no term")
    return rows


def kept_rows(mask: np.ndarray) -> np.ndarray:
    """The flat indices b*S + s of a [B, S] mask's kept positions, in
    order: the positions tokenized and aggregated.  Raises ConfigError
    unless every entry is 0 or 1 and at least one position is kept."""
    _check_mask(mask)
    rows = np.flatnonzero(mask == 0.0)
    if rows.size == 0:
        raise ConfigError("the token mask keeps no position, so nothing is aggregated")
    return rows


def patch_rows(images: np.ndarray, rows: np.ndarray, patch: int) -> np.ndarray:
    """The pixels [len(rows), C, P, P] of the flat positions `rows` (b*S +
    s) of `images` [B, C, H, W], gathered through its view [B, C, Hp, P,
    Wp, P] into a new array; row (k, c) holds channel c's pixels of
    position k's patch, row-major within the patch."""
    b, c, h, w = images.shape
    bi, si = np.divmod(rows, (h // patch) * (w // patch))
    hi, wi = np.divmod(si, w // patch)
    return images.reshape(b, c, h // patch, patch, w // patch, patch)[bi, :, hi, :, wi, :]


def tokenize_channels(images: np.ndarray, rows: np.ndarray, tok_w: Tensor, chan_id: Tensor,
                      pos: Tensor, patch: int) -> Tensor:
    """The positions `rows` (`kept_rows`) of [B, Cs, H, W] -> the channel
    stack [1, K, Cs, D], K = len(rows).

    Each channel's P x P patches at those positions (`patch_rows`) pass
    through that channel's embedding map (a stride-P convolution there),
    read through a transposed view of the patch rows; its channel-ID row,
    the map's only bias, and each position's positional row (`take_rows`
    of `pos`) are then added into the product's buffer, which is
    channel-major, [Cs, K, D]: the stack is a transposed view of it, so a
    `split` piece of its channels folds into rows in place.
    """
    k, cs = len(rows), images.shape[1]
    x = Tensor(patch_rows(images, rows, patch).reshape(k, cs, patch * patch))
    tokens = T.matmul(T.transpose(x, (1, 0, 2)), tok_w)  # [Cs, K, D]
    d = tokens.shape[-1]
    tokens = T.add_(tokens, T.reshape(chan_id, (cs, 1, d)))
    tokens = T.add_(tokens, T.take_rows(pos, rows % pos.shape[0]))
    return T.reshape(T.transpose(tokens, (1, 0, 2)), (1, k, cs, d))


def tree_aggregate(x: Tensor, tree: tuple, w: dict, prefix: str,
                   layer_kind: str, variant: str, n_heads: int) -> Tensor:
    """Hierarchical reduction of a channel stack to a stream: each group of
    `tree`'s levels (`config.build_tree_spec`) collapses to one stream;
    every tree node has its own parameters under `{prefix}.l{level}.g{group}`."""
    if sum(tree[0]) != x.shape[2]:
        raise ConfigError(
            f"tree level 0 partitions {sum(tree[0])} channels, input has {x.shape[2]}")
    for li, level in enumerate(tree):
        outs = []
        for gi, xg in enumerate(T.split(x, 2, level)):
            node = f"{prefix}.l{li}.g{gi}"
            if layer_kind == "linear":
                outs.append(linear_mix_aggregate(xg, w, node))
            else:
                outs.append(cross_attention_aggregate(xg, w, node, variant, n_heads))
        x = outs[0] if len(outs) == 1 else T.concat(outs, axis=2)
    return x


def vit_forward(agg: Tensor, mask: np.ndarray, meta: np.ndarray, w: dict, model: ModelConfig,
                group: ProcessGroup | None = None) -> Tensor:
    """The stream [1, K, 1, D] of the positions the [B, S] token `mask`
    keeps (`kept_rows`) and the [B, 4] metadata -> [B, S+1, D] through the
    transformer (head-split over `group` when given), under the `vit` tag.

    The stream is placed at its positions, and the learned mask token
    `dec.mask` at every masked one, by one `take_rows` over the stream's K
    rows and the token, row K.

    No backward reads the stream or the placed rows, so each goes once
    read: callers pass `agg` straight from the aggregation, so this frame
    holds the only reference to it (CPython, 3.11 on, hands a call's
    arguments to the callee's frame), and the placed rows and the
    metadata token go once the sequence is concatenated, before the first
    block."""
    with alloc_tag("vit"):
        b, s = mask.shape
        k, d = agg.shape[1], agg.shape[-1]
        index = np.full(b * s, k)
        index[kept_rows(mask)] = np.arange(k)
        agg = T.take_rows(T.concat([T.reshape(agg, (k, d)),
                                    T.reshape(w["dec.mask"], (1, d))]), index)
        meta_tok = linear(Tensor(meta), w["special.meta_w"], w["special.meta_b"])
        x = T.concat([T.reshape(meta_tok, (b, 1, d)), T.reshape(agg, (b, s, d))], axis=1)
        del agg, meta_tok
        for i in range(model.depth):
            x = transformer_block(x, w, f"vit.blk{i}", model.heads, group)
        return x


def decode(vit_out: Tensor, w: dict, model: ModelConfig, rows: np.ndarray) -> Tensor:
    """[B, S+1, D] -> pixel predictions [M, C*P*P] of the masked positions
    `rows` (`masked_rows`).  The decoder blocks attend over all S
    positions; the prediction head reads only the masked rows."""
    b, s = vit_out.shape[0], model.seq
    _, z = T.split(vit_out, 1, (1, s))  # drop the metadata token
    z = linear(z, w["dec.proj.w"], w["dec.pos"])
    for i in range(model.decoder_depth):
        z = transformer_block(z, w, f"dec.blk{i}", N_DECODER_HEADS)
    z = T.take_rows(T.reshape(z, (b * s, model.decoder_dim)), rows)
    return linear(z, w["dec.head.w"], w["dec.head.b"])


def masked_mse(pred: Tensor, images: np.ndarray, rows: np.ndarray,
               model: ModelConfig) -> Tensor:
    """Mean squared reconstruction error of the predictions `pred` [M,
    C*P*P] of the masked positions `rows` (`masked_rows`).

    The target, those positions' patch rows, is never whole: it is
    gathered from `images` [B, C, H, W] (`patch_rows`), one block of rows
    (`tensor.LOSS_BLOCK`) at a time, and each block, charged while it
    lives, is subtracted in `pred`'s buffer.  `trunk_loss` passes `pred`
    straight in, and CPython (3.11 on) hands a call's arguments to the
    callee's frame, so no other name holds it.  `tensor.sum_squares` then
    sums the difference's squares with no square buffer, and saves the
    difference; the target is a constant, so the difference's gradient, 2 g
    (pred - target), is `pred`'s.
    """
    c, p = images.shape[1], model.patch
    diff = pred.data.reshape(len(rows), c, p, p)
    blk = T._block_length(len(rows), c * p * p, T.LOSS_BLOCK)
    for cut, block in T._position_blocks(diff, 3, blk):
        target = T._charged(patch_rows(images, rows[cut], p))  # [rows, C, P, P]
        block -= target
        del target  # before the next block is gathered
    return T.scale(T.sum_squares(pred), 1.0 / pred.size)


def trunk_loss(w: dict, model: ModelConfig, batch: Batch, group: ProcessGroup | None,
               aggregate) -> Tensor:
    """The trunk every forward shares: reduce the kept positions' channel
    stack to the stream by `aggregate()` (`aggregated`), place it and the
    mask token and run the transformer (head-split over `group` when given;
    `vit_forward`), then the decoder, and score the reconstruction of the
    masked positions.

    The stream goes from `aggregated` straight into `vit_forward`, which
    drops it and the placed rows before the first block."""
    rows = masked_rows(batch.mask)
    out = vit_forward(aggregated(aggregate), batch.mask, batch.meta, w, model, group)
    with alloc_tag("decoder"):
        return masked_mse(decode(out, w, model, rows), batch.images, rows, model)


def aggregated(aggregate) -> Tensor:
    """`aggregate()`, the aggregation that reduces a channel stack to the
    stream, under the `aggregate` tag; `trunk_loss` hands the stream
    straight to `vit_forward`."""
    with alloc_tag("aggregate"):
        return aggregate()


def forward_loss_reference(w: dict, model: ModelConfig, strategy: StrategyConfig,
                           batch: Batch) -> Tensor:
    """Single-process forward of `strategy`'s architecture, with no
    collectives: every channel of the kept positions tokenized, then
    dchag's slab trees (one per tp slab, at any tp) stacked in slab order
    under agg.final, or any other kind's flat layer agg.flat over all
    channels."""
    rows = kept_rows(batch.mask)
    with alloc_tag("tokenize"):
        tokens = tokenize_channels(batch.images, rows, w["tok.w"], w["special.channel_id"],
                                   w["special.pos"], model.patch)

    def aggregate():
        if strategy.kind != "dchag":
            return cross_attention_aggregate(tokens, w, "agg.flat", model.agg_variant,
                                             model.heads)
        tp, tree = strategy.tp_degree, rank_tree(model, strategy)
        streams = [tree_aggregate(slab, tree, w, f"agg.slab{r}", strategy.agg_layer_kind,
                                  model.agg_variant, model.heads)
                   for r, slab in enumerate(T.split(tokens, 2, [model.channels // tp] * tp))]
        stack = streams[0] if tp == 1 else T.concat(streams, axis=2)
        return cross_attention_aggregate(stack, w, "agg.final", model.agg_variant, model.heads)

    return trunk_loss(w, model, batch, None, aggregate)
