"""Multi-channel ViT with channel aggregation and an MAE reconstruction head.

Forward flow: per-channel patch tokenization (+ channel-ID and positional
embeddings), channel aggregation down to one stream, random masking of
spatial tokens, metadata-token concatenation, transformer blocks, and a
small decoder that reconstructs the pixels of every channel at the masked
positions.

Channel aggregation comes in two architectures.  Flat: one cross-attention
layer reduces all C channels at once (`forward_loss_serial`, and tp_only /
dist_token in `strategies`).  Hierarchical (D-CHAG): the channels are cut
into tp equal slabs, each slab is reduced by its own tree of small layers
shaped by the strategy's `max_group` and `agg_layer_kind`, and a shared
final cross-attention reduces the tp slab streams
(`forward_loss_dchag_reference`, and dchag in `strategies`).  At tp=1 the
hierarchical model is one tree over all channels followed by a final
layer over its single stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError, ModelConfig, StrategyConfig, TreeSpec
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
    """Per-sample uniformly random token mask; at least one token is always
    masked so the loss denominator never vanishes."""
    s = model.seq
    n = max(1, int(round(model.mask_ratio * s)))
    mask = np.zeros((len(sample_ids), s))
    root = RngState(seed)
    for i, sid in enumerate(sample_ids):
        idx = root.child("mask", step, int(sid)).permutation(s)[:n]
        mask[i, idx] = 1.0
    return mask


def tokenize_channels(images: Tensor, tok_w: Tensor, chan_id: Tensor,
                      pos: Tensor, patch: int) -> Tensor:
    """[B, Cs, H, W] -> [B, Cs, S, D] tokens.

    Each channel's P x P patches pass through that channel's embedding map
    (unfold + matmul, a stride-P convolution); its channel-ID row, the map's
    only bias, and the positional embedding are then added.
    """
    patches = T.unfold_patches(images, patch)  # [B, Cs, S, P*P]
    tokens = T.matmul(patches, tok_w)  # [B, Cs, S, D]
    tokens = T.add(tokens, T.reshape(chan_id, (chan_id.shape[0], 1, -1)))
    return T.add(tokens, pos)


def flat_aggregate(tokens: Tensor, w: dict, prefix: str, variant: str,
                   n_heads: int, group: ProcessGroup | None = None) -> Tensor:
    """[B, Ck, S, D] -> [B, 1, S, D]: per spatial position, reduce the Ck
    channel tokens to one vector (head-split over `group` when given)."""
    xt = T.transpose(tokens, (0, 2, 1, 3))  # [B, S, Ck, D]
    out = cross_attention_aggregate(xt, w, prefix, variant, n_heads, group)
    return T.transpose(out, (0, 2, 1, 3))


def tree_aggregate(tokens: Tensor, spec: TreeSpec, w: dict, prefix: str,
                   layer_kind: str, variant: str, n_heads: int) -> Tensor:
    """Hierarchical reduction: each group at each level collapses to one
    stream; every tree node has its own parameters under
    `{prefix}.l{level}.g{group}`."""
    if sum(spec.levels[0]) != tokens.shape[1]:
        raise ConfigError(
            f"tree level 0 partitions {sum(spec.levels[0])} channels, input has {tokens.shape[1]}")
    x = T.transpose(tokens, (0, 2, 1, 3))  # [B, S, Cloc, D]
    for li, level in enumerate(spec.levels):
        outs = []
        off = 0
        for gi, group in enumerate(level):
            xg = T.narrow(x, 2, off, group)
            off += group
            node = f"{prefix}.l{li}.g{gi}"
            if layer_kind == "linear":
                outs.append(linear_mix_aggregate(xg, w, node))
            else:
                outs.append(cross_attention_aggregate(xg, w, node, variant, n_heads))
        x = outs[0] if len(outs) == 1 else T.concat(outs, axis=2)
    return T.transpose(x, (0, 2, 1, 3))  # [B, 1, S, D]


def apply_token_mask(agg: Tensor, mask: np.ndarray, mask_token: Tensor) -> Tensor:
    """Replace masked spatial positions of the aggregated stream with the
    learned mask token."""
    b, s = mask.shape
    m = Tensor(mask.reshape(b, 1, s, 1))
    keep = Tensor(1.0 - mask.reshape(b, 1, s, 1))
    d = mask_token.shape[0]
    tok = T.reshape(mask_token, (1, 1, 1, d))
    return T.add(T.mul(agg, keep), T.mul(tok, m))


def vit_forward(agg: Tensor, meta: Tensor, w: dict, model: ModelConfig,
                group: ProcessGroup | None = None) -> Tensor:
    """[B, 1, S, D] + metadata -> [B, S+1, D] through the transformer
    (head-split over `group` when given)."""
    b, _, s, d = agg.shape
    meta_tok = linear(meta, w["special.meta_w"], w["special.meta_b"])
    meta_tok = T.reshape(meta_tok, (b, 1, d))
    x = T.concat([meta_tok, T.reshape(agg, (b, s, d))], axis=1)
    for i in range(model.depth):
        x = transformer_block(x, w, f"vit.blk{i}", model.heads, group)
    return x


def decode(vit_out: Tensor, w: dict, model: ModelConfig) -> Tensor:
    """[B, S+1, D] -> per-position pixel predictions [B, S, C*P*P]."""
    s = model.seq
    z = T.narrow(vit_out, 1, 1, s)  # drop the metadata token
    z = T.add(T.matmul(z, w["dec.proj.w"]), w["dec.pos"])
    for i in range(model.decoder_depth):
        z = transformer_block(z, w, f"dec.blk{i}", N_DECODER_HEADS)
    return linear(z, w["dec.head.w"], w["dec.head.b"])


def masked_mse(pred: Tensor, images: np.ndarray, mask: np.ndarray,
               model: ModelConfig) -> Tensor:
    """Mean squared reconstruction error over masked positions only."""
    target = T.unfold_patches(Tensor(images), model.patch)  # [B, C, S, P*P]
    target = T.transpose(target, (0, 2, 1, 3))
    b, s = mask.shape
    target = T.reshape(target, (b, s, model.channels * model.patch_pixels))
    diff = T.mul(T.sub(pred, target), Tensor(mask.reshape(b, s, 1)))
    denom = float(mask.sum()) * model.channels * model.patch_pixels
    return T.scale(T.sum_all(T.mul(diff, diff)), 1.0 / denom)


def trunk_loss(agg: Tensor, w: dict, model: ModelConfig, batch: Batch,
               group: ProcessGroup | None = None) -> Tensor:
    """The trunk every composition shares: mask the aggregated stream, run
    the transformer (head-split over `group` when given) and the decoder,
    and score the reconstruction of the masked positions."""
    with alloc_tag("vit"):
        agg = apply_token_mask(agg, batch.mask, w["dec.mask"])
        out = vit_forward(agg, Tensor(batch.meta), w, model, group)
    with alloc_tag("decoder"):
        pred = decode(out, w, model)
        return masked_mse(pred, batch.images, batch.mask, model)


# -- single-process compositions ----------------------------------------------


def forward_loss_serial(w: dict, model: ModelConfig, batch: Batch) -> Tensor:
    """Reference forward of the flat architecture."""
    with alloc_tag("tokenize"):
        tokens = tokenize_channels(Tensor(batch.images), w["tok.w"],
                                   w["special.channel_id"], w["special.pos"],
                                   model.patch)
    with alloc_tag("aggregate"):
        agg = flat_aggregate(tokens, w, "agg.flat", model.agg_variant, model.heads)
    return trunk_loss(agg, w, model, batch)


def forward_loss_dchag_reference(w: dict, model: ModelConfig,
                                 strategy: StrategyConfig, batch: Batch) -> Tensor:
    """Single-process execution of the slab-tree architecture: per-slab
    tokenization and partial aggregation, stream concatenation in slab
    order, shared final cross-attention, then the common trunk.  Valid at
    any tp, including 1 (one tree over all channels, a final layer over its
    single stream).

    This is the oracle the multi-rank execution must match: same
    parameters, same architecture, no collectives.
    """
    tp = strategy.tp_degree
    cloc = model.channels // tp
    tree = rank_tree(model, strategy)
    with alloc_tag("tokenize"):
        images = Tensor(batch.images)
    streams = []
    for r in range(tp):
        with alloc_tag("tokenize"):
            tokens = tokenize_channels(
                T.narrow(images, 1, r * cloc, cloc),
                T.narrow(w["tok.w"], 0, r * cloc, cloc),
                T.narrow(w["special.channel_id"], 0, r * cloc, cloc),
                w["special.pos"], model.patch)
        with alloc_tag("aggregate"):
            streams.append(tree_aggregate(tokens, tree, w, f"agg.slab{r}",
                                          strategy.agg_layer_kind,
                                          model.agg_variant, model.heads))
    with alloc_tag("aggregate"):
        gathered = streams[0] if tp == 1 else T.concat(streams, axis=1)
        agg = flat_aggregate(gathered, w, "agg.final", model.agg_variant, model.heads)
    return trunk_loss(agg, w, model, batch)
