"""Parameter creation, placement and sharding.

Master parameters for a (model, strategy) pair are created in one fixed,
documented order so that every execution strategy can be seeded from the
same master set and compared gradient-for-gradient:

1. tokenizer:       tok.w [C, P*P, D], tok.b [C, D]
2. special tokens:  special.channel_id [C, D], special.pos [S, D],
                    special.meta_w [4, D], special.meta_b [D]
3. aggregation:
   - flat (serial, tp_only, dist_token): agg.flat.{q|wq,wk,wv,wo,bo|rq}
   - hierarchical (dchag): agg.slab{r}.l{level}.g{group}.<node params> for
     r in 0..tp-1, then agg.final.*
4. transformer:     vit.blk{i}.{ln1.g, ln1.b, wq, bq, wk, wv, bv,
                    wo, bo, ln2.g, ln2.b, w1, b1, w2, b2} for i in 0..L-1
5. decoder:         dec.mask [D], dec.proj.w [D, Dd], dec.proj.b [Dd],
                    dec.pos [S, Dd], dec.blk{i}.* (block layout above,
                    width Dd), dec.head.w [Dd, C*P*P], dec.head.b [C*P*P]

Weights are truncated-normal (std 0.02), biases zero, layernorm gains one.
Cross-attention aggregation nodes carry {q, wq, wk, wv, wo, bo} in the
single_query variant ({wq, wk, wv, wo, bo, rq} in full_cross); linear nodes
carry {mix [g], w [D, D], b [D]}.

One shape-only rule, `placement`, says where each parameter lives across
the tp group.  Sharding, gradient reassembly and the cost model's
per-rank parameter bytes all follow from it.  It reads the three layout
properties of `StrategyConfig` (`slabs_channels`, `splits_agg`,
`splits_vit`):

  parameter                            placement
  -----------------------------------  ----------------------------------
  tok.w, tok.b, special.channel_id     split axis 0 (channel slab) when
                                         slabs_channels
  agg.slab{r}.*                        owned by tp rank r
  agg.flat.*, agg.final.* when         wq, wk, wv, w1: split axis 1
    splits_agg; vit.blk*.* when          (column); bq, bv, b1: split axis 0;
    splits_vit (head-split layers)       wo, w2: split axis 0 (row); other
                                         leaves replicated
  everything else                      replicated

Each parameter belongs to the component its name prefix names: tok.* and
special.* to tokenize, agg.* to aggregate, vit.* to vit, dec.* to decoder.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ModelConfig, StrategyConfig, TreeSpec, build_tree_spec
from .rng import RngState


def _agg_node_specs(prefix: str, variant: str, embed: int):
    specs = []
    if variant == "single_query":
        specs.append((f"{prefix}.q", (embed,), "normal"))
    specs += [
        (f"{prefix}.wq", (embed, embed), "normal"),
        (f"{prefix}.wk", (embed, embed), "normal"),
        (f"{prefix}.wv", (embed, embed), "normal"),
        (f"{prefix}.wo", (embed, embed), "normal"),
        (f"{prefix}.bo", (embed,), "zeros"),
    ]
    if variant == "full_cross":
        specs.append((f"{prefix}.rq", (embed,), "normal"))
    return specs


def _linear_node_specs(prefix: str, group: int, embed: int):
    return [
        (f"{prefix}.mix", (group,), "normal"),
        (f"{prefix}.w", (embed, embed), "normal"),
        (f"{prefix}.b", (embed,), "zeros"),
    ]


def _node_specs(prefix: str, group: int, layer_kind: str, variant: str, embed: int):
    if layer_kind == "linear":
        return _linear_node_specs(prefix, group, embed)
    return _agg_node_specs(prefix, variant, embed)


def _tree_layout(prefix: str, tree: TreeSpec, layer_kind: str, variant: str,
                 embed: int, compact: bool):
    if not compact:
        for li, level in enumerate(tree.levels):
            for gi, group in enumerate(level):
                yield 1, _node_specs(f"{prefix}.l{li}.g{gi}", group, layer_kind, variant, embed)
        return
    runs = {}  # group size -> [first node of that size, node count]
    for li, level in enumerate(tree.levels):
        for group in set(level):
            run = runs.setdefault(group, [f"{prefix}.l{li}.g{level.index(group)}", 0])
            run[1] += level.count(group)
    for group, (node, count) in runs.items():
        yield count, _node_specs(node, group, layer_kind, variant, embed)


def _block_specs(prefix: str, width: int, mlp_ratio: int):
    hidden = mlp_ratio * width
    return [
        (f"{prefix}.ln1.g", (width,), "ones"),
        (f"{prefix}.ln1.b", (width,), "zeros"),
        (f"{prefix}.wq", (width, width), "normal"),
        (f"{prefix}.bq", (width,), "zeros"),
        # no key bias: it cancels in the softmax, leaving a dead parameter
        (f"{prefix}.wk", (width, width), "normal"),
        (f"{prefix}.wv", (width, width), "normal"),
        (f"{prefix}.bv", (width,), "zeros"),
        (f"{prefix}.wo", (width, width), "normal"),
        (f"{prefix}.bo", (width,), "zeros"),
        (f"{prefix}.ln2.g", (width,), "ones"),
        (f"{prefix}.ln2.b", (width,), "zeros"),
        (f"{prefix}.w1", (width, hidden), "normal"),
        (f"{prefix}.b1", (hidden,), "zeros"),
        (f"{prefix}.w2", (hidden, width), "normal"),
        (f"{prefix}.b2", (width,), "zeros"),
    ]


def _blocks_layout(prefix: str, depth: int, width: int, mlp_ratio: int, compact: bool):
    if compact:
        if depth:
            yield depth, _block_specs(f"{prefix}0", width, mlp_ratio)
    else:
        for i in range(depth):
            yield 1, _block_specs(f"{prefix}{i}", width, mlp_ratio)


def rank_tree(model: ModelConfig, strategy: StrategyConfig) -> TreeSpec:
    """Aggregation tree applied by each rank to its channel slab."""
    return build_tree_spec(strategy.local_channels(model), strategy.max_group)


def _layout(model: ModelConfig, strategy: StrategyConfig, compact: bool):
    """The parameter table as (count, specs) pairs, in creation order.

    With compact=False every parameter appears once, with count 1.  With
    compact=True the tree nodes of one group size, and the blocks of one
    stack, are built once, under the first member's name, with the member
    count; and only slab 0's tree is listed, as every slab's tree is alike.
    """
    c, d, s, p = model.channels, model.embed, model.seq, model.patch
    yield 1, [
        ("tok.w", (c, p * p, d), "normal"),
        ("tok.b", (c, d), "zeros"),
        ("special.channel_id", (c, d), "normal"),
        ("special.pos", (s, d), "normal"),
        ("special.meta_w", (4, d), "normal"),
        ("special.meta_b", (d,), "zeros"),
    ]
    if strategy.kind == "dchag":
        tree = rank_tree(model, strategy)
        for r in range(1 if compact else strategy.tp_degree):
            yield from _tree_layout(f"agg.slab{r}", tree, strategy.agg_layer_kind,
                                    model.agg_variant, d, compact)
        yield 1, _agg_node_specs("agg.final", model.agg_variant, d)
    else:
        yield 1, _agg_node_specs("agg.flat", model.agg_variant, d)
    yield from _blocks_layout("vit.blk", model.depth, d, model.mlp_ratio, compact)
    dd = model.decoder_dim
    yield 1, [
        ("dec.mask", (d,), "normal"),
        ("dec.proj.w", (d, dd), "normal"),
        ("dec.proj.b", (dd,), "zeros"),
        ("dec.pos", (s, dd), "normal"),
    ]
    yield from _blocks_layout("dec.blk", model.decoder_depth, dd, model.mlp_ratio, compact)
    yield 1, [
        ("dec.head.w", (dd, c * p * p), "normal"),
        ("dec.head.b", (c * p * p,), "zeros"),
    ]


def parameter_specs(model: ModelConfig, strategy: StrategyConfig):
    """Ordered (name, shape, init) triples for the master parameter set."""
    return [spec for _, specs in _layout(model, strategy, compact=False) for spec in specs]


def create_master(model: ModelConfig, strategy: StrategyConfig,
                  rng: RngState) -> dict[str, np.ndarray]:
    """Draw all parameters from `rng` in the fixed creation order."""
    master = {}
    for name, shape, init in parameter_specs(model, strategy):
        if init == "zeros":
            master[name] = np.zeros(shape)
        elif init == "ones":
            master[name] = np.ones(shape)
        else:
            master[name] = rng.truncated_normal(shape, std=0.02)
    return master


# -- placement over the tp group -----------------------------------------------


class Placement(NamedTuple):
    """Where one parameter lives across the tp group.  A split cuts
    `split_axis` into tp equal contiguous pieces, rank r holding piece r;
    an owned parameter lives on tp rank `owner` alone; with neither set the
    parameter is replicated whole on every rank."""

    split_axis: int | None = None
    owner: int | None = None


REPLICATED = Placement()
_CHANNEL_SLAB = Placement(split_axis=0)
# Head-split layers: column-split projections and their biases cut output
# features; row-split projections cut input features, leaving partial sums.
_HEAD_SPLIT = {leaf: Placement(split_axis=axis) for leaf, axis in (
    ("wq", 1), ("wk", 1), ("wv", 1), ("w1", 1),
    ("bq", 0), ("bv", 0), ("b1", 0),
    ("wo", 0), ("w2", 0))}

_CHANNEL_SLABBED = ("tok.w", "tok.b", "special.channel_id")
_COMPONENT_OF_PREFIX = {"tok": "tokenize", "special": "tokenize", "agg": "aggregate",
                        "vit": "vit", "dec": "decoder"}


def _head_split(name: str, strategy: StrategyConfig) -> bool:
    return (strategy.splits_agg and name.startswith(("agg.flat.", "agg.final."))
            or strategy.splits_vit and name.startswith("vit.blk"))


def placement(name: str, strategy: StrategyConfig) -> Placement:
    """The placement of parameter `name` under `strategy`; see the module
    docstring for the table."""
    if name in _CHANNEL_SLABBED:
        return _CHANNEL_SLAB if strategy.slabs_channels else REPLICATED
    if name.startswith("agg.slab"):
        return Placement(owner=int(name[8:name.index(".", 8)]))
    if _head_split(name, strategy):
        return _HEAD_SPLIT.get(name[name.rindex(".") + 1:], REPLICATED)
    return REPLICATED


def _component_of(name: str) -> str:
    """The model component (allocator tag) a parameter belongs to."""
    return _COMPONENT_OF_PREFIX[name[:name.index(".")]]


@functools.lru_cache(maxsize=64)
def rank_parameter_sizes(model: ModelConfig, strategy: StrategyConfig) -> tuple:
    """(component, count, elements): how many parameter tensors of each size
    tp rank 0 holds, per component.  Every rank holds as many, since channel
    slabs and their trees are alike.

    Memoized: a planner estimates one (model, strategy) pair at many
    parallel grids in a row.
    """
    tp = strategy.tp_degree
    counts = {}
    for count, specs in _layout(model, strategy, compact=True):
        component = _component_of(specs[0][0])
        for name, shape, _ in specs:
            place = placement(name, strategy)
            if place.owner not in (None, 0):
                continue
            n = math.prod(shape)
            key = component, n if place.split_axis is None else n // tp
            counts[key] = counts.get(key, 0) + count
    return tuple((component, count, n) for (component, n), count in counts.items())


def shard_for_rank(master: dict, model: ModelConfig, strategy: StrategyConfig,
                   tp_index: int) -> dict[str, np.ndarray]:
    """Per-rank parameter arrays (copies; the rank owns them).

    TP attention shards partition heads: rank r owns heads
    [r*H/tp, (r+1)*H/tp), realized as contiguous column/row slices.
    """
    tp = strategy.tp_degree
    out = {}
    for name, arr in master.items():
        place = placement(name, strategy)
        if place.owner is not None and place.owner != tp_index:
            continue
        if place.split_axis is not None:
            width = arr.shape[place.split_axis] // tp
            index = [slice(None)] * arr.ndim
            index[place.split_axis] = slice(tp_index * width, (tp_index + 1) * width)
            arr = arr[tuple(index)]
        out[name] = arr.copy()
    return out


def unshard_grads(per_rank: list[dict], master: dict, model: ModelConfig,
                  strategy: StrategyConfig) -> dict[str, np.ndarray]:
    """Reassemble per-rank gradient dicts into master layout.

    Split axes are concatenated in rank order; owned entries come from
    their owner; replicated entries are taken from rank 0 (they are
    bit-identical by construction, which equivalence tests assert
    separately).
    """
    out = {}
    for name, arr in master.items():
        place = placement(name, strategy)
        if place.owner is not None:
            out[name] = per_rank[place.owner][name]
        elif place.split_axis is not None:
            out[name] = np.concatenate([g[name] for g in per_rank], axis=place.split_axis)
        else:
            out[name] = per_rank[0][name]
        if out[name].shape != arr.shape:
            raise ConfigError(f"cannot unshard gradient for {name}: "
                              f"{out[name].shape} vs master {arr.shape}")
    return out
