"""Parameter creation, placement and sharding.

Master parameters for a (model, strategy) pair are created in one fixed,
documented order so that every execution strategy can be seeded from the
same master set and compared gradient-for-gradient:

1. tokenizer:       tok.w [C, P*P, D]
2. special tokens:  special.channel_id [C, D], special.pos [S, D],
                    special.meta_w [4, D], special.meta_b [D]
3. aggregation:
   - flat (serial, tp_only, dist_token): agg.flat.<node params>
   - hierarchical (dchag): agg.slab{r}.l{level}.g{group}.<node params> for
     r in 0..tp-1, then agg.final.<node params>
4. transformer:     vit.blk{i}.{wq, bq, wk, wv, wo, bo, w1, b1, w2, b2}
                    for i in 0..L-1
5. decoder:         dec.mask [D], dec.proj.w [D, Dd], dec.pos [S, Dd],
                    dec.blk{i}.* (block layout above, width Dd),
                    dec.head.w [Dd, C*P*P], dec.head.b [C*P*P]

Weights are truncated-normal (std 0.02), biases zero.

No parameter that another one absorbs (a change to it is one to that one):
  - tokenizer bias: special.channel_id is the same per-channel constant;
  - block key bias: a per-row logit constant, it cancels in the softmax;
  - block value bias: attention rows sum to one, so bv @ wo is bo's;
  - ln1.b / ln2.b: bq's on q, cancelled on k, bo's on v, b1's on the MLP;
  - ln1.g / ln2.g: diag(g) @ W is wq's, wk's and wv's (w1's), per column
    shard under tp as well;
  - single_query's query and key projections: head h scores token x as
    (q @ wq)_h . (x @ wk)_h = x . (wk[:, head h] @ (q @ wq)_h), so the
    three are one [D, H] matrix, q, whose column h is head h's query;
    full_cross's rq, a one-head reduce, is the [D, 1] case;
  - decoder projection bias: dec.pos is the per-position constant.
Kept on purpose, as deleting them would make one block or node differ from
the rest of its stack or tree:
  - the last block's b2: dec.pos absorbs vit's (through dec.proj.w), and
    dec.head.b the decoder's (through dec.head.w);
  - a linear tree's biases below the root: a node is affine, so a child's
    bias reaches the loss only through its parent's;
  - the queries and keys of an attention node over one input (a
    one-channel slab): its one key takes the whole softmax, so they are
    inert.  The learned-query pools (`tensor.attention_pool`) give
    single_query's q, and full_cross's rq, a gradient of exactly 0;
    full_cross's wq and wk get rounding noise through the fused attention
    op.

Cross-attention aggregation nodes carry {q [D, H], wv, wo, bo} in the
single_query variant ({wq, wk, wv, wo, bo, rq [D, 1]} in full_cross);
linear nodes carry {mix [g], w [D, D], b [D]}.

One shape-only rule, `placement`, says where each parameter lives across
the tp group.  Sharding, gradient reassembly and the cost model's
per-rank parameter bytes all follow from it.  It reads the three layout
properties of `StrategyConfig` (`slabs_channels`, `splits_agg`,
`splits_vit`):

  parameter                            placement
  -----------------------------------  ----------------------------------
  tok.w, special.channel_id            split axis 0 (channel slab) when
                                         slabs_channels
  agg.slab{r}.*                        owned by tp rank r
  agg.flat.* when splits_agg;          wq, wk, wv, w1, q: split axis 1
    vit.blk*.* when splits_vit           (column, q's a head per column);
    (head-split layers)                  bq, b1: split axis 0; wo, w2:
                                         split axis 0 (row); other leaves
                                         replicated
  everything else, agg.final.* too     replicated

Each parameter belongs to the component its name prefix names: tok.* and
special.* to tokenize, agg.* to aggregate, vit.* to vit, dec.* to decoder.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ModelConfig, StrategyConfig, build_tree_spec
from .rng import RngState


def _agg_node_specs(prefix: str, variant: str, embed: int, heads: int):
    if variant == "single_query":
        specs = [(f"{prefix}.q", (embed, heads), "normal")]
    else:
        specs = [(f"{prefix}.wq", (embed, embed), "normal"),
                 (f"{prefix}.wk", (embed, embed), "normal")]
    specs += [
        (f"{prefix}.wv", (embed, embed), "normal"),
        (f"{prefix}.wo", (embed, embed), "normal"),
        (f"{prefix}.bo", (embed,), "zeros"),
    ]
    if variant == "full_cross":
        specs.append((f"{prefix}.rq", (embed, 1), "normal"))
    return specs


def _linear_node_specs(prefix: str, group: int, embed: int):
    return [
        (f"{prefix}.mix", (group,), "normal"),
        (f"{prefix}.w", (embed, embed), "normal"),
        (f"{prefix}.b", (embed,), "zeros"),
    ]


def _node_specs(prefix: str, group: int, layer_kind: str, variant: str, embed: int,
                heads: int):
    if layer_kind == "linear":
        return _linear_node_specs(prefix, group, embed)
    return _agg_node_specs(prefix, variant, embed, heads)


def _tree_layout(prefix: str, tree: tuple, layer_kind: str, variant: str,
                 embed: int, heads: int, compact: bool):
    if not compact:
        for li, level in enumerate(tree):
            for gi, group in enumerate(level):
                yield 1, _node_specs(f"{prefix}.l{li}.g{gi}", group, layer_kind, variant,
                                     embed, heads)
        return
    runs = {}  # group size -> [first node of that size, node count]
    for li, level in enumerate(tree):
        for group in set(level):
            run = runs.setdefault(group, [f"{prefix}.l{li}.g{level.index(group)}", 0])
            run[1] += level.count(group)
    for group, (node, count) in runs.items():
        yield count, _node_specs(node, group, layer_kind, variant, embed, heads)


def _block_specs(prefix: str, width: int, mlp_ratio: int):
    hidden = mlp_ratio * width
    return [
        (f"{prefix}.wq", (width, width), "normal"),
        (f"{prefix}.bq", (width,), "zeros"),
        (f"{prefix}.wk", (width, width), "normal"),
        (f"{prefix}.wv", (width, width), "normal"),
        (f"{prefix}.wo", (width, width), "normal"),
        (f"{prefix}.bo", (width,), "zeros"),
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


def rank_tree(model: ModelConfig, strategy: StrategyConfig) -> tuple[tuple[int, ...], ...]:
    """Aggregation tree applied by each rank to its channel slab: its levels
    of group sizes (`build_tree_spec`)."""
    return build_tree_spec(strategy.local_channels(model), strategy.max_group)


def _layout(model: ModelConfig, strategy: StrategyConfig, compact: bool):
    """The parameter table as (count, specs) pairs, in creation order.

    With compact=False every parameter appears once, with count 1.  With
    compact=True the tree nodes of one group size, and the blocks of one
    stack, are built once, under the first member's name, with the member
    count; and only slab 0's tree is listed, as every slab's tree is alike.
    """
    c, d, s, p, h = model.channels, model.embed, model.seq, model.patch, model.heads
    yield 1, [
        ("tok.w", (c, p * p, d), "normal"),
        ("special.channel_id", (c, d), "normal"),
        ("special.pos", (s, d), "normal"),
        ("special.meta_w", (4, d), "normal"),
        ("special.meta_b", (d,), "zeros"),
    ]
    if strategy.kind == "dchag":
        tree = rank_tree(model, strategy)
        for r in range(1 if compact else strategy.tp_degree):
            yield from _tree_layout(f"agg.slab{r}", tree, strategy.agg_layer_kind,
                                    model.agg_variant, d, h, compact)
        yield 1, _agg_node_specs("agg.final", model.agg_variant, d, h)
    else:
        yield 1, _agg_node_specs("agg.flat", model.agg_variant, d, h)
    yield from _blocks_layout("vit.blk", model.depth, d, model.mlp_ratio, compact)
    dd = model.decoder_dim
    yield 1, [
        ("dec.mask", (d,), "normal"),
        ("dec.proj.w", (d, dd), "normal"),
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
    strategy.validate(model)
    master = {}
    for name, shape, init in parameter_specs(model, strategy):
        if init == "zeros":
            master[name] = np.zeros(shape)
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
# features, and the learned query its heads; row-split projections cut input
# features, leaving partial sums.
_HEAD_SPLIT = {leaf: Placement(split_axis=axis) for leaf, axis in (
    ("wq", 1), ("wk", 1), ("wv", 1), ("w1", 1), ("q", 1),
    ("bq", 0), ("b1", 0),
    ("wo", 0), ("w2", 0))}

_CHANNEL_SLABBED = ("tok.w", "special.channel_id")
_COMPONENT_OF_PREFIX = {"tok": "tokenize", "special": "tokenize", "agg": "aggregate",
                        "vit": "vit", "dec": "decoder"}


def _head_split(name: str, strategy: StrategyConfig) -> bool:
    return (strategy.splits_agg and name.startswith("agg.flat.")
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


def shard_for_rank(master: dict, strategy: StrategyConfig,
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


def unshard_grads(per_rank: list[dict], master: dict,
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
