"""Closed-form memory / FLOP / communication estimator and rank planner.

The contract, per rank and per step:

* Activations count exactly the buffers the engine holds (views free),
  so at desk scale each component's estimate equals the allocator's
  per-tag peak.  A buffer is held while a backward closure saved it (the
  saved set: what each backward reads) or the model code still holds its
  tensor.  An op output that a sum (over tp, a bias add, a residual add)
  takes as its first operand is that sum's buffer too (`tensor.add_`), so
  a chain of such sums holds one buffer.  Every other intermediate is a
  transient, live from its op until the next op has read it, as are the
  fused attention op's projections, context and logits and the MLP op's
  hidden activation and Phi, one block of positions at a time, the pool's
  scores, fold copy, values and pooled values, and the loss's target, one
  block of rows at a time; a transient counts in the component's peak at
  the point it is live.
  Each layer's terms are written once, on the one function that returns
  its activation elements and FLOPs together.
* Tokenization and aggregation run over the K = B*(S - `masked_count`)
  positions the mask keeps, as one run of K positions ([1, K, ...]), and
  so do the token and stream gathers and the flat layer's exchanges; the
  transformer and the decoder run over every position of the B samples.
* FLOPs follow `tracking`'s rule and equal the tracker's per-tag count.
* Parameter bytes come from `params`' table and placement rule, the ones
  that shard the simulator's ranks.  Grads equal params; optimizer state
  is twice params (the moment pair).
* FSDP is modeled only: it divides the transformer blocks' params, grads
  and optimizer state by its degree, and its payload is the tp-local
  block bytes.
* Every tp and dp collective is charged through the ledger's own payload
  functions, `ring_allgather_payload` (an AllGather, and a ReduceScatter,
  which moves what an AllGather of its result does) and
  `ring_allreduce_payload`, so estimate and ledger share one byte rule per
  collective.  The flat layer's input gradient is tp_only's AllReduce of
  the whole stack, but dist_token's ReduceScatter to the rank's slab.  Its
  output is one AllReduce of K*D; a full_cross flat layer, which pools
  each rank's heads' context before projecting it (`layers`), adds its
  reduce's partial scores, K*C, all-reduced once in forward and twice in
  backward (the recompute and the probabilities' gradient), and rq's
  gradient, D, and exchanges no K*C*D stack of attended tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor
from .config import ConfigError, HardwareModel, ModelConfig, ParallelConfig, StrategyConfig
from .layers import N_DECODER_HEADS
from .params import rank_parameter_sizes, rank_tree
from .runtime import ring_allgather_payload, ring_allreduce_payload
from .tracking import COMPONENT_TAGS


@dataclass
class ComponentCost:
    params_bytes: int = 0
    activation_bytes: int = 0
    grad_bytes: int = 0
    optimizer_bytes: int = 0
    flops: int = 0

    @property
    def total_bytes(self) -> int:
        return (self.params_bytes + self.activation_bytes + self.grad_bytes
                + self.optimizer_bytes)


@dataclass
class CostReport:
    components: dict
    comm: dict  # (phase, axis) -> payload bytes per rank per step
    fits: bool

    @property
    def total_bytes(self) -> int:
        return sum(c.total_bytes for c in self.components.values())

    def activation(self, name: str) -> int:
        return self.components[name].activation_bytes

    def forward_comm(self) -> int:
        return sum(v for (ph, _), v in self.comm.items() if ph == "forward")


# -- one function per executed layer: (activation elements, FLOPs) ----------------
#
# A layer's activation elements are a pair (kept, high): what it leaves
# live, and the highest it raises the live count above its start.  A
# buffer stays live while a backward closure saved it or the model code
# still holds its tensor; the rest go as soon as the next op has read
# them.  So kept is the layer's saved set plus the outputs the code still
# holds, and high adds the transients: the fused attention op's block of
# projections, context and logits, the pool's scores, fold copy, values and
# pooled values, the MLP op's block of hidden activation and its Phi block,
# and the intermediates freed inside the layer.  A fused op's blocks are
# whole positions, so only the block, never the whole layer's inner
# activation, is live; the op's output is live beside the blocks once a
# second block runs.  A fused op that ends in an output projection hands
# its output on to the sum over tp, its bias add and any residual add,
# which all write into it: the caller counts it, once.


def _then(*parts):
    """Activation pairs run one after the other: kept elements add up, and
    the high water is the highest live point of any part."""
    kept = high = 0
    for part_kept, part_high in parts:
        high = max(high, kept + part_high)
        kept += part_kept
    return kept, high


def _stored(n):
    """n elements that stay live."""
    return n, n


def _freed(n):
    """n elements, live from an earlier part, that go."""
    return -n, 0


def _attention(n, hl, t, dl, do, run):
    """The fused attention op over `n` positions of T tokens, projected to
    width Dl and out to Do, or to the merged context itself when `do` is
    None, in runs of `run` positions (its input's last lead axis): it keeps
    its per-row log-sum-exp (n*Hl*T); its output (n*T*Do, or n*T*Dl) the
    caller counts, and x, which it also saves, is its caller's.  While it
    runs it holds the log-sum-exp and one block of positions
    (`tensor._position_blocks`): the block's q, which becomes its context
    (T*Dl per position), its k and v (2*T*Dl) and its logits and row sums
    (T*T + T per head, for some of a position's heads if one position's
    logits exceed a block).  Over several blocks the output is live
    throughout; one block, which holds every position, is projected once
    its k, v and logits have gone.  An op that returns its context forms
    each block's q in the output's rows, which are live throughout."""
    lse = n * hl * t
    blk = tensor._block_length(run, hl * t * t, tensor.ATTENTION_BLOCK)
    heads = tensor._block_length(hl, t * t, tensor.ATTENTION_BLOCK)
    q, rest = blk * t * dl, blk * (2 * t * dl + heads * (t * t + t))
    if do is None:
        return lse, lse + n * t * dl + rest
    out = n * t * do
    return lse, lse + q + (max(rest, out) if blk == n else rest + out)


def _pool(n, hl, tk, dl, fold, do, wv=True):
    """`tensor.attention_pool` over `n` positions of Tk keys, projecting its
    values to width Dl, or, when `wv` is false, pooling x itself (Dl wide),
    and projecting the pooled values to Do.  It keeps its per-(position,
    head) log-sum-exp (n*Hl); its output (n*Do) the caller counts.  Its
    scores (n*Tk*Hl) are live through the pooling: first with the `fold`
    elements of the copy its fold makes of x (none when x folds as a view),
    then with the log-sum-exp and the row sums, and at last with the
    log-sum-exp, the projected values (n*Tk*Dl, none without wv) and the
    pooled values (n*Dl), which are no fewer than the row sums.  The output
    is then live with the log-sum-exp and the pooled values."""
    lse, pooled = n * hl, n * dl
    values = n * tk * dl if wv else 0
    return lse, max(n * tk * hl + max(fold, lse + values + pooled), lse + pooled + n * do)


def _mlp(lead, rows, dh, n):
    """`tensor.mlp` over `lead` positions of `rows` rows each, all in one
    run, at hidden width dh, with n output elements, which the caller
    counts: it stores nothing.  While it runs it holds one block of
    positions' hidden activation (`tensor.MLP_BLOCK`), first with one
    block of Phi (at most PHI_BLOCK elements), then with its output, which
    is made once the first block's GELU is done; from the second block on,
    with the output and a block of Phi."""
    per = rows * dh
    blk = tensor._block_length(lead, per, tensor.MLP_BLOCK)

    def phi(k):  # the largest Phi scratch of a block of k positions
        return tensor._block_length(k * per, 1, tensor.PHI_BLOCK)

    return 0, blk * per + max(phi(blk), n + phi(min(blk, lead - blk)))


def _agg_layer(n, ck, d, heads, variant, tp, fold=0):
    """One cross-attention aggregation layer over the Ck token stacks of
    `n` positions, one run ([1, n, Ck, D]), head-split over tp; `fold` is
    the copy, if any, that `attention_pool` makes of its input stack
    (`_fold_copy`).

    Activations: single_query pools the Ck tokens with its stored learned
    query (`_pool`), projecting the values (n*Ck*D/tp) and the output
    inside the pool; no key is formed.  full_cross runs the fused attention
    op, Ck tokens against themselves, whose projections (3*Ck*D/tp per
    position, the context formed in the output's rows) and (H/tp)*Ck^2
    logits per position are transient, one block of positions at a time.
    It returns the rank's heads' merged context (n*Ck*D/tp), which the
    reduce saves; no attended token is projected (`layers`: pool(ctx wo +
    bo; rq) = pool(ctx; wo rq) wo + bo, exact up to rounding).  Then
    u = wo rq (D/tp), which the reduce saves too, and the reduce, a
    single-head pool of the context against u, whose values are the
    context itself.  Either layer's output (n*D) is the pool's projected
    output, in which the sum over tp and the bias add are formed.  The
    quadratic channel term is the full_cross logits, capped at one block:
    once one block no longer holds every position, it grows with Ck^2 only
    through the positions a block holds, down to one position.

    FLOPs: single_query's value projection, the pool's scores
    (2*n*Ck*D*H/tp) and pooling (2*n*Ck*D/tp) and its output projection
    (2*n*D*D/tp); full_cross's key, value and query projections and the
    two attention products, u's product (2*D*D/tp), the reduce's scores
    and pooling, 2*n*Ck*D/tp each, and the output projection over the n
    pooled rows (2*n*D*D/tp).
    """
    dl, hl = d / tp, heads / tp
    if variant == "single_query":
        acts = _then(_pool(n, hl, ck, dl, fold, d), _stored(n * d))
        flops = 2 * n * ck * d * dl + 2 * n * ck * (d * hl + dl) + 2 * n * d * dl
        return acts, flops
    acts = _then(_attention(n, hl, ck, dl, None, n),
                 _stored(n * ck * dl),
                 _stored(dl),
                 _pool(n, 1, ck, dl, 0, d, wv=False),
                 _stored(n * d))
    flops = (3 * 2 * n * ck * d * dl + 2 * 2 * n * ck * ck * dl
             + 2 * dl * d + 2 * 2 * n * ck * dl + 2 * n * dl * d)
    return acts, flops


def _fold_copy(n, d, g, width, level):
    """Elements of the copy that a single_query tree node's pool makes when
    it folds its input into rows (`tensor.attention_pool`): a node over g
    of its level's `width` channels reads a `split` piece of the level's
    stack of n positions.  At level 0 that stack is the rank's tokens,
    channel-major in memory ([Cs, n, D]), so any piece folds in place;
    above it, the stack is the concatenated streams of the level below,
    position-major ([1, n, width, D]), so g < width streams fold in place
    only at g = 1 (or at one position)."""
    in_place = g == width or level == 0 or g == 1 or n == 1
    return 0 if in_place else n * g * d


def _tree(n, d, heads, tree: tuple, layer_kind, variant):
    """A rank's slab tree over n positions, its nodes run in order.

    A cross_attention node is an unsplit `_agg_layer` over its group.  A
    linear node of group g keeps its mixed stream and its projection's
    product, into which the bias is added, n*D each, and costs
    2*n*D*(g+D) FLOPs (the channel mix, then the projection).  A level
    of several nodes concatenates their outputs, n*D per node, and then
    drops them.  No backward reads a node's output, so the tree's output
    stream, n*D, goes once it is gathered.

    Returns the activation pair and the FLOPs.
    """
    parts, flops = [], 0
    for li, level in enumerate(tree):
        for g in level:
            if layer_kind == "linear":
                a, f = _stored(2 * n * d), 2 * n * d * (g + d)
            else:
                fold = _fold_copy(n, d, g, sum(level), li) if variant == "single_query" else 0
                a, f = _agg_layer(n, g, d, heads, variant, 1, fold)
            parts.append(a)
            flops += f
        if len(level) > 1:
            parts += [_stored(n * len(level) * d), _freed(len(level) * n * d)]
    return _then(*parts), flops


def _block(b, t, d, heads, m, tp):
    """One transformer block at sequence length T, head-split over tp.

    Activations, in order: the first norm's 1/sigma (B*T) and output
    (B*T*D); the attention op, which reads the norm's output and keeps its
    log-sum-exp, while its q/k/v projections (3*T*D/tp per sequence, the
    context taking q's place) and (H/tp)*T^2 logits per sequence are
    transient, one block of sequences at a time; the op's output (B*T*D),
    in which the sum over tp, the bias and the residual add are formed, so
    that it becomes the mid residual; the second norm; the MLP op, which
    reads the norm's output and keeps nothing, while its hidden activation
    (T*mD/tp per sequence) and one block of Phi are transient, one block
    of sequences at a time; its output, which likewise becomes the block's
    output (B*T*D).  The mid residual and the block's input, which no
    backward reads, then go.

    FLOPs: the q/k/v/output projections, the two attention products and
    the MLP's two products, each divided over tp; the backward of the
    attention op and of the MLP op recomputes their projections, context
    and hidden activation, which adds no model FLOPs.
    """
    n = b * t * d
    acts = _then(_stored(b * t + n),
                 _attention(b, heads / tp, t, d / tp, d, b),
                 _stored(n),
                 _stored(b * t + n),
                 _mlp(b, t, m * d // tp, n),
                 _stored(n),
                 _freed(2 * n))
    flops = (4 * 2 * b * t * d * d + 2 * 2 * b * t * t * d + 2 * 2 * b * t * d * m * d) / tp
    return acts, flops


# -- the estimator ---------------------------------------------------------------


def _check_sizes(**sizes) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def estimate(model: ModelConfig, strategy: StrategyConfig,
             pconfig: ParallelConfig | None = None,
             hw: HardwareModel | None = None,
             precision_bytes: int = 8, batch: int = 1) -> CostReport:
    """Per-rank cost report for one training step.

    Configurations the simulator rejects, such as channel slabs that tp does
    not divide, raise ConfigError here too, as do a batch or precision
    below one.
    """
    hw = hw or HardwareModel()
    hw.validate()
    pconfig = pconfig or ParallelConfig(dchag_tp=strategy.tp_degree)
    strategy.validate(model, pconfig)
    _check_sizes(precision_bytes=precision_bytes, batch=batch)
    pb = precision_bytes
    b = batch
    c, d, s = model.channels, model.embed, model.seq
    pp = model.patch_pixels
    heads, m, depth = model.heads, model.mlp_ratio, model.depth
    tp = strategy.tp_degree
    fsdp, dp = pconfig.fsdp, pconfig.dp
    t = s + 1
    cloc = strategy.local_channels(model)

    comps = {name: ComponentCost() for name in COMPONENT_TAGS}
    comm: dict[tuple, float] = {}

    def add_comm(phase, axis, nbytes):
        comm[(phase, axis)] = comm.get((phase, axis), 0) + nbytes

    def cost(comp, acts, flops):  # a component's activation bytes are its high water
        comps[comp].activation_bytes = int(acts[1] * pb)
        comps[comp].flops = int(flops)

    # --- parameters, from the placement rule ---------------------------------
    sizes = rank_parameter_sizes(model, strategy)
    for comp, count, elems in sizes:
        comps[comp].params_bytes += count * elems * pb
    if fsdp > 1:
        blocks = comps["vit"].params_bytes  # tp-local transformer blocks
        comps["vit"].params_bytes = blocks // fsdp
        add_comm("forward", "fsdp", blocks * (fsdp - 1) / fsdp)
        add_comm("backward", "fsdp", blocks * (fsdp - 1) / fsdp)
    if dp > 1:  # one gradient AllReduce per parameter tensor
        add_comm("backward", "dp", sum(
            count * ring_allreduce_payload(-(-elems // fsdp) if comp == "vit" else elems,
                                           pb, dp)
            for comp, count, elems in sizes))

    # --- tokenize: only the K = B*(S - `masked_count`) kept positions.
    # Their patch rows (K*Cs*pp), gathered from the images, which are not
    # the engine's; the tokens (K*Cs*D), the embedding matmul, with the
    # channel-ID adds written into it; and the positional rows (K*D), added
    # into it and gone.  dist_token then gathers every rank's tokens and
    # drops its own; the gather's backward is the flat layer's (below).
    # FLOPs: the embedding matmul.
    k = b * (s - model.masked_count)
    tokens = k * cloc * d
    acts = _then(_stored(k * cloc * pp), _stored(tokens), _stored(k * d), _freed(k * d))
    if strategy.kind == "dist_token":
        acts = _then(acts, _stored(k * c * d), _freed(tokens))
        add_comm("forward", "tp", ring_allgather_payload(tokens * pb, tp))
    if strategy.slabs_channels and tp > 1:  # fanout of the shared positional embedding
        add_comm("backward", "tp", ring_allreduce_payload(s * d, pb, tp))
    cost("tokenize", acts, 2 * k * cloc * pp * d)

    # --- aggregate, over the K kept positions: agg.flat over the C token
    # stacks, head-split over tp; or dchag's slab tree, the gathered tp
    # streams (after which the rank's own stream goes) and agg.final over
    # them, replicated.
    acts, flops = _stored(0), 0
    ck, agg_tp = c, tp
    if strategy.kind == "dchag":
        tree_acts, flops = _tree(k, d, heads, rank_tree(model, strategy),
                                 strategy.agg_layer_kind, model.agg_variant)
        acts = _then(tree_acts, _stored(k * tp * d), _freed(k * d))
        add_comm("forward", "tp", ring_allgather_payload(k * d * pb, tp))
        ck, agg_tp = tp, 1
    layer_acts, layer_flops = _agg_layer(k, ck, d, heads, model.agg_variant, agg_tp)
    cost("aggregate", _then(acts, layer_acts), flops + layer_flops)
    if strategy.splits_agg:
        add_comm("forward", "tp", ring_allreduce_payload(k * d, pb, tp))  # output allsum
        if model.agg_variant == "full_cross":
            # the reduce's partial scores, all-reduced in forward and in the
            # backward's recompute; the probabilities' gradient; rq's fanout
            scores = ring_allreduce_payload(k * c, pb, tp)
            add_comm("forward", "tp", scores)
            add_comm("backward", "tp", 2 * scores + ring_allreduce_payload(d, pb, tp))
        # the input's gradient: dist_token's token gather reduce-scatters it
        # to the rank's slab, tp_only's fanout all-reduces the whole stack
        add_comm("backward", "tp", ring_allgather_payload(tokens * pb, tp)
                 if strategy.kind == "dist_token" else ring_allreduce_payload(k * c * d, pb, tp))

    # --- vit: the stream's K rows and the mask token, concatenated
    # ((K+1)*D), and the B*S rows placed from it, after which it goes; the
    # [B, 4] metadata input and its token (a product, into which the bias
    # is added), and the concatenated sequence, which the first block
    # drops; the placed rows and the metadata token go once it is made.
    # Then the blocks at T = S+1.  FLOPs: the metadata projection ([B, 4]
    # by [4, D]) and the blocks.
    block_acts, block_flops = _block(b, t, d, heads, m, tp)
    prologue = _then(_stored((k + 1) * d), _stored(b * s * d), _freed((k + 1) * d),
                     _stored(4 * b), _stored(b * d), _stored(b * t * d), _freed(b * s * d + b * d))
    cost("vit", _then(prologue, *[block_acts] * depth), 8 * b * d + depth * block_flops)
    if strategy.splits_vit:
        per_block = 2 * ring_allreduce_payload(b * t * d, pb, tp)  # two exchanges per phase
        add_comm("forward", "tp", depth * per_block)
        add_comm("backward", "tp", depth * per_block)

    # --- decoder: the projection to Dd, into which the positional add
    # writes, which the first block drops; blocks of N_DECODER_HEADS heads
    # over all S positions; the gather of the B*M masked rows (M =
    # `masked_count` per sample), after which the [B, S, Dd] rows it read
    # go; then the prediction, B*M*C*pp (a product, into which the bias is
    # added), in whose buffer the target (the masked positions' patch rows)
    # is subtracted one block of whole rows (`tensor.LOSS_BLOCK`) at a time,
    # each block going once subtracted; and two scalars, the sum of squares
    # and the loss.
    # FLOPs: the projection, the blocks and the head over the masked rows.
    dd, rows = model.decoder_dim, b * model.masked_count
    target = tensor._block_length(rows, c * pp, tensor.LOSS_BLOCK) * c * pp
    block_acts, block_flops = _block(b, s, dd, N_DECODER_HEADS, m, 1)
    cost("decoder",
         _then(_stored(b * s * dd), *[block_acts] * model.decoder_depth,
               _stored(rows * dd), _freed(b * s * dd),
               _stored(rows * c * pp), _stored(target), _freed(target), _stored(2)),
         2 * b * s * d * dd + model.decoder_depth * block_flops + 2 * rows * dd * c * pp)

    for cc in comps.values():
        cc.grad_bytes = cc.params_bytes
        cc.optimizer_bytes = 2 * cc.params_bytes

    report = CostReport(components=comps,
                        comm={k: int(v) for k, v in comm.items()},
                        fits=False)
    report.fits = report.total_bytes <= hw.bytes_per_gpu
    return report


# -- planner -----------------------------------------------------------------


@dataclass
class PlanResult:
    feasible: bool
    ranks: int = 0
    strategy: StrategyConfig | None = None
    pconfig: ParallelConfig | None = None
    report: CostReport | None = None


def _pow2_up_to(limit: int):
    v = 1
    while v <= limit:
        yield v
        v *= 2


def plan(model: ModelConfig, hw: HardwareModel, family: str = "dchag",
         precision_bytes: int = 2, batch: int = 1, rank_limit: int = 1024,
         fsdp_allowed: bool = False) -> PlanResult:
    """Search over the power-of-two grid for the least rank count whose
    per-rank cost fits the budget; ties break on smaller forward
    communication payload.  Layouts the simulator rejects are skipped.

    At one (tp, max_group), fsdp only grows the rank count, so the search
    raises it only until the first fitting candidate.  A dchag `max_group`
    that builds the same rank tree as a smaller one at the same tp costs
    the same, so it is skipped."""
    if family not in ("serial", "tp_only", "dchag"):
        raise ConfigError(f"unknown strategy family {family}")
    model.validate()
    hw.validate()
    _check_sizes(precision_bytes=precision_bytes, batch=batch, rank_limit=rank_limit)
    best: PlanResult | None = None
    tp_limit = min(rank_limit, model.heads)
    for tp in _pow2_up_to(tp_limit if family != "serial" else 1):
        groups = ([g for g in _pow2_up_to(256) if g >= 2]
                  if family == "dchag" else [128])
        trees = set()  # dchag trees already estimated at this tp
        for max_group in groups:
            if family == "serial":
                strat = StrategyConfig(kind="serial", tp_degree=1)
            elif family == "tp_only":
                strat = StrategyConfig(kind="tp_only", tp_degree=tp)
            else:
                strat = StrategyConfig(kind="dchag", tp_degree=tp, max_group=max_group,
                                       agg_layer_kind="linear")
                try:
                    tree = rank_tree(model, strat)
                except ConfigError:  # fewer channels than tp
                    continue
                if tree in trees:  # estimate reads max_group only through the tree
                    continue
                trees.add(tree)
            for fsdp in _pow2_up_to(rank_limit // tp if fsdp_allowed else 1):
                ranks = tp * fsdp
                pcfg = ParallelConfig(dchag_tp=tp, fsdp=fsdp, dp=1)
                try:
                    rep = estimate(model, strat, pcfg, hw, precision_bytes, batch)
                except ConfigError:  # e.g. tp does not divide the channels
                    continue
                if not rep.fits:
                    continue
                cand = PlanResult(True, ranks, strat, pcfg, rep)
                if best is None or ranks < best.ranks or (
                        ranks == best.ranks
                        and rep.forward_comm() < best.report.forward_comm()):
                    best = cand
                break
    if best is None:
        return PlanResult(False)
    return best


# -- paper-scale surrogate configurations ---------------------------------------
#
# The 7B/15B/26B transformer shapes are stated directly (embedding 4096/
# 6144/8192, 32 layers, 32 heads); the 1.7B-class surrogate uses D=2048,
# L=24 and is labeled a surrogate.  Image geometry and batch are declared
# evaluation constants, not published values.

SURROGATES = {
    "1.7B": dict(embed=2048, depth=24, heads=16),
    "7B": dict(embed=4096, depth=32, heads=32),
    "15B": dict(embed=6144, depth=32, heads=32),
    "26B": dict(embed=8192, depth=32, heads=32),
}


def surrogate_model(label: str, channels: int, agg_variant: str = "full_cross") -> ModelConfig:
    if label not in SURROGATES:
        raise ConfigError(f"unknown surrogate {label!r}, not one of {', '.join(SURROGATES)}")
    shape = SURROGATES[label]
    return ModelConfig(channels=channels, image_h=128, image_w=128, patch=16,
                       mlp_ratio=4, agg_variant=agg_variant,
                       mask_ratio=0.5, decoder_depth=2,
                       decoder_dim=512, **shape)
