"""Closed-form memory / FLOP / communication estimator and rank planner.

Activation accounting enumerates the tensors the engine actually
materializes (stored-for-backward, no checkpointing, views free), so the
estimate can be validated against the allocator at desk scale and then
evaluated at configurations far beyond it.  Key structural terms, per rank
and per step, in elements (multiply by precision bytes):

* tokenization: input slab B*Cs*S*pp, patch rows B*Cs*S*pp, and four
  token-sized tensors B*Cs*S*D (embedding matmul plus bias / channel-ID /
  positional adds); distributed tokenization adds the gathered full token
  tensor B*C*S*D.
* flat cross-attention aggregation over Ck token stacks: k/v (and q for
  full_cross) at width D/tp, the single_query learned-query projection
  (one row of width D/tp), three logit-sized tensors (raw, scaled,
  softmax) B*S*(H/tp)*Ck^2 for full_cross or B*S*(H/tp)*Ck for
  single_query, context at D/tp (plus its head-merge copy for full_cross
  when a rank holds several heads), and for full_cross ~3.2 full-width
  B*S*Ck*D tensors (summed output, bias add, reduce stage) that tensor
  parallelism does NOT divide — the quadratic channel term is the
  full_cross logits.
* aggregation is one such flat layer, over Ck = C token stacks, or for
  dchag over Ck = tp gathered streams after the rank's slab tree: the
  flat-layer formula per tree node with Ck = group size, plus one
  level-output concat per level (linear nodes cost ~3 stream-sized
  tensors B*S*D each), and the gathered streams.
* transformer block at sequence T=S+1: ~8 full-width B*T*D tensors
  (norms, residuals, summed outputs), ~6 split-width B*T*D/tp, three
  attention-logit tensors B*(H/tp)*T^2, three MLP tensors B*T*mD/tp; the
  blocks follow the masked stream, the [B, 4] metadata input and its
  token, and the concatenated sequence.
* decoder: projection/pos at Dd, decoder blocks via the block formula,
  then six B*S*C*pp tensors (prediction-head matmul and bias add, the
  reordered target, the difference, the masked difference and its square)
  and the two scalar loss tensors (sum and mean).

Parameter bytes per rank and component come from `params`: the parameter
table and its placement rule, the same ones that shard the simulator's
ranks.  Grads = params, optimizer = 2x params (moment pair), all at
`precision_bytes`.  FSDP is modeled here only: it divides the transformer
blocks' params/grads/optimizer by the fsdp degree, and its payload is the
tp-local block bytes.  Communication uses ring-algorithm byte counts
matching the simulator's ledger formulas.  Which layers are head-split is
read from the strategy's `splits_agg` and `splits_vit`, as in the
simulator; the head-split aggregation layer (agg.flat, or dchag's
agg.final) pays the output sum forward, the input fanout backward and, for
single_query, the fanout of the learned query.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import (ConfigError, HardwareModel, ModelConfig, ParallelConfig,
                     StrategyConfig, TreeSpec)
from .params import rank_parameter_sizes, rank_tree
from .runtime import ring_allreduce_payload

COMPONENTS = ("tokenize", "aggregate", "vit", "decoder")


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
    bytes_per_gpu_budget: int
    fits: bool

    @property
    def total_bytes(self) -> int:
        return sum(c.total_bytes for c in self.components.values())

    def activation(self, name: str) -> int:
        return self.components[name].activation_bytes

    def forward_comm(self) -> int:
        return sum(v for (ph, _), v in self.comm.items() if ph == "forward")


# -- activation element counts (mirroring the executed graph) -------------------


def _attention_agg_acts(b, s, ck, d, heads, variant, tp):
    """Tensors one aggregation layer stores: key/value (query too for
    full_cross) at split width, three logit-sized tensors, context (+head
    merge copy when several local heads and several tokens), and the
    full-width output chain (the summed output gains one tensor under
    tensor parallelism)."""
    dl = d / tp
    hl = heads / tp
    out_chain = 2 + (1 if tp > 1 else 0)
    if variant == "single_query":
        kv = 2 * b * s * ck * dl
        logits = 3 * b * s * hl * ck
        ctx = b * s * dl  # single token: the head merge aliases
        return kv + logits + ctx + out_chain * b * s * d + dl  # dl: query projection
    qkv = 3 * b * s * ck * dl
    logits = 3 * b * s * hl * ck * ck
    ctx = (2 if hl > 1 and ck > 1 else 1) * b * s * ck * dl
    full = out_chain * b * s * ck * d
    reduce_stage = 3 * b * s * ck + b * s * d
    return qkv + logits + ctx + full + reduce_stage


def _linear_node_acts(b, s, d):
    return 3 * b * s * d  # mixed stream, matmul out, bias add


def _tree_acts(b, s, d, heads, tree: TreeSpec, layer_kind, variant):
    total = 0.0
    for level in tree.levels:
        for group in level:
            if layer_kind == "linear":
                total += _linear_node_acts(b, s, d)
            else:
                total += _attention_agg_acts(b, s, group, d, heads, variant, 1)
        if len(level) > 1:
            total += b * s * len(level) * d  # level-output concatenation
    return total


def _block_acts(b, t, d, heads, m, tp):
    """One transformer block: full-width tensors (norms, output chains,
    residuals; two more under tensor parallelism), split-width q/k/v and
    context (merge copy only with several local heads), attention logits,
    and the MLP hidden chain."""
    hl = heads / tp
    full = (8 + (2 if tp > 1 else 0)) * b * t * d
    split = (6 + (1 if hl > 1 else 0)) * b * t * d / tp
    logits = 3 * b * hl * t * t
    mlp = 3 * b * t * m * d / tp
    return full + split + logits + mlp


def _attention_agg_flops(b, s, ck, d, heads, variant, tp):
    proj = (2 if variant == "single_query" else 3) * 2 * b * s * ck * d * d / tp
    att = 2 * 2 * b * s * (heads / tp) * (ck * ck if variant == "full_cross" else ck) * (d / heads)
    out = 2 * b * s * (ck if variant == "full_cross" else 1) * d * d / tp
    return proj + att + out


def _block_flops(b, t, d, m, tp):
    qkv_out = 4 * 2 * b * t * d * d / tp
    att = 2 * 2 * b * t * t * d / tp
    mlp = 2 * 2 * b * t * d * m * d / tp
    return qkv_out + att + mlp


# -- the estimator ---------------------------------------------------------------


def estimate(model: ModelConfig, strategy: StrategyConfig,
             pconfig: ParallelConfig | None = None,
             hw: HardwareModel | None = None,
             precision_bytes: int = 8, batch: int = 1) -> CostReport:
    """Per-rank cost report for one training step.

    Configurations the simulator rejects, such as channel slabs that tp does
    not divide, raise ConfigError here too.
    """
    model.validate()
    strategy.validate(model)
    hw = hw or HardwareModel()
    hw.validate()
    pconfig = pconfig or ParallelConfig(dchag_tp=strategy.tp_degree)
    pconfig.validate()
    pb = precision_bytes
    b = batch
    c, d, s = model.channels, model.embed, model.seq
    pp = model.patch_pixels
    heads, m, depth = model.heads, model.mlp_ratio, model.depth
    tp = strategy.tp_degree
    fsdp, dp = pconfig.fsdp, pconfig.dp
    t = s + 1
    cloc = strategy.local_channels(model)
    agg_tp = tp if strategy.splits_agg else 1
    vit_tp = tp if strategy.splits_vit else 1

    comps = {name: ComponentCost() for name in COMPONENTS}
    comm: dict[tuple, float] = {}

    def add_comm(phase, axis, nbytes):
        comm[(phase, axis)] = comm.get((phase, axis), 0) + nbytes

    def add_head_split_agg_comm(ck):
        """One aggregation layer over ck token stacks, head-split over tp."""
        width = (ck if model.agg_variant == "full_cross" else 1) * b * s * d
        add_comm("forward", "tp", 2 * width * pb * (tp - 1) / tp)  # output allsum
        add_comm("backward", "tp", 2 * b * s * ck * d * pb * (tp - 1) / tp)  # input fanout
        if model.agg_variant == "single_query":  # fanout of the learned query
            add_comm("backward", "tp", 2 * d * pb * (tp - 1) / tp)

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
    if strategy.slabs_channels and tp > 1:
        add_comm("optimizer", "tp", ring_allreduce_payload(s * d, pb, tp))  # shared pos-embed grad

    # --- tokenize ---------------------------------------------------------
    tok = comps["tokenize"]
    acts = b * cloc * s * pp * 2 + 4 * b * cloc * s * d  # input+patches, token chain
    if strategy.kind == "dist_token":
        acts += b * c * s * d  # gathered full token tensor
        add_comm("forward", "tp", b * cloc * s * d * pb * (tp - 1))
    tok.activation_bytes = int(acts * pb)
    tok.flops = int(2 * b * cloc * s * pp * d + 3 * b * cloc * s * d)

    # --- aggregate --------------------------------------------------------
    agg = comps["aggregate"]
    acts = flops = 0
    ck = c  # token stacks the flat layer reduces
    if strategy.kind == "dchag":
        tree = rank_tree(model, strategy)
        acts += _tree_acts(b, s, d, heads, tree, strategy.agg_layer_kind, model.agg_variant)
        acts += b * tp * s * d  # gathered streams
        add_comm("forward", "tp", b * s * d * pb * (tp - 1))  # stream gather
        flops += sum(
            (_attention_agg_flops(b, s, g, d, heads, model.agg_variant, 1)
             if strategy.agg_layer_kind == "cross_attention"
             else 2 * b * s * d * (g + d))
            for level in tree.levels for g in level)
        ck = tp
    acts += _attention_agg_acts(b, s, ck, d, heads, model.agg_variant, agg_tp)
    flops += _attention_agg_flops(b, s, ck, d, heads, model.agg_variant, agg_tp)
    if strategy.splits_agg:
        add_head_split_agg_comm(ck)
    agg.activation_bytes = int(acts * pb)
    agg.flops = int(flops)

    # --- transformer blocks -------------------------------------------------
    vit = comps["vit"]
    acts = depth * _block_acts(b, t, d, heads, m, vit_tp)
    acts += b * t * d + 3 * b * s * d + b * s + 4 * b + 2 * b * d  # concat, mask, metadata
    vit.activation_bytes = int(acts * pb)
    vit.flops = int(depth * _block_flops(b, t, d, m, vit_tp))
    if strategy.splits_vit:
        per_block = 4 * b * t * d * pb * (tp - 1) / tp  # two sums, RS+AG each
        add_comm("forward", "tp", depth * per_block)
        add_comm("backward", "tp", depth * per_block)

    # --- decoder -------------------------------------------------------------
    dec = comps["decoder"]
    dd = model.decoder_dim
    acts = 3 * b * s * dd + model.decoder_depth * _block_acts(b, s, dd, 1, m, 1)
    acts += 6 * b * s * c * pp + 2  # prediction head, target/masked-diff chain, loss
    dec.activation_bytes = int(acts * pb)
    dec.flops = int(2 * b * s * d * dd + model.decoder_depth * _block_flops(b, s, dd, m, 1)
                    + 2 * b * s * dd * c * pp)

    # grads and optimizer state per component
    for cc in comps.values():
        cc.grad_bytes = cc.params_bytes
        cc.optimizer_bytes = 2 * cc.params_bytes

    report = CostReport(components=comps,
                        comm={k: int(v) for k, v in comm.items()},
                        bytes_per_gpu_budget=hw.bytes_per_gpu,
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
    reason: str = ""


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
    raises it only until the first fitting candidate."""
    if family not in ("serial", "tp_only", "dchag"):
        raise ConfigError(f"unknown strategy family {family}")
    model.validate()
    hw.validate()
    best: PlanResult | None = None
    tp_limit = min(rank_limit, model.heads)
    for tp in _pow2_up_to(tp_limit if family != "serial" else 1):
        groups = ([g for g in _pow2_up_to(256) if g >= 2]
                  if family == "dchag" else [128])
        for max_group in groups:
            for fsdp in _pow2_up_to(rank_limit // tp if fsdp_allowed else 1):
                ranks = tp * fsdp
                if family == "serial":
                    strat = StrategyConfig(kind="serial", tp_degree=1)
                elif family == "tp_only":
                    strat = StrategyConfig(kind="tp_only", tp_degree=tp)
                else:
                    strat = StrategyConfig(kind="dchag", tp_degree=tp,
                                           max_group=max_group,
                                           agg_layer_kind="linear")
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
        return PlanResult(False, reason=f"infeasible within rank limit {rank_limit}")
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
    shape = SURROGATES[label]
    return ModelConfig(channels=channels, image_h=128, image_w=128, patch=16,
                       mlp_ratio=4, agg_variant=agg_variant,
                       mask_ratio=0.5, decoder_depth=2,
                       decoder_dim=512, **shape)
