"""Layer math shared by the serial model and the sharded strategies.

Every function takes plain weight tensors, so the same code serves full
weights (serial) and head-sliced weights (tensor parallel).  A head-split
layer takes the model's head count and its tp `group`, holds
`n_heads // group.size` of the heads, and tags its collectives with its
parameter prefix.  Its exchanges are Megatron's conjugate operators.
Two are here, each one AllReduce over the group: `fanout` (identity
forward, gradient all-reduce backward) where a replicated tensor feeds a
split projection or a per-rank computation (a channel slab's positional
embedding), and `allsum` (all-reduce forward, identity backward) where
split partial outputs merge, followed by the layer's output bias.  A
transformer block fans out its own input; the flat aggregation layer's
input comes in by its caller's choice, a `fanout` or a gather whose
backward reduce-scatters the gradient (`strategies.gather_into_split`).
With group=None `fanout` returns its input and `allsum` adds the bias
alone, and the math is the single-process reference.

Three fused tape ops take a layer's input and its weights, so no
projection, no attention context and no hidden activation is a tensor of
the graph.  Self-attention, in the ViT and decoder blocks and full_cross's
first stage, is `sdp_attention`, the engine's fused `attention` op: it
forms q, k, v and the context one block of positions at a time and
projects each block into its output, so it keeps neither the projections
nor the context, and backward recomputes them.  A learned query over a
position's tokens, single_query's layer and full_cross's reduce, is
`tensor.attention_pool`, which scores the tokens against the query as
stored, the key projection absorbed into it (`params`), so it forms no key
tensor; single_query's pool projects the values and its pooled output
inside it, full_cross's pools the tokens themselves.  A block's MLP is
`tensor.mlp`, which forms the hidden activation and its GELU inside it,
one block of positions at a time, and recomputes them in backward.  Each
op's output goes straight to `allsum`, so no name holds it and no closure
saved it.  The sum over the group (in place, as NCCL's
AllReduce is), the bias add and, in a transformer block, the residual
add all write into that buffer (`tensor.add_`), so a layer's output is
one buffer from the op to the residual.  `linear` likewise adds its bias
into its product.
"""

from __future__ import annotations

from . import tensor as T
from .runtime import ProcessGroup
from .tensor import Tensor

N_DECODER_HEADS = 1  # the reconstruction decoder is small; single-head attention


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x w + b, the bias added into the product's buffer."""
    return T.add_(T.matmul(x, w), b)


def fanout(group: ProcessGroup | None, x: Tensor, tag: str) -> Tensor:
    """Identity forward; one AllReduce of the gradient backward, summing the
    partial input-gradients of every rank's split projection."""
    if group is None:
        return x
    # the AllReduce sums in place, and g may be another parent's gradient
    # too (`tensor`'s gradient rule) or a read-only broadcast: sum a copy
    return Tensor(x.data.view(), _parents=(x,),
                  _backward=lambda g: (group.all_reduce(g.copy(), tag=tag),))


def allsum(group: ProcessGroup | None, x: Tensor, b: Tensor, tag: str) -> Tensor:
    """The layer's output: the split partial outputs x summed over the
    group by one in-place AllReduce, in fixed order, then its output bias
    b, both in x's buffer.  x must be an op output that no closure saved
    and no caller names (`tensor.add_`).  Identity backward for x, since
    downstream of the sum every rank holds the full gradient already."""
    if group is not None:
        x = Tensor(group.all_reduce(x.data, tag=tag), _parents=(x,),
                   _backward=lambda g: (g,))
    return T.add_(x, b)


def local_heads(n_heads: int, group: ProcessGroup | None) -> int:
    """Heads one rank holds of a layer's `n_heads`, split over `group`."""
    return n_heads if group is None else n_heads // group.size


def sdp_attention(x: Tensor, wq: Tensor, bq: Tensor | None, wk: Tensor, wv: Tensor,
                  wo: Tensor, n_heads: int) -> Tensor:
    """Scaled dot-product self-attention of x [..., Tn, D] through the
    projections wq, wk, wv [D, Dl] and the optional query bias bq, ending in
    the output projection wo [Dl, Do].

    One fused tape op (`tensor.attention`): q, k, v, the logits and the
    context are formed inside it and none outlives the forward; backward
    recomputes them.
    """
    return T.attention(x, wq, bq, wk, wv, wo, n_heads)


def transformer_block(x: Tensor, w: dict, prefix: str, n_heads: int,
                      group: ProcessGroup | None = None) -> Tensor:
    """Pre-norm block: x + attn(ln1(x)); x + mlp(ln2(x)), norms without parameters.

    Each branch is one fused op that ends in a split partial output: the
    attention op, which ends in its output projection, or the MLP op
    (`tensor.mlp`, gelu(h w1 + b1) w2); neither keeps a buffer of the layer
    beyond the log-sum-exp.  Then come the same ops: its sum over the
    group, its bias and the residual add, all three in the branch output's
    buffer."""
    def residual(x: Tensor, out: Tensor, name: str) -> Tensor:
        return T.add_(allsum(group, out, w[f"{prefix}.b{name}"], prefix), x)

    h = fanout(group, T.layernorm(x), prefix)
    x = residual(x, sdp_attention(h, w[f"{prefix}.wq"], w[f"{prefix}.bq"], w[f"{prefix}.wk"],
                                  w[f"{prefix}.wv"], w[f"{prefix}.wo"],
                                  local_heads(n_heads, group)), "o")
    h = fanout(group, T.layernorm(x), prefix)
    return residual(x, T.mlp(h, w[f"{prefix}.w1"], w[f"{prefix}.b1"], w[f"{prefix}.w2"]), "2")


def cross_attention_aggregate(x: Tensor, w: dict, prefix: str, variant: str,
                              n_heads: int, group: ProcessGroup | None = None) -> Tensor:
    """Reduce [..., Ck, D] token stacks to [..., 1, D] per position.

    single_query: a learned query `q` [D, H], one column per head with the
    query and key projections absorbed (`params`), scores the Ck tokens
    themselves in one `tensor.attention_pool`, so no key tensor is made;
    the pool projects the values by `wv` and its output by `wo` inside it.
    full_cross: the Ck tokens attend over themselves (Ck x Ck logits)
    through `wq`, `wk`, `wv` and `wo` in one fused `attention` op, with no
    query bias, then a learned query `rq` [D, 1] reduces the Ck outputs to
    one by a single-head `attention_pool` over them (scale 1/sqrt(D)), the
    outputs serving as both keys and values.  Both pools take their query
    as stored, and neither op keeps a projection or a context for backward.

    Split over `group`, x must already be in the split region: the caller
    decides how it enters, by `fanout` or by a gather whose backward sums
    the ranks' partial gradients (`strategies.gather_into_split`).
    """
    heads = local_heads(n_heads, group)
    bo = w[f"{prefix}.bo"]
    if variant == "single_query":  # [..., 1, D], replicated
        return allsum(group, T.attention_pool(x, w[f"{prefix}.q"], w[f"{prefix}.wv"],
                                              w[f"{prefix}.wo"], heads), bo, prefix)
    out = allsum(group, sdp_attention(x, w[f"{prefix}.wq"], None, w[f"{prefix}.wk"],
                                      w[f"{prefix}.wv"], w[f"{prefix}.wo"], heads),
                 bo, prefix)  # [..., Ck, D], replicated

    # full_cross: a learned query reduces the Ck attended tokens to one
    return T.attention_pool(out, w[f"{prefix}.rq"], None, None, 1)  # [..., 1, D]


def linear_mix_aggregate(x: Tensor, w: dict, prefix: str) -> Tensor:
    """Learned affine channel mix: out = (sum_g mix_g * x_g) @ W + b."""
    g = x.shape[-2]
    mix = T.reshape(w[f"{prefix}.mix"], (1, g))
    mixed = T.matmul(mix, x)  # [..., 1, D]
    return linear(mixed, w[f"{prefix}.w"], w[f"{prefix}.b"])
