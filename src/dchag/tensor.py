"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design points that later modules rely on:

* a `Tensor` is its data and, when it requires grad, a `Node`; the tape
  links nodes, never tensors, and a backward closure captures only the
  arrays and plain values its backward reads, never a `Tensor` or a node.
  So an intermediate's buffer is freed as soon as the model code drops its
  `Tensor`, unless a closure saved the array, as in PyTorch's autograd
  (Paszke et al., 2019);
* every op output is a fresh `Tensor`; ops that are pure index
  rearrangements (reshape/transpose/split) wrap numpy views, `add_`
  writes into its first operand's buffer, and everything else makes a
  new buffer.  `add_` is for a first operand that is an op output which
  no backward closure saved and no caller still names:
  its old values are then read by nothing, so results and gradients are
  the out-of-place op's.  PyTorch checks that condition with a version
  counter at backward time; here a test does, over every step's graph.
  `split`'s pieces share one node, whose backward concatenates their
  gradients.  Every buffer is charged to the allocation tracker once, by
  one rule (`tracking.AllocTracker.charge`): an op output, and every
  buffer a fused op holds outside a `Tensor` (the attention op's
  projection and logit blocks and log-sum-exp, the pool's scores, values,
  pooled values, log-sum-exp and fold copy, the MLP's hidden block and Phi
  block, `layernorm`'s 1/sigma), from its allocation until its memory is
  freed; a view of charged memory adds nothing; a leaf's memory, which its
  caller owns, for as long as the engine holds a view of it;
* three fused ops take a layer's input and its weights, output projection
  included, and hold no intermediate of the layer for backward, which
  recomputes what the forward formed and freed, as selective
  recomputation does (Korthikanti et al., 2022).  Their forwards hold one
  block of the layer's inner activation at a time, never all of it.
  `attention`'s and `mlp`'s backwards walk the same blocks, as
  FlashAttention-2 does (Dao, 2023), and hold one block of what they
  recompute and of the layer's inner gradients: only x's gradient and the
  weight gradients are whole.  `attention_pool`'s backward forms its
  scores and values whole, as its forward does.
  `attention` is self-attention: the ViT and decoder blocks and
  full_cross's first aggregation stage.  It holds x, the four weights (and
  the query bias) and the per-row log-sum-exp; one block of positions' q,
  k and v, the logits and the context, which takes q's place, live only
  while it runs.  `attention_pool` is a
  learned query per head over a position's tokens, taken as stored:
  single_query's aggregation layer, which projects the values and the
  output, and full_cross's reduce, whose values are its input and whose
  output is the pooled values.  It holds x, the query q, the value and
  output weights and the log-sum-exp;
  the scores, the values and the pooled values live only while it runs.
  `mlp` is a block's gelu(x w1 + b1) w2.  It holds x and the three
  weights; one block of positions' hidden activation and one block of Phi
  live only while it runs.  None holds its output, which the next op
  reads or, as a sum's first operand, takes over (`add_`);
* FLOPs follow `tracking`'s rule: only `matmul`, `attention`,
  `attention_pool` and `mlp` count any, each once, in forward: a
  recompute in backward adds none, as model FLOPs count no recomputation;
* every blocked pass (the fused ops', GELU's and `model.masked_mse`'s)
  walks its input's positions with `_position_blocks`, in blocks that
  `_block_length` sizes against one budget each (`ATTENTION_BLOCK`,
  `PHI_BLOCK`, `MLP_BLOCK`, `LOSS_BLOCK`); outputs and input gradients do
  not depend on the block size, only the transient does, while the fused
  backwards' weight and bias gradients, summed block by block, round
  differently at each block size;
* GELU's Phi(x) is numpy alone (`normal_cdf`), after Cephes' ndtr.c.  For
  |x| <= sqrt2 it is one rational in x^2, erf's with the 1/2 and 1/sqrt2
  folded into its coefficients, evaluated in one pass over the flat array.
  Beyond sqrt2, erfc's rationals times exp(-x^2/2) run on those elements
  alone, gathered, with |x| clamped at 40, where Phi is 0 or 1 in float64:
  infinities give 0 and 1, NaN stays NaN, and no warning is raised.  GELU
  hands it one block of `PHI_BLOCK` elements at a time;
* importing this module sets glibc's allocation policy for the process
  (`MALLOC_POLICY_SET` says whether it took): one arena, no trimming, and
  a fixed 32 MiB mmap threshold, so that pages a step frees serve the
  next step (`_set_malloc_policy`).  The tracker's numbers count tensor
  bytes, not pages, so the policy does not move them;
* graphs are reference-cycle free, so buffers are reclaimed (and
  de-accounted) deterministically by refcounting; `backward` drops each
  node's closure once it has handed on its gradients, and every gradient
  but the leaves', so the saved buffers go as it passes;
* gradient accumulation is out-of-place addition (`grad = grad + g`) in
  reverse topological order of a deterministic DFS, which makes multi-use
  gradients reproducible bit-for-bit across runs; a stored gradient is
  never written after it is stored, so the first gradient a tensor receives
  is kept without a copy, and a closure may hand the same array, or a view
  of it, to several parents (closures never write into the `g` they get).
"""

from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np

from .tracking import current_tracker

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-5

# glibc's mallopt parameters (malloc.h) and the values this module sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MALLOC_POLICY = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 32 * 2 ** 20), (_M_TRIM_THRESHOLD, -1))


def _set_malloc_policy() -> bool:
    """Keep freed heap pages in the process, in one arena (glibc only).

    A step frees buffers that the next step allocates again.  By default
    glibc trims freed memory back to the OS and serves large blocks by mmap,
    so each step faults its pages in anew; and each rank thread gets an
    arena of its own, stranding one rank's freed pages where the next rank
    cannot reuse them, though ranks run one at a time.  One arena, blocks
    under 32 MiB from the heap and no trimming fix both: over 15 warm
    benchmark steps (seed 11, one CPU), a serial step took ~1 minor fault
    with the policy against 3.9k (`many_channels`) and 5.5k
    (`long_sequence`) without it, and a `long_sequence` parallel step
    100-250 against 2.4k-5.1k.  Both thresholds are set because setting
    either one turns off glibc's dynamic mmap threshold.  Returns whether
    every setting took; without glibc's mallopt, sets nothing and returns
    False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library, or not glibc's
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    taken = [mallopt(param, value) for param, value in _MALLOC_POLICY]
    return all(ok == 1 for ok in taken)


MALLOC_POLICY_SET = _set_malloc_policy()


class EngineError(Exception):
    """Raised on misuse of the tensor engine."""


class ShapeError(EngineError):
    """Incompatible operand shapes."""


class Node:
    """A tape entry of a `Tensor` that requires grad: the gradient it has
    received, the backward closure that hands it on (None for a leaf, and
    once it has run) and the parents' nodes, None where a parent needs no
    gradient.  A node refers to no `Tensor` and no buffer but what its
    closure captured, so a graph keeps alive only what backward reads."""

    __slots__ = ("grad", "backward", "parents")

    def __init__(self, backward, parents):
        self.grad = None
        self.backward = backward
        self.parents = parents


class Tensor:
    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not _parents:  # a leaf holds the caller's memory through a view of its own
            arr = arr.view()
        self.data = arr
        parents = tuple(p.node for p in _parents)
        self.node = (Node(_backward, parents)
                     if requires_grad or any(n is not None for n in parents) else None)
        tr = current_tracker()
        if tr is not None:
            tr.charge(arr, borrowed=not _parents)

    # -- the tape entry --------------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise EngineError("a tensor that does not require grad holds no gradient")

    @property
    def _backward(self):
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, back):
        self.node.backward = back

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _flops(n: int) -> None:
    tr = current_tracker()
    if tr is not None:
        tr.add_flops(int(n))


def _charged(buf: np.ndarray) -> np.ndarray:
    """`buf`, charged to the active tag until its memory is freed (a view
    of charged memory adds nothing)."""
    tr = current_tracker()
    if tr is not None:
        tr.charge(buf)
    return buf


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def back(g):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return Tensor(out, _parents=(a, b), _backward=back)


def add_(a: Tensor, b: Tensor) -> Tensor:
    """a + b, written into a's buffer: for an `a` that is an op output which
    no backward closure saved and no caller still names, so the sum needs no
    buffer of its own; b broadcasts to a's shape.  The values and gradients
    are `add`'s."""
    out = a.data
    try:
        np.add(out, b.data, out=out)
    except ValueError as exc:
        raise ShapeError(f"{b.shape} does not broadcast into {a.shape}") from exc
    sb = b.shape

    def back(g):
        return g, _reduce_to(g, sb)

    return Tensor(out, _parents=(a, b), _backward=back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product.  Each factor is saved only if the other one
    needs its gradient: a product with a constant mask keeps the mask, not
    the masked tensor."""
    out = a.data * b.data
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def back(g):
        return (None if bd is None else _reduce_to(g * bd, sa),
                None if ad is None else _reduce_to(g * ad, sb))

    return Tensor(out, _parents=(a, b), _backward=back)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def back(g):
        return (g * s,)

    return Tensor(out, _parents=(a,), _backward=back)


def _row_order(a: np.ndarray) -> tuple:
    """`a`'s axes but the last in stride order, largest first, then the
    last: the order in which a transposed activation stack folds into rows
    as a view."""
    lead = a.ndim - 1
    return (*sorted(range(lead), key=lambda i: -a.strides[i]), lead)


def _fold_rows(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[..., m, k] and [..., m, n] as [rows, k] and [rows, n], every axis
    but the last folded into the rows in `a`'s stride order, so a transposed
    activation stack folds as a view and only `g` may be copied."""
    perm = _row_order(a)
    return (a.transpose(perm).reshape(-1, a.shape[-1]),
            g.transpose(perm).reshape(-1, g.shape[-1]))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the trailing two axes.

    Leading axes broadcast; gradients are summed back over any broadcast
    batch axes.  The common case, a stacked activation times a shared 2-D
    weight, takes the weight gradient as one 2-D product over the folded
    rows (`_fold_rows`), never as one matrix per batch position.  Other
    broadcast operands (a per-channel weight stack, a 2-D `a` against
    stacked keys) are formed batched and then summed; their transients are
    small.  As in `mul`, each operand is saved only if the other one needs
    its gradient, and only the gradients the parents need are formed: a
    constant's product (the patch rows, the metadata) hands back None.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    _flops(2 * out.size * a.shape[-1])
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def back(g):
        da = None if bd is None else _reduce_to(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)
        if ad is None:
            return da, None
        if len(sb) == 2 and ad.ndim > 2:
            af, gf = _fold_rows(ad, g)
            return da, af.T @ gf
        return da, _reduce_to(np.matmul(np.swapaxes(ad, -1, -2), g), sb)

    return Tensor(out, _parents=(a, b), _backward=back)


# -- blocks ------------------------------------------------------------------
#
# The elements of inner activation one block may hold.  Each keeps a block's
# working set in cache from one numpy pass to the next (Xeon, 2 MiB L2 per
# core, one core, BLAS on one thread); they differ with what a block holds:
# * ATTENTION_BLOCK, a block's logits: a sweep of forward plus backward at
#   the desk's hot shapes (2**12 to 2**20, and one block of every position)
#   found 2**15 to 2**17 equally fast, where one block was 1.9x slower on the
#   [4,64,64,64] 8-head full_cross aggregation (273 against 146 ms), 1.6x on
#   its 2-head tp shard and 1.4x on the [4,257,64] ViT attention.  With the
#   backward walking the forward's blocks, forward plus backward at 2**14,
#   2**15, 2**16 and 2**17 (best of 10, two sweeps) read 185-188, 169-172,
#   164-166 and 164-166 ms on the aggregation, 54, 49, 48 and 50 ms on its
#   tp shard, and 12 ms on the [4,64,8,64] tree node and 27 ms on the ViT
#   attention at every size.  At 2**16 the backward's two logit-sized
#   blocks (1 MiB) fit in L2;
# * PHI_BLOCK, the elements of one `normal_cdf` call, some two dozen passes
#   whose input, x^2, D and output (1 MiB at 2**15) stay in L2: on the Phi
#   inputs of one benchmark step per strategy (best of 15), 2**14 to 2**16
#   ran alike, 2**12 1.6x slower (per-call overhead) and 2**19 1.4x;
# * MLP_BLOCK, a block's hidden activation: PHI_BLOCK, so that a block of
#   several positions is one Phi call and stays in L2 from its first product
#   to its second;
# * LOSS_BLOCK, a block's target, which one gather and one subtraction read:
#   few enough to run in cache, many enough that a step's loss is a handful
#   of numpy calls.
ATTENTION_BLOCK = 2 ** 16
PHI_BLOCK = 2 ** 15
MLP_BLOCK = PHI_BLOCK
LOSS_BLOCK = 2 ** 14


def _block_length(count, per, budget: int):
    """How many of `count` items of `per` elements each one block holds:
    as many as fit `budget` elements, at least one and at most `count`."""
    return min(count, max(1, budget // per))


def _position_blocks(x: np.ndarray, core_ndim: int, blk: int):
    """(slice of flat positions, x's rows there) of each block, in order.

    A position is an index of x's lead axes, all but its last `core_ndim`
    (an x with none is one position).  A block is at most `blk` whole
    positions within one run of the last lead axis, so its rows are a view
    of x wherever x lies, a transposed stack too.  A position's matrix is
    never cut: numpy takes a stack of matrices' products one matrix at a
    time, so each position goes through the same numpy calls whatever the
    block size, and results do not depend on it; only the transient, one
    block rather than every position, does."""
    xr = x if x.ndim > core_ndim else x[None]
    *outer, run = xr.shape[:xr.ndim - core_ndim]
    for i, index in enumerate(itertools.product(*map(range, outer))):
        xo = xr[index]
        for j in range(0, run, blk):
            xs = xo[j:j + blk]
            yield slice(i * run + j, i * run + j + len(xs)), xs


# -- nonlinearities ---------------------------------------------------------


def _heads(x: np.ndarray, n_heads: int, hs: slice) -> np.ndarray:
    """Heads `hs` of [n, Tn, Dl] as the view [n, heads, Tn, Dl/H]."""
    n, tn, dl = x.shape
    return x.reshape(n, tn, n_heads, dl // n_heads)[:, :, hs].swapaxes(1, 2)


def attention(x: Tensor, wq: Tensor, bq: Tensor | None, wk: Tensor, wv: Tensor, wo: Tensor,
              n_heads: int) -> Tensor:
    """Scaled dot-product self-attention of x over `n_heads` heads, its
    q, k, v and output projections included, as one tape node.

    x is [..., T, D]; wq, wk and wv are [D, Dl], the query bias bq, which
    may be None, is [Dl], and wo is [Dl, Do].  With q = x wq + bq, k = x wk
    and v = x wv, head h reads features h*Dl/H to (h+1)*Dl/H of each; the
    op returns ctx wo, [..., T, Do], where ctx is the merged context
    softmax(q k^T / sqrt(Dl/H)) v, [..., T, Dl].

    Both passes walk blocks of positions (`_position_blocks`) whose logits
    fit `ATTENTION_BLOCK`; a position whose logits alone exceed it is a
    block whose heads are walked in groups, as blocks of its log-sum-exp
    rows.  Each block's q, k and v are x's rows' products with the three
    weights, written into block-sized buffers, q into a [rows, T, Dl] one,
    in which it takes its bias and its scale, and k and v into the planes
    of a [2, rows, T, Dl] one; no concatenation of the weights is made,
    which at paper scale (D large, few tokens per rank) would outweigh the
    buffers.  One more block-sized buffer each holds the logits and the row
    sums (and, in backward, the logit gradient), so a block's elementwise
    passes run in cache.  The logits are key-major, [keys, queries], so a
    query's softmax (its maximum, its sum and the log-sum-exp's
    subtraction) reduces across the rows of a block, each pass over whole
    contiguous rows rather than along a short last axis; the probabilities
    are normalised by one product with the reciprocal of their sums, and
    the context is p^T v.

    The forward writes each head group's context over its q, which its
    logits have read, so a block's q buffer becomes the block's context,
    and projects that by wo into the block's rows of the output once the
    block's last head group is done; no context of every position is
    formed, as in FlashAttention (Dao et al., 2022).  When one block holds
    every position, it is projected once the k, v and logit buffers have
    gone.  Only the output and the per-row log-sum-exp outlive the forward,
    beside x and the weights, which the op saves: backward recomputes each
    block's projections and its context, as selective recomputation does
    (Korthikanti et al., 2022), and the probabilities from the log-sum-exp,
    as FlashAttention does.  The forward charges every buffer it allocates
    from its allocation until it is freed: the log-sum-exp and the output,
    and the block buffers, which go when it returns.

    Backward walks the forward's blocks, as FlashAttention-2 does (Dao,
    2023).  At a block's first head group it forms the context's gradient,
    g wo^T, into a block buffer; at each head group it recomputes the
    probabilities and the context into block buffers and writes dv, dq and
    dk into the planes of one [3, blk, T, Dl] buffer; after the last it
    writes the block's rows of dx as the products of dq, dk and dv with
    wq^T, wk^T and wv^T, one matrix per position, and adds the block's
    folds into the weight gradients (over x's rows there, copied if x is a
    transposed stack) and its row sum into the bias's.  Only dx and the
    weight gradients are whole.  Each position's rows go through the same
    numpy calls at any block size, so the output and dx do not depend on
    it; the weight and bias gradients, summed block by block, round
    differently.
    """
    weights = (wq, wk, wv)
    if (x.ndim < 2 or any(w.ndim != 2 or w.shape != wq.shape for w in weights)
            or wq.shape[0] != x.shape[-1] or (bq is not None and bq.shape != wq.shape[1:])
            or wo.ndim != 2 or wo.shape[0] != wq.shape[1]):
        raise ShapeError(f"attention needs x [..., T, D], wq, wk, wv [D, Dl], bq [Dl] and "
                         f"wo [Dl, Do], got {x.shape}, {wq.shape}, {wk.shape}, {wv.shape}, "
                         f"{None if bq is None else bq.shape}, {wo.shape}")
    if wq.shape[1] % n_heads:
        raise ShapeError(f"{n_heads} heads do not divide width {wq.shape[1]}")
    h = n_heads
    *lead, t, d = x.shape
    dl, do = wo.shape
    n = math.prod(lead)
    xd, wd, wod = x.data, tuple(w.data for w in weights), wo.data
    blk = _block_length(lead[-1] if lead else 1, h * t * t, ATTENTION_BLOCK)
    hb = _block_length(h, t * t, ATTENTION_BLOCK)
    scale = 1.0 / np.sqrt(dl // h)
    bd = None if bq is None else bq.data

    def blocks(q, kv):
        """(positions, x's rows there, heads, their q, k and v) of each
        block in order: the block's rows of x projected into `q` [blk, T,
        Dl], biased and scaled, and into the planes of `kv` [2, blk, T,
        Dl]."""
        for sl, xs in _position_blocks(xd, 2, blk):
            planes = (q[:len(xs)], *kv[:, :len(xs)])
            for plane, w in zip(planes, wd):
                np.matmul(xs, w, out=plane)
            qb = planes[0]
            if bd is not None:
                qb += bd
            qb *= scale
            for hs, _ in _position_blocks(lse[sl.start], 1, hb):
                yield sl, xs, hs, *(_heads(plane, h, hs) for plane in planes)

    def logits(qh, kh, p):
        """A block's logits into `p`, cut to the block's size, key-major:
        [keys, queries], so that a query's softmax reduces across rows."""
        return np.matmul(kh, qh.swapaxes(-1, -2), out=p[:len(kh), :kh.shape[1]])

    def fill(q, out):
        """The log-sum-exp into `lse` and each block's context into `q`,
        over the q its logits have read; unless `out` is None, each block's
        context projected by wo into its rows of `out` [n, T, Do] once the
        block's last head group is done.  The k, v and logit buffers go on
        return."""
        kv = _charged(np.empty((2, blk, t, dl)))
        p, rowsum = _charged(np.empty((blk, hb, t, t))), _charged(np.empty((blk, hb, t)))
        for sl, _, hs, qh, kh, vh in blocks(q, kv):
            pb = logits(qh, kh, p)
            lb, rb = lse[sl, hs], rowsum[:len(pb), :pb.shape[1]]
            pb.max(axis=-2, out=lb)
            pb -= lb[..., None, :]
            np.exp(pb, out=pb)
            pb.sum(axis=-2, out=rb)
            np.reciprocal(rb, out=rb)
            pb *= rb[..., None, :]
            lb -= np.log(rb, out=rb)
            np.matmul(pb.swapaxes(-1, -2), vh, out=qh)
            if out is not None and hs.stop >= h:
                np.matmul(q[:len(pb)], wod, out=out[sl])

    lse, q = _charged(np.empty((n, h, t))), _charged(np.empty((blk, t, dl)))
    if blk < n:
        out = _charged(np.empty((n, t, do)))
        fill(q, out)
    else:  # one block, projected once its k, v and logit buffers have gone
        fill(q, None)
        out = _charged(np.matmul(q, wod))
    del q
    out = out.reshape(*lead, t, do)
    _flops(2 * n * t * d * 3 * dl + 4 * n * t * t * dl + 2 * n * t * dl * do)

    def back(g):
        gf = g.reshape(n, t, do)
        dx, dw = np.empty((n, t, d)), np.zeros((3, d, dl))
        dwo, dbq = np.zeros((dl, do)), np.zeros(dl)
        q, kv = np.empty((blk, t, dl)), np.empty((2, blk, t, dl))
        ctx, dctx, dqkv = np.empty((blk, t, dl)), np.empty((blk, t, dl)), np.empty((3, blk, t, dl))
        p, ds = np.empty((blk, hb, t, t)), np.empty((blk, hb, t, t))
        dot = np.empty((blk, t, hb)).swapaxes(-1, -2)  # the layout einsum fills fastest
        part = np.empty((blk, t, d))
        for sl, xs, hs, qh, kh, vh in blocks(q, kv):
            m = len(xs)
            if hs.start == 0:
                np.matmul(gf[sl], wod.T, out=dctx[:m])
            pb = logits(qh, kh, p)
            pb -= lse[sl, hs, None, :]
            np.exp(pb, out=pb)
            cut = (slice(m), slice(pb.shape[1]))
            gh = _heads(dctx[:m], h, hs)
            oh = np.matmul(pb.swapaxes(-1, -2), vh, out=_heads(ctx[:m], h, hs))
            dq, dk, dv = (_heads(plane[:m], h, hs) for plane in dqkv)
            np.matmul(pb, gh, out=dv)
            dsb = np.matmul(vh, gh.swapaxes(-1, -2), out=ds[cut])
            dsb -= np.einsum("...d,...d->...", gh, oh, out=dot[cut])[..., None, :]  # rowsum(dO*O)
            dsb *= pb  # the logit gradient, without its factor `scale`
            np.matmul(dsb.swapaxes(-1, -2), kh, out=dq)
            np.matmul(dsb, qh, out=dk)
            if hs.stop < h:
                continue
            planes = dqkv[:, :m]
            planes[0] *= scale
            np.matmul(planes[0], wd[0].T, out=dx[sl])
            for plane, w in zip(planes[1:], wd[1:]):
                dx[sl] += np.matmul(plane, w.T, out=part[:m])
            flat = planes.reshape(3, -1, dl)
            dw += np.matmul(np.ascontiguousarray(xs).reshape(-1, d).T, flat)
            dwo += ctx[:m].reshape(-1, dl).T @ gf[sl].reshape(-1, do)
            dbq += flat[0].sum(axis=0)
        dx = dx.reshape(*lead, t, d)
        if bd is None:
            return dx, *dw, dwo
        return dx, *dw, dwo, dbq

    parents = (x, *weights, wo) + (() if bq is None else (bq,))
    return Tensor(out, _parents=parents, _backward=back)


def attention_pool(x: Tensor, q: Tensor, wv: Tensor | None, wo: Tensor | None,
                   n_heads: int) -> Tensor:
    """One learned query per head pools the values of x's Tk tokens, its
    value and output projections included, as one tape node.

    x is [..., Tk, Dx], q is [Dx, H], the value projection wv is [Dx, Dl]
    and the output projection wo [Dl, Do]; wv and wo are given together or
    not at all, and without them the values are x itself (Dl = Dx) and the
    pooled values are the output.  Head h scores each of a position's Tk
    keys as x @ q[:, h], scaled by 1/sqrt(Dl/H) as `attention` scales,
    takes the softmax of the scores over the keys and pools the values'
    features h*Dl/H to (h+1)*Dl/H with it, [..., 1, Dl]; with wo the op
    returns that times wo, [..., 1, Do].  The query is taken as stored,
    with the key projection absorbed into it (see `params`), so no key is
    ever formed.

    The scores are one 2-D product over x's rows, folded in x's stride
    order (`_fold_rows`), so a transposed stack folds as a view; otherwise
    the fold copies x, and the copy is charged while the product reads it.
    The op keeps x, q, wv, wo and a per-(position, head) log-sum-exp for
    backward, which recomputes the scores, the values and, for wo's
    gradient, the pooled values; not its output.  Its transients are the
    scores (n*Tk*H), the fold's copy while the scores are formed, the row
    sums, and the values x @ wv (n*Tk*Dl) and the pooled values (n*Dl)
    while the values are pooled; with wo, the pooled values are then live
    with the output until the output is formed.  Without wv, x's gradient
    through the scores is added into its gradient as the values, so
    backward hands on one array.
    """
    dl = x.shape[-1] if wv is None else wv.shape[-1]
    do = dl if wo is None else wo.shape[-1]
    if (x.ndim < 2 or q.shape != (x.shape[-1], n_heads) or dl % n_heads
            or (wv is None) != (wo is None)
            or (wv is not None and (wv.shape != (x.shape[-1], dl) or wo.shape != (dl, do)))):
        raise ShapeError(f"attention_pool needs x [..., Tk, Dx], q [Dx, {n_heads}], and "
                         f"wv [Dx, Dl] and wo [Dl, Do] or neither, with {n_heads} heads "
                         f"dividing Dl, got {x.shape}, {q.shape}, "
                         f"{None if wv is None else wv.shape}, {None if wo is None else wo.shape}")
    h = n_heads
    *lead, tk, dx = x.shape
    dh = dl // h
    scale = 1.0 / np.sqrt(dh)
    xd, qd = x.data, q.data
    wvd, wod = (None, None) if wv is None else (wv.data, wo.data)
    perm = _row_order(xd)
    inv = tuple(np.argsort(perm))
    folded = tuple(xd.shape[i] for i in perm[:-1])

    def unfold(rows):
        """[rows, n] in x's row order as the view [..., Tk, n]."""
        return rows.reshape(*folded, rows.shape[-1]).transpose(inv)

    def values(charge):
        """The values [..., Tk, Dl], x @ wv (to which `charge` is applied)
        or x, and their heads [..., Tk, H, Dl/H]."""
        v = xd if wvd is None else charge(np.matmul(xd, wvd))
        return v, v.reshape(*lead, tk, h, dh)

    def pool(sl, vh, out):
        """The values `vh` pooled with the probabilities `sl` [..., Tk, H]
        into `out` [..., H, Dl/H]."""
        return np.einsum("...kh,...khd->...hd", sl, vh, out=out)

    xf = _charged(xd.transpose(perm).reshape(-1, dx))
    s = _charged(xf @ qd)  # the scores, [rows, H] in x's row order
    del xf
    s *= scale
    sl = unfold(s)
    lse = _charged(sl.max(axis=-2))
    sl -= lse[..., None, :]
    np.exp(s, out=s)
    rowsum = _charged(sl.sum(axis=-2))
    sl /= rowsum[..., None, :]
    lse += np.log(rowsum, out=rowsum)
    del rowsum
    v, vh = values(_charged)
    out = _charged(np.empty((*lead, 1, dl)))
    pool(sl, vh, out.reshape(*lead, h, dh))
    del v, vh, s, sl
    if wod is not None:
        out = _charged(np.matmul(out, wod))
    n = math.prod(lead)
    _flops(2 * n * tk * (dx * h + dl) + (0 if wvd is None else 2 * n * (tk * dx + do) * dl))

    def back(g):
        xf = xd.transpose(perm).reshape(-1, dx)
        p = xf @ qd
        p *= scale
        pl = unfold(p)
        pl -= lse[..., None, :]
        np.exp(p, out=p)
        v, vh = values(lambda buf: buf)
        if wod is not None:  # wo's gradient from the recomputed pooled values
            pooled = pool(pl, vh, np.empty((*lead, h, dh))).reshape(*lead, 1, dl)
            pf, gf = _fold_rows(pooled, g)
            dwo = pf.T @ gf
            del pooled, pf, gf
            g = np.matmul(g, wod.T)
        gh = g.reshape(*lead, h, dh)
        dv = np.empty(v.shape)
        np.multiply(pl[..., None], gh[..., None, :, :], out=dv.reshape(vh.shape))
        ds = np.empty(p.shape)  # the score gradient, in x's row order
        dsl = np.einsum("...hd,...khd->...kh", gh, vh, out=unfold(ds))
        del v, vh
        dsl -= np.einsum("...kh,...kh->...h", pl, dsl)[..., None, :]
        ds *= p
        ds *= scale
        dq = xf.T @ ds
        dscore = unfold(ds @ qd.T)
        if wvd is None:  # x is the values: one gradient
            dv += dscore
            return dv, dq
        dwv = xf.T @ dv.transpose(perm).reshape(-1, dl)
        dxv = np.matmul(dv, wvd.T)
        dxv += dscore
        return dxv, dq, dwv, dwo

    return Tensor(out, _parents=(x, q) + (() if wv is None else (wv, wo)), _backward=back)


# Phi(x), the standard normal CDF, from Cephes' ndtr.c (S. L. Moshier, Cephes
# Math Library), with the erf and erfc rationals written in x.
# Coefficients are Cephes', highest power first; a monic polynomial's leading
# 1 is left out.  erf(z) = z T(z^2) / U(z^2) for |z| <= 1; erfc(z) =
# exp(-z^2) P(z) / Q(z) for 1 <= z < 8, and exp(-z^2) R(z) / S(z) from 8 up.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)

# The core, |x| <= sqrt2: Phi(x) = 1/2 + x N(x^2) / D(x^2), D monic.  With
# z^2 = w/2 (w = x^2), T_i and U_i, the coefficients of z^(8-2i), take
# 2^(i-4), and U's leading 1 takes 2^-5; scaling both by 2^5 keeps D monic,
# and N takes the 1/2 and 1/sqrt2 of 1/2 erf(x/sqrt2).
_PHI_CORE = math.sqrt(2.0)
_PHI_NUM = tuple(t * 2.0 ** i * _INV_SQRT2 for i, t in enumerate(_ERF_T))
_PHI_DEN = (1.0, *(u * 2.0 ** (i + 1) for i, u in enumerate(_ERF_U)))
# The tail, |x| > sqrt2: Phi(-|x|) = 1/2 erfc(|x|/sqrt2), the 1/2 folded into
# P and R.  Phi(-40), about exp(-800)/(40 sqrt(2 pi)), is below the least
# subnormal (Phi underflows from x = -38.49), so clamping |x| at 40 gives Phi
# exactly 0 or 1 from there on, infinities included, with no inf - inf or
# inf/inf.
_TAIL_NEAR = (tuple(0.5 * c for c in _ERFC_P), (1.0, *_ERFC_Q))
_TAIL_FAR = (tuple(0.5 * c for c in _ERFC_R), (1.0, *_ERFC_S))
_TAIL_CLAMP = 40.0
_VELTKAMP = 2.0 ** 27 + 1.0  # splits a double into two halves of 26 bits


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with `coefs`, highest power first, at `x`: Horner's
    rule in one new array."""
    acc = x * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _phi_tail(x: np.ndarray) -> np.ndarray:
    """Phi(x) where |x| > sqrt2, or x is NaN: q = 1/2 erfc(|x|/sqrt2) is
    Phi(x) for x < 0 and 1 - Phi(x) for x > 0.  exp(-x^2/2) is evaluated
    on x^2 split exactly into hi + lo (Dekker's product, Veltkamp's split):
    exp(-hi/2) (1 - lo/2).  The rounding of x*x alone would cost Phi up to
    x^2/2 * 2^-53 of relative error, 7.6e-14 at x = -37.  Each erfc
    rational runs on its own elements alone, z < 8 and the rest (NaN
    included)."""
    a = np.minimum(np.abs(x), _TAIL_CLAMP)  # NaN stays NaN
    z = a * _INV_SQRT2
    q = np.empty_like(z)
    near = z < 8.0
    for part, (num, den) in ((near, _TAIL_NEAR), (~near, _TAIL_FAR)):
        zp = z[part]
        r = _horner(zp, num)
        r /= _horner(zp, den)
        q[part] = r
    hi = a * a
    c = a * _VELTKAMP
    ah = c - (c - a)
    al = a - ah
    lo = ((ah * ah - hi) + 2.0 * ah * al) + al * al
    q *= np.exp(-0.5 * hi) * (1.0 - 0.5 * lo)
    return np.where(x < 0.0, q, 1.0 - q)


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF, elementwise into a new float64
    array: the core rational over the flat array, then `_phi_tail` on the
    elements past sqrt2 (and NaNs), gathered.  An array that holds none
    squares x directly; otherwise it squares x clipped to the core, so x^2
    cannot overflow, and the core's value for a tail element (x times a
    positive N/D below 1) is finite or infinite but never warns.  Relative
    error is at most ~3e-15 wherever Phi(x) is a normal float.  Callers
    hand it one `PHI_BLOCK` at a time."""
    xf = np.ravel(x)
    tail = None
    if xf.min(initial=0.0) >= -_PHI_CORE and xf.max(initial=0.0) <= _PHI_CORE:  # False on a NaN
        w = xf * xf
    else:
        w = np.clip(xf, -_PHI_CORE, _PHI_CORE)
        tail = np.flatnonzero(w != xf)
        w *= w
    phi = _horner(w, _PHI_NUM)
    phi /= _horner(w, _PHI_DEN)
    phi *= xf  # a tail element's value here is overwritten below
    phi += 0.5
    if tail is not None:
        phi[tail] = _phi_tail(xf[tail])
    return phi.reshape(np.shape(x))


def _gelu_in_place(a: np.ndarray) -> None:
    """a = a Phi(a) over contiguous a, one `PHI_BLOCK` at a time; each
    block's Phi (`normal_cdf`) is a charged scratch that goes once read."""
    for _, block in _position_blocks(a.reshape(-1), 0, PHI_BLOCK):
        block *= _charged(normal_cdf(block))


def _gelu_and_derivative(a: np.ndarray) -> np.ndarray:
    """a Phi(a) in a new buffer, with contiguous a turned into GELU's
    derivative Phi(a) + a pdf(a), one `PHI_BLOCK` at a time."""
    act = np.empty(a.shape)
    act_flat = act.reshape(-1)
    for sl, block in _position_blocks(a.reshape(-1), 0, PHI_BLOCK):
        phi = normal_cdf(block)
        np.multiply(block, phi, out=act_flat[sl])
        t = block * block  # a pdf(a)
        t *= -0.5
        np.exp(t, out=t)
        t *= block
        t *= _INV_SQRT2PI
        np.add(phi, t, out=block)
    return act


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor) -> Tensor:
    """gelu(x w1 + b1) w2, with exact GELU (a Phi(a)), as one tape node.

    x is [..., D], w1 [D, Dh], b1 [Dh] and w2 [Dh, Do]; returns [..., Do].
    The forward walks blocks of positions (`_position_blocks`) whose hidden
    activation fits `MLP_BLOCK`: the block's a = x w1 + b1 is formed in one
    block-sized buffer, which GELU overwrites one `PHI_BLOCK` at a time,
    each Phi a scratch that goes once read, and its product with w2 fills
    the block's rows of the output, which is made once the first block's
    GELU is done; the buffer goes on return.  The op saves x, w1, b1 and
    w2, and no hidden-sized buffer: backward walks the forward's blocks and
    recomputes each block's a, as selective recomputation does (Korthikanti
    et al., 2022).  Per `PHI_BLOCK` it writes gelu(a) into one buffer and
    turns a into GELU's derivative Phi(a) + a pdf(a); then it folds the
    block's w2 gradient, writes the hidden gradient over gelu(a) and the
    block's rows of dx, and folds its w1 and b1 gradients.  Only dx and the
    weight gradients are whole.  The output and dx come from the numpy
    calls of the chain matmul, bias add, GELU and matmul, one matrix per
    position, so they are that chain's to the bit at any block size; the
    weight and bias gradients, summed block by block, round differently.
    The forward charges the hidden block, the Phi scratch and the output
    while each lives.
    """
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or w1.shape[0] != x.shape[-1]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]):
        raise ShapeError(f"mlp needs x [..., D], w1 [D, Dh], b1 [Dh] and w2 [Dh, Do], got "
                         f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape}")
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data
    *lead, r, d = xd.shape
    dh, do = w2d.shape
    n = math.prod(lead)
    blk = _block_length(lead[-1] if lead else 1, r * dh, MLP_BLOCK)

    def forward():
        """The output, [n, R, Do], one block at a time."""
        a = _charged(np.empty((blk, r, dh)))
        out = None
        for sl, xs in _position_blocks(xd, 2, blk):
            ab = a[:len(xs)]
            np.matmul(xs, w1d, out=ab)
            ab += b1d
            _gelu_in_place(ab)
            if out is None:
                out = _charged(np.empty((n, r, do)))
            np.matmul(ab, w2d, out=out[sl])
        return out

    out = forward().reshape(*lead, r, do)
    _flops(2 * n * r * dh * (d + do))

    def back(g):
        gf = g.reshape(n, r, do)
        dx, a = np.empty((n, r, d)), np.empty((blk, r, dh))
        dw1, db1, dw2 = np.zeros((d, dh)), np.zeros(dh), np.zeros((dh, do))
        for sl, xs in _position_blocks(xd, 2, blk):
            ab = a[:len(xs)]
            np.matmul(xs, w1d, out=ab)
            ab += b1d
            act = _gelu_and_derivative(ab)  # ab is GELU's derivative from here
            gs = gf[sl]
            dw2 += act.reshape(-1, dh).T @ gs.reshape(-1, do)
            da = np.matmul(gs, w2d.T, out=act)
            da *= ab
            np.matmul(da, w1d.T, out=dx[sl])
            da = da.reshape(-1, dh)
            dw1 += np.ascontiguousarray(xs).reshape(-1, d).T @ da
            db1 += da.sum(axis=0)
        return dx.reshape(*lead, r, d), dw1, db1, dw2

    return Tensor(out, _parents=(x, w1, b1, w2), _backward=back)


def layernorm(x: Tensor) -> Tensor:
    """Normalize over the last axis; no gain and no shift (`params`).  x is
    centred once, into the buffer that becomes x-hat; the variance is each
    row's dot product with itself, so no other input-sized buffer is made,
    and 1/sigma is formed in the variance's buffer.  Backward builds its
    result in one buffer, with the same values an unfused evaluation
    gives."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xhat = xd - mu
    var = np.einsum("...d,...d->...", xhat, xhat)[..., None]
    var /= xd.shape[-1]
    var += _LN_EPS
    inv = _charged(np.divide(1.0, np.sqrt(var, out=var), out=var))
    xhat *= inv

    def back(g):
        m1 = g.mean(axis=-1, keepdims=True)
        t = g * xhat
        m2 = t.mean(axis=-1, keepdims=True)
        dx = g - m1
        dx -= np.multiply(xhat, m2, out=t)
        dx *= inv
        return (dx,)

    return Tensor(xhat, _parents=(x,), _backward=back)


# -- shape manipulation ------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    out = x.data.reshape(shape)

    def back(g):
        return (g.reshape(old),)

    return Tensor(out, _parents=(x,), _backward=back)


def transpose(x: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def back(g):
        return (g.transpose(inv),)

    return Tensor(x.data.transpose(axes), _parents=(x,), _backward=back)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        grads = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor(out, _parents=tuple(tensors), _backward=back)


class _PieceGrads:
    """The gradients the pieces of one `split` hand back, by piece index.
    The engine adds the gradients a node receives; adding two of these
    merges them, out of place, summing a piece that both hold."""

    __slots__ = ("grads",)

    def __init__(self, grads: dict):
        self.grads = grads

    def __add__(self, other: _PieceGrads) -> _PieceGrads:
        merged = dict(self.grads)
        for i, g in other.grads.items():
            merged[i] = merged[i] + g if i in merged else g
        return _PieceGrads(merged)


def split(x: Tensor, axis: int, sizes) -> list[Tensor]:
    """x cut along `axis` into consecutive pieces of `sizes`, which add up
    to the axis' length; each piece is a view.

    The pieces share one tape node over x, whose backward is one
    concatenation of their gradients, with zeros only for the pieces that
    got none: no piece's gradient is scattered into an array of x's size.
    """
    sizes = tuple(sizes)
    if sum(sizes) != x.shape[axis] or min(sizes) < 1:
        raise ShapeError(f"split of an axis of {x.shape[axis]} into pieces of {sizes}")
    views = np.split(x.data, np.cumsum(sizes[:-1]), axis=axis)
    shapes = [v.shape for v in views]

    def back(pieces):
        if len(shapes) == 1:
            return (pieces.grads[0],)
        return (np.concatenate([pieces.grads[i] if i in pieces.grads else np.zeros(shape)
                                for i, shape in enumerate(shapes)], axis=axis),)

    whole = Tensor(x.data, _parents=(x,), _backward=back)
    return [Tensor(v, _parents=(whole,), _backward=lambda g, i=i: (_PieceGrads({i: g}),))
            for i, v in enumerate(views)]


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Rows `rows` of x along its first axis, as a new buffer ([N, F] ->
    [M, F]).  A row may be taken more than once: backward sums the
    gradient of each take into zeros (`np.add.at`), which for distinct
    rows is assignment, bit for bit.  It saves only the indices and the
    shape."""
    shape = x.data.shape

    def back(g):
        full = np.zeros(shape)
        np.add.at(full, rows, g)
        return (full,)

    return Tensor(x.data[rows], _parents=(x,), _backward=back)


# -- reductions --------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum()
    shape = x.data.shape

    def back(g):
        return (np.broadcast_to(g, shape),)

    return Tensor(out, _parents=(x,), _backward=back)


def sum_squares(x: Tensor) -> Tensor:
    """The sum of x's squared elements, as one dot product of x with itself,
    so no square is formed.  It saves x; backward is 2 g x."""
    xd = x.data
    flat = xd.reshape(-1)
    out = np.dot(flat, flat)

    def back(g):
        return (xd * (2.0 * g),)

    return Tensor(out, _parents=(x,), _backward=back)


# -- backward engine ----------------------------------------------------------


def _topo_order(root: Node) -> list[Node]:
    """Iterative DFS post-order; deterministic given graph construction order."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from `loss`.

    Each node's closure is dropped once it has handed on its gradients, and
    so are the gradients of every node but the leaves, as PyTorch does
    without `retain_graph`: the buffers only backward read go as it passes,
    and a second backward through the same graph is an error.
    """
    if loss.data.shape != ():
        raise EngineError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss.node
    if root is None:
        raise EngineError("backward on a tensor with no recorded graph")
    if root.parents and root.backward is None:
        raise EngineError("backward through a graph that an earlier backward freed")
    order = _topo_order(root)
    root.grad = np.ones(())
    for node in reversed(order):
        back, g = node.backward, node.grad
        if node.parents:
            node.backward = node.grad = None
        if back is None or g is None:
            continue
        for parent, pg in zip(node.parents, back(g)):
            if parent is None or pg is None:
                continue
            parent.grad = pg if parent.grad is None else parent.grad + pg
