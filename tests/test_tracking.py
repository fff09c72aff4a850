import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from dchag import model as dmodel
from dchag import runtime
from dchag import tensor as T
from dchag.config import ModelConfig, ParallelConfig, StrategyConfig
from dchag.model import forward_loss_reference
from dchag.params import create_master, shard_for_rank
from dchag.rng import RngState
from dchag.runtime import spawn_ranks
from dchag.strategies import (parallel_forward_loss, run_dchag_reference_step,
                              run_hybrid_step, run_serial_step)
from dchag.synthetic import make_batch
from dchag.tensor import EngineError, Tensor
from dchag.tracking import AllocTracker, _memory_owner, activate, alloc_tag, current_tracker


def test_views_not_charged():
    tr = AllocTracker()
    with activate(tr):
        x = Tensor(np.zeros((4, 4)))
        base = tr.live_bytes
        assert base == 128
        y = T.transpose(x, (1, 0))
        z = T.split(x, 0, (2, 2))[0]
        assert tr.live_bytes == base
        del y, z, x
    assert tr.live_bytes == 0


def test_view_keeps_its_owners_charge():
    # a gradient-free view outlives the Tensor that owns its buffer: the
    # charge lasts until the view, and so the buffer, is gone
    tr = AllocTracker()
    with activate(tr):
        owner = T.scale(Tensor(np.ones((4, 4))), 2.0)
        view = T.split(T.transpose(owner, (1, 0)), 0, (1, 2, 1))[1]
        del owner  # the input leaf goes: nothing refers to it
        assert tr.live_bytes == 128
        del view
    assert tr.live_bytes == 0


def test_peak_and_tag_accounting():
    tr = AllocTracker()
    with activate(tr):
        with alloc_tag("tokenize"):
            a = Tensor(np.zeros(16))  # 128 bytes
        with alloc_tag("aggregate"):
            b = Tensor(np.zeros(32))  # 256 bytes
        assert tr.live_bytes == 384
        assert tr.per_tag_peak["tokenize"] == 128
        assert tr.per_tag_peak["aggregate"] == 256
        del a
        assert tr.live_bytes == 256
        assert tr.peak_bytes == 384
        # sum of per-tag live equals total live
        assert sum(tr.per_tag_live.values()) == tr.live_bytes
        del b
    assert tr.live_bytes == 0
    assert tr.peak_bytes == 384
    # what each tag held when the peak was reached
    assert tr.stats().per_tag_at_peak == {"tokenize": 128, "aggregate": 256}


def test_the_tp_peak_holds_one_flat_layer_output():
    # a many_channels-shaped desk (full_cross, D = 64, 8 heads) at tp 2: the
    # flat layer's sum over tp and its bias add write into the attention
    # op's partial output, so its partial and its sum are never both live,
    # and the aggregate tag holds less than two K*C*D buffers at the peak
    # (K = B*(S - masked), the kept positions), where before it held both
    # beside the tokens
    model = ModelConfig(channels=32, image_h=32, image_w=32, patch=4, embed=64, depth=1,
                        heads=8, agg_variant="full_cross")
    batch = make_batch(model, 7, 0, [0, 1])
    strat = StrategyConfig(kind="tp_only", tp_degree=2)
    res = run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat,
                          create_master(model, strat, RngState(3)), [batch])
    stack = 8 * 2 * (model.seq - model.masked_count) * model.channels * model.embed
    for st in res.stats:
        assert sum(st.per_tag_at_peak.values()) == st.peak_bytes
        assert all(st.per_tag_at_peak[tag] <= st.tag_peak(tag) for tag in st.per_tag_at_peak)
        assert st.per_tag_at_peak["tokenize"] >= stack  # the tokens, which the layer saves
        assert st.per_tag_at_peak["aggregate"] < 2 * stack


def test_release_follows_allocation_tag():
    tr = AllocTracker()
    with activate(tr):
        with alloc_tag("vit"):
            a = Tensor(np.zeros(8))
        # released outside the tag scope, still debited to "vit"
        del a
        assert tr.per_tag_live["vit"] == 0


def test_graph_release_is_deterministic():
    tr = AllocTracker()
    with activate(tr):
        x = Tensor(np.zeros((8, 8)), requires_grad=True)
        y = T.matmul(x, x)
        loss = T.sum_all(y)
        assert tr.live_bytes == x.data.nbytes + y.data.nbytes + loss.data.nbytes
        del y  # sum_all's backward reads only y's shape, so y goes with its tensor
        assert tr.live_bytes == x.data.nbytes + loss.data.nbytes
        del loss
        assert tr.live_bytes == x.data.nbytes


def test_a_buffer_wrapped_twice_is_charged_once():
    # the dchag reference's tokenization and its loss both wrap the batch's
    # images: one buffer, one charge, to the tag that saw it first, until
    # the last view goes
    images = np.zeros((2, 3, 4))  # the caller's: it outlives every wrap
    tr = AllocTracker()
    with activate(tr):
        with alloc_tag("tokenize"):
            a = Tensor(images)
        with alloc_tag("decoder"):
            b = Tensor(images)
            view = T.split(T.transpose(b, (0, 2, 1)), 1, (1, 2, 1))[1]
        assert tr.live_bytes == tr.per_tag_live["tokenize"] == images.nbytes
        assert tr.per_tag_peak.get("decoder", 0) == 0
        del a, b
        assert tr.live_bytes == images.nbytes  # the view still holds it
        del view
    assert tr.live_bytes == 0


def test_an_op_buffer_is_charged_until_freed():
    # charged from allocation to the free of the memory itself, whichever
    # array holds it last: here the view a backward closure saved
    tr = AllocTracker()
    with activate(tr):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        h = T.layernorm(T.scale(x, 2.0))  # saves its output and 1/sigma
        y = T.matmul(T.transpose(h, (1, 0)), x)  # saves the transposed view of h
        kept = x.data.nbytes + h.data.nbytes + 4 * 8 + y.data.nbytes
        assert tr.live_bytes == kept
        del h
        assert tr.live_bytes == kept
        del y
    assert tr.live_bytes == x.data.nbytes


def test_a_product_with_a_constant_keeps_only_the_constant():
    # the masked tensor is not saved: only the constant factor's gradient
    # would read it, and that gradient is never needed
    tr = AllocTracker()
    with activate(tr):
        x = Tensor(np.arange(16.0).reshape(4, 4), requires_grad=True)
        mask = Tensor(np.eye(4))
        y = T.scale(x, 2.0)
        out = T.mul(y, mask)
        del y
        assert tr.live_bytes == x.data.nbytes + mask.data.nbytes + out.data.nbytes
        T.backward(T.sum_all(out))
    np.testing.assert_array_equal(x.grad, 2.0 * np.eye(4))
    assert mask.grad is None


@pytest.mark.parametrize("n", [6, T.PHI_BLOCK + 5])
def test_mlp_keeps_its_input_not_its_hidden_activation(monkeypatch, n):
    # two positions of n rows of width one, a hidden width of two, one
    # position per block (as a block of the default size is at the larger
    # n): once the op returns, what it leaves beyond its input and weights
    # is its output; while it ran it held one position's 2n hidden
    # elements, with one block of Phi, then with the output (2n), and in
    # the second block with both, fewer than both positions' 4n
    monkeypatch.setattr(T, "MLP_BLOCK", 1)
    tr = AllocTracker()
    with activate(tr):
        x = Tensor(np.linspace(-4.0, 4.0, 2 * n).reshape(2, n, 1), requires_grad=True)
        w1, b1, w2 = (Tensor(np.full(shape, 0.5), requires_grad=True)
                      for shape in ((1, 2), (2,), (2, 1)))
        h = T.scale(x, 2.0)
        start = tr.live_bytes
        y = T.mlp(h, w1, b1, w2)
        assert tr.peak_bytes == start + 8 * (2 * n + min(2 * n, T.PHI_BLOCK) + 2 * n)
        assert tr.peak_bytes < start + 8 * (4 * n + max(min(4 * n, T.PHI_BLOCK), 2 * n))
        del h  # backward reads it: it stays
        assert tr.live_bytes == start + y.data.nbytes


def tracking_desk(**kw):
    base = dict(channels=4, image_h=8, image_w=8, patch=4, embed=8, depth=1, heads=2,
                mlp_ratio=2, agg_variant="full_cross", decoder_depth=1, decoder_dim=8)
    base.update(kw)
    return ModelConfig(**base)


def test_flops_counted_per_tag():
    tr = AllocTracker()
    with activate(tr):
        with alloc_tag("vit"):
            a = Tensor(np.zeros((3, 4)))
            b = Tensor(np.zeros((4, 5)))
            T.matmul(a, b)
    assert tr.per_tag_flops["vit"] == 2 * 3 * 5 * 4


def test_only_matrix_products_count_flops():
    # elementwise ops, norms and reductions add none; attention adds its
    # projection, 2*n*T*D*3Dl over its n positions, its two products,
    # 4*n*T*T*Dl, and its output projection, 2*n*T*Dl*Do; the pool its
    # scores, 2*n*Tk*D*H, its value projection, 2*n*Tk*D*Dl, its pooling,
    # 2*n*Tk*Dl, and its output projection, 2*n*Dl*Do; the MLP its two
    # products, 2*r*D*Dh and 2*r*Dh*Do over its r rows
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 5, 4)))
    w = Tensor(np.ones((4, 6)))
    tr = AllocTracker()
    with activate(tr), alloc_tag("aggregate"):
        for op in (T.layernorm, T.sum_all, lambda t: T.add(t, t),
                   lambda t: T.add_(T.scale(t, 1.0), t), T.sum_squares,
                   lambda t: T.mul(t, t), lambda t: T.scale(t, 2.0)):
            op(x)
            assert tr.per_tag_flops == {}, op
        wo = Tensor(np.ones((6, 3)))
        T.attention(x, w, None, w, w, wo, 2)
        attention = 2 * 6 * 5 * 4 * 18 + 4 * 6 * 5 * 5 * 6 + 2 * 6 * 5 * 6 * 3
        assert tr.per_tag_flops["aggregate"] == attention
        T.attention_pool(x, Tensor(np.ones((4, 2))), w, wo, 2, 1.0)
        pool = 2 * 6 * 5 * 4 * 2 + 2 * 6 * 5 * 4 * 6 + 2 * 6 * 5 * 6 + 2 * 6 * 6 * 3
        assert tr.per_tag_flops["aggregate"] == attention + pool
        # the context alone forms no output projection; a pool of x itself
        # forms no value projection
        T.attention(x, w, None, w, w, None, 2)
        context = 2 * 6 * 5 * 4 * 18 + 4 * 6 * 5 * 5 * 6
        T.attention_pool(x, Tensor(np.ones((4, 1))), None, Tensor(np.ones((4, 3))), 1, 1.0)
        reduce = 2 * 6 * 5 * 4 * 1 + 2 * 6 * 5 * 4 + 2 * 6 * 4 * 3
        assert tr.per_tag_flops["aggregate"] == attention + pool + context + reduce
        T.mlp(x, w, Tensor(np.ones(6)), Tensor(np.ones((6, 3))))
        mlp = 2 * 30 * 4 * 6 + 2 * 30 * 6 * 3
        assert tr.per_tag_flops["aggregate"] == attention + pool + context + reduce + mlp


def closure_cells(fn):
    """(variable, value) of every cell of `fn`'s closure, and of the
    closures of the functions and tuples it holds."""
    stack = [fn]
    while stack:
        f = stack.pop()
        for var, cell in zip(f.__code__.co_freevars, f.__closure__ or ()):
            held = cell.cell_contents
            yield var, held
            if isinstance(held, types.FunctionType):
                stack.append(held)
            elif isinstance(held, tuple):
                yield from ((var, item) for item in held)


def graph_faults(loss):
    """Walk every node of `loss`'s graph: (faults, arrays checked), where a
    fault is a closure cell holding a Tensor or a node, or a float array
    the active tracker does not charge."""
    faults, checked = set(), set()
    for node in T._topo_order(loss.node):
        if node.backward is None:
            continue
        op = node.backward.__qualname__.split(".")[0]
        for var, held in closure_cells(node.backward):
            if isinstance(held, (Tensor, T.Node)):
                faults.add((op, var, type(held).__name__))
            elif isinstance(held, np.ndarray) and held.dtype.kind == "f":
                checked.add((op, var))
                if not current_tracker().charged(held):
                    faults.add((op, var, "uncharged"))
    return faults, checked


# every buffer that a fused op allocates and its backward reads: the
# attention op's log-sum-exp (its projections and its context it
# recomputes), the pool's log-sum-exp (its scores, values and pooled values
# it recomputes), and layernorm's 1/sigma; the MLP op allocates none (its
# hidden activation it recomputes)
SAVED_OUTSIDE_TENSORS = {("attention", "lse"), ("attention_pool", "lse"), ("layernorm", "inv")}


@pytest.mark.parametrize("variant", ["single_query", "full_cross"])
def test_backward_closures_hold_only_charged_arrays(variant):
    # a closure captures the arrays and plain values its backward reads,
    # never a Tensor or a node, and every float array it holds is charged
    model = tracking_desk(agg_variant=variant)
    batch = make_batch(model, 7, 0, [0, 1])
    for strat in (StrategyConfig(), StrategyConfig(kind="dchag", tp_degree=2, max_group=2)):
        master = create_master(model, strat, RngState(3))
        with activate(AllocTracker()):
            w = {name: Tensor(arr, requires_grad=True) for name, arr in master.items()}
            loss = forward_loss_reference(w, model, strat, batch)
            faults, checked = graph_faults(loss)
        assert faults == set(), strat.kind
        assert SAVED_OUTSIDE_TENSORS <= checked

    for kind, layer_kind in (("tp_only", "cross_attention"), ("dist_token", "cross_attention"),
                             ("dchag", "cross_attention"), ("dchag", "linear")):
        strat = StrategyConfig(kind=kind, tp_degree=2, max_group=2, agg_layer_kind=layer_kind)
        master = create_master(model, strat, RngState(3))

        def program(ctx):
            w = {name: Tensor(arr, requires_grad=True)
                 for name, arr in shard_for_rank(master, strat, ctx.coords[0]).items()}
            return graph_faults(parallel_forward_loss(w, model, strat, batch, ctx))

        for faults, checked in spawn_ranks(ParallelConfig(dchag_tp=2), program).results:
            assert faults == set(), (kind, layer_kind)
            assert SAVED_OUTSIDE_TENSORS <= checked


def snapshot_saved_arrays(monkeypatch) -> list:
    """From now on, each node made records (op, variable, array, copy) of
    every array its backward closure captured, as the node is made."""
    saved = []

    class SnapshotNode(T.Node):
        __slots__ = ()

        def __init__(self, backward, parents):
            super().__init__(backward, parents)
            if backward is not None:
                op = backward.__qualname__.split(".")[0]
                saved.extend((op, var, held, held.copy()) for var, held in closure_cells(backward)
                             if isinstance(held, np.ndarray))

    monkeypatch.setattr(T, "Node", SnapshotNode)
    return saved


def overwritten(saved) -> set:
    """(op, variable) of each saved array that no longer equals its copy."""
    return {(op, var) for op, var, held, copy in saved if not np.array_equal(held, copy)}


@pytest.mark.parametrize("variant", ["single_query", "full_cross"])
def test_no_op_writes_into_an_array_a_backward_saved(monkeypatch, variant):
    # the in-place rule: `add_`, the loss's subtraction, the in-place
    # AllReduce and the ops that fill their own buffers write only into
    # buffers that no backward closure has captured; PyTorch's autograd
    # checks this with a version counter, here every captured array is
    # compared, after the forward, with a copy taken when its node was made
    model = tracking_desk(agg_variant=variant)
    batch = make_batch(model, 7, 0, [0, 1])
    saved = snapshot_saved_arrays(monkeypatch)
    for strat in (StrategyConfig(), StrategyConfig(kind="dchag", tp_degree=2, max_group=2)):
        w = {name: Tensor(arr, requires_grad=True)
             for name, arr in create_master(model, strat, RngState(3)).items()}
        forward_loss_reference(w, model, strat, batch)
        assert saved
        assert overwritten(saved) == set(), strat.kind
        saved.clear()

    for kind, layer_kind in (("tp_only", "cross_attention"), ("dist_token", "cross_attention"),
                             ("dchag", "cross_attention"), ("dchag", "linear")):
        strat = StrategyConfig(kind=kind, tp_degree=2, max_group=2, agg_layer_kind=layer_kind)
        master = create_master(model, strat, RngState(3))

        def program(ctx):
            w = {name: Tensor(arr, requires_grad=True)
                 for name, arr in shard_for_rank(master, strat, ctx.coords[0]).items()}
            parallel_forward_loss(w, model, strat, batch, ctx)
            return overwritten(saved)

        assert spawn_ranks(ParallelConfig(dchag_tp=2), program).results == [set(), set()], \
            (kind, layer_kind)
        assert saved
        saved.clear()


def test_no_closure_holds_a_hidden_activation():
    # the MLP op keeps its input and its weights: the hidden activation, its
    # GELU and GELU's derivative are recomputed in backward, so the only
    # arrays of a hidden width that a closure holds are w1 and b1.  The
    # ViT's hidden width is 24, split to 12 over tp 2; the decoder's is 24.
    model = tracking_desk(mlp_ratio=3)
    batch = make_batch(model, 7, 0, [0, 1])

    def hidden_arrays(w, loss, widths):
        """(closure variable, shape) of each float array of a hidden width
        that a closure holds and that is no w1 or b1."""
        weights = [t.data for name, t in w.items() if name.endswith((".w1", ".b1"))]
        return {(var, held.shape) for node in T._topo_order(loss.node) if node.backward
                for var, held in closure_cells(node.backward)
                if isinstance(held, np.ndarray) and held.ndim and held.shape[-1] in widths
                and not any(np.shares_memory(held, p) for p in weights)}

    master = create_master(model, StrategyConfig(), RngState(3))
    w = {name: Tensor(arr, requires_grad=True) for name, arr in master.items()}
    loss = forward_loss_reference(w, model, StrategyConfig(), batch)
    assert hidden_arrays(w, loss, {24}) == set()
    strat = StrategyConfig(kind="tp_only", tp_degree=2)

    def program(ctx):
        w = {name: Tensor(arr, requires_grad=True)
             for name, arr in shard_for_rank(master, strat, ctx.coords[0]).items()}
        return hidden_arrays(w, parallel_forward_loss(w, model, strat, batch, ctx), {12, 24})

    assert spawn_ranks(ParallelConfig(dchag_tp=2), program).results == [set(), set()]


@pytest.mark.parametrize("variant", ["single_query", "full_cross"])
def test_the_aggregated_stream_goes_before_the_first_vit_block(monkeypatch, variant):
    # no backward reads the aggregation's output, the stream [1, K, 1, D]
    # of the K kept positions, or the rows placed from it; trunk_loss hands
    # the stream to vit_forward, which drops it once placed and the placed
    # rows once the sequence is concatenated, so the stream is freed, and
    # its bytes leave the aggregate tag, before the transformer's first
    # block runs, when the vit tag holds the sequence and the metadata
    # input alone
    model = tracking_desk(agg_variant=variant)
    batch = make_batch(model, 7, 0, [0, 1])
    kept = 2 * (model.seq - model.masked_count)
    stream_bytes = 8 * kept * model.embed
    vit_bytes = 8 * 2 * ((model.seq + 1) * model.embed + 4)
    at_vit, checked = {}, []
    real_vit, real_block = dmodel.vit_forward, dmodel.transformer_block

    def vit(agg, mask, meta, w, model, group):
        assert agg.shape == (1, kept, 1, model.embed) and agg.data.base is None
        live = current_tracker().per_tag_live["aggregate"]
        at_vit[threading.get_ident()] = weakref.ref(agg.data), live
        box = [agg]
        del agg  # the call below takes the stream from the box: no name holds it
        return real_vit(box.pop(), mask, meta, w, model, group)

    def block(x, w, prefix, *args):
        if prefix == "vit.blk0":
            stream, live = at_vit.pop(threading.get_ident())
            tracker = current_tracker()
            checked.append((stream() is None,
                            live - tracker.per_tag_live["aggregate"],
                            tracker.per_tag_live["vit"]))
        return real_block(x, w, prefix, *args)

    monkeypatch.setattr(dmodel, "vit_forward", vit)
    monkeypatch.setattr(dmodel, "transformer_block", block)
    dchag = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
    run_serial_step(model, create_master(model, StrategyConfig(), RngState(3)), batch)
    run_dchag_reference_step(model, dchag, create_master(model, dchag, RngState(3)), batch)
    for kind, layer_kind in (("tp_only", "cross_attention"), ("dist_token", "cross_attention"),
                             ("dchag", "cross_attention"), ("dchag", "linear")):
        strat = StrategyConfig(kind=kind, tp_degree=2, max_group=2, agg_layer_kind=layer_kind)
        run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat,
                        create_master(model, strat, RngState(3)), [batch])
    # two single-process steps, four of two ranks
    assert checked == [(True, stream_bytes, vit_bytes)] * (2 + 4 * 2)


def test_backward_frees_what_it_has_passed():
    # without retain_graph: after backward the tracker holds the leaves and
    # what the caller holds, and no node keeps a closure or, but a leaf, a
    # gradient; a second backward through the graph is an error
    model = tracking_desk()
    master = create_master(model, StrategyConfig(), RngState(3))
    batch = make_batch(model, 7, 0, [0, 1])
    tr = AllocTracker()
    with activate(tr):
        w = {name: Tensor(arr, requires_grad=True) for name, arr in master.items()}
        loss = forward_loss_reference(w, model, StrategyConfig(), batch)
        nodes = T._topo_order(loss.node)
        T.backward(loss)
        assert tr.live_bytes == sum(t.data.nbytes for t in w.values()) + loss.data.nbytes
        assert all(node.backward is None for node in nodes)
        assert all((node.grad is None) == bool(node.parents) for node in nodes)
        assert all(t.grad is not None for t in w.values())
        with pytest.raises(EngineError, match="freed"):
            T.backward(loss)


def test_a_step_returns_the_tracker_to_its_start():
    # the batch and the master parameters are the caller's and outlive the
    # step; their charges go with the step's tensors and closures
    model = tracking_desk()
    batch = make_batch(model, 7, 0, [0, 1])
    master = create_master(model, StrategyConfig(), RngState(3))
    tr = AllocTracker()
    with activate(tr):
        w = {name: Tensor(arr, requires_grad=True) for name, arr in master.items()}
        loss = forward_loss_reference(w, model, StrategyConfig(), batch)
        assert tr.live_bytes > batch.images.nbytes
        T.backward(loss)
        del w, loss
    assert tr.live_bytes == 0
    strat = StrategyConfig(kind="tp_only", tp_degree=2)
    res = run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat,
                          create_master(model, strat, RngState(3)), [batch])
    assert [s.live_bytes for s in res.stats] == [0, 0]


# The Python objects of a graph (Tensor, node, closure, cells, tuples, weak
# references and ndarray headers), which the tracker does not count,
# measured 0.90-1.01 KiB per node on this desk and on both benchmark
# workloads.
OBJECT_BYTES_PER_NODE = 1536


def test_live_bytes_match_tracemalloc_after_a_forward():
    # an independent oracle: with the parameters and the batch made inside
    # the traced region, and the caller's references to them dropped, what
    # tracemalloc sees of a serial forward is the tracker's live bytes plus
    # the graph's Python objects
    model = tracking_desk(channels=24, image_h=32, image_w=32, embed=32, depth=2, heads=4)
    import numpy.random  # noqa: F401  numpy loads it on first use, which is not to be traced
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr = AllocTracker()
        with activate(tr):
            master = create_master(model, StrategyConfig(), RngState(3))
            batch = make_batch(model, 5, 0, range(8))
            w = {name: Tensor(arr, requires_grad=True) for name, arr in master.items()}
            del master
            loss = forward_loss_reference(w, model, StrategyConfig(), batch)
            del batch
            traced = tracemalloc.get_traced_memory()[0] - start
        nodes = len(T._topo_order(loss.node))
    finally:
        tracemalloc.stop()
    assert tr.live_bytes > 2 ** 22, tr.live_bytes
    assert 0 <= traced - tr.live_bytes <= OBJECT_BYTES_PER_NODE * nodes


# `tensor.normal_cdf`'s scratch that no tracker charges: x^2 and the core
# rational's denominator, each as large as its Phi block, which GELU's blocks
# keep at PHI_BLOCK elements or fewer.  Every GELU input of the desk below
# lies in the core, so the tail branch's scratch is never made.
PHI_SCRATCH_BYTES = 2 * 8 * T.PHI_BLOCK


class ForwardTracker(AllocTracker):
    """Charges only memory made after it: the memory under the `existing`
    arrays (the master parameters and the batch), which tracemalloc,
    started after they were made, does not see, is skipped, and so is every
    view of it."""

    def __init__(self, existing):
        super().__init__()
        self.existing = {id(_memory_owner(a)) for a in existing}

    def charge(self, buf, borrowed=False):
        if id(_memory_owner(buf)) not in self.existing:
            super().charge(buf, borrowed)


def peak_desk():
    """A many_channels-shaped desk of batch 4 on which the flat attention op
    (two blocks per sample serially, one at tp 2), the ViT's attention and
    MLP ops (one position per block serially, three at tp 2) and the loss
    (16 of its 128 masked rows per block, 1 MiB of target in all) each run
    several blocks."""
    model = tracking_desk(channels=16, image_h=64, image_w=64, patch=8, embed=64, heads=8,
                          mlp_ratio=4, decoder_dim=16)
    t, hidden = model.seq + 1, model.mlp_ratio * model.embed // 2
    c = model.channels
    assert T._block_length(model.seq, model.heads * c * c, T.ATTENTION_BLOCK) < model.seq
    assert T._block_length(4, 4 * t * t, T.ATTENTION_BLOCK) < 4
    assert T._block_length(4, t * hidden, T.MLP_BLOCK) < 4
    assert model.masked_count * c * model.patch_pixels > T.LOSS_BLOCK
    return model


def traced_forward(model, strat, parallel, monkeypatch):
    """(tracemalloc's peak, the tracker's peak, graph nodes) of one forward
    of `strat`: at tp 2 if `parallel`, with both ranks charging one shared
    tracker, which they may, as one runs at a time; else in one process.
    Each is counted from the forward's start; the master parameters, their
    shards and the batch exist before it.  An AllGather's result is charged
    when the runtime makes it: a rank that is not running holds it
    uncharged until it resumes."""
    batch = make_batch(model, 5, 0, [0, 1, 2, 3])
    master = create_master(model, strat, RngState(3))
    shards = [shard_for_rank(master, strat, r) for r in range(2)] if parallel else [master]
    tr = ForwardTracker([batch.images, batch.meta, batch.mask,
                         *(a for shard in shards for a in shard.values())])
    complete = runtime._Runtime._complete_rendezvous

    def rendezvous(self, key, members):
        complete(self, key, members)
        for r in members:
            tr.charge(self._mailbox[r])

    monkeypatch.setattr(runtime._Runtime, "_complete_rendezvous", rendezvous)

    def forward(shard, ctx=None):
        with activate(tr):
            w = {name: Tensor(arr, requires_grad=True) for name, arr in shard.items()}
            if ctx is None:
                return forward_loss_reference(w, model, strat, batch)
            return parallel_forward_loss(w, model, strat, batch, ctx)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        if parallel:
            losses = spawn_ranks(ParallelConfig(dchag_tp=2),
                                 lambda ctx: forward(shards[ctx.coords[0]], ctx)).results
        else:
            losses = [forward(master)]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, tr.peak_bytes, sum(len(T._topo_order(loss.node)) for loss in losses)


@pytest.mark.parametrize("strat, parallel", [
    (StrategyConfig(), False),
    (StrategyConfig(kind="dchag", tp_degree=2, max_group=4), False),
    (StrategyConfig(kind="tp_only", tp_degree=2), True),
    (StrategyConfig(kind="dist_token", tp_degree=2), True),
    (StrategyConfig(kind="dchag", tp_degree=2, max_group=4), True),
    (StrategyConfig(kind="dchag", tp_degree=2, max_group=4, agg_layer_kind="linear"), True)],
    ids=["serial", "dchag-reference", "tp_only", "dist_token", "dchag", "dchag-linear"])
def test_the_forward_peak_is_the_trackers(monkeypatch, strat, parallel):
    # an independent oracle of the peak: tracemalloc's peak over one forward
    # is at least the tracker's, as every charged byte is allocated, and
    # above it by no more than the graph's Python objects and normal_cdf's
    # uncharged scratch (PHI_SCRATCH_BYTES).  An uncharged copy of a
    # whole-layer activation, held beside a fused op's or the loss's block,
    # would show: the desk's target alone is 1 MiB, above that bound, and a
    # loss that gathered it whole, uncharged, failed every case here.
    traced, charged, nodes = traced_forward(peak_desk(), strat, parallel, monkeypatch)
    assert charged > 2 ** 22, charged
    assert 0 <= traced - charged <= OBJECT_BYTES_PER_NODE * nodes + PHI_SCRATCH_BYTES


# What an op may allocate beyond what it charges, on the inputs below: numpy's
# ufunc buffer (`np.getbufsize()` elements), which a broadcast elementwise
# pass makes, and Python objects and small index arrays (OP_OBJECT_BYTES).
# normal_cdf's uncharged scratch is two arrays of its Phi block (x^2 and D).
# Every allowance is below the smallest block its op walks, so a second block,
# or any other copy of a block, that an op held uncharged would show.
UFUNC_BUFFER_BYTES = 8 * np.getbufsize()
OP_OBJECT_BYTES = 24 * 2 ** 10


def per_op_cases():
    """(name, make the inputs, the op, allowance) on peak_desk's shapes, with
    weights at the scale of the desk's, so that every GELU input lies in
    Phi's core: the ViT's attention (one position per block) and MLP (one
    position's 65x256 hidden layer per block), the flat layer's attention
    over a transposed token stack (32 positions per block), single_query's
    pool and full_cross's reduce, layernorm and the loss (16 of 128 masked
    rows per block)."""
    model = peak_desk()
    b, s, c, d, heads = 4, model.seq, model.channels, model.embed, model.heads
    hidden = model.mlp_ratio * d
    gen = RngState(8)

    def leaf(*shape, scale=1.0):
        return Tensor(gen.normal(shape) * scale, requires_grad=True)

    def output(*shape):  # an op output, as every op's input in the model is
        return T.scale(leaf(*shape), 1.0)

    def weights(*shapes):
        return tuple(leaf(*shape, scale=0.02) for shape in shapes)

    batch = make_batch(model, 5, 0, [0, 1, 2, 3])
    rows = dmodel.masked_rows(batch.mask)
    width = c * model.patch_pixels
    attn = ((d, d), (d,), (d, d), (d, d), (d, d))
    phi_scratch = 2 * 8 * min(T.PHI_BLOCK, (s + 1) * hidden)
    return [
        ("attention", lambda: (output(b, s + 1, d), *weights(*attn)),
         lambda *a: T.attention(*a, heads), UFUNC_BUFFER_BYTES + OP_OBJECT_BYTES),
        ("attention-slab", lambda: (output(b, c, s, d), *weights(*attn)),
         lambda x, *a: T.attention(T.transpose(x, (0, 2, 1, 3)), *a, heads),
         UFUNC_BUFFER_BYTES + OP_OBJECT_BYTES),
        ("attention-context", lambda: (output(b, s, c, d), *weights(*attn[:4])),
         lambda *a: T.attention(*a, None, heads), UFUNC_BUFFER_BYTES + OP_OBJECT_BYTES),
        ("attention_pool", lambda: (output(b, s, c, d), *weights((d, heads), (d, d), (d, d))),
         lambda *a: T.attention_pool(*a, heads, 1.0), OP_OBJECT_BYTES),
        ("attention_pool-reduce", lambda: (output(b, s, c, d), *weights((d, 1), (d, d))),
         lambda x, q, wo: T.attention_pool(x, q, None, wo, 1, 1.0), OP_OBJECT_BYTES),
        ("mlp", lambda: (output(b, s + 1, d), *weights((d, hidden), (hidden,), (hidden, d))),
         T.mlp, phi_scratch + OP_OBJECT_BYTES),
        ("layernorm", lambda: (output(b, s + 1, d),), T.layernorm,
         UFUNC_BUFFER_BYTES + OP_OBJECT_BYTES),
        ("masked_mse", lambda: (output(len(rows), width),),
         lambda pred: dmodel.masked_mse(pred, batch.images, rows, model), OP_OBJECT_BYTES),
    ]


@pytest.mark.parametrize("case", per_op_cases(), ids=lambda case: case[0])
def test_each_op_allocates_only_what_it_charges(case):
    # a per-op oracle of the tracker: tracemalloc's rise over one call of the
    # op is the tracker's rise, as every charged byte is allocated, to within
    # the op's allowance.  Sharper than the whole-forward oracle above: a loss
    # that gathered each target block before it freed the one before (one
    # uncharged 128 KiB block) passed every case there and fails here
    _, make, op, allowance = case
    for _ in range(2):  # the first call warms numpy's caches
        tr = AllocTracker()
        with activate(tr):
            inputs = make()
            tr.peak_bytes = start = tr.live_bytes  # count from the op's start
            tracemalloc.start()
            try:
                traced_start = tracemalloc.get_traced_memory()[0]
                op(*inputs)
                traced = tracemalloc.get_traced_memory()[1] - traced_start
            finally:
                tracemalloc.stop()
    charged = tr.peak_bytes - start
    assert charged >= 2 ** 17, charged
    assert 0 <= traced - charged <= allowance


def backward_cases():
    """(name, the block constant and its value, make the op's output) for
    each fused op whose backward walks blocks, on a transposed token stack
    [B, S, C, D], the view a token slab arrives as at B = 1, so every block
    of x is copied to rows: attention over blocks of two positions with a
    query bias, over blocks of two of a position's four heads without one,
    and the MLP over blocks of two positions.  `make` returns the output with the
    number of its blocks of positions, its whole-layer size (the
    elements of dq, dk and dv, or of the hidden layer and its GELU, for
    every position) and its stated allowance in elements."""
    b, s, c, d, heads, hidden = 2, 24, 16, 32, 4, 128
    n, gen = b * s, RngState(9)

    def leaf(*shape, scale=1.0):
        return Tensor(gen.normal(shape) * scale, requires_grad=True)

    def stack():
        return T.transpose(leaf(b, c, s, d), (0, 2, 1, 3))

    def attention(bias, blk, hb):
        # the recomputed q, k, v and context, the context's gradient and
        # dq, dk and dv (8 blocks of blk*C*D); one block of x copied to rows
        # and one term of dx (blk*C*D each); the logits, their gradient and
        # the row dots; one fold of the weight gradients (4*D*D, and D for
        # the bias)
        def make():
            ws = (leaf(d, d, scale=0.1), leaf(d, scale=0.1) if bias else None,
                  *(leaf(d, d, scale=0.1) for _ in range(3)))
            allowance = 10 * blk * c * d + blk * hb * c * (2 * c + 1) + 4 * d * d + d
            return T.attention(stack(), *ws, heads), n // blk, 3 * n * c * d, allowance
        return make

    def mlp():
        # the hidden block, its GELU (which then holds da) and normal_cdf's
        # x^2, Phi and denominator, each a block here (PHI_BLOCK is larger);
        # one block of x copied to rows; one fold of a weight gradient
        def make():
            ws = leaf(d, hidden, scale=0.1), leaf(hidden, scale=0.1), leaf(hidden, d, scale=0.1)
            allowance = 5 * 2 * c * hidden + 2 * c * d + d * hidden + hidden
            return T.mlp(stack(), *ws), n // 2, 2 * n * c * hidden, allowance
        return make

    return [("attention-blocks", "ATTENTION_BLOCK", 2 * heads * c * c, attention(True, 2, heads)),
            ("attention-head-groups", "ATTENTION_BLOCK", 2 * c * c, attention(False, 1, 2)),
            ("mlp-blocks", "MLP_BLOCK", 2 * c * hidden, mlp())]


@pytest.mark.parametrize("case", backward_cases(), ids=lambda case: case[0])
def test_a_fused_backward_holds_one_block(monkeypatch, case):
    # a backward oracle of the fused ops: tracemalloc's rise over one call of
    # the op's backward closure is its results, x's gradient and the weight
    # gradients, plus what one block holds, to within Python's objects.
    # Whole dq, dk and dv, or a whole hidden layer and its GELU, exceed that
    # bound: the check sees a backward that forms any of them for every
    # position
    _, constant, value, make = case
    monkeypatch.setattr(T, constant, value)
    for _ in range(2):  # the first call warms numpy's caches
        out, blocks, whole, allowance = make()
        g = np.ones(out.shape)
        back = out.node.backward
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grads = back(g)
            traced = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    results = 8 * sum(a.size for a in grads)
    assert blocks >= 12
    assert allowance < whole
    assert results <= traced <= results + 8 * allowance + OP_OBJECT_BYTES, (
        f"{(traced - results) / 2 ** 10:.1f} KiB above the results")
