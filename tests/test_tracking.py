import numpy as np

from dchag import tensor as T
from dchag.config import ModelConfig, StrategyConfig
from dchag.model import forward_loss_serial
from dchag.params import create_master
from dchag.rng import RngState
from dchag.synthetic import make_batch
from dchag.tensor import Tensor
from dchag.tracking import AllocTracker, activate, alloc_tag


def test_views_not_charged():
    tr = AllocTracker()
    with activate(tr):
        x = Tensor(np.zeros((4, 4)))
        base = tr.live_bytes
        assert base == 128
        y = T.transpose(x, (1, 0))
        z = T.narrow(x, 0, 0, 2)
        assert tr.live_bytes == base
        del y, z, x
    assert tr.live_bytes == 0


def test_view_keeps_its_owners_charge():
    # a gradient-free view outlives the Tensor that owns its buffer: the
    # charge lasts until the view, and so the buffer, is gone
    tr = AllocTracker()
    with activate(tr):
        owner = T.scale(Tensor(np.ones((4, 4))), 2.0)
        view = T.narrow(T.transpose(owner, (1, 0)), 0, 1, 2)
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
        held = tr.live_bytes
        assert held > 0
        del y  # still alive through loss's parents
        assert tr.live_bytes == held
        del loss
        assert tr.live_bytes == x.data.nbytes


def test_flops_counted_per_tag():
    tr = AllocTracker()
    with activate(tr):
        with alloc_tag("vit"):
            a = Tensor(np.zeros((3, 4)))
            b = Tensor(np.zeros((4, 5)))
            T.matmul(a, b)
    assert tr.per_tag_flops["vit"] == 2 * 3 * 5 * 4


def test_buffers_held_outside_the_graph():
    # Every float array a backward closure of a serial step holds shares
    # memory with a Tensor of the graph, and so is charged with it, but
    # these three: attention's log-sum-exp, which the op charges itself, and
    # the two buffers `tensor` names as uncharged.  An op that hides a new
    # buffer adds to the set.
    model = ModelConfig(channels=4, image_h=8, image_w=8, patch=4, embed=8, depth=1,
                        heads=2, mlp_ratio=2, agg_variant="full_cross", decoder_depth=1,
                        decoder_dim=8)
    master = create_master(model, StrategyConfig(), RngState(3))
    w = {name: Tensor(arr, requires_grad=True) for name, arr in master.items()}
    loss = forward_loss_serial(w, model, make_batch(model, 7, 0, [0, 1]))
    T.backward(loss)
    graph = T._topo_order(loss)
    hidden = set()
    for node in graph:
        if node._backward is None:
            continue
        back = node._backward
        for var, cell in zip(back.__code__.co_freevars, back.__closure__ or ()):
            held = cell.cell_contents
            if (isinstance(held, np.ndarray) and held.dtype.kind == "f"
                    and not any(np.may_share_memory(held, t.data) for t in graph)):
                hidden.add((back.__qualname__.split(".")[0], var))
    assert hidden == {("attention", "lse"), ("gelu", "phi"), ("layernorm", "inv")}
