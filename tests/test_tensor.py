import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dchag import costmodel
from dchag import tensor as T
from dchag.tensor import Tensor, ShapeError, EngineError
from dchag.tracking import AllocTracker, activate

from conftest import rel_err, check_grad


class TestMatmul:
    def test_identity(self, rng):
        x = Tensor(rng.normal((2, 5)))
        out = T.matmul(Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[17.0], [39.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_vs_finite_differences(self, rng):
        ts = {
            "a": Tensor(rng.normal((4, 5)), requires_grad=True),
            "b": Tensor(rng.normal((5, 3)), requires_grad=True),
        }
        check_grad(lambda: T.sum_all(T.matmul(ts["a"], ts["b"])), ts, tol=1e-6)

    def test_batched_broadcast_grad(self, rng):
        # stacked activations against a shared weight, the dominant pattern
        ts = {
            "a": Tensor(rng.normal((2, 3, 4, 5)), requires_grad=True),
            "w": Tensor(rng.normal((5, 3)), requires_grad=True),
        }
        check_grad(lambda: T.sum_all(T.matmul(ts["a"], ts["w"])), ts, tol=1e-6)

    def test_channelwise_weights_broadcast(self, rng):
        # [B,C,S,K] @ [C,K,D]: per-channel weight stack broadcast over batch
        ts = {
            "a": Tensor(rng.normal((2, 3, 4, 5)), requires_grad=True),
            "w": Tensor(rng.normal((3, 5, 2)), requires_grad=True),
        }
        loss = lambda: T.sum_all(T.mul(m := T.matmul(ts["a"], ts["w"]), m))
        check_grad(loss, ts, tol=1e-6)


def _sum_to(x, shape):
    """Sum the broadcast axes of `x` away, leaving `shape`."""
    x = x.sum(axis=tuple(range(x.ndim - len(shape))))
    return x.sum(axis=tuple(i for i, n in enumerate(shape) if n == 1), keepdims=True)


@st.composite
def _matmul_operands(draw):
    """Operands of every broadcast pattern matmul meets: a 2-D or 3-D `b`,
    `a` with or without leading axes (some of size 1, so `a` broadcasts
    against a 3-D `b`), laid out contiguous or as a transposed view."""
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    b_lead = draw(st.lists(st.integers(1, 3), max_size=1))
    a_lead = draw(st.lists(st.integers(1, 3), max_size=3))
    if b_lead and a_lead:
        a_lead[-1] = 1 if draw(st.booleans()) else b_lead[0]
    a_shape = (*a_lead, m, k)
    perm = draw(st.permutations(range(len(a_shape))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    gen = np.random.default_rng(seed)
    base = gen.standard_normal([a_shape[i] for i in perm])
    a = base.transpose(np.argsort(perm))  # a view whose memory order is `perm`
    b = gen.standard_normal((*b_lead, k, n))
    g = gen.standard_normal(np.broadcast_shapes(a.shape[:-1] + (n,), b.shape[:-2] + (1, n)))
    return a, b, g


class TestMatmulBackward:
    @settings(max_examples=150)
    @given(_matmul_operands())
    def test_grads_equal_batched_then_summed(self, operands):
        a, b, g = operands
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        T.backward(T.sum_all(T.mul(T.matmul(ta, tb), Tensor(g))))
        da = _sum_to(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
        db = _sum_to(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
        assert ta.grad.shape == a.shape and tb.grad.shape == b.shape
        assert rel_err(ta.grad, da) < 1e-12
        assert rel_err(tb.grad, db) < 1e-12

    def test_shared_weight_grad_has_no_per_position_transient(self, rng):
        # [B,S,k,D] as the transposed view the aggregation layers pass in; one
        # D x D matrix per (b, s) position would be a 32 MiB transient
        a = Tensor(rng.normal((4, 4, 256, 64)).transpose(0, 2, 1, 3), requires_grad=True)
        w = Tensor(rng.normal((64, 64)), requires_grad=True)
        loss = T.sum_all(T.matmul(a, w))
        tracemalloc.start()
        try:
            T.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, f"backward peak {peak / 2 ** 20:.1f} MiB"


class TestSoftmax:
    def test_single_element(self):
        out = T.softmax(Tensor([7.0]), axis=-1)
        assert out.data[0] == 1.0

    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_extreme_logits_match_extended_precision(self):
        import mpmath

        mpmath.mp.dps = 60
        logits = [1000.0, 0.0]
        out = T.softmax(Tensor(logits), axis=-1)
        assert np.isfinite(out.data).all()
        es = [mpmath.exp(v) for v in logits]
        tot = sum(es)
        exact = np.array([float(e / tot) for e in es])
        np.testing.assert_allclose(out.data, exact, rtol=1e-12, atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        out = T.softmax(Tensor(rng.normal((3, 7))), axis=-1)
        assert (out.data > 0).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_grad(self, rng):
        ts = {"x": Tensor(rng.normal((3, 5)), requires_grad=True)}
        w = rng.normal((3, 5))  # break symmetry so grads are generic
        check_grad(lambda: T.sum_all(T.mul(T.softmax(ts["x"], -1), Tensor(w))), ts)


def _unfused_attention(q, k, v, n_heads):
    """The attention chain the fused op replaces: split heads, q·kᵀ, scale,
    softmax, the product with v, merge heads."""
    def split(x):
        *lead, tn, dl = x.shape
        x = T.reshape(x, (*lead, tn, n_heads, dl // n_heads))
        nd = x.ndim
        return T.transpose(x, (*range(nd - 3), nd - 2, nd - 3, nd - 1))

    qh, kh, vh = split(q), split(k), split(v)
    nd = kh.ndim
    kt = T.transpose(kh, (*range(nd - 2), nd - 1, nd - 2))
    logits = T.scale(T.matmul(qh, kt), 1.0 / np.sqrt(q.shape[-1] // n_heads))
    ctx = T.matmul(T.softmax(logits, axis=-1), vh)
    *lead, h, tn, dh = ctx.shape
    nd = ctx.ndim
    ctx = T.transpose(ctx, (*range(nd - 3), nd - 2, nd - 3, nd - 1))
    return T.reshape(ctx, (*lead, tn, h * dh))


@st.composite
def _attention_operands(draw):
    """q, k, v, an output gradient and a head count: 1-4 heads, Tq != Tk,
    0-3 leading axes, sometimes a [1, Dl] q against stacked keys, and
    sometimes logits near +-1000, where probabilities only survive the
    recompute if the log-sum-exp is taken after the row maximum."""
    heads = draw(st.integers(1, 4))
    large = draw(st.booleans())
    dh = draw(st.integers(2 if large else 1, 3))
    dl = heads * dh
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    learned_query = bool(lead) and draw(st.booleans())
    tq = 1 if learned_query else draw(st.integers(1, 5))
    # one key makes the q and k gradients zero, where relative error says nothing
    tk = draw(st.integers(2, 5).filter(lambda n: n != tq))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = gen.standard_normal((tq, dl) if learned_query else (*lead, tq, dl))
    k = gen.standard_normal((*lead, tk, dl))
    v = gen.standard_normal((*lead, tk, dl))
    if large:
        # the first feature of every head: 1 in every key, +-1000*sqrt(dh) in
        # q, so each row's logits sit at +-1000 and differ by O(1) over keys
        k[..., ::dh] = 1.0
        q[..., ::dh] = 1000.0 * np.sqrt(dh) * gen.choice([-1.0, 1.0], q[..., ::dh].shape)
    g = gen.standard_normal((*lead, tq, dl))
    return q, k, v, g, heads


class TestAttention:
    @settings(max_examples=150)
    @given(_attention_operands())
    def test_matches_unfused_chain(self, operands):
        q, k, v, g, heads = operands
        got, want = [], []
        for fn, into in ((T.attention, got), (_unfused_attention, want)):
            ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
            out = fn(*ts, heads)
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            into += [out.data] + [t.grad for t in ts]
        for name, a, b in zip(("out", "dq", "dk", "dv"), got, want):
            assert a.shape == b.shape and np.isfinite(a).all(), name
            assert rel_err(a, b) < 1e-12, name

    @settings(max_examples=100)
    @given(_attention_operands(), st.data())
    def test_block_size_changes_no_bit_and_no_estimate(self, operands, data):
        # one position per block, one block of every position, and blocks that
        # leave a ragged last block wherever there are three or more positions
        q, k, v, g, heads = operands
        tq, dl = q.shape[-2:]
        tk = k.shape[-2]
        n = int(np.prod(k.shape[:-2]))
        rows = data.draw(st.sampled_from([r for r in range(2, n) if n % r] or [1]))
        results = []
        for block in (1, 2 ** 40, rows * heads * tq * tk):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "ATTENTION_BLOCK", block)
                tracker = AllocTracker()
                with activate(tracker):
                    ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
                    before = tracker.stats()
                    out = T.attention(*ts, heads)
                    after = tracker.stats()
                kept, high = costmodel._attention(n, heads, tq, tk, dl)
                assert after.live_bytes - before.live_bytes == 8 * kept
                assert after.peak_bytes - before.live_bytes == 8 * high
                T.backward(T.sum_all(T.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in ts])
        for name, *arrays in zip(("out", "dq", "dk", "dv"), *results):
            assert all(np.array_equal(a, arrays[0]) for a in arrays[1:]), name

    def test_grad_multihead_leading_axes(self, rng):
        ts = {n: Tensor(rng.normal((2, 3, t, 6)), requires_grad=True)
              for n, t in (("q", 4), ("k", 5), ("v", 5))}
        w = rng.normal((2, 3, 4, 6))
        check_grad(lambda: T.sum_all(T.mul(T.attention(ts["q"], ts["k"], ts["v"], 3),
                                           Tensor(w))), ts)

    def test_grad_learned_query_against_stacked_keys(self, rng):
        ts = {"q": Tensor(rng.normal((1, 4)), requires_grad=True),
              "k": Tensor(rng.normal((3, 2, 5, 4)), requires_grad=True),
              "v": Tensor(rng.normal((3, 2, 5, 4)), requires_grad=True)}
        w = rng.normal((3, 2, 1, 4))
        check_grad(lambda: T.sum_all(T.mul(T.attention(ts["q"], ts["k"], ts["v"], 2),
                                           Tensor(w))), ts)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 6))),
                        Tensor(np.zeros((3, 6))), 2)
        with pytest.raises(ShapeError, match="heads"):
            T.attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6))),
                        Tensor(np.zeros((3, 6))), 4)


def _reachable_arrays(t):
    """Every numpy array reachable from tensor `t` through its data, its
    parents and the cells of its backward closure."""
    found, seen, stack = [], set(), [t]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, Tensor):
            stack += [obj.data, obj._backward, *obj._parents]
        elif callable(obj):
            stack += [c.cell_contents for c in obj.__closure__ or ()]
        elif isinstance(obj, (tuple, list)):
            stack += obj
    return found


class TestAttentionMemory:
    def test_forward_charges_output_lse_and_transient_logits(self, rng, monkeypatch):
        # one block of both positions; then blocks of 2, 2 and 1 of 5 positions
        tq, tk, dl, heads = 6, 9, 4, 2
        for positions, block_rows in ((2, None), (5, 2)):
            if block_rows is not None:
                monkeypatch.setattr(T, "ATTENTION_BLOCK", block_rows * heads * tq * tk)
            blk = min(positions, T.attention_block_rows(heads, tq, tk))
            assert blk == (block_rows or positions)
            tracker = AllocTracker()
            with activate(tracker):
                q = Tensor(rng.normal((positions, tq, dl)), requires_grad=True)
                k, v = (Tensor(rng.normal((positions, tk, dl)), requires_grad=True)
                        for _ in range(2))
                before = tracker.stats()
                out = T.attention(q, k, v, heads)
                after = tracker.stats()
                kept = out.data.nbytes + 8 * positions * heads * tq  # output and log-sum-exp
                block = 8 * blk * (heads * tq * tk + heads * tq + tq * dl)  # logits, row sums, q
                assert before.peak_bytes == before.live_bytes
                assert after.live_bytes - before.live_bytes == kept
                assert after.peak_bytes - before.live_bytes == kept + block
                assert max(a.size for a in _reachable_arrays(out)) < positions * heads * tq * tk
                del out
                assert tracker.live_bytes == before.live_bytes

    def test_forward_charges_a_copying_flatten(self, rng):
        # q [1, 3, ...] against k, v [2, 3, ...]: the broadcast q cannot merge
        # its leading axes into positions as a view, so it is copied
        tq, tk, dl, heads = 2, 3, 4, 2
        tracker = AllocTracker()
        with activate(tracker):
            q = Tensor(rng.normal((1, 3, tq, dl)), requires_grad=True)
            k, v = (Tensor(rng.normal((2, 3, tk, dl)), requires_grad=True) for _ in range(2))
            before = tracker.stats()
            out = T.attention(q, k, v, heads)
            after = tracker.stats()
        kept = out.data.nbytes + 8 * 6 * heads * tq
        block = 8 * 6 * (heads * tq * tk + heads * tq + tq * dl)
        assert after.live_bytes - before.live_bytes == kept
        assert after.peak_bytes - before.live_bytes == kept + block + 8 * 6 * tq * dl

    def test_backward_holds_at_most_two_logit_buffers(self, rng):
        # a long_sequence vit block's attention on one rank: [B, T, D] = [4, 257, 64];
        # one position's 8*257*257 logits exceed a block, so a block is one position
        b, t, d, heads = 4, 257, 64, 8
        assert T.attention_block_rows(heads, t, t) == 1
        q, k, v = (Tensor(rng.normal((b, t, d)), requires_grad=True) for _ in range(3))
        out = T.attention(q, k, v, heads)
        loss = T.sum_all(T.mul(out, Tensor(rng.normal(out.shape))))
        block = 8 * heads * t * t
        # dq, dk, dv, and the three output-sized arrays the engine holds above
        # the op: the gradients of `out` and of the product, and the product's
        # gradient for the constant factor
        grads = 6 * 8 * b * t * d
        tracemalloc.start()
        try:
            T.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 256 KiB covers the scaled-q and row-sum blocks (145 KiB) and Python objects
        assert peak < 2 * block + grads + 2 ** 18, f"backward peak {peak / 2 ** 20:.2f} MiB"


class TestLayernorm:
    def test_constant_input_returns_beta(self, rng):
        gamma = Tensor(np.ones(4))
        beta = Tensor(rng.normal((4,)))
        x = Tensor(np.full((2, 4), 3.7))
        out = T.layernorm(x, gamma, beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (2, 4)), atol=1e-9)

    def test_zero_mean(self):
        out = T.layernorm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert abs(out.data.mean()) < 1e-12

    def test_grad(self, rng):
        ts = {
            "x": Tensor(rng.normal((2, 3, 6)), requires_grad=True),
            "g": Tensor(rng.normal((6,)), requires_grad=True),
            "b": Tensor(rng.normal((6,)), requires_grad=True),
        }
        w = rng.normal((2, 3, 6))
        check_grad(
            lambda: T.sum_all(T.mul(T.layernorm(ts["x"], ts["g"], ts["b"]), Tensor(w))),
            ts,
            tol=1e-5,
        )


class TestGelu:
    def test_grad(self, rng):
        ts = {"x": Tensor(rng.normal((4, 4)), requires_grad=True)}
        check_grad(lambda: T.sum_all(T.gelu(ts["x"])), ts, tol=1e-5)

    def test_values(self):
        out = T.gelu(Tensor([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-12)


class TestRearrange:
    def test_unfold_shape(self, rng):
        x = Tensor(rng.normal((3, 64, 64)))
        out = T.unfold_patches(x, 16)
        assert out.shape == (3, 16, 256)

    def test_unfold_is_pixel_permutation(self):
        x = Tensor(np.arange(2 * 3 * 8 * 12, dtype=float).reshape(2, 3, 8, 12))
        out = T.unfold_patches(x, 4)
        assert out.shape == (2, 3, 6, 16)
        np.testing.assert_array_equal(np.sort(out.data, axis=None), x.data.ravel())
        # row s of channel c holds patch s's pixels, row-major within the patch
        np.testing.assert_array_equal(out.data[1, 2, 4], x.data[1, 2, 4:8, 4:8].ravel())

    def test_unfold_rejects_indivisible(self):
        with pytest.raises(ShapeError):
            T.unfold_patches(Tensor(np.zeros((1, 10, 10))), 4)

    def test_unfold_grad(self, rng):
        ts = {"x": Tensor(rng.normal((1, 2, 4, 4)), requires_grad=True)}
        w = rng.normal((1, 2, 4, 4))
        check_grad(
            lambda: T.sum_all(T.mul(T.unfold_patches(ts["x"], 2), Tensor(w.reshape(1, 2, 4, 4)))),
            ts,
        )

    def test_concat_narrow_identity(self, rng):
        x = Tensor(rng.normal((2, 6, 3)))
        parts = [T.narrow(x, 1, 0, 2), T.narrow(x, 1, 2, 4)]
        np.testing.assert_array_equal(T.concat(parts, axis=1).data, x.data)

    def test_concat_grad(self, rng):
        ts = {
            "a": Tensor(rng.normal((2, 3)), requires_grad=True),
            "b": Tensor(rng.normal((2, 2)), requires_grad=True),
        }
        w = rng.normal((2, 5))
        check_grad(lambda: T.sum_all(T.mul(T.concat([ts["a"], ts["b"]], 1), Tensor(w))), ts)

    def test_transpose_reshape_grad(self, rng):
        ts = {"x": Tensor(rng.normal((2, 3, 4)), requires_grad=True)}
        w = rng.normal((4, 6))

        def f():
            y = T.transpose(ts["x"], (2, 0, 1))
            y = T.reshape(y, (4, 6))
            return T.sum_all(T.mul(y, Tensor(w)))

        check_grad(f, ts)


class TestBackward:
    def test_sum_grad_is_ones(self, rng):
        x = Tensor(rng.normal((3, 3)), requires_grad=True)
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 3)))

    def test_square_grad(self, rng):
        x = Tensor(rng.normal((4,)), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_multi_use_accumulates(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        y = T.add(x, x)
        T.backward(T.sum_all(y))
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_shared_gradient_is_not_written_by_later_accumulation(self, rng):
        # the outer add hands one array to both of its parents, and the inner
        # add hands that same array to x and y; x then accumulates 2*g from the
        # scale, which must leave y's gradient (the shared array) untouched
        ts = {
            "x": Tensor(rng.normal((3, 4)), requires_grad=True),
            "y": Tensor(rng.normal((3, 4)), requires_grad=True),
        }
        w = rng.normal((3, 4))

        def f():
            s = T.add(T.add(ts["x"], ts["y"]), T.scale(ts["x"], 2.0))
            return T.sum_all(T.mul(s, Tensor(w)))

        check_grad(f, ts)
        np.testing.assert_array_equal(ts["y"].grad, w)
        np.testing.assert_array_equal(ts["x"].grad, w + 2.0 * w)

    def test_non_scalar_rejected(self, rng):
        x = Tensor(rng.normal((2,)), requires_grad=True)
        with pytest.raises(EngineError):
            T.backward(T.add(x, x))

    def test_repeat_backward_deterministic(self, rng):
        data = rng.normal((5, 5))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            y = T.softmax(T.matmul(x, x), axis=-1)
            T.backward(T.sum_all(T.mul(y, y)))
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())
