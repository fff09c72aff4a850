import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dchag import costmodel
from dchag import tensor as T
from dchag.rng import RngState
from dchag.tensor import Tensor, ShapeError, EngineError
from dchag.tracking import AllocTracker, activate

from conftest import check_grad, reachable_arrays, rel_err


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

    @pytest.mark.parametrize("a_needs_grad", [False, True])
    def test_a_constant_operand_gets_no_gradient(self, rng, a_needs_grad):
        # patch rows times the tokenizer's weights: the constant's gradient is
        # not formed, and the product holds nothing of the other operand,
        # whose own gradient does not read it
        a, b, g = rng.normal((2, 3, 5, 4)), rng.normal((4, 6)), rng.normal((2, 3, 5, 6))
        ta, tb = Tensor(a, requires_grad=a_needs_grad), Tensor(b, requires_grad=not a_needs_grad)
        out = T.matmul(ta, tb)
        needy = ta if a_needs_grad else tb
        assert not any(np.shares_memory(x, needy.data) for x in reachable_arrays(out))
        da, db = out.node.backward(g)
        if a_needs_grad:
            assert db is None and rel_err(da, g @ b.T) < 1e-12
        else:
            assert da is None and rel_err(db, _sum_to(np.swapaxes(a, -1, -2) @ g, b.shape)) < 1e-12


def _probabilities(logits):
    """Softmax of the rows of `logits` [R, Tk] (R <= Tk), or of one row
    [Tk], through the fused op: one head over Tk tokens that are the
    identity rows, so k, v and the output projection are the identity and
    q is wq, whose first R rows are the logits (scaled by sqrt(Tk) to undo
    the op's scale); each output row is then one row of probabilities."""
    logits = np.asarray(logits, dtype=np.float64)
    rows = np.atleast_2d(logits)
    r, tk = rows.shape
    wq = np.zeros((tk, tk))
    wq[:r] = rows * np.sqrt(tk)
    eye = Tensor(np.eye(tk))
    return T.attention(eye, Tensor(wq), None, eye, eye, eye, 1).data[:r].reshape(logits.shape)


def _projections(x, wq, wk, wv):
    """x's product with [wq | wk | wv], as the op forms it, split into q, k, v."""
    qkv = np.matmul(x, np.concatenate((wq, wk, wv), axis=1))
    return np.split(qkv, 3, axis=-1)


class TestSoftmax:
    """The softmax inside `tensor.attention`, the engine's only softmax over
    more than a pool's keys."""

    def test_single_element(self, rng):
        # one token: its probability is exactly 1, so the context is the op's
        # value projection, and the output its product with wo, bit for bit
        x, wq, wk, wv = rng.normal((2, 1, 4)), *(rng.normal((4, 6)) for _ in range(3))
        wo = rng.normal((6, 3))
        out = T.attention(Tensor(x), Tensor(wq), None, Tensor(wk), Tensor(wv), Tensor(wo), 2)
        np.testing.assert_array_equal(out.data, np.matmul(_projections(x, wq, wk, wv)[2], wo))

    def test_symmetry(self, rng):
        # equal logits (q = 0) weigh every token alike: the mean of the v rows
        x, wk, wv = rng.normal((2, 3, 4)), rng.normal((4, 4)), rng.normal((4, 4))
        out = T.attention(Tensor(x), Tensor(np.zeros((4, 4))), None, Tensor(wk), Tensor(wv),
                          Tensor(np.eye(4)), 2)
        v = _projections(x, np.zeros((4, 4)), wk, wv)[2]
        assert rel_err(out.data, np.broadcast_to(v.mean(axis=-2, keepdims=True), v.shape)) < 1e-15
        np.testing.assert_array_equal(_probabilities([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_extreme_logits_match_extended_precision(self):
        mpmath.mp.dps = 60
        logits = [1000.0, 0.0]
        out = _probabilities(logits)
        assert np.isfinite(out).all()
        es = [mpmath.exp(v) for v in logits]
        tot = sum(es)
        exact = np.array([float(e / tot) for e in es])
        np.testing.assert_allclose(out, exact, rtol=1e-12, atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        out = _probabilities(rng.normal((3, 7)))
        assert (out > 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_grad(self, rng):
        # the gradient of the probabilities through their logits, which the
        # query bias sets in every row: q = bq against identity keys
        ts = {"b": Tensor(rng.normal((5,)), requires_grad=True)}
        eye, zero = Tensor(np.eye(5)), Tensor(np.zeros((5, 5)))
        w = rng.normal((5, 5))  # break symmetry so grads are generic
        check_grad(lambda: T.sum_all(T.mul(T.attention(eye, zero, ts["b"], eye, eye, eye, 1),
                                           Tensor(w))), ts)


def _exact_attention(x, wq, bq, wk, wv, wo, g, n_heads):
    """The attention chain in long double, where it is exact to the float64
    results' precision: its output and the x, wq, bq, wk, wv and wo
    gradients for the output gradient `g`, each as (value, first-order
    bound on the float64 op's error).

    The bound follows every float64 rounding of the fused op to first
    order, elementwise, with u = 2**-53 and gamma_n = n*u:
    * each product adds its inputs' bounds through the absolute values of
      the other factor, plus gamma_n times the product of absolute values,
      and a sum adds gamma_n of its terms; so q, k and v carry the bounds
      of their projection (and q of its bias add);
    * each logit s = c*q.k (c = 1/sqrt(dh)) is off by at most
      e = (dh+2)*u*c*|q|.|k| (the dot product, the scaled q and c itself)
      plus c times q's and k's bounds through the other: at logits near
      +-1000 that is ~1e-13 absolute, which no row shift cancels, since
      rounding is per key;
    * a softmax moves its probabilities by p_j*(e_j - sum_l p_l e_l), so each
      probability, in forward and recomputed in backward from the stored
      log-sum-exp, is off by at most p*rho with rho = 2*max_row(e) +
      u*(|s - max| + |lse| + 2*T + 8) (exp, the row sum and divide, the
      stored lse);
    * the context's product with wo, and its gradient g wo^T, carry their
      operands' bounds as any product does; wo's gradient reads the
      context that backward recomputes, which the same bound covers.
    So the logits' conditioning, their magnitude against their spread,
    sets the bound: at logits of O(1) it is typically near 1e-14 of the
    largest value, and at +-1000 near 2e-12.
    """
    ld = np.longdouble
    u = 2.0 ** -53
    dl = wq.shape[1]
    dh = dl // n_heads
    c = 1 / np.sqrt(ld(dh))

    def heads(a):
        return a.reshape(*a.shape[:-1], n_heads, dh).swapaxes(-2, -3)

    def merged(a):
        a = a.swapaxes(-2, -3)
        return a.reshape(*a.shape[:-2], -1)

    def mm(a, b, da=None, db=None):
        """a @ b and its bound, from bounds da, db on a and b (None: exact)."""
        bound = a.shape[-1] * u * (abs(a) @ abs(b))
        if da is not None:
            bound += da @ abs(b)
        if db is not None:
            bound += abs(a) @ db
        return a @ b, bound

    x, wq, wk, wv, wo, g = (a.astype(ld) for a in (x, wq, wk, wv, wo, g))
    b = np.zeros(dl, dtype=ld) if bq is None else bq.astype(ld)
    q, dq0 = mm(x, wq)
    q = q + b
    dq0 = dq0 + u * abs(q)
    k, dk0 = mm(x, wk)
    v, dv0 = mm(x, wv)
    gc, dgc = mm(g, wo.T)  # the context's gradient
    qh, kh, vh, gh = (heads(a) for a in (q, k, v, gc))
    eq, ek, ev, eg = (heads(a) for a in (dq0, dk0, dv0, dgc))
    kt, ekt = kh.swapaxes(-1, -2), ek.swapaxes(-1, -2)
    s = c * (qh @ kt)
    e = (dh + 2) * u * c * (abs(qh) @ abs(kt)) + c * (eq @ abs(kt) + abs(qh) @ ekt)
    mx = s.max(axis=-1, keepdims=True)
    p = np.exp(s - mx)
    tot = p.sum(axis=-1, keepdims=True)
    p /= tot
    lse = mx + np.log(tot)
    rho = 2 * e.max(axis=-1, keepdims=True) + u * (abs(s - mx) + abs(lse) + 2 * s.shape[-1] + 8)
    dp = p * rho
    o, do = mm(p, vh, dp, ev)
    ctx, dctx = merged(o), merged(do)
    out = mm(ctx, wo, dctx)
    dwo = mm(ctx.reshape(-1, dl).T, g.reshape(-1, g.shape[-1]), dctx.reshape(-1, dl).T)
    dv, ddv = mm(p.swapaxes(-1, -2), gh, dp.swapaxes(-1, -2), eg)
    gv, dgv = mm(gh, vh.swapaxes(-1, -2), eg, ev.swapaxes(-1, -2))
    rows = (gh * o).sum(axis=-1, keepdims=True)  # rowsum(dO*O)
    drows = (abs(gh) * (do + dh * u * abs(o)) + eg * abs(o)).sum(axis=-1, keepdims=True)
    ds = p * (gv - rows)
    dds = dp * abs(gv - rows) + p * (dgv + drows) + 2 * u * abs(ds)
    dq, ddq = mm(ds, kh, dds, ek)
    dq, ddq = c * dq, c * ddq + 2 * u * c * abs(dq)
    dk, ddk = mm(ds.swapaxes(-1, -2), c * qh, dds.swapaxes(-1, -2),
                 2 * u * c * abs(qh) + c * eq)

    dqkv = np.concatenate([merged(a) for a in (dq, dk, dv)], axis=-1)
    ddqkv = np.concatenate([merged(a) for a in (ddq, ddk, ddv)], axis=-1)
    dx = mm(dqkv, np.concatenate((wq, wk, wv), axis=1).T, ddqkv)
    xr = x.reshape(-1, x.shape[-1])
    dw = [mm(xr.T, dqkv[..., i * dl:(i + 1) * dl].reshape(-1, dl), None,
             ddqkv[..., i * dl:(i + 1) * dl].reshape(-1, dl)) for i in range(3)]
    dqr, ddqr = dqkv[..., :dl].reshape(-1, dl), ddqkv[..., :dl].reshape(-1, dl)
    db = (dqr.sum(axis=0), ddqr.sum(axis=0) + (len(dqr) - 1) * u * abs(dqr).sum(axis=0))
    return [out, dx, dw[0], db, dw[1], dw[2], dwo]


@st.composite
def _attention_operands(draw):
    """x, wq, bq (or None), wk, wv, wo, an output gradient, a head count and
    whether the logits are large (`_attention_arrays`): 1-4 heads, 0-3
    leading axes, x sometimes a transposed view, an output width of 1-5, and
    sometimes logits near +-1000."""
    heads = draw(st.integers(1, 4))
    large = draw(st.booleans())
    dh = draw(st.integers(2 if large else 1, 3))
    dl = heads * dh
    d = draw(st.integers(2, 5) if large else st.integers(3 * dl, 3 * dl + 2))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    # one token makes the q and k gradients rounding noise, where relative
    # error says nothing
    t = draw(st.integers(2, 5))
    perm = tuple(draw(st.permutations(range(len(lead) + 2))))
    return _attention_arrays(heads, large, dh, d, lead, t, perm,
                             draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()),
                             draw(st.integers(1, 5)))


def _attention_arrays(heads, large, dh, d, lead, t, perm, seed, bias, do):
    """The operands of `heads` heads of width dh over x [*lead, t, d], laid
    out in memory in axis order `perm`, drawn from `seed`, with a query bias
    if `bias`, and an output width `do`.

    Where probabilities only survive the recompute if the log-sum-exp is
    taken after the row maximum, `large` sets the logits near +-1000.  At
    ordinary logits wq, wk and wv are orthonormal columns of D >= 3*Dl,
    so every entry of q, k and v is an independent standard normal (q
    shifted by a small bias): the logits are those of independent normal
    queries and keys.  Weights of random norm scale every token's logits
    alike, and correlated features add up over a head, so a few draws would
    saturate the softmax, where the rounding bound, not 1e-12, is what
    holds.  At large logits D is 2 to 5, below, at or above Dl."""
    dl = heads * dh
    shape = (*lead, t, d)
    gen = np.random.default_rng(seed)
    x = gen.standard_normal([shape[i] for i in perm]).transpose(np.argsort(perm))
    if large:
        wq, wk, wv = (w / np.linalg.norm(w, axis=0)
                      for w in (gen.standard_normal((d, dl)) for _ in range(3)))
    else:
        basis = np.linalg.qr(gen.standard_normal((d, 3 * dl)))[0]
        wq, wk, wv = (np.ascontiguousarray(w) for w in np.split(basis, 3, axis=1))
    bq = 0.5 * gen.standard_normal(dl) if bias else None
    if large:
        # the first feature of every head: x's feature 0 is 1 and feature 1
        # is +-1 in every token; k reads feature 0, so it is 1 in every token,
        # and q reads feature 1 times 1000*sqrt(dh), so each row's logits sit
        # at +-1000 and differ by O(1) over the tokens
        x[..., 0] = 1.0
        x[..., 1] = gen.choice([-1.0, 1.0], x[..., 1].shape)
        wk[:, ::dh] = 0.0
        wk[0, ::dh] = 1.0
        wq[:, ::dh] = 0.0
        wq[1, ::dh] = 1000.0 * np.sqrt(dh)
        if bq is not None:
            bq[::dh] = 0.0
    wo = gen.standard_normal((dl, do)) / np.sqrt(dl)
    g = gen.standard_normal((*lead, t, do))
    return x, wq, bq, wk, wv, wo, g, heads, large


def _attention_tensors(x, wq, bq, wk, wv, wo):
    """x, wq, bq (None stays None), wk, wv, wo as tensors that need
    gradients."""
    return [None if a is None else Tensor(a, requires_grad=True)
            for a in (x, wq, bq, wk, wv, wo)]


ATTENTION_GRADS = ("out", "dx", "dwq", "dbq", "dwk", "dwv", "dwo")


class TestAttention:
    @settings(max_examples=150)
    @given(_attention_operands())
    def test_matches_unfused_chain(self, operands):
        # against the chain in long double: within 1e-12 at ordinary logits,
        # and within the rounding bound that the logits' conditioning sets
        # (see `_exact_attention`) everywhere, which at +-1000 is what
        # decides: there two float64 results may differ by a few 1e-12
        #
        # Two tokens and one head of width 1 is the exception: there a
        # logit's gradient is p1*p2*(dP1 - dP2), formed as dP1 less the
        # probability-weighted dP, and dq is ds1*(k1 - k2) and dk ds*q, so a
        # saturated softmax, a query near 0 or two near-equal keys or values
        # cancel the q and k gradients below the rounding of their terms, in
        # every position at once; relative error then says nothing, and the
        # rounding bound, which holds, is the check of those three
        *arrays, g, heads, large = operands
        x, wq = arrays[:2]
        cancelling = x.shape[-2] == 2 and wq.shape[1] == 1
        ts = _attention_tensors(*arrays)
        out = T.attention(*ts, heads)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        want = _exact_attention(*arrays, g, heads)
        for name, a, b in zip(ATTENTION_GRADS, [out] + ts, want):
            if a is None:  # no query bias
                continue
            got = a.data if name == "out" else a.grad
            value, bound = b
            assert got.shape == value.shape and np.isfinite(got).all(), name
            assert (abs(got - value) <= bound).all(), name
            if not large and not (cancelling and name in ("dwq", "dbq", "dwk")):
                assert rel_err(got, value.astype(np.float64)) < 1e-12, name

    @settings(max_examples=100)
    @given(_attention_operands(), st.data())
    def test_block_size_changes_no_output_or_dx_bit_and_no_estimate(self, operands, data):
        # one head of one position per block; one block of every position,
        # which a block cuts at each run of x's last lead axis; blocks that
        # would cross a lead axis wherever there are several runs, or leave
        # a ragged last block of a run of three or more positions; and blocks
        # of some of a position's heads.  The estimate's output is its
        # caller's, so the op leaves its output live beside what it keeps.
        # The output and dx are the same to the bit; the weight and bias
        # gradients are sums over the blocks, so they round differently.
        x, wq, bq, wk, wv, wo, g, heads, _ = operands
        *lead, t, _ = x.shape
        dl, do = wo.shape
        n, run = math.prod(lead), (lead or [1])[-1]
        rows = data.draw(st.sampled_from([r for r in range(2, n) if run % r] or [1]))
        some_heads = data.draw(st.integers(1, max(1, heads - 1)))
        results = []
        for block in (1, 2 ** 40, rows * heads * t * t, some_heads * t * t):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "ATTENTION_BLOCK", block)
                tracker = AllocTracker()
                with activate(tracker):
                    ts = _attention_tensors(x, wq, bq, wk, wv, wo)
                    before = tracker.stats()
                    out = T.attention(*ts, heads)
                    after = tracker.stats()
                kept, high = costmodel._attention(n, heads, t, dl, do, run)
                assert after.live_bytes - before.live_bytes == 8 * (kept + n * t * do)
                assert after.peak_bytes - before.live_bytes == 8 * high
                T.backward(T.sum_all(T.mul(out, Tensor(g))))
            results.append([out.data] + [None if a is None else a.grad for a in ts])
        for name, first, *arrays in zip(ATTENTION_GRADS, *results):
            if first is None:  # no query bias
                continue
            if name in ("out", "dx"):
                assert all(np.array_equal(a, first) for a in arrays), name
            else:
                assert all(rel_err(a, first) < 1e-12 for a in arrays), name

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_grad_of_input_weights_and_bias(self, rng, heads):
        # a tp rank's shard (Dl = 2*heads below D = 8) of full_cross's first
        # stage over a token slab read as its transposed view, projected
        # back out to D
        d, dl = 8, 2 * heads
        ts = {"x": Tensor(rng.normal((2, 3, 2, d)), requires_grad=True),
              "bq": Tensor(rng.normal((dl,)), requires_grad=True),
              **{name: Tensor(rng.normal((d, dl)), requires_grad=True)
                 for name in ("wq", "wk", "wv")},
              "wo": Tensor(rng.normal((dl, d)), requires_grad=True)}
        w = rng.normal((2, 2, 3, d))
        check_grad(lambda: T.sum_all(T.mul(
            T.attention(_slab_view(ts["x"]), ts["wq"], ts["bq"], ts["wk"], ts["wv"], ts["wo"],
                        heads),
            Tensor(w))), ts)

    def test_grad_without_lead_axes(self, rng):
        # x [T, D] alone: one position, whose rows are x itself
        ts = {"x": Tensor(rng.normal((4, 6)), requires_grad=True),
              **{name: Tensor(rng.normal((6, 4)), requires_grad=True)
                 for name in ("wq", "wk", "wv")},
              "wo": Tensor(rng.normal((4, 3)), requires_grad=True)}
        w = rng.normal((4, 3))
        check_grad(lambda: T.sum_all(T.mul(
            T.attention(ts["x"], ts["wq"], None, ts["wk"], ts["wv"], ts["wo"], 2), Tensor(w))),
            ts)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_numpy_reference(self, rng, heads):
        # softmax((x wq + bq)(x wk)^T / sqrt(dh)) (x wv), head by head, then wo
        d, dl = 6, 2 * heads
        x = rng.normal((2, 3, 5, d))
        wq, wk, wv = (rng.normal((d, dl)) for _ in range(3))
        bq, wo = rng.normal((dl,)), rng.normal((dl, d))
        out = T.attention(Tensor(x), Tensor(wq), Tensor(bq), Tensor(wk), Tensor(wv), Tensor(wo),
                          heads).data
        q, k, v = x @ wq + bq, x @ wk, x @ wv
        ctx = np.empty((2, 3, 5, dl))
        for h in range(heads):
            cols = slice(2 * h, 2 * h + 2)
            s = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(2)
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            ctx[..., cols] = p @ v[..., cols]
        assert rel_err(out, ctx @ wo) < 1e-12

    def test_rejects_mismatched_shapes(self):
        x, w, wo = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 6))), Tensor(np.zeros((6, 4)))
        with pytest.raises(ShapeError):  # x's width is not the weights' input width
            T.attention(Tensor(np.zeros((2, 3, 5))), w, None, w, w, wo, 2)
        with pytest.raises(ShapeError):  # the projections differ in width
            T.attention(x, w, None, Tensor(np.zeros((4, 4))), w, wo, 2)
        with pytest.raises(ShapeError):  # the bias is not [Dl]
            T.attention(x, w, Tensor(np.zeros(4)), w, w, wo, 2)
        with pytest.raises(ShapeError):  # wo's input width is not Dl
            T.attention(x, w, None, w, w, Tensor(np.zeros((4, 4))), 2)
        with pytest.raises(ShapeError, match="heads"):
            T.attention(x, w, None, w, w, wo, 4)


class TestAttentionOutputProjection:
    """The op ends in its output projection: its output is its context's
    product with wo, the context being the op's output through the
    identity, and its gradients are the chain's, attention then `matmul`."""

    @settings(max_examples=100)
    @given(_attention_operands(), st.booleans())
    @example(_attention_arrays(2, True, 2, 3, (), 3, (0, 1), 882273653, False, 1), False)
    @example(_attention_arrays(1, True, 2, 2, (3, 3, 3), 3, (4, 1, 3, 0, 2), 4213112154,
                               False, 1), True)
    def test_fused_matches_the_chain(self, operands, whole):
        # x with 0-3 lead axes, sometimes a transposed view, at the default
        # block size and at blocks that would cross a lead axis.  The chain
        # recomputes the context in its attention op's backward as the fused
        # op does, so every gradient but wo's is the same to the bit; wo's
        # reads the forward's context in the chain and the recomputed one in
        # the fused op.  Each of those is within the rounding bound of the
        # exact one (`_exact_attention`), and at ordinary logits the two
        # agree within 1e-12.  At logits near +-1000 the softmax saturates
        # and the bound is what holds: in the examples (wq entries of 1414)
        # the two differ by 3.4e-12 and 1.1e-12 of the largest
        x, wq, bq, wk, wv, wo, g, heads, large = operands
        *lead, t, _ = x.shape
        n, dl = math.prod(lead), wo.shape[0]
        block = n * heads * t * t if whole else T.ATTENTION_BLOCK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "ATTENTION_BLOCK", block)
            fused = _attention_tensors(x, wq, bq, wk, wv, wo)
            out = T.attention(*fused, heads)
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            chain = _attention_tensors(x, wq, bq, wk, wv, wo)
            ctx = T.attention(*chain[:5], Tensor(np.eye(dl)), heads)
            want = T.matmul(ctx, chain[5])
            T.backward(T.sum_all(T.mul(want, Tensor(g))))
        np.testing.assert_array_equal(out.data, want.data)
        np.testing.assert_array_equal(out.data, np.matmul(ctx.data, wo))
        for name, a, b in zip(ATTENTION_GRADS[1:], fused, chain):
            if a is None:  # no query bias
                continue
            if name == "dwo":
                value, bound = _exact_attention(x, wq, bq, wk, wv, wo, g, heads)[-1]
                for grad in (a.grad, b.grad):
                    assert (abs(grad - value) <= bound).all(), name
                if not large:
                    assert rel_err(a.grad, b.grad) < 1e-12, name
            else:
                np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)


def _owner(a):
    """The array that owns `a`'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _attention_inputs(rng, lead, t, d, dl, do):
    """x [*lead, T, D] and wq, bq, wk, wv for Dl and wo [Dl, Do], as tensors
    that need gradients."""
    return (Tensor(rng.normal((*lead, t, d)), requires_grad=True),
            *(Tensor(rng.normal(shape), requires_grad=True)
              for shape in ((d, dl), (dl,), (d, dl), (d, dl), (dl, do))))


class TestAttentionMemory:
    def test_forward_charges_output_lse_and_transient_projections_and_logits(
            self, rng, monkeypatch):
        # one block of both positions; blocks of 2, 2 and 1 of 5 positions;
        # blocks of one head of one position; and blocks of 4 of 2 x 3
        # positions, which stop at each run of 3.  While the op runs it holds
        # the log-sum-exp and one block's q, which becomes the block's
        # context, k and v, logits and row sums: over several blocks with the
        # output throughout, and one block's context then alone with the
        # output.  No context of every position is formed.  After the
        # forward it holds its output and log-sum-exp, and no projection or
        # context.
        t, d, dl, do, heads = 6, 5, 4, 3, 2
        for lead, block_size, blk, hb in (((2,), None, 2, heads),
                                          ((5,), 2 * heads * t * t, 2, heads),
                                          ((3,), t * t, 1, 1),
                                          ((2, 3), 4 * heads * t * t, 3, heads)):
            if block_size is not None:
                monkeypatch.setattr(T, "ATTENTION_BLOCK", block_size)
            assert (T._block_length(lead[-1], heads * t * t, T.ATTENTION_BLOCK),
                    T._block_length(heads, t * t, T.ATTENTION_BLOCK)) == (blk, hb)
            n = math.prod(lead)
            tracker = AllocTracker()
            with activate(tracker):
                ts = _attention_inputs(rng, lead, t, d, dl, do)
                before = tracker.stats()
                out = T.attention(*ts, heads)
                after = tracker.stats()
                lse = 8 * n * heads * t
                kept = out.data.nbytes + lse
                q, kv = 8 * blk * t * dl, 8 * 2 * blk * t * dl
                block = 8 * blk * hb * (t * t + t)  # logits and row sums
                assert out.data.nbytes == 8 * n * t * do
                assert before.peak_bytes == before.live_bytes
                assert after.live_bytes - before.live_bytes == kept
                held = (max(kv + block, out.data.nbytes) if blk == n
                        else kv + block + out.data.nbytes)
                assert after.peak_bytes - before.live_bytes == lse + q + held
                # below the whole context beside one block, then the output
                ctx = 8 * n * t * dl
                assert lse + q + held < lse + ctx + max(q + kv + block, out.data.nbytes)
                inputs = {id(_owner(a.data)) for a in ts}
                saved = {id(o): o.nbytes for o in map(_owner, reachable_arrays(out))
                         if id(o) not in inputs}
                assert sorted(saved.values()) == sorted((lse, out.data.nbytes))
                # no closure holds an [n, T, Dl] array: no context, no projection
                assert all(a.size < n * t * dl for a in reachable_arrays(out)
                           if id(_owner(a)) not in inputs and a is not out.data)
                del out
                assert tracker.live_bytes == before.live_bytes

    def test_a_transposed_input_is_read_in_place(self, rng):
        # a token slab's transposed view charges what a contiguous x does:
        # each block's product reads its rows where they lie.  Two blocks,
        # one per run of 3, and an output narrower than the context: the op
        # holds the output and one block, 288 bytes below the whole context
        # beside one block's buffers
        t, d, dl, do, heads = 3, 4, 4, 2, 2
        charges = []
        for view in (False, True):
            tracker = AllocTracker()
            with activate(tracker):
                x, *weights = _attention_inputs(rng, (2, 3), t, d, dl, do)
                if view:
                    x = _slab_view(Tensor(rng.normal((2, t, 3, d)), requires_grad=True))
                before = tracker.stats()
                T.attention(x, *weights, heads)
                charges.append(tracker.stats().peak_bytes - before.live_bytes)
        assert charges[0] == charges[1] == 8 * costmodel._attention(6, heads, t, dl, do, 3)[1]
        lse, ctx, out, block = 6 * heads * t, 6 * t * dl, 6 * t * do, 3 * (3 * t * dl + heads * 12)
        assert charges[0] == 8 * (lse + out + block) == 8 * (lse + ctx + block) - 288

    def test_backward_holds_at_most_two_logit_buffers(self, rng):
        # a long_sequence vit block's attention on one rank: [B, T, D] = [4, 257, 64];
        # one head's 257*257 logits exceed a block, so a block is one head of
        # one position
        b, t, d, heads = 4, 257, 64, 8
        assert (T._block_length(b, heads * t * t, T.ATTENTION_BLOCK),
                T._block_length(heads, t * t, T.ATTENTION_BLOCK)) == (1, 1)
        ts = _attention_inputs(rng, (b,), t, d, d, d)
        out = T.attention(*ts, heads)
        loss = T.sum_all(T.mul(out, Tensor(rng.normal(out.shape))))
        block = 8 * t * t
        # five output-sized arrays for the op, which holds dx and one block
        # of the rest (`test_tracking.py::test_a_fused_backward_holds_one_block`
        # bounds those blocks), and the three output-sized arrays the engine
        # holds above the op: the gradients of `out` and of the product, and
        # the product's gradient for the constant factor; and one position's
        # projections
        grads = 8 * 8 * b * t * d + 3 * 8 * t * d
        tracemalloc.start()
        try:
            T.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 256 KiB covers the row-sum blocks, the weight gradients and Python objects
        assert peak < 2 * block + grads + 2 ** 18, f"backward peak {peak / 2 ** 20:.2f} MiB"


def _pool_operands(rng, lead, tk, dx, heads, dl, do=3):
    """x as the transposed view of a [lead0, Tk, lead1, Dx] array, the
    layout of the token slabs, with u, wv and wo [Dl, Do] to match."""
    x = Tensor(rng.normal((lead[0], tk, lead[1], dx)), requires_grad=True)
    u = Tensor(rng.normal((dx, heads)), requires_grad=True)
    wv = Tensor(rng.normal((dx, dl)), requires_grad=True)
    wo = Tensor(rng.normal((dl, do)), requires_grad=True)
    return x, u, wv, wo


def _slab_view(x):
    return T.transpose(x, (0, 2, 1, 3))


class TestAttentionPool:
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_grad(self, rng, heads):
        x, u, wv, wo = _pool_operands(rng, (2, 3), 3, 5, heads, 2 * heads)
        w = rng.normal((2, 3, 1, 3))
        check_grad(lambda: T.sum_all(T.mul(T.attention_pool(_slab_view(x), u, wv, wo, heads),
                                           Tensor(w))), {"x": x, "u": u, "wv": wv, "wo": wo})

    @pytest.mark.parametrize("heads", [1, 2])
    def test_grad_when_x_is_the_values(self, rng, heads):
        # full_cross's reduce: x serves as keys and values, one gradient
        x, u, _, _ = _pool_operands(rng, (2, 3), 3, 4, heads, 4)
        w = rng.normal((2, 3, 1, 4))
        check_grad(lambda: T.sum_all(T.mul(T.attention_pool(_slab_view(x), u, None, None, heads),
                                           Tensor(w))), {"x": x, "u": u})

    @pytest.mark.parametrize("heads", [1, 2])
    def test_x_as_the_values_matches_an_identity_projection(self, rng, heads):
        x, u, _, _ = _pool_operands(rng, (2, 3), 4, 6, heads, 6)
        g = rng.normal((2, 3, 1, 6))
        results = []
        for wv in (None, Tensor(np.eye(6))):
            x.grad = u.grad = None
            out = T.attention_pool(_slab_view(x), u, wv, wv, heads)
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            results.append((out.data, x.grad, u.grad))
        for name, a, b in zip(("out", "dx", "du"), *results):
            assert rel_err(a, b) < 1e-12, name

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_fused_matches_the_chain(self, rng, heads):
        # the output is the pooled values' product with wo, the pooled values
        # being the op's output through the identity, bit for bit, and so
        # are the gradients of the chain, the pool then `matmul`, but wo's,
        # which reads the pooled values the backward recomputes
        dl = 2 * heads
        g = rng.normal((2, 3, 1, 5))
        results = []
        for fused in (True, False):
            x, u, wv, wo = (Tensor(a.data, requires_grad=True)
                            for a in _pool_operands(RngState(7), (2, 3), 4, 6, heads, dl, 5))
            if fused:
                out = T.attention_pool(_slab_view(x), u, wv, wo, heads)
            else:
                pooled = T.attention_pool(_slab_view(x), u, wv, Tensor(np.eye(dl)), heads)
                out = T.matmul(pooled, wo)
                np.testing.assert_array_equal(out.data, np.matmul(pooled.data, wo.data))
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            results.append((out.data, x.grad, u.grad, wv.grad, wo.grad))
        for name, a, b in zip(("out", "dx", "du", "dwv", "dwo"), *results):
            if name == "dwo":
                assert rel_err(a, b) < 1e-12, name
            else:
                np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_matches_bruteforce(self, rng, heads):
        # per head, the softmax over the keys of the scaled scores x @ u[:, h]
        # weighs the values x @ wv's head-h features; then wo
        dl = 3 * heads
        x, u, wv, wo = _pool_operands(rng, (2, 4), 5, 6, heads, dl)
        xs = np.swapaxes(x.data, 1, 2)
        v = xs @ wv.data
        out = T.attention_pool(_slab_view(x), u, wv, wo, heads).data
        pooled = np.empty((2, 4, 1, dl))
        for h in range(heads):
            s = xs @ u.data[:, h] / np.sqrt(dl // heads)  # [2, 4, Tk]
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            cols = slice(h * 3, (h + 1) * 3)
            pooled[..., 0, cols] = np.einsum("bsk,bskd->bsd", p, v[..., cols])
        assert rel_err(out, pooled @ wo.data) < 1e-12

    def test_one_key_gives_exactly_zero_score_gradient(self, rng):
        # the one key takes the whole softmax, so the scores, and u through
        # them, get no gradient at all, not rounding noise; x's gradient is
        # its values' alone
        x, u, wv, wo = _pool_operands(rng, (2, 3), 1, 5, 2, 4)
        g = rng.normal((2, 3, 1, 3))
        T.backward(T.sum_all(T.mul(T.attention_pool(_slab_view(x), u, wv, wo, 2), Tensor(g))))
        assert (u.grad == 0.0).all()
        gv = np.matmul(g, wo.data.T)  # the pooled values' gradient
        np.testing.assert_array_equal(np.swapaxes(x.grad, 1, 2), np.matmul(gv, wv.data.T))
        xs = np.swapaxes(x.data, 1, 2)
        assert rel_err(wv.grad, np.einsum("bskd,bske->de", xs, gv)) < 1e-12
        assert rel_err(wo.grad, np.einsum("bskd,bske->de", xs @ wv.data, g)) < 1e-12

    @pytest.mark.parametrize("narrow", [False, True])
    def test_charges_match_costmodel(self, rng, narrow):
        # a whole slab folds into rows as a view; two of its three channels
        # do not, and the fold's copy is charged while the scores are formed.
        # The estimate's output is its caller's, so the op leaves its output
        # live beside what it keeps.
        tk, dx, heads, dl, do = 3, 16, 2, 4, 3
        tracker = AllocTracker()
        with activate(tracker):
            x, u, wv, wo = _pool_operands(rng, (2, 5), tk, dx, heads, dl, do)
            xs = _slab_view(x)
            if narrow:
                tk = 2
                xs = T.split(xs, 2, (1, tk))[1]
            before = tracker.stats()
            out = T.attention_pool(xs, u, wv, wo, heads)
            after = tracker.stats()
        kept, high = costmodel._pool(10, heads, tk, dl, 10 * tk * dx if narrow else 0, do)
        assert before.peak_bytes == before.live_bytes
        assert after.live_bytes - before.live_bytes == 8 * (kept + 10 * do)
        assert after.peak_bytes - before.live_bytes == 8 * high
        # backward recomputes the scores, the values and the pooled values and
        # does not read the output
        assert not any(np.shares_memory(a, out.data) for a in reachable_arrays(out)
                       if a is not out.data)
        del out
        assert tracker.live_bytes == before.live_bytes

    def test_charges_match_costmodel_when_x_is_the_values(self, rng):
        tk, dx, heads = 3, 8, 2
        tracker = AllocTracker()
        with activate(tracker):
            x, u, _, _ = _pool_operands(rng, (2, 5), tk, dx, heads, dx)
            before = tracker.stats()
            out = T.attention_pool(_slab_view(x), u, None, None, heads)
            after = tracker.stats()
        kept, high = costmodel._pool(10, heads, tk, dx, 0)
        assert after.live_bytes - before.live_bytes == 8 * kept
        assert after.peak_bytes - before.live_bytes == 8 * high
        del out
        assert tracker.live_bytes == before.live_bytes

    def test_rejects_mismatched_shapes(self):
        x, wv, wo = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 6))), Tensor(np.zeros((6, 2)))
        with pytest.raises(ShapeError):  # wv's input width is not x's
            T.attention_pool(x, Tensor(np.zeros((4, 3))), Tensor(np.zeros((5, 6))), wo, 3)
        with pytest.raises(ShapeError):  # u has two heads, not three
            T.attention_pool(x, Tensor(np.zeros((4, 2))), wv, wo, 3)
        with pytest.raises(ShapeError):  # four heads do not divide Dl = 6
            T.attention_pool(x, Tensor(np.zeros((4, 4))), wv, wo, 4)
        with pytest.raises(ShapeError):  # nor three heads x's width, its values'
            T.attention_pool(x, Tensor(np.zeros((4, 3))), None, None, 3)
        with pytest.raises(ShapeError):  # wo's input width is not Dl
            T.attention_pool(x, Tensor(np.zeros((4, 3))), wv, Tensor(np.zeros((4, 2))), 3)
        with pytest.raises(ShapeError):  # wv without wo
            T.attention_pool(x, Tensor(np.zeros((4, 3))), wv, None, 3)
        with pytest.raises(ShapeError):  # wo without wv
            T.attention_pool(x, Tensor(np.zeros((4, 2))), None, Tensor(np.zeros((4, 4))), 2)


class TestLayernorm:
    def test_constant_input_returns_zero(self):
        # no shift: a constant row normalizes to zero
        x = Tensor(np.full((2, 4), 3.7))
        out = T.layernorm(x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_zero_mean(self):
        out = T.layernorm(Tensor([[1.0, 2.0, 3.0]]))
        assert abs(out.data.mean()) < 1e-12

    def test_matches_unfused_bits(self):
        # x centred once, 1/sigma formed in the variance's buffer and the
        # backward built in place give the values of the formulas written
        # out in full, the variance as each centred row's dot product with
        # itself; that sums in another order than the mean of the squares,
        # so it agrees with it to rounding only
        rng = np.random.default_rng(5)
        x, g = rng.normal(size=(4, 9, 16)), rng.normal(size=(4, 9, 16))
        mu = x.mean(axis=-1, keepdims=True)
        var = np.einsum("...d,...d->...", x - mu, x - mu)[..., None] / 16
        assert rel_err(var, ((x - mu) ** 2).mean(axis=-1, keepdims=True)) < 1e-15
        inv = 1.0 / np.sqrt(var + T._LN_EPS)
        xhat = (x - mu) * inv
        m1, m2 = g.mean(axis=-1, keepdims=True), (g * xhat).mean(axis=-1, keepdims=True)
        out = T.layernorm(Tensor(x, requires_grad=True))
        np.testing.assert_array_equal(out.data, xhat)
        np.testing.assert_array_equal(out.node.backward(g)[0], inv * (g - m1 - xhat * m2))

    def test_forward_allocates_only_what_the_tracker_charges(self, rng):
        # at a long_sequence block's [B, T, D]: x-hat and 1/sigma, plus the
        # row means (8 KiB), the 64 KiB buffer numpy's ufuncs fill from a
        # broadcast operand, and Python objects; no squared copy of x-hat
        # (514 KiB)
        x = Tensor(rng.normal((4, 257, 64)), requires_grad=True)
        tracker = AllocTracker()
        with activate(tracker):
            tracemalloc.start()
            try:
                out = T.layernorm(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert tracker.peak_bytes == out.data.nbytes + 8 * 4 * 257
        assert peak <= tracker.peak_bytes + 2 ** 17, f"forward peak {peak} B"

    def test_grad(self, rng):
        ts = {"x": Tensor(rng.normal((2, 3, 6)), requires_grad=True)}
        w = rng.normal((2, 3, 6))
        check_grad(
            lambda: T.sum_all(T.mul(T.layernorm(ts["x"]), Tensor(w))),
            ts,
            tol=1e-5,
        )


PHI_RTOL = 2e-14  # relative error bound of Phi where Phi(x) is a normal float
TINY = np.finfo(np.float64).tiny
BLK = T.PHI_BLOCK
SQRT2 = np.sqrt(2.0)


def _gelu_op(x):
    """x Phi(x) as a tape op of its own, the GELU that `tensor.mlp` fuses:
    its derivative Phi(x) + x pdf(x) formed in this order from x, and
    backward g times it."""
    xd = x.data
    deriv = T.normal_cdf(xd)
    out = xd * deriv
    t = xd * xd
    t *= -0.5
    np.exp(t, out=t)
    t *= xd
    t *= 1.0 / np.sqrt(2.0 * np.pi)
    deriv += t
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * deriv,))


def _mlp_chain(x, w1, b1, w2):
    """The unfused MLP: matmul, bias add, GELU and matmul, each a tape op."""
    return T.matmul(_gelu_op(T.add(T.matmul(x, w1), b1)), w2)


def _mlp_operands(rng, x, hidden, out, scale=1.0):
    """Tensors that need gradients: x as given, and w1 [D, hidden], b1 and
    w2 [hidden, out] drawn at `scale`."""
    d = x.shape[-1]
    return (Tensor(x, requires_grad=True),
            *(Tensor(rng.normal(shape, scale), requires_grad=True)
              for shape in ((d, hidden), (hidden,), (hidden, out))))


def _gelu_through_mlp(x, g=None):
    """GELU of x alone through `mlp`: each element its own row of width one,
    with w1 = w2 = 1 and b1 = 0, so the products are exact, infinities
    included; with `g`, also x's gradient for the output gradient g."""
    xt = Tensor(np.reshape(x, (-1, 1)), requires_grad=True)
    one = (Tensor(np.ones((1, 1))), Tensor(np.zeros(1)), Tensor(np.ones((1, 1))))
    out = T.mlp(xt, *one)
    if g is None:
        return out.data.reshape(np.shape(x))
    T.backward(T.sum_all(T.mul(out, Tensor(np.reshape(g, (-1, 1))))))
    return out.data.reshape(np.shape(x)), xt.grad.reshape(np.shape(x))


class TestMlp:
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("lead, d, hidden", [((2, 3), 4, 6), ((3, 40), 16, 300)])
    def test_matches_the_unfused_chain_output_and_dx_bits(self, rng, transposed, lead, d,
                                                          hidden):
        # x ~ N(0, 2^2) against N(0, 1) weights puts most pre-activations in
        # Phi's tail; [3, 40] x 300 is past one PHI_BLOCK, its second block
        # ragged.  A transposed x is the view a token slab arrives as.  The
        # output and dx are the chain's to the bit; the weight and bias
        # gradients sum over blocks of positions in the op and over every
        # row at once in the chain, so they round differently.
        x = rng.normal((lead[1], lead[0], d), 2.0).swapaxes(0, 1) if transposed \
            else rng.normal((*lead, d), 2.0)
        ts = _mlp_operands(rng, x, hidden, 5)
        g = rng.normal((*lead, 5))
        results = []
        for op in (T.mlp, _mlp_chain):
            for t in ts:
                t.grad = None
            out = op(*ts)
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            results.append((out.data, *(t.grad for t in ts)))
        pre = np.abs(np.matmul(x, ts[1].data) + ts[2].data)
        assert (pre > SQRT2).any() and (pre <= SQRT2).any()
        for name, a, b in zip(("out", "dx", "dw1", "db1", "dw2"), *results):
            if name in ("out", "dx"):
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                assert rel_err(a, b) < 1e-12, name

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("lead, rows", [((3,), 5), ((5,), 40), ((2, 3), 4)])
    def test_block_size_changes_no_output_or_dx_bit_and_no_estimate(
            self, rng, monkeypatch, transposed, lead, rows):
        # one position per block; blocks of two positions, ragged at the end
        # of a run of 3 or 5 and never crossing a lead axis; and one block of
        # every position.  A transposed x is the view a token slab arrives
        # as.  With one lead axis the estimate is the allocator's peak.  The
        # output and dx are the same to the bit; the weight and bias
        # gradients are sums over the blocks, so they round differently.
        d, hidden = 4, 6
        shape = (*lead[:-1], rows, lead[-1], d) if transposed else (*lead, rows, d)
        x = rng.normal(shape, 2.0)
        if transposed:
            x = x.swapaxes(-3, -2)
        ts = _mlp_operands(rng, x, hidden, 5)
        g = rng.normal((*lead, rows, 5))
        results = []
        for block in (1, 2 * rows * hidden, 2 ** 40):
            monkeypatch.setattr(T, "MLP_BLOCK", block)
            for t in ts:
                t.grad = None
            tracker = AllocTracker()
            with activate(tracker):
                before = tracker.stats()
                out = T.mlp(*ts)
                after = tracker.stats()
            if len(lead) == 1:
                high = costmodel._mlp(lead[0], rows, hidden, out.size)[1]
                assert after.peak_bytes - before.live_bytes == 8 * high, block
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            results.append((out.data, *(t.grad for t in ts)))
        for name, first, *arrays in zip(("out", "dx", "dw1", "db1", "dw2"), *results):
            if name in ("out", "dx"):
                assert all(np.array_equal(a, first) for a in arrays), name
            else:
                assert all(rel_err(a, first) < 1e-12 for a in arrays), name

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_grad(self, rng, scale):
        # at scale 3 most pre-activations lie in Phi's tail, on both sides
        x, w1, b1, w2 = _mlp_operands(rng, rng.normal((2, 3, 4), scale), 5, 3, scale)
        w = rng.normal((2, 3, 3))
        check_grad(lambda: T.sum_all(T.mul(T.mlp(x, w1, b1, w2), Tensor(w))),
                   {"x": x, "w1": w1, "b1": b1, "w2": w2}, tol=1e-5)

    def test_values(self):
        np.testing.assert_allclose(_gelu_through_mlp(np.array([0.0, 100.0, -100.0])),
                                   [0.0, 100.0, 0.0], atol=1e-12)

    def test_matches_x_phi(self):
        x = np.linspace(-9.0, 9.0, 180).reshape(9, 20)
        want = x * np.array([mp_phi(v) for v in x.ravel()]).reshape(x.shape)
        np.testing.assert_allclose(_gelu_through_mlp(x), want, rtol=PHI_RTOL, atol=1e-300)

    @pytest.mark.parametrize("size", [64, 2 * BLK + 5])
    def test_gelu_bits_at_extremes(self, size):
        """The output is x Phi(x) and the gradient g (Phi(x) + x pdf(x)) to
        the bit, the pdf term formed in this order from x: core and tail
        points, the clamp at 40, infinities and NaN, and past one block,
        tail points on both sides of each block edge."""
        rng = np.random.default_rng(size)
        x = rng.uniform(-SQRT2, SQRT2, size)
        special = [np.nextafter(SQRT2, 2.0), -np.nextafter(SQRT2, 2.0), 40.0, -40.0,
                   np.inf, -np.inf, np.nan]
        tail = rng.choice([-1.0, 1.0], 24) * rng.uniform(SQRT2, 40.0, 24)
        x[rng.choice(size, 24 + len(special), replace=False)] = [*tail, *special]
        for edge in range(BLK, size, BLK):
            x[edge - 2:edge + 2] = rng.uniform(SQRT2, 40.0, 4) * [-1.0, 1.0, 1.0, -1.0]
        g = rng.normal(size=x.shape)
        with np.errstate(invalid="ignore"):  # 0 * inf in x pdf(x) at the infinities
            phi = T.normal_cdf(x)
            t = x * x
            t *= -0.5
            np.exp(t, out=t)
            t *= x
            t *= 1.0 / np.sqrt(2.0 * np.pi)
            t += phi
            t *= g
            out, dx = _gelu_through_mlp(x, g)
            np.testing.assert_array_equal(out, x * phi)  # NaN at -inf, as -inf * 0
        np.testing.assert_array_equal(dx, t)  # NaN where t is NaN

    @pytest.mark.parametrize("rows, hidden", [(6, 4), (12, 2), (40, T.PHI_BLOCK // 20 + 3)])
    def test_charges_match_costmodel(self, rng, monkeypatch, rows, hidden):
        # x is two positions of rows/2 rows, in one block at the default
        # block size but in the last case, past one PHI_BLOCK, and then one
        # position per block.  The op keeps its output alone; while it ran
        # it held one block's hidden activation, with one block of Phi, then
        # with the output and, in the second block, with both.  An output
        # width of 3 against a hidden width of 4 or 2 makes the Phi block or
        # the output the larger.
        per, n = rows // 2 * hidden, rows * 3
        whole = 2 * per + max(min(2 * per, T.PHI_BLOCK), n)  # every position's at once
        for block in (T.MLP_BLOCK, 1):
            monkeypatch.setattr(T, "MLP_BLOCK", block)
            tracker = AllocTracker()
            with activate(tracker):
                x, w1, b1, w2 = _mlp_operands(rng, rng.normal((2, rows // 2, 3)), hidden, 3)
                before = tracker.stats()
                out = T.mlp(x, w1, b1, w2)
                after = tracker.stats()
            kept, high = costmodel._mlp(2, rows // 2, hidden, out.size)
            assert kept == 0  # the output is the first link of the block's chain, which counts it
            assert before.peak_bytes == before.live_bytes
            assert after.live_bytes - before.live_bytes == out.data.nbytes
            assert after.peak_bytes - before.live_bytes == 8 * high
            if block >= 2 * per:
                assert high == whole
            else:
                assert high == per + min(per, T.PHI_BLOCK) + n <= whole
            # backward reads x and the weights alone: no other array is saved
            inputs = {id(_owner(t.data)) for t in (x, w1, b1, w2)}
            assert {id(_owner(a)) for a in reachable_arrays(out)
                    if _owner(a) is not _owner(out.data)} <= inputs
            del out
            assert tracker.live_bytes == before.live_bytes

    def test_rejects_mismatched_shapes(self):
        x, w1, b1, w2 = (Tensor(np.zeros(s)) for s in ((2, 3, 4), (4, 6), (6,), (6, 5)))
        with pytest.raises(ShapeError):  # w1 reads width 5, x has 4
            T.mlp(x, Tensor(np.zeros((5, 6))), b1, w2)
        with pytest.raises(ShapeError):  # b1 is not of the hidden width
            T.mlp(x, w1, Tensor(np.zeros(5)), w2)
        with pytest.raises(ShapeError):  # w2 reads width 5, the hidden is 6
            T.mlp(x, w1, b1, Tensor(np.zeros((5, 5))))
        with pytest.raises(ShapeError):  # x needs rows
            T.mlp(Tensor(np.zeros(4)), w1, b1, w2)


def mp_phi(x):
    """Phi(x) to 50 digits, rounded once to float64."""
    with mpmath.workdps(50):
        return float(mpmath.ncdf(mpmath.mpf(float(x))))


def phi_errors(got, want):
    """Relative error where Phi is a normal float, and absolute error
    (in units of the least normal) where it is subnormal or zero."""
    normal = want >= TINY
    rel = np.abs(got[normal] - want[normal]) / want[normal]
    sub = np.abs(got[~normal] - want[~normal]) / TINY
    return rel.max(initial=0.0), sub.max(initial=0.0)


def assert_phi_accurate(got, want):
    rel, sub = phi_errors(got, want)
    assert rel <= PHI_RTOL, f"relative error {rel:.2e}"
    assert sub <= PHI_RTOL, f"absolute error {sub:.2e} x the least normal"


def _polyval(x, coefs):
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _phi_tail_both_rationals(x):
    """`tensor._phi_tail` with both erfc rationals evaluated over every
    element and np.where picking one, the reference for its bits."""
    a = np.minimum(np.abs(x), T._TAIL_CLAMP)
    z = a * T._INV_SQRT2
    (pn, pd), (rn, rd) = T._TAIL_NEAR, T._TAIL_FAR
    q = np.where(z < 8.0, _polyval(z, pn) / _polyval(z, pd), _polyval(z, rn) / _polyval(z, rd))
    hi = a * a
    c = a * T._VELTKAMP
    ah = c - (c - a)
    al = a - ah
    lo = ((ah * ah - hi) + 2.0 * ah * al) + al * al
    q *= np.exp(-0.5 * hi) * (1.0 - 0.5 * lo)
    return np.where(x < 0.0, q, 1.0 - q)


@pytest.fixture(scope="module")
def phi_grid():
    """x from -40 to 40 across both branches, the erfc branch's switch at
    |x| = 8 sqrt2 and the tails down to underflow, with the points next to
    the branch point sqrt2; and Phi there to 50 digits."""
    edges = [np.nextafter(SQRT2, 0.0), SQRT2, np.nextafter(SQRT2, 2.0), 8.0 * SQRT2]
    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), np.linspace(-1.5, 1.5, 601),
                        edges, np.negative(edges)])
    return x, np.array([mp_phi(v) for v in x])


class TestNormalCdf:
    def test_grid(self, phi_grid):
        x, want = phi_grid
        assert_phi_accurate(T.normal_cdf(x), want)

    @pytest.mark.parametrize("size, core_only", [
        (1, False), (BLK - 1, False), (BLK, False), (BLK + 1, False), (3 * BLK + 7, False),
        (3 * BLK + 7, True)])
    def test_block_sizes(self, phi_grid, size, core_only):
        """Core and tail elements at random positions, every second block's
        worth of them core elements only; or core elements alone, so that
        the way without the clip runs on a multi-block-sized array too."""
        x, want = phi_grid
        rng = np.random.default_rng(size)
        pick = rng.integers(len(x), size=size)
        core = np.flatnonzero(np.abs(x) <= SQRT2)
        core_block = np.full(size, True) if core_only else np.arange(size) // BLK % 2 == 1
        pick[core_block] = rng.choice(core, core_block.sum())
        assert_phi_accurate(T.normal_cdf(x[pick]), want[pick])

    def test_special_values_without_warning(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
        want = np.array([0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0, 0.5])
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 2 * BLK + 3)
        at = np.random.default_rng(1).choice(x.size, special.size, replace=False)
        x[at] = special
        # underflow to 0 is the result asked for; numpy ignores it by default
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            got_alone = T.normal_cdf(special)
            got = T.normal_cdf(x)
        np.testing.assert_array_equal(got_alone, want)
        np.testing.assert_array_equal(got[at], want)

    def test_tail_matches_both_rationals_everywhere(self, phi_grid):
        # each erfc rational on its own elements gives the bits of both
        # rationals over every element with np.where picking one, on the
        # grid's tail, both sides of the switch at |x| = 8 sqrt2 included,
        # and at the infinities and NaN
        x = phi_grid[0]
        x = np.concatenate([x[np.abs(x) > SQRT2], [np.inf, -np.inf, np.nan]])
        assert (np.abs(x) < 8.0 * SQRT2).any() and (np.abs(x) > 8.0 * SQRT2).any()
        np.testing.assert_array_equal(T._phi_tail(x), _phi_tail_both_rationals(x))

    def test_lower_tail_does_not_cancel(self):
        """1/2 (1 + erf(x/sqrt2)) loses every digit to cancellation as x
        falls below -3; the tail branch keeps full relative accuracy."""
        x = np.linspace(-8.5, -3.0, 56)
        want = np.array([mp_phi(v) for v in x])
        old = 0.5 * (1.0 + np.vectorize(math.erf, otypes=[float])(x / SQRT2))
        assert phi_errors(old, want)[0] > 1e-2
        assert_phi_accurate(T.normal_cdf(x), want)


@st.composite
def _walked_array(draw):
    """(x, its positions as a [n, *core] copy, the run, core_ndim, blk): x has
    0-3 lead axes and 0-2 core axes, and is sometimes a transposed view."""
    core = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=0 if core else 1, max_size=3)))
    base = np.arange(math.prod(lead + core), dtype=np.float64).reshape(lead + core)
    x = base
    if len(lead) >= 2 and draw(st.booleans()):  # lay the last two lead axes out swapped
        perm = (*range(len(lead) - 2), len(lead) - 1, len(lead) - 2)
        x = np.ascontiguousarray(base.transpose(*perm, *range(len(lead), base.ndim)))
        x = x.transpose(*perm, *range(len(lead), base.ndim))
    rows = x.reshape(-1, *core)  # a copy where x is transposed
    return x, rows, (lead or (1,))[-1], len(core), draw(st.integers(1, 6))


class TestPositionBlocks:
    @settings(max_examples=60, deadline=None)
    @given(_walked_array())
    def test_walks_each_position_once_in_order_as_views(self, case):
        x, rows, run, core_ndim, blk = case
        blocks = list(T._position_blocks(x, core_ndim, blk))
        assert [i for sl, _ in blocks for i in range(sl.start, sl.stop)] == list(range(len(rows)))
        for sl, xs in blocks:
            assert 1 <= sl.stop - sl.start == len(xs) <= blk
            assert sl.start // run == (sl.stop - 1) // run  # within one run
            assert np.shares_memory(xs, x)
            np.testing.assert_array_equal(xs, rows[sl])

    def test_a_transposed_stack_is_read_in_place(self, rng):
        # a stack [B, S, C, D] that is a transposed view of [B, C, S, D], as
        # a token slab is at B = 1: each block of S positions is a view of
        # it, cut at each sample
        x = rng.normal((2, 3, 5, 4)).transpose(0, 2, 1, 3)
        blocks = list(T._position_blocks(x, 2, 3))
        assert [sl for sl, _ in blocks] == [slice(0, 3), slice(3, 5), slice(5, 8), slice(8, 10)]
        for sl, xs in blocks:
            assert np.shares_memory(xs, x)
            np.testing.assert_array_equal(xs, x.reshape(10, 3, 4)[sl])

    def test_no_lead_axis_is_one_position(self, rng):
        x = rng.normal((3, 4))
        [(sl, xs)] = T._position_blocks(x, 2, 5)
        assert sl == slice(0, 1) and xs.shape == (1, 3, 4) and np.shares_memory(xs, x)

    @given(st.integers(1, 50), st.integers(1, 300), st.integers(1, 2 ** 12))
    def test_block_length_fits_at_least_one_and_at_most_count(self, count, per, budget):
        blk = T._block_length(count, per, budget)
        assert 1 <= blk <= count
        assert blk * per <= budget or blk == 1  # fits, unless one item alone does not
        assert blk == count or (blk + 1) * per > budget  # and is the most that fit


class TestRearrange:
    def test_take_rows_grad(self, rng):
        ts = {"x": Tensor(rng.normal((5, 3)), requires_grad=True)}
        w = rng.normal((3, 3))
        rows = np.array([4, 0, 2])
        check_grad(lambda: T.sum_all(T.mul(T.take_rows(ts["x"], rows), Tensor(w))), ts)

    def test_take_rows_grad_repeated_rows(self, rng):
        # a row taken several times gets the sum of its takes' gradients
        ts = {"x": Tensor(rng.normal((5, 3)), requires_grad=True)}
        w = rng.normal((7, 3))
        rows = np.array([4, 0, 4, 2, 0, 4, 1])
        check_grad(lambda: T.sum_all(T.mul(T.take_rows(ts["x"], rows), Tensor(w))), ts)

    @settings(max_examples=60)
    @given(st.integers(1, 6), st.integers(0, 40), st.integers(2, 5),
           st.integers(0, 2 ** 32 - 1))
    def test_take_rows_sums_each_rows_takes_in_index_order(self, n, m, f, seed):
        # a row's takes are summed one after another in index order, the
        # order `np.add.at` sums them in, to the bit: rows taken once, rows
        # taken by many takes (the mask token's) and rows taken once per
        # sample (the positional rows'), all in one draw
        gen = np.random.default_rng(seed)
        rows = np.concatenate([gen.permutation(n)[:gen.integers(0, n + 1)],
                               np.zeros(gen.integers(0, 30), int), gen.integers(0, n, m)])
        gen.shuffle(rows)
        g = gen.standard_normal((rows.size, f)) * 10.0 ** gen.uniform(-8, 8, (rows.size, 1))
        x = Tensor(np.zeros((n, f)), requires_grad=True)
        T.backward(T.sum_all(T.mul(T.take_rows(x, rows), Tensor(g))))
        want = np.zeros((n, f))
        np.add.at(want, rows, g)
        assert x.grad.tobytes() == want.tobytes()

    def test_take_rows_distinct_rows_scatter_by_assignment(self, rng):
        # summing into zeros is assignment, bit for bit, for distinct rows
        x = Tensor(rng.normal((6, 4)), requires_grad=True)
        rows = np.array([5, 1, 3])
        g = rng.normal((3, 4))
        T.backward(T.sum_all(T.mul(T.take_rows(x, rows), Tensor(g))))
        want = np.zeros((6, 4))
        want[rows] = g
        np.testing.assert_array_equal(x.grad, want)

    def test_take_rows_charges_only_its_output(self, rng):
        # the gathered rows are a new buffer, and backward reads none of x
        tracker = AllocTracker()
        with activate(tracker):
            x = Tensor(rng.normal((6, 4)), requires_grad=True)
            before = tracker.stats()
            out = T.take_rows(x, np.array([1, 5]))
            after = tracker.stats()
            np.testing.assert_array_equal(out.data, x.data[[1, 5]])
            assert after.live_bytes - before.live_bytes == out.data.nbytes == 8 * 2 * 4
            assert after.peak_bytes == after.live_bytes
            assert not any(np.shares_memory(a, x.data) for a in reachable_arrays(out))
            del out
            assert tracker.live_bytes == before.live_bytes

    def test_concat_split_identity(self, rng):
        x = Tensor(rng.normal((2, 6, 3)))
        parts = T.split(x, 1, (2, 4))
        assert all(np.shares_memory(p.data, x.data) for p in parts)
        np.testing.assert_array_equal(T.concat(parts, axis=1).data, x.data)

    def test_split_grad(self, rng):
        ts = {"x": Tensor(rng.normal((2, 6, 3)), requires_grad=True)}
        w = [rng.normal((2, n, 3)) for n in (1, 3, 2)]
        check_grad(lambda: T.sum_all(T.concat(
            [T.mul(p, Tensor(wp)) for p, wp in zip(T.split(ts["x"], 1, (1, 3, 2)), w)], 1)), ts)

    def test_split_grad_equals_scattered_pieces(self, rng):
        # each piece's gradient in its place and zeros elsewhere, bit for bit
        # what scattering every piece into zeros of x's shape and adding the
        # scattered arrays gives; a piece read twice sums its gradients, and
        # a piece nothing reads gets zeros
        x = Tensor(rng.normal((3, 7, 2)), requires_grad=True)
        sizes, g = (2, 1, 3, 1), [rng.normal((3, n, 2)) for n in (2, 1, 3, 1)]
        pieces = T.split(x, 1, sizes)
        terms = [T.mul(pieces[0], Tensor(g[0])), T.mul(pieces[2], Tensor(g[2])),
                 T.mul(pieces[3], Tensor(g[3])), T.mul(pieces[0], Tensor(g[1][:, :1] * g[0]))]
        T.backward(T.sum_all(T.concat(terms, 1)))
        want = np.zeros(x.shape)
        for (start, stop), grad in (((0, 2), g[0]), ((3, 6), g[2]), ((6, 7), g[3]),
                                    ((0, 2), g[1][:, :1] * g[0])):
            full = np.zeros(x.shape)
            full[:, start:stop] = grad
            want = want + full
        np.testing.assert_array_equal(x.grad, want)
        assert (x.grad[:, 2] == 0.0).all()

    def test_split_rejects_sizes_that_do_not_cover_the_axis(self):
        x = Tensor(np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            T.split(x, 1, (2, 2))
        with pytest.raises(ShapeError):
            T.split(x, 1, (5, 0))

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


class TestInPlace:
    """`add_` writes into its first operand's buffer, with the values and
    gradients of the out-of-place sum."""

    def test_the_first_operands_buffer_holds_the_result(self, rng):
        x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal((3, 1)), requires_grad=True)
        g = rng.normal((2, 3, 4))
        tr = AllocTracker()
        with activate(tr):
            a = T.scale(x, 1.0)
            live = tr.live_bytes
            out = T.add_(a, b)
            assert out.data is a.data and tr.live_bytes == live
            np.testing.assert_array_equal(out.data, x.data + b.data)
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
        np.testing.assert_array_equal(x.grad, g)
        np.testing.assert_array_equal(b.grad, g.sum(axis=0).sum(axis=1, keepdims=True))

    def test_rejects_an_operand_that_does_not_broadcast_into_the_first(self):
        with pytest.raises(ShapeError, match="broadcast"):
            T.add_(T.scale(Tensor(np.zeros((3, 1))), 1.0), Tensor(np.zeros((3, 4))))


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
            y = T.attention(T.matmul(x, x), x, None, x, x, x, 1)
            T.backward(T.sum_all(T.mul(y, y)))
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())
