import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dchag import tensor as T
from dchag.costmodel import estimate
from dchag.config import (ConfigError, ModelConfig, ParallelConfig, StrategyConfig,
                          build_tree_spec)
from dchag.layers import allsum, cross_attention_aggregate, fanout, transformer_block
from dchag.model import (Batch, decode, forward_loss_reference, kept_rows, make_mask,
                         masked_mse, masked_rows, patch_rows, tokenize_channels,
                         tree_aggregate, vit_forward)
from dchag.params import create_master, shard_for_rank, unshard_grads
from dchag.rng import RngState
from dchag.runtime import ring_allreduce_payload, spawn_ranks
from dchag.strategies import gather_into_split, gather_shards, run_serial_step
from dchag.synthetic import make_batch
from dchag.tensor import Tensor
from dchag.tracking import AllocTracker, activate, current_tracker

from conftest import assert_grads_match, check_grad, reachable_arrays, rel_err


def tiny_model(**kw):
    base = dict(channels=4, image_h=8, image_w=8, patch=4, embed=8, depth=1,
                heads=2, mlp_ratio=2, agg_variant="single_query",
                mask_ratio=0.5, decoder_depth=1, decoder_dim=8)
    base.update(kw)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def wrap(master, requires_grad=True):
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in master.items()}


def tiny_batch(model, seed=7, b=2):
    return make_batch(model, seed, 0, list(range(b)))


# -- head-split exchanges ------------------------------------------------------


class TestExchanges:
    def test_no_group_returns_input(self, rng):
        # fanout adds no op, allocation or tape node to the serial graph, and
        # allsum only the bias add, in its input's buffer
        x = Tensor(rng.normal((2, 3)), requires_grad=True)
        assert fanout(None, x, "t") is x
        b = Tensor(rng.normal((3,)))
        partial = T.scale(x, 1.0)
        out = allsum(None, partial, b, "t")
        assert out.data is partial.data
        np.testing.assert_array_equal(out.data, x.data + b.data)

    @pytest.mark.parametrize("tp", [2, 4])
    def test_allsum_sums_and_adds_the_bias_in_the_partials_buffer(self, tp):
        # each rank's output is its own partial's buffer, holding the sum in
        # rank order and then the bias; x's gradient is the incoming one, and
        # the bias's is it summed over the broadcast axes
        gen = np.random.default_rng(5)
        xs, g = gen.standard_normal((tp, 3, 2, 4)), gen.standard_normal((3, 2, 4))
        bias = gen.standard_normal(4)
        total = xs[0].copy()
        for x in xs[1:]:
            total += x

        def program(ctx):
            x, b = Tensor(xs[ctx.rank], requires_grad=True), Tensor(bias, requires_grad=True)
            partial = T.scale(x, 1.0)
            out = allsum(ctx.tp, partial, b, "t")
            assert out.data is partial.data
            values = out.data.copy()
            T.backward(T.sum_all(T.mul(out, Tensor(g))))
            return values, x.grad, b.grad

        for values, dx, db in spawn_ranks(ParallelConfig(dchag_tp=tp), program).results:
            np.testing.assert_array_equal(values, total + bias)
            np.testing.assert_array_equal(dx, g)
            np.testing.assert_array_equal(db, g.sum(axis=(0, 1)))

    @pytest.mark.parametrize("tp", [2, 4])
    def test_each_exchange_is_one_allreduce(self, tp):
        # fanout's backward and allsum's forward: one AllReduce per rank each,
        # carrying the ring all-reduce payload of the whole tensor
        shape = (3, 2 * tp)

        def program(ctx):
            x = Tensor(np.ones(shape), requires_grad=True)
            T.backward(T.sum_all(fanout(ctx.tp, x, "f")))
            allsum(ctx.tp, Tensor(np.ones(shape)), Tensor(np.zeros(2 * tp)), "a")

        ledger = spawn_ranks(ParallelConfig(dchag_tp=tp), program).ledger
        pay = ring_allreduce_payload(3 * 2 * tp, 8, tp)
        for rank in range(tp):
            assert [(e.op, e.tag, e.payload_bytes_per_rank)
                    for e in ledger.per_rank[rank]] == [("AllReduce", "f", pay),
                                                       ("AllReduce", "a", pay)]

    @settings(max_examples=20)
    @given(tp=st.sampled_from((2, 4)), lead=st.lists(st.integers(1, 3), max_size=2),
           width=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_fanout_and_allsum_are_conjugate(self, tp, lead, width, seed):
        # fanout: identity forward, sum of the ranks' gradients backward;
        # allsum (with a zero bias): sum forward, identity backward; so each
        # one's backward is the other's forward, and <allsum(x), y> =
        # <x, fanout'(y)> over ranks.  allsum sums into its input, so it is
        # given op outputs, not the caller's arrays
        gen = np.random.default_rng(seed)
        shape = (*lead, tp * width)
        xs = gen.standard_normal((tp, *shape))
        ys = gen.standard_normal((tp, *shape))

        def program(ctx):
            r = ctx.rank
            xf = Tensor(xs[r], requires_grad=True)
            out_f = fanout(ctx.tp, xf, "t")
            T.backward(T.sum_all(T.mul(out_f, Tensor(ys[r]))))
            xa, zero = Tensor(xs[r], requires_grad=True), Tensor(np.zeros(tp * width))
            out_a = allsum(ctx.tp, T.scale(xa, 1.0), zero, "t")
            T.backward(T.sum_all(T.mul(out_a, Tensor(ys[r]))))
            sum_y = allsum(ctx.tp, T.scale(Tensor(ys[r]), 1.0), zero, "t")
            return out_f.data, xf.grad, out_a.data, xa.grad, sum_y.data

        res = spawn_ranks(ParallelConfig(dchag_tp=tp), program).results
        for r, (out_f, grad_f, out_a, grad_a, sum_y) in enumerate(res):
            np.testing.assert_array_equal(out_f, xs[r])
            np.testing.assert_array_equal(grad_a, ys[r])
            np.testing.assert_array_equal(grad_f, sum_y)
            assert rel_err(out_a, xs.sum(axis=0)) < 1e-12
        lhs = sum(np.vdot(res[r][2], ys[r]) for r in range(tp))  # <allsum(x), y>
        rhs = sum(np.vdot(xs[r], res[r][1]) for r in range(tp))  # <x, fanout'(y)>
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))

    @settings(max_examples=20)
    @given(tp=st.sampled_from((2, 4)), ndim=st.integers(1, 3), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gather_then_slice_is_identity(self, tp, ndim, data, seed):
        # forward: the rank's own slice of the gathered tensor is its shard;
        # backward: the shard's gradient is its slice of the (replicated)
        # gradient of the gathered tensor
        shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=ndim, max_size=ndim)))
        axis = data.draw(st.integers(0, ndim - 1))
        gen = np.random.default_rng(seed)
        xs = gen.standard_normal((tp, *shape))
        full_shape = list(shape)
        full_shape[axis] *= tp
        y = gen.standard_normal(full_shape)
        width = shape[axis]

        def program(ctx):
            x = Tensor(xs[ctx.rank], requires_grad=True)
            full = gather_shards(ctx.tp, x, axis, "t")
            own = T.split(full, axis, [width] * tp)[ctx.tp.index]
            T.backward(T.sum_all(T.mul(full, Tensor(y))))
            return full.data, own.data, x.grad

        res = spawn_ranks(ParallelConfig(dchag_tp=tp), program).results
        ys = np.split(y, tp, axis=axis)
        for r, (full, own, grad) in enumerate(res):
            np.testing.assert_array_equal(full, np.concatenate(list(xs), axis=axis))
            np.testing.assert_array_equal(own, xs[r])
            np.testing.assert_array_equal(grad, ys[r])

    @settings(max_examples=20)
    @given(tp=st.sampled_from((2, 4)), ndim=st.integers(1, 3), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gather_into_split_reduce_scatters_the_partials(self, tp, ndim, data, seed):
        # forward: gather_shards' AllGather; backward: each rank's gradient
        # of the gathered tensor is a split layer's partial, and the shard's
        # gradient is its slice of their sum in rank order (the bits of an
        # AllReduce then a slice), by one ReduceScatter that moves the
        # AllGather's bytes
        shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=ndim, max_size=ndim)))
        axis = data.draw(st.integers(0, ndim - 1))
        gen = np.random.default_rng(seed)
        xs = gen.standard_normal((tp, *shape))
        full_shape = list(shape)
        full_shape[axis] *= tp
        ys = gen.standard_normal((tp, *full_shape))

        def program(ctx):
            x = Tensor(xs[ctx.rank], requires_grad=True)
            full = gather_into_split(ctx.tp, x, axis, "t")
            ctx.phase = "backward"
            T.backward(T.sum_all(T.mul(full, Tensor(ys[ctx.rank]))))
            return full.data, x.grad

        spawned = spawn_ranks(ParallelConfig(dchag_tp=tp), program)
        total = ys[0].copy()
        for y in ys[1:]:
            total += y
        pay = xs[0].nbytes * (tp - 1)
        for r, (full, grad) in enumerate(spawned.results):
            np.testing.assert_array_equal(full, np.concatenate(list(xs), axis=axis))
            np.testing.assert_array_equal(grad, np.split(total, tp, axis=axis)[r])
            assert [(e.op, e.phase, e.tag, e.payload_bytes_per_rank)
                    for e in spawned.ledger.per_rank[r]] == [
                        ("AllGather", "forward", "t", pay), ("ReduceScatter", "backward", "t", pay)]

    def test_gather_and_sum_hand_on_views_of_their_gradient(self):
        # neither backward copies: each parent's gradient shares memory with
        # the gradient the op received (closures never write into it)
        def program(ctx):
            full = gather_shards(ctx.tp, Tensor(np.ones((2, 3)), requires_grad=True), 1, "t")
            g = np.arange(12.0).reshape(2, 6)
            (gx,) = full._backward(g)
            return np.shares_memory(gx, g), gx

        for r, (shares, gx) in enumerate(spawn_ranks(ParallelConfig(dchag_tp=2), program).results):
            assert shares
            np.testing.assert_array_equal(gx, np.arange(12.0).reshape(2, 6)[:, 3 * r:3 * r + 3])
        g = np.array(2.0)
        (gx,) = T.sum_all(Tensor(np.ones((2, 3)), requires_grad=True))._backward(g)
        assert np.shares_memory(gx, g)
        np.testing.assert_array_equal(gx, np.full((2, 3), 2.0))


# -- tokenization ------------------------------------------------------------


class TestTokenize:
    def test_paper_scale_shapes(self):
        # 500 spectral channels, 64x64 images, 16-pixel patches, 6 of the
        # 16 positions kept
        rng = RngState(0)
        tok_w = Tensor(rng.normal((500, 256, 8)))
        chan = Tensor(np.zeros((500, 8)))
        pos = Tensor(np.zeros((16, 8)))
        imgs = rng.normal((1, 500, 64, 64))
        out = tokenize_channels(imgs, np.array([0, 2, 3, 7, 11, 15]), tok_w, chan, pos, 16)
        assert out.shape == (1, 6, 500, 8)

    def test_zero_everything_gives_zero_tokens(self):
        out = tokenize_channels(np.zeros((1, 2, 4, 4)), np.arange(4),
                                Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((2, 3))),
                                Tensor(np.zeros((4, 3))), 2)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_gradient(self, rng):
        # positions 1 and 3 are kept in both samples, so their positional
        # rows gather the gradient of two tokens each
        ts = {
            "w": Tensor(rng.normal((2, 16, 6), 0.1), requires_grad=True),
            "cid": Tensor(rng.normal((2, 6), 0.1), requires_grad=True),
            "pos": Tensor(rng.normal((4, 6), 0.1), requires_grad=True),
        }
        imgs = rng.normal((2, 2, 8, 8))
        rows = np.array([0, 1, 3, 5, 7])
        probe = rng.normal((1, 5, 2, 6))

        def f():
            out = tokenize_channels(imgs, rows, ts["w"], ts["cid"], ts["pos"], 4)
            return T.sum_all(T.mul(out, Tensor(probe)))

        check_grad(f, ts, tol=1e-5)

    def test_patch_rows_shape(self, rng):
        out = patch_rows(rng.normal((1, 3, 64, 64)), np.arange(16), 16)
        assert out.shape == (16, 3, 16, 16)

    def test_patch_rows_is_pixel_permutation(self):
        # every position's rows hold every pixel once; row (k, c) holds
        # channel c's pixels of position k's patch, row-major within it
        x = np.arange(2 * 3 * 8 * 12, dtype=float).reshape(2, 3, 8, 12)
        out = patch_rows(x, np.arange(12), 4)
        assert out.shape == (12, 3, 4, 4)
        np.testing.assert_array_equal(np.sort(out, axis=None), x.ravel())
        np.testing.assert_array_equal(out[6 + 4, 2], x[1, 2, 4:8, 4:8])

    def test_indivisible_images_are_rejected(self):
        # patch rows are read only from images that patches tile
        with pytest.raises(ConfigError, match="not divisible by patch"):
            tiny_model(image_h=10, image_w=10)

    def test_a_slab_is_read_where_it_lies(self, rng):
        # a rank's channel slab is a view of the batch's images: its patch
        # rows are those channels' rows of the whole images'
        x = rng.normal((2, 6, 8, 8))
        rows = np.array([1, 4, 6])
        np.testing.assert_array_equal(patch_rows(x[:, 2:4], rows, 4),
                                      patch_rows(x, rows, 4)[:, 2:4])


# -- aggregation ---------------------------------------------------------------


def brute_force_single_query(tokens, q, wv, wo, bo, heads, wk=None, wq=None):
    """Explicit-loop scaled dot-product oracle for the learned-query reduce,
    head h scoring token x as x @ q[:, h].  Given `wk`, q is one vector [D]
    and head h scores x as q_h . (x @ wk)_h, with the key projection the
    model absorbs into q; given `wq` as well, the query is q @ wq, with the
    query projection it absorbs too."""
    b_, s, c, d = tokens.shape
    dh = d // heads
    out = np.zeros((b_, s, 1, d))
    qp = q if wq is None else q @ wq
    for b in range(b_):
        for si in range(s):
            x = tokens[b, si]  # [C, D]
            k = None if wk is None else x @ wk
            v = x @ wv
            merged = np.zeros(d)
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                logits = np.array([x[c_] @ qp[:, h] if wk is None else qp[sl] @ k[c_, sl]
                                   for c_ in range(c)]) / np.sqrt(dh)
                e = np.exp(logits - logits.max())
                p = e / e.sum()
                merged[sl] = sum(p[c_] * v[c_, sl] for c_ in range(c))
            out[b, si, 0] = merged @ wo + bo
    return out


def brute_force_full_cross(tokens, wq, wk, wv, wo, bo, rq, heads):
    """Explicit-loop full_cross layer; returns its output [B, S, 1, D] and
    the reduce stage's weights [B, S, C] over the C attended tokens."""
    b_, s, c, d = tokens.shape
    dh = d // heads
    out = np.zeros((b_, s, 1, d))
    weights = np.zeros((b_, s, c))
    for b in range(b_):
        for si in range(s):
            x = tokens[b, si]
            q, k, v = x @ wq, x @ wk, x @ wv
            att = np.zeros((c, d))
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                p = e / e.sum(axis=1, keepdims=True)
                att[:, sl] = p @ v[:, sl]
            proj = att @ wo + bo
            scores = proj @ rq[:, 0] / np.sqrt(d)
            e = np.exp(scores - scores.max())
            weights[b, si] = e / e.sum()
            out[b, si, 0] = weights[b, si] @ proj
    return out, weights


class TestFlatAggregate:
    def test_single_channel_single_query_weight_is_one(self, rng):
        model = tiny_model(channels=1)
        master = create_master(model, StrategyConfig(), RngState(3))
        w = wrap(master, requires_grad=False)
        tokens = Tensor(rng.normal((1, 4, 1, 8)))
        out = cross_attention_aggregate(tokens, w, "agg.flat", "single_query", model.heads)
        # with one key the softmax is exactly 1, so output = v @ wo + bo
        v = tokens.data[0] @ master["agg.flat.wv"]
        expect = v @ master["agg.flat.wo"] + master["agg.flat.bo"]
        np.testing.assert_allclose(out.data[0], expect, atol=1e-12)

    def test_single_query_matches_bruteforce(self, rng):
        model = tiny_model(channels=3, embed=4, heads=1)
        master = create_master(model, StrategyConfig(), RngState(5))
        w = wrap(master, requires_grad=False)
        tokens = rng.normal((2, 2, 3, 4))
        out = cross_attention_aggregate(Tensor(tokens), w, "agg.flat", "single_query", 1)
        expect = brute_force_single_query(
            tokens, *(master[f"agg.flat.{leaf}"] for leaf in ("q", "wv", "wo", "bo")), 1)
        assert rel_err(out.data, expect) < 1e-12

    def test_full_cross_matches_bruteforce_multihead(self, rng):
        model = tiny_model(channels=3, embed=8, heads=2, agg_variant="full_cross")
        master = create_master(model, StrategyConfig(), RngState(6))
        w = wrap(master, requires_grad=False)
        tokens = rng.normal((1, 2, 3, 8))
        out = cross_attention_aggregate(Tensor(tokens), w, "agg.flat", "full_cross", 2)
        expect, _ = brute_force_full_cross(
            tokens, master["agg.flat.wq"], master["agg.flat.wk"], master["agg.flat.wv"],
            master["agg.flat.wo"], master["agg.flat.bo"], master["agg.flat.rq"], 2)
        assert rel_err(out.data, expect) < 1e-12

    def test_quadratic_vs_linear_logit_storage(self, monkeypatch):
        # full_cross forms C*C logits per head per position in the fused
        # attention op, single_query C scores per head in the pool.  Either
        # op is the aggregation's first; right after it, the aggregate peak
        # exceeds the live bytes by exactly its transient.  full_cross's is
        # one block's q (which becomes the block's context), k, v, logits
        # and row sums; over several blocks they live beside its output,
        # which stays live, while one block of every kept position is
        # projected once its k, v and logits have gone.  single_query's is
        # its scores and values, which outlive the row sums and, its input
        # folding as a view, meet no copy of it; the pooled values and the
        # output it forms from them are fewer.
        after = []

        def spy(name):
            real = getattr(T, name)

            def op(*args):
                out = real(*args)
                after.append(current_tracker().stats())
                return out

            monkeypatch.setattr(T, name, op)

        spy("attention")
        spy("attention_pool")

        def transient(variant, c):
            model = tiny_model(channels=c, agg_variant=variant)
            after.clear()
            run_serial_step(model, create_master(model, StrategyConfig(), RngState(3)),
                            tiny_batch(model, b=4))
            return after[0].tag_peak("aggregate") - after[0].per_tag_live["aggregate"]

        model = tiny_model()
        h, d = model.heads, model.embed
        positions = 4 * (model.seq - model.masked_count)  # kept at batch 4, one run

        def block(rows, c):  # logits and row sums of `rows` positions
            return 8 * rows * h * (c * c + c)

        def full_cross(rows, c):
            return 8 * 3 * rows * c * d + block(rows, c)

        def output(c):
            return 8 * positions * c * d

        # one block holds every kept position, and its logits grow with C^2;
        # the projections, scores and values grow with C
        logits = []
        for c in (8, 16):
            assert transient("full_cross", c) == full_cross(positions, c) - output(c) > output(c)
            assert transient("single_query", c) == 8 * positions * c * (h + d), c
            logits.append(block(positions, c) - 8 * positions * h * c)
        assert logits[1] == 4 * logits[0]
        # a block of 16-channel full_cross logits is two positions: at 16
        # channels the op holds two positions' beside its output, at 8
        # channels still every position's
        monkeypatch.setattr(T, "ATTENTION_BLOCK", 2 * h * 16 * 16)
        assert transient("full_cross", 16) == full_cross(2, 16) > output(16)
        assert transient("full_cross", 8) == full_cross(positions, 8) - output(8)
        # one position per block at 8 channels: the block is less than the
        # output, which an op holding every position's context held beside
        # that context, as its transient
        monkeypatch.setattr(T, "ATTENTION_BLOCK", h * 8 * 8)
        assert transient("full_cross", 8) == full_cross(1, 8) < output(8)

    def test_channel_permutation_equivariance(self, rng):
        model = tiny_model(channels=5, embed=8, heads=2)
        master = create_master(model, StrategyConfig(), RngState(8))
        w = wrap(master, requires_grad=False)
        imgs = rng.normal((1, 5, 8, 8))
        perm = RngState(9).permutation(5)

        def agg_of(images, chan_rows):
            tokens = tokenize_channels(images, np.arange(model.seq),
                                       Tensor(master["tok.w"][chan_rows]),
                                       Tensor(master["special.channel_id"][chan_rows]),
                                       Tensor(master["special.pos"]), model.patch)
            return cross_attention_aggregate(tokens, w, "agg.flat", "single_query", model.heads)

        base = agg_of(imgs, np.arange(5))
        permuted = agg_of(imgs[:, perm], perm)
        assert rel_err(base.data, permuted.data) < 1e-12


class TestFullCrossReduce:
    """full_cross's learned-query reduce where it weighs its inputs: the
    drawn weights make it far from a mean, yet no input is saturated."""

    D, HEADS, CK = 8, 2, 4

    def draw(self, seed):
        rng = RngState(seed)
        d = self.D
        master = {f"agg.flat.{leaf}": rng.normal(shape, 0.5) for leaf, shape in (
            ("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)), ("wo", (d, d)), ("bo", (d,)))}
        master["agg.flat.rq"] = rng.normal((d, 1), 1.5)
        x = rng.normal((2, 3, self.CK, d))  # [B, S, Ck, D]
        return master, x, rng.normal((2, 3, 1, d))

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_weighs_its_inputs(self, seed):
        master, x, probe = self.draw(seed)
        expect, weights = brute_force_full_cross(
            x, *(master[f"agg.flat.{leaf}"] for leaf in ("wq", "wk", "wv", "wo", "bo", "rq")),
            self.HEADS)
        # a mean's weights have no spread; saturated ones sit at 0 or 1
        assert weights.std(axis=-1).mean() > 0.1
        assert 0.005 < weights.min() and weights.max() < 0.9
        ts = {**wrap(master), "x": Tensor(x, requires_grad=True)}

        def f():
            out = cross_attention_aggregate(ts["x"], ts, "agg.flat", "full_cross", self.HEADS)
            return T.sum_all(T.mul(out, Tensor(probe)))

        out = cross_attention_aggregate(Tensor(x), ts, "agg.flat", "full_cross", self.HEADS)
        assert rel_err(out.data, expect) < 1e-12
        check_grad(f, {name: ts[name] for name in ("agg.flat.rq", "x")}, tol=1e-6)
        # rq's gradient clears the equivalence rule's 1e-3 floor by far (at the
        # `many_channels` initialisation it is 3e-18 of the largest)
        largest = max(np.abs(t.grad).max() for t in ts.values())
        assert np.abs(ts["agg.flat.rq"].grad).max() > 1e-2 * largest

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_head_split_matches_unsplit(self, seed):
        master, x, probe = self.draw(seed)
        strategy = StrategyConfig(kind="tp_only", tp_degree=2)

        def run(w, group):
            # the caller brings the input into the split region
            ts = {**wrap(w), "x": Tensor(x, requires_grad=True)}
            out = cross_attention_aggregate(fanout(group, ts["x"], "agg.flat"), ts, "agg.flat",
                                            "full_cross", self.HEADS, group)
            T.backward(T.sum_all(T.mul(out, Tensor(probe))))
            return out.data, {name: t.grad for name, t in ts.items()}

        def program(ctx):
            return run(shard_for_rank(master, strategy, ctx.coords[0]), ctx.tp)

        out, grads = run(master, None)
        ranks = spawn_ranks(ParallelConfig(dchag_tp=2), program).results
        split = unshard_grads([g for _, g in ranks], master, strategy)
        for rank_out, rank_grads in ranks:
            assert rel_err(rank_out, out) < 1e-10
            assert_grads_match({"x": grads["x"]}, {"x": rank_grads["x"]})
        assert_grads_match({k: grads[k] for k in master}, split)


class TestTreeAggregate:
    def test_degenerate_single_level_equals_flat(self, rng):
        model = tiny_model(channels=4, embed=8, heads=2, agg_variant="full_cross")
        spec = build_tree_spec(4, 8)
        assert spec == ((4,),)
        master = create_master(model, StrategyConfig(), RngState(4))
        # copy flat weights into the single tree node
        node = {k.replace("agg.flat", "agg.slab0.l0.g0"): v for k, v in master.items()
                if k.startswith("agg.flat")}
        w = wrap({**master, **node}, requires_grad=False)
        tokens = Tensor(rng.normal((2, 4, 4, 8)))
        flat = cross_attention_aggregate(tokens, w, "agg.flat", "full_cross", 2)
        tree = tree_aggregate(tokens, spec, w, "agg.slab0", "cross_attention",
                              "full_cross", 2)
        np.testing.assert_array_equal(flat.data, tree.data)

    def test_two_level_matches_manual_composition(self, rng):
        model = tiny_model(channels=4, embed=8, heads=2)
        spec = build_tree_spec(4, 2)
        assert spec == ((2, 2), (2,))
        strategy = StrategyConfig(kind="dchag", tp_degree=1, max_group=2)
        master = create_master(model, strategy, RngState(11))
        w = wrap(master, requires_grad=False)
        tokens = rng.normal((1, 4, 4, 8))
        out = tree_aggregate(Tensor(tokens), spec, w, "agg.slab0",
                             "cross_attention", "single_query", 2)
        # manual composition with the same node weights
        lvl0 = [cross_attention_aggregate(Tensor(tokens[:, :, :2]), w, "agg.slab0.l0.g0",
                                          "single_query", 2),
                cross_attention_aggregate(Tensor(tokens[:, :, 2:]), w, "agg.slab0.l0.g1",
                                          "single_query", 2)]
        merged = T.concat(lvl0, axis=2)
        expect = cross_attention_aggregate(merged, w, "agg.slab0.l1.g0", "single_query", 2)
        assert rel_err(out.data, expect.data) < 1e-12

    def test_linear_nodes(self, rng):
        model = tiny_model(channels=4, embed=8)
        spec = build_tree_spec(4, 2)
        strategy = StrategyConfig(kind="dchag", tp_degree=1, max_group=2,
                                  agg_layer_kind="linear")
        master = create_master(model, strategy, RngState(12))
        w = wrap(master, requires_grad=False)
        tokens = rng.normal((1, 3, 4, 8))
        out = tree_aggregate(Tensor(tokens), spec, w, "agg.slab0", "linear",
                             "single_query", 2)
        # hand-roll: each node is (sum_g mix_g x_g) @ W + b
        def node(x, p):
            mixed = np.einsum("g,bsgd->bsd", master[f"{p}.mix"], x)
            return mixed @ master[f"{p}.w"] + master[f"{p}.b"]

        a = node(tokens[:, :, :2], "agg.slab0.l0.g0")
        b = node(tokens[:, :, 2:], "agg.slab0.l0.g1")
        expect = node(np.stack([a, b], axis=2), "agg.slab0.l1.g0")
        assert rel_err(out.data[:, :, 0], expect) < 1e-12

    def test_partition_mismatch_rejected(self, rng):
        model = tiny_model()
        spec = build_tree_spec(8, 4)
        strategy = StrategyConfig(kind="dchag", tp_degree=1, max_group=4)
        w = wrap(create_master(model, strategy, RngState(1)), requires_grad=False)
        with pytest.raises(ConfigError):
            tree_aggregate(Tensor(rng.normal((1, 4, 4, 8))), spec, w, "agg.slab0",
                           "cross_attention", "single_query", 2)


# -- transformer / mae ---------------------------------------------------------


def block_params(w, prefix):
    """A block's parameters from `w`, keyed by leaf name (wq, bq, ...)."""
    return {k[len(prefix) + 1:]: v for k, v in w.items() if k.startswith(prefix + ".")}


# libm's erf, elementwise: the reference block's GELU stays independent of
# the engine's own Phi rational.
libm_erf = np.vectorize(math.erf, otypes=[float])


def brute_force_block(x, p, heads):
    """Explicit-loop pre-norm block on one [T, D] sequence.  Besides the
    model's parameters it applies, where `p` has them, the ones the model
    leaves out: the norms' gains ln1.g and ln2.g and shifts ln1.b and ln2.b,
    and the value bias bv."""
    def ln(v, g, b, eps=1e-5):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return g * (v - mu) / np.sqrt(var + eps) + b

    t, d = x.shape
    dh = d // heads
    h = ln(x, p.get("ln1.g", 1.0), p.get("ln1.b", 0.0))
    q = h @ p["wq"] + p["bq"]
    k = h @ p["wk"]
    v = h @ p["wv"] + p.get("bv", 0.0)
    ctx = np.zeros((t, d))
    for hi in range(heads):
        sl = slice(hi * dh, (hi + 1) * dh)
        for i in range(t):
            logits = np.array([q[i, sl] @ k[j, sl] for j in range(t)]) / np.sqrt(dh)
            e = np.exp(logits - logits.max())
            ctx[i, sl] = (e / e.sum()) @ v[:, sl]
    x1 = x + ctx @ p["wo"] + p["bo"]
    u = ln(x1, p.get("ln2.g", 1.0), p.get("ln2.b", 0.0)) @ p["w1"] + p["b1"]
    return x1 + (0.5 * u * (1 + libm_erf(u / np.sqrt(2)))) @ p["w2"] + p["b2"]


class TestVit:
    def test_depth_zero_is_concat_only(self, rng):
        model = tiny_model(depth=0)
        master = create_master(model, StrategyConfig(), RngState(2))
        w = wrap(master, requires_grad=False)
        agg = rng.normal((1, 8, 1, 8))  # the stream of every position of two samples
        meta = rng.normal((2, 4))
        out = vit_forward(Tensor(agg), np.zeros((2, 4)), meta, w, model)  # nothing masked
        assert out.shape == (2, 5, 8)
        np.testing.assert_array_equal(out.data[:, 1:, :], agg.reshape(2, 4, 8))
        expect_meta = meta @ master["special.meta_w"] + master["special.meta_b"]
        np.testing.assert_array_equal(out.data[:, 0, :], expect_meta)

    def test_single_block_matches_bruteforce(self, rng):
        model = tiny_model(embed=4, heads=1, depth=1, mlp_ratio=2)
        master = create_master(model, StrategyConfig(), RngState(21))
        w = wrap(master, requires_grad=False)
        x = rng.normal((1, 3, 4))
        out = transformer_block(Tensor(x), w, "vit.blk0", 1)
        expect = brute_force_block(x[0], block_params(master, "vit.blk0"), 1)
        assert rel_err(out.data[0], expect) < 1e-12

    def test_sequence_length_is_s_plus_one(self, rng):
        for s, cfg in ((4, tiny_model()), (16, tiny_model(image_h=16, image_w=16))):
            master = create_master(cfg, StrategyConfig(), RngState(1))
            w = wrap(master, requires_grad=False)
            out = vit_forward(Tensor(rng.normal((1, s, 1, 8))), np.zeros((1, s)),
                              rng.normal((1, 4)), w, cfg)
            assert out.shape[1] == s + 1


class TestAbsorbedBiases:
    """The model has no parameter that another one absorbs (`params`): each
    bias it leaves out, kept nonzero in a numpy brute force, gives the same
    output as the bias-free model with the absorbing parameter shifted."""

    @pytest.mark.parametrize("tp", [1, 2])
    def test_block_shifts_and_value_bias(self, rng, tp):
        # bq absorbs ln1.b on q; ln1.b on k cancels in the softmax; bo absorbs
        # ln1.b and bv on v, per head under tp as well; b1 absorbs ln2.b
        d, heads, hidden = 8, 2, 16
        shapes = {"ln1.b": (d,), "wq": (d, d), "bq": (d,), "wk": (d, d), "wv": (d, d),
                  "bv": (d,), "wo": (d, d), "bo": (d,), "ln2.b": (d,), "w1": (d, hidden),
                  "b1": (hidden,), "w2": (hidden, d), "b2": (d,)}
        p = {leaf: rng.normal(shape, 0.5) for leaf, shape in shapes.items()}
        x = rng.normal((2, 5, d))
        expect = np.stack([brute_force_block(xi, p, heads) for xi in x])

        absorbed = {leaf: p[leaf] for leaf in shapes if leaf not in ("ln1.b", "bv", "ln2.b")}
        absorbed["bq"] = p["bq"] + p["ln1.b"] @ p["wq"]
        absorbed["bo"] = p["bo"] + (p["ln1.b"] @ p["wv"] + p["bv"]) @ p["wo"]
        absorbed["b1"] = p["b1"] + p["ln2.b"] @ p["w1"]
        master = {f"vit.blk0.{leaf}": v for leaf, v in absorbed.items()}
        strategy = StrategyConfig(kind="tp_only", tp_degree=tp)

        def program(ctx):
            w = wrap(shard_for_rank(master, strategy, ctx.coords[0]), False)
            return transformer_block(Tensor(x), w, "vit.blk0", heads, ctx.tp).data

        for out in spawn_ranks(ParallelConfig(dchag_tp=tp), program).results:
            assert rel_err(out, expect) < 1e-12

    def test_tokenizer_bias(self, rng):
        # special.channel_id absorbs a per-channel tokenizer bias
        b, c, side, patch, d = 2, 3, 8, 4, 6
        images = rng.normal((b, c, side, side))
        tok_w = rng.normal((c, patch * patch, d))
        tok_b, chan_id = rng.normal((c, d)), rng.normal((c, d))
        pos = rng.normal(((side // patch) ** 2, d))
        seq = len(pos)
        kept = np.array([0, 3, 4, 5, 6])  # three positions of sample 0, two of sample 1
        expect = np.zeros((1, len(kept), c, d))
        for k, row in enumerate(kept):
            bi, s = divmod(row, seq)
            i, j = divmod(s, side // patch)
            for ci in range(c):
                pixels = images[bi, ci, i * patch:(i + 1) * patch, j * patch:(j + 1) * patch]
                expect[0, k, ci] = (pixels.reshape(-1) @ tok_w[ci] + tok_b[ci]
                                    + chan_id[ci] + pos[s])
        out = tokenize_channels(images, kept, Tensor(tok_w), Tensor(chan_id + tok_b),
                                Tensor(pos), patch)
        assert rel_err(out.data, expect) < 1e-12

    def test_decoder_projection_bias(self, rng):
        # dec.pos absorbs the decoder projection's bias
        model = tiny_model()
        master = {k: rng.normal(v.shape, 0.5)
                  for k, v in create_master(model, StrategyConfig(), RngState(4)).items()
                  if k.startswith("dec.")}
        proj_b = rng.normal((model.decoder_dim,), 0.5)
        vit_out = rng.normal((2, model.seq + 1, model.embed))
        z = vit_out[:, 1:] @ master["dec.proj.w"] + proj_b + master["dec.pos"]
        z = np.stack([brute_force_block(zi, block_params(master, "dec.blk0"), 1) for zi in z])
        expect = z @ master["dec.head.w"] + master["dec.head.b"]
        w = wrap({**master, "dec.pos": master["dec.pos"] + proj_b}, False)
        every_position = np.arange(2 * model.seq)
        pred = decode(Tensor(vit_out), w, model, every_position)
        assert rel_err(pred.data, expect.reshape(2 * model.seq, -1)) < 1e-12


class TestAbsorbedWeights:
    """The norms' gains and single_query's query and key projections, kept
    in a numpy brute force, give the same output as the model without them,
    with the weights that absorb them folded; head-split at tp 2 as well."""

    @pytest.mark.parametrize("tp", [1, 2])
    def test_block_gains(self, rng, tp):
        # diag(ln1.g) @ W is wq's, wk's and wv's, diag(ln2.g) @ w1 is w1's
        d, heads, hidden = 8, 2, 16
        shapes = {"ln1.g": (d,), "wq": (d, d), "bq": (d,), "wk": (d, d), "wv": (d, d),
                  "wo": (d, d), "bo": (d,), "ln2.g": (d,), "w1": (d, hidden),
                  "b1": (hidden,), "w2": (hidden, d), "b2": (d,)}
        p = {leaf: rng.normal(shape, 0.5) for leaf, shape in shapes.items()}
        x = rng.normal((2, 5, d))
        expect = np.stack([brute_force_block(xi, p, heads) for xi in x])

        folded = {leaf: p[leaf] for leaf in shapes if leaf not in ("ln1.g", "ln2.g")}
        for leaf in ("wq", "wk", "wv"):
            folded[leaf] = p["ln1.g"][:, None] * p[leaf]
        folded["w1"] = p["ln2.g"][:, None] * p["w1"]
        master = {f"vit.blk0.{leaf}": v for leaf, v in folded.items()}
        strategy = StrategyConfig(kind="tp_only", tp_degree=tp)

        def program(ctx):
            w = wrap(shard_for_rank(master, strategy, ctx.coords[0]), False)
            return transformer_block(Tensor(x), w, "vit.blk0", heads, ctx.tp).data

        for out in spawn_ranks(ParallelConfig(dchag_tp=tp), program).results:
            assert rel_err(out, expect) < 1e-12

    @staticmethod
    def check_single_query(rng, tp, project_query):
        """The brute force with a learned vector q, a key projection wk and,
        if `project_query`, a query projection wq, against the layer whose
        stored query has column h = wk[:, head h] @ (q @ wq)_h."""
        d, heads, c = 8, 2, 3
        dh = d // heads
        q, wk = rng.normal((d,), 0.5), rng.normal((d, d), 0.5)
        wq = rng.normal((d, d), 0.5) if project_query else None
        p = {leaf: rng.normal((d, d), 0.5) for leaf in ("wv", "wo")}
        p["bo"] = rng.normal((d,), 0.5)
        tokens = rng.normal((2, 3, c, d))  # [B, S, C, D]
        expect = brute_force_single_query(tokens, q, p["wv"], p["wo"], p["bo"], heads,
                                          wk=wk, wq=wq)
        qp = q if wq is None else q @ wq
        p["q"] = np.stack([wk[:, h * dh:(h + 1) * dh] @ qp[h * dh:(h + 1) * dh]
                           for h in range(heads)], axis=1)
        master = {f"agg.flat.{leaf}": v for leaf, v in p.items()}
        strategy = StrategyConfig(kind="tp_only", tp_degree=tp)

        def program(ctx):
            w = wrap(shard_for_rank(master, strategy, ctx.coords[0]), False)
            return cross_attention_aggregate(Tensor(tokens), w, "agg.flat", "single_query",
                                             heads, ctx.tp).data

        for out in spawn_ranks(ParallelConfig(dchag_tp=tp), program).results:
            assert rel_err(out, expect) < 1e-12

    @pytest.mark.parametrize("tp", [1, 2])
    def test_query_projection(self, rng, tp):
        # the projected learned query q @ wq is itself one learned vector
        self.check_single_query(rng, tp, project_query=True)

    @pytest.mark.parametrize("tp", [1, 2])
    def test_key_projection(self, rng, tp):
        # head h scores x as q_h . (x @ wk)_h = x . (wk[:, head h] @ q_h)
        self.check_single_query(rng, tp, project_query=False)


class TestMae:
    def test_mask_floor_is_one_token(self):
        model = tiny_model(mask_ratio=0.0)
        mask = make_mask(model, [0, 1, 2], seed=3, step=0)
        np.testing.assert_array_equal(mask.sum(axis=1), 1.0)

    def test_mask_count(self):
        model = tiny_model(mask_ratio=0.5)  # S=4 -> 2 masked
        mask = make_mask(model, [0, 1], seed=3, step=0)
        np.testing.assert_array_equal(mask.sum(axis=1), 2.0)

    def test_perfect_prediction_zero_loss(self, rng):
        model = tiny_model()
        imgs = rng.normal((1, 4, 8, 8))
        rows = masked_rows(make_mask(model, [0], seed=1, step=0))
        corners = [(4 * (r // 2), 4 * (r % 2)) for r in rows]  # a row of two patches
        target = np.stack([imgs[0, :, i:i + 4, j:j + 4].ravel() for i, j in corners])
        loss = masked_mse(Tensor(target), imgs, rows, model)
        assert loss.item() == 0.0

    def test_unequal_counts_match_the_full_head_loss(self, rng):
        # the head and the loss over the masked rows alone give the loss, and
        # the head's gradients, of a head over every position whose error is
        # masked: a numpy brute force, with 3, 1 and 4 masked positions
        model = tiny_model()
        master = {k: rng.normal(v.shape, 0.5)
                  for k, v in create_master(model, StrategyConfig(), RngState(4)).items()
                  if k.startswith("dec.")}
        b, s, p = 3, model.seq, model.patch
        vit_out = rng.normal((b, s + 1, model.embed))
        images = rng.normal((b, model.channels, 8, 8))
        mask = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        w = wrap(master)
        rows = masked_rows(mask)
        loss = masked_mse(decode(Tensor(vit_out), w, model, rows), images, rows, model)
        T.backward(loss)

        z = vit_out[:, 1:] @ master["dec.proj.w"] + master["dec.pos"]
        z = np.stack([brute_force_block(zi, block_params(master, "dec.blk0"), 1) for zi in z])
        pred = z @ master["dec.head.w"] + master["dec.head.b"]  # [B, S, C*P*P]
        target = np.zeros_like(pred)
        for bi in range(b):
            for si in range(s):
                i, j = divmod(si, 8 // p)
                target[bi, si] = images[bi, :, i * p:(i + 1) * p, j * p:(j + 1) * p].ravel()
        n = mask.sum() * pred.shape[-1]
        err = (pred - target) * mask[..., None]
        dpred = 2.0 * err / n
        assert rel_err(loss.item(), (err ** 2).sum() / n) < 1e-12
        assert rel_err(w["dec.head.w"].grad, np.einsum("bsd,bsk->dk", z, dpred)) < 1e-12
        assert rel_err(w["dec.head.b"].grad, dpred.sum(axis=(0, 1))) < 1e-12

    def test_block_size_changes_no_bit_and_no_estimate(self, rng, monkeypatch):
        # one masked row per block; blocks of three of the eight rows, the
        # last ragged; and one block of every row.  The loss and the
        # prediction's gradient are the same to the bit, and the decoder's
        # estimate is its allocator peak at each block size: the prediction
        # and one block of the target, which grows with the block
        model = tiny_model(channels=12)
        batch = tiny_batch(model, b=4)
        rows = masked_rows(batch.mask)
        width = model.channels * model.patch_pixels
        pred = rng.normal((len(rows), width))
        master = create_master(model, StrategyConfig(), RngState(4))
        results, peaks = [], []
        for block in (1, 3 * width, 2 ** 40):
            monkeypatch.setattr(T, "LOSS_BLOCK", block)
            leaf = Tensor(pred, requires_grad=True)
            loss = masked_mse(T.scale(leaf, 1.0), batch.images, rows, model)
            T.backward(loss)
            results.append((loss.data, leaf.grad))
            peak = run_serial_step(model, master, batch).stats[0].tag_peak("decoder")
            assert peak == estimate(model, StrategyConfig(), precision_bytes=8,
                                    batch=4).activation("decoder"), block
            peaks.append(peak)
        for name, *arrays in zip(("loss", "dpred"), *results):
            assert all(np.array_equal(a, arrays[0]) for a in arrays[1:]), name
        assert peaks[1] - peaks[0] == 8 * 2 * width and peaks[2] - peaks[1] == 8 * 5 * width

    def test_holds_one_block_of_the_target(self, rng):
        # tracemalloc's peak over the loss is the tracker's, one charged
        # block of 16 of the 64 masked rows, to within the mask's index
        # arrays and Python objects: no block is gathered while the one
        # before it lives, and the target is never whole
        model = tiny_model(channels=64, image_h=32, image_w=32)
        batch = tiny_batch(model)
        rows = masked_rows(batch.mask)
        width = model.channels * model.patch_pixels
        assert len(rows) == 4 * T.LOSS_BLOCK // width
        pred = T.scale(Tensor(rng.normal((len(rows), width)), requires_grad=True), 1.0)
        tracker = AllocTracker()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with activate(tracker):
                masked_mse(pred, batch.images, rows, model)
            traced = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert tracker.peak_bytes == 8 * T.LOSS_BLOCK
        assert 0 <= traced - tracker.peak_bytes <= 2 ** 14

    def test_no_buffer_of_every_position_pixels(self, rng):
        # the head and the loss see only the masked rows: no array that the
        # decoder and the loss charge, or that the loss's graph holds, has
        # B*S*C*P*P elements (B=3, so no parameter has that many)
        model = tiny_model()
        b = 3
        full = b * model.seq * model.channels * model.patch_pixels
        charged = []

        class Recording(AllocTracker):
            def charge(self, buf, borrowed=False):
                charged.append(buf.size)
                super().charge(buf, borrowed)

        master = create_master(model, StrategyConfig(), RngState(4))
        w = wrap({k: v for k, v in master.items() if k.startswith("dec.")})
        rows = masked_rows(make_mask(model, range(b), seed=1, step=0))
        with activate(Recording()):
            loss = masked_mse(decode(Tensor(rng.normal((b, model.seq + 1, model.embed))), w,
                                     model, rows),
                              rng.normal((b, model.channels, 8, 8)), rows, model)
        assert charged and full not in charged
        assert all(a.size != full for a in reachable_arrays(loss))

    @pytest.mark.parametrize("mask, what", [
        (np.zeros((2, 4)), "masks no position"),
        (np.array([[0.0, 0.5, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]), "only 0 and 1")])
    def test_bad_mask_rejected(self, mask, what):
        model = tiny_model()
        batch = tiny_batch(model)
        batch.mask = mask
        master = create_master(model, StrategyConfig(), RngState(5))
        with pytest.raises(ConfigError, match=what):
            run_serial_step(model, master, batch)

    def test_stream_and_mask_token_are_placed(self, rng):
        # the kept stream's rows go to the kept positions in order, the mask
        # token to every masked one; the token's gradient sums the masked
        # positions', the stream's is its positions'
        model = tiny_model(depth=0)
        mask = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
        agg = Tensor(rng.normal((1, 3, 1, model.embed)), requires_grad=True)
        master = create_master(model, StrategyConfig(), RngState(4))
        w = wrap(master)
        out = vit_forward(agg, mask, rng.normal((2, 4)), w, model)
        seq = out.data[:, 1:].reshape(8, model.embed)
        np.testing.assert_array_equal(seq[kept_rows(mask)], agg.data[0, :, 0])
        np.testing.assert_array_equal(seq[masked_rows(mask)], master["dec.mask"][None].repeat(5, 0))
        g = rng.normal(out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(g))))
        gseq = g[:, 1:].reshape(8, model.embed)
        np.testing.assert_array_equal(agg.grad[0, :, 0], gseq[kept_rows(mask)])
        assert rel_err(w["dec.mask"].grad, gseq[masked_rows(mask)].sum(axis=0)) < 1e-15

    def test_a_mask_ratio_that_keeps_nothing_is_rejected(self):
        # 0.9 of four positions rounds to all four
        model = ModelConfig(channels=4, image_h=8, image_w=8, patch=4, embed=16, depth=1,
                            heads=2, mask_ratio=0.9)
        assert model.masked_count == model.seq == 4
        with pytest.raises(ConfigError, match="no position is kept"):
            model.validate()

    def test_a_batch_mask_that_keeps_nothing_is_rejected(self):
        model = tiny_model()
        batch = tiny_batch(model)
        batch.mask = np.ones((2, 4))
        master = create_master(model, StrategyConfig(), RngState(5))
        with pytest.raises(ConfigError, match="keeps no position"):
            kept_rows(batch.mask)
        with pytest.raises(ConfigError, match="keeps no position"):
            run_serial_step(model, master, batch)

    def test_kept_and_masked_rows_partition_the_positions(self):
        mask = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(kept_rows(mask), [1, 4, 6, 7])
        np.testing.assert_array_equal(masked_rows(mask), [0, 2, 3, 5])

    def test_mask_ratio_zero_runs_end_to_end(self):
        model = tiny_model(mask_ratio=0.0)
        master = create_master(model, StrategyConfig(), RngState(5))
        w = wrap(master)
        batch = tiny_batch(model, b=1)
        batch.mask = make_mask(model, [0], seed=7, step=0)
        loss = forward_loss_reference(w, model, StrategyConfig(), batch)
        assert np.isfinite(loss.item())


class TestEndToEnd:
    def _fd_check(self, model, strategy, forward, n_params=25, tol=1e-4, seed=31):
        master = create_master(model, strategy, RngState(seed))
        w = wrap(master)
        loss = forward(w)
        T.backward(loss)
        names = sorted(master)
        picks = RngState(seed + 1)
        h = 1e-6
        checked = 0
        for _ in range(n_params):
            name = names[int(picks.integers(0, len(names)))]
            t = w[name]
            flat_idx = int(picks.integers(0, t.size))
            idx = np.unravel_index(flat_idx, t.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            fp = forward(w).item()
            t.data[idx] = orig - h
            fm = forward(w).item()
            t.data[idx] = orig
            fd = (fp - fm) / (2 * h)
            ad = t.grad[idx] if t.grad is not None else 0.0
            if max(abs(fd), abs(ad)) < 1e-6:
                # below the resolution of central differences at h=1e-6
                assert abs(fd - ad) < 1e-9, f"{name}{idx}: fd={fd} ad={ad}"
            else:
                rel = abs(fd - ad) / max(abs(fd), abs(ad))
                assert rel < tol, f"{name}{idx}: fd={fd} ad={ad} rel={rel:.2e}"
            checked += 1
        assert checked == n_params

    def test_full_model_grad_flat(self):
        model = tiny_model()
        batch = tiny_batch(model, b=1)
        strategy = StrategyConfig()
        self._fd_check(model, strategy,
                       lambda w: forward_loss_reference(w, model, strategy, batch))

    def test_full_model_grad_dchag_arch(self):
        model = tiny_model(channels=4, agg_variant="full_cross")
        strategy = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
        batch = tiny_batch(model, b=1)
        self._fd_check(model, strategy,
                       lambda w: forward_loss_reference(w, model, strategy, batch))

    def test_all_parameters_get_gradients(self):
        model = tiny_model(agg_variant="full_cross")
        master = create_master(model, StrategyConfig(), RngState(44))
        w = wrap(master)
        loss = forward_loss_reference(w, model, StrategyConfig(), tiny_batch(model, b=2))
        T.backward(loss)
        for name, t in w.items():
            assert t.grad is not None, f"{name} got no gradient"
            assert np.abs(t.grad).max() > 0, f"{name} gradient identically zero"
