import numpy as np
import pytest

from dchag import tensor as T
from dchag.tensor import Tensor, ShapeError, EngineError

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
