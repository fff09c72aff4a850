"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design points that later modules rely on:

* every op output is a fresh `Tensor`; ops that are pure index
  rearrangements (reshape/transpose/narrow) wrap numpy views and are not
  charged to the allocation tracker, everything else owns its buffer;
* backward closures capture only numpy arrays and parent `Tensor`s, never
  the output tensor, so graphs are reference-cycle free and buffers are
  reclaimed (and de-accounted) deterministically by refcounting;
* gradient accumulation is plain addition in reverse topological order of
  a deterministic DFS, which makes multi-use gradients reproducible
  bit-for-bit across runs.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.special import erf

from .tracking import current_tracker

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class EngineError(Exception):
    """Raised on misuse of the tensor engine."""


class ShapeError(EngineError):
    """Incompatible operand shapes."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None,
                 _owns=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        # Charge owned buffers to the allocation tracker; views are free.
        # Ops that may alias their input pass _owns explicitly (numpy's
        # .base is unreliable for reshape-forced copies).
        owns = (arr.base is None) if _owns is None else _owns
        tr = current_tracker()
        if tr is not None and owns:
            tag = tr.allocate(arr.nbytes)
            weakref.finalize(self, tr.release, arr.nbytes, tag)

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

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _flops(n: int) -> None:
    tr = current_tracker()
    if tr is not None:
        tr.add_flops(int(n))


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
    _flops(out.size)

    def back(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return Tensor(out, _parents=(a, b), _backward=back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    _flops(out.size)

    def back(g):
        return _reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)

    return Tensor(out, _parents=(a, b), _backward=back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    _flops(out.size)
    ad, bd = a.data, b.data

    def back(g):
        return _reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)

    return Tensor(out, _parents=(a, b), _backward=back)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s
    _flops(out.size)

    def back(g):
        return (g * s,)

    return Tensor(out, _parents=(a,), _backward=back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the trailing two axes.

    Leading axes broadcast; gradients are summed back over any broadcast
    batch axes (the common case is a stacked activation times a shared
    weight matrix).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    _flops(2 * out.size * a.shape[-1])
    ad, bd = a.data, b.data

    def back(g):
        da = _reduce_to(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        db = _reduce_to(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return da, db

    return Tensor(out, _parents=(a, b), _backward=back)


# -- nonlinearities ---------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    _flops(4 * out.size)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, _parents=(x,), _backward=back)


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = xd * phi
    _flops(8 * out.size)

    def back(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (phi + xd * pdf),)

    return Tensor(out, _parents=(x,), _backward=back)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply the affine (gamma, beta)."""
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(f"layernorm affine shapes {gamma.shape}/{beta.shape} do not match feature dim {n}")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = gamma.data * xhat + beta.data
    _flops(8 * out.size)
    gd = gamma.data

    def back(g):
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        return dx, dgamma, dbeta

    return Tensor(out, _parents=(x, gamma, beta), _backward=back)


# -- shape manipulation ------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    out = x.data.reshape(shape)

    def back(g):
        return (g.reshape(old),)

    return Tensor(out, _parents=(x,), _backward=back,
                  _owns=not np.may_share_memory(out, x.data))


def transpose(x: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def back(g):
        return (g.transpose(inv),)

    return Tensor(x.data.transpose(axes), _parents=(x,), _backward=back, _owns=False)


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


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis (a view; gradient scatters back)."""
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape = x.data.shape

    def back(g):
        full = np.zeros(shape)
        full[sl] = g
        return (full,)

    return Tensor(x.data[sl], _parents=(x,), _backward=back, _owns=False)


def unfold_patches(x: Tensor, patch: int) -> Tensor:
    """[..., C, H, W] -> [..., C, S, P*P] with S = (H/P)*(W/P).

    Pure bijective rearrangement of pixels into per-patch rows.
    """
    *lead, c, h, w = x.shape
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch {patch}")
    hp, wp = h // patch, w // patch
    nd = x.ndim
    perm = tuple(range(nd - 2)) + (nd - 2, nd, nd - 1, nd + 1)
    src = x.data.reshape(*lead, c, hp, patch, wp, patch)
    xd = src.transpose(perm).reshape(*lead, c, hp * wp, patch * patch)

    def back(g):
        gg = g.reshape(*lead, c, hp, wp, patch, patch)
        gg = gg.transpose(perm)  # swap of the two middle pairs is self-inverse
        return (gg.reshape(*lead, c, h, w),)

    return Tensor(xd, _parents=(x,), _backward=back,
                  _owns=not np.may_share_memory(xd, x.data))


# -- reductions --------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum()
    _flops(x.size)
    shape = x.data.shape

    def back(g):
        return (np.broadcast_to(g, shape).copy(),)

    return Tensor(out, _parents=(x,), _backward=back)


# -- backward engine ----------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order; deterministic given graph construction order."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from `loss`."""
    if loss.data.shape != ():
        raise EngineError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise EngineError("backward on a tensor with no recorded graph")
    order = _topo_order(loss)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if not parent.requires_grad or g is None:
                continue
            if parent.grad is None:
                parent.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                parent.grad += g


def clear_grads(tensors) -> None:
    vals = tensors.values() if isinstance(tensors, dict) else tensors
    for t in vals:
        t.grad = None
