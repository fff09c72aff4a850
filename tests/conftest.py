import numpy as np
import pytest
from hypothesis import settings

from dchag import tensor as T
from dchag.rng import RngState
from dchag.tensor import Tensor

# Every property test: no example database, so runs do not depend on earlier
# runs, and no deadline, since a step's time varies with the machine.
settings.register_profile("dchag", database=None, deadline=None)
settings.load_profile("dchag")


def rel_err(a, b, floor=1e-300):
    """Per-tensor relative disagreement: max|a-b| / (max|a| + max|b| + floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.abs(a).max(initial=0.0) + np.abs(b).max(initial=0.0) + floor
    return np.abs(a - b).max(initial=0.0) / denom


def assert_grads_match(g1, g2, rtol=1e-10):
    """The equivalence rule: per-tensor relative error with a floor tied to
    the overall gradient scale (identically-zero-by-symmetry entries are
    noise)."""
    assert set(g1) == set(g2)
    scale = max(np.abs(v).max() for v in g1.values())
    for name in g1:
        denom = max(np.abs(g1[name]).max(), np.abs(g2[name]).max(), 1e-3 * scale)
        err = np.abs(g1[name] - g2[name]).max() / denom
        assert err < rtol, f"{name}: rel err {err:.2e}"


def fd_grad(fn, tensors, wrt, h=1e-6):
    """Central finite differences of scalar fn() with respect to tensors[wrt].

    fn must rebuild the computation from tensors' .data each call.
    """
    x = tensors[wrt].data
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn().item()
        x[idx] = orig - h
        fm = fn().item()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def check_grad(fn, tensors, tol=1e-5, h=1e-6):
    """Compare autodiff grads of scalar fn against central differences."""
    for t in tensors.values():
        t.grad = None
    loss = fn()
    T.backward(loss)
    for name, t in tensors.items():
        if not t.requires_grad:
            continue
        fd = fd_grad(fn, tensors, name, h=h)
        err = rel_err(t.grad, fd)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e}"


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


def reachable_arrays(t):
    """Every numpy array reachable from tensor `t` through its data, its
    node's parents and the cells of each node's backward closure."""
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
            stack += [obj.data, obj.node]
        elif isinstance(obj, T.Node):
            stack += [obj.backward, *obj.parents]
        elif callable(obj):
            stack += [c.cell_contents for c in obj.__closure__ or ()]
        elif isinstance(obj, (tuple, list)):
            stack += obj
    return found


@pytest.fixture
def rng():
    return RngState(1234)
