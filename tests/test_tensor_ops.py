"""Every public top-level function of `dchag.tensor` is a tape op: each of
its `return` statements returns a `Tensor` built with `_parents` (or a list
of them), or it is on `NOT_OPS` with its reason.  The benchmark's tracer
counts every public `tensor` function as an op, so a helper must be
`_`-prefixed, or named here, to keep the op counts honest."""

import ast
from pathlib import Path

TENSOR = Path(__file__).resolve().parents[1] / "src" / "dchag" / "tensor.py"

NOT_OPS = {
    "backward": "the engine's entry point: it runs a tape, it records none",
    "normal_cdf": "GELU's Phi on plain arrays, public for its accuracy tests; "
                  "whether its calls count as ops is still open",
}


def public_functions():
    return [node for node in ast.parse(TENSOR.read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def own_returns(fn):
    """The `return` statements of `fn` itself, not of the closures it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def is_tape_node(expr) -> bool:
    if isinstance(expr, ast.ListComp):
        return is_tape_node(expr.elt)
    return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "Tensor" and any(k.arg == "_parents" for k in expr.keywords))


def is_op(fn) -> bool:
    returns = list(own_returns(fn))
    return bool(returns) and all(r.value is not None and is_tape_node(r.value) for r in returns)


def test_every_public_tensor_function_is_an_op_or_named():
    assert [fn.name for fn in public_functions()
            if not is_op(fn) and fn.name not in NOT_OPS] == []


def test_every_named_exception_is_a_public_function_that_is_not_an_op():
    fns = {fn.name: fn for fn in public_functions()}
    assert [name for name in NOT_OPS if name not in fns or is_op(fns[name])] == []
