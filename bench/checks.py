"""Output checks of the benchmark.

Every function returns a list of problems; an empty list is a pass. A
`Tally` counts checked operations and the ones that failed.
"""

from __future__ import annotations

import math

import numpy as np

from dchag import costmodel

RTOL = 1e-10  # the repository's equivalence-test tolerance


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def losses(result) -> list:
    return list(getattr(result, "losses", [result.loss]))


def rank_stats(result) -> list:
    return result.stats if isinstance(result.stats, list) else [result.stats]


def comm_bytes(result) -> list:
    """Ledger payload bytes per rank; empty for a serial step."""
    ledger = getattr(result, "ledger", None)
    if ledger is None:
        return []
    return [ledger.query(rank=r)[0] for r in sorted(ledger.per_rank)]


def grads_rel_err(got: dict, want: dict) -> tuple[str, float]:
    """Worst per-tensor relative error, with a floor tied to the overall
    gradient scale, as the equivalence tests measure it."""
    if set(got) != set(want):
        return "keys", math.inf
    scale = max((np.abs(v).max(initial=0.0) for v in want.values()), default=0.0)
    worst, err_max = "", 0.0
    for name in want:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        if a.shape != b.shape:
            return name, math.inf
        denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-3 * scale)
        diff = np.abs(a - b).max(initial=0.0)
        err = diff / denom if denom > 0 else (0.0 if diff == 0 else math.inf)
        if not np.isfinite(a).all():
            err = math.inf
        if err >= err_max:
            worst, err_max = name, err
    return worst, err_max


def check_oracle(result, oracle, rtol: float = RTOL) -> list[str]:
    """Loss of every rank and the reassembled gradients against an oracle step."""
    problems = []
    want = oracle.loss
    for r, loss in enumerate(losses(result)):
        if not abs(loss - want) <= rtol * abs(want):
            problems.append(f"rank {r} loss {loss!r} vs oracle {want!r}")
    name, err = grads_rel_err(result.grads, oracle.grads)
    if not err < rtol:
        problems.append(f"grad {name} rel err {err:.3e}")
    return problems


def check_repeat(result, reference) -> list[str]:
    """A timed step against the warm-up step: bit-identical losses and
    gradients, and identical allocator peaks and ledger bytes."""
    problems = []
    if losses(result) != losses(reference):
        problems.append(f"losses {losses(result)!r} vs warm-up {losses(reference)!r}")
    if set(result.grads) != set(reference.grads):
        problems.append("gradient names differ from warm-up")
    else:
        bad = [k for k in reference.grads
               if not np.array_equal(result.grads[k], reference.grads[k])]
        if bad:
            problems.append(f"gradients differ from warm-up: {bad[:3]}")
    peaks = [s.peak_bytes for s in rank_stats(result)]
    if peaks != [s.peak_bytes for s in rank_stats(reference)]:
        problems.append(f"allocator peaks {peaks} differ from warm-up")
    if comm_bytes(result) != comm_bytes(reference):
        problems.append(f"ledger bytes {comm_bytes(result)} differ from warm-up")
    return problems


def check_plan(result, model, hw, precision_bytes: int, batch: int,
               reference=None) -> list[str]:
    """A feasible plan re-estimates to the same report and fits the budget;
    with `reference`, the plan also repeats the warm-up plan's choice."""
    problems = []
    if reference is not None and (
            (result.feasible, result.ranks, result.strategy, result.pconfig)
            != (reference.feasible, reference.ranks, reference.strategy, reference.pconfig)):
        problems.append("plan differs from warm-up plan")
    if not result.feasible:
        return problems
    rep = costmodel.estimate(model, result.strategy, result.pconfig, hw,
                             precision_bytes, batch)
    got = result.report
    if (rep.components, rep.comm, rep.fits) != (got.components, got.comm, got.fits):
        problems.append("re-estimate differs from the planned report")
    if not (got.fits and got.total_bytes <= hw.bytes_per_gpu):
        problems.append(f"planned {got.total_bytes} bytes exceed {hw.bytes_per_gpu}")
    if result.ranks != result.pconfig.world_size:
        problems.append(f"ranks {result.ranks} != world size {result.pconfig.world_size}")
    return problems
