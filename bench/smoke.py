"""Smoke test of the benchmark.

    python3 bench/smoke.py

Makes one short run (about one round) per workload in each trace mode and
checks that the printed result has the metric names and units that
BENCHMARK.json lists, that every output check passed, and that the traced
layers account for each step within the stated tolerance. Then it hands
corrupted losses, gradients and plans straight to the output checker and
requires it to flag each one. Exits non-zero on the first failure.
"""

import copy
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


class SmokeFailure(Exception):
    pass


def require(cond, message):
    if not cond:
        raise SmokeFailure(message)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, spec: list, workload: str, trace: int) -> None:
    where = f"{workload} trace={trace}"
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{where}: checks failed ({result['failed']} of {result['attempted']})")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == want, f"{where}: metric names or units differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(want.items()))[:6]}")
    for name, m in result["metrics"].items():
        require(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
                and math.isfinite(m["value"]), f"{where}: bad value for {name}")
        if trace == 0:
            require(m["value"] > 0, f"{where}: end-to-end metric {name} is not positive")


def check_accounting(workload: str) -> None:
    import harness

    report = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    for st, walls in report["traced_walls"].items():
        step = statistics.median(walls)
        uncovered = report["metrics"][f"trace.uncovered_s.{st}"]
        require(abs(uncovered) <= harness.UNCOVERED_TOLERANCE * step,
                f"{workload} {st}: {uncovered:.4g} s of a {step:.4g} s traced step "
                f"is not covered by a layer")


def check_checker() -> None:
    """The checker flags corrupted outputs handed to it directly."""
    import checks
    import workloads

    desk, _ = workloads.setup("long_sequence", SEED)
    serial, tp = desk.step("serial"), desk.step("tp_only")
    require(checks.check_oracle(tp, serial) == [], "clean tp_only step flagged")
    require(checks.check_repeat(tp, desk.step("tp_only")) == [], "clean repeat flagged")

    bad_loss = copy.deepcopy(tp)
    bad_loss.losses[1] *= 1 + 1e-9
    require(checks.check_oracle(bad_loss, serial), "corrupted loss passed the oracle check")
    require(checks.check_repeat(bad_loss, tp), "corrupted loss passed the repeat check")

    bad_grad = copy.deepcopy(tp)
    name = "vit.blk0.wq"
    bad_grad.grads[name] = bad_grad.grads[name] * (1 + 1e-8)
    require(checks.check_oracle(bad_grad, serial), "corrupted gradient passed the oracle check")
    require(checks.check_repeat(bad_grad, tp), "corrupted gradient passed the repeat check")

    family, model = next((f, m) for f, m in desk.plan_grid() if f == "dchag")
    plan = workloads.plan(model, family)
    require(plan.feasible, "expected a feasible dchag plan")
    args = (model, workloads.PLAN_HW, workloads.PLAN_PRECISION_BYTES, workloads.PLAN_BATCH)
    require(checks.check_plan(plan, *args) == [], "clean plan flagged")
    bad_plan = copy.deepcopy(plan)
    bad_plan.report.components["vit"].activation_bytes += 1
    require(checks.check_plan(bad_plan, *args), "corrupted plan report passed the plan check")
    over = copy.deepcopy(plan)
    over.report.components["vit"].params_bytes += workloads.PLAN_HW.bytes_per_gpu
    require(checks.check_plan(over, *args), "over-budget plan passed the plan check")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    try:
        require(sorted(names) == sorted(workloads.WORKLOADS), "workload names differ")
        for workload in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                check_result(run(workload, trace), spec[key], workload, trace)
            check_accounting(workload)
            print(f"ok {workload}")
        check_checker()
        print("ok checker flags corrupted outputs")
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
