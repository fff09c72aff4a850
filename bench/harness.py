"""One benchmark run: set-up, warm-up checks, the timed loop and its metrics.

A run is a closed loop with one caller. Each round steps serial, tp_only,
dist_token and dchag at tp=4 through their public drivers, back to back;
the order rotates every round so that drift hits every strategy alike.
Ranks of a parallel step run one at a time on threads, so step_s of a
parallel strategy is the sum of the work of all ranks plus scheduler
hand-offs, never a parallel speed-up.

With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
alternates traced and untraced rounds, adds passes over the paper-scale
planning grid, prints the per-layer metrics and writes a Chrome trace of
its first traced round under bench/out/. Every run checks one planning pass
at warm-up. The last line of stdout is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import workloads
from dchag import costmodel, strategies
from dchag.config import ParallelConfig
from dchag.tracking import COMPONENT_TAGS
from tracer import Tracer
from workloads import PARALLEL, PLAN_FAMILIES, STRATEGIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_TRIALS = 5
# Share of a traced run given to planning passes. Planning is pure Python,
# the timing most exposed to the machine's speed swings, so it gets this
# share rather than one pass per round.
PLAN_SHARE = 0.15
MIB = 2 ** 20
# A traced step's layer self times plus runtime.sched_s account for its wall
# time to within this share. The rest, reported as trace.uncovered_s, is
# gradient extraction and graph teardown inside the step drivers, which no
# public function spans; it is largest where steps are smallest.
UNCOVERED_TOLERANCE = 0.15
COSTMODEL_STRATEGIES = ("serial", "dchag")


def end_to_end_units() -> dict:
    units = {"setup_s": "s"}
    units.update({f"step_s.{st}": "s" for st in STRATEGIES})
    units.update({f"peak_mib.{st}": "MiB" for st in STRATEGIES})
    units.update({f"comm_mib.{st}": "MiB" for st in PARALLEL})
    return units


def per_layer_units() -> dict:
    units = {"import_s": "s", "synthetic.make_batch_s": "s", "params.create_master_s": "s"}
    for st in PARALLEL:
        units[f"params.shard_s.{st}"] = "s"
        units[f"params.unshard_s.{st}"] = "s"
    for st in STRATEGIES:
        units[f"params.wrap_s.{st}"] = "s"
        for comp in COMPONENT_TAGS:
            units[f"model.{comp}_s.{st}"] = "s"
        units[f"layers.attention_s.{st}"] = "s"
        for op in ("backward", "matmul", "softmax"):
            units[f"tensor.{op}_s.{st}"] = "s"
        units[f"tensor.ops.{st}"] = "count"
    for st in STRATEGIES:
        for comp in COMPONENT_TAGS:
            units[f"tracking.peak_mib.{comp}.{st}"] = "MiB"
            units[f"tracking.gflop.{comp}.{st}"] = "GFLOP"
    for st in PARALLEL:
        units[f"runtime.collectives.{st}"] = "count"
        units[f"runtime.wait_s.{st}"] = "s"
        units[f"runtime.sched_s.{st}"] = "s"
    units["costmodel.pass_s"] = "s"
    for family in PLAN_FAMILIES:
        units[f"costmodel.plan_s.{family}"] = "s"
    units["costmodel.estimate_calls"] = "count"
    units["costmodel.estimate_s"] = "s"
    for st in COSTMODEL_STRATEGIES:
        for comp in COMPONENT_TAGS:
            units[f"costmodel.act_err.{comp}.{st}"] = "ratio"
            units[f"costmodel.flop_err.{comp}.{st}"] = "ratio"
    for st in STRATEGIES:
        units[f"trace.overhead_s.{st}"] = "s"
        units[f"trace.uncovered_s.{st}"] = "s"
    return units


# -- environment and set-up ----------------------------------------------------


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def describe_env() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except KeyError:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
    }


def setup_probe(workload: str, seed: int) -> dict:
    """Set up the workload once in a fresh interpreter; returns its timings."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- statistics -------------------------------------------------------------------


def summary(samples: list) -> dict:
    """Median, quartiles, sample count and the highest of p75/p90/p95/p99
    with at least ten samples beyond it."""
    n = len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n > 1 else samples * 3
    out = {"n": n, "median": statistics.median(samples), "q1": q1, "q3": q3}
    ordered = sorted(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[min(n - 1, int(p / 100 * n))]
            break
    return out


# -- the run ------------------------------------------------------------------------


class Run:
    def __init__(self, desk: workloads.Desk, seed: int):
        self.desk = desk
        self.seed = seed
        self.setup_trials = []
        self.tally = checks.Tally()
        self.tracer = Tracer()
        self.grid = desk.plan_grid()
        self.warm = {}  # strategy -> warm-up step result
        self.warm_plans = []
        self.walls = {st: [] for st in STRATEGIES}  # untraced steps
        self.traced_walls = {st: [] for st in STRATEGIES}
        self.traces = {st: [] for st in STRATEGIES}  # tracer collection per traced step
        self.plan_walls = []  # untraced passes
        self.plan_time = 0.0  # all passes
        self.plan_family_s = []  # untraced passes: family -> seconds
        self.plan_traces = []  # traced passes

    # -- warm-up -------------------------------------------------------------

    def _serial_oracle(self, st: str):
        """run_serial_step on the master of `st`; the serial warm-up step
        when the masters are identical, as they are by construction."""
        desk = self.desk
        mine, ref = desk.masters[st], desk.masters["serial"]
        if mine.keys() == ref.keys() and all(np.array_equal(mine[k], ref[k]) for k in ref):
            return self.warm["serial"]
        return strategies.run_serial_step(desk.model, mine, desk.batch)

    def warm_up(self) -> None:
        for st in STRATEGIES:
            self.warm[st] = self.desk.step(st)
        for st in ("tp_only", "dist_token"):
            self.tally.record(f"warm-up {st} vs serial",
                              checks.check_oracle(self.warm[st], self._serial_oracle(st)))
        self.tally.record("warm-up dchag vs reference",
                          checks.check_oracle(self.warm["dchag"], self.desk.dchag_reference()))
        self.warm_plans = [workloads.plan(model, family) for family, model in self.grid]
        self._check_plans(self.warm_plans, reference=False)

    def _check_plans(self, results, reference=True) -> None:
        for i, ((family, model), res) in enumerate(zip(self.grid, results)):
            self.tally.record(
                f"plan {family} C={model.channels} D={model.embed}",
                checks.check_plan(res, model, workloads.PLAN_HW,
                                  workloads.PLAN_PRECISION_BYTES, workloads.PLAN_BATCH,
                                  self.warm_plans[i] if reference else None))

    # -- timed loop ------------------------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> None:
        """Round-robin over the strategies until `seconds` have passed.
        When traced, even rounds are traced and odd ones not, the loop makes
        at least two, and a planning pass follows a step whenever planning
        has had less than PLAN_SHARE of the elapsed time.

        SETUP_TRIALS set-up probes run between rounds, spread evenly over
        the run, so that they sample the machine as the steps do.
        """
        start = time.perf_counter()
        deadline = start + seconds
        r = 0
        while True:
            while (len(self.setup_trials) < SETUP_TRIALS and time.perf_counter() - start
                   >= len(self.setup_trials) * seconds / SETUP_TRIALS):
                self.setup_trials.append(setup_probe(self.desk.workload.name, self.seed))
            tracing = traced and r % 2 == 0
            self.tracer.record = tracing and r == 0
            k = r % len(STRATEGIES)
            with self.tracer.installed() if tracing else nullcontext():
                for st in STRATEGIES[k:] + STRATEGIES[:k]:
                    self._step(st, tracing)
                    passes = self.plan_traces if tracing else self.plan_walls
                    if traced and (not passes or self.plan_time
                                   < PLAN_SHARE * (time.perf_counter() - start)):
                        self._plan_pass(tracing)
            r += 1
            if time.perf_counter() >= deadline and (r >= 2 or not traced):
                break
        while len(self.setup_trials) < SETUP_TRIALS:
            self.setup_trials.append(setup_probe(self.desk.workload.name, self.seed))

    @property
    def setup(self) -> dict:
        """Each set-up timing as a list over probes."""
        return {key: [t[key] for t in self.setup_trials] for key in self.setup_trials[0]}

    def _step(self, st: str, tracing: bool) -> None:
        gc.collect()
        start = time.perf_counter()
        res = self.desk.step(st)
        wall = time.perf_counter() - start
        if tracing:
            self.traced_walls[st].append(wall)
            self.traces[st].append(self.tracer.collect(
                pid=STRATEGIES.index(st), ledger=getattr(res, "ledger", None)))
        else:
            self.walls[st].append(wall)
        self.tally.record(f"{st} step", checks.check_repeat(res, self.warm[st]))

    def _plan_pass(self, tracing: bool) -> None:
        gc.collect()
        family_s = dict.fromkeys(PLAN_FAMILIES, 0.0)
        results = []
        start = time.perf_counter()
        for family, model in self.grid:
            t0 = time.perf_counter()
            results.append(workloads.plan(model, family))
            family_s[family] += time.perf_counter() - t0
        wall = time.perf_counter() - start
        self.plan_time += wall
        if tracing:
            self.plan_traces.append(self.tracer.collect())
        else:
            self.plan_walls.append(wall)
            self.plan_family_s.append(family_s)
        self._check_plans(results)
        if tracing:
            self.tracer.collect()  # drop the checks' re-estimates

    # -- metrics ------------------------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = self.setup
        m = {"setup_s": statistics.median(setup["setup_s"])}
        for st in STRATEGIES:
            m[f"step_s.{st}"] = statistics.median(self.walls[st])
        for st in STRATEGIES:
            m[f"peak_mib.{st}"] = max(s.peak_bytes for s in checks.rank_stats(self.warm[st])) / MIB
        for st in PARALLEL:
            m[f"comm_mib.{st}"] = max(checks.comm_bytes(self.warm[st])) / MIB
        return m

    def _traced(self, st: str, key: str, kind: str = "seconds") -> float:
        return statistics.median(t[kind].get(key, 0) for t in self.traces[st])

    def uncovered(self, st: str) -> list:
        """Per traced step: wall time minus layer self times and sched_s."""
        out = []
        for wall, t in zip(self.traced_walls[st], self.traces[st]):
            s = t["seconds"]
            covered = sum(s.get(f"model.{c}", 0.0) for c in COMPONENT_TAGS)
            covered += s.get("params.wrap", 0.0) + s.get("tensor.backward", 0.0)
            if st != "serial":
                covered += s.get("params.shard", 0.0) + s.get("params.unshard", 0.0)
                covered += s.get("runtime.spawn", 0.0) - s.get("rank.program", 0.0)
            out.append(wall - covered)
        return out

    def per_layer(self) -> dict:
        med = statistics.median
        setup = self.setup
        m = {"import_s": med(setup["import_s"]),
             "synthetic.make_batch_s": med(setup["make_batch_s"]),
             "params.create_master_s": med(setup["create_master_s"])}
        for st in PARALLEL:
            m[f"params.shard_s.{st}"] = self._traced(st, "params.shard")
            m[f"params.unshard_s.{st}"] = self._traced(st, "params.unshard")
        for st in STRATEGIES:
            m[f"params.wrap_s.{st}"] = self._traced(st, "params.wrap")
            for comp in COMPONENT_TAGS:
                m[f"model.{comp}_s.{st}"] = self._traced(st, f"model.{comp}")
            m[f"layers.attention_s.{st}"] = self._traced(st, "layers.attention")
            for op in ("backward", "matmul", "softmax"):
                m[f"tensor.{op}_s.{st}"] = self._traced(st, f"tensor.{op}")
            m[f"tensor.ops.{st}"] = self._traced(st, "tensor.ops", "counts")
        for st in STRATEGIES:
            stats = checks.rank_stats(self.warm[st])
            for comp in COMPONENT_TAGS:
                m[f"tracking.peak_mib.{comp}.{st}"] = max(s.tag_peak(comp) for s in stats) / MIB
                m[f"tracking.gflop.{comp}.{st}"] = max(s.tag_flops(comp) for s in stats) / 1e9
        for st in PARALLEL:
            m[f"runtime.collectives.{st}"] = self._traced(st, "runtime.collectives", "counts")
            m[f"runtime.wait_s.{st}"] = self._traced(st, "runtime.wait")
            m[f"runtime.sched_s.{st}"] = med(
                t["seconds"]["runtime.spawn"] - t["seconds"]["rank.program"]
                for t in self.traces[st])
        m["costmodel.pass_s"] = med(self.plan_walls)
        for family in PLAN_FAMILIES:
            m[f"costmodel.plan_s.{family}"] = med(p[family] for p in self.plan_family_s)
        calls = [t["counts"]["costmodel.estimate_calls"] for t in self.plan_traces]
        m["costmodel.estimate_calls"] = med(calls)
        m["costmodel.estimate_s"] = med(t["seconds"]["costmodel.estimate"] / n
                                        for t, n in zip(self.plan_traces, calls))
        for (st, comp), (act, flop) in self.costmodel_ratios().items():
            m[f"costmodel.act_err.{comp}.{st}"] = abs(act - 1)
            m[f"costmodel.flop_err.{comp}.{st}"] = abs(flop - 1)
        for st in STRATEGIES:
            m[f"trace.overhead_s.{st}"] = med(self.traced_walls[st]) - med(self.walls[st])
            m[f"trace.uncovered_s.{st}"] = med(self.uncovered(st))
        return m

    def costmodel_ratios(self) -> dict:
        """(strategy, component) -> (estimated over allocator per-tag peak
        activation bytes, estimated over tracked FLOPs), per rank."""
        desk = self.desk
        out = {}
        for st in COSTMODEL_STRATEGIES:
            strat = desk.strategies[st]
            rep = costmodel.estimate(desk.model, strat, ParallelConfig(dchag_tp=strat.tp_degree),
                                     precision_bytes=8, batch=desk.batch.size)
            stats = checks.rank_stats(self.warm[st])
            for comp in COMPONENT_TAGS:
                peak = max(s.tag_peak(comp) for s in stats)
                flops = max(s.tag_flops(comp) for s in stats)
                out[st, comp] = (rep.activation(comp) / max(peak, 1),
                                 rep.components[comp].flops / max(flops, 1))
        return out


# -- entry point ------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv) -> int:
    args = parse_args(argv)
    env = describe_env()
    print("env " + json.dumps(env, sort_keys=True))
    desk, _ = workloads.setup(args.workload, args.seed)
    run = Run(desk, args.seed)
    run.warm_up()
    run.measure(args.seconds, traced=bool(args.trace))
    setup = run.setup

    report = {"env": env, "args": vars(args), "setup": setup}
    if args.trace:
        units = per_layer_units()
        metrics = run.per_layer()
        for st in STRATEGIES:
            print(f"{st}: traced step {_fmt(statistics.median(run.traced_walls[st]))} s, "
                  f"untraced {_fmt(statistics.median(run.walls[st]))} s, "
                  f"uncovered {_fmt(metrics[f'trace.uncovered_s.{st}'])} s "
                  f"(tolerance {UNCOVERED_TOLERANCE:.0%} of the step)")
        for (st, comp), (act, flop) in run.costmodel_ratios().items():
            print(f"costmodel vs allocator {st} {comp}: activation x{act:.4f}, flops x{flop:.4f}")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(run.tracer.chrome_trace(
            dict(enumerate(STRATEGIES)), {"workload": args.workload, "env": env})))
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        report["traced_walls"] = run.traced_walls
        report["untraced_walls"] = run.walls
    else:
        units = end_to_end_units()
        metrics = run.end_to_end()
        samples = {f"step_s.{st}": run.walls[st] for st in STRATEGIES}
        samples["setup_s"] = setup["setup_s"]
        report["samples"] = samples
        report["summaries"] = {k: summary(v) for k, v in samples.items()}
    for name, unit in units.items():
        extra = report.get("summaries", {}).get(name)
        extra = "" if extra is None else "  " + " ".join(
            f"{k}={_fmt(v)}" for k, v in extra.items() if k != "median")
        print(f"{name} = {_fmt(metrics[name])} {unit}{extra}")
    tally = run.tally
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed, "
          f"fail_frac {tally.failed / tally.attempted:.6g}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    report.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0
