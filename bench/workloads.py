"""Workloads of the benchmark and the set-up every run performs.

Each workload is one desk configuration. A run steps the four strategies on
it at tp=4, round-robin; it also plans the paper-scale surrogates at the
workload's aggregation variant, once at warm-up and, in a traced run,
throughout. The seed draws the parameters and the batch; shapes, and so
memory and communication, depend on the workload alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from dchag import costmodel, strategies
from dchag.config import HardwareModel, ModelConfig, ParallelConfig, StrategyConfig
from dchag.model import Batch
from dchag.params import create_master
from dchag.rng import RngState
from dchag.synthetic import make_batch, step_sample_ids

STRATEGIES = ("serial", "tp_only", "dist_token", "dchag")
PARALLEL = STRATEGIES[1:]
TP = 4

# Paper-scale planning grid: every surrogate at every channel count, for
# every planner family, with FSDP allowed up to 1024 ranks.
PLAN_FAMILIES = ("serial", "tp_only", "dchag")
PLAN_CHANNELS = (128, 256, 512, 1024)
PLAN_HW = HardwareModel()
PLAN_RANK_LIMIT = 1024
PLAN_PRECISION_BYTES = 2
PLAN_BATCH = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    max_group: int
    batch: int


_WORKLOADS = (
    Workload(
        "many_channels",
        "C=64 full_cross, the ROADMAP baseline: the [B,S,H,C,C] aggregation "
        "logits that the D-CHAG tree bounds dominate time and memory",
        dict(channels=64, image_h=32, image_w=32, patch=4, embed=64, depth=4,
             heads=8, agg_variant="full_cross"),
        max_group=8, batch=4),
    Workload(
        "long_sequence",
        "C=4, S=256: aggregation is trivial, time goes to ViT attention over "
        "T=257 and shared-weight matmul backward",
        dict(channels=4, image_h=64, image_w=64, patch=4, embed=64, depth=4,
             heads=8, agg_variant="single_query"),
        max_group=8, batch=4),
)
WORKLOADS = {w.name: w for w in _WORKLOADS}


@dataclass
class Desk:
    """Everything one run steps: configs, master parameters and the batch."""

    workload: Workload
    model: ModelConfig
    strategies: dict  # strategy name -> StrategyConfig
    masters: dict  # strategy name -> master parameter arrays
    batch: Batch
    pconfig: ParallelConfig

    def step(self, name: str):
        """One forward+backward step through the public driver of `name`."""
        model, master = self.model, self.masters[name]
        if name == "serial":
            return strategies.run_serial_step(model, master, self.batch)
        driver = {"tp_only": strategies.run_tp_step,
                  "dist_token": strategies.run_dist_token_step,
                  "dchag": strategies.run_dchag_step}[name]
        return driver(self.pconfig, model, self.strategies[name], master, self.batch)

    def dchag_reference(self):
        """Single-process oracle of the dchag step."""
        return strategies.run_dchag_reference_step(
            self.model, self.strategies["dchag"], self.masters["dchag"], self.batch)

    def plan_grid(self):
        """(family, surrogate model) pairs of one planning pass."""
        variant = self.model.agg_variant
        return [(family, costmodel.surrogate_model(label, channels, variant))
                for label in costmodel.SURROGATES
                for channels in PLAN_CHANNELS
                for family in PLAN_FAMILIES]


def plan(model: ModelConfig, family: str):
    return costmodel.plan(model, PLAN_HW, family, PLAN_PRECISION_BYTES, PLAN_BATCH,
                          rank_limit=PLAN_RANK_LIMIT, fsdp_allowed=True)


def setup(name: str, seed: int) -> tuple[Desk, dict]:
    """Build the desk for workload `name`; returns it with the seconds spent
    in create_master (all strategies) and make_batch."""
    wl = WORKLOADS[name]
    model = ModelConfig(**wl.model)
    model.validate()
    configs = {"serial": StrategyConfig(kind="serial")}
    for kind in PARALLEL:
        configs[kind] = StrategyConfig(kind=kind, tp_degree=TP, max_group=wl.max_group)
    t0 = time.perf_counter()
    masters = {kind: create_master(model, cfg, RngState(seed))
               for kind, cfg in configs.items()}
    t1 = time.perf_counter()
    batch = make_batch(model, seed, 0, step_sample_ids(wl.batch, 0))
    t2 = time.perf_counter()
    desk = Desk(wl, model, configs, masters, batch, ParallelConfig(dchag_tp=TP))
    return desk, {"create_master_s": t1 - t0, "make_batch_s": t2 - t1}
