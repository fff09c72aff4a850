"""The benchmark's outside-in tracer still finds every dchag name it wraps.

The tracer looks its targets up by name; a dchag function that is renamed
or deleted makes installation fail here, not only in the benchmark run.
A step that calls a wrapped function through a name of its own escapes the
wrapper silently, so the lookup the steps make is checked too.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from dchag import costmodel, layers, strategies
from dchag import model as dmodel
from dchag.config import ModelConfig, ParallelConfig, StrategyConfig
from dchag.params import create_master
from dchag.rng import RngState
from dchag.synthetic import make_batch

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    estimate, shard = costmodel.estimate, strategies.shard_for_rank
    with tracer.Tracer().installed():
        assert costmodel.estimate is not estimate
    assert (costmodel.estimate, strategies.shard_for_rank) == (estimate, shard)


def test_strategies_call_the_aggregation_layer_through_layers(monkeypatch):
    # the tracer times the flat and final aggregation layers, projections
    # included, by wrapping `layers.cross_attention_aggregate`; a step that
    # called a name bound at import would escape the wrapper
    calls = Counter()
    aggregate = layers.cross_attention_aggregate

    def counting(x, w, prefix, *args):
        calls[prefix] += 1
        return aggregate(x, w, prefix, *args)

    monkeypatch.setattr(layers, "cross_attention_aggregate", counting)
    model = ModelConfig(channels=4, image_h=8, image_w=8, patch=4, embed=8, depth=1,
                        heads=2, mlp_ratio=2, decoder_dim=8)
    batch = make_batch(model, 11, 0, [0])
    for kind, prefix in (("tp_only", "agg.flat"), ("dist_token", "agg.flat"),
                         ("dchag", "agg.final")):
        calls.clear()
        strat = StrategyConfig(kind=kind, tp_degree=2, max_group=2)
        strategies.run_hybrid_step(ParallelConfig(dchag_tp=2), model, strat,
                                   create_master(model, strat, RngState(3)), [batch])
        assert calls[prefix] == 2, (kind, dict(calls))  # one call on each rank


def test_the_reference_calls_the_aggregation_layer_through_model(monkeypatch):
    # the tracer wraps `model.cross_attention_aggregate` as well, which is
    # the name the single-process forward and the tree nodes call
    calls = Counter()
    aggregate = dmodel.cross_attention_aggregate

    def counting(x, w, prefix, *args):
        calls[prefix.split(".")[1]] += 1
        return aggregate(x, w, prefix, *args)

    monkeypatch.setattr(dmodel, "cross_attention_aggregate", counting)
    model = ModelConfig(channels=4, image_h=8, image_w=8, patch=4, embed=8, depth=1,
                        heads=2, mlp_ratio=2, decoder_dim=8)
    batch = make_batch(model, 11, 0, [0])
    strategies.run_serial_step(model, create_master(model, StrategyConfig(), RngState(3)), batch)
    strat = StrategyConfig(kind="dchag", tp_degree=2, max_group=2)
    strategies.run_dchag_reference_step(model, strat, create_master(model, strat, RngState(3)),
                                        batch)
    assert calls == {"flat": 1, "final": 1, "slab0": 1, "slab1": 1}
