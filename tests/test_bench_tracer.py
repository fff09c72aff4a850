"""The benchmark's outside-in tracer still finds every dchag name it wraps.

The tracer looks its targets up by name; a dchag function that is renamed
or deleted makes installation fail here, not only in the benchmark run.
"""

import importlib.util
from pathlib import Path

from dchag import costmodel, strategies

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
