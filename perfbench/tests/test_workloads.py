"""Reduced-size runs of every workload pass all their checks, and the
catalogues agree with BENCHMARK.json."""

import json
import os

import pytest

from perfbench import batch, chain, session
from perfbench.common import END_TO_END
from perfbench.layers import PER_LAYER_METRICS, PROBES, layer_metrics
from perfbench.tracing import LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

REDUCED = {
    "session": lambda seed, tracer: session.run(seed, 0.01, tracer, ml=1,
                                                aggregate=1),
    "chain": lambda seed, tracer: chain.run(seed, 0.01, tracer, sessions=3),
    "batch": lambda seed, tracer: batch.run(seed, 0.01, tracer, jobs=12),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_run_passes_its_checks(name):
    outcome = REDUCED[name](7, None)
    assert outcome.problems == []
    assert outcome.failures == []
    assert outcome.attempted > 0 and outcome.failed == 0
    assert sorted(outcome.end_to_end) == sorted(n for n, _ in END_TO_END)
    assert all(value > 0 for value in outcome.end_to_end.values())


@pytest.mark.parametrize("name", ["session", "batch"])
def test_traced_layers_add_up_to_the_wall_time(name):
    tracer = LayerTracer(PROBES)
    outcome = REDUCED[name](8, tracer)
    assert not tracer.installed
    assert outcome.problems == [] and outcome.failed == 0
    values = layer_metrics(tracer, outcome.traced_wall_s, outcome.counts)
    assert sorted(values) == sorted(n for n, _ in PER_LAYER_METRICS)
    total = sum(v for k, v in values.items()
                if k.endswith(".s") and k != "traced.wall_s")
    assert total == pytest.approx(values["traced.wall_s"], rel=1e-9)
    assert values["other.s"] >= 0
    assert values["crypto.sign.calls"] > 0
    assert values["lifecycle.execute.s"] > 0
    if name == "batch":
        # Recorded in the forked worker, merged into the parent.
        assert values["control.checkpoint.calls"] > 0
        assert values["control.worker_deaths"] == 1


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == ["session", "chain",
                                                      "batch"]
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == dict(END_TO_END))
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == dict(PER_LAYER_METRICS))
