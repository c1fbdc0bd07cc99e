"""Self-time accounting of the layer tracer on a synthetic call tree."""

import pytest

from perfbench import tracing
from perfbench.tests import synthetic
from perfbench.tracing import LayerTracer, Probe

MODULE = "perfbench.tests.synthetic"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(tracing, "_clock", synthetic.clock)
    synthetic.NOW[0] = 0.0
    synthetic.derive.cache_clear()
    tracer = LayerTracer([
        Probe("tree.root", f"{MODULE}:Tree.root"),
        Probe("tree.branch", f"{MODULE}:Tree.branch"),
        Probe("tree.leaf", f"{MODULE}:leaf",
              nbytes=lambda args, kwargs, result: int(args[0])),
        Probe("tree.static", f"{MODULE}:Tree.static_leaf"),
        Probe("tree.measured", f"{MODULE}:Tree.measured"),
        Probe("tree.derive", f"{MODULE}:derive",
              misses=lambda f: f.cache_info().misses),
        Probe("tree.failing", f"{MODULE}:failing"),
    ])
    yield tracer
    if tracer.installed:
        tracer.uninstall()


def test_self_time_subtracts_nested_probes(tracer):
    tracer.install()
    assert synthetic.Tree().root() == "root"
    tracer.uninstall()
    assert tracer.calls == {"tree.root": 1, "tree.branch": 1, "tree.leaf": 3}
    assert tracer.self_s["tree.root"] == pytest.approx(7.0)     # 1 + 6
    assert tracer.self_s["tree.branch"] == pytest.approx(6.0)   # 2 + 4
    # The leaf under the unprobed helper is still nested in the branch.
    assert tracer.self_s["tree.leaf"] == pytest.approx(15.0)    # 3 + 5 + 7
    assert tracer.bytes["tree.leaf"] == 15
    # Self times add up to the outermost span: 28 s of fake time.
    assert tracer.attributed_s() == pytest.approx(28.0)
    assert synthetic.NOW[0] == pytest.approx(28.0)


def test_spans_link_to_their_parents(tracer):
    tracer.install()
    tracer.operation = "op-1"
    synthetic.Tree().root()
    tracer.uninstall()
    by_name = {}
    for span_id, parent, name, start, end, op in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent))
        assert op == "op-1" and end >= start
    (root_id, root_parent), = by_name["tree.root"]
    (branch_id, branch_parent), = by_name["tree.branch"]
    assert root_parent == 0 and branch_parent == root_id
    assert {parent for _, parent in by_name["tree.leaf"]} == {branch_id}


def test_uninstall_restores_every_descriptor(tracer):
    originals = {name: vars(synthetic.Tree)[name]
                 for name in ("root", "static_leaf", "measured")}
    leaf = synthetic.leaf
    tracer.install()
    assert synthetic.leaf is not leaf
    synthetic.Tree.static_leaf()
    assert synthetic.Tree().measured == 42
    tracer.uninstall()
    assert synthetic.leaf is leaf
    for name, raw in originals.items():
        assert vars(synthetic.Tree)[name] is raw
    assert tracer.calls == {"tree.static": 1, "tree.measured": 1}
    assert tracer.self_s["tree.measured"] == pytest.approx(0.25)


def test_cache_hits_are_not_spans(tracer):
    tracer.install()
    synthetic.derive(1)
    synthetic.derive(1)   # a hit: no fake time, no span
    synthetic.derive(2)
    tracer.uninstall()
    assert tracer.calls == {"tree.derive": 2}
    assert tracer.self_s["tree.derive"] == pytest.approx(2.0)


def test_exceptions_still_close_the_span(tracer):
    tracer.install()
    with pytest.raises(RuntimeError):
        synthetic.failing()
    synthetic.Tree().root()
    tracer.uninstall()
    assert tracer.calls["tree.failing"] == 1
    assert tracer.self_s["tree.failing"] == pytest.approx(1.0)
    assert tracer.self_s["tree.root"] == pytest.approx(7.0)


def test_worker_records_merge_into_the_parent(tracer, tmp_path):
    tracer.install()
    synthetic.leaf(2.0)
    tracer.flush_to(str(tmp_path))     # as a worker does after each job
    synthetic.leaf(3.0)
    tracer.uninstall()
    assert tracer.self_s == {"tree.leaf": pytest.approx(3.0)}
    tracer.absorb(str(tmp_path))
    assert tracer.calls == {"tree.leaf": 2}
    assert tracer.self_s["tree.leaf"] == pytest.approx(5.0)
