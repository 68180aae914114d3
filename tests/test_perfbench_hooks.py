"""The benchmark's outside-in hooks still reach the program.

``perfbench/`` measures layers by wrapping public names it looks up by
``(module, owner, attr)`` (the ``TRACED`` table of
``perfbench/worker.py``), and its ``GoodputProbe`` wraps two
``VectorFleet`` methods to read the goodput metric.  A refactor that
moves one of these names, or stops calling it through the looked-up
module, would crash the traced run or silently zero a metric; these
tests catch that.  ``perfbench/`` is only read here, never modified.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase
from repro.wsdb.vector import VectorFleet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_table():
    """``TRACED`` from ``perfbench/worker.py``, read without importing it."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no TRACED table")


TRACED = traced_table()


def resolve_owner(module, owner):
    target = importlib.import_module(module)
    return target if owner is None else getattr(target, owner)


@pytest.mark.parametrize(
    "module, owner, attr",
    [row[:3] for row in TRACED],
    ids=[row[3] for row in TRACED],
)
def test_traced_name_resolves(module, owner, attr):
    assert callable(getattr(resolve_owner(module, owner), attr))


def run_roaming():
    metro = generate_metro(range(0, 10), seed=3, extent_m=3_000.0)
    return simulate_roaming(
        WhiteSpaceDatabase(metro),
        num_aps=12,
        num_clients=40,
        duration_us=5e6,
        seed=3,
        mic_events=3,
        engine="vector",
    )


def run_querystorm():
    metro = generate_metro(range(0, 10), seed=3, extent_m=3_000.0)
    return simulate_querystorm(
        ShardRouter(metro, num_shards=4),
        num_aps=12,
        num_clients=40,
        duration_us=5e6,
        seed=3,
        offered_qps=50.0,
        push=True,
        mic_events=3,
        engine="vector",
    )


@pytest.mark.parametrize("run", (run_roaming, run_querystorm))
def test_vector_hooks_called_through_patched_names(run, monkeypatch):
    # The vector-engine rows are patched on repro.wsdb.vector; the
    # drivers must look them up there at call time, or a traced run
    # reports zero calls for them.
    calls = {}
    for module, owner, attr, name in TRACED:
        if module != "repro.wsdb.vector":
            continue
        target = resolve_owner(module, owner)
        original = getattr(target, attr)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(target, attr, counted)
    run()
    for name in (
        "wsdb.mobility.spawn_clients",
        "wsdb.citywide.boot_aps",
        "wsdb.citywide.displace_covered_aps",
        "wsdb.citywide.snapshot_assigned_aps",
        "wsdb.vector.set_snapshot",
        "wsdb.vector.advance",
        "wsdb.vector.recheck_due",
        "wsdb.vector.commit_recheck",
        "wsdb.vector.associate_and_score",
    ):
        assert calls.get(name, 0) > 0, name


def test_goodput_probe_call_shapes():
    assert list(inspect.signature(VectorFleet.set_snapshot).parameters) == [
        "self",
        "live_aps",
        "num_aps",
    ]
    score = inspect.signature(VectorFleet.associate_and_score)
    assert "profiler" in score.parameters


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("run", (run_roaming, run_querystorm))
def test_goodput_probe_reads_vector_runs(run, monkeypatch):
    # GoodputProbe patches VectorFleet for good; monkeypatch restores
    # the originals after the test.
    for attr in ("set_snapshot", "associate_and_score"):
        monkeypatch.setattr(VectorFleet, attr, getattr(VectorFleet, attr))
    probe = load_workloads(monkeypatch).GoodputProbe()
    probe.install()
    report = run()
    assert report["connected_ticks"] > 0
    assert probe.capacity.size > 0
    assert probe.total_mbps > 0.0
