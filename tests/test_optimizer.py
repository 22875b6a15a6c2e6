"""The cost-based optimizer: determinism, byte-identity, overlay.

The load-bearing property is *byte-identity*: an optimizer-chosen plan
must execute exactly like the equivalent manual configuration — the
optimizer picks knobs, it never invents a third execution path.  The
matrix test below proves it for every TPC-H query under every
execution model.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import AdamantExecutor
from repro.core.models import MODELS
from repro.core.pipelines import split_pipelines
from repro.devices import CudaDevice, OpenMPDevice
from repro.engine.engine import Engine, QueryRequest
from repro.errors import ExecutionError, PlanError
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.observe import explain, explain_plans
from repro.planner.cost import CostOverlayStore
from repro.planner.fusion import fuse_graph
from repro.planner.optimizer import PlanOptimizer
from repro.tpch.queries import q6
from tests.conftest import make_executor

CHUNK = 1024
ROOT = Path(__file__).resolve().parents[1]

from repro.tpch.queries import QUERIES  # noqa: E402


def _two_device_executor():
    return make_executor(name="gpu0", extra_devices=[
        ("cpu0", OpenMPDevice, CPU_I7_8700)])


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (sorted(a) == sorted(b)
                and all(_same(v, b[k]) for k, v in a.items()))
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    return bool(a == b)


def assert_identical(result_a, result_b):
    assert sorted(result_a.outputs) == sorted(result_b.outputs)
    for node_id in result_a.outputs:
        assert _same(result_a.output(node_id),
                     result_b.output(node_id)), node_id


def run_manually(catalog, name: str, candidate):
    """Reconstruct *candidate* by hand and run it on a fresh executor."""
    executor = _two_device_executor()
    graph = QUERIES[name].build(catalog)
    placement = dict(candidate.placement)
    if placement:
        for pipeline in split_pipelines(graph):
            device = placement.get(pipeline.index)
            if device is not None:
                for nid in pipeline.node_ids:
                    graph.nodes[nid].device = device
    if candidate.fused_groups:
        graph = fuse_graph(graph, only=candidate.fused_groups)
    return executor.run(graph, catalog, model=candidate.model,
                        chunk_size=candidate.chunk_size)


class TestSearch:
    def test_deterministic(self, tiny_catalog):
        executor = _two_device_executor()

        def snapshot():
            opt = PlanOptimizer(tiny_catalog, executor.devices)
            report = opt.search(q6.build(), chunk_size=CHUNK, top_k=5)
            return [(c.describe(), c.cost.total) for c in report.ranked]

        first, second = snapshot(), snapshot()
        assert first == second
        assert first, "ranked candidates expected"

    def test_input_graph_not_mutated(self, tiny_catalog):
        executor = _two_device_executor()
        graph = q6.build()
        before = {nid: node.device for nid, node in graph.nodes.items()}
        before_nodes = set(graph.nodes)
        PlanOptimizer(tiny_catalog, executor.devices).search(
            graph, chunk_size=CHUNK)
        assert {nid: node.device
                for nid, node in graph.nodes.items()} == before
        assert set(graph.nodes) == before_nodes

    def test_report_shape(self, tiny_catalog):
        executor = _two_device_executor()
        opt = PlanOptimizer(tiny_catalog, executor.devices)
        report = opt.search(q6.build(), chunk_size=CHUNK, top_k=3)
        assert report.enumerated > 0
        assert report.pruned == report.enumerated - len(report.ranked) \
            or len(report.ranked) <= 3
        assert report.chosen is report.ranked[0]
        costs = [c.cost.total for c in report.ranked]
        assert costs == sorted(costs)

    def test_validation_errors(self, tiny_catalog):
        executor = _two_device_executor()
        devices = executor.devices
        with pytest.raises(PlanError, match="no devices"):
            PlanOptimizer(tiny_catalog, {})
        with pytest.raises(PlanError, match="not registered|default"):
            PlanOptimizer(tiny_catalog, devices, default_device="nope")
        with pytest.raises(PlanError, match="unknown execution model"):
            PlanOptimizer(tiny_catalog, devices, models=["warp_drive"])
        with pytest.raises(PlanError, match="beam_width"):
            PlanOptimizer(tiny_catalog, devices, beam_width=0)
        opt = PlanOptimizer(tiny_catalog, devices)
        with pytest.raises(PlanError, match="top_k"):
            opt.search(q6.build(), chunk_size=CHUNK, top_k=0)

    def test_chunk_ladder_aligned(self, tiny_catalog):
        executor = _two_device_executor()
        opt = PlanOptimizer(tiny_catalog, executor.devices)
        ladder = opt.chunk_ladder(q6.build(), base_chunk=CHUNK)
        assert ladder == sorted(ladder)
        assert CHUNK in ladder
        for rung in ladder:
            assert rung > 0 and rung % 32 == 0


class TestByteIdentity:
    """Optimizer-chosen plans execute exactly like manual configs."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_single_model_matrix(self, query, model, tiny_catalog):
        executor = _two_device_executor()
        opt = PlanOptimizer(tiny_catalog, executor.devices,
                            models=[model])
        graph = QUERIES[query].build(tiny_catalog)
        try:
            plan, report = opt.choose(graph, chunk_size=CHUNK)
        except PlanError as exc:
            pytest.skip(f"{model} infeasible for {query}: {exc}")
        assert plan.model == model
        chosen = executor.run(plan.graph, tiny_catalog, model=plan.model,
                              chunk_size=plan.chunk_size)
        manual = run_manually(tiny_catalog, query, report.chosen)
        assert_identical(chosen, manual)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_auto_matches_manual(self, query, tiny_catalog):
        auto_executor = _two_device_executor()
        auto = auto_executor.run(QUERIES[query].build(tiny_catalog),
                                 tiny_catalog, model="auto",
                                 chunk_size=CHUNK)
        # Re-derive what auto chose with the same (cold) overlay state.
        probe = _two_device_executor()
        report = PlanOptimizer(tiny_catalog, probe.devices).search(
            QUERIES[query].build(tiny_catalog), chunk_size=CHUNK)
        manual = run_manually(tiny_catalog, query, report.chosen)
        assert_identical(auto, manual)


class TestEngineAuto:
    def test_metrics_published(self, tiny_catalog):
        executor = _two_device_executor()
        executor.run(q6.build(), tiny_catalog, model="auto",
                     chunk_size=CHUNK)
        metrics = executor.metrics
        assert metrics.total("adamant_optimizer_candidates_total") > 0
        assert metrics.total("adamant_optimizer_pruned_total") >= 0
        assert metrics.total("adamant_optimizer_chosen_cost_seconds") > 0
        assert metrics.total("adamant_optimizer_observed_seconds") > 0

    def test_auto_folds_overlay(self, tiny_catalog):
        executor = _two_device_executor()
        assert executor.overlay.factors(executor.devices) == {}
        executor.run(q6.build(), tiny_catalog, model="auto",
                     chunk_size=CHUNK)
        factors = executor.overlay.factors(executor.devices)
        assert factors, "auto run should calibrate the overlay"
        for factor in factors.values():
            assert factor > 0

    def test_run_concurrent_auto(self, tiny_catalog):
        engine = Engine(max_concurrent=2)
        engine.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                           default=True)
        engine.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
        results = engine.run_concurrent([
            QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                         model="auto", chunk_size=CHUNK, label="a"),
            QueryRequest(graph=q6.build(), catalog=tiny_catalog,
                         model="chunked", chunk_size=CHUNK, label="b"),
        ])
        assert len(results) == 2
        assert_identical(results[0], results[1])
        assert engine.overlay.factors(engine.devices)

    def test_unknown_model_mentions_auto(self, tiny_catalog):
        executor = make_executor()
        with pytest.raises(Exception, match="auto"):
            executor.run(q6.build(), tiny_catalog, model="warp_drive")


def _engine():
    engine = Engine()
    engine.plug_device("dev0", CudaDevice, GPU_RTX_2080_TI)
    return engine


#: Every public way to hand the flags over, as ``call(catalog, model,
#: **flags)``; EXPLAIN's ``auto`` form is EXPLAIN PLANS.
ENTRY_POINTS = {
    "executor.run": lambda catalog, model, **flags: make_executor().run(
        q6.build(), catalog, model=model, **flags),
    "engine.execute": lambda catalog, model, **flags: _engine().execute(
        q6.build(), catalog, model=model, **flags),
    "engine.run_concurrent": lambda catalog, model, **flags:
        _engine().run_concurrent([QueryRequest(
            graph=q6.build(), catalog=catalog, model=model, **flags)]),
    "explain": lambda catalog, model, **flags: (
        explain_plans(q6.build(), catalog,
                      devices=make_executor().devices, **flags)
        if model == "auto" else
        explain(q6.build(), catalog, devices=make_executor().devices,
                model=model, **flags)),
}


class TestFlagValidation:
    """``model="auto"`` refuses exactly what every manual model refuses,
    with the same error, at every entry point."""

    @pytest.mark.parametrize("bad", [
        dict(data_scale=0), dict(data_scale=-1),
        dict(chunk_size=-64), dict(chunk_size=1000),
    ], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_auto_rejects_what_manual_rejects(self, entry, bad,
                                              tiny_catalog):
        flags = {"chunk_size": CHUNK, **bad}
        messages = {}
        for model in ("chunked", "auto"):
            with pytest.raises(ExecutionError) as refused:
                ENTRY_POINTS[entry](tiny_catalog, model, **flags)
            messages[model] = str(refused.value)
        assert messages["auto"] == messages["chunked"]

    def test_cli_exits_3_without_a_traceback(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--query", "q6",
             "--model", "auto", "--sf", "0.001", "--data-scale", "0"],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 3, done.stderr
        assert "execution failed: data_scale must be >= 1" in done.stderr
        assert "Traceback" not in done.stderr


class TestOverlayStore:
    def _devices(self):
        return _two_device_executor().devices

    def test_fold_moves_factor(self):
        store = CostOverlayStore()
        devices = self._devices()
        store.fold(devices.values(), observed=2.0, predicted=1.0)
        factors = store.factors(devices)
        assert set(factors) == set(devices)
        for factor in factors.values():
            assert factor > 1.0

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "overlay.json"
        store = CostOverlayStore(path)
        devices = self._devices()
        store.fold(devices.values(), observed=3.0, predicted=1.5)
        assert path.exists(), "fold auto-saves when a path is bound"
        payload = json.loads(path.read_text())
        assert payload["version"] == CostOverlayStore.VERSION

        reloaded = CostOverlayStore(path)
        assert reloaded.factors(devices) == store.factors(devices)
        assert reloaded.to_json() == store.to_json()

    def test_keyed_by_spec_not_name(self):
        store = CostOverlayStore()
        devices = self._devices()
        store.fold(devices.values(), observed=2.0, predicted=1.0)
        renamed = make_executor(name="gpu9", extra_devices=[
            ("cpu9", OpenMPDevice, CPU_I7_8700)]).devices
        factors = store.factors(renamed)
        assert set(factors) == {"gpu9", "cpu9"}

    def test_executor_persists_overlay(self, tiny_catalog, tmp_path):
        path = tmp_path / "overlay.json"
        executor = AdamantExecutor(overlay_path=str(path))
        executor.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI,
                             default=True)
        executor.plug_device("cpu0", OpenMPDevice, CPU_I7_8700)
        executor.run(q6.build(), tiny_catalog, model="auto",
                     chunk_size=CHUNK)
        assert path.exists()
        reloaded = CostOverlayStore(path)
        assert reloaded.factors(executor.devices) \
            == executor.overlay.factors(executor.devices)

    def test_unsampled_devices_price_uncorrected(self):
        store = CostOverlayStore()
        assert store.factors(self._devices()) == {}
