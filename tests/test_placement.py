"""Tests for the cost-based device-placement annotator."""

import pytest

from repro.devices import CudaDevice, OpenMPDevice
from repro.errors import PlanError
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.planner import annotate_devices, estimate_pipeline_seconds
from repro.core.pipelines import split_pipelines
from repro.tpch import reference
from repro.tpch.queries import q3, q4, q6
from tests.conftest import make_executor


def two_device_executor():
    return make_executor(CudaDevice, GPU_RTX_2080_TI, name="gpu",
                         extra_devices=[("cpu", OpenMPDevice, CPU_I7_8700)])


class TestEstimates:
    def test_estimate_positive_and_scales(self, tiny_catalog):
        executor = two_device_executor()
        graph = q6.build()
        graph.validate()
        pipeline = split_pipelines(graph)[0]
        gpu = executor.devices["gpu"]
        small = estimate_pipeline_seconds(graph, pipeline, tiny_catalog, gpu)
        large = estimate_pipeline_seconds(graph, pipeline, tiny_catalog, gpu,
                                          data_scale=100)
        assert 0 < small < large

    def test_gpu_cheaper_for_scan_heavy_pipeline(self, small_catalog):
        # At real scale the GPU's bandwidth advantage dominates Q6.
        executor = two_device_executor()
        graph = q6.build()
        graph.validate()
        pipeline = split_pipelines(graph)[0]
        gpu_estimate = estimate_pipeline_seconds(
            graph, pipeline, small_catalog, executor.devices["gpu"],
            data_scale=1024)
        cpu_estimate = estimate_pipeline_seconds(
            graph, pipeline, small_catalog, executor.devices["cpu"],
            data_scale=1024)
        assert gpu_estimate < cpu_estimate


class TestAnnotation:
    def test_annotates_every_node(self, tiny_catalog):
        executor = two_device_executor()
        original = q3.build(tiny_catalog)
        graph, reports = annotate_devices(original, tiny_catalog,
                                          executor.devices, data_scale=1024)
        assert len(reports) == 3
        assert all(node.device in ("gpu", "cpu")
                   for node in graph.nodes.values())
        assert all(node.device is None for node in original.nodes.values())
        for report in reports:
            assert set(report.estimates) == {"gpu", "cpu"}
            assert report.chosen in report.estimates

    def test_one_device_per_pipeline(self, tiny_catalog):
        executor = two_device_executor()
        graph, _ = annotate_devices(q4.build(), tiny_catalog,
                                    executor.devices)
        for pipeline in split_pipelines(graph):
            devices = {graph.nodes[nid].device for nid in pipeline.node_ids}
            assert len(devices) == 1

    def test_no_devices_rejected(self, tiny_catalog):
        with pytest.raises(PlanError):
            annotate_devices(q6.build(), tiny_catalog, {})

    def test_annotated_plan_executes_correctly(self, tiny_catalog):
        executor = two_device_executor()
        graph, _ = annotate_devices(q4.build(), tiny_catalog,
                                    executor.devices, data_scale=1024)
        result = executor.run(graph, tiny_catalog, model="chunked",
                              chunk_size=1024)
        assert q4.finalize(result, tiny_catalog) == \
            reference.q4(tiny_catalog)

    def test_placement_beats_worst_single_device(self, small_catalog):
        """The annotated plan is no slower than forcing everything onto
        the slower device."""
        executor = two_device_executor()
        graph, _ = annotate_devices(q6.build(), small_catalog,
                                    executor.devices, data_scale=1024)
        placed = executor.run(graph, small_catalog, model="chunked",
                              chunk_size=32 * 1024, data_scale=1024)
        cpu_only = executor.run(q6.build(device="cpu"), small_catalog,
                                model="chunked", chunk_size=32 * 1024,
                                data_scale=1024)
        assert placed.stats.makespan <= cpu_only.stats.makespan * 1.001
