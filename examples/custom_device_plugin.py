#!/usr/bin/env python3
"""Plugging a brand-new co-processor wrapper into ADAMANT.

The paper's headline claim: a new SDK (or co-processor) is integrated by
implementing the ten device interfaces — no change to the task layer, the
runtime, or the query plans.  This example does exactly that:

1. defines ``OneApiDevice``, a fictional "oneAPI" wrapper: it reuses the
   CUDA cost basis but claims its own kernel-variant namespace and a
   slightly cheaper launch path;
2. registers one oneAPI-specialized kernel (a fused filter) in the task
   registry — every other primitive transparently falls back to the
   reference implementation;
3. runs the unmodified TPC-H Q6 plan on the new device and checks the
   result against the oracle.
"""

from dataclasses import replace

import numpy as np

from repro import AdamantExecutor
from repro.devices import SimulatedDevice
from repro.hardware import GPU_RTX_2080_TI, Sdk
from repro.hardware.costmodel import CostModel
from repro.primitives.kernels import filter_bitmap
from repro.task import ImplementationKind, KernelContainer
from repro.tpch import generate, reference
from repro.tpch.queries import q6


class OneApiDevice(SimulatedDevice):
    """A new GPU wrapper plugged in through the ten device interfaces.

    Nothing here touches the runtime: the class only describes how the
    wrapper behaves (cost model, kernel namespace, compilation support).
    It never sees a metrics registry either — a driver charges the
    virtual clock, and the engine reads every counter back out of the
    events (``repro.hardware.trace.fold``).
    """

    sdk = Sdk.CUDA  # cost basis: rides on the CUDA calibration
    supports_compilation = True

    @property
    def variant_key(self) -> str:
        return "oneapi"  # own kernel namespace in the task registry

    def _make_cost_model(self) -> CostModel:
        # oneAPI's runtime launches kernels marginally cheaper than the
        # stock CUDA driver in this fiction; everything else is shared.
        return _OneApiCostModel(self.spec, self.sdk)


class _OneApiCostModel(CostModel):
    def launch_seconds(self, num_args: int = 0) -> float:
        return super().launch_seconds(num_args) * 0.8


def fused_filter(in1, *, cmp=None, value=None, lo=None, hi=None):
    """A 'hand-tuned' oneAPI filter: same semantics, its own container."""
    return filter_bitmap(in1, cmp=cmp, value=value, lo=lo, hi=hi)


def main() -> None:
    catalog = generate(scale_factor=0.01, seed=7)

    executor = AdamantExecutor()
    device = executor.plug_device("xpu0", OneApiDevice, GPU_RTX_2080_TI)
    print(f"plugged: {device!r} (variant key: {device.variant_key})")

    # One specialized kernel; the rest resolve to "reference".
    executor.registry.register(KernelContainer(
        primitive="filter_bitmap",
        variant="oneapi",
        fn=fused_filter,
        kind=ImplementationKind.HANDWRITTEN,
        num_args=2,
    ))
    print("registered oneAPI kernel variants:",
          executor.registry.variants("filter_bitmap"))

    graph = q6.build()  # the unmodified Q6 plan
    result = executor.run(graph, catalog, model="four_phase_pipelined",
                          chunk_size=2**15)
    revenue = q6.finalize(result, catalog)
    expected = reference.q6(catalog)
    print(f"Q6 on the new device: revenue={revenue} "
          f"(oracle match: {revenue == expected})")
    print(f"simulated time: {result.stats.makespan * 1e3:.2f} ms over "
          f"{result.stats.chunks_processed} chunks")
    # Published by the engine from the events the wrapper scheduled.
    launches = executor.metrics.total("adamant_kernel_launches_total")
    h2d = executor.metrics.value("adamant_transfer_bytes_total",
                                 device="xpu0", direction="h2d")
    print(f"metrics: {launches:.0f} launches, {h2d:.0f} H2D bytes")


if __name__ == "__main__":
    main()
