"""Primitive microbenchmarks (the Section V-A methodology as a library).

The paper profiles individual primitives over 2^28 random integers per
driver.  This module packages that methodology: build a driver, stage a
column, execute a primitive (or a small task chain), and report the
throughput measured off the virtual clock.  The Figure 5/9 benchmarks and
the ``python -m repro micro`` command both drive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices import CudaDevice, OpenCLDevice, OpenMPDevice, Task
from repro.devices.base import SimulatedDevice
from repro.errors import WorkloadError
from repro.hardware import SETUPS, VirtualClock
from repro.hardware.specs import DeviceSpec
from repro.task import default_registry

__all__ = ["MicroBench", "MicroResult", "DRIVER_MATRIX"]

#: Seed of the standard input column.
SEED = 3

#: The paper's four driver configurations per setup.
DRIVER_MATRIX = [
    ("openmp-cpu", OpenMPDevice, "cpu"),
    ("opencl-cpu", OpenCLDevice, "cpu"),
    ("opencl-gpu", OpenCLDevice, "gpu"),
    ("cuda-gpu", CudaDevice, "gpu"),
]


@dataclass(frozen=True)
class MicroResult:
    """One primitive profile point."""

    driver: str
    primitive: str
    logical_elements: int
    compute_seconds: float

    @property
    def throughput(self) -> float:
        """Logical elements/second (the y-axis of Figures 5 and 9)."""
        return (self.logical_elements / self.compute_seconds
                if self.compute_seconds > 0 else float("inf"))


class MicroBench:
    """Profiles primitives on simulated drivers.

    Args:
        logical_n: Elements the profile represents (paper: 2^28).
        physical_n: Rows actually generated; ``logical_n`` must divide by
            it (the device's ``data_scale`` bridges the two).
        setup: Key into :data:`repro.hardware.SETUPS`.
    """

    def __init__(self, *, logical_n: int = 2**28, physical_n: int = 2**16,
                 setup: str = "setup1") -> None:
        if logical_n % physical_n != 0:
            raise WorkloadError(
                f"logical_n ({logical_n}) must be a multiple of "
                f"physical_n ({physical_n})"
            )
        if setup not in SETUPS:
            raise WorkloadError(
                f"unknown setup {setup!r}; available: {sorted(SETUPS)}"
            )
        self.logical_n = logical_n
        self.physical_n = physical_n
        self.scale = logical_n // physical_n
        self.setup = SETUPS[setup]
        self.registry = default_registry()

    # -- driver construction -------------------------------------------------

    def spec_for(self, kind: str) -> DeviceSpec:
        return self.setup[kind]

    def make_device(self, driver_key: str) -> SimulatedDevice:
        for key, driver, kind in DRIVER_MATRIX:
            if key == driver_key:
                device = driver("micro", self.spec_for(kind),
                                VirtualClock())
                device.initialize()
                device.data_scale = self.scale
                return device
        raise WorkloadError(
            f"unknown driver {driver_key!r}; "
            f"available: {[k for k, _, _ in DRIVER_MATRIX]}"
        )

    # -- profiling -------------------------------------------------------------

    def input_column(self) -> np.ndarray:
        rng = np.random.default_rng(SEED)
        return rng.integers(0, 2**20, self.physical_n).astype(np.int64)

    def profile(self, driver_key: str, primitive: str, *,
                cost_params: dict | None = None) -> MicroResult:
        """Execute one primitive, with its standard parameters, over the
        standard input column."""
        chain = self._chain_for(primitive, cost_params or {})
        return self.profile_chain(driver_key, primitive, chain)

    def profile_chain(self, driver_key: str, label: str,
                      tasks) -> MicroResult:
        """Execute a task chain (callable: device -> list[Task])."""
        device = self.make_device(driver_key)
        device.place_data("in", self.input_column())
        for task in tasks(device):
            device.execute(task)
        compute = sum(e.duration for e in device.clock.events
                      if e.category == "compute")
        return MicroResult(
            driver=driver_key, primitive=label,
            logical_elements=self.logical_n, compute_seconds=compute,
        )

    def _chain_for(self, primitive: str, cost_params: dict):
        defaults = {
            "map": dict(op="add_const", const=1),
            "filter_bitmap": dict(cmp="lt", value=2**19),
            "filter_position": dict(cmp="lt", value=2**19),
            "agg_block": dict(fn="sum"),
            "hash_agg": dict(fn="count"),
            "hash_build": {},
            "prefix_sum": {},
            "sort_positions": {},
        }
        if primitive not in defaults:
            raise WorkloadError(
                f"no standalone micro profile for {primitive!r}; "
                f"available: {sorted(defaults)}"
            )
        params = defaults[primitive]

        def tasks(device):
            container = self.registry.resolve(primitive,
                                              device.variant_key)
            return [Task(container, ["in"], "out", params=params,
                         n_elements=self.physical_n,
                         cost_params=cost_params)]
        return tasks
