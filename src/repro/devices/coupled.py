"""Simulated coupled CPU-GPU (APU) driver — zero-copy shared memory.

He et al., "Revisiting Co-Processing for Hash Joins on the Coupled
CPU-GPU Architecture" (PAPERS.md), study integrated GPUs that share the
host's physical memory: there is no PCIe hop, so "transferring" a
column to the device is a cache-coherent pointer hand-off — free in
bytes, tiny in latency — while kernels run from the shared DDR bus at a
fraction of a discrete card's throughput.

The driver realizes that trade through the standard ten interfaces:

* :class:`_CoupledCostModel` prices every transfer at the hand-off
  latency and says that **zero** bytes cross the interconnect, so the
  inherited ``place_data`` / ``retrieve_data`` schedule a
  constant-latency, zero-byte event (it still exists, so dependency
  ordering and ANALYZE attribution are unchanged) and count nothing
  into ``adamant_transfer_bytes_total`` (the zero-copy invariant the
  conformance suite property-checks); it reports the shared memory bus
  as the "interconnect" bandwidth (zero-copy kernel reads run at memory
  speed), makes pinned allocation plain host malloc, and derates kernel
  rates by the coherence traffic sharing the bus with the CPU;
* the OpenCL SDK profile applies on top (He et al.'s platform), and
  the low APU ``mem_bandwidth`` / ``compute_units`` in the device spec
  scale compute far below discrete GPUs — transfer-bound plans win on
  this device, compute-bound plans lose, and the optimizer sees both
  through the shared cost object with no engine edits.

Calibration constants live in :mod:`repro.hardware.calibration`
(``COUPLED_*``).
"""

from __future__ import annotations

from repro.devices.base import SimulatedDevice
from repro.hardware import calibration as cal
from repro.hardware.costmodel import CostModel, TransferDirection
from repro.hardware.specs import DeviceKind, Sdk
from repro.task.registry import TaskRegistry, register_variant_kernels

__all__ = ["CoupledDevice", "register_coupled_kernels"]


class _CoupledCostModel(CostModel):
    """OpenCL cost basis with shared-physical-memory transfer pricing."""

    def bandwidth(self, direction: str = TransferDirection.H2D,
                  pinned: bool = False) -> float:
        # Crossing the "interconnect" is just another memory access:
        # zero-copy kernel reads and D2D copies both run at bus speed.
        return self.spec.mem_bandwidth

    def transfer_seconds(self, nbytes: int, *,
                         direction: str = TransferDirection.H2D,
                         pinned: bool = False) -> float:
        if nbytes < 0:
            from repro.errors import SchedulingError
            raise SchedulingError(f"negative transfer size {nbytes}")
        return cal.COUPLED_HANDOFF_SECONDS

    def interconnect_bytes(self, nbytes: int) -> int:
        return 0  # a cache-coherent pointer hand-off: nothing moves

    def alloc_seconds(self, nbytes: int, *, pinned: bool = False) -> float:
        if pinned:
            # "Pinned" host memory is plain malloc — every allocation is
            # host-visible already.
            return cal.COUPLED_PINNED_ALLOC_SECONDS \
                + nbytes * self.profile.alloc_per_byte
        return super().alloc_seconds(nbytes, pinned=False)

    def kernel_seconds(self, primitive: str, n_elements: int, *,
                       groups: int | None = None) -> float:
        # Coherence traffic shares the DDR bus with the CPU.
        return super().kernel_seconds(primitive, n_elements, groups=groups) \
            / cal.COUPLED_COHERENCE_EFFICIENCY


class CoupledDevice(SimulatedDevice):
    """An integrated CPU-GPU sharing physical memory (zero-copy)."""

    sdk = Sdk.OPENCL
    supported_kinds = (DeviceKind.GPU,)
    supports_compilation = True

    @property
    def variant_key(self) -> str:
        return "coupled"

    def _make_cost_model(self) -> CostModel:
        return _CoupledCostModel(self.spec, self.sdk)


def register_coupled_kernels(registry: TaskRegistry) -> list[str]:
    """Claim the full ``"coupled"`` kernel-variant set in *registry*
    (reference-delegating, see :func:`repro.task.registry.register_variant_kernels`)."""
    return register_variant_kernels(registry, "coupled")
