"""Cost model mapping driver operations to simulated durations.

A :class:`CostModel` binds a :class:`~repro.hardware.specs.DeviceSpec` to an
:class:`~repro.hardware.specs.Sdk` profile and answers "how long does this
operation take" for every device-interface call.  The simulated drivers in
:mod:`repro.devices` consult it and charge the returned durations to the
virtual clock; the numpy kernels that produce the actual results run outside
simulated time.

All shaping constants come from :mod:`repro.hardware.calibration`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.errors import SchedulingError
from repro.hardware import calibration as cal
from repro.hardware.specs import DeviceKind, DeviceSpec, Sdk

__all__ = ["CostModel", "CostOverlay", "TransferDirection"]


class TransferDirection:
    """String constants for transfer directions (H2D / D2H of Figure 3)."""

    H2D = "h2d"
    D2H = "d2h"
    D2D = "d2d"


@dataclass
class CostOverlay:
    """Multiplicative runtime correction for one device's cost model.

    The calibrated :class:`CostModel` is immutable; adaptive execution
    corrects it *non-destructively* by tracking the ratio between
    observed per-chunk durations and the model's predictions as an
    exponentially weighted moving average.  ``factor > 1`` means the
    device is running slower than calibrated (e.g. latency faults,
    contention); ``factor < 1`` means faster (e.g. residency hits).
    """

    alpha: float = 0.5
    factor: float = 1.0
    samples: int = 0

    #: Observed/predicted ratios outside this band are clamped before
    #: folding, so one pathological chunk cannot destabilize the EWMA.
    MIN_RATIO = 1.0 / 16.0
    MAX_RATIO = 16.0

    def fold(self, observed: float, predicted: float) -> float:
        """Fold one (observed, predicted) pair and return the new factor."""
        if observed <= 0.0 or predicted <= 0.0:
            return self.factor
        ratio = min(self.MAX_RATIO, max(self.MIN_RATIO, observed / predicted))
        if self.samples == 0:
            self.factor = ratio
        else:
            self.factor += self.alpha * (ratio - self.factor)
        self.samples += 1
        return self.factor


@dataclass(frozen=True)
class CostModel:
    """Durations of device-interface operations for one (device, SDK) pair.

    *spec* and *sdk* are immutable, so what follows from them alone —
    the SDK profile, each primitive's scaled base rate — is read from
    the calibration tables once per instance.
    """

    spec: DeviceSpec
    sdk: Sdk

    # -- derived properties ---------------------------------------------------

    @cached_property
    def profile(self) -> cal.SdkProfile:
        return cal.SDK_PROFILES[self.sdk]

    @cached_property
    def _base_rates(self) -> dict[str, float]:
        """Calibrated primitive -> its rate scaled to this device."""
        rates = cal.PRIMITIVE_RATES.get((self.spec.kind, self.sdk)) or {}
        return {primitive: rate * self._scale(primitive)
                for primitive, rate in rates.items()}

    def bandwidth(self, direction: str = TransferDirection.H2D,
                  pinned: bool = False) -> float:
        """Effective transfer bandwidth in bytes/second.

        Device-to-device copies run at the device's internal bandwidth;
        host transfers run at the interconnect bandwidth scaled by the
        SDK's efficiency and, for pageable memory, the bounce-buffer
        penalty.  D2H is marginally slower than H2D, matching the
        asymmetry visible in Figure 3.
        """
        if direction == TransferDirection.D2D:
            return self.spec.mem_bandwidth
        bw = self.spec.interconnect_bandwidth * self.profile.bandwidth_efficiency
        if direction == TransferDirection.D2H:
            bw *= 0.92
        if not pinned:
            bw *= cal.PAGEABLE_FACTOR
        return bw

    def uma_read_rate(self) -> float:
        """Bytes per second a zero-copy kernel reads host memory at over
        the interconnect (Listing 2): the pinned H2D bandwidth, derated
        by ``UMA_READ_EFFICIENCY``."""
        return (self.bandwidth(TransferDirection.H2D, pinned=True)
                * cal.UMA_READ_EFFICIENCY)

    # -- data management -------------------------------------------------------

    def transfer_seconds(self, nbytes: int, *,
                         direction: str = TransferDirection.H2D,
                         pinned: bool = False) -> float:
        """Time to move *nbytes* in *direction* (plus a fixed DMA setup)."""
        if nbytes < 0:
            raise SchedulingError(f"negative transfer size {nbytes}")
        setup = 10e-6 if self.spec.kind is DeviceKind.GPU else 1e-6
        return setup + nbytes / self.bandwidth(direction, pinned)

    def interconnect_bytes(self, nbytes: int) -> int:
        """Bytes a host transfer of *nbytes* moves over the interconnect
        (what the driver records): all of them, unless device and host
        share physical memory."""
        return nbytes

    def alloc_seconds(self, nbytes: int, *, pinned: bool = False) -> float:
        """Time for ``prepare_memory`` / ``add_pinned_memory``."""
        p = self.profile
        fixed = p.pinned_alloc_overhead if pinned else p.alloc_overhead
        return fixed + nbytes * p.alloc_per_byte

    def free_seconds(self, nbytes: int) -> float:
        """Time for ``delete_memory`` (cheap, size-independent-ish)."""
        return self.profile.alloc_overhead * 0.5

    def transform_seconds(self, nbytes: int) -> float:
        """Time for ``transform_memory`` — a metadata re-tagging of the
        buffer, *not* a copy (the whole point of the interface)."""
        return self.profile.transform_overhead

    # -- kernel management ------------------------------------------------------

    def compile_seconds(self) -> float:
        """Time for ``prepare_kernel``."""
        return self.profile.compile_overhead

    def launch_seconds(self, num_args: int = 0) -> float:
        """Host-side cost to launch one kernel.

        OpenCL pays an extra explicit buffer-to-argument mapping per
        argument (``clSetKernelArg`` bookkeeping); this term is what
        produces the abstraction-overhead gap of Figure 10.
        """
        p = self.profile
        return p.launch_overhead + num_args * p.arg_mapping_overhead

    # -- kernel execution --------------------------------------------------------

    def kernel_seconds(self, primitive: str, n_elements: int, *,
                       groups: int | None = None) -> float:
        """Execution time of *primitive* over *n_elements* inputs.

        Args:
            primitive: Rate-table key (e.g. ``"hash_agg"``).
            n_elements: Number of input elements processed.
            groups: Distinct-group count for aggregation primitives; feeds
                the contention curve of Figure 9c.
        """
        rate = self._base_rates.get(primitive)
        if rate is None:
            raise SchedulingError(
                f"no calibrated rate for primitive {primitive!r} on "
                f"{self.spec.kind.value}/{self.sdk.value}"
            )
        rate /= self._contention_factor(primitive, n_elements, groups)
        if rate <= 0:
            raise SchedulingError(f"non-positive rate for {primitive!r}")
        return n_elements / rate

    def fused_kernel_seconds(self, steps, n_elements: int, *,
                             groups: int | None = None) -> float:
        """Execution time of one fused data-path kernel.

        Args:
            steps: ``(cost_key, reads_memory)`` or
                ``(cost_key, reads_memory, selective)`` per fused step,
                in order (built by the fusion pass).  Steps that stream
                an external operand from device memory are charged
                ``FUSED_EXTERNAL_STEP_FACTOR`` of their standalone time;
                steps operating purely on register-resident values from
                earlier steps cost ``FUSED_INTERNAL_STEP_FACTOR``; probe
                and aggregation-sink steps keep their irregular-access
                cost at ``FUSED_PROBE_STEP_FACTOR`` /
                ``FUSED_SINK_STEP_FACTOR``.  After a *selective* step
                (gather, probe, positional filter) the remaining steps
                only sweep the surviving rows
                (``FUSED_SELECTIVE_DECAY`` per selective step).
            n_elements: Row domain at the fused pass's entry.
            groups: Distinct-group count for an aggregation sink step
                (feeds the same contention curve as the standalone
                kernel).
        """
        total = 0.0
        effective_n = float(max(1, n_elements))
        for step in steps:
            cost_key, reads_memory = step[0], step[1]
            selective = step[2] if len(step) > 2 else False
            n = max(1, int(effective_n))
            if cost_key == "hash_probe":
                factor = cal.FUSED_PROBE_STEP_FACTOR
                seconds = self.kernel_seconds(cost_key, n)
            elif cost_key in ("hash_agg", "agg_block"):
                factor = cal.FUSED_SINK_STEP_FACTOR
                seconds = self.kernel_seconds(cost_key, n, groups=groups)
            else:
                factor = (cal.FUSED_EXTERNAL_STEP_FACTOR if reads_memory
                          else cal.FUSED_INTERNAL_STEP_FACTOR)
                seconds = self.kernel_seconds(cost_key, n)
            total += seconds * factor
            if selective:
                effective_n *= cal.FUSED_SELECTIVE_DECAY
        return total

    def node_seconds(self, cost_key: str, n_elements: int,
                     cost_params: Mapping, *, groups: int | None = None
                     ) -> tuple[float, int | None]:
        """Kernel time of one graph node, from its ``cost_params``.

        The fusion pass records a fused node's step list and summed
        launch-argument count there (``fused_steps``,
        ``fused_num_args``): such a node is charged one fused sweep and
        the count for its one launch is returned with it.  Any other
        node is charged *cost_key*'s rate and returns None — its
        argument count is the caller's to know.  *groups* is the
        aggregation's group count; one pinned in ``cost_params`` wins.
        """
        fused_steps = cost_params.get("fused_steps")
        if fused_steps is not None:
            return (self.fused_kernel_seconds(
                fused_steps, n_elements,
                groups=cost_params.get("groups", groups)),
                cost_params.get("fused_num_args"))
        if not cost_params:
            return self.kernel_seconds(cost_key, n_elements,
                                       groups=groups), None
        if groups is not None and "groups" not in cost_params:
            cost_params = {**cost_params, "groups": groups}
        return self.kernel_seconds(cost_key, n_elements, **cost_params), None

    def throughput(self, primitive: str, n_elements: int, *,
                   groups: int | None = None) -> float:
        """Elements/second for *primitive* (the y-axis of Figures 5 and 9)."""
        seconds = self.kernel_seconds(primitive, n_elements, groups=groups)
        return n_elements / seconds if seconds > 0 else math.inf

    # -- internals -----------------------------------------------------------------

    def _scale(self, primitive: str) -> float:
        """Scale the reference rate to this device.

        Streaming primitives scale with memory bandwidth; hash primitives
        (latency/atomic-bound) scale with compute units, which grow more
        slowly across GPU generations.
        """
        kind = self.spec.kind
        if primitive.startswith("hash"):
            return self.spec.compute_units / cal.REFERENCE_UNITS[kind]
        return self.spec.mem_bandwidth / cal.REFERENCE_BANDWIDTH[kind]

    def _contention_factor(self, primitive: str, n_elements: int,
                           groups: int | None) -> float:
        """Slowdown factor >= 1 from shared-hash-table atomics."""
        if self.spec.kind is DeviceKind.FPGA:
            # Deeply pipelined BRAM hash banks: deterministic, no atomics.
            return 1.0
        if primitive == "hash_agg":
            g = max(1, groups if groups is not None else 1)
            slope = cal.HASH_AGG_GROUP_SLOPE[self.sdk]
            if self.spec.kind is DeviceKind.CPU:
                slope *= 0.3  # CPUs see far milder group sensitivity
            return 1.0 + slope * math.log2(g)
        if primitive in ("hash_build", "hash_probe"):
            if self.spec.kind is DeviceKind.CPU:
                return 1.0  # Fig 9d: CPU build flat in input size
            excess = max(0.0, math.log2(max(1, n_elements) /
                                        cal.HASH_CONTENTION_BASE))
            slope = cal.HASH_BUILD_SIZE_SLOPE
            if primitive == "hash_probe":
                slope *= 0.5  # probes read-mostly; milder contention
            return 1.0 + slope * excess
        return 1.0
