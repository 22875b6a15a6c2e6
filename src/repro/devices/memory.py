"""Device memory manager: allocation accounting for simulated devices.

Tracks every buffer a driver allocates, enforces the device's capacity
(raising :class:`~repro.errors.DeviceMemoryError` like a real
``cudaMalloc`` failure), distinguishes *device* memory from *host-pinned*
memory (pinned buffers consume host RAM, not device capacity — they exist
for fast DMA in the 4-phase model), and records a time-stamped footprint
trace that regenerates the memory-pressure plot of Figure 7 (right).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceMemoryError, QueryBudgetError, UnknownBufferError
from repro.hardware.clock import Event

__all__ = ["Buffer", "MemoryManager"]


@dataclass
class Buffer:
    """One allocation on a device (or in host-pinned space).

    Attributes:
        alias: The id the runtime addresses the buffer by.
        nbytes: Reserved capacity (what counts against device memory).
        value: Current payload (numpy array or an edge value type).
        pinned: True for host-pinned staging buffers.
        data_format: SDK data-format tag (``"opencl.buffer"`` ...);
            ``transform_memory`` re-tags it without copying.
        view_of: Alias of the parent buffer for ``create_chunk`` views
            (views reserve no extra capacity).
        ready: The clock event that last wrote this buffer; executions
            reading the buffer depend on it.
        owner: Query id (or the residency-cache pseudo-owner) the
            allocation is charged to; empty for untagged allocations.
    """

    alias: str
    nbytes: int
    value: object = None
    pinned: bool = False
    data_format: str = ""
    view_of: str | None = None
    ready: Event | None = None
    owner: str = ""


class MemoryManager:
    """Capacity-enforcing allocation table for one device."""

    def __init__(self, capacity_bytes: int, *, device_name: str = "") -> None:
        if capacity_bytes <= 0:
            raise DeviceMemoryError(
                f"device capacity must be positive, got {capacity_bytes}"
            )
        #: Name of the owning device, stamped onto every error this
        #: manager raises so OOMs in a concurrent wave are attributable.
        self.device_name = device_name
        self.capacity_bytes = int(capacity_bytes)
        self._buffers: dict[str, Buffer] = {}
        self._device_used = 0
        self._pinned_used = 0
        self.peak_device_used = 0
        self.footprint_trace: list[tuple[float, int]] = [(0.0, 0)]
        self._owner_used: dict[str, int] = {}
        self._budgets: dict[str, int] = {}

    # -- queries -----------------------------------------------------------

    @property
    def device_used(self) -> int:
        return self._device_used

    @property
    def pinned_used(self) -> int:
        return self._pinned_used

    @property
    def device_free(self) -> int:
        return self.capacity_bytes - self._device_used

    def __contains__(self, alias: str) -> bool:
        return alias in self._buffers

    def get(self, alias: str) -> Buffer:
        try:
            return self._buffers[alias]
        except KeyError:
            raise UnknownBufferError(
                f"no buffer {alias!r}; allocated: {sorted(self._buffers)}"
            ).annotate(device=self.device_name) from None

    def aliases(self) -> list[str]:
        return sorted(self._buffers)

    def owner_used(self, owner: str) -> int:
        """Device bytes currently charged to *owner*."""
        return self._owner_used.get(owner, 0)

    def owned_aliases(self, owner: str) -> list[str]:
        return sorted(a for a, b in self._buffers.items() if b.owner == owner)

    def owners(self) -> set[str]:
        """Owner tags that still have a buffer or a budget here."""
        return {b.owner for b in self._buffers.values()} | set(self._budgets)

    def budget(self, owner: str) -> int | None:
        return self._budgets.get(owner)

    # -- per-query budgets ---------------------------------------------------

    def set_budget(self, owner: str, nbytes: int | None) -> None:
        """Cap *owner*'s device allocations at *nbytes* (None removes the
        cap).  Enforced by :meth:`allocate` and :meth:`resize` through
        :class:`~repro.errors.QueryBudgetError`, so an over-budget query
        fails its own allocation instead of starving co-running queries.
        """
        if nbytes is None:
            self._budgets.pop(owner, None)
        else:
            self._budgets[owner] = int(nbytes)

    def _charge(self, owner: str, delta: int) -> None:
        if not owner:
            return
        budget = self._budgets.get(owner)
        used = self._owner_used.get(owner, 0)
        if budget is not None and delta > 0 and used + delta > budget:
            raise QueryBudgetError(
                f"allocation of {delta} B exceeds query {owner!r}'s memory "
                f"budget ({budget - used} of {budget} B left)",
                requested=delta,
                available=max(0, budget - used),
            ).annotate(device=self.device_name, query_id=owner)
        self._owner_used[owner] = used + delta
        if self._owner_used[owner] <= 0:
            del self._owner_used[owner]

    # -- allocation ----------------------------------------------------------

    def allocate(self, alias: str, nbytes: int, *, pinned: bool = False,
                 data_format: str = "", at_time: float = 0.0,
                 owner: str = "") -> Buffer:
        """Reserve *nbytes* under *alias*, charged to *owner*.

        Raises :class:`DeviceMemoryError` when a device allocation would
        exceed capacity (pinned buffers are host-side and unbounded here)
        and :class:`QueryBudgetError` when it would exceed the owner's
        session budget.
        """
        if alias in self._buffers:
            raise DeviceMemoryError(f"buffer {alias!r} already allocated")
        if nbytes < 0:
            raise DeviceMemoryError(f"negative allocation {nbytes}")
        if not pinned and nbytes > self.device_free:
            raise DeviceMemoryError(
                f"allocation of {nbytes} B exceeds free device memory "
                f"({self.device_free} of {self.capacity_bytes} B free)",
                requested=nbytes,
                available=self.device_free,
            ).annotate(device=self.device_name, query_id=owner)
        if not pinned:
            self._charge(owner, int(nbytes))
        buffer = Buffer(alias=alias, nbytes=int(nbytes), pinned=pinned,
                        data_format=data_format, owner=owner)
        self._buffers[alias] = buffer
        if pinned:
            self._pinned_used += buffer.nbytes
        else:
            self._device_used += buffer.nbytes
            self.peak_device_used = max(self.peak_device_used,
                                        self._device_used)
            self.footprint_trace.append((at_time, self._device_used))
        return buffer

    def add_view(self, alias: str, parent: str, *,
                 owner: str = "") -> Buffer:
        """Register a zero-copy view (``create_chunk``) of *parent*, in
        its data format."""
        if alias in self._buffers:
            raise DeviceMemoryError(f"buffer {alias!r} already allocated")
        parent_buffer = self.get(parent)
        buffer = Buffer(
            alias=alias, nbytes=0, pinned=parent_buffer.pinned,
            data_format=parent_buffer.data_format,
            view_of=parent, owner=owner or parent_buffer.owner,
        )
        self._buffers[alias] = buffer
        return buffer

    def resize(self, alias: str, nbytes: int, *, at_time: float = 0.0) -> None:
        """Grow (or shrink) the reservation of *alias*.

        The runtime pre-allocates result buffers from estimates
        (``prepare_output_buffer``); when an actual result overflows the
        estimate the driver re-allocates, which may legitimately OOM.
        """
        buffer = self.get(alias)
        if buffer.view_of is not None:
            raise DeviceMemoryError(f"cannot resize view {alias!r}")
        delta = int(nbytes) - buffer.nbytes
        if buffer.pinned:
            self._pinned_used += delta
        else:
            if delta > self.device_free:
                raise DeviceMemoryError(
                    f"resize of {alias!r} to {nbytes} B exceeds free device "
                    f"memory ({self.device_free} B free)",
                    requested=delta,
                    available=self.device_free,
                ).annotate(device=self.device_name, query_id=buffer.owner)
            self._charge(buffer.owner, delta)
            self._device_used += delta
            self.peak_device_used = max(self.peak_device_used,
                                        self._device_used)
            self.footprint_trace.append((at_time, self._device_used))
        buffer.nbytes = int(nbytes)

    def free(self, alias: str, *, at_time: float = 0.0) -> None:
        """Release *alias* (views release no capacity)."""
        buffer = self.get(alias)
        dependents = [b.alias for b in self._buffers.values()
                      if b.view_of == alias]
        if dependents:
            raise DeviceMemoryError(
                f"buffer {alias!r} still has live views: {dependents}"
            )
        del self._buffers[alias]
        if buffer.view_of is not None:
            return
        if buffer.pinned:
            self._pinned_used -= buffer.nbytes
        else:
            self._charge(buffer.owner, -buffer.nbytes)
            self._device_used -= buffer.nbytes
            self.footprint_trace.append((at_time, self._device_used))

    def free_owner(self, owner: str, *, at_time: float = 0.0) -> int:
        """Release every buffer charged to *owner*; returns bytes freed.

        Views over the owner's buffers are released first (even when
        another owner created them), so one failed query can be reclaimed
        without corrupting co-running queries' buffers.
        """
        doomed = {a for a, b in self._buffers.items() if b.owner == owner}
        freed = sum(self._buffers[a].nbytes for a in doomed
                    if not self._buffers[a].pinned)
        for alias, buffer in list(self._buffers.items()):
            if buffer.view_of in doomed and alias not in doomed:
                self.free(alias, at_time=at_time)
        for alias in [a for a in doomed
                      if self._buffers[a].view_of is not None]:
            self.free(alias, at_time=at_time)
        for alias in doomed:
            if alias in self._buffers:
                self.free(alias, at_time=at_time)
        self._budgets.pop(owner, None)
        return freed

    def free_all(self, *, at_time: float = 0.0) -> None:
        """Release everything (end-of-query cleanup)."""
        # Views first so parent frees never see live views.
        for alias in [a for a, b in self._buffers.items()
                      if b.view_of is not None]:
            self.free(alias, at_time=at_time)
        for alias in list(self._buffers):
            self.free(alias, at_time=at_time)
