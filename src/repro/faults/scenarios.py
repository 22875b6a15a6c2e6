"""Named fault scenarios for the serving-layer chaos suites.

Small factories over :class:`~repro.faults.FaultPlan` that give the
chaos x overload tests (and the CLI's ``serve --scenario``) shared,
seeded shorthand for the two failure shapes the serving layer must
absorb without changing any admitted query's answer:

* **flapping device** — a device that keeps half-failing: frequent
  transient kernel faults plus latency storms.  Exercises the retry
  ladder, the per-query retry budget, and the circuit breaker, all
  while the admission queue keeps filling behind it.
* **overload faults** — a background transient-fault drizzle across
  every device, run at arrival rates above the service's knee.  The
  chaos-equivalence tests assert byte-identical answers for admitted
  requests and typed rejections for shed ones.
"""

from __future__ import annotations

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["SCENARIOS", "flapping_device", "overload_faults"]


#: A flapping device's latency storms: this share of its kernels runs
#: this many times slower.
STORM_RATE = 0.1
STORM_FACTOR = 4.0


def flapping_device(*, rate: float = 0.2, seed: int = 7) -> FaultPlan:
    """Device ``dev0`` (the first-plugged, default device) flaps:
    transient faults at *rate* plus latency storms (:data:`STORM_RATE`,
    :data:`STORM_FACTOR`)."""
    return FaultPlan([
        FaultSpec(kind=FaultKind.TRANSIENT, device="dev0", rate=rate),
        FaultSpec(kind=FaultKind.LATENCY, device="dev0",
                  rate=STORM_RATE, factor=STORM_FACTOR),
    ], seed=seed)


def overload_faults(*, rate: float = 0.05, seed: int = 7) -> FaultPlan:
    """A transient-fault drizzle on every device — the background noise
    for overload runs (faults injected while the queue is saturated)."""
    return FaultPlan([
        FaultSpec(kind=FaultKind.TRANSIENT, device="*", rate=rate),
    ], seed=seed)


#: name -> zero-argument factory (CLI ``--scenario`` lookup).
SCENARIOS = {
    "flapping": flapping_device,
    "overload": overload_faults,
}
