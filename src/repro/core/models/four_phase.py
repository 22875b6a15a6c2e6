"""4-phase execution with memory reuse (Algorithm 3, Section IV-C).

Four phases per pipeline:

1. **Stage** — allocate two identical *pinned* staging spaces per scanned
   column (Figure 8) plus device memory for intermediates;
2. **Copy** — chunks DMA into the alternating pinned spaces at pinned
   bandwidth (Figure 3's fast path);
3. **Compute** — primitives run from the staged chunks, intermediates stay
   in dedicated device memory, breaker results return to the host through
   pinned memory;
4. **Delete** — staging spaces and transient intermediates are released
   for the next query.

Two variants match Figure 11: the *chunked* 4-phase serializes copy and
compute (the pinned-bandwidth win only), while the *pipelined* 4-phase
overlaps them (usually a small extra win, because transfer time dominates
— exactly the paper's observation).
"""

from __future__ import annotations

from repro.core.models.base import ExecutionModel

__all__ = ["FourPhaseChunkedModel", "FourPhasePipelinedModel"]


class FourPhaseChunkedModel(ExecutionModel):
    """Stage/copy/compute/delete with serialized copy-compute.

    Plan pricing: chunks stream at *pinned* bandwidth (including the
    OpenCL shallow-hash penalty where calibrated), serialized with
    compute.
    """

    name = "four_phase_chunked"
    uses_pinned_staging = True
    overlapped = False


class FourPhasePipelinedModel(ExecutionModel):
    """Stage/copy/compute/delete with copy-compute overlap.

    Plan pricing: pinned-bandwidth transfers overlapped with compute —
    ``max(transfer, compute)`` per multi-chunk pipeline, the cheapest
    single-device streaming shape when transfer dominates.
    """

    name = "four_phase_pipelined"
    uses_pinned_staging = True
    overlapped = True
