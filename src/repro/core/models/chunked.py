"""Naive chunked execution (Algorithm 1, Section IV-B).

Each chunk of the input is transferred (pageable memory), processed
through the complete pipeline, and only then is the next chunk
transferred — "the transfer waits for the execution to complete before
transferring the next chunk".  Breaker results persist in device memory;
all other intermediates are overwritten by the next chunk, so memory use
is bounded by the chunk size regardless of input size.
"""

from __future__ import annotations

from repro.core.models.base import ExecutionModel

__all__ = ["ChunkedModel"]


class ChunkedModel(ExecutionModel):
    """Serialized chunk-wise execution over pageable transfers.

    Plan pricing (:func:`~repro.planner.cost.estimate_plan_seconds`):
    transfer and compute serialize, so a pipeline costs their sum;
    every extra chunk adds one DMA setup per scan column plus one
    launch per node — the overhead the chunk-size ladder trades against
    memory footprint.
    """

    name = "chunked"
    uses_pinned_staging = False
    overlapped = False
