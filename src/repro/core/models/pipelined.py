"""Pipelined chunked execution (Algorithm 2, Section IV-C).

A transfer thread prefetches chunk *c+1* while the compute stream
processes chunk *c*; the two synchronize through the ``fetched_until`` /
``processed_until`` cursors and re-join at every pipeline breaker.  In the
event simulation this materializes as dual staging buffers per scan
column: the transfer of chunk *c* only waits for the compute that last
used the same buffer (chunk *c-2*), never for chunk *c-1*.
"""

from __future__ import annotations

from repro.core.models.base import ExecutionModel

__all__ = ["PipelinedModel"]


class PipelinedModel(ExecutionModel):
    """Copy-compute overlapped execution over pageable transfers.

    Plan pricing: with dual buffers the longer of the transfer and
    compute streams dominates a multi-chunk pipeline, so the optimizer
    charges ``max(transfer, compute)`` instead of their sum.
    """

    name = "pipelined"
    uses_pinned_staging = False
    overlapped = True
