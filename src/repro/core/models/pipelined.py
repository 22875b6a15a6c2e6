"""Pipelined chunked execution (Algorithm 2, Section IV-C).

A transfer thread prefetches chunk *c+1* while the compute stream
processes chunk *c*; the paper's per-edge fetch and process cursors
that synchronize the two are clock event dependencies here, and both
re-join at every pipeline breaker.  This materializes as dual
staging buffers per scan column: the transfer of chunk *c* only waits
for the compute that last used the same buffer (chunk *c-2*), never for
chunk *c-1*.
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
