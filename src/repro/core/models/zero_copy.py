"""Unified-memory (zero-copy) execution — the Listing 2 extension.

The paper's ``add_pinned_memory`` interface explicitly supports unified
memory (``CL_MEM_ALLOC_HOST_PTR``): chunks live in host-resident pinned
buffers and kernels read them through the interconnect on demand, with no
explicit DMA at all.  This optional model realizes that idea:

* the stage phase allocates one pinned buffer per scan column;
* per chunk, the buffer is merely *published* (a pointer update) —
  the transfer stream stays idle;
* every kernel that consumes scan data pays the interconnect read itself
  (on the compute stream, at slightly under pinned DMA bandwidth), so a
  column read by several primitives is pulled over the bus several times.

That re-read amplification is the model's characteristic cost: it beats
naive pageable chunking on singly-read columns but loses to 4-phase
staging whenever the pipeline touches a column more than once — the
ablation benchmark quantifies exactly that.
"""

from __future__ import annotations

from repro.core.models.base import ExecutionModel

__all__ = ["ZeroCopyModel"]


class ZeroCopyModel(ExecutionModel):
    """Kernels read host-resident unified memory directly.

    Plan pricing: no DMA term at all; instead every kernel consuming a
    scan column is charged the interconnect read on the compute stream,
    so the optimizer sees the re-read amplification and avoids this
    model when pipelines touch columns more than once.
    """

    name = "zero_copy"
    uses_pinned_staging = True
    overlapped = False
    staging_buffers = 1  # no copy phase, so no dual spaces needed
    zero_copy = True
