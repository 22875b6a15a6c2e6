"""EXCHANGE operators: moving data between simulated nodes.

Three exchange flavors, priced by :mod:`repro.planner.cost` against the
cluster's network tier:

* **BROADCAST** — replicate a partitioned table so every node holds it
  whole (the scanned-but-not-co-partitioned tables: customer, part,
  supplier, partsupp).  Only the columns the plan actually scans are
  shipped, column-store style.
* **GATHER** — every node sends its output partials to the coordinator,
  which merges them serially.  Cheap when partials are tiny (Q6's
  8-byte scalar).
* **SHUFFLE** — partials are range-repartitioned by key, merged in
  parallel on all nodes, and the merged ranges collected.  Wins once
  partials are large enough that the coordinator's NIC and serial merge
  dominate (the Q3 knee).

GATHER and SHUFFLE produce the *same merged bytes* — concatenating
range-merged sorted group tables equals one global merge — so the
executor picks whichever prices cheaper and correctness is unaffected.
The merge kernels are the single-node chunk combiners
(:meth:`~repro.primitives.values.GroupTable.merge_all`,
:func:`~repro.primitives.kernels.hash_ops.merge_hash_tables`,
:func:`~repro.primitives.kernels.reduce.merge_partials`), so a
distributed answer is byte-identical to the single-node one —
with one documented exception: a merged :class:`HashTable`'s
``positions`` are node-local row numbers (payloads and keys are exact;
``lookup_payload`` is position-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import PrimitiveGraph
from repro.errors import ClusterError
from repro.hardware.specs import InterconnectSpec
from repro.planner.cost import gather_seconds, shuffle_seconds
from repro.primitives.kernels.hash_ops import merge_hash_tables
from repro.primitives.kernels.reduce import merge_partials
from repro.primitives.values import GroupTable, HashTable, value_nbytes

__all__ = ["ExchangeDecision", "merge_group_tables", "merge_outputs",
           "output_agg_fn", "partials_nbytes", "plan_exchange"]


@dataclass
class ExchangeDecision:
    """The priced GATHER-vs-SHUFFLE choice for one query's partials.

    Attributes:
        strategy: ``"gather"`` or ``"shuffle"`` (cheaper of the two);
            ``"none"`` on a single-node cluster.
        partial_bytes: Logical bytes of each node's output partials.
        merged_bytes: Logical bytes of the merged outputs.
        gather_est: Priced GATHER seconds.
        shuffle_est: Priced SHUFFLE seconds.
    """

    strategy: str
    partial_bytes: list[int] = field(default_factory=list)
    merged_bytes: int = 0
    gather_est: float = 0.0
    shuffle_est: float = 0.0

    @property
    def seconds(self) -> float:
        """Simulated seconds of the chosen strategy."""
        return (self.gather_est if self.strategy != "shuffle"
                else self.shuffle_est)


def output_agg_fn(graph: PrimitiveGraph, node_id: str) -> str:
    """The aggregate function an output node reduces with.

    Resolves through fused nodes (the fused step list carries the
    original aggregate's params) so exchanges merge fused and unfused
    plans identically.
    """
    node = graph.nodes[node_id]
    fn = node.params.get("fn")
    if fn is not None:
        return str(fn)
    for step in node.params.get("steps", ()):
        step_fn = step.get("params", {}).get("fn")
        if step_fn is not None:
            return str(step_fn)
    return "sum"


def merge_group_tables(partials: list[GroupTable]) -> GroupTable:
    """Merge node-partial group tables into one (count merges as sum)."""
    if len(partials) == 1:
        return partials[0]
    how = {name: ("sum" if name == "count" else name)
           for name in partials[0].aggregates}
    return GroupTable.merge_all(partials, how=how)


def merge_outputs(graph: PrimitiveGraph,
                  per_node: list[dict[str, object]]
                  ) -> dict[str, object]:
    """Merge every output node's per-node partials into final values.

    Dispatch is by carrier type — the same rules chunked execution uses
    to combine per-chunk partials of a pipeline breaker, applied across
    nodes instead of across chunks.
    """
    if not per_node:
        raise ClusterError("no node outputs to merge")
    merged: dict[str, object] = {}
    for out_id in graph.outputs:
        values = [outputs[out_id] for outputs in per_node]
        first = values[0]
        if len(values) == 1:
            merged[out_id] = first
        elif isinstance(first, GroupTable):
            merged[out_id] = merge_group_tables(values)
        elif isinstance(first, HashTable):
            merged[out_id] = merge_hash_tables(*values)
        elif isinstance(first, np.ndarray):
            merged[out_id] = merge_partials(
                values, fn=output_agg_fn(graph, out_id))
        else:
            raise ClusterError(
                f"cannot merge distributed partials of type "
                f"{type(first).__name__} for output {out_id!r}")
    return merged


def plan_exchange(partial_bytes: list[int], merged_bytes: int, *,
                  tier: InterconnectSpec,
                  mem_bandwidth: float) -> ExchangeDecision:
    """Price GATHER vs SHUFFLE for one query's partials and pick.

    Both strategies yield identical merged bytes, so this is purely a
    cost decision: the returned decision records both estimates for
    EXPLAIN and the what-if sweeps.
    """
    if len(partial_bytes) <= 1:
        return ExchangeDecision(
            strategy="none", partial_bytes=list(partial_bytes),
            merged_bytes=merged_bytes)
    gather_est = gather_seconds(partial_bytes, tier, mem_bandwidth)
    shuffle_est = shuffle_seconds(partial_bytes, tier, mem_bandwidth,
                                  merged_bytes=merged_bytes)
    strategy = "gather" if gather_est <= shuffle_est else "shuffle"
    return ExchangeDecision(
        strategy=strategy, partial_bytes=list(partial_bytes),
        merged_bytes=merged_bytes, gather_est=gather_est,
        shuffle_est=shuffle_est)


def partials_nbytes(graph: PrimitiveGraph, outputs: dict[str, object],
                    data_scale: int = 1) -> int:
    """Logical bytes one node's output partials occupy on the wire."""
    return sum(value_nbytes(outputs[out_id]) for out_id in graph.outputs
               ) * data_scale
