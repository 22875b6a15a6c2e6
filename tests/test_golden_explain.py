"""Golden-snapshot tests: EXPLAIN output is byte-for-byte stable.

Each scenario renders EXPLAIN for a fixed (query, devices, options)
tuple and compares against a checked-in snapshot under
``tests/golden/``.  Run ``pytest --update-golden`` to rewrite the
snapshots after an intentional rendering change — the diff then shows
up in review instead of churning silently.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster import ClusterExecutor
from repro.devices import CudaDevice, OpenMPDevice
from repro.hardware import CPU_I7_8700, GPU_RTX_2080_TI
from repro.observe import explain, explain_distributed, explain_plans
from repro.tpch.queries import q3, q4, q6
from tests.conftest import make_executor

GOLDEN_DIR = Path(__file__).parent / "golden"


def _single_device():
    return make_executor(name="gpu0")


def _two_device():
    return make_executor(name="gpu0", extra_devices=[
        ("cpu0", OpenMPDevice, CPU_I7_8700)])


def _cluster(nodes=2, network="eth_100g"):
    cluster = ClusterExecutor(nodes=nodes, network=network)
    cluster.plug_device("gpu0", CudaDevice, GPU_RTX_2080_TI)
    return cluster


# name -> (graph builder, executor factory, explain kwargs)
SCENARIOS = {
    "q3": (lambda catalog: q3.build(catalog), _single_device,
           dict(model="chunked", chunk_size=1024)),
    "q4": (lambda catalog: q4.build(), _single_device,
           dict(model="chunked", chunk_size=1024)),
    "q6": (lambda catalog: q6.build(), _single_device,
           dict(model="chunked", chunk_size=1024)),
    "q6_fused": (lambda catalog: q6.build(), _single_device,
                 dict(model="chunked", chunk_size=1024, fuse=True)),
    "q6_adaptive": (lambda catalog: q6.build(), _two_device,
                    dict(model="split_chunked", chunk_size=1024,
                         adaptive=True)),
    "q3_adaptive": (lambda catalog: q3.build(catalog), _single_device,
                    dict(model="chunked", chunk_size=1024, adaptive=True)),
}

# EXPLAIN PLANS snapshots: the optimizer's ranked candidates must be as
# byte-stable as the single-plan tree.  name -> (builder, factory,
# explain_plans kwargs).
PLANS_SCENARIOS = {
    "plans_q6": (lambda catalog: q6.build(), _single_device,
                 dict(chunk_size=1024)),
    "plans_q6_two_device": (lambda catalog: q6.build(), _two_device,
                            dict(chunk_size=1024)),
    "plans_q3_two_device": (lambda catalog: q3.build(catalog),
                            _two_device, dict(chunk_size=1024, top_k=5)),
}

# EXPLAIN DISTRIBUTED snapshots: the scale-out plan rendering
# (partitioning, per-node estimates, the priced exchange choice) must
# be as byte-stable as the single-node tree.  name -> (builder,
# cluster factory, explain_distributed kwargs).
DISTRIBUTED_SCENARIOS = {
    "dist_q6_two_node": (
        lambda catalog: q6.build(), lambda: _cluster(2),
        dict(chunk_size=1024, data_scale=4)),
    "dist_q3_two_node": (
        lambda catalog: q3.build(catalog), lambda: _cluster(2),
        dict(chunk_size=1024, data_scale=4)),
    "dist_q3_four_node_slow_net": (
        lambda catalog: q3.build(catalog),
        lambda: _cluster(4, network="eth_10g"),
        dict(chunk_size=1024, data_scale=4, fuse=True)),
}


def render(name: str, tiny_catalog) -> str:
    if name in DISTRIBUTED_SCENARIOS:
        build, factory, kwargs = DISTRIBUTED_SCENARIOS[name]
        return explain_distributed(build(tiny_catalog), tiny_catalog,
                                   cluster=factory(), **kwargs)
    if name in PLANS_SCENARIOS:
        build, factory, kwargs = PLANS_SCENARIOS[name]
        executor = factory()
        return explain_plans(build(tiny_catalog), tiny_catalog,
                             devices=executor.devices,
                             default_device=executor.default_device,
                             **kwargs)
    build, factory, kwargs = SCENARIOS[name]
    executor = factory()
    return explain(build(tiny_catalog), tiny_catalog,
                   devices=executor.devices,
                   default_device=executor.default_device, **kwargs)


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(PLANS_SCENARIOS)
                         + sorted(DISTRIBUTED_SCENARIOS))
def test_explain_matches_golden(name, tiny_catalog, update_golden):
    text = render(name, tiny_catalog) + "\n"
    path = GOLDEN_DIR / f"{name}.txt"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        old = path.read_text() if path.exists() else None
        if old == text:
            pytest.skip(f"golden snapshot {path.name} already up to date")
        path.write_text(text)
        print(f"updated golden snapshot: {path.name}")
        pytest.skip(f"golden snapshot {path.name} updated (content changed)")
    assert path.exists(), (
        f"missing golden snapshot {path}; run pytest --update-golden")
    assert text == path.read_text(), (
        f"EXPLAIN for {name} drifted from {path.name}; if intentional, "
        f"run pytest --update-golden and commit the diff")


def test_golden_files_have_no_strays():
    """Every checked-in snapshot corresponds to a scenario (or is the
    CLI transcript ``tests/test_cli.py`` checks)."""
    known = {f"{name}.txt" for name in (*SCENARIOS, *PLANS_SCENARIOS,
                                        *DISTRIBUTED_SCENARIOS)}
    known.add("cli_transcript.txt")
    present = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert present <= known, present - known
