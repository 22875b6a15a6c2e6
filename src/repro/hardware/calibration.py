"""Calibration constants for the simulated SDK/device cost models.

Every performance-shaping constant of the reproduction lives in this one
module so the calibration is auditable.  The values are chosen to reproduce
the *orderings and ratios* reported in the paper, not absolute numbers:

* Figure 3 — CUDA transfers faster than OpenCL; pinned faster than pageable;
  A100 (PCIe 4.0) faster than RTX 2080 Ti (PCIe 3.0).
* Figure 5 — map/reduce throughput roughly SDK-independent on a device.
* Figure 9 — filter-bitmap flat in selectivity; adding materialization on a
  GPU drops combined throughput to roughly 30%; OpenCL hash aggregation
  degrades sharply with group count while CUDA stays flat; hash build slows
  with input size (atomic contention) while CPUs stay flat; CUDA probe is
  slightly worse than OpenCL probe.
* Figure 10 — OpenCL has the largest abstraction overhead, caused by
  explicit kernel-argument data mapping; OpenMP and CUDA need none.
* Figure 11 — pinned-memory staging (4-phase) beats pageable chunked
  transfers; OpenCL generally trails CUDA.

Units: seconds, bytes, elements/second.  Throughputs below are the rates of a
*reference* device (RTX 2080 Ti for GPUs, i7-8700 for CPUs); the cost model
scales them by the actual device's memory bandwidth or compute units.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import DeviceKind, Sdk

__all__ = [
    "SdkProfile",
    "SDK_PROFILES",
    "PRIMITIVE_RATES",
    "REFERENCE_BANDWIDTH",
    "REFERENCE_UNITS",
    "PAGEABLE_FACTOR",
    "FUSED_EXTERNAL_STEP_FACTOR",
    "FUSED_INTERNAL_STEP_FACTOR",
    "FUSED_PROBE_STEP_FACTOR",
    "FUSED_SINK_STEP_FACTOR",
    "FUSED_SELECTIVE_DECAY",
    "MATERIALIZE_GPU_PENALTY",
    "HASH_AGG_GROUP_SLOPE",
    "HASH_BUILD_SIZE_SLOPE",
    "HASH_CONTENTION_BASE",
    "RTCORE_TRAVERSAL_PRIMITIVES",
    "RTCORE_TRAVERSAL_RATES",
    "RTCORE_TRAVERSAL_ANCHOR",
    "RTCORE_TRAVERSAL_EXPONENT",
    "RTCORE_REFERENCE_UNITS",
    "RTCORE_SCENE_BUILD_SECONDS",
    "RTCORE_SCENE_INSERT_RATE",
    "RTCORE_STREAM_EFFICIENCY",
    "COUPLED_HANDOFF_SECONDS",
    "COUPLED_PINNED_ALLOC_SECONDS",
    "COUPLED_COHERENCE_EFFICIENCY",
]


@dataclass(frozen=True)
class SdkProfile:
    """Per-SDK cost constants (applied on top of a device spec).

    Attributes:
        bandwidth_efficiency: Fraction of the device's peak interconnect
            bandwidth the SDK achieves (OpenCL pays a translation overhead,
            Figure 3).
        launch_overhead: Fixed host-side cost per kernel launch.
        arg_mapping_overhead: Per-kernel-argument cost for explicitly
            mapping buffers to kernel arguments.  Nonzero only for OpenCL;
            this constant produces the Figure 10 overhead gap.
        alloc_overhead: Fixed cost per device allocation.
        alloc_per_byte: Variable allocation cost (page mapping).
        pinned_alloc_overhead: Fixed cost to allocate host-pinned memory
            (page-locking is expensive; amortized by the 4-phase stage
            phase).
        compile_overhead: Cost of ``prepare_kernel`` (runtime compilation
            for OpenCL; cubin load for CUDA; no-op for OpenMP).
        transform_overhead: Cost of ``transform_memory`` — a metadata-only
            reinterpretation of a device buffer between SDK data types
            (Section III-A, Figure 4); deliberately tiny compared to a
            round-trip through the host.
    """

    bandwidth_efficiency: float
    launch_overhead: float
    arg_mapping_overhead: float
    alloc_overhead: float
    alloc_per_byte: float
    pinned_alloc_overhead: float
    compile_overhead: float
    transform_overhead: float


SDK_PROFILES: dict[Sdk, SdkProfile] = {
    Sdk.CUDA: SdkProfile(
        bandwidth_efficiency=1.00,
        launch_overhead=5e-6,
        arg_mapping_overhead=0.0,
        alloc_overhead=10e-6,
        alloc_per_byte=2e-12,
        pinned_alloc_overhead=250e-6,
        compile_overhead=2e-3,
        transform_overhead=2e-6,
    ),
    Sdk.OPENCL: SdkProfile(
        bandwidth_efficiency=0.80,
        launch_overhead=15e-6,
        arg_mapping_overhead=12e-6,
        alloc_overhead=20e-6,
        alloc_per_byte=3e-12,
        pinned_alloc_overhead=300e-6,
        compile_overhead=40e-3,  # clBuildProgram from source
        transform_overhead=2e-6,
    ),
    Sdk.OPENMP: SdkProfile(
        bandwidth_efficiency=1.00,
        launch_overhead=8e-6,  # thread-team fork/join
        arg_mapping_overhead=0.0,
        alloc_overhead=5e-6,
        alloc_per_byte=1e-12,
        pinned_alloc_overhead=5e-6,  # plain host malloc
        compile_overhead=0.0,
        transform_overhead=1e-6,
    ),
}

# Pageable (non-pinned) transfers reach a bit under half the pinned
# bandwidth (Figure 3: the staging copy through the driver's bounce buffer).
PAGEABLE_FACTOR = 0.45

# --- Kernel fusion (planner.fusion / kernels.fused) -------------------------
#
# A fused MAP/FILTER chain runs as one kernel making a single pass over
# the chunk.  Per fused step the charge is the step's calibrated kernel
# time scaled by one of two factors:
#
# * a step that still streams at least one operand from device memory
#   (an external input of the fused group) keeps the memory traffic of
#   its read but skips writing an intermediate result and re-running a
#   standalone kernel's per-element loop bookkeeping;
# * a step whose operands are all produced by earlier fused steps works
#   entirely on register/cache-resident values — no global-memory
#   traffic at all.
#
# The resulting 2-3x speedup on filter-tree pipelines matches the gains
# reported for operator fusion on these workloads (Bress et al. 2-5x for
# fully compiled pipelines; Ozawa & Goda ~2x for GPU data-path fusion).
FUSED_EXTERNAL_STEP_FACTOR = 0.60
FUSED_INTERNAL_STEP_FACTOR = 0.10

# Data-path fusion through joins and aggregation keeps two step classes
# that neither factor above fits:
#
# * a HASH_PROBE step still random-accesses the (external) hash table —
#   the dominant cost of the standalone kernel — but skips emitting the
#   join-pair buffer and the downstream position-list materialization;
# * an aggregation sink (HASH_AGG / AGG_BLOCK) keeps its atomic /
#   reduction traffic into the group table but reads its key and value
#   operands from registers instead of freshly materialized columns.
#
# Both stay well above FUSED_INTERNAL_STEP_FACTOR because their memory
# behaviour is irregular (table lookups, atomics) rather than streaming;
# the savings are the skipped intermediate buffers, mirroring the
# probe-path fusion gains Ozawa & Goda report (~2x end to end, far less
# per probe step).
FUSED_PROBE_STEP_FACTOR = 0.75
FUSED_SINK_STEP_FACTOR = 0.85

# Row-domain decay applied after each selective step (filters by
# position, gathers, probes): whatever comes after only touches the
# surviving rows.  The one decay: the fused sweep applies it per
# selective step and the planner's DEFAULT_SELECTIVITY reads it, so
# fused and unfused estimates of the same chain decay identically.
FUSED_SELECTIVE_DECAY = 0.5

# Reference devices whose rates are tabulated below; the cost model scales
# by ``spec.mem_bandwidth / REFERENCE_BANDWIDTH[kind]`` for bandwidth-bound
# primitives and by compute units for contention-bound ones.
REFERENCE_BANDWIDTH: dict[DeviceKind, float] = {
    DeviceKind.GPU: 616e9,  # RTX 2080 Ti
    DeviceKind.CPU: 41e9,  # i7-8700
    DeviceKind.FPGA: 77e9,  # Alveo U250
}
REFERENCE_UNITS: dict[DeviceKind, int] = {
    DeviceKind.GPU: 68,
    DeviceKind.CPU: 6,
    DeviceKind.FPGA: 4,
}

# Base primitive throughput in elements/second on the reference device,
# keyed by (kind, sdk).  Simple streaming primitives (map, filter, reduce,
# prefix-sum, materialize) are bandwidth-bound; hash primitives are
# contention-bound and get the modifiers below.
#
# Orderings encoded (Figures 5 and 9):
# * map/reduce: near-equal across SDKs on the same device.
# * CPU filter: OpenCL a bit better than OpenMP (OpenMP suffers explicit
#   thread scheduling / data movement, Section V-A).
# * GPU hash ops far faster than CPU (internal bandwidth), build < probe
#   (atomic insertion), CUDA probe slightly below OpenCL probe.
PRIMITIVE_RATES: dict[tuple[DeviceKind, Sdk], dict[str, float]] = {
    (DeviceKind.GPU, Sdk.CUDA): {
        "map": 40.0e9,
        "filter_bitmap": 38.0e9,
        "filter_position": 20.0e9,
        "materialize": 12.0e9,
        "materialize_position": 16.0e9,
        "agg_block": 42.0e9,
        "prefix_sum": 25.0e9,
        "hash_agg": 9.0e9,
        "hash_build": 2.2e9,
        "hash_probe": 4.2e9,
        "sort_agg": 6.0e9,
    },
    (DeviceKind.GPU, Sdk.OPENCL): {
        "map": 39.0e9,
        "filter_bitmap": 38.0e9,
        "filter_position": 19.0e9,
        "materialize": 11.5e9,
        "materialize_position": 15.0e9,
        "agg_block": 40.0e9,
        "prefix_sum": 24.0e9,
        "hash_agg": 9.5e9,  # degrades with groups via HASH_AGG_GROUP_SLOPE
        "hash_build": 2.0e9,
        "hash_probe": 5.0e9,  # slightly better than CUDA probe (Fig 9e)
        "sort_agg": 5.5e9,
    },
    (DeviceKind.CPU, Sdk.OPENCL): {
        "map": 2.8e9,
        "filter_bitmap": 2.6e9,
        "filter_position": 1.8e9,
        "materialize": 2.2e9,
        "materialize_position": 2.0e9,
        "agg_block": 3.0e9,
        "prefix_sum": 2.0e9,
        "hash_agg": 0.55e9,
        "hash_build": 0.40e9,
        "hash_probe": 0.70e9,
        "sort_agg": 0.8e9,
    },
    (DeviceKind.CPU, Sdk.OPENMP): {
        "map": 2.7e9,
        "filter_bitmap": 2.1e9,  # below OpenCL-CPU (Fig 9a)
        "filter_position": 1.6e9,
        "materialize": 2.1e9,
        "materialize_position": 1.9e9,
        "agg_block": 2.9e9,
        "prefix_sum": 1.9e9,
        "hash_agg": 0.50e9,
        "hash_build": 0.38e9,
        "hash_probe": 0.65e9,
        "sort_agg": 0.75e9,
    },
    # FPGA via the OpenCL-for-FPGA toolchains (Section III-A2).  Deeply
    # pipelined streaming primitives run at line rate (DDR-bound, one
    # element per cycle per channel); BRAM-based hash structures have no
    # atomic contention (the cost model disables the contention curves
    # for this kind) but modest clocked throughput; sort networks are a
    # strong point.
    (DeviceKind.FPGA, Sdk.OPENCL): {
        "map": 18.0e9,
        "filter_bitmap": 18.0e9,
        "filter_position": 9.0e9,
        "materialize": 8.0e9,
        "materialize_position": 7.0e9,
        "agg_block": 18.0e9,
        "prefix_sum": 16.0e9,
        "hash_agg": 2.0e9,
        "hash_build": 1.2e9,
        "hash_probe": 2.4e9,
        "sort_agg": 4.0e9,
    },
}

# Adding materialization after a bitmap filter on a GPU drops the combined
# throughput to ~30% of bitmap-only (Section V-A): threads cooperatively
# extract bits from shared bitmap words.  The CPU penalty is minor because
# each thread owns a run of 32 inputs.  Applied multiplicatively to the
# materialize rate as a function of device kind.
MATERIALIZE_GPU_PENALTY = 1.0  # already folded into the rate table above

# OpenCL hash aggregation degrades with the number of groups (static thread
# scheduling funnelling atomics through one memory controller, Fig 9c):
#   rate(groups) = base / (1 + slope * log2(groups))
HASH_AGG_GROUP_SLOPE: dict[Sdk, float] = {
    Sdk.OPENCL: 0.50,
    Sdk.CUDA: 0.04,
    Sdk.OPENMP: 0.10,
}

# GPU hash build slows as the input (and thus table) grows — repeated
# atomic insertion into one global table (Fig 9d):
#   rate(n) = base / (1 + slope * max(0, log2(n / 2^24)))
# CPUs stay flat (slope 0 applied for CPU kinds in the cost model), and
# FPGAs are contention-free entirely: their hash structures are deeply
# pipelined BRAM banks with deterministic serialization.
HASH_BUILD_SIZE_SLOPE = 0.35
HASH_CONTENTION_BASE = 2**24

# FPGA kernel management: runtime "compilation" is a partial
# reconfiguration of a pre-synthesized bitstream region, and launches go
# through DMA descriptor setup.
FPGA_RECONFIGURE_SECONDS = 80e-3
FPGA_LAUNCH_SECONDS = 20e-6

# --- RT-core accelerator (devices.rtcore; RTCUDB in PAPERS.md) ---------------
#
# RTCUDB maps selections and hash probes onto the GPU's ray-tracing
# pipeline: table entries become scene primitives in a BVH, and each
# lookup is a ray cast whose cost is the traversal depth — logarithmic
# in the scene, not linear in the data swept.  The reproduction prices a
# traversal batch of ``n`` lookups as
#
#     seconds(n) = (ANCHOR / rate) * (n / ANCHOR) ** EXPONENT
#
# i.e. calibrated to ``rate`` lookups/second at the ANCHOR batch size
# and growing sub-linearly beyond it (hardware traversal units keep
# rays in flight; incoherent memory access amortizes across the batch).
# The curve is monotone non-decreasing in ``n`` — more probes never
# cost less — which tests/test_plugin_conformance.py property-checks.
# Below the anchor the same curve charges *more* than a linear model
# would: tiny batches cannot fill the traversal units and still pay the
# full BVH depth per ray.  Rates are for the reference RT GPU
# (RTX 3090, 82 RT cores) and scale with the device's compute units.
RTCORE_TRAVERSAL_PRIMITIVES = ("hash_probe", "filter_bitmap",
                               "filter_position")
RTCORE_TRAVERSAL_RATES: dict[str, float] = {
    "hash_probe": 8.0e9,
    "filter_bitmap": 14.0e9,
    "filter_position": 10.0e9,
}
RTCORE_TRAVERSAL_ANCHOR = 2**24
RTCORE_TRAVERSAL_EXPONENT = 0.55
RTCORE_REFERENCE_UNITS = 82  # RTX 3090 RT cores (1 per SM on Ampere)

# Building the probe side means constructing a BVH over the keys — the
# expensive half of the trade (RTCUDB reports scene builds dominating
# whenever the build side is not reused).  Charged as a fixed
# construction pass per build launch plus a slow per-key insert; chunked
# builds pay the fixed cost per chunk (incremental refits).
RTCORE_SCENE_BUILD_SECONDS = 1.5e-3
RTCORE_SCENE_INSERT_RATE = 0.5e9  # keys/second at the reference GPU

# Everything that is not a traversal (scans, materialization,
# aggregation sweeps) must first be encoded as ray payloads and run on
# the shader cores while the traversal pipeline owns the scheduler;
# streaming primitives achieve this fraction of the equivalent CUDA
# rate.  RT-core devices are deliberately *bad* scan engines — that is
# the frontier the landscape bench maps.
RTCORE_STREAM_EFFICIENCY = 0.33

# --- Coupled CPU-GPU device (devices.coupled; He et al. in PAPERS.md) --------
#
# On an integrated APU the "transfer" interfaces degenerate to a
# cache-coherent pointer hand-off: no bytes cross any interconnect
# (the zero-copy invariant tests assert the H2D byte counter stays 0),
# only a small coherence/synchronization latency per hand-off is paid.
# Pinned allocation is plain host malloc.  Kernels, in exchange, run
# from the shared DDR bus — the device spec's low ``mem_bandwidth``
# scales their rates down — further derated by coherence traffic
# sharing the bus with the CPU.
COUPLED_HANDOFF_SECONDS = 3e-6
COUPLED_PINNED_ALLOC_SECONDS = 5e-6
COUPLED_COHERENCE_EFFICIENCY = 0.90

# --- OpenCL pinned-memory anomaly (Figure 11, Q4) ---------------------------
#
# The paper observes that 4-phase execution with OpenCL is ~2x *slower* than
# naive chunked execution for Q4, and attributes it to pinned memory: the
# query "starts with building a hash table", so there is no intervening
# primitive between the pinned DMA and the atomic-heavy breaker, and OpenCL
# cannot keep its mapped pinned regions staged into device memory before the
# kernel starts re-reading them; CUDA "can overcome this issue".  We model
# this structurally: when a pipeline feeds scan data into a hash breaker
# (HASH_BUILD / HASH_AGG) within at most SHALLOW_HOP_THRESHOLD intermediate
# primitives, the atomic-heavy kernel effectively re-reads zero-copy pinned
# chunks over the interconnect before they are staged, so that pipeline's
# OpenCL pinned H2D path is charged OPENCL_SHALLOW_PINNED_FACTOR of its base
# duration.  Deeper pipelines have staged the chunk into device residency by
# the time the breaker runs and pay nothing.
#
# With threshold 1, Q4's late-lineitem build pipeline (scan -> materialize
# -> HASH_BUILD) and Q3's tiny customer pipeline qualify; Q3's orders
# pipeline (scan -> materialize -> semi-probe -> materialize -> HASH_BUILD)
# and every aggregation pipeline do not — matching which queries the paper
# reports as degraded.
OPENCL_SHALLOW_PINNED_FACTOR = 4.5
SHALLOW_HOP_THRESHOLD = 1
SHALLOW_HASH_BREAKERS = ("hash_build", "hash_agg")

# --- Unified-memory (zero-copy) execution --------------------------------
#
# Listing 2 of the paper allocates CL_MEM_ALLOC_HOST_PTR unified memory;
# the optional zero-copy execution model reads such buffers directly from
# kernels over the interconnect instead of staging them.  Reads achieve
# slightly less than the pinned DMA bandwidth (no wide DMA bursts), and —
# crucially — every kernel touching a host-resident column pays the read
# again, so multiply-read columns make zero-copy lose to 4-phase staging.
UMA_READ_EFFICIENCY = 0.85

# --- HeavyDB baseline profile (Figure 11's comparison bars) -----------------
#
# HeavyDB internals are not reproduced; the simulated comparator encodes the
# *mechanisms* the paper attributes its behaviour to, calibrated so the
# relative picture matches Section V-C:
# * in-place (hot) execution is compiled/fused and keeps referenced columns
#   resident — its end-to-end rate is comparable to ADAMANT's naive chunked
#   execution;
# * cold start additionally pays a full pageable transfer of every
#   referenced column, making it "quite slower" (paper: ADAMANT up to 4x
#   faster);
# * integer joins/group-bys use dense *key-range* hash layouts; TPC-H
#   orderkeys are sparse (1 in 4 of the domain is used), so Q3's join table
#   spans 4 * orders-rows slots and overflows device memory at SF >= 100.
# Hot execution processes its input at just under ADAMANT's pageable
# chunked rate (the paper finds the two "comparable"); expressed relative
# to the device so both setups behave consistently.
HEAVYDB_EXEC_VS_PAGEABLE = 0.95
HEAVYDB_COMPILE_SECONDS = 0.35  # per-query LLVM codegen (cold only)
HEAVYDB_KEY_DOMAIN_FACTOR = 4  # sparse orderkey domain / used keys
HEAVYDB_JOIN_SLOT_BYTES = 56  # dense join-table slot (key+payload+pad)
HEAVYDB_SEMI_SLOT_BYTES = 8  # dense existence-table slot
HEAVYDB_HASH_SECONDS_PER_KEY = 2e-9  # insertion cost per build-side key
