"""Kernel variant registry — the task layer's plug-in point.

Maps ``(primitive, variant)`` to a :class:`~repro.task.containers.KernelContainer`.
Drivers ask for their own variant first (``variant = sdk name``) and fall
back to the ``"reference"`` implementation, so a plugged-in device works out
of the box and can be specialized kernel-by-kernel — exactly the "freely
couple any SDK with its operator implementation" property of Section III-B.
"""

from __future__ import annotations

from dataclasses import replace as _replace

from repro.errors import NoImplementationError, SignatureError, UnknownPrimitiveError
from repro.primitives import kernels
from repro.primitives.definitions import PRIMITIVES
from repro.task.containers import ImplementationKind, KernelContainer

__all__ = ["TaskRegistry", "default_registry", "register_variant_kernels",
           "REFERENCE_VARIANT"]

REFERENCE_VARIANT = "reference"


class TaskRegistry:
    """Registry of kernel implementations keyed by (primitive, variant)."""

    def __init__(self) -> None:
        self._kernels: dict[tuple[str, str], KernelContainer] = {}

    def register(self, container: KernelContainer, *, replace: bool = False
                 ) -> None:
        """Register *container* under its (primitive, variant) key.

        Raises :class:`SignatureError` if the primitive is unknown — a
        kernel must adhere to a registered primitive definition to be
        pluggable — or if the key is already taken and *replace* is false.
        """
        if container.primitive not in PRIMITIVES:
            raise UnknownPrimitiveError(
                f"kernel {container.variant!r} implements unregistered "
                f"primitive {container.primitive!r}"
            )
        if not callable(container.fn):
            raise SignatureError(
                f"kernel for {container.primitive!r} is not callable"
            )
        key = (container.primitive, container.variant)
        if key in self._kernels and not replace:
            raise SignatureError(
                f"kernel already registered for {key}; pass replace=True"
            )
        self._kernels[key] = container

    def resolve(self, primitive: str, variant: str) -> KernelContainer:
        """The kernel for (primitive, variant), falling back to reference."""
        for key in ((primitive, variant), (primitive, REFERENCE_VARIANT)):
            if key in self._kernels:
                return self._kernels[key]
        raise NoImplementationError(
            f"no implementation of {primitive!r} for variant {variant!r} "
            f"and no reference fallback"
        )

    def variants(self, primitive: str) -> list[str]:
        """All registered variant keys for *primitive*."""
        return sorted(v for p, v in self._kernels if p == primitive)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._kernels


def _reference_kernels() -> list[KernelContainer]:
    ref = REFERENCE_VARIANT
    lib = ImplementationKind.LIBRARY
    return [
        KernelContainer("map", ref, kernels.map_kernel, kind=lib, num_args=3),
        KernelContainer("filter_bitmap", ref, kernels.filter_bitmap,
                        kind=lib, num_args=2),
        KernelContainer("filter_position", ref, kernels.filter_position,
                        kind=lib, num_args=2),
        KernelContainer("bitmap_and", ref, kernels.bitmap_and, kind=lib,
                        num_args=3),
        KernelContainer("bitmap_or", ref, kernels.bitmap_or, kind=lib,
                        num_args=3),
        KernelContainer("materialize", ref, kernels.materialize, kind=lib,
                        num_args=3),
        KernelContainer("materialize_position", ref,
                        kernels.materialize_position, kind=lib, num_args=3),
        KernelContainer("agg_block", ref, kernels.agg_block, kind=lib,
                        num_args=2),
        KernelContainer("hash_agg", ref, kernels.hash_agg, kind=lib,
                        num_args=3),
        KernelContainer("hash_build", ref, kernels.hash_build, kind=lib,
                        num_args=2),
        KernelContainer("hash_probe", ref, kernels.hash_probe, kind=lib,
                        num_args=4),
        KernelContainer("join_side", ref, kernels.join_side, kind=lib,
                        num_args=2),
        KernelContainer("gather_payload", ref, kernels.gather_payload,
                        kind=lib, num_args=3),
        KernelContainer("group_keys", ref, kernels.group_keys, kind=lib,
                        num_args=2),
        KernelContainer("group_values", ref, kernels.group_values,
                        kind=lib, num_args=2),
        KernelContainer("prefix_sum", ref, kernels.prefix_sum, kind=lib,
                        num_args=2),
        KernelContainer("sort_agg", ref, kernels.sort_agg, kind=lib,
                        num_args=3),
        KernelContainer("sort_positions", ref, kernels.sort_positions,
                        kind=lib, num_args=2),
        KernelContainer("group_prefix", ref, kernels.group_prefix,
                        kind=lib, num_args=2),
    ]


#: SDK variant keys the fused kernel is registered under, so every
#: driver (and the engine) resolves it without the reference fallback.
FUSED_VARIANTS = ("cuda", "opencl", "openmp", "fpga")


def _fused_kernels() -> list[KernelContainer]:
    # ``num_args`` here is the nominal in+out pair; the launch cost of a
    # fused node uses the summed per-step argument count carried in its
    # cost_params (the fusion pass computes it).
    fused = (
        ("fused_map_filter", kernels.fused_map_filter),
        ("fused_probe_path", kernels.fused_probe_path),
        ("fused_filter_agg", kernels.fused_filter_agg),
    )
    return [
        KernelContainer(primitive, variant, fn,
                        kind=ImplementationKind.LIBRARY, num_args=2)
        for primitive, fn in fused
        for variant in (REFERENCE_VARIANT, *FUSED_VARIANTS)
    ]


def register_variant_kernels(registry: TaskRegistry,
                             variant: str) -> list[str]:
    """Register a *full* kernel-variant set for *variant*.

    Device plug-ins call this to claim their own implementation of every
    primitive that has a reference kernel: each registered container is
    the reference implementation re-tagged under the plug-in's variant
    key.  Registering the full set — rather than relying on the
    reference fallback — is what the conformance suite's "every kernel
    variant present" check asserts, and it lets a plug-in later swap any
    single primitive for a tuned kernel (``registry.register(...,
    replace=True)``) without changing how plans resolve.

    Returns the primitive names registered (sorted); primitives the
    variant already claims are left untouched.
    """
    registered: list[str] = []
    for primitive in sorted(PRIMITIVES):
        if (primitive, variant) in registry:
            continue
        try:
            ref = registry.resolve(primitive, REFERENCE_VARIANT)
        except NoImplementationError:
            continue
        registry.register(_replace(ref, variant=variant, compiled=False))
        registered.append(primitive)
    return registered


def default_registry() -> TaskRegistry:
    """A registry pre-loaded with the reference kernels.

    The simulated SDK drivers all execute the reference kernels (results
    are SDK-independent); what differs per SDK is the *cost* charged by the
    device layer.  A real deployment would additionally register
    per-SDK containers here — the tests do exactly that to exercise the
    variant-resolution path.  The fused MAP/FILTER kernel is registered
    for every SDK variant so all execution models run fused plans
    unchanged.
    """
    registry = TaskRegistry()
    for container in _reference_kernels():
        registry.register(container)
    for container in _fused_kernels():
        registry.register(container)
    return registry
