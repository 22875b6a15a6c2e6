"""Task-layer containers (Section III-B1).

The paper's task model wraps every operator implementation in two adapters:

* :class:`KernelContainer` — a callable plus the runtime information needed
  to execute it (which primitive it implements, how it was produced, the
  kernel source for runtime compilation, its launch-argument count).  The
  simulator charges it under its primitive's cost key: a cost class
  belongs to the primitive's definition, not to one implementation.
* :class:`DataContainer` — the data-format bookkeeping for a task, with a
  lookup table of format-to-format transformations so the runtime can
  convert an OpenCL buffer into a CUDA device pointer *in place* instead of
  round-tripping through the host (Figure 4).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import TransformError

__all__ = ["KernelContainer", "DataContainer", "ImplementationKind"]


class ImplementationKind:
    """How an implementation came to be (Section III-B): hand-written,
    taken from a vendor library, or generated/compiled at runtime."""

    HANDWRITTEN = "handwritten"
    LIBRARY = "library"
    GENERATED = "generated"


@dataclass
class KernelContainer:
    """Adapter around one implementation of a primitive.

    Attributes:
        primitive: Name of the primitive this kernel implements (must be a
            registered :class:`~repro.primitives.definitions.PrimitiveDefinition`).
        variant: Implementation variant key, conventionally the SDK name
            (``"opencl"``, ``"cuda"``, ``"openmp"``) but free-form —
            workload-specialized variants are explicitly allowed.
        fn: The callable: ``fn(*inputs, **params) -> value``.
        kind: Provenance (:class:`ImplementationKind`).
        source: Kernel source string for runtime compilation, when the
            SDK supports ``prepare_kernel`` (kept verbatim; the simulated
            drivers only charge its compilation time).
        num_args: Declared kernel-argument count; OpenCL charges an
            explicit mapping cost per argument (Figure 10).
    """

    primitive: str
    variant: str
    fn: Callable[..., object]
    kind: str = ImplementationKind.HANDWRITTEN
    source: str | None = None
    num_args: int = 2
    compiled: bool = False

    def __call__(self, *inputs: object, **params: object) -> object:
        return self.fn(*inputs, **params)

    @property
    def needs_compilation(self) -> bool:
        return self.source is not None and not self.compiled


@dataclass
class DataContainer:
    """Data-format manager with an SDK-to-SDK transformation lookup table.

    Formats are string tags (``"opencl.buffer"``, ``"cuda.devptr"`` ...).
    ``transform`` resolves a registered converter; the simulated drivers
    call it from ``transform_memory`` so a buffer changes interpretation
    without moving bytes.
    """

    native_format: str
    transforms: dict[tuple[str, str], Callable[[object], object]] = field(
        default_factory=dict
    )

    def register_transform(self, source: str, target: str,
                           fn: Callable[[object], object]) -> None:
        """Register a converter from *source* format to *target* format."""
        self.transforms[(source, target)] = fn

    def can_transform(self, source: str, target: str) -> bool:
        return source == target or (source, target) in self.transforms

    def transform(self, value: object, source: str, target: str) -> object:
        """Convert *value* between formats; identity when formats match."""
        if source == target:
            return value
        try:
            fn = self.transforms[(source, target)]
        except KeyError:
            raise TransformError(
                f"no registered transform {source!r} -> {target!r}; "
                f"known: {sorted(self.transforms)}"
            ) from None
        return fn(value)
