"""Accelerator-backend registry.

Every hot kernel the paper models (string scan/membership, hash probe,
regex DFA stepping, heap management) exists in two software
realizations: the hand-``optimized`` defaults living on the
accelerator classes, and the pinned seed-era ``reference`` kernels
(:mod:`repro.accel.reference`) the perf harness measures them
against.  This module names each patchable kernel as a *binding
point* — ``(owner class, attribute)`` — and resolves an implementation
per ``(kernel, backend)`` pair, so the perf harness, the live server
and the CLI select kernels by backend name instead of hard-coding
module pairs.

Key properties:

* **Fallback resolution.**  A backend that registers only some
  kernels shares the ``optimized`` implementation for the rest (the
  heap manager, for example, has a single implementation that every
  backend uses).
* **Nestable patching.**  :func:`backend_mode` swaps every binding
  point process-wide for the duration of a ``with`` block, restoring
  whatever was active before — nesting ``backend_mode("optimized")``
  inside ``backend_mode("reference")`` works and unwinds correctly.
* **Mode hooks.**  A backend may attach context managers entered for
  the duration of its mode; the ``reference`` backend uses one to
  restore the seed repo's cache profile (trace/experiment/pattern
  caches off), exactly what the old ``reference_mode()`` did.
* **Instrumentation hook.**  :meth:`BackendRegistry.register`
  accepts any backend name, so the benchmark tracer
  (``perfbench/tracer.py``) registers span-wrapped copies of the
  ``optimized`` kernels as one more backend and selects it with
  :func:`backend_mode`.

Results must be byte-identical across backends on every input; the
conformance suite and the perf harness both assert that.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: The backend the accelerator classes ship with: the attribute values
#: captured from the classes themselves at first use.
DEFAULT_BACKEND = "optimized"

#: The pinned seed-era baseline backend (never perf-measured against
#: itself; everything else is reported as a speedup over it).
REFERENCE_BACKEND = "reference"


@dataclass(frozen=True)
class KernelPoint:
    """One patchable kernel: ``setattr(owner, attr, impl)``."""

    name: str
    owner: type
    attr: str


class BackendRegistry:
    """Backend name → kernel implementations, plus the mode switch."""

    def __init__(self) -> None:
        self._points: dict[str, KernelPoint] = {}
        #: kernel name → backend name → implementation
        self._impls: dict[str, dict[str, Callable]] = {}
        #: backend name → context-manager factories entered in-mode
        self._hooks: dict[str, list[Callable[[], Any]]] = {}
        self._backends: list[str] = [DEFAULT_BACKEND]
        self._stack: list[str] = []
        self._loaded = False

    # -- registration ---------------------------------------------------------

    def register_backend(self, name: str) -> None:
        """Declare a backend; idempotent."""
        if name not in self._backends:
            self._backends.append(name)

    def register(self, kernel: str, backend: str, impl: Callable) -> None:
        """Bind ``impl`` as backend ``backend``'s ``kernel``."""
        self.register_backend(backend)
        self._impls.setdefault(kernel, {})[backend] = impl

    def add_mode_hook(
        self, backend: str, hook: Callable[[], Any]
    ) -> None:
        """Enter ``hook()`` (a context manager) while in this mode."""
        self.register_backend(backend)
        self._hooks.setdefault(backend, []).append(hook)

    # -- lazy core binding ----------------------------------------------------

    def _bind(self, kernel: str, owner: type, attr: str) -> None:
        self._points[kernel] = KernelPoint(kernel, owner, attr)
        # The class attribute *is* the optimized implementation.
        self._impls.setdefault(kernel, {})[DEFAULT_BACKEND] = (
            owner.__dict__[attr]
        )

    def _ensure_loaded(self) -> None:
        """Bind the core kernel points, then register ``reference``.

        Runs once, before any resolution or patching, so the captured
        ``optimized`` implementations are always the unpatched class
        attributes.
        """
        if self._loaded:
            return
        self._loaded = True
        from repro.accel.hash_table import HardwareHashTable
        from repro.accel.heap_manager import HardwareHeapManager
        from repro.accel.string_accel import StringAccelerator
        from repro.regex.engine import CompiledRegex

        self._bind("string.find", StringAccelerator, "find")
        self._bind("string.compare", StringAccelerator, "compare")
        self._bind("string.html_escape", StringAccelerator, "html_escape")
        self._bind("string.char_class_bitmap", StringAccelerator,
                   "char_class_bitmap")
        self._bind("string.matrix_for_block", StringAccelerator,
                   "_matrix_for_block")
        self._bind("hash.probe_window", HardwareHashTable, "_probe_window")
        self._bind("regex.search", CompiledRegex, "search")
        self._bind("regex.state_after", CompiledRegex, "state_after")
        self._bind("regex.resume", CompiledRegex, "resume")
        self._bind("heap.hmmalloc", HardwareHeapManager, "hmmalloc")
        self._bind("heap.hmfree", HardwareHeapManager, "hmfree")

        import repro.accel.reference  # noqa: F401  registers "reference"

    # -- resolution -----------------------------------------------------------

    def backend_names(self) -> tuple[str, ...]:
        """Registered backend names, registration order."""
        self._ensure_loaded()
        return tuple(self._backends)

    def kernel_names(self) -> tuple[str, ...]:
        """All bound kernel binding points, sorted."""
        self._ensure_loaded()
        return tuple(sorted(self._points))

    def current_backend(self) -> str:
        """The innermost active :func:`backend_mode`, or the default."""
        return self._stack[-1] if self._stack else DEFAULT_BACKEND

    def resolve(self, kernel: str, backend: str) -> Callable:
        """Implementation for ``(kernel, backend)``, with fallback.

        A backend that does not register ``kernel`` shares the
        ``optimized`` implementation.  Unknown kernels and unknown
        backends raise :class:`ValueError`.
        """
        self._ensure_loaded()
        if backend not in self._backends:
            raise ValueError(
                f"unknown backend {backend!r}; registered: "
                f"{', '.join(self._backends)}"
            )
        if kernel not in self._points:
            raise ValueError(
                f"unknown kernel {kernel!r}; bound: "
                f"{', '.join(sorted(self._points))}"
            )
        impls = self._impls[kernel]
        impl = impls.get(backend)
        if impl is None:
            impl = impls[DEFAULT_BACKEND]
        return impl

    def available_backends(self) -> list[dict[str, Any]]:
        """One report row per registered backend.

        Each row: ``{"name", "kernels"}`` — ``kernels`` lists the
        binding points the backend registers its own implementation
        for (the rest fall back to ``optimized``).
        """
        self._ensure_loaded()
        return [
            {
                "name": name,
                "kernels": sorted(
                    kernel for kernel, impls in self._impls.items()
                    if name in impls and kernel in self._points
                ),
            }
            for name in self._backends
        ]

    def measured_backends(self) -> tuple[str, ...]:
        """Backends timed against ``reference``: all but the baseline."""
        return tuple(
            name for name in self.backend_names()
            if name != REFERENCE_BACKEND
        )

    # -- the mode switch ------------------------------------------------------

    @contextmanager
    def backend_mode(self, name: str) -> Iterator[None]:
        """Run the process on backend ``name``'s kernels.

        Patches every binding point, enters the backend's mode hooks,
        and restores the previously active implementations on exit —
        whatever they were, so nesting works.
        """
        self._ensure_loaded()
        if name not in self._backends:
            raise ValueError(
                f"unknown backend {name!r}; registered: "
                f"{', '.join(self._backends)}"
            )
        points = [self._points[kernel]
                  for kernel in sorted(self._points)]
        saved = [(pt, pt.owner.__dict__[pt.attr]) for pt in points]
        self._stack.append(name)
        try:
            with ExitStack() as stack:
                for hook in self._hooks.get(name, ()):
                    stack.enter_context(hook())
                for pt in points:
                    setattr(pt.owner, pt.attr,
                            self.resolve(pt.name, name))
                try:
                    yield
                finally:
                    for pt, impl in saved:
                        setattr(pt.owner, pt.attr, impl)
        finally:
            self._stack.pop()


#: The process-wide registry every accelerator kernel resolves through.
REGISTRY = BackendRegistry()


def backend_mode(name: str):
    """Module-level convenience for ``REGISTRY.backend_mode``."""
    return REGISTRY.backend_mode(name)


def available_backends() -> list[dict[str, Any]]:
    """Module-level convenience for ``REGISTRY.available_backends``."""
    return REGISTRY.available_backends()


def backend_names() -> tuple[str, ...]:
    """Module-level convenience for ``REGISTRY.backend_names``."""
    return REGISTRY.backend_names()


def current_backend() -> str:
    """Module-level convenience for ``REGISTRY.current_backend``."""
    return REGISTRY.current_backend()


def measured_backends() -> tuple[str, ...]:
    """Module-level convenience for ``REGISTRY.measured_backends``."""
    return REGISTRY.measured_backends()
