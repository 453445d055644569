"""The accelerator backend registry.

Registry semantics over the two registered backends — the
``optimized`` kernels the accelerator classes ship with and the pinned
``reference`` baseline: resolution by ``(kernel, backend)`` name with
fallback to ``optimized``, unknown-name errors, nestable
``backend_mode`` patching with exact restore, and the backend report
the CLI renders.  Byte-identity of ``optimized`` against ``reference``
is covered by the ≥1000-case tests in ``tests/test_perf_kernels.py``.
"""

from __future__ import annotations

import pytest

from repro.accel.heap_manager import HardwareHeapManager
from repro.accel.reference import ReferenceStringAccelerator
from repro.accel.registry import (
    DEFAULT_BACKEND,
    REFERENCE_BACKEND,
    REGISTRY,
    available_backends,
    backend_mode,
    backend_names,
    current_backend,
    measured_backends,
)
from repro.accel.string_accel import StringAccelerator

#: ``StringAccelerator.find`` as each backend binds it.
OPTIMIZED_FIND = StringAccelerator.__dict__["find"]
REFERENCE_FIND = ReferenceStringAccelerator.__dict__["find"]


class TestResolution:
    def test_resolution_by_name(self):
        assert REGISTRY.resolve("string.find", DEFAULT_BACKEND) \
            is OPTIMIZED_FIND
        assert REGISTRY.resolve("string.find", REFERENCE_BACKEND) \
            is REFERENCE_FIND

    def test_unregistered_kernel_falls_back_to_optimized(self):
        # reference registers no heap kernels: the single heap manager
        # implementation is shared by every backend.
        for kernel in ("heap.hmmalloc", "heap.hmfree"):
            assert REGISTRY.resolve(kernel, REFERENCE_BACKEND) \
                is REGISTRY.resolve(kernel, DEFAULT_BACKEND)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            REGISTRY.resolve("string.find", "simd512")
        with pytest.raises(ValueError, match="unknown backend"):
            with backend_mode("simd512"):
                pass  # pragma: no cover

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            REGISTRY.resolve("string.reverse", REFERENCE_BACKEND)

    def test_every_core_kernel_is_bound(self):
        assert set(REGISTRY.kernel_names()) >= {
            "string.find", "string.compare", "string.html_escape",
            "string.char_class_bitmap", "hash.probe_window",
            "regex.search", "regex.state_after", "regex.resume",
            "heap.hmmalloc", "heap.hmfree",
        }

    def test_registered_backends(self):
        assert backend_names() == ("optimized", "reference")


class TestBackendMode:
    def test_patches_and_restores(self):
        with backend_mode(REFERENCE_BACKEND):
            assert StringAccelerator.__dict__["find"] is REFERENCE_FIND
            assert current_backend() == REFERENCE_BACKEND
        assert StringAccelerator.__dict__["find"] is OPTIMIZED_FIND
        assert current_backend() == DEFAULT_BACKEND

    def test_nesting_restores_each_level(self):
        with backend_mode(REFERENCE_BACKEND):
            with backend_mode(DEFAULT_BACKEND):
                assert StringAccelerator.__dict__["find"] \
                    is OPTIMIZED_FIND
                assert current_backend() == DEFAULT_BACKEND
            assert StringAccelerator.__dict__["find"] is REFERENCE_FIND
            assert current_backend() == REFERENCE_BACKEND
        assert StringAccelerator.__dict__["find"] is OPTIMIZED_FIND
        assert current_backend() == DEFAULT_BACKEND

    def test_exception_still_restores(self):
        with pytest.raises(RuntimeError, match="boom"):
            with backend_mode(REFERENCE_BACKEND):
                raise RuntimeError("boom")
        assert StringAccelerator.__dict__["find"] is OPTIMIZED_FIND
        assert current_backend() == DEFAULT_BACKEND

    def test_reference_mode_alias_subsumed(self):
        # The legacy entry point must be the registry's reference mode.
        from repro.accel.reference import reference_mode
        with reference_mode():
            assert current_backend() == REFERENCE_BACKEND

    def test_heap_manager_identical_across_modes(self):
        def drive() -> list:
            from repro.runtime.slab import SlabAllocator
            heap = HardwareHeapManager(SlabAllocator())
            ptrs, out = [], []
            for size in (24, 64, 8, 129, 24):
                outcome = heap.hmmalloc(size)
                ptrs.append(outcome.address)
                out.append(outcome)
            out.append(heap.hmfree(ptrs[1], 64))
            out.append(heap.hmmalloc(48))
            return out

        baseline = repr(drive())
        for name in backend_names():
            with backend_mode(name):
                assert repr(drive()) == baseline, name


class TestAvailabilityReport:
    def test_report_shape(self):
        rows = available_backends()
        by_name = {row["name"]: row for row in rows}
        assert set(by_name) == {DEFAULT_BACKEND, REFERENCE_BACKEND}
        for row in rows:
            assert set(row) == {"name", "kernels"}
            assert isinstance(row["kernels"], list)
        assert "string.find" in by_name[REFERENCE_BACKEND]["kernels"]
        assert "heap.hmmalloc" not in by_name[REFERENCE_BACKEND]["kernels"]
        assert "heap.hmmalloc" in by_name[DEFAULT_BACKEND]["kernels"]

    def test_measured_backends_exclude_reference(self):
        assert measured_backends() == ("optimized",)
