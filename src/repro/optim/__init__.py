"""The Section 3 prior-work mitigations, as mechanisms.

Each module implements one of the four optimizations the paper applies
before designing hardware, so the mitigation factors used by
:func:`repro.workloads.profiles.apply_mitigations` are *grounded* by
measurement rather than assumed:

* :mod:`repro.optim.inline_cache` — hidden classes, inline caches,
  hash map inlining (refs [31, 32, 40]);
* :mod:`repro.optim.typecheck`    — checked-load type checks ([22]);
* :mod:`repro.optim.refcount`     — RC coalescing buffer ([46]);
* :mod:`repro.optim.alloc_tuning` — kernel-call tuning.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "alloc_tuning": (
        "TunedSlabAllocator", "TuningConfig", "measure_alloc_tuning",
    ),
    "inline_cache": (
        "HashMapInliner", "HiddenClass", "InlineCache", "POLYMORPHIC_LIMIT",
        "ShapeTree",
    ),
    "refcount": ("RcCoalescingBuffer", "measure_rc_mitigation"),
    "typecheck": ("CheckedLoadCache", "measure_typecheck_mitigation"),
})
