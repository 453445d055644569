"""The paper's contribution: four tightly-coupled accelerators.

* :mod:`repro.accel.hash_table`   — hardware hash table + RTT (§4.2)
* :mod:`repro.accel.heap_manager` — hardware heap manager (§4.3)
* :mod:`repro.accel.string_accel` — matching-matrix string unit (§4.4)
* :mod:`repro.accel.regex_accel`  — content sifting + reuse (§4.5)

All four follow the §4.1 design principles: VM/OS-agnostic (software
data structures stay authoritative in memory), cache-coherent (dirty
state is written back on evictions/flushes and software sees a stale
flag), common-path-only (zero-flag fallbacks hand anything unusual to
software handlers).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "hash_table": (
        "HardwareHashTable", "HashOpOutcome", "HashTableConfig",
        "ReverseTranslationTable", "simplified_hash",
    ),
    "heap_manager": (
        "HardwareHeapManager", "HeapManagerConfig", "HeapOpOutcome",
    ),
    "regex_accel": (
        "ContentReuseTable", "ContentSifter", "HintVector",
        "ReuseAcceleratedMatcher", "ReuseOutcome", "ReuseTableConfig",
        "SEGMENT_BYTES", "SiftScanResult", "pattern_starts_special",
    ),
    "string_accel": (
        "MatrixConfigState", "StringAccelConfig", "StringAccelerator",
        "StringOpOutcome",
    ),
})
