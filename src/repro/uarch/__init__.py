"""Trace-driven microarchitecture models (the gem5 stand-in).

Provides the Section 2 characterization pipeline: synthetic trace
generation (:mod:`repro.uarch.trace`), a faithful TAGE predictor
(:mod:`repro.uarch.tage`), a set-associative BTB
(:mod:`repro.uarch.btb`), a prefetching cache hierarchy
(:mod:`repro.uarch.caches`), and analytic core timing models
(:mod:`repro.uarch.core`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "btb": ("Btb",),
    "caches": (
        "Cache", "CacheConfig", "CacheHierarchy", "HierarchyConfig",
        "LINE_BYTES", "StreamPrefetcher",
    ),
    "core": (
        "CharacterizationRun", "CoreConfig", "TraceCounts",
        "effective_issue_width", "estimate_cycles", "sweep_btb_and_icache",
        "sweep_cores",
    ),
    "predictors": ("Bimodal", "GShare", "compare_predictors"),
    "slb": ("SlbAssistedPredictor", "SlbConfig", "measure_slb_headroom"),
    "tage": ("FoldedHistory", "Tage", "TageConfig"),
    "trace": (
        "BranchRecord", "FetchRecord", "MemRecord", "SPEC_LIKE_PROFILE",
        "TraceGenerator", "TraceProfile",
    ),
})
