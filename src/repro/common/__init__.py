"""Shared utilities: deterministic randomness and statistics plumbing."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "rng": ("DEFAULT_SEED", "DeterministicRng"),
    "stats": (
        "Counter", "Histogram", "StatRegistry", "geometric_mean",
        "weighted_mean",
    ),
})
