"""Event counters and derived statistics.

All simulator components (caches, predictors, accelerators, cost
models) report through a :class:`StatRegistry` so that experiments can
snapshot, diff, and pretty-print a consistent view of what happened
during a run.  This mirrors the role of gem5's stats framework in the
original study, at the granularity this behavioral model needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence


class Counter:
    """A single monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class StatRegistry:
    """A named collection of counters with snapshot/diff support."""

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Return (creating on first use) the counter called ``name``."""
        found = self._counters.get(name)
        if found is None:
            found = Counter(name)
            self._counters[name] = found
        return found

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount`` (creates the counter).

        The hottest call in every simulator, so it adds in place on the
        same :class:`Counter` that :meth:`counter` hands out.
        """
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        if amount < 0:
            raise ValueError(f"counter {name} cannot decrease")
        found.value += amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never bumped)."""
        found = self._counters.get(name)
        return found.value if found else 0

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` guarding divide-by-zero."""
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    def per_kilo(self, numerator: str, denominator: str) -> float:
        """Events per thousand of ``denominator`` (e.g. MPKI)."""
        return 1000.0 * self.ratio(numerator, denominator)

    def snapshot(self) -> dict[str, int]:
        """Immutable view of all counter values."""
        return {name: c.value for name, c in self._counters.items()}

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter deltas since an earlier :meth:`snapshot`."""
        return {
            name: value - earlier.get(name, 0)
            for name, value in self.snapshot().items()
            if value != earlier.get(name, 0)
        }

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()

    def merge(self, other: "StatRegistry") -> None:
        """Accumulate another registry's counters into this one."""
        for name, c in other._counters.items():
            self.bump(name, c.value)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self)
        return f"StatRegistry({self.owner}: {body})"


@dataclass
class Histogram:
    """Fixed-bucket histogram for size/latency distributions.

    ``edges`` are the inclusive upper bounds of each bucket; values
    above the last edge fall into an overflow bucket.  This mirrors the
    slab-size distributions of the paper's Figure 8(a).
    """

    edges: list[int]
    counts: list[int] = field(default_factory=list)
    overflow: int = 0
    total_weight: int = 0

    def __post_init__(self) -> None:
        if sorted(self.edges) != list(self.edges):
            raise ValueError("histogram edges must be sorted ascending")
        if not self.counts:
            self.counts = [0] * len(self.edges)
        if len(self.counts) != len(self.edges):
            raise ValueError("counts/edges length mismatch")

    def record(self, value: int, weight: int = 1) -> None:
        """Add ``weight`` observations of ``value``."""
        self.total_weight += weight
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += weight
                return
        self.overflow += weight

    def fraction_at_or_below(self, edge: int) -> float:
        """Cumulative fraction of observations ``<= edge``."""
        if self.total_weight == 0:
            return 0.0
        acc = 0
        for e, c in zip(self.edges, self.counts):
            if e <= edge:
                acc += c
        return acc / self.total_weight

    def cumulative(self) -> list[float]:
        """Cumulative fractions per bucket (excluding overflow)."""
        if self.total_weight == 0:
            return [0.0] * len(self.edges)
        out: list[float] = []
        acc = 0
        for c in self.counts:
            acc += c
            out.append(acc / self.total_weight)
        return out


def percentile(values: Sequence[float], p: float) -> float:
    """Classic nearest-rank percentile of a non-empty sample.

    ``p`` is in percent (``p=99`` → p99).  This is the single
    percentile implementation every latency summary in the repo uses
    (request latencies, queueing curves, resilience and fleet tails);
    nearest-rank keeps it exact on small samples, which matters for
    byte-identical reports under a fixed seed.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


@dataclass(frozen=True)
class LatencySummary:
    """Mean + the standard tail percentiles of one latency sample."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p99: float = 0.0
    p999: float = 0.0


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """The :class:`LatencySummary` of ``values`` (zeros when empty)."""
    if not values:
        return LatencySummary()
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        p50=percentile(values, 50),
        p99=percentile(values, 99),
        p999=percentile(values, 99.9),
    )


def weighted_mean(pairs: list[tuple[float, float]]) -> float:
    """Mean of ``value`` weighted by ``weight`` over (value, weight) pairs."""
    total = sum(w for _, w in pairs)
    if total == 0:
        return 0.0
    return sum(v * w for v, w in pairs) / total


def geometric_mean(values: list[float]) -> float:
    """Geometric mean; the conventional summary for speedup ratios."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
