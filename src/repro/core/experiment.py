"""Experiment harness: every figure of the paper as a function.

Each ``fig*``-oriented entry point returns plain data (dataclasses /
dicts of floats) that the benchmarks print in the paper's layout and
the tests assert shape properties on.  ``run_app_experiment`` is the
centerpiece: it produces the Figure 14 execution-time bars, the
Figure 15 per-accelerator benefit breakdown, and the Section 5.2
energy numbers for one application from actual trace simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.core.costs import DEFAULT_COSTS, CostModel
from repro.core.expcache import EXPERIMENT_CACHE
from repro.core.execute import (
    CategoryRun,
    HashSimulator,
    HeapSimulator,
    RegexSimulator,
    StringSimulator,
)
from repro.core.parallel import map_cells
from repro.isa.dispatch import AcceleratorComplex, ComplexConfig
from repro.accel.hash_table import HashTableConfig
from repro.optim.inline_cache import HashMapInliner
from repro.power.mcpat import EnergyLedger, energy_savings
from repro.uarch.core import (
    CharacterizationRun,
    CoreConfig,
    estimate_cycles,
    sweep_btb_and_icache,
    sweep_cores,
)
from repro.workloads.apps import AppWorkload, php_applications, specweb_profile
from repro.workloads.loadgen import TRACE_CACHE
from repro.workloads.profiles import (
    ACCELERATED,
    Activity,
    Profile,
    apply_mitigations,
)


@dataclass
class CategoryComparison:
    """Software vs accelerated execution of one activity category."""

    software: CategoryRun
    accelerated: CategoryRun

    @property
    def efficiency(self) -> float:
        return self.accelerated.efficiency_vs(self.software)

    @property
    def uop_reduction(self) -> float:
        if self.software.uops <= 0:
            return 0.0
        return max(0.0, 1.0 - self.accelerated.uops / self.software.uops)


@dataclass
class AppResult:
    """Everything Figures 14/15 and Section 5.2 report for one app."""

    app: str
    #: Figure 14 middle bar: time with prior optimizations (of baseline).
    time_with_priors: float
    #: Figure 14 right bar: time with priors + accelerators.
    time_with_accelerators: float
    #: per-category fraction of the *optimized* execution time (Fig 5).
    category_fractions: dict[str, float]
    #: per-category software-vs-hardware comparison.
    comparisons: dict[str, CategoryComparison]
    #: Figure 15: benefit of each accelerator (fraction of optimized time).
    benefits: dict[str, float]
    #: Section 5.2: fractional energy saving vs the optimized baseline.
    energy_saving: float
    #: Figure 12: content fraction skipped by sifting + reuse.
    regex_skip_fraction: float
    #: Section 3 anchor: refcount mitigation's share of baseline time.
    refcount_saving: float
    #: Section 3: fraction of hash accesses IC/HMI specialized away
    #: (the residual is what the hardware hash table serves).
    hash_specialized_fraction: float
    #: accelerator health metrics
    hash_hit_rate: float
    heap_hit_rate: float
    average_walk_uops: float

    @property
    def accel_benefit_total(self) -> float:
        """Total accelerator benefit relative to the optimized baseline."""
        return sum(self.benefits.values())


_CATEGORY_KEYS = {
    Activity.HASH: "hash",
    Activity.HEAP: "heap",
    Activity.STRING: "string",
    Activity.REGEX: "regex",
}


def run_app_experiment(
    app: AppWorkload,
    seed: int = DEFAULT_SEED,
    requests: int | None = None,
    costs: CostModel = DEFAULT_COSTS,
    hash_entries: int = 512,
) -> AppResult:
    """Simulate one application end to end (Figures 14/15, energy)."""
    rng = DeterministicRng(seed)
    profile = app.profile(rng.fork("profile"))
    optimized, remaining = apply_mitigations(profile)
    fractions = {
        _CATEGORY_KEYS[a]: optimized.category_share(a) for a in ACCELERATED
    }
    refcount_saving = (
        profile.category_share(Activity.REFCOUNT)
        - remaining * optimized.category_share(Activity.REFCOUNT)
    )

    # Identical traces for both modes: same seed, independent generators.
    complex_ = AcceleratorComplex(
        config=ComplexConfig(hash_table=HashTableConfig(entries=hash_entries))
    )
    # One checksum-hash memo for all eight category runs: the
    # accelerated drive mixes the values the software drive just did.
    hash_memo: dict[str, int] = {}
    sims_sw, sims_hw = _build_simulators(app, seed, costs, complex_,
                                         hash_memo)
    n_requests = requests if requests is not None else app.requests
    inliner = _drive(app, seed, n_requests, sims_sw)
    _drive(app, seed, n_requests, sims_hw)

    comparisons: dict[str, CategoryComparison] = {}
    for key in ("hash", "heap", "string", "regex"):
        comparisons[key] = CategoryComparison(
            software=sims_sw[key].finish(),
            accelerated=sims_hw[key].finish(),
        )

    benefits = {
        key: fractions[key] * comparisons[key].efficiency
        for key in fractions
    }
    time_with_accel = remaining * (1.0 - sum(benefits.values()))

    energy = _energy_saving(fractions, comparisons)

    return AppResult(
        app=app.name,
        time_with_priors=remaining,
        time_with_accelerators=time_with_accel,
        category_fractions=fractions,
        comparisons=comparisons,
        benefits=benefits,
        energy_saving=energy,
        regex_skip_fraction=sims_hw["regex"].skip_fraction(),
        refcount_saving=refcount_saving,
        hash_specialized_fraction=inliner.specialized_fraction(),
        hash_hit_rate=complex_.hash_table.hit_rate(),
        heap_hit_rate=complex_.heap_manager.hit_rate(),
        average_walk_uops=sims_sw["hash"].average_walk_uops(),
    )


def _build_simulators(
    app: AppWorkload,
    seed: int,
    costs: CostModel,
    complex_: AcceleratorComplex,
    hash_memo: dict[str, int],
):
    def make(mode, cx):
        # map_base_address is a pure function of map_id, so both modes
        # can share the cached stream's generator.
        stream = TRACE_CACHE.stream(app, seed, warmup_requests=0)
        return {
            "hash": HashSimulator(mode, stream.hash_generator, costs, cx,
                                  hash_memo=hash_memo),
            "heap": HeapSimulator(mode, costs, cx, hash_memo=hash_memo),
            "string": StringSimulator(mode, costs, cx, hash_memo=hash_memo),
            "regex": RegexSimulator(mode, costs, cx, hash_memo=hash_memo),
        }

    return make("software", None), make("accelerated", complex_)


def _drive(app: AppWorkload, seed: int, n_requests: int, sims):
    """Feed ``n_requests`` of traffic to one mode's simulators.

    Hash ops first pass through the IC/HMI mitigation stage (§3):
    template accesses with literal/predictable keys are specialized to
    offset loads and never reach the hash map; both execution modes
    see the identical residual stream (the traffic the paper's
    hardware hash table is designed for).  Returns the inliner for
    specialization reporting.
    """
    stream = TRACE_CACHE.stream(app, seed, warmup_requests=0)
    inliner = HashMapInliner()
    for i in range(n_requests):
        trace = stream.trace(i)
        sims["hash"].execute(inliner.filter(trace.hash_ops))
        sims["heap"].execute(trace.alloc_ops)
        sims["string"].execute(trace.str_ops)
        sims["regex"].execute_sift(trace.sift_tasks)
        sims["regex"].execute_reuse(trace.reuse_tasks)
    return inliner


def _energy_saving(
    fractions: dict[str, float],
    comparisons: dict[str, CategoryComparison],
) -> float:
    """Section 5.2's proxy: dynamic-µop reduction + accelerator energy.

    The four simulated categories cover ``sum(fractions)`` of the
    optimized execution time; µops outside them are unchanged by the
    accelerators, so the app-wide totals scale the measured category
    µops by that coverage.
    """
    coverage = sum(fractions.values())
    uops_sw = sum(c.software.uops for c in comparisons.values())
    if uops_sw <= 0 or coverage <= 0:
        return 0.0
    # Dynamic-instruction reduction, weighted by each category's share
    # of execution time (µop density is uniform under the proxy).
    total_sw = uops_sw / coverage
    reduction = sum(
        fractions[key] * comparisons[key].uop_reduction
        for key in fractions
    )
    base = EnergyLedger(core_uops=int(total_sw))
    accel = EnergyLedger(core_uops=int(total_sw * (1.0 - reduction)))
    for c in comparisons.values():
        events = c.accelerated.events
        accel.hash_accesses += events.get("hash_accesses", 0)
        accel.heap_accesses += events.get("heap_accesses", 0)
        accel.string_blocks += events.get("string_blocks", 0)
        accel.reuse_accesses += events.get("reuse_accesses", 0)
    return energy_savings(base, accel)


# ---------------------------------------------------------------------------
# Figure-specific entry points
# ---------------------------------------------------------------------------


def leaf_distribution(seed: int = DEFAULT_SEED) -> dict[str, list[float]]:
    """Figure 1: cumulative cycle share over ranked leaf functions."""
    rng = DeterministicRng(seed)
    out: dict[str, list[float]] = {}
    for app in php_applications():
        out[app.name] = app.profile(rng.fork(app.name)).cumulative()
    for name in ("specweb-banking", "specweb-ecommerce"):
        out[name] = specweb_profile(name).cumulative()
    return out


@dataclass
class UarchResult:
    """Figure 2 and the Section 2 in-text rates for one app."""

    app: str
    branch_mpki: float
    btb_hit_rate_4k: float
    btb_hit_rate_64k: float
    l1i_mpki: float
    l1d_mpki: float
    l2_mpki: float
    core_sweep: dict[str, float] = field(default_factory=dict)
    btb_icache_sweep: dict[tuple[int, int], float] = field(default_factory=dict)


def uarch_characterization(
    app: AppWorkload,
    seed: int = DEFAULT_SEED,
    instructions: int = 200_000,
    full_sweeps: bool = False,
) -> UarchResult:
    """Figure 2 pipeline for one application's trace profile."""
    import dataclasses as _dc

    profile = _dc.replace(app.trace_profile, instructions=instructions)
    base = CharacterizationRun(profile, DeterministicRng(seed))
    counts = base.run(warmup_passes=2)
    big_btb = CharacterizationRun(
        profile, DeterministicRng(seed), btb_entries=65536
    )
    counts64 = big_btb.run(warmup_passes=2)

    result = UarchResult(
        app=app.name,
        branch_mpki=counts.branch_mpki,
        btb_hit_rate_4k=counts.btb_hit_rate,
        btb_hit_rate_64k=counts64.btb_hit_rate,
        l1i_mpki=counts.l1i_mpki,
        l1d_mpki=counts.l1d_mpki,
        l2_mpki=counts.l2_mpki,
    )
    if full_sweeps:
        result.core_sweep = sweep_cores(
            profile, DeterministicRng(seed),
            [CoreConfig.inorder_2(), CoreConfig.ooo(2),
             CoreConfig.ooo(4), CoreConfig.ooo(8)],
        )
        result.btb_icache_sweep = sweep_btb_and_icache(
            profile, DeterministicRng(seed),
            btb_sizes=[4096, 8192, 16384, 32768, 65536],
            icache_kb_sizes=[32, 64, 128],
        )
    return result


def mitigation_effect(
    app: AppWorkload, seed: int = DEFAULT_SEED
) -> tuple[Profile, Profile, float]:
    """Figure 3: (baseline profile, post-mitigation profile, remaining)."""
    profile = app.profile(DeterministicRng(seed).fork("profile"))
    optimized, remaining = apply_mitigations(profile)
    return profile, optimized, remaining


def categorization(app: AppWorkload, seed: int = DEFAULT_SEED) -> dict[str, float]:
    """Figure 4: post-mitigation share of the four target categories."""
    _, optimized, _ = mitigation_effect(app, seed)
    shares = {
        _CATEGORY_KEYS[a]: optimized.category_share(a) for a in ACCELERATED
    }
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def post_mitigation_breakdown(seed: int = DEFAULT_SEED) -> dict[str, dict[str, float]]:
    """Figure 5: per-app execution-time breakdown after mitigation."""
    return {app.name: categorization(app, seed) for app in php_applications()}


def hash_hit_rate_sweep(
    app: AppWorkload,
    sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    seed: int = DEFAULT_SEED,
    requests: int = 6,
) -> dict[int, float]:
    """Figure 7: hardware hash-table hit rate vs entry count."""
    out: dict[int, float] = {}
    stream = TRACE_CACHE.stream(app, seed, warmup_requests=0)
    traces = stream.traces(requests)
    for entries in sizes:
        complex_ = AcceleratorComplex(
            config=ComplexConfig(hash_table=HashTableConfig(entries=entries))
        )
        sim = HashSimulator(
            "accelerated", stream.hash_generator, DEFAULT_COSTS, complex_
        )
        for trace in traces:
            sim.execute(trace.hash_ops)
        out[entries] = complex_.hash_table.hit_rate()
    return out


def allocation_profile(
    app: AppWorkload, seed: int = DEFAULT_SEED, requests: int = 4
) -> tuple[HeapSimulator, list]:
    """Figure 8: run the allocation stream, sampling per-slab usage."""
    sim = HeapSimulator("software", DEFAULT_COSTS, sample_every=50)
    stream = TRACE_CACHE.stream(app, seed, warmup_requests=0)
    allocs = []
    for trace in stream.traces(requests):
        allocs.extend(trace.alloc_ops)
        sim.execute(trace.alloc_ops)
    sim.finish()
    return sim, allocs


def regex_opportunity(seed: int = DEFAULT_SEED, requests: int = 4) -> dict[str, float]:
    """Figure 12: skippable content fraction per application."""
    out: dict[str, float] = {}
    for app in php_applications():
        complex_ = AcceleratorComplex()
        sim = RegexSimulator("accelerated", DEFAULT_COSTS, complex_)
        stream = TRACE_CACHE.stream(app, seed, warmup_requests=0)
        for trace in stream.traces(requests):
            sim.execute_sift(trace.sift_tasks)
            sim.execute_reuse(trace.reuse_tasks)
        out[app.name] = sim.skip_fraction()
    return out


# The *_SET regex specs and DEFAULT_COSTS are frozen module constants
# (any change is a code change covered by expcache's CODE_SALT), and
# TRACE_CACHE serves streams keyed by (app, seed, warmup) — all
# deterministic functions of the keyed cell inputs below.
# repro: cache-key-covers(DEFAULT_COSTS, SANITIZE_SET, SHORTCODE_SET, TRACE_CACHE, WIKITEXT_SET, WPTEXTURIZE_SET)
def _evaluate_app_cell(cell: tuple[str, int, int | None]) -> AppResult:
    """Picklable sweep cell: one app's full experiment by name.

    Top-level so :func:`~repro.core.parallel.parallel_map` can ship it
    to worker processes; the app is looked up by name because
    AppWorkload carries generator specs that are cheaper to rebuild
    from the registry than to pickle.
    """
    name, seed, requests = cell
    app = next(a for a in php_applications() if a.name == name)
    return run_app_experiment(app, seed=seed, requests=requests)


def full_evaluation(
    seed: int = DEFAULT_SEED,
    requests: int | None = None,
    jobs: int | None = None,
) -> list[AppResult]:
    """Figures 14 + 15 for all three applications.

    ``jobs`` fans the per-app cells out over a process pool (argument >
    ``REPRO_JOBS`` env > 1); results are ordered by app regardless of
    job count, and repeated calls with the same (seed, requests) are
    served from :data:`~repro.core.expcache.EXPERIMENT_CACHE`.
    """
    cells = [(app.name, seed, requests) for app in php_applications()]
    return map_cells(
        _evaluate_app_cell,
        cells,
        jobs=jobs,
        cache=EXPERIMENT_CACHE,
        key_parts=lambda cell: cell,
        label="full-evaluation",
    )
