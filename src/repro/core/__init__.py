"""Experiment harness: the paper's Sections 2, 3, and 5 as functions."""

from repro.core.ablation import AblationResult, run_ablations
from repro.core.costs import DEFAULT_COSTS, CostModel
from repro.core.export import (
    app_result_to_dict,
    evaluation_to_dict,
    save_evaluation_json,
)
from repro.core.latency import (
    LatencyDistribution,
    LatencyReport,
    percentile,
    request_latency_report,
)
from repro.core.throughput import (
    ThroughputResult,
    fleet_summary,
    throughput_analysis,
)
from repro.core.sensitivity import (
    sweep_probe_width,
    sweep_reuse_content_bytes,
    sweep_reuse_entries,
    sweep_segment_size,
)
from repro.core.execute import (
    CategoryRun,
    HashSimulator,
    HeapSimulator,
    RegexSimulator,
    StringSimulator,
)
from repro.core.experiment import (
    AppResult,
    CategoryComparison,
    UarchResult,
    allocation_profile,
    categorization,
    full_evaluation,
    hash_hit_rate_sweep,
    leaf_distribution,
    mitigation_effect,
    post_mitigation_breakdown,
    regex_opportunity,
    run_app_experiment,
    uarch_characterization,
)
from repro.core.expcache import (
    EXPERIMENT_CACHE,
    ExperimentCache,
    cache_key,
)
from repro.core.parallel import parallel_map, resolve_jobs
from repro.core.perf import run_perf, validate_perf_payload
from repro.core.report import (
    energy_report,
    figure12_report,
    figure14_report,
    figure15_report,
    format_table,
    pct,
    perf_observability_report,
    resilience_report,
)

__all__ = [
    "CostModel", "DEFAULT_COSTS",
    "AblationResult", "run_ablations",
    "sweep_probe_width", "sweep_segment_size",
    "sweep_reuse_content_bytes", "sweep_reuse_entries",
    "ThroughputResult", "throughput_analysis", "fleet_summary",
    "app_result_to_dict", "evaluation_to_dict", "save_evaluation_json",
    "LatencyDistribution", "LatencyReport", "percentile",
    "request_latency_report",
    "CategoryRun", "HashSimulator", "HeapSimulator",
    "StringSimulator", "RegexSimulator",
    "AppResult", "CategoryComparison", "UarchResult",
    "run_app_experiment", "full_evaluation",
    "leaf_distribution", "uarch_characterization", "mitigation_effect",
    "categorization", "post_mitigation_breakdown", "hash_hit_rate_sweep",
    "allocation_profile", "regex_opportunity",
    "figure12_report", "figure14_report", "figure15_report",
    "energy_report",
    "resilience_report", "format_table", "pct",
    "EXPERIMENT_CACHE", "ExperimentCache", "cache_key",
    "parallel_map", "resolve_jobs",
    "run_perf", "validate_perf_payload", "perf_observability_report",
]
