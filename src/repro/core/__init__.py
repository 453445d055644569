"""Experiment harness: the paper's Sections 2, 3, and 5 as functions."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ablation": ("AblationResult", "run_ablations"),
    "costs": ("DEFAULT_COSTS", "CostModel"),
    "export": (
        "app_result_to_dict", "evaluation_to_dict", "save_evaluation_json",
    ),
    "latency": (
        "LatencyDistribution", "LatencyReport", "percentile",
        "request_latency_report",
    ),
    "throughput": ("ThroughputResult", "fleet_summary", "throughput_analysis"),
    "sensitivity": (
        "sweep_probe_width", "sweep_reuse_content_bytes",
        "sweep_reuse_entries", "sweep_segment_size",
    ),
    "execute": (
        "CategoryRun", "HashSimulator", "HeapSimulator", "RegexSimulator",
        "StringSimulator",
    ),
    "experiment": (
        "AppResult", "CategoryComparison", "UarchResult", "allocation_profile",
        "categorization", "full_evaluation", "hash_hit_rate_sweep",
        "leaf_distribution", "mitigation_effect", "post_mitigation_breakdown",
        "regex_opportunity", "run_app_experiment", "uarch_characterization",
    ),
    "expcache": ("EXPERIMENT_CACHE", "ExperimentCache", "cache_key"),
    "parallel": ("parallel_map", "resolve_jobs"),
    "perf": ("run_perf", "validate_perf_payload"),
    "report": (
        "energy_report", "figure12_report", "figure14_report",
        "figure15_report", "format_table", "pct", "perf_observability_report",
        "resilience_report",
    ),
})
