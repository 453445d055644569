"""Workload substrate: synthetic WordPress/Drupal/MediaWiki traffic.

Everything the paper measures flows from here: leaf-function profiles
(:mod:`repro.workloads.profiles`), per-category operation streams
(:mod:`repro.workloads.hashops` / ``allocs`` / ``strops`` /
``regexops``), the content generator (:mod:`repro.workloads.text`),
per-application parameterizations (:mod:`repro.workloads.apps`), and
the request driver (:mod:`repro.workloads.loadgen`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "allocs": (
        "AllocOp", "AllocOpGenerator", "AllocWorkloadSpec",
        "size_fraction_at_or_below",
    ),
    "apps": (
        "AppWorkload", "drupal", "mediawiki", "php_applications",
        "specweb_banking", "specweb_ecommerce", "specweb_profile", "wordpress",
    ),
    "hashops": (
        "HashOp", "HashOpGenerator", "HashWorkloadSpec", "trace_statistics",
    ),
    "loadgen": ("LoadGenerator", "RequestTrace", "TraceSummary"),
    "profiles": (
        "ACCELERATED", "Activity", "LeafFunction", "MITIGATION_FACTORS",
        "Profile", "apply_mitigations", "flat_php_profile", "hotspot_profile",
    ),
    "regexops": (
        "AUTHOR_URL_PATTERN", "RegexFunctionSet", "RegexOpGenerator",
        "RegexWorkloadSpec", "ReuseTask", "SANITIZE_SET", "SHORTCODE_SET",
        "SiftTask", "WIKITEXT_SET", "WPTEXTURIZE_SET",
    ),
    "server": (
        "LoadPoint", "ServerConfig", "ServedRequest", "WebServerSimulator",
        "latency_curve", "slo_capacity",
    ),
    "templates": (
        "APP_TEMPLATES", "AppTemplate", "build_variables", "render_app_page",
    ),
    "validation": ("Anchor", "fidelity_failures", "validate_app"),
    "strops": (
        "SMART_QUOTE_MAP", "StringWorkloadSpec", "StrOp", "StrOpGenerator",
    ),
    "text": (
        "ContentSpec", "SEGMENT_BYTES", "TEXTURIZE_SPECIALS", "TextCorpus",
        "special_char_segments",
    ),
})
