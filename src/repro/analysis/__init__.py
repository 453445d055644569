"""Static-analysis suite: determinism, purity, async safety, schemas.

The reproduction's core disciplines — seeded RNG everywhere,
byte-identical ``map_cells`` fan-out at any ``--jobs``, experiment
cache keys that cover every input a cell reads, a live event loop no
coroutine may stall or race, and ``repro-*/N`` artifacts whose
producers and validators agree key-for-key — are enforced dynamically
by the conformance suite.  This package enforces them *statically*:
an AST-based interprocedural pass over ``src/repro`` with five rule
families (DET0xx determinism, POOL0xx pool purity, KEY0xx cache
soundness, ASY0xx async safety, SCH0xx schema contracts), in-source
waiver directives, and a grandfathering baseline, gated in CI via
``python -m repro lint``.

Library use::

    from repro import analysis
    findings = analysis.run(["src/repro"])   # -> list[Finding]

See DESIGN.md ("Static analysis" and "Async safety & schema
contracts") for the rule catalog and waiver syntax.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": (
        "DEFAULT_BASELINE_NAME", "RULES", "analyze_sources", "default_paths",
        "fix_waivers", "match_rules", "run",
    ),
    "reporting": (
        "BASELINE_SCHEMA", "REPORT_SCHEMA", "Finding", "apply_baseline",
        "fingerprints", "load_baseline", "render_json", "render_text",
        "rule_family", "save_baseline", "to_json_payload",
        "validate_lint_payload",
    ),
})
