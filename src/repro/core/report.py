"""Plain-text rendering of experiment results in the paper's layout."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.experiment import AppResult

if TYPE_CHECKING:
    from repro.conformance.fuzzer import ConformanceReport
    from repro.fleet.overload import OverloadReport
    from repro.fleet.report import FleetReport
    from repro.resilience.report import ResilienceReport


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    """Fixed-width table with a rule under the header."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def pct(x: float, digits: int = 2) -> str:
    return f"{100 * x:.{digits}f}%"


def figure12_report(opportunity: dict[str, float]) -> str:
    """Share of each app's content its regexps can skip (Figure 12)."""
    return format_table(
        ["app", "content skippable (sifting + reuse)"],
        [[app, pct(frac)] for app, frac in opportunity.items()],
        title="Figure 12: regexp content-filtering opportunity",
    )


def figure14_report(results: list[AppResult]) -> str:
    """Execution time normalized to unmodified HHVM (Figure 14)."""
    rows = []
    for r in results:
        rows.append([
            r.app,
            "100.00%",
            pct(r.time_with_priors),
            pct(r.time_with_accelerators),
            pct(r.accel_benefit_total),
        ])
    n = len(results)
    rows.append([
        "average",
        "100.00%",
        pct(sum(r.time_with_priors for r in results) / n),
        pct(sum(r.time_with_accelerators for r in results) / n),
        pct(sum(r.accel_benefit_total for r in results) / n),
    ])
    return format_table(
        ["app", "unmodified", "w/ prior opts", "w/ accelerators",
         "accel benefit (vs opt)"],
        rows,
        title="Figure 14: execution time normalized to unmodified HHVM",
    )


def figure15_report(results: list[AppResult]) -> str:
    """Per-accelerator benefit breakdown (Figure 15)."""
    keys = ["heap", "hash", "string", "regex"]
    rows = []
    for r in results:
        rows.append([r.app] + [pct(r.benefits[k]) for k in keys])
    n = len(results)
    rows.append(
        ["average"]
        + [pct(sum(r.benefits[k] for r in results) / n) for k in keys]
    )
    return format_table(
        ["app", "heap mgr", "hash table", "string accel", "regex accel"],
        rows,
        title="Figure 15: per-accelerator execution-time benefit "
              "(fraction of optimized time)",
    )


def resilience_report(reports: list["ResilienceReport"]) -> str:
    """Degraded-mode summary: availability/goodput/tail per scenario.

    Goodput is normalized to the matching policy's run under the
    first scenario in the list (conventionally the fault-free one), so
    the table answers "how much of my healthy capacity survives this
    fault scenario under this policy".
    """
    baseline_by_policy: dict[str, "ResilienceReport"] = {}
    first_scenario = reports[0].scenario if reports else ""
    for r in reports:
        if r.scenario == first_scenario and r.policy not in baseline_by_policy:
            baseline_by_policy[r.policy] = r
    rows = []
    for r in reports:
        baseline = baseline_by_policy.get(r.policy, r)
        rows.append([
            r.scenario,
            r.policy,
            pct(r.availability),
            pct(r.goodput_vs(baseline)),
            f"{r.retry_amplification:.2f}x",
            str(r.shed),
            pct(r.software_path_share),
            str(r.breaker_trips),
            f"{r.p99_latency:,.0f}",
            f"{r.p999_latency:,.0f}",
        ])
    return format_table(
        ["scenario", "policy", "avail", "goodput",
         "retry amp", "shed", "sw path", "trips", "p99 (cyc)",
         "p999 (cyc)"],
        rows,
        title="Resilience: availability and goodput under fault "
              "injection (goodput vs same-policy fault-free run)",
    )


def fleet_report(reports: list["FleetReport"]) -> str:
    """Fleet summary: one row per (topology, balancer) run.

    ``imbalance`` is the coefficient of variation of per-node
    utilization — the utilization slack the paper's TCO argument says
    a fleet cannot afford to waste; ``hit`` is the object-cache hit
    ratio over measured lookups (a dash with no cache tier).
    """
    rows = []
    for r in reports:
        rows.append([
            r.fleet,
            r.balancer,
            str(r.cache_shards) if r.cache_shards else "-",
            pct(r.cache_hit_ratio) if r.cache_shards else "-",
            pct(r.availability),
            str(r.shed),
            f"{r.goodput_per_kcycle:.3f}",
            pct(r.mean_utilization),
            f"{r.utilization_imbalance:.3f}",
            f"{r.latency.p50:,.0f}",
            f"{r.latency.p99:,.0f}",
            f"{r.latency.p999:,.0f}",
        ])
    return format_table(
        ["fleet", "balancer", "shards", "hit", "avail", "shed",
         "goodput/kcyc", "util", "imbalance", "p50 (cyc)", "p99 (cyc)",
         "p999 (cyc)"],
        rows,
        title="Fleet: goodput, balance, and cache shielding per "
              "(topology, balancer)",
    )


def overload_report(reports: list["OverloadReport"]) -> str:
    """Overload summary: one row per scenario, verdict last.

    ``goodput`` is completions inside the client deadline over first
    attempts; ``amp`` is attempts per first attempt (the retry-storm
    load factor); ``recovery`` is how long after the trigger cleared
    goodput sustained at the recovery SLO (``never`` is the metastable
    signature: the failure outlived its cause).
    """
    rows = []
    for r in reports:
        recovery = (
            f"{r.recovery_services:.0f} svc"
            if r.recovery_services is not None else "never"
        )
        rows.append([
            r.scenario,
            f"{r.nodes}x{r.workers // max(r.nodes, 1)}",
            str(r.arrivals),
            pct(r.goodput_ratio),
            f"{r.amplification:.2f}x",
            str(r.shed + r.shed_expired),
            str(r.timeouts),
            str(r.zombies),
            str(r.stale_served + r.coalesced),
            pct(r.pre_trigger_goodput),
            recovery,
            "METASTABLE" if r.metastable else "recovered",
        ])
    return format_table(
        ["scenario", "fleet", "offered", "goodput", "amp", "shed",
         "timeout", "zombie", "stampede-saves", "pre-trigger",
         "recovery", "verdict"],
        rows,
        title="Overload: goodput collapse and recovery per scenario "
              "(flash crowd + retry storm)",
    )


def overload_timeline(report: "OverloadReport") -> str:
    """Goodput-fraction timeline, one glyph per bucket.

    Height encodes goodput ÷ first arrivals in that bucket (``#`` ≈
    healthy, ``_`` ≈ collapsed, ``.`` = idle bucket); ``[`` and ``]``
    bracket the flash-crowd window.  A metastable run reads as a flat
    ``_`` stretch long after the closing bracket.
    """
    glyphs = "_,:-=+*#"
    cells = []
    bucket = report.bucket_services
    for i, f in enumerate(report.goodput_fractions()):
        start, end = i * bucket, (i + 1) * bucket
        if f is None:
            cell = "."
        else:
            level = min(int(f * len(glyphs)), len(glyphs) - 1)
            cell = glyphs[level]
        if start <= report.flash_start_services < end:
            cell = "["
        elif start < report.flash_end_services <= end:
            cell = "]"
        cells.append(cell)
    return (
        f"{report.scenario:<18} |{''.join(cells)}|  "
        f"({bucket:.0f} svc/bucket)"
    )


def conformance_report(report: "ConformanceReport") -> str:
    """Differential-oracle + invariant summary for ``repro conform``.

    One row per fuzzed domain (cases run, failures, smallest shrunk
    repro) followed by one row per simulator invariant.  The rendering
    is a pure function of the report, so same-seed runs print
    byte-identical output — that determinism is itself asserted by
    ``tests/test_conformance.py``.
    """
    rows = []
    for d in report.domains:
        repro_hint = "-"
        if d.shrunk:
            repro_hint = _ellipsize(repr(d.shrunk[0]["shrunk"]), 48)
        rows.append([
            f"oracle:{d.domain}",
            str(d.cases),
            "OK" if d.ok else f"FAIL ({d.failures})",
            repro_hint,
        ])
    for row in report.invariants:
        rows.append([
            f"invariant:{row['name']}",
            "1",
            "OK" if row["ok"] else "FAIL",
            _ellipsize(row["detail"], 48),
        ])
    mode = "smoke" if report.smoke else "full"
    return format_table(
        ["check", "cases", "status", "detail / shrunk repro"], rows,
        title=f"Conformance ({mode}, seed {report.seed}): differential "
              f"oracles + simulator invariants",
    )


def _ellipsize(text: str, limit: int) -> str:
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 1] + "…"


def perf_observability_report() -> str:
    """Counters from the experiment-cache / pool / trace-cache layer.

    One row per counter across the three performance subsystems, so a
    sweep run can show where its work went: cells served from the
    experiment cache vs recomputed, tasks run inline vs shipped to a
    process pool, and trace streams shared vs regenerated.
    """
    from repro.core.expcache import EXPERIMENT_CACHE
    from repro.core.parallel import PARALLEL_STATS
    from repro.workloads.loadgen import TRACE_CACHE

    rows = []
    for registry in (EXPERIMENT_CACHE.stats, PARALLEL_STATS,
                     TRACE_CACHE.stats):
        for name, value in registry:
            rows.append([name, str(value)])
    if not rows:
        rows.append(["(no activity)", "-"])
    return format_table(
        ["counter", "value"], rows,
        title="Performance observability: caches and pool activity",
    )


def energy_report(results: list[AppResult]) -> str:
    """Section 5.2 energy savings."""
    rows = [[r.app, pct(r.energy_saving)] for r in results]
    rows.append([
        "average",
        pct(sum(r.energy_saving for r in results) / len(results)),
    ])
    return format_table(
        ["app", "energy saving"], rows,
        title="Section 5.2: CPU energy savings vs optimized baseline",
    )


def serve_report(payload: dict) -> str:
    """Live serving-path summary (``python -m repro serve``).

    The payload is the schema-validated ``repro-serve/1`` document
    from :func:`repro.serve.run.run_serve`; the table itself lives
    next to the schema in :mod:`repro.serve.report` (imported lazily —
    the serve stack pulls in asyncio machinery the figure commands
    never need).
    """
    from repro.serve.report import format_serve_report

    return format_serve_report(payload)


def calibrate_report(payload: dict) -> str:
    """Digital-twin calibration summary (``python -m repro calibrate``).

    The payload is the schema-validated ``repro-calibrate/1`` document
    from :func:`repro.calibrate.run.run_calibrate`; the table renderer
    lives next to the schema in :mod:`repro.calibrate.report`
    (imported lazily, like the serve stack).
    """
    from repro.calibrate.report import format_calibration_report

    return format_calibration_report(payload)
