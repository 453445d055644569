"""Figure 12: content sifting + content reuse opportunity per app.

Paper: the y-axis is "the percentage of total textual content in the
entire application regexps can skip processing using content sifting
or content reuse" — substantial for all three applications (Drupal's
high skippability famously fails to become speedup because its regexp
*time* share is tiny; Figure 15 shows that side).
"""

from __future__ import annotations

from conftest import EVAL_REQUESTS

from repro.core.experiment import regex_opportunity
from repro.core.report import figure12_report


def bench_fig12_opportunity(benchmark, report_sink):
    opportunity = benchmark.pedantic(
        lambda: regex_opportunity(requests=EVAL_REQUESTS),
        rounds=1, iterations=1,
    )
    report_sink("fig12_regex_opportunity", figure12_report(opportunity))
    for app, frac in opportunity.items():
        assert 0.15 <= frac <= 0.85, app
