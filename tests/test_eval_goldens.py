"""Evaluation goldens: every app experiment's costs and checksums, pinned.

``tests/corpus/goldens/eval_runs.json`` holds, for each application at
the paper seed (20 requests) and at two held-out seeds (5 requests),
what :func:`run_app_experiment` returns: each category's software and
accelerated µops, cycles (float ``repr``), accelerator events and
checksum, every :class:`AppResult` scalar and per-category share, and
the sha256 of the request traces the experiment simulated.  The file
was recorded before the text, regex and checksum fast paths existed.

The report digests of ``perfbench/goldens.json`` cover only
two-decimal tables and never see a checksum, so a memo or skip defect
that is the same in both execution modes would pass them; it cannot
pass these.  A mismatch is a defect in the change, not a reason to
re-record the file.

Everything the simulators compute, and the traces, must match
exactly.  Only the fields derived from an app's leaf-function profile
(its category shares and what is computed from them) compare to a
relative 1e-12: they go through builtin ``sum()``, which CPython 3.12
made compensated, so their last bits differ between interpreter
versions (by under 3e-15).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.experiment import AppResult, run_app_experiment
from repro.workloads.apps import php_applications
from repro.workloads.loadgen import TRACE_CACHE

GOLDENS = Path(__file__).parent / "corpus" / "goldens" / "eval_runs.json"
CASES = json.loads(GOLDENS.read_text())["cases"]

#: AppResult fields that are plain floats.
SCALARS = (
    "time_with_priors", "time_with_accelerators", "energy_saving",
    "regex_skip_fraction", "refcount_saving", "hash_specialized_fraction",
    "hash_hit_rate", "heap_hit_rate", "average_walk_uops",
    "accel_benefit_total",
)
#: The profile-derived scalars; ``category_fractions`` and ``benefits``
#: are profile-derived too.
PROFILE_SCALARS = (
    "time_with_priors", "time_with_accelerators", "refcount_saving",
    "accel_benefit_total",
)


def trace_sha256(app, seed: int, requests: int) -> str:
    """sha256 over the ``repr`` of the traces an experiment simulates."""
    stream = TRACE_CACHE.stream(app, seed, warmup_requests=0)
    digest = hashlib.sha256()
    for trace in stream.traces(requests):
        digest.update(repr(trace).encode("utf-8"))
    return digest.hexdigest()


def observe(result: AppResult) -> dict:
    """The pinned view of one experiment's result."""
    categories = {}
    for key, comparison in result.comparisons.items():
        categories[key] = {
            mode: {
                "uops": repr(run.uops),
                "cycles": repr(run.cycles),
                "events": dict(sorted(run.events.items())),
                "checksum": format(run.checksum, "016x"),
            }
            for mode, run in (("software", comparison.software),
                              ("accelerated", comparison.accelerated))
        }
    return {
        "scalars": {name: repr(getattr(result, name)) for name in SCALARS},
        "category_fractions": {
            k: repr(v) for k, v in sorted(result.category_fractions.items())
        },
        "benefits": {k: repr(v) for k, v in sorted(result.benefits.items())},
        "categories": categories,
    }


def _case_id(case: dict) -> str:
    return f"{case['app']}-{case['seed']}-{case['requests']}"


def test_goldens_cover_every_app_at_three_seeds():
    apps = {app.name for app in php_applications()}
    assert {c["app"] for c in CASES} == apps
    seeds = {c["seed"] for c in CASES}
    assert len(seeds) == 3
    assert len({(c["app"], c["seed"]) for c in CASES}) == len(CASES) == 9


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_experiment_replays_golden(case):
    app = next(a for a in php_applications() if a.name == case["app"])
    result = run_app_experiment(app, seed=case["seed"],
                                requests=case["requests"])
    assert trace_sha256(app, case["seed"], case["requests"]) \
        == case["trace_sha256"]
    got = observe(result)
    for category, modes in case["categories"].items():
        assert got["categories"][category] == modes, category
    for name, value in case["scalars"].items():
        if name not in PROFILE_SCALARS:
            assert got["scalars"][name] == value, name
    profile_derived = [("scalars", name) for name in PROFILE_SCALARS] + [
        (key, name) for key in ("category_fractions", "benefits")
        for name in case[key]
    ]
    for key, name in profile_derived:
        assert math.isclose(float(got[key][name]), float(case[key][name]),
                            rel_tol=1e-12), (key, name)
