"""Rendered-page goldens: each route's bytes and work, pinned.

``tests/corpus/goldens/render_pages.json`` holds, for 72
``(app, seed, vary)`` triples that no other test uses, the sha256 of
the page :func:`render_http_page` returns on the accelerated backend,
its exact op counters (``var_gets``, ``var_sets``, ``calls``,
``backend_cycles``), and the sha256 of the software-backend page.  The
file was recorded before the interpreter compiled its templates.

The served-bytes oracle compares the server with an in-process render
of the same code, so a change that alters both sides still passes it;
these goldens do not move with the code.  A mismatch is a defect in
the change, not a reason to re-record the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.templates import render_http_page

GOLDENS = Path(__file__).parent / "corpus" / "goldens" / "render_pages.json"
CASES = json.loads(GOLDENS.read_text())["cases"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _case_id(case: dict) -> str:
    return f"{case['app']}-{case['seed']}-{case['vary']}"


def test_corpus_covers_every_app_with_distinct_triples():
    triples = {(c["app"], c["seed"], c["vary"]) for c in CASES}
    assert len(triples) == len(CASES) >= 60
    assert {app for app, _, _ in triples} == {
        "wordpress", "drupal", "mediawiki",
    }


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_accelerated_page_and_ops(case):
    html, ops = render_http_page(case["app"], case["seed"], case["vary"])
    assert _sha256(html) == case["html_sha256"]
    assert ops == case["ops"]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_software_page(case):
    html, _ = render_http_page(
        case["app"], case["seed"], case["vary"], accelerated=False
    )
    assert _sha256(html) == case["software_html_sha256"]
