"""Conformance subsystem: corpus replay, determinism, bug injection.

Three layers of assurance over :mod:`repro.conformance`:

* the persisted regression corpus under ``tests/corpus/`` (including
  the shrunk repros of real bugs the fuzzer found — the ``(?i)``
  negated-class fold and nullable-pattern sifting) stays green;
* a conformance run is a pure function of its seed, serial or fanned
  out over the process pool;
* deliberately corrupted accelerators are *caught* by the fuzzer and
  shrunk to minimal repros — the oracles are live, not vacuous.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.accel.hash_table import HardwareHashTable, HashOpOutcome
from repro.accel.string_accel import StringAccelerator
from repro.common.rng import DeterministicRng
from repro.conformance import (
    DOMAINS,
    ConformanceFailure,
    fuzz_domain,
    generate_case,
    run_case,
    run_conformance,
    run_invariant,
    shrink_case,
    write_failure_artifacts,
)
from repro.conformance.invariants import INVARIANTS
from repro.core.report import conformance_report

CORPUS_DIR = Path(__file__).parent / "corpus"


def _corpus_cases() -> list:
    params = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        payload = json.loads(path.read_text())
        for i, case in enumerate(payload["cases"]):
            params.append(pytest.param(
                payload["domain"], case,
                id=f"{payload['domain']}-{i}",
            ))
    return params


class TestCorpusReplay:
    def test_corpus_exists_for_every_base_domain(self):
        """Exactly one corpus file per fuzzed domain, named after it.

        A file whose stem is not a domain, or whose payload names a
        different domain than its stem, would replay under the wrong
        name (or not at all) without anyone noticing.
        """
        paths = sorted(CORPUS_DIR.glob("*.json"))
        assert sorted(p.stem for p in paths) == sorted(DOMAINS)
        for path in paths:
            payload = json.loads(path.read_text())
            assert payload["domain"] == path.stem, path.name

    @pytest.mark.parametrize("domain,case", _corpus_cases())
    def test_corpus_case_passes(self, domain, case):
        run_case(domain, case)

    def test_corpus_cases_are_plain_json(self):
        for path in CORPUS_DIR.glob("*.json"):
            payload = json.loads(path.read_text())
            assert json.loads(json.dumps(payload)) == payload


class TestDeterminism:
    def test_same_seed_identical_report(self):
        first = run_conformance(smoke=True, seed=321, jobs=1)
        second = run_conformance(smoke=True, seed=321, jobs=1)
        assert first.to_dict() == second.to_dict()
        assert conformance_report(first) == conformance_report(second)

    def test_jobs_fanout_matches_serial(self):
        serial = run_conformance(smoke=True, seed=321, jobs=1)
        fanned = run_conformance(smoke=True, seed=321, jobs=2)
        assert serial.to_dict() == fanned.to_dict()

    def test_clean_run_reports_ok(self):
        report = run_conformance(smoke=True, seed=321, jobs=1)
        assert report.ok
        assert report.total_failures == 0
        assert report.total_cases == len(DOMAINS) * report.domains[0].cases
        assert {row["name"] for row in report.invariants} == set(INVARIANTS)

    def test_generation_is_seed_deterministic(self, make_rng):
        for domain in DOMAINS:
            a = [generate_case(domain, make_rng(9, f"g/{domain}"))
                 for _ in range(5)]
            b = [generate_case(domain, make_rng(9, f"g/{domain}"))
                 for _ in range(5)]
            assert a == b


class TestInjectedBugs:
    """Corrupt a kernel, assert the fuzzer catches and shrinks it."""

    def test_hash_value_corruption_caught_and_shrunk(self, monkeypatch):
        original = HardwareHashTable.get

        def corrupted(self, key, base):
            out = original(self, key, base)
            if out.hit and isinstance(out.value_ptr, int):
                return HashOpOutcome(True, value_ptr=out.value_ptr + 1,
                                     cycles=out.cycles)
            return out

        monkeypatch.setattr(HardwareHashTable, "get", corrupted)
        result = fuzz_domain("hash", seed=77, cases=40)
        assert result.failures > 0
        assert result.shrunk
        smallest = result.shrunk[0]["shrunk"]
        # Minimal repro: one SET to plant the value, one GET to read it.
        assert len(smallest) <= 3
        with pytest.raises(ConformanceFailure):
            run_case("hash", smallest)

    def test_string_case_corruption_caught(self, monkeypatch):
        original = StringAccelerator.to_upper

        def corrupted(self, subject):
            out = original(self, subject)
            return type(out)(out.value.swapcase(), out.cycles,
                             out.blocks, out.bytes_processed)

        monkeypatch.setattr(StringAccelerator, "to_upper", corrupted)
        result = fuzz_domain("string", seed=77, cases=60)
        assert result.failures > 0
        smallest = result.shrunk[0]["shrunk"]
        assert len(smallest) <= 2

    def test_oracle_crash_is_a_conformance_failure(self, monkeypatch):
        def explode(self, key, base):
            raise RuntimeError("simulated latch-up")

        monkeypatch.setattr(HardwareHashTable, "get", explode)
        with pytest.raises(ConformanceFailure, match="latch-up"):
            run_case("hash", [["set", "k1", 0, 5], ["get", "k1", 0]])


class TestShrinking:
    def test_shrunk_case_still_fails(self, monkeypatch):
        original = HardwareHashTable.get

        def corrupted(self, key, base):
            out = original(self, key, base)
            if out.hit and isinstance(out.value_ptr, int):
                return HashOpOutcome(True, value_ptr=out.value_ptr + 1,
                                     cycles=out.cycles)
            return out

        monkeypatch.setattr(HardwareHashTable, "get", corrupted)
        rng = DeterministicRng(13).fork("shrink-test")
        for _ in range(200):
            case = generate_case("hash", rng)
            try:
                run_case("hash", case)
            except ConformanceFailure:
                break
        else:
            pytest.fail("no failing case generated")
        small = shrink_case("hash", case)
        assert len(small) <= len(case)
        with pytest.raises(ConformanceFailure):
            run_case("hash", small)
        # Shrunk cases must persist to the corpus as plain JSON.
        assert json.loads(json.dumps(small)) == small

    def test_shrink_passing_case_is_identity(self):
        case = [["set", "k1", 0, 1], ["get", "k1", 0]]
        assert shrink_case("hash", case) == case


class TestInvariantsRegistry:
    def test_unknown_invariant_rejected(self):
        with pytest.raises(ConformanceFailure, match="unknown"):
            run_invariant("no-such-invariant")

    @pytest.mark.parametrize("name", sorted(INVARIANTS))
    def test_invariant_passes_smoke(self, name):
        detail = run_invariant(name, seed=2024, smoke=True)
        assert isinstance(detail, str) and detail


class TestArtifacts:
    def test_clean_report_writes_nothing(self, tmp_path):
        report = run_conformance(smoke=True, seed=321, jobs=1)
        assert write_failure_artifacts(report, tmp_path) is None
        assert not list(tmp_path.iterdir())

    def test_failing_report_persists_shrunk_repros(
        self, tmp_path, monkeypatch
    ):
        original = HardwareHashTable.get

        def corrupted(self, key, base):
            out = original(self, key, base)
            if out.hit and isinstance(out.value_ptr, int):
                return HashOpOutcome(True, value_ptr=out.value_ptr + 1,
                                     cycles=out.cycles)
            return out

        monkeypatch.setattr(HardwareHashTable, "get", corrupted)
        from repro.conformance.fuzzer import ConformanceReport
        report = ConformanceReport(
            seed=77, smoke=True,
            domains=[fuzz_domain("hash", seed=77, cases=40)],
        )
        assert not report.ok
        path = write_failure_artifacts(report, tmp_path)
        assert path is not None
        payload = json.loads(path.read_text())
        assert payload["ok"] is False
        assert payload["domains"][0]["shrunk"]


class TestRegressionBugs:
    """Direct checks for the bugs the fuzzer originally surfaced."""

    def test_ignorecase_negated_class_excludes_both_cases(self):
        from repro.regex.engine import CompiledRegex
        rx = CompiledRegex("(?i)[^a]")
        out = rx.search("aA b")
        assert (out.match.start, out.match.end) == (2, 3)
        assert CompiledRegex("(?i)0[^a]").search("0a").match is None

    def test_nullable_pattern_never_sifted(self):
        from repro.accel.regex_accel import pattern_starts_special
        from repro.regex.engine import CompiledRegex
        assert not pattern_starts_special(CompiledRegex("\\?*"))
        assert not pattern_starts_special(CompiledRegex("\\.{0,0}"))
        # Non-nullable special-start patterns still qualify.
        assert pattern_starts_special(CompiledRegex("<[a-z]+"))
