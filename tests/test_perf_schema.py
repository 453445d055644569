"""Schema validation for the checked-in perf artifacts.

``python -m repro perf`` writes ``BENCH_perf.json`` at the repo root,
committed so the numbers travel with the code, and renders it to the
gitignored ``benchmarks/out/perf.txt``.  These tests validate the
committed JSON without regenerating it (regeneration is the perf
harness's job): required fields present, every ratio finite and
non-negative, per-backend metric rows covering every measured backend,
and the table rendered from it carrying every kernel and backend row.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.perf import (
    BULK_STRING_SPEEDUP_MIN,
    HASH_SPEEDUP_MIN,
    HISTORY_PATH,
    HISTORY_SCHEMA,
    JSON_PATH,
    PERF_SCHEMA,
    append_history,
    format_perf_report,
    string_floor,
    validate_history_row,
    validate_perf_payload,
)

pytestmark = pytest.mark.skipif(
    not JSON_PATH.exists(),
    reason="BENCH_perf.json not generated in this checkout",
)


@pytest.fixture(scope="module")
def payload() -> dict:
    return json.loads(JSON_PATH.read_text())


def _numbers(node, path=""):
    """Yield (dotted_path, value) for every number in the payload."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{path}.{key}" if path else key)
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield path, node


class TestBenchPerfJson:
    def test_passes_the_harness_validator(self, payload):
        validate_perf_payload(payload)

    def test_schema_and_provenance_fields(self, payload):
        assert payload["schema"] == PERF_SCHEMA
        assert isinstance(payload["seed"], int)
        assert isinstance(payload["smoke"], bool)
        assert payload["host"]["python"]
        assert payload["host"]["platform"]
        assert set(payload["floors"]) >= {
            "string_speedup_min", "e2e_speedup_min",
            "hash_speedup_min", "bulk_string_speedup_min", "asserted",
        }
        assert payload["floors"]["hash_speedup_min"] >= 1.2
        assert payload["floors"]["bulk_string_speedup_min"] \
            == BULK_STRING_SPEEDUP_MIN

    def test_backend_availability_report(self, payload):
        rows = payload["backends"]
        assert isinstance(rows, list) and rows
        names = [row["name"] for row in rows]
        assert "reference" in names
        assert "optimized" in names
        for row in rows:
            assert isinstance(row["available"], bool)
            assert isinstance(row["kernels"], list) and row["kernels"]
            if not row["available"]:
                assert row["reason"]

    def test_per_backend_rows_cover_every_measured_backend(
        self, payload
    ):
        measured = payload["measured_backends"]
        assert isinstance(measured, list) and measured
        assert "reference" not in measured
        for section in ("string_accel", "hash_table",
                        "e2e_full_evaluation"):
            backends = payload["metrics"][section]["backends"]
            assert set(backends) >= set(measured)

    def test_floors_hold_when_asserted(self, payload):
        # The committed artifact must come from a run that asserted the
        # floors — and every measured backend must actually clear its
        # floors (this is the regression the floors exist to catch,
        # including the 2.5x bar the bulk backend committed to).
        if not payload["floors"]["asserted"]:
            pytest.skip("committed payload is an unasserted smoke run")
        m = payload["metrics"]
        for name in payload["measured_backends"]:
            assert m["string_accel"]["backends"][name]["speedup"] \
                >= string_floor(name)
            assert m["hash_table"]["backends"][name]["speedup"] \
                >= HASH_SPEEDUP_MIN

    def test_every_number_is_finite_and_nonnegative(self, payload):
        checked = 0
        for path, value in _numbers(payload):
            assert math.isfinite(value), f"{path} = {value!r}"
            assert value >= 0, f"{path} = {value!r}"
            checked += 1
        assert checked >= 10, "payload suspiciously empty"

    def test_speedup_ratios_are_consistent(self, payload):
        m = payload["metrics"]
        string = m["string_accel"]
        for name, row in string["backends"].items():
            assert row["speedup"] == pytest.approx(
                row["bytes_per_sec"]
                / string["bytes_per_sec_reference"], rel=1e-6,
            ), f"string_accel[{name}]"
        hash_ = m["hash_table"]
        for name, row in hash_["backends"].items():
            assert row["speedup"] == pytest.approx(
                row["ops_per_sec"]
                / hash_["ops_per_sec_reference"], rel=1e-6,
            ), f"hash_table[{name}]"
        e2e = m["e2e_full_evaluation"]
        for name, row in e2e["backends"].items():
            assert row["speedup"] == pytest.approx(
                e2e["seconds_reference"] / row["seconds"], rel=1e-6,
            ), f"e2e[{name}]"

    def test_legacy_mirror_fields_track_the_default_backend(
        self, payload
    ):
        # The /1 top-level fields stay as mirrors of the `optimized`
        # rows so pre-registry tooling keeps parsing the artifact.
        m = payload["metrics"]
        opt = m["string_accel"]["backends"].get("optimized")
        if opt is None:
            pytest.skip("optimized backend not measured in this run")
        assert m["string_accel"]["bytes_per_sec_optimized"] \
            == pytest.approx(opt["bytes_per_sec"])
        assert m["string_accel"]["speedup"] \
            == pytest.approx(opt["speedup"])
        assert m["hash_table"]["ops_per_sec_optimized"] == pytest.approx(
            m["hash_table"]["backends"]["optimized"]["ops_per_sec"]
        )
        assert m["e2e_full_evaluation"]["seconds_optimized"] \
            == pytest.approx(
                m["e2e_full_evaluation"]["backends"]["optimized"]["seconds"]
            )

    def test_validator_rejects_corrupt_payloads(self, payload):
        for corrupt in (
            {**payload, "schema": "repro-perf/1"},
            {**payload, "measured_backends": []},
            {**payload, "metrics": {
                **payload["metrics"],
                "string_accel": {
                    **payload["metrics"]["string_accel"],
                    "backends": {},
                },
            }},
        ):
            with pytest.raises(ValueError):
                validate_perf_payload(corrupt)


class TestPerfTxt:
    """The perf table, rendered here from the committed JSON.

    ``benchmarks/out/perf.txt`` is a gitignored build output, so no
    test reads it.
    """

    @pytest.fixture(scope="class")
    def text(self, payload) -> str:
        return format_perf_report(payload)

    def test_has_title_and_all_kernel_rows(self, text):
        assert "Wall-clock performance vs pinned reference kernels" in text
        for row in ("string accel", "hash table",
                    "full evaluation", "fleet"):
            assert row in text, f"missing row: {row}"

    def test_one_row_per_backend_per_kernel(self, payload, text):
        for name in payload["measured_backends"]:
            assert f"[{name}]" in text, f"missing backend rows: {name}"


class TestBenchHistory:
    """The append-only perf trajectory (``BENCH_history.jsonl``)."""

    def test_committed_rows_pass_the_validator(self):
        # The trajectory file is shared: perf, serve, and calibrate
        # rows interleave, each dispatched to its own schema's
        # validator.
        from repro.calibrate.report import (
            CALIBRATE_HISTORY_SCHEMA,
            validate_calibrate_history_row,
        )
        from repro.serve.report import (
            SERVE_HISTORY_SCHEMA,
            validate_serve_history_row,
        )

        assert HISTORY_PATH.exists(), (
            "BENCH_history.jsonl missing: run `python -m repro perf`"
        )
        rows = [
            json.loads(line)
            for line in HISTORY_PATH.read_text().splitlines()
            if line.strip()
        ]
        assert rows, "history file exists but holds no rows"
        validators = {
            HISTORY_SCHEMA: validate_history_row,
            SERVE_HISTORY_SCHEMA: validate_serve_history_row,
            CALIBRATE_HISTORY_SCHEMA: validate_calibrate_history_row,
        }
        seen = set()
        for row in rows:
            schema = row.get("schema")
            assert schema in validators, (
                f"unknown history row schema {schema!r}"
            )
            validators[schema](row)
            seen.add(schema)
        assert HISTORY_SCHEMA in seen, "no perf rows in the trajectory"
        assert CALIBRATE_HISTORY_SCHEMA in seen, (
            "no calibrate rows in the trajectory: run "
            "`python -m repro calibrate --smoke`"
        )

    def test_append_writes_one_row_per_measured_backend(
        self, payload, tmp_path
    ):
        path = tmp_path / "history.jsonl"
        measured = payload["measured_backends"]
        append_history(payload, path)
        append_history(payload, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * len(measured)
        backends_seen = []
        for line in lines:
            row = json.loads(line)
            validate_history_row(row)
            backend = row["backend"]
            backends_seen.append(backend)
            m = payload["metrics"]
            assert row["hash_speedup"] == pytest.approx(
                m["hash_table"]["backends"][backend]["speedup"]
            )
            assert row["floors_asserted"] == payload["floors"]["asserted"]
        assert backends_seen == measured * 2

    def test_legacy_rows_without_backend_still_validate(self, payload):
        from repro.core.perf import history_row

        row = history_row(payload)
        del row["backend"]
        validate_history_row(row)

    def test_calibrate_validator_rejects_corrupt_rows(self):
        from repro.calibrate.report import (
            CALIBRATE_HISTORY_SCHEMA,
            validate_calibrate_history_row,
        )

        committed = [
            json.loads(line)
            for line in HISTORY_PATH.read_text().splitlines()
            if line.strip()
            and json.loads(line).get("schema") == CALIBRATE_HISTORY_SCHEMA
        ]
        assert committed, "no committed calibrate history row to corrupt"
        good = committed[-1]
        validate_calibrate_history_row(good)
        for corrupt in (
            {**good, "schema": "repro-serve-history/1"},
            {**good, "mape_p99": -0.1},
            {**good, "mape_overall": "small"},
            {**good, "events": 0},
            {**good, "ok": "yes"},
            {**good, "seed": "42"},
            {**good, "host": {}},
            {**good, "recorded_utc": 12345},
        ):
            with pytest.raises(ValueError):
                validate_calibrate_history_row(corrupt)

    def test_validator_rejects_corrupt_rows(self, payload):
        from repro.core.perf import history_row

        good = history_row(payload)
        validate_history_row(good)
        assert good["backend"] in payload["measured_backends"]
        for corrupt in (
            {**good, "schema": "repro-perf/1"},
            {**good, "hash_speedup": 0.0},
            {**good, "e2e_speedup": "fast"},
            {**good, "smoke": "no"},
            {**good, "seed": "42"},
            {**good, "host": {}},
            {**good, "backend": ""},
            {**good, "backend": 7},
        ):
            with pytest.raises(ValueError):
                validate_history_row(corrupt)
