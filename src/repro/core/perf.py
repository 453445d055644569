"""Wall-clock performance harness.

Measures real (not simulated) throughput of the hot kernels and the
end-to-end evaluation, comparing the ``optimized`` accelerator kernels
against the pinned in-repo reference kernels
(:mod:`repro.accel.reference`) in the same process on the same
machine.  Four metrics:

* **string-accel bytes scanned/sec** — the byte-matrix kernels
  (``find`` / ``char_class_bitmap`` / ``html_escape``) over a
  deterministic HTML-ish corpus, per backend vs reference;
* **hash ops/sec** — a mixed get/set/insert stream through the
  hardware hash table, per backend vs reference probe path;
* **requests simulated/sec + e2e speedup** — ``full_evaluation`` with
  all caches cold, per backend vs :func:`~repro.accel.reference.reference_mode`
  (which also disables the trace-stream, experiment, and compiled-
  pattern caches, i.e. the seed repo's execution profile);
* **fleet events/sec** — arrival/dispatch/completion events through
  one cached-fleet run (backend-independent; measured once).

The measured backend set comes from
``REGISTRY.measured_backends()`` — every registered backend except the
``reference`` baseline, i.e. ``optimized``.  Metric rows stay keyed by
backend name (the ``repro-perf/2`` shape).

Equivalence is asserted inline: every comparison first checks that the
backend and reference paths produce identical outcomes/reports, so a
speedup can never come from computing something different.

``run_perf`` writes ``benchmarks/out/perf.txt`` (human table) and
``BENCH_perf.json`` at the repo root (machine-readable).  The speedup
floors (≥2.0× string, ≥1.5× e2e, ≥1.2× hash) are asserted by
``benchmarks/bench_perf.py`` and by ``python -m repro perf``; the CI
smoke run validates the schema only — wall-clock ratios on shared
runners are load-dependent, so CI never gates on them.
"""

from __future__ import annotations

# repro: allow-file(DET001) — wall-clock time is this module's entire
# output (measured speedups); it never feeds a simulated result.

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.common.rng import DEFAULT_SEED

#: Payload format marker; bump on schema changes.
#: ``/2``: per-backend metric rows under ``metrics[*]["backends"]``
#: (the ``/1`` top-level optimized-vs-reference fields remain as
#: mirrors of the ``optimized`` backend for older tooling).
PERF_SCHEMA = "repro-perf/2"

#: Row format marker for the append-only perf trajectory.  Rows gained
#: an optional ``backend`` field with the backend registry; rows
#: written before it (no ``backend`` key) still validate.
HISTORY_SCHEMA = "repro-perf-history/1"

#: Asserted speedup floors (full harness only, never CI smoke).
STRING_SPEEDUP_MIN = 2.0
E2E_SPEEDUP_MIN = 1.5
#: The optimized hash kernel measured 1.42x after the PR-6 fix; 1.2
#: guards most of that win (the old 1.0 floor only caught a kernel
#: running outright slower than the pinned reference).
HASH_SPEEDUP_MIN = 1.2

#: ``src/repro/core/perf.py`` → repo root.
REPO_ROOT = Path(__file__).resolve().parents[3]
OUT_DIR = REPO_ROOT / "benchmarks" / "out"
JSON_PATH = REPO_ROOT / "BENCH_perf.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _string_corpus(paragraphs: int) -> list[str]:
    """Deterministic HTML-ish subjects (no rng needed: fixed text)."""
    base = (
        '<p class="entry">The <a href="https://example.org/author/x">'
        "quick brown fox &amp; friends</a> jumped over the lazy dog "
        "while 42 < 117 and \"quotes\" remained 'unbalanced'.</p> "
    )
    return [base * (3 + (i % 5)) for i in range(paragraphs)]


def _bench_string(
    smoke: bool, backends: tuple[str, ...]
) -> dict[str, Any]:
    from repro.accel.reference import ReferenceStringAccelerator
    from repro.accel.registry import backend_mode
    from repro.accel.string_accel import StringAccelerator
    from repro.regex.charset import CharSet
    from repro.runtime.strings import HTML_ESCAPES

    subjects = _string_corpus(4 if smoke else 24)
    # Four early-match patterns plus one miss: real scanning workloads
    # include "not found", which scans the whole subject.
    patterns = ["author", "lazy dog", "</p>", "unbalanced", "</article>"]
    char_class = CharSet.of("<>&\"'")
    opt = StringAccelerator()
    ref = ReferenceStringAccelerator()

    def drive(accel: StringAccelerator) -> list:
        outcomes = []
        for subject in subjects:
            for pattern in patterns:
                outcomes.append(accel.find(subject, pattern))
            outcomes.append(accel.char_class_bitmap(subject, char_class, 32))
            outcomes.append(accel.html_escape(subject, HTML_ESCAPES))
        return outcomes

    scanned = sum(len(s) for s in subjects) * (len(patterns) + 2)
    repeats = 2 if smoke else 4
    ref_repr = repr(drive(ref))
    t_ref = _best_of(lambda: drive(ref), repeats)
    rows: dict[str, dict[str, float]] = {}
    for name in backends:
        with backend_mode(name):
            assert repr(drive(opt)) == ref_repr, (
                f"string kernels [{name}] diverged from reference"
            )
            t = _best_of(lambda: drive(opt), repeats)
        rows[name] = {
            "bytes_per_sec": scanned / t,
            "speedup": t_ref / t,
        }
    mirror = rows["optimized"]
    return {
        "bytes_per_sec_reference": scanned / t_ref,
        "backends": rows,
        # /1 mirrors (default backend) for older tooling.
        "bytes_per_sec_optimized": mirror["bytes_per_sec"],
        "speedup": mirror["speedup"],
    }


def _bench_hash(
    smoke: bool, backends: tuple[str, ...]
) -> dict[str, Any]:
    from repro.accel.hash_table import HardwareHashTable
    from repro.accel.reference import ReferenceHardwareHashTable
    from repro.accel.registry import backend_mode

    n_ops = 2_000 if smoke else 20_000
    keys = [f"key-{i % 257:03d}-{i % 31}" for i in range(n_ops)]
    bases = [0x1000 + (i % 7) * 0x200 for i in range(n_ops)]

    def drive(table: HardwareHashTable) -> list:
        outcomes = []
        for i, (key, base) in enumerate(zip(keys, bases)):
            kind = i % 3
            if kind == 0:
                outcomes.append(table.insert_clean(key, base, i))
            elif kind == 1:
                outcomes.append(table.get(key, base))
            else:
                outcomes.append(table.set(key, base, i))
        return outcomes

    repeats = 2 if smoke else 4
    ref_repr = repr(drive(ReferenceHardwareHashTable()))
    t_ref = _best_of(lambda: drive(ReferenceHardwareHashTable()), repeats)
    rows: dict[str, dict[str, float]] = {}
    for name in backends:
        with backend_mode(name):
            assert repr(drive(HardwareHashTable())) == ref_repr, (
                f"hash-table kernels [{name}] diverged from reference"
            )
            t = _best_of(lambda: drive(HardwareHashTable()), repeats)
        rows[name] = {
            "ops_per_sec": n_ops / t,
            "speedup": t_ref / t,
        }
    mirror = rows["optimized"]
    return {
        "ops_per_sec_reference": n_ops / t_ref,
        "backends": rows,
        "ops_per_sec_optimized": mirror["ops_per_sec"],
        "speedup": mirror["speedup"],
    }


def _bench_e2e(
    smoke: bool, seed: int, backends: tuple[str, ...]
) -> dict[str, Any]:
    from repro.accel.reference import reference_mode
    from repro.accel.registry import backend_mode
    from repro.core.expcache import EXPERIMENT_CACHE
    from repro.core.experiment import full_evaluation
    from repro.core.report import energy_report, figure14_report, figure15_report
    from repro.workloads.apps import php_applications
    from repro.workloads.loadgen import TRACE_CACHE

    requests = 2 if smoke else 5

    def render(results) -> str:
        return "\n".join([
            figure14_report(results), figure15_report(results),
            energy_report(results),
        ])

    # One cold run each under smoke; best-of-2 in the full harness —
    # a single 1-second sample is noise-dominated on a busy machine,
    # and the first optimized run also pays one-time lru-cache fills
    # (pattern tables, translate tables) that are process-lifetime
    # state, not per-evaluation work.
    repeats = 1 if smoke else 2

    def timed_reference() -> tuple[float, Any]:
        with reference_mode():
            t0 = time.perf_counter()
            results = full_evaluation(seed=seed, requests=requests)
            return time.perf_counter() - t0, results

    t_ref, ref_results = timed_reference()
    for _ in range(repeats - 1):
        t_ref = min(t_ref, timed_reference()[0])
    ref_render = render(ref_results)

    def timed_backend(name: str) -> tuple[float, Any]:
        # Cold run: process-level caches cleared so the timing covers
        # trace generation + both simulation modes, exactly what the
        # reference run pays (intra-run sharing is the optimization).
        EXPERIMENT_CACHE.clear()
        TRACE_CACHE.clear()
        with backend_mode(name):
            t0 = time.perf_counter()
            results = full_evaluation(seed=seed, requests=requests)
            t = time.perf_counter() - t0
        EXPERIMENT_CACHE.clear()
        TRACE_CACHE.clear()
        return t, results

    # Each app is simulated twice (software + accelerated drive).
    simulated = len(php_applications()) * requests * 2
    rows: dict[str, dict[str, float]] = {}
    for name in backends:
        t, results = timed_backend(name)
        assert render(results) == ref_render, (
            f"evaluation reports [{name}] diverged from reference kernels"
        )
        for _ in range(repeats - 1):
            t = min(t, timed_backend(name)[0])
        rows[name] = {
            "seconds": t,
            "speedup": t_ref / t,
            "requests_per_sec": simulated / t,
        }
    mirror = rows["optimized"]
    return {
        "seconds_reference": t_ref,
        "backends": rows,
        "seconds_optimized": mirror["seconds"],
        "speedup": mirror["speedup"],
        "requests_per_sec": mirror["requests_per_sec"],
    }


def _bench_fleet(smoke: bool, seed: int) -> dict[str, float]:
    from repro.fleet.simulator import FleetConfig, run_fleet
    from repro.fleet.topology import CacheTierConfig, homogeneous_fleet

    requests = 400 if smoke else 4_000
    topo = homogeneous_fleet(
        "perf-fleet", (1.0, 1.2, 0.9), nodes=4,
        cache=CacheTierConfig(shards=4, shard_capacity=256),
    )
    cfg = FleetConfig(requests=requests, warmup_requests=20)

    t0 = time.perf_counter()
    report = run_fleet(topo, cfg, seed=seed)
    elapsed = time.perf_counter() - t0
    # Every offered request produces at least arrival + dispatch +
    # completion events; count the conservative 3-event floor.
    events = 3 * report.offered
    return {
        "events_per_sec": events / elapsed,
        "requests": float(report.offered),
    }


def run_perf(
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    check_speedups: bool | None = None,
) -> dict[str, Any]:
    """Run all four benches; returns (and persists) the payload.

    ``check_speedups`` defaults to ``not smoke``: the full harness
    asserts the pinned floors, the CI smoke run only validates the
    schema (shared runners make wall-clock ratios unreliable).
    """
    from repro.accel.registry import available_backends, measured_backends

    if check_speedups is None:
        check_speedups = not smoke
    backends = measured_backends()
    payload: dict[str, Any] = {
        "schema": PERF_SCHEMA,
        "smoke": smoke,
        "seed": seed,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "backends": available_backends(),
        "measured_backends": list(backends),
        "metrics": {
            "string_accel": _bench_string(smoke, backends),
            "hash_table": _bench_hash(smoke, backends),
            "e2e_full_evaluation": _bench_e2e(smoke, seed, backends),
            "fleet": _bench_fleet(smoke, seed),
        },
        "floors": {
            "string_speedup_min": STRING_SPEEDUP_MIN,
            "e2e_speedup_min": E2E_SPEEDUP_MIN,
            "hash_speedup_min": HASH_SPEEDUP_MIN,
            "asserted": check_speedups,
        },
    }
    validate_perf_payload(payload)
    if check_speedups:
        m = payload["metrics"]
        for name in backends:
            string_speedup = m["string_accel"]["backends"][name]["speedup"]
            hash_speedup = m["hash_table"]["backends"][name]["speedup"]
            e2e_speedup = \
                m["e2e_full_evaluation"]["backends"][name]["speedup"]
            assert string_speedup >= STRING_SPEEDUP_MIN, (
                f"string-accel [{name}] speedup {string_speedup:.2f}x "
                f"below the {STRING_SPEEDUP_MIN}x floor"
            )
            assert hash_speedup >= HASH_SPEEDUP_MIN, (
                f"hash-table [{name}] speedup {hash_speedup:.2f}x below "
                f"the {HASH_SPEEDUP_MIN}x floor (kernel slower than the "
                f"PR-6 fix guards)"
            )
            assert e2e_speedup >= E2E_SPEEDUP_MIN, (
                f"end-to-end [{name}] speedup {e2e_speedup:.2f}x below "
                f"the {E2E_SPEEDUP_MIN}x floor"
            )
    _persist(payload)
    return payload


def history_row(
    payload: dict[str, Any], backend: str = "optimized"
) -> dict[str, Any]:
    """Condense one perf payload into an append-only trajectory row.

    The row keeps exactly what a cross-PR regression scan needs — the
    headline ratios for one backend plus provenance — so the file
    stays small enough to diff at PR time.
    """
    m = payload["metrics"]
    return {
        "schema": HISTORY_SCHEMA,
        "recorded_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "smoke": payload["smoke"],
        "seed": payload["seed"],
        "host": dict(payload["host"]),
        "backend": backend,
        "string_speedup": m["string_accel"]["backends"][backend]["speedup"],
        "hash_speedup": m["hash_table"]["backends"][backend]["speedup"],
        "e2e_speedup":
            m["e2e_full_evaluation"]["backends"][backend]["speedup"],
        "fleet_events_per_sec": m["fleet"]["events_per_sec"],
        "floors_asserted": payload["floors"]["asserted"],
    }


def validate_history_row(row: dict[str, Any]) -> None:
    """Schema check for one ``BENCH_history.jsonl`` row.

    Rows written before the backend registry carry no ``backend``
    field; they must keep validating.
    """
    if row.get("schema") != HISTORY_SCHEMA:
        raise ValueError(
            f"unexpected history schema: {row.get('schema')!r}"
        )
    for name in ("string_speedup", "hash_speedup", "e2e_speedup",
                 "fleet_events_per_sec"):
        value = row.get(name)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(
                f"history row [{name!r}] must be a positive number, "
                f"got {value!r}"
            )
    for name in ("smoke", "floors_asserted"):
        if not isinstance(row.get(name), bool):
            raise ValueError(f"history row [{name!r}] must be a bool")
    if not isinstance(row.get("seed"), int):
        raise ValueError("history row ['seed'] must be an int")
    host = row.get("host")
    if not isinstance(host, dict) or not host.get("python"):
        raise ValueError("history row ['host'] must name the python")
    if not isinstance(row.get("recorded_utc"), str):
        raise ValueError("history row ['recorded_utc'] must be a string")
    if "backend" in row:
        backend = row["backend"]
        if not isinstance(backend, str) or not backend:
            raise ValueError(
                "history row ['backend'] must be a non-empty string"
            )


def append_history(
    payload: dict[str, Any], path: Path | None = None
) -> Path:
    """Append one schema-checked row per measured backend."""
    measured = payload.get(
        "measured_backends",
        list(payload["metrics"]["string_accel"]["backends"]),
    )
    path = path or HISTORY_PATH
    with path.open("a", encoding="utf-8") as fh:
        for backend in measured:
            row = history_row(payload, backend)
            validate_history_row(row)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def _validate_backend_rows(
    section: str, body: dict[str, Any], fields: tuple[str, ...]
) -> None:
    rows = body.get("backends")
    if not isinstance(rows, dict) or not rows:
        raise ValueError(
            f"metrics[{section!r}]['backends'] must map backend names "
            f"to metric rows"
        )
    for backend, row in rows.items():
        if not isinstance(row, dict):
            raise ValueError(
                f"metrics[{section!r}]['backends'][{backend!r}] must "
                f"be a mapping"
            )
        for name in fields:
            value = row.get(name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"metrics[{section!r}]['backends'][{backend!r}]"
                    f"[{name!r}] must be a positive number, got {value!r}"
                )


def validate_perf_payload(payload: dict[str, Any]) -> None:
    """Schema check for the perf payload (the CI smoke gate)."""
    if payload.get("schema") != PERF_SCHEMA:
        raise ValueError(
            f"unexpected perf schema: {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("smoke"), bool):
        raise ValueError("perf payload ['smoke'] must be a bool")
    if not isinstance(payload.get("seed"), int):
        raise ValueError("perf payload ['seed'] must be an int")
    host = payload.get("host")
    if not isinstance(host, dict) or not host.get("python"):
        raise ValueError("perf payload ['host'] must name the python")
    backends = payload.get("backends")
    if not isinstance(backends, list) or not backends or any(
        not isinstance(row, dict) or not row.get("name")
        for row in backends
    ):
        raise ValueError(
            "perf payload ['backends'] must be a non-empty list of "
            "named backend rows"
        )
    floors = payload.get("floors")
    if not isinstance(floors, dict) or \
            not isinstance(floors.get("asserted"), bool):
        raise ValueError(
            "perf payload ['floors']['asserted'] must be a bool"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("perf payload missing 'metrics' mapping")
    required = {
        "string_accel": ("bytes_per_sec_optimized",
                         "bytes_per_sec_reference", "speedup"),
        "hash_table": ("ops_per_sec_optimized",
                       "ops_per_sec_reference", "speedup"),
        "e2e_full_evaluation": ("seconds_optimized", "seconds_reference",
                                "speedup", "requests_per_sec"),
        "fleet": ("events_per_sec",),
    }
    for section, fields in required.items():
        body = metrics.get(section)
        if not isinstance(body, dict):
            raise ValueError(f"perf payload missing metrics[{section!r}]")
        for name in fields:
            value = body.get(name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"metrics[{section!r}][{name!r}] must be a positive "
                    f"number, got {value!r}"
                )
    _validate_backend_rows(
        "string_accel", metrics["string_accel"],
        ("bytes_per_sec", "speedup"),
    )
    _validate_backend_rows(
        "hash_table", metrics["hash_table"], ("ops_per_sec", "speedup")
    )
    _validate_backend_rows(
        "e2e_full_evaluation", metrics["e2e_full_evaluation"],
        ("seconds", "speedup", "requests_per_sec"),
    )
    measured = payload.get("measured_backends")
    if not isinstance(measured, list) or not measured:
        raise ValueError(
            "perf payload ['measured_backends'] must be a non-empty list"
        )
    for section in ("string_accel", "hash_table", "e2e_full_evaluation"):
        missing = [
            name for name in measured
            if name not in metrics[section]["backends"]
        ]
        if missing:
            raise ValueError(
                f"metrics[{section!r}]['backends'] missing measured "
                f"backend(s): {', '.join(missing)}"
            )


def format_perf_report(payload: dict[str, Any]) -> str:
    from repro.core.report import format_table

    m = payload["metrics"]
    # Render in measured order (a list, so JSON round-trips preserve
    # it; the backends *mapping* is re-sorted by the persist step).
    order = payload.get("measured_backends") or list(
        m["string_accel"]["backends"]
    )
    rows = []
    for name in order:
        row = m["string_accel"]["backends"][name]
        rows.append([
            f"string accel (bytes/s) [{name}]",
            f"{row['bytes_per_sec']:,.0f}",
            f"{m['string_accel']['bytes_per_sec_reference']:,.0f}",
            f"{row['speedup']:.2f}x",
        ])
    for name in order:
        row = m["hash_table"]["backends"][name]
        rows.append([
            f"hash table (ops/s) [{name}]",
            f"{row['ops_per_sec']:,.0f}",
            f"{m['hash_table']['ops_per_sec_reference']:,.0f}",
            f"{row['speedup']:.2f}x",
        ])
    for name in order:
        row = m["e2e_full_evaluation"]["backends"][name]
        rows.append([
            f"full evaluation (req/s) [{name}]",
            f"{row['requests_per_sec']:,.1f}",
            "-",
            f"{row['speedup']:.2f}x",
        ])
    rows.append([
        "fleet (events/s)",
        f"{m['fleet']['events_per_sec']:,.0f}", "-", "-",
    ])
    mode = "smoke" if payload["smoke"] else "full"
    return format_table(
        ["kernel [backend]", "measured", "reference", "speedup"], rows,
        title=f"Wall-clock performance vs pinned reference kernels ({mode})",
    )


def _persist(payload: dict[str, Any]) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "perf.txt").write_text(format_perf_report(payload) + "\n")
    JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    # Append-only trajectory: BENCH_perf.json holds only the latest
    # run, so cross-PR regressions (like the 0.89x hash kernel the
    # hash floor now guards) are invisible there; the history file
    # keeps every run (one row per measured backend) and travels to CI
    # as an artifact.
    append_history(payload)
