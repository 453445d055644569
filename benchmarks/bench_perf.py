"""Wall-clock perf bench: optimized kernels vs pinned reference.

Unlike the figure benches (which measure *simulated* outcomes), this
bench measures real machine throughput of the hot kernels and the
end-to-end evaluation against the in-repo reference implementations
(:mod:`repro.accel.reference`), asserting the speedup floors the
optimization work committed to for every measured backend the
registry reports (``optimized``):

* string-accelerator microbench ≥ 2.0× over the per-character matrix;
* hash-table kernel ≥ 1.2× — guards most of the PR-6 probe-path win
  (the old 1.0 floor only caught a kernel running outright slower);
* ``full_evaluation`` end-to-end ≥ 1.5× over ``reference_mode`` (the
  seed repo's execution profile: reference kernels, no trace-stream /
  experiment / compiled-pattern caches).

CI runs only ``python -m repro perf --smoke`` (schema validation, no
ratio assertions) — shared runners make wall-clock ratios flaky there.
This bench is for real hardware: ``pytest benchmarks/bench_perf.py``.
"""

from __future__ import annotations

from repro.core.perf import (
    E2E_SPEEDUP_MIN,
    HASH_SPEEDUP_MIN,
    STRING_SPEEDUP_MIN,
    format_perf_report,
    run_perf,
    validate_perf_payload,
)


def bench_perf(benchmark, report_sink):
    payload = benchmark.pedantic(
        lambda: run_perf(smoke=False, check_speedups=False),
        rounds=1, iterations=1,
    )
    validate_perf_payload(payload)
    report_sink("perf", format_perf_report(payload))

    metrics = payload["metrics"]
    measured = payload["measured_backends"]
    assert measured, "no measured backends in the payload"
    for name in measured:
        string_speedup = \
            metrics["string_accel"]["backends"][name]["speedup"]
        hash_speedup = metrics["hash_table"]["backends"][name]["speedup"]
        e2e_speedup = \
            metrics["e2e_full_evaluation"]["backends"][name]["speedup"]
        assert string_speedup >= STRING_SPEEDUP_MIN, (
            f"string-accel [{name}] speedup {string_speedup:.2f}x "
            f"below {STRING_SPEEDUP_MIN}x"
        )
        assert hash_speedup >= HASH_SPEEDUP_MIN, (
            f"hash-table [{name}] speedup {hash_speedup:.2f}x below "
            f"{HASH_SPEEDUP_MIN}x"
        )
        assert e2e_speedup >= E2E_SPEEDUP_MIN, (
            f"e2e [{name}] speedup {e2e_speedup:.2f}x below "
            f"{E2E_SPEEDUP_MIN}x"
        )
    # The /1 mirror fields must keep tracking the default backend.
    assert metrics["string_accel"]["speedup"] >= STRING_SPEEDUP_MIN
    # The harness itself asserted outcome equivalence inline; spot-check
    # the payload reflects a genuine measurement.
    assert metrics["hash_table"]["ops_per_sec_optimized"] > 0
    assert metrics["fleet"]["events_per_sec"] > 0
