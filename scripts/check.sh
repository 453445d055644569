#!/usr/bin/env bash
# Repo health check: lint (when ruff is available) + the tier-1 suite.
#
# Usage: scripts/check.sh
# Exits non-zero if lint or tests fail. ruff is optional tooling — the
# container image does not ship it and the repo policy forbids
# installing packages, so the lint step is skipped with a notice when
# the module is missing.

set -euo pipefail
cd "$(dirname "$0")/.."

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests benchmarks
    else
        python -m ruff check src tests benchmarks
    fi
else
    echo "== ruff: not installed, skipping lint =="
fi

echo "== repro lint =="
# Static analysis: determinism (DET0xx), pool purity (POOL0xx), cache
# soundness (KEY0xx), async safety (ASY0xx), schema contracts
# (SCH0xx). Blocking; the repro-lint/2 JSON payload is kept for the
# CI artifact upload whether or not the gate passes.
mkdir -p benchmarks/out/lint
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro lint --json > benchmarks/out/lint/findings.json \
    || { cat benchmarks/out/lint/findings.json; exit 1; }
# One-line per-family count table, re-validated through the payload's
# own schema checker; lands in the lint artifact next to the payload.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY' \
    | tee benchmarks/out/lint/summary.txt
import json
from repro.analysis import RULES, rule_family, validate_lint_payload
with open("benchmarks/out/lint/findings.json") as fh:
    payload = json.load(fh)
validate_lint_payload(payload)
families = sorted({rule_family(rule) for rule in RULES})
cells = "  ".join(
    f"{family}={payload['families'].get(family, 0)}"
    for family in families
)
print(f"lint families: {cells}  (total={len(payload['findings'])})")
PY
echo "repro lint clean"

echo "== tier-1 tests =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

echo "== figure replay =="
# The paper tables regenerate byte for byte from the CLI's defaults:
# a changed draw, checksum or examined-character count fails here.
for pair in fig12:fig12_regex_opportunity fig14:fig14_speedup \
            fig15:fig15_benefit_breakdown energy:energy_savings; do
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m repro "${pair%%:*}" | diff - "benchmarks/out/${pair#*:}.txt"
done
echo "figure replay ok"

echo "== fleet smoke =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro fleet --smoke --requests 2 >/dev/null
echo "fleet smoke ok"

echo "== perf smoke =="
# Schema validation only (run_perf validates its payload); speedup
# floors are asserted by benchmarks/bench_perf.py on real hardware,
# never here — shared-runner wall-clock ratios are unreliable.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro backends
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro perf --smoke >/dev/null
echo "perf smoke ok"

echo "== overload smoke =="
# Metastability demo: the undefended flash-crowd + retry-storm run
# must read METASTABLE and the defended run must recover; the report
# lands in benchmarks/out/ for the CI artifact upload.
mkdir -p benchmarks/out
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro overload --smoke > benchmarks/out/overload_smoke.txt
grep -q "METASTABLE" benchmarks/out/overload_smoke.txt
echo "overload smoke ok"

echo "== serve smoke =="
# Live serving gate (blocking): a real asyncio HTTP server under 1k
# keep-alive connections of open-loop load must clear the 95% goodput
# SLO and the served-bytes oracle. The report and per-request
# telemetry land in benchmarks/out/ for the CI artifact upload.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro serve --bench --smoke > benchmarks/out/serve_smoke.txt
grep -q "PASS" benchmarks/out/serve_smoke.txt
echo "serve smoke ok"

echo "== calibrate smoke =="
# Digital-twin calibration gate (blocking): the twin generates
# telemetry from known ground truth, the fitters recover it blind,
# and the fitted twin's predictions must land inside the pinned MAPE
# bounds (p99 and hit ratio <= 10%). calibration.json lands in
# benchmarks/out/ for the CI artifact upload.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro calibrate --smoke > benchmarks/out/calibrate_smoke.txt
grep -q "PASS" benchmarks/out/calibrate_smoke.txt
test -s benchmarks/out/calibration.json
echo "calibrate smoke ok"

echo "== conformance smoke =="
# Differential oracles + simulator invariants; exits non-zero on any
# divergence and writes shrunk repros to benchmarks/out/conformance/
# for the CI artifact upload.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m repro conform --smoke >/dev/null
echo "conformance smoke ok"
