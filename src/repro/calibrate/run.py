"""Orchestrate one calibration run: fit cells → twin → MAPE → what-if.

``python -m repro calibrate`` lands here.  The flow:

1. obtain a telemetry stream — either a measured
   ``repro-serve-telemetry/1`` JSONL (``--telemetry``) or, by default,
   the *self-consistency* stream: the fleet twin run under pinned
   ground-truth parameters at the seed (the CI gate — calibration
   must recover what generated the data);
2. fan the fit cells (one per route, plus the pooled service fit and
   the arrival-shape fit) over :func:`repro.core.parallel.map_cells`
   — results return in submission order, so the payload is
   byte-identical at any ``--jobs`` count;
3. re-run the twin under the *fitted* parameters and report the
   per-subsystem MAPE (goodput / p50 / p99 / hit ratio) between the
   twin's prediction and the measured summary;
4. answer the ``what_if`` capacity question: ``min_nodes_for_slo`` at
   the fitted peak render load under the fitted service distribution
   next to the textbook exponential assumption at the same mean;
5. write ``benchmarks/out/calibration.json`` + ``calibration.txt``
   and append a ``repro-calibrate-history/1`` row to
   ``BENCH_history.jsonl``.

Calibration *refuses* truncated telemetry (ring-dropped events beyond
:data:`~repro.calibrate.report.MAX_DROPPED_FRACTION`) unless told
otherwise — a stream whose head was dropped silently biases the
arrival shape and the tail fits; ``ServeReport.telemetry_dropped``
carries the producer-side count this check consumes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Optional

from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.calibrate.fit import (
    CalibrationError,
    exponential_sample,
    fit_arrivals,
    fit_route,
    fit_service,
    mape,
    summarize_rows,
)
from repro.calibrate.report import (
    MAPE_HIT_RATIO_BOUND,
    MAPE_P99_BOUND,
    MAX_DROPPED_FRACTION,
    CalibrationReport,
    append_calibrate_history,
    format_calibration_report,
    validate_calibration_payload,
)
from repro.calibrate.twin import (
    RouteParams,
    TwinParams,
    ground_truth_params,
    simulate_twin,
)
from repro.core.perf import HISTORY_PATH, OUT_DIR
from repro.serve.arrivals import ArrivalShape

#: Render workers the twin assumes (a structural knob, not fitted).
TWIN_WORKERS = 8

#: The what-if question: smallest fleet serving the fitted *peak*
#: render load with p99 within this multiple of the fitted mean.
WHAT_IF_SLO_MEANS = 4.0
WHAT_IF_MAX_NODES = 6


def _fit_cell(item: tuple) -> dict:
    """Module-level cell for process-pool fan-out (must pickle)."""
    kind, _key, data, extra = item
    if kind == "route":
        return fit_route(data, extra)
    if kind == "pooled":
        return fit_service(data)
    if kind == "arrivals":
        return fit_arrivals(
            data, duration_s=extra.get("duration_s"),
            period_s=extra.get("period_s"),
        )
    raise ValueError(f"unknown fit cell kind {kind!r}")


def _twin_params_from_fit(
    fitted: dict[str, Any], workers: int
) -> TwinParams:
    """Rebuild the twin under what calibration recovered."""
    routes = []
    for name in sorted(fitted["routes"]):
        fit = fitted["routes"][name]
        mix = fit["cache"]
        routes.append(RouteParams(
            name=name,
            weight=fit["weight"],
            service_ms=tuple(fit["service"]["sample_ms"]),
            hit_ratio=mix["hit"],
            stale_ratio=mix["stale"],
            coalesced_ratio=mix["coalesced"],
            hit_ms=max(fit["hit_ms"], 1e-3),
            bytes_out=max(fit["bytes_out"], 1),
        ))
    arrivals = fitted["arrivals"]
    shape = ArrivalShape(
        rate_rps=max(arrivals["base_rps"], 1e-3),
        duration_s=arrivals["duration_s"],
        flash_multiplier=max(1.0, arrivals["flash_multiplier"]),
        flash_start_s=arrivals["flash_start_s"],
        flash_duration_s=arrivals["flash_duration_s"],
        diurnal_amplitude=min(max(arrivals["diurnal_amplitude"], 0.0),
                              0.999),
        diurnal_period_s=arrivals["diurnal_period_s"],
    )
    return TwinParams(routes=tuple(routes), shape=shape,
                      workers=workers)


def _what_if(
    fitted: dict[str, Any], measured: dict[str, Any],
    seed: int, smoke: bool,
) -> dict[str, Any]:
    """``min_nodes_for_slo`` under fitted vs assumed distributions.

    Working units are milliseconds throughout (the fleet simulator is
    unitless); the arrival rate is the fitted *peak* render load —
    diurnal crest × flash multiplier × the measured miss share — so
    the capacity answer covers the worst traffic the fit saw.
    """
    from repro.fleet.simulator import FleetConfig, min_nodes_for_slo
    from repro.fleet.topology import homogeneous_fleet

    pooled = fitted["pooled_service"]
    arrivals = fitted["arrivals"]
    outcomes = measured["outcomes"]
    render_path = sum(
        outcomes.get(o, 0)
        for o in ("hit", "stale", "miss", "coalesced")
    )
    miss_share = (
        outcomes.get("miss", 0) / render_path if render_path else 0.0
    )
    peak_rps = (
        arrivals["base_rps"]
        * (1.0 + arrivals["diurnal_amplitude"])
        * arrivals["flash_multiplier"]
    )
    render_rps = max(peak_rps * miss_share, 1e-3)
    slo_ms = WHAT_IF_SLO_MEANS * pooled["mean_ms"]
    config = FleetConfig(
        requests=400 if smoke else 1_200,
        warmup_requests=24,
        key_population=512,
        max_queue=128,
    )
    fitted_sample = tuple(pooled["sample_ms"])
    assumed_sample = exponential_sample(pooled["mean_ms"])
    nodes = {}
    for label, sample in (("fitted", fitted_sample),
                          ("assumed", assumed_sample)):
        nodes[label] = min_nodes_for_slo(
            lambda n, s=sample, lb=label: homogeneous_fleet(
                f"calibrated-{lb}-{n}", s, nodes=n
            ),
            arrival_rate=render_rps / 1000.0,
            slo_latency=slo_ms,
            config=config,
            seed=seed,
            max_nodes=WHAT_IF_MAX_NODES,
        )
    return {
        "render_rps": render_rps,
        "miss_share": miss_share,
        "slo_latency_ms": slo_ms,
        "max_nodes": WHAT_IF_MAX_NODES,
        "nodes_fitted": nodes["fitted"],
        "nodes_assumed": nodes["assumed"],
    }


def calibrate_rows(
    rows: list[dict],
    *,
    seed: int = DEFAULT_SEED,
    smoke: bool = True,
    jobs: Optional[int] = None,
    source: str = "rows",
    telemetry_dropped: int = 0,
    allow_truncated: bool = False,
    duration_s: Optional[float] = None,
    period_s: Optional[float] = None,
    workers: int = TWIN_WORKERS,
    reference_rows: Optional[list[dict]] = None,
) -> CalibrationReport:
    """Fit one telemetry stream and score the twin against it.

    ``reference_rows`` (when given) is the measured summary the
    prediction is scored against — the superset-monotonicity
    invariant fits a subset while keeping the full stream as the
    reference.  Raises :class:`CalibrationError` for empty streams
    and for truncated ones unless ``allow_truncated``.
    """
    from repro.core.parallel import map_cells

    if not rows:
        raise CalibrationError("no telemetry events to calibrate against")
    recorded = len(rows) + telemetry_dropped
    if telemetry_dropped and not allow_truncated:
        fraction = telemetry_dropped / recorded
        if fraction > MAX_DROPPED_FRACTION:
            raise CalibrationError(
                f"telemetry ring dropped {telemetry_dropped} of "
                f"{recorded} events ({fraction:.1%} > "
                f"{MAX_DROPPED_FRACTION:.0%}); the head of the run is "
                f"gone — refusing to fit (pass allow_truncated=True "
                f"to override)"
            )
    measured = summarize_rows(reference_rows or rows)
    by_route: dict[str, list[dict]] = {}
    for row in rows:
        by_route.setdefault(str(row["route"]), []).append(row)
    renders = [
        float(row["render_ms"]) for row in rows
        if row.get("cache") == "miss" and float(row["render_ms"]) > 0.0
    ]
    if not renders:
        raise CalibrationError(
            "telemetry holds no rendered (miss) requests; nothing to "
            "fit service times from"
        )
    t_ms = [float(row["t_ms"]) for row in rows]
    shape_spec = {"duration_s": duration_s, "period_s": period_s}
    items: list[tuple] = [
        ("route", name, by_route[name], len(rows))
        for name in sorted(by_route)
    ]
    items.append(("pooled", "*", renders, None))
    items.append(("arrivals", "*", t_ms, shape_spec))
    cells = map_cells(_fit_cell, items, jobs=jobs,
                      label="calibrate-fit")
    fitted: dict[str, Any] = {"routes": {}, "workers": workers}
    for item, cell in zip(items, cells):
        kind, key = item[0], item[1]
        if kind == "route":
            fitted["routes"][key] = cell
        elif kind == "pooled":
            fitted["pooled_service"] = cell
        else:
            fitted["arrivals"] = cell
    params = _twin_params_from_fit(fitted, workers)
    predicted = summarize_rows(simulate_twin(
        params, DeterministicRng(seed).fork("calibrate/predict")
    ))
    errors = {
        "goodput": mape(predicted["goodput_rps"],
                        measured["goodput_rps"]),
        "p50": mape(predicted["p50_ms"], measured["p50_ms"]),
        "p99": mape(predicted["p99_ms"], measured["p99_ms"]),
        "hit_ratio": mape(predicted["hit_ratio"],
                          measured["hit_ratio"]),
        "arrival_curve": fitted["arrivals"]["curve_mape"],
    }
    errors["overall"] = (
        errors["goodput"] + errors["p50"] + errors["p99"]
        + errors["hit_ratio"]
    ) / 4.0
    report = CalibrationReport(
        mode="smoke" if smoke else "full",
        seed=seed,
        source=source,
        events=len(rows),
        telemetry_dropped=telemetry_dropped,
        fitted=fitted,
        measured=measured,
        predicted=predicted,
        mape=errors,
        what_if=_what_if(fitted, measured, seed, smoke),
    )
    report.ok = (
        math.isfinite(errors["overall"])
        and errors["p99"] <= MAPE_P99_BOUND
        and errors["hit_ratio"] <= MAPE_HIT_RATIO_BOUND
    )
    return report


def _self_test_section(
    truth: TwinParams, fitted: dict[str, Any]
) -> dict[str, Any]:
    """Generating params next to recovery errors (twin-self runs)."""
    mean_errs = []
    truth_by_name = {r.name: r for r in truth.routes}
    for name, fit in fitted["routes"].items():
        true_route = truth_by_name[name]
        true_mean = sum(true_route.service_ms) / len(true_route.service_ms)
        mean_errs.append(mape(fit["service"]["mean_ms"], true_mean))
    arrivals = fitted["arrivals"]
    return {
        "truth": {
            "base_rps": truth.shape.rate_rps,
            "diurnal_amplitude": truth.shape.diurnal_amplitude,
            "flash_multiplier": truth.shape.flash_multiplier,
            "routes": {
                r.name: {
                    "weight": r.weight,
                    "mean_ms": sum(r.service_ms) / len(r.service_ms),
                    "hit_ratio": r.hit_ratio,
                } for r in truth.routes
            },
        },
        "recovery": {
            "service_mean_err": max(mean_errs),
            "amplitude_abs_err": abs(
                arrivals["diurnal_amplitude"]
                - truth.shape.diurnal_amplitude
            ),
            "flash_multiplier_err": mape(
                arrivals["flash_multiplier"],
                truth.shape.flash_multiplier,
            ),
        },
    }


def self_calibrate(
    seed: int = DEFAULT_SEED,
    smoke: bool = True,
    jobs: Optional[int] = None,
) -> CalibrationReport:
    """The self-consistency loop: twin → telemetry → fit → twin.

    Generates telemetry from the twin under pinned ground truth, then
    calibrates against it — the fitted parameters must reproduce the
    stream they came from within the MAPE bounds.  This is the
    deterministic CI gate (`python -m repro calibrate --smoke`).
    """
    truth = ground_truth_params(smoke)
    rows = simulate_twin(
        truth, DeterministicRng(seed).fork("calibrate/truth")
    )
    report = calibrate_rows(
        rows, seed=seed, smoke=smoke, jobs=jobs, source="twin-self",
        duration_s=truth.shape.duration_s,
        period_s=truth.shape.diurnal_period_s,
        workers=truth.workers,
    )
    report.self_test = _self_test_section(truth, report.fitted)
    return report


def history_context(path: Optional[Path] = None) -> Optional[dict]:
    """The latest serve/perf history rows calibration ran alongside.

    The trajectory file is the ``FleetReport``/``ServeReport`` history
    the calibrator consumes for drift context: the newest serve row's
    goodput/p99/hit-ratio land in the payload so a reader can compare
    the twin's prediction error against what production measured.
    """
    path = path or HISTORY_PATH
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    latest: dict[str, dict] = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        schema = str(row.get("schema", ""))
        if schema == "repro-serve-history/1":
            latest["serve"] = {
                "recorded_utc": row.get("recorded_utc"),
                "goodput_rps": row.get("goodput_rps"),
                "p99_ms": row.get("p99_ms"),
                "cache_hit_ratio": row.get("cache_hit_ratio"),
            }
        elif schema == "repro-perf-history/1":
            latest["perf"] = {
                "recorded_utc": row.get("recorded_utc"),
                "e2e_speedup": row.get("e2e_speedup"),
            }
    return latest or None


def run_calibrate(
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
    telemetry: Optional[str | Path] = None,
    telemetry_dropped: int = 0,
    allow_truncated: bool = False,
    out_dir: Optional[Path] = None,
    history_path: Optional[Path] = None,
    append_history: bool = True,
) -> dict[str, Any]:
    """One full calibration run; returns the validated payload.

    Without ``telemetry`` this is the self-consistency gate (twin
    stream at the pinned seed); with it, a measured JSONL is fitted
    and the twin's prediction error against production is reported.
    ``telemetry_dropped`` carries the producer's ring-drop count
    (``ServeReport.telemetry_dropped``) into the refusal check.
    """
    from repro.serve.telemetry import TelemetryLog

    if telemetry is not None:
        telemetry = Path(telemetry)
        if not telemetry.is_file():
            raise CalibrationError(
                f"telemetry file not found: {telemetry}"
            )
        rows = TelemetryLog.read_jsonl(telemetry)
        report = calibrate_rows(
            rows, seed=seed, smoke=smoke, jobs=jobs,
            source=str(telemetry),
            telemetry_dropped=telemetry_dropped,
            allow_truncated=allow_truncated,
        )
    else:
        report = self_calibrate(seed=seed, smoke=smoke, jobs=jobs)
    report.history_context = history_context(history_path)
    payload = report.to_payload()
    validate_calibration_payload(payload)
    out = Path(out_dir) if out_dir is not None else OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    (out / "calibration.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (out / "calibration.txt").write_text(
        format_calibration_report(payload) + "\n"
    )
    if append_history:
        append_calibrate_history(payload, path=history_path)
    return payload
