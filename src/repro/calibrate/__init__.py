"""Digital-twin calibration: fit the fleet simulator to telemetry.

The loop (ROADMAP item 3): the serving path measures, the calibrator
fits per-route service-time distributions / fragment-cache ratios /
arrival-shape parameters from ``repro-serve-telemetry/1`` streams,
and the twin re-predicts under the fitted knobs so the prediction
error (MAPE) is a first-class, regression-tracked number.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "fit": (
        "CalibrationError", "exponential_sample", "fit_arrivals", "fit_cache",
        "fit_route", "fit_service", "mape", "summarize_rows",
    ),
    "report": (
        "CALIBRATE_HISTORY_SCHEMA", "CALIBRATE_SCHEMA", "MAPE_HIT_RATIO_BOUND",
        "MAPE_P99_BOUND", "MAX_DROPPED_FRACTION", "CalibrationReport",
        "append_calibrate_history", "calibrate_history_row",
        "format_calibration_report", "validate_calibrate_history_row",
        "validate_calibration_payload",
    ),
    "run": (
        "calibrate_rows", "history_context", "run_calibrate", "self_calibrate",
    ),
    "twin": (
        "RouteParams", "TwinParams", "ground_truth_params", "simulate_twin",
    ),
})
