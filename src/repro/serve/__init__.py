"""Live serving path: asyncio HTTP/1.1 over the MiniPHP renderer.

Everything else in this repo evaluates requests in *event-driven*
time; this package is the wall-clock substrate ROADMAP item 1 asks
for — real concurrent sockets in front of
:class:`~repro.runtime.interp.MiniPhpInterpreter` on the accelerated
backend, with the PR-1/PR-6 overload policies re-costed onto seconds:

* :mod:`repro.serve.httpd` — the server: routes ``/wordpress``,
  ``/drupal``, ``/mediawiki`` (seeded query params vary the render
  context), admission control, per-request deadlines, AIMD adaptive
  concurrency, and a rendered-fragment cache reusing the
  stampede defenses from :mod:`repro.fleet.cache_tier`
  (single-flight, stale-while-revalidate, TTL jitter).
* :mod:`repro.serve.loadclient` — an open-loop asyncio load driver
  holding thousands of keep-alive connections, with a retry budget
  capping client amplification.
* :mod:`repro.serve.arrivals` — the driver's diurnal/flash arrival
  shapes (those of :mod:`repro.fleet.overload`), free of asyncio so
  the calibration twin draws the same schedules.
* :mod:`repro.serve.telemetry` — a bounded per-request JSONL event
  stream (``repro-serve-telemetry/1``).
* :mod:`repro.serve.report` — the :class:`ServeReport` (goodput,
  wall-clock p50/p99/p999, cache hit ratio, shed/timeout counts, SLO
  verdict at the simulators' 95% bar) plus the
  ``repro-serve-history/1`` trajectory row.

Wall-clock access is only through :mod:`repro.core.clock` — the
DET001 lint rule stays blocking over this package.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "httpd": ("MiniPhpServer", "ServeConfig"),
    "loadclient": ("LoadConfig", "LoadResult", "run_load"),
    "report": (
        "SERVE_SCHEMA", "ServeReport", "append_serve_history",
        "validate_serve_payload",
    ),
    "run": ("run_serve",),
    "telemetry": ("TELEMETRY_SCHEMA", "TelemetryLog"),
})
