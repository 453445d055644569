"""The process under test: one workload's program side.

``run.py`` starts it as ``python3 perfbench/child.py MODE TRACE`` with
MODE one of ``serve``, ``eval``, ``des`` and TRACE ``0`` or ``1``.  It
imports the package from ``src/``, sets up, prints one ``ready`` JSON
line, then answers one JSON line per JSON command read from stdin.
Inputs arrive in the commands; nothing here draws its own workload.
Every import the timed work needs happens before ``ready``, so set-up
pays for it and the timed work does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict, is_dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402  (perfbench/ is sys.path[0])


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def commands():
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "exit":
            return
        yield cmd


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed_trace(tracer, work):
    """``(result, seconds, spans)`` of ``work()``.

    The clock is read outside every span, so the spans' self times and
    the wall time are separate measurements of the same interval.
    """
    before = tracer.snapshot() if tracer is not None else {}
    t0 = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - t0
    spans = (tracing.diff(tracer.snapshot(), before)
             if tracer is not None else {})
    return result, seconds, spans


# -- full-eval ---------------------------------------------------------------


def eval_main(tracer) -> None:
    from repro.core.expcache import EXPERIMENT_CACHE
    from repro.core.experiment import full_evaluation
    from repro.core.report import (
        energy_report,
        figure14_report,
        figure15_report,
    )
    from repro.workloads.apps import php_applications
    from repro.workloads.loadgen import TRACE_CACHE

    if tracer is not None:
        tracing.install_eval(tracer)
    # Both modes simulate every app's default request count.
    requests = 2 * sum(app.requests for app in php_applications())
    send({"ready": True})
    for cmd in commands():
        EXPERIMENT_CACHE.clear()
        TRACE_CACHE.clear()
        hits = EXPERIMENT_CACHE.stats.get("expcache.hits")
        results, seconds, spans = timed_trace(
            tracer, lambda: full_evaluation(seed=cmd["seed"], jobs=1))
        text = "\n".join([figure14_report(results), figure15_report(results),
                          energy_report(results)])
        send({
            "seconds": seconds,
            "requests": requests,
            "digest": digest(text),
            "expcache_hits": EXPERIMENT_CACHE.stats.get("expcache.hits") - hits,
            "specialized": sum(r.hash_specialized_fraction for r in results)
            / len(results),
            "trace": spans,
        })


# -- des-sims ----------------------------------------------------------------


def report_digest(report) -> str:
    """Digest of an engine's report: dataclasses as dicts, sorted keys."""
    def plain(obj):
        if is_dataclass(obj):
            return asdict(obj)
        if isinstance(obj, list):
            return [plain(item) for item in obj]
        return obj

    return digest(json.dumps(plain(report), sort_keys=True, default=repr))


def des_main(tracer) -> None:
    from repro.calibrate.twin import ground_truth_params, simulate_twin
    from repro.common.rng import DeterministicRng
    from repro.fleet import (
        CacheTierConfig,
        FleetConfig,
        homogeneous_fleet,
        run_fleet,
    )
    from repro.fleet.overload import (
        headline_scenarios,
        overload_topology,
        run_overload,
    )
    from repro.resilience import (
        ResilientServerConfig,
        run_matrix,
        standard_policies,
        standard_scenarios,
    )
    from repro.workloads.server import ServerConfig, latency_curve

    if tracer is not None:
        tracing.install_des(tracer)
        wrapped = {}

        def run(name, fn, *args):
            if name not in wrapped:
                wrapped[name] = tracer.wrap(name, fn)
            return wrapped[name](*args)
    else:
        def run(name, fn, *args):
            return fn(*args)

    def battery(seed: int, accel: list[float], soft: list[float]) -> dict:
        """One pass through every discrete-event engine's entry point.

        Returns per-engine ``(requests simulated, report)``.
        """
        out = {}
        fleet_cfg = FleetConfig(requests=16_000, warmup_requests=100)
        fleet = run("fleet.simulator", run_fleet, homogeneous_fleet(
            "accel-4", accel, nodes=4,
            cache=CacheTierConfig(shards=4, shard_capacity=256),
        ), fleet_cfg, seed)
        out["fleet.simulator"] = (
            fleet_cfg.requests + fleet_cfg.warmup_requests, fleet
        )
        overloads = [
            run("fleet.overload", run_overload, overload_topology(), cfg,
                seed, name)
            for name, cfg in headline_scenarios()
        ]
        out["fleet.overload"] = (
            sum(r.attempts for r in overloads), overloads
        )
        res_cfg = ResilientServerConfig(workers=4, requests=2_000,
                                        warmup_requests=30)
        scenarios, policies = standard_scenarios(), standard_policies()
        matrix = run("resilience.simulator", run_matrix, accel, soft,
                     scenarios, policies, res_cfg, seed)
        out["resilience.simulator"] = (
            len(scenarios) * len(policies)
            * (res_cfg.requests + res_cfg.warmup_requests),
            matrix,
        )
        rows = run("calibrate.twin", simulate_twin,
                   ground_truth_params(smoke=False, seed=seed),
                   DeterministicRng(seed))
        out["calibrate.twin"] = (len(rows), rows)
        curve_cfg = ServerConfig(requests=16_000)
        points = run("workloads.server", latency_curve, accel,
                     (0.3, 0.5, 0.7, 0.8, 0.9), curve_cfg, seed)
        out["workloads.server"] = (5 * curve_cfg.requests, points)
        return out

    send({"ready": True})
    for cmd in commands():
        engines, seconds, spans = timed_trace(
            tracer, lambda: battery(cmd["seed"], cmd["accel"], cmd["soft"]))
        send({
            "seconds": seconds,
            "engines": {name: (requests, report_digest(report))
                        for name, (requests, report) in engines.items()},
            "trace": spans,
        })


# -- serve-* -----------------------------------------------------------------


def serve_main(tracer) -> None:
    import asyncio

    from repro.serve.httpd import MiniPhpServer, ServeConfig

    render_fn = None
    if tracer is not None:
        tracing.install_serve(tracer)
        render_fn = tracing.traced_render_fn(tracer)
    server = MiniPhpServer(ServeConfig(), render_fn=render_fn)

    def telemetry_since(recorded: int) -> dict:
        """Sums over the events finished since ``recorded``."""
        log = server.telemetry
        fresh = list(log)[max(len(log) - (log.recorded - recorded), 0):]
        sums = {"rows": len(fresh), "total_ms": 0.0, "queue_wait_ms": 0.0,
                "render_ms": 0.0}
        for event in fresh:
            sums["total_ms"] += event.total_ms
            sums["queue_wait_ms"] += event.queue_wait_ms
            sums["render_ms"] += event.render_ms
        return sums

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        send({"ready": True, "port": server.port})
        recorded = 0
        while True:
            line = await reader.readline()
            if not line or json.loads(line)["op"] == "exit":
                break
            # A response's last byte can reach the client before its
            # telemetry row is recorded: let every dispatched request
            # record (for at most a second) before reporting.
            for _ in range(1000):
                if (server.telemetry.recorded
                        >= server.stats.get("serve.requests")):
                    break
                await asyncio.sleep(0.001)
            sums = telemetry_since(recorded)
            recorded = server.telemetry.recorded
            send({
                "telemetry": sums,
                "dropped": server.telemetry.dropped,
                "stats": server.stats.snapshot(),
                "trace": tracer.snapshot() if tracer is not None else {},
            })
        await server.stop()

    asyncio.run(main())


def main() -> None:
    mode, trace = sys.argv[1], sys.argv[2] == "1"
    tracer = tracing.Tracer() if trace else None
    {"serve": serve_main, "eval": eval_main, "des": des_main}[mode](tracer)
    send({"peak_rss_mb": peak_rss_mb()})


if __name__ == "__main__":
    main()
