"""Benchmark entry point: one seeded workload, measured or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test runs in its own
process (``child.py``); this process generates the inputs from
``--seed``, drives the load, checks every output and prints, as its
last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` is a separate run that installs
the span wrappers of ``tracer.py`` and reports the per-layer metrics.
``--seconds`` is how long one run measures; ``run_seconds`` in
``BENCHMARK.json`` pins it, so every commit is measured over the same
windows.  ``README.md`` beside this file says why each workload exists
and what each metric means on it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

from httpgen import Generator, clock
from tracer import diff

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Keep-alive connections of the load generator (the host's core count).
CONNECTIONS = 2
#: The process under test runs on SERVER_CPU and this process, the load
#: generator, on the others, so the two never contend for a core; the
#: host-speed loop runs on SERVER_CPU, where the timed work runs.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = CPUS[0]
GENERATOR_CPUS = set(CPUS[1:]) or {SERVER_CPU}
#: Launches of the process under test per serve-* run; setup_s is
#: their median.
SETUP_LAUNCHES = 3
#: full-eval and des-sims map the seed onto this many input seeds, each
#: with its report digests recorded in goldens.json.
GOLDEN_SEEDS = 16
#: A layer part may read this share of the traced e2e time below zero
#: (clock reads on different threads) before the traced run is rejected.
TRACE_TOLERANCE = 0.02
#: Highest share of the traced e2e time no span may cover, per
#: workload; above it, a layer that works there went untraced.  On
#: serve-* the unattributed part is what no server clock sees (socket
#: transfer, the event loop noticing a request): about 0.15 of a render
#: and 0.4 of a cache hit with the generator on its own CPU.
MAX_UNATTRIBUTED = {"serve-render": 0.4, "serve-cached": 0.6,
                    "full-eval": 0.1, "des-sims": 0.1}
SERVE = {
    # rate: open-loop arrivals/s; limit_ms: goodput latency limit;
    # max_lag_ms: an open-loop segment whose generator lag p99 exceeds
    # this measured the generator and is left out.  serve-render
    # offers about a quarter of its capacity: at half, queueing turned
    # the host's speed swings into a tail no run could pin down.
    "serve-render": {"rate": 100.0, "limit_ms": 50.0, "max_lag_ms": 5.0},
    "serve-cached": {"rate": 600.0, "limit_ms": 10.0, "max_lag_ms": 2.0,
                     "keys": 48},
}
APPS = ("wordpress", "drupal", "mediawiki")
#: A serve-* run alternates two kinds of segment, each at most this
#: long: closed and open loop when measured, an untraced and a traced
#: server's open loop when traced.  Both kinds then sample the same
#: stretches of host noise, and capacity is a median over segments.
SEGMENT_S = 4.0
#: serve-cached warms a fresh key set just before each segment and
#: refuses a segment that, with this margin for warm-up and drain,
#: would outlive the fragment cache's shortest TTL: a stale entry
#: serves the right bytes but starts a background render the workload
#: must not have.
TTL_MARGIN_S = 1.0
#: One serve-render response in this many has its bytes checked.
RENDER_SAMPLE_EVERY = 40
#: Host-speed reference.  A shared host changes speed by up to 2x for
#: minutes at a time (other tenants' load), which no run length
#: averages out.  So around its CPU-bound timed parts (passes, set-up,
#: closed-loop segments, traced spans) a run times a fixed pure-Python
#: loop for REFERENCE_S, in this process, and reports each such time as
#: it would read with the loop at REFERENCE_RATE iterations per second:
#: a time t measured while the loop ran at rate r is reported as
#: t * r / REFERENCE_RATE, and a rate is divided by the same factor.
#: The program's code never runs in the loop, so a change to it moves
#: the scaled metrics as it moves the raw ones.
REFERENCE_RATE = 4000.0
REFERENCE_S = 0.25

KERNELS = (
    "hash.probe_window", "heap.hmfree", "heap.hmmalloc", "regex.resume",
    "regex.search", "regex.state_after", "string.char_class_bitmap",
    "string.compare", "string.find", "string.html_escape",
    "string.matrix_for_block",
)
DES_ENGINES = ("fleet.simulator", "fleet.overload", "resilience.simulator",
               "calibrate.twin", "workloads.server")

#: Each rate name is native to one workload: capacity_rps to serve-*,
#: eval_requests_per_s to full-eval, des_requests_per_s to des-sims.
#: Every run reports every end-to-end metric, so on the other workloads
#: a rate name carries that workload's own requests per host second.
RATES = ("capacity_rps", "eval_requests_per_s", "des_requests_per_s")
END_TO_END = (
    [(name, "1/s") for name in RATES]
    + [("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
       ("goodput_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
)
PER_LAYER = (
    [("serve.httpd.requests", "count"), ("serve.httpd.self_ms", "ms"),
     ("serve.httpd.render_wait_ms", "ms"), ("serve.httpd.shed", "count"),
     ("serve.cache.probes", "count"), ("serve.cache.hit_ratio", "ratio"),
     ("serve.cache.probe_us", "us"), ("serve.cache.fills", "count"),
     ("serve.cache.fill_us", "us"), ("serve.telemetry.record_us", "us"),
     ("serve.telemetry.dropped", "count"),
     ("workloads.templates.renders", "count"),
     ("workloads.templates.render_ms", "ms"),
     ("workloads.templates.self_ms", "ms"),
     ("workloads.templates.build_variables_ms", "ms"),
     ("workloads.text.self_ms", "ms"),
     ("runtime.interp.render_self_ms", "ms"),
     ("runtime.interp.calls", "count"), ("runtime.interp.var_gets", "count"),
     ("isa.dispatch.complex_init_ms", "ms")]
    + [(f"accel.{k}.{m}", u) for k in KERNELS
       for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"accel.{k}.bytes", "bytes") for k in KERNELS
       if k.startswith("string.")]
    + [("accel.regex_accel.sift_ms", "ms"), ("accel.kernel_share", "ratio"),
       ("accel.amdahl_ceiling_x", "x"),
       ("workloads.loadgen.trace_ms", "ms"),
       ("workloads.loadgen.ops", "count")]
    + [(f"core.execute.{c}_{m}", u) for c in ("hash", "heap", "string", "regex")
       for m, u in (("ms", "ms"), ("ops", "count"))]
    + [("optim.inline_cache.filter_ms", "ms"),
       ("optim.inline_cache.specialized_ratio", "ratio")]
    + [(f"{e}.us_per_request", "us") for e in DES_ENGINES]
    + [("fleet.cache_tier.probe_us", "us"),
       ("fleet.cache_tier.probes", "count"),
       ("fleet.balancer.pick_us", "us"), ("fleet.balancer.picks", "count"),
       ("bench.generator.lag_p99_ms", "ms"),
       ("bench.generator.cpu_share", "ratio"),
       ("bench.trace.e2e_ms", "ms"),
       ("bench.trace.overhead_ratio", "ratio"),
       ("bench.trace.unattributed_share", "ratio"),
       ("core.expcache.hits", "count")]
)


class InvalidRun(Exception):
    """The measurement itself failed its validity checks."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def rates(value: float) -> dict:
    return dict.fromkeys(RATES, value)


def note(text: str) -> None:
    """A human-readable line ahead of the result line."""
    print(f"perfbench: {text}", flush=True)


def host_speed() -> float:
    """Iterations per second of the fixed reference loop on SERVER_CPU."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {SERVER_CPU})
    try:
        start = clock()
        n = 0
        while clock() - start < REFERENCE_S:
            counts: dict = {}
            for j in range(2000):
                counts[j & 255] = counts.get(j & 255, 0) + j
            "".join(str(j) for j in range(200))
            n += 1
        return n / (clock() - start)
    finally:
        os.sched_setaffinity(0, own)


class HostSpeed:
    """Host-speed readings taken between the timed parts of a run."""

    def __init__(self) -> None:
        self.last = host_speed()

    def scale(self) -> float:
        """Factor for what was timed since the previous reading: the mean
        of the readings on either side of it over ``REFERENCE_RATE``."""
        now = host_speed()
        factor = (self.last + now) / 2.0 / REFERENCE_RATE
        self.last = now
        return factor


def scale_times(values: dict, factor: float) -> dict:
    """Per-layer times scaled to the reference host speed.

    Generator lag stays in real time: it judges the generator against
    its own schedule.
    """
    units = dict(PER_LAYER)
    return {name: value * factor
            if units.get(name) in ("ms", "us")
            and not name.startswith("bench.generator.") else value
            for name, value in values.items()}


# -- the process under test --------------------------------------------------


class Child:
    """``child.py`` in one mode, spoken to over JSON lines."""

    def __init__(self, mode: str, trace: bool) -> None:
        self.t_launch = clock()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), mode,
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {SERVER_CPU}),
        )
        self.ready = self.read()
        self.setup_s = clock() - self.t_launch

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"process under test exited with code {self.proc.returncode}"
            )
        return json.loads(line)

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> float:
        """Stop the process; return its peak RSS in MB."""
        try:
            final = self.ask(op="exit")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
            return final["peak_rss_mb"]
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def launch(mode: str, trace: bool, warm=None):
    """Start the process under test ``SETUP_LAUNCHES`` times.

    Returns the last one and the median set-up time, where set-up runs
    from launch to ready (imports, bind) plus ``warm(child)``.
    """
    times = []
    for i in range(SETUP_LAUNCHES):
        child = Child(mode, trace)
        if warm is not None:
            try:
                warm(child)
            except BaseException:
                child.close()
                raise
        times.append(clock() - child.t_launch)
        if i < SETUP_LAUNCHES - 1:
            child.close()
    return child, statistics.median(times)


# -- serve-* -----------------------------------------------------------------


def ttl_floor_s() -> float:
    """Shortest fragment-cache TTL of the default server, in seconds."""
    from repro.serve.httpd import ServeConfig

    cfg = ServeConfig()
    return (cfg.cache.ttl_services * cfg.service_estimate_s
            * (1.0 - cfg.cache.ttl_jitter))


def render_expected(keys) -> dict:
    """Bytes the server must send for each ``(app, seed, vary)``."""
    from repro.workloads.templates import render_http_page

    return {key: render_http_page(*key)[0].encode("utf-8") for key in keys}


def encode(key) -> bytes:
    app, seed, vary = key
    return (f"GET /{app}?seed={seed}&vary={vary} HTTP/1.1\r\n"
            f"Host: localhost\r\n\r\n").encode("ascii")


class ServePlan:
    """Seeded request keys for one serve-* run, and their checks.

    ``phases`` names the run's segments.  serve-render draws fresh pages
    for each; serve-cached gives each a fresh set of ``keys`` pages,
    rendered here in set-up as the bytes every response must match.
    """

    def __init__(self, workload: str, seed: int, phases: list) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.cached = workload == "serve-cached"
        # Each phase draws vary values from its own range, so no two
        # phases share a page.
        self.offset = {p: i for i, p in enumerate(["warm", *phases])}
        if self.cached:
            n = SERVE[workload]["keys"]
            self.sets = {p: [self._key(p, i) for i in range(n)]
                         for p in phases}
            self.expected = render_expected(
                [key for keys in self.sets.values() for key in keys])
        self.sample_phase = self.rng.randrange(RENDER_SAMPLE_EVERY)
        self.sampled: dict = {}
        self.keys: dict = {}

    def _key(self, phase: str, i: int) -> tuple:
        return (self.rng.choice(APPS), self.rng.randrange(1 << 20),
                self.offset[phase] * 10_000_000 + i)

    def payloads(self, phase: str):
        """Request ``i`` of ``phase`` as bytes, drawn lazily from the rng."""
        keys = self.keys.setdefault(phase, [])
        pool = self.sets.get(phase) if self.cached else None

        def payload(i: int) -> bytes:
            while len(keys) <= i:
                keys.append(self.rng.choice(pool) if pool is not None
                            else self._key(phase, len(keys)))
            return encode(keys[i])

        return payload

    def check(self, phase: str, response) -> bool:
        """Is this response right?  Render samples are kept for later."""
        if response.status != 200:
            return False
        key = self.keys[phase][response.index]
        if self.cached:
            return response.body == self.expected[key]
        if response.index % RENDER_SAMPLE_EVERY == self.sample_phase:
            self.sampled[key] = response.body
        body = response.body
        return body.startswith(b"<!doctype html>") and body.endswith(
            b"</html>")

    def check_samples(self) -> int:
        """Byte-compare the sampled renders; return the mismatch count."""
        expected = render_expected(list(self.sampled))
        return sum(expected[k] != body for k, body in self.sampled.items())


def warm_serve(plan: ServePlan, phase: str, renders: int = 6):
    """Fetch ``phase``'s cache keys (or a few renders) once, untimed."""
    def warm(child: Child) -> None:
        gen = Generator(child.ready["port"], 1)
        try:
            if plan.cached:
                keys = plan.sets[phase]
                done = gen.sequential(lambda i: encode(keys[i]), len(keys))
            else:
                done = gen.sequential(plan.payloads("warm"), renders)
        finally:
            gen.close()
        if any(r.status != 200 for r in done):
            raise RuntimeError("warm-up request failed")
    return warm


def segments(workload: str, seconds: float, kinds: tuple) -> tuple:
    """Phase names of alternating segments filling ``seconds``, and
    the length of each."""
    pairs = max(1, math.ceil(seconds / (len(kinds) * SEGMENT_S)))
    length = seconds / (len(kinds) * pairs)
    if workload == "serve-cached" and length + TTL_MARGIN_S > ttl_floor_s():
        raise InvalidRun(f"{length:.1f} s segments outlive the shortest "
                         f"fragment-cache TTL ({ttl_floor_s():.1f} s)")
    return [f"{kind}{i}" for i in range(pairs) for kind in kinds], length


def poisson_due(rng: random.Random, rate: float, seconds: float) -> list:
    due, t = [], rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_closed(port, plan: ServePlan, phase: str, seconds: float,
               tally: Tally) -> tuple:
    """Closed-loop capacity: verified 200s per second in the window.

    Returns the rate and the number of responses it counts.
    """
    gen = Generator(port, CONNECTIONS)
    try:
        start, end, done = gen.closed_loop(plan.payloads(phase), seconds)
    finally:
        gen.close()
    sent = max((r.index for r in done), default=-1) + 1
    good = [r for r in done if plan.check(phase, r)]
    tally.attempted += sent
    tally.failed += sent - len(good)
    inside = [r.done for r in good if r.done <= end]
    return len(inside) / (max(inside) - start), len(inside)


def run_open(port, plan: ServePlan, phase: str, seconds: float,
             tally: Tally) -> dict:
    """Open loop at the workload's rate: latencies from each due instant."""
    due = poisson_due(plan.rng, SERVE[plan.workload]["rate"], seconds)
    gen = Generator(port, CONNECTIONS)
    cpu0, wall0 = time.process_time(), clock()
    try:
        _, _, done, lags = gen.open_loop(plan.payloads(phase), due)
    finally:
        gen.close()
    good = [r for r in done if plan.check(phase, r)]
    tally.attempted += len(due)
    tally.failed += len(due) - len(good)
    return {
        "offered": len(due),
        "latency_ms": [(r.done - r.due) * 1000.0 for r in good],
        "service_ms": [(r.done - r.sent) * 1000.0 for r in good],
        "lags": lags, "cpu_s": time.process_time() - cpu0,
        "wall_s": clock() - wall0,
    }


def open_summary(workload: str, opens: list) -> dict:
    """Pooled percentiles, goodput and generator lag of open segments.

    A segment whose generator lag p99 exceeds the workload's
    ``max_lag_ms`` measured the generator, not the server: it is left
    out, and a run that loses more than half its segments is invalid.
    Latencies stay in wall-clock time: much of a request's wait (the
    GIL switch interval, socket wake-ups) does not follow host speed,
    and scaling it spread the percentiles wider.
    """
    max_lag = SERVE[workload]["max_lag_ms"]
    kept = [o for o in opens
            if percentile(o["lags"], 99) * 1000.0 <= max_lag]
    if 2 * len(kept) < len(opens):
        raise InvalidRun(f"generator fell behind (lag p99 over {max_lag} "
                         f"ms) in {len(opens) - len(kept)} of {len(opens)} "
                         f"open-loop segments")
    latency = [ms for o in kept for ms in o["latency_ms"]]
    limit = SERVE[workload]["limit_ms"]
    return {
        "p50": percentile(latency, 50), "p90": percentile(latency, 90),
        "samples": len(latency), "dropped": len(opens) - len(kept),
        "goodput": sum(ms <= limit for ms in latency)
        / sum(o["offered"] for o in kept),
        "service_ms": [ms for o in kept for ms in o["service_ms"]],
        "lag_p99_ms": percentile([lag for o in kept for lag in o["lags"]],
                                 99) * 1000.0,
        "cpu_share": sum(o["cpu_s"] for o in kept)
        / sum(o["wall_s"] for o in kept),
    }


def serve_measured(workload: str, seed: int, seconds: float) -> tuple:
    """Closed-loop segments alternating with open-loop segments."""
    phases, length = segments(workload, seconds, ("closed", "open"))
    plan = ServePlan(workload, seed, phases)
    tally = Tally()
    capacities, responses, opens = [], 0, []
    speed = HostSpeed()
    child, setup_s = launch("serve", False, warm_serve(plan, phases[0]))
    try:
        setup_s *= speed.scale()
        port = child.ready["port"]
        for i, phase in enumerate(phases):
            if plan.cached and i:
                warm_serve(plan, phase)(child)
            if phase.startswith("closed"):
                speed = HostSpeed()
                capacity, counted = run_closed(port, plan, phase, length,
                                               tally)
                capacities.append(capacity / speed.scale())
                responses += counted
            else:
                opens.append(run_open(port, plan, phase, length, tally))
    finally:
        rss = child.close()
    if not plan.cached:
        tally.failed += plan.check_samples()
    lat = open_summary(workload, opens)
    note(f"{workload}: capacity is the median of {len(capacities)} "
         f"closed-loop segments ({responses} responses); p50/p90 over "
         f"{lat['samples']} open-loop samples at "
         f"{SERVE[workload]['rate']:g}/s ({lat['dropped']} segments "
         f"left out for generator lag)")
    metrics = rates(statistics.median(capacities))
    metrics.update({
        "latency_p50_ms": lat["p50"], "latency_p90_ms": lat["p90"],
        "goodput_ratio": lat["goodput"], "setup_s": setup_s,
        "peak_rss_mb": rss,
    })
    return tally, metrics


def serve_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Open-loop segments alternating between an untraced and a traced
    server, so the tracing overhead compares like with like."""
    phases, length = segments(workload, seconds, ("untraced", "traced"))
    plan = ServePlan(workload, seed, phases)
    tally = Tally()
    opens: dict = {"untraced": [], "traced": []}
    marks = []
    speed = HostSpeed()
    servers = {"untraced": Child("serve", False)}
    try:
        servers["traced"] = Child("serve", True)
        for i, phase in enumerate(phases):
            kind = phase.rstrip("0123456789")
            server = servers[kind]
            if plan.cached or i < 2:
                warm_serve(plan, phase)(server)
            if kind == "traced":
                before = server.ask(op="mark")
            opens[kind].append(run_open(server.ready["port"], plan, phase,
                                        length, tally))
            if kind == "traced":
                marks.append((before, server.ask(op="mark")))
            opens[kind][-1]["scale"] = speed.scale()
    finally:
        for server in servers.values():
            server.close()
    if not plan.cached:
        tally.failed += plan.check_samples()
    untraced = open_summary(workload, opens["untraced"])
    traced = open_summary(workload, opens["traced"])
    # The breakdown compares the client's clock with the server's over
    # every traced segment; its times are scaled as a whole afterwards.
    layers = serve_layers(workload, marks, [
        ms for o in opens["traced"] for ms in o["service_ms"]])
    layers["bench.generator.lag_p99_ms"] = untraced["lag_p99_ms"]
    layers["bench.generator.cpu_share"] = untraced["cpu_share"]
    layers["bench.trace.overhead_ratio"] = (
        statistics.fmean(traced["service_ms"])
        / statistics.fmean(untraced["service_ms"])
    )
    return tally, scale_times(layers, statistics.median(
        o["scale"] for o in opens["traced"]))


# -- layer arithmetic --------------------------------------------------------


def trace_sum(diffs: list[dict]) -> dict:
    out: dict = {}
    for d in diffs:
        for name, row in d.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += row[i]
    return out


class Spans:
    """Read access to merged ``[calls, total_s, self_s, bytes]`` rows."""

    def __init__(self, rows: dict) -> None:
        self.rows = rows

    def _get(self, name, i):
        return self.rows.get(name, [0, 0.0, 0.0, 0])[i]

    def calls(self, name):
        return self._get(name, 0)

    def total_ms(self, name):
        return self._get(name, 1) * 1000.0

    def self_ms(self, name):
        return self._get(name, 2) * 1000.0

    def count(self, name):
        return self._get(name, 3)

    def per_call_us(self, *names):
        calls = sum(self.calls(n) for n in names)
        total = sum(self.total_ms(n) for n in names)
        return total * 1000.0 / calls if calls else 0.0


def common_layers(spans: Spans, per: float, e2e_ms: float) -> dict:
    """Render-path and kernel metrics, ``per`` operations, and Amdahl."""
    out = {
        "workloads.templates.build_variables_ms":
            spans.self_ms("workloads.templates.build_variables") / per,
        "workloads.text.self_ms": spans.self_ms("workloads.text") / per,
        "runtime.interp.render_self_ms":
            spans.self_ms("runtime.interp.render") / per,
        "isa.dispatch.complex_init_ms":
            spans.self_ms("isa.dispatch.complex_init") / per,
        "accel.regex_accel.sift_ms":
            spans.self_ms("accel.regex_accel.sift") / per,
    }
    kernel_ms = 0.0
    for name in KERNELS:
        stem = f"accel.{name}"
        out[f"{stem}.calls"] = spans.calls(stem) / per
        out[f"{stem}.self_ms"] = spans.self_ms(stem) / per
        if name.startswith("string."):
            out[f"{stem}.bytes"] = spans.count(stem) / per
    for stem in spans.rows:
        if stem.startswith("accel.") and stem != "accel.regex_accel.sift":
            kernel_ms += spans.self_ms(stem)
    share = kernel_ms / e2e_ms if e2e_ms else 0.0
    out["accel.kernel_share"] = share
    out["accel.amdahl_ceiling_x"] = 1.0 / (1.0 - share) if share < 1 else 0.0
    out["bench.trace.e2e_ms"] = e2e_ms / per
    return out


def check_parts(workload: str, parts: dict, e2e_ms: float) -> float:
    """Reject an implausible breakdown; return the unattributed share.

    ``parts`` holds every layer's self time and ``unattributed``, the
    part of the separately clocked e2e time that no span covers, so the
    parts sum to e2e by construction.  What can fail is a remainder: a
    part below zero means spans overlap or outran the wall clock, and
    an unattributed share above the workload's cap means a layer that
    works there went untraced.
    """
    floor = -TRACE_TOLERANCE * e2e_ms
    negative = {k: round(v, 3) for k, v in parts.items() if v < floor}
    if negative:
        raise InvalidRun(f"layer time below zero (ms): {negative}")
    share = parts["unattributed"] / e2e_ms
    if share > MAX_UNATTRIBUTED[workload]:
        raise InvalidRun(f"unattributed share {share:.3f} exceeds "
                         f"{MAX_UNATTRIBUTED[workload]}")
    return share


def serve_layers(workload: str, marks: list, service_ms: list) -> dict:
    """Per-request breakdown of the traced open-loop segments.

    ``marks`` holds the traced server's ``(before, after)`` reports of
    each segment.  The client's send-to-last-byte time splits into:
    server time in read/parse/dispatch/write (telemetry total minus
    queue wait, render time and hit probes), the render hand-off (queue
    wait plus render time minus the render_fn span, cache fill and miss
    probes), the span self times, telemetry record, and what no server
    clock sees (socket transfer and the loop noticing the request).
    The client and the server telemetry clock these separately, so each
    remainder is checked for sign.
    """
    spans = Spans(trace_sum([diff(after["trace"], before["trace"])
                             for before, after in marks]))
    tel = {key: sum(after["telemetry"][key] for _, after in marks)
           for key in ("rows", "total_ms", "queue_wait_ms", "render_ms")}
    n = tel["rows"]
    e2e = sum(service_ms)
    if n != len(service_ms):
        raise InvalidRun(f"{n} telemetry rows for {len(service_ms)} requests")
    p_hit = spans.total_ms("serve.cache.probe_hit")
    p_miss = spans.total_ms("serve.cache.probe_miss")
    fill = spans.total_ms("serve.cache.fill")
    record = spans.total_ms("serve.telemetry.record")
    render_fn = spans.total_ms("workloads.templates.render_fn")
    parts = {stem: spans.self_ms(stem) for stem in spans.rows}
    parts.update({
        "httpd": tel["total_ms"] - tel["queue_wait_ms"] - tel["render_ms"]
        - p_hit,
        "render_wait": tel["queue_wait_ms"] - p_miss + tel["render_ms"]
        - render_fn - fill,
        "unattributed": e2e - tel["total_ms"] - record,
    })
    unattributed = check_parts(workload, parts, e2e)
    shed = sum(after["stats"].get(name, 0) - before["stats"].get(name, 0)
               for before, after in marks
               for name in ("serve.status_503", "serve.status_504"))

    probes = spans.calls("serve.cache.probe_hit") + spans.calls(
        "serve.cache.probe_miss")
    out = common_layers(spans, n, e2e)
    out.update({
        "serve.httpd.requests": n,
        "serve.httpd.self_ms": parts["httpd"] / n,
        "serve.httpd.render_wait_ms": parts["render_wait"] / n,
        "serve.httpd.shed": shed,
        "serve.cache.probes": probes,
        "serve.cache.hit_ratio":
            spans.calls("serve.cache.probe_hit") / probes if probes else 0.0,
        "serve.cache.probe_us": spans.per_call_us("serve.cache.probe_hit",
                                                  "serve.cache.probe_miss"),
        "serve.cache.fills": spans.calls("serve.cache.fill"),
        "serve.cache.fill_us": spans.per_call_us("serve.cache.fill"),
        "serve.telemetry.record_us":
            spans.per_call_us("serve.telemetry.record"),
        "serve.telemetry.dropped": marks[-1][1]["dropped"],
        "workloads.templates.renders":
            spans.calls("workloads.templates.render_fn"),
        "workloads.templates.render_ms": render_fn / n,
        "workloads.templates.self_ms":
            spans.self_ms("workloads.templates.render_fn") / n,
        "runtime.interp.calls": spans.count("runtime.interp.calls") / n,
        "runtime.interp.var_gets": spans.count("runtime.interp.var_gets") / n,
        "bench.trace.unattributed_share": unattributed,
    })
    return out


def pass_layers(workload: str, replies: list[dict]) -> tuple:
    """Merge traced passes; check their self times against e2e."""
    spans = Spans(trace_sum([r["trace"] for r in replies]))
    e2e = sum(r["seconds"] for r in replies) * 1000.0
    parts = {stem: spans.self_ms(stem) for stem in spans.rows}
    parts["unattributed"] = e2e - sum(parts.values())
    return spans, e2e, check_parts(workload, parts, e2e)


# -- full-eval and des-sims --------------------------------------------------


def goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)


def eval_seed(seed: int) -> int:
    """Input seed of full-eval: the paper's seed plus a golden offset."""
    from repro.common.rng import DEFAULT_SEED

    return DEFAULT_SEED + seed % GOLDEN_SEEDS


def des_inputs(seed: int) -> dict:
    """Seeded service-time samples and engine seed for one battery."""
    index = seed % GOLDEN_SEEDS
    rng = random.Random(index)
    accel = [round(rng.lognormvariate(0.0, 0.45), 6) for _ in range(64)]
    soft = [round(s * rng.uniform(1.4, 2.2), 6) for s in accel]
    return {"seed": 17 + index, "accel": accel, "soft": soft}


def run_passes(mode: str, trace: bool, seconds: float, cmd: dict, check):
    """Cold passes, each in a fresh process, until the next would overrun.

    A fresh process per pass is what a user of ``repro fig14`` or the
    simulators pays, and it makes the launch-to-ready time a set-up
    sample of every pass.
    """
    replies: list[dict] = []
    speed = HostSpeed()
    start = clock()
    while not replies or (clock() - start + replies[-1]["seconds"]
                          + replies[-1]["setup_s"] + REFERENCE_S
                          <= seconds):
        child = Child(mode, trace)
        try:
            reply = child.ask(op="run", **cmd)
        finally:
            reply_rss = child.close()
        reply.update(ok=check(reply), setup_s=child.setup_s,
                     peak_rss_mb=reply_rss, scale=speed.scale())
        replies.append(reply)
    return replies


def pass_workload(mode, workload, seed, seconds, trace) -> tuple:
    gold = goldens()[workload][str(seed % GOLDEN_SEEDS)]
    if mode == "eval":
        cmd = {"seed": eval_seed(seed)}

        def check(reply):
            return reply["digest"] == gold and reply["expcache_hits"] == 0

        def requests(reply):
            return reply["requests"]
    else:
        cmd = des_inputs(seed)

        def check(reply):
            return {k: v[1] for k, v in reply["engines"].items()} == gold

        def requests(reply):
            return sum(v[0] for v in reply["engines"].values())

    tally = Tally()
    if trace:
        untraced = run_passes(mode, False, seconds * 0.3, cmd, check)
        traced = run_passes(mode, True, seconds * 0.6, cmd, check)
        replies = untraced + traced
    else:
        replies = run_passes(mode, False, seconds, cmd, check)
    tally.attempted = len(replies)
    tally.failed = sum(not r["ok"] for r in replies)
    if not trace:
        median_ms = statistics.median(r["seconds"] * r["scale"] * 1000.0
                                      for r in replies)
        note(f"{workload}: medians over {len(replies)} cold passes")
        metrics = rates(requests(replies[0]) / median_ms * 1000.0)
        metrics.update({
            # A pass is one request of the user's (a figure run, a
            # battery) and a run holds a handful, so no percentile
            # above the median has ten passes beyond it: both latency
            # names carry the median pass time.
            "latency_p50_ms": median_ms,
            "latency_p90_ms": median_ms,
            "goodput_ratio": sum(r["ok"] for r in replies) / len(replies),
            "setup_s": statistics.median(r["setup_s"] * r["scale"]
                                         for r in replies),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in replies),
        })
        return tally, metrics
    spans, e2e, unattributed = pass_layers(workload, traced)
    per = len(traced)
    out = common_layers(spans, per, e2e)
    out["bench.trace.unattributed_share"] = unattributed
    out["bench.trace.overhead_ratio"] = (
        statistics.median(r["seconds"] * r["scale"] for r in traced)
        / statistics.median(r["seconds"] * r["scale"] for r in untraced)
    )
    if mode == "eval":
        out["workloads.loadgen.trace_ms"] = spans.self_ms(
            "workloads.loadgen.trace") / per
        out["workloads.loadgen.ops"] = spans.count(
            "workloads.loadgen.ops") / per
        for cat in ("hash", "heap", "string", "regex"):
            stem = f"core.execute.{cat}"
            out[f"{stem}_ms"] = spans.self_ms(stem) / per
            out[f"{stem}_ops"] = spans.count(stem) / per
        out["optim.inline_cache.filter_ms"] = spans.self_ms(
            "optim.inline_cache.filter") / per
        out["optim.inline_cache.specialized_ratio"] = statistics.fmean(
            r["specialized"] for r in traced)
        out["core.expcache.hits"] = sum(r["expcache_hits"] for r in replies)
    else:
        for engine in DES_ENGINES:
            simulated = sum(r["engines"][engine][0] for r in traced)
            out[f"{engine}.us_per_request"] = (
                spans.total_ms(engine) * 1000.0 / simulated
            )
        out["fleet.cache_tier.probe_us"] = spans.per_call_us(
            "fleet.cache_tier.probe")
        out["fleet.cache_tier.probes"] = spans.calls(
            "fleet.cache_tier.probe") / per
        out["fleet.balancer.pick_us"] = spans.per_call_us(
            "fleet.balancer.pick")
        out["fleet.balancer.picks"] = spans.calls("fleet.balancer.pick") / per
    return tally, scale_times(out, statistics.median(
        r["scale"] for r in traced))


# -- entry point -------------------------------------------------------------

WORKLOADS = ("serve-render", "serve-cached", "full-eval", "des-sims")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: run from a checkout holding src/repro",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, GENERATOR_CPUS)
    trace = bool(args.trace)
    try:
        if args.workload.startswith("serve-"):
            run = serve_traced if trace else serve_measured
            tally, values = run(args.workload, args.seed, args.seconds)
        else:
            mode = "eval" if args.workload == "full-eval" else "des"
            tally, values = pass_workload(mode, args.workload, args.seed,
                                          args.seconds, trace)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    specs = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in specs}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
