"""Open-loop asyncio load driver for the live serving path.

Drives :class:`repro.serve.httpd.MiniPhpServer` the way
:class:`repro.fleet.overload.OverloadSimulator` drives the event-driven
fleet: arrivals are drawn *open-loop* from a non-homogeneous Poisson
process (diurnal sine × flash-crowd window, thinned against the peak
rate — the same shape machinery, re-costed onto wall-clock seconds)
and dispatched at their scheduled instants regardless of how the
server is coping.  That is the property that makes overload visible:
a closed loop slows down with the server and hides the queue.

The driver holds ``connections`` keep-alive sockets open for the whole
run (one worker per connection, one request outstanding per
connection — HTTP/1.1 without pipelining) and spreads arrivals across
them.  Client-side resilience mirrors PR-1: a per-request timeout, a
:class:`~repro.resilience.policies.RetryBudget` capping retry
amplification, and decorrelated-jitter backoff between attempts.

Everything random comes from a :class:`DeterministicRng` fork — the
*schedule* reproduces exactly under a fixed seed; only the measured
latencies are wall-clock.  File-descriptor budget: one in-process
connection costs two fds (client + server end), so
:func:`max_supported_connections` clamps the requested count against
``RLIMIT_NOFILE`` after raising the soft limit to the hard limit.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

from repro.common.rng import DeterministicRng
from repro.common.stats import LatencySummary, summarize_latencies
from repro.core import clock
from repro.resilience.policies import (
    RetryBudget,
    RetryBudgetPolicy,
    RetryPolicy,
)
from repro.serve.arrivals import ArrivalShape

#: Routes the driver exercises, matching the server's app routes.
ROUTES = ("wordpress", "drupal", "mediawiki")


def max_supported_connections(
    requested: int, headroom: int = 64
) -> int:
    """Clamp a connection count against the process fd budget.

    Raises the ``RLIMIT_NOFILE`` soft limit to the hard limit first
    (CI images often ship soft ≪ hard), then budgets **two** fds per
    connection — in-process runs pay for both the client socket and
    the server's accepted socket — minus ``headroom`` for listeners,
    files, and the interpreter's own fds.
    """
    try:
        import resource
    except ImportError:  # non-POSIX: trust the caller
        return max(1, requested)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
            soft = hard
        except (ValueError, OSError):
            pass
    budget = (soft - headroom) // 2
    return max(1, min(requested, budget))


@dataclass(frozen=True)
class LoadConfig:
    """One load-driver run."""

    #: keep-alive connections to hold open (clamped to the fd budget
    #: by :func:`run_load` unless ``clamp_fds`` is False)
    connections: int = 256
    shape: ArrivalShape = ArrivalShape()
    seed: int = 0
    #: distinct page identities: seeds drawn from [0, seed_space)
    #: (smaller → hotter cache; larger → more render pressure)
    seed_space: int = 32
    #: distinct vary values per seed
    vary_space: int = 2
    #: client-side per-request timeout, seconds
    client_timeout_s: float = 5.0
    #: retry policy for timed-out / 5xx answers (None → never retry)
    retry: Optional[RetryPolicy] = RetryPolicy(max_retries=1)
    retry_budget: Optional[RetryBudgetPolicy] = RetryBudgetPolicy()
    #: wall-clock stand-in for one mean service, seconds (resolves
    #: the retry policy's ``*_services`` backoffs)
    service_estimate_s: float = 0.004
    clamp_fds: bool = True

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.seed_space < 1 or self.vary_space < 1:
            raise ValueError("seed_space and vary_space must be >= 1")
        if self.client_timeout_s <= 0:
            raise ValueError("client_timeout_s must be positive")
        if self.service_estimate_s <= 0:
            raise ValueError("service_estimate_s must be positive")


@dataclass
class LoadResult:
    """What the open-loop driver observed."""

    #: arrivals the schedule offered
    offered: int = 0
    #: requests that got *any* HTTP answer
    answered: int = 0
    #: requests answered 2xx (goodput numerator)
    ok: int = 0
    #: HTTP status → count
    statuses: dict[str, int] = field(default_factory=dict)
    #: client-side timeouts (no answer within the deadline)
    timeouts: int = 0
    #: connection-level failures (reset, refused, EOF mid-response)
    conn_errors: int = 0
    retries_sent: int = 0
    retries_denied: int = 0
    #: response bytes received
    bytes_in: int = 0
    #: connections actually opened (post fd-clamp)
    connections: int = 0
    #: wall-clock span from first dispatch to last answer, seconds
    duration_s: float = 0.0
    #: end-to-end latency samples of 2xx answers, milliseconds
    latencies_ms: list[float] = field(default_factory=list)
    #: X-Cache header → count, as the client saw them
    cache_outcomes: dict[str, int] = field(default_factory=dict)

    @property
    def goodput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.ok / self.duration_s

    @property
    def goodput_ratio(self) -> float:
        return self.ok / self.offered if self.offered else 0.0

    def latency_summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_ms)


@dataclass
class _Job:
    """One scheduled arrival."""

    t_s: float
    route: str
    seed: int
    vary: int
    attempt: int = 0
    backoff: float = 0.0


class _Worker:
    """One keep-alive connection draining its share of the schedule."""

    def __init__(
        self,
        host: str,
        port: int,
        config: LoadConfig,
        result: LoadResult,
        budget: Optional[RetryBudget],
        rng: DeterministicRng,
    ) -> None:
        self.host = host
        self.port = port
        self.config = config
        self.result = result
        self.budget = budget
        self.rng = rng
        self.queue: asyncio.Queue = asyncio.Queue()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def run(self, epoch: float) -> None:
        try:
            while True:
                job = await self.queue.get()
                if job is None:
                    return
                await self._run_job(job, epoch)
        finally:
            await self._close()

    async def _connect(self) -> None:
        if self._writer is not None:
            return
        reader, writer = await asyncio.open_connection(
            self.host, self.port
        )
        if self._writer is not None:
            # Another entry connected while we awaited; keep theirs.
            writer.close()
            return
        self._reader, self._writer = reader, writer

    async def _close(self) -> None:
        if self._writer is None:
            return
        writer, self._writer, self._reader = self._writer, None, None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _run_job(self, job: _Job, epoch: float) -> None:
        # Open-loop pacing: fire at the scheduled instant, not when
        # the previous request finished.
        delay = (epoch + job.t_s) - clock.monotonic()
        if delay > 0:
            await clock.sleep(delay)
        while True:
            status = await self._attempt(job)
            if status is not None and 200 <= status < 300:
                if self.budget is not None:
                    self.budget.record_success()
                return
            if not self._should_retry(job, status):
                return
            job.attempt += 1
            self.result.retries_sent += 1
            job.backoff = self._next_backoff(job)
            await clock.sleep(job.backoff)

    def _should_retry(self, job: _Job, status: Optional[int]) -> bool:
        """Retry only failures a retry can fix, inside the budget."""
        retry = self.config.retry
        if retry is None or job.attempt >= retry.max_retries:
            return False
        if status is not None and status < 500:
            return False  # 4xx: our request is wrong; retrying spams
        if self.budget is not None and not self.budget.try_spend():
            self.result.retries_denied += 1
            return False
        return True

    def _next_backoff(self, job: _Job) -> float:
        retry = self.config.retry
        assert retry is not None
        services = retry.next_backoff(job.backoff, self.rng)
        return services * self.config.service_estimate_s

    async def _attempt(self, job: _Job) -> Optional[int]:
        """One request/response exchange; None when no answer came."""
        t0 = clock.monotonic()
        try:
            status, body_len, cache = await asyncio.wait_for(
                self._exchange(job), self.config.client_timeout_s
            )
        except asyncio.TimeoutError:
            self.result.timeouts += 1
            await self._close()  # the stream is mid-response: poison
            return None
        except (ConnectionError, OSError, asyncio.IncompleteReadError,
                EOFError):
            self.result.conn_errors += 1
            await self._close()
            return None
        latency_ms = (clock.monotonic() - t0) * 1000.0
        self.result.answered += 1
        key = str(status)
        self.result.statuses[key] = \
            self.result.statuses.get(key, 0) + 1
        self.result.bytes_in += body_len
        if cache:
            self.result.cache_outcomes[cache] = \
                self.result.cache_outcomes.get(cache, 0) + 1
        if 200 <= status < 300:
            self.result.ok += 1
            self.result.latencies_ms.append(latency_ms)
        return status

    async def _exchange(self, job: _Job) -> tuple[int, int, str]:
        await self._connect()
        assert self._reader is not None and self._writer is not None
        target = f"/{job.route}?seed={job.seed}&vary={job.vary}"
        request = (
            f"GET {target} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        self._writer.write(request)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise EOFError("server closed the connection")
        parts = status_line.decode("ascii", "replace").split(" ", 2)
        status = int(parts[1])
        content_length = 0
        cache = ""
        close_after = False
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise EOFError("connection closed mid-headers")
            name, _, value = \
                raw.decode("latin-1").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                content_length = int(value)
            elif name == "x-cache":
                cache = value
            elif name == "connection" and value.lower() == "close":
                close_after = True
        body = await self._reader.readexactly(content_length)
        if close_after:
            await self._close()
        return status, len(body), cache


async def run_load(
    host: str, port: int, config: Optional[LoadConfig] = None
) -> LoadResult:
    """Run one open-loop load session against a live server."""
    config = config or LoadConfig()
    n_conns = (
        max_supported_connections(config.connections)
        if config.clamp_fds else config.connections
    )
    rng = DeterministicRng(config.seed).fork("loadclient")
    arrivals = config.shape.draw_arrivals(rng.fork("arrivals"))
    job_rng = rng.fork("jobs")
    jobs = [
        _Job(
            t_s=t,
            route=ROUTES[job_rng.randint(0, len(ROUTES) - 1)],
            seed=job_rng.randint(0, config.seed_space - 1),
            vary=job_rng.randint(0, config.vary_space - 1),
        )
        for t in arrivals
    ]
    result = LoadResult(offered=len(jobs), connections=n_conns)
    budget = (
        RetryBudget(config.retry_budget)
        if config.retry_budget is not None and config.retry is not None
        else None
    )
    workers = [
        _Worker(host, port, config, result, budget,
                rng.fork(f"worker-{i}"))
        for i in range(n_conns)
    ]
    # Round-robin assignment keeps per-connection schedules balanced
    # and deterministic; a busy connection delays only its own share.
    for i, job in enumerate(jobs):
        workers[i % n_conns].queue.put_nowait(job)
    for worker in workers:
        worker.queue.put_nowait(None)
    epoch = clock.monotonic()
    tasks = [
        asyncio.ensure_future(worker.run(epoch)) for worker in workers
    ]
    await asyncio.gather(*tasks)
    result.duration_s = clock.monotonic() - epoch
    return result
