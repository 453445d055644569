"""Asyncio HTTP/1.1 front-end over the MiniPHP renderer.

A stdlib-only live server: ``GET /wordpress|/drupal|/mediawiki`` with
seeded query params (``?seed=S&vary=V``) renders through
:func:`repro.workloads.templates.render_http_page` — a fresh
:class:`~repro.runtime.interp.MiniPhpInterpreter` on the accelerated
backend per render, so the bytes served are a pure function of the
route and query (the property the served-bytes differential oracle
pins).  Around that pure core, the PR-1/PR-6 overload policies are
re-costed from event-driven cycles onto wall-clock seconds:

* **Admission control** — at most ``max_pending_renders`` renders may
  be queued or running; a miss beyond that is shed with ``503``
  before any render capacity is spent.
* **Per-request deadline** — a render that cannot complete within
  ``deadline_s`` answers ``504``; a queued render whose requester's
  deadline already passed when a worker picks it up is *skipped*
  (dequeue-time shedding — the mechanism that stops zombie renders).
* **AIMD adaptive concurrency** — the PR-6
  :class:`~repro.resilience.policies.AdaptiveConcurrencyLimit`,
  constructed with seconds instead of cycles, gates render dispatch
  on observed latency.
* **Rendered-fragment cache** — the stampede defenses of
  :mod:`repro.fleet.cache_tier`, byte-for-byte the same state
  machine (:class:`~repro.fleet.cache_tier.CacheShard` carrying the
  rendered bytes, consistent-hash ring, deterministic TTL jitter,
  stale-while-revalidate with one background refresh, single-flight
  coalescing of concurrent misses).

Renders run on a small thread pool so the event loop keeps accepting
sockets while the interpreter works; every finished request lands in
the bounded :class:`~repro.serve.telemetry.TelemetryLog`.  Wall-clock
access is exclusively through :mod:`repro.core.clock` — DET001 stays
blocking over this module.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional
from urllib.parse import parse_qs

from repro.common.stats import StatRegistry
from repro.core import clock
from repro.fleet.cache_tier import (
    CacheShard,
    CacheTierConfig,
    ShardRing,
    jittered_ttl,
)
from repro.resilience.policies import (
    AdaptiveConcurrencyLimit,
    AdaptiveConcurrencyPolicy,
)
from repro.serve.telemetry import RequestEvent, TelemetryLog
from repro.workloads.templates import APP_TEMPLATES, render_http_page

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Default fragment-cache shape: TTLs resolved against
#: ``service_estimate_s`` exactly as the fleet tier resolves them
#: against mean service cycles; jitter + SWR + single-flight on by
#: default because the load driver exists to create stampedes.
DEFAULT_FRAGMENT_CACHE = CacheTierConfig(
    shards=4,
    shard_capacity=1024,
    ttl_services=4000.0,
    ttl_jitter=0.2,
    stale_services=2000.0,
    single_flight=True,
)


@dataclass(frozen=True)
class ServeConfig:
    """Shape and policy of one live server instance.

    The ``*_services`` knobs inside ``cache`` and ``adaptive`` keep
    the fleet convention (multiples of a mean service time) and are
    resolved against ``service_estimate_s`` — the wall-clock
    re-costing unit standing in for the simulators' mean service
    cycles.
    """

    host: str = "127.0.0.1"
    #: 0 → bind an ephemeral port (read it back from ``server.port``)
    port: int = 0
    #: server-side deadline per request, seconds (None → unbounded)
    deadline_s: Optional[float] = 2.0
    #: admission control: renders queued+running beyond this shed 503
    max_pending_renders: int = 128
    #: AIMD adaptive concurrency on the render path (None → off)
    adaptive: Optional[AdaptiveConcurrencyPolicy] = \
        AdaptiveConcurrencyPolicy(target_latency_services=100.0,
                                  max_limit=64.0)
    #: wall-clock stand-in for "one mean service", seconds
    service_estimate_s: float = 0.004
    #: rendered-fragment cache (None → render every request)
    cache: Optional[CacheTierConfig] = DEFAULT_FRAGMENT_CACHE
    #: render thread-pool width
    render_workers: int = 4
    #: request-line byte cap (beyond → 414)
    max_request_line: int = 4096
    #: total header-block byte cap (beyond → 431)
    max_header_bytes: int = 16384
    #: grace for in-flight requests at graceful shutdown, seconds
    drain_timeout_s: float = 5.0
    #: per-read deadline on idle/slow client sockets, seconds
    idle_timeout_s: float = 30.0
    #: bounded telemetry ring size
    telemetry_max_events: int = 50_000
    #: listen backlog (connection storms arrive faster than accepts)
    backlog: int = 4096

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.max_pending_renders < 1:
            raise ValueError("max_pending_renders must be >= 1")
        if self.service_estimate_s <= 0:
            raise ValueError("service_estimate_s must be positive")
        if self.render_workers < 1:
            raise ValueError("render_workers must be >= 1")
        if self.max_request_line < 64:
            raise ValueError("max_request_line must be >= 64")
        if self.max_header_bytes < 256:
            raise ValueError("max_header_bytes must be >= 256")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s cannot be negative")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")


class FragmentCache:
    """Rendered-page cache: the fleet tier's machinery on seconds.

    Mirrors :class:`~repro.fleet.cache_tier.ObjectCacheTier` —
    consistent-hash ring over value-carrying
    :class:`~repro.fleet.cache_tier.CacheShard` instances, TTL/stale
    windows resolved from ``*_services`` knobs, deterministic per-key
    TTL jitter — with ``now`` in monotonic seconds instead of event
    cycles, and the rendered bytes riding in the shard entries.
    """

    def __init__(
        self, config: CacheTierConfig, mean_service_s: float
    ) -> None:
        if mean_service_s <= 0:
            raise ValueError("mean_service_s must be positive")
        self.config = config
        self.ttl_s = (
            config.ttl_services * mean_service_s
            if config.ttl_services is not None else None
        )
        self.stale_s = (
            config.stale_services * mean_service_s
            if config.stale_services is not None else None
        )
        self.stats = StatRegistry("servecache")
        self.ring = ShardRing(config.shards, config.virtual_nodes)
        self.shards = [
            CacheShard(config.shard_capacity, self.stats)
            for _ in range(config.shards)
        ]

    def probe(self, key: str, now: float) -> tuple[str, Optional[bytes]]:
        """Three-way lookup returning the cached bytes when servable."""
        shard = self.shards[self.ring.lookup(key)]
        self.stats.bump("cache.lookups")
        state = shard.probe(key, now, self.stale_s)
        if state == "hit":
            self.stats.bump("cache.hits")
        elif state == "stale":
            self.stats.bump("cache.hits")
            self.stats.bump("cache.stale_hits")
        else:
            self.stats.bump("cache.misses")
            return "miss", None
        value = shard.value_of(key)
        if value is None:  # presence without bytes cannot be served
            self.stats.bump("cache.value_lost")
            return "miss", None
        return state, value  # type: ignore[return-value]

    def fill(self, key: str, now: float, body: bytes) -> None:
        shard = self.shards[self.ring.lookup(key)]
        ttl = jittered_ttl(key, self.ttl_s, self.config.ttl_jitter)
        shard.put(key, now, ttl, value=body)
        self.stats.bump("cache.fills")

    def expire_all(self, now: float) -> int:
        """Mass expiry (the deploy-flush trigger), SWR still servable."""
        touched = sum(s.expire_all(now) for s in self.shards)
        self.stats.bump("cache.mass_expiries")
        return touched

    @property
    def hit_ratio(self) -> float:
        return self.stats.ratio("cache.hits", "cache.lookups")


class _HttpError(Exception):
    """Parse/validation failure mapped straight to a status code."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class _RenderExpired(Exception):
    """The queued render was skipped: its requester's deadline passed."""


@dataclass
class _Request:
    """One parsed request plus its arrival bookkeeping."""

    method: str
    path: str
    query: str
    version: str
    headers: dict[str, str]
    t_arrive: float
    keep_alive: bool = field(default=True)


class MiniPhpServer:
    """The live server; ``await start()`` then point clients at ``port``."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        render_fn: Optional[Callable[..., tuple[str, dict]]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        #: injectable for tests (slow renders, failures); must keep
        #: the pure (app, seed, vary) -> (html, ops) contract
        self.render_fn = render_fn or render_http_page
        self.stats = StatRegistry("serve")
        self.telemetry = TelemetryLog(self.config.telemetry_max_events)
        self.cache: Optional[FragmentCache] = (
            FragmentCache(self.config.cache,
                          self.config.service_estimate_s)
            if self.config.cache is not None else None
        )
        self._aimd: Optional[AdaptiveConcurrencyLimit] = (
            AdaptiveConcurrencyLimit(self.config.adaptive,
                                     self.config.service_estimate_s)
            if self.config.adaptive is not None else None
        )
        self._server: Optional[asyncio.Server] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._fill_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._busy_tasks: set[asyncio.Task] = set()
        #: handlers closing their socket; stop() waits for, never
        #: cancels, these
        self._closing_tasks: set[asyncio.Task] = set()
        self._renders_pending = 0
        self._last_ops: dict = {}
        self._draining = False
        self._epoch = 0.0
        self.port = 0
        self.peak_connections = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._epoch = clock.monotonic()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.render_workers,
            thread_name_prefix="repro-render",
        )
        limit = self.config.max_header_bytes + 1024
        server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            backlog=self.config.backlog,
            limit=limit,
        )
        if self._server is not None:
            # A concurrent start() won the race while we awaited.
            server.close()
            raise RuntimeError("server already started")
        self._server = server
        self.port = server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; drain in-flight work; release the pool.

        With ``drain=True`` (graceful): connections idle between
        requests are closed immediately, connections mid-request get
        up to ``drain_timeout_s`` to finish writing their response,
        and background cache fills are awaited so no render is torn
        mid-flight.  ``drain=False`` cancels everything.
        """
        self._draining = True
        # Claim the listener before the first await so a concurrent
        # stop() cannot close it twice.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        idle = [t for t in self._conn_tasks
                if t not in self._busy_tasks and t not in self._closing_tasks]
        for task in idle:
            task.cancel()
        busy = list(self._busy_tasks)
        if busy:
            if drain:
                _, leftover = await asyncio.wait(
                    busy, timeout=self.config.drain_timeout_s
                )
                for task in leftover - self._closing_tasks:
                    task.cancel()
                    self.stats.bump("serve.drain_cancelled")
            else:
                for task in busy:
                    task.cancel()
        pending = list(self._conn_tasks)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        fills = list(self._fill_tasks)
        if fills:
            if drain:
                await asyncio.wait(
                    fills, timeout=self.config.drain_timeout_s
                )
            for task in fills:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*fills, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=drain)
            self._pool = None

    @property
    def open_connections(self) -> int:
        return len(self._conn_tasks)

    def _now_ms(self, t: float) -> float:
        return (t - self._epoch) * 1000.0

    # -- connection handling -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        if len(self._conn_tasks) > self.peak_connections:
            self.peak_connections = len(self._conn_tasks)
        self.stats.bump("serve.connections")
        try:
            while not self._draining:
                keep = await self._serve_one(reader, writer, task)
                if not keep:
                    break
        except asyncio.CancelledError:
            self.stats.bump("serve.conn_cancelled")
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.TimeoutError,
                TimeoutError, OSError):
            # The client vanished mid-read or mid-write; the
            # connection dies, the server does not.
            self.stats.bump("serve.conn_aborted")
        finally:
            # The handler stays in _conn_tasks until its socket is
            # closed, so stop() waits for it instead of leaving it to be
            # cancelled when the event loop shuts down.
            self._busy_tasks.discard(task)
            self._closing_tasks.add(task)
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(),
                                       self.config.idle_timeout_s)
            except (asyncio.TimeoutError, TimeoutError):
                writer.transport.abort()  # the peer stopped reading
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            finally:
                self._closing_tasks.discard(task)
                self._conn_tasks.discard(task)

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        task: asyncio.Task,
    ) -> bool:
        """Read and answer one request; False ends the connection."""
        try:
            request = await self._read_request(reader)
        except _HttpError as err:
            self.stats.bump("serve.bad_requests")
            await self._finish(
                writer, err.status, b"", "-", "none",
                clock.monotonic(), 0.0, 0.0, shed=err.detail,
                keep_alive=False,
            )
            return False
        if request is None:
            return False  # clean EOF between requests
        self._busy_tasks.add(task)
        try:
            return await self._dispatch(request, writer)
        finally:
            self._busy_tasks.discard(task)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        try:
            line = await asyncio.wait_for(
                reader.readline(), self.config.idle_timeout_s
            )
        except asyncio.TimeoutError:
            # Idle keep-alive connection: close quietly, no response.
            return None
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(414, "request line exceeds limit") from None
        if not line:
            return None
        t_arrive = clock.monotonic()
        if len(line) > self.config.max_request_line:
            raise _HttpError(414, "request line exceeds limit")
        try:
            text = line.decode("ascii").rstrip("\r\n")
            method, target, version = text.split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _HttpError(400, f"unsupported version {version!r}")
        if method != "GET":
            raise _HttpError(405, f"method {method} not allowed")
        headers: dict[str, str] = {}
        total = 0
        while True:
            try:
                raw = await asyncio.wait_for(
                    reader.readline(), self.config.idle_timeout_s
                )
            except asyncio.TimeoutError:
                raise _HttpError(408, "timed out mid-headers") \
                    from None
            except (ValueError, asyncio.LimitOverrunError):
                raise _HttpError(431, "header line exceeds limit") \
                    from None
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _HttpError(400, "connection closed mid-headers")
            total += len(raw)
            if total > self.config.max_header_bytes:
                raise _HttpError(431, "header block exceeds limit")
            try:
                name, sep, value = raw.decode("latin-1").partition(":")
            except UnicodeDecodeError:
                raise _HttpError(400, "undecodable header") from None
            if not sep or not name.strip():
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        path, _, query = target.partition("?")
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version == "HTTP/1.1"
            else connection == "keep-alive"
        )
        return _Request(
            method=method, path=path, query=query, version=version,
            headers=headers, t_arrive=t_arrive, keep_alive=keep_alive,
        )

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        self.stats.bump("serve.requests")
        keep = request.keep_alive and not self._draining
        if request.path in ("/", "/healthz"):
            body = self._index_page()
            await self._finish(
                writer, 200, body, "-", "none", request.t_arrive,
                0.0, 0.0, keep_alive=keep,
            )
            return keep
        app = request.path.strip("/")
        if app not in APP_TEMPLATES:
            await self._finish(
                writer, 404, b"", "-", "none", request.t_arrive,
                0.0, 0.0, shed="unknown route", keep_alive=keep,
            )
            return keep
        try:
            params = parse_qs(request.query, strict_parsing=False)
            seed = int(params.get("seed", ["0"])[0])
            vary = int(params.get("vary", ["0"])[0])
        except ValueError:
            await self._finish(
                writer, 400, b"", app, "none", request.t_arrive,
                0.0, 0.0, shed="non-integer query param",
                keep_alive=False,
            )
            return False
        status, body, cache_state, queue_wait, render_s, shed = \
            await self._get_page(app, seed, vary, request.t_arrive)
        await self._finish(
            writer, status, body, app, cache_state, request.t_arrive,
            queue_wait, render_s, shed=shed, keep_alive=keep,
        )
        return keep

    async def _get_page(
        self, app: str, seed: int, vary: int, t_arrive: float
    ) -> tuple[int, bytes, str, float, float, str]:
        """Serve from cache or render under the overload policies.

        Returns ``(status, body, cache_state, queue_wait_s,
        render_s, shed_reason)``.
        """
        cfg = self.config
        key = f"{app}?seed={seed}&vary={vary}"
        deadline = (
            t_arrive + cfg.deadline_s
            if cfg.deadline_s is not None else None
        )
        if self.cache is not None:
            state, body = self.cache.probe(key, clock.monotonic())
            if state == "hit":
                return 200, body, "hit", 0.0, 0.0, ""
            if state == "stale":
                # Stale-while-revalidate: serve immediately, let one
                # background refresh render (single-flight guarded).
                self._spawn_fill(key, app, seed, vary, t_arrive, None)
                return 200, body, "stale", 0.0, 0.0, ""
        single_flight = (
            self.cache is not None and self.config.cache.single_flight
        )
        fut = self._inflight.get(key) if single_flight else None
        if fut is not None:
            # Coalesce onto the in-flight render instead of
            # dispatching our own (the stampede defense).
            self.stats.bump("serve.coalesced")
            try:
                body = await self._await_render(fut, deadline)
            except _RenderExpired:
                return (504, b"", "coalesced", 0.0, 0.0,
                        "render expired before dispatch")
            except asyncio.TimeoutError:
                self.stats.bump("serve.timeouts")
                return (504, b"", "coalesced", 0.0, 0.0,
                        "deadline before coalesced render finished")
            return (200, body, "coalesced",
                    clock.monotonic() - t_arrive, 0.0, "")
        # -- admission control ahead of the render queue ----------------
        if self._renders_pending >= cfg.max_pending_renders:
            self.stats.bump("serve.shed_admission")
            return 503, b"", "miss", 0.0, 0.0, "admission queue full"
        if self._aimd is not None and \
                not self._aimd.admit(self._renders_pending):
            self.stats.bump("serve.shed_adaptive")
            return 503, b"", "miss", 0.0, 0.0, "adaptive limit"
        fill_fut = self._spawn_fill(
            key, app, seed, vary, t_arrive, deadline
        )
        t_dispatch = clock.monotonic()
        try:
            body = await self._await_render(fill_fut, deadline)
        except _RenderExpired:
            self.stats.bump("serve.timeouts")
            return (504, b"", "miss", t_dispatch - t_arrive, 0.0,
                    "render expired before dispatch")
        except asyncio.TimeoutError:
            self.stats.bump("serve.timeouts")
            return (504, b"", "miss", t_dispatch - t_arrive, 0.0,
                    "deadline before render finished")
        except Exception:
            self.stats.bump("serve.render_errors")
            return (500, b"", "miss", t_dispatch - t_arrive, 0.0,
                    "render raised")
        render_s = clock.monotonic() - t_dispatch
        return (200, body, "miss", t_dispatch - t_arrive,
                render_s, "")

    async def _await_render(
        self, fut: asyncio.Future, deadline: Optional[float]
    ) -> bytes:
        if deadline is None:
            return await asyncio.shield(fut)
        remaining = deadline - clock.monotonic()
        if remaining <= 0:
            raise asyncio.TimeoutError
        # shield(): a requester timing out must not cancel the shared
        # render — it still fills the cache for everyone else.
        return await asyncio.wait_for(asyncio.shield(fut), remaining)

    def _spawn_fill(
        self,
        key: str,
        app: str,
        seed: int,
        vary: int,
        t_arrive: float,
        deadline: Optional[float],
    ) -> asyncio.Future:
        """Start (or join) the one render-and-fill task for ``key``."""
        fut = self._inflight.get(key)
        if fut is not None:
            return fut
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        single_flight = (
            self.cache is not None and self.config.cache.single_flight
        )
        if single_flight:
            self._inflight[key] = fut
        task = loop.create_task(
            self._render_and_fill(key, app, seed, vary, t_arrive,
                                  deadline, fut)
        )
        self._fill_tasks.add(task)
        task.add_done_callback(self._fill_tasks.discard)
        return fut

    async def _render_and_fill(
        self,
        key: str,
        app: str,
        seed: int,
        vary: int,
        t_arrive: float,
        deadline: Optional[float],
        fut: asyncio.Future,
    ) -> None:
        """Render on the pool, fill the cache, resolve the waiters.

        Runs as its own task so it survives every waiter timing out:
        a completed render always lands in the cache (work done for a
        departed client still shields the next client — the inverse
        of the zombie-render loop).
        """
        loop = asyncio.get_running_loop()
        self._renders_pending += 1
        try:
            assert self._pool is not None
            result = await loop.run_in_executor(
                self._pool, self._render_job, app, seed, vary, deadline
            )
        except Exception as exc:
            if not fut.done():
                fut.set_exception(exc)
                # A waiter may have already timed out and gone away;
                # retrieve so the loop never logs "never retrieved".
                fut.exception()
            return
        finally:
            self._renders_pending -= 1
            self._inflight.pop(key, None)
        if result is None:
            self.stats.bump("serve.zombie_renders_avoided")
            if not fut.done():
                fut.set_exception(_RenderExpired(key))
                fut.exception()
            return
        body, _ops, render_s = result
        now = clock.monotonic()
        if self.cache is not None:
            self.cache.fill(key, now, body)
        self.stats.bump("serve.renders")
        if self._aimd is not None:
            self._aimd.record(now - t_arrive)
        self._last_ops = _ops
        if not fut.done():
            fut.set_result(body)

    def _render_job(
        self,
        app: str,
        seed: int,
        vary: int,
        deadline: Optional[float],
    ) -> Optional[tuple[bytes, dict, float]]:
        """Thread-pool body: the dequeue-time shed check + render."""
        t0 = clock.monotonic()
        if deadline is not None and t0 > deadline:
            # Dequeue-time shedding: the requester's deadline passed
            # while this job sat in the pool queue.  Rendering now
            # would be pure zombie work.
            return None
        html, ops = self.render_fn(app, seed, vary)
        return html.encode("utf-8"), ops, clock.monotonic() - t0

    # -- responses -----------------------------------------------------------

    async def _finish(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        route: str,
        cache_state: str,
        t_arrive: float,
        queue_wait_s: float,
        render_s: float,
        shed: str = "",
        keep_alive: bool = True,
    ) -> None:
        if status != 200 and not body:
            reason = REASONS.get(status, "Error")
            detail = f": {shed}" if shed else ""
            body = (
                f"<html><body><h1>{status} {reason}</h1>"
                f"<p>{detail.lstrip(': ')}</p></body></html>"
            ).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, 'Status')}\r\n"
            f"Server: repro-miniphp/1\r\n"
            f"Content-Type: text/html; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Cache: {cache_state}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
            f"\r\n\r\n"
        ).encode("ascii")
        status_ok = False
        try:
            writer.write(head + body)
            await asyncio.wait_for(
                writer.drain(), self.config.idle_timeout_s
            )
            status_ok = True
        finally:
            now = clock.monotonic()
            self.stats.bump(f"serve.status_{status}")
            if status_ok:
                self.stats.bump("serve.bytes_out", len(body))
            else:
                self.stats.bump("serve.responses_aborted")
            self.telemetry.record(RequestEvent(
                t_ms=round(self._now_ms(t_arrive), 3),
                route=route,
                status=status if status_ok else 0,
                cache=(
                    cache_state
                    if cache_state in ("hit", "stale", "miss",
                                       "coalesced")
                    else "none"
                ),
                queue_wait_ms=round(max(queue_wait_s, 0.0) * 1000, 3),
                render_ms=round(max(render_s, 0.0) * 1000, 3),
                total_ms=round(max(now - t_arrive, 0.0) * 1000, 3),
                bytes_out=len(body),
                shed=shed,
                ops=dict(getattr(self, "_last_ops", {}))
                if cache_state == "miss" and status == 200 else {},
            ))

    def _index_page(self) -> bytes:
        routes = "".join(
            f'<li><a href="/{name}">/{name}</a></li>'
            for name in sorted(APP_TEMPLATES)
        )
        return (
            "<html><head><title>repro-miniphp</title></head><body>"
            "<h1>MiniPHP live serving path</h1>"
            f"<ul>{routes}</ul>"
            "<p>query params: ?seed=S&amp;vary=V</p>"
            "</body></html>"
        ).encode("utf-8")
