"""Live serving path: HTTP robustness, cache, schemas, load driver.

The wall-clock subsystem gets the adversarial treatment the
event-driven simulators get from conformance: malformed request
lines, oversized headers, clients vanishing mid-response, graceful
shutdown draining in-flight renders — plus schema validation for the
``repro-serve/1`` payload, the ``repro-serve-history/1`` trajectory
row, and the ``repro-serve-telemetry/1`` event stream, and the
served-bytes differential oracle.  Timing assertions use generous
margins: these tests must pass on a loaded CI runner, so they assert
*ordering* (the drained response completed) rather than durations.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.fleet.cache_tier import (
    CacheShard,
    CacheTierConfig,
    jittered_ttl,
)
from repro.common.stats import StatRegistry
from repro.serve.httpd import FragmentCache, MiniPhpServer, ServeConfig
from repro.serve.loadclient import (
    ArrivalShape,
    LoadConfig,
    max_supported_connections,
    run_load,
)
from repro.serve.report import (
    SERVE_HISTORY_SCHEMA,
    SERVE_SCHEMA,
    ServeReport,
    append_serve_history,
    build_report,
    format_serve_report,
    serve_history_row,
    validate_serve_history_row,
    validate_serve_payload,
)
from repro.serve.run import serve_oracle_mismatches
from repro.serve.telemetry import (
    TELEMETRY_SCHEMA,
    RequestEvent,
    TelemetryLog,
    summarize_ops,
    validate_event_row,
)
from repro.workloads.templates import render_http_page


def _config(**overrides) -> ServeConfig:
    base = dict(deadline_s=5.0, render_workers=2)
    base.update(overrides)
    return ServeConfig(**base)


def _slow_render(delay_s: float):
    def render(app: str, seed: int, vary: int):
        time.sleep(delay_s)
        return f"<html>slow {app} {seed} {vary}</html>", {}
    return render


async def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Write raw bytes, read to EOF (server closes on errors)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        return await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def _get_on(reader, writer, target: str):
    """One keep-alive GET on an open connection."""
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode("ascii")
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


def _run(coro):
    return asyncio.run(coro)


class TestHttpRobustness:
    def test_malformed_request_line_gets_400(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                raw = await _raw_exchange(
                    server.port, b"NOT A VALID REQUEST LINE\r\n\r\n"
                )
            finally:
                await server.stop()
            return raw, server.stats.get("serve.bad_requests")

        raw, bad = _run(scenario())
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in raw
        assert bad == 1

    def test_binary_garbage_gets_400_not_a_crash(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                return await _raw_exchange(
                    server.port, b"\x00\xff\xfe GET / nonsense\r\n\r\n"
                )
            finally:
                await server.stop()

        assert _run(scenario()).startswith(b"HTTP/1.1 400 ")

    def test_oversized_header_block_gets_431(self):
        async def scenario():
            server = MiniPhpServer(_config(max_header_bytes=1024))
            await server.start()
            try:
                big = b"X-Big: " + b"a" * 3000 + b"\r\n"
                return await _raw_exchange(
                    server.port,
                    b"GET /wordpress HTTP/1.1\r\n" + big + b"\r\n",
                )
            finally:
                await server.stop()

        assert _run(scenario()).startswith(b"HTTP/1.1 431 ")

    def test_many_small_headers_beyond_cap_get_431(self):
        async def scenario():
            server = MiniPhpServer(_config(max_header_bytes=512))
            await server.start()
            try:
                headers = b"".join(
                    b"X-H%d: v\r\n" % i for i in range(200)
                )
                return await _raw_exchange(
                    server.port,
                    b"GET /wordpress HTTP/1.1\r\n" + headers + b"\r\n",
                )
            finally:
                await server.stop()

        assert _run(scenario()).startswith(b"HTTP/1.1 431 ")

    def test_overlong_request_line_gets_414(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                target = "/wordpress?pad=" + "x" * 8000
                return await _raw_exchange(
                    server.port,
                    f"GET {target} HTTP/1.1\r\n\r\n".encode("ascii"),
                )
            finally:
                await server.stop()

        assert _run(scenario()).startswith(b"HTTP/1.1 414 ")

    def test_post_gets_405_and_unknown_route_404(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                post = await _raw_exchange(
                    server.port, b"POST /wordpress HTTP/1.1\r\n\r\n"
                )
                missing = await _raw_exchange(
                    server.port,
                    b"GET /joomla HTTP/1.1\r\n"
                    b"Connection: close\r\n\r\n",
                )
            finally:
                await server.stop()
            return post, missing

        post, missing = _run(scenario())
        assert post.startswith(b"HTTP/1.1 405 ")
        assert missing.startswith(b"HTTP/1.1 404 ")

    def test_non_integer_query_param_gets_400(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                return await _raw_exchange(
                    server.port,
                    b"GET /wordpress?seed=abc HTTP/1.1\r\n\r\n",
                )
            finally:
                await server.stop()

        assert _run(scenario()).startswith(b"HTTP/1.1 400 ")

    def test_client_disconnect_mid_render_leaves_server_alive(self):
        async def scenario():
            server = MiniPhpServer(
                _config(), render_fn=_slow_render(0.3)
            )
            await server.start()
            try:
                # First client fires a slow request and vanishes.
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"GET /drupal?seed=1 HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                await writer.drain()
                writer.close()
                # Second client must still get a full answer.
                reader2, writer2 = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                status, _, body = await _get_on(
                    reader2, writer2, "/mediawiki?seed=2"
                )
                writer2.close()
            finally:
                await server.stop()
            return status, body

        status, body = _run(scenario())
        assert status == 200
        assert b"slow mediawiki 2" in body

    def test_keep_alive_serves_multiple_requests_per_connection(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                results = []
                for target in ("/wordpress?seed=3", "/drupal?seed=3",
                               "/wordpress?seed=3"):
                    results.append(
                        await _get_on(reader, writer, target)
                    )
                writer.close()
            finally:
                await server.stop()
            return results, server.stats.get("serve.connections")

        results, connections = _run(scenario())
        assert [status for status, _, _ in results] == [200, 200, 200]
        assert all(
            h["connection"] == "keep-alive" for _, h, _ in results
        )
        assert connections == 1

    def test_graceful_shutdown_drains_the_inflight_response(self):
        async def scenario():
            server = MiniPhpServer(
                _config(), render_fn=_slow_render(0.3)
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"GET /wordpress?seed=9 HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            await writer.drain()
            await asyncio.sleep(0.1)  # request is now mid-render
            stop_task = asyncio.create_task(server.stop(drain=True))
            status_line = await reader.readline()
            rest = await reader.read(-1)
            await stop_task
            writer.close()
            return status_line, rest, server.stats.get(
                "serve.drain_cancelled"
            )

        status_line, rest, cancelled = _run(scenario())
        assert status_line.startswith(b"HTTP/1.1 200 ")
        assert b"slow wordpress 9" in rest
        assert cancelled == 0

    def test_stop_waits_for_a_handler_that_is_closing(self, monkeypatch):
        # A handler still closing its socket when stop() returns would
        # be cancelled by asyncio.run's shutdown, and the stream
        # callback would then report the CancelledError through the
        # loop's exception handler.
        original = asyncio.StreamWriter.wait_closed
        closing = asyncio.Event()

        async def slow_wait_closed(writer):
            closing.set()
            await asyncio.sleep(0.05)
            return await original(writer)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            slow_wait_closed)
        reported = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            server = MiniPhpServer(_config())
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            status, _, _ = await _get_on(reader, writer, "/drupal?seed=2")
            writer.close()
            await asyncio.wait_for(closing.wait(), 5.0)
            await server.stop()
            return status, asyncio.all_tasks() - {asyncio.current_task()}

        status, pending = _run(scenario())
        assert status == 200
        assert pending == set()
        assert reported == []

    def test_served_page_matches_direct_render(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                status, _, body = await _get_on(
                    reader, writer, "/wordpress?seed=5&vary=1"
                )
                writer.close()
            finally:
                await server.stop()
            return status, body

        status, body = _run(scenario())
        expected, _ = render_http_page("wordpress", 5, 1)
        assert status == 200
        assert body == expected.encode("utf-8")


class TestFragmentCache:
    def test_second_fetch_is_a_cache_hit(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                first = await _get_on(reader, writer, "/drupal?seed=4")
                second = await _get_on(reader, writer, "/drupal?seed=4")
                writer.close()
            finally:
                await server.stop()
            return first, second

        (s1, h1, b1), (s2, h2, b2) = _run(scenario())
        assert (s1, s2) == (200, 200)
        assert h1["x-cache"] == "miss"
        assert h2["x-cache"] == "hit"
        assert b1 == b2

    def test_shard_values_die_with_their_entries(self):
        stats = StatRegistry("t")
        shard = CacheShard(capacity=2, stats=stats)
        shard.put("a", now=0.0, ttl=10.0, value=b"A")
        shard.put("b", now=0.0, ttl=10.0, value=b"B")
        assert shard.value_of("a") == b"A"
        # Eviction drops the LRU entry's value with it.
        shard.put("c", now=0.0, ttl=10.0, value=b"C")
        assert shard.value_of("a") is None
        # Expiry drops the value on touch.
        assert shard.probe("b", now=20.0, stale_cycles=None) == "miss"
        assert shard.value_of("b") is None
        # Flush drops everything.
        shard.flush()
        assert shard.value_of("c") is None

    def test_fragment_cache_probe_hit_stale_miss(self):
        config = CacheTierConfig(
            shards=2, shard_capacity=8, ttl_services=10.0,
            stale_services=10.0, single_flight=True,
        )
        cache = FragmentCache(config, mean_service_s=1.0)
        cache.fill("k", now=0.0, body=b"page")
        state, value = cache.probe("k", now=1.0)
        assert (state, value) == ("hit", b"page")
        ttl = jittered_ttl("k", 10.0, config.ttl_jitter)
        state, value = cache.probe("k", now=ttl + 1.0)
        assert (state, value) == ("stale", b"page")
        state, value = cache.probe("k", now=ttl + 11.0)
        assert (state, value) == ("miss", None)

    def test_jittered_ttl_is_pure_and_bounded(self):
        assert jittered_ttl("x", None, 0.5) is None
        assert jittered_ttl("x", 100.0, 0.0) == 100.0
        seen = {jittered_ttl(f"k{i}", 100.0, 0.2) for i in range(50)}
        assert len(seen) > 10, "jitter should spread per-key"
        assert all(80.0 <= t <= 100.0 for t in seen)
        assert jittered_ttl("k1", 100.0, 0.2) \
            == jittered_ttl("k1", 100.0, 0.2)


class TestTelemetry:
    def _event(self, **overrides) -> RequestEvent:
        base = dict(
            t_ms=1.0, route="wordpress", status=200, cache="hit",
            queue_wait_ms=0.0, render_ms=0.0, total_ms=0.5,
            bytes_out=100,
        )
        base.update(overrides)
        return RequestEvent(**base)

    def test_ring_is_bounded_and_counts_drops(self):
        log = TelemetryLog(max_events=5)
        for i in range(8):
            log.record(self._event(t_ms=float(i)))
        assert len(log) == 5
        assert log.recorded == 8
        assert log.dropped == 3
        # The *tail* survives (oldest events dropped first).
        assert [e.t_ms for e in log] == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_jsonl_roundtrip_validates(self, tmp_path):
        log = TelemetryLog()
        log.record(self._event())
        log.record(self._event(
            status=503, cache="miss", shed="admission queue full",
            bytes_out=0,
        ))
        path = log.write_jsonl(tmp_path / "t.jsonl")
        rows = TelemetryLog.read_jsonl(path)
        assert len(rows) == 2
        assert all(r["schema"] == TELEMETRY_SCHEMA for r in rows)
        assert rows[1]["shed"] == "admission queue full"

    def test_validator_rejects_corrupt_rows(self):
        good = self._event().to_row()
        validate_event_row(good)
        for corrupt in (
            {**good, "schema": "repro-serve/1"},
            {**good, "cache": "warm"},
            {**good, "status": 9000},
            {**good, "total_ms": -1.0},
            {**good, "bytes_out": -5},
            {**good, "ops": []},
        ):
            with pytest.raises(ValueError):
                validate_event_row(corrupt)

    def test_latency_samples_and_ops_summary(self):
        log = TelemetryLog()
        log.record(self._event(total_ms=2.0, ops={"calls": 3}))
        log.record(self._event(status=503, total_ms=9.0))
        log.record(self._event(total_ms=4.0, ops={"calls": 2}))
        assert log.latency_samples() == [2.0, 4.0]
        assert summarize_ops(iter(log)) == {"calls": 5}


class TestServeReportSchema:
    def _payload(self) -> dict:
        report = ServeReport(
            mode="smoke", seed=0, connections=8, peak_connections=8,
            offered=10, answered=10, ok=10, goodput_rps=5.0,
            goodput_ratio=1.0, slo_ok=True, oracle_ok=True,
            duration_s=2.0,
        )
        from repro.common.stats import summarize_latencies
        report.latency = summarize_latencies([1.0, 2.0, 3.0])
        return report.to_payload()

    def test_roundtrip_validates(self):
        payload = self._payload()
        assert payload["schema"] == SERVE_SCHEMA
        validate_serve_payload(payload)

    def test_validator_rejects_corrupt_payloads(self):
        good = self._payload()
        for corrupt in (
            {**good, "schema": "repro-perf/1"},
            {**good, "mode": "prod"},
            {**good, "offered": -1},
            {**good, "goodput_ratio": 1.5},
            {**good, "latency": {}},
            {**good, "slo_ok": "yes"},
            {**good, "oracle_ok": None},
            {**good, "host": {}},
        ):
            with pytest.raises(ValueError):
                validate_serve_payload(corrupt)

    def test_served_requests_require_latency_samples(self):
        bad = self._payload()
        bad["latency"] = dict(
            count=0, mean=0.0, p50=0.0, p99=0.0, p999=0.0
        )
        with pytest.raises(ValueError):
            validate_serve_payload(bad)

    def test_history_row_roundtrip_and_append(self, tmp_path):
        payload = self._payload()
        row = serve_history_row(payload)
        assert row["schema"] == SERVE_HISTORY_SCHEMA
        validate_serve_history_row(row)
        path = tmp_path / "history.jsonl"
        path.touch()
        append_serve_history(payload, path=path)
        append_serve_history(payload, path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_serve_history_row(json.loads(line))

    def test_history_validator_rejects_corrupt_rows(self):
        good = serve_history_row(self._payload())
        for corrupt in (
            {**good, "schema": "repro-perf-history/1"},
            {**good, "goodput_ratio": -0.1},
            {**good, "slo_ok": 1},
            {**good, "connections": 1.5},
            {**good, "host": {}},
        ):
            with pytest.raises(ValueError):
                validate_serve_history_row(corrupt)

    def test_format_serve_report_renders_the_verdict(self):
        text = format_serve_report(self._payload())
        assert "live serving path (wall-clock)" in text
        assert "PASS" in text


class TestLoadClient:
    def test_arrival_schedule_is_deterministic(self):
        from repro.common.rng import DeterministicRng

        shape = ArrivalShape(
            rate_rps=200.0, duration_s=3.0, flash_multiplier=2.0,
            flash_start_s=1.0, flash_duration_s=1.0,
            diurnal_amplitude=0.3, diurnal_period_s=3.0,
        )
        a = shape.draw_arrivals(DeterministicRng(7).fork("arrivals"))
        b = shape.draw_arrivals(DeterministicRng(7).fork("arrivals"))
        assert a == b
        assert all(0.0 <= t < 3.0 for t in a)
        # Offered volume lands in the right ballpark for λ(t).
        assert 300 < len(a) < 1_200

    def test_flash_window_concentrates_arrivals(self):
        from repro.common.rng import DeterministicRng

        shape = ArrivalShape(
            rate_rps=300.0, duration_s=4.0, flash_multiplier=3.0,
            flash_start_s=1.0, flash_duration_s=1.0,
        )
        arrivals = shape.draw_arrivals(
            DeterministicRng(3).fork("arrivals")
        )
        inside = sum(1 for t in arrivals if 1.0 <= t < 2.0)
        outside = (len(arrivals) - inside) / 3.0  # per non-flash second
        assert inside > 1.8 * outside

    def test_fd_clamp_respects_the_budget(self):
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        clamped = max_supported_connections(10**9)
        assert 1 <= clamped <= soft // 2
        assert max_supported_connections(4) == 4

    def test_end_to_end_small_load_run(self):
        async def scenario():
            server = MiniPhpServer(_config())
            await server.start()
            try:
                config = LoadConfig(
                    connections=8,
                    shape=ArrivalShape(rate_rps=80.0, duration_s=1.0),
                    seed=1, seed_space=4, vary_space=1,
                )
                result = await run_load(
                    "127.0.0.1", server.port, config
                )
            finally:
                await server.stop()
            return result, server

        result, server = _run(scenario())
        assert result.offered > 20
        assert result.ok == result.offered
        assert result.conn_errors == 0
        assert result.connections == 8
        assert server.peak_connections <= 8
        assert len(result.latencies_ms) == result.ok
        report = build_report("smoke", 1, result, server)
        payload = report.to_payload()
        validate_serve_payload(payload)
        assert payload["goodput_ratio"] == 1.0


class TestServedBytesOracle:
    def test_pinned_cases_are_byte_identical(self):
        cases = [("wordpress", 0, 0), ("drupal", 3, 1),
                 ("mediawiki", 5, 2)]
        assert serve_oracle_mismatches(cases) == []

    def test_oracle_runs_as_a_conformance_domain(self):
        from repro.conformance.fuzzer import DOMAINS, run_case

        assert "serve" in DOMAINS
        run_case("serve", [["wordpress", 1, 0], ["drupal", 2, 1]])

    def test_oracle_rejects_malformed_case_ops(self):
        from repro.conformance.oracles import (
            ConformanceFailure,
            run_serve_oracle,
        )

        with pytest.raises(ConformanceFailure):
            run_serve_oracle([["wordpress", 1]])

    def test_generator_produces_valid_cases(self):
        from repro.common.rng import DeterministicRng
        from repro.conformance.fuzzer import generate_case

        rng = DeterministicRng(11).fork("serve-gen")
        for _ in range(5):
            case = generate_case("serve", rng)
            assert 1 <= len(case) <= 3
            for app, seed, vary in case:
                assert app in ("wordpress", "drupal", "mediawiki")
                assert 0 <= seed <= 9
                assert 0 <= vary <= 2
