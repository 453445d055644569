"""The benchmark's HTTP load generator.

One thread, non-blocking sockets, requests encoded before the window
opens, HTTP/1.1 keep-alive without pipelining.  Two drivers share the
connection handling:

* :func:`closed_loop` — every connection sends its next request as
  soon as the previous response completes; the completion count over
  the window is the server's capacity.
* :func:`open_loop` — requests are due at seeded Poisson instants
  regardless of how the server keeps up.  Each is timed from its due
  instant to its last body byte, so a stall also charges the requests
  it delays.  A request due while every connection is busy waits in
  the generator's queue, and that wait is part of its latency.  The
  generator's own lateness (send time minus the moment it could have
  sent) is reported separately: a run where it falls behind measures
  the generator, not the server.

``repro.serve.loadclient.run_load`` is not used: its ``_Worker._attempt``
starts the clock only after a job has waited in its connection's
queue, so its p99 leaves out queueing, and ``run_serve`` runs that
client inside the server's own event loop.
"""

from __future__ import annotations

import contextlib
import gc
import selectors
import socket
import time

clock = time.perf_counter


@contextlib.contextmanager
def no_gc():
    """Keep collector pauses out of the generator's timing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Response:
    """One finished exchange as the generator saw it."""

    __slots__ = ("index", "due", "sent", "done", "status", "body")

    def __init__(self, index, due, sent, done, status, body):
        self.index = index
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.body = body


class _Conn:
    __slots__ = ("sock", "buf", "index", "due", "sent", "ready_at")

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()
        self.index = -1
        self.due = 0.0
        self.sent = 0.0
        self.ready_at = clock()


def _parse(buf: bytearray):
    """``(status, body, consumed)`` once a full response is buffered."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total]), total


class Generator:
    """Keep-alive connections to one server, driven from one thread."""

    def __init__(self, port: int, connections: int) -> None:
        # select() takes a float timeout; epoll and poll round up to
        # whole milliseconds, which would show up as generator lag.
        self.sel = selectors.SelectSelector()
        self.conns = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)
        self.idle = list(self.conns)

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    def _send(self, conn, index, due, payload) -> None:
        conn.index, conn.due, conn.sent = index, due, clock()
        conn.sock.sendall(payload)

    def _poll(self, timeout, finished) -> None:
        """Read whatever arrived; append completed exchanges."""
        for key, _ in self.sel.select(timeout):
            conn = key.data
            chunk = conn.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed a keep-alive connection")
            conn.buf += chunk
            parsed = _parse(conn.buf)
            if parsed is None:
                continue
            status, body, used = parsed
            del conn.buf[:used]
            now = clock()
            finished.append(Response(conn.index, conn.due, conn.sent, now,
                                     status, body))
            conn.ready_at = now
            self.idle.append(conn)

    def sequential(self, payloads, count: int, timeout: float = 30.0):
        """Send ``count`` requests one at a time on the first connection."""
        finished: list[Response] = []
        for index in range(count):
            self._send(self.idle.pop(), index, clock(), payloads(index))
            while len(finished) <= index:
                self._poll(timeout, finished)
        return finished

    def closed_loop(self, payloads, seconds: float, settle: float = 10.0):
        """Send back to back for ``seconds``; return the exchanges.

        Only exchanges completed inside the window count toward a rate;
        the ones in flight at its end are drained and returned too.
        """
        finished: list[Response] = []
        start = clock()
        end = start + seconds
        index = 0
        with no_gc():
            while True:
                now = clock()
                if now < end:
                    while self.idle:
                        conn = self.idle.pop()
                        self._send(conn, index, now, payloads(index))
                        index += 1
                elif len(self.idle) == len(self.conns) or now > end + settle:
                    break
                self._poll(0.05, finished)
        return start, end, finished

    def open_loop(self, payloads, due: list[float], settle: float = 10.0):
        """Send request ``i`` at ``start + due[i]``; return exchanges.

        Also returns the generator lag of every send: how long after
        the later of its due instant and a connection freeing up the
        request actually left.
        """
        finished: list[Response] = []
        lags: list[float] = []
        payload = [payloads(i) for i in range(len(due))]
        start = clock() + 0.05
        n = len(due)
        index = 0
        with no_gc():
            while True:
                now = clock()
                while index < n and self.idle and start + due[index] <= now:
                    conn = self.idle.pop(0)
                    at = start + due[index]
                    lags.append(now - max(at, conn.ready_at))
                    self._send(conn, index, at, payload[index])
                    index += 1
                    now = clock()
                if index >= n and len(self.idle) == len(self.conns):
                    break
                if now > start + (due[-1] if due else 0.0) + settle:
                    break
                wait = 0.05
                if index < n and self.idle:
                    wait = max(0.0, start + due[index] - now)
                self._poll(wait, finished)
        return start, index, finished, lags
