"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; nothing in ``src/`` is edited.  Every
wrapped call pushes a frame on a per-thread span stack, so a span's
self time (its duration minus the part its child spans cover) stays
correct across the server's event loop and its render threads.

Spans are aggregated in memory per thread as ``[calls, total_s,
self_s, bytes]`` per layer name and merged when the process reports.
Names are the layer metric stems used in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import threading
import time

CALLS, TOTAL, SELF, BYTES = range(4)


class Tracer:
    """Per-thread span stacks feeding per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list[float]]] = []
        self.kernel_mode = None

    def _table(self) -> dict[str, list[float]]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, name, fn, measure=None, on_result=None, name_of=None):
        """``fn`` with a span named ``name`` around every call.

        ``measure(args)`` adds to the span's byte count; ``on_result``
        sees each result (for counters carried in return values);
        ``name_of(result)`` renames the span after a successful call.
        """
        local = self._local
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = getattr(local, "table", None)
            if table is None:
                table = tracer._table()
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            span = name
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if name_of is not None:
                    span = name_of(result)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                row = table.get(span)
                if row is None:
                    row = table[span] = [0, 0.0, 0.0, 0]
                row[CALLS] += 1
                row[TOTAL] += dt
                row[SELF] += dt - frame[0]
                if measure is not None:
                    row[BYTES] += measure(args)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` with its traced version."""
        setattr(owner, attr, self.wrap(name, owner.__dict__[attr], **kw))

    def bump(self, name: str, value: float) -> None:
        """Add ``value`` to the byte/count column of ``name``."""
        row = self._table().setdefault(name, [0, 0.0, 0.0, 0])
        row[BYTES] += value

    def snapshot(self) -> dict[str, list[float]]:
        """Merged aggregates of every thread, as plain lists."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return merged


def diff(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots."""
    out = {}
    for name, row in after.items():
        base = before.get(name, [0, 0.0, 0.0, 0])
        out[name] = [a - b for a, b in zip(row, base)]
    return out


def _subject_len(args) -> int:
    subject = args[1] if len(args) > 1 else ""
    return len(subject) if isinstance(subject, str) else 0


def install_kernels(tracer: Tracer) -> None:
    """Wrap every accelerator kernel at its registry binding point.

    The traced implementations are registered as one more backend and
    selected with the registry's own mode switch, so the wrappers sit
    exactly where every backend's kernels are bound.
    """
    from repro.accel.registry import DEFAULT_BACKEND, REGISTRY

    for kernel in REGISTRY.kernel_names():
        impl = REGISTRY.resolve(kernel, DEFAULT_BACKEND)
        measure = _subject_len if kernel.startswith("string.") else None
        REGISTRY.register(
            kernel, "bench-traced",
            tracer.wrap(f"accel.{kernel}", impl, measure=measure),
        )
    # Held on the tracer: a collected context manager would close its
    # generator and restore the untraced kernels.
    tracer.kernel_mode = REGISTRY.backend_mode("bench-traced")
    tracer.kernel_mode.__enter__()


def install_render_path(tracer: Tracer) -> None:
    """Spans inside one render: variables, text, interpreter, complex."""
    from repro.accel.regex_accel import ContentSifter
    from repro.isa.dispatch import AcceleratorComplex
    from repro.runtime.interp import MiniPhpInterpreter
    from repro.workloads import templates
    from repro.workloads.text import TextCorpus

    templates.build_variables = tracer.wrap(
        "workloads.templates.build_variables", templates.build_variables
    )
    tracer.patch(MiniPhpInterpreter, "render", "runtime.interp.render")
    tracer.patch(AcceleratorComplex, "__init__", "isa.dispatch.complex_init")
    for attr in ("word", "slug", "author_url", "html_tag", "shortcode",
                 "paragraph", "post", "clean_text", "log_line"):
        tracer.patch(TextCorpus, attr, "workloads.text")
    for attr in ("build_hint_vector", "shadow_findall",
                 "replace_with_padding"):
        tracer.patch(ContentSifter, attr, "accel.regex_accel.sift")
    install_kernels(tracer)


def traced_render_fn(tracer: Tracer):
    """The ``render_fn`` handed to ``MiniPhpServer``: a traced render.

    The interpreter's own op counters ride back in the render result;
    they are summed here so the per-request call and variable-read
    counts need no span inside the interpreter.
    """
    from repro.workloads.templates import render_http_page

    def count_ops(result) -> None:
        ops = result[1]
        tracer.bump("runtime.interp.calls", ops.get("calls", 0))
        tracer.bump("runtime.interp.var_gets", ops.get("var_gets", 0))

    return tracer.wrap("workloads.templates.render_fn", render_http_page,
                       on_result=count_ops)


def install_serve(tracer: Tracer) -> None:
    """Spans on the server's cache and telemetry paths."""
    from repro.serve.httpd import FragmentCache
    from repro.serve.telemetry import TelemetryLog

    # Hit and miss probes get separate names: a miss probe sits inside
    # the request's queue wait, a hit probe does not.
    tracer.patch(
        FragmentCache, "probe", "serve.cache.probe",
        name_of=lambda result: (
            "serve.cache.probe_miss" if result[0] == "miss"
            else "serve.cache.probe_hit"
        ),
    )
    tracer.patch(FragmentCache, "fill", "serve.cache.fill")
    tracer.patch(TelemetryLog, "record", "serve.telemetry.record")
    install_render_path(tracer)


def install_eval(tracer: Tracer) -> None:
    """Spans on the evaluation path: traces, simulators, inliner."""
    from repro.core import execute
    from repro.optim.inline_cache import HashMapInliner
    from repro.workloads.loadgen import SharedTraceStream

    def count_trace(trace) -> None:
        tracer.bump("workloads.loadgen.ops", trace.op_count)

    tracer.patch(SharedTraceStream, "trace", "workloads.loadgen.trace",
                 on_result=count_trace)

    def ops_len(args) -> int:
        return len(args[1])

    for cls, attrs, name in (
        (execute.HashSimulator, ("execute",), "core.execute.hash"),
        (execute.HeapSimulator, ("execute",), "core.execute.heap"),
        (execute.StringSimulator, ("execute",), "core.execute.string"),
        (execute.RegexSimulator, ("execute_sift", "execute_reuse"),
         "core.execute.regex"),
    ):
        for attr in attrs:
            tracer.patch(cls, attr, name, measure=ops_len)
    tracer.patch(HashMapInliner, "filter", "optim.inline_cache.filter")
    install_render_path(tracer)


def install_des(tracer: Tracer) -> None:
    """Spans on the parts the discrete-event engines share."""
    from repro.fleet import balancer
    from repro.fleet.cache_tier import ObjectCacheTier

    for attr in ("lookup", "probe"):
        tracer.patch(ObjectCacheTier, attr, "fleet.cache_tier.probe")
    for cls in (balancer.RoundRobin, balancer.LeastOutstanding,
                balancer.PowerOfTwoChoices):
        if "pick" in cls.__dict__:
            tracer.patch(cls, "pick", "fleet.balancer.pick")
