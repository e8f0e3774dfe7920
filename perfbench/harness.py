"""Shared machinery for the smartbag benchmark: the metric catalogue,
spans, call probes around the objects the benchmark injects, and
statistics.

Every timing is taken from outside the program. A probe wraps an object the
program calls into (a store client, a store, a sink) or a public function
the benchmark calls itself, counts each call and the calls that raised,
and, when tracing is on, records one span per call.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import platform
import resource
import threading
import time

# Every metric the benchmark can print, with its unit. BENCHMARK.json at the
# repository root lists the same names; perfbench/test_smoke.py checks that
# the two agree.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "store.http_post_ms": "ms",
    "store.http_patch_ms": "ms",
    "store.http_get_ms": "ms",
    "gateway.tick_ms": "ms",
    "gateway.tick_self_ms": "ms",
    "gateway.requests_per_record": "count",
    "gateway.buffer_dropped": "count",
    "gateway.lost_event_share": "ratio",
    "frames.encode_us": "us",
    "frames.parse_us": "us",
    "store.get_history_ms": "ms",
    "store.history_len": "count",
    "store.append_us": "us",
    "store.patch_us": "us",
    "store.wal_bytes_per_record": "B",
    "store.replay_records_per_s": "1/s",
    "alerts.poll_ms": "ms",
    "alerts.poll_self_ms": "ms",
    "alerts.store_calls_per_record": "count",
    "alerts.entries_per_poll": "count",
    "alerts.notifications": "count",
    "dataset.generate_ms": "ms",
    "dataset.split_ms": "ms",
    "nn.train_epoch_ms": "ms",
    "nn.evaluate_ms": "ms",
    "nn.export_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unaccounted_ms": "ms",
    "trace.spans": "count",
}

# A tail percentile is trustworthy only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class GateFailure(Exception):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


# --- spans ----------------------------------------------------------------


class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent_id, thread).

    Parents are tracked per thread, so a call made while another span is
    open on the same thread becomes its child. Disabled tracers only run
    the call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident()))

    def self_times_ns(self) -> dict:
        """Span id -> duration minus the time its child spans cover."""
        child_ns = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        return {sid: (end - start) - child_ns.get(sid, 0)
                for sid, _, start, end, _, _ in self.spans}

    def durations(self, name: str, self_time: bool = False) -> list:
        """Durations in seconds of every span with this name."""
        if self_time:
            own = self.self_times_ns()
            return [own[sid] / 1e9 for sid, n, *_ in self.spans if n == name]
        return [(end - start) / 1e9
                for _, n, start, end, _, _ in self.spans if n == name]

    def accounted_s(self, windows) -> list:
        """For each (start_ns, end_ns) window, the self time in seconds of
        the main-thread spans that lie inside it.

        Nested spans' self times add up to the duration of their outermost
        span, so this is the part of the window some layer span covers.
        """
        main = threading.main_thread().ident
        own = self.self_times_ns()
        spans = sorted((s, e, own[sid]) for sid, _, s, e, _, tid in self.spans
                       if tid == main)
        starts = [s for s, _, _ in spans]
        out = []
        for start, end in windows:
            total = 0
            for s, e, self_ns in spans[bisect.bisect_left(starts, start):]:
                if s > end:
                    break
                if e <= end:
                    total += self_ns
            out.append(total / 1e9)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "thread": tid}) + "\n")


class Probe:
    """Stands in for an object the program calls into.

    Each named method is forwarded to the wrapped object, counted, and
    traced as a span "<layer>.<method>". Calls that raise are counted as
    errors and re-raised. With `keep`, every call is logged as
    (method, args, result) for the correctness checks. Other attributes
    pass through untouched.
    """

    def __init__(self, inner, layer: str, tracer: Tracer, methods, keep=False):
        self._inner = inner
        self._layer = layer
        self._tracer = tracer
        self.calls = dict.fromkeys(methods, 0)
        self.errors = 0
        self.log = [] if keep else None
        for method in methods:
            setattr(self, method, self._wrap(method))

    def _wrap(self, method):
        fn = getattr(self._inner, method)
        name = f"{self._layer}.{method}"

        def probed(*args, **kwargs):
            self.calls[method] += 1
            try:
                result = self._tracer.call(name, fn, *args, **kwargs)
            except Exception:
                self.errors += 1
                raise
            if self.log is not None:
                self.log.append((method, args, result))
            return result

        return probed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


# --- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def median_or_zero(values, scale: float = 1.0) -> float:
    """Median of the samples times scale; 0 when the layer saw no calls."""
    return median(values) * scale if values else 0.0


def latency_summary(samples_s, note: list) -> dict:
    """p50 and p95 in ms of a list of seconds, noting a thin tail."""
    beyond = len(samples_s) * 0.05
    if beyond < MIN_TAIL_SAMPLES:
        note.append(f"only {len(samples_s)} latency samples: p95 has "
                    f"{beyond:.1f} beyond it (want {MIN_TAIL_SAMPLES})")
    return {"latency_ms.p50": median(samples_s) * 1e3,
            "latency_ms.p95": percentile(samples_s, 95) * 1e3}


# --- process and environment ----------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "caveats": [
            "latency is loopback HTTP on a shared machine, not a network",
            "WAL writes use flush() without fsync and land in the page cache",
            "no machine-wide tracing: spans are taken around calls from the "
            "benchmark's own process",
        ],
    }


def fsync_file(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def timed_setup(build, teardown=None, repeats: int = 3):
    """Run `build(i)` `repeats` times; return (median seconds, last result).

    Every result but the last is handed to `teardown`, outside the timing.
    """
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        result = build(i)
        times.append(time.perf_counter() - start)
        if teardown is not None and i < repeats - 1:
            teardown(result)
    return median(times), result
