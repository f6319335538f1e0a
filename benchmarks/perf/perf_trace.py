"""Per-layer spans for the traced runs, recorded from outside the program.

:func:`install` replaces the public entry point of each ``repro`` layer with
a thin wrapper: on the class for methods, and on the module attribute each
caller resolves at call time for functions.  Nothing under ``src/`` is
edited.  A wrapper records a span only while its thread runs a traced
operation (:meth:`Tracer.begin_op`); otherwise it calls straight through, so
a traced run can interleave traced and untraced operations and measure the
tracing overhead from the difference.

Spans are ``[id, name, start_ns, end_ns, parent_id, op, attrs]`` lists kept
in memory and summarized (or dumped as JSON) when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
from time import perf_counter_ns

# Which layer metrics each workload must produce spans for.  The smoke test
# asserts every listed span name is recorded, so a refactor that renames or
# bypasses one of these entry points fails loudly instead of reading 0.
REQUIRED_SPANS = {
    "catalog-csv": (
        "relation.infer", "pipeline.scan", "pipeline.execute_plan",
        "bucketing.count", "core.solve", "mining.catalog",
    ),
    "catalog-columnar": (
        "pipeline.scan", "pipeline.execute_plan", "bucketing.count",
        "core.solve", "mining.catalog",
    ),
    "serve-hot": ("service.handle", "pipeline.fingerprint"),
    "serve-live": (
        "service.handle", "pipeline.fingerprint", "pipeline.scan",
        "bucketing.count", "core.solve", "mining.catalog", "store.serve",
        "store.append",
    ),
}


# Per-layer metrics measured by the service workloads outside the spans.
SERVICE_ONLY = (
    "service.transport_ms", "service.cache_hit_ratio", "service.coalesced",
    "service.solve_batches", "client.late_p99_ms", "store.bytes_per_data_byte",
)


class Tracer:
    """Thread-aware span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[str, str]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def begin_op(self, op: str) -> None:
        self._local.op = op
        self._local.stack = []

    def end_op(self) -> None:
        self._local.op = None

    def open(self, name: str, outermost: bool = False) -> list | None:
        """Start a span, or return ``None`` when the thread is not tracing
        (or, with ``outermost``, when a span of this name is already open)."""
        local = self._local
        op = getattr(local, "op", None)
        if op is None:
            return None
        stack = local.stack
        if outermost and any(span[1] == name for span in stack):
            return None
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), name, perf_counter_ns(), 0, parent, op, None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[3] = perf_counter_ns()
        span[6] = attrs
        self._local.stack.pop()
        self.spans.append(span)

    def count(self, name: str) -> None:
        op = getattr(self._local, "op", None)
        if op is not None:
            self.counts.append((name, op))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _wrap(tracer, owner, attribute, name, attrs_of=None, outermost=False):
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open(name, outermost)
        if span is None:
            return original(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.close(span, {"error": True})
            raise
        tracer.close(span, attrs_of(result) if attrs_of else None)
        return result

    setattr(owner, attribute, traced)


def _timed_chunks(tracer, iterator):
    """Re-yield a scan's chunks, timing the work done inside each ``next``."""
    iterator = iter(iterator)
    while True:
        span = tracer.open("pipeline.scan", outermost=True)
        try:
            chunk = next(iterator)
        except StopIteration:
            return
        finally:
            if span is not None:
                tracer.close(span)
        yield chunk


def _wrap_scan(tracer, owner, attribute, counter):
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open("pipeline.scan", outermost=True)
        if span is None:
            return original(*args, **kwargs)
        try:
            iterator = original(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.count(counter)
        return _timed_chunks(tracer, iterator)

    setattr(owner, attribute, traced)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point; call once, before the layers run."""
    import repro.core.miner as miner
    import repro.mining
    import repro.mining.catalog
    import repro.pipeline.builder as builder
    import repro.relation.io as relation_io
    from repro.pipeline.sources import CSVSource, NpyDirectorySource
    from repro.service.app import RuleService
    from repro.store.profile_store import ProfileStore

    _wrap(tracer, relation_io, "infer_csv_schema", "relation.infer")
    for source in (CSVSource, NpyDirectorySource):
        _wrap_scan(tracer, source, "scan", "scan.full")
        _wrap_scan(tracer, source, "scan_tail", "scan.tail")
        _wrap_scan(tracer, source, "scan_span", "scan.span")
        _wrap(tracer, source, "fingerprint", "pipeline.fingerprint")
    _wrap(tracer, builder.ProfileBuilder, "execute_plan", "pipeline.execute_plan")

    def tuples(result):
        return {"tuples": int(result.parts[0].num_tuples) if result.parts else 0}

    _wrap(tracer, builder, "count_plan_chunk", "bucketing.count", tuples)
    _wrap(tracer, miner, "solve_optimized_confidence", "core.solve")
    _wrap(tracer, miner, "solve_optimized_support", "core.solve")
    # The package re-exports the function; callers resolve either name.
    _wrap(tracer, repro.mining.catalog, "mine_rule_catalog", "mining.catalog")
    repro.mining.mine_rule_catalog = repro.mining.catalog.mine_rule_catalog
    _wrap(tracer, ProfileStore, "serve", "store.serve", lambda result: {"status": result[1]})
    _wrap(tracer, ProfileStore, "append", "store.append")

    fsync = os.fsync

    def counted_fsync(fd):
        tracer.count("fsync")
        return fsync(fd)

    os.fsync = counted_fsync

    handle = RuleService.handle

    @functools.wraps(handle)
    def traced_handle(self, method, path, query=None, headers=None, body=b""):
        # The client marks traced requests "t:<op id>" in X-Bench-Op, so the
        # server's spans join the client's record of the same operation.
        marker = str((headers or {}).get("x-bench-op", ""))
        if not marker.startswith("t:"):
            return handle(self, method, path, query, headers, body)
        tracer.begin_op(marker[2:])
        try:
            span = tracer.open("service.handle")
            try:
                status, payload = handle(self, method, path, query, headers, body)
            finally:
                tracer.close(span, {"path": path})
            return status, payload
        finally:
            tracer.end_op()

    RuleService.handle = traced_handle


def merge(dumps: list[dict]) -> dict:
    """One dump from several processes' dumps; span and op ids become
    ``"<index>.<id>"`` with ``index`` the dump's position in the list."""
    spans, counts = [], []
    for index, dump in enumerate(dumps):
        for span_id, name, start, end, parent, op, attrs in dump["spans"]:
            spans.append([
                f"{index}.{span_id}", name, start, end,
                None if parent is None else f"{index}.{parent}", f"{index}.{op}", attrs,
            ])
        counts += [(name, f"{index}.{op}") for name, op in dump["counts"]]
    return {"spans": spans, "counts": counts}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(dump: dict, op_ms: dict[str, float], writes: int) -> dict[str, float]:
    """Per-layer metrics over the traced operations named in ``op_ms``.

    ``op_ms`` maps each traced op id to its wall time (ms) as the caller saw
    it; layer times are reported per op, append-path numbers per write.
    """
    ops = len(op_ms)
    spans = [span for span in dump["spans"] if span[5] in op_ms]
    counts: dict[str, int] = {}
    for name, op in dump["counts"]:
        if op in op_ms:
            counts[name] = counts.get(name, 0) + 1
    children: dict[str, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    tuples = 0
    handled = {"hit": [], "miss": []}
    top_level = 0.0
    for span in spans:
        name, duration = span[1], (span[3] - span[2]) / 1e6
        below = children.get(span[0], ())
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - sum(
            (child[3] - child[2]) / 1e6 for child in below
        )
        calls[name] = calls.get(name, 0) + 1
        if span[4] is None:
            top_level += duration
        attrs = span[6] or {}
        if name == "bucketing.count":
            tuples += attrs.get("tuples", 0)
        if name == "service.handle" and attrs.get("path") == "/v1/catalog":
            miss = any(child[1] == "mining.catalog" for child in below)
            handled["miss" if miss else "hit"].append(duration)
    serves = [span for span in spans if span[1] == "store.serve"]

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def per_write(value: float) -> float:
        return value / writes if writes else 0.0

    count_seconds = total.get("bucketing.count", 0.0) / 1e3
    wall = sum(op_ms.values())
    return {
        "relation.infer_ms": per_op(total.get("relation.infer", 0.0)),
        "pipeline.scan_ms": per_op(total.get("pipeline.scan", 0.0)),
        "pipeline.full_scans": per_op(counts.get("scan.full", 0)),
        "pipeline.tail_scans": per_write(counts.get("scan.tail", 0)),
        "pipeline.sample_ms": per_op(own.get("pipeline.execute_plan", 0.0)),
        "pipeline.fingerprint_ms": per_op(total.get("pipeline.fingerprint", 0.0)),
        "pipeline.fingerprint_calls": per_op(calls.get("pipeline.fingerprint", 0)),
        "bucketing.count_ms": per_op(total.get("bucketing.count", 0.0)),
        "bucketing.count_tuples_per_s": tuples / count_seconds if count_seconds else 0.0,
        "core.solve_ms": per_op(total.get("core.solve", 0.0)),
        "core.solve_calls": per_op(calls.get("core.solve", 0)),
        "mining.catalog_ms": per_op(total.get("mining.catalog", 0.0)),
        "mining.glue_ms": per_op(own.get("mining.catalog", 0.0)),
        "store.serve_ms": per_op(total.get("store.serve", 0.0)),
        "store.hit_ratio": (
            sum(1 for span in serves if (span[6] or {}).get("status") == "hit")
            / len(serves)
            if serves
            else 0.0
        ),
        "store.append_ms": per_write(total.get("store.append", 0.0)),
        "store.fsyncs_per_write": per_write(counts.get("fsync", 0)),
        "service.handle_hit_ms": _median(handled["hit"]),
        "service.handle_miss_ms": _median(handled["miss"]),
        "trace.unattributed_frac": 1.0 - top_level / wall if wall else 0.0,
    }


def span_names(dump: dict) -> set[str]:
    return {span[1] for span in dump["spans"]}
