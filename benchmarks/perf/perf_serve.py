"""The service workloads: ``repro serve`` in a subprocess, loaded over HTTP.

``serve-hot`` is a closed loop of response-cache hits; ``serve-live`` is an
open loop of reads beside periodic appends to the served CSV.  The load
comes from this process alone, over two keep-alive connections driven by
two threads.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import perf_data
import perf_trace

HERE = Path(__file__).resolve().parent
TOKEN_ENV = "PERFBENCH_TOKEN"
CONNECTIONS = 2
# The production flags of infra/compose.prod.yml (--buckets comes from the
# run settings so the smoke test can shrink it).
SERVE_FLAGS = ["--workers", "8"]
# `repro serve` defaults, which the direct in-process check must repeat.
SERVER_SEED = 0
DEFAULT_MIN_SUPPORT = 0.10
MIN_CONFIDENCE = 0.50
DEFAULT_TOP = 20
HOT_KEYS = [{"top": top} for top in range(1, 9)]
LIVE_KEYS = [{"min_support": percent / 100} for percent in range(5, 13)]
LIVE_READS_PER_S = 60
WRITE_EVERY_S = 3.0
WRITE_ROWS_SHARE = 0.005
SLO_MS = 250.0
LATE_FLAG_MS = 5.0
SPIN_S = 0.002


class Record(NamedTuple):
    op: str
    traced: bool
    latency_ms: float  # from the moment the op was due (closed loop: sent)
    service_ms: float  # from send to the last byte of the response
    end: float
    ok: bool
    late_ms: float = 0.0  # how late the generator sent it (open loop only)


def _target(params: dict) -> str:
    return "/v1/catalog?" + "&".join(f"{name}={value}" for name, value in params.items())


def _quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal response parser."""

    def __init__(self, port: int, token: str) -> None:
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=120)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")
        self._auth = f"Authorization: Bearer {token}\r\n"

    def request(self, method: str, target: str, op: str = "") -> tuple[int, bytes]:
        head = f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n{self._auth}"
        if op:
            head += f"X-Bench-Op: {op}\r\n"
        if method == "POST":
            head += "Content-Length: 0\r\n"
        self._socket.sendall((head + "\r\n").encode("ascii"))
        status_line = self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self._reader.read(length)

    def close(self) -> None:
        self._reader.close()
        self._socket.close()


class Server:
    """``repro serve`` (or its traced twin) on a free local port."""

    def __init__(self, csv: Path, store: Path, buckets: int, env: dict, spans: Path | None, cpus: set[int]) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.token = env[TOKEN_ENV]
        arguments = [
            "serve", str(csv), "--store", str(store), "--host", "127.0.0.1",
            "--port", str(self.port), "--token-env", TOKEN_ENV,
            "--buckets", str(buckets), *SERVE_FLAGS,
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *arguments]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), "--spans", str(spans), *arguments]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        if cpus:
            os.sched_setaffinity(self.process.pid, cpus)

    def connect(self) -> Connection:
        return Connection(self.port, self.token)

    def first_catalog(self, params: dict) -> float:
        """Wait for ``/readyz``, then the first catalog; returns set-up seconds."""
        deadline = self.started + 120
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server was not ready within 120 s")
            try:
                connection = self.connect()
            except OSError:
                time.sleep(0.02)
                continue
            try:
                if connection.request("GET", "/readyz")[0] != 200:
                    time.sleep(0.02)
                    continue
                status, body = connection.request("GET", _target(params))
            finally:
                connection.close()
            if status != 200:
                raise RuntimeError(f"first catalog answered {status}: {body[:200]!r}")
            return time.perf_counter() - self.started

    def stop(self) -> float:
        """Terminate the server, reap it, and return its peak RSS in MiB."""
        if self.process.returncode is not None:
            return 0.0
        self.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.process.kill()
                pid, status, usage = os.wait4(self.process.pid, 0)
                break
            time.sleep(0.02)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def _run_clients(client) -> None:
    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _closed_loop(server: Server, seconds: float, trace: bool, check) -> dict:
    """``serve-hot``: each connection sends its next request on the reply."""
    records: list[Record] = []
    errors: list[str] = []
    window: list[float] = []
    barrier = threading.Barrier(CONNECTIONS, action=lambda: window.append(time.perf_counter()))

    def client(index: int) -> None:
        connection = server.connect()
        try:
            barrier.wait()
            deadline = window[0] + seconds
            count = 0
            while time.perf_counter() < deadline:
                params = HOT_KEYS[(CONNECTIONS * count + index) % len(HOT_KEYS)]
                traced = trace and count % 2 == 0
                op = f"{index}.{count}"
                begin = time.perf_counter()
                status, body = connection.request(
                    "GET", _target(params), ("t:" if traced else "u:") + op
                )
                end = time.perf_counter()
                elapsed = (end - begin) * 1e3
                records.append(Record(op, traced, elapsed, elapsed, end, check(0, params, status, body)))
                count += 1
        except (OSError, ValueError) as exc:
            errors.append(repr(exc))
        finally:
            connection.close()

    _run_clients(client)
    return {"reads": records, "writes": [], "errors": errors, "start": window[0], "version": 0}


def _append(csv: Path, batch: str) -> None:
    with csv.open("a", encoding="utf-8") as handle:
        handle.write(batch)


def _open_loop(server: Server, seconds: float, trace: bool, check, seed: int, batches: list[str], first: int, csv: Path, rows: list[int]) -> dict:
    """``serve-live``: reads and writes sent on a seeded schedule, each timed
    from the moment it was due.  The window appends ``batches[first:]``."""
    import numpy as np

    # Reads cycle through every key in a seeded order, so the first reads
    # after each write miss the response cache the same way on every seed.
    order = np.random.default_rng([seed, 0x11FE]).permutation(len(LIVE_KEYS))
    schedule = [
        (index / LIVE_READS_PER_S, "read", index, int(order[index % len(order)]))
        for index in range(int(seconds * LIVE_READS_PER_S))
    ]
    num_writes = len(batches) - first
    schedule += [
        ((number + 0.5) * seconds / num_writes, "write", first + number, 0)
        for number in range(num_writes)
    ]
    schedule.sort()
    cursor = iter(schedule)
    take = threading.Lock()
    # A write waits until no read is in flight, then appends to the CSV and
    # folds the tail in; reads wait it out.  The server never sees a
    # half-written row, and each write's fold is done by the write itself.
    gate = threading.Condition()
    state = {"writing": False, "inflight": 0, "version": first}
    reads: list[Record] = []
    writes: list[Record] = []
    errors: list[str] = []
    window: list[float] = []
    barrier = threading.Barrier(CONNECTIONS, action=lambda: window.append(time.perf_counter()))

    def read(connection, index, key, due, picked) -> None:
        traced = trace and index % 2 == 0
        with gate:
            while state["writing"]:
                gate.wait()
            state["inflight"] += 1
            version = state["version"]
        send = time.perf_counter()
        try:
            status, body = connection.request(
                "GET", _target(LIVE_KEYS[key]), ("t:" if traced else "u:") + f"r{index}"
            )
        finally:
            with gate:
                state["inflight"] -= 1
                gate.notify_all()
        end = time.perf_counter()
        ok = check(version, LIVE_KEYS[key], status, body)
        reads.append(Record(f"r{index}", traced, (end - due) * 1e3, (end - send) * 1e3, end, ok, (send - max(due, picked)) * 1e3))

    def write(connection, index, due) -> None:
        with gate:
            state["writing"] = True
            while state["inflight"]:
                gate.wait()
        try:
            _append(csv, batches[index])
            send = time.perf_counter()
            status, body = connection.request(
                "POST", "/v1/store/append", ("t:" if trace else "u:") + f"w{index}"
            )
            end = time.perf_counter()
        finally:
            with gate:
                state["writing"] = False
                state["version"] += 1
                gate.notify_all()
        ok = status == 200 and json.loads(body).get("num_tuples") == rows[index + 1]
        writes.append(Record(f"w{index}", trace, (end - due) * 1e3, (end - send) * 1e3, end, ok))

    def client(index: int) -> None:
        connection = server.connect()
        try:
            barrier.wait()
            start = window[0]
            while True:
                with take:
                    item = next(cursor, None)
                if item is None:
                    return
                offset, kind, number, key = item
                picked = time.perf_counter()
                due = start + offset
                # Sleep to just short of the due time, then yield until it,
                # so a late wake-up does not delay the send.
                if due - picked > SPIN_S:
                    time.sleep(due - picked - SPIN_S)
                while time.perf_counter() < due:
                    time.sleep(0)
                if kind == "read":
                    read(connection, number, key, due, picked)
                else:
                    write(connection, number, due)
        except (OSError, ValueError) as exc:
            errors.append(repr(exc))
        finally:
            connection.close()

    _run_clients(client)
    return {"reads": reads, "writes": writes, "errors": errors, "start": window[0], "version": state["version"]}


def _direct_bodies(csv: Path, store: Path, copy: Path, keys: list[dict], buckets: int) -> dict:
    """Each key's expected body, mined in-process over a copy of the store."""
    import numpy as np

    from repro.mining import mine_rule_catalog
    from repro.pipeline import CSVSource
    from repro.relation.io import infer_csv_schema
    from repro.store import ProfileStore

    shutil.copytree(store, copy)
    copied = ProfileStore(copy)
    schema = copied.cached_schema(CSVSource(csv)) or infer_csv_schema(csv)
    expected = {}
    for params in keys:
        min_support = params.get("min_support", DEFAULT_MIN_SUPPORT)
        catalog = mine_rule_catalog(
            CSVSource(csv, schema=schema),
            min_support=min_support,
            min_confidence=MIN_CONFIDENCE,
            num_buckets=buckets,
            rng=np.random.default_rng(SERVER_SEED),
            store=copied,
        )
        body = {
            "num_pairs": catalog.num_pairs,
            "num_rules": len(catalog),
            "num_tuples": catalog.num_tuples,
            "min_support": min_support,
            "min_confidence": MIN_CONFIDENCE,
            "rank_by": "lift",
            "rules": [
                entry.as_row()
                for entry in catalog.top(params.get("top", DEFAULT_TOP), by="lift")
            ],
        }
        expected[_target(params)] = json.loads(json.dumps(body))
    return expected


def _tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def _segment(index: int, live: bool, settings, work: Path, env: dict, base: Path, batches: list[str], rows: list[int]) -> dict:
    """One fresh server over a fresh copy of the data and a fresh store:
    set-up, one untimed touch per key, a share of the window, then checks."""
    keys = LIVE_KEYS if live else HOT_KEYS
    csv = work / f"data-{index}.csv"
    shutil.copyfile(base, csv)
    store = work / f"store-{index}"
    spans = work / f"spans-{index}.json" if settings.trace else None
    seconds = settings.seconds / settings.processes
    bodies: dict[tuple, bytes] = {}

    def check(version: int, params: dict, status: int, body: bytes) -> bool:
        # Every 200 body for one (data version, key) must be byte-identical.
        return status == 200 and bodies.setdefault((version, _target(params)), body) == body

    server = Server(csv, store, settings.serve_buckets, env, spans, settings.program_cpus)
    try:
        setup_s = server.first_catalog(keys[0])
        connection = server.connect()

        def touch(version: int) -> None:
            for params in keys:
                if not check(version, params, *connection.request("GET", _target(params))):
                    raise RuntimeError(f"touch of {_target(params)} failed")

        try:
            touch(0)
            if live:
                # One untimed write as well, so the one-time costs of the
                # first append stay outside the window.
                _append(csv, batches[0])
                status, body = connection.request("POST", "/v1/store/append")
                if status != 200 or json.loads(body).get("num_tuples") != rows[1]:
                    raise RuntimeError(f"warm-up append answered {status}: {body[:200]!r}")
                touch(1)
            before = json.loads(connection.request("GET", "/metrics")[1])["metrics"]
        finally:
            connection.close()
        if live:
            load = _open_loop(server, seconds, settings.trace, check, settings.seed, batches, 1, csv, rows)
        else:
            load = _closed_loop(server, seconds, settings.trace, check)
        connection = server.connect()
        try:
            after = json.loads(connection.request("GET", "/metrics")[1])["metrics"]
            final = {_target(params): connection.request("GET", _target(params)) for params in keys}
        finally:
            connection.close()
    finally:
        peak_rss_mb = server.stop()

    reads, writes = load["reads"], load["writes"]
    notes = list(load["errors"])
    failed = len(load["errors"]) + sum(1 for record in reads + writes if not record.ok)
    for (version, target), body in bodies.items():
        if json.loads(body).get("num_tuples") != rows[version]:
            failed += 1
            notes.append(f"{target} at data version {version} reports the wrong num_tuples")
    expected = _direct_bodies(csv, store, work / f"store-copy-{index}", keys, settings.serve_buckets)
    for target, (status, body) in final.items():
        answer = json.loads(body) if status == 200 else {}
        answer.pop("store_status", None)
        if answer != expected[target] or answer.get("num_tuples") != rows[load["version"]]:
            failed += 1
            notes.append(f"final {target} differs from a direct mine over the store")
    from repro.store import ProfileStore

    offenders = ProfileStore(store).verify()
    failed += len(offenders)
    notes += [f"store verify: {offender}" for offender in offenders]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        # Op ids become "<segment>.<id>", as perf_trace.merge names them.
        "reads": [record._replace(op=f"{index}.{record.op}") for record in reads],
        "writes": [record._replace(op=f"{index}.{record.op}") for record in writes],
        "window_s": max(record.end for record in reads + writes) - load["start"],
        "attempted": len(reads) + len(writes) + len(final),
        "failed": failed,
        "notes": notes,
        "counters": {name: after[name] - before[name] for name in after},
        "store_share": _tree_bytes(store) / csv.stat().st_size,
        "dump": json.loads(spans.read_text(encoding="utf-8")) if spans else None,
    }


def run(workload: str, settings, work: Path, env: dict) -> dict:
    """One run of ``serve-hot`` or ``serve-live``; returns the result.

    Each of ``settings.processes`` fresh servers gives one set-up sample and
    serves an equal share of the window; pooling their requests evens out
    what one process's memory layout does to its speed.
    """
    live = workload == "serve-live"
    per_write = max(1, round(settings.rows * WRITE_ROWS_SHARE))
    share = settings.seconds / settings.processes
    # Writes in each window, plus one untimed warm-up write before it.
    num_writes = max(1, round(share / WRITE_EVERY_S)) + 1 if live else 0
    table = perf_data.generate(settings.rows + num_writes * per_write, settings.seed)
    base = work / "data.csv"
    perf_data.write_csv(table.rows(0, settings.rows), base)
    batches = [
        perf_data.csv_lines(
            table.rows(settings.rows + index * per_write, settings.rows + (index + 1) * per_write)
        )
        for index in range(num_writes)
    ]
    rows = [settings.rows + index * per_write for index in range(num_writes + 1)]
    segments = [
        _segment(index, live, settings, work, env, base, batches, rows)
        for index in range(settings.processes)
    ]

    reads = [record for segment in segments for record in segment["reads"]]
    writes = [record for segment in segments for record in segment["writes"]]
    latencies = [record.latency_ms for record in reads]
    window_s = sum(segment["window_s"] for segment in segments)
    metrics = {
        "setup_s": statistics.median(segment["setup_s"] for segment in segments),
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": _quantile(latencies, 99),
        "peak_rss_mb": max(segment["peak_rss_mb"] for segment in segments),
    }
    notes = [note for segment in segments for note in segment["notes"]]
    late_p99_ms = 0.0
    if not live:
        metrics["ops_per_s"] = len(reads) / window_s
    else:
        late_p99_ms = _quantile([record.late_ms for record in reads], 99)
        metrics["write_p50_ms"] = statistics.median(record.latency_ms for record in writes)
        metrics["slo_frac"] = sum(
            1 for record in reads if record.ok and record.latency_ms <= SLO_MS
        ) / len(reads)
        if late_p99_ms > LATE_FLAG_MS:
            notes.append(f"load generator ran late: p99 {late_p99_ms:.1f} ms > {LATE_FLAG_MS} ms")
    result = {
        "attempted": sum(segment["attempted"] for segment in segments),
        "failed": sum(segment["failed"] for segment in segments),
        "rows": settings.rows,
        "data_bytes": base.stat().st_size,
        "notes": notes,
        "metrics": metrics,
    }
    if settings.trace:
        dump = perf_trace.merge([segment["dump"] for segment in segments])
        traced = [record for record in reads + writes if record.traced]
        layers = perf_trace.summarize(
            dump,
            {record.op: record.service_ms for record in traced},
            writes=sum(1 for record in writes if record.traced),
        )
        handled = {
            span[5]: (span[3] - span[2]) / 1e6
            for span in dump["spans"]
            if span[1] == "service.handle"
        }
        transport = [
            record.service_ms - handled[record.op]
            for record in reads
            if record.traced and record.op in handled
        ]
        traced_ms = [record.service_ms for record in reads if record.traced]
        plain_ms = [record.service_ms for record in reads if not record.traced]

        def counter(name: str) -> int:
            return sum(segment["counters"][name] for segment in segments)

        layers.update(
            {
                "service.transport_ms": statistics.median(transport) if transport else 0.0,
                "service.cache_hit_ratio": counter("cache_hits") / len(reads),
                "service.coalesced": counter("coalesced"),
                "service.solve_batches": counter("solve_batches"),
                "client.late_p99_ms": late_p99_ms,
                "store.bytes_per_data_byte": statistics.fmean(
                    segment["store_share"] for segment in segments
                ),
                "trace.overhead_frac": statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0,
            }
        )
        result["layers"] = layers
        result["span_names"] = sorted(perf_trace.span_names(dump))
    return result
