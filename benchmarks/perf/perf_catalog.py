"""The catalog workloads: the full §1.3 catalog, cold per op, closed loop.

The orchestrator side (:func:`run`) generates the inputs, computes the
oracle digest, and starts fresh worker interpreters; the worker side
(``python perf_catalog.py ...``) imports ``repro``, mines, and reports each
op's latency and output digest as JSON lines on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import perf_data
import perf_trace

CHUNK_ROWS = 20_000
MIN_SUPPORT = 0.10
MIN_CONFIDENCE = 0.50


def catalog_digest(catalog) -> str:
    """Order-independent identity of a mined catalog: its sorted rule keys."""
    keys = sorted(
        (
            entry.rule.attribute,
            str(entry.rule.objective),
            str(entry.rule.kind),
            entry.rule.low,
            entry.rule.high,
            entry.rule.support,
            entry.rule.confidence,
            entry.base_rate,
        )
        for entry in catalog.entries
    )
    return hashlib.sha256(repr(keys).encode("utf-8")).hexdigest()


def oracle_digest(table: perf_data.Table, seed: int, buckets: int) -> str:
    """The reference-engine catalog of the same rows, fed from memory.

    A chunked in-memory source takes the same streaming path (reservoir
    boundaries, fused counting) as the CSV and column sources, so all three
    must produce this digest exactly.
    """
    import numpy as np

    from repro.mining import mine_rule_catalog
    from repro.pipeline import ChunkedSource
    from repro.relation.relation import Relation
    from repro.relation.schema import Attribute, Schema

    schema = Schema.of(
        *[Attribute.numeric(name) for name in table.numeric_names],
        *[Attribute.boolean(name) for name in table.boolean_names],
    )

    def chunks():
        for start in range(0, table.num_rows, CHUNK_ROWS):
            part = table.rows(start, start + CHUNK_ROWS)
            yield Relation.from_columns(
                schema, dict(zip(table.names, part.numeric + part.boolean))
            )

    catalog = mine_rule_catalog(
        ChunkedSource(chunks, schema=schema),
        min_support=MIN_SUPPORT,
        min_confidence=MIN_CONFIDENCE,
        num_buckets=buckets,
        rng=np.random.default_rng(seed),
        engine="reference",
        executor="streaming",
    )
    return catalog_digest(catalog)


def _read_event(worker: subprocess.Popen) -> dict:
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"catalog worker exited early (code {worker.wait()})")
    return json.loads(line)


def run(workload: str, settings, work: Path, env: dict) -> dict:
    """One run of ``catalog-csv`` or ``catalog-columnar``; returns the result."""
    table = perf_data.generate(settings.rows, settings.seed)
    if workload == "catalog-csv":
        data = work / "data.csv"
        perf_data.write_csv(table, data)
        data_bytes = data.stat().st_size
    else:
        data = work / "columns"
        perf_data.write_npy_dir(table, data)
        data_bytes = sum(path.stat().st_size for path in data.iterdir())
    oracle = oracle_digest(table, settings.seed, settings.buckets)
    if settings.corrupt_oracle:
        oracle = "0" * len(oracle)

    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--source", "csv" if workload == "catalog-csv" else "npy",
        "--data", str(data),
        "--seed", str(settings.seed),
        "--buckets", str(settings.buckets),
        "--seconds", str(settings.seconds / settings.processes),
    ] + (["--trace"] if settings.trace else [])
    # Each fresh worker gives one set-up sample and runs an equal share of
    # the window; pooling the ops of several processes evens out what one
    # process's memory layout does to its speed.
    setups: list[float] = []
    digests: list[str | None] = []
    ops: list[dict] = []
    window = 0.0
    peak_rss_kb = 0
    dumps: list[dict] = []
    for index in range(settings.processes):
        started = time.perf_counter()
        worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        if settings.program_cpus:
            os.sched_setaffinity(worker.pid, settings.program_cpus)
        try:
            setup = _read_event(worker)
            setups.append(time.perf_counter() - started)
            done = _read_event(worker)
        except BaseException:
            worker.kill()
            raise
        finally:
            worker.stdout.close()
            code = worker.wait()
        if code != 0:
            raise RuntimeError(f"catalog worker exited with code {code}")
        digests.append(setup["digest"])
        for op in done["ops"]:
            ops.append(dict(op, id=f"{index}.{op['id']}"))
            digests.append(op["digest"])
        window += done["window_s"]
        peak_rss_kb = max(peak_rss_kb, done["maxrss_kb"])
        if settings.trace:
            dumps.append(done["dump"])

    failed = sum(1 for digest in digests if digest != oracle)
    timed = [op["ms"] for op in ops]
    result = {
        "attempted": len(digests),
        "failed": failed,
        "rows": table.num_rows,
        "data_bytes": data_bytes,
        "notes": [],
    }
    if failed:
        result["notes"].append(
            f"{failed} of {len(digests)} catalogs differ from the oracle digest"
        )
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(timed),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "tuples_per_s": table.num_rows * len(ops) / window,
    }
    if settings.trace:
        traced = {op["id"]: op["ms"] for op in ops if op["traced"]}
        plain = [op["ms"] for op in ops if not op["traced"]]
        dump = perf_trace.merge(dumps)
        layers = perf_trace.summarize(dump, traced, writes=0)
        # No service, store or load generator on this path.
        layers.update(dict.fromkeys(perf_trace.SERVICE_ONLY, 0.0))
        layers["trace.overhead_frac"] = (
            statistics.median(traced.values()) / statistics.median(plain) - 1.0
            if traced and plain
            else 0.0
        )
        result["layers"] = layers
        result["span_names"] = sorted(perf_trace.span_names(dump))
    return result


# -- worker side ----------------------------------------------------------------


def _worker(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--source", choices=("csv", "npy"), required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--buckets", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import repro.mining
    import repro.relation.io as relation_io
    from repro.pipeline import CSVSource, NpyDirectorySource

    def op():
        # As `repro catalog --source stream|npy` does: infer the CSV schema
        # over the whole file on every run, then mine from the source.
        if args.source == "csv":
            schema = relation_io.infer_csv_schema(args.data, chunk_size=CHUNK_ROWS)
            source = CSVSource(args.data, schema=schema, chunk_size=CHUNK_ROWS)
        else:
            source = NpyDirectorySource(args.data, chunk_size=CHUNK_ROWS)
        return repro.mining.mine_rule_catalog(
            source,
            min_support=MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            num_buckets=args.buckets,
            rng=np.random.default_rng(args.seed),
            executor="streaming",
        )

    def emit(event: dict) -> None:
        sys.stdout.write(json.dumps(event) + "\n")
        sys.stdout.flush()

    emit({"event": "setup", "digest": catalog_digest(op())})
    tracer = None
    if args.trace:
        tracer = perf_trace.Tracer()
        perf_trace.install(tracer)
    op()  # warm-up, untimed
    ops = []
    started = time.perf_counter()
    deadline = started + args.seconds
    while time.perf_counter() < deadline:
        op_id = str(len(ops))
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.begin_op(op_id)
        begin = time.perf_counter_ns()
        try:
            catalog = op()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            print(f"catalog op failed: {exc!r}", file=sys.stderr)
            catalog = None
        elapsed = (time.perf_counter_ns() - begin) / 1e6
        if traced:
            tracer.end_op()
        digest = None if catalog is None else catalog_digest(catalog)
        ops.append({"id": op_id, "ms": elapsed, "traced": traced, "digest": digest})
    done = {
        "event": "done",
        "ops": ops,
        "window_s": time.perf_counter() - started,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        done["dump"] = tracer.dump()
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(_worker(sys.argv[1:]))
