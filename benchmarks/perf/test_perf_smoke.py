"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

It checks the benchmark's own contract rather than any performance: every
metric in BENCHMARK.json is printed with its unit, every output check
passes, every layer wrapper a workload relies on records spans, a wrong
oracle fails the run, and nothing is written inside the repository.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import perf_trace  # noqa: E402 - needs the path above

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SKIPPED_DIRS = {".git", ".pytest_cache", ".hypothesis", ".benchmarks"}


def _snapshot() -> dict[str, tuple[int, int]]:
    files = {}
    for directory, subdirectories, names in os.walk(ROOT):
        subdirectories[:] = [name for name in subdirectories if name not in SKIPPED_DIRS]
        for name in names:
            path = os.path.join(directory, name)
            stat = os.stat(path)
            files[path] = (stat.st_size, stat.st_mtime_ns)
    return files


def _command(out: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--seed", "5", "--seconds", "1",
            "--smoke", "--out", str(out), *extra]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("perf")
    before = _snapshot()
    commands = {
        "plain": _command(base / "plain"),
        "traced": _command(base / "traced", "--trace"),
        "corrupt": _command(base / "corrupt", "--workload", "catalog-columnar", "--corrupt-oracle"),
    }
    processes = {
        name: subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, command in commands.items()
    }
    outputs = {}
    for name, process in processes.items():
        stdout, stderr = process.communicate(timeout=120)
        outputs[name] = (process.returncode, stdout, stderr)
    return {"base": base, "outputs": outputs, "written": _snapshot() != before}


def _results(base: Path, suffix: str) -> dict[str, dict]:
    return {
        workload: json.loads((base / f"{workload}-s5{suffix}.json").read_text(encoding="utf-8"))
        for workload in WORKLOADS
    }


def _printed(stdout: str) -> set[tuple[str, str, str]]:
    return {
        (fields[0], fields[1], fields[-1])
        for fields in (line.split() for line in stdout.splitlines())
        if len(fields) == 4
    }


def test_untraced_run_prints_every_end_to_end_metric_and_checks_pass(runs):
    code, stdout, stderr = runs["outputs"]["plain"]
    assert code == 0, stderr
    printed = _printed(stdout)
    for workload, record in _results(runs["base"] / "plain", "").items():
        assert record["correct"] and record["failed"] == 0, record["notes"]
        assert record["metrics"]["error_frac"]["value"] == 0
        for metric in SPEC["end_to_end"]:
            assert (workload, metric["name"], metric["unit"]) in printed
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert record["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric_and_span(runs):
    code, stdout, stderr = runs["outputs"]["traced"]
    assert code == 0, stderr
    printed = _printed(stdout)
    for workload, record in _results(runs["base"] / "traced", "-trace").items():
        assert record["correct"], record["notes"]
        for metric in SPEC["per_layer"]:
            assert (workload, metric["name"], metric["unit"]) in printed
        missing = set(perf_trace.REQUIRED_SPANS[workload]) - set(record["span_names"])
        assert not missing, f"{workload}: no spans recorded for {sorted(missing)}"


def test_wrong_oracle_digest_fails_the_run(runs):
    code, stdout, _ = runs["outputs"]["corrupt"]
    assert code != 0
    assert json.loads(stdout.splitlines()[-1])["correct"] is False


def test_nothing_is_written_inside_the_repository(runs):
    assert not runs["written"]
