"""The repository's benchmark: one command, four workloads.

One workload, measured for ``--seconds`` and reported as one JSON line::

    python benchmarks/perf/run.py --workload catalog-csv --seed 3 --seconds 20 --trace 0

Every workload in turn, each in a fresh process, results kept in DIR::

    python benchmarks/perf/run.py --seed 0 --out DIR [--trace] [--reverse]

Inputs are generated from ``--seed``; every output is checked.  With
``--trace 0`` the end-to-end metrics are reported, with ``--trace 1`` the
per-layer ones.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every output was correct.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

# Runs from a checkout must leave nothing behind but their results.
sys.dont_write_bytecode = True

import perf_spec  # noqa: E402 - after the bytecode switch above

ROOT = perf_spec.ROOT
FULL_SIZES = {"rows": 32_000, "buckets": 1000, "serve_buckets": 200, "processes": 3}
SMOKE_SIZES = {"rows": 5_000, "buckets": 50, "serve_buckets": 50, "processes": 1}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=perf_spec.WORKLOADS, default=None,
                        help="run one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(perf_spec.SPEC["run_seconds"]),
                        help="timed window of each workload")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None,
                        help="result and scratch directory (default: .perfbench in the checkout)")
    parser.add_argument("--reverse", action="store_true",
                        help="run all workloads in reverse order")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample, for the smoke test")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="replace the catalog oracle digest, to test the output check")
    parser.add_argument("--order", default=None, help=argparse.SUPPRESS)
    return parser


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args, order: list[str], result: dict) -> dict:
    import numpy

    from repro.kernels import HAVE_NUMBA, resolve_kernel_tier

    return {
        "seed": args.seed,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_tier": resolve_kernel_tier(None),
        "have_numba": HAVE_NUMBA,
        "rows": result["rows"],
        "data_bytes": result["data_bytes"],
        "workload_order": order,
        "seconds": args.seconds,
        "trace": args.trace == "1",
        "smoke": args.smoke,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _split_cpus() -> set[int] | None:
    """Pin the measured program to one CPU and this process (the load
    generator and checker) to the others, so neither steals the other's
    core; ``None`` leaves scheduling alone on a one-CPU machine."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, cpus[1:])
    return {cpus[0]}


def run_one(args, out: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import perf_catalog
    import perf_serve

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    settings = SimpleNamespace(
        seed=args.seed, seconds=args.seconds, trace=args.trace == "1",
        corrupt_oracle=args.corrupt_oracle, program_cpus=_split_cpus(), **sizes,
    )
    env = _child_env()
    env[perf_serve.TOKEN_ENV] = secrets.token_hex(16)
    work = out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        module = perf_catalog if args.workload.startswith("catalog") else perf_serve
        result = module.run(args.workload, settings, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    metrics["error_frac"] = result["failed"] / result["attempted"]
    if settings.trace:
        reported = {name: result["layers"][name] for name in perf_spec.PER_LAYER}
    else:
        reported = {name: metrics[name] for name in perf_spec.END_TO_END}
        reported.update(metrics)
    for name, value in reported.items():
        print(f"{args.workload:17s} {name:30s} {value:14.6g} {perf_spec.metric_unit(name)}")
    for note in result["notes"]:
        print(f"{args.workload:17s} NOTE {note}")

    correct = result["failed"] == 0
    order = args.order.split(",") if args.order else [args.workload]
    record = {
        "workload": args.workload,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": perf_spec.metric_unit(name)}
            for name, value in reported.items()
        },
        "notes": result["notes"],
        "span_names": result.get("span_names", []),
        "provenance": _provenance(args, order, result),
    }
    suffix = "-trace" if settings.trace else ""
    (out / f"{args.workload}-s{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    table = perf_spec.PER_LAYER if settings.trace else perf_spec.END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: record["metrics"][name] for name in table},
    }))
    return 0 if correct else 1


def run_all(args, out: Path) -> int:
    order = list(reversed(perf_spec.WORKLOADS)) if args.reverse else list(perf_spec.WORKLOADS)
    failed = []
    for workload in order:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", args.trace, "--out", str(out), "--order", ",".join(order),
        ]
        command += ["--smoke"] if args.smoke else []
        command += ["--corrupt-oracle"] if args.corrupt_oracle else []
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_child_env())
        try:
            stdout, _ = process.communicate()
        except BaseException:
            process.terminate()  # lets the child stop its own children
            process.wait()
            raise
        for line in stdout.splitlines(keepends=True):
            if not line.startswith('{"correct"'):
                sys.stdout.write(line)
        sys.stdout.flush()
        if process.returncode != 0:
            failed.append(workload)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(order)} workloads correct; results in {out}")
    return 0


def _terminate(signum, frame):
    # Unwind through the workloads' cleanup, which stops every child.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = Path(args.out).resolve() if args.out else ROOT / ".perfbench"
    out.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return run_all(args, out)
    return run_one(args, out)


if __name__ == "__main__":
    sys.exit(main())
