"""The repository benchmark: the admission service and the figure sweep.

Run from the repository root (no install needed)::

    python3 perfbench/run.py --workload hit-wire --seed 1 --seconds 15 --trace 0

One run measures one workload for ``--seconds`` seconds, checks that
every output is correct, and prints every metric as ``name value unit``
followed, as the last line, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the layers are wrapped (see
``spans.py``) and the metrics are the per-layer ones (``--spans FILE``
also writes the spans, for ``summarize.py``).  Without ``--workload``
every workload runs, each in a fresh process; ``--repeat N`` runs each
N times on seeds ``seed .. seed + N - 1`` and prints every metric's
median, quartiles and spread.  The exit status is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import REFERENCE_PROBE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hit-wire", "miss-compute", "mixed-durable", "sweep-sim")
DEFAULT_SEED = 1


def environment() -> dict:
    """Where and on what a result was measured (reported, not gated)."""
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.exists() else ref[5:]
        else:
            sha = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "git_sha": sha,
        "load1": round(os.getloadavg()[0], 2),
        "probe_s": probe(),
    }


def load_expected(workload: str, seed: int, smoke: bool) -> str | None:
    """The committed digest for this workload and seed, if any."""
    if smoke:
        return None
    expected = json.loads((HERE / "expected.json").read_text())
    return expected.get(workload, {}).get(str(seed))


def run_one(args) -> int:
    """Measure one workload in this process; print and return status."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One CPU for every thread, so the host-speed probe runs where the
    # work runs.  The workloads are bound by the interpreter lock, so
    # this costs them little (miss-compute ran as fast; hit-wire ~10%
    # slower, its loopback traffic no longer overlapping on a 2nd CPU).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    if args.workload == "sweep-sim":
        import sweep as workload_module
    else:
        import service as workload_module
    import_s = time.perf_counter() - started

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    expected = load_expected(args.workload, args.seed, args.smoke)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "sweep-sim":
            outcome = workload_module.run_sweep(
                args.seed,
                args.seconds,
                tracer=tracer,
                smoke=args.smoke,
                expected_digest=expected,
            )
        else:
            outcome = workload_module.run_service(
                args.workload,
                args.seed,
                args.seconds,
                workdir,
                tracer=tracer,
                smoke=args.smoke,
                expected_digest=expected,
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        # Imports happen once, right after the environment probe.
        setup_s, _unit = outcome.metrics["setup_s"]
        speed = REFERENCE_PROBE_S / env["probe_s"]
        outcome.metrics["setup_s"] = (import_s * speed + setup_s, "s")
        wanted = spec["end_to_end"]
        values = {name: value for name, (value, _unit) in outcome.metrics.items()}
    else:
        from summarize import per_layer_metrics

        wanted = spec["per_layer"]
        exported = tracer.export()
        values = per_layer_metrics(exported, outcome.trace_context)
        if args.spans:
            document = {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "env": env,
                "context": outcome.trace_context,
                "trace": exported,
            }
            Path(args.spans).write_text(json.dumps(document))
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }

    for key, value in env.items():
        print(f"# env {key} {value}")
    print(f"# env import_s {import_s:.4f}")
    for note in outcome.notes:
        print(f"# note {note}")
    for name, ok, detail in outcome.checks:
        print(f"# check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps({**result, "env": env}, indent=2))
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_many(args) -> int:
    """Each (workload, seed) in a fresh process; summarize per metric."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    summary: dict[str, dict] = {}
    for workload in workloads:
        runs = []
        for offset in range(args.repeat):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed + offset),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            completed = subprocess.run(
                command, capture_output=True, text=True, cwd=ROOT
            )
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                status = 1
            lines = completed.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                runs.append(json.loads(lines[-1]))
        summary[workload] = {}
        for name in runs[0]["metrics"] if runs else ():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _q2, q3 = (
                statistics.quantiles(values, n=4)
                if len(values) > 1
                else (median, median, median)
            )
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "unit": runs[0]["metrics"][name]["unit"],
            }
            print(
                f"# {workload} {name}: median {median:.6g} "
                f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f} over {len(values)}"
            )
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the spans of a traced run here")
    parser.add_argument("--out", help="write the result and environment here")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny populations and one set-up: checks the harness, not speed",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    if args.workload and args.repeat == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
