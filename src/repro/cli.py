"""Command-line interface: ``repro-rts`` / ``python -m repro``.

Subcommands
-----------
``example2``
    The paper's Example 2 under one protocol: analysis bounds plus the
    ASCII Gantt chart of Figures 3/5/7.
``costs``
    The Section 3.3 implementation-complexity comparison.
``analyze``
    Generate one synthetic system from a (N, U) configuration and print
    both analyses.
``suite``
    The full evaluation sweep: Figures 12-16 as text surfaces.
``figure``
    One figure's surface only (12..16).
``admit``
    Admission control: decide one saved system, or a JSONL batch of
    requests, with caching, persistence and a process pool.
``admit-bench``
    Self-benchmark of the admission service: cold vs warm cache
    throughput on a synthetic batch.
``sensitivity``
    Breakdown execution-time scaling: the largest uniform factor by
    which all execution times can grow (or must shrink) while the
    system stays certifiable, per analysis.
``regions``
    Compute and print a system's parametric feasibility region: one
    verified per-subtask inner box per analysis (the structure the
    service's ``--region-backend`` tier serves O(1) admissions from).
``fuzz``
    Differential conformance fuzzing: seeded random systems through all
    four protocols, judged by the paper-derived oracle registry, with
    counterexample shrinking and corpus persistence.  ``--clocks skew``
    adds imperfect per-processor clocks to the rotation; ``--latencies``
    adds cross-processor signal delays.
``fuzz-replay``
    Replay the counterexample corpus as a regression check.
``clock-study``
    The PM-vs-MPM/RG separation study: sweep clock-resynchronization
    precision and measure per-protocol deadline misses, precedence
    violations and skew-bound exceedances.
``chaos``
    The fault-injection campaign: sweep fault scenarios (signal drop /
    duplication / reordering, timer loss, crash-restart, WCET overrun)
    over every protocol with and without the recovery layer, and gate
    on the survival separation (RG + recovery stays clean under signal
    faults; DS without recovery does not; PM/MPM lose timer chains).
``locks``
    The shared-resource study: sweep critical-section ratios under
    DPCP and DPCP-p, measure blocking-aware schedulability and lock
    waiting, and gate on the lock-free identity, schedulability
    monotonicity and the DPCP >= DPCP-p waiting separation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import json
from pathlib import Path

from repro.api import run_protocol
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.protocols.costs import PROTOCOL_COSTS
from repro.errors import ConfigurationError
from repro.experiments.evaluation import DEFAULT_PROTOCOLS
from repro.experiments.expectations import check_suite, render_report
from repro.experiments.figures import (
    bound_ratio_surface,
    eer_ratio_surface,
    failure_rate_surface,
)
from repro.experiments.runner import run_suite, sweep_grid
from repro.io import (
    analysis_result_to_dict,
    load_system,
    save_system,
    surface_to_csv,
)
from repro.service import (
    AdmissionController,
    AdmissionRequest,
    request_from_dict,
    save_decisions_jsonl,
)
from repro.service.store import STORE_BACKENDS
from repro.viz.gantt import render_gantt
from repro.workload.config import WorkloadConfig, paper_grid
from repro.workload.examples import example_two
from repro.workload.generator import generate_system

__all__ = ["main"]


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--systems", type=int, default=10,
        help="systems per configuration (paper: 1000; default: 10)",
    )
    parser.add_argument(
        "--subtasks", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7, 8],
        help="subtasks-per-task values (paper: 2..8)",
    )
    parser.add_argument(
        "--utilizations", type=float, nargs="+",
        default=[0.5, 0.6, 0.7, 0.8, 0.9],
        help="per-processor utilizations (paper: 0.5..0.9)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--horizon-periods", type=float, default=10.0,
        help="simulation horizon in multiples of the largest period",
    )
    parser.add_argument(
        "--tasks", type=int, default=12, help="tasks per system (paper: 12)"
    )
    parser.add_argument(
        "--processors", type=int, default=4,
        help="processors per system (paper: 4)",
    )
    parser.add_argument(
        "--ci", action="store_true", help="show 90%% confidence intervals"
    )
    parser.add_argument(
        "--engine", choices=("reference", "batch"), default="reference",
        help="simulation backend; 'batch' runs the flat-array kernel "
        "(trace-identical on these workloads, several times faster)",
    )


def _cmd_example2(args: argparse.Namespace) -> int:
    system = example_two()
    print(system.describe())
    print()
    print(analyze_sa_pm(system).describe())
    print()
    print(analyze_sa_ds(system).describe())
    print()
    result = run_protocol(
        system, args.protocol, horizon=args.until, record_segments=True
    )
    print(f"schedule under {args.protocol} (first {args.until:g} time units):")
    print(render_gantt(result.trace, until=args.until))
    return 0


def _cmd_costs(_args: argparse.Namespace) -> int:
    print("Section 3.3 -- implementation complexity and run-time overhead:")
    for costs in PROTOCOL_COSTS.values():
        print("  " + costs.describe())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.load is not None:
        system = load_system(args.load)
    else:
        if args.n is None or args.u is None:
            print("analyze: need --n and --u (or --load FILE)", file=sys.stderr)
            return 2
        config = WorkloadConfig(
            subtasks_per_task=args.n,
            utilization=args.u,
            tasks=args.tasks,
            processors=args.processors,
        )
        system = generate_system(config, args.seed)
    if args.save is not None:
        save_system(system, args.save)
        print(f"saved system to {args.save}", file=sys.stderr)
    print(system.describe())
    print()
    sa_pm = analyze_sa_pm(system)
    sa_ds = analyze_sa_ds(system)
    print(sa_pm.describe())
    print()
    print(sa_ds.describe())
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(
                {
                    "sa_pm": analysis_result_to_dict(sa_pm),
                    "sa_ds": analysis_result_to_dict(sa_ds),
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote analysis JSON to {args.json}", file=sys.stderr)
    return 0


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


def _cmd_suite(args: argparse.Namespace) -> int:
    result = run_suite(
        systems=args.systems,
        subtask_counts=tuple(args.subtasks),
        utilizations=tuple(args.utilizations),
        base_seed=args.seed,
        horizon_periods=args.horizon_periods,
        progress=_progress,
        grid_overrides={"tasks": args.tasks, "processors": args.processors},
        workers=args.workers,
        engine=args.engine,
    )
    print(result.render(show_ci=args.ci))
    if args.check:
        print()
        print(render_report(check_suite(result)))
    if args.save_evals is not None:
        from repro.io import save_evaluations

        save_evaluations(result.evaluations, args.save_evals)
        print(f"saved evaluations to {args.save_evals}", file=sys.stderr)
    if args.markdown is not None:
        from repro.experiments.report import suite_report

        Path(args.markdown).write_text(suite_report(result))
        print(f"wrote markdown report to {args.markdown}", file=sys.stderr)
    if args.csv_dir is not None:
        out = Path(args.csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        for label, surface in (
            ("fig12_failure_rate", result.failure_rate),
            ("fig13_bound_ratio", result.bound_ratio),
            ("fig14_pm_ds", result.pm_ds_ratio),
            ("fig15_rg_ds", result.rg_ds_ratio),
            ("fig16_pm_rg", result.pm_rg_ratio),
        ):
            (out / f"{label}.csv").write_text(surface_to_csv(surface))
        print(f"wrote CSV surfaces to {out}", file=sys.stderr)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    analyses_only = args.number in (12, 13)
    configs = paper_grid(
        subtask_counts=tuple(args.subtasks),
        utilizations=tuple(args.utilizations),
        tasks=args.tasks,
        processors=args.processors,
        random_phases=not analyses_only,
    )
    evaluations = sweep_grid(
        configs,
        args.systems,
        base_seed=args.seed,
        progress=_progress,
        protocols=() if analyses_only else DEFAULT_PROTOCOLS,
        run_simulations=not analyses_only,
        run_analyses=analyses_only,
        horizon_periods=args.horizon_periods,
        engine=args.engine,
    )
    if args.number == 12:
        surface = failure_rate_surface(evaluations)
    elif args.number == 13:
        surface = bound_ratio_surface(evaluations)
    elif args.number == 14:
        surface = eer_ratio_surface(evaluations, "PM", "DS")
    elif args.number == 15:
        surface = eer_ratio_surface(evaluations, "RG", "DS")
    else:
        surface = eer_ratio_surface(evaluations, "PM", "RG")
    print(surface.render(show_ci=args.ci))
    return 0


def _add_admission_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocols",
        nargs="+",
        choices=("DS", "PM", "MPM", "RG"),
        default=["DS", "PM", "MPM", "RG"],
        help="candidate protocols (default: all four)",
    )
    parser.add_argument(
        "--jitter-sensitive", action="store_true",
        help="output jitter matters more than average latency",
    )
    parser.add_argument(
        "--untrusted-wcets", action="store_true",
        help="WCETs may be exceeded (rules out the timer protocols)",
    )
    parser.add_argument(
        "--clock-sync", action="store_true",
        help="the platform offers synchronized clocks",
    )
    parser.add_argument(
        "--periodic-arrivals", action="store_true",
        help="arrivals are strictly periodic",
    )
    parser.add_argument(
        "--unsynchronized-clocks", action="store_true",
        help="the platform's clocks are not synchronized (excludes PM)",
    )
    parser.add_argument(
        "--shared-resources", action="store_true",
        help="subtasks contend on shared resources (critical sections "
        "under DPCP locking); certifies with the blocking-aware analyses",
    )
    parser.add_argument(
        "--clock-rate-bound", type=float, default=0.0,
        help="max clock drift rate rho; nonzero certifies MPM/RG via the "
        "skew-inflated analysis and excludes PM",
    )
    parser.add_argument(
        "--clock-jump-bound", type=float, default=0.0,
        help="max clock resynchronization step; same effect as "
        "--clock-rate-bound",
    )
    parser.add_argument(
        "--sa-ds-max-iterations", type=int, default=300,
        help="SA/DS fixed-point iteration budget (paper: 300)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width for batch misses (default: CPU count)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None,
        help="wall-clock seconds per pooled decision; overruns are "
        "retried, then degraded to a REJECT (default: unlimited)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="resubmissions per failed/timed-out decision before it "
        "degrades (default: 2)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=4096,
        help="LRU decision-cache capacity (default: 4096)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute every decision"
    )
    parser.add_argument(
        "--cache-file", default=None,
        help="warm-start the cache from this JSONL file and persist back",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print service metrics and cache stats to stderr",
    )
    _add_region_options(parser)


def _add_region_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--region-backend", choices=STORE_BACKENDS, default=None,
        help="enable the feasibility-region tier above the decision "
        "cache: repeat-shape admissions are served analysis-free from "
        "precomputed regions (default: off)",
    )
    parser.add_argument(
        "--region-capacity", type=int, default=1024,
        help="region-store capacity in shapes (default: 1024)",
    )
    parser.add_argument(
        "--region-file", default=None,
        help="region-store path (JSONL for memory, database for sqlite)",
    )
    parser.add_argument(
        "--region-build-threshold", type=int, default=2,
        help="direct computations of one shape before its region is "
        "built (default: 2)",
    )


def _admission_options(args: argparse.Namespace) -> dict:
    return {
        "protocols": tuple(args.protocols),
        "jitter_sensitive": args.jitter_sensitive,
        "wcets_trusted": not args.untrusted_wcets,
        "clock_sync_available": args.clock_sync,
        "strictly_periodic_arrivals": args.periodic_arrivals,
        "synchronized_clocks": not args.unsynchronized_clocks,
        "shared_resources": args.shared_resources,
        "clock_rate_bound": args.clock_rate_bound,
        "clock_jump_bound": args.clock_jump_bound,
        "sa_ds_max_iterations": args.sa_ds_max_iterations,
    }


def _make_controller(args: argparse.Namespace) -> AdmissionController:
    """The controller the admission commands run; it owns its stores,
    so closing it persists ``--cache-file`` and ``--region-file``."""
    return AdmissionController(
        cache_backend=None if args.no_cache else "memory",
        cache_capacity=args.cache_size,
        cache_path=args.cache_file,
        region_backend=args.region_backend,
        region_capacity=args.region_capacity,
        region_path=args.region_file,
        region_build_threshold=args.region_build_threshold,
    )


def _run_admissions(
    controller: AdmissionController,
    requests: list[AdmissionRequest],
    args: argparse.Namespace,
    *,
    progress=None,
) -> list:
    """Batch over the pool, or in-process when the region tier is on.

    The region tier lives in the controller's process; the batch path
    computes misses in pool workers that cannot observe or consult it,
    so enabling ``--region-backend`` switches to sequential in-process
    admission (where shape reuse, not parallelism, is the speedup).
    """
    if controller.regions is None:
        return controller.admit_batch(
            requests,
            workers=args.workers,
            progress=progress,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
        )
    return [controller.admit(request) for request in requests]


def _load_admit_requests(
    path: str, options: dict
) -> list[AdmissionRequest]:
    """One request per JSONL line.

    Bare ``repro-system-v1`` lines take the command-line options; full
    ``repro-admission-request-v1`` lines carry their own.
    """
    from repro.io import system_from_dict

    requests = []
    for number, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            document = json.loads(line)
            if document.get("format") == "repro-system-v1":
                requests.append(
                    AdmissionRequest(
                        system=system_from_dict(document),
                        request_id=str(number),
                        **options,
                    )
                )
            else:
                requests.append(request_from_dict(document))
        except ConfigurationError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{path}:{number}: bad request line: {exc}"
            ) from exc
    return requests


def _cmd_admit(args: argparse.Namespace) -> int:
    if (args.load is None) == (args.jsonl is None):
        print(
            "admit: need exactly one of --load FILE or --jsonl FILE",
            file=sys.stderr,
        )
        return 2
    options = _admission_options(args)
    if args.load is not None:
        requests = [
            AdmissionRequest(system=load_system(args.load), **options)
        ]
    else:
        requests = _load_admit_requests(args.jsonl, options)
    with _make_controller(args) as controller:
        decisions = _run_admissions(
            controller,
            requests,
            args,
            progress=_progress if args.jsonl is not None else None,
        )
        if args.out is not None:
            save_decisions_jsonl(decisions, args.out)
            print(
                f"wrote {len(decisions)} decisions to {args.out}",
                file=sys.stderr,
            )
        for decision in decisions:
            print(decision.describe())
        if args.stats:
            print(controller.describe(), file=sys.stderr)
    if controller.cache is not None and args.cache_file is not None:
        print(f"persisted cache to {args.cache_file}", file=sys.stderr)
    return 0


def _cmd_admit_bench(args: argparse.Namespace) -> int:
    import time

    config = WorkloadConfig(
        subtasks_per_task=args.n,
        utilization=args.u,
        tasks=args.tasks,
        processors=args.processors,
    )
    options = _admission_options(args)
    requests = [
        AdmissionRequest(
            system=generate_system(config, args.seed + offset),
            request_id=str(offset),
            **options,
        )
        for offset in range(args.systems)
    ]
    with _make_controller(args) as controller:
        started = time.perf_counter()
        cold = _run_admissions(controller, requests, args)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm = _run_admissions(controller, requests, args)
        warm_seconds = time.perf_counter() - started
        if args.stats:
            print(controller.describe(), file=sys.stderr)
    if [d.protocol for d in cold] != [d.protocol for d in warm]:
        print("admit-bench: warm decisions diverged!", file=sys.stderr)
        return 1
    admitted = sum(1 for d in cold if d.admitted)
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(
        f"admission throughput ({args.systems} systems, "
        f"{config.label}, workers={args.workers or 'auto'}):"
    )
    print(
        f"  cold cache: {cold_seconds:.3f} s "
        f"({args.systems / cold_seconds:.1f} admissions/s)"
    )
    print(
        f"  warm cache: {warm_seconds:.3f} s "
        f"({args.systems / warm_seconds:.1f} admissions/s)"
    )
    print(f"  speedup: {speedup:.1f}x")
    print(f"  admitted: {admitted}/{args.systems}")
    return 0


def _system_from_args(args: argparse.Namespace, command: str):
    """The ``--load FILE`` / ``--n --u`` system-source convention."""
    if args.load is not None:
        return load_system(args.load)
    if args.n is None or args.u is None:
        print(
            f"{command}: need --n and --u (or --load FILE)",
            file=sys.stderr,
        )
        return None
    config = WorkloadConfig(
        subtasks_per_task=args.n,
        utilization=args.u,
        tasks=args.tasks,
        processors=args.processors,
    )
    return generate_system(config, args.seed)


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.api import sensitivity

    system = _system_from_args(args, "sensitivity")
    if system is None:
        return 2
    factors = sensitivity(
        system,
        analyses=tuple(args.analyses),
        tolerance=args.tolerance,
        max_factor=args.max_factor,
        sa_ds_max_iterations=args.sa_ds_max_iterations,
    )
    print(f"breakdown scaling for {system.name}:")
    for analysis, factor in factors.items():
        if factor <= 0:
            verdict = "unschedulable at any resolvable scale"
        elif factor >= 1:
            verdict = f"{(factor - 1) * 100:.1f}% execution-time headroom"
        else:
            verdict = (
                f"needs executions scaled below {factor * 100:.1f}% "
                "to certify"
            )
        print(f"  {analysis}: factor {factor:.4g} ({verdict})")
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(factors, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote factors JSON to {args.json}", file=sys.stderr)
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    from repro.regions import compute_region, execution_vector, region_to_dict

    system = _system_from_args(args, "regions")
    if system is None:
        return 2
    request = AdmissionRequest(
        system=system,
        protocols=tuple(args.protocols),
        synchronized_clocks=not args.unsynchronized_clocks,
        shared_resources=args.shared_resources,
        clock_rate_bound=args.clock_rate_bound,
        clock_jump_bound=args.clock_jump_bound,
        sa_ds_max_iterations=args.sa_ds_max_iterations,
    )
    region = compute_region(
        request,
        timebase=args.timebase,
        tolerance=args.tolerance,
        max_factor=args.max_factor,
        ascent_rounds=args.ascent_rounds,
    )
    print(region.describe())
    point = tuple(float(e) for e in execution_vector(system))
    for analysis in region.analyses:
        margins = region.margins(analysis, point)
        if margins is None:
            continue
        rendered = ", ".join(
            f"{name}+{margin:g}"
            for name, margin in zip(region.dimensions, margins)
        )
        print(f"  {analysis} margins at the request point: {rendered}")
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(region_to_dict(region), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote region JSON to {args.json}", file=sys.stderr)
    return 0


def _frontend_config(args: argparse.Namespace):
    from repro.service.frontend import FrontendConfig, TenantQuota

    quota = None
    if args.quota_rate is not None:
        quota = TenantQuota(rate=args.quota_rate, burst=args.quota_burst)
    return FrontendConfig(
        shards=args.shards,
        queue_capacity=args.queue_capacity,
        executor=args.executor,
        workers_per_shard=args.workers_per_shard,
        cache_backend=None if args.no_cache else args.cache_backend,
        cache_capacity=args.cache_size,
        cache_path=args.cache_file,
        default_quota=quota,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        region_backend=args.region_backend,
        region_capacity=args.region_capacity,
        region_path=args.region_file,
        region_build_threshold=args.region_build_threshold,
        breaker_failures=args.breaker_failures,
        breaker_recovery=args.breaker_recovery,
        drain=args.drain,
        fsync=args.fsync,
    )


def _add_frontend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=2,
        help="worker shards on the consistent-hash ring (default: 2)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=256,
        help="bounded queue depth per shard; overflow sheds (default: 256)",
    )
    parser.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="per-shard executor kind (default: thread)",
    )
    parser.add_argument(
        "--workers-per-shard", type=int, default=1,
        help="executor width per shard (default: 1)",
    )
    parser.add_argument(
        "--cache-backend", choices=STORE_BACKENDS, default="memory",
        help="decision-cache backend (default: memory)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=4096,
        help="decision-cache capacity (default: 4096)",
    )
    parser.add_argument(
        "--cache-file", default=None,
        help="cache path (JSONL for memory, database for sqlite)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute every decision"
    )
    parser.add_argument(
        "--quota-rate", type=float, default=None,
        help="per-tenant token-bucket refill rate in req/s "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--quota-burst", type=float, default=32,
        help="per-tenant token-bucket depth (default: 32)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None,
        help="wall-clock seconds per decision before retry/degrade",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per failed/timed-out decision (default: 2)",
    )
    parser.add_argument(
        "--breaker-failures", type=int, default=5,
        help="consecutive compute failures that open a shard's circuit "
        "breaker; 0 disables supervision (default: 5)",
    )
    parser.add_argument(
        "--breaker-recovery", type=float, default=1.0,
        help="seconds an open breaker waits before half-open probes "
        "(default: 1.0)",
    )
    parser.add_argument(
        "--drain", choices=("flush", "shed"), default="flush",
        help="what stop() does with queued jobs: serve them (flush) or "
        "resolve them as explicit sheds (default: flush)",
    )
    parser.add_argument(
        "--fsync", choices=("always", "data", "never"), default="data",
        help="fsync policy for file-backed store snapshots "
        "(default: data)",
    )
    _add_region_options(parser)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.frontend import AdmissionFrontend, serve_frontend

    async def run() -> int:
        async with AdmissionFrontend(_frontend_config(args)) as frontend:
            server = await serve_frontend(
                frontend, host=args.host, port=args.port
            )
            address = server.sockets[0].getsockname()
            print(
                f"admission frontend on {address[0]}:{address[1]} "
                f"({args.shards} shard(s), {args.executor} executor, "
                "JSONL over TCP; Ctrl-C to stop)",
                file=sys.stderr,
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                server.close()
                await server.wait_closed()
                if args.stats:
                    print(frontend.describe(), file=sys.stderr)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import LoadgenConfig, run_campaign
    from repro.workload.config import WorkloadConfig as _WC

    config = LoadgenConfig(
        requests=args.requests,
        systems=args.systems,
        seed=args.seed,
        mode=args.mode,
        concurrency=args.concurrency,
        arrival_rate=args.arrival_rate,
        tenants=tuple(args.tenants),
        workload=_WC(
            subtasks_per_task=args.n,
            utilization=args.u,
            tasks=args.tasks,
            processors=args.processors,
        ),
    )
    report = run_campaign(config, _frontend_config(args))
    print(report.render())
    if args.stats:
        frontend_snapshot = report.snapshot
        for index, shard in enumerate(frontend_snapshot["shards"]):
            print(
                f"shard {index}: {shard['requests']} requests, "
                f"{shard['cache_hits']} hits, {shard['shed']} shed, "
                f"p99 {shard['latency_p99'] * 1e3:.3f} ms",
                file=sys.stderr,
            )
    if args.rps_floor is not None and report.rps < args.rps_floor:
        print(
            f"loadgen: sustained {report.rps:,.0f} req/s is below the "
            f"floor of {args.rps_floor:,.0f} req/s",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import run_campaign

    runs = args.runs
    if runs is None and args.seconds is None:
        runs = 100  # a budget is mandatory; default to a quick sweep
    report = run_campaign(
        runs=runs,
        seconds=args.seconds,
        profile=args.profile,
        base_seed=args.seed,
        workers=args.workers,
        horizon_periods=args.horizon_periods,
        oracles=tuple(args.oracles) if args.oracles else None,
        shrink=not args.no_shrink,
        corpus_path=args.corpus,
        fail_fast=args.fail_fast,
        progress=_progress if args.verbose else None,
        timebase=args.timebase,
        clocks=args.clocks,
        latencies=tuple(args.latencies),
        faults=args.faults,
        locks=args.locks,
        engine=args.engine,
    )
    if args.stats or not report.ok:
        print(report.describe())
    else:
        print(
            f"fuzz campaign: {report.runs} run(s), 0 failure(s), "
            f"{report.elapsed:.1f} s"
        )
    return 0 if report.ok else 1


def _cmd_clock_study(args: argparse.Namespace) -> int:
    from repro.experiments.clock_study import run_clock_study

    config = None
    if args.n is not None or args.u is not None:
        if args.n is None or args.u is None:
            print(
                "clock-study: --n and --u must be given together",
                file=sys.stderr,
            )
            return 2
        config = WorkloadConfig(
            subtasks_per_task=args.n,
            utilization=args.u,
            tasks=args.tasks,
            processors=args.processors,
        )
    result = run_clock_study(
        precisions=tuple(args.precisions),
        interval=args.interval,
        config=config,
        systems=args.systems,
        base_seed=args.seed,
        horizon_periods=args.horizon_periods,
        drift_rate=args.drift_rate,
        timebase=args.timebase,
    )
    print(result.render())
    if args.require_separation and not result.separation_demonstrated:
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_study import run_chaos_study

    result = run_chaos_study(
        systems=args.systems,
        base_seed=args.seed,
        horizon_periods=args.horizon_periods,
        timebase=args.timebase,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
    )
    print(result.render())
    if args.require_gate and not result.gate_passed:
        return 1
    return 0


def _cmd_service_chaos(args: argparse.Namespace) -> int:
    from repro.service.chaos import run_service_chaos

    report = run_service_chaos(
        requests=args.requests,
        systems=args.systems,
        seed=args.seed,
        concurrency=args.concurrency,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        workdir=args.workdir,
    )
    print(report.render())
    if args.stats:
        for result in report.results:
            for note in result.notes:
                print(f"{result.name}: {note}", file=sys.stderr)
    if args.require_gate and not report.gate_passed:
        return 1
    return 0


def _cmd_locks(args: argparse.Namespace) -> int:
    from repro.experiments.locks_study import run_locks_study

    config = None
    if args.n is not None or args.u is not None:
        if args.n is None or args.u is None:
            print(
                "locks: --n and --u must be given together",
                file=sys.stderr,
            )
            return 2
        config = WorkloadConfig(
            subtasks_per_task=args.n,
            utilization=args.u,
            tasks=args.tasks,
            processors=args.processors,
        )
    result = run_locks_study(
        config=config,
        systems=args.systems,
        base_seed=args.seed,
        ratios=tuple(args.ratios),
        horizon_periods=args.horizon_periods,
        timebase=args.timebase,
    )
    print(result.render())
    if args.require_gate and not result.gate_passed:
        return 1
    return 0


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.corpus import load_corpus, replay_corpus

    records = load_corpus(args.corpus)
    if not records:
        print(f"fuzz-replay: no corpus entries under {args.corpus}")
        return 0
    outcomes = replay_corpus(
        records, horizon_periods=args.horizon_periods
    )
    failing = [outcome for outcome in outcomes if not outcome.passed]
    for outcome in outcomes:
        if args.stats or not outcome.passed:
            print(outcome.describe())
    print(
        f"fuzz-replay: {len(outcomes)} entr(y/ies), "
        f"{len(failing)} still failing"
    )
    return 0 if not failing else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rts",
        description=(
            "Reproduction of Sun & Liu, 'Synchronization Protocols in "
            "Distributed Real-Time Systems' (ICDCS 1996)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser(
        "example2", help="Example 2 schedules and bounds (Figs. 3/5/7)"
    )
    p.add_argument(
        "--protocol", choices=("DS", "PM", "MPM", "RG"), default="DS"
    )
    p.add_argument("--until", type=float, default=24.0)
    p.set_defaults(handler=_cmd_example2)

    p = subparsers.add_parser("costs", help="Section 3.3 cost comparison")
    p.set_defaults(handler=_cmd_costs)

    p = subparsers.add_parser(
        "analyze", help="analyze one synthetic (N,U) or saved system"
    )
    p.add_argument("--n", type=int, default=None, help="subtasks per task")
    p.add_argument("--u", type=float, default=None, help="utilization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=12)
    p.add_argument("--processors", type=int, default=4)
    p.add_argument("--load", default=None, help="analyze a saved system JSON")
    p.add_argument("--save", default=None, help="save the system as JSON")
    p.add_argument("--json", default=None, help="write analysis results JSON")
    p.set_defaults(handler=_cmd_analyze)

    p = subparsers.add_parser("suite", help="reproduce Figures 12-16")
    _add_grid_options(p)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "evaluate over N worker processes (same numbers, any N); "
            "default: serial"
        ),
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="verify the paper-shape expectations on the result",
    )
    p.add_argument(
        "--csv-dir", default=None, help="also write each surface as CSV"
    )
    p.add_argument(
        "--markdown", default=None, help="write a markdown report file"
    )
    p.add_argument(
        "--save-evals",
        default=None,
        help="checkpoint the per-system evaluations as JSON",
    )
    p.set_defaults(handler=_cmd_suite)

    p = subparsers.add_parser("figure", help="reproduce one figure")
    p.add_argument("number", type=int, choices=(12, 13, 14, 15, 16))
    _add_grid_options(p)
    p.set_defaults(handler=_cmd_figure)

    p = subparsers.add_parser(
        "admit", help="admission-control a saved system or a JSONL batch"
    )
    p.add_argument(
        "--load", default=None, help="decide one saved system JSON"
    )
    p.add_argument(
        "--jsonl",
        default=None,
        help=(
            "decide a batch: one JSON document per line, each either a "
            "saved system or a full admission request"
        ),
    )
    p.add_argument(
        "--out", default=None, help="write decisions as JSONL to this file"
    )
    _add_admission_options(p)
    p.set_defaults(handler=_cmd_admit)

    p = subparsers.add_parser(
        "admit-bench",
        help="cold vs warm cache admission throughput self-benchmark",
    )
    p.add_argument(
        "--systems", type=int, default=100, help="batch size (default: 100)"
    )
    p.add_argument("--n", type=int, default=3, help="subtasks per task")
    p.add_argument("--u", type=float, default=0.6, help="utilization")
    p.add_argument("--tasks", type=int, default=8)
    p.add_argument("--processors", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    _add_admission_options(p)
    p.set_defaults(handler=_cmd_admit_bench)

    p = subparsers.add_parser(
        "sensitivity",
        help="breakdown execution-time scaling per analysis",
    )
    p.add_argument(
        "--load", default=None, help="analyze a saved system JSON"
    )
    p.add_argument("--n", type=int, default=None, help="subtasks per task")
    p.add_argument("--u", type=float, default=None, help="utilization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=12)
    p.add_argument("--processors", type=int, default=4)
    p.add_argument(
        "--analyses", nargs="+", choices=("SA/PM", "SA/DS"),
        default=["SA/PM", "SA/DS"],
        help="analyses to price (default: both)",
    )
    p.add_argument(
        "--tolerance", type=float, default=1e-3,
        help="bisection resolution on the factor (default: 1e-3)",
    )
    p.add_argument(
        "--max-factor", type=float, default=16.0,
        help="upper cap on the searched factor (default: 16)",
    )
    p.add_argument(
        "--sa-ds-max-iterations", type=int, default=60,
        help="SA/DS fixed-point iteration budget per probe (default: 60)",
    )
    p.add_argument(
        "--json", default=None, help="write the factors as JSON"
    )
    p.set_defaults(handler=_cmd_sensitivity)

    p = subparsers.add_parser(
        "regions",
        help="compute a system's parametric feasibility region",
    )
    p.add_argument(
        "--load", default=None, help="use a saved system JSON"
    )
    p.add_argument("--n", type=int, default=None, help="subtasks per task")
    p.add_argument("--u", type=float, default=None, help="utilization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=12)
    p.add_argument("--processors", type=int, default=4)
    p.add_argument(
        "--protocols", nargs="+", choices=("DS", "PM", "MPM", "RG"),
        default=["DS", "PM", "MPM", "RG"],
        help="protocols the region must cover (default: all four)",
    )
    p.add_argument(
        "--unsynchronized-clocks", action="store_true",
        help="the platform's clocks are not synchronized (excludes PM)",
    )
    p.add_argument(
        "--shared-resources", action="store_true",
        help="probe with the blocking-aware analyses",
    )
    p.add_argument(
        "--clock-rate-bound", type=float, default=0.0,
        help="max clock drift rate; probes with the skew-inflated "
        "analysis",
    )
    p.add_argument(
        "--clock-jump-bound", type=float, default=0.0,
        help="max clock resynchronization step",
    )
    p.add_argument(
        "--sa-ds-max-iterations", type=int, default=300,
        help="SA/DS fixed-point iteration budget per probe (paper: 300)",
    )
    p.add_argument(
        "--timebase", choices=("float", "exact"), default="float",
        help="arithmetic backend; 'exact' yields exact rational "
        "boundaries",
    )
    p.add_argument(
        "--tolerance", type=float, default=1 / 64,
        help="relative boundary resolution (default: 1/64)",
    )
    p.add_argument(
        "--max-factor", type=float, default=16.0,
        help="per-dimension growth cap as a multiple of the request's "
        "execution times (default: 16)",
    )
    p.add_argument(
        "--ascent-rounds", type=int, default=1,
        help="coordinate-ascent sweeps after the uniform seed "
        "(0 = uniform box only; default: 1)",
    )
    p.add_argument(
        "--json", default=None, help="write the region as JSON"
    )
    p.set_defaults(handler=_cmd_regions)

    p = subparsers.add_parser(
        "serve",
        help="run the sharded async admission frontend (JSONL over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8787,
        help="TCP port (default: 8787; 0 picks a free port)",
    )
    _add_frontend_options(p)
    p.add_argument(
        "--stats", action="store_true",
        help="print frontend metrics to stderr on shutdown",
    )
    p.set_defaults(handler=_cmd_serve)

    p = subparsers.add_parser(
        "loadgen",
        help="seeded open/closed-loop load campaign against the frontend",
    )
    p.add_argument(
        "--requests", type=int, default=1000,
        help="total requests to issue (default: 1000)",
    )
    p.add_argument(
        "--systems", type=int, default=32,
        help="distinct request contents sampled with replacement "
        "(default: 32)",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--mode", choices=("closed", "open", "mixed"), default="closed",
        help="arrival archetype (default: closed)",
    )
    p.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop virtual users (default: 8)",
    )
    p.add_argument(
        "--arrival-rate", type=float, default=0.0,
        help="open-loop Poisson arrival rate in req/s "
        "(0 = back-to-back)",
    )
    p.add_argument(
        "--tenants", nargs="+", default=[""],
        help="tenant names to round-robin requests across",
    )
    p.add_argument("--n", type=int, default=2, help="subtasks per task")
    p.add_argument("--u", type=float, default=0.5, help="utilization")
    p.add_argument("--tasks", type=int, default=3)
    p.add_argument("--processors", type=int, default=2)
    p.add_argument(
        "--rps-floor", type=float, default=None,
        help="exit 1 if sustained req/s lands below this floor "
        "(CI regression gate)",
    )
    _add_frontend_options(p)
    p.add_argument(
        "--stats", action="store_true",
        help="print per-shard metrics to stderr",
    )
    p.set_defaults(handler=_cmd_loadgen)

    p = subparsers.add_parser(
        "fuzz",
        help="differential conformance fuzzing with paper-derived oracles",
    )
    p.add_argument(
        "--runs", type=int, default=None,
        help="case budget (default: 100 when --seconds is not given)",
    )
    p.add_argument(
        "--seconds", type=float, default=None,
        help="wall-clock budget; combines with --runs (first exhausted wins)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: CPU count)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--profile", default="default",
        help="workload rotation: default, tiny, or paper",
    )
    p.add_argument(
        "--horizon-periods", type=float, default=5.0,
        help="simulation horizon in multiples of the largest period",
    )
    p.add_argument(
        "--oracles", nargs="+", default=None,
        help="check only these oracles (default: all)",
    )
    p.add_argument(
        "--timebase", choices=("float", "exact"), default="float",
        help="arithmetic backend; 'exact' judges with zero tolerance and "
        "cross-checks every case against the float backend",
    )
    p.add_argument(
        "--clocks", choices=("none", "skew"), default="none",
        help="clock rotation: 'skew' cycles imperfect per-processor "
        "clocks (offset, drift, resync) through the cases",
    )
    p.add_argument(
        "--latencies", type=float, nargs="+", default=[0.0],
        help="cross-processor signal latencies to rotate through "
        "(default: 0 only)",
    )
    p.add_argument(
        "--faults", choices=("none", "chaos"), default="none",
        help="fault rotation: 'chaos' cycles signal drop/duplicate/"
        "reorder and timer-loss environments through the cases",
    )
    p.add_argument(
        "--locks", choices=("none", "locks"), default="none",
        help="lock rotation: 'locks' cycles critical-section injections "
        "under DPCP and DPCP-p through the cases",
    )
    p.add_argument(
        "--engine", choices=("reference", "batch"), default="reference",
        help="simulation backend for every case; out-of-domain cases "
        "fall back to the reference kernel explicitly",
    )
    p.add_argument(
        "--corpus", default=None,
        help="append shrunk counterexamples to this JSONL file/directory",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging of failures",
    )
    p.add_argument(
        "--fail-fast", action="store_true",
        help="stop scheduling new cases after the first failure",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the full campaign summary even on success",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="one progress line per case to stderr",
    )
    p.set_defaults(handler=_cmd_fuzz)

    p = subparsers.add_parser(
        "fuzz-replay",
        help="replay the counterexample corpus against the current code",
    )
    p.add_argument(
        "--corpus", default="tests/corpus",
        help="corpus JSONL file or directory (default: tests/corpus)",
    )
    p.add_argument(
        "--horizon-periods", type=float, default=5.0,
        help="simulation horizon in multiples of the largest period",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print one line per corpus entry, not only failures",
    )
    p.set_defaults(handler=_cmd_fuzz_replay)

    p = subparsers.add_parser(
        "clock-study",
        help="PM-vs-MPM/RG separation under resynchronized clocks",
    )
    p.add_argument(
        "--precisions", type=float, nargs="+",
        default=[0.0, 1.0, 5.0, 10.0, 20.0],
        help="resync precisions (epsilon) to sweep; 0 = perfect clocks",
    )
    p.add_argument(
        "--interval", type=float, default=100.0,
        help="resynchronization interval (default: 100)",
    )
    p.add_argument(
        "--drift-rate", type=float, default=1e-5,
        help="clock drift rate between resynchronizations",
    )
    p.add_argument(
        "--systems", type=int, default=5,
        help="SA/PM-schedulable systems to sample (default: 5)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--n", type=int, default=None,
        help="subtasks per task (with --u; default: the study's workload)",
    )
    p.add_argument("--u", type=float, default=None, help="utilization")
    p.add_argument("--tasks", type=int, default=4)
    p.add_argument("--processors", type=int, default=3)
    p.add_argument(
        "--horizon-periods", type=float, default=5.0,
        help="simulation horizon in multiples of the largest period",
    )
    p.add_argument(
        "--timebase", choices=("float", "exact"), default="float",
        help="arithmetic backend",
    )
    p.add_argument(
        "--require-separation", action="store_true",
        help="exit 1 unless the separation is demonstrated on this sample",
    )
    p.set_defaults(handler=_cmd_clock_study)

    p = subparsers.add_parser(
        "chaos",
        help="fault-injection campaign over every protocol and scenario",
    )
    p.add_argument(
        "--systems", type=int, default=4,
        help="SA/PM-schedulable systems to sample (default: 4)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--horizon-periods", type=float, default=4.0,
        help="simulation horizon in multiples of the largest period",
    )
    p.add_argument(
        "--timebase", choices=("float", "exact"), default="float",
        help="arithmetic backend",
    )
    p.add_argument(
        "--scenarios", nargs="+", default=None,
        help="subset of scenario names to run (default: all)",
    )
    p.add_argument(
        "--require-gate", action="store_true",
        help="exit 1 unless the survival separation and the fault-free "
        "identity both hold on this sample",
    )
    p.set_defaults(handler=_cmd_chaos)

    p = subparsers.add_parser(
        "service-chaos",
        help="service-plane chaos: storage damage and shard failure "
        "with recovery oracles",
    )
    p.add_argument(
        "--requests", type=int, default=120,
        help="requests per scenario campaign (default: 120)",
    )
    p.add_argument(
        "--systems", type=int, default=24,
        help="distinct request contents (default: 24)",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop virtual users per campaign (default: 8)",
    )
    p.add_argument(
        "--scenarios", nargs="+", default=None,
        help="subset of scenario names to run (default: all)",
    )
    p.add_argument(
        "--workdir", default=None,
        help="keep damaged/quarantined artifacts here instead of a "
        "temporary directory",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print per-scenario recovery notes to stderr",
    )
    p.add_argument(
        "--require-gate", action="store_true",
        help="exit 1 unless every recovery oracle holds "
        "(salvage reported, no unsound ACCEPT, digest match, "
        "conservation exact, breaker reroute + restore)",
    )
    p.set_defaults(handler=_cmd_service_chaos)

    p = subparsers.add_parser(
        "locks",
        help="shared-resource study: DPCP vs DPCP-p over section ratios",
    )
    p.add_argument(
        "--systems", type=int, default=5,
        help="SA/PM-schedulable lock-free systems to sample (default: 5)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--ratios", type=float, nargs="+",
        default=[0.0, 0.1, 0.25, 0.4],
        help="critical-section duration ratios to sweep; 0 = lock-free",
    )
    p.add_argument(
        "--n", type=int, default=None,
        help="subtasks per task (with --u; default: the study's workload)",
    )
    p.add_argument("--u", type=float, default=None, help="utilization")
    p.add_argument("--tasks", type=int, default=4)
    p.add_argument("--processors", type=int, default=3)
    p.add_argument(
        "--horizon-periods", type=float, default=4.0,
        help="simulation horizon in multiples of the largest period",
    )
    p.add_argument(
        "--timebase", choices=("float", "exact"), default="float",
        help="arithmetic backend",
    )
    p.add_argument(
        "--require-gate", action="store_true",
        help="exit 1 unless the lock-free identity, schedulability "
        "monotonicity and waiting separation all hold on this sample",
    )
    p.set_defaults(handler=_cmd_locks)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
