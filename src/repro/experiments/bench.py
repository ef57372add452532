"""Shared benchmark scenarios for the CLI and the benchmark harness.

``readduo bench`` and ``benchmarks/test_bench_sweep_scaling.py`` both
call the functions here, so the numbers recorded in
``results/BENCH_sweep.json`` come from one code path no matter which
entry point produced them. Each scenario returns a plain dict (one JSON
section); :func:`merge_into_bench_json` folds sections into the results
file without clobbering sections written by other scenarios.

The canonical single-run scenario is mcf/Hybrid at ``requests``
demand reads with trace and policy seed 42 — the same configuration the
pre-optimization engine (PR 1 baseline) measured ~34k requests/s on, so
``requests_per_s`` stays comparable across commits.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "DEFAULT_BENCH_REQUESTS",
    "BENCH_HISTORY_NAME",
    "bench_meta",
    "bench_single_run",
    "bench_telemetry_overhead",
    "bench_batch_kernel",
    "bench_serve",
    "bench_distributed",
    "merge_into_bench_json",
    "append_bench_history",
    "load_bench_history",
    "run_bench_suite",
    "run_serve_bench",
    "run_dist_bench",
    "bench_explore",
    "run_explore_bench",
]

#: Append-only per-invocation history beside BENCH_sweep.json; the input
#: of ``readduo report --bench`` (latest vs previous regression check).
BENCH_HISTORY_NAME = "BENCH_history.jsonl"

#: Requests per trace for the paper-scale scenarios (overridable by the
#: CLI's ``--requests`` and the harness's ``READDUO_BENCH_REQUESTS``).
DEFAULT_BENCH_REQUESTS = 30_000


def bench_meta(requests: int, jobs: int) -> Dict:
    """Run metadata recorded alongside benchmark numbers.

    Throughput figures are only comparable across commits when the
    machine and configuration match; this block makes the context of a
    recorded number auditable.
    """
    from .. import __version__

    return {
        "package_version": __version__,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bench_requests": requests,
        "bench_jobs": jobs,
        "bench_jobs_env": os.environ.get("READDUO_BENCH_JOBS"),
    }


def _time(fn: Callable) -> Tuple[object, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_of(fn: Callable, repeats: int = 3) -> float:
    return min(_time(fn)[1] for _ in range(repeats))


def _scenario(requests: int):
    """Build the canonical mcf/Hybrid benchmark scenario.

    Returns ``(trace, make_policy_fn, config)`` where the policy factory
    yields a fresh seed-42 Hybrid policy per run (policies carry mutable
    per-run state, traces do not).
    """
    from ..core.policies import PolicyContext
    from ..core.registry import make_policy
    from ..memsim.config import MemoryConfig
    from ..traces.generator import generate_trace
    from ..traces.spec import instructions_for_requests, workload

    config = MemoryConfig()
    profile = workload("mcf")
    instructions = instructions_for_requests(profile, requests, config.num_cores)
    trace = generate_trace(
        profile,
        instructions_per_core=instructions,
        num_cores=config.num_cores,
        seed=42,
    )

    def fresh_policy():
        return make_policy(
            "Hybrid", PolicyContext(profile=profile, config=config, seed=42)
        )

    return trace, fresh_policy, config


def bench_single_run(requests: int) -> Dict:
    """One paper-scale run; records engine requests/s for cross-commit diffs."""
    from ..memsim.engine import simulate

    trace, fresh_policy, config = _scenario(requests)

    def one_run():
        return simulate(trace, fresh_policy(), config)

    one_run()  # warm-up
    best = _best_of(one_run)
    return {
        "workload": "mcf",
        "scheme": "Hybrid",
        "requests": len(trace),
        "seconds": best,
        "requests_per_s": len(trace) / best,
    }


def bench_telemetry_overhead(requests: int) -> Dict:
    """Compare telemetry-off vs full tracing+metrics runs of one trace.

    Raises ``AssertionError`` if the instrumented run's statistics differ
    from the plain run's — telemetry observes, never perturbs.
    """
    from ..memsim.engine import simulate
    from ..obs import MetricsRegistry, Telemetry, Tracer

    trace, fresh_policy, config = _scenario(max(4_000, requests // 3))

    def run(telemetry):
        return simulate(trace, fresh_policy(), config, telemetry=telemetry)

    run(None)  # warm-up
    plain_stats = run(None)
    disabled_s = _best_of(lambda: run(None))

    def traced():
        return run(Telemetry(tracer=Tracer(), metrics=MetricsRegistry()))

    traced_stats, _ = _time(traced)
    enabled_s = _best_of(traced)

    assert traced_stats == plain_stats  # telemetry observes, never perturbs

    return {
        "workload": "mcf",
        "scheme": "Hybrid",
        "requests": len(trace),
        "disabled_s": disabled_s,
        "disabled_requests_per_s": len(trace) / disabled_s,
        "enabled_s": enabled_s,
        "enabled_requests_per_s": len(trace) / enabled_s,
        "enabled_overhead_pct": 100.0 * (enabled_s - disabled_s) / disabled_s,
    }


def bench_batch_kernel(requests: int) -> Dict:
    """Time the batch kernel against the event-level scalar oracle.

    Runs the canonical scenario once per engine, asserts the results are
    bit-for-bit identical (``to_dict`` equality — the property the
    equivalence suite checks exhaustively), then times both engines and
    records the speedup. The scalar leg runs at a reduced request count
    when ``requests`` is large so the oracle timing stays affordable;
    both engines' requests/s are normalized per-request so the speedup
    is still comparable.
    """
    from ..memsim.batch import TELEMETRY_FLUSH_WINDOW
    from ..memsim.engine import simulate

    trace, fresh_policy, config = _scenario(requests)

    def run(engine: str):
        return simulate(trace, fresh_policy(), config, engine=engine)

    batch_stats = run("batch")  # warm-up doubles as the equivalence input
    scalar_stats = run("event")
    assert batch_stats.to_dict() == scalar_stats.to_dict(), (
        "batch engine diverged from the event-level oracle"
    )

    batch_s = _best_of(lambda: run("batch"))
    scalar_s = _best_of(lambda: run("event"))
    batch_rps = len(trace) / batch_s
    scalar_rps = len(trace) / scalar_s
    return {
        "workload": "mcf",
        "scheme": "Hybrid",
        "requests": len(trace),
        "scalar_s": scalar_s,
        "scalar_requests_per_s": scalar_rps,
        "batch_s": batch_s,
        "batch_requests_per_s": batch_rps,
        "speedup": scalar_s / batch_s,
        "batch_window": TELEMETRY_FLUSH_WINDOW,
        "equivalence_check": "bit-for-bit",
    }


def _percentile_ms(sorted_latencies_s: list, q: float) -> float:
    """The q-th percentile of pre-sorted per-request latencies, in ms."""
    if not sorted_latencies_s:
        return 0.0
    index = min(len(sorted_latencies_s) - 1, int(q / 100.0 * len(sorted_latencies_s)))
    return sorted_latencies_s[index] * 1000.0


def bench_serve(
    requests_total: int = 2_000,
    distinct_units: int = 10,
    concurrency: int = 256,
    sim_requests: int = 400,
    executor_workers: int = 4,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Load-test the serve daemon in-process: latency and coalescing.

    Stands up a :class:`~repro.service.server.SimServer` on a free
    loopback port (persistent cache off, so every distinct unit really
    simulates once), then fires ``requests_total`` HTTP submits spread
    round-robin over ``distinct_units`` single-unit specs (one workload,
    one scheme, distinct seeds). All requests race concurrently (bounded
    by ``concurrency`` open connections); the duplication factor of
    ``requests_total / distinct_units`` is the coalescing opportunity.

    Records per-request wall latency (p50/p99), end-to-end throughput,
    and the server's own coalescing accounting — the headline claim is
    ``units_simulated == distinct_units``: thousands of requests,
    exactly one *simulation* per distinct unit (concurrent duplicates
    coalesce onto the in-flight execution; later duplicates hit the
    in-process memo).

    ``executor_workers`` sizes the daemon's submit executor pool; the
    tail latency (p99) is dominated by head-of-line blocking when the
    pool is 1 — memo-warm submits queue behind multi-hundred-ms
    simulations — so the recorded pool size is part of the number's
    context.
    """
    import asyncio

    from ..service.client import ServeClient, ServeError
    from ..service.server import ServeConfig, SimServer
    from .planner import clear_run_memo

    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    # The server shares this process's run memo; repeated bench rounds
    # (e.g. pool-size comparisons) must each start cold.
    clear_run_memo()

    documents = [
        {
            "schemes": ["Ideal"],
            "workloads": ["gcc"],
            "target_requests": sim_requests,
            "seed": 1000 + index,
        }
        for index in range(distinct_units)
    ]

    async def drive() -> Dict:
        server = SimServer(ServeConfig(
            port=0,
            cache=False,
            max_pending=requests_total + 1,
            max_inflight_per_client=requests_total + 1,
            executor_workers=executor_workers,
        ))
        await server.start()
        try:
            client = ServeClient(port=server.port, client_id="bench-serve")
            gate = asyncio.Semaphore(concurrency)
            latencies: list = []
            rejected = 0
            errors = 0

            async def one(index: int) -> None:
                nonlocal rejected, errors
                async with gate:
                    start = time.perf_counter()
                    try:
                        await client.submit(documents[index % distinct_units])
                    except ServeError as exc:
                        if exc.status == 429:
                            rejected += 1
                        else:
                            errors += 1
                        return
                    latencies.append(time.perf_counter() - start)

            started = time.perf_counter()
            await asyncio.gather(*(one(i) for i in range(requests_total)))
            elapsed = time.perf_counter() - started

            # Head-of-line probe: start one long *cold* simulation, then
            # serially submit known-warm duplicates while it runs. With a
            # single executor thread each warm submit queues behind the
            # simulation (p99 ~ the sim's full duration); with a pool it
            # resolves from the memo in milliseconds. This isolates the
            # tail-latency failure mode the executor pool exists to fix,
            # independent of how many cores the host has.
            # Fixed size, deliberately much larger than the storm units:
            # the vectorized engine clears ~1M requests/s, so a small
            # "long" sim would finish inside the warm-up sleep.
            long_doc = {
                "schemes": ["Hybrid"],
                "workloads": ["mcf"],
                "target_requests": 400_000,
                "seed": 7777,
            }
            long_task = asyncio.ensure_future(client.submit(long_doc))
            await asyncio.sleep(0.1)  # let the long sim occupy a thread
            probe: list = []
            for _ in range(20):
                probe_start = time.perf_counter()
                await client.submit(documents[0])
                probe.append(time.perf_counter() - probe_start)
            await long_task
            probe.sort()

            stats = server.stats()
            latencies.sort()
            return {
                "requests_total": requests_total,
                "distinct_units": distinct_units,
                "concurrency": concurrency,
                "sim_requests": sim_requests,
                "executor_workers": executor_workers,
                "completed": len(latencies),
                "rejected": rejected,
                "errors": errors,
                "seconds": elapsed,
                "requests_per_s": len(latencies) / elapsed if elapsed else 0.0,
                "latency_p50_ms": _percentile_ms(latencies, 50),
                "latency_p99_ms": _percentile_ms(latencies, 99),
                "hol_probe_p50_ms": _percentile_ms(probe, 50),
                "hol_probe_p99_ms": _percentile_ms(probe, 99),
                "coalescing_ratio": stats["coalescing_ratio"],
                "units_requested": stats["counters"]["units_requested"],
                "units_owned": stats["counters"]["units_owned"],
                "units_coalesced": stats["counters"]["units_coalesced"],
                "units_simulated": stats["counters"].get("tier_simulated", 0),
                "units_memo": stats["counters"].get("tier_memo", 0),
            }
        finally:
            await server.stop()

    say(
        f"serve: {requests_total} concurrent submits over "
        f"{distinct_units} distinct unit(s) ..."
    )
    result = asyncio.run(drive())
    say(
        f"  p50 {result['latency_p50_ms']:.1f}ms, "
        f"p99 {result['latency_p99_ms']:.1f}ms, "
        f"warm-behind-cold p99 {result['hol_probe_p99_ms']:.1f}ms "
        f"(pool={executor_workers}), "
        f"coalescing ratio {result['coalescing_ratio']:.3f} "
        f"({result['units_simulated']} of {result['units_requested']} "
        f"requested units simulated)"
    )
    return result


def run_serve_bench(
    results_dir: Path,
    requests_total: int = 2_000,
    distinct_units: int = 10,
    concurrency: int = 256,
    sim_requests: int = 400,
    executor_workers: int = 4,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the serve load test and write ``results/BENCH_serve.json``.

    Before overwriting, the previous file's headline numbers (p50/p99
    and its executor pool size) are carried into ``meta["previous"]`` so
    a single results file still shows the change a pool-size bump made.
    """
    results_dir = Path(results_dir)
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_serve.json"
    previous = None
    if path.exists():
        try:
            old = json.loads(path.read_text()).get("serve", {})
            previous = {
                "latency_p50_ms": old.get("latency_p50_ms"),
                "latency_p99_ms": old.get("latency_p99_ms"),
                # Pre-pool builds ran a single owner-execution thread.
                "executor_workers": old.get("executor_workers", 1),
            }
        except ValueError:
            previous = None
    meta = bench_meta(sim_requests, 1)
    if previous is not None:
        meta["previous"] = previous
    payload = {
        "meta": meta,
        "serve": bench_serve(
            requests_total=requests_total,
            distinct_units=distinct_units,
            concurrency=concurrency,
            sim_requests=sim_requests,
            executor_workers=executor_workers,
            log=log,
        ),
    }
    if executor_workers > 1:
        # A same-run single-thread baseline makes the pool's effect
        # auditable from this one file: compare serve.hol_probe_p99_ms
        # against serve_pool1.hol_probe_p99_ms.
        payload["serve_pool1"] = bench_serve(
            requests_total=requests_total,
            distinct_units=distinct_units,
            concurrency=concurrency,
            sim_requests=sim_requests,
            executor_workers=1,
            log=log,
        )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def bench_distributed(
    worker_counts: Tuple[int, ...] = (1, 2),
    sim_requests: int = 3_000,
    lease_units: int = 2,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Drain one cold sweep through real ``readduo worker`` processes.

    For each worker count N: stand up an in-process coordinator
    (``SimServer`` with ``distributed=True``) over a fresh cache
    directory, spawn N worker subprocesses with private local caches,
    submit an 8-unit sweep (4 schemes x 2 workloads), and time the
    drain. A warm resubmit afterwards must lease zero units (the
    coordinator's store already has everything).

    Records per-round wall time, unit throughput, and the coordinator's
    counters, plus ``scaling`` (round N throughput over round 1) and
    ``digests_match`` — every round must produce the byte-identical
    response payload, workers or not. On a single-CPU host the scaling
    number is honest, not aspirational: ``meta.cpu_count`` in the
    results file is part of the claim.
    """
    import asyncio
    import hashlib
    import subprocess
    import sys
    import tempfile

    from ..service.client import ServeClient
    from ..service.server import ServeConfig, SimServer

    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    spec = {
        "schemes": ["Ideal", "Scrubbing", "M-metric", "Hybrid"],
        "workloads": ["gcc", "mcf"],
        "target_requests": sim_requests,
        "seed": 42,
    }
    distinct_units = len(spec["schemes"]) * len(spec["workloads"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)

    async def one_round(workers: int, tmp: Path) -> Dict:
        # Rounds must be cold: the coordinator lives in this process, so
        # its in-process run memo would otherwise satisfy round N>1
        # without leasing anything.
        from .planner import clear_run_memo

        clear_run_memo()
        server = SimServer(ServeConfig(
            port=0,
            cache=str(tmp / "server-cache"),
            distributed=True,
            lease_ttl_s=15.0,
            lease_units=lease_units,
            executor_workers=2,
        ))
        await server.start()
        procs = []
        try:
            for index in range(workers):
                cache_dir = tmp / f"worker-{index}-cache"
                procs.append(subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--coordinator", f"http://127.0.0.1:{server.port}",
                        "--worker-id", f"bench-w{index}",
                        "--cache-dir", str(cache_dir),
                        "--max-units", str(lease_units),
                        "--poll-interval", "0.05",
                    ],
                    cwd=str(tmp), env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ))
            client = ServeClient(port=server.port, client_id="bench-dist")
            started = time.perf_counter()
            payload = await client.submit(spec)
            elapsed = time.perf_counter() - started
            cold = server.stats()["coordinator"]["counters"]
            warm_started = time.perf_counter()
            warm_payload = await client.submit(spec)
            warm_elapsed = time.perf_counter() - warm_started
            warm = server.stats()["coordinator"]["counters"]
            # Digest only the simulation results: the response's plan
            # accounting (tier counts, leased units) legitimately varies
            # with topology; the runs must not.
            blob = json.dumps(
                payload["runs"], sort_keys=True, separators=(",", ":")
            )
            return {
                "workers": workers,
                "units": distinct_units,
                "seconds": elapsed,
                "units_per_s": distinct_units / elapsed if elapsed else 0.0,
                "units_leased": cold["units_leased"],
                "units_requeued": cold["units_requeued"],
                "units_fallback": cold["units_fallback"],
                "warm_seconds": warm_elapsed,
                "warm_units_leased": warm["units_leased"] - cold["units_leased"],
                "payload_digest": hashlib.sha256(blob.encode()).hexdigest(),
                "warm_matches_cold": warm_payload["runs"] == payload["runs"],
            }
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            await server.stop()

    rounds = []
    for workers in worker_counts:
        say(
            f"distributed: {distinct_units} cold units at "
            f"{sim_requests} requests, {workers} worker(s) ..."
        )
        with tempfile.TemporaryDirectory(prefix="readduo-dist-") as tmpdir:
            round_result = asyncio.run(one_round(workers, Path(tmpdir)))
        rounds.append(round_result)
        say(
            f"  {round_result['seconds']:.2f}s "
            f"({round_result['units_per_s']:.2f} units/s), "
            f"{round_result['units_leased']} leased, "
            f"warm rerun leased {round_result['warm_units_leased']}"
        )
    digests = {r["payload_digest"] for r in rounds}
    base = rounds[0]["units_per_s"] or 1.0
    return {
        "spec": spec,
        "lease_units": lease_units,
        "rounds": rounds,
        "digests_match": len(digests) == 1,
        "scaling": {
            str(r["workers"]): r["units_per_s"] / base for r in rounds
        },
    }


def run_dist_bench(
    results_dir: Path,
    sim_requests: int = 3_000,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the distributed bench and write ``results/BENCH_dist.json``."""
    results_dir = Path(results_dir)
    results_dir.mkdir(exist_ok=True)
    payload = {
        "meta": bench_meta(sim_requests, 1),
        "distributed": bench_distributed(sim_requests=sim_requests, log=log),
    }
    path = results_dir / "BENCH_dist.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def bench_explore(
    budget: int = 1_200,
    base_budget: int = 300,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Measure what successive halving saves over an exhaustive grid.

    Runs one cold exploration of a 16-candidate space against a fresh
    cache directory and compares its simulated-request spend against the
    naive exhaustive grid (every candidate plus the per-config TLC/Ideal
    baselines at the full budget) — the saving combines rung pruning
    with the planner's dedup of candidates that share a run unit. A warm
    re-exploration against the same cache must then simulate zero units
    (``warm_units_simulated`` is the number it actually simulated; the
    CLI exits nonzero if it is not 0).
    """
    import tempfile

    from ..explore import ExploreSpace, LocalExploreBackend, explore
    from ..service import ExecutionService

    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    space = ExploreSpace(
        schemes=("LWT-2", "LWT-4", "Select-4:1", "Select-4:2"),
        ecc_strengths=(4, 8),
        scrub_intervals_s=(8.0, 640.0),
        workload="mcf",
        seed=7,
    )
    candidates = len(space.candidates())
    configs = len(space.configs)
    say(f"explore: cold successive halving over {space.describe()} ...")
    with tempfile.TemporaryDirectory(prefix="readduo-bench-explore-") as tmp:
        with ExecutionService(jobs=1, cache=tmp) as service:
            result, cold_wall_s = _time(
                lambda: explore(
                    space,
                    budget,
                    base_budget=base_budget,
                    backend=LocalExploreBackend(service),
                )
            )
        requests_simulated = sum(
            int(r.exec_stats.get("units_simulated") or 0) * r.budget
            for r in result.rungs
        )
        # The naive exhaustive grid simulates every candidate plus the
        # TLC and Ideal baselines at the full budget, one run each —
        # what sweeping the space without the explorer (no rung pruning,
        # no content-addressed dedup of candidates differing only in the
        # analytic ECC/scrub dimensions) would cost.
        distinct_units = len({
            space.spec_for(c, budget).run_hash(space.workload, c.scheme)
            for c in space.candidates()
        })
        requests_exhaustive = (candidates + 2 * configs) * budget
        say("explore: warm re-exploration against the same cache ...")
        with ExecutionService(jobs=1, cache=tmp) as service:
            warm_result, warm_wall_s = _time(
                lambda: explore(
                    space,
                    budget,
                    base_budget=base_budget,
                    backend=LocalExploreBackend(service),
                )
            )
    if warm_result.frontier_digest() != result.frontier_digest():
        raise RuntimeError("warm re-exploration diverged from cold frontier")
    return {
        "budget": budget,
        "base_budget": base_budget,
        "rungs": [r.budget for r in result.rungs],
        "candidates": candidates,
        "distinct_units": distinct_units,
        "frontier_size": len(result.frontier),
        "frontier_digest": result.frontier_digest(),
        "pruned": len(result.pruned),
        "units_simulated": int(result.units.get("units_simulated") or 0),
        "requests_simulated": requests_simulated,
        "requests_exhaustive": requests_exhaustive,
        "requests_saved_ratio": (
            1.0 - requests_simulated / requests_exhaustive
            if requests_exhaustive
            else 0.0
        ),
        "cold_wall_s": cold_wall_s,
        "warm_wall_s": warm_wall_s,
        "warm_units_simulated": int(
            warm_result.units.get("units_simulated") or 0
        ),
    }


def run_explore_bench(
    results_dir: Path,
    budget: int = 1_200,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the exploration bench; write ``results/BENCH_explore.json``.

    The ``explore`` section is also merged into ``BENCH_sweep.json`` and
    the merged payload appended to the benchmark history, so ``readduo
    report --bench`` gates ``explore.requests_saved_ratio`` alongside
    the engine metrics.
    """
    results_dir = Path(results_dir)
    results_dir.mkdir(exist_ok=True)
    section = bench_explore(budget=budget, log=log)
    payload = {"meta": bench_meta(budget, 1), "explore": section}
    path = results_dir / "BENCH_explore.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    merge_into_bench_json(results_dir, {"explore": section})
    history_payload = json.loads(
        (results_dir / "BENCH_sweep.json").read_text()
    )
    append_bench_history(results_dir, history_payload)
    return payload


def merge_into_bench_json(results_dir: Path, fragment: Dict) -> Path:
    """Accumulate sections into results/BENCH_sweep.json across scenarios."""
    path = Path(results_dir) / "BENCH_sweep.json"
    payload: Dict = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            payload = {}
    payload.update(fragment)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def append_bench_history(results_dir: Path, payload: Dict) -> Path:
    """Append one suite run to ``results/BENCH_history.jsonl``.

    Where ``BENCH_sweep.json`` keeps only the latest numbers (merged in
    place), the history file keeps every invocation — one JSON line per
    suite run, stamped with the wall-clock time — so regressions are
    detectable by comparing the last two lines.
    """
    path = Path(results_dir) / BENCH_HISTORY_NAME
    entry = dict(payload)
    entry["t_s"] = time.time()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")
    return path


def load_bench_history(path: Path) -> list:
    """Parse a history file into entry dicts, skipping unreadable lines."""
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def run_bench_suite(
    results_dir: Path,
    requests: int = DEFAULT_BENCH_REQUESTS,
    jobs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the single-run, telemetry, and batch-kernel scenarios.

    Writes each section into ``results/BENCH_sweep.json`` as it
    completes (so a crash mid-suite still records finished sections) and
    returns the merged payload. This is the ``readduo bench`` entry
    point; the benchmark harness calls the same scenario functions
    individually (plus the sweep-scaling scenario, which needs pytest's
    tmp-path cache isolation).
    """
    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    results_dir = Path(results_dir)
    results_dir.mkdir(exist_ok=True)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    say(f"single_run: mcf/Hybrid at {requests} requests ...")
    single = bench_single_run(requests)
    merge_into_bench_json(
        results_dir,
        {"single_run": single, "meta": bench_meta(requests, jobs)},
    )
    say(f"  {single['requests_per_s']:.0f} requests/s")

    say("telemetry_overhead: disabled vs tracing+metrics ...")
    overhead = bench_telemetry_overhead(requests)
    merge_into_bench_json(results_dir, {"telemetry_overhead": overhead})
    say(f"  {overhead['enabled_overhead_pct']:.1f}% enabled overhead")

    say("batch_kernel: batch engine vs event-level oracle ...")
    kernel = bench_batch_kernel(requests)
    merge_into_bench_json(results_dir, {"batch_kernel": kernel})
    say(
        f"  {kernel['speedup']:.1f}x over scalar "
        f"({kernel['batch_requests_per_s']:.0f} vs "
        f"{kernel['scalar_requests_per_s']:.0f} requests/s)"
    )

    payload = json.loads(
        (results_dir / "BENCH_sweep.json").read_text()
    )
    append_bench_history(results_dir, payload)
    return payload
