"""The repository benchmark: one command, two workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {run_all,serve_mixed} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` is a separate run that records spans around each layer's
public entry points and reports the per-layer split. Either way the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's context (CPU count,
Python and numpy versions, whether the native timeline built, seed), and
the line before that the workload's own named figures. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from common import SANDBOX_PARENT, SRC, Sandbox, context, cpu_plan
from speed import SpeedMeter

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "warm_ms": "ms",
    "cold_ms": "ms",
    "ops_per_s": "1/s",
}

WORKLOADS = ("run_all", "serve_mixed")


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit (the union over workloads)."""
    from layers import PAPER_SCHEMES, RUN_ALL_FIELDS, metric_scheme

    units = {}
    for scheme in PAPER_SCHEMES:
        units[f"memsim.simulate_s.{metric_scheme(scheme)}"] = "s"
        units[f"memsim.ns_per_op.{metric_scheme(scheme)}"] = "ns"
    units.update({
        "memsim.fastpath.speculated_ratio": "ratio",
        "memsim.fastpath.verify_abort_n": "count",
        "traces.generate_trace_s": "s",
        "core.make_policy_s": "s",
        "planner.submit_overhead_s": "s",
    })
    for field in RUN_ALL_FIELDS + ("unattributed_s",):
        unit = "s" if field.endswith("_s") else ("bytes" if field.endswith("bytes_written") else "count")
        for phase in ("cold", "warm"):
            units[f"{field}.{phase}"] = unit
    units.update({
        "service.warm_p50_ms": "ms",
        "service.warm_p99_ms": "ms",
        "service.cold_p50_ms": "ms",
        "service.http_floor_p50_ms": "ms",
        "service.response_bytes_mean": "bytes",
        "service.tier_memo_n": "count",
        "service.tier_disk_n": "count",
        "service.tier_simulated_n": "count",
        "service.coalesced_n": "count",
        "service.rejected_n": "count",
        "service.errors_n": "count",
        "traced_wall_s": "s",
        "unattributed_s": "s",
        "trace_overhead_pct": "%",
        "failed_ratio": "ratio",
    })
    return units


def make_workload(name: str, sandbox: Sandbox, seed: int, meter: SpeedMeter, cpu: int):
    if name == "run_all":
        from run_all import RunAll

        return RunAll(sandbox, seed, meter, cpu)
    from serve_mixed import ServeMixed

    return ServeMixed(sandbox, seed, meter, cpu)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    sandbox = Sandbox()
    # The measured process (the run-all child, or the daemon, which is
    # the serve loop's bottleneck) gets a CPU of its own, and the meter
    # probes that CPU; this process, the client, keeps to the others.
    cpu, others = cpu_plan()
    os.sched_setaffinity(0, others)
    meter = SpeedMeter(os.path.join(sandbox.fresh("speed"), "probes.log"), cpu)
    workload = make_workload(args.workload, sandbox, args.seed, meter, cpu)
    try:
        with meter:
            setup_s = workload.setup()
            started = time.perf_counter()
            if args.trace:
                spans_dir = os.path.join(SANDBOX_PARENT, "spans")
                os.makedirs(spans_dir, exist_ok=True)
                values = workload.trace(args.seconds, spans_dir)
                values["failed_ratio"] = workload.failed / max(1, workload.attempted)
                units = per_layer_names()
                values = {name: values.get(name, 0.0) for name in units}
                named = {}
            else:
                values = workload.measure(args.seconds)
                values["setup_s"] = setup_s
                units = END_TO_END
                named = dict(workload.named, setup_s=setup_s)
            named["measure_wall_s"] = time.perf_counter() - started
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        sandbox.close()

    ctx = context(args.seed, bool(workload.native))
    if not workload.native:
        print("perfbench: WARNING native timeline did not build; "
              "numbers are not comparable with native runs", file=sys.stderr)
    print(json.dumps({"workload": args.workload, **named}))
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
