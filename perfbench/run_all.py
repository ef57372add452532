"""``run_all``: ``readduo run all --quick``, cold and then warm, as a user runs it.

Each cold run gets a fresh sweep cache: it simulates 160 short-trace
units through the planner and writes them to the granular store; the
warm run after it reads them back. The warm run is then dominated by
import, BCH arithmetic (``extra-bch-detection``), the simulations that
bypass the planner, and rendering — so cache writes (cold) and reads
(warm) show up side by side. Both runs print the same 31 artifacts, and
that text must match a recorded hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Tuple

from common import EXPECTED, HERE, SETUP_REPEATS, Child, Sandbox, median, run_child, timed_native_build
from layers import RUN_ALL_FIELDS, run_all_metrics, sim_metrics
from spans import Recorder
from speed import SpeedMeter

ARGS = ("run", "all", "--quick")
#: Traced and untraced warm runs each in the traced run; the overhead
#: compares the medians of each.
WARM_REPEATS = 2


class RunAll:
    name = "run_all"

    def __init__(self, sandbox: Sandbox, seed: int, meter: SpeedMeter, cpu: int) -> None:
        self.sandbox = sandbox
        self.seed = seed
        self.meter = meter
        self.cpu = cpu
        self.attempted = 0
        self.failed = 0
        with open(EXPECTED, encoding="utf-8") as handle:
            self.expected_sha256 = json.load(handle)["run_all"]["stdout_sha256"]
        self.peak_rss_mb = 0.0

    def at_reference(self, child: Child) -> float:
        """The child's CPU time at the reference host's speed."""
        return child.cpu_s * self.meter.speed(child.start, child.end)

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            child, self.native_cache, facts = timed_native_build(self.sandbox, self.cpu)
            times.append(self.at_reference(child))
        self.native = bool(facts["native"])
        self.artifacts = facts["experiments"]
        return median(times)

    def _run(self, cache: str, traced_to: str = "") -> Child:
        """One ``run all --quick`` process on ``cache``; checks its stdout."""
        if traced_to:
            argv = [sys.executable, os.path.join(HERE, "child.py"), traced_to, *ARGS]
        else:
            argv = [sys.executable, "-m", "repro", *ARGS]
        child = run_child(
            argv, self.sandbox.env(cache, self.native_cache),
            cwd=self.sandbox.fresh("work"), cpu=self.cpu,
        )
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        digest = hashlib.sha256(child.stdout).hexdigest()
        if child.code != 0 or digest != self.expected_sha256:
            self.failed += 1
            sys.stderr.write(
                f"run_all: exit {child.code}, stdout sha256 {digest}\n"
                + child.stderr.decode(errors="replace")[-2000:]
            )
        return child

    def measure(self, seconds: float) -> Dict[str, float]:
        """Cold-then-warm pairs, each on a fresh cache, until ``seconds`` are used.

        The pair that crosses ``seconds`` runs to its end. Each time is
        the child's CPU time at reference speed, and each figure the
        median over the pairs.
        """
        cold: List[Child] = []
        warm: List[Child] = []
        started = time.monotonic()
        while not cold or time.monotonic() - started < seconds:
            cache = self.sandbox.fresh("sweep")
            cold.append(self._run(cache))
            warm.append(self._run(cache))
            self.attempted += 1
            self.failed += warm[-1].stdout != cold[-1].stdout
        cold_s = median([self.at_reference(child) for child in cold])
        warm_s = median([self.at_reference(child) for child in warm])
        self.named = {
            "run_all.cold_s": cold_s,
            "run_all.warm_s": warm_s,
            "run_all.pairs": len(cold),
            "run_all.cold_wall_s": median([child.end - child.start for child in cold]),
            "run_all.warm_wall_s": median([child.end - child.start for child in warm]),
            "host_speed": self.meter.speed(started, time.monotonic()),
        }
        return {
            "warm_ms": warm_s * 1e3,
            "cold_ms": cold_s * 1e3,
            "ops_per_s": 2 * self.artifacts / (cold_s + warm_s),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def trace(self, seconds: float, spans_dir: str) -> Dict[str, float]:
        """A traced cold run, then traced and untraced warm runs in turn.

        The warm split comes from the fastest traced warm run. The
        tracing overhead compares the traced and untraced warm runs'
        median CPU times at reference speed. ``seconds`` is not used:
        the traced run is a fixed set of runs.
        """
        cache = self.sandbox.fresh("sweep")
        out: Dict[str, float] = {}
        cold_path = os.path.join(spans_dir, "run_all-cold.json")
        cold = self._run(cache, traced_to=cold_path)
        cold_wall = cold.end - cold.start
        traced: List[Tuple[float, str]] = []
        traced_cost: List[float] = []
        untraced_cost: List[float] = []
        for index in range(WARM_REPEATS):
            warm_path = os.path.join(spans_dir, f"run_all-warm{index}.json")
            child = self._run(cache, traced_to=warm_path)
            traced.append((child.end - child.start, warm_path))
            traced_cost.append(self.at_reference(child))
            untraced_cost.append(self.at_reference(self._run(cache)))
        warm_wall, warm_path = min(traced)
        for phase, wall, path in (("cold", cold_wall, cold_path), ("warm", warm_wall, warm_path)):
            rec = Recorder.load(path)
            metrics = run_all_metrics(rec, wall)
            for field in RUN_ALL_FIELDS + ("unattributed_s",):
                out[f"{field}.{phase}"] = metrics[field]
            if phase == "cold":
                # The cold run simulates all 7 paper schemes (160 units at
                # 4k requests), so it carries the per-scheme memsim split.
                out.update(sim_metrics(rec))
        out["traced_wall_s"] = cold_wall + warm_wall
        out["unattributed_s"] = out["unattributed_s.cold"] + out["unattributed_s.warm"]
        out["trace_overhead_pct"] = 100.0 * (median(traced_cost) / median(untraced_cost) - 1.0)
        return out
