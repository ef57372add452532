"""``serve_mixed``: a ``readduo serve`` daemon under a closed loop of 2 clients.

The daemon runs as its own process with a private cache and is primed
with the paper grid (7 schemes x 4 workloads) at 4k requests. Two client
connections then submit a fixed, seeded sequence: 95% re-send the primed
grid and are answered from the run memo; 5% are fresh-seed submits of
one fast-path scheme (Ideal, TLC or Hybrid) on one workload, which
simulate and write to the store. Here the HTTP parser, JSON encoding,
coalescing and memo do most of the work and ``memsim`` little; keeping
cold submits on fast-path schemes keeps the tail about the service.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import SETUP_REPEATS, Sandbox, median, percentile, wait4
from layers import PAPER_SCHEMES, PAPER_WORKLOADS
from spans import Recorder
from speed import SpeedMeter

PRIMED_REQUESTS = 4_000
#: One submit in every BLOCK is cold (5%).
BLOCK = 20
COLD_SCHEMES = ("Ideal", "TLC", "Hybrid")
CONNECTIONS = 2
#: Cold submits re-simulated locally after the loop to check byte identity.
COLD_CHECKS = 12
HEALTH_PINGS = 200
#: Each latency is corrected by the host's speed over this many seconds around it.
LOCAL_SPEED_S = 1.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``readduo serve`` child with its own cache and native build dirs."""

    def __init__(self, sandbox: Sandbox, cpu: int) -> None:
        self.port = _free_port()
        self.log = open(os.path.join(sandbox.fresh("daemon"), "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port)],
            env=sandbox.env(sandbox.fresh("sweep"), sandbox.fresh("native")),
            cwd=sandbox.fresh("work"),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.peak_rss_mb = 0.0

    async def wait_ready(self, client: Any, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                status, _headers, _body = await client.request("GET", "/v1/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become healthy")
            await asyncio.sleep(0.02)

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then reap and record peak RSS."""
        try:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGINT)
                _pid, _status, usage = wait4(self.proc, 20.0)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
        finally:
            self.log.close()


def submit_sequence(seed: int):
    """The fixed, seeded submit mix: ``(kind, spec document)`` forever.

    Every block of ``BLOCK`` submits holds exactly one cold submit, at a
    seeded position, and the cold submits walk through the 12 (scheme,
    paper workload) pairs in a seeded order before repeating one. So the
    tail is made of the same mix of work whatever the seed, which keeps
    p99 from following which pairs a seed happened to draw.
    """
    rng = random.Random(seed)
    pairs = [(scheme, name) for scheme in COLD_SCHEMES for name in PAPER_WORKLOADS]
    primed = primed_doc(seed)
    index = 0
    while True:
        rng.shuffle(pairs)
        for scheme, name in pairs:
            cold_at = rng.randrange(BLOCK)
            for slot in range(BLOCK):
                index += 1
                if slot != cold_at:
                    yield "warm", primed
                    continue
                yield "cold", {
                    "schemes": [scheme],
                    "workloads": [name],
                    "target_requests": PRIMED_REQUESTS,
                    "seed": seed * 1_000_003 + index,
                }


def primed_doc(seed: int) -> Dict[str, Any]:
    return {
        "schemes": list(PAPER_SCHEMES),
        "workloads": list(PAPER_WORKLOADS),
        "target_requests": PRIMED_REQUESTS,
        "seed": seed,
    }


def local_body(doc: Dict[str, Any]) -> bytes:
    """The served body this spec must produce, minus the daemon's ``plan`` block.

    The daemon sends ``sort_keys`` JSON, so ``"plan"`` comes first and
    everything from ``"runs"`` on is the local ``sweep_payload`` byte for byte.
    """
    from repro.experiments.planner import clear_run_memo
    from repro.experiments.spec import SimSpec
    from repro.service.execution import ExecutionService, sweep_payload

    spec = SimSpec.from_dict(doc)
    clear_run_memo()
    outcome = ExecutionService(jobs=1, cache=False).submit([spec])
    clear_run_memo()
    return json.dumps(sweep_payload(spec, outcome.grid_for(spec)), sort_keys=True).encode()[1:]


def served_tail(body: bytes) -> bytes:
    marker = body.find(b'"runs": ')
    return body[marker:] if marker >= 0 else b""


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, sandbox: Sandbox, seed: int, meter: SpeedMeter, cpu: int) -> None:
        self.sandbox = sandbox
        self.seed = seed
        self.meter = meter
        self.cpu = cpu
        self.attempted = 0
        self.failed = 0
        self.daemon: Optional[Daemon] = None
        self.loop = asyncio.new_event_loop()

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Daemon start + health + priming, repeated; the last daemon stays up.

        Each set-up is timed on the wall clock at reference speed.
        """
        self.sandbox.enter_process(self.sandbox.fresh("sweep"), self.sandbox.fresh("native"))
        from repro.memsim.native import native_available
        from repro.service.client import ServeClient

        walls = []
        for _ in range(SETUP_REPEATS):
            if self.daemon is not None:
                self.daemon.stop()
            start = time.monotonic()
            self.daemon = Daemon(self.sandbox, self.cpu)
            client = ServeClient(port=self.daemon.port)
            self.loop.run_until_complete(self.daemon.wait_ready(client))
            status, _h, body = self.loop.run_until_complete(
                client.request("POST", "/v1/submit", primed_doc(self.seed))
            )
            end = time.monotonic()
            walls.append((end - start) * self.meter.speed(start, end))
            if status != 200:
                raise RuntimeError(f"priming failed: {status} {body[:200]!r}")
        self.client = ServeClient(port=self.daemon.port)
        self.native = native_available()
        self.primed_tail = local_body(primed_doc(self.seed))
        self.attempted += 1
        self.failed += served_tail(body) != self.primed_tail
        return median(walls)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        self.loop.close()

    # ------------------------------------------------------------ the loop

    async def _connection(self, sequence, deadline: float, samples: List[tuple]) -> None:
        while time.monotonic() < deadline:
            kind, doc = next(sequence)
            start = time.monotonic()
            status, _headers, body = await self.client.request("POST", "/v1/submit", doc)
            elapsed = time.monotonic() - start
            if kind == "warm":
                ok = status == 200 and served_tail(body) == self.primed_tail
                digest = None
            else:
                ok = status == 200
                digest = hashlib.sha256(served_tail(body)).hexdigest()
            samples.append((kind, start, elapsed, len(body), ok, doc if digest else None, digest))

    def _run_loop(self, seconds: float, sequence) -> Tuple[List[tuple], float]:
        samples: List[tuple] = []
        start = time.monotonic()
        deadline = start + seconds

        async def both() -> None:
            await asyncio.gather(*(
                self._connection(sequence, deadline, samples) for _ in range(CONNECTIONS)
            ))

        self.loop.run_until_complete(both())
        self.window = (start, time.monotonic())
        return samples, self.window[1] - start

    def _account(self, samples: List[tuple]) -> None:
        """Count failures, and re-check a spread of cold submits locally."""
        self.attempted += len(samples)
        self.failed += sum(1 for sample in samples if not sample[4])
        cold = [sample for sample in samples if sample[0] == "cold" and sample[4]]
        step = max(1, len(cold) // COLD_CHECKS)
        for *_head, doc, digest in cold[::step][:COLD_CHECKS]:
            self.attempted += 1
            self.failed += hashlib.sha256(local_body(doc)).hexdigest() != digest

    def measure(self, seconds: float) -> Dict[str, float]:
        """Submit latencies and throughput over the window, at reference speed.

        Each latency is scaled by the host's speed over the second around
        it, so a slow stretch inside the window is corrected where it
        happened; the rate is scaled by the window's mean speed.
        """
        samples, wall = self._run_loop(seconds, submit_sequence(self.seed))
        speeds = self.meter.speeds_at([
            (start - LOCAL_SPEED_S / 2, start + elapsed + LOCAL_SPEED_S / 2)
            for _kind, start, elapsed, *_rest in samples
        ])
        window_speed = self.meter.speed(*self.window)
        self._account(samples)
        self.daemon.stop()

        def latencies(kind: str = "") -> List[float]:
            return [
                1e3 * sample[2] * speed for sample, speed in zip(samples, speeds)
                if kind in ("", sample[0])
            ] or [0.0]

        def p(q: float, kind: str = "") -> float:
            return percentile(latencies(kind), q)

        cold = latencies("cold")
        self.named = {
            "serve.p50_ms": p(0.5),
            "serve.p99_ms": p(0.99),
            "serve.warm_p50_ms": p(0.5, "warm"),
            "serve.cold_p50_ms": p(0.5, "cold"),
            "serve.cold_mean_ms": sum(cold) / len(cold),
            "serve.submits_per_s": len(samples) / wall / window_speed,
            "serve.submits": len(samples),
            "serve.wall_p50_ms": 1e3 * percentile([sample[2] for sample in samples], 0.5),
            "serve.wall_submits_per_s": len(samples) / wall,
            "host_speed": window_speed,
        }
        return {
            "warm_ms": self.named["serve.warm_p50_ms"],
            "cold_ms": self.named["serve.cold_mean_ms"],
            "ops_per_s": self.named["serve.submits_per_s"],
            "peak_rss_mb": self.daemon.peak_rss_mb,
        }

    # ------------------------------------------------------------ traced

    async def _health_floor(self, rec: Recorder) -> None:
        for _ in range(HEALTH_PINGS):
            start = time.monotonic()
            await self.client.request("GET", "/v1/health")
            rec.record("http.health", start, time.monotonic())

    def _stats(self) -> Dict[str, Any]:
        status, _h, body = self.loop.run_until_complete(self.client.request("GET", "/v1/stats"))
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)["counters"]

    def trace(self, seconds: float, spans_dir: str) -> Dict[str, float]:
        """Client-side request spans, the HTTP floor and the daemon's own counters.

        The spans are built after the loop from the samples the untraced
        loop collects anyway, so the window carries no tracing cost and
        ``trace_overhead_pct`` is 0 by construction.
        """
        before = self._stats()
        samples, wall = self._run_loop(seconds, submit_sequence(self.seed))
        after = self._stats()
        rec = Recorder()
        for kind, start, elapsed, size, _ok, _doc, _digest in samples:
            rec.record("service.submit", start, start + elapsed, kind=kind, bytes=size)
        self.loop.run_until_complete(self._health_floor(rec))
        self._account(samples)
        self.daemon.stop()
        rec.dump(os.path.join(spans_dir, "serve_mixed.json"))

        def latencies(name: str, kind: str = "") -> List[float]:
            return [
                span["end"] - span["start"] for span in rec.spans
                if span["name"] == name and span["attrs"].get("kind", "") == kind
            ] or [0.0]

        def delta(*keys: str) -> float:
            return float(sum(after.get(k, 0) - before.get(k, 0) for k in keys))

        submits = [span for span in rec.spans if span["name"] == "service.submit"]
        busy = sum(span["end"] - span["start"] for span in submits)
        return {
            "service.warm_p50_ms": percentile(latencies("service.submit", "warm"), 0.5) * 1e3,
            "service.warm_p99_ms": percentile(latencies("service.submit", "warm"), 0.99) * 1e3,
            "service.cold_p50_ms": percentile(latencies("service.submit", "cold"), 0.5) * 1e3,
            "service.http_floor_p50_ms": percentile(latencies("http.health"), 0.5) * 1e3,
            "service.response_bytes_mean": sum(s["attrs"]["bytes"] for s in submits) / len(submits),
            "service.tier_memo_n": delta("tier_memo"),
            "service.tier_disk_n": delta("tier_disk"),
            "service.tier_simulated_n": delta("tier_simulated"),
            "service.coalesced_n": delta("units_coalesced"),
            "service.rejected_n": delta("rejected_queue_full", "rejected_client_limit"),
            "service.errors_n": delta("errors"),
            "traced_wall_s": wall,
            "unattributed_s": CONNECTIONS * wall - busy,
            "trace_overhead_pct": 0.0,
        }
