"""Shared plumbing: the isolated sandbox, child processes and statistics."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Reference outputs the runs are checked against (see record_expected.py).
EXPECTED = os.path.join(HERE, "expected.json")

#: How often set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Everything a run writes lives under this directory of the checkout.
SANDBOX_PARENT = os.path.join(ROOT, ".perfbench-tmp")


class Sandbox:
    """Private temp dirs for the sweep cache, native build and daemon stores.

    Nothing the benchmark runs may read or write ``results/``, the
    checkout's default sweep cache or the user's native build cache: a
    developer's warm cache would turn a "cold" number warm. The sandbox
    points every cache the program knows about (and ``TMPDIR``) into a
    fresh directory that :meth:`close` removes.
    """

    def __init__(self) -> None:
        os.makedirs(SANDBOX_PARENT, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=SANDBOX_PARENT)
        self.tmp = self.fresh("tmp")

    def fresh(self, label: str) -> str:
        """A new empty directory inside the sandbox."""
        return tempfile.mkdtemp(prefix=label + "-", dir=self.root)

    def env(self, sweep_cache: str, native_cache: str) -> Dict[str, str]:
        """Environment for a child process of the program."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["READDUO_SWEEP_CACHE"] = sweep_cache
        env["READDUO_NATIVE_CACHE"] = native_cache
        env["TMPDIR"] = self.tmp
        return env

    def enter_process(self, sweep_cache: str, native_cache: str) -> None:
        """Point this process's caches into the sandbox (before importing repro)."""
        os.environ.update(
            READDUO_SWEEP_CACHE=sweep_cache,
            READDUO_NATIVE_CACHE=native_cache,
            TMPDIR=self.tmp,
        )
        tempfile.tempdir = None
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(SANDBOX_PARENT)
        except OSError:
            pass


class Child(NamedTuple):
    """One finished child process; times are ``time.monotonic()``."""

    code: int
    start: float
    end: float
    #: User plus system CPU time of the child and the children it waited for.
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def cpu_plan() -> Tuple[int, List[int]]:
    """``(measured_cpu, other_cpus)``: where the measured child runs, and the rest.

    The measured process gets a CPU of its own (the speed meter probes
    that one); the benchmark itself and anything else keep to the others.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1], cpus[:-1] or cpus


def run_child(
    argv: Sequence[str],
    env: Dict[str, str],
    cwd: str,
    timeout: float = 170.0,
    cpu: Optional[int] = None,
) -> Child:
    """Run one child to completion, pinned to ``cpu`` when one is given.

    The child is reaped with ``wait4`` so its own peak RSS and CPU time
    are known, not the totals over every child this process ever had.
    """
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(list(argv), env=env, cwd=cwd, stdout=out, stderr=err)
        try:
            if cpu is not None:
                os.sched_setaffinity(proc.pid, {cpu})
            _pid, status, usage = wait4(proc, timeout)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        end = time.monotonic()
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    os.remove(out_path)
    os.remove(err_path)
    return Child(
        os.waitstatus_to_exitcode(status), start, end,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout, stderr,
    )


def wait4(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` (killing it after ``timeout``); returns ``os.wait4``'s triple."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return pid, status, usage
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise TimeoutError(f"child {proc.args!r} exceeded {timeout:.0f}s")
        time.sleep(0.005)


def timed_native_build(sandbox: Sandbox, cpu: Optional[int] = None) -> Tuple[Child, str, Dict[str, int]]:
    """Import the CLI and build the native timeline in a fresh process.

    Returns ``(child, native_cache_dir, facts)``; the cache dir holds the
    built library for later processes of the run, and ``facts`` says
    whether it built (``native``) and how many artifacts ``run all``
    prints (``experiments``). Fails loudly when the child fails, since
    nothing after it can be trusted.
    """
    native = sandbox.fresh("native")
    child = run_child(
        [sys.executable, "-c",
         "import json, repro.cli; from repro.memsim.native import native_available; "
         "print(json.dumps({'native': int(native_available()), "
         "'experiments': len(repro.cli.EXPERIMENTS)}))"],
        sandbox.env(sandbox.fresh("sweep"), native),
        cwd=sandbox.fresh("work"),
        cpu=cpu,
    )
    if child.code != 0:
        raise RuntimeError("import/native build failed:\n" + child.stderr.decode(errors="replace"))
    return child, native, json.loads(child.stdout)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def context(seed: int, native: Optional[bool]) -> Dict[str, object]:
    """What every result is recorded with, so unlike runs are never compared."""
    import platform

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "native_timeline": native,
        "seed": seed,
    }
