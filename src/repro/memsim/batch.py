"""Batch simulation loop: the fast, bit-identical engine path.

This module is the performance half of the engine-flag pair described in
docs/PERFORMANCE.md. :func:`simulate_batch` replays the *same* discrete
event schedule as :class:`repro.memsim.engine.MemorySystemSim` — every
heap push, sequence number, RNG draw, and floating-point accumulation
happens in the identical order — but strips the per-event Python cost
that dominates the scalar engine:

* **Policy kernels.** Each policy supplies its read/write/scrub
  semantics as closures returning plain tuples (``policy.kernels()``,
  layout in :mod:`repro.memsim.policy`) instead of frozen dataclass
  decisions. The event engine's hooks are adapters over the same
  kernels, so there is one implementation of each scheme. Objects that
  implement only the hook protocol (wrappers, scripted test policies)
  are driven through their hooks, which is always semantically exact.
* **Precomputed drift tables.** Per-cell error probabilities come from
  the shared :class:`repro.core.sampler.SamplerTables` slope arrays; the
  bisect-based linear interpolation reproduces ``np.interp`` on the same
  grid bit-for-bit (property-tested in tests/test_batch_equivalence.py).
* **Batched telemetry.** Per-read histogram/tracer recording becomes a
  ring-buffered tuple append; histogram bucket counts are flushed with
  vectorized ``searchsorted``/``bincount`` at window boundaries and the
  running sums are kept in scalar accumulators so the exported contents
  are identical to the scalar engine's, addition order included.
* **Gathered fault state.** When fault injection is active the per-line
  fault states for the whole trace footprint are derived up front
  (:meth:`repro.faults.injector.FaultInjector.prefetch_lines`) instead
  of lazily inside the hot loop. Derivation is a pure function of
  ``(run_hash, bank, line)`` so the gather cannot change the schedule.

Because the replay is exact, results are *required* to be bit-for-bit
equal to the scalar oracle — including ``sim.events_scheduled`` and the
telemetry exports — and the engine flag that selects between them stays
outside :meth:`SimSpec.content_hash`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from ..ecc.regimes import CORRECTABLE_ERRORS, DETECTABLE_ERRORS
from ..faults.injector import FaultInjector
from ..obs import Telemetry
from ..traces.trace import OP_READ, Trace
from .config import DEFAULT_EPOCH_S, DEFAULT_MEMORY_CONFIG, MemoryConfig
from .policy import MODE_M, MODE_RM, MODE_STR, READ_MODES, Kernels, SchemePolicy
from .stats import RunStats

__all__ = ["simulate_batch", "last_fastpath", "TELEMETRY_FLUSH_WINDOW"]

#: Fastpath outcome of this process's most recent :func:`simulate_batch`
#: call — ``"speculated"`` / ``"fallback"`` / ``"no_native"`` — exposed
#: for run-provenance records (:func:`repro.memsim.engine.last_run_provenance`).
_LAST_FASTPATH: Optional[str] = None


def last_fastpath() -> Optional[str]:
    """Fastpath outcome of the most recent batch run in this process."""
    return _LAST_FASTPATH

# Event kinds — identical to the scalar engine so the heap entries (and
# therefore pop order on time ties, via the shared seq counter) match.
_EV_CORE = 0
_EV_BANK_DONE = 1
_EV_SCRUB = 2
_EV_CHANNEL_DONE = 3

_JOB_READ = 0
_JOB_WRITE = 1

#: Telemetry ring-buffer flush window (histogram bucket counts are
#: integers, so chunked flushing is exact; the float ``sum`` field is
#: accumulated per-append to preserve the scalar addition order).
TELEMETRY_FLUSH_WINDOW = 65536

_CORR = CORRECTABLE_ERRORS
_DET = DETECTABLE_ERRORS


class _Bank:
    __slots__ = (
        "read_q",
        "write_q",
        "busy_until",
        "job_kind",
        "job_start",
        "job_payload",
        "token",
        "waiters",
    )

    def __init__(self) -> None:
        self.read_q: deque = deque()
        self.write_q: deque = deque()
        self.busy_until = 0.0
        self.job_kind: Optional[int] = None
        self.job_start = 0.0
        self.job_payload = None
        self.token = 0
        self.waiters: deque = deque()


class _Core:
    __slots__ = ("ops", "lines", "gaps_ns", "pos", "finish_ns", "done")

    def __init__(self, ops, lines, gaps_ns) -> None:
        self.ops = ops
        self.lines = lines
        self.gaps_ns = gaps_ns
        self.pos = 0
        self.finish_ns = 0.0
        self.done = len(ops) == 0


# --------------------------------------------------------------------------
# Hook-protocol policies
# --------------------------------------------------------------------------


def _generic_kernels(policy: SchemePolicy) -> Kernels:
    """Kernels for an object that implements only the hook protocol."""
    mode_of = {mode: i for i, mode in enumerate(READ_MODES)}

    def on_read(line: int, now_s: float):
        d = policy.on_read(line, now_s)
        return (
            mode_of[d.mode],
            d.errors_seen,
            d.convert_to_write,
            d.silent_corruption,
            d.uncorrectable,
            d.flag_access,
        )

    def on_write(line: int, now_s: float):
        d = policy.on_write(line, now_s)
        return (d.cells_written, d.flag_update, d.latency_scale)

    def on_conversion_write(line: int, now_s: float):
        d = policy.on_conversion_write(line, now_s)
        return (d.cells_written, d.flag_update, d.latency_scale)

    def on_scrub(line: int, now_s: float):
        d = policy.on_scrub(line, now_s)
        return (d.metric, d.rewrite, d.cells_written, d.errors_seen)

    return on_read, on_write, on_conversion_write, on_scrub


# --------------------------------------------------------------------------
# Fault folding on decision tuples (transcribed from MemorySystemSim).
# --------------------------------------------------------------------------


def _fault_read_tuple(faults, fc, line, rt):
    hard, soft = faults.read_errors(line)
    extra = hard + soft
    if extra == 0:
        return rt
    fc.injected += extra
    mode, errors, convert, silent, uncorr, flag = rt
    if silent:
        fc.silent += 1
        return rt
    if uncorr:
        fc.detected_uncorrectable += 1
        return rt
    total = errors + extra
    if mode == MODE_RM:
        count = hard
    elif mode == MODE_M:
        count = total
    else:
        count = total
        if _CORR < count <= _DET:
            # R read reports uncorrectable; the M retry clears drift and
            # soft noise, hard errors remain.
            if hard <= _CORR:
                fc.corrected += 1
                return (MODE_RM, total, convert, False, False, flag)
            if hard <= _DET:
                fc.detected_uncorrectable += 1
                return (MODE_RM, total, convert, False, True, flag)
            fc.silent += 1
            return (MODE_RM, total, convert, True, False, flag)
    if count <= _CORR:
        fc.corrected += 1
        return (mode, total, convert, silent, uncorr, flag)
    if count <= _DET:
        fc.detected_uncorrectable += 1
        return (mode, total, convert, silent, True, flag)
    fc.silent += 1
    return (mode, total, convert, True, uncorr, flag)


def _fault_scrub_tuple(faults, fc, line, st, full_cells):
    hard, soft = faults.read_errors(line)
    extra = hard + soft
    if extra == 0:
        return st
    fc.injected += extra
    metric, rewrite, cells, errors = st
    total = errors + extra
    if not rewrite and total <= _DET:
        return (metric, True, full_cells, total)
    return (metric, rewrite, cells, total)


# --------------------------------------------------------------------------
# The batch run
# --------------------------------------------------------------------------


def simulate_batch(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig = DEFAULT_MEMORY_CONFIG,
    epoch_s: float = DEFAULT_EPOCH_S,
    telemetry: Optional[Telemetry] = None,
    faults: Optional[FaultInjector] = None,
) -> RunStats:
    """Run one simulation on the batch kernel; bit-identical to the oracle."""
    global _LAST_FASTPATH
    faults = faults if (faults is not None and faults.spec.enabled) else None
    if faults is None:
        # Speculative two-pass engine (C timeline + vectorized sampling);
        # returns None when ineligible or when a sampling outcome would
        # have changed the timeline — then the exact-replay loop below
        # produces the identical result, just slower.
        from . import fastpath

        result = fastpath.try_simulate_speculative(
            trace, policy, config, epoch_s, telemetry
        )
        # Provenance only — never a metrics counter here: engine-level
        # telemetry must stay bit-identical to the event oracle's, and
        # the oracle never speculates. The execution layer counts
        # ``fastpath.*`` per simulated run unit from this provenance.
        _LAST_FASTPATH = fastpath.last_attempt()[0]
        if result is not None:
            return result
    else:
        # Fault injection replays every decision exactly; speculation is
        # never attempted, and the ledger records the reason.
        from . import fastpath

        fastpath._miss("faults")
        _LAST_FASTPATH = "fallback"
    if telemetry is not None and telemetry.enabled:
        tele: Optional[Telemetry] = telemetry
        tracer = telemetry.tracer
        tracer = tracer if (tracer is not None and tracer.enabled) else None
    else:
        tele = None
        tracer = None

    stats = RunStats(scheme=policy.name, workload=trace.name)
    stats.energy.params = config.energy
    stats.wear.cells_per_line = config.cells_per_line_write

    kernels = getattr(policy, "kernels", None)
    on_read_k, on_write_k, on_conv_k, on_scrub_k = (
        kernels() if kernels is not None else _generic_kernels(policy)
    )

    timing = config.timing
    cycle_ns = timing.cycle_ns
    lat_by_mode = (timing.r_read_ns, timing.m_read_ns, timing.rm_read_ns)
    write_ns = timing.write_ns
    bus_ns = timing.bus_ns
    r_read_ns = timing.r_read_ns
    m_read_ns = timing.m_read_ns
    num_banks = config.num_banks
    write_queue_depth = config.write_queue_depth
    cancel_threshold = config.cancel_threshold
    full_cells = config.cells_per_line_write
    lines_per_scrub_op = config.lines_per_scrub_op
    total_lines = config.total_lines
    scrub_blocks_channel = config.scrub_blocks_channel
    scrub_backlog_cap = config.scrub_backlog_cap

    energy = stats.energy
    eparams = config.energy
    data_bits = energy.data_bits
    pj_read_by_mode = (
        eparams.read_energy_pj("R", data_bits),
        eparams.read_energy_pj("M", data_bits),
        eparams.read_energy_pj("RM", data_bits),
    )
    pj_scrub_read = {
        "R": eparams.read_energy_pj("R", data_bits),
        "M": eparams.read_energy_pj("M", data_bits),
    }
    pj_per_cell = eparams.write_pj_per_cell
    pj_flag_read = eparams.flag_read_pj + 0.0
    pj_flag_rw = eparams.flag_read_pj + eparams.flag_write_pj
    by_cat = energy.by_category
    by_cat_get = by_cat.get
    wear_add = stats.wear.add_cells
    fc = stats.fault_counters

    banks = [_Bank() for _ in range(num_banks)]
    heap: List[Tuple[float, int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0

    cores: List[_Core] = []
    per_core = trace.per_core_indices()
    for c in range(config.num_cores):
        idx = per_core.get(c)
        if idx is None or len(idx) == 0:
            cores.append(_Core([], [], []))
        else:
            gaps_ns = [g * cycle_ns for g in trace.gap[idx].tolist()]
            cores.append(
                _Core(trace.op[idx].tolist(), trace.line[idx].tolist(), gaps_ns)
            )
    active_cores = sum(0 if c.done else 1 for c in cores)

    if faults is not None:
        faults.prefetch_lines(trace.line)
        faults_record_write = faults.record_write

    interval = policy.scrub_interval_s
    if interval is not None and interval > 0:
        ops_per_sweep = total_lines / lines_per_scrub_op
        scrub_tick_ns: Optional[float] = interval * 1e9 / ops_per_sweep
        scrub_pointer = total_lines // 2
    else:
        scrub_tick_ns = None
        scrub_pointer = 0

    # Channel state.
    chan_busy_until = 0.0
    chan_token = 0
    chan_active = False
    chan_demand_q: deque = deque()
    chan_scrub_q: deque = deque()
    chan_last_was_scrub = False

    # Local accumulators mirroring RunStats counters (flushed at the end;
    # addition order per accumulator matches the scalar engine's).
    n_reads = 0
    n_writes = 0
    n_conversions = 0
    n_silent = 0
    n_uncorrectable = 0
    n_scrub_ops = 0
    n_scrub_rewrites = 0
    n_scrubs_skipped = 0
    n_cancelled = 0
    total_read_latency = 0.0
    reads_by_mode = stats.reads_by_mode

    # Telemetry ring buffers.
    tele_on = tele is not None
    lat_hist = stats.read_latency_hist
    depth_hist = stats.queue_depth_hist
    lat_buf: List[float] = []
    depth_buf: List[float] = []
    lat_sum = 0.0
    depth_sum = 0.0
    trc: List[tuple] = []

    def _flush_hist(hist, buf) -> None:
        if not buf:
            return
        edges = np.asarray(hist.boundaries)
        idx = np.searchsorted(edges, np.asarray(buf), side="left")
        for bucket, count in zip(*np.unique(idx, return_counts=True)):
            hist.counts[int(bucket)] += int(count)
        hist.count += len(buf)
        buf.clear()

    epoch = epoch_s

    # ------------------------------------------------------------ helpers

    def push(time_ns: float, kind: int, a: int = 0, b: int = 0) -> None:
        nonlocal seq
        seq += 1
        heappush(heap, (time_ns, seq, kind, a, b))

    def advance_core(core_id: int, now: float) -> None:
        nonlocal active_cores, seq
        core = cores[core_id]
        core.pos += 1
        if core.finish_ns < now:
            core.finish_ns = now
        if core.pos >= len(core.ops):
            if not core.done:
                core.done = True
                active_cores -= 1
            return
        seq += 1
        heappush(heap, (now + core.gaps_ns[core.pos], seq, _EV_CORE, core_id, 0))

    def complete_write(payload) -> None:
        cause, _line, wt = payload
        cat = "conversion" if cause == "conversion" else "write"
        cells = wt[0]
        by_cat[cat] = by_cat_get(cat, 0.0) + pj_per_cell * cells
        wear_add("conversion" if cause == "conversion" else "demand", cells)

    def account_scrub(st) -> None:
        nonlocal n_scrub_ops, n_scrub_rewrites
        metric, rewrite, cells, _errors = st
        by_cat["scrub_read"] = by_cat_get("scrub_read", 0.0) + pj_scrub_read[metric]
        if rewrite:
            by_cat["scrub_write"] = by_cat_get("scrub_write", 0.0) + pj_per_cell * cells
            wear_add("scrub", cells)
            n_scrub_rewrites += 1
        n_scrub_ops += 1

    def issue_write(bank: _Bank, bank_id: int, core_id: int, line: int, now: float):
        nonlocal n_writes
        wt = on_write_k(line, epoch + now * 1e-9)
        if faults is not None:
            faults_record_write(line)
        bank.write_q.append(("demand", line, wt))
        if wt[1]:  # flag_update
            by_cat["flags"] = by_cat_get("flags", 0.0) + pj_flag_rw
        n_writes += 1
        advance_core(core_id, now)
        try_start_bank(bank, bank_id, now)

    def try_start_bank(bank: _Bank, bank_id: int, now: float) -> None:
        nonlocal seq
        if bank.busy_until > now or bank.job_kind is not None:
            return
        if bank.read_q:
            if tele_on:
                core_id, line, enq, depth = bank.read_q.popleft()
                rt = on_read_k(line, epoch + now * 1e-9)
                if faults is not None:
                    rt = _fault_read_tuple(faults, fc, line, rt)
                payload = (core_id, line, enq, rt, now, depth)
            else:
                core_id, line, enq = bank.read_q.popleft()
                rt = on_read_k(line, epoch + now * 1e-9)
                if faults is not None:
                    rt = _fault_read_tuple(faults, fc, line, rt)
                payload = (core_id, line, enq, rt)
            bank.job_kind = _JOB_READ
            bank.job_start = now
            bank.job_payload = payload
            bank.busy_until = now + lat_by_mode[rt[0]]
            bank.token += 1
            seq += 1
            heappush(
                heap, (bank.busy_until, seq, _EV_BANK_DONE, bank_id, bank.token)
            )
            return
        if bank.write_q:
            payload = bank.write_q.popleft()
            # Release one waiter now that a write-queue slot freed.
            if bank.waiters and len(bank.write_q) < write_queue_depth:
                waiter = bank.waiters.popleft()
                wcore = cores[waiter]
                issue_write(bank, bank_id, waiter, wcore.lines[wcore.pos], now)
            latency = write_ns * payload[2][2]
            bank.job_kind = _JOB_WRITE
            bank.job_start = now
            bank.job_payload = payload
            bank.busy_until = now + latency
            bank.token += 1
            seq += 1
            heappush(
                heap, (bank.busy_until, seq, _EV_BANK_DONE, bank_id, bank.token)
            )

    def try_start_channel(now: float) -> None:
        nonlocal chan_active, chan_token, chan_busy_until, chan_last_was_scrub, seq
        if chan_active or chan_busy_until > now:
            return
        demand = bool(chan_demand_q)
        scrub = bool(chan_scrub_q)
        if not demand and not scrub:
            return
        take_scrub = scrub and (not demand or not chan_last_was_scrub)
        chan_last_was_scrub = take_scrub
        chan_active = True
        chan_token += 1
        if take_scrub:
            duration, _ = chan_scrub_q[0]
            chan_busy_until = now + duration
        else:
            chan_busy_until = now + bus_ns
        seq += 1
        heappush(heap, (chan_busy_until, seq, _EV_CHANNEL_DONE, chan_token, 0))

    # ---------------------------------------------------------- event loop

    for c, core in enumerate(cores):
        if not core.done:
            push(core.gaps_ns[0], _EV_CORE, c)
    if scrub_tick_ns is not None:
        push(scrub_tick_ns, _EV_SCRUB)

    while heap and active_cores > 0:
        now, _, kind, a, b = heappop(heap)
        if kind == _EV_CORE:
            core = cores[a]
            pos = core.pos
            line = core.lines[pos]
            bank_id = line % num_banks
            bank = banks[bank_id]
            if core.ops[pos] == OP_READ:
                # -------- enqueue_read (write cancellation + queue entry)
                if bank.job_kind == _JOB_WRITE and bank.busy_until > now and write_ns > 0:
                    payload = bank.job_payload
                    write_latency = write_ns * payload[2][2]
                    progress = 1.0 - (bank.busy_until - now) / write_latency
                    if progress < cancel_threshold:
                        bank.write_q.appendleft(payload)
                        bank.token += 1
                        bank.busy_until = now
                        bank.job_kind = None
                        bank.job_payload = None
                        n_cancelled += 1
                        wasted = payload[2][0] * max(progress, 0.0)
                        by_cat["write"] = by_cat_get("write", 0.0) + pj_per_cell * int(
                            wasted
                        )
                        if tracer is not None:
                            trc.append(
                                (2, bank_id, payload[1], max(progress, 0.0), now)
                            )
                if tele_on:
                    depth = len(bank.read_q)
                    depth_buf.append(depth)
                    depth_sum += depth
                    if len(depth_buf) >= TELEMETRY_FLUSH_WINDOW:
                        _flush_hist(depth_hist, depth_buf)
                    bank.read_q.append((a, line, now, depth))
                else:
                    bank.read_q.append((a, line, now))
                try_start_bank(bank, bank_id, now)
            else:
                if len(bank.write_q) >= write_queue_depth:
                    bank.waiters.append(a)
                else:
                    issue_write(bank, bank_id, a, line, now)
        elif kind == _EV_BANK_DONE:
            bank = banks[a]
            if b != bank.token or bank.job_kind is None:
                continue
            jkind, payload = bank.job_kind, bank.job_payload
            bank.job_kind = None
            bank.job_payload = None
            if jkind == _JOB_READ:
                chan_demand_q.append(payload)
                try_start_channel(now)
            else:
                complete_write(payload)
                if tracer is not None:
                    trc.append((1, payload[0], a, payload[1], bank.job_start, now))
            try_start_bank(bank, a, now)
        elif kind == _EV_CHANNEL_DONE:
            if a != chan_token or not chan_active:
                continue
            chan_active = False
            if chan_last_was_scrub:
                _, decisions = chan_scrub_q.popleft()
                for st in decisions:
                    account_scrub(st)
            else:
                payload = chan_demand_q.popleft()
                # ---------------------------------------- complete_read
                if tele_on:
                    core_id, line, enq, rt, start_ns, depth = payload
                else:
                    core_id, line, enq, rt = payload
                mode, errors, convert, silent, uncorr, flag = rt
                n_reads += 1
                mode_str = MODE_STR[mode]
                reads_by_mode[mode_str] = reads_by_mode.get(mode_str, 0) + 1
                latency = now - enq
                total_read_latency += latency
                by_cat["read"] = by_cat_get("read", 0.0) + pj_read_by_mode[mode]
                if tele_on:
                    lat_buf.append(latency)
                    lat_sum += latency
                    if len(lat_buf) >= TELEMETRY_FLUSH_WINDOW:
                        _flush_hist(lat_hist, lat_buf)
                    if tracer is not None:
                        trc.append(
                            (0, core_id, line, mode_str, depth, enq, start_ns, now)
                        )
                if flag:
                    by_cat["flags"] = by_cat_get("flags", 0.0) + pj_flag_read
                if silent:
                    n_silent += 1
                if uncorr:
                    n_uncorrectable += 1
                if convert:
                    wt = on_conv_k(line, epoch + now * 1e-9)
                    if faults is not None:
                        faults_record_write(line)
                    bank_id = line % num_banks
                    bank = banks[bank_id]
                    bank.write_q.append(("conversion", line, wt))
                    n_conversions += 1
                    try_start_bank(bank, bank_id, now)
                advance_core(core_id, now)
            try_start_channel(now)
        else:  # _EV_SCRUB
            now_s = epoch + now * 1e-9
            decisions = []
            duration = 0.0
            sense_metric = None
            for _i in range(lines_per_scrub_op):
                line = scrub_pointer
                scrub_pointer = (scrub_pointer + 1) % total_lines
                st = on_scrub_k(line, now_s)
                if faults is not None:
                    st = _fault_scrub_tuple(faults, fc, line, st, full_cells)
                    if st[1]:
                        faults_record_write(line)
                decisions.append(st)
                if st[1]:
                    duration += write_ns
                sense_metric = st[0]
            duration += r_read_ns if sense_metric == "R" else m_read_ns
            skipped = False
            if scrub_blocks_channel:
                if len(chan_scrub_q) >= scrub_backlog_cap:
                    n_scrubs_skipped += len(decisions)
                    skipped = True
                else:
                    chan_scrub_q.append((duration, decisions))
                    try_start_channel(now)
            else:
                for st in decisions:
                    account_scrub(st)
            if tracer is not None:
                trc.append(
                    (
                        3,
                        now,
                        len(decisions),
                        sum(1 for st in decisions if st[1]),
                        duration,
                        skipped,
                    )
                )
            push(now + scrub_tick_ns, _EV_SCRUB)

    # ------------------------------------------------------------- finish

    for bank in banks:
        if bank.job_kind == _JOB_WRITE and bank.job_payload is not None:
            complete_write(bank.job_payload)
            bank.job_kind = None
        for payload in bank.write_q:
            complete_write(payload)
        bank.write_q.clear()

    stats.reads = n_reads
    stats.writes = n_writes
    stats.conversions = n_conversions
    stats.silent_corruptions = n_silent
    stats.uncorrectable_reads = n_uncorrectable
    stats.scrub_ops = n_scrub_ops
    stats.scrub_rewrites = n_scrub_rewrites
    stats.scrubs_skipped = n_scrubs_skipped
    stats.cancelled_writes = n_cancelled
    stats.total_read_latency_ns = total_read_latency
    stats.execution_time_ns = max((c.finish_ns for c in cores), default=0.0)
    stats.instructions = int(trace.gap.sum()) + len(trace)

    if tele_on:
        _flush_hist(lat_hist, lat_buf)
        _flush_hist(depth_hist, depth_buf)
        lat_hist.sum += lat_sum
        depth_hist.sum += depth_sum
        if tracer is not None:
            _materialize_trace(tracer, trc, num_banks)
        if tele.metrics is not None:
            _snapshot_metrics(
                tele.metrics, stats, seq, tracer, faults
            )
    return stats


def _materialize_trace(tracer, trc: List[tuple], num_banks: int) -> None:
    """Expand the compact event tuples into the tracer's dict records.

    Honors the tracer's ``max_events`` cap exactly as per-event ``emit``
    calls would (records beyond the cap are counted as dropped).
    """
    records = tracer.records
    max_events = tracer.max_events
    for t in trc:
        if len(records) >= max_events:
            tracer.dropped += 1
            continue
        kind = t[0]
        if kind == 0:
            records.append({
                "kind": "read",
                "core": t[1],
                "bank": t[2] % num_banks,
                "line": t[2],
                "mode": t[3],
                "queue_depth": t[4],
                "issue_ns": t[5],
                "start_ns": t[6],
                "complete_ns": t[7],
            })
        elif kind == 1:
            records.append({
                "kind": "write",
                "cause": t[1],
                "bank": t[2],
                "line": t[3],
                "start_ns": t[4],
                "complete_ns": t[5],
            })
        elif kind == 2:
            records.append({
                "kind": "write_cancel",
                "bank": t[1],
                "line": t[2],
                "progress": t[3],
                "time_ns": t[4],
            })
        else:
            records.append({
                "kind": "scrub",
                "time_ns": t[1],
                "lines": t[2],
                "rewrites": t[3],
                "duration_ns": t[4],
                "skipped": t[5],
            })


def _snapshot_metrics(registry, stats: RunStats, seq: int, tracer, faults) -> None:
    """Publish run totals into the registry (mirrors the scalar engine)."""
    for name, value in (
        ("sim.reads", stats.reads),
        ("sim.writes", stats.writes),
        ("sim.conversions", stats.conversions),
        ("sim.cancelled_writes", stats.cancelled_writes),
        ("sim.silent_corruptions", stats.silent_corruptions),
        ("sim.uncorrectable_reads", stats.uncorrectable_reads),
        ("sim.scrub.ops", stats.scrub_ops),
        ("sim.scrub.rewrites", stats.scrub_rewrites),
        ("sim.scrub.skipped", stats.scrubs_skipped),
    ):
        registry.counter(name).inc(value)
    for mode, count in sorted(stats.reads_by_mode.items()):
        registry.counter(f"sim.reads.mode.{mode}").inc(count)
    registry.gauge("sim.execution_time_ns").set(stats.execution_time_ns)
    registry.gauge("sim.events_scheduled").set(seq)
    if tracer is not None:
        # len(tracer) counts deferred fast-path batches without
        # materializing their dict records.
        registry.counter("trace.records").inc(len(tracer))
        registry.counter("trace.dropped").inc(tracer.dropped)
    registry.adopt_histogram("sim.read_latency_ns", stats.read_latency_hist)
    registry.adopt_histogram("sim.queue_depth", stats.queue_depth_hist)
    if faults is not None:
        fc = stats.fault_counters
        for name, value in (
            ("sim.faults.injected", fc.injected),
            ("sim.faults.corrected", fc.corrected),
            ("sim.faults.detected_uncorrectable", fc.detected_uncorrectable),
            ("sim.faults.silent", fc.silent),
        ):
            registry.counter(name).inc(value)
        registry.gauge("sim.faults.lines_touched").set(faults.lines_touched)
