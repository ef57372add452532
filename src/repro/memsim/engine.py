"""Event-driven memory-system simulator.

Models the paper's evaluation platform (Section IV): four in-order cores
over one MLC PCM rank with per-bank queues, read-priority scheduling,
write cancellation [18], a shared rank channel, and a bridge-chip scrub
engine that sweeps every line once per scrub interval. All
drift-dependent behaviour is delegated to the installed
:class:`SchemePolicy`.

Modeling notes (full rationale in DESIGN.md):

* Cores block on reads (in-order pipeline) and execute one instruction per
  cycle between memory operations; writes retire into per-bank write
  buffers and only block when a buffer is full.
* Bank service priority: demand reads > forced write drains (buffer above
  watermark) > opportunistic write drains.
* A demand write in service is cancelled when a read arrives and the
  write's progress is below ``cancel_threshold``; the write restarts later
  and its spent energy is charged as waste.
* The scrub engine lives in the bridge chip (paper Fig. 7): each scrub
  operation senses ``lines_per_scrub_op`` adjacent lines, streams them
  through the bridge's BCH logic, and rewrites drifted lines — occupying
  the shared rank channel for the whole operation. Demand read transfers
  share that channel; arbitration is round-robin between demand and scrub
  so neither starves. This channel contention is what makes short-interval
  scrubbing expensive ("busy memory banks" in the paper's terms) while
  leaving bank-level parallelism to demand traffic.
* Read-after-write forwarding from write buffers is not modeled (it
  affects all schemes identically).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple

from ..ecc.regimes import ErrorRegime, classify_error_count
from ..faults.injector import FaultInjector
from ..obs import Telemetry
from ..traces.trace import OP_READ, Trace
from .config import DEFAULT_EPOCH_S, DEFAULT_MEMORY_CONFIG, MemoryConfig
from .policy import ReadDecision, ReadMode, SchemePolicy
from .stats import RunStats

__all__ = ["ENGINES", "MemorySystemSim", "simulate", "last_run_provenance"]

# Event kinds (heap entries are (time_ns, seq, kind, a, b)).
_EV_CORE = 0  # a = core id
_EV_BANK_DONE = 1  # a = bank id, b = token
_EV_SCRUB = 2  # scrub engine tick
_EV_CHANNEL_DONE = 3  # a = channel token

# Bank job kinds.
_JOB_READ = 0
_JOB_WRITE = 1


class _Bank:
    """Mutable per-bank state."""

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
        self.read_q: Deque = deque()
        self.write_q: Deque = deque()
        self.busy_until = 0.0
        self.job_kind: Optional[int] = None
        self.job_start = 0.0
        self.job_payload = None
        self.token = 0
        self.waiters: Deque[int] = deque()  # cores blocked on a full write_q


class _Core:
    """Mutable per-core replay state.

    Holds plain Python lists (``ops``/``lines``) and a pre-scaled
    ``gaps_ns`` list: scalar indexing into numpy arrays dominates the
    event loop otherwise, and converting each gap to nanoseconds once up
    front removes a multiply from every core event.
    """

    __slots__ = ("ops", "lines", "gaps_ns", "pos", "finish_ns", "done")

    def __init__(self, ops, lines, gaps_ns) -> None:
        self.ops = ops
        self.lines = lines
        self.gaps_ns = gaps_ns
        self.pos = 0
        self.finish_ns = 0.0
        self.done = len(ops) == 0


class MemorySystemSim:
    """One simulation run binding a trace to a scheme policy.

    Args:
        trace: Memory-request trace (all schemes should share one trace
            for a fair comparison).
        policy: Drift-mitigation scheme under test.
        config: Platform parameters.
        epoch_s: Absolute time of simulation start; chosen large so lines
            can carry steady-state ages that predate the run.
        telemetry: Optional :class:`~repro.obs.Telemetry` bundle. When
            ``None`` (or fully null) the run is bit-identical to an
            uninstrumented one and the event loop pays only a handful of
            ``is None`` checks; when live, the engine records per-request
            trace events, fills the :class:`RunStats` latency/queue-depth
            histograms, and snapshots run counters into the registry.
            Telemetry never changes simulated behaviour — only observes.
        faults: Optional :class:`~repro.faults.FaultInjector`. When
            present, its hard (stuck / write-residue) and soft (read
            noise) bit errors are added to each read's drift errors
            *before* the read outcome — and therefore its latency mode —
            is fixed, and every write is reported back so write-failure
            residue tracks the line's rewrite history. When ``None``
            (the default) the read path is byte-identical to a tree
            without fault injection.
    """

    def __init__(
        self,
        trace: Trace,
        policy: SchemePolicy,
        config: MemoryConfig = DEFAULT_MEMORY_CONFIG,
        epoch_s: float = DEFAULT_EPOCH_S,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.trace = trace
        self.policy = policy
        self.config = config
        self.epoch_s = epoch_s
        self._faults = faults if (faults is not None and faults.spec.enabled) else None
        # Resolved once: self._tele is None unless something is live, so
        # hot-path guards are a single attribute test.
        if telemetry is not None and telemetry.enabled:
            self._tele: Optional[Telemetry] = telemetry
            tracer = telemetry.tracer
            self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        else:
            self._tele = None
            self._tracer = None
        self.stats = RunStats(scheme=policy.name, workload=trace.name)
        self.stats.energy.params = config.energy
        self.stats.wear.cells_per_line = config.cells_per_line_write

        self._heap: List[Tuple[float, int, int, int, int]] = []
        self._seq = 0
        self._banks = [_Bank() for _ in range(config.num_banks)]
        self._cycle_ns = config.timing.cycle_ns

        # Hot-path constants, hoisted so the event loop never re-derives
        # them per request (attribute chains and dict construction are
        # measurable at millions of events per run).
        timing = config.timing
        self._read_latency_ns = {
            ReadMode.R: timing.r_read_ns,
            ReadMode.M: timing.m_read_ns,
            ReadMode.RM: timing.rm_read_ns,
        }
        self._write_ns = timing.write_ns
        self._bus_ns = timing.bus_ns
        self._num_banks = config.num_banks
        self._write_queue_depth = config.write_queue_depth
        self._cancel_threshold = config.cancel_threshold

        # Shared rank channel: demand read transfers vs scrub operations.
        self._chan_busy_until = 0.0
        self._chan_token = 0
        self._chan_active = False
        self._chan_demand_q: Deque = deque()  # (core_id, payload)
        self._chan_scrub_q: Deque = deque()  # (duration_ns, stats fn args)
        self._chan_last_was_scrub = False

        self._cores: List[_Core] = []
        per_core = trace.per_core_indices()
        cycle_ns = self._cycle_ns
        for c in range(config.num_cores):
            idx = per_core.get(c)
            if idx is None or len(idx) == 0:
                self._cores.append(_Core([], [], []))
            else:
                gaps_ns = [g * cycle_ns for g in trace.gap[idx].tolist()]
                self._cores.append(
                    _Core(trace.op[idx].tolist(), trace.line[idx].tolist(), gaps_ns)
                )
        self._active_cores = sum(0 if c.done else 1 for c in self._cores)

        # Scrub engine: one operation covers `lines_per_scrub_op` lines.
        interval = policy.scrub_interval_s
        if interval is not None and interval > 0:
            ops_per_sweep = config.total_lines / config.lines_per_scrub_op
            self._scrub_tick_ns = interval * 1e9 / ops_per_sweep
            # Start the sweep far from address 0, where workload footprints
            # live, so the pointer does not immediately collide with the
            # hot working set (matches the policies' scrub-phase model).
            self._scrub_pointer = config.total_lines // 2
        else:
            self._scrub_tick_ns = None
            self._scrub_pointer = 0

    # ------------------------------------------------------------------ heap

    def _push(self, time_ns: float, kind: int, a: int = 0, b: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ns, self._seq, kind, a, b))

    def _now_s(self, now_ns: float) -> float:
        return self.epoch_s + now_ns * 1e-9

    # ------------------------------------------------------------------- run

    def run(self) -> RunStats:
        """Replay the trace to completion and return the statistics."""
        for c, core in enumerate(self._cores):
            if not core.done:
                self._push(core.gaps_ns[0], _EV_CORE, c)
        if self._scrub_tick_ns is not None:
            self._push(self._scrub_tick_ns, _EV_SCRUB)

        # Bind the loop's invariants to locals; at millions of events per
        # run the attribute lookups alone are a measurable cost.
        heap = self._heap
        heappop = heapq.heappop
        handle_core = self._handle_core
        handle_bank_done = self._handle_bank_done
        handle_channel_done = self._handle_channel_done
        handle_scrub_tick = self._handle_scrub_tick
        while heap and self._active_cores > 0:
            time_ns, _, kind, a, b = heappop(heap)
            if kind == _EV_CORE:
                handle_core(a, time_ns)
            elif kind == _EV_BANK_DONE:
                handle_bank_done(a, b, time_ns)
            elif kind == _EV_CHANNEL_DONE:
                handle_channel_done(a, time_ns)
            else:
                handle_scrub_tick(time_ns)

        self._flush_pending_writes()
        self.stats.execution_time_ns = max(
            (c.finish_ns for c in self._cores), default=0.0
        )
        self.stats.instructions = int(self.trace.gap.sum()) + len(self.trace)
        if self._tele is not None and self._tele.metrics is not None:
            self._snapshot_metrics(self._tele.metrics)
        return self.stats

    def _snapshot_metrics(self, registry) -> None:
        """Publish the finished run's totals into the metrics registry.

        Counters mirror :class:`RunStats` fields (see
        docs/OBSERVABILITY.md for the name schema); the latency and
        queue-depth histograms are adopted as-is so the dump shares the
        exact objects the stats expose.
        """
        stats = self.stats
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
        registry.gauge("sim.events_scheduled").set(self._seq)
        if self._tracer is not None:
            registry.counter("trace.records").inc(len(self._tracer.records))
            registry.counter("trace.dropped").inc(self._tracer.dropped)
        registry.adopt_histogram("sim.read_latency_ns", stats.read_latency_hist)
        registry.adopt_histogram("sim.queue_depth", stats.queue_depth_hist)
        if self._faults is not None:
            fc = stats.fault_counters
            for name, value in (
                ("sim.faults.injected", fc.injected),
                ("sim.faults.corrected", fc.corrected),
                ("sim.faults.detected_uncorrectable", fc.detected_uncorrectable),
                ("sim.faults.silent", fc.silent),
            ):
                registry.counter(name).inc(value)
            registry.gauge("sim.faults.lines_touched").set(
                self._faults.lines_touched
            )

    # ----------------------------------------------------------------- cores

    def _handle_core(self, core_id: int, now: float) -> None:
        """The core issues its current request at ``now``."""
        core = self._cores[core_id]
        op = core.ops[core.pos]
        line = core.lines[core.pos]
        bank_id = line % self._num_banks
        bank = self._banks[bank_id]
        if op == OP_READ:
            self._enqueue_read(bank, bank_id, core_id, line, now)
            # Core blocks; read completion schedules the next issue.
        else:
            if len(bank.write_q) >= self._write_queue_depth:
                bank.waiters.append(core_id)  # retried when a slot frees
            else:
                self._issue_write(bank, bank_id, core_id, line, now)

    def _issue_write(
        self, bank: _Bank, bank_id: int, core_id: int, line: int, now: float
    ) -> None:
        """Apply a demand write in program order and retire the core op."""
        decision = self.policy.on_write(line, self._now_s(now))
        if self._faults is not None:
            self._faults.record_write(line)
        bank.write_q.append(("demand", line, decision))
        if decision.flag_update:
            self.stats.energy.add_flag_access(writes=True)
        self.stats.writes += 1
        self._advance_core(core_id, now)
        self._try_start_bank(bank, bank_id, now)

    def _advance_core(self, core_id: int, now: float) -> None:
        """Move to the core's next request or mark the core finished."""
        core = self._cores[core_id]
        core.pos += 1
        core.finish_ns = max(core.finish_ns, now)
        if core.pos >= len(core.ops):
            if not core.done:
                core.done = True
                self._active_cores -= 1
            return
        self._push(now + core.gaps_ns[core.pos], _EV_CORE, core_id)

    # ----------------------------------------------------------------- banks

    def _enqueue_read(
        self, bank: _Bank, bank_id: int, core_id: int, line: int, now: float
    ) -> None:
        # Write cancellation: a read may cancel an in-flight demand write.
        if (
            bank.job_kind == _JOB_WRITE
            and bank.busy_until > now
            and self._write_ns > 0
        ):
            write_latency = self._write_ns * bank.job_payload[2].latency_scale
            progress = 1.0 - (bank.busy_until - now) / write_latency
            if progress < self._cancel_threshold:
                payload = bank.job_payload
                bank.write_q.appendleft(payload)
                bank.token += 1  # invalidate the stale completion event
                bank.busy_until = now
                bank.job_kind = None
                bank.job_payload = None
                self.stats.cancelled_writes += 1
                # Spent program energy is wasted and restarts from scratch.
                decision = payload[2]
                wasted = decision.cells_written * max(progress, 0.0)
                self.stats.energy.add_write(int(wasted), category="write")
                if self._tracer is not None:
                    self._tracer.emit({
                        "kind": "write_cancel",
                        "bank": bank_id,
                        "line": payload[1],
                        "progress": max(progress, 0.0),
                        "time_ns": now,
                    })
        if self._tele is None:
            bank.read_q.append((core_id, line, now))
        else:
            depth = len(bank.read_q)
            self.stats.queue_depth_hist.record(depth)
            bank.read_q.append((core_id, line, now, depth))
        self._try_start_bank(bank, bank_id, now)

    def _try_start_bank(self, bank: _Bank, bank_id: int, now: float) -> None:
        """Start the highest-priority pending job if the bank is idle."""
        if bank.busy_until > now or bank.job_kind is not None:
            return
        if bank.read_q:
            if self._tele is None:
                core_id, line, enq = bank.read_q.popleft()
                decision = self.policy.on_read(line, self._now_s(now))
                if self._faults is not None:
                    decision = self._fault_read(line, decision)
                payload = (core_id, line, enq, decision)
            else:
                # Telemetry payloads also carry the service start time and
                # the queue depth observed at issue.
                core_id, line, enq, depth = bank.read_q.popleft()
                decision = self.policy.on_read(line, self._now_s(now))
                if self._faults is not None:
                    decision = self._fault_read(line, decision)
                payload = (core_id, line, enq, decision, now, depth)
            latency = self._read_latency_ns[decision.mode]
            self._start_bank_job(bank, bank_id, _JOB_READ, payload, now, latency)
            return
        if bank.write_q:
            payload = bank.write_q.popleft()
            self._release_waiter(bank, bank_id, now)
            # Write truncation [11]: the policy may scale the P&V latency.
            latency = self._write_ns * payload[2].latency_scale
            self._start_bank_job(bank, bank_id, _JOB_WRITE, payload, now, latency)

    def _start_bank_job(
        self, bank: _Bank, bank_id: int, kind: int, payload, now: float, latency: float
    ) -> None:
        bank.job_kind = kind
        bank.job_start = now
        bank.job_payload = payload
        bank.busy_until = now + latency
        bank.token += 1
        self._push(bank.busy_until, _EV_BANK_DONE, bank_id, bank.token)

    def _release_waiter(self, bank: _Bank, bank_id: int, now: float) -> None:
        """A write-queue slot freed; let one blocked core proceed."""
        if bank.waiters and len(bank.write_q) < self._write_queue_depth:
            core_id = bank.waiters.popleft()
            core = self._cores[core_id]
            line = core.lines[core.pos]
            self._issue_write(bank, bank_id, core_id, line, now)

    def _handle_bank_done(self, bank_id: int, token: int, now: float) -> None:
        bank = self._banks[bank_id]
        if token != bank.token or bank.job_kind is None:
            return  # stale completion from a cancelled job
        kind, payload = bank.job_kind, bank.job_payload
        bank.job_kind = None
        bank.job_payload = None
        if kind == _JOB_READ:
            self._finish_read_sensing(bank, payload, now)
        else:
            self._complete_write(payload)
            if self._tracer is not None:
                self._tracer.emit({
                    "kind": "write",
                    "cause": payload[0],
                    "bank": bank_id,
                    "line": payload[1],
                    "start_ns": bank.job_start,
                    "complete_ns": now,
                })
        self._try_start_bank(bank, bank_id, now)

    # --------------------------------------------------------------- channel

    def _finish_read_sensing(self, bank: _Bank, payload, now: float) -> None:
        """Bank sensing done; the 64B transfer now needs the channel."""
        self._chan_demand_q.append(payload)
        self._try_start_channel(now)

    def _try_start_channel(self, now: float) -> None:
        if self._chan_active or self._chan_busy_until > now:
            return
        demand = bool(self._chan_demand_q)
        scrub = bool(self._chan_scrub_q)
        if not demand and not scrub:
            return
        # Round-robin between demand transfers and scrub operations so a
        # heavy scrub schedule slows demand down without starving it (and
        # vice versa).
        take_scrub = scrub and (not demand or not self._chan_last_was_scrub)
        self._chan_last_was_scrub = take_scrub
        self._chan_active = True
        self._chan_token += 1
        if take_scrub:
            duration, _ = self._chan_scrub_q[0]
            self._chan_busy_until = now + duration
        else:
            self._chan_busy_until = now + self._bus_ns
        self._push(self._chan_busy_until, _EV_CHANNEL_DONE, self._chan_token)

    def _handle_channel_done(self, token: int, now: float) -> None:
        if token != self._chan_token or not self._chan_active:
            return
        self._chan_active = False
        if self._chan_last_was_scrub:
            _, decisions = self._chan_scrub_q.popleft()
            for decision in decisions:
                self._account_scrub(decision)
        else:
            payload = self._chan_demand_q.popleft()
            self._complete_read(payload, now)
        self._try_start_channel(now)

    def _complete_read(self, payload, now: float) -> None:
        if self._tele is None:
            core_id, line, enq, decision = payload
        else:
            core_id, line, enq, decision, start_ns, depth = payload
        stats = self.stats
        stats.reads += 1
        mode = decision.mode.value
        stats.reads_by_mode[mode] = stats.reads_by_mode.get(mode, 0) + 1
        stats.total_read_latency_ns += now - enq
        stats.energy.add_read("RM" if decision.mode is ReadMode.RM else mode)
        if self._tele is not None:
            stats.read_latency_hist.record(now - enq)
            if self._tracer is not None:
                self._tracer.emit({
                    "kind": "read",
                    "core": core_id,
                    "bank": line % self._num_banks,
                    "line": line,
                    "mode": mode,
                    "queue_depth": depth,
                    "issue_ns": enq,
                    "start_ns": start_ns,
                    "complete_ns": now,
                })
        if decision.flag_access:
            stats.energy.add_flag_access()
        if decision.silent_corruption:
            stats.silent_corruptions += 1
        if decision.uncorrectable:
            stats.uncorrectable_reads += 1
        if decision.convert_to_write:
            conv = self.policy.on_conversion_write(line, self._now_s(now))
            if self._faults is not None:
                self._faults.record_write(line)
            bank_id = line % self._num_banks
            bank = self._banks[bank_id]
            bank.write_q.append(("conversion", line, conv))
            stats.conversions += 1
            self._try_start_bank(bank, bank_id, now)
        self._advance_core(core_id, now)

    def _complete_write(self, payload) -> None:
        cause, _line, decision = payload
        self.stats.energy.add_write(
            decision.cells_written,
            category="conversion" if cause == "conversion" else "write",
        )
        self.stats.wear.add_cells(
            "conversion" if cause == "conversion" else "demand",
            decision.cells_written,
        )

    # ---------------------------------------------------------------- faults

    def _fault_read(self, line: int, decision: ReadDecision) -> ReadDecision:
        """Fold injected bit errors into a demand read's outcome.

        Hard errors (stuck cells, write-failure residue) survive the R-M
        retry because re-sensing with the drift-robust M metric cannot fix
        a physically broken cell; soft errors (this sensing's transient
        noise) vanish on re-read. The combined count moves the read
        through the BCH regimes exactly as drift errors do, so faults can
        upgrade an R read into an R-M retry, push a retry into
        detected-uncorrectable, or — past the detection bound — corrupt
        data silently.
        """
        hard, soft = self._faults.read_errors(line)
        extra = hard + soft
        if extra == 0:
            return decision
        fc = self.stats.fault_counters
        fc.injected += extra
        if decision.silent_corruption:
            # Drift already corrupted the read; faults cannot un-corrupt it.
            fc.silent += 1
            return decision
        if decision.uncorrectable:
            fc.detected_uncorrectable += 1
            return decision
        total = decision.errors_seen + extra
        if decision.mode is ReadMode.RM:
            # The policy already fell back to the M retry; drift and soft
            # noise are gone there, only hard errors face the decoder.
            regime = classify_error_count(hard)
        elif decision.mode is ReadMode.M:
            regime = classify_error_count(total)
        else:
            regime = classify_error_count(total)
            if regime is ErrorRegime.DETECTED_UNCORRECTABLE:
                # ReadDuo's trigger: the R read reports uncorrectable, the
                # controller retries with the M metric. The retry clears
                # drift and transient noise; hard errors remain.
                retry = classify_error_count(hard)
                if retry is ErrorRegime.CORRECTED:
                    fc.corrected += 1
                    return replace(decision, mode=ReadMode.RM, errors_seen=total)
                if retry is ErrorRegime.DETECTED_UNCORRECTABLE:
                    fc.detected_uncorrectable += 1
                    return replace(
                        decision,
                        mode=ReadMode.RM,
                        errors_seen=total,
                        uncorrectable=True,
                    )
                fc.silent += 1
                return replace(
                    decision,
                    mode=ReadMode.RM,
                    errors_seen=total,
                    silent_corruption=True,
                )
        if regime is ErrorRegime.CORRECTED:
            fc.corrected += 1
            return replace(decision, errors_seen=total)
        if regime is ErrorRegime.DETECTED_UNCORRECTABLE:
            fc.detected_uncorrectable += 1
            return replace(decision, errors_seen=total, uncorrectable=True)
        fc.silent += 1
        return replace(decision, errors_seen=total, silent_corruption=True)

    def _fault_scrub(self, line: int, decision):
        """Fold injected bit errors into a scrub visit.

        The bridge chip's BCH logic sees fault errors like drift errors:
        any detectable damage on a line the policy was going to leave
        alone forces a repair rewrite. Errors past the detection bound
        are missed — the scrub silently "verifies" a broken line.
        """
        hard, soft = self._faults.read_errors(line)
        extra = hard + soft
        if extra == 0:
            return decision
        self.stats.fault_counters.injected += extra
        total = decision.errors_seen + extra
        if (
            not decision.rewrite
            and classify_error_count(total) is not ErrorRegime.SILENT
        ):
            return replace(
                decision,
                rewrite=True,
                cells_written=self.config.cells_per_line_write,
                errors_seen=total,
            )
        return replace(decision, errors_seen=total)

    def _account_scrub(self, decision) -> None:
        self.stats.energy.add_read(decision.metric, category="scrub_read")
        if decision.rewrite:
            self.stats.energy.add_write(decision.cells_written, category="scrub_write")
            self.stats.wear.add_cells("scrub", decision.cells_written)
            self.stats.scrub_rewrites += 1
        self.stats.scrub_ops += 1

    # ----------------------------------------------------------------- scrub

    def _handle_scrub_tick(self, now: float) -> None:
        """One bridge-chip scrub operation over adjacent lines."""
        timing = self.config.timing
        now_s = self._now_s(now)
        decisions = []
        duration = 0.0
        sense_metric = None
        for _ in range(self.config.lines_per_scrub_op):
            line = self._scrub_pointer
            self._scrub_pointer = (self._scrub_pointer + 1) % self.config.total_lines
            decision = self.policy.on_scrub(line, now_s)
            if self._faults is not None:
                decision = self._fault_scrub(line, decision)
                if decision.rewrite:
                    self._faults.record_write(line)
            decisions.append(decision)
            if decision.rewrite:
                duration += timing.write_ns
            sense_metric = decision.metric
        # One row-buffer sense covers all lines of the operation.
        duration += (
            timing.r_read_ns if sense_metric == "R" else timing.m_read_ns
        )
        skipped = False
        if self.config.scrub_blocks_channel:
            if len(self._chan_scrub_q) >= self.config.scrub_backlog_cap:
                # The sweep cannot keep pace; skip this visit and record
                # the reliability debt instead of starving demand forever.
                self.stats.scrubs_skipped += len(decisions)
                skipped = True
            else:
                self._chan_scrub_q.append((duration, decisions))
                self._try_start_channel(now)
        else:
            for decision in decisions:
                self._account_scrub(decision)
        if self._tracer is not None:
            self._tracer.emit({
                "kind": "scrub",
                "time_ns": now,
                "lines": len(decisions),
                "rewrites": sum(1 for d in decisions if d.rewrite),
                "duration_ns": duration,
                "skipped": skipped,
            })
        self._push(now + self._scrub_tick_ns, _EV_SCRUB)

    # ------------------------------------------------------------------- end

    def _flush_pending_writes(self) -> None:
        """Charge writes still queued at the end of the run.

        They were issued by the workload and would complete moments later;
        dropping them would make write-heavy schemes look cheaper.
        """
        for bank in self._banks:
            if bank.job_kind == _JOB_WRITE and bank.job_payload is not None:
                self._complete_write(bank.job_payload)
                bank.job_kind = None
            for payload in bank.write_q:
                self._complete_write(payload)
            bank.write_q.clear()


#: Engines selectable through :func:`simulate` (and ``SimSpec.engine``).
ENGINES = ("batch", "event")


def simulate(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig = DEFAULT_MEMORY_CONFIG,
    epoch_s: float = DEFAULT_EPOCH_S,
    telemetry: Optional[Telemetry] = None,
    faults: Optional[FaultInjector] = None,
    engine: str = "batch",
) -> RunStats:
    """Run one simulation on the selected engine.

    ``engine="batch"`` (default) uses the vectorized batch kernel in
    :mod:`repro.memsim.batch` — the fast path; ``engine="event"`` runs
    this module's event-level :class:`MemorySystemSim`, kept as the
    cross-check oracle. The two are bit-for-bit identical (stats, policy
    state, telemetry; enforced by tests/test_batch_equivalence.py), which
    is why the flag is deliberately *not* part of ``SimSpec`` identity:
    cached artifacts and sweep digests are engine-independent.
    """
    global _LAST_ENGINE
    if engine == "batch":
        from .batch import simulate_batch

        _LAST_ENGINE = "batch"
        stats = simulate_batch(
            trace, policy, config, epoch_s=epoch_s, telemetry=telemetry, faults=faults
        )
    elif engine == "event":
        _LAST_ENGINE = "event"
        stats = MemorySystemSim(
            trace, policy, config, epoch_s=epoch_s, telemetry=telemetry, faults=faults
        ).run()
    else:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    # A write-truncating policy (the "+trunc" suffix) counts its own
    # shortened writes; the engines only see the latency scale.
    stats.truncated_writes = getattr(policy, "truncated_writes", 0)
    return stats


#: Engine used by this process's most recent :func:`simulate` call.
_LAST_ENGINE: Optional[str] = None


def last_run_provenance() -> Dict[str, Optional[str]]:
    """Provenance of the most recent :func:`simulate` in this process.

    ``{"engine": "batch" | "event" | None, "fastpath": "speculated" |
    "fallback" | "no_native" | None}`` — ``fastpath`` is ``None`` unless
    the batch engine ran (the event engine never speculates). Read by
    the executor right after a unit simulation so ledger records can say
    how each unit was actually produced.
    """
    fastpath: Optional[str] = None
    if _LAST_ENGINE == "batch":
        from .batch import last_fastpath

        fastpath = last_fastpath()
    return {"engine": _LAST_ENGINE, "fastpath": fastpath}
