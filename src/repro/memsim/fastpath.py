"""Speculative two-pass fast path for the batch engine.

The exact-replay loop in :mod:`repro.memsim.batch` removes Python-object
overhead but still steps every event in Python (~2-3 us per event). This
module removes the event loop itself for the policy shapes where that is
provably safe, with a *speculate-verify-abort* structure:

Pass 1 (C, :mod:`repro.memsim.native`): run the full queueing network —
bank queues, write cancellation, waiter release, channel arbitration,
scrub sweep — assuming every read resolves in the policy's predicted
sensing mode. For the eligible policies the read decision cannot feed
back into the timeline *except* through a mode change (ReadDuo-Hybrid's
R-to-R+M retry), and writes/scrubs return constant decisions, so the
timeline is a pure function of the trace. The C timeline records each
started read's line age, in bank-start order.

Pass 2 (numpy): evaluate the drift sampler over the age array as
vectorized ops — ``log10`` -> grid interpolation -> masked binomial —
consuming the policy's Generator in exactly the order the scalar loop
would (property-tested in tests/test_batch_equivalence.py), then check
the speculation: if any draw would have changed a read's mode, restore
the Generator state and report failure; the caller reruns on the
exact-replay loop, whose results are bit-identical by construction.

Eligibility is declared by each policy as a
:class:`~repro.memsim.policy.SpeculationPlan` next to the kernels it
describes (``speculation_plan()``); everything else falls back, and the
fallback is always exact. The built-in plans:

* ``Ideal`` / ``TLC``: constant clean R-reads, no sampling, no scrub.
* ``ReadDuo-Hybrid``: R-reads; errors in the detectable band convert the
  read to R+M — that changes latency, so it *aborts* speculation. In the
  paper's operating regime (scrubbing keeps ages below the R-read
  reliability wall) the band is never hit and speculation always lands.
* ``Scrubbing``/W=0: R-reads whose outcome only flips counters (silent /
  uncorrectable), never the mode: no abort case at all.

Fault injection always takes the exact-replay path: fault streams are
consumed per-line inside the event loop and are not worth speculating.
"""

from __future__ import annotations

import ctypes
import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..ecc.regimes import (
    CORRECTABLE_ERRORS,
    DETECTABLE_ERRORS,
    classify_error_counts,
)
from ..obs import Telemetry
from ..obs.spans import maybe_span
from ..traces.trace import OP_READ, Trace
from .config import MemoryConfig
from .native import (
    RETRYABLE_ERRORS,
    TRACE_REC_DTYPE,
    TimelineOut,
    TimelineParams,
    load_timeline,
)
from .policy import (
    VERIFY_HYBRID,
    VERIFY_UNCORR_DET,
    SchemePolicy,
    SpeculationPlan,
)
from .stats import RunStats

__all__ = ["try_simulate_speculative", "speculation_plan", "last_attempt"]

#: Outcome of this process's most recent speculation attempt:
#: ``(outcome, reason)`` with outcome in ``{"speculated", "fallback",
#: "no_native"}``. Read by the batch engine for the ``fastpath.*``
#: metrics counters and by the executor for run-provenance records —
#: a silent fall-back to the exact loop is otherwise indistinguishable
#: from a speculation hit.
_LAST_ATTEMPT: Tuple[str, str] = ("fallback", "not_attempted")


def last_attempt() -> Tuple[str, str]:
    """``(outcome, reason)`` of the most recent attempt in this process."""
    return _LAST_ATTEMPT


def _miss(reason: str) -> None:
    """Record a non-speculated outcome; returns ``None`` for tail calls."""
    global _LAST_ATTEMPT
    outcome = "no_native" if reason == "no_native" else "fallback"
    _LAST_ATTEMPT = (outcome, reason)
    return None


def _hit() -> None:
    global _LAST_ATTEMPT
    _LAST_ATTEMPT = ("speculated", "ok")

_CORR = CORRECTABLE_ERRORS
_DET = DETECTABLE_ERRORS

_ECAT_NAMES = ("read", "write", "scrub_read", "scrub_write")
_WCAT_NAMES = ("demand", "scrub")


def _defining_class(policy: SchemePolicy, attr: str) -> Optional[type]:
    for cls in type(policy).__mro__:
        if attr in cls.__dict__:
            return cls
    return None


def speculation_plan(policy: SchemePolicy) -> Optional[SpeculationPlan]:
    """The speculative execution plan for ``policy``, or ``None``.

    A plan describes the kernels it was stated next to: a subclass that
    replaces ``kernels()`` without restating ``speculation_plan()`` takes
    the exact paths.
    """
    owner = _defining_class(policy, "speculation_plan")
    if owner is None or owner is not _defining_class(policy, "kernels"):
        return None
    plan = policy.speculation_plan()
    if plan is None:
        return None
    interval = policy.scrub_interval_s
    scrub_on = interval is not None and interval > 0
    return plan if (plan.scrub_metric is not None) == scrub_on else None


# ------------------------------------------------------------------ births


def _splitmix64_vec(values: np.ndarray) -> np.ndarray:
    v = values + np.uint64(0x9E3779B97F4A7C15)
    v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def _birth_times(policy: SchemePolicy, lines: np.ndarray) -> np.ndarray:
    """``ctx.epoch_s - InitialAgeModel.age_of(line)`` per line, bit-exact.

    The splitmix hash and the uniform mapping vectorize losslessly in
    uint64/float64; ``math.log1p`` does *not* equal ``np.log1p`` bit for
    bit on every input, so the exponential transform stays a scalar loop
    over the (unique) footprint lines.
    """
    ages_model = policy.ages
    profile = ages_model.profile
    epoch = policy.ctx.epoch_s
    births = np.full(len(lines), epoch - profile.cold_age_s, dtype=np.float64)
    hot = lines < profile.footprint_lines
    hot_lines = lines[hot]
    if len(hot_lines):
        hashed = _splitmix64_vec(
            (hot_lines.astype(np.uint64) << np.uint64(1)) ^ np.uint64(ages_model.seed)
        )
        u = (hashed >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        u = np.minimum(np.maximum(u, 1e-12), 1.0 - 1e-12)
        scale = profile.hot_age_scale_s
        min_age = ages_model.min_age_s
        log1p = math.log1p
        ages = [max(-scale * log1p(-x), min_age) for x in u.tolist()]
        births[hot] = epoch - np.asarray(ages, dtype=np.float64)
    return births


# ------------------------------------------------------------------ pass 2


def _interp_probs(tables: Any, metric: str, ages: np.ndarray) -> np.ndarray:
    """Vectorized sampler probability lookup, bit-equal to the scalar
    bisect-lerp in ``DriftErrorSampler.sample_fns`` (and to ``np.interp``)."""
    xs = tables.log_grid
    ptab = tables.p_r if metric == "R" else tables.p_m
    slope = np.asarray(tables.slope_r if metric == "R" else tables.slope_m)
    lo_age = float(tables.grid[0])
    hi_age = float(tables.grid[-1])
    p = np.empty(len(ages), dtype=np.float64)
    lo_mask = ages <= lo_age
    hi_mask = ages >= hi_age
    mid = ~(lo_mask | hi_mask)
    p[lo_mask] = ptab[0]
    p[hi_mask] = ptab[-1]
    if mid.any():
        x = np.log10(ages[mid])
        j = np.searchsorted(xs, x, side="right") - 1
        # log10 can map an age strictly below grid[-1] onto exactly
        # xs[-1] when adjacent doubles collapse in log space; np.interp
        # returns ptab[-1] there, so match it (and keep j in range).
        top = j >= len(xs) - 1
        j[top] = 0
        vals = slope[j] * (x - xs[j]) + ptab[j]
        vals[top] = ptab[-1]
        p[mid] = vals
    return p


def _sample_and_verify(
    policy: SchemePolicy, plan: SpeculationPlan, ages: np.ndarray
) -> Optional[Tuple[int, int]]:
    """Draw pass-2 errors; returns ``(silent, uncorrectable)`` or ``None``
    when a draw falsifies the speculated timeline (RNG state restored)."""
    if plan.sample_metric is None or len(ages) == 0:
        return (0, 0)
    sampler = policy.sampler
    p = _interp_probs(sampler.tables, plan.sample_metric, ages)
    need = p > sampler._negligible_p
    errors = np.zeros(len(ages), dtype=np.int64)
    codes = np.zeros(len(ages), dtype=np.int8)
    if need.any():
        generator = sampler.rng
        saved_state = generator.bit_generator.state
        errors[need] = generator.binomial(sampler.cells, p[need])
        # Regime codes: 0 corrected, 1 detected-uncorrectable, 2 silent.
        codes = classify_error_counts(errors, _CORR, _DET)
        if plan.verify == VERIFY_HYBRID and bool(np.any(codes == 1)):
            generator.bit_generator.state = saved_state
            return None
    if plan.verify == VERIFY_HYBRID:
        return (int(np.count_nonzero(codes == 2)), 0)
    if plan.verify == VERIFY_UNCORR_DET:
        return (
            int(np.count_nonzero(codes == 2)),
            int(np.count_nonzero(codes == 1)),
        )
    return (0, 0)


# ----------------------------------------------------------------- tracer


def _defer_trace_records(
    tracer: Any, recs: np.ndarray, num_banks: int, mode: str
) -> None:
    """Queue lazy materialization of the kernel's compact trace records.

    The dict construction (the expensive part) runs only if someone
    reads ``tracer.records``; counts and the drop accounting are exact
    against ``max_events`` either way. ``.tolist()`` rows yield Python
    scalars, so materialized records stay JSON-serializable.
    """
    total = len(recs)
    avail = tracer.max_events - len(tracer)
    take = max(0, min(total, avail))
    dropped = total - take

    def build(records: List[Dict[str, Any]]) -> None:
        appended = 0
        for f1, f2, f3, line, kind, a, b, c in recs.tolist():
            if appended >= take:
                break
            appended += 1
            if kind == 0:
                records.append({
                    "kind": "read",
                    "core": a,
                    "bank": line % num_banks,
                    "line": line,
                    "mode": mode,
                    "queue_depth": b,
                    "issue_ns": f1,
                    "start_ns": f2,
                    "complete_ns": f3,
                })
            elif kind == 1:
                records.append({
                    "kind": "write",
                    "cause": "demand",
                    "bank": a,
                    "line": line,
                    "start_ns": f1,
                    "complete_ns": f2,
                })
            elif kind == 2:
                records.append({
                    "kind": "write_cancel",
                    "bank": a,
                    "line": line,
                    "progress": f1,
                    "time_ns": f2,
                })
            else:
                records.append({
                    "kind": "scrub",
                    "time_ns": f1,
                    "lines": a,
                    "rewrites": b,
                    "duration_ns": f2,
                    "skipped": bool(c),
                })

    tracer.defer(take, dropped, build)


def _vector_flush(hist: Any, values: np.ndarray) -> None:
    """Vectorized ``Histogram.record`` bucket counting (integer-exact)."""
    if len(values) == 0:
        return
    edges = np.asarray(hist.boundaries)
    idx = np.searchsorted(edges, values, side="left")
    counts = np.bincount(idx, minlength=len(hist.counts))
    for bucket, count in enumerate(counts.tolist()):
        if count:
            hist.counts[bucket] += count
    hist.count += len(values)


# ------------------------------------------------------------------ entry


def _ptr(array: np.ndarray, ctype: Any) -> Any:
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def try_simulate_speculative(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig,
    epoch_s: float,
    telemetry: Optional[Telemetry],
) -> Optional[RunStats]:
    """Run the speculative two-pass engine; ``None`` means "use the
    exact-replay loop" (ineligible policy, no compiler, or speculation
    falsified). On ``None`` all policy/RNG state is untouched.

    Every call records its ``(outcome, reason)`` in :func:`last_attempt`
    and — when span tracing is active — emits a ``fastpath.speculate``
    span carrying them, so fall-backs are attributable."""
    with maybe_span(
        "fastpath.speculate", scheme=policy.name, workload=trace.name
    ) as span:
        result = _attempt(trace, policy, config, epoch_s, telemetry)
        outcome, reason = _LAST_ATTEMPT
        span.set_attr("outcome", outcome)
        span.set_attr("reason", reason)
        return result


def _attempt(
    trace: Trace,
    policy: SchemePolicy,
    config: MemoryConfig,
    epoch_s: float,
    telemetry: Optional[Telemetry],
) -> Optional[RunStats]:
    plan = speculation_plan(policy)
    if plan is None:
        return _miss("ineligible")
    lib = load_timeline()
    if lib is None:
        return _miss("no_native")
    # The policy's closures read the scrub phase / births through its own
    # ctx; the kernel has one (config, epoch) — they must be the same.
    if policy.ctx.config is not config or policy.ctx.epoch_s != epoch_s:
        return _miss("context_mismatch")
    # Fixed-capacity queues in the kernel (with headroom for appendleft).
    if (
        config.num_cores >= 64
        or config.write_queue_depth >= 70
        or config.scrub_backlog_cap >= 70
    ):
        return _miss("config_limits")

    if telemetry is not None and telemetry.enabled:
        tele: Optional[Telemetry] = telemetry
        tracer = telemetry.tracer
        tracer = tracer if (tracer is not None and tracer.enabled) else None
    else:
        tele = None
        tracer = None
    tele_on = tele is not None
    trace_on = tracer is not None

    timing = config.timing
    cycle_ns = timing.cycle_ns
    num_cores = config.num_cores

    # Flatten the per-core request streams for the kernel.
    per_core = trace.per_core_indices()
    offsets = np.zeros(num_cores + 1, dtype=np.int64)
    ops_parts = []
    lines_parts = []
    gaps_parts = []
    for core in range(num_cores):
        idx = per_core.get(core)
        if idx is None or len(idx) == 0:
            offsets[core + 1] = offsets[core]
            continue
        ops_parts.append(np.ascontiguousarray(trace.op[idx], dtype=np.int8))
        lines_parts.append(np.ascontiguousarray(trace.line[idx], dtype=np.int64))
        gaps_parts.append(trace.gap[idx].astype(np.float64) * cycle_ns)
        offsets[core + 1] = offsets[core] + len(idx)
    if offsets[-1] == 0:
        # Empty trace: let the replay loop produce the stats.
        return _miss("empty_trace")
    ops = np.ascontiguousarray(np.concatenate(ops_parts), dtype=np.int8)
    lines = np.ascontiguousarray(np.concatenate(lines_parts), dtype=np.int64)
    gaps = np.ascontiguousarray(np.concatenate(gaps_parts), dtype=np.float64)

    n_read_ops = int(np.count_nonzero(ops == OP_READ))
    n_write_ops = len(ops) - n_read_ops

    interval = policy.scrub_interval_s
    scrub_on = interval is not None and interval > 0
    if scrub_on and interval is not None:
        scrub_interval = float(interval)
        ops_per_sweep = config.total_lines / config.lines_per_scrub_op
        scrub_tick_ns = scrub_interval * 1e9 / ops_per_sweep
    else:
        scrub_interval = 1.0
        scrub_tick_ns = 0.0

    if plan.use_age:
        unique_lines = np.ascontiguousarray(np.unique(lines), dtype=np.int64)
        births = np.ascontiguousarray(_birth_times(policy, unique_lines))
    else:
        unique_lines = np.zeros(0, dtype=np.int64)
        births = np.zeros(0, dtype=np.float64)

    stats = RunStats(scheme=policy.name, workload=trace.name)
    stats.energy.params = config.energy
    stats.wear.cells_per_line = config.cells_per_line_write
    data_bits = stats.energy.data_bits
    eparams = config.energy

    params = TimelineParams()
    params.n_cores = num_cores
    params.core_off = _ptr(offsets, ctypes.c_int64)
    params.ops = _ptr(ops, ctypes.c_int8)
    params.lines = _ptr(lines, ctypes.c_int64)
    params.gaps_ns = _ptr(gaps, ctypes.c_double)
    params.op_read = int(OP_READ)
    params.num_banks = config.num_banks
    params.write_queue_depth = config.write_queue_depth
    params.cancel_threshold = config.cancel_threshold
    params.write_ns = timing.write_ns
    params.bus_ns = timing.bus_ns
    params.read_lat_ns = timing.r_read_ns if plan.mode_str == "R" else timing.m_read_ns
    params.scrub_on = 1 if scrub_on else 0
    params.scrub_blocks_channel = 1 if config.scrub_blocks_channel else 0
    params.scrub_tick_ns = scrub_tick_ns
    params.lines_per_scrub_op = config.lines_per_scrub_op
    params.total_lines = config.total_lines
    params.scrub_backlog_cap = config.scrub_backlog_cap
    params.scrub_metric_read_ns = (
        (timing.r_read_ns if plan.scrub_metric == "R" else timing.m_read_ns)
        if scrub_on
        else 0.0
    )
    params.use_age = 1 if plan.use_age else 0
    params.use_spa = 1 if plan.use_spa else 0
    params.scrub_interval_s = scrub_interval
    params.epoch_s = epoch_s
    params.half_lines = config.total_lines // 2
    params.pj_read = eparams.read_energy_pj(plan.mode_str, data_bits)
    params.pj_per_cell = eparams.write_pj_per_cell
    params.pj_scrub_read = (
        eparams.read_energy_pj(plan.scrub_metric, data_bits)
        if (scrub_on and plan.scrub_metric is not None)
        else 0.0
    )
    params.write_cells = plan.write_cells
    params.full_cells = config.cells_per_line_write
    params.n_birth = len(unique_lines)
    params.birth_lines = _ptr(unique_lines, ctypes.c_int64)
    params.birth_times = _ptr(births, ctypes.c_double)
    params.tele_on = 1 if tele_on else 0
    params.trace_on = 1 if trace_on else 0

    ages = np.zeros(max(n_read_ops, 1), dtype=np.float64)
    params.ages_cap = len(ages)
    lat = np.zeros(max(n_read_ops, 1) if tele_on else 1, dtype=np.float64)
    depth = np.zeros(max(n_read_ops, 1) if tele_on else 1, dtype=np.int32)

    out = TimelineOut()
    rep_cap = n_write_ops + 4 * len(ops) + 4096
    rec_cap = (3 * len(ops) + 4096) if trace_on else 1
    with maybe_span("fastpath.timeline", requests=len(ops)):
        for _retry in range(3):
            rep_lines = np.zeros(rep_cap, dtype=np.int64)
            rep_times = np.zeros(rep_cap, dtype=np.float64)
            rep_kind = np.zeros(rep_cap, dtype=np.int8)
            recs = np.zeros(rec_cap, dtype=TRACE_REC_DTYPE)
            params.rep_cap = rep_cap
            params.rec_cap = rec_cap
            code = lib.run_timeline(
                ctypes.byref(params),
                ctypes.byref(out),
                _ptr(ages, ctypes.c_double),
                _ptr(rep_lines, ctypes.c_int64),
                _ptr(rep_times, ctypes.c_double),
                _ptr(rep_kind, ctypes.c_int8),
                _ptr(lat, ctypes.c_double),
                _ptr(depth, ctypes.c_int32),
                recs.ctypes.data_as(ctypes.c_void_p),
            )
            if code == 0:
                break
            if code in RETRYABLE_ERRORS:
                # The kernel is pure (touches no Python state), so a rerun
                # with bigger buffers is safe.
                rep_cap *= 8
                rec_cap *= 8
                continue
            return _miss("kernel_error")
        else:
            return _miss("kernel_error")

    # ---- pass 2: drift sampling + speculation check
    with maybe_span("fastpath.verify", reads=int(out.n_ages)) as verify_span:
        outcome = _sample_and_verify(policy, plan, ages[: out.n_ages])
        if outcome is None:
            verify_span.set_attr("aborted", True)
            with maybe_span("fastpath.abort", scheme=policy.name):
                pass
            return _miss("verify_abort")
        verify_span.set_attr("aborted", False)
    n_silent, n_uncorrectable = outcome

    # ---- commit: replay policy line state, then fill the stats
    lw = policy.last_write_s
    if out.n_rep:
        rep_l = rep_lines[: out.n_rep].tolist()
        rep_t = rep_times[: out.n_rep].tolist()
        survived = plan.survived
        if survived is not None:
            for line, when, kind in zip(rep_l, rep_t, rep_kind[: out.n_rep].tolist()):
                lw[line] = when
                if kind == 0:
                    survived[line] = 0
        else:
            for line, when in zip(rep_l, rep_t):
                lw[line] = when

    stats.reads = out.n_reads
    stats.writes = out.n_writes
    stats.conversions = 0
    stats.silent_corruptions = n_silent
    stats.uncorrectable_reads = n_uncorrectable
    stats.scrub_ops = out.n_scrub_ops
    stats.scrub_rewrites = out.n_scrub_rewrites
    stats.scrubs_skipped = out.n_scrubs_skipped
    stats.cancelled_writes = out.n_cancelled
    stats.total_read_latency_ns = out.total_read_latency
    stats.execution_time_ns = out.exec_time_ns
    stats.instructions = int(trace.gap.sum()) + len(trace)
    if out.n_reads:
        stats.reads_by_mode[plan.mode_str] = out.n_reads

    # by-category dicts are rebuilt in the kernel's first-touch order so
    # their (serialized) insertion order matches the scalar engine's.
    acc_by_ecat = (
        out.acc_read_pj,
        out.acc_write_pj,
        out.acc_scrub_read_pj,
        out.acc_scrub_write_pj,
    )
    by_cat = stats.energy.by_category
    for i in range(out.n_ecat):
        cat = out.ecat_order[i]
        by_cat[_ECAT_NAMES[cat]] = acc_by_ecat[cat]
    wear_by_wcat = (out.wear_demand, out.wear_scrub)
    by_cause = stats.wear.by_cause
    for i in range(out.n_wcat):
        cat = out.wcat_order[i]
        by_cause[_WCAT_NAMES[cat]] = wear_by_wcat[cat]

    if tele is not None:
        _vector_flush(stats.read_latency_hist, lat[: out.n_lat])
        stats.read_latency_hist.sum += out.lat_sum
        _vector_flush(stats.queue_depth_hist, depth[: out.n_depth])
        stats.queue_depth_hist.sum += out.depth_sum
        if tracer is not None:
            _defer_trace_records(
                tracer, recs[: out.n_rec], config.num_banks, plan.mode_str
            )
        if tele.metrics is not None:
            from .batch import _snapshot_metrics

            _snapshot_metrics(tele.metrics, stats, int(out.seq), tracer, None)
    _hit()
    return stats
