"""Execution service layer: the simulator as a long-lived facility.

Everything below ``repro.service`` already existed as single-shot CLI
plumbing — the planner, the cache hierarchy, the work-stealing executor,
telemetry. This package owns that wiring once, behind two surfaces:

* :class:`ExecutionService` (:mod:`repro.service.execution`) — the
  in-process facade: ``submit(specs) -> results`` through the full
  memo → store → simulate hierarchy, plus the session
  plumbing the CLI subcommands ride (``readduo run/sweep/faults`` are
  thin clients of this class);
* :mod:`repro.service.server` — ``readduo serve``, the asyncio
  HTTP/JSON daemon that accepts :class:`~repro.experiments.spec.SimSpec`
  documents, coalesces concurrent identical requests by run hash onto a
  single in-flight unit, streams per-unit progress from the run-ledger
  machinery, and applies per-client backpressure;
* :mod:`repro.service.store` — pluggable
  :class:`~repro.experiments.cache.RunStore` backends (filesystem and
  in-memory today; the interface is the seam a remote/S3-style backend
  plugs into);
* :mod:`repro.service.client` — a dependency-free HTTP/JSON client for
  the daemon (used by the load-test benchmark, the smoke tests, and any
  script that wants to talk to a running server);
* :mod:`repro.service.coordinator` + :mod:`repro.service.worker` —
  distributed execution: the daemon (``--distributed``) leases
  content-addressed run-unit batches to ``readduo worker`` processes
  with TTL/requeue resilience, and the workers share one granular
  cache through :class:`~repro.service.store.RemoteRunStore`.

See docs/SERVING.md for the HTTP API and coalescing semantics, and
docs/DISTRIBUTED.md for the lease protocol and its runbook.
"""

from .execution import ExecutionOutcome, ExecutionService, sweep_payload
from .store import MemoryRunStore, RemoteRunStore, RunCache, RunStore

__all__ = [
    "ExecutionOutcome",
    "ExecutionService",
    "sweep_payload",
    "RunStore",
    "RunCache",
    "MemoryRunStore",
    "RemoteRunStore",
]
