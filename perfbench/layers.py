"""Where the traced ``run all`` hooks into the program, and how spans become metrics.

:func:`install_run_all_layers` wraps the public entry points of each layer
at the names their callers resolve at call time: module attributes for
functions bound by ``from ... import`` (patched in every importing module)
and methods on the class for objects. :func:`run_all_metrics` and
:func:`sim_metrics` turn the recorded spans into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from spans import Recorder

#: The seven schemes the paper compares, in its order.
PAPER_SCHEMES = ("Ideal", "TLC", "Scrubbing", "M-metric", "Hybrid", "LWT-4", "Select-4:2")

#: Read-heavy (mcf), write-heavy (lbm) and mixed (gcc, sphinx3) SPEC profiles.
PAPER_WORKLOADS = ("mcf", "lbm", "gcc", "sphinx3")

#: Every module that binds ``simulate`` by name; the engine module itself
#: covers callers that import it inside a function body.
SIMULATE_SITES = (
    "repro.experiments.parallel",
    "repro.experiments.ablations",
    "repro.experiments.extras",
    "repro.cli",
    "repro.memsim.engine",
)


def metric_scheme(scheme: str) -> str:
    """Scheme name as it appears in a metric name (``Select-4:2`` -> ``Select-4-2``)."""
    return scheme.replace(":", "-")


def _note_simulate(attrs: Dict[str, Any], args: tuple, result: Any) -> None:
    attrs["scheme"] = result.scheme
    attrs["requests"] = len(args[0])


def _note_fastpath(attrs: Dict[str, Any], args: tuple, result: Any) -> None:
    from repro.memsim import fastpath

    attrs["outcome"], attrs["reason"] = fastpath.last_attempt()


def sim_metrics(rec: Recorder) -> Dict[str, float]:
    """The simulation-layer metrics of one traced process (per paper scheme).

    ``planner.submit_overhead_s`` is the planner's time outside the
    layers below it: the self time of ``build_plan`` and ``execute_plan``.
    """
    out: Dict[str, float] = {}
    sim_s: Dict[str, float] = {s: 0.0 for s in PAPER_SCHEMES}
    sim_req: Dict[str, int] = {s: 0 for s in PAPER_SCHEMES}
    attempts = speculated = aborts = 0
    for span in rec.spans:
        attrs = span["attrs"]
        if span["name"] == "memsim.simulate" and attrs["scheme"] in sim_s:
            sim_s[attrs["scheme"]] += span["end"] - span["start"]
            sim_req[attrs["scheme"]] += attrs["requests"]
        elif span["name"] == "memsim.fastpath":
            attempts += 1
            speculated += attrs["outcome"] == "speculated"
            aborts += attrs["reason"] == "verify_abort"
    for scheme in PAPER_SCHEMES:
        name = metric_scheme(scheme)
        out[f"memsim.simulate_s.{name}"] = sim_s[scheme]
        out[f"memsim.ns_per_op.{name}"] = (
            sim_s[scheme] * 1e9 / sim_req[scheme] if sim_req[scheme] else 0.0
        )
    out["memsim.fastpath.speculated_ratio"] = speculated / attempts if attempts else 0.0
    out["memsim.fastpath.verify_abort_n"] = aborts
    selfs = rec.self_time_by_name()
    out["traces.generate_trace_s"] = selfs.get("traces.generate_trace", 0.0)
    out["core.make_policy_s"] = selfs.get("core.make_policy", 0.0)
    out["planner.submit_overhead_s"] = (
        selfs.get("planner.build_plan", 0.0) + selfs.get("planner.execute_plan", 0.0)
    )
    return out


def _note_plan(attrs: Dict[str, Any], args: tuple, result: Any) -> None:
    stats = args[0].stats
    attrs["simulated"] = stats.units_simulated
    attrs["cached"] = stats.units_cached


def _note_store_bytes(attrs: Dict[str, Any], args: tuple, result: Any) -> None:
    attrs["bytes"] = os.path.getsize(result)


def install_run_all_layers(rec: Recorder) -> None:
    """Spans for one ``readduo run all`` process (imported after ``repro.cli``)."""
    import importlib

    import repro.experiments as experiments
    import repro.experiments.runner as runner
    import repro.experiments.spec as spec
    import repro.memsim.fastpath as fastpath
    import repro.reliability.montecarlo as montecarlo
    import repro.service.execution as execution
    from repro.ecc.bch import BCHCode
    from repro.experiments.cache import RunCache, SweepCache
    from repro.experiments.report import ExperimentResult

    for module in (execution, runner):
        rec.patch(module, "build_plan", "planner.build_plan")
        rec.patch(module, "execute_plan", "planner.execute_plan", _note_plan)
    for cls in (RunCache, SweepCache):
        rec.patch(cls, "load", "cache.load")
        rec.patch(cls, "store", "cache.store", _note_store_bytes)
    rec.patch(SweepCache, "peek", "cache.load")
    for site in SIMULATE_SITES:
        rec.patch(importlib.import_module(site), "simulate", "memsim.simulate", _note_simulate)
    rec.patch(fastpath, "try_simulate_speculative", "memsim.fastpath", _note_fastpath)
    rec.patch(spec, "generate_trace", "traces.generate_trace")
    rec.patch(spec.SimSpec, "make_policy", "core.make_policy")
    for method in ("encode", "decode", "syndromes"):
        rec.patch(BCHCode, method, "ecc.bch")
    rec.patch(montecarlo, "simulate_error_rates", "reliability.montecarlo")
    for name in list(experiments.EXPERIMENTS):
        rec_name = "experiments." + experiment_group(name)
        experiments.EXPERIMENTS[name] = rec.wrap(experiments.EXPERIMENTS[name], rec_name)
    rec.patch(ExperimentResult, "render", "experiments.render")


def experiment_group(name: str) -> str:
    """``figures``, ``tables``, ``ablations`` or ``extras`` for an experiment id."""
    for prefix, group in (
        ("figure", "figures"), ("table", "tables"),
        ("ablation-", "ablations"), ("extra-", "extras"),
    ):
        if name.startswith(prefix):
            return group
    raise ValueError(f"experiment {name!r} has no group")


RUN_ALL_FIELDS = (
    "import.repro_cli_s",
    "planner.build_plan_s", "planner.execute_plan_s",
    "planner.units_simulated", "planner.units_cached",
    "cache.load_s", "cache.load_n", "cache.store_s", "cache.store_n", "cache.bytes_written",
    "memsim.simulate_s", "memsim.unplanned_simulate_n",
    "ecc.bch_s", "reliability.montecarlo_s",
    "experiments.figures_s", "experiments.tables_s",
    "experiments.ablations_s", "experiments.extras_s", "experiments.render_s",
)


def run_all_metrics(rec: Recorder, wall_s: float) -> Dict[str, float]:
    """Layer metrics of one traced ``run all`` process, plus its unattributed time."""
    selfs = rec.self_time_by_name()
    out: Dict[str, float] = {name: 0.0 for name in RUN_ALL_FIELDS}
    out["import.repro_cli_s"] = rec.counters["import.repro_cli_s"]
    for name, field in (
        ("planner.build_plan", "planner.build_plan_s"),
        ("planner.execute_plan", "planner.execute_plan_s"),
        ("cache.load", "cache.load_s"),
        ("cache.store", "cache.store_s"),
        ("memsim.simulate", "memsim.simulate_s"),
        ("ecc.bch", "ecc.bch_s"),
        ("reliability.montecarlo", "reliability.montecarlo_s"),
        ("experiments.render", "experiments.render_s"),
    ):
        out[field] = selfs.get(name, 0.0)
    for group in ("figures", "tables", "ablations", "extras"):
        out[f"experiments.{group}_s"] = selfs.get(f"experiments.{group}", 0.0)
    for span in rec.spans:
        attrs = span["attrs"]
        if span["name"] == "planner.execute_plan":
            out["planner.units_simulated"] += attrs["simulated"]
            out["planner.units_cached"] += attrs["cached"]
        elif span["name"] == "cache.load":
            out["cache.load_n"] += 1
        elif span["name"] == "cache.store":
            out["cache.store_n"] += 1
            out["cache.bytes_written"] += attrs["bytes"]
        elif span["name"] == "memsim.simulate" and not rec.under(span, "planner.execute_plan"):
            out["memsim.unplanned_simulate_n"] += 1
    attributed = out["import.repro_cli_s"] + sum(selfs.values())
    out["unattributed_s"] = wall_s - attributed
    return out

