"""Scheme semantics pinned independently of the engines.

The batch and event engines now share one implementation of each
family's decisions (``policy.kernels()``), so batch == event checks only
the scheduler. This module pins the decisions themselves:
``tests/data/policy_decisions.json`` holds one scripted sequence of
``(op, line, t)`` and, per family, the decision stream and final policy
state recorded from the hook-by-hook implementations that preceded the
shared kernels. The script reaches tracked and untracked LWT reads,
conversions, Select differential writes, both W settings, and reads
with more than 17 errors (the long-interval entries). Each stream is
replayed through the kernels and through the ``on_*`` hooks.

It also guards the structure that keeps the engines from diverging: no
family re-implements a hook, and a plugin family that defines only
``kernels()`` runs on its own kernels in batch and matches the oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.precise import PreciseWritePolicy
from repro.core.policies import BaseDriftPolicy, LwtPolicy, PolicyContext, ScrubbingPolicy
from repro.core.registry import make_policy
from repro.memsim.config import MemoryConfig
from repro.memsim.policy import MODE_STR
from repro.traces.spec import workload

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "policy_decisions.json").read_text()
)

LONG_S = 131072.0

FAMILIES = {
    "Ideal": lambda ctx: make_policy("Ideal", ctx),
    "TLC": lambda ctx: make_policy("TLC", ctx),
    "Hybrid": lambda ctx: make_policy("Hybrid", ctx),
    "M-metric": lambda ctx: make_policy("M-metric", ctx),
    "Scrubbing": lambda ctx: make_policy("Scrubbing", ctx),
    "Scrubbing-W0": lambda ctx: make_policy("Scrubbing-W0", ctx),
    "LWT-4": lambda ctx: make_policy("LWT-4", ctx),
    "LWT-4-noconv": lambda ctx: make_policy("LWT-4-noconv", ctx),
    "Select-4:2": lambda ctx: make_policy("Select-4:2", ctx),
    "Precise(2sigma)": lambda ctx: PreciseWritePolicy(ctx),
    "LWT-4@S=131072": lambda ctx: LwtPolicy(ctx, k=4, interval_s=LONG_S),
    "Scrubbing@S=131072": lambda ctx: ScrubbingPolicy(ctx, interval_s=LONG_S),
}


def _fresh(name):
    ctx = PolicyContext(
        profile=workload(FIXTURE["workload"]),
        config=MemoryConfig(),
        seed=FIXTURE["seed"],
    )
    return FAMILIES[name](ctx)


def _steps(policy):
    for op, line, t in FIXTURE["script"]:
        if op == "scrub" and policy.scrub_interval_s is None:
            continue
        yield op, line, t


def _replay_kernels(policy):
    on_read, on_write, on_conv, on_scrub = policy.kernels()
    out = []
    for op, line, t in _steps(policy):
        if op == "read":
            mode, errors, *flags = on_read(line, t)
            out.append([MODE_STR[mode], errors, *map(int, flags)])
        elif op == "scrub":
            metric, rewrite, cells, errors = on_scrub(line, t)
            out.append([metric, int(rewrite), cells, errors])
        else:
            cells, flag, scale = (on_write if op == "write" else on_conv)(line, t)
            out.append([cells, int(flag), scale])
    return out


def _replay_hooks(policy):
    out = []
    for op, line, t in _steps(policy):
        if op == "read":
            d = policy.on_read(line, t)
            out.append([
                d.mode.value, d.errors_seen, int(d.convert_to_write),
                int(d.silent_corruption), int(d.uncorrectable), int(d.flag_access),
            ])
        elif op == "scrub":
            d = policy.on_scrub(line, t)
            out.append([d.metric, int(d.rewrite), d.cells_written, d.errors_seen])
        else:
            hook = policy.on_write if op == "write" else policy.on_conversion_write
            d = hook(line, t)
            out.append([d.cells_written, int(d.flag_update), d.latency_scale])
    return out


def _final_state(policy):
    return {
        "rng": str(policy.rng.bit_generator.state["state"]["state"]),
        "last_write_s": sorted([k, v] for k, v in policy.last_write_s.items()),
    }


def test_fixture_covers_every_family():
    assert sorted(FIXTURE["families"]) == sorted(FAMILIES)


@pytest.mark.parametrize("replay", [_replay_kernels, _replay_hooks], ids=["kernels", "hooks"])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_decision_stream_matches_fixture(name, replay):
    expected = FIXTURE["families"][name]
    policy = _fresh(name)
    got = replay(policy)
    assert len(got) == len(expected["decisions"])
    for step, (g, e) in enumerate(zip(got, expected["decisions"])):
        assert g == e, f"{name}: first divergence at step {step}"
    assert _final_state(policy) == expected["final_state"]


def test_script_reaches_every_branch():
    """The recorded streams exercise the branches the fixture exists for."""
    def reads(name):
        return [d for d in FIXTURE["families"][name]["decisions"] if len(d) == 6]

    lwt = reads("LWT-4")
    assert any(d[0] == "R" and d[5] for d in lwt)  # tracked
    assert any(d[0] == "RM" and d[5] for d in lwt)  # untracked
    assert any(d[2] for d in lwt)  # conversion
    assert not any(d[2] for d in reads("LWT-4-noconv"))
    select_writes = [
        d for d in FIXTURE["families"]["Select-4:2"]["decisions"]
        if len(d) == 3 and not d[1]
    ]
    assert select_writes  # differential writes
    scrubs = {
        name: [d for d in FIXTURE["families"][name]["decisions"] if len(d) == 4]
        for name in ("Scrubbing", "Scrubbing-W0")
    }
    assert all(d[1] for d in scrubs["Scrubbing-W0"])
    assert not all(d[1] for d in scrubs["Scrubbing"])
    assert any(d[1] > 17 for d in reads("LWT-4@S=131072"))
    assert any(d[1] > 17 for d in reads("Scrubbing@S=131072"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_family_reimplements_a_hook():
    """Hooks are adapters over kernels(); a family-level override would let
    the batch and event engines silently diverge."""
    import repro.baselines  # noqa: F401  (registers TLC, defines Precise)

    families = {c for c in _subclasses(BaseDriftPolicy) if c.__module__.startswith("repro.")}
    assert PreciseWritePolicy in families
    for cls in families:
        for hook in ("on_read", "on_write", "on_conversion_write", "on_scrub"):
            assert hook not in cls.__dict__, f"{cls.__name__} defines {hook}"


def test_overriding_a_hook_is_rejected():
    with pytest.raises(TypeError, match="define kernels"):

        class HookOverride(BaseDriftPolicy):
            def on_read(self, line, now_s):
                raise AssertionError("unreachable")
