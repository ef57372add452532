"""Tests for the serve daemon (repro.service.server) and its client.

All tests run a real :class:`SimServer` on a loopback port inside
``asyncio.run`` (plain sync test functions — no pytest-asyncio
dependency) and talk to it over actual HTTP through
:class:`~repro.service.client.ServeClient`.
"""

import asyncio
import json

import pytest

from repro.experiments.runner import clear_sweep_cache
from repro.service.client import ServeClient, ServeError
from repro.service.server import ServeConfig, SimServer


@pytest.fixture(autouse=True)
def clean_memo():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


DOC = {"schemes": ["Ideal"], "workloads": ["gcc"], "target_requests": 400}


def _config(**overrides):
    defaults = dict(port=0, cache=False, max_pending=64,
                    max_inflight_per_client=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def _with_server(config, body):
    server = SimServer(config)
    await server.start()
    try:
        return await body(server, ServeClient(port=server.port, client_id="test"))
    finally:
        await server.stop()


def run(body, **config_overrides):
    return asyncio.run(_with_server(_config(**config_overrides), body))


class TestEndpoints:
    def test_health(self):
        async def body(server, client):
            return await client.health()

        payload = run(body)
        assert payload["status"] == "ok"
        assert payload["pending"] == 0

    def test_schemes_catalog(self):
        async def body(server, client):
            return await client.schemes()

        catalog = run(body)
        names = [entry["name"] for entry in catalog["schemes"]]
        assert "Hybrid" in names and "LWT-4" in names
        assert catalog["alias_prefix"] == "readduo-"
        assert any(
            f["syntax"].startswith("LWT-") for f in catalog["families"]
        )

    def test_unknown_route_404(self):
        async def body(server, client):
            status, _headers, blob = await client.request("GET", "/nope")
            return status, json.loads(blob)

        status, payload = run(body)
        assert status == 404
        assert "error" in payload

    def test_wrong_method_405(self):
        async def body(server, client):
            status, _headers, _blob = await client.request("GET", "/v1/submit")
            return status

        assert run(body) == 405

    def test_invalid_spec_400(self):
        async def body(server, client):
            try:
                await client.submit({"schemes": ["NoSuchScheme"]})
            except ServeError as exc:
                return exc.status, exc.payload
            return None

        status, payload = run(body)
        assert status == 400
        assert "unknown schemes" in payload["error"]

    def test_invalid_json_400(self):
        async def body(server, client):
            status, _headers, _blob = await client.request(
                "POST", "/v1/submit", body=None
            )
            # An empty body parses as {} (a valid default spec would be
            # huge); send actual garbage through a raw socket instead.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            payload = b"{not json"
            writer.write(
                b"POST /v1/submit HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            await writer.wait_closed()
            return raw

        raw = run(body)
        assert b"400" in raw.split(b"\r\n", 1)[0]


class TestSubmit:
    def test_submit_returns_sweep_payload_shape(self):
        async def body(server, client):
            return await client.submit(DOC)

        payload = run(body)
        assert payload["target_requests"] == 400
        assert payload["seed"] == 42
        runs = payload["runs"]["gcc"]["Ideal"]
        assert "execution_time_ns" in runs and "avg_read_ns" in runs
        assert payload["plan"]["units"] == 1
        assert payload["plan"]["units_owned"] == 1
        assert payload["plan"]["owned_stats"]["units_simulated"] == 1

    def test_warm_resubmit_simulates_zero_units(self):
        async def body(server, client):
            await client.submit(DOC)
            second = await client.submit(DOC)
            return second, server.stats()

        second, stats = run(body)
        assert second["plan"]["owned_stats"]["units_simulated"] == 0
        assert second["plan"]["owned_stats"]["units_memo"] == 1
        assert stats["counters"]["tier_simulated"] == 1
        assert stats["counters"]["tier_memo"] == 1

    def test_concurrent_identical_requests_simulate_exactly_once(self):
        """The coalescing guarantee, proven via the ledger tier counters:

        N concurrent identical submits resolve exactly one unit by
        simulation; every other request joins the in-flight execution.
        """
        n_requests = 12

        async def body(server, client):
            results = await asyncio.gather(
                *(client.submit(DOC) for _ in range(n_requests))
            )
            return results, server.stats()

        results, stats = run(body)
        assert len(results) == n_requests
        # One ledger record with tier "simulated", and nothing else
        # executed: duplicates coalesced rather than re-planned.
        assert stats["counters"]["tier_simulated"] == 1
        owned = sum(r["plan"]["units_owned"] for r in results)
        joined = sum(r["plan"]["units_joined"] for r in results)
        assert owned == 1
        assert joined == n_requests - 1
        assert stats["counters"]["units_coalesced"] == n_requests - 1
        assert stats["coalescing_ratio"] == pytest.approx(
            (n_requests - 1) / n_requests
        )
        # Every coalesced request still got the full result payload.
        reference = json.dumps(results[0]["runs"], sort_keys=True)
        for result in results[1:]:
            assert json.dumps(result["runs"], sort_keys=True) == reference

    def test_concurrent_distinct_requests_all_execute(self):
        docs = [dict(DOC, seed=seed) for seed in (1, 2, 3)]

        async def body(server, client):
            await asyncio.gather(*(client.submit(doc) for doc in docs))
            return server.stats()

        stats = run(body)
        assert stats["counters"]["tier_simulated"] == 3
        assert stats["counters"]["units_coalesced"] == 0

    def test_served_results_match_local_execution(self):
        async def body(server, client):
            return await client.submit(DOC)

        served = run(body)

        from repro.experiments.spec import SimSpec
        from repro.service import ExecutionService, sweep_payload

        clear_sweep_cache()
        service = ExecutionService(cache=False)
        spec = SimSpec.from_dict(DOC)
        local = sweep_payload(spec, service.sweep(spec))
        served.pop("plan")
        assert json.dumps(served, sort_keys=True) == json.dumps(
            local, sort_keys=True
        )


class TestStreaming:
    def test_stream_emits_unit_events_then_result(self):
        async def body(server, client):
            return await client.submit_streaming(DOC)

        events, result = run(body)
        assert result["runs"]["gcc"]["Ideal"]["scheme"] == "Ideal"
        kinds = [event["kind"] for event in events]
        assert kinds == ["run"]
        assert events[0]["tier"] == "simulated"
        assert events[0]["workload"] == "gcc"

    def test_streamed_join_reports_coalesced_event(self):
        async def body(server, client):
            plain, streamed = await asyncio.gather(
                client.submit(DOC), client.submit_streaming(DOC)
            )
            return plain, streamed

        _plain, (events, result) = run(body)
        kinds = {event["kind"] for event in events}
        # The streamed request either owned the unit (run event) or
        # joined the plain one (coalesced marker) — both stream progress.
        assert kinds <= {"run", "coalesced"}
        assert result["plan"]["units"] == 1


class TestBackpressure:
    def test_global_queue_bound_rejects_with_429(self):
        async def body(server, client):
            try:
                await client.submit(DOC)
            except ServeError as exc:
                return exc, server.stats()
            return None

        result = run(body, max_pending=0)
        assert result is not None
        exc, stats = result
        assert exc.status == 429
        assert exc.payload["retry_after_s"] == 1
        assert stats["counters"]["rejected_queue_full"] == 1

    def test_per_client_limit_rejects_excess_inflight(self):
        async def body(server, client):
            # Hold the single executor thread hostage with one slow
            # request so the rest stack up as admitted-but-unfinished.
            blocker = asyncio.ensure_future(client.submit(dict(DOC, seed=77)))
            await asyncio.sleep(0.01)
            outcomes = await asyncio.gather(
                *(client.submit(dict(DOC, seed=i)) for i in range(6)),
                return_exceptions=True,
            )
            await blocker
            return outcomes, server.stats()

        outcomes, stats = run(body, max_inflight_per_client=2)
        rejected = [
            o for o in outcomes
            if isinstance(o, ServeError) and o.status == 429
        ]
        assert rejected, "expected at least one per-client 429"
        assert stats["counters"]["rejected_client_limit"] == len(rejected)

    def test_distinct_clients_have_separate_buckets(self):
        async def body(server, client):
            other = ServeClient(port=server.port, client_id="other")
            first, second = await asyncio.gather(
                client.submit(DOC), other.submit(DOC), return_exceptions=True
            )
            return first, second

        first, second = run(body, max_inflight_per_client=1)
        assert not isinstance(first, Exception)
        assert not isinstance(second, Exception)


class TestMemoControl:
    def test_memo_clear_endpoint(self):
        async def body(server, client):
            await client.submit(DOC)
            before = server.service.memo_size()
            cleared = await client.clear_memo()
            return before, cleared

        before, cleared = run(body)
        assert before >= 1
        assert cleared == {"cleared": True, "memo_runs": 0}

    def test_memo_capacity_override_restored_on_stop(self):
        from repro.experiments.planner import run_memo_capacity

        original = run_memo_capacity()

        async def body(server, client):
            return run_memo_capacity()

        inside = run(body, memo_capacity=17)
        assert inside == 17
        assert run_memo_capacity() == original


class TestStats:
    def test_stats_document_shape(self):
        async def body(server, client):
            await client.submit(DOC)
            return await client.stats()

        stats = run(body)
        assert stats["service"]["jobs"] == 1
        assert stats["limits"]["max_pending"] == 64
        assert stats["ledger_records"] == 1
        assert 0.0 <= stats["coalescing_ratio"] <= 1.0


class TestExecutorPool:
    """The bounded submit-executor pool (serve's tail-latency fix)."""

    def test_pool_size_reported_in_stats(self):
        async def body(server, client):
            return await client.stats()

        stats = run(body, executor_workers=3)
        assert stats["limits"]["executor_workers"] == 3
        assert stats["distributed"] is False
        assert stats["coordinator"] is None

    def test_warm_submit_bypasses_long_cold_simulation(self):
        # The head-of-line scenario the pool exists for: a memo-warm
        # submit must not queue behind a long-running cold simulation.
        async def body(server, client):
            await client.submit(DOC)  # warm DOC's unit in the memo
            long_doc = {
                "schemes": ["Hybrid"],
                "workloads": ["mcf"],
                "target_requests": 200_000,
            }
            long_task = asyncio.ensure_future(client.submit(long_doc))
            await asyncio.sleep(0.05)  # let the long sim take a thread
            await client.submit(DOC)
            warm_done_first = not long_task.done()
            await long_task
            return warm_done_first

        assert run(body, executor_workers=2)

    def test_concurrent_distinct_submits_all_complete(self):
        async def body(server, client):
            docs = [dict(DOC, seed=500 + i) for i in range(6)]
            payloads = await asyncio.gather(
                *(client.submit(doc) for doc in docs)
            )
            return payloads, await client.stats()

        payloads, stats = run(body, executor_workers=2)
        assert len(payloads) == 6
        assert stats["counters"]["units_owned"] == 6
        seeds = {p["seed"] for p in payloads}
        assert seeds == {500 + i for i in range(6)}


async def _raw_exchange(server, payload: bytes) -> bytes:
    """Send raw bytes on a real socket; return the whole response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(-1), 10.0)
    finally:
        writer.close()
        await writer.wait_closed()


def _status(raw: bytes) -> int:
    return int(raw.split(b"\r\n", 1)[0].split(b" ")[1])


class TestMalformedRequests:
    """Broken or stalled requests get a 4xx and a counter, never a 500."""

    @pytest.mark.parametrize(
        "payload",
        [
            b"GARBAGE\r\n\r\n",
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
        ],
        ids=["request-line", "non-numeric-length", "negative-length"],
    )
    def test_malformed_is_400_and_counted(self, payload):
        async def body(server, client):
            raw = await _raw_exchange(server, payload)
            return raw, await client.stats()

        raw, stats = run(body)
        assert _status(raw) == 400
        assert "error" in json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert stats["counters"]["bad_requests"] == 1
        assert stats["counters"]["errors"] == 0

    @pytest.mark.parametrize("scheme", ["LWT-3", "Select-4:0", "Select-3:1"])
    def test_impossible_scheme_parameters_are_400_not_500(self, scheme):
        # The name matches a family pattern but no policy can be built
        # from it: validation must reject it before anything runs.
        doc = json.dumps(
            {"schemes": [scheme], "workloads": ["gcc"], "target_requests": 400}
        ).encode()
        payload = (
            b"POST /v1/submit HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + f"Content-Length: {len(doc)}\r\n\r\n".encode()
            + doc
        )

        async def body(server, client):
            raw = await _raw_exchange(server, payload)
            return raw, await client.stats()

        raw, stats = run(body)
        assert _status(raw) == 400
        assert "unknown schemes" in json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]
        assert stats["counters"]["errors"] == 0

    def test_oversized_body_is_413(self):
        async def body(server, client):
            raw = await _raw_exchange(
                server,
                b"POST /v1/submit HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            )
            return raw, await client.stats()

        raw, stats = run(body)
        assert _status(raw) == 413
        assert stats["counters"]["bad_requests"] == 1
        assert stats["counters"]["errors"] == 0

    @pytest.mark.parametrize(
        "payload",
        [b"", b"POST /v1/submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"],
        ids=["silent-client", "short-body"],
    )
    def test_stalled_read_is_408_and_counted(self, payload, monkeypatch):
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)

        async def body(server, client):
            raw = await _raw_exchange(server, payload)
            return raw, await client.stats()

        raw, stats = run(body)
        assert _status(raw) == 408
        assert stats["counters"]["timeouts"] == 1
        assert stats["counters"]["errors"] == 0
        assert stats["counters"]["bad_requests"] == 0
