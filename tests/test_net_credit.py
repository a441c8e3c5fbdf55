"""Termination credit covers the bookkeeping reports; one release round.

Every ``DiscoveryReport`` and ``ReservationReport`` carries half of its
probe's termination credit and is sent without the probe waiting for
its ack.  The destination's collection window closes only when the
credit sums back to 1, so selection must still see every report even
when the reports are overtaken by the rest of the wave.  These tests
hold the reports in flight, drop them, and count the release round a
measurement-only compose sends.
"""

import asyncio

import pytest

from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
from repro.net import codec
from repro.net import peer as peer_mod
from repro.net.rpc import RetryPolicy, RpcEndpoint
from repro.sim.tracing import EventTrace

HOLD = 0.3  # seconds a report spends in flight (below the 1 s RPC timeout)
REPORTS = (codec.DiscoveryReport, codec.ReservationReport)


def _config(**overrides):
    base = dict(n_peers=8, n_functions=5, seed=2, capacity_scale=4.0)
    base.update(overrides)
    return ClusterConfig(**base)


def _finish_reasons(trace):
    return {
        e.fields["request"]: e.fields.get("why")
        for e in trace.select("compose_finished")
    }


def _hold_reports(transport, held):
    """Delay every report frame by HOLD; all other frames pass at once."""
    send = transport.send

    async def delayed(src, dst, envelope):
        await asyncio.sleep(HOLD)
        await send(src, dst, envelope)

    async def send_holding(src, dst, envelope):
        body = envelope.get("body")
        if envelope.get("kind") == "req" and isinstance(body, REPORTS):
            held.append(type(body).__name__)
            asyncio.get_running_loop().create_task(delayed(src, dst, envelope))
            return
        await send(src, dst, envelope)

    transport.send = send_holding


def _spy_selection(monkeypatch, seen):
    """Record the remote wave load each destination ranks against."""
    select = peer_mod.select_composition

    def spy(candidates, qos, pool, *args, **kwargs):
        if isinstance(pool, peer_mod._WaveLoadView):
            seen.append((dict(pool._peer_used), dict(pool._link_used)))
        return select(candidates, qos, pool, *args, **kwargs)

    monkeypatch.setattr(peer_mod, "select_composition", spy)


def _run(world, requests, hold, monkeypatch):
    """Compose ``requests`` on a fresh cluster over the shared ``world``
    (one world, so both runs see the same component ids)."""
    trace = EventTrace()
    held, seen = [], []
    # measurement off: a held report's RTT would otherwise read as link
    # delay and reprice the destination's links
    config = _config(measurement=MeasurementConfig(enabled=False))
    cluster = LiveCluster(config, scenario=world, trace=trace)

    async def scenario():
        async with cluster:
            if hold:
                _hold_reports(cluster.transport, held)
            return [
                await cluster.compose(r, confirm=False, timeout=60)
                for r in requests
            ]

    with monkeypatch.context() as patch:
        _spy_selection(patch, seen)
        results = asyncio.run(scenario())
    return cluster, trace, results, held, seen


def test_held_reports_still_land_before_selection(monkeypatch):
    world = LiveCluster(_config()).scenario
    requests = world.requests.batch(4)
    base_cluster, base_trace, base, _, base_seen = _run(world, requests, False, monkeypatch)
    cluster, trace, held_results, held, seen = _run(world, requests, True, monkeypatch)

    for c in (base_cluster, cluster):
        assert c.errors() == []
        assert c.soft_tokens() == {}
    # the hold really applied to both report kinds
    assert "DiscoveryReport" in held and "ReservationReport" in held
    assert any(r.success for r in base), "fixture must compose something"
    # the windows closed by credit, never by the wall-clock fallback
    assert set(_finish_reasons(trace).values()) == {"credit-complete"}
    assert set(_finish_reasons(base_trace).values()) == {"credit-complete"}
    for a, b in zip(base, held_results):
        rid = a.request.request_id
        assert b.success == a.success, rid
        # reports land in another order, so the wave-load sums may
        # differ in the last bit; the choice itself must not
        assert b.best_cost == pytest.approx(a.best_cost, rel=1e-12), rid
        if a.success:
            assert b.best.signature() == a.best.signature(), rid
        assert b.phases.get("discovery") == a.phases.get("discovery"), rid
    # selection saw the same remote wave load (up to summation order)
    assert len(seen) == len(base_seen)
    for (peers, links), (base_peers, base_links) in zip(seen, base_seen):
        assert peers == pytest.approx(base_peers)
        assert links == pytest.approx(base_links)
    assert any(peers for peers, _ in seen), "no remote load was reported"


@pytest.mark.parametrize("lost", REPORTS, ids=lambda c: c.__name__)
def test_lost_report_returns_its_credit(lost):
    """A report whose RPC fails hands its credit back as ``lost``."""

    async def scenario():
        trace = EventTrace()
        # measurement off: dropped frames must not mark the destination
        # down, or the credit return itself would be refused fail-fast
        cluster = LiveCluster(
            _config(
                probe_retry=RetryPolicy(timeout=0.2, retries=1, backoff=0.01),
                measurement=MeasurementConfig(enabled=False),
            ),
            trace=trace,
        )
        dropped, returned = [], []
        async with cluster:
            transport = cluster.transport
            send = transport.send

            async def send_dropping(src, dst, envelope):
                body = envelope.get("body")
                if isinstance(body, codec.CreditReturn):
                    returned.append(body.reason)
                if envelope.get("kind") == "req" and isinstance(body, lost):
                    key = (src, envelope["id"])
                    if not dropped:
                        dropped.append(key)
                    if key == dropped[0]:
                        return  # every attempt of the first such report vanishes
                await send(src, dst, envelope)

            transport.send = send_dropping
            results = [
                await cluster.compose(r, confirm=False, timeout=60)
                for r in cluster.scenario.requests.batch(3)
            ]
        return cluster, trace, results, dropped, returned

    cluster, trace, results, dropped, returned = asyncio.run(scenario())
    assert dropped, f"no {lost.__name__} was sent"
    assert "lost" in returned
    assert cluster.errors() == []
    assert set(_finish_reasons(trace).values()) == {"credit-complete"}
    assert len(results) == 3
    assert cluster.soft_tokens() == {}


def test_double_counted_credit_is_a_daemon_error():
    """Credit conservation: a window credited past 1 reports an error."""

    async def scenario():
        cluster = LiveCluster(_config())
        async with cluster:
            transport = cluster.transport
            send = transport.send
            copied = []

            async def send_twice(src, dst, envelope):
                await send(src, dst, envelope)
                body = envelope.get("body")
                if not copied and isinstance(body, codec.FinalProbe):
                    # the same arrival again under a fresh message id, so
                    # RPC deduplication cannot absorb it
                    copied.append(body.request_id)
                    await send(src, dst, dict(envelope, id=envelope["id"] + 10**9))

            transport.send = send_twice
            for request in cluster.scenario.requests.batch(2):
                await cluster.compose(request, confirm=False, timeout=60)
        return cluster, copied

    cluster, copied = asyncio.run(scenario())
    assert copied
    errors = cluster.errors()
    assert errors and all("credit overflow" in e for e in errors), errors


def _count_calls(monkeypatch, counts):
    call = RpcEndpoint.call

    async def counting(self, dst, message, *args, **kwargs):
        name = type(message).__name__
        counts[name] = counts.get(name, 0) + 1
        return await call(self, dst, message, *args, **kwargs)

    monkeypatch.setattr(RpcEndpoint, "call", counting)


@pytest.mark.parametrize("distributed", [True, False], ids=["distributed", "shared"])
def test_one_release_round_per_compose(monkeypatch, distributed):
    n = 6
    counts = {}
    _count_calls(monkeypatch, counts)

    async def scenario():
        cluster = LiveCluster(_config(n_peers=n, distributed=distributed))
        rows = []
        async with cluster:
            requests = cluster.scenario.requests.batch(6)
            for i, request in enumerate(requests):
                confirm = i % 2 == 1
                counts.clear()
                result = await cluster.compose(request, confirm=confirm, timeout=60)
                rows.append(
                    (
                        confirm,
                        result,
                        dict(counts),
                        cluster.soft_tokens(),
                        cluster.pool_tokens(),
                    )
                )
        return cluster, rows

    cluster, rows = asyncio.run(scenario())
    assert cluster.errors() == []
    assert any(r.success for confirm, r, *_ in rows if not confirm)
    assert any(r.success for confirm, r, *_ in rows if confirm)
    established = set()
    for confirm, result, counts_, soft, pools in rows:
        rid = result.request.request_id
        # one SessionRelease to every other peer: a measurement-only run
        # keeps nothing, a confirmed one keeps the winner's tokens
        assert counts_.get("SessionRelease", 0) == n - 1, (rid, confirm, counts_)
        assert soft == {}, rid
        if confirm and result.success:
            established |= {tuple(t) for t in result.session_tokens}
        # only the established sessions' firm tokens remain allocated
        held = {tuple(t) for tokens in pools.values() for t in tokens}
        assert held == established, rid
