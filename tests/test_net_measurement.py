"""The topology measurement plane: estimators, the measured view, and
the live loop from degradation to rerouting and from death to recovery.

Unit layers first (:class:`LinkEstimator` EWMA/baseline/decay math, the
:class:`MeasuredOverlayView` delegate-until-material contract), then the
integrated behaviours the plane exists for:

* passive-only operation (``probe_interval=0``) still measures every
  RPC round-trip for free;
* active probes are real frames charged to the ``net_measure`` ledger
  category;
* settled estimates over an *unchanged* topology never perturb
  selections (the parity guarantee, asserted against the sync engine);
* degrading a link's wire latency mid-run converges the RTT estimate
  and routes subsequent traffic around the link;
* the dead-path lifecycle: killing a peer marks its paths down and
  drops it from candidate selection, reviving it brings both back via
  a recovery probe;
* exhausted RPC retries leave structured, inspectable records without
  polluting the crash-bug channel (``LiveCluster.errors()``).
"""

import asyncio
import dataclasses
import time

import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
from repro.net.measurement import (
    SUSTAIN_S,
    LinkEstimator,
    MeasuredOverlayView,
    MeasurementPlane,
)
from repro.net.rpc import RetryPolicy


# ----------------------------------------------------------------------
# LinkEstimator
# ----------------------------------------------------------------------


def _cfg(**overrides) -> MeasurementConfig:
    return MeasurementConfig(**overrides)


def test_estimator_seeds_and_locks_baseline():
    est = LinkEstimator(_cfg(warmup=3))
    est.add_sample(0.010, now=0.0)
    assert est.srtt == pytest.approx(0.010)
    assert est.rttvar == pytest.approx(0.005)
    assert est.baseline is None  # not warm yet
    est.add_sample(0.010, now=0.1)
    assert est.baseline is None
    est.add_sample(0.010, now=0.2)
    assert est.baseline == pytest.approx(0.010)
    # steady input: ratio pins at 1.0, estimate == srtt
    assert est.ratio(now=0.3) == pytest.approx(1.0)
    assert est.estimate(now=0.3) == pytest.approx(0.010)


def test_estimator_ewma_tracks_inflation():
    cfg = _cfg(alpha=0.125, beta=0.25, warmup=3)
    est = LinkEstimator(cfg)
    for i in range(3):
        est.add_sample(0.010, now=i * 0.1)
    srtt = est.srtt
    est.add_sample(0.060, now=0.4)
    # one RFC 6298 step: srtt += alpha * (rtt - srtt)
    assert est.srtt == pytest.approx(srtt + 0.125 * (0.060 - srtt))
    for i in range(60):
        est.add_sample(0.060, now=0.5 + i * 0.1)
    assert est.srtt == pytest.approx(0.060, rel=0.05)
    assert est.ratio(now=7.0) == pytest.approx(6.0, rel=0.1)
    assert est.baseline == pytest.approx(0.010)  # baseline never re-locks


def test_estimator_staleness_decays_toward_baseline():
    cfg = _cfg(warmup=3, stale_after=5.0, decay_halflife=5.0)
    est = LinkEstimator(cfg)
    for i in range(3):
        est.add_sample(0.010, now=float(i))
    for i in range(40):
        est.add_sample(0.050, now=3.0 + i * 0.1)
    last = est.last_at
    srtt = est.srtt
    # fresh: no decay
    assert est.estimate(last + cfg.stale_after) == pytest.approx(srtt)
    # one half-life past staleness: deviation from baseline halves
    mid = est.estimate(last + cfg.stale_after + cfg.decay_halflife)
    assert mid == pytest.approx(0.010 + (srtt - 0.010) * 0.5)
    # far future: estimate is back at baseline, ratio back at ~1
    far = est.estimate(last + cfg.stale_after + 20 * cfg.decay_halflife)
    assert far == pytest.approx(0.010, rel=0.01)
    assert est.ratio(last + cfg.stale_after + 20 * cfg.decay_halflife) == (
        pytest.approx(1.0, rel=0.01)
    )


def test_estimator_ignores_negative_samples():
    est = LinkEstimator(_cfg())
    est.add_sample(-1.0, now=0.0)
    assert est.srtt is None
    assert est.samples == 0


def test_config_validation():
    with pytest.raises(ValueError):
        MeasurementConfig(probe_interval=-1)
    with pytest.raises(ValueError):
        MeasurementConfig(alpha=0.0)
    with pytest.raises(ValueError):
        MeasurementConfig(warmup=0)
    with pytest.raises(ValueError):
        MeasurementConfig(down_after=0)
    with pytest.raises(ValueError):
        MeasurementConfig(material_ratio=1.0)


# ----------------------------------------------------------------------
# MeasuredOverlayView
# ----------------------------------------------------------------------


def _overlay(n_peers=6, seed=7):
    return LiveCluster(
        ClusterConfig(n_peers=n_peers, seed=seed)
    ).scenario.overlay


def test_view_delegates_verbatim_when_clean():
    base = _overlay()
    view = MeasuredOverlayView(base)
    # the *same* router object — memoized paths are shared, selections
    # cannot diverge even in principle
    assert view.router is base.router
    assert view.latency(0, 3) == base.latency(0, 3)
    assert view.path_loss_add(0, 3) == base.path_loss_add(0, 3)
    assert view.n_peers == base.n_peers
    assert view.rebuilds == 0


def test_view_scales_link_and_preserves_link_order():
    base = _overlay()
    view = MeasuredOverlayView(base)
    link = base.router.link_order[0]
    declared = base.router.link_delay(*link)
    assert view.set_link_scale(link, 4.0)
    assert view.router is not base.router
    assert view.rebuilds == 1
    assert view.router.link_delay(*link) == pytest.approx(declared * 4.0)
    # same graph object, same canonical link order: pool capacity/usage
    # arrays indexed by link_order stay valid
    assert view.router.graph is base.router.graph
    assert view.router.link_order == base.router.link_order
    # idempotent installs don't thrash
    assert not view.set_link_scale(link, 4.0)
    assert view.rebuilds == 1
    # clearing the only delta returns to verbatim delegation
    assert view.set_link_scale(link, None)
    assert view.router is base.router


def test_view_down_peer_prices_links_unreachable():
    base = _overlay()
    view = MeasuredOverlayView(base)
    victim = 3
    assert view.set_peer_down(victim)
    assert not view.router.reachable(0, victim)
    assert view.latency(0, victim) == float("inf")
    assert view.path_loss_add(0, victim) == float("inf")
    # other pairs still route (mesh topologies keep alternatives)
    others = [p for p in base.peers() if p != victim]
    assert view.router.reachable(others[0], others[-1])
    assert view.clear_peer_down(victim)
    assert view.router is base.router
    assert view.latency(0, victim) == base.latency(0, victim)


def test_view_mutations_fire_cache_listeners():
    base = _overlay()
    view = MeasuredOverlayView(base)
    fired = []
    view.add_cache_listener(lambda: fired.append(1))
    link = base.router.link_order[0]
    view.set_link_scale(link, 3.0)
    assert len(fired) == 1
    view.set_peer_down(4)
    assert len(fired) == 2
    view.reset()
    assert len(fired) == 3
    assert view.link_scales == {}
    assert view.down_peers == set()


def test_scheduler_stall_does_not_reprice_but_degradation_does():
    """A burst of slow samples shorter than SUSTAIN_S (an event-loop
    stall delays only the exchanges in flight) must not re-price a
    link; inflation seen by every sample for SUSTAIN_S must."""
    base = _overlay()
    peer = base.router.link_order[0][0]
    neighbour = sorted(base.graph.neighbors(peer))[0]
    link = tuple(sorted((peer, neighbour)))
    clock = [0.0]
    view = MeasuredOverlayView(base)
    plane = MeasurementPlane(
        peer, base, None, MeasurementConfig(), view=view, clock=lambda: clock[0]
    )

    def sample(rtt, dt=0.01):
        clock[0] += dt
        plane.record_rtt(neighbour, rtt, "ProbeTransfer")

    for _ in range(5):
        sample(0.001)  # baseline locks at 1 ms
    for _ in range(6):
        sample(0.020, dt=0.005)  # a 30 ms stall: every sample in it reads 20x
    assert plane.reprices == 0 and view.link_scales == {}
    sample(0.001)  # the stall is over
    start = clock[0]
    while clock[0] - start < SUSTAIN_S + 0.05:
        sample(0.006)  # a 6x degradation: every sample stays slow
    assert plane.reprices >= 1
    assert link in view.link_scales


# ----------------------------------------------------------------------
# live cluster integration
# ----------------------------------------------------------------------


def _live_config(**overrides):
    base = dict(
        n_peers=6,
        n_functions=6,
        transport="loopback",
        seed=11,
        distributed=True,
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
        capacity_scale=10.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


async def _poll(predicate, timeout=15.0, tick=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(tick)
    return predicate()


def test_passive_only_mode_measures_rpc_roundtrips():
    async def scenario():
        cluster = LiveCluster(
            _live_config(measurement=MeasurementConfig(probe_interval=0.0))
        )
        async with cluster:
            for r in cluster.scenario.requests.batch(2):
                await cluster.compose(r, confirm=False, timeout=60)
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return stats, errors

    stats, errors = asyncio.run(scenario())
    assert errors == []
    assert stats["enabled"]
    assert stats["probes_sent"] == 0
    assert stats["samples_active"] == 0
    assert stats["samples_passive"] > 0


def test_active_probes_are_charged_to_net_measure():
    async def scenario():
        cluster = LiveCluster(
            _live_config(
                measurement=MeasurementConfig(probe_interval=0.02, probe_budget=4)
            )
        )
        async with cluster:
            snap = cluster.ledger.snapshot()
            await asyncio.sleep(0.3)
            delta = cluster.ledger.delta_since(snap)
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return delta, stats, errors

    delta, stats, errors = asyncio.run(scenario())
    assert errors == []
    assert stats["probes_sent"] > 0
    assert stats["samples_active"] > 0
    probe_count = delta.get("net_measure", (0, 0))[0]
    assert probe_count > 0
    # probing is idle-cluster traffic: no protocol category gets charged
    assert delta.get("bcp_probe", (0, 0))[0] == 0


def test_settled_estimates_keep_selection_parity():
    """The acceptance gate: measurement on, estimates settled, topology
    unchanged -> selections bit-identical to the synchronous engine."""

    async def scenario():
        # min_delta is raised from its 2 ms default: on a loaded test
        # runner, event-loop scheduling alone can spike a loopback RTT
        # by milliseconds — a *material* change by real-deployment
        # standards, but noise here.  The parity claim under test is
        # "no material delta -> bit-identical", so the test pins the
        # materiality floor above runner noise to keep the
        # unchanged-topology precondition true.
        cluster = LiveCluster(
            _live_config(
                measurement=MeasurementConfig(probe_interval=0.02, min_delta=0.05)
            )
        )
        requests = cluster.scenario.requests.batch(3)
        expected = [
            cluster.scenario.net.bcp.compose(r, confirm=False) for r in requests
        ]
        async with cluster:
            # let every plane lock baselines (warmup=3 samples per link)
            await asyncio.sleep(0.4)
            live = []
            for r in requests:
                live.append(await cluster.compose(r, confirm=False, timeout=60))
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return expected, live, stats, errors

    expected, live, stats, errors = asyncio.run(scenario())
    assert errors == []
    assert stats["samples_active"] > 0, "estimates must actually have settled"
    # sub-min_delta jitter: no link ever repriced, no private router
    # ever built — the precondition for the bit-identical claim below
    assert stats["reprices"] == 0
    assert stats["router_rebuilds"] == 0
    assert any(e.success for e in expected), "fixture must compose something"
    for sync_r, live_r in zip(expected, live):
        assert live_r.success == sync_r.success
        if sync_r.success:
            assert live_r.best.signature() == sync_r.best.signature()
        assert live_r.probes_sent == sync_r.probes_sent


def test_degraded_link_converges_and_reroutes():
    """Inflate one link's emulated wire latency mid-run: the source's
    estimator must converge on the inflation and its measured view must
    route subsequent traffic around the link."""

    scale = 0.1  # modeled delay -> wall seconds (2x bench's emulation,
    # so the absolute RTT delta comfortably clears min_delta)
    factor = 6.0
    degraded = {}
    holder = {}

    def wire_delay(src, dst):
        overlay = holder.get("overlay")
        if overlay is None or src == dst:
            return 0.0
        base = overlay.latency(src, dst) * scale
        link = (src, dst) if src < dst else (dst, src)
        return base * degraded.get(link, 1.0)

    async def scenario():
        cluster = LiveCluster(
            _live_config(
                latency=wire_delay,
                # full fanout: the first hop toward dest must be in the
                # source's probe set whatever the declared-delay order is
                measurement=MeasurementConfig(
                    probe_interval=0.05, probe_fanout=8, probe_budget=8
                ),
            )
        )
        overlay = holder["overlay"] = cluster.scenario.overlay
        gen = cluster.scenario.requests
        source, dest = 2, 4
        static_path = overlay.router.path(source, dest)
        hot_link = tuple(sorted(static_path[:2]))
        neighbour = hot_link[0] if hot_link[1] == source else hot_link[1]

        async with cluster:
            plane = cluster.daemons[source].measurement
            view = plane.view
            # settle the baseline on healthy wires
            assert await _poll(
                lambda: (plane.estimator(neighbour) or LinkEstimator(plane.config))
                .baseline
                is not None
            ), "baseline must lock on healthy wires"
            r = await cluster.compose(gen.next_request(source=source, dest=dest), timeout=60)
            assert r.success

            degraded[hot_link] = factor

            def rerouted():
                path = view.router.path(source, dest)
                links = {tuple(sorted(p)) for p in zip(path, path[1:])}
                return hot_link not in links

            assert await _poll(rerouted), "measured view must route around the link"
            # rerouting fires the moment the materiality gate (1.5x) is
            # crossed; the EWMA keeps converging toward the true 6x as
            # probes continue on the degraded link.  The snapshot
            # evaluates with the plane's own clock (the cluster clock),
            # so staleness decay reads the true sample age.
            assert await _poll(
                lambda: plane.stats()["links"][neighbour]["ratio"] > 3.0
            ), "estimate must keep converging toward the real inflation"
            ratio = plane.stats()["links"][neighbour]["ratio"]
            # two attempts: a compose overlapping one more reprice can
            # legitimately miss its QoS bound mid-repricing
            after = [
                await cluster.compose(gen.next_request(source=source, dest=dest), timeout=60)
                for _ in range(2)
            ]
            stats = plane.stats()
            errors = cluster.errors()
        return ratio, after, stats, errors

    ratio, after, stats, errors = asyncio.run(scenario())
    assert errors == []
    # converged well past the materiality gate, toward the real 6x
    assert ratio > 3.0
    assert stats["reprices"] >= 1
    assert stats["router_rebuilds"] >= 1
    assert any(r.success for r in after), "composes must keep succeeding on the detour"


def test_dead_path_lifecycle_kill_then_revive():
    """Satellite: kill a peer mid-run -> neighbours mark the path down
    and routing avoids it; revive the peer -> a recovery probe marks the
    path back up and routes return."""

    async def scenario():
        fast = RetryPolicy(timeout=0.15, retries=1, backoff=0.02)
        cluster = LiveCluster(
            _live_config(
                probe_retry=fast,
                control_retry=fast,
                # full fanout so every daemon adjacent to the victim
                # actively probes it (3-nearest might exclude it)
                measurement=MeasurementConfig(
                    probe_interval=0.05,
                    probe_timeout=0.1,
                    down_after=2,
                    probe_fanout=8,
                    probe_budget=8,
                ),
            )
        )
        victim = 0
        async with cluster:
            gen = cluster.scenario.requests
            baseline = await cluster.compose(
                gen.next_request(source=1, dest=2), timeout=60
            )

            watchers = [
                d
                for p, d in cluster.daemons.items()
                if p != victim and victim in d.measurement.neighbours
            ]
            assert watchers, "victim must be in someone's probe fanout"

            cluster.kill_peer(victim)
            assert await _poll(
                lambda: any(d.measurement.is_down(victim) for d in watchers)
            ), "consecutive probe failures must mark the path down"
            downed = next(d for d in watchers if d.measurement.is_down(victim))
            # routing avoids the corpse: dropped from candidate liveness
            # and priced unreachable in the measured view
            assert not downed.bcp.alive(victim)
            assert victim in downed.measurement.view.down_peers
            assert not downed.measurement.view.router.reachable(
                downed.peer_id, victim
            )
            during = [
                await cluster.compose(gen.next_request(source=3, dest=4), timeout=60)
                for _ in range(2)
            ]

            await cluster.revive_peer(victim)
            assert await _poll(
                lambda: not any(d.measurement.is_down(victim) for d in watchers)
            ), "a recovery probe must mark the path back up"
            assert victim not in downed.measurement.view.down_peers
            assert downed.bcp.alive(victim)
            assert downed.measurement.view.router.reachable(
                downed.peer_id, victim
            )
            after = await cluster.compose(
                gen.next_request(source=1, dest=2), timeout=60
            )
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return baseline, during, after, stats, errors

    baseline, during, after, stats, errors = asyncio.run(scenario())
    assert errors == []
    assert baseline.success
    assert any(
        r.success for r in during
    ), "cluster must keep composing around the corpse"
    assert after.success, "routes must return after recovery"
    assert stats["down_events"] >= 1
    assert stats["up_events"] >= 1


def test_rpc_exhaustion_leaves_structured_records():
    """Satellite: retry exhaustion against a dead peer is recorded with
    peer id, method and attempt count — inspectable via
    ``rpc_failures()`` / ``errors(include_rpc=True)`` while the plain
    ``errors()`` crash-bug channel stays clean."""

    async def scenario():
        fast = RetryPolicy(timeout=0.15, retries=1, backoff=0.02)
        cluster = LiveCluster(
            _live_config(
                probe_retry=fast,
                control_retry=fast,
                measurement=MeasurementConfig(
                    probe_interval=0.05,
                    probe_timeout=0.1,
                    probe_fanout=8,
                    probe_budget=8,
                ),
            )
        )
        async with cluster:
            gen = cluster.scenario.requests
            cluster.kill_peer(0)
            assert await _poll(lambda: cluster.rpc_failures())
            for _ in range(2):
                await cluster.compose(gen.next_request(source=3, dest=4), timeout=60)
            failures = cluster.rpc_failures()
            clean = cluster.errors()
            verbose = cluster.errors(include_rpc=True)
        return failures, clean, verbose

    failures, clean, verbose = asyncio.run(scenario())
    assert clean == []  # crash-bug channel unaffected
    assert failures
    for f in failures:
        assert f.peer == 0
        assert f.method
        # probes never retry (1 attempt); control RPCs use retries=1
        # (2 attempts); once the path is marked down, later calls fail
        # fast without sending at all (0 attempts)
        assert f.attempts in (0, 1, 2)
        assert f.error
    assert any("rpc_exhausted" in line and "peer=0" in line for line in verbose)


def test_measurement_disabled_reproduces_pre_plane_behaviour():
    async def scenario():
        cluster = LiveCluster(
            _live_config(measurement=MeasurementConfig(enabled=False))
        )
        async with cluster:
            for r in cluster.scenario.requests.batch(2):
                await cluster.compose(r, confirm=False, timeout=60)
            snap = cluster.ledger.snapshot()
            await asyncio.sleep(0.2)
            delta = cluster.ledger.delta_since(snap)
            stats = cluster.measurement_stats()
            planes = [d.measurement for d in cluster.daemons.values()]
            errors = cluster.errors()
        return delta, stats, planes, errors

    delta, stats, planes, errors = asyncio.run(scenario())
    assert errors == []
    assert not stats["enabled"]
    assert stats["probes_sent"] == 0
    assert stats["samples_passive"] == 0
    assert all(p is None for p in planes)
    assert delta.get("net_measure", (0, 0))[0] == 0
