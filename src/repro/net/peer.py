"""The live peer daemon: SpiderNet's per-hop protocol over a transport.

Each daemon owns one overlay peer id and processes protocol messages as
asyncio tasks, *reusing the wrapped* :class:`~repro.core.bcp.BCP`
*per-hop methods exactly as* :mod:`repro.core.async_bcp` *does* — Steps
2.1–2.4 of the paper exist once, in ``bcp.py``:

* ``BCP._admit``          — Step 2.1 admission (QoS check + soft alloc)
  at the probe's *receiving* peer,
* ``derive_next_functions`` + ``BCP._filter_components`` +
  ``BCP._select_components`` — Steps 2.2/2.3 at the expanding peer,
* ``BCP._final_hop`` / ``merge_probes`` / ``select_composition`` — the
  destination's Step 3,
* ``BCP._tokens_of`` + pool confirm — the Step 4 ack pass.

**Termination detection.**  The synchronous engine knows the wave is
over when its heap drains; a distributed destination cannot see remote
queues.  Instead every composition carries one unit of *credit*: the
root probe holds ``Fraction(1)``, each fan-out splits the parent's
credit exactly among its children, and credit returns to the destination
on arrival (``FinalProbe``), prune/duplicate/late drop or send failure
(``CreditReturn``).  Bookkeeping reports carry credit too: the source's
``DiscoveryReport`` and every admitting peer's ``ReservationReport`` take
half of their probe's credit and go out as background tasks while the
probe moves on with the other half.  The collection window closes exactly
when the credit sums back to 1 — so every report has landed before
selection runs, with no hop waiting on a report's ack — or when a
wall-clock fallback fires, covering credit lost with a crashed peer.

**Soft state.**  Reservations made during admission arm per-token expiry
timers (the paper's soft allocation): a reservation not confirmed by the
setup ack within the timeout evaporates on its own, which is also what
cleans up after probes that were still in flight when the destination
closed the window.  Confirmed (firm) tokens are tracked separately so a
later release — a setup ack that fails partway, or a session teardown —
frees them too instead of leaking capacity.

**Distributed mode.**  With a ``directory``/``ring``/``dht`` triple the
daemon stops consulting the shared :class:`ServiceRegistry` entirely:
component meta-data lives in the :class:`DirectorySlice` of the peer
owning ``hash(function)`` in the DHT id space (plus its replica-ring
successors), registration and discovery travel as
:class:`~repro.net.codec.RegisterComponent` /
:class:`~repro.net.codec.LookupRequest` RPCs, and the lookup RTT is
derived from the same Pastry route a sync lookup would take — so the
message ledger and probe timing stay comparable across modes.

**Directory acceleration tier.**  With a
:class:`~repro.net.directory.DirectoryTierConfig` enabled (the cluster
default), repeated lookups stop converging on the key's owner: each
daemon keeps a TTL'd *positive cache* of resolved duplicate lists
(invalidated precisely on registration churn via content versions and
``ReplicaInvalidate``), a *negative cache* built from the owners' Bloom
summaries (absent functions short-circuit without routing the DHT), and
serves keys whose owner pushed replica rows here (``ReplicatePush``,
triggered by the owner's decayed serve rate).  A cache hit returns the
exact (components, rtt) pair the routed lookup produced the first time
— the DHT route is deterministic over a static ring, so selections and
probe timing are bit-identical with the tier on or off; only the
``dht_route`` / ``net_directory`` charges genuinely shrink, which the
ledger's ``dir_*`` counters audit.  Staleness is bounded by the awaited
invalidation fan-out on re-registration plus the cache TTL backstop
(see ``docs/ARCHITECTURE.md`` for the exact window).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Awaitable, Dict, List, Optional, Set, Tuple

from ..core.bcp import BCP, CompositionResult, derive_next_functions
from ..core.probe import Probe
from ..core.quota import split_budget
from ..core.request import CompositeRequest
from ..core.resources import InsufficientResources
from ..core.selection import admit_graph, merge_probes, select_composition
from ..core.service_graph import ServiceGraph
from ..dht.id_space import key_for
from ..dht.ring import RingSnapshot
from ..discovery.metadata import ServiceMetadata
from ..services.component import ComponentSpec
from . import codec
from .accounting import LedgerTap
from .admission import LoadGuard
from .bloom import BloomFilter
from .directory import DirectorySlice, DirectoryTierConfig
from .rpc import DedupCache, RetryPolicy, RpcEndpoint, RpcError

__all__ = ["PeerDaemon", "LiveSession"]


@dataclass
class LiveSession:
    """Source-side record of an established composition."""

    request_id: int
    graph: ServiceGraph
    tokens: Tuple[Tuple, ...]
    established_at: float
    failed: bool = False
    pings: int = 0


@dataclass
class _Collection:
    """Destination-side state of one probe collection window."""

    request: CompositeRequest
    confirm: bool
    budget: int
    result: CompositionResult
    started: float
    arrivals: Dict[Tuple, Probe] = field(default_factory=dict)
    credit: Fraction = Fraction(0)
    discovery: float = 0.0
    deadline_handle: Optional[asyncio.TimerHandle] = None
    done: bool = False
    # distributed mode: remote peers' wave reservations, accumulated from
    # ReservationReport frames ((peer, rtype) -> amount, link -> bandwidth)
    wave_peer_used: Dict[Tuple[int, str], float] = field(default_factory=dict)
    wave_link_used: Dict[Tuple[int, int], float] = field(default_factory=dict)


class _WaveLoadView:
    """The pool interface ψλ needs, over (local pool − remote wave load).

    A distributed destination's pool holds only the claims it admitted
    itself; the rest of the wave's soft reservations live in the
    admitting peers' pools and arrive as :class:`ReservationReport`
    deltas.  Subtracting those deltas from the local view reconstructs
    exactly the availability a shared-pool engine would see at selection
    time — wire-only, no remote reads.
    """

    def __init__(
        self,
        pool,
        peer_used: Dict[Tuple[int, str], float],
        link_used: Dict[Tuple[int, int], float],
    ) -> None:
        self._pool = pool
        self._peer_used = peer_used
        self._link_used = link_used

    @property
    def resource_types(self):
        return self._pool.resource_types

    def available_amount(self, peer: int, rtype: str) -> float:
        base = self._pool.available_amount(peer, rtype)
        return max(base - self._peer_used.get((peer, rtype), 0.0), 0.0)

    def path_available_bandwidth(self, src: int, dst: int) -> float:
        if src == dst:
            return math.inf
        links = self._pool.overlay.router.links(src, dst)
        if not links:
            return math.inf
        low = min(
            self._pool.link_available(l) - self._link_used.get(tuple(sorted(l)), 0.0)
            for l in links
        )
        return low if low > 0.0 else 0.0


class PeerDaemon:
    """One live peer: registry slice, probe processing, session handling."""

    def __init__(
        self,
        peer_id: int,
        bcp: BCP,
        endpoint: RpcEndpoint,
        peers: List[int],
        counters: Dict[int, int],
        tap: Optional[LedgerTap] = None,
        trace=None,
        clock=None,
        soft_timeout: float = 30.0,
        collect_wall_timeout: float = 10.0,
        probe_retry: Optional[RetryPolicy] = None,
        control_retry: Optional[RetryPolicy] = None,
        maint_interval: Optional[float] = None,
        directory: Optional[DirectorySlice] = None,
        ring: Optional[RingSnapshot] = None,
        dht=None,
        dir_tier: Optional[DirectoryTierConfig] = None,
        measurement=None,
        guard: Optional[LoadGuard] = None,
        composer=None,
    ) -> None:
        self.peer_id = peer_id
        self.bcp = bcp
        self.endpoint = endpoint
        self.peers = list(peers)
        # distributed mode: all three are set and the shared registry is
        # never read — discovery goes over the wire to the key's owner
        self.directory = directory
        self.ring = ring
        self.dht = dht if dht is not None else getattr(bcp.registry, "dht", None)
        self.dir_tier = dir_tier
        self.counters = counters  # shared rid -> probes_sent (harness bookkeeping)
        self.tap = tap
        self.trace = trace
        self._clock = clock if clock is not None else time.monotonic
        self.soft_timeout = soft_timeout
        self.collect_wall_timeout = collect_wall_timeout
        self.probe_retry = probe_retry or RetryPolicy(timeout=1.0, retries=2, backoff=0.05)
        self.control_retry = control_retry or RetryPolicy(timeout=1.0, retries=2, backoff=0.05)
        self.maint_interval = maint_interval
        # measurement plane (None when measurement is disabled): fed by
        # the endpoint's RTT/failure hooks, owner of the active prober
        self.measurement = measurement
        # admission control (None = pre-admission behaviour, bit-exact)
        self.guard = guard
        # optional CompositionStrategy (repro.core.strategies): when set
        # (shared-state clusters only), start_compose runs it at the
        # source daemon instead of probing over the wire
        self.composer = composer
        self.stopped = False
        self.errors: List[str] = []
        # structured retry-exhaustion records (RpcFailure) — expected
        # failure-path data (dead peers), deliberately separate from
        # ``errors``, which stays reserved for daemon *bugs*
        self.rpc_failures: List = []
        self._tokens: Dict[int, Set[Tuple]] = {}  # rid -> soft tokens owned here
        self._confirmed: Dict[int, Set[Tuple]] = {}  # rid -> firm tokens owned here
        self._timers: Dict[Tuple[int, Tuple], asyncio.TimerHandle] = {}
        self._seen = DedupCache()  # (rid, Probe.dedup_key()) application dedup
        # rid -> {(function, origin): future} single-flight lookup dedup
        # (the tier-off wire path; entries are evicted when the request's
        # session completes — release broadcast, source return, finalize)
        self._lookup_flight: Dict[int, Dict[Tuple[str, int], asyncio.Future]] = {}
        # directory tier state (tier-on distributed mode only):
        # function -> (components, rtt, expires) positive cache
        self._dir_cache: Dict[str, Tuple[Tuple[ServiceMetadata, ...], float, float]] = {}
        # function -> route-priced rtt; never invalidated (the ring and
        # topology are static, so the route is a pure function of the key)
        self._rtt_cache: Dict[str, float] = {}
        # serving peer -> (BloomFilter, expires) negative-cache summaries
        self._owner_blooms: Dict[int, Tuple[BloomFilter, float]] = {}
        # function -> in-flight miss future (daemon-wide single flight:
        # concurrent misses share one route+fetch, then hit the cache)
        self._miss_flight: Dict[str, asyncio.Future] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.neg_hits = 0
        self.replica_serves = 0
        self._collections: Dict[int, _Collection] = {}
        self._pending_results: Dict[int, asyncio.Future] = {}
        self.sessions: Dict[int, LiveSession] = {}
        self._tasks: Set[asyncio.Task] = set()
        endpoint.on(codec.ComposeBegin, self._on_begin)
        endpoint.on(codec.DiscoveryReport, self._on_discovery)
        endpoint.on(codec.ProbeTransfer, self._on_probe)
        endpoint.on(codec.FinalProbe, self._on_final)
        endpoint.on(codec.CreditReturn, self._on_credit)
        endpoint.on(codec.ReservationReport, self._on_reservation)
        endpoint.on(codec.SessionRelease, self._on_release)
        endpoint.on(codec.SessionConfirm, self._on_confirm)
        endpoint.on(codec.ComposeResult, self._on_result)
        endpoint.on(codec.MaintenancePing, self._on_ping)
        endpoint.on(codec.RegisterComponent, self._on_register)
        endpoint.on(codec.RegisterBatch, self._on_register_batch)
        endpoint.on(codec.LookupRequest, self._on_lookup)
        endpoint.on(codec.ReplicatePush, self._on_replica_push)
        endpoint.on(codec.ReplicaInvalidate, self._on_replica_invalidate)
        endpoint.on(codec.PathProbe, self._on_path_probe)
        # passive measurement intake: every RPC round-trip feeds the
        # plane, every retry exhaustion is recorded (and feeds dead-path
        # detection) — see rpc.RpcEndpoint.on_rtt/on_failure
        endpoint.on_rtt = self._on_rpc_rtt
        endpoint.on_failure = self._on_rpc_failure
        # fail-fast: calls to a peer the transport killed (or the plane
        # marked down) abort instead of burning the retry/timeout budget
        endpoint.peer_down = self._peer_down

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def distributed(self) -> bool:
        """True when discovery is DHT-routed instead of shared-registry."""
        return self.directory is not None and self.ring is not None

    @property
    def tier_enabled(self) -> bool:
        """True when the directory acceleration tier is active."""
        return (
            self.distributed
            and self.dir_tier is not None
            and self.dir_tier.enabled
        )

    def _now(self) -> float:
        return float(self._clock())

    def _trace(self, category: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(category, time=self._now(), peer=self.peer_id, **fields)

    def _spawn(self, coro: Awaitable) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)
        return task

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self._trace("daemon_error", error=f"{type(exc).__name__}: {exc}")

    def _on_rpc_rtt(self, dst: int, rtt: float, method: str) -> None:
        if self.measurement is not None:
            self.measurement.record_rtt(dst, rtt, method)

    def _on_rpc_failure(self, failure) -> None:
        if self.stopped:
            # teardown noise: a daemon being shut down mid-exchange is
            # not a peer observing a failure — recording it would make
            # every clean cluster stop look like an incident
            return
        self.rpc_failures.append(failure)
        self._trace(
            "rpc_exhausted",
            target=failure.peer,
            method=failure.method,
            attempts=failure.attempts,
        )
        if self.measurement is not None:
            self.measurement.record_failure(failure.peer, failure.method)

    def _peer_down(self, dst: int) -> bool:
        """RPC-layer fail-fast predicate: is ``dst`` known unreachable?

        Combines the transport's kill switch (authoritative within a
        process: a killed peer *cannot* answer) with the measurement
        plane's dead-path verdict (``down_after`` consecutive exhausted
        exchanges).  Both only ever short-circuit calls that were going
        to exhaust their retries anyway — outcomes are unchanged, the
        per-hop timeout burn is not.  Measurement recovery probes bypass
        this via ``ignore_down`` so down paths can still be re-proved."""
        transport = self.endpoint.transport
        if transport.is_killed(dst):
            return True
        return self.measurement is not None and self.measurement.is_down(dst)

    async def _on_path_probe(self, src: int, msg: codec.PathProbe) -> Optional[dict]:
        """Measurement echo: answer immediately (no daemon state touched)."""
        if self.stopped:
            return {"error": "stopped"}
        return {"ack": codec.ProbeAck(seq=msg.seq, echo=msg.sent_at)}

    def stop(self) -> None:
        """Halt message processing and cancel timers/tasks (crash or teardown)."""
        self.stopped = True
        if self.measurement is not None:
            self.measurement.stop()
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for col in self._collections.values():
            if col.deadline_handle is not None:
                col.deadline_handle.cancel()
        self._lookup_flight.clear()
        self._miss_flight.clear()
        for task in list(self._tasks):
            task.cancel()

    async def drain(self) -> None:
        """Await all in-flight tasks (clean teardown path)."""
        tasks = [t for t in self._tasks if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def abort_pending(self, reason: str = "aborted") -> None:
        """Resolve every in-flight ``start_compose`` with a failed result.

        The orderly-shutdown half of the teardown contract: callers
        blocked in :meth:`start_compose` get a structured failure
        (``failure_reason=reason``) instead of waiting out wall timeouts
        against a cluster that is being dismantled under them."""
        for rid, future in list(self._pending_results.items()):
            if not future.done():
                future.set_result(
                    codec.ComposeResult(
                        request_id=rid,
                        success=False,
                        graph=None,
                        qos=None,
                        cost=math.inf,
                        failure_reason=reason,
                        probes_sent=0,
                        candidates_examined=0,
                        setup_time=0.0,
                    )
                )

    # ------------------------------------------------------------------
    # soft-state timers
    # ------------------------------------------------------------------
    def _arm_expiry(self, rid: int, token: Tuple) -> None:
        if not self.soft_timeout or self.soft_timeout <= 0:
            return
        loop = asyncio.get_running_loop()
        self._timers[(rid, token)] = loop.call_later(
            self.soft_timeout, self._expire_token, rid, token
        )

    def _expire_token(self, rid: int, token: Tuple) -> None:
        self._timers.pop((rid, token), None)
        mine = self._tokens.get(rid)
        if not mine or token not in mine:
            return
        mine.discard(token)
        try:
            self.bcp.pool.cancel(token)
        except InsufficientResources:
            pass  # became firm concurrently; release() owns it now
        self._trace("reservation_expired", request=rid, token=list(token))

    def _cancel_timer(self, rid: int, token: Tuple) -> None:
        handle = self._timers.pop((rid, token), None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # source side: start a composition
    # ------------------------------------------------------------------
    async def start_compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
        timeout: Optional[float] = None,
    ) -> CompositionResult:
        """Run one live composition from this (source) peer."""
        if request.source_peer != self.peer_id:
            raise ValueError(f"request sources at {request.source_peer}, daemon is {self.peer_id}")
        if self.composer is not None:
            # a global-view strategy is attached (shared-state mode):
            # compose locally at the source daemon — no probes on the
            # wire, only the strategy's own ledger accounting
            rid = request.request_id
            self._trace(
                "compose_started", request=rid, dest=request.dest_peer,
                budget=0, composer=self.composer.name,
            )
            result = self.composer.compose(request, budget=budget, confirm=confirm)
            self._trace(
                "compose_finished", request=rid, success=result.success,
                composer=self.composer.name,
            )
            return result
        cfg = self.bcp.config
        beta = cfg.budget if budget is None else budget
        if beta < 1:
            raise ValueError(f"probing budget must be >= 1, got {beta}")
        rid = request.request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending_results[rid] = future
        self._trace("compose_started", request=rid, dest=request.dest_peer, budget=beta)
        try:
            reply = await self.endpoint.call(
                request.dest_peer, codec.ComposeBegin(rid, request, beta, confirm)
            )
            busy = reply.get("busy") if isinstance(reply, dict) else None
            if isinstance(busy, codec.Busy):
                # admission refused the window in the begin reply itself:
                # one round trip, no probes sent, no reservation anywhere
                # — there is nothing to release and nothing to await
                self._trace(
                    "compose_rejected", request=rid,
                    reason=busy.reason, inflight=busy.inflight,
                )
                result = CompositionResult(request=request, success=False)
                result.failure_reason = (
                    f"busy: destination shed the request "
                    f"({busy.reason} limit, {busy.inflight} in flight)"
                )
                return result
            root = Probe.initial(request, beta)
            await self._expand_probe(root, Fraction(1), rid)
            wall = timeout if timeout is not None else self.collect_wall_timeout + 30.0
            msg = await asyncio.wait_for(future, wall)
        finally:
            self._pending_results.pop(rid, None)
            # the source's root expansion opened this rid's flight map;
            # the session is over for this daemon either way (the release
            # broadcast also clears it, but not when the compose failed
            # before the destination ever finalized)
            self._lookup_flight.pop(rid, None)
        return self._result_from_message(request, msg)

    @staticmethod
    def _result_from_message(request: CompositeRequest, msg: codec.ComposeResult) -> CompositionResult:
        result = CompositionResult(request=request, success=msg.success)
        result.best = msg.graph
        result.best_qos = msg.qos
        result.best_cost = msg.cost
        result.failure_reason = msg.failure_reason
        result.probes_sent = msg.probes_sent
        result.candidates_examined = msg.candidates_examined
        result.setup_time = msg.setup_time
        result.phases = dict(msg.phases)
        result.session_tokens = [tuple(t) for t in msg.session_tokens]
        return result

    # ------------------------------------------------------------------
    # steps 2.2-2.4: expansion at the probe's current peer
    # ------------------------------------------------------------------
    async def _expand_probe(self, probe: Probe, credit: Fraction, rid: int) -> None:
        cfg = self.bcp.config
        request = probe.request
        candidates = derive_next_functions(
            probe.graph, probe.current_function, probe.applied_swaps, cfg.explore_commutations
        )
        if not candidates:
            await self._return_credit(rid, request.dest_peer, credit, "no-next-hop")
            return
        # all candidate lookups run concurrently: a real implementation
        # would have all queries in flight at once, and the discovery
        # phase is priced off the *slowest* of them either way
        results = await asyncio.gather(
            *(self._lookup(fn, probe.current_peer, rid) for fn, _, _, _ in candidates)
        )
        lookups = [comps for comps, _ in results]
        max_rtt = max((rtt for _, rtt in results), default=0.0)
        if probe.branch == ():
            # the root expansion's slowest lookup is the discovery phase;
            # the report takes half the root credit, so the window cannot
            # close before it lands
            report = codec.DiscoveryReport(rid, max_rtt, credit / 2)
            credit -= report.credit
            self._spawn(self._send_report(request.dest_peer, report))
        entries = [
            (fn, cfg.quota_policy(fn, len(comps)), is_dep)
            for (fn, _, _, is_dep), comps in zip(candidates, lookups)
        ]
        budget = probe.budget
        if self.guard is not None and self.guard.degraded():
            # soft overload: expand this wave with half its budget —
            # the paper's quality/latency knob, turned by load
            budget = max(1, budget // 2)
            self.guard.budget_degrades += 1
        shares = split_budget(budget, entries)
        sends = []
        for idx, ((fn, graph, applied, _), comps) in enumerate(zip(candidates, lookups)):
            beta_k = shares.get(idx, 0)
            if beta_k < 1 or not comps:
                continue
            alpha_k = entries[idx][1]
            viable = self.bcp._filter_components(probe, comps)
            if not viable:
                continue
            i_k = min(beta_k, alpha_k, len(viable))
            chosen = self.bcp._select_components(probe, viable, i_k)
            child_budget = max(1, beta_k // max(len(chosen), 1))
            for comp in chosen:
                sends.append((fn, graph, applied, comp, child_budget))
        if not sends:
            await self._return_credit(rid, request.dest_peer, credit, "exhausted")
            return
        share = credit / len(sends)  # exact: Fractions never leak credit
        await asyncio.gather(
            *(
                self._send_probe(rid, probe, fn, graph, applied, comp, b, max_rtt, share)
                for fn, graph, applied, comp, b in sends
            )
        )

    async def _lookup(
        self, function: str, origin_peer: int, rid: Optional[int] = None
    ) -> Tuple[List[ServiceMetadata], float]:
        """Resolve a function's duplicate list: shared registry, or the
        DHT-routed directory owner in distributed mode.

        The distributed path routes ``hash(function)`` through Pastry
        first — charging the DHT ledger per hop exactly as a sync lookup
        would, and pricing the query RTT off that route — then asks the
        owning peer's directory slice over the wire.  A dead owner is
        skipped in favour of its replica-ring successors; if every
        replica is unreachable the function simply has no visible
        duplicates this wave (the probe's credit returns as exhausted).

        When ``rid`` is given, identical queries within that request's
        wave are *single-flighted*: the first one performs the wire
        exchange and every concurrent or later duplicate shares its
        result (the wire analogue of the sync engine's per-wave lookup
        cache — directory contents are fixed for the duration of a
        composition).  Only the LookupRequest *frame* is deduplicated:
        each logical lookup still routes the DHT itself, so ledger
        charges and the route-priced RTT are identical with and without
        the dedup.

        With the directory tier enabled the per-rid flights are replaced
        by a daemon-wide positive cache: a miss performs one DHT route +
        wire fetch (misses for the same function single-flight across
        requests too) and every hit — within a wave or across composes —
        returns the cached (components, rtt) pair without routing.  The
        route is deterministic over a static ring, so the cached rtt is
        exactly what re-routing would price and probe timing is
        unchanged; only the ``dht_route`` / ``net_directory`` charges
        shrink, which is the tier's entire effect on the books.
        """
        if not self.distributed:
            res = self.bcp.registry.lookup(function, origin_peer)
            return list(res.components), res.rtt
        if self.tier_enabled:
            return await self._lookup_cached(function, origin_peer)
        key = key_for(function)
        route = self.dht.route(key, origin_peer)
        rtt = 2.0 * route.latency
        if rid is None:
            return await self._fetch_components(key, function, origin_peer), rtt
        flights = self._lookup_flight.setdefault(rid, {})
        flight_key = (function, origin_peer)
        fut = flights.get(flight_key)
        if fut is not None:
            return list(await asyncio.shield(fut)), rtt
        fut = asyncio.get_running_loop().create_future()
        flights[flight_key] = fut
        try:
            comps = await self._fetch_components(key, function, origin_peer)
        except BaseException:
            flights.pop(flight_key, None)
            if not fut.done():
                fut.set_result([])  # followers degrade to "no duplicates"
            raise
        if not fut.done():
            fut.set_result(comps)
        return list(comps), rtt

    # ------------------------------------------------------------------
    # directory tier: cached lookup path
    # ------------------------------------------------------------------
    async def _lookup_cached(
        self, function: str, origin_peer: int
    ) -> Tuple[List[ServiceMetadata], float]:
        entry = self._dir_cache.get(function)
        if entry is not None and self._now() < entry[2]:
            self.cache_hits += 1
            if self.tap is not None:
                self.tap.dir_cache_hit()
            return list(entry[0]), entry[1]
        fut = self._miss_flight.get(function)
        if fut is not None:
            comps, rtt = await asyncio.shield(fut)
            # the leader's miss covers the whole flight; followers are
            # hits against its (imminent) cache entry
            self.cache_hits += 1
            if self.tap is not None:
                self.tap.dir_cache_hit()
            return list(comps), rtt
        fut = asyncio.get_running_loop().create_future()
        self._miss_flight[function] = fut
        try:
            comps, rtt = await self._lookup_miss(function, origin_peer)
        except BaseException:
            if not fut.done():
                fut.set_result(([], self._rtt_cache.get(function, 0.0)))
            raise
        finally:
            self._miss_flight.pop(function, None)
        if not fut.done():
            fut.set_result((tuple(comps), rtt))
        return list(comps), rtt

    async def _lookup_miss(
        self, function: str, origin_peer: int
    ) -> Tuple[List[ServiceMetadata], float]:
        """Resolve one positive-cache miss: negative cache, route, fetch."""
        tier = self.dir_tier
        key = key_for(function)
        if tier.negative_cache:
            owner = self.ring.owner_peer(key)
            held = self._owner_blooms.get(owner)
            if (
                held is not None
                and self._now() < held[1]
                and function not in held[0]
            ):
                # the owner's summary proves absence: no route, no wire.
                # Bloom filters have no false negatives, so a present
                # function can never be hidden — only churn staleness
                # applies, and registration invalidates summary holders.
                self.neg_hits += 1
                if self.tap is not None:
                    self.tap.dir_neg_hit()
                rtt = self._rtt_cache.get(function, 0.0)
                self._dir_cache[function] = ((), rtt, self._now() + tier.cache_ttl)
                return [], rtt
        self.cache_misses += 1
        if self.tap is not None:
            self.tap.dir_cache_miss()
        rtt = self._rtt_cache.get(function)
        if rtt is None:
            # first resolution from this daemon: route the DHT exactly as
            # the tier-off path would (charging dht_route per hop) and
            # remember the priced rtt — the route is a pure function of
            # (key, origin) over the static ring, so reuse is exact
            route = self.dht.route(key, origin_peer)
            rtt = 2.0 * route.latency
            self._rtt_cache[function] = rtt
        comps = await self._fetch_components(key, function, origin_peer)
        self._dir_cache[function] = (
            tuple(comps), rtt, self._now() + tier.cache_ttl
        )
        return comps, rtt

    async def _fetch_components(
        self, key, function: str, origin_peer: int
    ) -> List[ServiceMetadata]:
        """The wire half of a distributed lookup: ask the key's replicas."""
        replicas = self.ring.replica_peers(key)
        if self.tier_enabled:
            if self.peer_id in replicas:
                # authoritative local copy: registration populates every
                # base replica synchronously, so this equals the owner's
                # rows (the tier-off path asks the owner first regardless)
                return self.directory.lookup(key)
            held = self.directory.replica_lookup(key)
            if held is not None:
                self.replica_serves += 1
                if self.tap is not None:
                    self.tap.dir_replica_serve()
                return held
        for target in replicas:
            if target == self.peer_id:
                return self.directory.lookup(key)
            try:
                reply = await self.endpoint.call(
                    target, codec.LookupRequest(function, origin_peer), retry=self.probe_retry
                )
            except RpcError:
                continue  # owner unreachable: fall back to the next replica
            if not isinstance(reply, dict) or reply.get("error"):
                continue
            self._note_lookup_reply(target, reply)
            return [c for c in reply.get("components", ()) if isinstance(c, ServiceMetadata)]
        self._trace("lookup_failed", function=function, origin=origin_peer)
        return []

    def _note_lookup_reply(self, target: int, reply: dict) -> None:
        """Stash the serving replica's piggybacked Bloom summary."""
        if not self.tier_enabled or not self.dir_tier.negative_cache:
            return
        wire = reply.get("bloom")
        if not wire:
            return
        try:
            summary = BloomFilter.from_wire(wire)
        except (ValueError, TypeError):
            return  # malformed summary: negative caching just doesn't apply
        self._owner_blooms[target] = (summary, self._now() + self.dir_tier.cache_ttl)

    async def _send_probe(
        self,
        rid: int,
        parent: Probe,
        fn: str,
        graph,
        applied,
        comp,
        budget: int,
        lookup_rtt: float,
        credit: Fraction,
    ) -> None:
        self.counters[rid] = self.counters.get(rid, 0) + 1
        if self.tap is not None:
            self.tap.probe_sent()
        msg = codec.ProbeTransfer(
            request_id=rid,
            parent=parent,
            function=fn,
            component=comp,
            graph=graph,
            applied=tuple(sorted(tuple(sorted(p)) for p in applied)),
            budget=budget,
            lookup_rtt=lookup_rtt,
            credit=credit,
        )
        try:
            await self.endpoint.call(comp.peer, msg, retry=self.probe_retry)
        except RpcError:
            # the retry/backoff path ran dry: report the credit as lost so
            # the destination's window can still close without the fallback
            self._trace("probe_lost", request=rid, to_peer=comp.peer, function=fn)
            await self._return_credit(rid, parent.request.dest_peer, credit, "lost")

    async def _send_report(self, dest_peer: int, report) -> None:
        """Deliver a credit-carrying report (run as a task, never awaited
        on the probe path); if it cannot be delivered its credit returns
        as lost, so the window still closes by credit."""
        try:
            await self.endpoint.call(dest_peer, report, retry=self.probe_retry)
        except RpcError:
            await self._return_credit(report.request_id, dest_peer, report.credit, "lost")

    async def _return_credit(self, rid: int, dest_peer: int, credit: Fraction, reason: str) -> None:
        if credit == 0:
            return
        try:
            await self.endpoint.call(
                dest_peer, codec.CreditReturn(rid, credit, reason), retry=self.probe_retry
            )
        except RpcError:
            pass  # destination unreachable: its wall-clock fallback closes the window

    # ------------------------------------------------------------------
    # step 2.1: admission at the receiving peer
    # ------------------------------------------------------------------
    async def _on_probe(self, src: int, msg: codec.ProbeTransfer) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        if self.guard is not None and self.guard.probe_overloaded():
            # hard shed: return the probe's termination credit without
            # admitting anything, so the destination's window still
            # closes by credit instead of waiting for the wall fallback.
            # No admission ran, so there is no token to leak.
            self.guard.probes_shed += 1
            self._trace("probe_shed", request=msg.request_id, from_peer=src)
            self._spawn(
                self._return_credit(
                    msg.request_id, msg.parent.request.dest_peer, msg.credit, "shed"
                )
            )
            return {"ok": True, "shed": True}
        # ack immediately; admission + further expansion run as a task so
        # deep probe chains never stack RPC timeouts
        if self.guard is not None:
            self.guard.begin_probe()
            self._spawn(self._process_probe_guarded(msg))
        else:
            self._spawn(self._process_probe(msg))
        return {"ok": True}

    async def _process_probe_guarded(self, msg: codec.ProbeTransfer) -> None:
        try:
            await self._process_probe(msg)
        finally:
            self.guard.end_probe()

    async def _process_probe(self, msg: codec.ProbeTransfer) -> None:
        rid = msg.request_id
        parent = msg.parent
        request = parent.request
        cfg = self.bcp.config
        applied = frozenset(frozenset(p) for p in msg.applied)
        toks = self._tokens.setdefault(rid, set())
        before = set(toks)
        child = self.bcp._admit(
            parent, msg.function, msg.component, msg.graph, applied,
            msg.budget, msg.lookup_rtt, toks,
        )
        fresh = toks - before
        for token in fresh:
            self._arm_expiry(rid, token)
        credit = msg.credit
        if fresh and self.distributed and self.peer_id != request.dest_peer:
            # the load deltas travel with half this probe's credit, so the
            # destination has them before the window can possibly close
            # (even for probes that die right here)
            report = self._reservation_report(rid, fresh, credit / 2)
            if report is not None:
                credit -= report.credit
                self._spawn(self._send_report(request.dest_peer, report))
        if child is None:
            await self._return_credit(rid, request.dest_peer, credit, "pruned")
            return
        if self._seen.seen((rid, child.dedup_key())):
            await self._return_credit(rid, request.dest_peer, credit, "duplicate")
            return
        if child.elapsed > cfg.collect_timeout:
            await self._return_credit(rid, request.dest_peer, credit, "late")
            return
        if child.at_sink:
            try:
                await self.endpoint.call(
                    request.dest_peer, codec.FinalProbe(rid, child, credit),
                    retry=self.probe_retry,
                )
            except RpcError:
                pass  # destination gone: the whole request is dead
            return
        await self._expand_probe(child, credit, rid)

    # ------------------------------------------------------------------
    # destination side: collection window
    # ------------------------------------------------------------------
    async def _on_begin(self, src: int, msg: codec.ComposeBegin) -> dict:
        rid = msg.request_id
        if rid in self._collections:
            return {"ok": True}
        if self.guard is not None and not self.guard.try_open_session(rid):
            # shed in the begin reply itself: the source learns in one
            # round trip, and no window / probe / reservation ever exists
            self._trace(
                "begin_rejected", request=rid, inflight=self.guard.sessions_inflight
            )
            return {
                "busy": codec.Busy(
                    request_id=rid,
                    reason="sessions",
                    inflight=self.guard.sessions_inflight,
                )
            }
        col = _Collection(
            request=msg.request,
            confirm=msg.confirm,
            budget=msg.budget,
            result=CompositionResult(request=msg.request, success=False),
            started=self._now(),
        )
        col.deadline_handle = asyncio.get_running_loop().call_later(
            self.collect_wall_timeout,
            lambda: self._spawn(self._finalize(rid, "wall-timeout")),
        )
        self._collections[rid] = col
        return {"ok": True}

    async def _on_discovery(self, src: int, msg: codec.DiscoveryReport) -> dict:
        col = self._collections.get(msg.request_id)
        if col is None or col.done:
            return {"ok": True}  # straggler after the window closed
        col.discovery = msg.rtt
        self._credit(msg.request_id, col, msg.credit)
        return {"ok": True}

    async def _on_final(self, src: int, msg: codec.FinalProbe) -> dict:
        rid = msg.request_id
        col = self._collections.get(rid)
        if col is None or col.done:
            return {"ok": True}  # straggler after the window closed
        toks = self._tokens.setdefault(rid, set())
        before = set(toks)
        arrival = self.bcp._final_hop(msg.probe, toks, col.result)
        for token in toks - before:
            self._arm_expiry(rid, token)
        if arrival is not None and arrival.elapsed <= self.bcp.config.collect_timeout:
            key = arrival.dedup_key()
            prev = col.arrivals.get(key)
            if prev is None or arrival.elapsed < prev.elapsed:
                col.arrivals[key] = arrival
            self._trace("arrival", request=rid, branch=list(arrival.branch))
        self._credit(rid, col, msg.credit)
        return {"ok": True}

    async def _on_credit(self, src: int, msg: codec.CreditReturn) -> dict:
        col = self._collections.get(msg.request_id)
        if col is None or col.done:
            return {"ok": True}
        self._credit(msg.request_id, col, msg.credit)
        return {"ok": True}

    def _reservation_report(
        self, rid: int, tokens: Set[Tuple], credit: Fraction
    ) -> Optional[codec.ReservationReport]:
        """Freshly admitted reservations' demands, or None if there are none."""
        peers: List[Tuple[int, str, float]] = []
        links: List[Tuple[int, int, float]] = []
        for token in sorted(tokens):
            try:
                claim_peers, claim_links = self.bcp.pool.claim_usage(token)
            except KeyError:
                continue  # already expired or released
            for peer, demands in claim_peers:
                for rtype in sorted(demands):
                    peers.append((peer, rtype, demands[rtype]))
            for link, bw in claim_links:
                u, v = tuple(sorted(link))
                links.append((u, v, bw))
        if not peers and not links:
            return None
        return codec.ReservationReport(rid, tuple(peers), tuple(links), credit)

    async def _on_reservation(self, src: int, msg: codec.ReservationReport) -> dict:
        col = self._collections.get(msg.request_id)
        if col is None or col.done:
            return {"ok": True}  # straggler after the window closed
        for peer, rtype, amount in msg.peers:
            key = (int(peer), str(rtype))
            col.wave_peer_used[key] = col.wave_peer_used.get(key, 0.0) + float(amount)
        for u, v, bw in msg.links:
            key = (int(u), int(v))
            col.wave_link_used[key] = col.wave_link_used.get(key, 0.0) + float(bw)
        self._credit(msg.request_id, col, msg.credit)
        return {"ok": True}

    def _credit(self, rid: int, col: _Collection, credit: Fraction) -> None:
        col.credit += credit
        if col.credit > 1:
            # splits are exact, so a surplus means some credit was
            # counted twice: a protocol bug, reported like a task failure
            error = f"credit overflow: request {rid} window holds {col.credit}"
            self.errors.append(error)
            self._trace("daemon_error", error=error)
        if col.credit >= 1 and not col.done:
            self._spawn(self._finalize(rid, "credit-complete"))

    # ------------------------------------------------------------------
    # steps 3 + 4 at the destination
    # ------------------------------------------------------------------
    async def _finalize(self, rid: int, why: str) -> None:
        col = self._collections.get(rid)
        if col is None or col.done:
            return
        col.done = True
        if col.deadline_handle is not None:
            col.deadline_handle.cancel()
        if self.guard is not None:
            self.guard.close_session(rid)
        cfg = self.bcp.config
        request = col.request
        result = col.result
        result.probes_sent += self.counters.pop(rid, 0)
        result.candidates_examined = len(col.arrivals)
        result.phases["discovery"] = col.discovery
        arrivals = list(col.arrivals.values())
        keep: Set[Tuple] = set()
        if not arrivals:
            result.failure_reason = "no probe reached the destination"
            if self.tap is not None:
                self.tap.failure()
        else:
            candidates = merge_probes(
                request, arrivals, self.bcp.overlay,
                max_patterns=cfg.max_patterns, max_candidates=cfg.max_candidates,
            )
            sel_pool = self.bcp.pool
            if self.distributed:
                # rank against the whole wave's load, not just the claims
                # this destination admitted itself (see _WaveLoadView)
                sel_pool = _WaveLoadView(
                    self.bcp.pool, col.wave_peer_used, col.wave_link_used
                )
            selection = select_composition(
                candidates, request.qos, sel_pool, cfg.cost_weights,
                objective=cfg.objective,
            )
            result.qualified = selection.qualified
            if selection.best is None:
                result.failure_reason = (
                    f"no qualified service graph among {len(candidates)} candidates"
                )
                if self.tap is not None:
                    self.tap.failure()
            else:
                result.best = selection.best.graph
                result.best_qos = selection.best.qos
                result.best_cost = selection.best.cost
        if result.best is not None:
            # phase accounting + per-branch ack charges, as BCP._setup_phase
            ack_time = 0.0
            for peers in result.best.branch_paths():
                t = sum(
                    self.bcp.overlay.latency(u, v) for u, v in zip(peers, peers[1:]) if u != v
                )
                t += cfg.component_init_delay * (len(peers) - 2)
                ack_time = max(ack_time, t)
                if self.tap is not None:
                    self.tap.ack_hops(len(peers) - 1)
            arrivals_done = max((c.arrival_elapsed for c in result.qualified), default=0.0)
            probing_time = min(arrivals_done, cfg.collect_timeout)
            result.phases["composition"] = max(probing_time - col.discovery, 0.0)
            result.phases["setup_ack"] = ack_time
            result.setup_time = probing_time + ack_time
            keep = self.bcp._tokens_of(result.best, rid)
        # release every losing reservation cluster-wide; a measurement-only
        # run keeps nothing, so this one round drops the winner's too
        await self._broadcast_release(rid, keep if col.confirm else set())
        success = result.best is not None
        if success and col.confirm:
            if cfg.soft_allocation:
                # same-peer hops never reserved a link token, so only the
                # tokens that must exist can fail the setup ack
                required = self.bcp._required_tokens(result.best, rid)
                confirmed = await self._confirm_session(rid, keep, result.best)
                if confirmed != required:
                    result.best = None
                    result.best_qos = None
                    result.best_cost = math.inf
                    result.failure_reason = "setup ack found expired reservation or dead peer"
                    if self.tap is not None:
                        self.tap.failure()
                    await self._broadcast_release(rid, set())
                    success = False
                else:
                    result.session_tokens = sorted(confirmed)
            else:
                # no-soft-allocation ablation: firm admission happens only now
                token = (rid, "session")
                if admit_graph(result.best, self.bcp.pool, token):
                    result.session_tokens = [token]
                else:
                    result.best = None
                    result.best_qos = None
                    result.best_cost = math.inf
                    result.failure_reason = "admission failed at setup (no soft allocation)"
                    if self.tap is not None:
                        self.tap.failure()
                    success = False
        result.success = success
        self._collections.pop(rid, None)
        self._lookup_flight.pop(rid, None)  # destination-side flight map
        self._trace(
            "compose_finished", request=rid, success=success, why=why,
            arrivals=len(arrivals), probes=result.probes_sent,
        )
        out = codec.ComposeResult(
            request_id=rid,
            success=success,
            graph=result.best,
            qos=result.best_qos,
            cost=result.best_cost,
            failure_reason=result.failure_reason,
            probes_sent=result.probes_sent,
            candidates_examined=result.candidates_examined,
            setup_time=result.setup_time,
            phases=dict(result.phases),
            session_tokens=tuple(result.session_tokens),
        )
        try:
            await self.endpoint.call(request.source_peer, out, retry=self.control_retry)
        except RpcError:
            self._trace("result_undeliverable", request=rid)

    async def _confirm_session(self, rid: int, keep: Set[Tuple], graph: ServiceGraph):
        """Destination-driven setup ack: every path peer confirms its tokens.

        Mirrors ``AsyncBCP._confirm_setup``: if any keep token cannot be
        confirmed — expired reservation, dead peer — setup fails."""
        peers = set(graph.peers()) | {self.peer_id}
        keep_list = sorted(keep)
        confirmed: Set[Tuple] = set()
        for peer in sorted(peers):
            if peer == self.peer_id:
                confirmed |= self._apply_confirm(rid, keep)
                continue
            try:
                reply = await self.endpoint.call(
                    peer, codec.SessionConfirm(rid, tuple(keep_list)), retry=self.control_retry
                )
            except RpcError:
                return None
            if not isinstance(reply, dict) or reply.get("error"):
                return None
            confirmed |= {tuple(t) for t in reply.get("confirmed", [])}
        return confirmed

    def _apply_confirm(self, rid: int, keep: Set[Tuple]) -> Set[Tuple]:
        mine = self._tokens.get(rid, set())
        out: Set[Tuple] = set()
        for token in sorted(keep):
            if token in mine and self.bcp.pool.has_token(token):
                # disarm the expiry and drop the soft bookkeeping *before*
                # confirming: an expiry callback already queued behind this
                # frame must find nothing to cancel, not race the firm flip
                self._cancel_timer(rid, token)
                mine.discard(token)
                self.bcp.pool.confirm(token)
                out.add(token)
        if out:
            # firm tokens are tracked so a later release (failed setup
            # ack, session teardown) can free them — pool.cancel() refuses
            # firm claims, so the soft path alone would leak them
            self._confirmed.setdefault(rid, set()).update(out)
        if not mine:
            self._tokens.pop(rid, None)
        return out

    async def _broadcast_release(self, rid: int, keep: Set[Tuple]) -> None:
        msg = codec.SessionRelease(rid, tuple(sorted(keep)))
        calls = []
        for peer in self.peers:
            if peer == self.peer_id:
                self._apply_release(rid, keep)
            else:
                calls.append(self._release_one(peer, msg))
        if calls:
            await asyncio.gather(*calls)

    async def _release_one(self, peer: int, msg: codec.SessionRelease) -> None:
        try:
            await self.endpoint.call(peer, msg, retry=self.control_retry)
        except RpcError:
            pass  # a dead peer's soft state expires on its own timers

    def _apply_release(self, rid: int, keep: Set[Tuple]) -> None:
        keep = set(keep)
        # the wave is over: drop its single-flight lookup futures (the
        # destination broadcasts a release to every peer for every rid,
        # so this is the per-request cleanup point on all daemons)
        self._lookup_flight.pop(rid, None)
        firm = self._confirmed.get(rid)
        if firm:
            # a setup ack that failed after partially confirming (or a
            # torn-down session) leaves firm claims behind; cancel() puts
            # those back, so they must be released explicitly or the
            # capacity leaks for the lifetime of the pool
            for token in sorted(firm - keep):
                self.bcp.pool.release(token)
                firm.discard(token)
            if not firm:
                self._confirmed.pop(rid, None)
        mine = self._tokens.get(rid)
        if not mine:
            return
        for token in sorted(mine - keep):
            self._cancel_timer(rid, token)
            try:
                self.bcp.pool.cancel(token)
            except InsufficientResources:
                pass
            mine.discard(token)
        if not mine:
            self._tokens.pop(rid, None)

    async def _on_release(self, src: int, msg: codec.SessionRelease) -> dict:
        self._apply_release(msg.request_id, {tuple(t) for t in msg.keep})
        return {"ok": True}

    async def _on_confirm(self, src: int, msg: codec.SessionConfirm) -> dict:
        confirmed = self._apply_confirm(msg.request_id, {tuple(t) for t in msg.tokens})
        return {"confirmed": sorted(confirmed)}

    # ------------------------------------------------------------------
    # source side: result + session maintenance
    # ------------------------------------------------------------------
    async def _on_result(self, src: int, msg: codec.ComposeResult) -> dict:
        future = self._pending_results.get(msg.request_id)
        if future is not None and not future.done():
            future.set_result(msg)
        if msg.success and msg.graph is not None and msg.session_tokens:
            session = LiveSession(
                request_id=msg.request_id,
                graph=msg.graph,
                tokens=msg.session_tokens,
                established_at=self._now(),
            )
            self.sessions[msg.request_id] = session
            self._trace("session_established", request=msg.request_id)
            if self.maint_interval:
                self._spawn(self._maintain(session))
        return {"ok": True}

    async def _maintain(self, session: LiveSession) -> None:
        """Periodic liveness pings along the session's service peers."""
        peers = [p for p in session.graph.peers() if p != self.peer_id]
        seq = 0
        while not self.stopped and not session.failed:
            await asyncio.sleep(self.maint_interval)
            if self.stopped or session.failed:
                return
            seq += 1
            for peer in peers:
                try:
                    await self.endpoint.call(
                        peer, codec.MaintenancePing(session.request_id, seq),
                        retry=self.control_retry,
                    )
                    session.pings += 1
                except RpcError:
                    session.failed = True
                    self._trace(
                        "session_failure", request=session.request_id, failed_peer=peer
                    )
                    return

    async def _on_ping(self, src: int, msg: codec.MaintenancePing) -> dict:
        return {"alive": not self.stopped, "request": msg.request_id, "seq": msg.seq}

    # ------------------------------------------------------------------
    # directory slice (distributed) / registry passthrough (shared)
    # ------------------------------------------------------------------
    async def register_components(self, specs: List[ComponentSpec], now: float = 0.0) -> None:
        """Publish this peer's components over the wire (distributed boot).

        Each spec travels to the DHT owner of its function key and to
        that owner's replica-ring successors, so lookups survive the
        owner's death.  A row is visible to other peers only once the
        owner's RegisterComponent RPC completed — there is no
        read-your-own-unregistered-write through shared memory.

        With the directory tier enabled the per-(spec, replica) frames are
        coalesced into one ``RegisterBatch`` per target peer, and any
        content-*changing* registration (new function, replaced QoS) is
        followed by awaited ``ReplicaInvalidate`` fan-out to exactly the
        peers that may hold a stale copy — recent queriers, pushed
        replica holders, Bloom-summary recipients — so churn is visible
        to other peers' caches as soon as this call returns.  At boot all
        of those holder sets are empty, so booting a cluster produces
        zero invalidation traffic.
        """
        if not self.distributed:
            raise RuntimeError("register_components requires distributed mode")
        if not self.tier_enabled:
            for spec in specs:
                key = key_for(spec.function)
                msg = codec.RegisterComponent(spec, registered_at=now)
                for target in self.ring.replica_peers(key):
                    if target == self.peer_id:
                        self.directory.store(key, ServiceMetadata.from_spec(spec, registered_at=now))
                    else:
                        await self.endpoint.call(target, msg, retry=self.control_retry)
            return
        by_target: Dict[int, List[ComponentSpec]] = {}
        stale: Dict[str, Set[int]] = {}
        versions: Dict[str, int] = {}
        for spec in specs:
            key = key_for(spec.function)
            # our own positive cache may hold the pre-churn rows
            self._dir_cache.pop(spec.function, None)
            for target in self.ring.replica_peers(key):
                if target == self.peer_id:
                    changed = self.directory.store(
                        key, ServiceMetadata.from_spec(spec, registered_at=now)
                    )
                    if changed:
                        holders = self.directory.stale_holders(key)
                        if holders:
                            stale.setdefault(spec.function, set()).update(holders)
                            versions[spec.function] = self.directory.key_version(key)
                else:
                    by_target.setdefault(target, []).append(spec)
        for target in sorted(by_target):
            reply = await self.endpoint.call(
                target,
                codec.RegisterBatch(tuple(by_target[target]), registered_at=now),
                retry=self.control_retry,
            )
            if isinstance(reply, dict):
                for function, entry in (reply.get("stale") or {}).items():
                    version, holders = entry
                    stale.setdefault(function, set()).update(holders)
                    versions[function] = max(versions.get(function, 0), version)
        # churn fan-out: invalidate every peer that may cache pre-churn
        # state, awaited so the registration's completion implies
        # cluster-wide cache coherence (the churn test's contract)
        for function in sorted(stale):
            inval = codec.ReplicaInvalidate(function, versions.get(function, 0))
            for holder in sorted(stale[function]):
                if holder == self.peer_id:
                    self._apply_invalidate(inval)
                    continue
                try:
                    await self.endpoint.call(holder, inval, retry=self.control_retry)
                except RpcError:
                    pass  # holder unreachable: its TTL bounds the staleness

    async def _on_register(self, src: int, msg: codec.RegisterComponent) -> dict:
        if self.distributed:
            if self.stopped:
                return {"error": "stopped"}
            self._dir_cache.pop(msg.spec.function, None)
            fresh = self.directory.store(
                key_for(msg.spec.function),
                ServiceMetadata.from_spec(msg.spec, registered_at=msg.registered_at),
            )
            return {"ok": True, "fresh": fresh}
        self.bcp.registry.register(msg.spec)
        return {"ok": True}

    async def _on_register_batch(self, src: int, msg: codec.RegisterBatch) -> dict:
        if not self.distributed:
            for spec in msg.specs:
                self.bcp.registry.register(spec)
            return {"ok": True}
        if self.stopped:
            return {"error": "stopped"}
        stale: Dict[str, List] = {}
        for spec in msg.specs:
            key = key_for(spec.function)
            self._dir_cache.pop(spec.function, None)
            changed = self.directory.store(
                key, ServiceMetadata.from_spec(spec, registered_at=msg.registered_at)
            )
            if changed:
                holders = self.directory.stale_holders(key)
                if holders:
                    stale[spec.function] = [
                        self.directory.key_version(key),
                        sorted(holders),
                    ]
        reply: dict = {"ok": True}
        if stale:
            reply["stale"] = stale
        return reply

    async def _on_lookup(self, src: int, msg: codec.LookupRequest) -> dict:
        if self.distributed:
            if self.stopped:
                return {"error": "stopped"}
            key = key_for(msg.function)
            rows = self.directory.lookup(key)
            reply: dict = {"components": rows, "rtt": 0.0}
            if self.tier_enabled:
                tier = self.dir_tier
                self.directory.note_querier(key, msg.origin_peer)
                reply["version"] = self.directory.key_version(key)
                if tier.negative_cache:
                    reply["bloom"] = self.directory.bloom_wire()
                    self.directory.note_bloom_recipient(msg.origin_peer)
                if tier.hot_threshold > 0:
                    rate = self.directory.note_serve_rate(
                        key, self._now(), tier.popularity_halflife
                    )
                    if (
                        rows
                        and rate >= tier.hot_threshold
                        and self.directory.mark_pushed(key)
                    ):
                        # fan-out must not run inline: the transport's
                        # receive loop awaits this handler, so an
                        # outbound call here would deadlock (same
                        # pattern as _on_probe's forwarding)
                        self._spawn(self._push_replicas(key, msg.function))
            return reply
        res = self.bcp.registry.lookup(msg.function, msg.origin_peer)
        return {"components": list(res.components), "rtt": res.rtt}

    async def _push_replicas(self, key: int, function: str) -> None:
        """Push a hot key's rows to the ring peers past the base replicas."""
        rows = self.directory.rows(key)
        if not rows:
            return
        version = self.directory.key_version(key)
        base = set(self.ring.replica_peers(key))
        targets = [
            p
            for p in self.ring.extended_replica_peers(key, self.dir_tier.replica_span)
            if p not in base and p != self.peer_id
        ]
        if not targets:
            return
        self.directory.note_pushed(key, targets)
        if self.tap is not None:
            self.tap.dir_replica_push(len(targets))
        push = codec.ReplicatePush(function, tuple(rows), version)
        for target in targets:
            try:
                await self.endpoint.call(target, push, retry=self.control_retry)
            except RpcError:
                pass  # best-effort: the target keeps resolving via the owner

    async def _on_replica_push(self, src: int, msg: codec.ReplicatePush) -> dict:
        if not self.distributed or self.stopped:
            return {"error": "stopped"}
        key = key_for(msg.function)
        if self.peer_id not in self.ring.replica_peers(key):
            self.directory.store_replica(key, msg.rows, msg.version)
        return {"ok": True}

    def _apply_invalidate(self, msg: codec.ReplicaInvalidate) -> None:
        key = key_for(msg.function)
        self._dir_cache.pop(msg.function, None)
        self.directory.drop_replica(key)
        if self.dir_tier is not None and self.dir_tier.negative_cache:
            # the key's holders rebuilt their Bloom summaries; drop our
            # cached copies so absence is re-proved against fresh state
            for holder in self.ring.replica_peers(key):
                self._owner_blooms.pop(holder, None)

    async def _on_replica_invalidate(self, src: int, msg: codec.ReplicaInvalidate) -> dict:
        if not self.distributed or self.stopped:
            return {"error": "stopped"}
        self._apply_invalidate(msg)
        return {"ok": True}
