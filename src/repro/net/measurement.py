"""Peer-local topology measurement plane: live link state for live BCP.

The shared :class:`~repro.topology.overlay.Overlay` is a *declared*
snapshot: link delays come from the IP model (or WAN RTT model) at build
time and never change.  The paper's framework, by contrast, treats the
overlay as continuously *measured* — peers benchmark their links and
react to degradation.  This module closes that gap for the live runtime
without touching the simulator substrates:

* **Active probing** — each daemon's :class:`MeasurementPlane`
  periodically sends ``PathProbe`` frames (answered with ``ProbeAck``)
  to a bounded set of its overlay neighbours, charged to the
  ``net_measure`` ledger category.  Down paths are probed first, so a
  recovered peer is re-admitted by the next cycle.
* **Passive measurement** — every RPC round-trip already crosses the
  link; :class:`~repro.net.rpc.RpcEndpoint` reports per-call RTTs via
  its ``on_rtt`` hook (first-attempt successes only — Karn's algorithm:
  a retransmitted exchange's RTT is ambiguous), so hot paths are
  measured for free.
* **Estimation** — per-destination :class:`LinkEstimator` maintains a
  TCP-style smoothed RTT (``srtt``/``rttvar`` EWMA).  After a warm-up
  it locks a *baseline*; estimates that stop receiving samples decay
  back toward that baseline with a configurable half-life, so stale
  measurements cannot steer routing forever.
* **Dead-path detection** — ``down_after`` consecutive RPC/probe
  failures to a peer trigger :meth:`MeasurementPlane.mark_path_down`;
  any later successful exchange (typically a recovery probe) triggers
  :meth:`~MeasurementPlane.mark_path_up`.
* **Adaptive routing** — material deltas feed a
  :class:`MeasuredOverlayView` layered over the static overlay.  The
  view keeps the base topology's edge set and canonical link order (so
  :class:`~repro.core.resources.ResourcePool` arrays stay aligned) but
  re-prices individual links and prices down-peer links at ``inf``,
  then fires the overlay cache listeners so BCP's per-pair QoS caches
  re-price.

**Parity by construction.**  Wall-clock RTTs and modeled delays live in
different unit systems, so measurements are applied as *ratios*: a
link's modeled delay is scaled by ``srtt / baseline``, and only when the
inflation is material (``material_ratio`` and ``min_delta`` both
exceeded) and sustained: a link is first re-priced only once every
sample of the last ``SUSTAIN_S`` seconds read inflated (a windowed
minimum RTT).  A degraded link slows every exchange; an event-loop
stall slows only the exchanges in flight during it, which the EWMA
alone would read as link delay.  Over an unchanged topology the ratio
hovers at ~1, no override is ever installed, and the view delegates
every query verbatim to the base overlay — selections are bit-identical
to the static substrates, which is what the parity suite asserts with
measurement on.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import codec
from .rpc import RetryPolicy, RpcError

__all__ = [
    "MeasurementConfig",
    "LinkEstimator",
    "MeasuredOverlayView",
    "MeasurementPlane",
]

Link = Tuple[int, int]

# how long a link's inflation must persist, in every sample, before the
# plane first re-prices it (see LinkEstimator.sustained)
SUSTAIN_S = 0.2


def _canon(a: int, b: int) -> Link:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs for the peer-local measurement plane.

    ``enabled=False`` reproduces the pre-measurement behaviour exactly:
    no probe traffic, no passive sampling, no routing adaptation.
    ``probe_interval=0`` keeps the plane passive-only (RPC piggyback and
    dead-path detection still run, but no active probes are sent).
    """

    enabled: bool = True
    # seconds between active probe cycles; 0 disables active probing
    probe_interval: float = 0.5
    # static overlay neighbours probed per cycle (nearest by declared delay)
    probe_fanout: int = 3
    # hard cap on probes sent per cycle, recovery probes included
    probe_budget: int = 8
    # single-attempt probe timeout (probes never retry: a retried RTT is
    # ambiguous, and the failure itself is the dead-path signal)
    probe_timeout: float = 0.25
    # EWMA gains (TCP RFC 6298 defaults: srtt 1/8, rttvar 1/4)
    alpha: float = 0.125
    beta: float = 0.25
    # samples before the baseline RTT locks (and deltas become meaningful)
    warmup: int = 3
    # seconds without a sample before the estimate starts decaying back
    # toward baseline, and the half-life of that decay
    stale_after: float = 5.0
    decay_halflife: float = 5.0
    # consecutive exhausted exchanges before mark_path_down fires
    down_after: int = 3
    # a link is re-priced only when srtt/baseline exceeds this ratio AND
    # the absolute wall-clock change exceeds min_delta — keeps scheduler
    # jitter from ever perturbing routing (the parity guarantee)
    material_ratio: float = 1.5
    min_delta: float = 0.002
    # an installed scale is only replaced when it moves by this relative
    # amount, so per-sample jitter does not thrash router rebuilds
    rescale_tolerance: float = 0.25
    # feed deltas into the MeasuredOverlayView (distributed mode only;
    # False collects statistics without touching routing)
    adapt_routing: bool = True

    def __post_init__(self) -> None:
        if self.probe_interval < 0:
            raise ValueError("probe_interval must be >= 0")
        if self.probe_fanout < 0 or self.probe_budget < 0:
            raise ValueError("probe fanout/budget must be >= 0")
        if not 0 < self.alpha <= 1 or not 0 < self.beta <= 1:
            raise ValueError("EWMA gains must be in (0, 1]")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if self.down_after < 1:
            raise ValueError("down_after must be >= 1")
        if self.material_ratio <= 1.0:
            raise ValueError("material_ratio must be > 1")


class LinkEstimator:
    """Smoothed RTT for one measured path (TCP-style srtt/rttvar EWMA).

    The first sample seeds ``srtt``; after ``warmup`` samples the
    then-current ``srtt`` locks in as the *baseline* — the path's normal
    RTT, against which later inflation is judged.  :meth:`estimate`
    applies staleness decay: once no sample has arrived for
    ``stale_after`` seconds, the deviation from baseline halves every
    ``decay_halflife`` seconds, so an estimator that stops being fed
    gracefully forgets a transient spike instead of pinning it forever.
    """

    __slots__ = (
        "_cfg", "srtt", "rttvar", "baseline", "samples", "last_at", "inflated_since",
    )

    def __init__(self, config: MeasurementConfig) -> None:
        self._cfg = config
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.baseline: Optional[float] = None
        self.samples: int = 0
        self.last_at: float = 0.0
        # arrival time of the first sample in the current unbroken run of
        # materially inflated samples (None once any sample reads normal)
        self.inflated_since: Optional[float] = None

    def add_sample(self, rtt: float, now: float) -> None:
        if rtt < 0:
            return
        self.samples += 1
        self.last_at = now
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.rttvar += self._cfg.beta * (abs(err) - self.rttvar)
            self.srtt += self._cfg.alpha * err
        if self.baseline is None:
            if self.samples >= self._cfg.warmup:
                self.baseline = self.srtt
        elif (
            rtt >= self.baseline * self._cfg.material_ratio
            and rtt - self.baseline >= self._cfg.min_delta
        ):
            if self.inflated_since is None:
                self.inflated_since = now
        else:
            self.inflated_since = None

    def sustained(self) -> bool:
        """True when every sample of the last ``SUSTAIN_S`` seconds was
        materially inflated, i.e. the windowed minimum RTT is inflated.

        A degraded link slows every exchange that crosses it; an event
        loop stall slows only the exchanges in flight while it lasts, so
        one stall shorter than the window cannot satisfy this."""
        return (
            self.inflated_since is not None
            and self.last_at - self.inflated_since >= SUSTAIN_S
        )

    def estimate(self, now: float) -> Optional[float]:
        """Current smoothed RTT with staleness decay applied."""
        if self.srtt is None:
            return None
        if self.baseline is None:
            return self.srtt
        age = now - self.last_at
        if age <= self._cfg.stale_after:
            return self.srtt
        halves = (age - self._cfg.stale_after) / self._cfg.decay_halflife
        return self.baseline + (self.srtt - self.baseline) * (0.5 ** halves)

    def ratio(self, now: float) -> float:
        """Measured inflation over baseline (1.0 until warm-up locks)."""
        if self.baseline is None or self.baseline <= 0:
            return 1.0
        est = self.estimate(now)
        return est / self.baseline if est is not None else 1.0

    def snapshot(self, now: float) -> Dict[str, float]:
        return {
            "srtt": self.srtt if self.srtt is not None else -1.0,
            "rttvar": self.rttvar,
            "baseline": self.baseline if self.baseline is not None else -1.0,
            "samples": self.samples,
            "ratio": round(self.ratio(now), 3),
        }


class MeasuredOverlayView:
    """An overlay facade layering measured deltas onto the static map.

    With no deltas installed every query delegates verbatim to the base
    overlay (including its router, so memoized paths are shared) —
    selections are bit-identical to the static substrate by
    construction.  The first material delta materializes a private
    :meth:`~repro.topology.routing.OverlayRouter.reweighted` router over
    the *same* graph object: scaled links carry ``declared_delay x
    scale``, links incident to a down peer carry ``inf``.  The edge set
    and canonical link order are unchanged, so pool capacity/usage
    arrays indexed by ``router.link_order`` remain valid.

    Mutations fire the view's cache listeners (BCP registers its
    ``clear_caches`` at construction), so per-pair QoS caches re-price
    against the new router.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.graph = base.graph
        self._scales: Dict[Link, float] = {}
        self._down: Set[int] = set()
        self._router = None  # materialized lazily; None -> delegate
        self._loss_cache: Dict[Tuple[int, int], float] = {}
        self._cache_listeners: List[Callable[[], None]] = []
        self.rebuilds = 0  # private routers materialized (cost telemetry)

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name):
        # anything not overridden (ip_of, ip_graph, kind, ...) is the base's
        return getattr(self.base, name)

    @property
    def n_peers(self) -> int:
        return self.base.n_peers

    def peers(self) -> List[int]:
        return self.base.peers()

    @property
    def router(self):
        if not self._scales and not self._down:
            return self.base.router
        if self._router is None:
            overrides: Dict[Link, float] = {}
            for link, scale in self._scales.items():
                overrides[link] = float(self.graph.edges[link]["delay"]) * scale
            if self._down:
                for u, v in self.graph.edges:
                    link = _canon(u, v)
                    if u in self._down or v in self._down:
                        overrides[link] = float("inf")
            self._router = self.base.router.reweighted(overrides)
            self.rebuilds += 1
        return self._router

    def latency(self, a: int, b: int) -> float:
        return self.router.delay(a, b)

    def link_bandwidth(self, a: int, b: int) -> float:
        return self.base.link_bandwidth(a, b)

    def link_loss_add(self, a: int, b: int) -> float:
        return self.base.link_loss_add(a, b)

    def path_loss_add(self, a: int, b: int) -> float:
        """Additive loss along the *measured* route a->b.

        Unlike the base overlay this guards unreachability (a down peer
        prices its links at ``inf``): an unreachable pair reports ``inf``
        loss rather than raising, mirroring the delay metric.
        """
        if not self._scales and not self._down:
            return self.base.path_loss_add(a, b)
        if a == b:
            return 0.0
        key = (a, b)
        hit = self._loss_cache.get(key)
        if hit is None:
            router = self.router
            if not router.reachable(a, b):
                hit = float("inf")
            else:
                hit = sum(
                    self.base.link_loss_add(u, v) for u, v in router.links(a, b)
                )
            self._loss_cache[key] = hit
        return hit

    def add_cache_listener(self, callback: Callable[[], None]) -> None:
        self._cache_listeners.append(callback)

    def clear_caches(self) -> None:
        self._invalidate()

    # -- mutation surface (driven by MeasurementPlane) -----------------
    @property
    def down_peers(self) -> Set[int]:
        return set(self._down)

    @property
    def link_scales(self) -> Dict[Link, float]:
        return dict(self._scales)

    def set_link_scale(self, link: Link, scale: Optional[float]) -> bool:
        """Install (or with ``None`` clear) a delay multiplier for one
        overlay link.  Returns whether anything changed."""
        link = _canon(*link)
        if link not in self.graph.edges:
            return False
        if scale is None:
            if link not in self._scales:
                return False
            del self._scales[link]
        else:
            if self._scales.get(link) == scale:
                return False
            self._scales[link] = float(scale)
        self._invalidate()
        return True

    def set_peer_down(self, peer: int) -> bool:
        if peer in self._down:
            return False
        self._down.add(peer)
        self._invalidate()
        return True

    def clear_peer_down(self, peer: int) -> bool:
        if peer not in self._down:
            return False
        self._down.discard(peer)
        self._invalidate()
        return True

    def reset(self) -> None:
        """Drop every measured delta (used on peer restart)."""
        if self._scales or self._down:
            self._scales.clear()
            self._down.clear()
            self._invalidate()

    def _invalidate(self) -> None:
        self._router = None
        self._loss_cache.clear()
        for callback in self._cache_listeners:
            callback()


class MeasurementPlane:
    """One live peer's measurement state: prober, estimators, path health.

    Samples arrive through two funnels, both wired by the daemon:

    * ``record_rtt(peer, rtt, method)`` — from the endpoint's ``on_rtt``
      hook (first-attempt successes only) and from answered probes;
    * ``record_failure(peer, method)`` — from the endpoint's
      ``on_failure`` hook whenever an RPC exhausts its retries.

    When constructed with a :class:`MeasuredOverlayView` (distributed
    mode with ``adapt_routing``), material estimate changes and path
    up/down transitions are pushed into the view; otherwise the plane is
    a pure observer (shared-state mode keeps one global BCP whose
    overlay must not be mutated per-peer).
    """

    def __init__(
        self,
        peer_id: int,
        base_overlay,
        endpoint,
        config: MeasurementConfig,
        view: Optional[MeasuredOverlayView] = None,
        tap=None,
        trace=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.peer_id = peer_id
        self.config = config
        self.endpoint = endpoint
        self.view = view
        self._tap = tap
        self._trace = trace
        self._clock = clock
        # bounded probe set: this peer's direct overlay neighbours,
        # nearest (by declared delay) first
        neighbours = sorted(
            base_overlay.graph.neighbors(peer_id),
            key=lambda q: float(base_overlay.graph.edges[peer_id, q]["delay"]),
        )
        self.neighbours: List[int] = neighbours[: config.probe_fanout]
        self._links: Set[Link] = {
            _canon(peer_id, q) for q in base_overlay.graph.neighbors(peer_id)
        }
        self._probe_retry = RetryPolicy(
            timeout=config.probe_timeout, retries=0, backoff=0.01
        )
        self._estimators: Dict[int, LinkEstimator] = {}
        self._failures: Dict[int, int] = {}
        self._down: Dict[int, float] = {}  # peer -> clock() at transition
        self._applied: Dict[Link, float] = {}  # scales installed in the view
        self._task: Optional[asyncio.Task] = None
        self._seq = 0
        self._rotate = 0
        # counters (surfaced via stats() / the CLI --profile block)
        self.probes_sent = 0
        self.probe_failures = 0
        self.samples_active = 0
        self.samples_passive = 0
        self.down_events = 0
        self.up_events = 0
        self.reprices = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Begin the active probe loop (needs a running event loop)."""
        if (
            not self.config.enabled
            or self.config.probe_interval <= 0
            or self._task is not None
        ):
            return
        self._task = asyncio.get_running_loop().create_task(
            self._probe_loop(), name=f"measure-{self.peer_id}"
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def rebind(self, endpoint) -> None:
        """Re-home the plane on a fresh endpoint after a peer restart.

        A restarted process has no memory: estimators, failure counters
        and any routing deltas this peer had installed are dropped."""
        self.stop()
        self.endpoint = endpoint
        self._estimators.clear()
        self._failures.clear()
        self._down.clear()
        self._applied.clear()
        self._seq = 0
        if self.view is not None:
            self.view.reset()

    # -- active probing ------------------------------------------------
    async def _probe_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.config.probe_interval)
                await self._probe_cycle()
        except asyncio.CancelledError:
            pass

    def _targets(self) -> List[int]:
        """This cycle's probe targets, recovery probes first.

        Down paths can only come back via a successful probe, so they
        always make the cut; remaining budget goes to the neighbour set,
        rotated so a fanout larger than the budget still covers every
        neighbour over successive cycles."""
        targets = sorted(self._down)
        if self.neighbours:
            n = len(self.neighbours)
            start = self._rotate % n
            self._rotate += 1
            ring = self.neighbours[start:] + self.neighbours[:start]
            targets += [q for q in ring if q not in self._down]
        return targets[: self.config.probe_budget]

    async def _probe_cycle(self) -> None:
        loop = asyncio.get_running_loop()
        for target in self._targets():
            self._seq += 1
            self.probes_sent += 1
            # the wire tap books the frame itself under ``net_measure``
            t0 = loop.time()
            try:
                # ignore_down: recovery probes are exactly the calls that
                # must still reach a marked-down peer — with the RPC
                # layer's peer_down fail-fast applied here, a downed path
                # could never be observed coming back up
                await self.endpoint.call(
                    target,
                    codec.PathProbe(origin=self.peer_id, seq=self._seq, sent_at=t0),
                    retry=self._probe_retry,
                    ignore_down=True,
                )
            except RpcError:
                # the endpoint's on_failure hook already routed this into
                # record_failure; here the loop just moves on
                continue

    # -- sample intake -------------------------------------------------
    def record_rtt(self, peer: int, rtt: float, method: str = "") -> None:
        """One measured round-trip to ``peer`` (active or passive)."""
        if not self.config.enabled:
            return
        if method == "PathProbe":
            self.samples_active += 1
        else:
            self.samples_passive += 1
        now = self._clock()
        est = self._estimators.get(peer)
        if est is None:
            est = self._estimators[peer] = LinkEstimator(self.config)
        est.add_sample(rtt, now)
        self._failures[peer] = 0
        if peer in self._down:
            self.mark_path_up(peer)
        self._reprice(peer, now)

    def record_failure(self, peer: int, method: str = "") -> None:
        """One exhausted exchange toward ``peer`` (probe or RPC)."""
        if not self.config.enabled:
            return
        if method == "PathProbe":
            self.probe_failures += 1
        count = self._failures.get(peer, 0) + 1
        self._failures[peer] = count
        if peer not in self._down and count >= self.config.down_after:
            self.mark_path_down(peer)

    # -- path health ---------------------------------------------------
    def mark_path_down(self, peer: int) -> None:
        if peer in self._down:
            return
        self._down[peer] = self._clock()
        self.down_events += 1
        if self._trace is not None:
            self._trace.record(
                "path_down", peer=self.peer_id, target=peer,
                failures=self._failures.get(peer, 0),
            )
        if self.view is not None and self.config.adapt_routing:
            self.view.set_peer_down(peer)

    def mark_path_up(self, peer: int) -> None:
        if peer not in self._down:
            return
        del self._down[peer]
        self._failures[peer] = 0
        self.up_events += 1
        if self._trace is not None:
            self._trace.record("path_up", peer=self.peer_id, target=peer)
        if self.view is not None and self.config.adapt_routing:
            self.view.clear_peer_down(peer)

    def is_down(self, peer: int) -> bool:
        return peer in self._down

    @property
    def down_paths(self) -> List[int]:
        return sorted(self._down)

    # -- routing adaptation --------------------------------------------
    def _reprice(self, peer: int, now: float) -> None:
        """Push a material estimate change for an adjacent link into the
        view (ratio-scaled; see module docstring for the unit argument)."""
        if self.view is None or not self.config.adapt_routing:
            return
        link = _canon(self.peer_id, peer)
        if link not in self._links:
            return  # measured a multi-hop path; only direct links re-price
        est = self._estimators[peer]
        if est.baseline is None:
            return
        ratio = est.ratio(now)
        estimate = est.estimate(now)
        material = (
            ratio >= self.config.material_ratio
            and estimate is not None
            and abs(estimate - est.baseline) >= self.config.min_delta
        )
        applied = self._applied.get(link)
        if material and applied is None and not est.sustained():
            return  # not yet proven: could be a scheduler stall
        if material:
            if (
                applied is None
                or abs(ratio - applied) / applied > self.config.rescale_tolerance
            ):
                if self.view.set_link_scale(link, ratio):
                    self._applied[link] = ratio
                    self.reprices += 1
                    if self._trace is not None:
                        self._trace.record(
                            "link_repriced", peer=self.peer_id, target=peer,
                            ratio=round(ratio, 3),
                        )
        elif applied is not None:
            if self.view.set_link_scale(link, None):
                del self._applied[link]
                self.reprices += 1

    # -- introspection -------------------------------------------------
    def estimator(self, peer: int) -> Optional[LinkEstimator]:
        return self._estimators.get(peer)

    def stats(self) -> Dict[str, object]:
        now = self._clock()
        return {
            "probes_sent": self.probes_sent,
            "probe_failures": self.probe_failures,
            "samples_active": self.samples_active,
            "samples_passive": self.samples_passive,
            "down_events": self.down_events,
            "up_events": self.up_events,
            "reprices": self.reprices,
            "paths_down": self.down_paths,
            "router_rebuilds": self.view.rebuilds if self.view is not None else 0,
            "links": {
                peer: est.snapshot(now)
                for peer, est in sorted(self._estimators.items())
            },
        }
