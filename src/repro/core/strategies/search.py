"""Exact branch-and-bound search over candidate service graphs.

The shared machinery behind the global-view composers: the pruned
backtracking strategy, the decomposition stitcher, and the rewritten
``OptimalComposer`` all drive the same :class:`PatternState` — a partial
assignment of components to functions, extended in topological order,
with incremental exact cost/QoS accounting and admissible lower bounds.

Three pruning rules, all value-preserving (they never cut a subtree that
could contain a strictly better solution):

* **QoS lower bound** — each branch path accumulates its exact prefix
  QoS (links + component Qp); the remaining functions contribute at
  least the sum of their per-function minimum Qp plus the cheapest
  last-hop to the destination.  If prefix + remainder already violates
  ``Qreq``, every completion violates it too.  Branches share their
  prefixes, so the state keeps one worst-prefix value per function
  (``worst[fn] = max over preds p of worst[p] + hop``) instead of one
  sum per branch: an assign costs one hop per predecessor, not one per
  branch through the function, and — rounded addition being monotone —
  every bound and prune decision is bit-identical to the per-branch
  sums.  The bound is checked incrementally, so ``qos_feasible`` must
  follow every ``assign``.
* **Cost lower bound** — the assigned prefix contributes its exact ψλ
  terms (mirroring :func:`~repro.core.cost.psi_cost` term by term); the
  unassigned functions contribute at least their minimum resource term.
  Link terms of unassigned edges are bounded by 0, keeping the bound
  admissible.  Subtrees whose bound exceeds the incumbent are cut.
* **Dominance** — within a (peer, input-quality, output-quality) group,
  a candidate that is no better on any ψλ-relevant dimension (resource
  term, Qp delay, Qp loss, bandwidth factor) than another is discarded
  up front: the dominating candidate can replace it in any graph without
  making cost, QoS, or feasibility worse.

Complete assignments are re-evaluated *exactly* via ``ServiceGraph`` +
``psi_cost`` + ``end_to_end_qos``, so reported values are identical to
what :func:`~repro.core.selection.select_composition` would compute for
the same graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...discovery.metadata import ServiceMetadata
from ...perf.counters import OpCounters
from ...topology.overlay import Overlay
from ..cost import CostWeights, psi_cost
from ..function_graph import FunctionGraph
from ..request import CompositeRequest
from ..resources import ResourcePool
from ..selection import CandidateGraph, SelectionOutcome
from ..service_graph import ServiceGraph

__all__ = [
    "Candidate",
    "SearchOutcome",
    "PatternState",
    "prepare_candidates",
    "search_compositions",
]

_EPS = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One duplicated component with its precomputed ψλ-relevant terms."""

    meta: ServiceMetadata
    res_term: float  # Σ wᵢ·rᵢ/raᵢ on the host peer (finite by construction)
    qp_delay: float
    qp_loss: float


@dataclass
class SearchOutcome:
    """What a bounded search learned (shape mirrors SelectionOutcome)."""

    best: Optional[CandidateGraph]
    qualified: List[CandidateGraph] = field(default_factory=list)
    n_complete: int = 0  # complete service graphs evaluated
    counters: OpCounters = field(default_factory=OpCounters)
    exhausted: bool = True  # False when the node limit stopped the search

    def selection(self) -> SelectionOutcome:
        return SelectionOutcome(
            best=self.best, qualified=self.qualified, n_candidates=self.n_complete
        )


def _res_term(meta: ServiceMetadata, pool: ResourcePool, weights: CostWeights) -> float:
    total = 0.0
    for rtype, w in weights.resource_weights.items():
        demand = meta.resources.get(rtype)
        if w == 0.0 or demand == 0.0:
            continue
        a = pool.available_amount(meta.peer, rtype)
        if a <= _EPS:
            return math.inf
        total += w * demand / a
    return total


def prepare_candidates(
    functions: Sequence[str],
    duplicates: Dict[str, List[ServiceMetadata]],
    pool: ResourcePool,
    weights: CostWeights,
    alive: Callable[[int], bool],
    objective: str = "cost",
    dominance: bool = True,
    counters: Optional[OpCounters] = None,
) -> Optional[Dict[str, List[Candidate]]]:
    """Per-function candidate lists: filtered, dominance-pruned, ordered.

    Returns ``None`` when some function has no viable candidate (no
    duplicate alive, or every host's resources exhausted).  Ordering is
    by marginal benefit for the requested objective — cheapest resource
    term first under ``"cost"``, fastest Qp first under ``"delay"`` —
    so depth-first search reaches strong incumbents early.
    """
    out: Dict[str, List[Candidate]] = {}
    for fn in functions:
        cands: List[Candidate] = []
        for meta in duplicates.get(fn, []):
            if not alive(meta.peer):
                continue
            term = _res_term(meta, pool, weights)
            if math.isinf(term):
                # psi_cost of any graph using this component is inf and
                # select_composition never qualifies inf-cost graphs
                if counters is not None:
                    counters.incr("pruned_exhausted_host")
                continue
            qp = meta.qp.values
            cands.append(
                Candidate(meta, term, qp.get("delay", 0.0), qp.get("loss", 0.0))
            )
        if dominance:
            cands = _dominance_filter(cands, counters)
        if not cands:
            return None
        if objective == "delay":
            cands.sort(key=lambda c: (c.qp_delay, c.res_term, c.meta.component_id))
        else:
            cands.sort(key=lambda c: (c.res_term, c.qp_delay, c.meta.component_id))
        out[fn] = cands
    return out


def _dominance_filter(
    cands: List[Candidate], counters: Optional[OpCounters]
) -> List[Candidate]:
    """Drop candidates dominated within their (peer, quality) group.

    Dominance is exact-safe only within a group sharing the host peer and
    both quality specs: swapping in the dominator then changes no link
    endpoints, no quality compatibility, and no ψλ/QoS term for the
    worse.  Lower ``bandwidth_factor`` is included because it can only
    shrink every downstream link's bandwidth demand.
    """
    groups: Dict[Tuple, List[Candidate]] = {}
    for c in cands:
        key = (c.meta.peer, c.meta.input_quality, c.meta.output_quality)
        groups.setdefault(key, []).append(c)
    kept: List[Candidate] = []
    for group in groups.values():
        group.sort(
            key=lambda c: (
                c.res_term,
                c.qp_delay,
                c.qp_loss,
                c.meta.bandwidth_factor,
                c.meta.component_id,
            )
        )
        front: List[Candidate] = []
        for c in group:
            dominated = any(
                f.res_term <= c.res_term
                and f.qp_delay <= c.qp_delay
                and f.qp_loss <= c.qp_loss
                and f.meta.bandwidth_factor <= c.meta.bandwidth_factor
                for f in front
            )
            if dominated:
                if counters is not None:
                    counters.incr("pruned_dominated")
            else:
                front.append(c)
        kept.extend(front)
    kept.sort(key=lambda c: c.meta.component_id)
    return kept


class _NodeLimit(Exception):
    """Internal: the expansion budget ran out mid-search."""


_Undo = Tuple[str, float, float]  # (fn, partial_cost, rem_res) before the assign


class PatternState:
    """A partial component assignment over one composition pattern.

    Functions are assigned in a topological order (callers may assign
    one at a time, or whole consecutive segments; any topological order
    extends every branch path front to back).  The state keeps,
    incrementally:

    * exact ψλ terms of the assigned prefix (component resource terms +
      every service link whose bandwidth is already determined),
    * the exact worst-prefix QoS of every assigned function: the max,
      over all source→fn paths, of the path's link delay/loss +
      component Qp, summed front to back as a per-branch sum would be
      (``d_p`` = Qp, then the link from predecessor ``p``'s peer, then
      the final hop on a sink),
    * admissible remainders (the worst suffix of Qp minima + cheapest
      final hop behind each function; minimum resource term per
      unassigned function).

    Worst-prefix values of unassigned functions are stale and never
    read; the next assign overwrites them.  ``unassign`` restores only
    the cost scalars, from the undo token, so they never drift.

    Hop (latency, loss) is memoized for the state's lifetime, and the
    candidates' resource terms were scored against ``pool``: neither
    ``overlay`` nor ``pool`` may change while a state is alive (the
    composers reserve only after the search has returned).

    ``assign`` returns an undo token or ``None`` when the extension is
    immediately infeasible (quality mismatch or exhausted link).

    **Contract:** call :meth:`qos_feasible` after every successful
    ``assign`` and extend no further when it returns False.  It checks
    only the function just assigned (and the constant empty-prefix
    bound): every other branch frontier passed its check when it was
    assigned and has not changed since.
    """

    def __init__(
        self,
        pattern: FunctionGraph,
        candidates: Dict[str, List[Candidate]],
        request: CompositeRequest,
        overlay: Overlay,
        pool: ResourcePool,
        weights: CostWeights,
        counters: OpCounters,
    ) -> None:
        self.pattern = pattern
        self.candidates = candidates
        self.request = request
        self.overlay = overlay
        self.pool = pool
        self.weights = weights
        self.counters = counters
        self.order: List[str] = pattern.topological_order()
        self.sources = set(pattern.sources())
        self.sinks = set(pattern.sinks())
        # (u, v) -> (latency, additive loss) of the overlay path u→v
        self._hops: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._build_bounds()
        # mutable search state
        self.assignment: Dict[str, Candidate] = {}
        self.rates: Dict[str, Tuple[float, float]] = {}
        self.worst_delay: Dict[str, float] = {}
        self.worst_loss: Dict[str, float] = {}
        self.partial_cost = 0.0
        self.rem_res = sum(self.min_res[f] for f in self.order)
        self._feasible = self._root_feasible  # verdict of the latest assign

    # ------------------------------------------------------------------
    def _build_bounds(self) -> None:
        dest = self.request.dest_peer
        min_qp_delay = {
            f: min(c.qp_delay for c in self.candidates[f]) for f in self.order
        }
        min_qp_loss = {
            f: min(c.qp_loss for c in self.candidates[f]) for f in self.order
        }
        self.min_res = {
            f: min(c.res_term for c in self.candidates[f]) for f in self.order
        }
        # cheapest possible last hop (sink candidate -> destination)
        dest_min_delay: Dict[str, float] = {}
        dest_min_loss: Dict[str, float] = {}
        for fn in self.sinks:
            dd, dl = math.inf, math.inf
            for c in self.candidates[fn]:
                if c.meta.peer == dest:
                    dd, dl = 0.0, 0.0
                    break
                lat, loss = self._hop(c.meta.peer, dest)
                dd = min(dd, lat)
                dl = min(dl, loss)
            dest_min_delay[fn] = dd
            dest_min_loss[fn] = dl
        # worst admissible QoS still to come, over the branches through
        # each function: before it is assigned, and once it is
        before_delay = {f: -math.inf for f in self.order}
        before_loss = dict(before_delay)
        after_delay = dict(before_delay)
        after_loss = dict(before_delay)
        for branch in self.pattern.branches():
            # sd[j] = admissible QoS still to come once positions < j are
            # assigned (suffix Qp minima + the cheapest final hop, which
            # is still ahead until the last position is done)
            n = len(branch)
            sd = [0.0] * (n + 1)
            sl = [0.0] * (n + 1)
            for j in range(n - 1, -1, -1):
                sd[j] = sd[j + 1] + min_qp_delay[branch[j]]
                sl[j] = sl[j + 1] + min_qp_loss[branch[j]]
            last = branch[-1]
            for j in range(n):
                sd[j] += dest_min_delay[last]
                sl[j] += dest_min_loss[last]
            for j, fn in enumerate(branch):
                before_delay[fn] = max(before_delay[fn], sd[j])
                before_loss[fn] = max(before_loss[fn], sl[j])
                after_delay[fn] = max(after_delay[fn], sd[j + 1])
                after_loss[fn] = max(after_loss[fn], sl[j + 1])
        self._after = {f: (after_delay[f], after_loss[f]) for f in self.order}
        bounds = self.request.qos.bounds
        self.delay_bound = bounds.get("delay", math.inf)
        self.loss_bound = bounds.get("loss", math.inf)
        # the empty prefix: no assignment ever changes this verdict
        self._root_feasible = all(
            before_delay[f] <= self.delay_bound and before_loss[f] <= self.loss_bound
            for f in self.sources
        )
        # (pred, fn, before_delay) per edge, pred None for the sender:
        # a branch's frontier is the last assigned function before an
        # unassigned one, or an assigned sink
        self._frontier = [(None, f, before_delay[f]) for f in self.sources]
        self._frontier += [(a, b, before_delay[b]) for a, b in self.pattern.edges]

    # ------------------------------------------------------------------
    def _hop(self, u: int, v: int) -> Tuple[float, float]:
        """(latency, additive loss) of the overlay path u→v, memoized."""
        hop = self._hops.get((u, v))
        if hop is None:
            hop = (self.overlay.latency(u, v), self.overlay.path_loss_add(u, v))
            self._hops[(u, v)] = hop
        return hop

    def _link_term(self, src: int, dst: int, bandwidth: float) -> float:
        """One service link's ψλ term, mirroring psi_cost exactly."""
        if src == dst or bandwidth <= 0 or self.weights.bandwidth_weight <= 0.0:
            return 0.0
        ba = self.pool.path_available_bandwidth(src, dst)
        if ba <= _EPS:
            return math.inf
        if math.isinf(ba):
            return 0.0
        return self.weights.bandwidth_weight * bandwidth / ba

    def assign(self, fn: str, cand: Candidate) -> Optional[_Undo]:
        """Extend the prefix with ``fn -> cand``; None if infeasible."""
        self.counters.incr("expansions")
        pattern = self.pattern
        meta = cand.meta
        preds = pattern.predecessors(fn)
        for p in preds:
            if not self.assignment[p].meta.output_quality.compatible_with(
                meta.input_quality
            ):
                self.counters.incr("pruned_quality")
                return None
        if preds:
            in_rate = max(self.rates[p][1] for p in preds)
        else:
            in_rate = self.request.bandwidth
        out_rate = in_rate * meta.bandwidth_factor
        cost_delta = cand.res_term
        for p in preds:
            term = self._link_term(self.assignment[p].meta.peer, meta.peer, self.rates[p][1])
            if math.isinf(term):
                self.counters.incr("pruned_exhausted_link")
                return None
            cost_delta += term
        if fn in self.sources:
            term = self._link_term(self.request.source_peer, meta.peer, in_rate)
            if math.isinf(term):
                self.counters.incr("pruned_exhausted_link")
                return None
            cost_delta += term
        sink = fn in self.sinks
        if sink:
            term = self._link_term(meta.peer, self.request.dest_peer, out_rate)
            if math.isinf(term):
                self.counters.incr("pruned_exhausted_link")
                return None
            cost_delta += term
        # commit
        undo = (fn, self.partial_cost, self.rem_res)
        self.assignment[fn] = cand
        self.rates[fn] = (in_rate, out_rate)
        self.partial_cost += cost_delta
        self.rem_res -= self.min_res[fn]
        # worst prefix QoS over the paths arriving from each predecessor
        peer = meta.peer
        dest_peer = self.request.dest_peer
        final = None
        if sink and peer != dest_peer:
            final = self._hop(peer, dest_peer)
        if preds:
            arrivals = [
                (self.assignment[p].meta.peer, self.worst_delay[p], self.worst_loss[p])
                for p in preds
            ]
        else:
            arrivals = [(self.request.source_peer, 0.0, 0.0)]
        worst_delay = worst_loss = -math.inf
        for prev_peer, prev_delay, prev_loss in arrivals:
            d_delay = cand.qp_delay
            d_loss = cand.qp_loss
            if prev_peer != peer:
                hop = self._hop(prev_peer, peer)
                d_delay += hop[0]
                d_loss += hop[1]
            if final is not None:
                d_delay += final[0]
                d_loss += final[1]
            delay = prev_delay + d_delay
            loss = prev_loss + d_loss
            if delay > worst_delay:
                worst_delay = delay
            if loss > worst_loss:
                worst_loss = loss
        self.worst_delay[fn] = worst_delay
        self.worst_loss[fn] = worst_loss
        after_delay, after_loss = self._after[fn]
        self._feasible = (
            self._root_feasible
            and worst_delay + after_delay <= self.delay_bound
            and worst_loss + after_loss <= self.loss_bound
        )
        return undo

    def unassign(self, undo: _Undo) -> None:
        fn, self.partial_cost, self.rem_res = undo
        del self.rates[fn]
        del self.assignment[fn]

    # ------------------------------------------------------------------
    def qos_feasible(self) -> bool:
        """Can any completion of the prefix still satisfy ``Qreq``?

        The verdict of the latest ``assign`` (see the class contract)."""
        return self._feasible

    def cost_lower_bound(self) -> float:
        return self.partial_cost + self.rem_res

    def delay_lower_bound(self) -> float:
        """Worst branch of (prefix delay + admissible remainder), taken
        over branch frontiers: the max splits into worst prefix + worst
        suffix at each frontier, bit for bit, by monotonicity."""
        assigned = self.assignment
        worst = 0.0
        for fn in self.sinks:
            if fn in assigned and self.worst_delay[fn] > worst:
                worst = self.worst_delay[fn]
        for pred, fn, before in self._frontier:
            if fn in assigned:
                continue
            if pred is None:
                lb = before
            elif pred in assigned:
                lb = self.worst_delay[pred] + before
            else:
                continue
            if lb > worst:
                worst = lb
        return worst

    def complete_graph(self) -> ServiceGraph:
        return ServiceGraph(
            pattern=self.pattern,
            assignment={f: c.meta for f, c in self.assignment.items()},
            source_peer=self.request.source_peer,
            dest_peer=self.request.dest_peer,
            base_bandwidth=self.request.bandwidth,
        )


class _Incumbent:
    """Best-so-far and top-K qualified graphs, ranked like §4.3 selection."""

    def __init__(self, objective: str, top_k: int) -> None:
        self.objective = objective
        self.top_k = top_k
        self.qualified: List[CandidateGraph] = []
        self._seen: Set[Tuple] = set()

    def _key(self, cand: CandidateGraph) -> Tuple[float, float]:
        delay = cand.qos.values.get("delay", 0.0)
        return (cand.cost, delay) if self.objective == "cost" else (delay, cand.cost)

    @property
    def best(self) -> Optional[CandidateGraph]:
        return self.qualified[0] if self.qualified else None

    def best_cost(self) -> float:
        return self.qualified[0].cost if self.qualified else math.inf

    def best_delay(self) -> float:
        if not self.qualified:
            return math.inf
        return self.qualified[0].qos.values.get("delay", 0.0)

    def offer(self, cand: CandidateGraph) -> None:
        sig = cand.graph.signature()
        if sig in self._seen:
            return
        self._seen.add(sig)
        self.qualified.append(cand)
        self.qualified.sort(key=self._key)
        if len(self.qualified) > self.top_k:
            dropped = self.qualified.pop()
            self._seen.discard(dropped.graph.signature())


def search_compositions(
    request: CompositeRequest,
    duplicates: Dict[str, List[ServiceMetadata]],
    overlay: Overlay,
    pool: ResourcePool,
    alive: Callable[[int], bool] = lambda p: True,
    cost_weights: Optional[CostWeights] = None,
    objective: str = "cost",
    max_patterns: int = 8,
    dominance: bool = True,
    node_limit: Optional[int] = None,
    top_k: int = 32,
    counters: Optional[OpCounters] = None,
) -> SearchOutcome:
    """Branch-and-bound over every composition pattern of the request.

    With ``node_limit=None`` the search is exhaustive-equivalent: it
    returns the same best value the full enumeration would (dominance and
    lower-bound cuts are value-preserving).  With a limit it becomes an
    anytime algorithm — the incumbent found so far is returned and
    ``exhausted`` is False.
    """
    if objective not in ("cost", "delay"):
        raise ValueError(f"unknown selection objective {objective!r}")
    weights = cost_weights or CostWeights.uniform(pool.resource_types)
    counters = counters if counters is not None else OpCounters()
    fg = request.function_graph
    candidates = prepare_candidates(
        fg.functions, duplicates, pool, weights, alive, objective, dominance, counters
    )
    incumbent = _Incumbent(objective, top_k)
    exhausted = True
    if candidates is not None:
        budget = [node_limit if node_limit is not None else -1]
        for _, pattern in fg.composition_patterns(max_patterns):
            state = PatternState(
                pattern, candidates, request, overlay, pool, weights, counters
            )
            try:
                _dfs(state, 0, incumbent, objective, budget, counters)
            except _NodeLimit:
                exhausted = False
                break
    best = incumbent.best
    return SearchOutcome(
        best=best,
        qualified=list(incumbent.qualified),
        n_complete=counters["complete_graphs"],
        counters=counters,
        exhausted=exhausted,
    )


def _dfs(
    state: PatternState,
    depth: int,
    incumbent: _Incumbent,
    objective: str,
    budget: List[int],
    counters: OpCounters,
) -> None:
    if depth == len(state.order):
        _complete_leaf(state, incumbent, counters)
        return
    fn = state.order[depth]
    for cand in state.candidates[fn]:
        if budget[0] == 0:
            raise _NodeLimit
        if budget[0] > 0:
            budget[0] -= 1
        undo = state.assign(fn, cand)
        if undo is None:
            continue
        try:
            # the incremental QoS check: required after every assign
            if not state.qos_feasible():
                counters.incr("pruned_qos")
                continue
            if objective == "cost":
                if state.cost_lower_bound() > incumbent.best_cost():
                    counters.incr("pruned_bound")
                    continue
            else:
                if state.delay_lower_bound() > incumbent.best_delay():
                    counters.incr("pruned_bound")
                    continue
            _dfs(state, depth + 1, incumbent, objective, budget, counters)
        finally:
            state.unassign(undo)


def _complete_leaf(
    state: PatternState, incumbent: _Incumbent, counters: OpCounters
) -> None:
    counters.incr("complete_graphs")
    graph = state.complete_graph()
    qos = graph.end_to_end_qos(state.overlay)
    if not state.request.qos.satisfied_by(qos):
        counters.incr("complete_unqualified")
        return
    cost = psi_cost(graph, state.pool, state.weights)
    if math.isinf(cost):
        counters.incr("complete_unqualified")
        return
    incumbent.offer(CandidateGraph(graph=graph, qos=qos, cost=cost))
