"""The branch-and-bound search core on multi-branch DAGs.

A linear pattern has one branch, so it cannot tell per-branch QoS
accounting from accounting shared across branch prefixes.  These tests
use a diamond and a small series-parallel DAG: every exact composer
(``backtrack`` without a node limit, ``OptimalComposer``, ``decompose``
with one partition covering the whole graph) must hit the enumerated
optimum under both ranking objectives; the incremental QoS bounds must
equal a from-scratch per-branch evaluation bit for bit at every step of
a search; and a full search must leave the cost accounting exactly
where it started.
"""

import itertools

import pytest

from repro.core.baselines import OptimalComposer
from repro.core.bcp import BCPConfig
from repro.core.cost import CostWeights, psi_cost
from repro.core.function_graph import FunctionGraph
from repro.core.service_graph import ServiceGraph
from repro.core.strategies import StrategyContext, create_strategy
from repro.core.strategies.search import (
    PatternState,
    _dfs,
    _Incumbent,
    prepare_candidates,
)
from repro.perf.counters import OpCounters

from worlds import MicroWorld

OBJECTIVES = ("cost", "delay")


def diamond_world(objective):
    """fa → {fb, fc} → fd: two branches sharing both ends."""
    world = MicroWorld(n_peers=8, config=BCPConfig(objective=objective))
    for fn, placements in {
        "fa": [(1, 0.004, 12.0), (3, 0.009, 5.0), (6, 0.002, 20.0)],
        "fb": [(2, 0.006, 10.0), (5, 0.003, 14.0), (7, 0.012, 4.0)],
        "fc": [(1, 0.010, 6.0), (4, 0.002, 18.0)],
        "fd": [(3, 0.005, 8.0), (6, 0.001, 16.0), (7, 0.007, 7.0)],
    }.items():
        for peer, delay, cpu in placements:
            world.place(fn, peer, delay=delay, cpu=cpu, loss=0.0005 * peer)
    graph = FunctionGraph.from_edges(
        ["fa", "fb", "fc", "fd"],
        [("fa", "fb"), ("fa", "fc"), ("fb", "fd"), ("fc", "fd")],
    )
    return world, world.request(graph, source=0, dest=7, delay_bound=0.12)


def series_parallel_world(objective):
    """s → {p1, p2} → j → {q1, q2, q3} → t: six branches, two joins."""
    world = MicroWorld(n_peers=8, config=BCPConfig(objective=objective))
    for fn, placements in {
        "s": [(1, 0.003, 9.0), (4, 0.001, 15.0)],
        "p1": [(2, 0.008, 5.0), (5, 0.002, 13.0)],
        "p2": [(3, 0.004, 11.0), (6, 0.006, 6.0)],
        "j": [(2, 0.005, 7.0), (5, 0.002, 12.0)],
        "q1": [(1, 0.007, 4.0), (6, 0.003, 10.0)],
        "q2": [(4, 0.002, 14.0), (7, 0.009, 5.0)],
        "q3": [(3, 0.006, 8.0)],
        "t": [(6, 0.004, 9.0), (7, 0.008, 3.0)],
    }.items():
        for peer, delay, cpu in placements:
            world.place(fn, peer, delay=delay, cpu=cpu, loss=0.0005 * peer)
    edges = [("s", "p1"), ("s", "p2"), ("p1", "j"), ("p2", "j")]
    edges += [("j", q) for q in ("q1", "q2", "q3")]
    edges += [(q, "t") for q in ("q1", "q2", "q3")]
    graph = FunctionGraph.from_edges(
        ["s", "p1", "p2", "j", "q1", "q2", "q3", "t"], edges
    )
    return world, world.request(graph, source=0, dest=7, delay_bound=0.17)


WORLDS = {"diamond": diamond_world, "series-parallel": series_parallel_world}


def context(world):
    return StrategyContext(
        overlay=world.overlay,
        pool=world.pool,
        registry=world.registry,
        config=world.bcp.config,
        alive=world.bcp.alive,
        rng=world.bcp.rng,
        bcp=world.bcp,
    )


def enumerate_graphs(world, request):
    """(qualified, total): every qualified graph as (cost, delay)."""
    fns = list(request.function_graph.functions)
    qualified, total = [], 0
    for combo in itertools.product(*(world.registry.duplicates(f) for f in fns)):
        total += 1
        graph = ServiceGraph(
            pattern=request.function_graph,
            assignment=dict(zip(fns, combo)),
            source_peer=request.source_peer,
            dest_peer=request.dest_peer,
            base_bandwidth=request.bandwidth,
        )
        qos = graph.end_to_end_qos(world.overlay)
        if request.qos.satisfied_by(qos):
            qualified.append((psi_cost(graph, world.pool), qos.values["delay"]))
    return qualified, total


def best_value(world, request, objective):
    qualified, total = enumerate_graphs(world, request)
    # the bound must bite: some graphs qualify, some do not
    assert 0 < len(qualified) < total
    key = 0 if objective == "cost" else 1
    return min(q[key] for q in qualified)


def value_of(result, objective):
    assert result.success, result.failure_reason
    return result.best_cost if objective == "cost" else result.best_qos.values["delay"]


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("shape", sorted(WORLDS))
class TestMultiBranchExactness:
    def test_backtrack_matches_brute_force(self, shape, objective):
        world, request = WORLDS[shape](objective)
        expected = best_value(world, request, objective)
        strategy = create_strategy("backtrack", context(world), node_limit=None)
        result = strategy.compose(request, confirm=False)
        assert value_of(result, objective) == expected
        # the bounds did cut the walk, so they are what is under test
        assert result.phases.get("ops_pruned_bound", 0) + result.phases.get("ops_pruned_qos", 0) > 0

    def test_optimal_composer_matches_brute_force(self, shape, objective):
        world, request = WORLDS[shape](objective)
        expected = best_value(world, request, objective)
        optimal = OptimalComposer(
            world.overlay, world.pool, world.registry, objective=objective
        )
        result = optimal.compose(request, confirm=False)
        assert value_of(result, objective) == expected

    def test_decompose_with_one_partition_matches_brute_force(self, shape, objective):
        world, request = WORLDS[shape](objective)
        expected = best_value(world, request, objective)
        strategy = create_strategy(
            "decompose", context(world),
            partition_size=16, per_partition_k=1024, beam_width=1024,
        )
        result = strategy.compose(request, confirm=False)
        assert result.phases["ops_segments"] == 1
        assert value_of(result, objective) == expected


# ----------------------------------------------------------------------
# the incremental bounds against a from-scratch per-branch evaluation
# ----------------------------------------------------------------------
def candidates_for(world, request):
    weights = CostWeights.uniform(world.pool.resource_types)
    fg = request.function_graph
    candidates = prepare_candidates(
        fg.functions,
        {f: world.registry.duplicates(f) for f in fg.functions},
        world.pool,
        weights,
        lambda p: True,
    )
    return candidates, weights


def per_branch_bounds(state):
    """(qos_feasible, delay_lower_bound) recomputed branch by branch:
    each branch's assigned prefix summed front to back, plus the
    admissible remainder (Qp minima behind it + cheapest final hop)."""
    request, overlay = state.request, state.overlay
    dest = request.dest_peer
    final = {}
    for sink in state.sinks:
        peers = [c.meta.peer for c in state.candidates[sink]]
        final[sink] = (
            (0.0, 0.0)
            if dest in peers
            else (
                min(overlay.latency(p, dest) for p in peers),
                min(overlay.path_loss_add(p, dest) for p in peers),
            )
        )
    feasible, worst = True, 0.0
    for branch in state.pattern.branches():
        acc_d = acc_l = 0.0
        prev = request.source_peer
        k = 0
        while k < len(branch) and branch[k] in state.assignment:
            cand = state.assignment[branch[k]]
            step_d, step_l = cand.qp_delay, cand.qp_loss
            if prev != cand.meta.peer:
                step_d += overlay.latency(prev, cand.meta.peer)
                step_l += overlay.path_loss_add(prev, cand.meta.peer)
            if k == len(branch) - 1 and cand.meta.peer != dest:
                step_d += overlay.latency(cand.meta.peer, dest)
                step_l += overlay.path_loss_add(cand.meta.peer, dest)
            acc_d += step_d
            acc_l += step_l
            prev = cand.meta.peer
            k += 1
        rest_d = rest_l = 0.0
        for fn in reversed(branch[k:]):
            rest_d += min(c.qp_delay for c in state.candidates[fn])
            rest_l += min(c.qp_loss for c in state.candidates[fn])
        if k < len(branch):
            rest_d += final[branch[-1]][0]
            rest_l += final[branch[-1]][1]
        lb_d, lb_l = acc_d + rest_d, acc_l + rest_l
        if lb_d > state.delay_bound or lb_l > state.loss_bound:
            feasible = False
        worst = max(worst, lb_d)
    return feasible, worst


class CheckedState(PatternState):
    """Asserts the incremental bounds equal the per-branch ones after
    every assign (when the search consults them)."""

    checks = 0

    def qos_feasible(self):
        feasible, delay_lb = per_branch_bounds(self)
        assert super().qos_feasible() == feasible
        assert self.delay_lower_bound() == delay_lb
        CheckedState.checks += 1
        return feasible


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("shape", sorted(WORLDS))
def test_incremental_bounds_equal_per_branch_evaluation(shape, objective):
    world, request = WORLDS[shape](objective)
    candidates, weights = candidates_for(world, request)
    counters = OpCounters()
    state = CheckedState(
        request.function_graph, candidates, request, world.overlay, world.pool,
        weights, counters,
    )
    CheckedState.checks = 0
    _dfs(state, 0, _Incumbent(objective, 8), objective, [-1], counters)
    assert CheckedState.checks == counters["expansions"] > 0


# ----------------------------------------------------------------------
# undo restores the cost accounting exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("shape", sorted(WORLDS))
def test_full_search_leaves_no_float_drift(shape, objective):
    """Undo must restore ``partial_cost``/``rem_res`` exactly: subtracting
    a float that was added does not in general give the value back, and
    a cost bound drifting upward could cut an equal-cost tie."""
    world, request = WORLDS[shape](objective)
    candidates, weights = candidates_for(world, request)
    counters = OpCounters()
    state = PatternState(
        request.function_graph, candidates, request, world.overlay, world.pool,
        weights, counters,
    )
    initial_rem_res = state.rem_res
    _dfs(state, 0, _Incumbent(objective, 8), objective, [-1], counters)
    assert counters["complete_graphs"] > 0
    assert state.assignment == {}
    assert state.partial_cost == 0.0
    assert state.rem_res == initial_rem_res
