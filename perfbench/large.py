"""``compose-large``: the anytime composers on large function graphs.

A closed loop with one caller and no network: ``backtrack`` and
``decompose`` run through :func:`repro.core.strategies.create_strategy`
and the :class:`~repro.core.composition.SpiderNet` facade over one
:mod:`repro.workload.largegraph` world per DAG kind.  The worlds are
pinned (:data:`WORLD_SEED`); ``--seed`` draws the requests composed on
them.  The task list — every request under both strategies — is cycled
until the run's seconds are up, and at least once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.strategies import create_strategy
from repro.workload.largegraph import (
    LargeGraphConfig,
    largegraph_request,
    largegraph_world,
)

from .outcome import Outcome, PassResult, check_result

WORLDS: Tuple[Tuple[str, int], ...] = (
    ("layered", 20),
    ("series-parallel", 60),
    ("random", 100),
)
WORLD_SEED = 7
REQUESTS_PER_WORLD = 15
# Expansion caps.  At the composers' default caps (200k / 50k) one
# compose takes 5-14 s on a 2-core x86 host, so a run could not hold
# the ≥100 composes a p90 needs.  Both composers still stop at their
# cap, so the work per compose stays fixed and ψλ deterministic.
STRATEGIES: Dict[str, Dict[str, int]] = {
    "backtrack": {"node_limit": 3000},
    "decompose": {"stitch_node_limit": 1000, "fallback_node_limit": 1000},
}


@dataclass(frozen=True)
class Task:
    world: int
    strategy: str
    request: object


def params() -> Dict[str, object]:
    return {
        "worlds": [f"{kind}:{n}" for kind, n in WORLDS],
        "world_seed": WORLD_SEED,
        "requests_per_world": REQUESTS_PER_WORLD,
        "strategies": STRATEGIES,
        "loop": "closed, 1 caller",
        "confirm": False,
        "transport": "none (in-process composers)",
    }


def build_worlds():
    return [
        largegraph_world(LargeGraphConfig(kind=kind, n_functions=n, seed=WORLD_SEED))
        for kind, n in WORLDS
    ]


def _tasks(worlds, seed: int) -> List[Task]:
    per_world = []
    for w_idx, world in enumerate(worlds):
        rng = np.random.default_rng([seed, w_idx])
        per_world.append(
            [largegraph_request(world.overlay, world.graph, world.config, rng=rng)
             for _ in range(REQUESTS_PER_WORLD)]
        )
    # interleave worlds and strategies, so a window cut anywhere
    # samples them evenly
    return [
        Task(w_idx, name, per_world[w_idx][k])
        for k in range(REQUESTS_PER_WORLD)
        for w_idx in range(len(worlds))
        for name in STRATEGIES
    ]


def run_pass(seed: int, seconds: float, setups: int) -> PassResult:
    setup_times = []
    for _ in range(setups):
        t0 = time.perf_counter()
        worlds = build_worlds()
        setup_times.append(time.perf_counter() - t0)
    composers = [
        {name: create_strategy(name, w.net.strategy_context(), **opts)
         for name, opts in STRATEGIES.items()}
        for w in worlds
    ]
    tasks = _tasks(worlds, seed)

    def compose(idx: int):
        task = tasks[idx]
        net = worlds[task.world].net
        net.composer = composers[task.world][task.strategy]
        t0 = time.perf_counter()
        result = net.compose(task.request, confirm=False)
        return result, time.perf_counter() - t0

    # warm-up, untimed: the first task of each world and strategy, so
    # lazily built per-world state exists before timing; the timed cycle
    # composes these tasks again, which is the ψλ repeat check
    first_costs = {idx: compose(idx)[0].best_cost for idx in range(len(worlds) * len(STRATEGIES))}

    outcomes: List[Outcome] = []
    kept: Dict[int, object] = {}
    violations: List[str] = []
    costs = dict(first_costs)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while len(outcomes) < len(tasks) or time.perf_counter() - wall0 < seconds:
        idx = len(outcomes) % len(tasks)
        result, dt = compose(idx)
        if result.success:
            defect = check_result(result, tasks[idx].request)
            if defect:
                violations.append(f"{tasks[idx].strategy} task {idx}: {defect}")
        cost = result.best_cost
        if costs.setdefault(idx, cost) != cost:
            violations.append(
                f"{tasks[idx].strategy} task {idx}: psi {cost!r} differs from "
                f"{costs[idx]!r} on a repeat of the same request"
            )
        # a repeat is checked, then only its first result is kept, so the
        # run's memory does not grow with how many cycles the window held
        outcomes.append(
            Outcome("ok" if result.success else "unsuccessful", kept.setdefault(idx, result), dt)
        )
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    for w in worlds:
        w.net.composer = None

    ok = sum(1 for o in outcomes if o.kind == "ok")
    return PassResult(
        outcomes=outcomes,
        goodput_rps=ok / wall,
        # ψλ over the first cycle only: the same requests on every run
        # of a seed, however many cycles the window held
        psi_costs=[o.result.best_cost for o in outcomes[: len(tasks)] if o.kind == "ok"],
        setup_times=setup_times,
        violations=violations,
        composes=len(outcomes),
        cpu_busy=cpu / wall,
    )
