"""Golden replay of the branch-and-bound search core.

``backtrack`` and ``decompose`` run at fixed expansion caps on pinned
large-graph worlds (cost objective, as in the compose-scale benchmark),
for one request at the generator's QoS budget and one tight enough that
QoS pruning (and, on some worlds, the decomposition fallback) engages.  For each run the
fixture holds the exact ``repr(best_cost)`` and every ``ops_*`` counter
the search reported.
Any change to the search's accounting (QoS prefixes, bounds, undo) must
reproduce both bit for bit: a faster search is welcome, a different one
is not.  The records never mention component ids — those are
process-global counters and differ between processes.

Regenerate (only when a change to the search's *results* is intended):

    PYTHONPATH=src python tests/test_search_replay.py > tests/golden/search_replay.json
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.core.strategies import create_strategy
from repro.workload.largegraph import (
    LargeGraphConfig,
    largegraph_request,
    largegraph_world,
)

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "search_replay.json"

# (kind, n_functions): one world per DAG shape, smaller than the
# compose-scale benchmark's so the replay stays within a few seconds
WORLDS = (("layered", 20), ("series-parallel", 40), ("random", 50))
WORLD_SEED = 7
REQUEST_SEED = 1
QOS_TIGHTNESS = (1.5, 0.5)  # one request per value, drawn in this order
STRATEGIES = {
    "backtrack": {"node_limit": 3000},
    "decompose": {"stitch_node_limit": 1000, "fallback_node_limit": 1000},
}


def replay_records():
    """One record per (world, strategy, request), in a fixed order."""
    records = []
    for w_idx, (kind, n) in enumerate(WORLDS):
        world = largegraph_world(
            LargeGraphConfig(kind=kind, n_functions=n, seed=WORLD_SEED),
            n_peers=30,
            n_ip=120,
        )
        rng = np.random.default_rng([REQUEST_SEED, w_idx])
        requests = [
            largegraph_request(
                world.overlay,
                world.graph,
                dataclasses.replace(world.config, qos_tightness=tightness),
                rng=rng,
            )
            for tightness in QOS_TIGHTNESS
        ]
        for name, opts in STRATEGIES.items():
            composer = create_strategy(name, world.net.strategy_context(), **opts)
            for r_idx, request in enumerate(requests):
                result = composer.compose(request, confirm=False)
                records.append(
                    {
                        "world": f"{kind}:{n}",
                        "request": r_idx,
                        "strategy": name,
                        "best_cost": repr(result.best_cost),
                        "ops": {
                            k: int(v)
                            for k, v in sorted(result.phases.items())
                            if k.startswith("ops_")
                        },
                    }
                )
    return records


@pytest.fixture(scope="module")
def replayed():
    return replay_records()


def test_replay_matches_golden_records(replayed):
    golden = json.loads(FIXTURE.read_text())
    assert len(replayed) == len(golden)
    for got, want in zip(replayed, golden):
        assert got == want


def test_replay_exercises_both_composers_and_pruning(replayed):
    """The fixture is only worth its bytes if it covers real search work:
    successful composes, both pruning rules, the stitch and its fallback."""
    assert any(r["best_cost"] != "inf" for r in replayed)
    assert {r["strategy"] for r in replayed} == set(STRATEGIES)
    for key in ("pruned_bound", "pruned_qos", "stitch_expansions", "fallback_search"):
        assert any(r["ops"].get("ops_" + key, 0) > 0 for r in replayed), key


if __name__ == "__main__":
    print(json.dumps(replay_records(), indent=1))
