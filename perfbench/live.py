"""``wan-steady``: a 24-peer cluster over TCP on the loopback interface,
with emulated WAN delay, driven below saturation by the benchmark's own
seeded open-loop generator.

The cluster topology and component population are pinned
(:data:`SCENARIO_SEED`): they are the system under test.  ``--seed``
draws the load — the arrival schedule and every request's endpoints,
functions and QoS bounds.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.core.cost import psi_cost
from repro.net import AdmissionConfig, ClusterConfig, LiveCluster
from repro.workload.generator import RequestGenerator

from .loadgen import LoopTicker, OpenLoop, poisson_schedule
from .outcome import Outcome, PassResult, check_result

SCENARIO_SEED = 1
N_PEERS = 24
N_FUNCTIONS = 6
CAPACITY_SCALE = 4.0
RATE = 4.0  # offered req/s, open loop
# one-way wire delay = modeled overlay latency × this.  bench_live.py
# uses 0.05; at 0.1 the wire, not the host's drifting CPU speed, sets
# most of a compose's latency, and RTTs stay under the measurement
# plane's 0.25 s probe timeout
WAN_DELAY_SCALE = 0.1
# the bench_scaleout.py admission point; at this load it rarely binds,
# so the guard's bookkeeping runs on every compose without shaping it
ADMISSION = AdmissionConfig(
    enabled=True, max_sessions=3, probe_soft_limit=24, max_probe_tasks=48
)
DEADLINE_S = 10.0  # client deadline per compose
SETTLE_S = 5.0  # how long released soft state may take to clear after drain
# load offered before the measured window, as a share of it: queues,
# directory caches and link estimates reach steady state first
WARMUP_SHARE = 1.0 / 6.0


def params() -> Dict[str, object]:
    return {
        "peers": N_PEERS,
        "functions": N_FUNCTIONS,
        "capacity_scale": CAPACITY_SCALE,
        "scenario_seed": SCENARIO_SEED,
        "rate_rps": RATE,
        "loop": "open, Poisson",
        "wire_delay": f"overlay latency x {WAN_DELAY_SCALE}",
        "admission": {
            "max_sessions": ADMISSION.max_sessions,
            "probe_soft_limit": ADMISSION.probe_soft_limit,
            "max_probe_tasks": ADMISSION.max_probe_tasks,
        },
        "measurement_plane": True,
        "confirm": False,
        "deadline_s": DEADLINE_S,
        "transport": "TCP over loopback interface",
    }


async def boot() -> Tuple[LiveCluster, float, int]:
    """Build the scenario and cluster and finish boot registration.

    Returns the running cluster, the wall seconds that took, and the
    number of RPCs boot registration sent.
    """
    t0 = time.perf_counter()
    # the delay function goes into the config, but the overlay it reads
    # exists only once LiveCluster has built the scenario
    overlay = {}

    def wire_delay(src: int, dst: int) -> float:
        return 0.0 if src == dst else overlay["o"].latency(src, dst) * WAN_DELAY_SCALE

    cluster = LiveCluster(
        ClusterConfig(
            n_peers=N_PEERS,
            n_functions=N_FUNCTIONS,
            transport="tcp",
            seed=SCENARIO_SEED,
            capacity_scale=CAPACITY_SCALE,
            latency=wire_delay,
            admission=ADMISSION,
        )
    )
    overlay["o"] = cluster.scenario.overlay
    await cluster.start()
    setup_s = time.perf_counter() - t0
    # measurement probing is only scheduled by start(), so every call
    # sent so far is boot registration
    return cluster, setup_s, cluster.rpc_stats()["calls_sent"]


def _counters(cluster: LiveCluster) -> Dict[str, float]:
    rpc = cluster.rpc_stats()
    d = cluster.directory_stats()
    m = cluster.measurement_stats()
    a = cluster.admission_stats()
    return {
        "frames_sent": rpc["frames_sent"],
        "bytes_sent": rpc["bytes_sent"],
        "frames_dropped": rpc["frames_dropped"],
        "calls_sent": rpc["calls_sent"],
        "retries": rpc["retries_performed"],
        "rpc_failures": len(cluster.rpc_failures()),
        "cache_hits": d["cache_hits"],
        "cache_misses": d["cache_misses"],
        "directory_serves": d["directory_serves"],
        "dht_route": cluster.ledger.count.get("dht_route", 0),
        "probes_sent": m["probes_sent"],
        "reprices": m["reprices"],
        "router_rebuilds": m["router_rebuilds"],
        "sessions_rejected": a["sessions_rejected"],
        "probes_shed": a["probes_shed"],
        "budget_degrades": a["budget_degrades"],
        "sessions_peak": a["sessions_peak"],
    }


async def run_pass(seed: int, seconds: float, setups: int) -> PassResult:
    """Boot ``setups`` times (keeping the last cluster), then one load window."""
    setup_times: List[float] = []
    cluster: Optional[LiveCluster] = None
    for _ in range(setups):
        if cluster is not None:
            await cluster.stop()
        cluster, setup_s, register_rpcs = await boot()
        setup_times.append(setup_s)
    try:
        result = await _load(cluster, seed, seconds, setup_times, register_rpcs)
    finally:
        await cluster.stop()
    # ψλ of each selected graph against the idle shared pool (unsealed
    # by stop()): which graphs were picked, not how loaded the overlay
    # happened to be while they were picked
    weights = cluster.net.bcp.config.cost_weights
    result.psi_costs = [psi_cost(o.result.best, cluster.net.pool, weights) for o in result.ok]
    return result


async def _load(
    cluster: LiveCluster,
    seed: int,
    seconds: float,
    setup_times: List[float],
    register_rpcs: int,
) -> PassResult:
    """Offer ``warm-up + seconds`` of load; measure the last ``seconds``."""
    scenario = cluster.scenario
    gen = RequestGenerator(
        scenario.overlay, scenario.requests.functions, scenario.requests.config,
        rng=[seed, 0xC0DE],
    )
    warmup = seconds * WARMUP_SHARE
    # exact counts in the warm-up and in the window, so every run of
    # the workload measures the same number of composes
    due = poisson_schedule(RATE, warmup, seed, stream=0) + [
        warmup + t for t in poisson_schedule(RATE, seconds, seed, stream=1)
    ]
    # function counts cycle through the generator's range, so each run
    # offers the same mix of request sizes; the seed draws the rest
    lo, hi = gen.config.function_count
    requests = [gen.next_request(n_functions=lo + i % (hi - lo + 1)) for i in range(len(due))]
    outcomes: List[Optional[Outcome]] = [None] * len(due)
    done_at: List[float] = [0.0] * len(due)
    loop = asyncio.get_running_loop()

    async def submit(i: int) -> None:
        try:
            res = await cluster.compose(requests[i], confirm=False, timeout=DEADLINE_S)
        except asyncio.TimeoutError:
            kind, res, error = "timeout", None, None
        except Exception as exc:  # an answerless compose: reported as failed
            kind, res, error = "error", None, repr(exc)
        else:
            kind, error = ("ok" if res.success else "unsuccessful"), None
        done_at[i] = loop.time()
        outcomes[i] = Outcome(kind, res, done_at[i] - schedule.due_time(i), error)

    schedule = OpenLoop(due, submit)
    start = loop.time() + 0.05
    w0, w1 = start + warmup, start + warmup + seconds
    marks: Dict[str, Tuple[Dict[str, float], float]] = {}

    def mark(name: str) -> None:
        marks[name] = (_counters(cluster), time.process_time())

    before = _counters(cluster)
    loop.call_at(w0, mark, "w0")
    loop.call_at(w1, mark, "w1")
    ticker = LoopTicker()
    ticker.start()
    await schedule.run(start)
    await ticker.stop()
    while "w1" not in marks:  # every compose ended before the window did
        await asyncio.sleep(max(0.0, w1 - loop.time()))

    settle = loop.time() + SETTLE_S
    while (cluster.soft_tokens() or any(cluster.pool_tokens().values())) and loop.time() < settle:
        await asyncio.sleep(0.05)
    violations = [f"daemon error: {e}" for e in cluster.errors()]
    if cluster.soft_tokens():
        violations.append(f"soft tokens left after drain: {len(cluster.soft_tokens())} requests")
    leaked = {p: t for p, t in cluster.pool_tokens().items() if t}
    if leaked:
        violations.append(f"pool tokens left after drain on peers {sorted(leaked)}")
    for i, out in enumerate(outcomes):
        if out.kind == "ok":
            defect = check_result(out.result, requests[i])
            if defect:
                violations.append(f"request {requests[i].request_id}: {defect}")

    after = _counters(cluster)
    (c0, cpu0), (c1, cpu1) = marks["w0"], marks["w1"]
    measured = [out for i, out in enumerate(outcomes) if due[i] >= warmup]
    completed = sum(1 for i, out in enumerate(outcomes) if out.kind == "ok" and w0 <= done_at[i] < w1)
    return PassResult(
        outcomes=measured,
        goodput_rps=completed / seconds,
        wire_bytes_per_compose=(c1["bytes_sent"] - c0["bytes_sent"]) / len(measured),
        psi_costs=[],  # filled in by run_pass once the pool is idle again
        setup_times=setup_times,
        violations=violations,
        composes=len(outcomes),
        counters={k: after[k] - before[k] for k in after if k != "sessions_peak"}
        | {"sessions_peak": after["sessions_peak"], "register_rpcs": register_rpcs},
        lags=schedule.lags,
        loop_drifts=ticker.drifts,
        cpu_busy=(cpu1 - cpu0) / seconds,
    )
