"""Per-request outcomes, the result of one measured pass, and the
validity check every successful composition must pass."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Outcome:
    """How one compose ended.  ``kind`` is ``ok``, ``unsuccessful`` (a
    structured failure: shed, no probe arrived, no qualified graph),
    ``timeout`` (client deadline) or ``error`` (an exception)."""

    kind: str
    result: object  # CompositionResult, or None without one
    latency_s: float  # from the due time (open loop) or send time (closed)
    error: Optional[str] = None


@dataclass
class PassResult:
    """Everything one load window measured."""

    outcomes: List[Outcome]  # the composes due in the measured window
    goodput_rps: float  # successful completions per second of the window
    psi_costs: List[float]  # ψλ of the selected graphs, for psi_cost_mean
    setup_times: List[float]
    violations: List[str]  # correctness violations anywhere in the pass
    composes: int  # every compose of the pass, warm-up included
    counters: Dict[str, float] = field(default_factory=dict)  # whole-pass deltas
    lags: List[float] = field(default_factory=list)
    loop_drifts: List[float] = field(default_factory=list)
    cpu_busy: float = 0.0
    wire_bytes_per_compose: float = 0.0  # live workloads only

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.kind == "ok"]


def check_result(result, request) -> Optional[str]:
    """None if a successful result is a valid answer, else the defect."""
    graph = result.best
    if graph is None:
        return "success without a graph"
    missing = set(request.function_graph.functions) - set(graph.assignment)
    if missing:
        return f"unassigned functions: {sorted(missing)[:3]}"
    if result.best_qos is None:
        return "success without a reported QoS"
    if not request.qos.satisfied_by(result.best_qos):
        return "reported QoS violates the request bounds"
    return None
