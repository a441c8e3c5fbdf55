"""End-to-end and per-layer metrics from measured passes."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from .outcome import PassResult
from .spans import SpanRecorder
from .stats import InsufficientSamples, layer_percentile, mean, percentile

__all__ = [
    "InsufficientSamples",
    "UNITS",
    "end_to_end",
    "per_layer",
    "layer_table",
    "lag_p99_ms",
    "outcome_counts",
]

RPC_TYPES = ("ComposeBegin", "ProbeTransfer", "FinalProbe", "LookupRequest")

UNITS: Dict[str, str] = {
    # end to end
    "setup_s": "s",
    "goodput_rps": "1/s",
    "success_ratio": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "psi_cost_mean": "psi",
    "peak_rss_mb": "MB",
    # harness
    "loadgen.lag_p99_ms": "ms",
    "loop.lag_p99_ms": "ms",
    "cpu.busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    # net.codec
    "codec.encode_us_per_frame": "us",
    "codec.decode_us_per_frame": "us",
    "codec.bytes_per_frame": "bytes",
    # net.transport
    "wire_bytes_per_compose": "bytes",
    "transport.frames_per_compose": "count",
    "transport.send_us_p50": "us",
    "transport.frames_dropped": "count",
    # net.rpc
    "rpc.calls_per_compose": "count",
    "rpc.retries": "count",
    "rpc.failures": "count",
    **{f"rpc.wait_ms_p50.{t}": "ms" for t in RPC_TYPES},
    # net.peer
    "peer.session_ms_p50": "ms",
    "peer.probes_per_compose": "count",
    "peer.candidates_per_compose": "count",
    # core.bcp / core.selection (self time per compose)
    "bcp.admit_us": "us",
    "bcp.filter_select_us": "us",
    "bcp.final_hop_us": "us",
    "selection.select_ms": "ms",
    # net.directory
    "directory.hit_rate": "ratio",
    "directory.dht_route_per_compose": "count",
    "directory.serves": "count",
    # net.admission
    "admission.sessions_rejected": "count",
    "admission.probes_shed": "count",
    "admission.budget_degrades": "count",
    "admission.sessions_peak": "count",
    # net.measurement
    "measurement.probes_sent": "count",
    "measurement.reprices": "count",
    "measurement.router_rebuilds": "count",
    # core.strategies (per compose, from result.phases ops_*)
    "strategy.expansions": "count",
    "strategy.pruned_bound": "count",
    "strategy.stitch_expansions": "count",
    "strategy.complete_graphs": "count",
    "strategy.expansions_per_s": "1/s",
    # net.cluster boot
    "boot.register_rpcs": "count",
}


def _latencies_ms(p: PassResult) -> List[float]:
    return [o.latency_s * 1000.0 for o in p.ok]


def end_to_end(p: PassResult) -> Dict[str, float]:
    """Every end-to-end metric but peak_rss_mb (taken at exit)."""
    lat = _latencies_ms(p)
    setups = sorted(p.setup_times)
    return {
        "setup_s": setups[len(setups) // 2],
        "goodput_rps": p.goodput_rps,
        "success_ratio": len(p.ok) / len(p.outcomes),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "psi_cost_mean": mean(p.psi_costs),
    }


def lag_p99_ms(lags: List[float]) -> float:
    """p99 of a lateness series (generator lag, loop drift).  These are
    validity signals, where the extreme tail is the point, so they are
    not held to the ≥10-beyond rule of reported timings."""
    return percentile([x * 1000.0 for x in lags], 99, min_beyond=0) if lags else 0.0


def _ops_mean(p: PassResult, key: str) -> float:
    return mean([o.result.phases.get(key, 0.0) for o in p.outcomes if o.result is not None])


def per_layer(traced: PassResult, rec: SpanRecorder, reference: PassResult) -> Dict[str, float]:
    """Every per-layer metric from the traced pass; the reference pass
    (same workload, untraced) gives the tracing overhead."""
    n = traced.composes
    c = traced.counters
    agg = rec.by_name()

    def self_s(*names: str) -> float:
        return sum(agg[k]["self"] for k in names if k in agg)

    def durations(name: str) -> List[float]:
        return agg[name]["durations"] if name in agg else []

    enc, dec = rec.values["codec.frames_encoded"], rec.values["codec.frames_decoded"]
    live = "frames_sent" in c
    results = [o.result for o in traced.outcomes if o.result is not None]
    hits, misses = c.get("cache_hits", 0), c.get("cache_misses", 0)
    compose_s = sum(o.latency_s for o in traced.outcomes) if not live else 0.0
    expansions = _ops_mean(traced, "ops_expansions")
    out = {
        "loadgen.lag_p99_ms": lag_p99_ms(traced.lags),
        "loop.lag_p99_ms": lag_p99_ms(traced.loop_drifts),
        "cpu.busy_ratio": traced.cpu_busy,
        "trace.overhead_ratio": (
            percentile(_latencies_ms(traced), 50) / percentile(_latencies_ms(reference), 50)
        ),
        "codec.encode_us_per_frame": self_s("codec.encode") * 1e6 / enc if enc else 0.0,
        "codec.decode_us_per_frame": self_s("codec.decode") * 1e6 / dec if dec else 0.0,
        "codec.bytes_per_frame": rec.values["codec.bytes_encoded"] / enc if enc else 0.0,
        "wire_bytes_per_compose": traced.wire_bytes_per_compose,
        "transport.frames_per_compose": c.get("frames_sent", 0) / n,
        "transport.send_us_p50": layer_percentile(durations("transport.send"), 50) * 1e6,
        "transport.frames_dropped": c.get("frames_dropped", 0),
        "rpc.calls_per_compose": c.get("calls_sent", 0) / n,
        "rpc.retries": c.get("retries", 0),
        "rpc.failures": c.get("rpc_failures", 0),
        **{
            f"rpc.wait_ms_p50.{t}": layer_percentile(durations(f"rpc.call.{t}"), 50) * 1e3
            for t in RPC_TYPES
        },
        "peer.session_ms_p50": layer_percentile(durations("peer.session"), 50) * 1e3,
        "peer.probes_per_compose": mean([r.probes_sent for r in results]) if live else 0.0,
        "peer.candidates_per_compose": (
            mean([r.candidates_examined for r in results]) if live else 0.0
        ),
        "bcp.admit_us": self_s("bcp.admit") * 1e6 / n,
        "bcp.filter_select_us": self_s("bcp.filter", "bcp.select") * 1e6 / n,
        "bcp.final_hop_us": self_s("bcp.final_hop") * 1e6 / n,
        "selection.select_ms": self_s("selection.select", "selection.merge") * 1e3 / n,
        "directory.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "directory.dht_route_per_compose": c.get("dht_route", 0) / n,
        "directory.serves": c.get("directory_serves", 0),
        "admission.sessions_rejected": c.get("sessions_rejected", 0),
        "admission.probes_shed": c.get("probes_shed", 0),
        "admission.budget_degrades": c.get("budget_degrades", 0),
        "admission.sessions_peak": c.get("sessions_peak", 0),
        "measurement.probes_sent": c.get("probes_sent", 0),
        "measurement.reprices": c.get("reprices", 0),
        "measurement.router_rebuilds": c.get("router_rebuilds", 0),
        "strategy.expansions": expansions,
        "strategy.pruned_bound": _ops_mean(traced, "ops_pruned_bound"),
        "strategy.stitch_expansions": _ops_mean(traced, "ops_stitch_expansions"),
        "strategy.complete_graphs": _ops_mean(traced, "ops_complete_graphs"),
        "strategy.expansions_per_s": expansions * n / compose_s if compose_s else 0.0,
        "boot.register_rpcs": c.get("register_rpcs", 0),
    }
    return {k: float(v) for k, v in out.items()}


def layer_table(rec: SpanRecorder, traced: PassResult, reference: PassResult) -> str:
    """Counts, self time and waits per span name, grouped by layer.

    Sync spans (codec, bcp, selection, strategy) are CPU; the self time
    of async spans (transport.send, rpc.call.*, peer.session,
    directory.lookup) also holds the time the task waited at its awaits.
    """
    n = traced.composes
    agg = rec.by_name()
    lines = [
        f"traced pass: {n} composes, warm-up included; per-compose figures divide by that",
        f"{'span':<32s} {'count':>8s} {'total_ms':>11s} {'self_ms':>11s} "
        f"{'self_ms/compose':>16s} {'p50_ms':>9s}",
    ]
    for name in sorted(agg, key=lambda k: (k.split(".")[0], k)):
        row = agg[name]
        p50 = layer_percentile(row["durations"], 50) * 1e3
        lines.append(
            f"{name:<32s} {row['count']:>8d} {row['total'] * 1e3:>11.1f} "
            f"{row['self'] * 1e3:>11.1f} {row['self'] * 1e3 / n:>16.3f} {p50:>9.3f}"
        )
    ref_good, tr_good = reference.goodput_rps, traced.goodput_rps
    lines.append(
        f"tracing overhead: goodput {tr_good:.2f}/s traced vs {ref_good:.2f}/s untraced "
        f"(ratio {tr_good / ref_good:.3f}); latency p50 ratio in trace.overhead_ratio"
    )
    return "\n".join(lines)


def outcome_counts(passes: List[PassResult]) -> Dict[str, int]:
    counts: Counter = Counter()
    for p in passes:
        for o in p.outcomes:
            key = o.kind
            if o.kind == "unsuccessful":
                key += ": " + (o.result.failure_reason or "?").split(" (")[0][:40]
            elif o.kind == "error":
                key += ": " + o.error[:40]
            counts[key] += 1
    return dict(counts)
