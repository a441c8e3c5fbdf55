"""Tests for the benchmark's own helpers, plus a short smoke of each
workload.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import large, live, metrics, run  # noqa: E402
from perfbench.loadgen import TICK_S, LoopTicker, OpenLoop, poisson_schedule  # noqa: E402
from perfbench.spans import SpanRecorder, covered  # noqa: E402
from perfbench.stats import InsufficientSamples, percentile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


@pytest.mark.parametrize("n, q", [(90, 90), (91, 90), (19, 50), (900, 99), (5, 50)])
def test_percentile_refuses_fewer_than_ten_beyond(n, q):
    with pytest.raises(InsufficientSamples):
        percentile(list(range(n)), q)


@pytest.mark.parametrize("n, q", [(92, 90), (20, 50), (1000, 99)])
def test_percentile_accepts_ten_beyond(n, q):
    values = list(range(n))
    p = percentile(values, q)
    assert sum(1 for v in values if v > p) >= 10


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    rec = SpanRecorder()
    parent = rec.add("p", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent=parent)
    rec.add("b", 3.0, 6.0, parent=parent)
    child = rec.add("c", 8.0, 9.0, parent=parent)
    rec.add("grandchild", 8.2, 8.4, parent=child)
    selfs = rec.self_times()
    assert selfs[parent] == pytest.approx(10.0 - 6.0)
    assert selfs[child] == pytest.approx(0.8)
    agg = rec.by_name()
    assert agg["p"]["count"] == 1 and agg["p"]["self"] == pytest.approx(4.0)


def test_parent_only_within_the_same_task():
    rec = SpanRecorder()

    async def child_task():
        h = rec.open("other-task", rid=7)
        rec.close(h)

    async def main():
        outer = rec.open("outer", rid=7)
        inner = rec.open("inner", rid=7)
        rec.close(inner)
        await asyncio.ensure_future(child_task())
        rec.close(outer)

    asyncio.run(main())
    by = {s[0]: s for s in rec.spans}
    assert by["inner"][3] == 0  # nested in the same task
    assert by["other-task"][3] is None  # another task: grouped by rid only
    assert {s[4] for s in rec.spans} == {7}


# ----------------------------------------------------------------------
# open-loop generator
# ----------------------------------------------------------------------
def test_poisson_schedule_is_seeded_sorted_and_counted():
    a = poisson_schedule(8.0, 30.0, seed=5)
    assert a == poisson_schedule(8.0, 30.0, seed=5)
    assert a != poisson_schedule(8.0, 30.0, seed=6)
    assert len(a) == 240 and a == sorted(a)
    assert all(0.0 <= t < 30.0 for t in a)


def test_latency_is_timed_from_due_time_after_a_stall():
    """A request stuck behind a loop stall is charged the stall."""
    done = {}

    async def main():
        loop = asyncio.get_running_loop()

        async def submit(i):
            if i == 0:
                time.sleep(0.2)  # blocks the loop: requests 1 and 2 go out late
            done[i] = loop.time() - gen.due_time(i)

        gen = OpenLoop([0.0, 0.01, 0.02], submit)
        await gen.run(loop.time())
        return gen

    gen = asyncio.run(main())
    assert gen.lags[0] < 0.05
    assert gen.lags[1] >= 0.15 and gen.lags[2] >= 0.15
    # latency from the due time includes the lag the stall imposed
    assert done[2] >= gen.lags[2]
    assert gen.due_time(2) - gen.due_time(0) == pytest.approx(0.02)


def test_loop_ticker_sees_a_stall():
    async def main():
        ticker = LoopTicker()
        ticker.start()
        await asyncio.sleep(2 * TICK_S)
        time.sleep(10 * TICK_S)
        await asyncio.sleep(2 * TICK_S)
        await ticker.stop()
        return ticker

    ticker = asyncio.run(main())
    assert max(ticker.drifts) >= 5 * TICK_S


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_match_the_benchmark_file():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    names = workloads + e2e + layer
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert set(workloads) == set(run.WORKLOADS)
    assert set(e2e) | set(layer) == set(metrics.UNITS)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metrics.UNITS[m["name"]] == m["unit"]


# ----------------------------------------------------------------------
# smoke: a few seconds of each workload, with the correctness gate
# ----------------------------------------------------------------------
def test_wan_steady_smoke():
    p = asyncio.run(live.run_pass(seed=3, seconds=3.0, setups=1))
    assert p.violations == []
    assert len(p.ok) > 0
    assert all(o.kind != "error" for o in p.outcomes)
    assert p.counters["register_rpcs"] > 0


def test_compose_large_smoke():
    p = large.run_pass(seed=3, seconds=0.1, setups=1)
    assert p.violations == []
    assert len(p.outcomes) >= len(large.WORLDS) * len(large.STRATEGIES)
    assert all(o.kind == "ok" for o in p.outcomes)
    assert p.psi_costs and all(c > 0 for c in p.psi_costs)


def test_cli_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wan-steady",
         "--seed", "3", "--seconds", "14", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert "trace.overhead_ratio" in proc.stdout.split("{")[0]


def test_cli_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wan-steady",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
