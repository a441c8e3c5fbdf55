"""Run one workload of the SpiderNet benchmark and print its metrics.

    python3 perfbench/run.py --workload wan-steady --seed 1 --seconds 45 --trace 0

``--trace 0`` measures one untraced window and prints every end-to-end
metric.  ``--trace 1`` splits the seconds between an untraced reference
window and a traced one, writes the traced window's spans under
``perfbench/out/``, prints the per-layer table, and reports every
per-layer metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any correctness
violation exits 1 without that line.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import resource
import sys
from typing import Dict, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("wan-steady", "compose-large")
# a run whose generator fell further behind its schedule than this (p99)
# did not offer the load it claims, and is invalid
LAG_BOUND_MS = 1000.0
# set-ups per untraced run; setup_s is their median.  One world build
# varied 0.14-0.31 s from one second to the next on a 2-core VM, so the
# median spans several seconds of the host's speed
SETUPS = 15


def _git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' in a
    plain checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_pass(workload: str, seed: int, seconds: float, setups: int):
    from . import large, live

    if workload == "compose-large":
        return large.run_pass(seed, seconds, setups)
    return asyncio.run(live.run_pass(seed, seconds, setups))


def _params(workload: str) -> Dict[str, object]:
    from . import large, live

    return large.params() if workload == "compose-large" else live.params()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from . import metrics
    from .spans import SpanRecorder, instrument

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        passes = [_run_pass(args.workload, args.seed, args.seconds, SETUPS)]
    else:
        half = args.seconds / 2.0
        reference = _run_pass(args.workload, args.seed, half, 1)
        rec = SpanRecorder()
        with instrument(rec):
            traced = _run_pass(args.workload, args.seed, half, 1)
        passes = [reference, traced]
        span_file = OUT_DIR / f"spans-{tag}.jsonl"
        rec.write(span_file)

    problems = [v for p in passes for v in p.violations]
    for p in passes:
        lag_ms = metrics.lag_p99_ms(p.lags)
        if lag_ms > LAG_BOUND_MS:
            problems.append(
                f"generator ran {lag_ms:.0f} ms late at p99 (bound {LAG_BOUND_MS:.0f} ms)"
            )
    if problems:
        for v in problems[:20]:
            print(f"VIOLATION: {v}", file=sys.stderr)
        print(f"{len(problems)} correctness violations; no metrics reported",
              file=sys.stderr)
        return 1

    try:
        if args.trace == 0:
            values = metrics.end_to_end(passes[0])
        else:
            values = metrics.per_layer(traced, rec, reference)
            print(metrics.layer_table(rec, traced, reference))
            print(f"spans: {len(rec.spans)} written to {span_file.relative_to(ROOT)}")
    except metrics.InsufficientSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace == 0:
        values["peak_rss_mb"] = peak_rss_mb

    units = metrics.UNITS
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(1 for p in passes for o in p.outcomes if o.kind == "error")
    record = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": _params(args.workload),
        "outcomes": metrics.outcome_counts(passes),
        "metrics": values,
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    for name, value in values.items():
        print(f"{name:<40s} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed str/bytes hashing: set and dict iteration orders in the
        # program, and so its work, repeat from run to run.  exec replaces
        # this process; it starts no other
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT))
    from perfbench.run import main as _main  # run as a package module

    raise SystemExit(_main())
