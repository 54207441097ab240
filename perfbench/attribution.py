#!/usr/bin/env python3
"""Render the per-layer self-time split of every workload as Markdown.

Runs ``run.py --trace 1`` once per workload and prints, for each, every
layer's share of the traced cycle's self time (layers under 1% are
folded into "other"), the tracing overhead and the main call counts.
This is the table ``BASELINE.md`` records::

    python3 perfbench/attribution.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Counters shown beside the split, where the workload exercises them.
COUNTERS = (
    "distro.write_calls", "rpm.check_calls", "rpm.plan_reuse_ratio",
    "yum.cache_hit_ratio", "recovery.intent_calls", "network.attach_calls",
    "monitoring.poll_calls", "scheduler.requeues", "shell.retry_ratio",
    "sim.events", "sim.us_per_event", "repod.shed_ratio",
    "repod.coalesce_ratio", "faults.budget_denied_ratio", "cas.site_hit_ratio",
    "cas.dedup_ratio", "mpi.allreduce_calls",
)


def traced(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def render(workload: str, m: dict[str, float]) -> str:
    busy = {k[: -len(".busy_s")]: v for k, v in m.items()
            if k.endswith(".busy_s")}
    total = sum(busy.values())
    shares = sorted(((v / total, k) for k, v in busy.items()), reverse=True)
    split = [f"`{k}` {share:.0%}" for share, k in shares if share >= 0.01]
    other = sum(share for share, _ in shares if share < 0.01)
    counters = [f"`{k}`={m[k]:.4g}" for k in COUNTERS if m.get(k)]
    return (
        f"| `{workload}` | {total:.3f} | {m['trace.overhead_ratio']:.2f}x | "
        f"{', '.join(split)}, other {other:.0%} | {', '.join(counters)} |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    from run import WORKLOADS

    print("| workload | traced self time per cycle (reference-host s) | "
          "overhead | self-time split | counts and ratios per cycle |")
    print("|---|---|---|---|---|")
    for workload in WORKLOADS:
        print(render(workload, traced(workload, args.seed, args.seconds)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
