#!/usr/bin/env python3
"""The repository benchmark: five Table 3 workloads, host-time metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload xcbc_build --seed 1 --seconds 12 --trace 0

``--trace 0`` starts :data:`SAMPLES` fresh worker processes one after the
other, each measuring a share of ``--seconds``, and prints the end-to-end
metrics (``ops_per_s``, ``setup_s``, ``peak_rss_mb``, ``ok_share``).
``--trace 1`` starts one worker that alternates untraced and traced
cycles and prints the per-layer metrics plus the tracing overhead.

Every operation's outputs are checked and digested; an operation whose
public call raised, whose check failed, or whose digest differs from
another run of the same seed counts as failed.  Before the result, the
benchmark prints each operation's simulated outcomes (model outputs) and
digest.  The last line is the JSON result.  Exit codes: 0 with a result,
1 when a worker crashed, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("xcbc_build", "xnit_retrofit", "fleet_rollout", "release_storm",
             "limulus_jobs")
#: Fresh processes per untraced run; ``setup_s`` is their median.
SAMPLES = 3
#: Every worker must end by then, so the run ends within 180 s.
DEADLINE_S = 170.0


def _worker(args, budget: float, trace: int, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--trace", str(trace)]
    if trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(out_dir / f"spans-{args.workload}.jsonl")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def cross_process_mismatches(samples: list[dict]) -> int:
    """Same seed, fresh processes: every operation's digest must agree.

    Returns the number of mismatching operations and records each one in
    the failures of the sample that disagreed with the first.
    """
    mismatches = 0
    for sample in samples[1:]:
        for name, digest in sample["digests"].items():
            if samples[0]["digests"].get(name) != digest:
                mismatches += 1
                sample["failures"].append(
                    f"{name}: digest differs between processes")
    return mismatches


def ops_per_s(samples: list[dict]) -> float:
    """Units per reference-host CPU second of the median cycle, assembled
    operation by operation.

    Each operation's units and seconds are the medians over every cycle of
    every sample process, so a noise burst in one repetition of one
    operation is rejected without discarding the rest of its cycle.
    """
    per_op: dict[str, list[list[float]]] = {}
    for sample in samples:
        for cycle in sample["cycles"]:
            for name, row in cycle["ops"].items():
                per_op.setdefault(name, []).append(row)
    units = sum(statistics.median(row[0] for row in rows)
                for rows in per_op.values())
    seconds = sum(statistics.median(row[1] for row in rows)
                  for rows in per_op.values())
    return units / seconds if seconds else 0.0  # 0: every operation failed


def _print_model_outputs(workload: str, samples: list[dict]) -> None:
    """Simulated outcomes and digest of each operation, then the workload's
    digest over them.  Digests are model outputs: they change when the
    model changes and are compared only between runs of one checkout."""
    digests = samples[0]["digests"]
    for name in sorted(digests):
        print(json.dumps({"op": name, "digest": digests[name],
                          "outcomes": samples[0]["outcomes"][name]},
                         sort_keys=True))
    combined = hashlib.sha256(
        "".join(f"{n}={digests[n]}\n" for n in sorted(digests)).encode()
    ).hexdigest()
    print(json.dumps({"workload": workload, "digest": combined}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # A terminated benchmark still stops its worker: SystemExit unwinds
    # through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    runs = SAMPLES if args.trace == 0 else 1
    try:
        samples = [_worker(args, args.seconds / runs, args.trace, deadline)
                   for _ in range(runs)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples) + cross_process_mismatches(samples)
    for s in samples:
        for failure in s["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    _print_model_outputs(args.workload, samples)

    if args.trace:
        layers = samples[0]["layers"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s(samples), "unit": "1/s"},
            "setup_s": {
                "value": statistics.median(s["setup_s"] for s in samples),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(s["peak_rss_mb"] for s in samples),
                "unit": "MB",
            },
            "ok_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
