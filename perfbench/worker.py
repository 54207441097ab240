"""One fresh benchmark process: set up a workload, run cycles, report.

``run.py`` starts this script once per sample process and reads the JSON
object it prints last.  It is importable, so the benchmark's tests drive
:func:`run_cycles` in-process at a tiny size.

Usage (normally via ``run.py``)::

    python3 perfbench/worker.py --workload xcbc_build --seed 1 --budget 3.0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (HERE, HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from spans import LAYERS  # noqa: E402  (stdlib-only module)

#: Per-layer metrics as ``BENCHMARK.json`` lists them: name -> unit.
#: ``busy_s`` is self time; other ``_s`` metrics are inclusive time in the
#: named call.  All are per cycle, the median over a run's traced cycles.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    "distro.write_calls": "count",
    "rpm.check_calls": "count",
    "rpm.check_s": "s",
    "rpm.commit_s": "s",
    "rpm.plan_reuse_ratio": "ratio",
    "yum.resolve_calls": "count",
    "yum.resolve_s": "s",
    "yum.cache_hit_ratio": "ratio",
    "yum.update_s": "s",
    "recovery.intent_calls": "count",
    "network.attach_calls": "count",
    "monitoring.poll_calls": "count",
    "shell.retry_ratio": "ratio",
    "scheduler.requeues": "count",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.emit_calls": "count",
    "sim.emit_s": "s",
    "sim.jsonl_s": "s",
    "repod.shed_ratio": "ratio",
    "repod.retry_ratio": "ratio",
    "repod.coalesce_ratio": "ratio",
    "repod.proxy_hit_ratio": "ratio",
    "faults.retries": "count",
    "faults.budget_denied_ratio": "ratio",
    "cas.fetch_calls": "count",
    "cas.site_hit_ratio": "ratio",
    "cas.dedup_ratio": "ratio",
    "cas.wan_bytes": "bytes",
    "mpi.allreduce_calls": "count",
    "mpi.bytes_reduced": "computed-bytes",
    "trace.overhead_ratio": "x",
}


#: CPU seconds the calibration loop in :func:`host_speed` takes on the
#: reference host.
CALIBRATION_REF_S = 0.006


def host_speed() -> float:
    """How slow the host runs now: 1.0 on the reference host, 2.0 at half
    its speed, from the CPU time of a fixed interpreter loop.

    On a shared machine the CPU time of identical work swings by a third
    for seconds at a time; dividing by this moves every host-time figure
    onto one reference host, so the program's cost is compared and not
    the neighbours' load.
    """
    t0 = time.process_time()
    total = 0
    table = {}
    for i in range(60_000):
        total += i * 3
        table[i & 255] = total
    return (time.process_time() - t0) / CALIBRATION_REF_S


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, stats: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced cycle."""
    calls, incl, busy = rec.calls, rec.incl_s, rec.self_s
    st = lambda key: stats.get(key, 0)  # noqa: E731
    out = {name: busy.get(name.split(".")[0], 0.0)
           for name in PER_LAYER if name.endswith(".busy_s")}
    commits = calls["rpm.Transaction.commit_planned"]
    out.update({
        "distro.write_calls": calls["distro.Filesystem.write"],
        "rpm.check_calls": calls["rpm.Transaction.check_diagnostics"],
        "rpm.check_s": incl["rpm.Transaction.check_diagnostics"],
        "rpm.commit_s": incl["rpm.Transaction.commit_planned"],
        # every commit() ends in commit_planned(); the rest reused a plan
        "rpm.plan_reuse_ratio": _ratio(
            commits - calls["rpm.Transaction.commit"], commits),
        "yum.resolve_calls": calls["yum.resolve_install"]
        + calls["yum.resolve_update"],
        "yum.resolve_s": incl["yum.resolve_install"]
        + incl["yum.resolve_update"],
        "yum.cache_hit_ratio": _ratio(
            st("yum.cache_hits"), st("yum.cache_hits") + st("yum.cache_misses")),
        "yum.update_s": incl["yum.YumClient.update"],
        "recovery.intent_calls": calls["recovery.Journal.intent"],
        "network.attach_calls": calls["network.Switch.attach"],
        "monitoring.poll_calls": calls["monitoring.GmetadTree.poll_cycle"]
        + calls["monitoring.Gmetad.poll_cycle"],
        "shell.retry_ratio": _ratio(st("shell.retries"), st("shell.nodes")),
        "scheduler.requeues": st("scheduler.requeues"),
        "sim.events": st("sim.events"),
        # kernel and trace-bus self time per event, JSONL encoding excluded
        "sim.us_per_event": _ratio(
            (busy.get("sim", 0.0) - incl["sim.TraceBus.to_jsonl"]) * 1e6,
            st("sim.events")),
        "sim.emit_calls": calls["sim.TraceBus.emit"],
        "sim.emit_s": incl["sim.TraceBus.emit"],
        "sim.jsonl_s": incl["sim.TraceBus.to_jsonl"],
        "repod.shed_ratio": _ratio(
            st("repod.origin_shed_full") + st("repod.origin_shed_deadline"),
            st("repod.origin_arrivals")),
        "repod.retry_ratio": _ratio(st("repod.retries"), st("repod.offered")),
        "repod.coalesce_ratio": _ratio(
            st("repod.proxy_coalesced"), st("repod.proxy_misses")),
        "repod.proxy_hit_ratio": _ratio(
            st("repod.proxy_hits"),
            st("repod.proxy_hits") + st("repod.proxy_misses")),
        "faults.retries": st("repod.retries"),
        "faults.budget_denied_ratio": _ratio(
            st("repod.budget_denied"),
            st("repod.budget_granted") + st("repod.budget_denied")),
        "cas.fetch_calls": calls["cas.LazyDelivery.fetch_package"],
        "cas.site_hit_ratio": _ratio(
            st("cas.site_hits"), st("cas.site_hits") + st("cas.site_misses")),
        "cas.dedup_ratio": 1.0 - _ratio(
            st("cas.chunks_fetched"), st("cas.chunks_requested"))
        if st("cas.chunks_requested") else 0.0,
        "cas.wan_bytes": st("cas.wan_bytes"),
        "mpi.allreduce_calls": calls["mpi.allreduce"],
        "mpi.bytes_reduced": st("mpi.bytes_reduced"),
    })
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycles(workload, budget_s: float, *, trace: bool = False,
               spans_out: str | None = None, speed=None) -> dict:
    """Run cycles of ``workload`` until ``budget_s`` of measuring is spent.

    Untraced: every cycle counts.  Traced: cycles alternate untraced and
    traced, starting untraced (at least three cycles); per-layer
    metrics come from the traced ones and the overhead compares their
    timed seconds with the untraced ones.

    ``speed`` (default: no correction) is sampled at every operation
    boundary; host times are divided by the median sample of the whole
    process.  The slow and fast phases of a shared machine last seconds,
    longer than most operations, so the process-wide median tracks them
    while one ~6 ms sample next to a long operation would mostly add noise.
    """
    from workloads import Cycle

    if trace:
        import workloads
        from spans import Patcher, Recorder
    first_digest: dict[str, str] = {}
    failures: list[str] = []
    cycles: list[dict] = []
    traced: list[dict] = []
    untraced_cpu: list[float] = []
    speed_samples: list[float] = []
    attempted = failed = 0
    started = None
    outcomes: dict[str, object] = {}
    while True:
        traced_cycle = trace and len(cycles) % 2 == 1
        gc.collect()
        if traced_cycle:
            rec = Recorder()
            patcher = Patcher(rec, extra_modules=[workloads])
            patcher.install()
        wall0 = time.monotonic()
        c = Cycle(on_region=rec.region if traced_cycle else None,
                  host_speed=speed)
        try:
            workload.cycle(c)
        finally:
            if traced_cycle:
                patcher.uninstall()
        wall = time.monotonic() - wall0
        if started is None:
            started = wall0
            first_timed_cpu = (c.first_timed_at if c.first_timed_at is not None
                               else time.process_time())
        speed_samples += c.speed_samples
        stats: dict[str, float] = {}
        for op in c.ops:
            attempted += 1
            for key, value in op.stats.items():
                stats[key] = stats.get(key, 0) + value
            reasons = list(op.problems)
            if op.error:
                reasons.append(op.error)
            if first_digest.setdefault(op.name, op.digest) != op.digest:
                reasons.append("same-seed digest differs from the first cycle")
            if reasons:
                failed += 1
                failures.append(f"{op.name}: {'; '.join(reasons[:3])}")
            if op.name not in outcomes:
                outcomes[op.name] = op.outcomes
        cycles.append({
            "timed_s": c.timed_s, "wall_s": wall, "traced": traced_cycle,
            # op -> [units, CPU seconds]; failed ops count in ok_share only
            "ops": {op.name: [op.units, op.timed_s]
                    for op in c.ops if not op.failed},
        })
        if traced_cycle:
            traced.append(layer_metrics(rec, stats) | {"_cpu_s": c.timed_s})
        else:
            untraced_cpu.append(c.timed_s)
        # Start another cycle while at least half of one fits the budget.
        elapsed = time.monotonic() - started
        mean_wall = statistics.fmean(x["wall_s"] for x in cycles)
        enough = len(cycles) >= (3 if trace else 1)
        if enough and elapsed + mean_wall / 2 > budget_s:
            break
    slowdown = statistics.median(speed_samples) if speed_samples else 1.0
    for cycle in cycles:
        # op rows become [units, reference-host seconds, CPU seconds here]
        for row in cycle["ops"].values():
            row.insert(1, row[1] / slowdown)
    result = {
        "host_slowdown": slowdown,
        # CPU seconds of this process up to the first timed call
        # (interpreter start-up, imports, set-up, one calibration sample)
        # on the reference host
        "setup_s": first_timed_cpu / slowdown,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digests": first_digest,
        "outcomes": outcomes,
        "cycles": cycles,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        if spans_out:
            rec.write(spans_out)  # the last traced cycle's spans
        layers = {
            name: statistics.median(t[name] for t in traced)
            # host-time layer metrics move onto the reference host too
            / (slowdown if unit in ("s", "us") else 1.0)
            for name, unit in PER_LAYER.items()
            if name != "trace.overhead_ratio"
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(t["_cpu_s"] for t in traced)
            / statistics.median(untraced_cpu)
        )
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result = run_cycles(workload, args.budget, trace=bool(args.trace),
                        spans_out=args.spans_out, speed=host_speed)
    result["unit"] = workload.unit
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
