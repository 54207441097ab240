"""Tests of the benchmark itself: tiny runs, output checks, span accounting.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (HERE, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _one_cycle(workload, **kwargs) -> dict:
    return worker.run_cycles(workload, 0.0, **kwargs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_completes_tiny_with_nothing_failed(name):
    result = _one_cycle(workloads.WORKLOADS[name](3, tiny=True))
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    cycle = result["cycles"][0]
    assert cycle["timed_s"] > 0
    assert all(row[0] > 0 for row in cycle["ops"].values())


def test_same_seed_processes_agree_and_seeds_differ():
    a = _one_cycle(workloads.WORKLOADS["limulus_jobs"](5, tiny=True))
    b = _one_cycle(workloads.WORKLOADS["limulus_jobs"](5, tiny=True))
    c = _one_cycle(workloads.WORKLOADS["limulus_jobs"](6, tiny=True))
    assert a["digests"] == b["digests"]
    assert a["digests"] != c["digests"]


def test_traced_cycle_reports_every_layer_metric_and_keeps_outputs():
    result = _one_cycle(workloads.WORKLOADS["xcbc_build"](1, tiny=True),
                        trace=True)
    assert result["failed"] == 0, result["failures"]
    assert set(result["layers"]) == set(worker.PER_LAYER)
    layers = result["layers"]
    assert layers["rpm.busy_s"] > 0 and layers["distro.write_calls"] > 0
    assert layers["trace.overhead_ratio"] > 0
    # the traced cycle reproduced the untraced cycles' digests
    assert [c["traced"] for c in result["cycles"]] == [False, True, False]


def test_downgraded_package_fails_the_retrofit_check(monkeypatch):
    from repro.rpm.package import Package
    from repro.rpm.transaction import Transaction

    real = workloads.integrate_host
    calls = []

    def integrate_then_downgrade(client, **kwargs):
        report = real(client, **kwargs)
        calls.append(client)
        if len(calls) == 1:
            old = client.db.get("limulus-manage")
            Transaction(client.db).erase(old.name).commit()
            Transaction(client.db).install(
                Package(old.name, "1.0", category="vendor")).commit()
        return report

    monkeypatch.setattr(workloads, "integrate_host", integrate_then_downgrade)
    result = _one_cycle(workloads.WORKLOADS["xnit_retrofit"](1, tiny=True))
    assert result["failed"] == 1
    assert "limulus-manage removed or downgraded" in result["failures"][0]


def test_tampered_digest_fails_the_same_seed_check():
    class Tampered:
        def __init__(self):
            self.inner = workloads.WORKLOADS["release_storm"](2, tiny=True)
            self.runs = 0

        def cycle(self, c):
            self.inner.cycle(c)
            self.runs += 1
            if self.runs == 2:
                c.ops[0].digest = "0" * 64

    result = worker.run_cycles(Tampered(), 0.0, trace=True)  # three cycles
    assert result["failed"] == 1
    assert "same-seed digest differs" in result["failures"][0]


def test_cross_process_digest_mismatch_counts_as_failed():
    samples = [{"digests": {"a": "1", "b": "2"}, "failures": []},
               {"digests": {"a": "1", "b": "3"}, "failures": []}]
    assert run.cross_process_mismatches(samples) == 1
    assert "b: digest differs" in samples[1]["failures"][0]


def test_leaked_storm_request_fails_the_repod_audit(monkeypatch):
    class Leaky(workloads.UpdateStormScenario):
        def run(self):
            report = super().run()
            trace = self.kernel.trace
            last = max(i for i, rec in enumerate(trace._records)
                       if rec[2] == "repod.request")
            del trace._records[last]          # the request never terminated
            trace._materialised.clear()
            return report

    monkeypatch.setattr(workloads, "UpdateStormScenario", Leaky)
    result = _one_cycle(workloads.WORKLOADS["release_storm"](2, tiny=True))
    assert result["failed"] == 1
    assert "reached a terminal state" in result["failures"][0]


def test_wrong_allreduce_fails_the_mpi_check(monkeypatch):
    real = workloads.allreduce

    def off_by_one(world, data, op):
        merged = real(world, data, op)
        merged[-1] = [x + 1.0 for x in merged[-1]]
        return merged

    monkeypatch.setattr(workloads, "allreduce", off_by_one)
    result = _one_cycle(workloads.WORKLOADS["limulus_jobs"](1, tiny=True))
    assert result["failed"] == 1
    assert "allreduce result differs" in result["failures"][0]


def test_self_time_subtracts_child_spans():
    rec = spans.Recorder()
    rec.region(True)
    outer = rec.enter("rpm", "rpm.outer")
    inner = rec.enter("distro", "distro.inner")
    rec.exit(inner)
    rec.exit(outer)
    rec.region(False)
    by_name = {s[3]: s for s in rec.spans}
    inner_d = by_name["distro.inner"][5] - by_name["distro.inner"][4]
    outer_d = by_name["rpm.outer"][5] - by_name["rpm.outer"][4]
    assert rec.self_s["distro"] == pytest.approx(inner_d)
    assert rec.self_s["rpm"] == pytest.approx(outer_d - inner_d)
    assert by_name["distro.inner"][1] == by_name["rpm.outer"][0]


def test_patcher_restores_every_entry_point():
    from repro.core import xcbc
    from repro.rpm.transaction import Transaction
    from repro.sim.events import EventQueue

    before = (xcbc.build_xcbc_cluster, workloads.build_xcbc_cluster,
              vars(Transaction)["commit"], EventQueue.schedule)
    patcher = spans.Patcher(spans.Recorder(), extra_modules=[workloads])
    patcher.install()
    assert workloads.build_xcbc_cluster is not before[1]
    patcher.uninstall()
    after = (xcbc.build_xcbc_cluster, workloads.build_xcbc_cluster,
             vars(Transaction)["commit"], EventQueue.schedule)
    assert after == before


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "ops_per_s", "setup_s", "peak_rss_mb", "ok_share"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xcbc_build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_moves_operation_time_onto_the_reference_host():
    samples = iter([1.0, 3.0, 2.0, 2.5, 1.5] * 10)
    result = worker.run_cycles(
        workloads.WORKLOADS["release_storm"](1, tiny=True), 0.0,
        speed=lambda: next(samples),
    )
    assert result["host_slowdown"] == 2.0  # the median sample
    for units, ref_s, cpu_s in result["cycles"][0]["ops"].values():
        assert ref_s == pytest.approx(cpu_s / 2.0)
    assert worker.host_speed() > 0
